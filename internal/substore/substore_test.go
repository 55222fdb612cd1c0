package substore

import (
	"reflect"
	"testing"
	"unsafe"

	"floorplan/internal/cache"
	"floorplan/internal/plan"
	"floorplan/internal/shape"
)

func digest(b byte) plan.Digest {
	var d plan.Digest
	d[0] = b
	return d
}

func rRecord(w int64) NodeRecord {
	return NodeRecord{
		RSel:      true,
		Generated: 7,
		Stored:    3,
		SelErr:    12,
		SelN:      7,
		SelK:      3,
		RL:        shape.RList{{W: w, H: 2}, {W: w + 1, H: 1}},
	}
}

func lRecord() NodeRecord {
	return NodeRecord{
		LShaped:   true,
		LSel:      true,
		Generated: 11,
		Stored:    5,
		Lists:     2,
		SelErr:    -3,
		SelN:      11,
		SelK:      5,
		LS: shape.LSet{Lists: []shape.LList{
			{{W1: 5, W2: 2, H1: 4, H2: 1}, {W1: 4, W2: 3, H1: 5, H2: 2}},
			{},
		}},
	}
}

// overhead is the LRU's per-entry charge: what a result-cache entry with
// an empty payload costs.
func overhead(t *testing.T) int64 {
	t.Helper()
	c, err := cache.New(cache.Config{MaxBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(cache.Key{}, nil)
	return c.Stats().Bytes
}

// TestStoreGetPut covers the basic contract for both record shapes: miss
// before put, every field back after it, content-addressed no-op on
// re-put, and a byte charge of what the record holds in memory — the
// struct and the capacity of every list — plus the per-entry overhead.
func TestStoreGetPut(t *testing.T) {
	s, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	recSize := int64(unsafe.Sizeof(NodeRecord{}))
	cases := []struct {
		rec     NodeRecord
		charged int64
	}{
		{rRecord(4), recSize + 2*int64(unsafe.Sizeof(shape.RImpl{}))},
		{lRecord(), recSize + 2*int64(unsafe.Sizeof(shape.LList{})) + 2*int64(unsafe.Sizeof(shape.LImpl{}))},
	}
	perEntry := overhead(t)
	var want int64
	for i, tc := range cases {
		k := digest(byte(i + 1))
		if _, ok := s.Get(k); ok {
			t.Fatalf("record %d: hit on empty store", i)
		}
		s.Put(k, tc.rec)
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("record %d: miss after put", i)
		}
		if !reflect.DeepEqual(got, tc.rec) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, tc.rec)
		}
		// Same digest, same evaluation: a second put must not grow the store.
		s.Put(k, tc.rec)
		want += tc.charged + perEntry
		if st := s.Stats(); st.Bytes != want {
			t.Fatalf("record %d: store holds %d bytes, want %d", i, st.Bytes, want)
		}
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestNilStore checks the disabled state: every method is a safe no-op.
func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get(digest(1)); ok {
		t.Fatal("nil store hit")
	}
	s.Put(digest(1), rRecord(4))
	if s.Stats() != (Stats{}) {
		t.Fatal("nil store reported state")
	}
}
