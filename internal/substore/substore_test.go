package substore

import (
	"reflect"
	"testing"

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
		RSel:       true,
		Generated:  7,
		Stored:     3,
		SelErr:     12,
		SelN:       7,
		SelK:       3,
		Candidates: 21,
		RL:         shape.RList{{W: w, H: 2}, {W: w + 1, H: 1}},
	}
}

// TestRecordRoundTrip serializes and re-decodes both record shapes and
// demands exact equality — splicing depends on every field surviving.
func TestRecordRoundTrip(t *testing.T) {
	recs := []NodeRecord{
		rRecord(4),
		{
			LShaped:    true,
			LSel:       true,
			Generated:  11,
			Stored:     5,
			Lists:      2,
			SelErr:     -3,
			SelN:       11,
			SelK:       5,
			Candidates: 40,
			LS: shape.LSet{Lists: []shape.LList{
				{{W1: 5, W2: 2, H1: 4, H2: 1}, {W1: 4, W2: 3, H1: 5, H2: 2}},
				{},
			}},
		},
		{RL: shape.RList{}},
	}
	for i, rec := range recs {
		blob := appendRecord(nil, rec)
		back, err := decodeRecord(blob)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		// Decoding materializes empty slices; normalize before comparing.
		if len(rec.RL) == 0 && len(back.RL) == 0 {
			rec.RL, back.RL = nil, nil
		}
		if !reflect.DeepEqual(rec, back) {
			t.Fatalf("record %d round trip:\n%+v\n%+v", i, rec, back)
		}
	}
}

// TestRecordDecodeRejects feeds malformed blobs: wrong version, truncation
// and trailing garbage must all error rather than decode junk.
func TestRecordDecodeRejects(t *testing.T) {
	good := appendRecord(nil, rRecord(4))
	bad := [][]byte{
		nil,
		{recordVersion},
		{recordVersion + 1, 0},
		good[:len(good)-1],
		append(append([]byte{}, good...), 0),
	}
	for i, blob := range bad {
		if _, err := decodeRecord(blob); err == nil {
			t.Fatalf("blob %d decoded without error", i)
		}
	}
}

// TestStoreGetPut covers the basic contract: miss before put, hit after,
// content-addressed no-op on re-put, and stats accounting.
func TestStoreGetPut(t *testing.T) {
	s, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := digest(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	s.Put(k, rRecord(4))
	rec, ok := s.Get(k)
	if !ok {
		t.Fatal("miss after put")
	}
	if !rec.RL.Equal(rRecord(4).RL) || rec.SelErr != 12 {
		t.Fatalf("got %+v", rec)
	}
	// Same digest, same evaluation: a second put must not grow the store.
	s.Put(k, rRecord(4))
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate put", s.Len())
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.Budget {
		t.Fatalf("bytes %d outside (0, %d]", st.Bytes, st.Budget)
	}
}

// TestStoreDropsUndecodable plants a corrupt blob through the LRU and
// checks Get treats it as a miss (not a hit) and removes it.
func TestStoreDropsUndecodable(t *testing.T) {
	s, err := New(Config{MaxBytes: 1 << 20, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	k := digest(3)
	s.lru().Put(cache.Key(k), []byte{recordVersion + 9})
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt record served as a hit")
	}
	if s.Len() != 0 {
		t.Fatal("corrupt record left resident")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.Bytes != 0 {
		t.Fatalf("stats after dropping a corrupt record: %+v", st)
	}
}

// TestNilStore checks the disabled state: every method is a safe no-op.
func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get(digest(1)); ok {
		t.Fatal("nil store hit")
	}
	s.Put(digest(1), rRecord(4))
	if s.Len() != 0 || s.Stats() != (Stats{}) {
		t.Fatal("nil store reported state")
	}
}
