package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"floorplan/internal/telemetry"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

func TestHitMiss(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("curve"))
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, []byte("curve")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != int64(len("curve"))+entryOverhead {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestPutIdempotent(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(2)
	c.Put(k, []byte("v"))
	before := c.Stats().Bytes
	c.Put(k, []byte("v"))
	if got := c.Stats().Bytes; got != before {
		t.Fatalf("re-Put changed accounting: %d -> %d", before, got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget fits exactly two single-byte entries; one shard so the LRU
	// order is global.
	budget := 2 * (1 + entryOverhead)
	c, err := New(Config{MaxBytes: int64(budget), Shards: 1, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := testKey(1), testKey(2), testKey(3)
	c.Put(k1, []byte("a"))
	c.Put(k2, []byte("b"))
	// Touch k1 so k2 becomes the LRU victim.
	if _, ok := c.Get(k1); !ok {
		t.Fatal("k1 missing before eviction")
	}
	c.Put(k3, []byte("c"))
	if _, ok := c.Get(k2); ok {
		t.Fatal("LRU entry k2 survived eviction")
	}
	for _, k := range []Key{k1, k3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %v evicted out of LRU order", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
}

func TestOversizeReject(t *testing.T) {
	c, err := New(Config{MaxBytes: entryOverhead + 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, big := testKey(1), testKey(2)
	c.Put(small, []byte("ok"))
	c.Put(big, make([]byte, 4096)) // cannot ever fit
	if _, ok := c.Get(big); ok {
		t.Fatal("oversize entry stored")
	}
	if st := c.Stats(); st.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", st.Rejects)
	}
	// The resident small entry was not sacrificed for an unfittable one.
	if _, ok := c.Get(small); !ok {
		t.Fatal("resident entry lost to an oversize reject")
	}
}

func TestNilCacheDisabled(t *testing.T) {
	var c *Cache
	c.Put(testKey(1), []byte("v"))
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil Len != 0")
	}
	// Disabled means nil, never a zero-budget cache.
	for _, b := range []int64{0, -1} {
		if _, err := New(Config{MaxBytes: b}); err == nil {
			t.Fatalf("New accepted budget %d", b)
		}
	}
}

// TestRaceOneKey hammers a single key from many goroutines — the pattern a
// repeated-subtree workload produces — while a sibling key churns evictions
// in the same shard. Run under -race by `make check`.
func TestRaceOneKey(t *testing.T) {
	budget := 4 * (64 + entryOverhead)
	c, err := New(Config{MaxBytes: int64(budget), Shards: 1, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	hot := testKey(7)
	payload := bytes.Repeat([]byte("x"), 64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if v, ok := c.Get(hot); ok {
					if !bytes.Equal(v, payload) {
						t.Errorf("corrupted payload: %d bytes", len(v))
						return
					}
				} else {
					c.Put(hot, payload)
				}
				// Churn a goroutine-local key to force concurrent evictions.
				k := testKey(byte(32 + g))
				c.Put(k, bytes.Repeat([]byte("y"), 64))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits under concurrent hammering")
	}
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
}

// TestRacePeerFillEviction models the cluster tier's peer-fill traffic: many
// goroutines repeatedly Put the same small key set — idempotent stores of
// identical bytes per key, exactly what hot-key replication produces — into a
// budget that holds only a fraction of it, so every fill races an eviction.
// Correctness under -race: a Get never returns another key's bytes and the
// budget invariant holds throughout.
func TestRacePeerFillEviction(t *testing.T) {
	const distinct = 12
	budget := 3 * (32 + entryOverhead) // room for ~3 of the 12 keys
	c, err := New(Config{MaxBytes: int64(budget), Shards: 2, Telemetry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 32)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				n := (g*7 + i) % distinct
				k := testKey(byte(n))
				if v, ok := c.Get(k); ok {
					if !bytes.Equal(v, payload(n)) {
						t.Errorf("key %d answered another key's bytes", n)
						return
					}
				} else {
					c.Put(k, payload(n))
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions: the budget did not force fill/evict contention")
	}
}

func TestShardedSpread(t *testing.T) {
	c, err := New(Config{MaxBytes: 1 << 20, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		var k Key
		k[0] = byte(i) // first key bytes select the shard
		c.Put(k, []byte(fmt.Sprintf("v%d", i)))
	}
	if c.Len() != 64 {
		t.Fatalf("Len = %d, want 64", c.Len())
	}
	used := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		if len(c.shards[i].entries) > 0 {
			used++
		}
		c.shards[i].mu.Unlock()
	}
	if used < 2 {
		t.Fatalf("all entries landed in %d shard(s)", used)
	}
}
