// Package cache is the serving layer's cross-request memo: a bounded,
// sharded, content-addressed LRU keyed by 32-byte content addresses. The
// paper makes one fixed-topology optimization cheap; callers that
// re-optimize near-identical trees thousands of times (interactive editors,
// annealers, workload generators) make the amortized cost matter, and a
// content-addressed cache turns repeated work into lookups.
//
// The one LRU, generic over its value type, serves two memo levels, each
// recording its own telemetry family: New builds the whole-request result
// cache (cache.* counters), an LRU of byte payloads keyed by the canonical
// hash of (subtree structure, module shape lists, selection limits) and
// holding the marshaled deterministic result, so a hit is byte-identical to
// the original computation by construction. internal/substore builds the
// per-subtree store through NewLRU (substore.* counters): an LRU of node
// records held as values, charged by the bytes they hold in memory.
//
// Storage is bounded by a byte budget accounted through an
// internal/memtrack.Tracker — the same reservation-based admission the
// optimizer uses for implementation counts — with per-shard LRU eviction
// making room; an entry larger than the whole budget is rejected rather
// than thrashing the cache. All operations are safe for concurrent use;
// locking is per shard. Values are shared, never copied: callers must not
// modify a value after Put or one that Get returned.
package cache

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"floorplan/internal/memtrack"
	"floorplan/internal/telemetry"
)

// entryOverhead approximates the per-entry bookkeeping cost (key, map slot,
// LRU node) charged against the byte budget in addition to the value's own
// size.
const entryOverhead = 128

// Config sizes an LRU.
type Config struct {
	// MaxBytes is the budget for value bytes plus per-entry overhead.
	// Required: New fails on a non-positive budget (a disabled cache is a
	// nil *Cache, which every method accepts).
	MaxBytes int64
	// Shards is the number of independently locked shards (0 = 16; rounded
	// up to a power of two).
	Shards int
	// Telemetry receives hit/miss/eviction counters and the byte-footprint
	// watermark; nil disables recording.
	Telemetry *telemetry.Collector
}

// Counters names the telemetry family an LRU records, so each memo level
// built on it reports under its own names.
type Counters struct {
	Hits, Misses, Evictions, Rejects telemetry.Counter
	PeakBytes                        telemetry.Watermark
}

// resultCounters is the result cache's family.
var resultCounters = Counters{
	Hits:      telemetry.CtrCacheHits,
	Misses:    telemetry.CtrCacheMisses,
	Evictions: telemetry.CtrCacheEvictions,
	Rejects:   telemetry.CtrCacheRejects,
	PeakBytes: telemetry.MaxCacheBytes,
}

// LRU is the sharded LRU of values of type V. A nil *LRU is the disabled
// state: Get always misses, Put is a no-op.
type LRU[V any] struct {
	shards []shard
	mask   uint32
	mem    *memtrack.Tracker
	tel    *telemetry.Collector
	ctr    Counters
	// size is the byte charge of one value, fixed when the LRU is built.
	size func(V) int64

	hits, misses, evictions, rejects atomic.Int64
}

// Cache is the result cache: an LRU of marshaled result payloads.
type Cache = LRU[[]byte]

type shard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
}

type entry[V any] struct {
	key   Key
	value V
	size  int64
}

// New builds the result cache under the given byte budget. A payload is
// charged its length.
func New(cfg Config) (*Cache, error) {
	return NewLRU(cfg, resultCounters, func(b []byte) int64 { return int64(len(b)) })
}

// NewLRU builds an LRU under the given byte budget that records the
// counter family ctr and charges each value size(value) bytes.
func NewLRU[V any](cfg Config, ctr Counters, size func(V) int64) (*LRU[V], error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive byte budget %d", cfg.MaxBytes)
	}
	n := cfg.Shards
	if n <= 0 {
		n = 16
	}
	// Round up to a power of two so shard selection is a mask.
	p := 1
	for p < n {
		p <<= 1
	}
	c := &LRU[V]{
		shards: make([]shard, p),
		mask:   uint32(p - 1),
		mem:    memtrack.NewTracker(cfg.MaxBytes),
		tel:    cfg.Telemetry,
		ctr:    ctr,
		size:   size,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c, nil
}

func (c *LRU[V]) shard(k Key) *shard {
	return &c.shards[binary.LittleEndian.Uint32(k[:4])&c.mask]
}

// Get returns the value stored under k and marks the entry recently used.
// The value is shared with the cache and every other reader and must be
// treated as immutable. A nil LRU always misses.
func (c *LRU[V]) Get(k Key) (V, bool) {
	var v V
	if c == nil {
		return v, false
	}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(el)
		v = el.Value.(*entry[V]).value
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		c.tel.Inc(c.ctr.Hits)
	} else {
		c.misses.Add(1)
		c.tel.Inc(c.ctr.Misses)
	}
	return v, ok
}

// Put stores value under k, evicting least-recently-used entries of the
// same shard until the byte budget admits it. Storing an existing key is a
// no-op (values are content-addressed: same key, same value). An entry the
// budget can never admit — or one that would require evicting the entire
// shard and still not fit — is dropped and counted as a reject. The caller
// must not modify value afterwards.
func (c *LRU[V]) Put(k Key, value V) {
	if c == nil {
		return
	}
	size := c.size(value) + entryOverhead
	if size > c.mem.Limit() {
		// Never admissible: reject before sacrificing resident entries.
		c.rejects.Add(1)
		c.tel.Inc(c.ctr.Rejects)
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[k]; exists {
		return
	}
	for {
		err := c.mem.Add(size)
		if err == nil {
			break
		}
		if !errors.Is(err, memtrack.ErrLimit) || s.lru.Len() == 0 {
			// Oversize for the whole budget, or this shard has nothing
			// left to give back: drop the entry.
			c.rejects.Add(1)
			c.tel.Inc(c.ctr.Rejects)
			return
		}
		c.evictOldest(s)
	}
	el := s.lru.PushFront(&entry[V]{key: k, value: value, size: size})
	s.entries[k] = el
	c.tel.Observe(c.ctr.PeakBytes, c.mem.Current())
}

// evictOldest removes the shard's least-recently-used entry and releases
// its bytes. The shard lock must be held and the shard must be non-empty.
func (c *LRU[V]) evictOldest(s *shard) {
	e := s.lru.Remove(s.lru.Back()).(*entry[V])
	delete(s.entries, e.key)
	// Release cannot fail here: every stored entry's size was admitted.
	_ = c.mem.Release(e.size)
	c.evictions.Add(1)
	c.tel.Inc(c.ctr.Evictions)
}

// Len returns the number of entries across all shards.
func (c *LRU[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time snapshot for /v1/stats and tests.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	PeakBytes int64 `json:"peak_bytes"`
	Budget    int64 `json:"budget"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Rejects   int64 `json:"rejects"`
}

// Stats snapshots the LRU. A nil LRU reports zeros.
func (c *LRU[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Entries:   c.Len(),
		Bytes:     c.mem.Current(),
		PeakBytes: c.mem.Admitted(),
		Budget:    c.mem.Limit(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejects:   c.rejects.Load(),
	}
}
