// Package cache is the serving layer's cross-request memo: a bounded,
// sharded, content-addressed LRU of byte payloads keyed by 32-byte content
// addresses. The paper makes one fixed-topology optimization cheap; callers
// that re-optimize near-identical trees thousands of times (interactive
// editors, annealers, workload generators) make the amortized cost matter,
// and a content-addressed cache turns repeated work into lookups.
//
// The one LRU serves two memo levels, each recording its own telemetry
// family: New builds the whole-request result cache (cache.* counters),
// keyed by the canonical hash of (subtree structure, module shape lists,
// selection limits) and holding the marshaled deterministic result, so a
// hit is byte-identical to the original computation by construction.
// internal/substore builds the per-subtree store on the same LRU through
// NewLRU (substore.* counters) and adds only its record codec.
//
// Storage is bounded by a byte budget accounted through an
// internal/memtrack.Tracker — the same reservation-based admission the
// optimizer uses for implementation counts — with per-shard LRU eviction
// making room; an entry larger than the whole budget is rejected rather
// than thrashing the cache. All operations are safe for concurrent use;
// locking is per shard.
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
// LRU node) charged against the byte budget in addition to the payload.
const entryOverhead = 128

// Config sizes a Cache.
type Config struct {
	// MaxBytes is the budget for payload bytes plus per-entry overhead.
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

// Counters names the telemetry family a Cache records, so each memo level
// built on the LRU reports under its own names.
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

// Cache is the sharded LRU. A nil *Cache is the disabled state: Get always
// misses, Put is a no-op.
type Cache struct {
	shards []shard
	mask   uint32
	mem    *memtrack.Tracker
	tel    *telemetry.Collector
	ctr    Counters

	hits, misses, evictions, rejects atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
}

type entry struct {
	key   Key
	value []byte
	size  int64
}

// New builds the result cache under the given byte budget.
func New(cfg Config) (*Cache, error) { return NewLRU(cfg, resultCounters) }

// NewLRU builds a cache under the given byte budget that records the
// counter family ctr.
func NewLRU(cfg Config, ctr Counters) (*Cache, error) {
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
	c := &Cache{
		shards: make([]shard, p),
		mask:   uint32(p - 1),
		mem:    memtrack.NewTracker(cfg.MaxBytes),
		tel:    cfg.Telemetry,
		ctr:    ctr,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c, nil
}

func (c *Cache) shard(k Key) *shard {
	return &c.shards[binary.LittleEndian.Uint32(k[:4])&c.mask]
}

// Get returns the payload stored under k and marks the entry recently used.
// The returned bytes are shared and must be treated as immutable. A nil
// cache always misses.
func (c *Cache) Get(k Key) ([]byte, bool) { return GetDecoded(c, k, keepBytes) }

func keepBytes(b []byte) ([]byte, error) { return b, nil }

// GetDecoded is Get for callers that store an encoded value: it decodes the
// entry's bytes outside the shard lock. An entry decode rejects (format
// drift) is deleted and the lookup counts as a miss, not a hit.
func GetDecoded[T any](c *Cache, k Key, decode func([]byte) (T, error)) (T, bool) {
	var zero T
	if c == nil {
		return zero, false
	}
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if ok {
		v, err := decode(el.Value.(*entry).value)
		if err == nil {
			c.hits.Add(1)
			c.tel.Inc(c.ctr.Hits)
			return v, true
		}
		c.Delete(k)
	}
	c.misses.Add(1)
	c.tel.Inc(c.ctr.Misses)
	return zero, false
}

// Put stores value under k, evicting least-recently-used entries of the
// same shard until the byte budget admits it. Storing an existing key is a
// no-op (values are content-addressed: same key, same bytes). An entry the
// budget can never admit — or one that would require evicting the entire
// shard and still not fit — is dropped and counted as a reject. The caller
// must not modify value afterwards.
func (c *Cache) Put(k Key, value []byte) {
	if c == nil {
		return
	}
	size := int64(len(value)) + entryOverhead
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
	el := s.lru.PushFront(&entry{key: k, value: value, size: size})
	s.entries[k] = el
	c.tel.Observe(c.ctr.PeakBytes, c.mem.Current())
}

// Delete removes the entry stored under k, if present, and releases its
// bytes. It is not counted as an eviction.
func (c *Cache) Delete(k Key) {
	if c == nil {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		c.remove(s, el)
	}
}

// evictOldest removes the shard's least-recently-used entry. The shard
// lock must be held.
func (c *Cache) evictOldest(s *shard) {
	el := s.lru.Back()
	if el == nil {
		return
	}
	c.remove(s, el)
	c.evictions.Add(1)
	c.tel.Inc(c.ctr.Evictions)
}

// remove unlinks el and releases its bytes. The shard lock must be held.
func (c *Cache) remove(s *shard, el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.entries, e.key)
	// Release cannot fail here: every stored entry's size was admitted.
	_ = c.mem.Release(e.size)
}

// Len returns the number of entries across all shards.
func (c *Cache) Len() int {
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

// Stats snapshots the cache. A nil cache reports zeros.
func (c *Cache) Stats() Stats {
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
