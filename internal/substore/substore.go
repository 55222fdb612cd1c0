// Package substore is the optimizer's cross-request subtree memo: a
// bounded, content-addressed store of per-node evaluation results, keyed
// by the Merkle-style subtree digests of plan.SubtreeDigests. Where the
// result cache memoizes whole workloads (all-or-nothing per request), this
// store memoizes every node of every evaluated tree — so two requests
// sharing a sub-floorplan share the work below it, and re-optimizing an
// edited tree recomputes only the spine from the changed leaf to the root.
//
// Values are NodeRecords: the node's retained shape curve (rectangular
// list or L-shaped set) plus the exact evaluation statistics the
// optimizer's deterministic accounting replays (generated/stored counts,
// selection error, combine candidates). Storing the full outcome rather
// than just the curve is what keeps spliced runs byte-identical to fresh
// ones — the hard requirement of the store.
//
// Keys live in a namespace disjoint from the result cache's full-workload
// keys by construction: subtree digest preimages start with a reserved
// tag byte (see plan.SubtreeDigests), so no subtree digest can equal a
// workload key even though both are SHA-256 values.
//
// A Store is the internal/cache LRU recording the substore.* counter
// family; this package adds only the record codec (record.go) on top.
// A nil *Store is the disabled state.
package substore

import (
	"fmt"

	"floorplan/internal/cache"
	"floorplan/internal/plan"
	"floorplan/internal/telemetry"
)

// Config sizes a Store: MaxBytes budgets serialized records plus per-entry
// overhead, and Telemetry receives the substore.* family.
type Config = cache.Config

// Store is the subtree result store. A nil *Store is the disabled state:
// Get always misses, Put is a no-op.
type Store cache.Cache

// Stats is a point-in-time snapshot for /v1/stats and tests.
type Stats = cache.Stats

var counters = cache.Counters{
	Hits:      telemetry.CtrSubstoreHits,
	Misses:    telemetry.CtrSubstoreMisses,
	Evictions: telemetry.CtrSubstoreEvictions,
	Rejects:   telemetry.CtrSubstoreRejects,
	PeakBytes: telemetry.MaxSubstoreBytes,
}

// New builds a store under the given byte budget.
func New(cfg Config) (*Store, error) {
	c, err := cache.NewLRU(cfg, counters)
	if err != nil {
		return nil, fmt.Errorf("substore: %w", err)
	}
	return (*Store)(c), nil
}

func (s *Store) lru() *cache.Cache { return (*cache.Cache)(s) }

// Get returns the record stored under k and marks the entry recently
// used. The record's slices are freshly decoded and owned by the caller.
// A nil store always misses; a record that fails to decode (format drift)
// is treated as a miss and dropped.
func (s *Store) Get(k plan.Digest) (NodeRecord, bool) {
	return cache.GetDecoded(s.lru(), cache.Key(k), decodeRecord)
}

// Put serializes and stores rec under k with the LRU's admission rules:
// storing an existing key is a no-op (records are content-addressed: same
// digest, same evaluation) and a record the budget can never admit is
// dropped and counted as a reject.
func (s *Store) Put(k plan.Digest, rec NodeRecord) {
	if s == nil {
		return
	}
	s.lru().Put(cache.Key(k), appendRecord(nil, rec))
}

// Stats snapshots the store. A nil store reports zeros.
func (s *Store) Stats() Stats { return s.lru().Stats() }
