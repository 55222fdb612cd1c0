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
// selection error, CSPP dimensions). Storing the full outcome rather than
// just the curve is what keeps spliced runs byte-identical to fresh ones —
// the hard requirement of the store.
//
// Keys live in a namespace disjoint from the result cache's full-workload
// keys by construction: subtree digest preimages start with a reserved
// tag byte (see plan.SubtreeDigests), so no subtree digest can equal a
// workload key even though both are SHA-256 values.
//
// A Store is the internal/cache LRU of NodeRecord values recording the
// substore.* counter family. The store lives in process memory only, so
// records are held as they are, never encoded: a Get returns the lists
// that Put stored, shared by every run that splices them. The byte budget
// charges what a record holds in memory. A nil *Store is the disabled
// state.
package substore

import (
	"fmt"
	"unsafe"

	"floorplan/internal/cache"
	"floorplan/internal/plan"
	"floorplan/internal/shape"
	"floorplan/internal/telemetry"
)

// NodeRecord is one node's complete evaluation outcome: the retained
// shape curve plus every statistic the optimizer's deterministic
// accounting and telemetry derive from evaluating the node. Splicing a
// record in place of evaluation must be observationally identical to
// having evaluated — the Stats replay, NodeStats table, telemetry
// counters and placement traceback all read these fields — which is why
// the record carries selection counts, not just the curve.
type NodeRecord struct {
	// LShaped mirrors BinNode.IsL of the node that produced the record:
	// false stores RL, true stores LS. A digest hit whose LShaped
	// disagrees with the consulting node would indicate a hash collision;
	// callers treat it as a miss.
	LShaped bool
	// RSel/LSel record whether a selection pass ran on the node's curve.
	RSel, LSel bool
	// Generated and Stored are the implementation counts before and after
	// selection; Lists is the number of L-lists in the set (0 for R).
	Generated, Stored, Lists int
	// SelErr is the selection error admitted; SelN/SelK the CSPP instance
	// dimensions (zero when no selection ran).
	SelErr int64
	SelN   int
	SelK   int
	// RL is the retained rectangular curve (LShaped=false).
	RL shape.RList
	// LS is the retained L-shaped set (LShaped=true).
	LS shape.LSet
}

// recordBytes is the byte charge of a record: the struct plus the backing
// arrays of its lists.
func recordBytes(rec NodeRecord) int64 {
	n := unsafe.Sizeof(rec) +
		uintptr(cap(rec.RL))*unsafe.Sizeof(shape.RImpl{}) +
		uintptr(cap(rec.LS.Lists))*unsafe.Sizeof(shape.LList(nil))
	for _, l := range rec.LS.Lists {
		n += uintptr(cap(l)) * unsafe.Sizeof(shape.LImpl{})
	}
	return int64(n)
}

// Config sizes a Store: MaxBytes budgets records' in-memory bytes plus
// per-entry overhead, and Telemetry receives the substore.* family.
type Config = cache.Config

// Store is the subtree result store. A nil *Store is the disabled state:
// Get always misses, Put is a no-op.
type Store cache.LRU[NodeRecord]

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
	c, err := cache.NewLRU(cfg, counters, recordBytes)
	if err != nil {
		return nil, fmt.Errorf("substore: %w", err)
	}
	return (*Store)(c), nil
}

func (s *Store) lru() *cache.LRU[NodeRecord] { return (*cache.LRU[NodeRecord])(s) }

// Get returns the record stored under k and marks the entry recently
// used. The record's lists are the ones Put stored, shared with every
// other reader: nothing may write to them. A nil store always misses.
func (s *Store) Get(k plan.Digest) (NodeRecord, bool) { return s.lru().Get(cache.Key(k)) }

// Put stores rec under k with the LRU's admission rules: storing an
// existing key is a no-op (records are content-addressed: same digest,
// same evaluation) and a record the budget can never admit is dropped and
// counted as a reject. The store keeps rec's lists as they are, so the
// caller must own them, not share them with memory it may later change,
// and nothing may write to them after Put.
func (s *Store) Put(k plan.Digest, rec NodeRecord) { s.lru().Put(cache.Key(k), rec) }

// Stats snapshots the store. A nil store reports zeros.
func (s *Store) Stats() Stats { return s.lru().Stats() }
