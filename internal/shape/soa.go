package shape

import (
	"slices"
	"sync"
)

// This file holds the pooled scratch columns behind the dominance-pruning
// kernel. The sweeps and merges in pareto.go read one coordinate across
// many points, so the scratch keeps plain columns rather than copies of
// the 32-byte structs: a sorted int64 column of H1 values, ranked once per
// prune into an int32 rank per point, the int32 index columns the
// subproblems hand their W1-ordered survivors back in, and the Fenwick
// tree. Sorting the int64 column with slices.Sort compiles to direct
// comparisons with no reflection.
// The pairwise scan below the divide-and-conquer cutoff keeps the
// array-of-structs layout instead: it compares all four coordinates of the
// same two elements, which is exactly the access pattern AoS packs into
// one cache line. DESIGN.md §11 documents the split.

// pruneScratch pools the working storage of one MinimaL / MinimaLInPlace
// call: the dominance kernel runs once per combine step, so recycling its
// buffers removes the dominant per-node allocation churn. A scratch is
// owned by exactly one call at a time (taken from and returned to a
// sync.Pool); none of the returned results alias it.
type pruneScratch struct {
	impls []LImpl  // sorted candidate copy (MinimaL non-destructive entry)
	keep  []bool   // survivor flags, indexed like the sorted candidates
	vals  []int64  // H1 values, sorted and deduplicated to rank them
	rank  []int32  // each sorted candidate's 1-based H1 rank
	ord   []int32  // survivor indices, in W1 order, per subproblem
	half  []int32  // a low half's survivors while the filter merges them
	fen   []uint64 // Fenwick prefix-min storage
}

var pruneScratchPool = sync.Pool{New: func() any { return new(pruneScratch) }}

func getPruneScratch() *pruneScratch  { return pruneScratchPool.Get().(*pruneScratch) }
func putPruneScratch(s *pruneScratch) { pruneScratchPool.Put(s) }

// grow returns buf resized to length n, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// kernel sizes the columns for one prune of pts, the sorted, deduplicated
// candidates: it clears the survivor flags, ranks every point's H1 among
// the distinct H1 values (one sort) and empties a Fenwick tree over those
// ranks.
func (s *pruneScratch) kernel(pts []LImpl) lKernel {
	n := len(pts)
	s.keep = grow(s.keep, n)
	clear(s.keep)
	s.vals = grow(s.vals, n)
	for i, p := range pts {
		s.vals[i] = p.H1
	}
	slices.Sort(s.vals)
	uniq := slices.Compact(s.vals)
	s.rank = grow(s.rank, n)
	for i, p := range pts {
		r, _ := slices.BinarySearch(uniq, p.H1)
		s.rank[i] = int32(r + 1)
	}
	s.fen = grow(s.fen, len(uniq)+1)
	for i := range s.fen {
		s.fen[i] = fenwickEmpty
	}
	s.ord = grow(s.ord, n)
	s.half = grow(s.half, n)
	return lKernel{pts: pts, rank: s.rank, ord: s.ord, half: s.half, fw: s.fen}
}
