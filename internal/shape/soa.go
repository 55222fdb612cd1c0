package shape

import "sync"

// This file holds the pooled scratch buffers behind the dominance-pruning
// kernels. The pruning sweeps in pareto.go sort and scan *single keys* (one
// coordinate plus a carried index), so the scratch keeps them in contiguous
// int64 columns rather than 32-byte structs: a column sweep touches 8 bytes
// per element instead of dragging whole implementations through the cache,
// and sorting (key, index) pairs with slices.SortFunc compiles to direct
// comparisons with no reflection.
// The pairwise brute-force kernel below the divide-and-conquer cutoff keeps
// the array-of-structs layout instead: it compares all four coordinates of
// the same two elements, which is exactly the access pattern AoS packs into
// one cache line. DESIGN.md §11 documents the split.

// keyIdx is a sort pair: one int64 key plus the element index it belongs
// to. The pruning filters sort these instead of permuting implementations.
type keyIdx struct {
	key int64
	idx int32
}

// pruneScratch pools the working storage of one MinimaL / MinimaLInPlace
// call: the dominance kernels run once per combine step, so
// recycling their buffers removes the dominant per-node allocation churn.
// A scratch is owned by exactly one call at a time (taken from and returned
// to a sync.Pool); none of the returned results alias it.
type pruneScratch struct {
	impls []LImpl  // sorted candidate copy (MinimaL non-destructive entry)
	keep  []bool   // survivor flags, indexed like the sorted candidates
	idx   []int32  // index range handed to minima4
	pairs []keyIdx // key/index sort buffer for the cross-half filters
	vals  []int64  // rank-coordinate scratch (sorted, deduplicated)
	fen   []int64  // Fenwick prefix-min storage
}

var pruneScratchPool = sync.Pool{New: func() any { return new(pruneScratch) }}

func getPruneScratch() *pruneScratch  { return pruneScratchPool.Get().(*pruneScratch) }
func putPruneScratch(s *pruneScratch) { pruneScratchPool.Put(s) }

// boolRun returns a zeroed bool slice of length n from the scratch.
func (s *pruneScratch) boolRun(n int) []bool {
	if cap(s.keep) < n {
		s.keep = make([]bool, n)
	}
	s.keep = s.keep[:n]
	for i := range s.keep {
		s.keep[i] = false
	}
	return s.keep
}

// indexRun returns the identity permutation 0..n-1 from the scratch.
func (s *pruneScratch) indexRun(n int) []int32 {
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	s.idx = s.idx[:n]
	for i := range s.idx {
		s.idx[i] = int32(i)
	}
	return s.idx
}

// pairRun returns an empty keyIdx buffer with capacity n.
func (s *pruneScratch) pairRun(n int) []keyIdx {
	if cap(s.pairs) < n {
		s.pairs = make([]keyIdx, 0, n)
	}
	return s.pairs[:0]
}

// valRun returns an empty int64 buffer with capacity n.
func (s *pruneScratch) valRun(n int) []int64 {
	if cap(s.vals) < n {
		s.vals = make([]int64, 0, n)
	}
	return s.vals[:0]
}

// fenwickRun returns Fenwick storage for n ranks, reset to +inf.
func (s *pruneScratch) fenwickRun(n int) []int64 {
	if cap(s.fen) < n+1 {
		s.fen = make([]int64, n+1)
	}
	s.fen = s.fen[:n+1]
	for i := range s.fen {
		s.fen[i] = fenwickInf
	}
	return s.fen
}

// rankOf returns the 1-based rank of v among the sorted distinct values in
// uniq: the smallest position whose value is >= v. A hand-rolled binary
// search keeps the pruning sweeps free of closure calls.
func rankOf(uniq []int64, v int64) int {
	lo, hi := 0, len(uniq)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if uniq[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// dedupSorted compacts consecutive duplicates in a sorted int64 slice.
func dedupSorted(vals []int64) []int64 {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
