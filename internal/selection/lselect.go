package selection

import (
	"fmt"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// LResult is the outcome of L_Selection on a single irreducible L-list.
type LResult struct {
	// Selected is the retained sub-list, still canonical.
	Selected shape.LList
	// Indices are the retained positions within the input list.
	Indices []int
	// Error is ERROR(L, L'): the summed nearest-neighbour distance of the
	// discarded implementations.
	Error int64
}

// LSelect is the paper's L_Selection (Section 4.3): it optimally selects k
// implementations from a canonical irreducible L-list minimizing the
// Manhattan ERROR(L, L'), by solving the CSPP on the complete interval DAG
// over list positions whose edge (i, j) costs error(l_i, l_j). Both
// endpoints are always retained.
//
// The error is Monge. On a canonical list every coordinate is monotone, so
// the L1 distance d satisfies d(u,q) >= d(u',q) for u < u' < q and
// d(q,v) <= d(q,v') for q < v < v'. For u < u' < v < v', compare
// E(u,v) + E(u',v') with E(u',v) + E(u,v') one discarded q at a time: a q
// in (u, u'] or [v, v') appears once per side and the left side pays the
// smaller distance; a q in (u', v) appears in all four terms, and with
// a >= a', b' >= b, min(a,b) + min(a',b') <= min(a',b) + min(a,b') (min is
// supermodular). So LSelect runs on cspp.SolveDenseMonge, and a list that
// is not canonical is rejected.
//
// Complexity: O(k n log^2 n) time and O(n) scratch beside the DP's O(kn)
// predecessor table, below Theorem 3's O(n^3): the DP reads O(k n log n)
// errors, each an O(log n) binary search on prefix sums (lErrorL1). Callers
// bound n with HeuristicLReduce first (the paper's Section 5 "S" technique)
// when lists are long.
func LSelect(l shape.LList, k int) (LResult, error) {
	n := len(l)
	if n == 0 {
		return LResult{}, fmt.Errorf("selection: LSelect on empty list")
	}
	if k >= n {
		return identityL(l), nil
	}
	if k < 2 {
		return LResult{}, fmt.Errorf("selection: LSelect needs k >= 2 to keep both endpoints, got k=%d for n=%d", k, n)
	}
	if !lListTelescopes(l) {
		return LResult{}, fmt.Errorf("selection: LSelect needs a canonical L-list (constant W2, W1 nonincreasing, H1 and H2 nondecreasing)")
	}
	indices, weight, err := cspp.SolveDenseMonge(n, k, newLErrorL1(l).at)
	if err != nil {
		return LResult{}, fmt.Errorf("selection: LSelect CSPP: %w", err)
	}
	sub, err := l.Subset(indices)
	if err != nil {
		return LResult{}, fmt.Errorf("selection: LSelect traceback: %w", err)
	}
	return LResult{Selected: sub, Indices: indices, Error: weight}, nil
}

// lListTelescopes reports whether l is canonical in the sense the Monge
// proof above needs: constant W2, W1 nonincreasing, H1 and H2 nondecreasing
// (LList.Validate checks the same order). Under it the L1 distance between
// positions i < q also telescopes to s(q) - s(i) with s = H1 + H2 - W1,
// which lErrorL1 reads. Every list the optimizer builds is canonical; the
// O(n) check keeps a caller's malformed list from a silently wrong answer.
func lListTelescopes(l shape.LList) bool {
	for i := 1; i < len(l); i++ {
		if l[i].W2 != l[0].W2 || l[i].W1 > l[i-1].W1 ||
			l[i].H1 < l[i-1].H1 || l[i].H2 < l[i-1].H2 {
			return false
		}
	}
	return true
}

func identityL(l shape.LList) LResult {
	idx := make([]int, len(l))
	for i := range idx {
		idx[i] = i
	}
	sub := make(shape.LList, len(l))
	copy(sub, l)
	return LResult{Selected: sub, Indices: idx, Error: 0}
}

// LSelectBrute is the exponential oracle for LSelect: minimum ERROR(L, L')
// over every k-subset containing both endpoints, with the error evaluated
// from its definition (global nearest retained implementation). Exported
// for tests only.
func LSelectBrute(l shape.LList, k int) (LResult, error) {
	n := len(l)
	if n == 0 {
		return LResult{}, fmt.Errorf("selection: LSelectBrute on empty list")
	}
	if k >= n {
		return identityL(l), nil
	}
	if k < 2 {
		return LResult{}, fmt.Errorf("selection: k=%d too small", k)
	}
	best := LResult{Error: -1}
	indices := make([]int, k)
	indices[0], indices[k-1] = 0, n-1
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == k-1 {
			e, err := LSubsetError(l, indices)
			if err != nil {
				panic(err)
			}
			if best.Error < 0 || e < best.Error {
				sub, err := l.Subset(indices)
				if err != nil {
					panic(err)
				}
				best = LResult{Selected: sub, Indices: append([]int(nil), indices...), Error: e}
			}
			return
		}
		for i := from; i <= n-2-(k-2-pos); i++ {
			indices[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(1, 1)
	return best, nil
}

// HeuristicLReduce implements the paper's Section 5 speed-up: when a list is
// longer than S, a cheap heuristic first cuts it to S implementations and
// the exact L_Selection then finishes the job. The heuristic keeps both
// endpoints and samples the interior uniformly — the natural
// shape-preserving choice given that the list is monotone in every
// coordinate (the paper leaves the heuristic unspecified).
func HeuristicLReduce(l shape.LList, s int) shape.LList {
	n := len(l)
	if s >= n || n <= 2 {
		out := make(shape.LList, n)
		copy(out, l)
		return out
	}
	if s < 2 {
		s = 2
	}
	out := make(shape.LList, 0, s)
	prevPos := -1
	for i := 0; i < s; i++ {
		// Evenly spaced positions from 0 to n-1 inclusive, rounded.
		pos := (i*(n-1) + (s-1)/2) / (s - 1)
		if pos == prevPos {
			continue
		}
		out = append(out, l[pos])
		prevPos = pos
	}
	return out
}
