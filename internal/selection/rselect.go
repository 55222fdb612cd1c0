package selection

import (
	"fmt"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// RResult is the outcome of R_Selection.
type RResult struct {
	// Selected is the retained sub-list, still canonical and irreducible.
	Selected shape.RList
	// Indices are the positions of the retained implementations within the
	// input list, strictly increasing, always containing 0 and n-1.
	Indices []int
	// Error is ERROR(R, R'): the staircase area lost by the selection.
	Error int64
}

// RSelect is the paper's R_Selection (Section 4.2): it optimally selects k
// implementations from an irreducible R-list so that the bounded area
// between the full staircase and the selected staircase is minimum. The
// endpoints r_1 and r_n are always retained (they bound the feasible
// region), matching the paper's d_1 = 1, d_k = n.
//
// When k >= len(l) the list is returned unchanged with zero error. k < 2 is
// rejected for lists of length >= 2, since both endpoints must survive.
//
// A list whose span (w_0 − w_{n−1})·(h_{n−1} − h_0) exceeds int64 is
// rejected: its errors could wrap.
//
// Complexity: O(kn) time and memory, below the O(k n^2) of Theorem 2. The
// error is a line in h_j per row i (rErrorPrefix), so each CSPP layer is a
// lower envelope of lines, and cspp.SolveDenseLines sweeps it once per
// layer. The error table of Compute_R_Error is never materialized. Picks
// and error are identical to the paper's O(k n^2) DP on that table (pinned
// by tests).
func RSelect(l shape.RList, k int) (RResult, error) {
	n := len(l)
	if n == 0 {
		return RResult{}, fmt.Errorf("selection: RSelect on empty list")
	}
	if k >= n {
		return identityR(l), nil
	}
	if k < 2 {
		return RResult{}, fmt.Errorf("selection: RSelect needs k >= 2 to keep both endpoints, got k=%d for n=%d", k, n)
	}
	if err := checkRSpan(l); err != nil {
		return RResult{}, err
	}
	e := getRErrorPrefix(l)
	indices, weight, err := cspp.SolveDenseLines(k, &e.Lines)
	e.release()
	if err != nil {
		// Unreachable for a complete interval DAG with 2 <= k < n; guard
		// against silent miscomputation.
		return RResult{}, fmt.Errorf("selection: RSelect CSPP (n=%d, k=%d): %w", n, k, err)
	}
	sub, err := l.Subset(indices)
	if err != nil {
		return RResult{}, fmt.Errorf("selection: RSelect traceback: %w", err)
	}
	return RResult{Selected: sub, Indices: indices, Error: weight}, nil
}

func identityR(l shape.RList) RResult {
	idx := make([]int, len(l))
	for i := range idx {
		idx[i] = i
	}
	return RResult{Selected: l.Clone(), Indices: idx, Error: 0}
}

// RSelectBrute is the exponential oracle for RSelect: it tries every
// k-subset containing both endpoints and returns one with minimum staircase
// error. Exported for tests and benchmarks only.
func RSelectBrute(l shape.RList, k int) (RResult, error) {
	n := len(l)
	if n == 0 {
		return RResult{}, fmt.Errorf("selection: RSelectBrute on empty list")
	}
	if k >= n {
		return identityR(l), nil
	}
	if k < 2 {
		return RResult{}, fmt.Errorf("selection: k=%d too small", k)
	}
	best := RResult{Error: -1}
	indices := make([]int, k)
	indices[0], indices[k-1] = 0, n-1
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == k-1 {
			area, err := l.StaircaseArea(indices)
			if err != nil {
				panic(err)
			}
			if best.Error < 0 || area < best.Error {
				sub, err := l.Subset(indices)
				if err != nil {
					panic(err)
				}
				best = RResult{Selected: sub, Indices: append([]int(nil), indices...), Error: area}
			}
			return
		}
		for i := from; i < n-1-(k-1-pos-1); i++ {
			indices[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(1, 1)
	return best, nil
}
