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
// implementations from an irreducible L-list minimizing ERROR(L, L'), by
// building the Compute_L_Error table and solving the CSPP on the complete
// interval DAG over list positions. Both endpoints are always retained.
//
// Complexity: O(n^3) time dominated by Compute_L_Error (Theorem 3), O(n^2)
// memory for the table. Callers bound n with HeuristicLReduce first (the
// paper's Section 5 "S" technique) when lists are long.
func LSelect(l shape.LList, k int) (LResult, error) {
	return LSelectMetric(l, k, Manhattan)
}

// LSelectMetric is L_Selection under an arbitrary distance metric; the
// paper's footnote 2 observes that every lemma holds for any L_p metric.
func LSelectMetric(l shape.LList, k int, m Metric) (LResult, error) {
	if !m.Valid() {
		return LResult{}, fmt.Errorf("selection: unknown metric %v", m)
	}
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
	if m == Manhattan && lListTelescopes(l) {
		// Fused pass: error columns from prefix sums, no O(n³) table. The
		// selection is bit-identical to the table path (see fused.go).
		return lSelectFused(l, k)
	}
	tableLPasses.Add(1)
	table := ComputeLErrorMetric(l, m)
	indices, weight, err := cspp.SolveDenseColumns(n, k, func(v int, col []int64) {
		for u := range col {
			col[u] = table.At(u, v)
		}
	})
	if err != nil {
		return LResult{}, fmt.Errorf("selection: LSelect CSPP: %w", err)
	}
	sub, err := l.Subset(indices)
	if err != nil {
		return LResult{}, fmt.Errorf("selection: LSelect traceback: %w", err)
	}
	return LResult{Selected: sub, Indices: indices, Error: weight}, nil
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
