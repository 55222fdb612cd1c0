package selection

import (
	"fmt"

	"floorplan/internal/shape"
)

// Policy collects the user-facing knobs of Section 5 of the paper.
type Policy struct {
	// K1 is the limit on the number of implementations kept per rectangular
	// block. Zero disables R_Selection.
	K1 int
	// K2 is the limit on the number of implementations kept per L-shaped
	// block (across all of its L-lists). Zero disables L_Selection.
	K2 int
	// Theta is the paper's θ ∈ (0, 1]: L_Selection runs only when
	// K2/X < Theta, i.e. when the block's implementation count X is
	// sufficiently larger than K2. Zero means "always run when X > K2"
	// (θ = 1).
	Theta float64
	// S is the paper's heuristic threshold: an individual L-list longer
	// than S is first reduced to S by HeuristicLReduce before the exact
	// L_Selection runs. Zero means no heuristic pre-reduction.
	S int
	// RUniform replaces the optimal R_Selection with naive uniform
	// subsampling. It exists only for the repository's ablation benchmarks
	// quantifying the value of the paper's CSPP-optimal selection.
	RUniform bool
}

// Validate rejects nonsensical settings.
func (p Policy) Validate() error {
	if p.K1 < 0 || p.K2 < 0 || p.S < 0 {
		return fmt.Errorf("selection: negative policy values: %+v", p)
	}
	if p.K1 == 1 || p.K2 == 1 {
		return fmt.Errorf("selection: limits must be >= 2 (both list endpoints are always kept): %+v", p)
	}
	if p.Theta < 0 || p.Theta > 1 {
		return fmt.Errorf("selection: theta must be in [0, 1], got %v", p.Theta)
	}
	return nil
}

// WantR reports whether R_Selection should run on a rectangular block with
// n implementations.
func (p Policy) WantR(n int) bool { return p.K1 > 0 && n > p.K1 }

// WantL reports whether L_Selection should run on an L-shaped block with x
// implementations: x must exceed K2 and, when θ is set, K2/x must fall
// below θ.
func (p Policy) WantL(x int) bool {
	if p.K2 <= 0 || x <= p.K2 {
		return false
	}
	if p.Theta > 0 && float64(p.K2)/float64(x) >= p.Theta {
		return false
	}
	return true
}

// ReduceR applies R_Selection under the policy: lists not exceeding K1
// pass through untouched. The second result is the admitted selection
// error ERROR(R, R') — the staircase area the reduction gave up — which
// telemetry totals across the run (0 for pass-through and for the uniform
// ablation baseline, whose error is not computed).
func (p Policy) ReduceR(l shape.RList) (shape.RList, int64, error) {
	if !p.WantR(len(l)) {
		return l, 0, nil
	}
	if p.RUniform {
		return UniformRReduce(l, p.K1), 0, nil
	}
	res, err := RSelect(l, p.K1)
	if err != nil {
		return nil, 0, err
	}
	return res.Selected, res.Error, nil
}

// ReduceLSet applies L_Selection to an L-shaped block stored as a set of
// irreducible L-lists, implementing the paper's final paragraph of Section
// 4.3: to shrink the block's total from N to K, each list L gets the budget
// ⌊K·|L|/N⌋ — the limits are "dynamically adjusted" in proportion to list
// size. Budgets are clamped to [2, |L|] because the selection always keeps
// a list's two endpoints. Lists longer than S are pre-reduced heuristically
// first (Section 5). The second result is the total admitted selection
// error summed over the exact L_Selection runs (the heuristic pre-reduction
// does not report an error and contributes 0).
func (p Policy) ReduceLSet(set shape.LSet) (shape.LSet, int64, error) {
	total := set.Size()
	if !p.WantL(total) {
		return set, 0, nil
	}
	out := shape.LSet{Lists: make([]shape.LList, 0, len(set.Lists))}
	var admitted int64
	for _, l := range set.Lists {
		budget := p.K2 * len(l) / total
		if budget < 2 {
			budget = 2
		}
		if budget > len(l) {
			budget = len(l)
		}
		reduced := l
		if p.S > 0 && len(reduced) > p.S {
			reduced = HeuristicLReduce(reduced, p.S)
		}
		if len(reduced) > budget {
			res, err := LSelect(reduced, budget)
			if err != nil {
				return shape.LSet{}, 0, err
			}
			reduced = res.Selected
			admitted += res.Error
		}
		out.Lists = append(out.Lists, reduced)
	}
	return out, admitted, nil
}

// UniformRReduce is the naive baseline R_Selection is compared against in
// this repository's ablation benchmarks: keep both endpoints and sample the
// interior uniformly, ignoring the staircase geometry entirely.
func UniformRReduce(l shape.RList, k int) shape.RList {
	n := len(l)
	if k >= n || n <= 2 {
		return l.Clone()
	}
	if k < 2 {
		k = 2
	}
	out := make(shape.RList, 0, k)
	prevPos := -1
	for i := 0; i < k; i++ {
		pos := (i*(n-1) + (k-1)/2) / (k - 1)
		if pos == prevPos {
			continue
		}
		out = append(out, l[pos])
		prevPos = pos
	}
	return out
}
