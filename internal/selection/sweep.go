package selection

import (
	"fmt"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// SweepPoint is one point of the error-vs-k trade-off curve of an
// irreducible R-list.
type SweepPoint struct {
	// K is the subset size.
	K int
	// Error is ERROR(R, R') of the optimal K-subset.
	Error int64
}

// RSweep computes the full trade-off curve of R_Selection in a single
// dynamic program: for every k in [2, min(kmax, n)], the minimum staircase
// error of keeping exactly k implementations. One O(kmax·n) pass of the
// envelope DP behind RSelect (cspp.SweepDenseLines) yields every point,
// because the CSPP table W(s, v, l) already contains the optimum for each l.
// Like RSelect, it rejects a list whose span exceeds int64.
//
// The curve is non-increasing in K and hits zero at K = n.
func RSweep(l shape.RList, kmax int) ([]SweepPoint, error) {
	n := len(l)
	if n == 0 {
		return nil, fmt.Errorf("selection: RSweep on empty list")
	}
	if kmax < 2 {
		return nil, fmt.Errorf("selection: RSweep needs kmax >= 2, got %d", kmax)
	}
	if kmax > n {
		kmax = n
	}
	if n == 1 {
		return []SweepPoint{{K: 1, Error: 0}}, nil
	}
	if err := checkRSpan(l); err != nil {
		return nil, err
	}
	e := getRErrorPrefix(l)
	errs, err := cspp.SweepDenseLines(kmax, &e.Lines)
	e.release()
	if err != nil {
		return nil, fmt.Errorf("selection: RSweep CSPP (n=%d, kmax=%d): %w", n, kmax, err)
	}
	points := make([]SweepPoint, 0, kmax-1)
	for k := 2; k <= kmax; k++ {
		points = append(points, SweepPoint{K: k, Error: errs[k]})
	}
	return points, nil
}

// RSelectBudget picks the smallest subset whose staircase error does not
// exceed budget, and returns that selection. A zero budget returns the full
// list (only a complete selection has zero error on a strictly monotone
// staircase). This is the "error budget" dual of the paper's fixed-K1 rule:
// instead of capping memory per block and accepting whatever error results,
// cap the error per block and accept whatever memory results. One full
// RSweep and one RSelect make it O(n²).
func RSelectBudget(l shape.RList, budget int64) (RResult, error) {
	n := len(l)
	if n == 0 {
		return RResult{}, fmt.Errorf("selection: RSelectBudget on empty list")
	}
	if budget < 0 {
		return RResult{}, fmt.Errorf("selection: negative error budget %d", budget)
	}
	if n <= 2 {
		return identityR(l), nil
	}
	curve, err := RSweep(l, n)
	if err != nil {
		return RResult{}, err
	}
	for _, p := range curve {
		if p.Error <= budget {
			return RSelect(l, p.K)
		}
	}
	// Unreachable: K = n always has zero error.
	return identityR(l), nil
}
