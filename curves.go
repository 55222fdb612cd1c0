package floorplan

import (
	"fmt"
	"math"

	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
)

// SampleShapeCurve samples the continuous shape function of a soft macro —
// any rectangle with w·h >= area whose aspect ratio w/h stays within
// [1/maxAspect, maxAspect] — at n integer points. Section 6 of the paper
// describes exactly this workflow for modules with infinitely many
// implementations: sample the curve densely, then cut the list down with
// R_Selection (SelectImpls / SelectImplsBudget).
func SampleShapeCurve(area int64, maxAspect float64, n int) ([]Impl, error) {
	if area < 1 {
		return nil, fmt.Errorf("floorplan: area must be >= 1, got %d", area)
	}
	if maxAspect < 1 {
		return nil, fmt.Errorf("floorplan: maxAspect must be >= 1, got %v", maxAspect)
	}
	if n < 1 {
		return nil, fmt.Errorf("floorplan: need n >= 1 samples, got %d", n)
	}
	side := math.Sqrt(float64(area))
	wMin := int64(math.Floor(side / math.Sqrt(maxAspect)))
	wMax := int64(math.Ceil(side * math.Sqrt(maxAspect)))
	if wMin < 1 {
		wMin = 1
	}
	if wMax < wMin {
		wMax = wMin
	}
	impls := make([]Impl, 0, n)
	for i := 0; i < n; i++ {
		var w int64
		if n == 1 {
			w = (wMin + wMax) / 2
		} else {
			w = wMin + (wMax-wMin)*int64(i)/int64(n-1)
		}
		h := (area + w - 1) / w // smallest h with w*h >= area
		impls = append(impls, Impl{W: w, H: h})
	}
	l, err := shape.NewRList(impls)
	if err != nil {
		return nil, err
	}
	return []Impl(l), nil
}

// SelectionPoint is one point of a block's error-vs-k trade-off curve.
type SelectionPoint = selection.SweepPoint

// SelectionCurve computes, in a single dynamic program, the optimal
// staircase error of keeping exactly k implementations for every
// k in [2, kmax] — the full trade-off curve behind R_Selection. Extents
// are bounded as in SelectImpls.
func SelectionCurve(impls []Impl, kmax int) ([]SelectionPoint, error) {
	l, err := plan.CanonicalModule("impls", impls)
	if err != nil {
		return nil, err
	}
	return selection.RSweep(l, kmax)
}

// SelectImplsBudget keeps the smallest subset of implementations whose
// staircase error stays within budget — the error-budget dual of the
// paper's fixed-K limit. Extents are bounded as in SelectImpls.
func SelectImplsBudget(impls []Impl, budget int64) ([]Impl, int64, error) {
	l, err := plan.CanonicalModule("impls", impls)
	if err != nil {
		return nil, 0, err
	}
	res, err := selection.RSelectBudget(l, budget)
	if err != nil {
		return nil, 0, err
	}
	return []Impl(res.Selected), res.Error, nil
}

// Grid builds an m×n slicing floorplan of fresh leaves named by fn(row,
// col): rows are stacked bottom to top, columns placed left to right within
// each row. (A grid of slicing rows is itself slicing; the classic
// non-slicing grid with aligned crossings cannot be expressed as a
// floorplan tree.)
func Grid(rows, cols int, fn func(r, c int) string) (*Tree, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("floorplan: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	if fn == nil {
		fn = func(r, c int) string { return fmt.Sprintf("m%d_%d", r, c) }
	}
	makeRow := func(r int) *Tree {
		if cols == 1 {
			return Leaf(fn(r, 0))
		}
		kids := make([]*Tree, cols)
		for c := 0; c < cols; c++ {
			kids[c] = Leaf(fn(r, c))
		}
		return VSlice(kids...)
	}
	if rows == 1 {
		return makeRow(0), nil
	}
	rws := make([]*Tree, rows)
	for r := 0; r < rows; r++ {
		rws[r] = makeRow(r)
	}
	return HSlice(rws...), nil
}
