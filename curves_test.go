package floorplan_test

import (
	"testing"

	floorplan "floorplan"
)

func TestSampleShapeCurve(t *testing.T) {
	impls, err := floorplan.SampleShapeCurve(10000, 4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(impls) == 0 || len(impls) > 50 {
		t.Fatalf("got %d implementations", len(impls))
	}
	for _, r := range impls {
		if r.W*r.H < 10000 {
			t.Fatalf("%v violates the area constraint", r)
		}
		aspect := float64(r.W) / float64(r.H)
		// The rounding to the smallest feasible integer height can push
		// the aspect ratio slightly past the nominal bound.
		if aspect > 4.6 || aspect < 1/4.6 {
			t.Fatalf("%v has aspect %.2f beyond bound", r, aspect)
		}
	}
	// Canonical: strictly decreasing widths.
	for i := 1; i < len(impls); i++ {
		if impls[i].W >= impls[i-1].W {
			t.Fatal("curve not canonical")
		}
	}
}

func TestSampleShapeCurveErrors(t *testing.T) {
	if _, err := floorplan.SampleShapeCurve(0, 2, 5); err == nil {
		t.Error("zero area accepted")
	}
	if _, err := floorplan.SampleShapeCurve(100, 0.5, 5); err == nil {
		t.Error("aspect < 1 accepted")
	}
	if _, err := floorplan.SampleShapeCurve(100, 2, 0); err == nil {
		t.Error("zero samples accepted")
	}
	one, err := floorplan.SampleShapeCurve(100, 2, 1)
	if err != nil || len(one) != 1 {
		t.Errorf("single sample: %v %v", one, err)
	}
}

func TestSelectionCurveAndBudget(t *testing.T) {
	impls, err := floorplan.SampleShapeCurve(50000, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := floorplan.SelectionCurve(impls, len(impls))
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) < 2 {
		t.Fatalf("curve too short: %d", len(curve))
	}
	// Monotone non-increasing, ends at zero.
	for i := 1; i < len(curve); i++ {
		if curve[i].Error > curve[i-1].Error {
			t.Fatal("curve not monotone")
		}
	}
	if curve[len(curve)-1].Error != 0 {
		t.Fatal("full selection must cost 0")
	}
	// The budget selection lands on the curve.
	mid := curve[0].Error / 3
	sel, errArea, err := floorplan.SelectImplsBudget(impls, mid)
	if err != nil {
		t.Fatal(err)
	}
	if errArea > mid {
		t.Fatalf("budget exceeded: %d > %d", errArea, mid)
	}
	found := false
	for _, p := range curve {
		if p.K == len(sel) && p.Error == errArea {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("budget selection (k=%d, err=%d) not on the sweep curve", len(sel), errArea)
	}
}

func TestSelectImplsBudgetErrors(t *testing.T) {
	if _, _, err := floorplan.SelectImplsBudget(nil, 10); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := floorplan.SelectImplsBudget([]floorplan.Impl{{W: 1, H: 1}}, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

// TestSelectionExtentBound pins the selection entry points to the library's
// extent bound. Dropping the middle corner of (3·2⁴⁰, 1), (2·2⁴⁰, 2⁴⁰),
// (1, 3·2⁴⁰) loses 2⁸¹ of area, which wraps int64 to 0: unchecked, the
// selection reports it as free. At the bound itself the error is exact.
func TestSelectionExtentBound(t *testing.T) {
	const e = int64(1) << 40
	over := []floorplan.Impl{{W: 3 * e, H: 1}, {W: 2 * e, H: e}, {W: 1, H: 3 * e}}
	if sel, lost, err := floorplan.SelectImpls(over, 2); err == nil {
		t.Errorf("SelectImpls accepted extents above 2³¹−1: %v, error %d", sel, lost)
	}
	if curve, err := floorplan.SelectionCurve(over, 3); err == nil {
		t.Errorf("SelectionCurve accepted extents above 2³¹−1: %v", curve)
	}
	if sel, lost, err := floorplan.SelectImplsBudget(over, 0); err == nil {
		t.Errorf("SelectImplsBudget accepted extents above 2³¹−1: %v, error %d", sel, lost)
	}

	const m = int64(1)<<31 - 1
	edge := []floorplan.Impl{{W: m, H: 1}, {W: m / 2, H: m / 2}, {W: 1, H: m}}
	const want = int64(1) << 60 // (m − m/2)·(m − m/2)
	sel, lost, err := floorplan.SelectImpls(edge, 2)
	if err != nil || len(sel) != 2 || lost != want {
		t.Errorf("SelectImpls at the bound = %v, %d, %v; want 2 corners, error %d", sel, lost, err, want)
	}
	curve, err := floorplan.SelectionCurve(edge, 3)
	if err != nil || len(curve) != 2 || curve[0].Error != want || curve[1].Error != 0 {
		t.Errorf("SelectionCurve at the bound = %v, %v", curve, err)
	}
	sel, lost, err = floorplan.SelectImplsBudget(edge, 0)
	if err != nil || len(sel) != 3 || lost != 0 {
		t.Errorf("SelectImplsBudget at the bound = %v, %d, %v; want all 3 corners", sel, lost, err)
	}
}

func TestGrid(t *testing.T) {
	g, err := floorplan.Grid(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.ModuleCount() != 12 {
		t.Fatalf("ModuleCount = %d", g.ModuleCount())
	}
	if g.WheelCount() != 0 {
		t.Fatal("grid must be slicing")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 1x1 and 1xN edge cases.
	single, err := floorplan.Grid(1, 1, nil)
	if err != nil || single.ModuleCount() != 1 {
		t.Fatalf("1x1: %v %v", single, err)
	}
	row, err := floorplan.Grid(1, 5, func(r, c int) string { return "x" + string(rune('a'+c)) })
	if err != nil || row.ModuleCount() != 5 {
		t.Fatalf("1x5: %v", err)
	}
	if _, err := floorplan.Grid(0, 3, nil); err == nil {
		t.Error("0 rows accepted")
	}
	// A grid is optimizable end to end with the slicing baseline.
	lib := floorplan.Library{}
	for _, l := range g.Leaves() {
		lib[l.Module] = floorplan.Rotatable(6, 3)
	}
	res, err := floorplan.OptimizeSlicing(g, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Area() < 12*18 {
		t.Fatalf("grid area %d below module area sum", res.Best.Area())
	}
}
