package floorplan_test

import (
	"strings"
	"testing"

	floorplan "floorplan"
)

func pinwheelFixture() (*floorplan.Tree, floorplan.Library) {
	tree := floorplan.Wheel(
		floorplan.Leaf("nw"), floorplan.Leaf("ne"), floorplan.Leaf("se"),
		floorplan.Leaf("sw"), floorplan.Leaf("c"))
	lib := floorplan.Library{
		"nw": {{W: 4, H: 7}},
		"ne": {{W: 6, H: 4}},
		"se": {{W: 3, H: 6}},
		"sw": {{W: 7, H: 3}},
		"c":  {{W: 3, H: 3}},
	}
	return tree, lib
}

func TestOptimizeQuickstart(t *testing.T) {
	tree, lib := pinwheelFixture()
	res, err := floorplan.Optimize(tree, lib, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != (floorplan.Impl{W: 10, H: 10}) {
		t.Fatalf("Best = %v", res.Best)
	}
	if res.Placement == nil || len(res.Placement.Modules) != 5 {
		t.Fatalf("Placement = %+v", res.Placement)
	}
	if len(res.RootList) == 0 {
		t.Fatal("empty root list")
	}
}

func TestOptimizeCanonicalizesLibrary(t *testing.T) {
	tree := floorplan.Leaf("m")
	// Unordered, redundant input list.
	lib := floorplan.Library{"m": {{W: 2, H: 9}, {W: 5, H: 5}, {W: 9, H: 2}, {W: 6, H: 6}}}
	res, err := floorplan.Optimize(tree, lib, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != (floorplan.Impl{W: 9, H: 2}) { // area 18 beats (5,5)=25
		t.Fatalf("Best = %v", res.Best)
	}
	if len(res.RootList) != 3 {
		t.Fatalf("redundant (6,6) not pruned: %v", res.RootList)
	}
	// Invalid implementations are rejected.
	if _, err := floorplan.Optimize(tree, floorplan.Library{"m": {{W: 0, H: 1}}}, floorplan.Options{}); err == nil {
		t.Fatal("invalid library accepted")
	}
}

// TestOptimizeBoundsWholeTree pins the whole-problem extent bound: four
// modules of the largest legal extent in a 2×2 slicing would build a
// 2^32−2 envelope whose area overflows int64, so the tree is rejected with
// an error naming the bound. The bound sums over every occurrence, so
// quarter-size modules fit and get the exact area.
func TestOptimizeBoundsWholeTree(t *testing.T) {
	tree := floorplan.HSlice(
		floorplan.VSlice(floorplan.Leaf("a"), floorplan.Leaf("b")),
		floorplan.VSlice(floorplan.Leaf("c"), floorplan.Leaf("d")))
	square := func(e int64) floorplan.Library {
		lib := floorplan.Library{}
		for _, m := range []string{"a", "b", "c", "d"} {
			lib[m] = []floorplan.Impl{{W: e, H: e}}
		}
		return lib
	}
	const maxExtent = 1<<31 - 1
	_, err := floorplan.Optimize(tree, square(maxExtent), floorplan.Options{})
	if err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Fatalf("overflowing tree: err = %v, want the bound named", err)
	}
	const quarter = 1<<29 - 1
	res, err := floorplan.Optimize(tree, square(quarter), floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := (floorplan.Impl{W: 2 * quarter, H: 2 * quarter}); res.Best != want || res.Best.Area() != 4*quarter*quarter {
		t.Fatalf("Best = %v (area %d), want %v", res.Best, res.Best.Area(), want)
	}
}

func TestOptimizeWithSelectionAndLimit(t *testing.T) {
	tree, err := floorplan.PaperFloorplan("FP1")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := floorplan.RandomModules(tree, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := floorplan.Optimize(tree, lib, floorplan.Options{SkipPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := floorplan.Optimize(tree, lib, floorplan.Options{
		Selection:     floorplan.Selection{K1: 8, K2: 60, Theta: 0.5, S: 200},
		SkipPlacement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Stats.PeakStored >= exact.Stats.PeakStored {
		t.Fatalf("selection did not save memory: %d vs %d", sel.Stats.PeakStored, exact.Stats.PeakStored)
	}
	if sel.Best.Area() < exact.Best.Area() {
		t.Fatal("selection cannot improve the optimum")
	}
	// Memory limit reproduces the paper's failures.
	_, err = floorplan.Optimize(tree, lib, floorplan.Options{MemoryLimit: 100, SkipPlacement: true})
	if err == nil || !floorplan.IsMemoryLimit(err) {
		t.Fatalf("expected memory-limit failure, got %v", err)
	}
}

func TestSelectImpls(t *testing.T) {
	impls := []floorplan.Impl{
		{W: 12, H: 1}, {W: 10, H: 2}, {W: 8, H: 4}, {W: 6, H: 6}, {W: 4, H: 9}, {W: 2, H: 11},
	}
	sel, errArea, err := floorplan.SelectImpls(impls, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("selected %d", len(sel))
	}
	if sel[0] != impls[0] || sel[3] != impls[5] {
		t.Fatal("endpoints not kept")
	}
	if errArea < 0 {
		t.Fatal("negative error")
	}
	if _, _, err := floorplan.SelectImpls(nil, 3); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestOptimizeSlicingAndRotatable(t *testing.T) {
	tree := floorplan.HSlice(floorplan.Leaf("a"), floorplan.Leaf("b"))
	lib := floorplan.Library{
		"a": floorplan.Rotatable(4, 1),
		"b": floorplan.Rotatable(4, 1),
	}
	res, err := floorplan.OptimizeSlicing(tree, lib, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Area() != 8 {
		t.Fatalf("Best = %v", res.Best)
	}
	// Wheels are rejected by the slicing baseline.
	wheelTree, wheelLib := pinwheelFixture()
	if _, err := floorplan.OptimizeSlicing(wheelTree, wheelLib, 0); err == nil {
		t.Fatal("wheel accepted by slicing baseline")
	}
	// The general optimizer agrees on slicing input.
	gen, err := floorplan.Optimize(tree, lib, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Best.Area() != res.Best.Area() {
		t.Fatalf("optimizer %v != stockmeyer %v", gen.Best, res.Best)
	}
}

func TestTreeJSONRoundTrip(t *testing.T) {
	tree, _ := pinwheelFixture()
	data, err := floorplan.EncodeTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	back, err := floorplan.ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ModuleCount() != 5 || back.WheelCount() != 1 {
		t.Fatalf("round trip lost structure: %d modules %d wheels", back.ModuleCount(), back.WheelCount())
	}
}

func TestRendering(t *testing.T) {
	tree, lib := pinwheelFixture()
	res, err := floorplan.Optimize(tree, lib, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	art := floorplan.RenderPlacement(res.Placement, 50)
	if !strings.Contains(art, "envelope 10x10") {
		t.Errorf("render missing header:\n%s", art)
	}
	outline := floorplan.RenderTree(tree)
	if !strings.Contains(outline, "wheel") {
		t.Errorf("tree outline:\n%s", outline)
	}
	table := floorplan.PlacementTable(res.Placement)
	if !strings.Contains(table, "whitespace 0") {
		t.Errorf("placement table:\n%s", table)
	}
}

func TestRandomGenerators(t *testing.T) {
	tree, err := floorplan.RandomTree(12, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tree.ModuleCount() != 12 {
		t.Fatalf("ModuleCount = %d", tree.ModuleCount())
	}
	lib, err := floorplan.RandomModules(tree, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) != 12 {
		t.Fatalf("library size %d", len(lib))
	}
	res, err := floorplan.Optimize(tree, lib, floorplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil {
		t.Fatal("no placement")
	}
	// Determinism.
	tree2, _ := floorplan.RandomTree(12, 0.5, 7)
	if tree2.ModuleCount() != tree.ModuleCount() || tree2.Depth() != tree.Depth() {
		t.Fatal("RandomTree not deterministic")
	}
}

func TestPaperFloorplans(t *testing.T) {
	for name, want := range map[string]int{"FP1": 25, "FP2": 49, "FP3": 120, "FP4": 245} {
		tree, err := floorplan.PaperFloorplan(name)
		if err != nil {
			t.Fatal(err)
		}
		if tree.ModuleCount() != want {
			t.Errorf("%s: %d modules, want %d", name, tree.ModuleCount(), want)
		}
	}
	if _, err := floorplan.PaperFloorplan("FP5"); err == nil {
		t.Error("unknown floorplan accepted")
	}
}
