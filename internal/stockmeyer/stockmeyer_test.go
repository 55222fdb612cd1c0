package stockmeyer

import (
	"math/rand"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/shape"
)

func TestModuleImplementations(t *testing.T) {
	l, err := Module{W: 4, H: 2, Rotatable: true}.Implementations()
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 {
		t.Fatalf("rotatable 4x2 should have 2 implementations, got %v", l)
	}
	// A square's rotation is redundant.
	l, err = Module{W: 3, H: 3, Rotatable: true}.Implementations()
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 1 {
		t.Fatalf("square should have 1 implementation, got %v", l)
	}
	l, err = Module{W: 4, H: 2}.Implementations()
	if err != nil || len(l) != 1 {
		t.Fatalf("fixed module: %v %v", l, err)
	}
	if _, err := (Module{W: 0, H: 2}).Implementations(); err == nil {
		t.Error("invalid module accepted")
	}
}

// TestClassicOrientation reproduces the textbook instance: two rotatable
// dominoes stacked vertically pack into a 4x2 or 2x4 envelope with zero
// waste when oriented consistently.
func TestClassicOrientation(t *testing.T) {
	lib, err := OrientationLibrary(map[string]Module{
		"a": {W: 4, H: 1, Rotatable: true},
		"b": {W: 4, H: 1, Rotatable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.NewHSlice(plan.NewLeaf("a"), plan.NewLeaf("b"))
	res, err := Optimize(tree, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Area() != 8 {
		t.Fatalf("Best = %v, want area 8", res.Best)
	}
	// Both 4x2 (side by side rotated... stacked flat) and 2x4 are optimal
	// corners of the root staircase.
	if len(res.RootList) < 2 {
		t.Fatalf("RootList = %v", res.RootList)
	}
}

func TestRejectsWheels(t *testing.T) {
	tree := plan.NewWheel(plan.NewLeaf("1"), plan.NewLeaf("2"), plan.NewLeaf("3"), plan.NewLeaf("4"), plan.NewLeaf("5"))
	if _, err := Optimize(tree, nil, Options{}); err == nil {
		t.Error("wheel tree accepted")
	}
}

func TestRejectsBadInputs(t *testing.T) {
	tree := plan.NewHSlice(plan.NewLeaf("a"), plan.NewLeaf("b"))
	if _, err := Optimize(tree, map[string]shape.RList{"a": {{W: 1, H: 1}}}, Options{}); err == nil {
		t.Error("missing module accepted")
	}
	lib := map[string]shape.RList{"a": {{W: 1, H: 1}}, "b": {{W: 1, H: 1}}}
	if _, err := Optimize(tree, lib, Options{K1: 1}); err == nil {
		t.Error("K1=1 accepted")
	}
	if _, err := Optimize(tree, lib, Options{K1: -3}); err == nil {
		t.Error("negative K1 accepted")
	}
	if _, err := Optimize(&plan.Node{Kind: plan.Leaf}, lib, Options{}); err == nil {
		t.Error("invalid tree accepted")
	}
}

// TestMatchesGeneralOptimizer cross-checks the n-ary fold against the
// general optimizer's binary restructure on random slicing trees. Both run
// combine.VCut/HCut, which TestVCutMatchesBrute and TestHCutMatchesBrute
// pin to brute force; what differs is how the merges are grouped.
func TestMatchesGeneralOptimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		tree, err := gen.RandomTree(rng, 2+rng.Intn(20), 0) // pWheel = 0: slicing only
		if err != nil {
			t.Fatal(err)
		}
		lib, err := gen.Library(rng, tree, gen.DefaultModuleParams(1+rng.Intn(6)))
		if err != nil {
			t.Fatal(err)
		}
		sm, err := Optimize(tree, lib, Options{})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := optimizer.New(optimizer.Library(lib), optimizer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run(tree)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Best.Area() != res.Best.Area() {
			t.Fatalf("stockmeyer %v vs optimizer %v", sm.Best, res.Best)
		}
		if !sm.RootList.Equal(res.RootList) {
			t.Fatalf("root lists differ:\n%v\n%v", sm.RootList, res.RootList)
		}
	}
}

// TestSelectionHook checks the paper's Section 6 claim on this second
// optimizer: R_Selection reduces storage at bounded area cost.
func TestSelectionHook(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 10; trial++ {
		tree, err := gen.RandomTree(rng, 30, 0)
		if err != nil {
			t.Fatal(err)
		}
		lib, err := gen.Library(rng, tree, gen.DefaultModuleParams(8))
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Optimize(tree, lib, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := Optimize(tree, lib, Options{K1: 6})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.RSelections == 0 {
			t.Fatal("selection never triggered")
		}
		if pruned.PeakStored >= exact.PeakStored {
			t.Fatalf("selection did not reduce storage: %d vs %d", pruned.PeakStored, exact.PeakStored)
		}
		if pruned.Best.Area() < exact.Best.Area() {
			t.Fatalf("selection improved the optimum: impossible")
		}
		loss := float64(pruned.Best.Area()-exact.Best.Area()) / float64(exact.Best.Area())
		if loss > 0.25 {
			t.Fatalf("area loss %.1f%% implausibly large", 100*loss)
		}
	}
}

// TestDeepSliceChain folds a 100-leaf comb, one slice with 100 children,
// and compares the root list and best to the general optimizer, which
// restructures the comb into a chain of 99 binary cuts.
func TestDeepSliceChain(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	leaves := make([]*plan.Node, 100)
	lib := make(map[string]shape.RList)
	for i := range leaves {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		leaves[i] = plan.NewLeaf(name)
		ml, err := gen.Module(rng, gen.DefaultModuleParams(3))
		if err != nil {
			t.Fatal(err)
		}
		lib[name] = ml
	}
	tree := plan.NewVSlice(leaves...)
	res, err := Optimize(tree, lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Width of every root implementation is the sum of some choice per
	// module; sanity: at least the sum of minimal widths.
	var minW int64
	for _, l := range lib {
		w := l[len(l)-1].W // narrowest
		minW += w
	}
	for _, r := range res.RootList {
		if r.W < minW {
			t.Fatalf("root width %d below lower bound %d", r.W, minW)
		}
	}
	opt, err := optimizer.New(optimizer.Library(lib), optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := opt.Run(tree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != want.Best || !res.RootList.Equal(want.RootList) {
		t.Fatalf("comb: stockmeyer best %v, %d-entry root list; optimizer best %v, %d-entry root list",
			res.Best, len(res.RootList), want.Best, len(want.RootList))
	}
}
