package optimizer

import (
	"math/rand"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
)

func mustOptimizer(t *testing.T, lib Library, opts Options) *Optimizer {
	t.Helper()
	o, err := New(lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func mustRun(t *testing.T, lib Library, opts Options, tree *plan.Node) *Result {
	t.Helper()
	res, err := mustOptimizer(t, lib, opts).Run(tree)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleModule(t *testing.T) {
	lib := Library{"m": shape.MustRList([]shape.RImpl{{W: 10, H: 2}, {W: 4, H: 4}, {W: 2, H: 12}})}
	res := mustRun(t, lib, Options{}, plan.NewLeaf("m"))
	if res.Best != (shape.RImpl{W: 4, H: 4}) {
		t.Fatalf("Best = %v", res.Best)
	}
	if res.Placement == nil || len(res.Placement.Modules) != 1 {
		t.Fatalf("Placement = %+v", res.Placement)
	}
	if res.Stats.Nodes != 1 || res.Stats.PeakStored != 3 {
		t.Fatalf("Stats = %+v", res.Stats)
	}
}

func TestTwoModuleSlice(t *testing.T) {
	lib := Library{
		"a": shape.MustRList([]shape.RImpl{{W: 4, H: 2}, {W: 2, H: 4}}),
		"b": shape.MustRList([]shape.RImpl{{W: 3, H: 3}}),
	}
	// Vertical: candidates (4+3, max(2,3))=(7,3)=21 and (2+3, max(4,3))=(5,4)=20.
	res := mustRun(t, lib, Options{}, plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b")))
	if res.Best.Area() != 20 {
		t.Fatalf("V Best = %v", res.Best)
	}
	// Horizontal: (max(4,3), 2+3)=(4,5)=20 and (max(2,3),4+3)=(3,7)=21.
	res = mustRun(t, lib, Options{}, plan.NewHSlice(plan.NewLeaf("a"), plan.NewLeaf("b")))
	if res.Best.Area() != 20 {
		t.Fatalf("H Best = %v", res.Best)
	}
}

func TestPerfectPinwheel(t *testing.T) {
	// The interlocking 10x10 pinwheel from the combine tests, as a full run.
	lib := Library{
		"nw": shape.RList{{W: 4, H: 7}},
		"ne": shape.RList{{W: 6, H: 4}},
		"se": shape.RList{{W: 3, H: 6}},
		"sw": shape.RList{{W: 7, H: 3}},
		"c":  shape.RList{{W: 3, H: 3}},
	}
	tree := plan.NewWheel(
		plan.NewLeaf("nw"), plan.NewLeaf("ne"), plan.NewLeaf("se"),
		plan.NewLeaf("sw"), plan.NewLeaf("c"))
	res := mustRun(t, lib, Options{}, tree)
	if res.Best != (shape.RImpl{W: 10, H: 10}) {
		t.Fatalf("Best = %v", res.Best)
	}
	slack, frac := res.Placement.WhiteSpace()
	if slack != 0 || frac != 0 {
		t.Fatalf("perfect pinwheel has slack %d", slack)
	}
}

func TestCCWWheelMirrorsPlacement(t *testing.T) {
	lib := Library{
		"nw": shape.RList{{W: 4, H: 7}},
		"ne": shape.RList{{W: 6, H: 4}},
		"se": shape.RList{{W: 3, H: 6}},
		"sw": shape.RList{{W: 7, H: 3}},
		"c":  shape.RList{{W: 3, H: 3}},
	}
	cw := plan.NewWheel(plan.NewLeaf("nw"), plan.NewLeaf("ne"), plan.NewLeaf("se"), plan.NewLeaf("sw"), plan.NewLeaf("c"))
	// The CCW wheel of the mirrored roles has the same shape set.
	ccw := plan.NewCCWWheel(plan.NewLeaf("ne"), plan.NewLeaf("nw"), plan.NewLeaf("sw"), plan.NewLeaf("se"), plan.NewLeaf("c"))
	resCW := mustRun(t, lib, Options{}, cw)
	resCCW := mustRun(t, lib, Options{}, ccw)
	if resCW.Best != resCCW.Best {
		t.Fatalf("CW %v vs CCW %v", resCW.Best, resCCW.Best)
	}
	// In the mirrored plan, "nw" must end up on the right half.
	for _, m := range resCCW.Placement.Modules {
		if m.Module == "nw" && m.Box.MinX == 0 {
			t.Fatalf("nw not mirrored: %v", m.Box)
		}
	}
}

// TestMatchesExhaustiveChoice checks completeness of the bottom-up
// enumeration: the optimal area equals the minimum over every combination
// of module implementation choices, each evaluated with singleton lists
// (where pruning has nothing to discard).
func TestMatchesExhaustiveChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		nMod := 2 + rng.Intn(6)
		tree, err := gen.RandomTree(rng, nMod, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		lib := make(Library)
		leaves := tree.Leaves()
		for _, l := range leaves {
			p := gen.DefaultModuleParams(1 + rng.Intn(3))
			p.MinArea, p.MaxArea = 6, 60
			ml, err := gen.Module(rng, p)
			if err != nil {
				t.Fatal(err)
			}
			lib[l.Module] = ml
		}
		full := mustRun(t, lib, Options{}, tree)

		// Exhaustive: every combination of one implementation per module.
		best := int64(-1)
		choice := make(map[string]shape.RImpl)
		var recurse func(i int)
		recurse = func(i int) {
			if i == len(leaves) {
				single := make(Library)
				for m, impl := range choice {
					single[m] = shape.RList{impl}
				}
				res, err := mustOptimizer(t, single, Options{SkipPlacement: true}).Run(tree)
				if err != nil {
					t.Fatal(err)
				}
				if best < 0 || res.Best.Area() < best {
					best = res.Best.Area()
				}
				return
			}
			for _, impl := range lib[leaves[i].Module] {
				choice[leaves[i].Module] = impl
				recurse(i + 1)
			}
		}
		recurse(0)
		if full.Best.Area() != best {
			t.Fatalf("trial %d: optimizer %d != exhaustive %d", trial, full.Best.Area(), best)
		}
	}
}

func TestPlacementLegalOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		nMod := 2 + rng.Intn(20)
		tree, err := gen.RandomTree(rng, nMod, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		p := gen.DefaultModuleParams(2 + rng.Intn(4))
		p.MinArea, p.MaxArea = 20, 200
		rawLib, err := gen.Library(rng, tree, p)
		if err != nil {
			t.Fatal(err)
		}
		lib := Library(rawLib)
		res := mustRun(t, lib, Options{}, tree)
		// Run already verifies; double-check the invariants explicitly.
		if err := res.Placement.Verify(lib); err != nil {
			t.Fatal(err)
		}
		if len(res.Placement.Modules) != nMod {
			t.Fatalf("placed %d of %d modules", len(res.Placement.Modules), nMod)
		}
		if res.Placement.Envelope != res.Best {
			t.Fatal("placement envelope differs from Best")
		}
	}
}

func TestSelectionNeverImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		tree, err := gen.RandomTree(rng, 8+rng.Intn(10), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		p := gen.DefaultModuleParams(6)
		rawLib, err := gen.Library(rng, tree, p)
		if err != nil {
			t.Fatal(err)
		}
		lib := Library(rawLib)
		exact := mustRun(t, lib, Options{}, tree)
		pruned := mustRun(t, lib, Options{
			Policy: selection.Policy{K1: 4, K2: 30},
		}, tree)
		if pruned.Best.Area() < exact.Best.Area() {
			t.Fatalf("selection improved area: %d < %d", pruned.Best.Area(), exact.Best.Area())
		}
		if pruned.Stats.PeakStored > exact.Stats.PeakStored {
			t.Fatalf("selection increased peak memory: %d > %d", pruned.Stats.PeakStored, exact.Stats.PeakStored)
		}
		// Selection runs must still produce legal placements.
		if err := pruned.Placement.Verify(lib); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLargePolicyIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tree, err := gen.RandomTree(rng, 9, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(4))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	plain := mustRun(t, lib, Options{}, tree)
	huge := mustRun(t, lib, Options{Policy: selection.Policy{K1: 1 << 20, K2: 1 << 20}}, tree)
	if plain.Best != huge.Best {
		t.Fatalf("huge limits changed the result: %v vs %v", plain.Best, huge.Best)
	}
	if plain.Stats.Generated != huge.Stats.Generated {
		t.Fatalf("huge limits changed generation: %d vs %d", plain.Stats.Generated, huge.Stats.Generated)
	}
}

func TestMemoryLimitAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	tree, err := gen.RandomTree(rng, 12, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(8))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	res, err := mustOptimizer(t, lib, Options{MemoryLimit: 50}).Run(tree)
	if err == nil {
		t.Fatal("expected memory-limit abort")
	}
	if !IsMemoryLimit(err) {
		t.Fatalf("error %v does not match ErrMemoryLimit", err)
	}
	if res == nil || res.Stats.PeakStored <= 50 {
		t.Fatalf("partial stats missing or wrong: %+v", res)
	}
}

func TestStatsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	tree := gen.FP1()
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(3))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	res := mustRun(t, lib, Options{}, tree)
	bin, err := plan.Restructure(tree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes != bin.Count() {
		t.Errorf("Nodes = %d, want %d", res.Stats.Nodes, bin.Count())
	}
	if res.Stats.LNodes != countL(bin) {
		t.Errorf("LNodes = %d, want %d", res.Stats.LNodes, countL(bin))
	}
	if res.Stats.RSelections != 0 || res.Stats.LSelections != 0 {
		t.Error("no selections expected without a policy")
	}
	if res.Stats.Generated < res.Stats.PeakStored {
		t.Error("Generated must be >= PeakStored")
	}
	if res.Stats.FinalStored != res.Stats.PeakStored {
		t.Error("without selection, final == peak (lists are only ever added)")
	}

	withSel := mustRun(t, lib, Options{Policy: selection.Policy{K1: 2, K2: 4}}, tree)
	if withSel.Stats.RSelections == 0 || withSel.Stats.LSelections == 0 {
		t.Errorf("selections not counted: %+v", withSel.Stats)
	}
	if withSel.Stats.PeakStored >= res.Stats.PeakStored {
		t.Errorf("selection did not reduce peak: %d vs %d", withSel.Stats.PeakStored, res.Stats.PeakStored)
	}
}

func TestValidationErrors(t *testing.T) {
	lib := Library{"m": shape.RList{{W: 1, H: 1}}}
	if _, err := New(Library{"bad": nil}, Options{}); err == nil {
		t.Error("empty module list accepted")
	}
	if _, err := New(lib, Options{Policy: selection.Policy{K1: 1}}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := New(lib, Options{MemoryLimit: -1}); err == nil {
		t.Error("negative memory limit accepted")
	}
	o := mustOptimizer(t, lib, Options{})
	if _, err := o.Run(plan.NewLeaf("missing")); err == nil {
		t.Error("missing module accepted")
	}
	if _, err := o.Run(&plan.Node{Kind: plan.Leaf}); err == nil {
		t.Error("invalid tree accepted")
	}
	// A hand-built L-shaped root must be rejected.
	bad := &plan.BinNode{
		Kind:  plan.BinLStack,
		Left:  &plan.BinNode{Kind: plan.BinLeaf, Module: "m"},
		Right: &plan.BinNode{Kind: plan.BinLeaf, Module: "m", ID: 1},
	}
	if _, err := o.RunBinary(bad); err == nil {
		t.Error("L-shaped root accepted")
	}
}

func TestSkipPlacement(t *testing.T) {
	lib := Library{"m": shape.RList{{W: 3, H: 3}}}
	res := mustRun(t, lib, Options{SkipPlacement: true}, plan.NewLeaf("m"))
	if res.Placement != nil {
		t.Error("placement produced despite SkipPlacement")
	}
	if res.Best.Area() != 9 {
		t.Errorf("Best = %v", res.Best)
	}
}

func TestWhiteSpace(t *testing.T) {
	lib := Library{
		"a": shape.RList{{W: 2, H: 2}},
		"b": shape.RList{{W: 2, H: 3}},
	}
	res := mustRun(t, lib, Options{}, plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b")))
	// Envelope (4,3) = 12; used 4+6 = 10; slack 2.
	slack, frac := res.Placement.WhiteSpace()
	if slack != 2 {
		t.Fatalf("slack = %d", slack)
	}
	if frac <= 0 || frac >= 1 {
		t.Fatalf("frac = %f", frac)
	}
}

// countL returns the number of L-shaped nodes in the binary tree at b.
func countL(b *plan.BinNode) int {
	if b == nil {
		return 0
	}
	n := 0
	if b.IsL() {
		n = 1
	}
	return n + countL(b.Left) + countL(b.Right)
}
