package optimizer

import (
	"math/rand"
	"reflect"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
)

// TestWorkersBitIdentical runs the same tree and library with Workers 1, 2
// and 8 and demands bit-identical outputs: the worker count is a pure
// throughput knob.
func TestWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 4; trial++ {
		tree, err := gen.RandomTree(rng, 10+rng.Intn(12), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(5))
		if err != nil {
			t.Fatal(err)
		}
		lib := Library(rawLib)
		policy := selection.Policy{K1: 4, K2: 40, S: 30}
		ref := mustRun(t, lib, Options{Policy: policy, Workers: 1}, tree)
		for _, w := range []int{2, 8} {
			got := mustRun(t, lib, Options{Policy: policy, Workers: w}, tree)
			if got.Best != ref.Best {
				t.Fatalf("trial %d workers %d: Best %v != %v", trial, w, got.Best, ref.Best)
			}
			gs, rs := got.Stats, ref.Stats
			gs.Elapsed, rs.Elapsed = 0, 0
			if gs != rs {
				t.Fatalf("trial %d workers %d: Stats %+v != %+v", trial, w, gs, rs)
			}
			if !got.RootList.Equal(ref.RootList) {
				t.Fatalf("trial %d workers %d: root lists diverged", trial, w)
			}
			if !reflect.DeepEqual(got.NodeStats, ref.NodeStats) {
				t.Fatalf("trial %d workers %d: NodeStats diverged:\n%+v\n%+v",
					trial, w, got.NodeStats, ref.NodeStats)
			}
			if len(got.Placement.Modules) != len(ref.Placement.Modules) {
				t.Fatalf("trial %d workers %d: placements diverged", trial, w)
			}
			for i := range got.Placement.Modules {
				if got.Placement.Modules[i] != ref.Placement.Modules[i] {
					t.Fatalf("trial %d workers %d: module %d placed differently", trial, w, i)
				}
			}
		}
	}
}

// TestParallelMemoryLimit reproduces the paper's out-of-memory failure
// under concurrency: with several workers and a small limit, the run must
// fail with ErrMemoryLimit, report the "> limit" peak, and — the
// reservation tracker's invariant — never actually admit past the limit
// (FinalStored is the admitted count at the end of the drained run).
func TestParallelMemoryLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tree, err := gen.RandomTree(rng, 12, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(8))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	const limit = 50
	for _, w := range []int{2, 4, 8} {
		res, err := mustOptimizer(t, lib, Options{MemoryLimit: limit, Workers: w}).Run(tree)
		if err == nil {
			t.Fatalf("workers %d: expected memory-limit abort", w)
		}
		if !IsMemoryLimit(err) {
			t.Fatalf("workers %d: error %v does not match ErrMemoryLimit", w, err)
		}
		if res == nil {
			t.Fatalf("workers %d: no partial stats", w)
		}
		if res.Stats.PeakStored <= limit {
			t.Errorf("workers %d: PeakStored = %d, want > %d for '> M' reporting",
				w, res.Stats.PeakStored, limit)
		}
		if res.Stats.FinalStored > limit {
			t.Errorf("workers %d: over-admitted: FinalStored = %d > limit %d",
				w, res.Stats.FinalStored, limit)
		}
	}
}

// TestExhaustedBudgetFailsWithoutOverAdmitting pins the remainingBudget
// fix: once the stored count sits exactly at the limit, the next combine
// must abort immediately with ErrMemoryLimit (it cannot store zero
// implementations) instead of being granted a phantom budget of 1.
func TestExhaustedBudgetFailsWithoutOverAdmitting(t *testing.T) {
	lib := Library{"a": {{W: 4, H: 2}, {W: 2, H: 4}}, "b": {{W: 3, H: 3}}}
	tree := plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b"))
	// Leaves store 2+1 = 3 = limit exactly; the vcut node then has zero
	// budget left.
	res, err := mustOptimizer(t, lib, Options{MemoryLimit: 3}).Run(tree)
	if err == nil || !IsMemoryLimit(err) {
		t.Fatalf("err = %v, want ErrMemoryLimit", err)
	}
	if res.Stats.PeakStored <= 3 {
		t.Errorf("PeakStored = %d, want > 3 for '> M' reporting", res.Stats.PeakStored)
	}
	if res.Stats.FinalStored > 3 {
		t.Errorf("FinalStored = %d: admitted past the limit", res.Stats.FinalStored)
	}
}

// TestRunBinaryRenumbersBadIDs checks that hand-built binary trees with
// non-preorder IDs are renumbered instead of corrupting the ID-indexed
// evaluation tables.
func TestRunBinaryRenumbersBadIDs(t *testing.T) {
	lib := Library{"a": {{W: 2, H: 3}}, "b": {{W: 3, H: 2}}}
	bad := &plan.BinNode{
		Kind:  plan.BinVCut,
		Left:  &plan.BinNode{Kind: plan.BinLeaf, Module: "a", ID: 7},
		Right: &plan.BinNode{Kind: plan.BinLeaf, Module: "b", ID: 7},
		ID:    3,
	}
	o, err := New(lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.RunBinary(bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Area() != 15 {
		t.Fatalf("Best = %v", res.Best)
	}
	if !bad.HasPreorderIDs() {
		t.Error("tree was not renumbered")
	}
}
