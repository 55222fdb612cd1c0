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

// TestMemoryLimitWorkersAgree pins one outcome per memory-limited run,
// whatever the worker count. With MemoryLimit at the sequential peak M,
// every run succeeds with the unlimited answer; at M−1 every run fails
// with the same error text and the same partial Stats, reports the
// "> limit" peak and never admits past the limit. Parallel evaluation
// would let several nodes hold their full generated lists at once, so a
// run at M could fail, at a node that changes from run to run.
func TestMemoryLimitWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	policy := selection.Policy{K1: 8, K2: 60}
	trees, repeats := 20, 5
	if testing.Short() {
		trees, repeats = 4, 2
	}
	stats := func(r *Result) Stats {
		s := r.Stats
		s.Elapsed = 0
		return s
	}
	for trial := 0; trial < trees; trial++ {
		tree, err := gen.RandomTree(rng, 40, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(8))
		if err != nil {
			t.Fatal(err)
		}
		lib := Library(rawLib)
		ref := mustRun(t, lib, Options{Policy: policy, Workers: 1, SkipPlacement: true}, tree)
		limit := ref.Stats.PeakStored
		failRef, failErr := mustOptimizer(t, lib, Options{
			Policy: policy, MemoryLimit: limit - 1, Workers: 1, SkipPlacement: true,
		}).Run(tree)
		if !IsMemoryLimit(failErr) {
			t.Fatalf("trial %d: limit M-1 = %d: error %v, want ErrMemoryLimit", trial, limit-1, failErr)
		}
		if failRef.Stats.PeakStored <= limit-1 || failRef.Stats.FinalStored > limit-1 {
			t.Fatalf("trial %d: limit M-1 = %d: PeakStored %d, FinalStored %d; want > and <= the limit",
				trial, limit-1, failRef.Stats.PeakStored, failRef.Stats.FinalStored)
		}
		for rep := 0; rep < repeats; rep++ {
			for _, w := range []int{1, 2, 8} {
				got, err := mustOptimizer(t, lib, Options{
					Policy: policy, MemoryLimit: limit, Workers: w, SkipPlacement: true,
				}).Run(tree)
				if err != nil {
					t.Fatalf("trial %d rep %d workers %d: limit M = %d: %v", trial, rep, w, limit, err)
				}
				if got.Best != ref.Best || !got.RootList.Equal(ref.RootList) || stats(got) != stats(ref) {
					t.Fatalf("trial %d rep %d workers %d: limit M changed the answer", trial, rep, w)
				}
				got, err = mustOptimizer(t, lib, Options{
					Policy: policy, MemoryLimit: limit - 1, Workers: w, SkipPlacement: true,
				}).Run(tree)
				if err == nil || err.Error() != failErr.Error() {
					t.Fatalf("trial %d rep %d workers %d: limit M-1: error %v, want %v", trial, rep, w, err, failErr)
				}
				if stats(got) != stats(failRef) {
					t.Fatalf("trial %d rep %d workers %d: limit M-1: Stats %+v, want %+v",
						trial, rep, w, stats(got), stats(failRef))
				}
			}
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
