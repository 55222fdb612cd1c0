package optimizer

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
	"floorplan/internal/substore"
)

func newTestStore(t *testing.T) *substore.Store {
	t.Helper()
	s, err := substore.New(substore.Config{MaxBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertSameResult demands bit-identical deterministic payloads: Best,
// Stats (except Elapsed), RootList, NodeStats and Placement.
func assertSameResult(t *testing.T, label string, got, ref *Result) {
	t.Helper()
	if got.Best != ref.Best {
		t.Fatalf("%s: Best %v != %v", label, got.Best, ref.Best)
	}
	gs, rs := got.Stats, ref.Stats
	gs.Elapsed, rs.Elapsed = 0, 0
	if gs != rs {
		t.Fatalf("%s: Stats %+v != %+v", label, gs, rs)
	}
	if !got.RootList.Equal(ref.RootList) {
		t.Fatalf("%s: root lists diverged", label)
	}
	if !reflect.DeepEqual(got.NodeStats, ref.NodeStats) {
		t.Fatalf("%s: NodeStats diverged:\n%+v\n%+v", label, got.NodeStats, ref.NodeStats)
	}
	if (got.Placement == nil) != (ref.Placement == nil) {
		t.Fatalf("%s: placement presence diverged", label)
	}
	if got.Placement == nil {
		return
	}
	if got.Placement.Envelope != ref.Placement.Envelope {
		t.Fatalf("%s: envelopes diverged", label)
	}
	if len(got.Placement.Modules) != len(ref.Placement.Modules) {
		t.Fatalf("%s: placements diverged", label)
	}
	for i := range got.Placement.Modules {
		if got.Placement.Modules[i] != ref.Placement.Modules[i] {
			t.Fatalf("%s: module %d placed differently", label, i)
		}
	}
}

// TestSubstoreBitIdenticalMatrix is the worker-count × store-state identity
// matrix the store's contract promises: for workers ∈ {1, 2, 8} and the
// store off, cold or fully warm, the deterministic payload is bit-identical.
// A warm run must additionally resolve every node (zero evaluations).
func TestSubstoreBitIdenticalMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(931))
	for trial := 0; trial < 3; trial++ {
		tree, err := gen.RandomTree(rng, 10+rng.Intn(10), 0.6)
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
		if ref.Reuse != (Reuse{}) {
			t.Fatalf("trial %d: store-off run reported reuse %+v", trial, ref.Reuse)
		}
		nodes := len(ref.NodeStats)
		for _, w := range []int{1, 2, 8} {
			store := newTestStore(t)
			cold := mustRun(t, lib, Options{Policy: policy, Workers: w, Substore: store}, tree)
			assertSameResult(t, "cold", cold, ref)
			if cold.Reuse.ComputedNodes != nodes || cold.Reuse.SplicedNodes != 0 {
				t.Fatalf("trial %d workers %d: cold reuse %+v, want %d computed",
					trial, w, cold.Reuse, nodes)
			}
			if cold.Reuse.StorePuts != nodes {
				t.Fatalf("trial %d workers %d: cold run stored %d of %d records",
					trial, w, cold.Reuse.StorePuts, nodes)
			}
			warm := mustRun(t, lib, Options{Policy: policy, Workers: w, Substore: store}, tree)
			assertSameResult(t, "warm", warm, ref)
			if warm.Reuse.ComputedNodes != 0 || warm.Reuse.SplicedNodes != nodes {
				t.Fatalf("trial %d workers %d: warm reuse %+v, want %d spliced",
					trial, w, warm.Reuse, nodes)
			}
		}
	}
}

// spineNodes counts the nodes of the restructured binary tree whose subtree
// contains a leaf of the given module — the union of root-to-leaf paths
// that an edit of that module's implementation list dirties.
func spineNodes(t *testing.T, tree *plan.Node, module string) (spine, total int) {
	t.Helper()
	bin, err := plan.Restructure(tree)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(b *plan.BinNode) bool
	walk = func(b *plan.BinNode) bool {
		total++
		if b.Kind == plan.BinLeaf {
			if b.Module == module {
				spine++
				return true
			}
			return false
		}
		l := walk(b.Left)
		r := walk(b.Right)
		if l || r {
			spine++
			return true
		}
		return false
	}
	walk(bin)
	return spine, total
}

// TestSubstoreEditRecomputesSpineOnly is the incremental re-optimization
// proof. A cold solve computes every node. Then each of several successive
// one-module edits, re-solved against stores primed by the cold solve and
// the earlier edits, evaluates exactly the root-to-leaf spine through the
// edited leaf: every off-spine digest is unchanged and resolves from the
// store. Every result is byte-identical to a store-disabled run of the same
// edited workload, at workers 1 and 8. The loop runs on a 16-module random
// tree and on FP2 (12 wheels, 36 L-shaped nodes).
func TestSubstoreEditRecomputesSpineOnly(t *testing.T) {
	t.Run("random16", func(t *testing.T) {
		rng := rand.New(rand.NewSource(932))
		tree, err := gen.RandomTree(rng, 16, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		editLoop(t, rng, tree, gen.DefaultModuleParams(5), selection.Policy{K1: 4, K2: 40, S: 30}, 6)
	})
	t.Run("FP2", func(t *testing.T) {
		tree, err := gen.ByName("FP2")
		if err != nil {
			t.Fatal(err)
		}
		// Small module lists keep the loop fast; the limits are low enough
		// that R_ and L_Selection both run.
		params := gen.ModuleParams{N: 4, MinArea: 2000000, MaxArea: 20000000, MaxAspect: 5}
		editLoop(t, rand.New(rand.NewSource(17)), tree, params, selection.Policy{K1: 8, K2: 16, S: 12}, 6)
	})
}

// editLoop generates a library for tree, solves it cold, then edits the
// first edits modules one after another, regenerating each list until it
// differs, and checks every re-solve as TestSubstoreEditRecomputesSpineOnly
// describes.
func editLoop(t *testing.T, rng *rand.Rand, tree *plan.Node, params gen.ModuleParams, policy selection.Policy, edits int) {
	t.Helper()
	rawLib, err := gen.Library(rng, tree, params)
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)

	// Prime two stores identically, one per worker count under test: a
	// shared store would already hold an edit's records after its first
	// re-solve.
	storeA, storeB := newTestStore(t), newTestStore(t)
	cold := mustRun(t, lib, Options{Policy: policy, Workers: 1, Substore: storeA}, tree)
	mustRun(t, lib, Options{Policy: policy, Workers: 8, Substore: storeB}, tree)
	if cold.Reuse.ComputedNodes != len(cold.NodeStats) {
		t.Fatalf("cold solve computed %d of %d nodes", cold.Reuse.ComputedNodes, len(cold.NodeStats))
	}

	modules := tree.Modules()
	if len(modules) < edits {
		t.Fatalf("%d modules, want at least %d distinct edits", len(modules), edits)
	}
	for i, edited := range modules[:edits] {
		for {
			nl, err := gen.Module(rng, params)
			if err != nil {
				t.Fatal(err)
			}
			if !shape.RList(nl).Equal(lib[edited]) {
				lib[edited] = nl
				break
			}
		}
		spine, total := spineNodes(t, tree, edited)
		if spine < 2 || spine >= total {
			t.Fatalf("edit %d (%s): degenerate spine %d of %d nodes", i+1, edited, spine, total)
		}

		ref := mustRun(t, lib, Options{Policy: policy, Workers: 1}, tree)
		for _, tc := range []struct {
			workers int
			store   *substore.Store
		}{{1, storeA}, {8, storeB}} {
			got := mustRun(t, lib, Options{Policy: policy, Workers: tc.workers, Substore: tc.store}, tree)
			label := fmt.Sprintf("edit %d (%s), workers %d", i+1, edited, tc.workers)
			assertSameResult(t, label, got, ref)
			if got.Reuse.ComputedNodes != spine || got.Reuse.SplicedNodes != total-spine {
				t.Fatalf("%s: reuse %+v, want the %d-node spine computed and %d nodes spliced",
					label, got.Reuse, spine, total-spine)
			}
		}
	}
}

// TestSubstoreSharesAcrossModuleNames pins the digest's name independence:
// a second workload whose leaves carry different names but identical
// canonical shape lists resolves entirely from a store warmed by the first,
// and still places its own module names.
func TestSubstoreSharesAcrossModuleNames(t *testing.T) {
	lib := Library{
		"a": shape.MustRList([]shape.RImpl{{W: 4, H: 7}, {W: 7, H: 4}}),
		"b": shape.MustRList([]shape.RImpl{{W: 3, H: 3}}),
	}
	tree := plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b"))
	renamed := Library{
		"x": lib["a"],
		"y": lib["b"],
	}
	tree2 := plan.NewVSlice(plan.NewLeaf("x"), plan.NewLeaf("y"))

	store := newTestStore(t)
	mustRun(t, lib, Options{Substore: store}, tree)
	got := mustRun(t, renamed, Options{Substore: store}, tree2)
	if got.Reuse.ComputedNodes != 0 {
		t.Fatalf("renamed workload computed %d nodes, want full resolution", got.Reuse.ComputedNodes)
	}
	want := mustRun(t, renamed, Options{}, tree2)
	assertSameResult(t, "renamed", got, want)
	names := map[string]bool{}
	for _, m := range got.Placement.Modules {
		names[m.Module] = true
	}
	if !names["x"] || !names["y"] {
		t.Fatalf("spliced placement lost the tree's module names: %v", names)
	}
}

// TestSubstoreIgnoredUnderMemoryLimit pins the gate: memory-limited runs
// neither consult nor fill the store, even when one is configured.
func TestSubstoreIgnoredUnderMemoryLimit(t *testing.T) {
	lib := Library{
		"a": shape.MustRList([]shape.RImpl{{W: 4, H: 7}, {W: 7, H: 4}}),
		"b": shape.MustRList([]shape.RImpl{{W: 3, H: 3}}),
	}
	tree := plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b"))
	store := newTestStore(t)
	res := mustRun(t, lib, Options{MemoryLimit: 1 << 30, Substore: store}, tree)
	if n := store.Stats().Entries; n != 0 {
		t.Fatalf("memory-limited run filled the store with %d records", n)
	}
	if res.Reuse != (Reuse{}) {
		t.Fatalf("memory-limited run reported reuse %+v", res.Reuse)
	}
}
