package optimizer

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
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

// recordHash hashes a record's fields and the contents of its lists.
func recordHash(rec substore.NodeRecord) [sha256.Size]byte {
	return sha256.Sum256(fmt.Appendf(nil, "%+v", rec))
}

// recordHashes fetches the record of every node of tree from store by its
// subtree digest and hashes it.
func recordHashes(t *testing.T, lib Library, policy selection.Policy, tree *plan.Node, store *substore.Store) map[plan.Digest][sha256.Size]byte {
	t.Helper()
	bin, err := plan.Restructure(tree)
	if err != nil {
		t.Fatal(err)
	}
	o := mustOptimizer(t, lib, Options{Policy: policy})
	hashes := map[plan.Digest][sha256.Size]byte{}
	for _, d := range plan.SubtreeDigests(bin, o.substoreContext(), o.planLibrary()) {
		rec, ok := store.Get(d)
		if !ok {
			t.Fatalf("no record stored under %x", d)
		}
		hashes[d] = recordHash(rec)
	}
	return hashes
}

// TestSubstoreRecordsUnchanged pins the store's sharing rule: a record's
// lists are spliced as they are into every later run, concurrent runs
// included, so no run may write to them. It primes one store with several
// random trees and hashes every node's record, then solves each tree warm
// and with one module edited, all at once against that store at workers 1
// and 8. Every answer must match a store-off run and every hash must be
// unchanged.
func TestSubstoreRecordsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(933))
	params := gen.DefaultModuleParams(6)
	policy := selection.Policy{K1: 8, K2: 40, S: 30}
	store := newTestStore(t)
	type job struct {
		lib  Library
		tree *plan.Node
		ref  *Result
	}
	var jobs []job
	hashes := map[plan.Digest][sha256.Size]byte{}
	for trial := 0; trial < 4; trial++ {
		tree, err := gen.RandomTree(rng, 12+rng.Intn(8), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rawLib, err := gen.Library(rng, tree, params)
		if err != nil {
			t.Fatal(err)
		}
		lib := Library(rawLib)
		mustRun(t, lib, Options{Policy: policy, Workers: 1, Substore: store}, tree)
		maps.Copy(hashes, recordHashes(t, lib, policy, tree, store))

		edited := maps.Clone(lib)
		modules := tree.Modules()
		m := modules[rng.Intn(len(modules))]
		for edited[m].Equal(lib[m]) {
			if edited[m], err = gen.Module(rng, params); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range []Library{lib, edited} {
			jobs = append(jobs, job{l, tree, mustRun(t, l, Options{Policy: policy, Workers: 1}, tree)})
		}
	}

	type answer struct {
		label string
		res   *Result
		ref   *Result
	}
	answers := make(chan answer, 2*len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		for _, w := range []int{1, 8} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				label := fmt.Sprintf("job %d, workers %d", i, w)
				o, err := New(j.lib, Options{Policy: policy, Workers: w, Substore: store})
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				res, err := o.Run(j.tree)
				if err != nil {
					t.Errorf("%s: %v", label, err)
					return
				}
				answers <- answer{label, res, j.ref}
			}()
		}
	}
	wg.Wait()
	close(answers)
	for a := range answers {
		assertSameResult(t, a.label, a.res, a.ref)
	}
	for d, want := range hashes {
		rec, ok := store.Get(d)
		if !ok {
			t.Fatalf("record %x left the store", d)
		}
		if recordHash(rec) != want {
			t.Fatalf("record %x changed after it was stored: %+v", d, rec)
		}
	}
}

// TestSubstoreOwnsLeafLists pins the other half of the sharing rule: the
// store never keeps memory the caller owns. A leaf whose list needs no
// R_Selection evaluates to the caller's library slice itself, so after a
// run the caller overwrites every library list in place; a warm run on an
// unedited copy of the library must still answer byte for byte like a
// store-off run.
func TestSubstoreOwnsLeafLists(t *testing.T) {
	rng := rand.New(rand.NewSource(934))
	tree, err := gen.RandomTree(rng, 12, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(5))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	unedited := make(Library, len(lib))
	for m, l := range lib {
		unedited[m] = l.Clone()
	}
	// K1 above the module size: no leaf runs R_Selection.
	policy := selection.Policy{K1: 8, K2: 40, S: 30}
	store := newTestStore(t)
	mustRun(t, lib, Options{Policy: policy, Workers: 1, Substore: store}, tree)
	for _, l := range lib {
		for i := range l {
			l[i].W++
		}
	}
	want := mustRun(t, unedited, Options{Policy: policy, Workers: 1}, tree)
	got := mustRun(t, unedited, Options{Policy: policy, Workers: 1, Substore: store}, tree)
	if got.Reuse.ComputedNodes != 0 {
		t.Fatalf("warm run computed %d nodes, want full resolution", got.Reuse.ComputedNodes)
	}
	assertSameResult(t, "warm run after the library was overwritten", got, want)
}

// BenchmarkSubstoreEdit times the serve_edit workload's re-solve in
// process: one base design (96 modules, pWheel 0.25, 16 implementations
// each; K1 16, K2 200, θ 0.5, S 500) primed into a subtree store, then
// one-module edits re-solved against it at Workers 1. Each edit replaces
// one module's list of the base with a fresh draw, so it evaluates the
// spine through that module and splices every other node.
func BenchmarkSubstoreEdit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	params := gen.DefaultModuleParams(16)
	tree, err := gen.RandomTree(rng, 96, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, params)
	if err != nil {
		b.Fatal(err)
	}
	lib := Library(rawLib)
	store, err := substore.New(substore.Config{MaxBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Policy: selection.Policy{K1: 16, K2: 200, Theta: 0.5, S: 500}, Workers: 1, Substore: store}
	solve := func() {
		o, err := New(lib, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Run(tree); err != nil {
			b.Fatal(err)
		}
	}
	solve()
	modules := tree.Modules()
	edits := make([]shape.RList, b.N)
	for i := range edits {
		if edits[i], err = gen.Module(rng, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, l := range edits {
		m := modules[i%len(modules)]
		base := lib[m]
		lib[m] = l
		solve()
		lib[m] = base
	}
}
