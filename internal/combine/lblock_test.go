package combine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
)

// This file pins the L-block operations to their definition: each must
// return exactly what pruning the full cross product of its candidate
// formula returns, however few of those candidates it emits.

// crossStack is the reference for LStack: every StackCand pair, pruned.
func crossStack(bottom, top shape.RList) shape.LSet {
	var all []shape.LImpl
	for _, a := range bottom {
		for _, b := range top {
			all = append(all, StackCand(a, b))
		}
	}
	return shape.LSetFromMinimal(shape.MinimaL(all))
}

// crossL is the reference for LNotch and LBottom: every pair of an L-set
// implementation and an R-list implementation under cand, pruned.
func crossL(l shape.LSet, c shape.RList, cand func(shape.LImpl, shape.RImpl) shape.LImpl) shape.LSet {
	var all []shape.LImpl
	for _, li := range l.All() {
		for _, ci := range c {
			all = append(all, cand(li, ci))
		}
	}
	return shape.LSetFromMinimal(shape.MinimaL(all))
}

// crossClose is the reference for Close.
func crossClose(l shape.LSet, c shape.RList) shape.RList {
	var all []shape.RImpl
	for _, li := range l.All() {
		for _, ci := range c {
			all = append(all, CloseCand(li, ci))
		}
	}
	return shape.MinimaRInPlace(all)
}

func equalLSets(a, b shape.LSet) bool {
	return slices.EqualFunc(a.Lists, b.Lists, func(x, y shape.LList) bool { return slices.Equal(x, y) })
}

// lblockCase is one L-block operation on fixed operands. run calls it
// under a budget and reports the result's size, whether the result equals
// the pruned cross product, and whether the call truncated.
type lblockCase struct {
	name  string
	cross int // size of the full cross product
	run   func(budget int) (size int, same, truncated bool)
}

func lblockCases(bottom, top shape.RList, l shape.LSet, c shape.RList) []lblockCase {
	lOp := func(name string, op func(shape.LSet, shape.RList, int) (shape.LSet, bool),
		cand func(shape.LImpl, shape.RImpl) shape.LImpl) lblockCase {
		want := crossL(l, c, cand)
		return lblockCase{name, l.Size() * len(c), func(budget int) (int, bool, bool) {
			got, truncated := op(l, c, budget)
			return got.Size(), equalLSets(got, want), truncated
		}}
	}
	wantStack, wantClose := crossStack(bottom, top), crossClose(l, c)
	return []lblockCase{
		{"LStack", len(bottom) * len(top), func(budget int) (int, bool, bool) {
			got, truncated := LStack(bottom, top, budget)
			return got.Size(), equalLSets(got, wantStack), truncated
		}},
		lOp("LNotch", LNotch, NotchCand),
		lOp("LBottom", LBottom, BottomCand),
		{"Close", l.Size() * len(c), func(budget int) (int, bool, bool) {
			got, truncated := Close(l, c, budget)
			return len(got), slices.Equal(got, wantClose), truncated
		}},
	}
}

// checkLBlockOps runs every L-block operation on the operands, unlimited
// and under every budget from 1 to one past the result size. The unlimited
// result must equal the pruned cross product. When the cross product is
// below the smallest prune threshold, a call prunes once, at the end, so a
// budget truncates exactly when it is below the result size, and a budget
// that fits returns the unlimited result.
func checkLBlockOps(t *testing.T, bottom, top shape.RList, l shape.LSet, c shape.RList) {
	t.Helper()
	operands := func() string {
		return fmt.Sprintf("bottom=%v top=%v l=%v c=%v", bottom, top, l.Lists, c)
	}
	onePrune := newBudgeter(1).chunk
	for _, tc := range lblockCases(bottom, top, l, c) {
		n, same, truncated := tc.run(0)
		if truncated || !same {
			t.Fatalf("%s: unlimited run (truncated %v) differs from the pruned cross product\n%s",
				tc.name, truncated, operands())
		}
		if tc.cross >= onePrune {
			continue
		}
		for budget := 1; budget <= n+1; budget++ {
			_, same, truncated := tc.run(budget)
			if truncated != (budget < n) {
				t.Fatalf("%s: budget %d with %d survivors: truncated %v\n%s",
					tc.name, budget, n, truncated, operands())
			}
			if !truncated && !same {
				t.Fatalf("%s: budget %d >= %d survivors changed the result\n%s", tc.name, budget, n, operands())
			}
		}
	}
}

// spanRList draws a canonical R-list from up to n implementations with
// both extents in [1, span]; a small span makes ties dense.
func spanRList(rng *rand.Rand, n int, span int64) shape.RList {
	raw := make([]shape.RImpl, n)
	for i := range raw {
		raw[i] = shape.RImpl{W: 1 + rng.Int63n(span), H: 1 + rng.Int63n(span)}
	}
	return shape.MustRList(raw)
}

// spanLSet partitions up to n random L-shaped implementations with at most
// three W2 values into an L-set: each W2 group is a 3-d antichain that
// usually needs several lists, so lists share W2 values as they do after
// LSetFromMinimal's chain partition.
func spanLSet(rng *rand.Rand, n int, span int64) shape.LSet {
	raw := make([]shape.LImpl, n)
	for i := range raw {
		w2, h2 := 1+rng.Int63n(min(span, 3)), 1+rng.Int63n(span)
		raw[i] = shape.LImpl{W1: w2 + rng.Int63n(span), W2: w2, H1: h2 + rng.Int63n(span), H2: h2}
	}
	return shape.MustLSet(raw)
}

// lblockOperands draws the operands of all four L-block operations with
// R-lists of up to n implementations and extents up to span. The L-set is
// an LStack result, a chain-partitioned random set, or the union of the
// lists of both: a union holds several lists of one W2 value whose
// implementations may dominate each other across lists.
func lblockOperands(rng *rand.Rand, n int, span int64) (bottom, top shape.RList, l shape.LSet, c shape.RList) {
	bottom, top, c = spanRList(rng, n, span), spanRList(rng, n, span), spanRList(rng, n, span)
	stacked, _ := LStack(spanRList(rng, n, span), spanRList(rng, n, span), 0)
	switch rng.Intn(3) {
	case 0:
		l = stacked
	case 1:
		l = spanLSet(rng, 4*n, span)
	default:
		l.Lists = append(slices.Clone(stacked.Lists), spanLSet(rng, 4*n, span).Lists...)
	}
	return bottom, top, l, c
}

// TestLBlockOpsMatchCrossProduct compares the four L-block operations with
// their cross-product references on random, tie-heavy and multi-list
// operands, and on a pinwheel's own pipeline (LStack feeding the others).
func TestLBlockOpsMatchCrossProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	trials := 150
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		span := []int64{3, 6, 30}[trial%3]
		bottom, top, l, c := lblockOperands(rng, 1+rng.Intn(12), span)
		checkLBlockOps(t, bottom, top, l, c)
	}
	// A pinwheel's steps chained on random operands, each stage feeding the
	// next.
	for trial := 0; trial < 10; trial++ {
		a, b := randomRList(rng, 3+rng.Intn(12)), randomRList(rng, 3+rng.Intn(12))
		c := randomRList(rng, 3+rng.Intn(12))
		l1, _ := LStack(a, b, 0)
		checkLBlockOps(t, a, b, l1, c)
		l2, _ := LNotch(l1, c, 0)
		checkLBlockOps(t, a, b, l2, c)
		l3, _ := LBottom(l2, c, 0)
		checkLBlockOps(t, a, b, l3, c)
		closed, _ := Close(l3, c, 0)
		if err := closed.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzLBlockOpsAgainstCrossProduct is TestLBlockOpsMatchCrossProduct with
// fuzzed generator parameters: a seed, the R-list size bound and the extent
// span. `go test` runs the seed corpus.
func FuzzLBlockOpsAgainstCrossProduct(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(0))   // every extent 1: one implementation per list
	f.Add(int64(2), uint8(11), uint8(2))  // dense ties
	f.Add(int64(3), uint8(11), uint8(5))  // tie-heavy
	f.Add(int64(4), uint8(8), uint8(29))  // sparse: mostly antichains
	f.Add(int64(5), uint8(11), uint8(14)) // mixed
	f.Fuzz(func(t *testing.T, seed int64, n, span uint8) {
		rng := rand.New(rand.NewSource(seed))
		bottom, top, l, c := lblockOperands(rng, 1+int(n%12), 1+int64(span%30))
		checkLBlockOps(t, bottom, top, l, c)
	})
}

// fp3Wheel is one pinwheel of an FP3 instance with 20 implementations per
// module under the paper's selection limits (K1 40, K2 1500): the top wheel
// of a 24-module block, whose operands are four 5-module pinwheels (b1..b4)
// and a slicing quad (b5). l1..l3 are its partial L-blocks after
// L_Selection, the operands of LNotch, LBottom and Close.
type fp3Wheel struct {
	b1, b2, b3, b4, b5 shape.RList
	l1, l2, l3         shape.LSet
}

func newFP3Wheel(tb testing.TB) fp3Wheel {
	tb.Helper()
	pol := selection.Policy{K1: 40, K2: 1500, Theta: 0.5, S: 500}
	rng := rand.New(rand.NewSource(7))
	module := func() shape.RList {
		m, err := gen.Module(rng, gen.ModuleParams{N: 20, MinArea: 2e6, MaxArea: 2e7, MaxAspect: 5})
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	reduceR := func(r shape.RList) shape.RList {
		out, _, err := pol.ReduceR(r)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	reduceL := func(l shape.LSet) shape.LSet {
		if !pol.WantL(l.Size()) {
			return l
		}
		out, _, err := pol.ReduceLSet(l)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	// steps runs the pinwheel (((B4 ⊕ B1) ⊕ B5) ⊕ B3) ⊕ B2, selecting after
	// each step as the optimizer does.
	steps := func(w *fp3Wheel) shape.RList {
		l, _ := LStack(w.b4, w.b1, 0)
		w.l1 = reduceL(l)
		l, _ = LNotch(w.l1, w.b5, 0)
		w.l2 = reduceL(l)
		l, _ = LBottom(w.l2, w.b3, 0)
		w.l3 = reduceL(l)
		r, _ := Close(w.l3, w.b2, 0)
		return reduceR(r)
	}
	wheel5 := func() shape.RList {
		return steps(&fp3Wheel{b1: module(), b2: module(), b3: module(), b4: module(), b5: module()})
	}
	var w fp3Wheel
	w.b1, w.b2, w.b3, w.b4 = wheel5(), wheel5(), wheel5(), wheel5()
	w.b5 = reduceR(HCut(reduceR(VCut(module(), module())), reduceR(VCut(module(), module()))))
	steps(&w)
	return w
}

// lblockSink keeps the benchmarked calls' results live.
var lblockSink int

// BenchmarkLBlockOps times each L-block operation on the operands of one
// FP3 wheel (see fp3Wheel).
func BenchmarkLBlockOps(b *testing.B) {
	w := newFP3Wheel(b)
	ops := []struct {
		name string
		run  func() int
	}{
		{"LStack", func() int { r, _ := LStack(w.b4, w.b1, 0); return r.Size() }},
		{"LNotch", func() int { r, _ := LNotch(w.l1, w.b5, 0); return r.Size() }},
		{"LBottom", func() int { r, _ := LBottom(w.l2, w.b3, 0); return r.Size() }},
		{"Close", func() int { r, _ := Close(w.l3, w.b2, 0); return len(r) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lblockSink = op.run()
			}
		})
	}
}
