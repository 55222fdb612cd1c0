package combine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"floorplan/internal/shape"
)

func randomRList(rng *rand.Rand, n int) shape.RList {
	raw := make([]shape.RImpl, n)
	for i := range raw {
		raw[i] = shape.RImpl{W: 1 + rng.Int63n(30), H: 1 + rng.Int63n(30)}
	}
	l := shape.MustRList(raw)
	if len(l) == 0 {
		return shape.RList{{W: 1, H: 1}}
	}
	return l
}

func TestCandFormulas(t *testing.T) {
	a := shape.RImpl{W: 6, H: 2}
	b := shape.RImpl{W: 4, H: 5}
	if got := VCand(a, b); got != (shape.RImpl{W: 10, H: 5}) {
		t.Errorf("VCand = %v", got)
	}
	if got := HCand(a, b); got != (shape.RImpl{W: 6, H: 7}) {
		t.Errorf("HCand = %v", got)
	}
	// Pinwheel steps on a worked example:
	// B4 = 6x2 bottom, B1 = 4x5 on the left top.
	l1 := StackCand(a, b)
	if l1 != (shape.LImpl{W1: 6, W2: 4, H1: 7, H2: 2}) {
		t.Fatalf("StackCand = %v", l1)
	}
	// B5 = 3x4 in the notch: right height 2+4=6, bottom width max(6, 4+3)=7,
	// left height max(7, 6)=7.
	l2 := NotchCand(l1, shape.RImpl{W: 3, H: 4})
	if l2 != (shape.LImpl{W1: 7, W2: 4, H1: 7, H2: 6}) {
		t.Fatalf("NotchCand = %v", l2)
	}
	// B3 = 2x3 appended right of the bottom: width 7+2=9; its height 3 is
	// under the notch line 6, so heights stay.
	l3 := BottomCand(l2, shape.RImpl{W: 2, H: 3})
	if l3 != (shape.LImpl{W1: 9, W2: 4, H1: 7, H2: 6}) {
		t.Fatalf("BottomCand = %v", l3)
	}
	// B2 = 4x2 closing the top-right: W = max(9, 4+4) = 9,
	// H = max(7, 6+2) = 8.
	r := CloseCand(l3, shape.RImpl{W: 4, H: 2})
	if r != (shape.RImpl{W: 9, H: 8}) {
		t.Fatalf("CloseCand = %v", r)
	}
}

func TestCandDegenerateGrowth(t *testing.T) {
	// A top block wider than the bottom degenerates the L to a rectangle.
	l := StackCand(shape.RImpl{W: 3, H: 2}, shape.RImpl{W: 5, H: 4})
	if l != (shape.LImpl{W1: 5, W2: 5, H1: 6, H2: 2}) {
		t.Fatalf("StackCand = %v", l)
	}
	if !l.IsRect() {
		t.Error("expected degenerate L")
	}
	// A tall SE block raises the notch line.
	l2 := BottomCand(shape.LImpl{W1: 6, W2: 3, H1: 5, H2: 2}, shape.RImpl{W: 2, H: 7})
	if l2 != (shape.LImpl{W1: 8, W2: 3, H1: 7, H2: 7}) {
		t.Fatalf("BottomCand = %v", l2)
	}
	if !l2.IsRect() {
		t.Error("H1 == H2 should be degenerate")
	}
}

func TestCandMonotone(t *testing.T) {
	// The combine formulas must be monotone: growing any input coordinate
	// never shrinks any output coordinate. This is what makes dominance
	// pruning of operands safe.
	rng := rand.New(rand.NewSource(51))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := shape.LImpl{W1: 5 + r.Int63n(20), W2: 1 + r.Int63n(5), H1: 5 + r.Int63n(20), H2: 1 + r.Int63n(5)}
		c := shape.RImpl{W: 1 + r.Int63n(10), H: 1 + r.Int63n(10)}
		bigger := shape.LImpl{W1: l.W1 + r.Int63n(4), W2: l.W2 + r.Int63n(4), H1: l.H1 + r.Int63n(4), H2: l.H2 + r.Int63n(4)}
		if bigger.W2 > bigger.W1 {
			bigger.W1 = bigger.W2
		}
		if bigger.H2 > bigger.H1 {
			bigger.H1 = bigger.H2
		}
		biggerC := shape.RImpl{W: c.W + r.Int63n(4), H: c.H + r.Int63n(4)}
		if !NotchCand(bigger, biggerC).Dominates(NotchCand(l, c)) {
			return false
		}
		if !BottomCand(bigger, biggerC).Dominates(BottomCand(l, c)) {
			return false
		}
		if !CloseCand(bigger, biggerC).Dominates(CloseCand(l, c)) {
			return false
		}
		a := shape.RImpl{W: 1 + r.Int63n(10), H: 1 + r.Int63n(10)}
		biggerA := shape.RImpl{W: a.W + r.Int63n(4), H: a.H + r.Int63n(4)}
		if !StackCand(biggerA, biggerC).Dominates(StackCand(a, c)) {
			return false
		}
		if !VCand(biggerA, biggerC).Dominates(VCand(a, c)) {
			return false
		}
		if !HCand(biggerA, biggerC).Dominates(HCand(a, c)) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// bruteVCut prunes the full cross product — the oracle for the two-pointer
// merge.
func bruteVCut(a, b shape.RList) shape.RList {
	var all []shape.RImpl
	for _, ai := range a {
		for _, bi := range b {
			all = append(all, VCand(ai, bi))
		}
	}
	return shape.MustRList(all)
}

func bruteHCut(a, b shape.RList) shape.RList {
	var all []shape.RImpl
	for _, ai := range a {
		for _, bi := range b {
			all = append(all, HCand(ai, bi))
		}
	}
	return shape.MustRList(all)
}

func TestVCutMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRList(r, 1+r.Intn(20))
		b := randomRList(r, 1+r.Intn(20))
		got := VCut(a, b)
		want := bruteVCut(a, b)
		if !got.Equal(want) {
			t.Logf("VCut mismatch:\n a=%v\n b=%v\n got=%v\n want=%v", a, b, got, want)
			return false
		}
		return got.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestHCutMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomRList(r, 1+r.Intn(20))
		b := randomRList(r, 1+r.Intn(20))
		got := HCut(a, b)
		want := bruteHCut(a, b)
		if !got.Equal(want) {
			t.Logf("HCut mismatch:\n a=%v\n b=%v\n got=%v\n want=%v", a, b, got, want)
			return false
		}
		return got.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestCutsEmptyOperand(t *testing.T) {
	a := randomRList(rand.New(rand.NewSource(1)), 5)
	if got := VCut(a, nil); got != nil {
		t.Errorf("VCut with empty operand = %v", got)
	}
	if got := HCut(nil, a); got != nil {
		t.Errorf("HCut with empty operand = %v", got)
	}
}

func TestCutsCommute(t *testing.T) {
	// Both cuts are symmetric in their operands at the shape level.
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 50; trial++ {
		a := randomRList(rng, 1+rng.Intn(15))
		b := randomRList(rng, 1+rng.Intn(15))
		if !VCut(a, b).Equal(VCut(b, a)) {
			t.Fatal("VCut not commutative")
		}
		if !HCut(a, b).Equal(HCut(b, a)) {
			t.Fatal("HCut not commutative")
		}
	}
}

func TestLStackMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		a := randomRList(rng, 1+rng.Intn(12))
		b := randomRList(rng, 1+rng.Intn(12))
		set, _ := LStack(a, b, 0)
		if err := set.Validate(); err != nil {
			t.Fatal(err)
		}
		if want := crossStack(a, b); !equalLSets(set, want) {
			t.Fatalf("LStack(%v, %v) = %v, want %v", a, b, set.Lists, want.Lists)
		}
	}
}

func TestWheelPipelineShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 25; trial++ {
		lists := make([]shape.RList, 5)
		for i := range lists {
			lists[i] = randomRList(rng, 1+rng.Intn(8))
		}
		l1, _ := LStack(lists[3], lists[0], 0) // B4 ⊕ B1
		if err := l1.Validate(); err != nil {
			t.Fatal(err)
		}
		l2, _ := LNotch(l1, lists[4], 0) // ⊕ B5
		if err := l2.Validate(); err != nil {
			t.Fatal(err)
		}
		l3, _ := LBottom(l2, lists[2], 0) // ⊕ B3
		if err := l3.Validate(); err != nil {
			t.Fatal(err)
		}
		final, _ := Close(l3, lists[1], 0) // ⊕ B2
		if err := final.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(final) == 0 {
			t.Fatal("wheel produced no implementations")
		}
		// Every final area must be at least the sum of the smallest module
		// areas (blocks cannot overlap).
		var minSum int64
		for _, l := range lists {
			best := l[0].Area()
			for _, r := range l[1:] {
				if r.Area() < best {
					best = r.Area()
				}
			}
			minSum += best
		}
		for _, r := range final {
			if r.Area() < minSum {
				t.Fatalf("final area %d below module area sum %d", r.Area(), minSum)
			}
		}
	}
}

func TestFindVPairAndHPair(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 60; trial++ {
		a := randomRList(rng, 1+rng.Intn(15))
		b := randomRList(rng, 1+rng.Intn(15))
		for _, target := range VCut(a, b) {
			ai, bi, ok := FindVPair(a, b, target)
			if !ok {
				t.Fatalf("FindVPair failed for %v", target)
			}
			if VCand(ai, bi) != target {
				t.Fatalf("FindVPair returned wrong pair %v %v for %v", ai, bi, target)
			}
		}
		for _, target := range HCut(a, b) {
			ai, bi, ok := FindHPair(a, b, target)
			if !ok {
				t.Fatalf("FindHPair failed for %v", target)
			}
			if HCand(ai, bi) != target {
				t.Fatalf("FindHPair returned wrong pair %v %v for %v", ai, bi, target)
			}
		}
	}
}

func TestFindVPairMisuse(t *testing.T) {
	a := shape.RList{{W: 5, H: 5}}
	b := shape.RList{{W: 3, H: 3}}
	if _, _, ok := FindVPair(a, b, shape.RImpl{W: 100, H: 100}); ok {
		t.Error("FindVPair should fail for an impossible target")
	}
}

func TestFindLPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for trial := 0; trial < 25; trial++ {
		lists := make([]shape.RList, 5)
		for i := range lists {
			lists[i] = randomRList(rng, 1+rng.Intn(6))
		}
		l1, _ := LStack(lists[3], lists[0], 0)
		for _, list := range l1.Lists {
			for _, target := range list {
				a, b, ok := FindStackPair(lists[3], lists[0], target)
				if !ok || StackCand(a, b) != target {
					t.Fatalf("FindStackPair failed for %v", target)
				}
			}
		}
		l2, _ := LNotch(l1, lists[4], 0)
		for _, list := range l2.Lists {
			for _, target := range list {
				li, ci, ok := FindNotchPair(l1, lists[4], target)
				if !ok || NotchCand(li, ci) != target {
					t.Fatalf("FindNotchPair failed for %v", target)
				}
			}
		}
		l3, _ := LBottom(l2, lists[2], 0)
		for _, list := range l3.Lists {
			for _, target := range list {
				li, ci, ok := FindBottomPair(l2, lists[2], target)
				if !ok || BottomCand(li, ci) != target {
					t.Fatalf("FindBottomPair failed for %v", target)
				}
			}
		}
		final, _ := Close(l3, lists[1], 0)
		for _, target := range final {
			li, ci, ok := FindClosePair(l3, lists[1], target)
			if !ok || CloseCand(li, ci) != target {
				t.Fatalf("FindClosePair failed for %v", target)
			}
		}
	}
}

// TestSingletonWheel pins down the full pipeline on single-implementation
// modules where the optimal envelope can be computed by hand.
func TestSingletonWheel(t *testing.T) {
	one := func(w, h int64) shape.RList { return shape.RList{{W: w, H: h}} }
	// Perfectly interlocking pinwheel in a 10x10 square with x1=4, x2=7,
	// y1=3, y2=6:
	b1 := one(4, 7) // NW: [0,4]x[3,10]
	b2 := one(6, 4) // NE: [4,10]x[6,10]
	b3 := one(3, 6) // SE: [7,10]x[0,6]
	b4 := one(7, 3) // SW: [0,7]x[0,3]
	b5 := one(3, 3) // C:  [4,7]x[3,6]
	l1, _ := LStack(b4, b1, 0)
	if l1.Size() != 1 || l1.All()[0] != (shape.LImpl{W1: 7, W2: 4, H1: 10, H2: 3}) {
		t.Fatalf("l1 = %v", l1.All())
	}
	l2, _ := LNotch(l1, b5, 0)
	if l2.All()[0] != (shape.LImpl{W1: 7, W2: 4, H1: 10, H2: 6}) {
		t.Fatalf("l2 = %v", l2.All())
	}
	l3, _ := LBottom(l2, b3, 0)
	if l3.All()[0] != (shape.LImpl{W1: 10, W2: 4, H1: 10, H2: 6}) {
		t.Fatalf("l3 = %v", l3.All())
	}
	final, _ := Close(l3, b2, 0)
	if len(final) != 1 || final[0] != (shape.RImpl{W: 10, H: 10}) {
		t.Fatalf("final = %v", final)
	}
}

func TestBudgetTruncation(t *testing.T) {
	// An antichain-producing stack: distinct widths and heights everywhere,
	// so the candidate set is large; a tiny budget must truncate.
	rng := rand.New(rand.NewSource(59))
	a := randomRList(rng, 20)
	b := randomRList(rng, 20)
	full, truncated := LStack(a, b, 0)
	if truncated {
		t.Fatal("unlimited run reported truncation")
	}
	if full.Size() < 3 {
		t.Skip("degenerate random case")
	}
	partial, truncated := LStack(a, b, 1)
	if !truncated {
		t.Fatalf("budget 1 with %d survivors did not truncate", full.Size())
	}
	if partial.Size() < 1 {
		t.Fatal("truncated run returned nothing for accounting")
	}
	// A generous budget must not truncate and must match the full result.
	same, truncated := LStack(a, b, full.Size())
	if truncated || same.Size() != full.Size() {
		t.Fatalf("budget == size truncated=%v size=%d want %d", truncated, same.Size(), full.Size())
	}
}

// BenchmarkCombineMerge measures the canonical two-pointer merge on two
// large staircases — the inner loop of every slicing cut.
func BenchmarkCombineMerge(b *testing.B) {
	a := staircase(4096, 3)
	c := staircase(4096, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := VCut(a, c); len(got) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// staircase builds a canonical n-step R-list with the given step size.
func staircase(n int, step int64) shape.RList {
	impls := make([]shape.RImpl, n)
	for i := range impls {
		impls[i] = shape.RImpl{W: int64(n-i) * step, H: int64(i+1) * step}
	}
	return shape.MustRList(impls)
}
