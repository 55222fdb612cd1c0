package shape

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomLImpls(rng *rand.Rand, n int, span int64) []LImpl {
	out := make([]LImpl, 0, n)
	for len(out) < n {
		w2 := 1 + rng.Int63n(span)
		w1 := w2 + rng.Int63n(span)
		h2 := 1 + rng.Int63n(span)
		h1 := h2 + rng.Int63n(span)
		out = append(out, LImpl{W1: w1, W2: w2, H1: h1, H2: h2})
	}
	return out
}

func sortedCopy(ls []LImpl) []LImpl {
	out := make([]LImpl, len(ls))
	copy(out, ls)
	sortLImpls(out)
	return out
}

func equalLSlices(a, b []LImpl) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMinimaLMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		span := int64(3 + r.Intn(12)) // small span => dense dominations
		in := randomLImpls(r, 1+r.Intn(120), span)
		fast := sortedCopy(MinimaL(in))
		slow := sortedCopy(MinimaLBrute(in))
		if !equalLSlices(fast, slow) {
			t.Logf("span=%d n=%d fast=%d slow=%d", span, len(in), len(fast), len(slow))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimaLLarge(t *testing.T) {
	// Exercise the divide-and-conquer path well past the brute cutoff.
	rng := rand.New(rand.NewSource(3))
	in := randomLImpls(rng, 5000, 40)
	fast := sortedCopy(MinimaL(in))
	slow := sortedCopy(MinimaLBrute(in))
	if !equalLSlices(fast, slow) {
		t.Fatalf("large case mismatch: fast=%d slow=%d", len(fast), len(slow))
	}
}

func TestMinimaLAntichain(t *testing.T) {
	// A pure antichain must be kept intact.
	var in []LImpl
	for i := int64(0); i < 100; i++ {
		in = append(in, LImpl{W1: 200 - i, W2: 100 - i/2, H1: 100 + i, H2: 1 + i})
	}
	got := MinimaL(in)
	if len(got) != len(in) {
		t.Fatalf("antichain reduced from %d to %d", len(in), len(got))
	}
}

func TestMinimaLChain(t *testing.T) {
	// A totally ordered chain must collapse to its single minimum.
	var in []LImpl
	for i := int64(1); i <= 64; i++ {
		in = append(in, LImpl{W1: 2 * i, W2: i, H1: 2 * i, H2: i})
	}
	got := MinimaL(in)
	if len(got) != 1 || got[0] != in[0] {
		t.Fatalf("chain minima = %v", got)
	}
}

func TestMinimaLDuplicates(t *testing.T) {
	a := LImpl{5, 3, 4, 2}
	in := []LImpl{a, a, a}
	got := MinimaL(in)
	if len(got) != 1 || got[0] != a {
		t.Fatalf("duplicates should collapse to one survivor, got %v", got)
	}
}

func TestMinimaLEmpty(t *testing.T) {
	if got := MinimaL(nil); got != nil {
		t.Fatalf("MinimaL(nil) = %v", got)
	}
}

func TestMinFenwick(t *testing.T) {
	var s pruneScratch
	f := minFenwick{tree: s.fenwickRun(8)}
	if f.prefixMin(8) != fenwickInf {
		t.Fatal("fresh fenwick should report +inf")
	}
	f.update(3, 10)
	f.update(6, 4)
	tests := []struct {
		i    int
		want int64
	}{
		{2, fenwickInf}, {3, 10}, {5, 10}, {6, 4}, {8, 4},
	}
	for _, tc := range tests {
		if got := f.prefixMin(tc.i); got != tc.want {
			t.Errorf("prefixMin(%d) = %d, want %d", tc.i, got, tc.want)
		}
	}
	f.update(3, 2)
	if got := f.prefixMin(4); got != 2 {
		t.Errorf("after lowering, prefixMin(4) = %d, want 2", got)
	}
}

func TestMinima3Direct(t *testing.T) {
	// One W2 value, already in (W1, H1, H2) order, as minima4 hands it over.
	all := []LImpl{
		{W1: 1, W2: 1, H1: 5, H2: 5},
		{W1: 2, W2: 1, H1: 4, H2: 6},
		{W1: 2, W2: 1, H1: 6, H2: 6}, // dominates idx 0: W1 2>=1, H1 6>=5, H2 6>=5
		{W1: 3, W2: 1, H1: 3, H2: 3},
	}
	keep := make([]bool, len(all))
	minima3(all, []int32{0, 1, 2, 3}, keep, new(pruneScratch))
	if !keep[0] || !keep[1] || keep[2] || !keep[3] {
		t.Fatalf("keep = %v", keep)
	}
	// A sub-run: only the listed indices are decided, the others untouched.
	keep = make([]bool, len(all))
	minima3(all, []int32{2, 3}, keep, new(pruneScratch))
	if keep[0] || keep[1] || !keep[2] || !keep[3] {
		t.Fatalf("sub-run keep = %v", keep)
	}
}

// TestMinimaLPermutationInvariant checks the result does not depend on input
// order.
func TestMinimaLPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomLImpls(rng, 300, 15)
	base := sortedCopy(MinimaL(in))
	for trial := 0; trial < 10; trial++ {
		perm := make([]LImpl, len(in))
		copy(perm, in)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got := sortedCopy(MinimaL(perm))
		if !equalLSlices(base, got) {
			t.Fatalf("trial %d: permutation changed minima", trial)
		}
	}
}

// TestSortLImplsIsTotal pins the kernel order (W2, W1, H1, H2): minima4
// relies on equal W2 values forming contiguous runs in (W1, H1, H2) order.
func TestSortLImplsIsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randomLImpls(rng, 200, 5)
	sortLImpls(in)
	if !sort.SliceIsSorted(in, func(i, j int) bool {
		a, b := in[i], in[j]
		if a.W2 != b.W2 {
			return a.W2 < b.W2
		}
		if a.W1 != b.W1 {
			return a.W1 < b.W1
		}
		if a.H1 != b.H1 {
			return a.H1 < b.H1
		}
		return a.H2 < b.H2
	}) {
		t.Fatal("sortLImpls did not produce (W2, W1, H1, H2) order")
	}
}
