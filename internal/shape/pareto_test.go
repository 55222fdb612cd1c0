package shape

import (
	"math"
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
		slow := sortedCopy(minimaLBrute(in))
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
	slow := sortedCopy(minimaLBrute(in))
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
	f := make(minFenwick, 9)
	for i := range f {
		f[i] = fenwickEmpty
	}
	if f.prefixMin(8) != fenwickEmpty {
		t.Fatal("fresh fenwick should report empty")
	}
	f.update(3, 10)
	f.update(6, 4)
	tests := []struct {
		i    int32
		want uint64
	}{
		{2, fenwickEmpty}, {3, 10}, {5, 10}, {6, 4}, {8, 4},
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

// TestMinFenwickClear checks that clearing the inserted ranks' update paths
// empties the whole tree, including nodes two paths share and ranks that
// were updated twice, so one tree can serve every sweep of a prune.
func TestMinFenwickClear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		f := make(minFenwick, 2+rng.Intn(200))
		for i := range f {
			f[i] = fenwickEmpty
		}
		var ranks []int32
		for n := rng.Intn(40); n >= 0; n-- {
			r := int32(1 + rng.Intn(len(f)-1))
			f.update(r, uint64(rng.Int63()))
			ranks = append(ranks, r)
		}
		for _, r := range ranks {
			f.clear(r)
		}
		for i := int32(0); int(i) < len(f); i++ {
			if got := f.prefixMin(i); got != fenwickEmpty {
				t.Fatalf("trial %d: after clearing %v, prefixMin(%d) = %d", trial, ranks, i, got)
			}
		}
	}
}

// kernelSurvivors runs the kernel on the range [lo, hi) of pts, which must
// be sorted and deduplicated, and returns the survivors as flags over pts.
// It fails the test if they do not come back in W1 order.
func kernelSurvivors(t *testing.T, pts []LImpl, lo, hi int) []bool {
	t.Helper()
	s := getPruneScratch()
	defer putPruneScratch(s)
	k := s.kernel(pts)
	keep := make([]bool, len(pts))
	surv := k.ord[lo : lo+k.minima(lo, hi)]
	for i, id := range surv {
		if i > 0 && pts[surv[i-1]].W1 > pts[id].W1 {
			t.Fatalf("survivors of [%d, %d) not in W1 order: %v", lo, hi, surv)
		}
		keep[id] = true
	}
	return keep
}

func TestMinima3Direct(t *testing.T) {
	// One W2 value, already in (W1, H1, H2) order: the single-W2 sweep.
	all := []LImpl{
		{W1: 1, W2: 1, H1: 5, H2: 5},
		{W1: 2, W2: 1, H1: 4, H2: 6},
		{W1: 2, W2: 1, H1: 6, H2: 6}, // dominates idx 0: W1 2>=1, H1 6>=5, H2 6>=5
		{W1: 3, W2: 1, H1: 3, H2: 3},
	}
	keep := kernelSurvivors(t, all, 0, len(all))
	if !keep[0] || !keep[1] || keep[2] || !keep[3] {
		t.Fatalf("keep = %v", keep)
	}
	// A sub-run: only the range's points are decided, the others untouched.
	keep = kernelSurvivors(t, all, 2, 4)
	if keep[0] || keep[1] || !keep[2] || !keep[3] {
		t.Fatalf("sub-run keep = %v", keep)
	}
}

// TestMinimaLExtremeH2 checks that no valid H2 reads as an empty Fenwick
// prefix: H2 = 2^62 and H2 = math.MaxInt64 are kept when nothing is below
// them, on the single-W2 sweep and across the merges of a multi-W2 set
// whose heights are shifted so the tallest reaches the extreme value.
func TestMinimaLExtremeH2(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, top := range []int64{1 << 62, math.MaxInt64} {
		p := LImpl{W1: 1, W2: 1, H1: top, H2: top}
		if got := MinimaL([]LImpl{p}); !equalLSlices(got, []LImpl{p}) {
			t.Errorf("MinimaL(%v) = %v", p, got)
		}
		pair := []LImpl{p, {W1: 2, W2: 1, H1: 1, H2: 1}}
		if got := MinimaL(pair); !equalLSlices(got, pair) {
			t.Errorf("MinimaL(%v) = %v", pair, got)
		}
		if set, err := NewLSet([]LImpl{p}); err != nil || set.Size() != 1 {
			t.Errorf("NewLSet(%v) = %v, %v", p, set, err)
		}
		for trial := 0; trial < 10; trial++ {
			in := tieHeavyLImpls(rng, 100+rng.Intn(300), int64(2+rng.Intn(30)))
			var maxH int64
			for _, q := range in {
				maxH = max(maxH, q.H1)
			}
			for i := range in {
				in[i].H1 += top - maxH
				in[i].H2 += top - maxH
			}
			if fast, slow := MinimaL(in), minimaLBrute(in); !equalLSlices(fast, slow) {
				t.Fatalf("top %d, trial %d: kernel kept %d, oracle %d", top, trial, len(fast), len(slow))
			}
		}
	}
}

// minimaLBrute is the quadratic oracle for MinimaL.
func minimaLBrute(candidates []LImpl) []LImpl {
	if len(candidates) == 0 {
		return nil
	}
	pts := make([]LImpl, len(candidates))
	copy(pts, candidates)
	sortLImpls(pts)
	uniq := pts[:0]
	for i, p := range pts {
		if i == 0 || p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	out := make([]LImpl, 0, len(uniq))
	for i, p := range uniq {
		redundant := false
		for j, q := range uniq {
			if i != j && p.Dominates(q) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, p)
		}
	}
	return out
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

// TestSortLImplsIsTotal pins the kernel order (W2, W1, H1, H2): the kernel
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
