package shape

import (
	"math/rand"
	"testing"
)

// tieHeavyLImpls draws every coordinate from a tiny value set so exact
// duplicates, partial ties, and mutual-domination chains are all dense —
// the adversarial regime for the divide-and-conquer's single-W2 sweep
// branch and the Fenwick tie handling (prefixMin <= vs <).
func tieHeavyLImpls(rng *rand.Rand, n int, span int64) []LImpl {
	out := make([]LImpl, 0, n)
	for len(out) < n {
		w2 := 1 + rng.Int63n(span)
		h2 := 1 + rng.Int63n(span)
		out = append(out, LImpl{
			W1: w2 + rng.Int63n(span),
			W2: w2,
			H1: h2 + rng.Int63n(span),
			H2: h2,
		})
	}
	return out
}

// FuzzMinimaLAgainstBrute pins the Fenwick fast path to the quadratic
// oracle. The fuzz engine mutates the generator parameters rather than raw
// implementations so every input is valid by construction yet adversarially
// tie-heavy (span as low as 1 collapses the whole set onto a handful of
// points). `go test` runs the seed corpus, which is chosen to cross the
// brute-force cutoff in both directions.
func FuzzMinimaLAgainstBrute(f *testing.F) {
	f.Add(int64(1), uint16(8), uint8(1))
	f.Add(int64(2), uint16(64), uint8(2))
	f.Add(int64(3), uint16(200), uint8(3))  // > minima4SmallCutoff, dense ties
	f.Add(int64(4), uint16(500), uint8(1))  // two W2 values: large single-W2 sweeps
	f.Add(int64(5), uint16(300), uint8(40)) // sparse: mostly antichain
	f.Add(int64(6), uint16(1000), uint8(5)) // large, several recursion levels
	f.Fuzz(func(t *testing.T, seed int64, n uint16, span uint8) {
		if n == 0 || n > 2000 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		in := tieHeavyLImpls(rng, int(n), int64(span)+1)
		fast := sortedCopy(MinimaL(in))
		slow := sortedCopy(MinimaLBrute(in))
		if !equalLSlices(fast, slow) {
			t.Fatalf("seed=%d n=%d span=%d: fast %d impls, brute %d", seed, n, span, len(fast), len(slow))
		}
		// The owning variant must agree element-for-element (it is the one
		// the combine stage runs on its pooled buffers).
		buf := make([]LImpl, len(in))
		copy(buf, in)
		inPlace := MinimaLInPlace(buf)
		if !equalLSlices(inPlace, fast) {
			t.Fatalf("seed=%d: MinimaLInPlace diverged from MinimaL", seed)
		}
	})
}

// TestMinima4MatchesBrute drives the divide-and-conquer kernel directly
// against minima4Brute on the same sorted, deduplicated input — isolating
// the recursion + cross-half filter from MinimaL's dedup preamble.
func TestMinima4MatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		span := int64(1 + rng.Intn(6))
		in := tieHeavyLImpls(rng, minima4SmallCutoff+1+rng.Intn(400), span)
		sortLImpls(in)
		uniq := in[:0]
		for i, p := range in {
			if i == 0 || p != uniq[len(uniq)-1] {
				uniq = append(uniq, p)
			}
		}
		s := getPruneScratch()
		fastKeep := make([]bool, len(uniq))
		minima4(uniq, s.indexRun(len(uniq)), fastKeep, s)
		putPruneScratch(s)
		bruteKeep := make([]bool, len(uniq))
		idx := make([]int32, len(uniq))
		for i := range idx {
			idx[i] = int32(i)
		}
		minima4Brute(uniq, idx, bruteKeep)
		for i := range uniq {
			if fastKeep[i] != bruteKeep[i] {
				t.Fatalf("trial %d (span %d, n %d): keep[%d] fast=%v brute=%v for %v",
					trial, span, len(uniq), i, fastKeep[i], bruteKeep[i], uniq[i])
			}
		}
	}
}

// TestMinimaRInPlaceMatches pins the in-place R pruning to the copying
// R-list constructor.
func TestMinimaRInPlaceMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		in := randomRImpls(rng, 1+rng.Intn(200))
		want := newRListUnchecked(in)
		buf := make([]RImpl, len(in))
		copy(buf, in)
		got := MinimaRInPlace(buf)
		if !RList(got).Equal(RList(want)) {
			t.Fatalf("trial %d: in-place %v, copying %v", trial, got, want)
		}
	}
}

// TestLSetFromMinimalMatches pins the no-reprune LSet constructor to the
// full MustLSet path.
func TestLSetFromMinimalMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		in := tieHeavyLImpls(rng, 1+rng.Intn(300), int64(1+rng.Intn(8)))
		want := MustLSet(in)
		got := LSetFromMinimal(MinimaL(in))
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got.Lists) != len(want.Lists) {
			t.Fatalf("trial %d: %d lists vs %d", trial, len(got.Lists), len(want.Lists))
		}
		for i := range got.Lists {
			if !equalLSlices(got.Lists[i], want.Lists[i]) {
				t.Fatalf("trial %d: list %d differs", trial, i)
			}
		}
	}
}
