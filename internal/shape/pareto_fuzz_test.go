package shape

import (
	"math/rand"
	"slices"
	"sync"
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
	f.Add(int64(3), uint16(200), uint8(3))    // > minimaLSmallCutoff, dense ties
	f.Add(int64(4), uint16(500), uint8(1))    // two W2 values: large single-W2 sweeps
	f.Add(int64(5), uint16(300), uint8(40))   // sparse: mostly antichain
	f.Add(int64(6), uint16(1000), uint8(5))   // large, several recursion levels
	f.Add(int64(7), uint16(2000), uint8(255)) // many W2 values: merges above the cutoff
	f.Fuzz(func(t *testing.T, seed int64, n uint16, span uint8) {
		if n == 0 || n > 2000 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		in := tieHeavyLImpls(rng, int(n), int64(span)+1)
		fast := sortedCopy(MinimaL(in))
		slow := sortedCopy(minimaLBrute(in))
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
// against the pairwise test on the same sorted, deduplicated input —
// isolating the recursion + cross-half merge from MinimaL's dedup preamble.
func TestMinima4MatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		span := int64(1 + rng.Intn(6))
		in := tieHeavyLImpls(rng, minimaLSmallCutoff+1+rng.Intn(400), span)
		sortLImpls(in)
		uniq := in[:0]
		for i, p := range in {
			if i == 0 || p != uniq[len(uniq)-1] {
				uniq = append(uniq, p)
			}
		}
		fastKeep := kernelSurvivors(t, uniq, 0, len(uniq))
		for i, p := range uniq {
			bruteKeep := true
			for j, q := range uniq {
				if i != j && p.Dominates(q) {
					bruteKeep = false
					break
				}
			}
			if fastKeep[i] != bruteKeep {
				t.Fatalf("trial %d (span %d, n %d): keep[%d] fast=%v brute=%v for %v",
					trial, span, len(uniq), i, fastKeep[i], bruteKeep, p)
			}
		}
	}
}

// TestMinimaLConcurrentPooledScratch prunes distinct tie-heavy inputs from
// several goroutines at once: the pooled scratch's rank column and Fenwick
// tree must carry no state from one call into the next (run under -race by
// make race-combine).
func TestMinimaLConcurrentPooledScratch(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + g)))
			for trial := 0; trial < 12; trial++ {
				in := tieHeavyLImpls(rng, 1+rng.Intn(400), int64(1+g+rng.Intn(4)))
				want := minimaLBrute(in)
				if got := MinimaLInPlace(append([]LImpl(nil), in...)); !equalLSlices(got, want) {
					t.Errorf("goroutine %d, trial %d: kernel kept %d, oracle %d", g, trial, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
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

// TestLSetFromMinimalMatches holds the sort-free LSet constructor, fed
// from the kernel and through MustLSet, to lsetReference.
func TestLSetFromMinimalMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		in := tieHeavyLImpls(rng, 1+rng.Intn(300), int64(1+rng.Intn(8)))
		want := lsetReference(in)
		for _, got := range []LSet{LSetFromMinimal(MinimaL(in)), MustLSet(in)} {
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
}

// lsetReference builds an L-set the direct way: the oracle's minima, sorted
// by cmpLGroup, each W2 group split by partitionChains.
func lsetReference(candidates []LImpl) LSet {
	pts := minimaLBrute(candidates)
	slices.SortFunc(pts, cmpLGroup)
	var set LSet
	for lo := 0; lo < len(pts); {
		hi := lo
		for hi < len(pts) && pts[hi].W2 == pts[lo].W2 {
			hi++
		}
		set.Lists = append(set.Lists, partitionChains(pts[lo:hi])...)
		lo = hi
	}
	return set
}

// cmpLGroup orders implementations by (W2, W1 desc, H1, H2): W2 groups stay
// contiguous and each group is in the greedy chain-partition order.
func cmpLGroup(p, q LImpl) int {
	switch {
	case p.W2 != q.W2:
		return cmpInt64(p.W2, q.W2)
	case p.W1 != q.W1:
		return cmpInt64(q.W1, p.W1)
	case p.H1 != q.H1:
		return cmpInt64(p.H1, q.H1)
	default:
		return cmpInt64(p.H2, q.H2)
	}
}
