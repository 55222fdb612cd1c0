package shape

import (
	"slices"
	"sort"
)

// This file implements Pareto-minima pruning: from a candidate set, keep
// exactly the implementations not dominated by (componentwise >=) another.
// The optimizer calls this on every combine step, and unpruned candidate
// sets at high tree levels reach 10^5 entries, so the 4-d case uses the
// divide and conquer of Kung/Luccio/Preparata in its merge-sort form, with a
// Fenwick prefix-min sweep for the cross-half filter: O(n log^2 n) instead of
// the quadratic pairwise scan the tests keep as their oracle.
//
// The L kernel orders candidates by (W2, W1, H1, H2) and splits on W2 first.
// Every L-block combine copies W2 from an operand implementation, so a
// candidate set holds at most as many W2 values as the operands have
// L-lists (or top blocks): the W2 recursion is shallow. Every subproblem is
// a contiguous range of the sorted candidates and hands its survivors back
// in W1 order, so the cross-half filter walks two sorted runs and merges
// them for its parent instead of sorting. A single-W2 run is already in
// (W1, H1, H2) order, and one Fenwick sweep prunes it in place. H1 is ranked
// once per prune, and one Fenwick tree over those ranks serves every sweep,
// cleared along the inserted points' update paths after each.
//
// The kernel runs on the columns of a pooled pruneScratch (soa.go), so a
// prune is allocation-free in steady state.

// minFenwick is a Fenwick tree over 1-based H1 ranks holding prefix minima
// of H2. Values only decrease between clears, which is all the dominance
// sweeps need. It stores H2 unsigned, so its empty value, fenwickEmpty,
// exceeds every int64 and no valid H2 reads as empty.
type minFenwick []uint64

const fenwickEmpty = ^uint64(0)

// update lowers the value at rank i to at most v.
func (f minFenwick) update(i int32, v uint64) {
	for ; int(i) < len(f); i += i & -i {
		if v < f[i] {
			f[i] = v
		}
	}
}

// clear empties the nodes update(i, ·) lowered. All of a sweep's updates
// precede its clears, and the path above a node is the same for every rank
// through it, so an empty node means another clear emptied the rest.
func (f minFenwick) clear(i int32) {
	for ; int(i) < len(f) && f[i] != fenwickEmpty; i += i & -i {
		f[i] = fenwickEmpty
	}
}

// prefixMin returns the minimum value over ranks 1..i.
func (f minFenwick) prefixMin(i int32) uint64 {
	m := fenwickEmpty
	for ; i > 0; i -= i & -i {
		if f[i] < m {
			m = f[i]
		}
	}
	return m
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// MinimaL returns the Pareto-minimal subset of 4-d L-shaped candidates,
// deduplicated, in (W2, W1, H1, H2) order. Candidates are not modified.
// Every H2 must be non-negative, as it is in every valid LImpl.
func MinimaL(candidates []LImpl) []LImpl {
	if len(candidates) == 0 {
		return nil
	}
	s := getPruneScratch()
	s.impls = grow(s.impls, len(candidates))
	copy(s.impls, candidates)
	minimal := minimaLSorted(s.impls, s)
	out := make([]LImpl, len(minimal))
	copy(out, minimal)
	putPruneScratch(s)
	return out
}

// MinimaLInPlace is MinimaL taking ownership of buf: it sorts and compacts
// buf, returning the minimal, deduplicated, (W2, W1, H1, H2)-ordered prefix
// (sharing buf's backing array). The combine stage uses it to prune its
// pooled candidate buffers without copying them out.
func MinimaLInPlace(buf []LImpl) []LImpl {
	if len(buf) == 0 {
		return buf[:0]
	}
	s := getPruneScratch()
	out := minimaLSorted(buf, s)
	putPruneScratch(s)
	return out
}

// minimaLSorted sorts buf by (W2, W1, H1, H2), deduplicates it, prunes
// dominated entries, and compacts the survivors into buf's prefix, which it
// returns.
func minimaLSorted(buf []LImpl, s *pruneScratch) []LImpl {
	sortLImpls(buf)
	// Deduplicate exact copies so mutual domination cannot erase both.
	uniq := buf[:0]
	for i, p := range buf {
		if i == 0 || p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	k := s.kernel(uniq)
	keep := s.keep
	for _, i := range k.ord[:k.minima(0, len(uniq))] {
		keep[i] = true
	}
	out := uniq[:0]
	for i, p := range uniq {
		if keep[i] {
			out = append(out, p)
		}
	}
	return out
}

// cmpLImpl orders implementations by (W2, W1, H1, H2), the kernel order:
// equal W2 values form contiguous runs, each in (W1, H1, H2) order.
func cmpLImpl(p, q LImpl) int {
	switch {
	case p.W2 != q.W2:
		return cmpInt64(p.W2, q.W2)
	case p.W1 != q.W1:
		return cmpInt64(p.W1, q.W1)
	case p.H1 != q.H1:
		return cmpInt64(p.H1, q.H1)
	default:
		return cmpInt64(p.H2, q.H2)
	}
}

func sortLImpls(pts []LImpl) {
	slices.SortFunc(pts, cmpLImpl)
}

// minimaLSmallCutoff is the subproblem size below which the pairwise scan
// beats the divide-and-conquer bookkeeping on a range holding several W2
// values. The scan deliberately stays on the array-of-structs layout: it
// compares all four coordinates of element pairs, the one access pattern
// AoS serves better than columns.
const minimaLSmallCutoff = 48

// lKernel is one prune's view of the scratch columns over pts, the sorted,
// deduplicated candidates: rank holds each point's H1 rank, ord receives
// every range's survivors at the range's start, and half holds a low half's
// survivors while the cross-half filter merges them.
type lKernel struct {
	pts             []LImpl
	rank, ord, half []int32
	fw              minFenwick
}

// minima decides the range pts[lo:hi]: it writes the indices of the range's
// Pareto-minimal points to ord[lo:], in W1 order, and returns how many
// there are.
func (k *lKernel) minima(lo, hi int) int {
	pts := k.pts
	if pts[lo].W2 == pts[hi-1].W2 {
		return k.sweep(lo, hi)
	}
	if hi-lo <= minimaLSmallCutoff {
		return k.scan(lo, hi)
	}
	// Split on W2 so every low point has W2 < every high point.
	v := pts[(lo+hi)/2].W2
	mid := lo + sort.Search(hi-lo, func(i int) bool { return pts[lo+i].W2 > v })
	if mid == hi {
		// v is the maximum W2; split just below it instead.
		mid = lo + sort.Search(hi-lo, func(i int) bool { return pts[lo+i].W2 >= v })
	}
	return k.merge(lo, k.minima(lo, mid), mid, k.minima(mid, hi))
}

// sweep decides a range sharing one W2 value. It is in (W1, H1, H2) order,
// so every point p dominates precedes p, and p is redundant iff a survivor
// before it also has H1 <= p.H1 and H2 <= p.H2. The survivors come out in
// range order, which is W1 order.
func (k *lKernel) sweep(lo, hi int) int {
	out := k.ord[lo:lo]
	for i := lo; i < hi; i++ {
		r, h2 := k.rank[i], uint64(k.pts[i].H2)
		if k.fw.prefixMin(r) <= h2 {
			continue
		}
		k.fw.update(r, h2)
		out = append(out, int32(i))
	}
	for _, i := range out {
		k.fw.clear(k.rank[i])
	}
	return len(out)
}

// scan decides a small range holding several W2 values pairwise. In kernel
// order every point p dominates precedes p and is a survivor or dominates
// one, so p is tested against the survivors so far; insertion keeps those
// in W1 order.
func (k *lKernel) scan(lo, hi int) int {
	out := k.ord[lo:lo]
next:
	for i := lo; i < hi; i++ {
		p := k.pts[i]
		for _, j := range out {
			if p.Dominates(k.pts[j]) {
				continue next
			}
		}
		out = append(out, int32(i))
		j := len(out) - 1
		for ; j > 0 && k.pts[out[j-1]].W1 > p.W1; j-- {
			out[j] = out[j-1]
		}
		out[j] = int32(i)
	}
	return len(out)
}

// merge takes the low survivors ord[lo:lo+nLo] and the high survivors
// ord[mid:mid+nHi], both in W1 order, and drops every high survivor that is
// >= a low one in (W1, H1, H2): every low W2 is below every high W2, so the
// high point dominates the low one. Walking both runs, each low point
// enters the Fenwick tree before any high point with an equal or larger W1
// is tested. The walk writes the merged survivors to ord[lo:] in W1 order
// and returns their number.
func (k *lKernel) merge(lo, nLo, mid, nHi int) int {
	low := append(k.half[:0], k.ord[lo:lo+nLo]...)
	// out never overtakes the high run: it holds at most the li low points
	// taken plus the high points read so far, and mid >= lo+nLo.
	out := k.ord[lo:lo]
	li := 0
	for _, h := range k.ord[mid : mid+nHi] {
		for w1 := k.pts[h].W1; li < len(low) && k.pts[low[li]].W1 <= w1; li++ {
			q := low[li]
			k.fw.update(k.rank[q], uint64(k.pts[q].H2))
			out = append(out, q)
		}
		if k.fw.prefixMin(k.rank[h]) > uint64(k.pts[h].H2) {
			out = append(out, h)
		}
	}
	for _, q := range low[:li] {
		k.fw.clear(k.rank[q])
	}
	return len(append(out, low[li:]...))
}
