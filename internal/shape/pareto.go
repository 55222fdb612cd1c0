package shape

import "slices"

// This file implements Pareto-minima pruning: from a candidate set, keep
// exactly the implementations not dominated by (componentwise >=) another.
// The optimizer calls this on every combine step, and unpruned candidate
// sets at high tree levels reach 10^5 entries, so the 4-d case uses the
// classic divide-and-conquer of Kung/Luccio/Preparata with a Fenwick
// prefix-min sweep for the cross-half filter, giving O(n log^2 n) instead of
// the quadratic pairwise scan (which remains as the test oracle).
//
// The L kernel orders candidates by (W2, W1, H1, H2) and splits on W2 first.
// Every L-block combine copies W2 from an operand implementation, so a
// candidate set holds at most as many W2 values as the operands have
// L-lists (or top blocks): the W2 recursion is shallow, and each single-W2
// subproblem is a contiguous run already in (W1, H1, H2) order, pruned by
// one Fenwick sweep without copying or re-sorting its points.
//
// The kernels are written against the structure-of-arrays scratch in soa.go:
// the sweeps sort (key, index) pairs and rank plain int64 columns with
// slices.SortFunc / slices.Sort — direct comparisons, no reflection — and
// every intermediate buffer comes from a pooled pruneScratch, so a prune is
// allocation-free in steady state.

// minFenwick is a Fenwick tree over 1-based ranks supporting prefix minima.
// Values only ever decrease, which is all the dominance sweep needs. The
// backing storage comes from the caller's pruneScratch.
type minFenwick struct {
	tree []int64
}

const fenwickInf = int64(1) << 62

// update lowers the value at rank i (1-based) to at most v.
func (f *minFenwick) update(i int, v int64) {
	for ; i < len(f.tree); i += i & (-i) {
		if v < f.tree[i] {
			f.tree[i] = v
		}
	}
}

// prefixMin returns the minimum value over ranks 1..i.
func (f *minFenwick) prefixMin(i int) int64 {
	m := fenwickInf
	for ; i > 0; i -= i & (-i) {
		if f.tree[i] < m {
			m = f.tree[i]
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

func cmpKeyIdx(a, b keyIdx) int {
	if a.key != b.key {
		return cmpInt64(a.key, b.key)
	}
	return int(a.idx) - int(b.idx)
}

// minima3 marks, in keep, the Pareto-minimal points among all[i] for i in
// idx, a sorted run sharing one W2 value and holding no duplicates. The run
// is in (W1, H1, H2) order, so every point that can dominate p precedes it:
// a Fenwick tree over the H1 ranks, holding the least H2 kept so far,
// decides each point in one pass.
func minima3(all []LImpl, idx []int32, keep []bool, s *pruneScratch) {
	vals := s.valRun(len(idx))
	for _, id := range idx {
		vals = append(vals, all[id].H1)
	}
	slices.Sort(vals)
	uniq := dedupSorted(vals)
	fw := minFenwick{tree: s.fenwickRun(len(uniq))}
	for _, id := range idx {
		p := all[id]
		r := rankOf(uniq, p.H1)
		// Every point inserted so far has W1 <= p.W1; p is redundant iff one
		// of them also has H1 <= p.H1 and H2 <= p.H2.
		if fw.prefixMin(r) <= p.H2 {
			continue
		}
		keep[id] = true
		fw.update(r, p.H2)
	}
}

// MinimaL returns the Pareto-minimal subset of 4-d L-shaped candidates,
// deduplicated, in (W2, W1, H1, H2) order. Candidates are not modified.
func MinimaL(candidates []LImpl) []LImpl {
	if len(candidates) == 0 {
		return nil
	}
	s := getPruneScratch()
	if cap(s.impls) < len(candidates) {
		s.impls = make([]LImpl, len(candidates))
	}
	buf := s.impls[:len(candidates)]
	copy(buf, candidates)
	minimal := minimaLSorted(buf, s)
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
	keep := s.boolRun(len(uniq))
	minima4(uniq, s.indexRun(len(uniq)), keep, s)
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

// minima4SmallCutoff is the subproblem size below which the quadratic scan
// beats the divide-and-conquer bookkeeping on a subproblem holding several
// W2 values. The brute kernel deliberately stays on the array-of-structs
// layout: it compares all four coordinates of element pairs, the one access
// pattern AoS serves better than columns.
const minima4SmallCutoff = 48

// minima4 marks the Pareto-minimal points among all[i] for i in idx.
// all must be sorted by (W2, W1, H1, H2) with no duplicates; idx is a sorted
// (hence W2-nondecreasing) index subset.
func minima4(all []LImpl, idx []int32, keep []bool, s *pruneScratch) {
	if len(idx) == 0 {
		return
	}
	if all[idx[0]].W2 == all[idx[len(idx)-1]].W2 {
		// One W2 value: dominance degenerates to 3-d on (W1, H1, H2).
		minima3(all, idx, keep, s)
		return
	}
	if len(idx) <= minima4SmallCutoff {
		minima4Brute(all, idx, keep)
		return
	}
	// Split on W2 so every low point has W2 < every high point.
	midVal := all[idx[len(idx)/2]].W2
	split := searchW2(all, idx, midVal, false)
	if split == len(idx) {
		// midVal is the maximum W2; split just below it instead.
		split = searchW2(all, idx, midVal, true)
	}
	lo, hi := idx[:split], idx[split:]
	minima4(all, lo, keep, s)
	minima4(all, hi, keep, s)
	// A high survivor is still redundant if some low survivor is <= it in
	// the remaining three dimensions (its W2 is < automatically). Collect
	// the survivors as (W1, index) sort pairs for the cross-half filter.
	pairs := s.pairRun(len(idx))
	for _, id := range lo {
		if keep[id] {
			pairs = append(pairs, keyIdx{key: all[id].W1, idx: id})
		}
	}
	nLo := len(pairs)
	for _, id := range hi {
		if keep[id] {
			pairs = append(pairs, keyIdx{key: all[id].W1, idx: id})
		}
	}
	filterDominated3(all, pairs[:nLo], pairs[nLo:], keep, s)
}

// searchW2 returns the first position i in idx with all[idx[i]].W2 > v
// (orEq false) or >= v (orEq true).
func searchW2(all []LImpl, idx []int32, v int64, orEq bool) int {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		w := all[idx[mid]].W2
		if w > v || (orEq && w == v) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// minima4Brute is the quadratic reference used for small subproblems.
func minima4Brute(all []LImpl, idx []int32, keep []bool) {
	for i, id := range idx {
		p := all[id]
		redundant := false
		for j, jd := range idx {
			if i == j {
				continue
			}
			if p.Dominates(all[jd]) {
				redundant = true
				break
			}
		}
		if !redundant {
			keep[id] = true
		}
	}
}

// filterDominated3 clears keep for high points dominated in (W1, H1, H2) by
// some low point. Low points all have W2 < every high point's W2. lo and hi
// carry each point's W1 as the sort key and are reordered in place.
func filterDominated3(all []LImpl, lo, hi []keyIdx, keep []bool, s *pruneScratch) {
	if len(lo) == 0 || len(hi) == 0 {
		return
	}
	slices.SortFunc(lo, cmpKeyIdx)
	slices.SortFunc(hi, cmpKeyIdx)

	// Rank H1 values across both sets.
	vals := s.valRun(len(lo) + len(hi))
	for _, p := range lo {
		vals = append(vals, all[p.idx].H1)
	}
	for _, p := range hi {
		vals = append(vals, all[p.idx].H1)
	}
	slices.Sort(vals)
	uniq := dedupSorted(vals)

	fw := minFenwick{tree: s.fenwickRun(len(uniq))}
	li := 0
	for _, hp := range hi {
		h := all[hp.idx]
		for li < len(lo) && lo[li].key <= hp.key {
			p := all[lo[li].idx]
			fw.update(rankOf(uniq, p.H1), p.H2)
			li++
		}
		if fw.prefixMin(rankOf(uniq, h.H1)) <= h.H2 {
			keep[hp.idx] = false
		}
	}
}

// MinimaLBrute is the quadratic oracle for MinimaL, exported for tests and
// benchmarks only.
func MinimaLBrute(candidates []LImpl) []LImpl {
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
