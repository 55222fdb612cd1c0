// Package combine implements the shape-list combination steps of the
// Wang–Wong DAC'90 optimizer ([9] in the paper): given the non-redundant
// implementation lists of two blocks, it produces the non-redundant list of
// their union, for every operation appearing in a restructured binary
// floorplan tree (package plan).
//
// # Geometry
//
// The clockwise pinwheel over an enveloping W×H rectangle uses cut
// abscissae x1 <= x2 and ordinates y1 <= y2:
//
//	B1 (NW) = [0,x1]×[y1,H]      B2 (NE) = [x1,W]×[y2,H]
//	B3 (SE) = [x2,W]×[0,y2]      B4 (SW) = [0,x2]×[0,y1]
//	B5 (C)  = [x1,x2]×[y1,y2]
//
// and is assembled as (((B4 ⊕ B1) ⊕ B5) ⊕ B3) ⊕ B2, where each partial
// union is an L-shaped block with its notch at the top-right, exactly the
// paper's 4-tuple convention.
//
// # Candidate formulas
//
// Each operation combines one implementation from each operand into a
// single minimal candidate (Cand functions below). Because a block's
// feasible shapes are upward-closed under dominance — slack can always be
// absorbed by the boundary basic rectangles — these max/sum formulas are
// exact, and because they are monotone in every input coordinate, combining
// only the operands' non-redundant implementations and pruning the
// candidates yields exactly the union's non-redundant set. Like DAC'90,
// which generates a narrower candidate set than the cross product, the
// L-block operations emit per operand list only the pairs that no other
// pair of that list makes redundant (the row cursors below state the
// rules); the resulting lists are identical.
//
// # Allocation
//
// The L-block operations build one transient candidate buffer per call,
// sized to exactly the candidates they emit, pruned in place
// (shape.MinimaLInPlace / MinimaRInPlace) and partitioned into the retained
// result at the end. The buffers are kernel
// scratch, recycled through a sync.Pool like shape's prune scratch and
// cspp's DP tables. Results never alias them (shape.LSetFromMinimal builds
// exact-capacity chains, Close clones), so one pool serves every goroutine
// and every run.
package combine

import (
	"sync"

	"floorplan/internal/shape"
)

// VCand places a to the left of b (vertical cut): widths add, heights max.
func VCand(a, b shape.RImpl) shape.RImpl {
	return shape.RImpl{W: a.W + b.W, H: max64(a.H, b.H)}
}

// HCand stacks b on top of a (horizontal cut): heights add, widths max.
func HCand(a, b shape.RImpl) shape.RImpl {
	return shape.RImpl{W: max64(a.W, b.W), H: a.H + b.H}
}

// StackCand stacks the NW block b on the left part of the SW block a,
// opening a pinwheel: the result is L-shaped with bottom width
// max(a.W, b.W), top width b.W, left height a.H+b.H and right height a.H.
func StackCand(a, b shape.RImpl) shape.LImpl {
	return shape.LImpl{
		W1: max64(a.W, b.W),
		W2: b.W,
		H1: a.H + b.H,
		H2: a.H,
	}
}

// NotchCand places the center block c into the notch of l: on top of the
// bottom slab (height l.H2) and right of the top slab (width l.W2).
func NotchCand(l shape.LImpl, c shape.RImpl) shape.LImpl {
	h2 := l.H2 + c.H
	return shape.LImpl{
		W1: max64(l.W1, l.W2+c.W),
		W2: l.W2,
		H1: max64(l.H1, h2),
		H2: h2,
	}
}

// BottomCand appends the SE block c to the right of l's bottom edge.
func BottomCand(l shape.LImpl, c shape.RImpl) shape.LImpl {
	h2 := max64(l.H2, c.H)
	return shape.LImpl{
		W1: l.W1 + c.W,
		W2: l.W2,
		H1: max64(l.H1, h2),
		H2: h2,
	}
}

// CloseCand fills l's notch with the NE block c, completing a rectangle.
func CloseCand(l shape.LImpl, c shape.RImpl) shape.RImpl {
	return shape.RImpl{
		W: max64(l.W1, l.W2+c.W),
		H: max64(l.H1, l.H2+c.H),
	}
}

// VCut merges the R-lists of two blocks joined by a vertical cut. The merge
// is the classic Stockmeyer two-pointer walk over the union of height
// breakpoints, O(len(a)+len(b)); the result is canonical and irreducible.
func VCut(a, b shape.RList) shape.RList {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return mergeV(a, b)
}

// HCut merges the R-lists of two blocks joined by a horizontal cut.
func HCut(a, b shape.RList) shape.RList {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	return mergeH(a, b)
}

// mergeV enumerates the non-redundant results of a vertical cut: the
// minimal width at height budget h is minW_a(h) + minW_b(h), and the
// staircase can only break at heights present in a or b. Each emitted
// candidate strictly grows H and — because at least one pointer advances
// per step on a canonical operand — strictly shrinks W, so the output is
// canonical by construction and needs no sort or prune.
func mergeV(a, b shape.RList) shape.RList {
	out := make(shape.RList, 0, len(a)+len(b))
	// Both lists are sorted with H ascending; walk their height values in
	// ascending merged order. Pointers ia/ib track the widest (last) entry
	// with H <= current h; widths shrink as h grows.
	ia, ib := 0, 0
	h := max64(a[0].H, b[0].H)
	for {
		for ia+1 < len(a) && a[ia+1].H <= h {
			ia++
		}
		for ib+1 < len(b) && b[ib+1].H <= h {
			ib++
		}
		out = append(out, shape.RImpl{W: a[ia].W + b[ib].W, H: h})
		// Next height breakpoint above h.
		next := int64(-1)
		if ia+1 < len(a) {
			next = a[ia+1].H
		}
		if ib+1 < len(b) && (next < 0 || b[ib+1].H < next) {
			next = b[ib+1].H
		}
		if next < 0 {
			break
		}
		h = next
	}
	return out
}

// mergeH is mergeV in the transposed domain: walk width breakpoints
// ascending (lists are W-descending, so from the back), summing minimal
// heights. Emission order is W ascending; one in-place reversal restores
// the canonical W-descending order.
func mergeH(a, b shape.RList) shape.RList {
	out := make(shape.RList, 0, len(a)+len(b))
	ia, ib := len(a)-1, len(b)-1
	w := max64(a[ia].W, b[ib].W)
	for {
		for ia > 0 && a[ia-1].W <= w {
			ia--
		}
		for ib > 0 && b[ib-1].W <= w {
			ib--
		}
		out = append(out, shape.RImpl{W: w, H: a[ia].H + b[ib].H})
		next := int64(-1)
		if ia > 0 {
			next = a[ia-1].W
		}
		if ib > 0 && (next < 0 || b[ib-1].W < next) {
			next = b[ib-1].W
		}
		if next < 0 {
			break
		}
		w = next
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// lBufs and rBufs recycle the candidate buffers of the L-block
// operations. Each call takes one, fills and prunes it, copies its result out
// and puts it back.
var (
	lBufs = sync.Pool{New: func() any { return new([]shape.LImpl) }}
	rBufs = sync.Pool{New: func() any { return new([]shape.RImpl) }}
)

// getBuf takes a buffer of capacity at least n from pool.
func getBuf[T any](pool *sync.Pool, n int) *[]T {
	p := pool.Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, 0, n)
	}
	return p
}

// candidateChunk bounds the transient candidate buffer of an L-block
// operation: the buffer is Pareto-pruned whenever it exceeds this size, so
// peak transient memory stays bounded even when operand lists are huge
// (pruning is idempotent and composable: minima(minima(A) ∪ B) =
// minima(A ∪ B)).
const candidateChunk = 1 << 21

// budgeter carries the early-abort budget (>= 0; 0 is unlimited) through a
// cross-product generation. When budget > 0 and a *pruned* candidate buffer
// alone already exceeds it, generating the rest of the block is pointless:
// the caller's memory limit is guaranteed to be exceeded (a later prune can
// only shrink the buffer below budget if stronger dominators appear, which
// the abort deliberately forgoes — this mirrors the paper machine running
// out of memory mid-generation rather than after it). The buffer is pruned
// only when it crosses the chunk size, so where an abort strikes, and the
// count a failing run reports, depend on how many candidates a block emits:
// emitting fewer can raise the reported count. Whether the full set fits
// is decided by the final, exact prune either way.
type budgeter struct {
	budget    int
	chunk     int
	truncated bool
}

func newBudgeter(budget int) *budgeter {
	chunk := candidateChunk
	if budget > 0 && budget*4 < chunk {
		chunk = max(budget*4, 4096)
	}
	return &budgeter{budget: budget, chunk: chunk}
}

// lCap sizes a candidate buffer for a generation of total candidates
// emitted at most row at a time: total when it is below the prune
// threshold, else the threshold plus one row of margin (the buffer is
// pruned back below chunk after each row, so it can overshoot by at most
// one row — sizing for that keeps a pooled buffer from regrowing mid-call).
func (bg *budgeter) lCap(total, row int) int {
	return min(total, bg.chunk+row)
}

// pruneL prunes buf in place (the returned slice shares its backing array)
// whenever it crosses the chunk threshold, or unconditionally under force.
func (bg *budgeter) pruneL(buf []shape.LImpl, force bool) []shape.LImpl {
	if !force && len(buf) < bg.chunk {
		return buf
	}
	buf = shape.MinimaLInPlace(buf)
	if bg.budget > 0 && len(buf) > bg.budget {
		bg.truncated = true
	}
	return buf
}

func (bg *budgeter) pruneR(buf []shape.RImpl, force bool) []shape.RImpl {
	if !force && len(buf) < bg.chunk {
		return buf
	}
	buf = []shape.RImpl(shape.MinimaRInPlace(buf))
	if bg.budget > 0 && len(buf) > bg.budget {
		bg.truncated = true
	}
	return buf
}

// Each L-block operation below emits, per row — one implementation of its
// L-list operand, or for LStack one top block — a contiguous run of its
// R-list operand: the pairs that no other pair from the same list (for
// LStack, the same row) makes redundant. Every pair it skips yields a
// candidate componentwise >= one it emits, so pruning the emitted
// candidates yields the same set as pruning the full cross product. Lists are canonical: W2 is constant, W1
// falls and H1, H2 rise down an L-list; W falls and H rises down an R-list.
// A cursor per list computes the runs with pointers that only move
// forward. Each operation walks its rows twice, once to size the candidate
// buffer exactly and once to fill it.

// stackCursor walks LStack's rows. A row is one top block b, so its
// candidates share W2 = b.W. Bottom blocks wider than b give an antichain
// (W1 = a.W falls as the heights rise); for the rest W1 clamps at b.W while
// the heights rise, so the first of them is <= the others.
type stackCursor struct{ k int } // first bottom block no wider than b

// run returns the end of b's run bottom[:to]. Tops narrow down their list,
// so the first fitting bottom only moves forward.
func (cur *stackCursor) run(bottom shape.RList, b shape.RImpl) (to int) {
	for cur.k < len(bottom) && bottom[cur.k].W > b.W {
		cur.k++
	}
	return min(cur.k+1, len(bottom))
}

// overhangCursor walks the rows of one L-list for LNotch and Close. Once
// the block c fits beside the top slab (W2+c.W <= W1), the width clamps at
// li.W1 while the height grows down c: li's first fitting c is <= li's
// later ones. While c overhangs the slab, the width is W2+c.W and the
// heights grow down the list: the first li that c overhangs is <= the
// later ones.
type overhangCursor struct{ k int } // first c not overhanging the last li

// run returns li's run c[from:to]: the c's that overhang li but no earlier
// li, then li's first fitting c. W1 falls down the list, so the first
// fitting c only moves forward.
func (cur *overhangCursor) run(c shape.RList, li shape.LImpl) (from, to int) {
	from = cur.k
	for cur.k < len(c) && li.W2+c[cur.k].W > li.W1 {
		cur.k++
	}
	return from, min(cur.k+1, len(c))
}

// overhangTotal counts the candidates LNotch and Close emit.
func overhangTotal(l shape.LSet, c shape.RList) int {
	total := 0
	for _, list := range l.Lists {
		var cur overhangCursor
		for _, li := range list {
			from, to := cur.run(c, li)
			total += to - from
		}
	}
	return total
}

// bottomCursor walks the rows of one L-list for LBottom. SE blocks no
// taller than the bottom slab (c.H <= H2) hide behind it: (H1, H2) stay and
// W1 = W1+c.W, so li's last such c (the narrowest) is <= li's others.
// Blocks at least as tall as the left edge (c.H >= H1) set both heights to
// c.H, so c's last such li (the narrowest) is <= c's others. Blocks in
// between (H2 < c.H < H1) give a candidate per pair.
type bottomCursor struct {
	hidden int // first c taller than li.H2
	reach  int // first c reaching the next li's H1
}

// run returns the run c[from:to] of list[i]: from its last hidden c up to,
// not including, the first c that reaches the next li's H1. H1 and H2 rise
// down the list, so both pointers only move forward.
func (cur *bottomCursor) run(c shape.RList, list shape.LList, i int) (from, to int) {
	for cur.hidden < len(c) && c[cur.hidden].H <= list[i].H2 {
		cur.hidden++
	}
	end := len(c)
	if i+1 < len(list) {
		for cur.reach < len(c) && c[cur.reach].H < list[i+1].H1 {
			cur.reach++
		}
		end = cur.reach
	}
	return max(cur.hidden-1, 0), max(end, cur.hidden)
}

// LStack combines the SW and NW rectangular blocks into the pinwheel's
// first L-shaped partial block. budget >= 0; a positive budget enables
// early abort: when the non-redundant set provably exceeds it, generation
// stops and truncated is true (the partial set is returned for accounting).
func LStack(bottom, top shape.RList, budget int) (result shape.LSet, truncated bool) {
	total := 0
	var cur stackCursor
	for _, b := range top {
		total += cur.run(bottom, b)
	}
	bg := newBudgeter(budget)
	bp := getBuf[shape.LImpl](&lBufs, bg.lCap(total, len(bottom)))
	defer lBufs.Put(bp)
	buf := (*bp)[:0]
	cur = stackCursor{}
	for _, b := range top {
		for _, a := range bottom[:cur.run(bottom, b)] {
			buf = append(buf, StackCand(a, b))
		}
		if buf = bg.pruneL(buf, false); bg.truncated {
			return shape.LSetFromMinimal(buf), true
		}
	}
	buf = bg.pruneL(buf, true)
	return shape.LSetFromMinimal(buf), bg.truncated
}

// LNotch grows an L-shaped block by the center block. budget is as for
// LStack.
func LNotch(l shape.LSet, c shape.RList, budget int) (result shape.LSet, truncated bool) {
	total := overhangTotal(l, c)
	bg := newBudgeter(budget)
	bp := getBuf[shape.LImpl](&lBufs, bg.lCap(total, len(c)))
	defer lBufs.Put(bp)
	buf := (*bp)[:0]
	for _, list := range l.Lists {
		var cur overhangCursor
		for _, li := range list {
			from, to := cur.run(c, li)
			for _, ci := range c[from:to] {
				buf = append(buf, NotchCand(li, ci))
			}
			if buf = bg.pruneL(buf, false); bg.truncated {
				return shape.LSetFromMinimal(buf), true
			}
		}
	}
	buf = bg.pruneL(buf, true)
	return shape.LSetFromMinimal(buf), bg.truncated
}

// LBottom grows an L-shaped block by the SE block. budget is as for LStack.
func LBottom(l shape.LSet, c shape.RList, budget int) (result shape.LSet, truncated bool) {
	total := 0
	for _, list := range l.Lists {
		var cur bottomCursor
		for i := range list {
			from, to := cur.run(c, list, i)
			total += to - from
		}
	}
	bg := newBudgeter(budget)
	bp := getBuf[shape.LImpl](&lBufs, bg.lCap(total, len(c)))
	defer lBufs.Put(bp)
	buf := (*bp)[:0]
	for _, list := range l.Lists {
		var cur bottomCursor
		for i, li := range list {
			from, to := cur.run(c, list, i)
			for _, ci := range c[from:to] {
				buf = append(buf, BottomCand(li, ci))
			}
			if buf = bg.pruneL(buf, false); bg.truncated {
				return shape.LSetFromMinimal(buf), true
			}
		}
	}
	buf = bg.pruneL(buf, true)
	return shape.LSetFromMinimal(buf), bg.truncated
}

// Close completes the pinwheel with the NE block, yielding a rectangular
// block's R-list. budget is as for LStack. The result is a fresh exact-size
// copy: the optimizer retains it, so it must not alias the pooled buffer.
func Close(l shape.LSet, c shape.RList, budget int) (result shape.RList, truncated bool) {
	total := overhangTotal(l, c)
	bg := newBudgeter(budget)
	bp := getBuf[shape.RImpl](&rBufs, bg.lCap(total, len(c)))
	defer rBufs.Put(bp)
	buf := (*bp)[:0]
	for _, list := range l.Lists {
		var cur overhangCursor
		for _, li := range list {
			from, to := cur.run(c, li)
			for _, ci := range c[from:to] {
				buf = append(buf, CloseCand(li, ci))
			}
			if buf = bg.pruneR(buf, false); bg.truncated {
				return shape.RList(buf).Clone(), true
			}
		}
	}
	buf = bg.pruneR(buf, true)
	return shape.RList(buf).Clone(), bg.truncated
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
