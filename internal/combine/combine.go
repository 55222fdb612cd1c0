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
// candidates yields exactly the union's non-redundant set. DAC'90 generates
// a narrower candidate set as a constant-factor speedup; the resulting
// lists are identical.
//
// # Allocation
//
// The L-block cross products build one large transient candidate buffer per
// call, pruned in place (shape.MinimaLInPlace / MinimaRInPlace) and
// partitioned into the retained result at the end. The buffers are kernel
// scratch, recycled through a sync.Pool like shape's prune scratch and
// cspp's DP tables. Results never alias them (shape.LSetFromMinimal builds
// exact-capacity chains, Close clones), so one pool serves every goroutine
// and every run.
package combine

import (
	"sort"
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

// lBufs and rBufs recycle the candidate buffers of the L-block cross
// products. Each call takes one, fills and prunes it, copies its result out
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

// candidateChunk bounds the transient candidate buffer during L-block cross
// products: the buffer is Pareto-pruned whenever it exceeds this size, so
// peak transient memory stays bounded even when operand lists are huge
// (pruning is idempotent and composable: minima(minima(A) ∪ B) =
// minima(A ∪ B)).
const candidateChunk = 1 << 21

// budgeter carries the optional early-abort budget through a cross-product
// generation. When budget > 0 and a *pruned* candidate buffer alone already
// exceeds it, generating the rest of the block is pointless: the caller's
// memory limit is guaranteed to be exceeded (a later prune can only shrink
// the buffer below budget if stronger dominators appear, which the abort
// deliberately forgoes — this mirrors the paper machine running out of
// memory mid-generation rather than after it). A negative budget is the
// exhausted sentinel: the combination aborts before generating anything.
type budgeter struct {
	budget    int
	chunk     int
	truncated bool
}

func newBudgeter(budget int) *budgeter {
	if budget < 0 {
		return &budgeter{budget: budget, chunk: 1, truncated: true}
	}
	chunk := candidateChunk
	if budget > 0 && budget*4 < chunk {
		chunk = budget * 4
		if chunk < 4096 {
			chunk = 4096
		}
	}
	return &budgeter{budget: budget, chunk: chunk}
}

// lCap sizes a candidate buffer for a cross product of the given operand
// cardinalities: the exact product when it is small, else the prune
// threshold plus one inner row of margin (the buffer is pruned back below
// chunk after each inner row, so it can overshoot by at most one row —
// sizing for that keeps a pooled buffer from regrowing mid-call).
func (bg *budgeter) lCap(a, b int) int {
	if a <= 0 || b <= 0 {
		return 0
	}
	if a > bg.chunk/b {
		return bg.chunk + b
	}
	return a * b
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

// LStack combines the SW and NW rectangular blocks into the pinwheel's
// first L-shaped partial block. budget > 0 enables early abort: when the
// non-redundant set provably exceeds it, generation stops and truncated is
// true (the partial set is returned for accounting).
func LStack(bottom, top shape.RList, budget int) (result shape.LSet, truncated bool) {
	bg := newBudgeter(budget)
	if bg.truncated {
		return shape.LSet{}, true
	}
	bp := getBuf[shape.LImpl](&lBufs, bg.lCap(len(bottom), len(top)))
	defer lBufs.Put(bp)
	buf := (*bp)[:0]
	for _, a := range bottom {
		for _, b := range top {
			buf = append(buf, StackCand(a, b))
		}
		if buf = bg.pruneL(buf, false); bg.truncated {
			return shape.LSetFromMinimal(buf), true
		}
	}
	buf = bg.pruneL(buf, true)
	return shape.LSetFromMinimal(buf), bg.truncated
}

// LNotch grows an L-shaped block by the center block.
func LNotch(l shape.LSet, c shape.RList, budget int) (result shape.LSet, truncated bool) {
	bg := newBudgeter(budget)
	if bg.truncated {
		return shape.LSet{}, true
	}
	bp := getBuf[shape.LImpl](&lBufs, bg.lCap(l.Size(), len(c)))
	defer lBufs.Put(bp)
	buf := (*bp)[:0]
	for _, list := range l.Lists {
		for _, li := range list {
			for _, ci := range c {
				buf = append(buf, NotchCand(li, ci))
				// Once the notch column fits under the bottom slab
				// (W2+c.W <= W1), W1 stays clamped while H2 = H2+c.H keeps
				// growing down the canonical list: this candidate
				// dominates the rest of the row.
				if li.W2+ci.W <= li.W1 {
					break
				}
			}
			if buf = bg.pruneL(buf, false); bg.truncated {
				return shape.LSetFromMinimal(buf), true
			}
		}
	}
	buf = bg.pruneL(buf, true)
	return shape.LSetFromMinimal(buf), bg.truncated
}

// LBottom grows an L-shaped block by the SE block.
func LBottom(l shape.LSet, c shape.RList, budget int) (result shape.LSet, truncated bool) {
	bg := newBudgeter(budget)
	if bg.truncated {
		return shape.LSet{}, true
	}
	bp := getBuf[shape.LImpl](&lBufs, bg.lCap(l.Size(), len(c)))
	defer lBufs.Put(bp)
	buf := (*bp)[:0]
	for _, list := range l.Lists {
		for _, li := range list {
			// SE blocks shorter than the bottom slab (c.H <= H2) disappear
			// behind it: those candidates share (H1, H2) and differ only in
			// W1 = W1+c.W, so the last of the run (smallest c.W) dominates
			// the others. Skip straight to it.
			idx := sort.Search(len(c), func(i int) bool { return c[i].H > li.H2 })
			if idx > 0 {
				buf = append(buf, BottomCand(li, c[idx-1]))
			}
			for _, ci := range c[idx:] {
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
// block's R-list. The result is a fresh exact-size copy: the optimizer
// retains it, so it must not alias the pooled buffer.
func Close(l shape.LSet, c shape.RList, budget int) (result shape.RList, truncated bool) {
	bg := newBudgeter(budget)
	if bg.truncated {
		return nil, true
	}
	bp := getBuf[shape.RImpl](&rBufs, bg.lCap(l.Size(), len(c)))
	defer rBufs.Put(bp)
	buf := (*bp)[:0]
	for _, list := range l.Lists {
		for _, li := range list {
			// NE blocks shorter than the notch (H2+c.H <= H1) all close to
			// height H1 and differ only in width, so the last of that run
			// dominates the others; and once the block fits the notch
			// horizontally (W2+c.W <= W1) the width clamps at W1 while the
			// height keeps growing — that candidate dominates the rest.
			idx := sort.Search(len(c), func(i int) bool { return li.H2+c[i].H > li.H1 })
			if idx > 0 {
				buf = append(buf, CloseCand(li, c[idx-1]))
			}
			for _, ci := range c[idx:] {
				buf = append(buf, CloseCand(li, ci))
				if li.W2+ci.W <= li.W1 {
					break
				}
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
