// Package selection implements the two optimal implementation-selection
// algorithms that are the contribution of Wang/Wong TR-91-26 (DAC 1992):
// R_Selection for rectangular blocks (Section 4.2) and L_Selection for
// L-shaped blocks (Section 4.3), together with the supporting Section 5
// machinery — per-list budgets, the θ trigger and the heuristic
// pre-reduction used when a list is too long for the exact algorithm.
//
// Both algorithms reduce "pick the best k-subset of an irreducible list" to
// a constrained shortest path problem on a complete interval DAG whose edge
// (i, j) costs the error of discarding every implementation strictly
// between positions i and j; see package cspp.
package selection

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// RErrorTable holds error(r_i, r_j) for all 0 <= i < j < n of one
// irreducible R-list: the area between the list's staircase and the single
// step from r_i to r_j (the paper's Compute_R_Error output).
type RErrorTable struct {
	n   int
	tab []int64 // row-major upper triangle, full n*n for simple indexing
}

// ComputeRError runs the paper's O(n^2) Compute_R_Error dynamic program:
//
//	error(r_i, r_{i+1}) = 0
//	error(r_i, r_{i+l}) = error(r_i, r_{i+l-1}) +
//	                      (w_i - w_{i+l-1}) * (h_{i+l} - h_{i+l-1})
func ComputeRError(l shape.RList) *RErrorTable {
	n := len(l)
	t := &RErrorTable{n: n, tab: make([]int64, n*n)}
	// l = 1 band (adjacent corners) is zero by initialization.
	for span := 2; span <= n-1; span++ {
		for i := 0; i+span < n; i++ {
			j := i + span
			t.tab[i*n+j] = t.tab[i*n+j-1] + (l[i].W-l[j-1].W)*(l[j].H-l[j-1].H)
		}
	}
	return t
}

// At returns error(r_i, r_j). It panics unless 0 <= i < j < n.
func (t *RErrorTable) At(i, j int) int64 {
	if i < 0 || j <= i || j >= t.n {
		panic(fmt.Sprintf("selection: RErrorTable.At(%d,%d) out of range, n=%d", i, j, t.n))
	}
	return t.tab[i*t.n+j]
}

// N returns the list length the table was built for.
func (t *RErrorTable) N() int { return t.n }

// rErrorPrefix answers error(r_i, r_j) in O(1) from four arrays, so
// R_Selection never materializes the O(n^2) table (R-lists can hold
// thousands of corners). Measured from the list's corner (w_{n-1}, h_0),
// with m_i = w_i − w_{n−1} and x_j = h_j − h_0, the column form
//
//	error(i, j) = Σ_{t=i}^{j-2} (m_t − m_{t+1}) * (x_j − x_{t+1})
//
// splits into a line in x_j per row i plus a term of column j:
//
//	error(i, j) = m_i·x_j + R[i] + C[j],
//	R[t]        = Σ_{s<t} (m_s − m_{s+1}) * x_{s+1},
//	C[j]        = −(m_{j−1}·x_j + R[j−1]),
//
// which is cspp.Lines, the input of the O(kn) envelope solver. R[t] is the
// staircase's area over [w_t, w_0] above h_0, so with the span
// (w_0 − w_{n−1})·(h_{n−1} − h_0) in int64 (checkRSpan) every term, every
// error and every envelope intercept W(u, l−1) + R[u] lies in
// [−span, span]: nothing wraps.
type rErrorPrefix struct {
	cspp.Lines
}

// rErrorPrefixes recycles the arrays: the optimizer runs R_Selection per
// node, from many goroutines at once.
var rErrorPrefixes = sync.Pool{New: func() any { return new(rErrorPrefix) }}

// getRErrorPrefix returns a pooled rErrorPrefix for l; release it when done.
func getRErrorPrefix(l shape.RList) *rErrorPrefix {
	p := rErrorPrefixes.Get().(*rErrorPrefix)
	n := len(l)
	if cap(p.Slope) < n {
		p.Slope, p.X, p.Row, p.Col = make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	}
	p.Slope, p.X, p.Row, p.Col = p.Slope[:n], p.X[:n], p.Row[:n], p.Col[:n]
	m, x, r, c := p.Slope, p.X, p.Row, p.Col
	w1, h0 := l[n-1].W, l[0].H
	m[0], x[0], r[0], c[0] = l[0].W-w1, 0, 0, 0
	for t := 1; t < n; t++ {
		m[t], x[t] = l[t].W-w1, l[t].H-h0
		r[t] = r[t-1] + (m[t-1]-m[t])*x[t]
		c[t] = -(m[t-1]*x[t] + r[t-1])
	}
	return p
}

func (p *rErrorPrefix) release() { rErrorPrefixes.Put(p) }

// checkRSpan rejects a list whose span (w_0 − w_{n−1})·(h_{n−1} − h_0),
// the area of its bounding box, does not fit int64. Every number
// R_Selection computes is bounded by the span (see rErrorPrefix), so a
// list that passes cannot wrap; one that fails could. Inside the
// optimizer every extent is at most plan.MaxExtent, whose square fits.
func checkRSpan(l shape.RList) error {
	n := len(l)
	dw, dh := l[0].W-l[n-1].W, l[n-1].H-l[0].H
	if hi, lo := bits.Mul64(uint64(dw), uint64(dh)); hi != 0 || lo > math.MaxInt64 {
		return fmt.Errorf("selection: R-list of %d corners spans width %d and height %d, an area beyond int64", n, dw, dh)
	}
	return nil
}
