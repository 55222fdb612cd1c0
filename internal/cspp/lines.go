package cspp

import (
	"fmt"
	"math/bits"
)

// Lines gives the weights of the complete DAG over 0..n-1 in line form:
//
//	w(u, v) = Slope[u]·X[v] + Row[u] + Col[v]   for u < v,
//
// with Slope strictly decreasing and X nondecreasing, all four of length n.
// Such weights are Monge — the quadrangle difference is
// (Slope[u] − Slope[u′])(X[v] − X[v′]) ≤ 0 — and more: with the intercept
// c_u = W(s,u,l−1) + Row[u], one CSPP layer is
//
//	W(s,v,l) = min_u (Slope[u]·X[v] + c_u) + Col[v],
//
// the lower envelope of lines of decreasing slope, queried at
// nondecreasing X. Lines join at the back in u order and queries advance
// a front pointer, so a layer takes O(n) (the convex hull trick for
// least-weight subsequence problems; Hirschberg–Larmore 1987, Galil–Park
// 1992).
//
// The results are exact when the caller bounds its numbers: every path
// weight, every difference of two slopes, its product with any X, and
// every difference of two intercepts in a layer must fit int64. The
// breakpoint test multiplies two such differences in 128 bits. Package
// selection establishes the bound by checking each R-list's span.
type Lines struct {
	Slope, X, Row, Col []int64
}

// SolveDenseLines is SolveDenseMonge for weights in line form: the k vertex
// indices and weight of a least-weight path from 0 to n-1 visiting exactly
// k vertices, in O(kn) time and O(kn) memory. It returns the leftmost
// minimum of every layer, as SolveDenseMonge and Solve do, so the three
// agree index for index (pinned by tests).
func SolveDenseLines(k int, e *Lines) ([]int, int64, error) {
	n := len(e.Slope)
	if err := checkDense(n, k); err != nil {
		return nil, 0, err
	}
	if k == 1 {
		return []int{0}, 0, nil
	}
	d := getDP(n, k)
	defer d.release()
	d.prev[0] = 0
	for l := 2; l <= k; l++ {
		// The same trimming as SolveDenseMonge: v at layer l needs k-l
		// successors, and the last layer is the sink alone.
		vlo, vhi := l-1, n-1-(k-l)
		if l == k {
			vlo = n - 1
		}
		d.linesStep(l, vlo, vhi, d.row(l, n), e)
	}
	return d.path(n, k), d.prev[n-1], nil
}

// SweepDenseLines returns w where w[l], for 2 <= l <= kmax, is the least
// weight of a path from 0 to n-1 visiting exactly l vertices; w[0] and
// w[1] are Inf. One untrimmed pass yields every l in O(kmax·n), since each
// layer keeps every vertex.
func SweepDenseLines(kmax int, e *Lines) ([]int64, error) {
	n := len(e.Slope)
	if kmax < 2 || kmax > n {
		return nil, fmt.Errorf("cspp: kmax=%d out of range [2,%d]", kmax, n)
	}
	d := getDP(n, 2)
	defer d.release()
	pred := d.row(2, n) // argmins are only needed within a step
	d.prev[0] = 0
	w := make([]int64, kmax+1)
	w[0], w[1] = Inf, Inf
	for l := 2; l <= kmax; l++ {
		d.linesStep(l, l-1, n-1, pred, e)
		w[l] = d.prev[n-1]
	}
	return w, nil
}

// line is one envelope entry: slope, intercept and vertex.
type line struct {
	m, c int64
	u    int32
}

// linesStep advances the rolling rows from layer l-1 to layer l over the
// vertices v in [vlo, vhi], vlo >= l-1, like mongeStep. Line u, with
// intercept prev[u] + Row[u], joins the envelope just before the first
// v > u is queried. The envelope h[front:] keeps its lines in u order with
// strictly increasing breakpoints: the back line leaves when the new line
// makes it useless, and the front leaves only when the next line is
// strictly lower at the query, so the leftmost minimum wins ties.
func (d *dpState) linesStep(l, vlo, vhi int, pred []int32, e *Lines) {
	uhi := vhi - 1
	if l == 2 {
		uhi = 0 // layer 1 is vertex 0 alone
	}
	if cap(d.hull) < len(d.prev) {
		d.hull = make([]line, 0, len(d.prev))
	}
	h, front := d.hull[:0], 0
	u := l - 2
	for v := vlo; v <= vhi; v++ {
		for ; u < v && u <= uhi; u++ {
			k := line{e.Slope[u], d.prev[u] + e.Row[u], int32(u)}
			for len(h)-front >= 2 {
				// The back line j, between i and k (slopes m_i > m_j >
				// m_k), beats i only right of their breakpoint X_ij and
				// stays at or below k only up to X_jk. It can never be
				// the leftmost minimum when X_jk <= X_ij, that is when
				// (c_k − c_j)(m_i − m_j) <= (c_j − c_i)(m_j − m_k).
				i, j := h[len(h)-2], h[len(h)-1]
				if !mulLE(k.c-j.c, i.m-j.m, j.c-i.c, j.m-k.m) {
					break
				}
				h = h[:len(h)-1]
			}
			h = append(h, k)
		}
		x := e.X[v]
		for front+1 < len(h) && h[front+1].c-h[front].c < (h[front].m-h[front+1].m)*x {
			front++
		}
		a := h[front]
		d.cur[v], pred[v] = a.m*x+a.c+e.Col[v], a.u
	}
	d.prev, d.cur = d.cur, d.prev
}

// mulLE reports a·p <= b·q for p, q > 0, comparing the products exactly as
// signed 128-bit numbers: the unsigned product of a's two's complement
// exceeds a·p by p·2⁶⁴ when a < 0, so the high word drops by p.
func mulLE(a, p, b, q int64) bool {
	ah, al := bits.Mul64(uint64(a), uint64(p))
	bh, bl := bits.Mul64(uint64(b), uint64(q))
	sa, sb := int64(ah)-a>>63&p, int64(bh)-b>>63&q
	return sa < sb || sa == sb && al <= bl
}
