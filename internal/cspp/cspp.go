// Package cspp solves the Constrained Shortest Path Problem of Section 4.1
// of Wang/Wong TR-91-26: given a weighted DAG, two vertices s and t and a
// positive integer k, find a minimum-weight path from s to t that visits
// exactly k vertices, or report that none exists.
//
// The dynamic program is the paper's Constrained_Shortest_Path verbatim:
// W(s,v,l) is the least weight of an s→v path with exactly l vertices,
// computed for l = 1..k in O(k(|V|+|E|)) time (Theorem 1). On a DAG every
// walk is a simple path, so no explicit simplicity constraint is needed; the
// solver verifies acyclicity up front.
//
// The entry points are:
//
//   - Solve runs on an explicit Graph, exactly as in the paper.
//   - SolveDenseMonge runs on the implicit complete DAG over vertices
//     0..n-1 (every edge i→j with i < j present, weights from a callback)
//     when its weights are Monge, in O(k n log n) instead of O(k n²).
//     L_Selection (Section 4.3) generates this instance.
//   - SolveDenseLines and SweepDenseLines run on the same DAG when every
//     weight is a line in the head's coordinate, w(u,v) = m_u·x_v + row_u +
//     col_v, in O(kn): each layer is a lower envelope of lines. The
//     R_Selection error (Section 4.2) has this form.
//
// The dense solvers never materialize the graph, so a selection's memory
// stays O(kn).
package cspp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Inf is the sentinel weight for "no such path", the paper's W = ∞.
const Inf = int64(math.MaxInt64)

// ErrNoPath is returned when no s→t path with exactly k vertices exists —
// the algorithm's "Can not find such a path." outcome.
var ErrNoPath = errors.New("cspp: no path with exactly k vertices")

// edge is a directed edge stored on its head so the DP can scan incoming
// edges, mirroring the paper's "for each edge (v_j, v_i) ∈ E" loop.
type edge struct {
	from   int
	weight int64
}

// Graph is a directed graph with positive edge weights. Vertices are
// 0..N-1. The zero Graph is unusable; create one with NewGraph.
type Graph struct {
	n  int
	in [][]edge // incoming edges per vertex
	m  int
}

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cspp: graph needs at least one vertex, got %d", n)
	}
	return &Graph{n: n, in: make([][]edge, n)}, nil
}

// MustGraph is NewGraph for statically known sizes; it panics on error.
func MustGraph(n int) *Graph {
	g, err := NewGraph(n)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the directed edge from→to with the given weight.
// Negative weights and self-loops are rejected. The paper states w > 0, but
// the selection reductions of Sections 4.2–4.3 legitimately produce
// zero-weight edges (adjacent implementations cost nothing to bridge) and
// the DP is exact for any non-negative weights on a DAG, so zero is allowed.
func (g *Graph) AddEdge(from, to int, weight int64) error {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return fmt.Errorf("cspp: edge (%d,%d) out of range [0,%d)", from, to, g.n)
	}
	if from == to {
		return fmt.Errorf("cspp: self-loop on vertex %d", from)
	}
	if weight < 0 {
		return fmt.Errorf("cspp: edge (%d,%d) has negative weight %d", from, to, weight)
	}
	g.in[to] = append(g.in[to], edge{from: from, weight: weight})
	g.m++
	return nil
}

// acyclic reports whether g is a DAG, via Kahn's algorithm.
func (g *Graph) acyclic() bool {
	indeg := make([]int, g.n)
	for v := range g.in {
		indeg[v] = len(g.in[v])
	}
	out := make([][]int, g.n)
	for v, es := range g.in {
		for _, e := range es {
			out[e.from] = append(out[e.from], v)
		}
	}
	queue := make([]int, 0, g.n)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	seen := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, w := range out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return seen == g.n
}

// dpState holds the DP's working storage: the two rolling weight rows and
// the per-layer predecessor tables. The optimizer's selection policies
// solve thousands of small CSPP instances per run — and, with the parallel
// evaluator, from many goroutines at once — so the tables are recycled
// through a sync.Pool instead of being reallocated per solve. Nothing in a
// Result aliases the pooled storage (the path is extracted into a fresh
// slice before release). hull is the line solver's envelope, one layer at a
// time.
type dpState struct {
	prev, cur []int64
	pred      [][]int32
	hull      []line
}

var dpPool = sync.Pool{New: func() any { return new(dpState) }}

// Pool telemetry: solves, and whether a pooled state's weight rows could
// be reused or had to grow. Process-wide (the pool itself is process-wide);
// collectors snapshot deltas around a run, so concurrent runs see combined
// churn — documented in the telemetry report's runtime section.
var (
	poolSolves atomic.Int64
	poolHits   atomic.Int64
	poolMisses atomic.Int64
)

// PoolCounters returns the cumulative DP-table pool statistics: total
// solves, reuses of an adequately sized pooled table, and misses that had
// to allocate fresh rows.
func PoolCounters() (solves, hits, misses int64) {
	return poolSolves.Load(), poolHits.Load(), poolMisses.Load()
}

// getDP returns a dpState with prev/cur sized for n vertices (initialized
// to Inf with prev[0] left for the caller) and room for k+1 pred rows.
func getDP(n, k int) *dpState {
	d := dpPool.Get().(*dpState)
	poolSolves.Add(1)
	if cap(d.prev) >= n {
		poolHits.Add(1)
	} else {
		poolMisses.Add(1)
	}
	if cap(d.prev) < n {
		d.prev = make([]int64, n)
		d.cur = make([]int64, n)
	}
	d.prev = d.prev[:n]
	d.cur = d.cur[:n]
	for v := range d.prev {
		d.prev[v] = Inf
	}
	if cap(d.pred) < k+1 {
		pred := make([][]int32, k+1)
		copy(pred, d.pred)
		d.pred = pred
	}
	d.pred = d.pred[:k+1]
	return d
}

// row returns the pred row for layer l, sized for n vertices. Rows are not
// cleared here: both DP loops assign every entry before reading it.
func (d *dpState) row(l, n int) []int32 {
	if cap(d.pred[l]) < n {
		d.pred[l] = make([]int32, n)
	}
	d.pred[l] = d.pred[l][:n]
	return d.pred[l]
}

func (d *dpState) release() { dpPool.Put(d) }

// Result is the output of a successful CSPP solve.
type Result struct {
	// Path is the vertex sequence from s to t; len(Path) == k.
	Path []int
	// Weight is the total path weight, 0 when k == 1.
	Weight int64
}

// Solve runs the paper's Constrained_Shortest_Path on g.
func Solve(g *Graph, s, t, k int) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("cspp: s=%d or t=%d out of range [0,%d)", s, t, g.n)
	}
	if k < 1 || k > g.n {
		return Result{}, fmt.Errorf("cspp: k=%d out of range [1,%d]", k, g.n)
	}
	if !g.acyclic() {
		return Result{}, errors.New("cspp: graph is not a DAG")
	}
	if k == 1 {
		if s != t {
			return Result{}, ErrNoPath
		}
		return Result{Path: []int{s}, Weight: 0}, nil
	}

	// W[l][v] with rolling rows; pred[l][v] records the vertex that
	// produced W(s,v,l), the paper's traceback bookkeeping.
	d := getDP(g.n, k)
	defer d.release()
	prev, cur := d.prev, d.cur
	prev[s] = 0
	for l := 2; l <= k; l++ {
		pred := d.row(l, g.n)
		for v := 0; v < g.n; v++ {
			cur[v] = Inf
			pred[v] = -1
			for _, e := range g.in[v] {
				if prev[e.from] == Inf {
					continue
				}
				if w := prev[e.from] + e.weight; w < cur[v] {
					cur[v] = w
					pred[v] = int32(e.from)
				}
			}
		}
		// A path of l >= 2 vertices cannot end at s again in a DAG.
		cur[s] = Inf
		prev, cur = cur, prev
	}
	if prev[t] == Inf {
		return Result{}, ErrNoPath
	}
	path := make([]int, k)
	path[k-1] = t
	v := t
	for l := k; l >= 2; l-- {
		v = int(d.pred[l][v])
		path[l-2] = v
	}
	if path[0] != s {
		// Cannot happen on a correct DP; guard against silent corruption.
		return Result{}, fmt.Errorf("cspp: traceback reached %d, not s=%d", path[0], s)
	}
	return Result{Path: path, Weight: prev[t]}, nil
}

// checkDense validates a dense instance: n >= 1 vertices and 1 <= k <= n.
// k == 1 has a path only when the source is the sink.
func checkDense(n, k int) error {
	if n <= 0 {
		return fmt.Errorf("cspp: dense graph needs n >= 1, got %d", n)
	}
	if k < 1 || k > n {
		return fmt.Errorf("cspp: k=%d out of range [1,%d]", k, n)
	}
	if k == 1 && n != 1 {
		return ErrNoPath
	}
	return nil
}

// path traces the predecessor tables back from sink n-1 at layer k.
func (d *dpState) path(n, k int) []int {
	path := make([]int, k)
	path[k-1] = n - 1
	v := n - 1
	for l := k; l >= 2; l-- {
		v = int(d.pred[l][v])
		path[l-2] = v
	}
	return path
}

// CostFunc returns w(u, v), the weight of dense-DAG edge u→v for u < v.
type CostFunc func(u, v int) int64

// SolveDenseMonge solves the CSPP on the complete DAG over 0..n-1 with
// source 0 and sink n-1: it returns the k vertex indices of a
// minimum-weight path visiting exactly k vertices, provided the weights are
// Monge:
//
//	w(u, v) + w(u', v') <= w(u', v) + w(u, v')   for all u < u' < v < v'.
//
// This is the reduction target of both selections, where vertex i is the
// i-th implementation of an irreducible list and w(i,j) the error of
// discarding everything strictly between i and j. L_Selection runs on it;
// R_Selection's error has the stronger line form of SolveDenseLines.
//
// Adding W(s,u,l-1) to row u keeps a layer's candidate matrix Monge, and on
// a Monge matrix the leftmost minimizing u is nondecreasing in v: were
// u' < u leftmost for v' > v, the inequality on (u', u)×(v, v') would make
// u' at least as good as u for v. So each layer is a row-minima problem
// solved by divide and conquer — the middle v by a scan, then each half with
// its u range cut at that argmin — in O(n log n) weight evaluations, for
// O(k n log n) in all (Aggarwal–Schieber–Tokuyama). Taking the leftmost
// minimum is the lowest-u tie-break, so results are identical to Solve on
// the materialized complete DAG with edges added in u-ascending order
// (pinned by tests). On non-Monge weights the result is a path but not
// necessarily a shortest one.
//
// Memory is O(kn) for the predecessor table plus two rolling weight rows.
func SolveDenseMonge(n, k int, cost CostFunc) ([]int, int64, error) {
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
		// v at layer l needs k-l successors after it, so the last layer is
		// the sink alone: one scan instead of a whole layer, a large share
		// of the DP at the small k most L_Selections run with.
		vlo, vhi := l-1, n-1-(k-l)
		if l == k {
			vlo = n - 1
		}
		d.mongeStep(l, vlo, vhi, d.row(l, n), cost)
	}
	return d.path(n, k), d.prev[n-1], nil
}

// mongeStep advances the rolling rows from layer l-1 to layer l over the
// vertices v in [vlo, vhi], vlo >= l-1. prev must hold layer l-1, finite on
// [l-2, vhi-1] (layer 1 is vertex 0 alone); afterwards prev holds layer l
// on [vlo, vhi] and pred[v] its leftmost argmins.
func (d *dpState) mongeStep(l, vlo, vhi int, pred []int32, cost CostFunc) {
	uhi := vhi - 1
	if l == 2 {
		uhi = 0
	}
	mongeLayer(d.prev, d.cur, pred, cost, vlo, vhi, l-2, uhi)
	d.prev, d.cur = d.cur, d.prev
}

// mongeLayer sets cur[v] = min prev[u] + cost(u, v) over u in
// [ulo, min(uhi, v-1)] for every v in [vlo, vhi], with pred[v] the leftmost
// minimizer. It scans the middle v, recurses on the lower half with u capped
// at that argmin and loops on the upper half with u starting there, so the
// recursion is O(log n) deep and each level scans O(n) entries.
func mongeLayer(prev, cur []int64, pred []int32, cost CostFunc, vlo, vhi, ulo, uhi int) {
	for vlo <= vhi {
		v := (vlo + vhi) / 2
		hi := min(uhi, v-1)
		best, at := prev[ulo]+cost(ulo, v), ulo
		for u := ulo + 1; u <= hi; u++ {
			if w := prev[u] + cost(u, v); w < best {
				best, at = w, u
			}
		}
		cur[v], pred[v] = best, int32(at)
		mongeLayer(prev, cur, pred, cost, vlo, v-1, ulo, at)
		vlo, ulo = v+1, at
	}
}
