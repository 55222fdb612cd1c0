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
// Two entry points are provided:
//
//   - Solve runs on an explicit Graph, exactly as in the paper.
//   - SolveDenseColumns runs on the implicit complete DAG over vertices
//     0..n-1 (every edge i→j with i < j present, weights from a per-column
//     callback). This is the instance both selection algorithms generate
//     (Sections 4.2–4.3); skipping graph materialization keeps their memory
//     at O(kn).
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
// slice before release).
type dpState struct {
	prev, cur []int64
	pred      [][]int32
	// wt and col serve SolveDenseColumns: the full (k+1)×n weight table its
	// j-major order needs, and the reusable edge-weight column buffer.
	wt  [][]int64
	col []int64
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

// wrow returns the weight row for layer l, sized for n vertices and filled
// with Inf.
func (d *dpState) wrow(l, n int) []int64 {
	if cap(d.wt) < l+1 {
		wt := make([][]int64, l+1)
		copy(wt, d.wt)
		d.wt = wt
	}
	if len(d.wt) < l+1 {
		d.wt = d.wt[:l+1]
	}
	if cap(d.wt[l]) < n {
		d.wt[l] = make([]int64, n)
	}
	d.wt[l] = d.wt[l][:n]
	for v := range d.wt[l] {
		d.wt[l][v] = Inf
	}
	return d.wt[l]
}

// colRun returns the column buffer sized for n vertices (not cleared; the
// column callback assigns every entry the DP reads).
func (d *dpState) colRun(n int) []int64 {
	if cap(d.col) < n {
		d.col = make([]int64, n)
	}
	d.col = d.col[:n]
	return d.col
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

// ColumnFunc fills col[u] = w(u, v) for every 0 <= u < v, the incoming edge
// weights of dense-DAG vertex v. len(col) == v.
type ColumnFunc func(v int, col []int64)

// SolveDenseColumns solves the CSPP on the complete DAG over 0..n-1 with
// source 0 and sink n-1: it returns the k vertex indices of a
// minimum-weight path visiting exactly k vertices. This is the reduction
// target of R_Selection and L_Selection, where vertex i is the i-th
// implementation of an irreducible list and w(i,j) = error(r_i, r_j).
//
// The DP runs in j-major order: it visits each vertex v once, asks the
// callback for v's full incoming weight column, and relaxes every feasible
// layer against it. Callers whose edge weights come from a per-column
// recurrence (the selection error tables of Sections 4.2–4.3) generate each
// column exactly once instead of once per layer and never materialize the
// O(n²) error table at all. Ties break toward the lowest predecessor u, so
// results are identical to Solve on the materialized complete DAG with
// edges added in u-ascending order (pinned by tests).
//
// Memory is O(kn) for the weight table — the same order as the predecessor
// table.
func SolveDenseColumns(n, k int, column ColumnFunc) ([]int, int64, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("cspp: dense graph needs n >= 1, got %d", n)
	}
	if k < 1 || k > n {
		return nil, 0, fmt.Errorf("cspp: k=%d out of range [1,%d]", k, n)
	}
	if k == 1 {
		if n != 1 {
			return nil, 0, ErrNoPath
		}
		return []int{0}, 0, nil
	}
	d := getDP(n, k)
	defer d.release()
	col := d.colRun(n)
	for l := 1; l <= k; l++ {
		d.wrow(l, n)
	}
	wt := d.wt
	wt[1][0] = 0
	for l := 2; l <= k; l++ {
		pred := d.row(l, n)
		for v := range pred {
			pred[v] = -1
		}
	}
	for v := 1; v < n; v++ {
		column(v, col[:v])
		// v can sit at layer l only with l-1 predecessors before it and
		// k-l successors after it.
		lmin := k - (n - 1 - v)
		if lmin < 2 {
			lmin = 2
		}
		lmax := v + 1
		if lmax > k {
			lmax = k
		}
		for l := lmin; l <= lmax; l++ {
			prevRow := wt[l-1]
			best, bestAt := Inf, int32(-1)
			for u := l - 2; u < v; u++ {
				if prevRow[u] == Inf {
					continue
				}
				if w := prevRow[u] + col[u]; w < best {
					best, bestAt = w, int32(u)
				}
			}
			wt[l][v] = best
			d.pred[l][v] = bestAt
		}
	}
	if wt[k][n-1] == Inf {
		return nil, 0, ErrNoPath
	}
	path := make([]int, k)
	path[k-1] = n - 1
	v := n - 1
	for l := k; l >= 2; l-- {
		v = int(d.pred[l][v])
		path[l-2] = v
	}
	return path, wt[k][n-1], nil
}
