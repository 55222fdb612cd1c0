package cspp

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// figure4 builds the worked example of the paper's Figure 4 (vertices are
// 0-based here: v1..v6 -> 0..5). Edge weights are chosen to reproduce every
// number quoted in Section 4.1: the unconstrained shortest path
// v1→v2→v3→v4→v5→v6 has weight 8, and the three 4-vertex paths
// v1→v2→v4→v6, v1→v3→v4→v6, v1→v2→v5→v6 weigh 11, 12 and 15.
func figure4(t *testing.T) *Graph {
	t.Helper()
	g := MustGraph(6)
	edges := []struct {
		from, to int
		w        int64
	}{
		{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 4, 2}, {4, 5, 2},
		{1, 3, 4}, {3, 5, 6}, {0, 2, 5}, {1, 4, 12},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestFigure4(t *testing.T) {
	g := figure4(t)

	// Unconstrained shortest path = constrained with k = 6 here.
	res, err := Solve(g, 0, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 8 {
		t.Errorf("k=6 weight = %d, want 8", res.Weight)
	}
	wantPath := []int{0, 1, 2, 3, 4, 5}
	for i, v := range wantPath {
		if res.Path[i] != v {
			t.Fatalf("k=6 path = %v, want %v", res.Path, wantPath)
		}
	}

	// The paper's k = 4 instance: v1→v2→v4→v6 with weight 11.
	res, err = Solve(g, 0, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != 11 {
		t.Errorf("k=4 weight = %d, want 11", res.Weight)
	}
	want4 := []int{0, 1, 3, 5}
	for i, v := range want4 {
		if res.Path[i] != v {
			t.Fatalf("k=4 path = %v, want %v", res.Path, want4)
		}
	}
}

func TestSolveKOne(t *testing.T) {
	g := figure4(t)
	res, err := Solve(g, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) != 1 || res.Path[0] != 2 || res.Weight != 0 {
		t.Errorf("k=1 result = %+v", res)
	}
	if _, err := Solve(g, 0, 2, 1); !errors.Is(err, ErrNoPath) {
		t.Errorf("k=1 with s != t should be ErrNoPath, got %v", err)
	}
}

func TestSolveNoPath(t *testing.T) {
	g := MustGraph(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, 0, 2, 2); !errors.Is(err, ErrNoPath) {
		t.Errorf("unreachable target should be ErrNoPath, got %v", err)
	}
	// Reachable, but not with the requested vertex count.
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(g, 0, 2, 2); !errors.Is(err, ErrNoPath) {
		t.Errorf("k=2 over a 3-vertex chain should be ErrNoPath, got %v", err)
	}
	if res, err := Solve(g, 0, 2, 3); err != nil || res.Weight != 2 {
		t.Errorf("k=3 = %+v, %v", res, err)
	}
}

func TestSolveRejectsCycle(t *testing.T) {
	g := MustGraph(3)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Solve(g, 0, 2, 3); err == nil || errors.Is(err, ErrNoPath) {
		t.Errorf("cyclic graph should be rejected with a distinct error, got %v", err)
	}
}

func TestGraphValidation(t *testing.T) {
	if _, err := NewGraph(0); err == nil {
		t.Error("expected error for empty graph")
	}
	g := MustGraph(2)
	if err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("expected error for self-loop")
	}
	if err := g.AddEdge(0, 1, -1); err == nil {
		t.Error("expected error for negative weight")
	}
	if err := g.AddEdge(0, 1, 0); err != nil {
		t.Errorf("zero weight should be allowed: %v", err)
	}
	if err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("expected error for out-of-range vertex")
	}
	if _, err := Solve(g, 0, 1, 5); err == nil {
		t.Error("expected error for k > |V|")
	}
	if _, err := Solve(g, -1, 1, 1); err == nil {
		t.Error("expected error for bad s")
	}
	if g.N() != 2 || g.M() != 1 {
		t.Errorf("N=%d M=%d", g.N(), g.M())
	}
}

// bruteCSPP enumerates every path from s to t with exactly k vertices by
// DFS and returns the minimum weight, or Inf when none exists. Oracle for
// randomized testing.
func bruteCSPP(adj [][]int64, s, t, k int) int64 {
	n := len(adj)
	best := Inf
	var dfs func(v int, used int, w int64)
	dfs = func(v int, used int, w int64) {
		if used == k {
			if v == t && w < best {
				best = w
			}
			return
		}
		for u := 0; u < n; u++ {
			if adj[v][u] >= 0 {
				dfs(u, used+1, w+adj[v][u])
			}
		}
	}
	dfs(s, 1, 0)
	return best
}

// randomDAG builds a random DAG over a random topological order, returning
// both the Graph and an adjacency matrix (-1 = no edge).
func randomDAG(rng *rand.Rand, n int, density float64) (*Graph, [][]int64) {
	g := MustGraph(n)
	adj := make([][]int64, n)
	for i := range adj {
		adj[i] = make([]int64, n)
		for j := range adj[i] {
			adj[i][j] = -1
		}
	}
	order := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				w := rng.Int63n(20) // zero weights exercised too
				from, to := order[i], order[j]
				if err := g.AddEdge(from, to, w); err != nil {
					panic(err)
				}
				adj[from][to] = w
			}
		}
	}
	return g, adj
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		g, adj := randomDAG(r, n, 0.3+r.Float64()*0.5)
		s, tgt := r.Intn(n), r.Intn(n)
		k := 1 + r.Intn(n)
		want := bruteCSPP(adj, s, tgt, k)
		res, err := Solve(g, s, tgt, k)
		switch {
		case errors.Is(err, ErrNoPath):
			return want == Inf
		case err != nil:
			t.Logf("unexpected error: %v", err)
			return false
		default:
			if res.Weight != want {
				t.Logf("weight %d, want %d (n=%d s=%d t=%d k=%d)", res.Weight, want, n, s, tgt, k)
				return false
			}
			// Path integrity: k vertices, starts s, ends t, edges exist and
			// weights sum to the reported total.
			if len(res.Path) != k || res.Path[0] != s || res.Path[k-1] != tgt {
				return false
			}
			var sum int64
			for i := 0; i+1 < len(res.Path); i++ {
				w := adj[res.Path[i]][res.Path[i+1]]
				if w < 0 {
					t.Logf("path uses missing edge %d->%d", res.Path[i], res.Path[i+1])
					return false
				}
				sum += w
			}
			return sum == res.Weight
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// columnsOf adapts a dense weight matrix to SolveDenseColumns.
func columnsOf(w [][]int64) ColumnFunc {
	return func(v int, col []int64) {
		for u := range col {
			col[u] = w[u][v]
		}
	}
}

// completeDAG materializes the complete DAG over w for the reference Solve,
// adding each vertex's incoming edges in u-ascending order.
func completeDAG(t *testing.T, w [][]int64) *Graph {
	t.Helper()
	g := MustGraph(len(w))
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			if err := g.AddEdge(i, j, w[i][j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestSolveDenseMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		w := make([][]int64, n)
		for i := range w {
			w[i] = make([]int64, n)
			for j := i + 1; j < n; j++ {
				w[i][j] = rng.Int63n(50)
			}
		}
		k := 2 + rng.Intn(n-1)
		path, weight, err := SolveDenseColumns(n, k, columnsOf(w))
		if err != nil {
			t.Fatalf("SolveDenseColumns: %v", err)
		}
		res, err := Solve(completeDAG(t, w), 0, n-1, k)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if weight != res.Weight {
			t.Fatalf("dense weight %d != explicit %d (n=%d k=%d)", weight, res.Weight, n, k)
		}
		if len(path) != k || path[0] != 0 || path[k-1] != n-1 {
			t.Fatalf("dense path malformed: %v", path)
		}
		var sum int64
		for i := 0; i+1 < len(path); i++ {
			if path[i] >= path[i+1] {
				t.Fatalf("dense path not increasing: %v", path)
			}
			sum += w[path[i]][path[i+1]]
		}
		if sum != weight {
			t.Fatalf("dense path weight %d != reported %d", sum, weight)
		}
	}
}

// TestSolveDenseEdgeCases covers the dense solver's bounds not exercised by
// TestSolveDenseColumnsEdgeCases: k < 1, and k = n selecting everything.
func TestSolveDenseEdgeCases(t *testing.T) {
	if _, _, err := SolveDenseColumns(5, 0, nil); err == nil {
		t.Error("expected error for k < 1")
	}
	path, weight, err := SolveDenseColumns(4, 4, func(v int, col []int64) {
		for u := range col {
			col[u] = 100
			if u == v-1 {
				col[u] = 1
			}
		}
	})
	if err != nil || weight != 3 {
		t.Fatalf("k=n: %v %d %v", path, weight, err)
	}
}

func TestSolveDenseKTwo(t *testing.T) {
	// k=2 must take the direct edge 0 -> n-1.
	path, weight, err := SolveDenseColumns(6, 2, func(v int, col []int64) {
		for u := range col {
			col[u] = int64(10*u + v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if weight != 5 || len(path) != 2 || path[0] != 0 || path[1] != 5 {
		t.Fatalf("k=2: %v %d", path, weight)
	}
}

// TestPooledBuffersReuse solves instances of varying sizes back to back and
// concurrently, checking that the recycled DP tables never leak state
// between solves. The weights make the optimal path unique so any
// contamination would flip the result.
func TestPooledBuffersReuse(t *testing.T) {
	solve := func(n, k int) ([]int, int64, error) {
		return SolveDenseColumns(n, k, func(v int, col []int64) {
			for u := range col {
				col[u] = int64((v - u) * (v - u))
			}
		})
	}
	// Sequential size churn: big, small, big again.
	for _, nk := range [][2]int{{40, 10}, {3, 2}, {40, 10}, {8, 8}, {40, 40}} {
		n, k := nk[0], nk[1]
		path, w, err := solve(n, k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", n, k, err)
		}
		if len(path) != k || path[0] != 0 || path[k-1] != n-1 {
			t.Fatalf("n=%d k=%d: bad path %v", n, k, path)
		}
		if ref, refW, _ := solve(n, k); refW != w || len(ref) != len(path) {
			t.Fatalf("n=%d k=%d: unstable weight %d vs %d", n, k, w, refW)
		}
	}
	// Concurrent solves (run with -race): the pool must isolate states.
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				n := 5 + (g+i)%30
				k := 2 + (g+i)%(n-1)
				path, _, err := solve(n, k)
				if err != nil {
					done <- err
					return
				}
				if len(path) != k {
					done <- ErrNoPath
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
