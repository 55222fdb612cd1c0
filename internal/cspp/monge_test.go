package cspp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSolveDenseColumnsEdgeCases holds the dense solver to its bounds when
// every cost column is zero, so only the checks decide the outcome.
func TestSolveDenseColumnsEdgeCases(t *testing.T) {
	zero := func(u, v int) int64 { return 0 }
	if _, _, err := SolveDenseMonge(0, 1, zero); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, _, err := SolveDenseMonge(3, 4, zero); err == nil {
		t.Fatal("k>n must error")
	}
	path, w, err := SolveDenseMonge(1, 1, zero)
	if err != nil || w != 0 || len(path) != 1 || path[0] != 0 {
		t.Fatalf("trivial instance: path=%v w=%d err=%v", path, w, err)
	}
	if _, _, err := SolveDenseMonge(2, 1, zero); err != ErrNoPath {
		t.Fatalf("k=1 n=2 should be ErrNoPath, got %v", err)
	}
}

// randMonge builds a random Monge weight matrix: a convex function of the
// span v-u (nondecreasing integer increments with frequent repeats, so ties
// are common) plus a random term per row u and per column v.
func randMonge(rng *rand.Rand, n int) [][]int64 {
	f := make([]int64, n)
	step := int64(0)
	for d := 1; d < n; d++ {
		step += rng.Int63n(3) // 0 keeps the previous increment: a tie run
		f[d] = f[d-1] + step
	}
	row := make([]int64, n)
	col := make([]int64, n)
	for i := range row {
		row[i] = rng.Int63n(4)
		col[i] = rng.Int63n(4)
	}
	w := make([][]int64, n)
	for u := range w {
		w[u] = make([]int64, n)
		for v := u + 1; v < n; v++ {
			w[u][v] = f[v-u] + row[u] + col[v]
		}
	}
	return w
}

func costOf(w [][]int64) CostFunc {
	return func(u, v int) int64 { return w[u][v] }
}

// TestSolveDenseMongeMatchesSolve pins the Monge solver to the
// paper-verbatim Solve on the materialized complete DAG: identical path and
// weight for every k, on tie-heavy Monge matrices.
func TestSolveDenseMongeMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		w := randMonge(rng, n)
		g := completeDAG(t, w)
		for k := 2; k <= n; k++ {
			want, err := Solve(g, 0, n-1, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: Solve: %v", n, k, err)
			}
			path, weight, err := SolveDenseMonge(n, k, costOf(w))
			if err != nil {
				t.Fatalf("n=%d k=%d: SolveDenseMonge: %v", n, k, err)
			}
			if weight != want.Weight || !slices.Equal(path, want.Path) {
				t.Fatalf("n=%d k=%d: Monge %v (weight %d), Solve %v (weight %d)",
					n, k, path, weight, want.Path, want.Weight)
			}
		}
	}
}

func TestSolveDenseMongeEdgeCases(t *testing.T) {
	span := func(u, v int) int64 { return int64((v - u) * (v - u)) }
	if _, _, err := SolveDenseMonge(0, 1, span); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, _, err := SolveDenseMonge(1, 2, span); err == nil {
		t.Fatal("n=1 k=2 must error")
	}
	if _, _, err := SolveDenseMonge(2, 1, span); err != ErrNoPath {
		t.Fatalf("k=1 n=2 should be ErrNoPath, got %v", err)
	}
	path, w, err := SolveDenseMonge(1, 1, span)
	if err != nil || w != 0 || !slices.Equal(path, []int{0}) {
		t.Fatalf("n=1 k=1: path=%v w=%d err=%v", path, w, err)
	}
	path, w, err = SolveDenseMonge(6, 2, span)
	if err != nil || w != 25 || !slices.Equal(path, []int{0, 5}) {
		t.Fatalf("k=2 must take the direct edge: path=%v w=%d err=%v", path, w, err)
	}
	path, w, err = SolveDenseMonge(5, 5, span)
	if err != nil || w != 4 || !slices.Equal(path, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("k=n must keep every vertex: path=%v w=%d err=%v", path, w, err)
	}
}

// BenchmarkCSPPMonge measures the dense Monge solver on convex
// triangular-number weights (n=1024, k=32), a cost callback cheap enough
// that the DP itself dominates.
func BenchmarkCSPPMonge(b *testing.B) {
	const n, k = 1024, 32
	cost := func(u, v int) int64 {
		d := int64(v - u)
		return d * (d + 1) / 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveDenseMonge(n, k, cost); err != nil {
			b.Fatal(err)
		}
	}
}
