package cspp

import (
	"math/rand"
	"testing"
)

// randWeights builds a deterministic dense weight matrix with many ties so
// the tie-break (lowest u wins) is actually exercised.
func randWeights(rng *rand.Rand, n, span int) [][]int64 {
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := i + 1; j < n; j++ {
			w[i][j] = int64(rng.Intn(span))
		}
	}
	return w
}

// TestSolveDenseColumnsMatchesSolveDense pins the j-major dense solver to
// the paper-verbatim Solve on the materialized complete DAG bit-for-bit:
// identical path (not just weight), for every feasible k, on tie-heavy
// instances. Bit-identical selection is what keeps the optimizer's output
// independent of how the CSPP is solved.
func TestSolveDenseColumnsMatchesSolveDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		w := randWeights(rng, n, 1+rng.Intn(6))
		g := completeDAG(t, w)
		for k := 2; k <= n; k++ {
			want, wantErr := Solve(g, 0, n-1, k)
			gotPath, gotW, gotErr := SolveDenseColumns(n, k, columnsOf(w))
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("n=%d k=%d: err mismatch %v vs %v", n, k, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if want.Weight != gotW {
				t.Fatalf("n=%d k=%d: weight %d vs %d", n, k, want.Weight, gotW)
			}
			for i := range want.Path {
				if want.Path[i] != gotPath[i] {
					t.Fatalf("n=%d k=%d: path %v vs %v", n, k, want.Path, gotPath)
				}
			}
		}
	}
}

func TestSolveDenseColumnsEdgeCases(t *testing.T) {
	zeroCol := func(v int, col []int64) {
		for u := range col {
			col[u] = 0
		}
	}
	if _, _, err := SolveDenseColumns(0, 1, zeroCol); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, _, err := SolveDenseColumns(3, 4, zeroCol); err == nil {
		t.Fatal("k>n must error")
	}
	path, w, err := SolveDenseColumns(1, 1, zeroCol)
	if err != nil || w != 0 || len(path) != 1 || path[0] != 0 {
		t.Fatalf("trivial instance: path=%v w=%d err=%v", path, w, err)
	}
	if _, _, err := SolveDenseColumns(2, 1, zeroCol); err != ErrNoPath {
		t.Fatalf("k=1 n=2 should be ErrNoPath, got %v", err)
	}
}

// BenchmarkCSPPFused measures the j-major dense solver on an instance with
// a cheap synthetic column recurrence, isolating the DP scan itself.
func BenchmarkCSPPFused(b *testing.B) {
	const n, k = 1024, 32
	column := func(v int, col []int64) {
		acc := int64(0)
		for u := v - 1; u >= 0; u-- {
			acc += int64(v - u)
			col[u] = acc
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveDenseColumns(n, k, column); err != nil {
			b.Fatal(err)
		}
	}
}
