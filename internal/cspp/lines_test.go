package cspp

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// randLines builds a random dense instance in line form. With small
// coefficients, slopes step by 1 or 2 and X repeats often, so ties are
// common; with big ones, the breakpoint test's products pass 2⁶⁴. Every
// coefficient is nonnegative, so every weight is, as Solve requires.
func randLines(rng *rand.Rand, n int, bigCoef bool) *Lines {
	step, term := int64(2), int64(4)
	if bigCoef {
		step, term = 1<<22, 1<<50
	}
	e := &Lines{Slope: make([]int64, n), X: make([]int64, n), Row: make([]int64, n), Col: make([]int64, n)}
	for u := n - 2; u >= 0; u-- {
		e.Slope[u] = e.Slope[u+1] + 1 + rng.Int63n(step)
	}
	for v := 1; v < n; v++ {
		e.X[v] = e.X[v-1]
		if rng.Intn(3) > 0 {
			e.X[v] += 1 + rng.Int63n(step)
		}
	}
	for i := range e.Row {
		e.Row[i], e.Col[i] = rng.Int63n(term), rng.Int63n(term)
	}
	return e
}

// TestSolveDenseLinesMatchesSolve pins the envelope solver to the
// paper-verbatim Solve on the materialized complete DAG, and to
// SolveDenseMonge: identical path and weight for every k, on tie-heavy and
// big-coefficient instances. SweepDenseLines must report Solve's weight
// for every l.
func TestSolveDenseLinesMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(40)
		e := randLines(rng, n, trial%4 == 3)
		w := make([][]int64, n)
		for u := range w {
			w[u] = make([]int64, n)
			for v := u + 1; v < n; v++ {
				w[u][v] = e.Slope[u]*e.X[v] + e.Row[u] + e.Col[v]
			}
		}
		g := completeDAG(t, w)
		sweep, err := SweepDenseLines(n, e)
		if err != nil {
			t.Fatalf("n=%d: sweep: %v", n, err)
		}
		for k := 2; k <= n; k++ {
			want, err := Solve(g, 0, n-1, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: Solve: %v", n, k, err)
			}
			path, weight, err := SolveDenseLines(k, e)
			if err != nil {
				t.Fatalf("n=%d k=%d: SolveDenseLines: %v", n, k, err)
			}
			if weight != want.Weight || !slices.Equal(path, want.Path) {
				t.Fatalf("n=%d k=%d: lines %v (weight %d), Solve %v (weight %d)",
					n, k, path, weight, want.Path, want.Weight)
			}
			if mp, mw, err := SolveDenseMonge(n, k, costOf(w)); err != nil || mw != weight || !slices.Equal(mp, path) {
				t.Fatalf("n=%d k=%d: lines %v (weight %d), Monge %v (weight %d, %v)",
					n, k, path, weight, mp, mw, err)
			}
			if sweep[k] != want.Weight {
				t.Fatalf("n=%d l=%d: sweep weight %d, Solve %d", n, k, sweep[k], want.Weight)
			}
		}
	}
}

func TestSolveDenseLinesEdgeCases(t *testing.T) {
	lines := func(n int) *Lines {
		e := &Lines{Slope: make([]int64, n), X: make([]int64, n), Row: make([]int64, n), Col: make([]int64, n)}
		for i := range e.Slope {
			e.Slope[i], e.X[i] = int64(n-i), int64(i)
		}
		return e
	}
	if _, _, err := SolveDenseLines(1, lines(0)); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, _, err := SolveDenseLines(4, lines(3)); err == nil {
		t.Fatal("k>n must error")
	}
	if _, _, err := SolveDenseLines(2, lines(1)); err == nil {
		t.Fatal("n=1 k=2 must error")
	}
	if _, _, err := SolveDenseLines(1, lines(2)); err != ErrNoPath {
		t.Fatalf("k=1 n=2 should be ErrNoPath, got %v", err)
	}
	path, w, err := SolveDenseLines(1, lines(1))
	if err != nil || w != 0 || !slices.Equal(path, []int{0}) {
		t.Fatalf("n=1 k=1: path=%v w=%d err=%v", path, w, err)
	}
	for _, kmax := range []int{1, 6} {
		if _, err := SweepDenseLines(kmax, lines(5)); err == nil {
			t.Fatalf("sweep kmax=%d on n=5 must error", kmax)
		}
	}
}

// TestMulLE holds the breakpoint test's 128-bit product comparison to
// math/big on random signs and magnitudes across the whole int64 range.
func TestMulLE(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pick := func(pos bool) int64 {
		v := rng.Int63() >> rng.Intn(63)
		if pos {
			return max(v, 1)
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		if rng.Intn(50) == 0 {
			v = []int64{0, math.MaxInt64, math.MinInt64, -math.MaxInt64}[rng.Intn(4)]
		}
		return v
	}
	prod := func(a, p int64) *big.Int { return new(big.Int).Mul(big.NewInt(a), big.NewInt(p)) }
	for i := 0; i < 200000; i++ {
		a, p, b, q := pick(false), pick(true), pick(false), pick(true)
		if i%7 == 0 {
			b, q = a, p // equal products
		}
		want := prod(a, p).Cmp(prod(b, q)) <= 0
		if got := mulLE(a, p, b, q); got != want {
			t.Fatalf("mulLE(%d, %d, %d, %d) = %v, want %v", a, p, b, q, got, want)
		}
	}
}
