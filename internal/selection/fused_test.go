package selection

import (
	"math/rand"
	"testing"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// tieHeavyLList builds a canonical telescoping L-list with many repeated
// s = H1+H2-W1 values, so the fused column's split-point tie rule (ties pay
// the left neighbour) is exercised rather than dodged.
func tieHeavyLList(rng *rand.Rand, n int) shape.LList {
	w2 := int64(2 + rng.Intn(5))
	l := make(shape.LList, n)
	w1 := w2 + int64(n) + rng.Int63n(5)
	h1 := int64(1 + rng.Intn(3))
	h2 := int64(1 + rng.Intn(3))
	for i := 0; i < n; i++ {
		l[i] = shape.LImpl{W1: w1, W2: w2, H1: h1, H2: h2}
		// Tiny nonnegative steps with frequent zeros keep s(i) tie-heavy
		// while preserving canonical monotonicity.
		w1 -= rng.Int63n(2)
		if w1 < w2 {
			w1 = w2
		}
		h1 += rng.Int63n(2)
		h2 += rng.Int63n(2)
	}
	return l
}

// TestFusedLColumnMatchesTable pins the prefix-sum column of lSelectFused to
// the Compute_L_Error table entry by entry, on both strictly-monotone and
// tie-heavy canonical lists.
func TestFusedLColumnMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(30)
		var l shape.LList
		if trial%2 == 0 {
			l = randomLList(rng, n)
		} else {
			l = tieHeavyLList(rng, n)
		}
		if !lListTelescopes(l) {
			t.Fatalf("generator produced non-telescoping list: %v", l)
		}
		table := ComputeLError(l)

		s := make([]int64, n)
		p := make([]int64, n+1)
		for i, li := range l {
			s[i] = li.H1 + li.H2 - li.W1
			p[i+1] = p[i] + s[i]
		}
		col := make([]int64, n)
		for v := 1; v < n; v++ {
			m := v - 1
			sv := s[v]
			for i := v - 1; i >= 0; i-- {
				si := s[i]
				for m > i && 2*s[m] > si+sv {
					m--
				}
				col[i] = (p[m+1] - p[i+1]) - int64(m-i)*si +
					int64(v-1-m)*sv - (p[v] - p[m+1])
			}
			for i := 0; i < v; i++ {
				if got, want := col[i], table.At(i, v); got != want {
					t.Fatalf("trial %d n=%d: col[%d][%d] = %d, table %d\nlist %v",
						trial, n, i, v, got, want, l)
				}
			}
		}
	}
}

// TestLSelectFusedMatchesTablePath runs the Manhattan L_Selection through
// the fused pass (what LSelectMetric uses) and through the explicit
// Compute_L_Error table + the paper-verbatim cspp.Solve on the complete
// DAG, and requires bit-identical indices and weight.
func TestLSelectFusedMatchesTablePath(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 80; trial++ {
		n := 3 + rng.Intn(25)
		var l shape.LList
		if trial%2 == 0 {
			l = randomLList(rng, n)
		} else {
			l = tieHeavyLList(rng, n)
		}
		table := ComputeLError(l)
		g := cspp.MustGraph(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if err := g.AddEdge(u, v, table.At(u, v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 2; k < n; k++ {
			got, err := LSelect(l, k)
			if err != nil {
				t.Fatalf("fused LSelect n=%d k=%d: %v", n, k, err)
			}
			want, err := cspp.Solve(g, 0, n-1, k)
			if err != nil {
				t.Fatalf("table path n=%d k=%d: %v", n, k, err)
			}
			if got.Error != want.Weight {
				t.Fatalf("n=%d k=%d: fused error %d, table %d", n, k, got.Error, want.Weight)
			}
			for i := range want.Path {
				if got.Indices[i] != want.Path[i] {
					t.Fatalf("n=%d k=%d: fused indices %v, table %v",
						n, k, got.Indices, want.Path)
				}
			}
		}
	}
}

// TestLListTelescopesGuard checks the fused pass's applicability guard: a
// canonical list passes, and each monotonicity violation falls back.
func TestLListTelescopesGuard(t *testing.T) {
	base := shape.LList{
		{W1: 9, W2: 3, H1: 2, H2: 2},
		{W1: 7, W2: 3, H1: 4, H2: 3},
		{W1: 5, W2: 3, H1: 6, H2: 5},
	}
	if !lListTelescopes(base) {
		t.Fatal("canonical list must telescope")
	}
	mutations := []func(l shape.LList){
		func(l shape.LList) { l[1].W2 = 4 },  // W2 not constant
		func(l shape.LList) { l[1].W1 = 10 }, // W1 increases
		func(l shape.LList) { l[2].H1 = 3 },  // H1 decreases
		func(l shape.LList) { l[2].H2 = 2 },  // H2 decreases
	}
	for i, mutate := range mutations {
		l := make(shape.LList, len(base))
		copy(l, base)
		mutate(l)
		if lListTelescopes(l) {
			t.Fatalf("mutation %d should not telescope: %v", i, l)
		}
	}
}

// TestFusedCountersAdvance checks the telemetry counters move on the paths
// they label: fused R on RSelect, fused L on Manhattan LSelect, table L on a
// non-Manhattan metric.
func TestFusedCountersAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	l := randomLList(rng, 8)
	r := shape.MustRList([]shape.RImpl{{W: 5, H: 1}, {W: 4, H: 2}, {W: 3, H: 3}, {W: 2, H: 5}, {W: 1, H: 8}})

	r0, l0, t0 := FusedCounters()
	if _, err := RSelect(r, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := LSelect(l, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := LSelectMetric(l, 4, Chebyshev); err != nil {
		t.Fatal(err)
	}
	r1, l1, t1 := FusedCounters()
	if r1 <= r0 {
		t.Errorf("fused R counter did not advance: %d -> %d", r0, r1)
	}
	if l1 <= l0 {
		t.Errorf("fused L counter did not advance: %d -> %d", l0, l1)
	}
	if t1 <= t0 {
		t.Errorf("table L counter did not advance: %d -> %d", t0, t1)
	}
}
