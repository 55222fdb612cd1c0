package selection

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// randomLList builds a random canonical irreducible L-list with n entries:
// W2 constant, W1 strictly decreasing, H1 strictly increasing, H2
// nondecreasing — strict monotonicity in W1/H1 guarantees irreducibility.
func randomLList(rng *rand.Rand, n int) shape.LList {
	w2 := int64(3 + rng.Intn(10))
	w1 := make([]int64, n)
	w1[n-1] = w2 + rng.Int63n(4)
	for i := n - 2; i >= 0; i-- {
		w1[i] = w1[i+1] + 1 + rng.Int63n(5)
	}
	h2 := make([]int64, n)
	h1 := make([]int64, n)
	h2[0] = 1 + rng.Int63n(4)
	h1[0] = h2[0] + rng.Int63n(4)
	for i := 1; i < n; i++ {
		h2[i] = h2[i-1] + rng.Int63n(4)
		h1[i] = h1[i-1] + 1 + rng.Int63n(4)
		if h1[i] < h2[i] {
			h1[i] = h2[i]
		}
	}
	l := make(shape.LList, n)
	for i := 0; i < n; i++ {
		l[i] = shape.LImpl{W1: w1[i], W2: w2, H1: h1[i], H2: h2[i]}
	}
	return l
}

func TestRandomLListIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		l := randomLList(rng, 2+rng.Intn(20))
		if err := l.Validate(); err != nil {
			t.Fatalf("generator produced invalid list: %v\n%v", err, l)
		}
	}
}

// TestLemma3NeighbourFormula verifies that the neighbour-restricted cost of
// Compute_L_Error agrees with the global nearest-retained-implementation
// definition of ERROR(L, L') — the content of the paper's Lemmas 2 and 3.
func TestLemma3NeighbourFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 150; trial++ {
		n := 3 + rng.Intn(12)
		l := randomLList(rng, n)
		table := ComputeLError(l)
		// Random subset with endpoints.
		indices := []int{0}
		for i := 1; i < n-1; i++ {
			if rng.Intn(2) == 0 {
				indices = append(indices, i)
			}
		}
		indices = append(indices, n-1)
		var viaTable int64
		for q := 0; q+1 < len(indices); q++ {
			viaTable += table.At(indices[q], indices[q+1])
		}
		direct, err := LSubsetError(l, indices)
		if err != nil {
			t.Fatal(err)
		}
		if viaTable != direct {
			t.Fatalf("neighbour formula %d != global definition %d\nlist %v\nsubset %v", viaTable, direct, l, indices)
		}
	}
}

func TestComputeLErrorBasics(t *testing.T) {
	l := randomLList(rand.New(rand.NewSource(4)), 6)
	table := ComputeLError(l)
	if table.N() != 6 {
		t.Fatalf("N = %d", table.N())
	}
	for i := 0; i < 5; i++ {
		if table.At(i, i+1) != 0 {
			t.Errorf("adjacent error(%d,%d) = %d, want 0", i, i+1, table.At(i, i+1))
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("At(3,2) did not panic")
			}
		}()
		table.At(3, 2)
	}()
}

func TestLSelectMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(9)
		k := 2 + r.Intn(n-2)
		l := randomLList(r, n)
		fast, err := LSelect(l, k)
		if err != nil {
			t.Logf("LSelect: %v", err)
			return false
		}
		slow, err := LSelectBrute(l, k)
		if err != nil {
			t.Logf("LSelectBrute: %v", err)
			return false
		}
		if fast.Error != slow.Error {
			t.Logf("n=%d k=%d: fast %d, brute %d", n, k, fast.Error, slow.Error)
			return false
		}
		direct, err := LSubsetError(l, fast.Indices)
		if err != nil || direct != fast.Error {
			t.Logf("reported %d != direct %d (%v)", fast.Error, direct, err)
			return false
		}
		return len(fast.Selected) == k && fast.Selected.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLSelectIdentityAndErrors(t *testing.T) {
	l := randomLList(rand.New(rand.NewSource(5)), 7)
	res, err := LSelect(l, 7)
	if err != nil || res.Error != 0 || len(res.Selected) != 7 {
		t.Fatalf("k=n should be identity: %+v, %v", res, err)
	}
	if _, err := LSelect(l, 1); err == nil {
		t.Error("k=1 on n>1 should fail")
	}
	if _, err := LSelect(nil, 3); err == nil {
		t.Error("empty list should fail")
	}
}

func TestLSelectEndpointsKept(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(30)
		k := 2 + rng.Intn(n-2)
		l := randomLList(rng, n)
		res, err := LSelect(l, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Selected[0] != l[0] || res.Selected[k-1] != l[n-1] {
			t.Fatalf("endpoints dropped: %v", res.Indices)
		}
	}
}

// tieHeavyLList builds a canonical L-list with many repeated
// s = H1+H2-W1 values, so lErrorL1's split-point search meets ties rather
// than dodging them.
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

// TestFusedLColumnMatchesTable pins lErrorL1, the O(log n) error Manhattan
// L_Selection reads, to the Compute_L_Error table entry by entry, on both
// strictly monotone and tie-heavy canonical lists.
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
			t.Fatalf("generator produced a non-canonical list: %v", l)
		}
		table := ComputeLError(l)
		e := newLErrorL1(l)
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if got, want := e.at(i, j), table.At(i, j); got != want {
					t.Fatalf("trial %d n=%d: error(%d,%d) = %d, table %d\nlist %v",
						trial, n, i, j, got, want, l)
				}
			}
		}
	}
}

// TestLSelectFusedMatchesTablePath pins L_Selection to the paper's
// reduction run verbatim: the Compute_L_Error table materialized as the
// complete interval DAG and solved by cspp.Solve. Indices and error must be
// identical for every k in [2, n), on random and tie-heavy canonical lists.
func TestLSelectFusedMatchesTablePath(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(25)
		if trial < 2 {
			n = 48
		}
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
			want, err := cspp.Solve(g, 0, n-1, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: Solve: %v", n, k, err)
			}
			got, err := LSelect(l, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: LSelect: %v", n, k, err)
			}
			if got.Error != want.Weight || !slices.Equal(got.Indices, want.Path) {
				t.Fatalf("n=%d k=%d: LSelect %v (error %d), Solve %v (weight %d)",
					n, k, got.Indices, got.Error, want.Path, want.Weight)
			}
		}
	}
}

// TestLErrorMonge checks the proved property LSelect's solver rests on
// (DESIGN.md §11): the Compute_L_Error table satisfies the quadrangle
// inequality on random and tie-heavy canonical L-lists.
func TestLErrorMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(16)
		var l shape.LList
		if trial%2 == 0 {
			l = randomLList(rng, n)
		} else {
			l = tieHeavyLList(rng, n)
		}
		if q, ok := mongeViolation(n, ComputeLError(l).At); !ok {
			t.Fatalf("list not Monge at %v: %v", q, l)
		}
	}
}

// TestLListTelescopesGuard checks the canonical-list guard the Monge proof
// needs: a canonical list selects, and each monotonicity violation makes
// LSelect return an error.
func TestLListTelescopesGuard(t *testing.T) {
	base := shape.LList{
		{W1: 9, W2: 3, H1: 2, H2: 2},
		{W1: 7, W2: 3, H1: 4, H2: 3},
		{W1: 5, W2: 3, H1: 6, H2: 5},
	}
	if _, err := LSelect(base, 2); err != nil {
		t.Fatalf("canonical list rejected: %v", err)
	}
	mutations := []func(l shape.LList){
		func(l shape.LList) { l[1].W2 = 4 },  // W2 not constant
		func(l shape.LList) { l[1].W1 = 10 }, // W1 increases
		func(l shape.LList) { l[2].H1 = 3 },  // H1 decreases
		func(l shape.LList) { l[2].H2 = 2 },  // H2 decreases
	}
	for i, mutate := range mutations {
		l := slices.Clone(base)
		mutate(l)
		if _, err := LSelect(l, 2); err == nil {
			t.Errorf("mutation %d accepted: %v", i, l)
		}
	}
}

func TestHeuristicLReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	l := randomLList(rng, 50)
	red := HeuristicLReduce(l, 10)
	if len(red) != 10 {
		t.Fatalf("len = %d, want 10", len(red))
	}
	if red[0] != l[0] || red[len(red)-1] != l[49] {
		t.Fatal("endpoints not kept")
	}
	if err := red.Validate(); err != nil {
		t.Fatalf("reduced list invalid: %v", err)
	}
	// No-ops.
	if got := HeuristicLReduce(l, 50); len(got) != 50 {
		t.Errorf("s=n should be identity, got %d", len(got))
	}
	if got := HeuristicLReduce(l, 100); len(got) != 50 {
		t.Errorf("s>n should be identity, got %d", len(got))
	}
	two := l[:2]
	if got := HeuristicLReduce(two, 1); len(got) != 2 {
		t.Errorf("n=2 must keep both endpoints, got %d", len(got))
	}
}
