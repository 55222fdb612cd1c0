package selection

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// randomRList builds a random canonical irreducible R-list with n corners.
func randomRList(rng *rand.Rand, n int) shape.RList {
	ws := make([]int64, n)
	hs := make([]int64, n)
	w := int64(1 + rng.Intn(5))
	h := int64(1 + rng.Intn(5))
	for i := 0; i < n; i++ {
		ws[i] = w
		hs[i] = h
		w += 1 + rng.Int63n(6)
		h += 1 + rng.Int63n(6)
	}
	l := make(shape.RList, n)
	for i := 0; i < n; i++ {
		// widths descending, heights ascending
		l[i] = shape.RImpl{W: ws[n-1-i], H: hs[i]}
	}
	return l
}

func TestComputeRErrorMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(15)
		l := randomRList(rng, n)
		if err := l.Validate(); err != nil {
			t.Fatalf("generator broke: %v", err)
		}
		table := ComputeRError(l)
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				// error(i,j) is the staircase area of the sub-list l[i..j]
				// with only its endpoints selected.
				sub := l[i : j+1]
				want, err := sub.StaircaseArea([]int{0, j - i})
				if err != nil {
					t.Fatal(err)
				}
				if got := table.At(i, j); got != want {
					t.Fatalf("error(%d,%d) = %d, want %d (list %v)", i, j, got, want, l)
				}
			}
		}
	}
}

// equalStepRList builds a canonical R-list whose widths and heights move by
// one constant step each, so many subsets tie on error and the solvers'
// lowest-predecessor tie-break decides the picks.
func equalStepRList(rng *rand.Rand, n int) shape.RList {
	dw, dh := int64(1+rng.Intn(3)), int64(1+rng.Intn(3))
	l := make(shape.RList, n)
	for i := range l {
		l[i] = shape.RImpl{W: 1 + dw*int64(n-1-i), H: 1 + dh*int64(i)}
	}
	return l
}

// wideRList builds a canonical R-list with ~2^40 heights and ~2^24 width
// steps: its errors and span fit int64 easily, but raw products such as
// h_j·(w_i − w_{j−1}) wrap, which rErrorPrefix's shifted origin avoids.
func wideRList(rng *rand.Rand, n int) shape.RList {
	l := make(shape.RList, n)
	w, h := int64(1)<<24+rng.Int63n(1<<20), int64(1)<<40+rng.Int63n(1<<20)
	for i := n - 1; i >= 0; i-- {
		l[i].W = w
		w += 1<<24 + rng.Int63n(1<<24)
	}
	for i := range l {
		l[i].H = h
		h += 1 + rng.Int63n(6)
	}
	return l
}

// rListFamilies are the generators the R-path pin tests run over.
var rListFamilies = []struct {
	name string
	gen  func(*rand.Rand, int) shape.RList
}{
	{"random", randomRList},
	{"equal-step", equalStepRList},
	{"wide", wideRList},
}

// at returns error(r_i, r_j) for 0 <= i < j < n from the line form.
func (p *rErrorPrefix) at(i, j int) int64 {
	return p.Slope[i]*p.X[j] + p.Row[i] + p.Col[j]
}

// TestRErrorColumnMatchesTable pins the O(1) line form that R_Selection
// reads each error from to the Compute_R_Error table, entry by entry.
func TestRErrorColumnMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 60; trial++ {
		fam := rListFamilies[trial%len(rListFamilies)]
		n := 2 + rng.Intn(20)
		l := fam.gen(rng, n)
		if err := l.Validate(); err != nil {
			t.Fatalf("%s generator broke: %v", fam.name, err)
		}
		table := ComputeRError(l)
		e := getRErrorPrefix(l)
		for j := 1; j < n; j++ {
			for i := 0; i < j; i++ {
				if got, want := e.at(i, j), table.At(i, j); got != want {
					t.Fatalf("%s: error(%d,%d) = %d, want %d", fam.name, i, j, got, want)
				}
			}
		}
		e.release()
	}
}

// mongeViolation returns the first i < i2 < j < j2 breaking the quadrangle
// inequality E(i,j) + E(i2,j2) <= E(i2,j) + E(i,j2), or ok = true.
func mongeViolation(n int, at func(i, j int) int64) (q [4]int, ok bool) {
	for i := 0; i < n; i++ {
		for i2 := i + 1; i2 < n; i2++ {
			for j := i2 + 1; j < n; j++ {
				for j2 := j + 1; j2 < n; j2++ {
					if at(i, j)+at(i2, j2) > at(i2, j)+at(i, j2) {
						return [4]int{i, i2, j, j2}, false
					}
				}
			}
		}
	}
	return q, true
}

// TestRErrorMonge checks that the Compute_R_Error table is Monge on
// canonical R-lists, including tie-heavy equal-step ones. RSelect's O(kn)
// envelope needs more, the line form that TestRErrorColumnMatchesTable
// pins, and Monge is what SolveDenseMonge, its reference in
// FuzzRSelectAgainstMonge, rests on.
func TestRErrorMonge(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		fam := rListFamilies[trial%len(rListFamilies)]
		n := 4 + rng.Intn(20)
		l := fam.gen(rng, n)
		if q, ok := mongeViolation(n, ComputeRError(l).At); !ok {
			t.Fatalf("%s list not Monge at %v: %v", fam.name, q, l)
		}
	}
}

func TestRErrorTableAtPanics(t *testing.T) {
	l := randomRList(rand.New(rand.NewSource(1)), 5)
	table := ComputeRError(l)
	if table.N() != 5 {
		t.Fatalf("N = %d", table.N())
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 1}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			table.At(bad[0], bad[1])
		}()
	}
}

func TestRSelectMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		k := 2 + r.Intn(n-2)
		l := randomRList(r, n)
		fast, err := RSelect(l, k)
		if err != nil {
			t.Logf("RSelect: %v", err)
			return false
		}
		slow, err := RSelectBrute(l, k)
		if err != nil {
			t.Logf("RSelectBrute: %v", err)
			return false
		}
		if fast.Error != slow.Error {
			t.Logf("n=%d k=%d: fast error %d, brute %d", n, k, fast.Error, slow.Error)
			return false
		}
		// The reported error must match the geometry of the chosen subset.
		area, err := l.StaircaseArea(fast.Indices)
		if err != nil {
			t.Logf("StaircaseArea: %v", err)
			return false
		}
		if area != fast.Error {
			t.Logf("reported error %d != subset area %d", fast.Error, area)
			return false
		}
		return len(fast.Selected) == k && fast.Selected.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRSelectIdentityAndErrors(t *testing.T) {
	l := randomRList(rand.New(rand.NewSource(2)), 6)
	res, err := RSelect(l, 6)
	if err != nil || res.Error != 0 || !res.Selected.Equal(l) {
		t.Fatalf("k=n should be identity: %+v, %v", res, err)
	}
	res, err = RSelect(l, 10)
	if err != nil || res.Error != 0 || !res.Selected.Equal(l) {
		t.Fatalf("k>n should be identity: %+v, %v", res, err)
	}
	if _, err := RSelect(l, 1); err == nil {
		t.Error("k=1 on n>1 should fail")
	}
	if _, err := RSelect(nil, 2); err == nil {
		t.Error("empty list should fail")
	}
	one := shape.RList{{W: 3, H: 4}}
	res, err = RSelect(one, 5)
	if err != nil || len(res.Selected) != 1 {
		t.Fatalf("singleton identity: %+v, %v", res, err)
	}
}

// TestRSelectRejectsWrappingSpan: the corners (3·2⁴⁰, 1), (2·2⁴⁰, 2⁴⁰) and
// (1, 3·2⁴⁰) span a box of ~9·2⁸⁰, and dropping the middle one loses 2⁸¹,
// which wraps int64 to 0. RSelect and RSweep (and RSelectBudget through
// it) must refuse the list with an error naming its size and extents.
// wideRList lists carry ~2⁴⁰ heights on a small span and stay accepted.
func TestRSelectRejectsWrappingSpan(t *testing.T) {
	const e = int64(1) << 40
	l := shape.RList{{W: 3 * e, H: 1}, {W: 2 * e, H: e}, {W: 1, H: 3 * e}}
	extent := strconv.FormatInt(3*e-1, 10)
	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted a list whose span overflows int64", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "3 corners") || strings.Count(msg, extent) != 2 {
			t.Errorf("%s error %q does not name n = 3 and both extents %s", name, msg, extent)
		}
	}
	_, err := RSelect(l, 2)
	check("RSelect", err)
	_, err = RSweep(l, 3)
	check("RSweep", err)
	_, err = RSelectBudget(l, 0)
	check("RSelectBudget", err)

	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 20; trial++ {
		wide := wideRList(rng, 3+rng.Intn(254))
		if _, err := RSelect(wide, 2+rng.Intn(len(wide)-2)); err != nil {
			t.Fatalf("wide list of %d corners rejected: %v", len(wide), err)
		}
		if _, err := RSweep(wide, len(wide)); err != nil {
			t.Fatalf("wide list of %d corners rejected by RSweep: %v", len(wide), err)
		}
	}
}

func TestRSelectEndpointsAlwaysKept(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(40)
		k := 2 + rng.Intn(n-2)
		l := randomRList(rng, n)
		res, err := RSelect(l, k)
		if err != nil {
			t.Fatal(err)
		}
		if res.Indices[0] != 0 || res.Indices[len(res.Indices)-1] != n-1 {
			t.Fatalf("endpoints dropped: %v", res.Indices)
		}
	}
}

func TestRSelectErrorMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	l := randomRList(rng, 30)
	prev := int64(-1)
	for k := 29; k >= 2; k-- {
		res, err := RSelect(l, k)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.Error < prev {
			t.Fatalf("error decreased when k fell to %d: %d < %d", k, res.Error, prev)
		}
		prev = res.Error
	}
}

// TestRSelectionGraph reproduces the paper's Figure 7 construction: build
// the explicit weighted DAG from an R-list (edge (i,j) weighted
// error(r_i, r_j)), solve it with the general CSPP algorithm, and confirm
// R_Selection reports the same optimum. It pins RSelect's Monge solver bit
// for bit — indices and error, every k, n up to 64 — on random, tie-heavy
// equal-step and wraparound-scale lists.
func TestRSelectionGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 24; trial++ {
		fam := rListFamilies[trial%len(rListFamilies)]
		n := 3 + rng.Intn(62)
		if trial < len(rListFamilies) {
			n = 64
		}
		l := fam.gen(rng, n)
		table := ComputeRError(l)
		g := cspp.MustGraph(n)
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				if err := g.AddEdge(i, j, table.At(i, j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 2; k < n; k++ {
			want, err := cspp.Solve(g, 0, n-1, k)
			if err != nil {
				t.Fatalf("%s n=%d k=%d: Solve: %v", fam.name, n, k, err)
			}
			got, err := RSelect(l, k)
			if err != nil {
				t.Fatalf("%s n=%d k=%d: RSelect: %v", fam.name, n, k, err)
			}
			if got.Error != want.Weight || !slices.Equal(got.Indices, want.Path) {
				t.Fatalf("%s n=%d k=%d: RSelect %v (error %d), Solve %v (weight %d)",
					fam.name, n, k, got.Indices, got.Error, want.Path, want.Weight)
			}
		}
	}
}

// TestRSelectConcurrentPooledPrefix runs RSelect and RSweep from several
// goroutines on lists of churning sizes (run with -race): the pooled prefix
// arrays must never leak between calls.
func TestRSelectConcurrentPooledPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	lists := make([]shape.RList, 12)
	want := make([]RResult, len(lists))
	for i := range lists {
		lists[i] = rListFamilies[i%len(rListFamilies)].gen(rng, 3+rng.Intn(60))
		var err error
		if want[i], err = RSelect(lists[i], 2+i%(len(lists[i])-2)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 60; it++ {
				i := (g + it) % len(lists)
				got, err := RSelect(lists[i], len(want[i].Indices))
				if err != nil || got.Error != want[i].Error || !slices.Equal(got.Indices, want[i].Indices) {
					t.Errorf("list %d: got %v (error %d, err %v), want %v (error %d)",
						i, got.Indices, got.Error, err, want[i].Indices, want[i].Error)
					return
				}
				curve, err := RSweep(lists[i], len(want[i].Indices))
				if err != nil || curve[len(curve)-1].Error != want[i].Error {
					t.Errorf("list %d: sweep %v, err %v, want error %d", i, curve, err, want[i].Error)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestUniformRReduce(t *testing.T) {
	l := randomRList(rand.New(rand.NewSource(3)), 20)
	got := UniformRReduce(l, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0] != l[0] || got[4] != l[19] {
		t.Fatal("endpoints not kept")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if res := UniformRReduce(l, 25); !res.Equal(l) {
		t.Error("k >= n should be identity")
	}
	// Uniform sampling is never better than the optimal selection.
	opt, err := RSelect(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	uniIdx := []int{0, 5, 10, 14, 19}
	_ = uniIdx
	var idx []int
	for _, g := range got {
		for i, orig := range l {
			if g == orig {
				idx = append(idx, i)
				break
			}
		}
	}
	uniArea, err := l.StaircaseArea(idx)
	if err != nil {
		t.Fatal(err)
	}
	if uniArea < opt.Error {
		t.Fatalf("uniform area %d beat optimal %d", uniArea, opt.Error)
	}
}
