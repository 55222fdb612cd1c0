package shape

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRListPrunesAndSorts(t *testing.T) {
	in := []RImpl{
		{3, 5}, {5, 3}, {4, 4}, // the staircase
		{5, 5},         // dominates everything
		{4, 5}, {5, 4}, // dominate a corner each
		{3, 5}, // duplicate
	}
	l, err := NewRList(in)
	if err != nil {
		t.Fatal(err)
	}
	want := RList{{5, 3}, {4, 4}, {3, 5}}
	if !l.Equal(want) {
		t.Fatalf("NewRList = %v, want %v", l, want)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRListRejectsInvalid(t *testing.T) {
	if _, err := NewRList([]RImpl{{0, 5}}); err == nil {
		t.Error("expected error for zero-width implementation")
	}
	if _, err := NewRList([]RImpl{{5, -1}}); err == nil {
		t.Error("expected error for negative-height implementation")
	}
}

func TestNewRListEmpty(t *testing.T) {
	l, err := NewRList(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 0 {
		t.Errorf("expected empty list, got %v", l)
	}
}

func TestRListBest(t *testing.T) {
	l := MustRList([]RImpl{{10, 2}, {6, 3}, {4, 5}, {2, 12}})
	best, at := l.Best()
	if best != (RImpl{6, 3}) || at != 1 {
		t.Errorf("Best = %v at %d, want (6,3) at 1", best, at)
	}
}

func TestRListSubset(t *testing.T) {
	l := MustRList([]RImpl{{10, 2}, {6, 3}, {4, 5}, {2, 12}})
	sub, err := l.Subset([]int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := RList{{10, 2}, {4, 5}, {2, 12}}
	if !sub.Equal(want) {
		t.Errorf("Subset = %v, want %v", sub, want)
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("subset of canonical list not canonical: %v", err)
	}
	if _, err := l.Subset([]int{0, 0}); err == nil {
		t.Error("expected error for repeated index")
	}
	if _, err := l.Subset([]int{0, 4}); err == nil {
		t.Error("expected error for out-of-range index")
	}
}

// TestStaircaseAreaFigure6 reproduces the geometry of the paper's Figure 6:
// selecting R' = {r1, r3, r4, r6} from a 6-corner staircase loses exactly
// the two rectangles A1 (between r1 and r3, i.e. corner r2's strip) and A2
// (between r4 and r6, corner r5's strip).
func TestStaircaseAreaFigure6(t *testing.T) {
	l := MustRList([]RImpl{
		{12, 1}, {10, 2}, {8, 4}, {6, 6}, {4, 9}, {2, 11},
	})
	area, err := l.StaircaseArea([]int{0, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// A1: corner r2=(10,2) skipped between r1=(12,1) and r3=(8,4):
	//     (12-10)*(4-2) = 4.
	// A2: corner r5=(4,9) skipped between r4=(6,6) and r6=(2,11):
	//     (6-4)*(11-9) = 4.
	if area != 8 {
		t.Errorf("StaircaseArea = %d, want 8", area)
	}
}

func TestStaircaseAreaFullSelection(t *testing.T) {
	l := MustRList([]RImpl{{12, 1}, {10, 2}, {8, 4}, {6, 6}})
	area, err := l.StaircaseArea([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if area != 0 {
		t.Errorf("selecting everything should cost 0, got %d", area)
	}
}

func TestStaircaseAreaErrors(t *testing.T) {
	l := MustRList([]RImpl{{12, 1}, {10, 2}, {8, 4}})
	if _, err := l.StaircaseArea([]int{0, 1}); err == nil {
		t.Error("expected error when final endpoint missing")
	}
	if _, err := l.StaircaseArea([]int{1, 2}); err == nil {
		t.Error("expected error when first endpoint missing")
	}
}

// randomRImpls draws n implementations from a small grid so that duplicates
// and dominations are frequent.
func randomRImpls(rng *rand.Rand, n int) []RImpl {
	out := make([]RImpl, n)
	for i := range out {
		out[i] = RImpl{W: 1 + rng.Int63n(20), H: 1 + rng.Int63n(20)}
	}
	return out
}

func TestNewRListProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomRImpls(r, 1+r.Intn(60))
		l, err := NewRList(in)
		if err != nil {
			return false
		}
		if err := l.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// Every kept element came from the input.
		inSet := make(map[RImpl]bool, len(in))
		for _, c := range in {
			inSet[c] = true
		}
		for _, k := range l {
			if !inSet[k] {
				t.Logf("kept %v not in input", k)
				return false
			}
		}
		// Minimality: every input element dominates (or equals) some kept
		// element, and no kept element dominates a different input element
		// that itself is kept.
		for _, c := range in {
			covered := false
			for _, k := range l {
				if c.Dominates(k) {
					covered = true
					break
				}
			}
			if !covered {
				t.Logf("input %v not covered by any kept element", c)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
