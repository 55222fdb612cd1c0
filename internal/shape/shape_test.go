package shape

import "testing"

func TestRImplBasics(t *testing.T) {
	r := RImpl{W: 4, H: 3}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %d, want 12", got)
	}
	if rot := r.Rotate(); rot != (RImpl{W: 3, H: 4}) {
		t.Errorf("Rotate = %v", rot)
	}
	if !r.Valid() {
		t.Error("Valid = false for positive rect")
	}
	if (RImpl{W: 0, H: 3}).Valid() {
		t.Error("Valid = true for zero width")
	}
}

func TestRImplDominates(t *testing.T) {
	tests := []struct {
		a, b RImpl
		want bool
	}{
		{RImpl{4, 3}, RImpl{4, 3}, true},   // equal tuples dominate each other
		{RImpl{5, 3}, RImpl{4, 3}, true},   // wider
		{RImpl{4, 4}, RImpl{4, 3}, true},   // taller
		{RImpl{3, 3}, RImpl{4, 3}, false},  // narrower
		{RImpl{5, 2}, RImpl{4, 3}, false},  // incomparable
		{RImpl{10, 10}, RImpl{1, 1}, true}, // strictly larger
	}
	for _, tc := range tests {
		if got := tc.a.Dominates(tc.b); got != tc.want {
			t.Errorf("%v.Dominates(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestLImplGeometry(t *testing.T) {
	l := LImpl{W1: 6, W2: 4, H1: 5, H2: 2}
	if !l.Valid() {
		t.Fatal("Valid = false")
	}
	if l.IsRect() {
		t.Error("IsRect = true for a proper L")
	}
	// Bottom slab 6x2 plus upper slab 4x3.
	if got := l.Area(); got != 6*2+4*3 {
		t.Errorf("Area = %d, want %d", got, 6*2+4*3)
	}
	deg := LImpl{W1: 4, W2: 4, H1: 5, H2: 2}
	if !deg.IsRect() {
		t.Error("IsRect = false for W1 == W2")
	}
	if got := deg.Area(); got != 4*5 {
		t.Errorf("degenerate Area = %d, want 20", got)
	}
	deg2 := LImpl{W1: 6, W2: 4, H1: 2, H2: 2}
	if !deg2.IsRect() {
		t.Error("IsRect = false for H1 == H2")
	}
	if got := deg2.Area(); got != 6*2 {
		t.Errorf("degenerate Area = %d, want 12", got)
	}
}

func TestLImplValid(t *testing.T) {
	bad := []LImpl{
		{W1: 3, W2: 4, H1: 5, H2: 2}, // W1 < W2
		{W1: 4, W2: 4, H1: 1, H2: 2}, // H1 < H2
		{W1: 4, W2: 0, H1: 5, H2: 2}, // zero top width
		{W1: 4, W2: 4, H1: 5, H2: 0}, // zero right height
	}
	for _, l := range bad {
		if l.Valid() {
			t.Errorf("Valid = true for %v", l)
		}
	}
}

func TestLImplDominates(t *testing.T) {
	a := LImpl{6, 4, 5, 2}
	if !a.Dominates(a) {
		t.Error("self-domination should hold")
	}
	b := LImpl{6, 4, 5, 3}
	if !b.Dominates(a) || a.Dominates(b) {
		t.Error("one-coordinate increase should dominate one way only")
	}
	c := LImpl{7, 3, 5, 2}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("incomparable tuples should not dominate")
	}
}

func TestLImplDist(t *testing.T) {
	// The paper's Section 4.3 distance; with equal W2 the |w2 - w2'| term
	// vanishes.
	a := LImpl{10, 4, 3, 1}
	b := LImpl{7, 4, 5, 4}
	if got := a.Dist(b); got != 3+0+2+3 {
		t.Errorf("Dist = %d, want 8", got)
	}
	if a.Dist(b) != b.Dist(a) {
		t.Error("Dist not symmetric")
	}
	if a.Dist(a) != 0 {
		t.Error("Dist(a,a) != 0")
	}
}
