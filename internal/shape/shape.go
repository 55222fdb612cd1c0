// Package shape implements the implementation lists at the heart of
// floorplan area optimization: rectangular implementations (w, h), L-shaped
// implementations (w1, w2, h1, h2), the dominance relation between them
// (Definitions 1–2 of Wang/Wong, TR-91-26), and the canonical irreducible
// R-lists and L-lists the optimizer stores (Definitions 3–5).
//
// Conventions (matching the paper):
//
//   - A rectangular implementation is (W, H).
//   - An L-shaped implementation is (W1, W2, H1, H2) with W1 >= W2 and
//     H1 >= H2, where W1 is the bottom edge width, W2 the top edge width,
//     H1 the left edge height and H2 the right edge height. The notch sits
//     at the top-right: the occupied region is
//     [0,W1]x[0,H2] ∪ [0,W2]x[H2,H1].
//   - Implementation I1 dominates I2 when every component of I1 is >= the
//     corresponding component of I2; a dominating implementation is
//     redundant because anything built from it is at least as large.
//
// All constructors prune redundant implementations, so a shape list held by
// the optimizer is always irreducible.
package shape

import "fmt"

// RImpl is one implementation of a rectangular block.
type RImpl struct {
	W, H int64
}

// Area returns W*H.
func (r RImpl) Area() int64 { return r.W * r.H }

// Dominates reports whether r dominates o (Definition 1): r.W >= o.W and
// r.H >= o.H. Equal implementations dominate each other.
func (r RImpl) Dominates(o RImpl) bool { return r.W >= o.W && r.H >= o.H }

// Valid reports whether r has positive extents.
func (r RImpl) Valid() bool { return r.W > 0 && r.H > 0 }

// Rotate returns the 90-degree rotation of r.
func (r RImpl) Rotate() RImpl { return RImpl{W: r.H, H: r.W} }

// String implements fmt.Stringer.
func (r RImpl) String() string { return fmt.Sprintf("(%d,%d)", r.W, r.H) }

// LImpl is one implementation of an L-shaped block, as the paper's 4-tuple
// (w1, w2, h1, h2). The degenerate cases W1 == W2 or H1 == H2 describe a
// plain rectangle.
type LImpl struct {
	W1, W2, H1, H2 int64
}

// Valid reports whether l satisfies the canonical constraints
// W1 >= W2 > 0 and H1 >= H2 > 0.
func (l LImpl) Valid() bool {
	return l.W2 > 0 && l.H2 > 0 && l.W1 >= l.W2 && l.H1 >= l.H2
}

// IsRect reports whether l degenerates to a rectangle (empty notch).
func (l LImpl) IsRect() bool { return l.W1 == l.W2 || l.H1 == l.H2 }

// Area returns the occupied area of the L: the full-width bottom slab plus
// the top-left slab above the notch line.
func (l LImpl) Area() int64 { return l.W1*l.H2 + l.W2*(l.H1-l.H2) }

// Dominates reports whether l dominates o (Definition 1): every one of the
// four components of l is >= the corresponding component of o.
func (l LImpl) Dominates(o LImpl) bool {
	return l.W1 >= o.W1 && l.W2 >= o.W2 && l.H1 >= o.H1 && l.H2 >= o.H2
}

// Dist returns the Manhattan (L1) distance between l and o viewed as points
// of R^4, the measure L_Selection uses for the cost of a discarded
// implementation (Section 4.3 of the paper).
func (l LImpl) Dist(o LImpl) int64 {
	return abs64(l.W1-o.W1) + abs64(l.W2-o.W2) + abs64(l.H1-o.H1) + abs64(l.H2-o.H2)
}

// String implements fmt.Stringer.
func (l LImpl) String() string {
	return fmt.Sprintf("(%d,%d,%d,%d)", l.W1, l.W2, l.H1, l.H2)
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
