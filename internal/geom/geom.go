// Package geom provides the integer geometry primitives shared by the
// floorplan optimizer: points and axis-aligned rectangles. All coordinates
// are int64 "layout units"; using integers keeps every area and error
// computation exact and every run deterministic.
package geom

import "fmt"

// Point is a point in the layout plane.
type Point struct {
	X, Y int64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle spanning [MinX,MaxX) × [MinY,MaxY).
// A Rect is valid when MinX <= MaxX and MinY <= MaxY; zero width or height
// is permitted (an empty rectangle).
type Rect struct {
	MinX, MinY, MaxX, MaxY int64
}

// NewRect builds a rectangle from its lower-left corner and its size.
// Negative sizes are rejected.
func NewRect(x, y, w, h int64) (Rect, error) {
	if w < 0 || h < 0 {
		return Rect{}, fmt.Errorf("geom: negative rectangle size %dx%d", w, h)
	}
	return Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}, nil
}

// RectWH builds a rectangle at the origin with the given size.
// It panics on negative sizes; use NewRect when the inputs are untrusted.
func RectWH(w, h int64) Rect {
	r, err := NewRect(0, 0, w, h)
	if err != nil {
		panic(err)
	}
	return r
}

// Width returns the horizontal extent of r.
func (r Rect) Width() int64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() int64 { return r.MaxY - r.MinY }

// Area returns Width*Height.
func (r Rect) Area() int64 { return r.Width() * r.Height() }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.Width() == 0 || r.Height() == 0 }

// Valid reports whether r is well formed (non-negative extents).
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Contains reports whether inner lies entirely inside r (boundaries may
// touch). Empty rectangles positioned inside r are contained.
func (r Rect) Contains(inner Rect) bool {
	return inner.MinX >= r.MinX && inner.MaxX <= r.MaxX &&
		inner.MinY >= r.MinY && inner.MaxY <= r.MaxY
}

// Overlaps reports whether r and s share interior area. Rectangles that
// merely touch along an edge or corner do not overlap.
func (r Rect) Overlaps(s Rect) bool {
	return r.MinX < s.MaxX && s.MinX < r.MaxX &&
		r.MinY < s.MaxY && s.MinY < r.MaxY
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.MinX, r.MaxX, r.MinY, r.MaxY)
}
