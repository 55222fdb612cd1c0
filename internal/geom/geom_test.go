package geom

import "testing"

func TestNewRect(t *testing.T) {
	r, err := NewRect(2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Width() != 4 || r.Height() != 5 || r.Area() != 20 {
		t.Errorf("rect = %v", r)
	}
	if _, err := NewRect(0, 0, -1, 2); err == nil {
		t.Error("expected error for negative width")
	}
	if _, err := NewRect(0, 0, 1, -2); err == nil {
		t.Error("expected error for negative height")
	}
}

func TestRectWHPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative size")
		}
	}()
	RectWH(-1, 1)
}

func TestRectPredicates(t *testing.T) {
	r := RectWH(10, 10)
	inner := Rect{MinX: 2, MinY: 2, MaxX: 8, MaxY: 8}
	if !r.Contains(inner) {
		t.Error("Contains failed for strict inner")
	}
	if !r.Contains(r) {
		t.Error("Contains failed for itself")
	}
	outside := Rect{MinX: 5, MinY: 5, MaxX: 11, MaxY: 8}
	if r.Contains(outside) {
		t.Error("Contains passed for protruding rect")
	}
	if !r.Overlaps(outside) {
		t.Error("Overlaps failed for partial overlap")
	}
	touch := Rect{MinX: 10, MinY: 0, MaxX: 20, MaxY: 10}
	if r.Overlaps(touch) {
		t.Error("edge-touching rects must not overlap")
	}
	if r.Empty() {
		t.Error("10x10 rect reported empty")
	}
	if !RectWH(0, 5).Empty() {
		t.Error("zero-width rect not reported empty")
	}
}

func TestPointOps(t *testing.T) {
	p := Point{4, 6}
	if p.String() != "(4,6)" {
		t.Errorf("String = %s", p.String())
	}
}
