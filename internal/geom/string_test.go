package geom

import "testing"

func TestRectString(t *testing.T) {
	r := Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 6}
	if got := r.String(); got != "[1,4)x[2,6)" {
		t.Errorf("Rect.String = %q", got)
	}
}
