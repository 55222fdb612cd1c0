package selection

import (
	"math/big"
	"slices"
	"testing"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// FuzzRSelectAgainstMonge holds the line-envelope solver behind RSelect to
// cspp.SolveDenseMonge on the same error, index for index, and RSweep's
// curve to RSelect's errors, at the input's k, at k = 2 and at k = n−1.
// The input is a staircase: corner n−1 has the smallest width and corner 0
// the smallest height (lifted by base up to ~2⁴²), and each pair of step
// bytes adds 1–16 units of width and of height, scaled by 2^wshift and
// 2^hshift. Equal bytes make equal steps, the tie-heavy case. A list whose
// span overflows int64 must be rejected by both entry points.
func FuzzRSelectAgainstMonge(f *testing.F) {
	f.Fuzz(func(t *testing.T, base int64, wshift, hshift uint8, steps []byte, kk uint16) {
		n := min(len(steps)/2, 255) + 1
		if n < 3 {
			return
		}
		l := make(shape.RList, n)
		l[n-1].W = 1 + base&0xffff
		for i := n - 2; i >= 0; i-- {
			l[i].W = l[i+1].W + int64(1+steps[2*i]&15)<<(wshift%40)
		}
		l[0].H = 1 + base>>16&(1<<42-1)
		for i := 1; i < n; i++ {
			l[i].H = l[i-1].H + int64(1+steps[2*i-1]&15)<<(hshift%40)
		}
		k := 2 + int(kk)%(n-2)
		span := new(big.Int).Mul(big.NewInt(l[0].W-l[n-1].W), big.NewInt(l[n-1].H-l[0].H))
		if !span.IsInt64() {
			if res, err := RSelect(l, k); err == nil {
				t.Fatalf("n=%d span %v: RSelect accepted it, error %d", n, span, res.Error)
			}
			if _, err := RSweep(l, n); err == nil {
				t.Fatalf("n=%d span %v: RSweep accepted it", n, span)
			}
			return
		}
		curve, err := RSweep(l, n)
		if err != nil {
			t.Fatalf("n=%d: RSweep: %v", n, err)
		}
		e := getRErrorPrefix(l)
		defer e.release()
		for _, k := range []int{k, 2, n - 1} {
			got, err := RSelect(l, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: RSelect: %v", n, k, err)
			}
			want, weight, err := cspp.SolveDenseMonge(n, k, e.at)
			if err != nil || got.Error != weight || !slices.Equal(got.Indices, want) {
				t.Fatalf("n=%d k=%d: RSelect %v (error %d), Monge %v (error %d, %v)",
					n, k, got.Indices, got.Error, want, weight, err)
			}
			if area, err := l.StaircaseArea(got.Indices); err != nil || area != got.Error {
				t.Fatalf("n=%d k=%d: reported error %d, subset area %d (%v)", n, k, got.Error, area, err)
			}
			if curve[k-2].Error != got.Error {
				t.Fatalf("n=%d k=%d: sweep %d, RSelect %d", n, k, curve[k-2].Error, got.Error)
			}
		}
	})
}
