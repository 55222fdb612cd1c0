package selection

import (
	"fmt"

	"floorplan/internal/shape"
)

// Metric selects the distance used by L_Selection to price a discarded
// implementation. Footnote 2 of the paper: "we can use any L_p metric to
// measure the distance … all the lemmas and theorem presented in this
// subsection remain correct for any L_p metric." The lemmas only need the
// distance to be monotone in the per-coordinate differences, which every
// choice below satisfies.
type Metric int

const (
	// Manhattan is the paper's default L1 metric.
	Manhattan Metric = iota
	// Chebyshev is the L∞ metric: the largest coordinate difference.
	Chebyshev
	// EuclideanSq is the squared L2 metric. The square keeps arithmetic
	// exact over int64; minimizing summed squared distances penalizes
	// large gaps harder than L1.
	EuclideanSq
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Manhattan:
		return "L1"
	case Chebyshev:
		return "Linf"
	case EuclideanSq:
		return "L2sq"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Valid reports whether m names a known metric.
func (m Metric) Valid() bool {
	return m == Manhattan || m == Chebyshev || m == EuclideanSq
}

// Dist returns the distance between two L-shaped implementations under m.
func (m Metric) Dist(a, b shape.LImpl) int64 {
	d1 := abs64(a.W1 - b.W1)
	d2 := abs64(a.W2 - b.W2)
	d3 := abs64(a.H1 - b.H1)
	d4 := abs64(a.H2 - b.H2)
	switch m {
	case Manhattan:
		return d1 + d2 + d3 + d4
	case Chebyshev:
		return max64(max64(d1, d2), max64(d3, d4))
	case EuclideanSq:
		return d1*d1 + d2*d2 + d3*d3 + d4*d4
	default:
		panic(fmt.Sprintf("selection: unknown metric %d", int(m)))
	}
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ComputeLErrorMetric runs the paper's O(n^3) Compute_L_Error under the
// metric m:
//
//	error(l_i, l_j) = sum over i < q < j of min(dist(l_i, l_q), dist(l_q, l_j))
func ComputeLErrorMetric(l shape.LList, m Metric) *LErrorTable {
	n := len(l)
	t := &LErrorTable{n: n, tab: make([]int64, n*n)}
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			var e int64
			for q := i + 1; q < j; q++ {
				dl := m.Dist(l[i], l[q])
				dr := m.Dist(l[q], l[j])
				if dr < dl {
					dl = dr
				}
				e += dl
			}
			t.tab[i*n+j] = e
		}
	}
	return t
}

// LSubsetErrorMetric computes ERROR(L, L') under the metric m directly from
// the definition — each discarded implementation pays its distance to the
// nearest retained one, searched over the *whole* retained set rather than
// just the neighbours. It is the independent oracle used to validate
// Lemma 3 and the selection results in tests. indices must be strictly
// increasing and include both endpoints.
func LSubsetErrorMetric(l shape.LList, indices []int, m Metric) (int64, error) {
	n := len(l)
	if len(indices) < 2 || indices[0] != 0 || indices[len(indices)-1] != n-1 {
		return 0, fmt.Errorf("selection: subset must include both endpoints")
	}
	retained := make(map[int]bool, len(indices))
	prev := -1
	for _, idx := range indices {
		if idx <= prev || idx >= n {
			return 0, fmt.Errorf("selection: bad subset index %d", idx)
		}
		retained[idx] = true
		prev = idx
	}
	var total int64
	for q := 0; q < n; q++ {
		if retained[q] {
			continue
		}
		best := int64(-1)
		for _, idx := range indices {
			d := m.Dist(l[q], l[idx])
			if best < 0 || d < best {
				best = d
			}
		}
		total += best
	}
	return total, nil
}
