package selection

import (
	"fmt"

	"floorplan/internal/shape"
)

// LErrorTable holds error(l_i, l_j) for all 0 <= i < j < n of one
// irreducible L-list: the summed cost of discarding every implementation
// strictly between positions i and j, where each discarded l_q costs its
// distance to the nearer of its two retained neighbours (Lemma 3 of the
// paper shows the nearest retained implementation is always one of the two
// neighbours, by the monotonicity of Lemma 2).
type LErrorTable struct {
	n   int
	tab []int64
}

// At returns error(l_i, l_j). It panics unless 0 <= i < j < n.
func (t *LErrorTable) At(i, j int) int64 {
	if i < 0 || j <= i || j >= t.n {
		panic(fmt.Sprintf("selection: LErrorTable.At(%d,%d) out of range, n=%d", i, j, t.n))
	}
	return t.tab[i*t.n+j]
}

// N returns the list length the table was built for.
func (t *LErrorTable) N() int { return t.n }

// ComputeLError runs the paper's O(n^3) Compute_L_Error verbatim, the
// reference lErrorL1 is pinned to:
//
//	error(l_i, l_j) = sum over i < q < j of min(dist(l_i, l_q), dist(l_q, l_j))
func ComputeLError(l shape.LList) *LErrorTable {
	n := len(l)
	t := &LErrorTable{n: n, tab: make([]int64, n*n)}
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			var e int64
			for q := i + 1; q < j; q++ {
				e += min(l[i].Dist(l[q]), l[q].Dist(l[j]))
			}
			t.tab[i*n+j] = e
		}
	}
	return t
}

// LSubsetError computes ERROR(L, L') directly from the definition — each
// discarded implementation pays its distance to the nearest retained one,
// searched over the *whole* retained set rather than just the neighbours.
// It is the independent oracle used to validate Lemma 3 and the selection
// results in tests. indices must be strictly increasing and include both
// endpoints.
func LSubsetError(l shape.LList, indices []int) (int64, error) {
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
			if d := l[q].Dist(l[idx]); best < 0 || d < best {
				best = d
			}
		}
		total += best
	}
	return total, nil
}

// lErrorL1 answers the Manhattan error(l_i, l_j) in O(log n) from one
// prefix-sum array, so L_Selection never builds the O(n^3) table.
// On a canonical list (lListTelescopes) the L1 distance between positions
// i < q telescopes to s(q) - s(i), with s = H1 + H2 - W1 nondecreasing. A
// discarded q between retained i < j pays min(s(q)-s(i), s(j)-s(q)): the
// left distance up to the largest m in [i, j-1] with 2·s(m) <= s(i)+s(j),
// the right one after it. With P[t] = Σ_{q<t} s(q), the array itself,
//
//	error(i, j) = (P[m+1] - P[i+1]) - (m-i)·s(i) + (j-1-m)·s(j) - (P[j] - P[m+1]),
//
// and m is a binary search on s(q) = P[q+1] - P[q].
type lErrorL1 []int64

func newLErrorL1(l shape.LList) lErrorL1 {
	p := make(lErrorL1, len(l)+1)
	for i, li := range l {
		p[i+1] = p[i] + li.H1 + li.H2 - li.W1
	}
	return p
}

// at returns error(l_i, l_j) for 0 <= i < j < n.
func (p lErrorL1) at(i, j int) int64 {
	si, sj := p[i+1]-p[i], p[j+1]-p[j]
	// lo ends at m+1: the first position in (i, j) with 2·s > si+sj, else j.
	lo, hi := i+1, j
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if 2*(p[mid+1]-p[mid]) > si+sj {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	m := lo - 1
	return (p[m+1] - p[i+1]) - int64(m-i)*si + int64(j-1-m)*sj - (p[j] - p[m+1])
}
