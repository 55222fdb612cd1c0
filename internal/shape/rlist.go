package shape

import (
	"fmt"
	"slices"
)

// RList is an irreducible R-list (Definitions 4–5): implementations sorted
// with strictly decreasing width and strictly increasing height, none
// dominating another. The first entry is the rightmost (widest, shortest)
// staircase corner, matching the paper's r_1 … r_n ordering.
//
// Construct RLists with NewRList; code elsewhere may assume the canonical
// order and irreducibility.
type RList []RImpl

// NewRList builds an irreducible R-list from arbitrary candidate
// implementations by discarding redundant (dominating) ones and sorting the
// survivors. Invalid candidates (non-positive extents) are rejected.
func NewRList(candidates []RImpl) (RList, error) {
	for _, c := range candidates {
		if !c.Valid() {
			return nil, fmt.Errorf("shape: invalid rectangular implementation %v", c)
		}
	}
	return newRListUnchecked(candidates), nil
}

// MustRList is NewRList for statically known inputs; it panics on error.
func MustRList(candidates []RImpl) RList {
	l, err := NewRList(candidates)
	if err != nil {
		panic(err)
	}
	return l
}

// newRListUnchecked prunes and sorts without validating extents. It is the
// hot path used by the combine package, whose candidates are valid by
// construction. One exact-size allocation: the sweep compacts survivors into
// the sorted copy in place instead of growing a second slice.
func newRListUnchecked(candidates []RImpl) RList {
	if len(candidates) == 0 {
		return nil
	}
	pts := make([]RImpl, len(candidates))
	copy(pts, candidates)
	return minimaRSorted(pts)
}

// MinimaRInPlace is R-list construction taking ownership of buf: it sorts
// and compacts buf, returning the canonical list as a prefix sharing buf's
// backing array. The combine stage uses it to prune its pooled candidate
// buffers without copying them out.
func MinimaRInPlace(buf []RImpl) RList {
	if len(buf) == 0 {
		return nil
	}
	return minimaRSorted(buf)
}

// minimaRSorted prunes buf in place: sort by width ascending, height
// ascending; a left-to-right sweep then keeps exactly the minimal staircase
// (an implementation survives only if it is strictly shorter than everything
// narrower than it).
func minimaRSorted(buf []RImpl) RList {
	slices.SortFunc(buf, func(a, b RImpl) int {
		if a.W != b.W {
			return cmpInt64(a.W, b.W)
		}
		return cmpInt64(a.H, b.H)
	})
	kept := buf[:0]
	for _, p := range buf {
		if len(kept) > 0 && kept[len(kept)-1].W == p.W {
			// same width: the earlier (shorter) one dominates-from-above;
			// p is redundant (p.H >= previous H by sort order).
			continue
		}
		// Wider point p dominates any earlier point with H <= p.H; such an
		// earlier point makes p redundant. Earlier heights are strictly
		// decreasing, so only the last kept height matters.
		if len(kept) > 0 && kept[len(kept)-1].H <= p.H {
			continue
		}
		kept = append(kept, p)
	}
	// kept is sorted W ascending / H descending; the paper's R-list order is
	// W descending / H ascending.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}
	return RList(kept)
}

// Validate checks the R-list invariants: all implementations valid, widths
// strictly decreasing, heights strictly increasing.
func (l RList) Validate() error {
	for i, r := range l {
		if !r.Valid() {
			return fmt.Errorf("shape: RList[%d] = %v invalid", i, r)
		}
		if i > 0 {
			prev := l[i-1]
			if r.W >= prev.W {
				return fmt.Errorf("shape: RList widths not strictly decreasing at %d: %v then %v", i, prev, r)
			}
			if r.H <= prev.H {
				return fmt.Errorf("shape: RList heights not strictly increasing at %d: %v then %v", i, prev, r)
			}
		}
	}
	return nil
}

// Best returns the minimum-area implementation and its index.
// It panics on an empty list.
func (l RList) Best() (RImpl, int) {
	if len(l) == 0 {
		panic("shape: Best of empty RList")
	}
	best, at := l[0], 0
	for i, r := range l[1:] {
		if r.Area() < best.Area() {
			best, at = r, i+1
		}
	}
	return best, at
}

// Clone returns a copy of l that shares no storage with it.
func (l RList) Clone() RList {
	if l == nil {
		return nil
	}
	out := make(RList, len(l))
	copy(out, l)
	return out
}

// Subset returns the R-list consisting of l's entries at the given sorted
// index list. Indices must be strictly increasing and in range; the result
// of selecting from a canonical list is canonical.
func (l RList) Subset(indices []int) (RList, error) {
	out := make(RList, 0, len(indices))
	prev := -1
	for _, idx := range indices {
		if idx <= prev || idx >= len(l) {
			return nil, fmt.Errorf("shape: bad subset index %d (prev %d, len %d)", idx, prev, len(l))
		}
		out = append(out, l[idx])
		prev = idx
	}
	return out, nil
}

// StaircaseArea returns the area bounded between the staircase of the full
// list and the staircase of a subset of it that shares the full list's
// endpoints — the paper's ERROR(R, R') (Section 4.2, Figure 6). indices must
// be strictly increasing, start at 0 and end at len(l)-1.
//
// This closed-form version exists independently of the selection package's
// O(n^2) dynamic program so that the two can be cross-checked in tests:
// between consecutive selected corners d_q < d_{q+1} the lost region is the
// union of strips (w_{d_q} - w_m)(h_{m+1} - h_m) for the skipped corners m.
func (l RList) StaircaseArea(indices []int) (int64, error) {
	if len(l) == 0 {
		return 0, nil
	}
	if len(indices) < 2 || indices[0] != 0 || indices[len(indices)-1] != len(l)-1 {
		return 0, fmt.Errorf("shape: subset must include both endpoints of the list")
	}
	var total int64
	for q := 0; q+1 < len(indices); q++ {
		i, j := indices[q], indices[q+1]
		if j <= i {
			return 0, fmt.Errorf("shape: subset indices not increasing: %d then %d", i, j)
		}
		for m := i + 1; m < j; m++ {
			total += (l[i].W - l[m].W) * (l[m+1].H - l[m].H)
		}
	}
	return total, nil
}

// Equal reports whether two R-lists contain the same implementations in the
// same order.
func (l RList) Equal(o RList) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}
