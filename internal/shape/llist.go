package shape

import (
	"fmt"
	"slices"
)

// LList is an irreducible L-list (Definitions 3 and 5): implementations with
// a common top-edge width W2, ordered with W1 nonincreasing and H1, H2
// nondecreasing, none dominating another. L_Selection operates on exactly
// this structure — the monotone order is what makes Lemma 2 (and hence the
// neighbour formula of Lemma 3) hold.
type LList []LImpl

// Validate checks the L-list invariants.
func (l LList) Validate() error {
	for i, li := range l {
		if !li.Valid() {
			return fmt.Errorf("shape: LList[%d] = %v invalid", i, li)
		}
		if i == 0 {
			continue
		}
		prev := l[i-1]
		switch {
		case li.W2 != prev.W2:
			return fmt.Errorf("shape: LList W2 not constant at %d: %v then %v", i, prev, li)
		case li.W1 > prev.W1:
			return fmt.Errorf("shape: LList W1 increases at %d: %v then %v", i, prev, li)
		case li.H1 < prev.H1:
			return fmt.Errorf("shape: LList H1 decreases at %d: %v then %v", i, prev, li)
		case li.H2 < prev.H2:
			return fmt.Errorf("shape: LList H2 decreases at %d: %v then %v", i, prev, li)
		case prev.Dominates(li) || li.Dominates(prev):
			return fmt.Errorf("shape: LList not irreducible at %d: %v vs %v", i, prev, li)
		}
	}
	return nil
}

// Subset returns the entries at the given strictly increasing indices; a
// subset of a canonical L-list is canonical.
func (l LList) Subset(indices []int) (LList, error) {
	out := make(LList, 0, len(indices))
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

// LSet stores all non-redundant implementations of an L-shaped block as a
// set of irreducible L-lists, the representation [9] uses and the paper's
// L_Selection consumes. Lists are ordered by (W2, first W1) for determinism.
type LSet struct {
	Lists []LList
}

// NewLSet prunes the candidates to their Pareto-minimal subset and partitions
// the survivors into irreducible L-lists.
//
// Within one W2 group the survivors form a 3-d antichain, which in general
// does not fit in a single monotone list; the group is split greedily into
// maximal monotone chains (repeated greedy passes over the points in
// (W1 desc, H1 asc, H2 asc) order). Any such partition is a valid "set of
// irreducible L-lists" in the paper's sense.
func NewLSet(candidates []LImpl) (LSet, error) {
	for _, c := range candidates {
		if !c.Valid() {
			return LSet{}, fmt.Errorf("shape: invalid L implementation %v", c)
		}
	}
	return newLSetUnchecked(candidates), nil
}

// MustLSet is NewLSet for statically known inputs; it panics on error.
func MustLSet(candidates []LImpl) LSet {
	s, err := NewLSet(candidates)
	if err != nil {
		panic(err)
	}
	return s
}

func newLSetUnchecked(candidates []LImpl) LSet {
	return LSetFromMinimal(MinimaL(candidates))
}

// LSetFromMinimal partitions an already Pareto-minimal, deduplicated
// candidate set into irreducible L-lists without re-pruning or re-sorting
// it. The input must be in the kernel order (W2, W1, H1, H2) that MinimaL
// and MinimaLInPlace return. It is reordered in place and overwritten as
// scratch; the result does not retain it. The combine stage uses this on
// its pooled buffers so the re-prune inside MustLSet — and the copy out of
// the buffer — both disappear from the hot path.
func LSetFromMinimal(minimal []LImpl) LSet {
	var set LSet
	for lo := 0; lo < len(minimal); {
		hi := lo + 1
		for hi < len(minimal) && minimal[hi].W2 == minimal[lo].W2 {
			hi++
		}
		// A W2 group arrives in (W1, H1, H2) order. Reversing it, then each
		// run of equal W1 in it, gives the chain order (W1 desc, H1, H2).
		group := minimal[lo:hi]
		slices.Reverse(group)
		for a := 0; a < len(group); {
			b := a + 1
			for b < len(group) && group[b].W1 == group[a].W1 {
				b++
			}
			slices.Reverse(group[a:b])
			a = b
		}
		set.Lists = append(set.Lists, partitionChains(group)...)
		lo = hi
	}
	return set
}

// partitionChains splits one W2 group — already sorted by (W1 desc, H1 asc,
// H2 asc) — into monotone chains by repeated greedy passes. Each pass takes
// the longest prefix-greedy chain from the remaining points; the number of
// passes equals the number of lists produced. The group slice is consumed as
// scratch (compacted in place between passes); each chain is a fresh
// exact-capacity allocation, since chains are retained for the rest of the
// optimizer run and over-capacity here is resident waste.
func partitionChains(group []LImpl) []LList {
	var lists []LList
	remaining := group
	for len(remaining) > 0 {
		// First pass: size the greedy chain so it can be allocated exactly.
		last := remaining[0]
		n := 1
		for _, p := range remaining[1:] {
			if p.W1 <= last.W1 && p.H1 >= last.H1 && p.H2 >= last.H2 {
				last = p
				n++
			}
		}
		// Second pass: collect the chain, compacting the leftovers in place.
		chain := make(LList, 0, n)
		rest := remaining[:0]
		for i, p := range remaining {
			if i == 0 {
				chain = append(chain, p)
				continue
			}
			lastC := chain[len(chain)-1]
			if p.W1 <= lastC.W1 && p.H1 >= lastC.H1 && p.H2 >= lastC.H2 {
				chain = append(chain, p)
			} else {
				rest = append(rest, p)
			}
		}
		lists = append(lists, chain)
		remaining = rest
	}
	return lists
}

// Size returns the total number of implementations across all lists (the
// paper's N for an L-shaped block).
func (s LSet) Size() int {
	n := 0
	for _, l := range s.Lists {
		n += len(l)
	}
	return n
}

// All returns every implementation in the set, list by list.
func (s LSet) All() []LImpl {
	out := make([]LImpl, 0, s.Size())
	for _, l := range s.Lists {
		out = append(out, l...)
	}
	return out
}

// Validate checks that every list is a canonical irreducible L-list and that
// no implementation in one list dominates an implementation in another.
func (s LSet) Validate() error {
	for i, l := range s.Lists {
		if len(l) == 0 {
			return fmt.Errorf("shape: LSet list %d is empty", i)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("shape: LSet list %d: %w", i, err)
		}
	}
	all := s.All()
	minimal := MinimaL(all)
	if len(minimal) != len(all) {
		return fmt.Errorf("shape: LSet holds %d implementations but only %d are non-redundant", len(all), len(minimal))
	}
	return nil
}
