package selection

import (
	"fmt"
	"sync/atomic"

	"floorplan/internal/cspp"
	"floorplan/internal/shape"
)

// This file implements the fused error+CSPP passes: instead of
// materializing an error table and copying its columns into the dense
// solver, selection drives cspp.SolveDenseColumns, generating each error
// column exactly once — on the fly, from a recurrence — while the DP
// consumes it.
//
// For R_Selection this turns the per-(layer, j) column regeneration of the
// streamed DP into a single generation per j (a factor-k reduction of the
// column work). For L_Selection under the Manhattan metric it removes the
// O(n³) Compute_L_Error table entirely: on a canonical L-list the L1
// distance telescopes (see lFusedColumn), so one prefix-sum array plus a
// monotone two-pointer yields any error column in amortized O(n), for an
// O(kn²) total — the same bound as R_Selection. Non-telescoping metrics
// (Chebyshev, squared Euclidean) keep the table path; that is the fused
// pass's applicability cutoff, not a size heuristic, and DESIGN.md §11
// records it.
//
// Both fused passes produce bit-identical selections to the table paths:
// the weights are algebraically equal and the CSPP's tie-breaks match the
// paper-verbatim cspp.Solve on the materialized table (pinned by tests here
// and in package cspp).

// Fused-pass hit counters. Process-wide (like the cspp DP pool counters):
// telemetry collectors snapshot deltas around a run, so concurrent runs see
// combined counts — documented in the report's runtime section.
var (
	fusedRPasses atomic.Int64
	fusedLPasses atomic.Int64
	tableLPasses atomic.Int64
)

// FusedCounters returns the cumulative fused-pass statistics: R-selections
// solved via the fused column DP, L-selections solved via the fused
// Manhattan pass, and L-selections that fell back to the error table.
func FusedCounters() (fusedR, fusedL, tableL int64) {
	return fusedRPasses.Load(), fusedLPasses.Load(), tableLPasses.Load()
}

// lListTelescopes reports whether the fused Manhattan recurrence applies to
// l: constant W2, W1 nonincreasing, H1 and H2 nondecreasing — the canonical
// irreducible L-list shape (LList.Validate), under which the L1 distance
// between positions i < q collapses to s(q) - s(i) with s = H1 + H2 - W1.
// Canonicality is part of LSelect's contract, but the O(n) check keeps the
// fused path self-guarding: a non-canonical list silently falls back to the
// general table, whose abs-based distances need no monotonicity.
func lListTelescopes(l shape.LList) bool {
	for i := 1; i < len(l); i++ {
		if l[i].W2 != l[0].W2 || l[i].W1 > l[i-1].W1 ||
			l[i].H1 < l[i-1].H1 || l[i].H2 < l[i-1].H2 {
			return false
		}
	}
	return true
}

// lSelectFused is L_Selection under the Manhattan metric on a telescoping
// list. For retained neighbours i < j, each discarded q in between pays
// min(s(q)-s(i), s(j)-s(q)); the discarded positions split at the largest m
// with 2·s(m) <= s(i)+s(j) (ties pay the left neighbour, matching the
// table's `if dr < dl` comparison), so with prefix sums of s each error
// column col[i] = error(i, j) closes in O(1) after a monotone pointer move.
func lSelectFused(l shape.LList, k int) (LResult, error) {
	n := len(l)
	s := make([]int64, n)
	p := make([]int64, n+1)
	for i, li := range l {
		s[i] = li.H1 + li.H2 - li.W1
		p[i+1] = p[i] + s[i]
	}
	column := func(v int, col []int64) {
		m := v - 1
		sv := s[v]
		for i := v - 1; i >= 0; i-- {
			si := s[i]
			for m > i && 2*s[m] > si+sv {
				m--
			}
			col[i] = (p[m+1] - p[i+1]) - int64(m-i)*si +
				int64(v-1-m)*sv - (p[v] - p[m+1])
		}
	}
	indices, weight, err := cspp.SolveDenseColumns(n, k, column)
	if err != nil {
		return LResult{}, fmt.Errorf("selection: LSelect CSPP: %w", err)
	}
	fusedLPasses.Add(1)
	sub, err := l.Subset(indices)
	if err != nil {
		return LResult{}, fmt.Errorf("selection: LSelect traceback: %w", err)
	}
	return LResult{Selected: sub, Indices: indices, Error: weight}, nil
}
