// Package memtrack counts stored implementations during a floorplan
// optimization run. The paper's M column is "the maximum number of
// implementations ever stored in memory during the computation"; its
// machine aborted somewhere above ~8·10^5 of them on the large examples
// (Tables 3–4 report "> 806553" style rows). A Tracker reproduces both: it
// records the peak count and, when a hard limit is set, fails the run the
// moment the count would exceed it.
//
// The Tracker is safe for concurrent use: the parallel evaluator's workers
// count against one shared instance, and each serving cache charges its
// byte budget to one from many requests. Admission is reservation-based —
// an Add that would push the stored count past the limit is rejected
// *without* admitting anything, so the current count never exceeds the
// limit no matter how many goroutines race. The would-be count of every
// rejected Add is still recorded so Peak can report the paper's "> limit"
// value after a failure.
package memtrack

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrLimit is reported (wrapped) when an allocation would push the stored
// implementation count beyond the configured limit — the reproduction of
// "[9] failed to run due to insufficient memory space".
var ErrLimit = errors.New("memtrack: implementation storage limit exceeded")

// Tracker counts currently stored and peak stored implementations.
// The zero Tracker is ready to use, unlimited, and safe for concurrent use.
type Tracker struct {
	current atomic.Int64
	// peak is the maximum ever *admitted*; with a limit set it never
	// exceeds the limit.
	peak atomic.Int64
	// overPeak is the maximum would-be count of any rejected Add — the
	// value behind the paper's "> M" rows. Zero until an Add fails.
	overPeak atomic.Int64
	limit    int64
}

// NewTracker returns a tracker that fails any Add pushing the current count
// above limit; limit <= 0 means unlimited.
func NewTracker(limit int64) *Tracker {
	return &Tracker{limit: limit}
}

// Add records n newly stored implementations. If a limit is configured and
// would be exceeded, nothing is admitted — the current count is unchanged,
// so concurrent callers can never over-admit past the limit — and an error
// wrapping ErrLimit is returned. The would-be count is retained for Peak's
// "> limit" reporting.
func (t *Tracker) Add(n int64) error {
	if n < 0 {
		return fmt.Errorf("memtrack: negative Add(%d)", n)
	}
	for {
		cur := t.current.Load()
		next := cur + n
		if t.limit > 0 && next > t.limit {
			bumpMax(&t.overPeak, next)
			return fmt.Errorf("%w: %d stored > limit %d", ErrLimit, next, t.limit)
		}
		if t.current.CompareAndSwap(cur, next) {
			bumpMax(&t.peak, next)
			return nil
		}
	}
}

// Release records n implementations freed (e.g. discarded by a selection
// pass or a transient candidate buffer being dropped).
func (t *Tracker) Release(n int64) error {
	if n < 0 {
		return fmt.Errorf("memtrack: negative Release(%d)", n)
	}
	for {
		cur := t.current.Load()
		if n > cur {
			return fmt.Errorf("memtrack: releasing %d with only %d stored", n, cur)
		}
		if t.current.CompareAndSwap(cur, cur-n) {
			return nil
		}
	}
}

// bumpMax raises v to at least x.
func bumpMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// Current returns the number of implementations stored right now. With a
// limit configured this is never above the limit.
func (t *Tracker) Current() int64 { return t.current.Load() }

// Peak returns the paper's M: the maximum ever stored, or — after a failed
// Add — the maximum count ever *attempted*, so failed runs report the
// "> limit" value the paper's tables use.
func (t *Tracker) Peak() int64 {
	p := t.peak.Load()
	if op := t.overPeak.Load(); op > p {
		p = op
	}
	return p
}

// Admitted returns the maximum count ever actually admitted. With a limit
// set this never exceeds the limit, even after failed Adds — the invariant
// behind "never over-admit" under concurrency.
func (t *Tracker) Admitted() int64 { return t.peak.Load() }

// Limit returns the configured limit (0 = unlimited).
func (t *Tracker) Limit() int64 { return t.limit }
