package memtrack

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestZeroTrackerUnlimited(t *testing.T) {
	var tr Tracker
	if err := tr.Add(1 << 40); err != nil {
		t.Fatal(err)
	}
	if tr.Peak() != 1<<40 || tr.Current() != 1<<40 {
		t.Fatalf("peak=%d current=%d", tr.Peak(), tr.Current())
	}
}

func TestPeakTracksMaximum(t *testing.T) {
	tr := NewTracker(0)
	mustAdd := func(n int64) {
		t.Helper()
		if err := tr.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(100)
	if err := tr.Release(40); err != nil {
		t.Fatal(err)
	}
	mustAdd(30)
	if tr.Current() != 90 {
		t.Errorf("current = %d, want 90", tr.Current())
	}
	if tr.Peak() != 100 {
		t.Errorf("peak = %d, want 100", tr.Peak())
	}
	mustAdd(50)
	if tr.Peak() != 140 {
		t.Errorf("peak = %d, want 140", tr.Peak())
	}
}

func TestLimitEnforced(t *testing.T) {
	tr := NewTracker(100)
	if err := tr.Add(100); err != nil {
		t.Fatalf("at-limit Add should succeed: %v", err)
	}
	err := tr.Add(1)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("over-limit Add = %v, want ErrLimit", err)
	}
	if tr.Peak() != 101 {
		t.Errorf("peak = %d: the over-limit value must be recorded for '>' reporting", tr.Peak())
	}
	if tr.Limit() != 100 {
		t.Errorf("limit = %d", tr.Limit())
	}
}

// TestConcurrentNeverOverAdmits hammers a limited tracker from many
// goroutines and checks the reservation invariant: the admitted count never
// exceeds the limit at any observed moment, while rejected attempts still
// surface in Peak for "> limit" reporting. Run with -race.
func TestConcurrentNeverOverAdmits(t *testing.T) {
	const limit = 1000
	tr := NewTracker(limit)
	var wg sync.WaitGroup
	var observedMax atomic.Int64
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := int64(1 + (g+i)%37)
				if err := tr.Add(n); err != nil {
					if !errors.Is(err, ErrLimit) {
						t.Errorf("unexpected Add error: %v", err)
						return
					}
					failures.Add(1)
					// Make room so other goroutines keep exercising both paths.
					for tr.Current() > limit/2 {
						if err := tr.Release(1); err != nil {
							break
						}
					}
					continue
				}
				if cur := tr.Current(); cur > limit {
					t.Errorf("over-admitted: current %d > limit %d", cur, limit)
					return
				}
				for {
					old := observedMax.Load()
					cur := tr.Admitted()
					if cur <= old || observedMax.CompareAndSwap(old, cur) {
						break
					}
				}
				if i%3 == 0 {
					_ = tr.Release(n)
				}
			}
		}(g)
	}
	wg.Wait()
	if observedMax.Load() > limit {
		t.Fatalf("admitted peak %d exceeds limit %d", observedMax.Load(), limit)
	}
	if tr.Admitted() > limit {
		t.Fatalf("Admitted() = %d exceeds limit %d", tr.Admitted(), limit)
	}
	if failures.Load() > 0 && tr.Peak() <= limit {
		t.Fatalf("Peak() = %d should report the over-limit attempt", tr.Peak())
	}
}

func TestReleaseValidation(t *testing.T) {
	tr := NewTracker(0)
	if err := tr.Add(10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Release(20); err == nil {
		t.Error("releasing more than stored should fail")
	}
	if err := tr.Release(-1); err == nil {
		t.Error("negative release should fail")
	}
	if err := tr.Add(-1); err == nil {
		t.Error("negative add should fail")
	}
}
