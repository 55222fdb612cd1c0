package cluster

import (
	"sync"
	"testing"
	"time"

	"floorplan/internal/cache"
)

// fakeClock is a controllable time source for the decay math.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// isHot reports whether key currently ranks in the top K, without counting
// a hit.
func isHot(t *hotTracker, k cache.Key) bool {
	if t == nil || t.k <= 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.scores[k]
	if s == nil {
		return false
	}
	if len(t.scores) <= t.k {
		return true
	}
	return s.score*decay(t.now().Sub(s.last), t.halfLife) >= t.threshold
}

// TestHotTrackerTopK: with more distinct keys than K, only the most-hit
// keys rank hot; a key hit once among heavy hitters does not.
func TestHotTrackerTopK(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tr := newHotTracker(2, 10*time.Second, clock.now)

	// Two heavy hitters, several cold keys, interleaved far past the
	// threshold-recalc interval so the lazy threshold is fresh.
	for i := 0; i < 100; i++ {
		tr.Touch(testKey(0))
		tr.Touch(testKey(1))
		tr.Touch(testKey(2 + i%6))
	}
	if !isHot(tr, testKey(0)) || !isHot(tr, testKey(1)) {
		t.Fatal("heavy hitters not hot")
	}
	hotCold := 0
	for i := 2; i < 8; i++ {
		if isHot(tr, testKey(i)) {
			hotCold++
		}
	}
	// The rotating cold keys each hold ~1/6 of a hitter's score; none
	// should rank in the top 2.
	if hotCold != 0 {
		t.Fatalf("%d cold keys rank hot alongside 2 heavy hitters (k=2)", hotCold)
	}
}

// TestHotTrackerFewerThanK: while fewer keys are tracked than K, everything
// is hot by definition — the viral key is replicated from its first hit.
func TestHotTrackerFewerThanK(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tr := newHotTracker(32, 10*time.Second, clock.now)
	if !tr.Touch(testKey(1)) {
		t.Fatal("first touched key not hot with k=32 and 1 tracked")
	}
	if !isHot(tr, testKey(1)) {
		t.Fatal("isHot disagrees with Touch")
	}
	if isHot(tr, testKey(2)) {
		t.Fatal("never-touched key reported hot")
	}
}

// TestHotTrackerDecay: a former heavy hitter cools off after many
// half-lives and yields its slot to newly hot keys.
func TestHotTrackerDecay(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tr := newHotTracker(1, time.Second, clock.now)

	for i := 0; i < 200; i++ {
		tr.Touch(testKey(0))
	}
	// 30 half-lives: score 200 → ~2e-7.
	clock.advance(30 * time.Second)
	for i := 0; i < 200; i++ {
		tr.Touch(testKey(1))
	}
	if !isHot(tr, testKey(1)) {
		t.Fatal("fresh heavy hitter not hot")
	}
	if isHot(tr, testKey(0)) {
		t.Fatal("key idle for 30 half-lives still hot")
	}
}

// TestHotTrackerDisabled: k <= 0 disables tracking entirely.
func TestHotTrackerDisabled(t *testing.T) {
	tr := newHotTracker(0, time.Second, nil)
	if tr.Touch(testKey(0)) || isHot(tr, testKey(0)) {
		t.Fatal("disabled tracker marked a key hot")
	}
	if tr.tracked() != 0 {
		t.Fatal("disabled tracker tracked a key")
	}
	var nilTr *hotTracker
	if nilTr.Touch(testKey(0)) || isHot(nilTr, testKey(0)) || nilTr.tracked() != 0 {
		t.Fatal("nil tracker not inert")
	}
}

// TestHotTrackerBounded: the score map never exceeds maxTracked, evicting
// the coldest key when a new one arrives at capacity.
func TestHotTrackerBounded(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tr := newHotTracker(2, 10*time.Second, clock.now) // maxTracked = 16
	for i := 0; i < 1000; i++ {
		tr.Touch(testKey(i))
	}
	if n := tr.tracked(); n > tr.maxTracked {
		t.Fatalf("tracking %d keys, bound is %d", n, tr.maxTracked)
	}
}

// TestHotTrackerConcurrent exercises the mutex path under the race
// detector: concurrent touches of overlapping keys.
func TestHotTrackerConcurrent(t *testing.T) {
	tr := newHotTracker(8, 10*time.Second, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Touch(testKey(i % (4 + g)))
				isHot(tr, testKey(i%16))
			}
		}(g)
	}
	wg.Wait()
	if !isHot(tr, testKey(0)) {
		t.Fatal("most-shared key not hot after concurrent touches")
	}
}

// TestHotTrackerChurnPrunesDecayed: under pure churn — every request a
// unique key — decayed-to-zero entries must be pruned at the noise floor,
// not merely capped at maxTracked. Each key is touched once; after ten
// half-lives its score is under hotScoreFloor and the next threshold
// recalc deletes it, so the live set stays near the number of keys seen
// within the last ten half-lives instead of pinning maxTracked stale
// entries forever.
func TestHotTrackerChurnPrunesDecayed(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	halfLife := time.Second
	tr := newHotTracker(64, halfLife, clock.now) // maxTracked = 512
	for i := 0; i < 5000; i++ {
		tr.Touch(testKey(i))
		clock.advance(halfLife / 8) // ten half-lives ≈ 80 keys back
	}
	// Live window: ~80 keys within ten half-lives, plus at most one
	// recalc interval (64 touches) of staleness.
	n := tr.tracked()
	if n > 80+thresholdRecalcEvery {
		t.Fatalf("churn left %d tracked keys; pruning should bound it near %d",
			n, 80+thresholdRecalcEvery)
	}
	if n >= tr.maxTracked/2 {
		t.Fatalf("tracking %d of %d keys under pure churn — decayed entries not pruned",
			n, tr.maxTracked)
	}
}
