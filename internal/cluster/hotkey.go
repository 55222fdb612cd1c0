package cluster

import (
	"math"
	"sort"
	"sync"
	"time"

	"floorplan/internal/cache"
)

// Hot-key replication: under zipfian skew a handful of fingerprints carry
// most of the traffic, and forwarding every one of their requests to a
// single owner turns that owner into the new ceiling. Each node tracks a
// decayed per-key hit rate (an EWMA with a configurable half-life) for the
// keys it serves as owner; the top-K keys by that score are "hot", the
// owner stamps X-FP-Hot on their responses, and peers fill their local
// caches from hot forwarded responses — so the next request for a hot key
// is a local hit on any node, no forward. Cold keys are proxied through
// without replication: duplicating the zipf tail into every node's LRU
// would just evict the head.

// hotTracker maintains the decayed scores. A single mutex guards the map;
// the tracker is touched once per owner-served request, which is cheap next
// to the optimize (or even cache-hit JSON) work around it.
type hotTracker struct {
	k          int           // top-K size; scores ranking in the top k are hot
	maxTracked int           // bound on tracked keys; lowest scores evicted past it
	halfLife   time.Duration // decay half-life of the hit EWMA
	now        func() time.Time

	mu        sync.Mutex
	scores    map[cache.Key]*hotScore
	threshold float64 // k-th largest decayed score at the last recalc
	touches   int     // touches since the last threshold recalc
}

type hotScore struct {
	score float64
	last  time.Time
}

// thresholdRecalcEvery bounds how stale the top-K threshold may grow: the
// k-th largest score is recomputed after this many touches rather than on
// every request (an O(n) scan amortized to O(1)).
const thresholdRecalcEvery = 64

func newHotTracker(k int, halfLife time.Duration, now func() time.Time) *hotTracker {
	if now == nil {
		now = time.Now
	}
	return &hotTracker{
		k:          k,
		maxTracked: 8 * k,
		halfLife:   halfLife,
		now:        now,
		scores:     make(map[cache.Key]*hotScore),
	}
}

// Touch records one owner-served request for key and reports whether the
// key is currently hot (top-K by decayed score). With k <= 0 tracking is
// disabled and nothing is ever hot.
func (t *hotTracker) Touch(k cache.Key) bool {
	if t == nil || t.k <= 0 {
		return false
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.scores[k]
	if s == nil {
		if len(t.scores) >= t.maxTracked {
			t.evictColdest(now)
		}
		s = &hotScore{last: now}
		t.scores[k] = s
	} else {
		s.score *= decay(now.Sub(s.last), t.halfLife)
		s.last = now
	}
	s.score++
	t.touches++
	if t.touches >= thresholdRecalcEvery || t.threshold == 0 {
		t.recalcThreshold(now)
		t.touches = 0
	}
	// Fewer tracked keys than K means everything tracked ranks in the top
	// K by definition.
	return len(t.scores) <= t.k || s.score >= t.threshold
}

// hotScoreFloor is the decayed score below which an entry is noise: a key
// untouched for ten half-lives has kept under 0.1% of one hit's weight and
// can never rank anywhere near the top K. Pruning at the floor keeps churn
// workloads (every request a unique key) from pinning maxTracked stale
// entries forever — without it the map fills with decayed-to-zero keys
// that survive until an eviction scan happens to pick them, and every
// recalc/evict pass pays for scanning them.
const hotScoreFloor = 1.0 / 1024

// recalcThreshold recomputes the k-th largest decayed score, pruning
// entries whose decayed score has fallen below the noise floor along the
// way (deleting during the range is safe in Go). Caller holds the mutex.
func (t *hotTracker) recalcThreshold(now time.Time) {
	decayed := make([]float64, 0, len(t.scores))
	for k, s := range t.scores {
		d := s.score * decay(now.Sub(s.last), t.halfLife)
		if d < hotScoreFloor {
			delete(t.scores, k)
			continue
		}
		decayed = append(decayed, d)
	}
	if len(decayed) <= t.k {
		t.threshold = 0
		return
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(decayed)))
	t.threshold = decayed[t.k-1]
}

// evictColdest drops the lowest-scored tracked key to bound the map.
// Caller holds the mutex.
func (t *hotTracker) evictColdest(now time.Time) {
	var coldest cache.Key
	lowest := math.Inf(1)
	for k, s := range t.scores {
		if d := s.score * decay(now.Sub(s.last), t.halfLife); d < lowest {
			lowest = d
			coldest = k
		}
	}
	delete(t.scores, coldest)
}

// tracked reports the number of keys currently tracked, for tests and the
// stats snapshot.
func (t *hotTracker) tracked() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.scores)
}

// decay returns the EWMA multiplier for a gap of d under the given
// half-life: 2^(-d/halfLife).
func decay(d, halfLife time.Duration) float64 {
	if d <= 0 || halfLife <= 0 {
		return 1
	}
	return math.Exp2(-float64(d) / float64(halfLife))
}
