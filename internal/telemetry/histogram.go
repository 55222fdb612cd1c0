package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// paddedInt64 spaces adjacent atomics a cache line apart so independent
// counters written by different workers do not false-share.
type paddedInt64 struct {
	v atomic.Int64
	_ [56]byte
}

// bumpMax raises *v to at least x.
func bumpMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// Bucket layout: log-linear (HDR-style). Each power-of-two octave is split
// into histSubCount = 2^histSubBits linear sub-buckets, so the relative
// bucket width is bounded by 2^-histSubBits everywhere: values below
// histSubCount land in exact single-value buckets (idx = v), and a value v
// with 2^(histSubBits+o-1) <= v < 2^(histSubBits+o) lands in octave o >= 1
// at idx = o*histSubCount + (v>>(o-1) - histSubCount), a bucket of width
// 2^(o-1). Reporting a bucket's midpoint therefore carries at most
// 2^-(histSubBits+1) ≈ 3.1% relative error — the resolution p999 needs,
// where the old pure power-of-two layout was off by up to 2×.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // linear sub-buckets per octave

	// histBuckets covers all of [0, MaxInt64]: bits.Len64 of a non-negative
	// int64 never exceeds 63, so the top octave is 63-histSubBits and the
	// last index is (63-histSubBits+1)*histSubCount - 1.
	histBuckets = (63 - histSubBits + 1) * histSubCount
)

// Histogram is a lock-free log-linear histogram over non-negative int64
// observations. All fields are atomics, so Observe never locks or
// allocates; bucket counts, count and sum fold commutatively, which keeps
// merged histograms deterministic regardless of recording order.
//
// The zero value is ready to use: the load harness records straight into
// standalone Histograms, the Collector embeds one per Hist enum value.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	minPlus atomic.Int64 // min+1; 0 means "no observations yet"
	buckets [histBuckets]atomic.Int64
	// ex is the per-bucket trace-exemplar table (exemplar.go), allocated
	// lazily on the first ObserveExemplar so plain histograms never pay.
	ex atomic.Pointer[[histBuckets]exemplarSlot]
}

// bucketIndex maps a non-negative value to its log-linear bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	o := bits.Len64(uint64(v)) - histSubBits // octave, >= 1
	return o*histSubCount + int(v>>(o-1)) - histSubCount
}

// bucketBounds returns the half-open [lo, hi) range of bucket i, with hi
// clamped to MaxInt64 for the top bucket (whose true bound 2^63 overflows).
func bucketBounds(i int) (lo, hi int64) {
	if i < histSubCount {
		return int64(i), int64(i) + 1
	}
	o := i >> histSubBits // octave, >= 1
	sub := i & (histSubCount - 1)
	width := int64(1) << (o - 1)
	lo = int64(histSubCount+sub) << (o - 1)
	if hi = lo + width; hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// Observe adds one observation. Negative values clamp to 0. Safe for
// concurrent use; never locks or allocates.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	bumpMax(&h.max, v)
	// min+1 with 0 as the unset sentinel keeps the fast path a single CAS
	// loop without a separate "initialized" flag.
	for {
		old := h.minPlus.Load()
		if old != 0 && v+1 >= old {
			return
		}
		if h.minPlus.CompareAndSwap(old, v+1) {
			return
		}
	}
}

// Merge folds o's observations into h bucketwise. Because every fold is
// commutative, a merged histogram is indistinguishable from one that
// observed the union stream directly. Exemplars fold too, newest capture
// per bucket winning.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count.Load() == 0 {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.mergeExemplars(o)
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	bumpMax(&h.max, o.max.Load())
	if om := o.minPlus.Load(); om != 0 {
		for {
			old := h.minPlus.Load()
			if old != 0 && om >= old {
				return
			}
			if h.minPlus.CompareAndSwap(old, om) {
				return
			}
		}
	}
}

// BucketCount is one populated histogram bucket in a snapshot: observations
// v with Lo <= v < Hi, plus — when the histogram recorded exemplars — the
// trace link of one recent observation in the bucket.
type BucketCount struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
	// Exemplar links the bucket to a real request trace (exemplar.go);
	// absent on buckets (and histograms) never exemplared.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistSnapshot is a histogram's point-in-time state for the JSON report,
// /v1/stats and the load report. Buckets carry their bounds explicitly, so
// a snapshot that crossed a JSON round-trip still answers Quantile.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns the value at quantile q (0 <= q <= 1) from the
// snapshot's buckets: the midpoint of the bucket holding the ⌈q·count⌉-th
// smallest observation, clamped to [Min, Max] so the extremes are exact.
// With the log-linear layout the answer is within ~3.1% of the exact order
// statistic. Returns 0 on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	// The extreme order statistics are tracked exactly; answering them
	// from min/max instead of a bucket midpoint keeps Quantile(0) and
	// Quantile(1) error-free.
	if rank <= 1 {
		return s.Min
	}
	if rank >= s.Count {
		return s.Max
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			v := b.Lo + (b.Hi-b.Lo-1)/2
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Merge folds o's buckets into s, producing the snapshot the union stream
// would have yielded. The receiver's bucket slice is rebuilt sorted by Lo.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min = o.Min
		s.Max = o.Max
	} else {
		if o.Min < s.Min {
			s.Min = o.Min
		}
		if o.Max > s.Max {
			s.Max = o.Max
		}
	}
	s.Count += o.Count
	s.Sum += o.Sum
	byLo := make(map[int64]BucketCount, len(s.Buckets)+len(o.Buckets))
	for _, b := range s.Buckets {
		byLo[b.Lo] = b
	}
	for _, b := range o.Buckets {
		if have, ok := byLo[b.Lo]; ok {
			have.N += b.N
			have.Exemplar = newerExemplar(have.Exemplar, b.Exemplar)
			byLo[b.Lo] = have
		} else {
			byLo[b.Lo] = b
		}
	}
	merged := make([]BucketCount, 0, len(byLo))
	for _, b := range byLo {
		merged = append(merged, b)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Lo < merged[j].Lo })
	s.Buckets = merged
}

// HistSnapshots returns a snapshot of every non-empty histogram keyed by
// its metric name — the additive form /v1/stats exposes. A nil collector
// returns nil.
func (c *Collector) HistSnapshots() map[string]HistSnapshot {
	if c == nil {
		return nil
	}
	out := make(map[string]HistSnapshot)
	for i := Hist(0); i < numHists; i++ {
		if s := c.hists[i].Snapshot(); s.Count > 0 {
			out[histMeta[i].name] = s
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// SnapshotHist captures one histogram's current state by enum. A nil
// collector returns the empty snapshot. The profiling watchdog samples the
// serve-latency histograms through this without touching the full map form.
func (c *Collector) SnapshotHist(h Hist) HistSnapshot {
	if c == nil {
		return HistSnapshot{}
	}
	return c.hists[h].Snapshot()
}

// Snapshot captures the histogram's current state: totals plus every
// populated bucket with its bounds, in ascending value order.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if mp := h.minPlus.Load(); mp != 0 {
		s.Min = mp - 1
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, N: n, Exemplar: h.exemplarAt(i)})
		}
	}
	return s
}

// Delta returns the window s − prev of two cumulative snapshots of the same
// histogram (prev taken earlier): the observations recorded between the two
// captures. Bucket exemplars carry over from s — per-bucket last-writer-wins
// makes them the most recent trace in each bucket, which is exactly what a
// watchdog sampling its own telemetry wants to annotate a capture with.
// Min/Max tighten to the window's populated bucket bounds (the exact
// extremes are not recoverable from cumulative state).
func (s HistSnapshot) Delta(prev HistSnapshot) HistSnapshot {
	out := HistSnapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	if out.Count <= 0 {
		return HistSnapshot{}
	}
	prevByLo := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevByLo[b.Lo] = b.N
	}
	for _, b := range s.Buckets {
		if n := b.N - prevByLo[b.Lo]; n > 0 {
			out.Buckets = append(out.Buckets, BucketCount{Lo: b.Lo, Hi: b.Hi, N: n, Exemplar: b.Exemplar})
		}
	}
	if len(out.Buckets) > 0 {
		out.Min = out.Buckets[0].Lo
		out.Max = out.Buckets[len(out.Buckets)-1].Hi - 1
		if s.Max < out.Max {
			out.Max = s.Max // the cumulative max bounds every window's max
		}
	}
	return out
}
