package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBucketBoundaries pins the log-linear bucketing: values below
// histSubCount get exact single-value buckets, and octave o >= 1 splits
// [2^(histSubBits+o-1), 2^(histSubBits+o)) into histSubCount linear
// buckets of width 2^(o-1).
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{15, 15},
		// Octave 1: [16, 32), width-1 buckets.
		{16, 16}, {17, 17}, {31, 31},
		// Octave 2: [32, 64), width-2 buckets.
		{32, 32}, {33, 32}, {34, 33}, {63, 47},
		// Octave 3: [64, 128), width-4 buckets.
		{64, 48}, {67, 48}, {68, 49},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.bucket {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
	}
	// Every value lives inside its bucket's bounds, and buckets tile the
	// value range contiguously.
	for _, v := range []int64{0, 1, 7, 15, 16, 100, 1023, 1024, 900000, 1 << 40, math.MaxInt64} {
		lo, hi := bucketBounds(bucketIndex(v))
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Errorf("value %d outside its bucket bounds [%d, %d)", v, lo, hi)
		}
	}
	prevHi := int64(0)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %d, want contiguous %d", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty or inverted: [%d, %d)", i, lo, hi)
		}
		prevHi = hi
	}
	if prevHi != math.MaxInt64 {
		t.Fatalf("top bucket ends at %d, want MaxInt64", prevHi)
	}
	// The relative bucket width is bounded by 2^-histSubBits everywhere
	// past the exact range — the resolution guarantee behind Quantile.
	for i := histSubCount; i < histBuckets-1; i++ {
		lo, hi := bucketBounds(i)
		if float64(hi-lo)/float64(lo) > 1.0/histSubCount+1e-12 {
			t.Fatalf("bucket %d [%d, %d) wider than 1/%d relative", i, lo, hi, histSubCount)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 8, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 15 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.Min != 0 || s.Max != 8 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	want := []BucketCount{
		{Lo: 0, Hi: 1, N: 2}, // 0 and clamped -5
		{Lo: 1, Hi: 2, N: 1},
		{Lo: 3, Hi: 4, N: 2},
		{Lo: 8, Hi: 9, N: 1},
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

// exactQuantile computes the order statistic Quantile approximates:
// the ⌈q·n⌉-th smallest value of the sorted stream.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQuantileRelativeError is the harness's accuracy contract: across
// random value streams spanning several orders of magnitude, every
// reported quantile is within 5% of the exact sorted order statistic
// (the log-linear layout guarantees ~3.1%), and merged snapshots answer
// exactly as the union stream would.
func TestQuantileRelativeError(t *testing.T) {
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var a, b Histogram
		n := 200 + rng.Intn(2000)
		values := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			// Log-uniform draws stress every octave from exact single-value
			// buckets up through ~10^9 (nanosecond latencies).
			v := int64(math.Exp(rng.Float64() * math.Log(2e9)))
			values = append(values, v)
			if i%2 == 0 {
				a.Observe(v)
			} else {
				b.Observe(v)
			}
		}
		var union Histogram
		union.Merge(&a)
		union.Merge(&b)
		sorted := append([]int64(nil), values...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		snap := union.Snapshot()
		for _, q := range quantiles {
			exact := exactQuantile(sorted, q)
			got := snap.Quantile(q)
			relErr := math.Abs(float64(got)-float64(exact)) / math.Max(float64(exact), 1)
			if relErr > 0.05 {
				t.Fatalf("trial %d: Quantile(%v) = %d, exact %d (rel err %.3f > 0.05)",
					trial, q, got, exact, relErr)
			}
		}

		// A snapshot-level merge of the two halves must equal the union
		// stream's snapshot bucket for bucket.
		sa, sb := a.Snapshot(), b.Snapshot()
		sa.Merge(sb)
		if sa.Count != snap.Count || sa.Sum != snap.Sum || sa.Min != snap.Min || sa.Max != snap.Max {
			t.Fatalf("trial %d: merged snapshot totals %+v differ from union %+v", trial, sa, snap)
		}
		if len(sa.Buckets) != len(snap.Buckets) {
			t.Fatalf("trial %d: merged snapshot has %d buckets, union %d",
				trial, len(sa.Buckets), len(snap.Buckets))
		}
		for i := range sa.Buckets {
			if sa.Buckets[i] != snap.Buckets[i] {
				t.Fatalf("trial %d: merged bucket %d = %+v, union %+v",
					trial, i, sa.Buckets[i], snap.Buckets[i])
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot Quantile = %d, want 0", got)
	}
	var h Histogram
	h.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Snapshot().Quantile(q); got != 42 {
			t.Fatalf("single-value Quantile(%v) = %d, want 42", q, got)
		}
	}
	// Min/Max clamping keeps the extremes exact even though the bucket
	// midpoint would round away from them.
	var g Histogram
	g.Observe(1000)
	g.Observe(1001)
	if got := g.Snapshot().Quantile(0); got != 1000 {
		t.Fatalf("Quantile(0) = %d, want the exact min 1000", got)
	}
	if got := g.Snapshot().Quantile(1); got != 1001 {
		t.Fatalf("Quantile(1) = %d, want the exact max 1001", got)
	}
}

// TestHotPathAllocationFree verifies the two instrumentation fast paths
// the optimizer relies on: the nil-collector no-op and live scalar
// recording must both be allocation-free.
func TestHotPathAllocationFree(t *testing.T) {
	var nilC *Collector
	if n := testing.AllocsPerRun(1000, func() {
		nilC.Add(CtrGenerated, 3)
		nilC.Inc(CtrNodes)
		nilC.Observe(MaxPeakStored, 9)
		nilC.Record(HistListBefore, 4)
	}); n != 0 {
		t.Fatalf("nil collector fast path allocates %v/op", n)
	}
	c := New()
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(CtrGenerated, 3)
		c.Inc(CtrNodes)
		c.Observe(MaxPeakStored, 9)
		c.Record(HistListBefore, 4)
	}); n != 0 {
		t.Fatalf("live scalar recording allocates %v/op", n)
	}
}

// BenchmarkHistogramObserve asserts the record path stays zero-alloc at
// the new bucket resolution — the harness records every request latency
// through it, so a single allocation per observation would dominate.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) * 977)
	}
	if testing.AllocsPerRun(1000, func() { h.Observe(12345) }) != 0 {
		b.Fatal("Histogram.Observe allocates")
	}
}
