package main

import (
	"math"
	"sort"

	"floorplan/internal/telemetry"
)

// metricDef declares one metric of the result line: the
// name later changes are judged by, its unit and which direction is better.
// BENCHMARK.json repeats these lists with the regression bounds; a test
// keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of each workload sees. Every workload emits every
// one of them on an untraced run; the per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_impls_mean", "impls", "lower"},
}

// perLayer is what a traced run reports for every workload: the library
// layers replayed offline over the workload's own problems, and the serving
// layers seen from the client, the access log and /v1/stats.
var perLayer = []metricDef{
	// The tail of the same operations lat_p50_ms times: too noisy on the
	// serving workloads to bound (README.md), so it rides here unbounded.
	{"lat_tail_ms", "ms", "lower"},
	{"plan.decode_us", "us", "lower"},
	{"plan.canonical_us", "us", "lower"},
	{"cache.key_us", "us", "lower"},
	{"cache.get_us", "us", "lower"},
	{"cache.put_us", "us", "lower"},
	{"plan.digest_us", "us", "lower"},
	{"plan.restructure_us", "us", "lower"},
	{"combine.ms", "ms", "lower"},
	{"combine.share", "ratio", "lower"},
	{"combine.candidates", "count", "lower"},
	{"combine.generated", "count", "lower"},
	{"selection.ms", "ms", "lower"},
	{"selection.share", "ratio", "lower"},
	{"selection.r_calls", "count", "lower"},
	{"selection.l_calls", "count", "lower"},
	{"selection.r_n_mean", "impls", "lower"},
	{"selection.l_n_mean", "impls", "lower"},
	{"selection.error_area", "area", "lower"},
	{"optimizer.overhead_ms", "ms", "lower"},
	{"optimizer.w2_speedup", "ratio", "higher"},
	{"optimizer.edit_ms_p50", "ms", "lower"},
	{"client.rtt_ms_p50", "ms", "lower"},
	{"client.rtt_ms_p99", "ms", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.dropped", "count", "lower"},
	{"server.elapsed_ms_p50", "ms", "lower"},
	{"server.elapsed_ms_p99", "ms", "lower"},
	{"http.overhead_ms_p50", "ms", "lower"},
	{"server.queue_wait_share", "ratio", "lower"},
	{"server.compute_share", "ratio", "lower"},
	{"server.computes", "count", "lower"},
	{"server.shed", "count", "lower"},
	{"server.timeouts", "count", "lower"},
	{"flight.coalesced", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},
	{"substore.splice_ratio", "ratio", "higher"},
	{"substore.hits", "count", "higher"},
	{"substore.misses", "count", "lower"},
	{"substore.evictions", "count", "lower"},
	{"req_kb_mean", "KiB", "lower"},
	{"resp_kb_mean", "KiB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// reportOnly are measured and printed on the workloads they apply to, but
// are not in the result line: either they exist only on some
// workloads or they are too noisy to bound (see README.md).
var reportOnly = []metricDef{
	{"error_rate", "ratio", "lower"},
	{"machine.speed", "ratio", "higher"},
	{"lat_p50_ms_raw", "ms", "lower"},
	{"peak_impls_max", "impls", "lower"},
	{"w2_p50_ms", "ms", "lower"},
	{"max_ok_rps", "1/s", "higher"},
	{"selection.r_ms", "ms", "lower"},
	{"selection.l_ms", "ms", "lower"},
	{"selection.l_error", "dist", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.queue_wait_ms_p99", "ms", "lower"},
	{"server.compute_ms_p50", "ms", "lower"},
	{"server.compute_ms_p99", "ms", "lower"},
}

// unitOf returns the unit a metric is printed with.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), the
// definition the spread rule in BENCHMARK.json is stated in. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(append([]float64(nil), xs...))
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// worseBy returns how much worse head is than base, as a share of base, in
// the metric's direction; negative when head is better.
func worseBy(base, head float64, better string) float64 {
	if base == 0 {
		return 0
	}
	d := (head - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// histQuantile reads the q-quantile of a latency histogram, interpolating
// linearly inside the bucket that holds it. loadgen records each request's
// latency from its intended send time into such a histogram; reading the
// bucket midpoint instead would snap every run to one of a few ~6%-apart
// values.
func histQuantile(s telemetry.HistSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	v := float64(s.Max)
	for _, b := range s.Buckets {
		n := float64(b.N)
		if cum+n >= rank && n > 0 {
			v = float64(b.Lo) + (rank-cum)/n*float64(b.Hi-b.Lo)
			break
		}
		cum += n
	}
	return math.Min(math.Max(v, float64(s.Min)), float64(s.Max))
}
