package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"

	"floorplan/internal/buildinfo"
)

// This file renders a Collector in the Prometheus text exposition format
// (version 0.0.4), the lingua franca of metrics scrapers. The enum-indexed
// registry maps onto it directly: counters become counter families with a
// _total suffix, watermarks become gauges, and the log-linear histograms
// become cumulative histogram families with exact integer bucket bounds —
// a bucket holding values in [lo, hi) gets the inclusive Prometheus upper
// bound le="hi - 1", which loses nothing because every observation is an
// integer.
//
// Metric names derive mechanically from the registry names: "server.shed"
// → "floorplan_server_shed_total". Every family is emitted on every
// scrape, including zero-valued ones, so dashboards and alerts see series
// appear at process start rather than at first increment.

// promNamespace prefixes every exposed metric family.
const promNamespace = "floorplan"

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName converts a registry name ("server.latency_hit_ns") to a
// Prometheus family name ("floorplan_server_latency_hit_ns"), without any
// type suffix.
func promName(name string) string {
	return promNamespace + "_" + strings.ReplaceAll(name, ".", "_")
}

// writeFamily emits the HELP/TYPE header of one metric family.
func writeFamily(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// buildInfoSample is the single sample of the constant build_info gauge: the
// binary's VCS revision and toolchain as labels, value 1 — the standard
// *_build_info idiom, which lets dashboards join any series to the version
// that produced it and lets alerts catch mixed-version rings. A var (not a
// per-call lookup) so the golden test can pin it.
var buildInfoSample = func() string {
	bi := buildinfo.Get()
	return fmt.Sprintf("%s_build_info{revision=%q,modified=\"%t\",go_version=%q} 1",
		promNamespace, bi.Revision, bi.Modified, bi.GoVersion)
}()

// WritePrometheus renders the collector's counters, watermarks and
// histograms in the Prometheus text exposition format. Families appear in
// enum order, so the output for a given collector state is deterministic
// (the golden-file test relies on it). A nil collector renders every
// family at zero.
func (c *Collector) WritePrometheus(w io.Writer) error {
	name := promNamespace + "_build_info"
	if err := writeFamily(w, name, "Build identity of this binary (VCS revision, toolchain); constant 1.", "gauge"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", buildInfoSample); err != nil {
		return err
	}
	for i := Counter(0); i < numCounters; i++ {
		m := counterMeta[i]
		name := promName(m.name) + "_total"
		if err := writeFamily(w, name, m.help, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Counter(i)); err != nil {
			return err
		}
	}
	for i := Watermark(0); i < numWatermarks; i++ {
		m := watermarkMeta[i]
		name := promName(m.name)
		if err := writeFamily(w, name, m.help, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, c.Watermark(i)); err != nil {
			return err
		}
	}
	for i := Hist(0); i < numHists; i++ {
		m := histMeta[i]
		name := promName(m.name)
		if err := writeFamily(w, name, m.help, "histogram"); err != nil {
			return err
		}
		var h *Histogram
		if c != nil {
			h = &c.hists[i]
		}
		if err := writePromHistogram(w, name, h); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram emits one histogram family body: a cumulative
// _bucket series for every populated bucket (empty buckets add no
// information to a cumulative exposition and would bloat the scrape ~16×
// at log-linear resolution), the mandatory +Inf bucket, then _sum and
// _count. Buckets holding an exemplar append it in OpenMetrics syntax
// ("# {trace_id=...} value timestamp" after the sample), so a scraper that
// understands exemplars links the bucket straight to a trace and a plain
// 0.0.4 dashboard still reads the counts. A nil histogram (disabled
// collector) emits the empty family.
func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	var cum, sum, count int64
	if h != nil {
		count = h.count.Load()
		sum = h.sum.Load()
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			// Bucket i holds integer values in [lo, hi); its inclusive
			// upper bound is hi - 1. The top bucket's hi is already clamped
			// to MaxInt64, the true inclusive bound.
			_, hi := bucketBounds(i)
			le := hi - 1
			if hi == math.MaxInt64 {
				le = hi
			}
			ex := ""
			if e := h.exemplarAt(i); e != nil {
				ex = fmt.Sprintf(" # {trace_id=\"%s\"} %d %d.%03d",
					e.TraceID, e.Value, e.UnixMs/1000, e.UnixMs%1000)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d%s\n", name, le, cum, ex); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, sum, name, count)
	return err
}
