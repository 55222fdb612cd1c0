package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"floorplan/internal/telemetry"
)

// getSlow fetches and decodes GET /debug/slow.
func getSlow(t *testing.T, ts *httptest.Server) (*slowResponse, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out slowResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding /debug/slow: %v\n%s", err, raw)
	}
	return &out, resp.StatusCode
}

// TestSlowCapture is the tail-attribution acceptance test: a request held
// past the threshold must appear in GET /debug/slow with the same trace ID
// its client observed, a queue/compute decomposition, and the
// computation's span tree — and the ring must scrub on read.
func TestSlowCapture(t *testing.T) {
	const hold = 30 * time.Millisecond
	testHookComputeStart = func() { time.Sleep(hold) }
	defer func() { testHookComputeStart = nil }()

	_, ts := newTestServer(t, Config{
		Workers:       2,
		Cache:         testCache(t, 1<<20),
		Telemetry:     telemetry.New(),
		SlowThreshold: 5 * time.Millisecond,
	})

	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{
		Tree: testTree(), Library: testLibrary(),
	})
	if status != http.StatusOK {
		t.Fatalf("optimize status = %d: %s", status, raw)
	}
	resp := decodeOptimize(t, raw)
	if resp.Runtime.TraceID == "" {
		t.Fatal("response carries no trace ID")
	}

	slow, code := getSlow(t, ts)
	if code != http.StatusOK {
		t.Fatalf("/debug/slow status = %d", code)
	}
	if slow.ThresholdMs != 5 {
		t.Fatalf("threshold_ms = %v, want 5", slow.ThresholdMs)
	}
	var cap *RequestRecord
	for i := range slow.Requests {
		if slow.Requests[i].TraceID == resp.Runtime.TraceID {
			cap = &slow.Requests[i]
		}
	}
	if cap == nil {
		t.Fatalf("slow request (trace %s) not captured; got %+v", resp.Runtime.TraceID, slow.Requests)
	}
	if cap.Disposition != "miss" {
		t.Fatalf("captured disposition = %q, want miss", cap.Disposition)
	}
	if cap.SpanID != resp.Runtime.SpanID {
		t.Fatalf("captured span %q, client observed %q", cap.SpanID, resp.Runtime.SpanID)
	}
	holdMs := float64(hold / time.Millisecond)
	if cap.ElapsedMs < holdMs {
		t.Fatalf("elapsed_ms = %v, want >= %v (the induced stall)", cap.ElapsedMs, holdMs)
	}
	if cap.ComputeMs <= 0 {
		t.Fatalf("compute_ms = %v, want > 0", cap.ComputeMs)
	}
	// The induced stall sits between slot acquisition and the measured
	// compute, so the decomposition must attribute it to the remainder
	// bucket rather than losing it.
	if cap.UnattributedMs < holdMs-5 {
		t.Fatalf("unattributed_ms = %v, want ~%v (the stall): %+v", cap.UnattributedMs, holdMs, cap)
	}
	if sum := cap.QueueWaitMs + cap.ComputeMs + cap.UnattributedMs; sum > cap.ElapsedMs+1 {
		t.Fatalf("decomposition %v exceeds elapsed %v", sum, cap.ElapsedMs)
	}
	if len(cap.Spans) == 0 {
		t.Fatal("captured request retains no spans")
	}
	for _, sp := range cap.Spans {
		if sp.TraceID != cap.TraceID {
			t.Fatalf("span %q carries trace %q, capture %q", sp.Name, sp.TraceID, cap.TraceID)
		}
	}

	// Scrub on read: the capture must not be served twice, but the running
	// totals survive the drain.
	again, _ := getSlow(t, ts)
	if len(again.Requests) != 0 {
		t.Fatalf("second read returned %d captures, want 0 (scrub on read)", len(again.Requests))
	}
	if again.Captured != slow.Captured {
		t.Fatalf("captured total changed across reads: %d -> %d", slow.Captured, again.Captured)
	}
}

// TestSlowCaptureBelowThreshold: fast requests stay out of the ring.
func TestSlowCaptureBelowThreshold(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:       2,
		Cache:         testCache(t, 1<<20),
		Telemetry:     telemetry.New(),
		SlowThreshold: 10 * time.Second,
	})
	if status, raw, _ := postOptimize(t, ts, &OptimizeRequest{
		Tree: testTree(), Library: testLibrary(),
	}); status != http.StatusOK {
		t.Fatalf("optimize status = %d: %s", status, raw)
	}
	slow, _ := getSlow(t, ts)
	if len(slow.Requests) != 0 || slow.Captured != 0 {
		t.Fatalf("fast request captured: %+v", slow)
	}
}

// TestSlowDisabled: without a threshold the endpoint reports 404 so a probe
// can tell "no slow requests" apart from "capture not running".
func TestSlowDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if _, code := getSlow(t, ts); code != http.StatusNotFound {
		t.Fatalf("/debug/slow on a capture-disabled server = %d, want 404", code)
	}
}

// TestSlowRingEviction: the ring is bounded; overflow evicts oldest-first
// and counts what it displaced.
func TestSlowRingEviction(t *testing.T) {
	r := newSlowRing(3)
	for i := 0; i < 5; i++ {
		r.add(RequestRecord{TraceID: fmt.Sprintf("t%d", i)})
	}
	reqs, captured, evicted := r.drain()
	if captured != 5 || evicted != 2 {
		t.Fatalf("captured/evicted = %d/%d, want 5/2", captured, evicted)
	}
	if len(reqs) != 3 || reqs[0].TraceID != "t2" || reqs[2].TraceID != "t4" {
		t.Fatalf("ring kept %+v, want the newest three (t2..t4)", reqs)
	}
	if again, _, _ := r.drain(); len(again) != 0 {
		t.Fatal("drain did not scrub the ring")
	}
}

// TestStatsStartTime: /v1/stats exposes the process start instant (the
// restart detector) and a coherent uptime pair.
func TestStatsStartTime(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	before := getStats(t, ts)
	if before.StartTimeUnixMs <= 0 {
		t.Fatalf("start_time_unix_ms = %d, want > 0", before.StartTimeUnixMs)
	}
	now := time.Now().UnixMilli()
	if d := now - before.StartTimeUnixMs; d < 0 || d > 60_000 {
		t.Fatalf("start time %d implausible (now %d)", before.StartTimeUnixMs, now)
	}
	time.Sleep(15 * time.Millisecond)
	after := getStats(t, ts)
	if after.StartTimeUnixMs != before.StartTimeUnixMs {
		t.Fatalf("start time moved on a running server: %d -> %d",
			before.StartTimeUnixMs, after.StartTimeUnixMs)
	}
	if after.UptimeMs <= before.UptimeMs {
		t.Fatalf("uptime_ms did not advance: %d -> %d", before.UptimeMs, after.UptimeMs)
	}
	if ms := after.UptimeSeconds * 1000; ms < float64(after.UptimeMs)-1000 || ms > float64(after.UptimeMs)+1000 {
		t.Fatalf("uptime_s %v inconsistent with uptime_ms %d", after.UptimeSeconds, after.UptimeMs)
	}
}
