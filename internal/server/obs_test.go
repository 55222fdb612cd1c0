package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floorplan/internal/slogx"
	"floorplan/internal/telemetry"
)

// logBuffer is a goroutine-safe sink for the access log: handler goroutines
// write concurrently.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// records decodes every JSON log line.
func (b *logBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestTraceparentRoundTrip: a client-supplied traceparent header surfaces
// as the response's trace ID, in the access-log record (with the caller's
// span as parent_span_id), and the server's span ID is fresh. The reply,
// the access-log line and the /debug/slow capture of a miss and of the hit
// after it come from one record: every key the line and the capture share
// holds one value, and the reply's runtime agrees with both.
func TestTraceparentRoundTrip(t *testing.T) {
	const (
		clientTrace = "0af7651916cd43dd8448eb211c80319c"
		clientSpan  = "b7ad6b7169203331"
		header      = "00-" + clientTrace + "-" + clientSpan + "-01"
	)
	logs := &logBuffer{}
	logger, err := slogx.New(logs, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Workers:       2,
		Cache:         testCache(t, 1<<20),
		Logger:        logger,
		NodeID:        "node-a",
		SlowThreshold: time.Nanosecond,
	})

	body, err := json.Marshal(&OptimizeRequest{Tree: testTree(), Library: testLibrary()})
	if err != nil {
		t.Fatal(err)
	}
	post := func() ResponseRuntime {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", header)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return decodeOptimize(t, raw).Runtime
	}
	replies := []ResponseRuntime{post(), post()}
	for i, want := range []string{"miss", "hit"} {
		rt := replies[i]
		if rt.Cache != want {
			t.Fatalf("reply %d disposition = %q, want %s", i, rt.Cache, want)
		}
		if rt.TraceID != clientTrace {
			t.Fatalf("%s runtime trace_id = %q, want the caller's %q", want, rt.TraceID, clientTrace)
		}
		if rt.SpanID == "" || rt.SpanID == clientSpan {
			t.Fatalf("%s runtime span_id = %q, want a fresh server-side span", want, rt.SpanID)
		}
	}

	lines := map[any]map[string]any{}
	for _, rec := range logs.records(t) {
		if rec["msg"] == "request" && rec["path"] == "/v1/optimize" {
			lines[rec["span_id"]] = rec
		}
	}
	resp, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow struct{ Requests []map[string]any }
	err = json.NewDecoder(resp.Body).Decode(&slow)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	captures := map[any]map[string]any{}
	for _, c := range slow.Requests {
		captures[c["span_id"]] = c
	}

	for _, rt := range replies {
		line, capture := lines[rt.SpanID], captures[rt.SpanID]
		if line == nil || capture == nil {
			t.Fatalf("%s (span %s): access-log line %v, capture %v", rt.Cache, rt.SpanID, line, capture)
		}
		for key, want := range map[string]any{
			"trace_id":       clientTrace,
			"parent_span_id": clientSpan,
			"disposition":    rt.Cache,
			"node_id":        rt.NodeID,
			"method":         http.MethodPost,
			"status":         float64(http.StatusOK),
		} {
			if line[key] != want {
				t.Errorf("%s access log %s = %v, want %v", rt.Cache, key, line[key], want)
			}
		}
		for key, val := range line {
			switch key {
			case "time", "level", "msg":
				continue
			}
			got, ok := capture[key]
			switch {
			case !ok && (key == "queue_wait_ms" || key == "compute_ms") && val == 0.0:
				// The line names a computation's timing even when it is
				// zero; the capture omits zeros.
			case !ok:
				t.Errorf("%s: access-log key %s = %v missing from the capture", rt.Cache, key, val)
			case !reflect.DeepEqual(got, val):
				t.Errorf("%s: %s = %v in the access log, %v in the capture", rt.Cache, key, val, got)
			}
		}
		for key := range capture {
			if _, ok := line[key]; !ok && key != "captured_unix_ms" && key != "spans" {
				t.Errorf("%s: capture key %s missing from the access log", rt.Cache, key)
			}
		}
		_, queued := line["queue_wait_ms"]
		_, computed := line["compute_ms"]
		if want := rt.Cache == "miss"; queued != want || computed != want || line["bytes"] == nil {
			t.Errorf("%s access log has queue_wait_ms %v, compute_ms %v, bytes %v: %v",
				rt.Cache, queued, computed, line["bytes"], line)
		}
	}
}

// TestNoTraceparentMintsTrace: a bare request still gets a full trace
// identity, minted server-side.
func TestNoTraceparentMintsTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Cache: testCache(t, 1<<20)})
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	out := decodeOptimize(t, raw)
	if len(out.Runtime.TraceID) != 32 || len(out.Runtime.SpanID) != 16 {
		t.Fatalf("minted trace/span = %q/%q, want 32/16 hex chars",
			out.Runtime.TraceID, out.Runtime.SpanID)
	}
}

// TestCoalescedFollowersReportLeaderTrace: followers that joined another
// request's computation answer with the leader's trace ID and their own
// span IDs, and their access-log records carry flight_trace_id.
func TestCoalescedFollowersReportLeaderTrace(t *testing.T) {
	const n = 6
	release := make(chan struct{})
	testHookComputeStart = func() { <-release }
	defer func() { testHookComputeStart = nil }()

	logs := &logBuffer{}
	logger, err := slogx.New(logs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Workers: 4,
		Cache:   testCache(t, 1<<20),
		Logger:  logger,
	})

	replies := make([]*OptimizeResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
			if status != http.StatusOK {
				t.Errorf("request %d: status %d", i, status)
				return
			}
			replies[i] = decodeOptimize(t, raw)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		calls, waiters := s.flight.Stats()
		if calls == 1 && waiters == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never coalesced: %d calls, %d waiters", calls, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var leaderTrace string
	for _, r := range replies {
		if r != nil && r.Runtime.Cache == "miss" {
			leaderTrace = r.Runtime.TraceID
		}
	}
	if leaderTrace == "" {
		t.Fatal("no miss (leader) reply found")
	}
	spans := map[string]bool{}
	for i, r := range replies {
		if r == nil {
			continue
		}
		if r.Runtime.Cache != "coalesced" && r.Runtime.Cache != "miss" {
			t.Fatalf("reply %d: disposition %q", i, r.Runtime.Cache)
		}
		if r.Runtime.TraceID != leaderTrace {
			t.Errorf("reply %d (%s): trace_id = %q, want the leader's %q",
				i, r.Runtime.Cache, r.Runtime.TraceID, leaderTrace)
		}
		if spans[r.Runtime.SpanID] {
			t.Errorf("reply %d: span_id %q reused across requests", i, r.Runtime.SpanID)
		}
		spans[r.Runtime.SpanID] = true
	}

	var coalescedLogged int
	for _, rec := range logs.records(t) {
		if rec["disposition"] != "coalesced" {
			continue
		}
		coalescedLogged++
		if rec["flight_trace_id"] != leaderTrace {
			t.Errorf("coalesced access record flight_trace_id = %v, want %q",
				rec["flight_trace_id"], leaderTrace)
		}
	}
	if coalescedLogged != n-1 {
		t.Errorf("access log has %d coalesced records, want %d", coalescedLogged, n-1)
	}
}

// TestMetricsEndpoint: GET /metrics renders the Prometheus exposition with
// the request counter and latency buckets populated.
func TestMetricsEndpoint(t *testing.T) {
	col := telemetry.New()
	_, ts := newTestServer(t, Config{Workers: 2, Cache: testCache(t, 1<<20), Telemetry: col})
	if status, _, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()}); status != http.StatusOK {
		t.Fatalf("optimize status %d", status)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("content type %q, want %q", ct, telemetry.PromContentType)
	}
	out := string(raw)
	for _, must := range []string{
		"floorplan_server_requests_total 1\n",
		"# TYPE floorplan_server_latency_miss_ns histogram\n",
		"floorplan_server_latency_miss_ns_count 1\n",
	} {
		if !strings.Contains(out, must) {
			t.Errorf("exposition missing %q", must)
		}
	}
	if !strings.Contains(out, `_bucket{le="`) {
		t.Error("exposition has no histogram bucket lines")
	}

	postResp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d, want 405", postResp.StatusCode)
	}
}

// TestStatsHistograms: /v1/stats exports the populated latency histograms
// under their metric names.
func TestStatsHistograms(t *testing.T) {
	col := telemetry.New()
	_, ts := newTestServer(t, Config{Workers: 2, Cache: testCache(t, 1<<20), Telemetry: col})
	for i := 0; i < 2; i++ {
		if status, _, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()}); status != http.StatusOK {
			t.Fatalf("optimize %d: status %d", i, status)
		}
	}
	stats := getStats(t, ts)
	miss, ok := stats.Histograms["server.latency_miss_ns"]
	if !ok || miss.Count != 1 {
		t.Fatalf("stats histograms missing miss latency (count 1): %+v", stats.Histograms)
	}
	hit, ok := stats.Histograms["server.latency_hit_ns"]
	if !ok || hit.Count != 1 {
		t.Fatalf("stats histograms missing hit latency (count 1): %+v", stats.Histograms)
	}
}

// TestKeepSpansTracesOptimizer: with KeepSpans the collector retains the
// optimizer's and flight's spans, tagged with the leading request's trace
// ID, so WriteTrace emits one cross-layer trace per request.
func TestKeepSpansTracesOptimizer(t *testing.T) {
	col := telemetry.New()
	_, ts := newTestServer(t, Config{
		Workers:   2,
		Cache:     testCache(t, 1<<20),
		Telemetry: col,
		KeepSpans: true,
	})
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	out := decodeOptimize(t, raw)

	var trace bytes.Buffer
	if err := col.WriteTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Args["trace_id"] == out.Runtime.TraceID {
			cats[ev.Cat]++
		}
	}
	for _, cat := range []string{"serve", "flight", "eval"} {
		if cats[cat] == 0 {
			t.Errorf("no %q span carries the request trace ID %s (tagged: %v)",
				cat, out.Runtime.TraceID, cats)
		}
	}
}

// TestNoSpansWithoutKeepSpans: a server without KeepSpans keeps no span
// per request in its collector, neither the serve span of a request nor
// the flight span of a computation.
func TestNoSpansWithoutKeepSpans(t *testing.T) {
	col := telemetry.New()
	_, ts := newTestServer(t, Config{Workers: 2, Cache: testCache(t, 1<<20), Telemetry: col})
	for i, want := range []string{"miss", "hit", "hit", "hit", "hit"} {
		status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, raw)
		}
		if got := decodeOptimize(t, raw).Runtime.Cache; got != want {
			t.Fatalf("request %d: disposition %q, want %s", i, got, want)
		}
	}
	if spans := col.Spans(); len(spans) != 0 {
		t.Fatalf("collector kept %d spans for one miss and four hits, want 0: %+v", len(spans), spans)
	}
}

// TestShedDisposition: a shed request logs disposition=shed and records
// into the shed latency histogram.
func TestShedDisposition(t *testing.T) {
	release := make(chan struct{})
	testHookComputeStart = func() { <-release }
	defer func() { testHookComputeStart = nil }()

	logs := &logBuffer{}
	logger, err := slogx.New(logs, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New()
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Cache:      testCache(t, 1<<20),
		Telemetry:  col,
		Logger:     logger,
	})

	// Fill the one worker slot and the one queue slot with distinct keys
	// (different trees) so they don't coalesce, then overflow.
	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &OptimizeRequest{Tree: testTree(), Library: testLibrary()}
			req.Options.NoCache = true // force distinct flights
			status, _, _ := postOptimize(t, ts, req)
			if status == http.StatusTooManyRequests {
				shed.Add(1)
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request was shed")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	_ = s

	var logged bool
	for _, rec := range logs.records(t) {
		if rec["disposition"] == "shed" {
			logged = true
			if rec["trace_id"] == nil || rec["trace_id"] == "" {
				t.Error("shed access record has no trace_id")
			}
		}
	}
	if !logged {
		t.Fatalf("no shed access-log record in:\n%s", logs.String())
	}
	if snap := col.HistSnapshots()["server.latency_shed_ns"]; snap.Count < 1 {
		t.Errorf("shed latency histogram count = %d, want >= 1", snap.Count)
	}
}

// TestObservabilityMiddlewareDirect exercises withObservability without the
// HTTP stack: status/byte capture and histogram recording.
func TestObservabilityMiddlewareDirect(t *testing.T) {
	col := telemetry.New()
	s, err := New(Config{Workers: 1, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	h := s.withObservability(func(w http.ResponseWriter, r *http.Request) {
		recordFrom(r.Context()).Disposition = "hit"
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("body"))
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/x", nil))
	if rr.Code != http.StatusTeapot {
		t.Fatalf("status %d", rr.Code)
	}
	if snap := col.HistSnapshots()["server.latency_hit_ns"]; snap.Count != 1 {
		t.Errorf("hit histogram count = %d, want 1", snap.Count)
	}
}
