package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floorplan/internal/cache"
	"floorplan/internal/plan"
	"floorplan/internal/shape"
	"floorplan/internal/telemetry"
)

func testTree() *plan.Node {
	return plan.NewVSlice(
		plan.NewLeaf("a"),
		plan.NewHSlice(plan.NewLeaf("b"), plan.NewLeaf("c")),
	)
}

func testLibrary() plan.Library {
	return plan.Library{
		"a": {{W: 4, H: 7}, {W: 7, H: 4}},
		"b": {{W: 3, H: 3}},
		"c": {{W: 2, H: 5}, {W: 5, H: 2}},
	}
}

func testCache(t *testing.T, budget int64) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postOptimize sends one optimize request and returns status + body.
func postOptimize(t *testing.T, ts *httptest.Server, req *OptimizeRequest) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

func decodeOptimize(t *testing.T, raw []byte) *OptimizeResponse {
	t.Helper()
	var out OptimizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding optimize response %q: %v", raw, err)
	}
	return &out
}

func getStats(t *testing.T, ts *httptest.Server) *StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestOptimizeMissThenHit(t *testing.T) {
	col := telemetry.New()
	store, err := cache.New(cache.Config{MaxBytes: 1 << 20, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Workers:   2,
		Cache:     store,
		Telemetry: col,
	})
	req := &OptimizeRequest{Tree: testTree(), Library: testLibrary()}

	status, raw, _ := postOptimize(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", status, raw)
	}
	first := decodeOptimize(t, raw)
	if first.Runtime.Cache != "miss" {
		t.Fatalf("first request disposition = %q, want miss", first.Runtime.Cache)
	}
	res, err := first.DecodeResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.Area <= 0 || res.Best.W <= 0 || res.Best.H <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if len(res.Placement) != 3 {
		t.Fatalf("placement has %d modules, want 3", len(res.Placement))
	}

	status, raw, _ = postOptimize(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", status, raw)
	}
	second := decodeOptimize(t, raw)
	if second.Runtime.Cache != "hit" {
		t.Fatalf("second request disposition = %q, want hit", second.Runtime.Cache)
	}
	if second.Key != first.Key {
		t.Fatalf("key changed across identical requests: %s vs %s", first.Key, second.Key)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result differs from fresh result:\n%s\nvs\n%s", first.Result, second.Result)
	}

	stats := getStats(t, ts)
	if !stats.CacheEnabled {
		t.Fatal("stats report cache disabled")
	}
	if stats.Requests != 2 || stats.Cache.Hits != 1 || stats.Cache.Misses != 1 {
		t.Fatalf("stats = requests %d hits %d misses %d, want 2/1/1",
			stats.Requests, stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Cache.Entries != 1 || stats.Cache.Bytes <= 0 {
		t.Fatalf("cache occupancy = %d entries / %d bytes, want 1 entry, >0 bytes",
			stats.Cache.Entries, stats.Cache.Bytes)
	}

	// The serving metrics land in the runtime section of the report.
	rep := col.Report()
	if got := rep.Runtime.Counters["server.requests"]; got != 2 {
		t.Fatalf("server.requests counter = %d, want 2", got)
	}
	if got := rep.Runtime.Counters["cache.hits"]; got != 1 {
		t.Fatalf("cache.hits counter = %d, want 1", got)
	}
	if got := rep.Runtime.Watermarks["cache.bytes_peak"]; got <= 0 {
		t.Fatalf("cache.bytes_peak watermark = %d, want > 0", got)
	}
}

// TestResultDeterminism is the serving half of the determinism contract:
// the result payload is byte-identical across worker counts, across cache
// dispositions (miss, hit, bypass) and with the cache disabled entirely.
func TestResultDeterminism(t *testing.T) {
	_, cached := newTestServer(t, Config{Workers: 4, Cache: testCache(t, 1<<20)})
	_, uncached := newTestServer(t, Config{Workers: 4})

	type variant struct {
		name    string
		ts      *httptest.Server
		opts    RequestOptions
		wantDis string
	}
	variants := []variant{
		{"uncached-w1", uncached, RequestOptions{Workers: 1}, "off"},
		{"uncached-w8", uncached, RequestOptions{Workers: 8}, "off"},
		// A timeout_ms past the server's deadline leaves that deadline in
		// force, also where it would overflow a time.Duration.
		{"uncached-timeout-9.3e12ms", uncached, RequestOptions{TimeoutMs: 9_300_000_000_000}, "off"},
		{"uncached-timeout-2^62ms", uncached, RequestOptions{TimeoutMs: 1 << 62}, "off"},
		{"cached-miss-w1", cached, RequestOptions{Workers: 1}, "miss"},
		{"cached-hit-w8", cached, RequestOptions{Workers: 8}, "hit"},
		{"cached-bypass-w2", cached, RequestOptions{Workers: 2, NoCache: true}, "bypass"},
	}
	var baseline []byte
	var baselineKey string
	for _, v := range variants {
		status, raw, _ := postOptimize(t, v.ts, &OptimizeRequest{
			Tree: testTree(), Library: testLibrary(), Options: v.opts,
		})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", v.name, status, raw)
		}
		resp := decodeOptimize(t, raw)
		if resp.Runtime.Cache != v.wantDis {
			t.Fatalf("%s: disposition %q, want %q", v.name, resp.Runtime.Cache, v.wantDis)
		}
		if baseline == nil {
			baseline, baselineKey = resp.Result, resp.Key
			continue
		}
		if resp.Key != baselineKey {
			t.Fatalf("%s: key %s differs from baseline %s (workers must not enter the key)",
				v.name, resp.Key, baselineKey)
		}
		if !bytes.Equal(resp.Result, baseline) {
			t.Fatalf("%s: result differs from baseline:\n%s\nvs\n%s", v.name, resp.Result, baseline)
		}
	}
}

func TestSheddingWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Cache: testCache(t, 1<<20)})

	// Occupy the only worker slot so every request queues; with
	// QueueDepth=1 the admission bound is workers+queue = 2 pending.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	const n = 3
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct libraries keep the keys distinct, so this stays a
			// pure shedding test with no coalescing in the way.
			lib := testLibrary()
			lib["a"] = append(lib["a"], shape.RImpl{W: 1, H: int64(20 + i)})
			status, _, hdr := postOptimize(t, ts, &OptimizeRequest{
				Tree:    testTree(),
				Library: lib,
				Options: RequestOptions{TimeoutMs: 150},
			})
			if status != http.StatusOK && hdr.Get("Retry-After") == "" {
				t.Errorf("%d without Retry-After header", status)
			}
			statuses[i] = status
		}(i)
	}
	wg.Wait()

	var shed429, queued503 int
	for _, st := range statuses {
		switch st {
		case http.StatusTooManyRequests:
			shed429++
		case http.StatusServiceUnavailable:
			queued503++
		default:
			t.Fatalf("unexpected status %d (all: %v)", st, statuses)
		}
	}
	if shed429 != 1 || queued503 != 2 {
		t.Fatalf("got %d×429 and %d×503, want 1 and 2 (all: %v)", shed429, queued503, statuses)
	}
	// Queue-full shedding and queued-deadline timeouts land in distinct
	// counters; nothing ever began computing, so no run was abandoned.
	stats := getStats(t, ts)
	if stats.Shed != 1 || stats.TimedOutQueued != 2 || stats.TimedOutComputing != 0 {
		t.Fatalf("stats shed/timed_out_queued/timed_out_computing = %d/%d/%d, want 1/2/0",
			stats.Shed, stats.TimedOutQueued, stats.TimedOutComputing)
	}
	if calls, waiters := s.flight.Stats(); calls != 0 || waiters != 0 {
		t.Fatalf("flight group not drained: %d calls, %d waiters", calls, waiters)
	}
}

// TestCoalescedMisses is the single-flight contract: N concurrent identical
// requests against a cold cache run the optimizer exactly once, share one
// worker slot, answer byte-identically, and all but the leader report the
// "coalesced" disposition.
func TestCoalescedMisses(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	release := make(chan struct{})
	testHookComputeStart = func() {
		runs.Add(1)
		<-release
	}
	defer func() { testHookComputeStart = nil }()

	col := telemetry.New()
	s, ts := newTestServer(t, Config{Workers: 4, Cache: testCache(t, 1<<20), Telemetry: col})

	type reply struct {
		status int
		resp   *OptimizeResponse
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
			replies[i] = reply{status, decodeOptimize(t, raw)}
		}(i)
	}

	// Hold the computation until every request has joined the call, then
	// let the one leader finish for everyone.
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

	if got := runs.Load(); got != 1 {
		t.Fatalf("optimizer ran %d times for %d identical requests, want exactly 1", got, n)
	}
	dispositions := map[string]int{}
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		dispositions[r.resp.Runtime.Cache]++
		if r.resp.Key != replies[0].resp.Key {
			t.Fatalf("request %d: key %s differs from %s", i, r.resp.Key, replies[0].resp.Key)
		}
		if !bytes.Equal(r.resp.Result, replies[0].resp.Result) {
			t.Fatalf("request %d: result not byte-identical to the leader's", i)
		}
	}
	if dispositions["coalesced"] < n-1 {
		t.Fatalf("dispositions = %v, want at least %d coalesced", dispositions, n-1)
	}
	stats := getStats(t, ts)
	if stats.Coalesced != int64(dispositions["coalesced"]) {
		t.Fatalf("stats.Coalesced = %d, want %d", stats.Coalesced, dispositions["coalesced"])
	}
	if stats.Cache.Entries != 1 {
		t.Fatalf("cache holds %d entries after one coalesced store, want 1", stats.Cache.Entries)
	}
	if got := col.Counter(telemetry.CtrServeCoalesced); got != int64(dispositions["coalesced"]) {
		t.Fatalf("server.coalesced counter = %d, want %d", got, dispositions["coalesced"])
	}

	// The cache is warm now: a repeat is a plain hit, not a new flight.
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
	if status != http.StatusOK {
		t.Fatalf("warm request: status %d", status)
	}
	if resp := decodeOptimize(t, raw); resp.Runtime.Cache != "hit" {
		t.Fatalf("warm request disposition = %q, want hit", resp.Runtime.Cache)
	}
}

// TestAbandonedFailureCounted pins satellite visibility: a computation that
// outlives its only requester and then fails has nobody to answer, so the
// error must land in telemetry and /v1/stats instead of vanishing.
func TestAbandonedFailureCounted(t *testing.T) {
	release := make(chan struct{})
	testHookComputeStart = func() { <-release }
	defer func() { testHookComputeStart = nil }()

	col := telemetry.New()
	s, ts := newTestServer(t, Config{Workers: 1, Cache: testCache(t, 1<<20), Telemetry: col})
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{
		Tree:    testTree(),
		Library: testLibrary(),
		// MemoryLimit 1 makes the run fail — but only after the hook
		// releases it, long past the 50ms deadline.
		Options: RequestOptions{MemoryLimit: 1, TimeoutMs: 50},
	})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %s), want 503", status, raw)
	}
	close(release)
	s.wg.Wait()

	stats := getStats(t, ts)
	if stats.AbandonedErrors != 1 {
		t.Fatalf("stats.AbandonedErrors = %d, want 1", stats.AbandonedErrors)
	}
	if stats.TimedOutComputing != 1 {
		t.Fatalf("stats.TimedOutComputing = %d, want 1", stats.TimedOutComputing)
	}
	if got := col.Counter(telemetry.CtrServeAbandonedErrors); got != 1 {
		t.Fatalf("server.abandoned_errors counter = %d, want 1", got)
	}
}

// TestAbandonedRunWarmsCache pins the timeout contract: a request whose
// computation outlives its deadline gets 503, but the run finishes in the
// background and stores its result, so the retry is a cache hit.
func TestAbandonedRunWarmsCache(t *testing.T) {
	release := make(chan struct{})
	testHookComputeStart = func() { <-release }
	defer func() { testHookComputeStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, Cache: testCache(t, 1<<20)})
	req := &OptimizeRequest{
		Tree:    testTree(),
		Library: testLibrary(),
		Options: RequestOptions{TimeoutMs: 50},
	}
	status, raw, hdr := postOptimize(t, ts, req)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (body %s), want 503", status, raw)
	}
	if !strings.Contains(string(raw), "computing") {
		t.Fatalf("expected a deadline-while-computing error, got %s", raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}

	// Let the abandoned run finish and wait for its cache store. (The
	// deferred hook reset is ordered after the goroutine by wg.Wait; the
	// retry below is a cache hit and never spawns a computation.)
	close(release)
	s.wg.Wait()

	req.Options.TimeoutMs = 0
	status, raw, _ = postOptimize(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("retry: status %d, body %s", status, raw)
	}
	if resp := decodeOptimize(t, raw); resp.Runtime.Cache != "hit" {
		t.Fatalf("retry disposition = %q, want hit (abandoned run should warm the cache)",
			resp.Runtime.Cache)
	}
}

func TestMemoryLimitRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{
		Tree:    testTree(),
		Library: testLibrary(),
		Options: RequestOptions{MemoryLimit: 1},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (body %s), want 422", status, raw)
	}

	// The server-side ceiling clamps even "unlimited" requests down.
	_, clamped := newTestServer(t, Config{Workers: 1, MaxMemoryLimit: 1})
	status, raw, _ = postOptimize(t, clamped, &OptimizeRequest{
		Tree:    testTree(),
		Library: testLibrary(),
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("clamped: status %d (body %s), want 422", status, raw)
	}
}

// TestOversizeTreeRejected posts a 2×2 slicing of four largest-extent
// modules, whose envelope would overflow the int64 area: the server must
// answer 400 naming the whole-problem bound, not compute a wrong area.
func TestOversizeTreeRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const e = plan.MaxExtent
	lib := plan.Library{}
	for _, m := range []string{"a", "b", "c", "d"} {
		lib[m] = []shape.RImpl{{W: e, H: e}}
	}
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{
		Tree: plan.NewHSlice(
			plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b")),
			plan.NewVSlice(plan.NewLeaf("c"), plan.NewLeaf("d"))),
		Library: lib,
	})
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "maximum extent 2147483647") {
		t.Fatalf("status %d (body %s), want 400 naming the bound", status, raw)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	lib := `"library": {"a":[{"W":4,"H":7}], "b":[{"W":3,"H":3}], "c":[{"W":2,"H":5}]}`
	tree := `"tree": {"kind":"vslice","children":[{"kind":"leaf","module":"a"},{"kind":"leaf","module":"b"}]}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"missing tree", `{` + lib + `}`, http.StatusBadRequest},
		{"missing library", `{` + tree + `}`, http.StatusBadRequest},
		{"invalid tree", `{"tree":{"kind":"vslice"},` + lib + `}`, http.StatusBadRequest},
		{"unknown module", `{"tree":{"kind":"leaf","module":"zz"},` + lib + `}`, http.StatusBadRequest},
		{"empty module list", `{` + tree + `,"library":{"a":[{"W":4,"H":7}],"b":[]}}`, http.StatusBadRequest},
		{"negative workers", `{` + tree + `,` + lib + `,"options":{"workers":-1}}`, http.StatusBadRequest},
		{"negative memory limit", `{` + tree + `,` + lib + `,"options":{"memory_limit":-5}}`, http.StatusBadRequest},
		{"negative timeout", `{` + tree + `,` + lib + `,"options":{"timeout_ms":-100}}`, http.StatusBadRequest},
		{"negative k1", `{` + tree + `,` + lib + `,"options":{"k1":-3}}`, http.StatusBadRequest},
		{"negative k2", `{` + tree + `,` + lib + `,"options":{"k2":-3}}`, http.StatusBadRequest},
		{"negative s", `{` + tree + `,` + lib + `,"options":{"s":-1}}`, http.StatusBadRequest},
		{"k1 of one", `{` + tree + `,` + lib + `,"options":{"k1":1}}`, http.StatusBadRequest},
		{"theta above one", `{` + tree + `,` + lib + `,"options":{"theta":2}}`, http.StatusBadRequest},
		{"oversized body", `{` + tree + `,` + lib + `,"pad":"` + strings.Repeat("x", 600) + `"}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if status, body := post(tc.body); status != tc.want {
			t.Errorf("%s: status %d (body %s), want %d", tc.name, status, body, tc.want)
		}
	}

	// Refusals of the body itself name what they refused. The deep body
	// is over 512 bytes, so it goes to a server with the default limit.
	_, big := newTestServer(t, Config{Workers: 1})
	valid := `{` + tree + `,` + lib + `}`
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, tc := range []struct {
		name    string
		url     string
		body    io.Reader
		want    int
		message string
	}{
		{"trailing data", ts.URL, strings.NewReader(valid + ` {}`), http.StatusBadRequest,
			"invalid character '{' after top-level value"},
		{"body over the limit after its value", ts.URL, strings.NewReader(valid + strings.Repeat(" ", 600)),
			http.StatusRequestEntityTooLarge, "body exceeds 512 bytes"},
		{"chunked body over the limit after its value", ts.URL,
			io.MultiReader(strings.NewReader(valid + strings.Repeat(" ", 600))),
			http.StatusRequestEntityTooLarge, "body exceeds 512 bytes"},
		{"deep nesting", big.URL, strings.NewReader(`{` + tree + `,` + lib + `,"pad":` + deep + `}`),
			http.StatusBadRequest, "pad: exceeded max depth"},
		{"bad integer", ts.URL, strings.NewReader(`{` + tree + `,"library":{"a":[{"W":4,"H":7},{"W":1.5,"H":7}]}}`),
			http.StatusBadRequest, `library["a"][1].W: 1.5 is not an integer`},
	} {
		resp, err := http.Post(tc.url+"/v1/optimize", "application/json", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.want || !strings.Contains(e.Error, tc.message) {
			t.Errorf("%s: status %d (error %q, %v), want %d naming %q", tc.name, resp.StatusCode, e.Error, err, tc.want, tc.message)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/optimize: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: testTree(), Library: testLibrary()})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("optimize while draining: status %d (body %s), want 503", status, raw)
	}
}

// TestStartShutdown exercises the real listener path end to end.
func TestStartShutdown(t *testing.T) {
	s, err := New(Config{Workers: 1, Cache: testCache(t, 1<<20)})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("http://%s", addr)

	body, _ := json.Marshal(&OptimizeRequest{Tree: testTree(), Library: testLibrary()})
	resp, err := http.Post(base+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, raw)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
}

// TestMarshalResultStable pins the payload bytes as a pure function of the
// computation: two fresh computations of the same request marshal to the
// same bytes even on cacheless servers with different worker counts.
func TestMarshalResultStable(t *testing.T) {
	tree := plan.NewWheel(
		plan.NewLeaf("nw"), plan.NewLeaf("ne"), plan.NewLeaf("se"),
		plan.NewLeaf("sw"), plan.NewLeaf("c"),
	)
	lib := plan.Library{
		"nw": {{W: 2, H: 4}, {W: 4, H: 2}},
		"ne": {{W: 3, H: 3}},
		"se": {{W: 2, H: 4}, {W: 4, H: 2}},
		"sw": {{W: 3, H: 5}, {W: 5, H: 3}},
		"c":  {{W: 1, H: 2}, {W: 2, H: 1}},
	}
	var payloads [][]byte
	for _, workers := range []int{1, 8} {
		_, ts := newTestServer(t, Config{Workers: 2})
		status, raw, _ := postOptimize(t, ts, &OptimizeRequest{
			Tree: tree, Library: lib,
			Options: RequestOptions{K1: 10, Workers: workers},
		})
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d, body %s", workers, status, raw)
		}
		payloads = append(payloads, decodeOptimize(t, raw).Result)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Fatalf("wheel payloads differ across worker counts:\n%s\nvs\n%s", payloads[0], payloads[1])
	}
	var res Result
	if err := json.Unmarshal(payloads[0], &res); err != nil {
		t.Fatal(err)
	}
	if res.Area <= 0 || len(res.Placement) != 5 {
		t.Fatalf("implausible wheel result: area %d, %d placed", res.Area, len(res.Placement))
	}
}
