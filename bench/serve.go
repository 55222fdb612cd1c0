package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"floorplan"
	"floorplan/internal/cache"
	"floorplan/internal/loadgen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/server"
	"floorplan/internal/slogx"
	"floorplan/internal/substore"
	"floorplan/internal/telemetry"
)

// fpserve is an in-process server configured as `fpserve` with its default
// flags: telemetry on, a 64 MiB 16-shard result cache, a 64 MiB subtree
// store, one worker per CPU and an info-level JSON access log, which goes
// to io.Discard unless the run is traced.
type fpserve struct {
	srv  *server.Server
	col  *telemetry.Collector
	base string
	log  *syncBuffer
}

func startServer(traced bool) (*fpserve, error) {
	col := telemetry.New()
	results, err := cache.New(cache.Config{MaxBytes: 64 << 20, Shards: 16, Telemetry: col})
	if err != nil {
		return nil, err
	}
	sub, err := substore.New(substore.Config{MaxBytes: 64 << 20, Telemetry: col})
	if err != nil {
		return nil, err
	}
	var w io.Writer = io.Discard
	var buf *syncBuffer
	if traced {
		buf = &syncBuffer{}
		w = buf
	}
	logger, err := slogx.New(w, "info", "json")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		RequestTimeout: 60 * time.Second,
		Cache:          results,
		Substore:       sub,
		Telemetry:      col,
		Logger:         logger,
		KeepSpans:      traced,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &fpserve{srv: srv, col: col, base: "http://" + addr.String(), log: buf}, nil
}

// stop drains the server; once it returns every access-log record of a
// finished request has been written.
func (f *fpserve) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return f.srv.Shutdown(ctx)
}

// syncBuffer is an access-log sink safe to read while the server writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// conns is the connection count of every served step: at most one per CPU,
// and at most two, so client and server share the machine the same way on
// every host the benchmark is calibrated for.
func conns() int { return min(2, runtime.NumCPU()) }

// client posts pre-encoded bodies and never retries: a failed request is
// a failed request.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: conns(), MaxIdleConnsPerHost: conns(), DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// optimize posts one body and decodes the reply; non-2xx replies are
// errors. It also returns the reply's size.
func (c *client) optimize(ctx context.Context, body []byte) (*server.OptimizeResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("reading reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(raw), fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out server.OptimizeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, len(raw), fmt.Errorf("decoding reply: %w", err)
	}
	return &out, len(raw), nil
}

func (c *client) stats(ctx context.Context) (*server.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &out, nil
}

// prime posts each body once and checks the answer against want.
func prime(c *client, bodies, want [][]byte, out *outcome) error {
	for i, body := range bodies {
		resp, _, err := c.optimize(context.Background(), body)
		if err != nil {
			return fmt.Errorf("priming request %d: %w", i, err)
		}
		if !bytes.Equal(resp.Result, want[i]) {
			out.fail("priming request %d: result differs from an in-process optimizer.Run", i)
		}
	}
	return nil
}

// source feeds a served step: which body each arrival carries, and how its
// answer is checked. Both run on the sender goroutines concurrently. loadgen
// schedules the arrivals; sources draw their own bodies, so loadgen's corpus
// is a single placeholder key.
type source struct {
	next  func() (id int, body []byte)
	check func(id int, resp *server.OptimizeResponse) error
}

var oneKey = loadgen.CorpusSpec{Keys: 1, MinModules: 1, MaxModules: 1, Impls: 1}

// listSource sends the problems in turn and expects each one's answer to
// equal want.
func listSource(probs []problem, want [][]byte) *source {
	var seq atomic.Int64
	return &source{
		next: func() (int, []byte) {
			i := int(seq.Add(1)-1) % len(probs)
			return i, probs[i].body
		},
		check: func(id int, resp *server.OptimizeResponse) error {
			if !bytes.Equal(resp.Result, want[id]) {
				return fmt.Errorf("problem %d: result differs from an in-process optimizer.Run", id)
			}
			return nil
		},
	}
}

// step is one constant-rate stretch of open-loop load.
type step struct {
	rate float64
	dur  time.Duration
	// windows splits the step into equal open-loop runs with the reference
	// kernel timed between them, while the server is idle. Each window is
	// rescaled by its own kernel times, and the step's p50 is the median of
	// the windows', so a stall in one window moves it little.
	windows int
}

// stepResult is a step as loadgen and the process saw it. Times are in
// reference ms except p50Raw.
type stepResult struct {
	step
	sent, errs, dropped int64
	p50, p99, p50Raw    float64 // ms from the intended send time
	cpu                 float64 // process CPU time, reference ms
	alloc               uint64
	scale               float64 // median of the windows' scales
}

// clientSide accumulates what the client saw during a step.
type clientSide struct {
	mu        sync.Mutex
	rtt       []float64          // ms
	sendAt    []float64          // ms, send time minus scheduled offset, this window
	lag       []float64          // ms, how late each request left
	bySpan    map[string]float64 // server span id -> rtt ms
	reqBytes  int64
	respBytes int64
	spliced   int64
	computed  int64
	peaks     map[int]int64 // problem id -> the paper's M its answer reports
	problems  []string
}

func newClientSide() *clientSide {
	return &clientSide{bySpan: map[string]float64{}, peaks: map[int]int64{}}
}

var peakKey = []byte(`"peak_stored":`)

// record notes one finished request.
func (cs *clientSide) record(id int, sendAt, rtt time.Duration, reqBytes, respBytes int, resp *server.OptimizeResponse, bad error) {
	var peak int64
	if resp != nil {
		if i := bytes.Index(resp.Result, peakKey); i >= 0 {
			rest := resp.Result[i+len(peakKey):]
			end := bytes.IndexAny(rest, ",}")
			// A reply whose M does not parse counts as 0; its bytes are
			// checked against the in-process answer anyway.
			peak, _ = strconv.ParseInt(string(rest[:max(end, 0)]), 10, 64)
		}
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.rtt = append(cs.rtt, ms(rtt))
	cs.sendAt = append(cs.sendAt, ms(sendAt))
	cs.reqBytes += int64(reqBytes)
	cs.respBytes += int64(respBytes)
	if resp != nil {
		cs.bySpan[resp.Runtime.SpanID] = ms(rtt)
		cs.spliced += resp.Runtime.SubtreeSpliced
		cs.computed += resp.Runtime.SubtreeComputed
		cs.peaks[id] = peak
	}
	if bad != nil && len(cs.problems) < 5 {
		cs.problems = append(cs.problems, bad.Error())
	}
}

// endWindow turns the window's send times into lags. loadgen does not hand
// the intended send time to the sender, so it is rebuilt from the arrival's
// index and the constant interval, anchored at the least-late request; two
// requests dequeued in the same instant may swap indices, which misplaces
// both by one interval.
func (cs *clientSide) endWindow() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.sendAt) == 0 {
		return
	}
	first := cs.sendAt[0]
	for _, v := range cs.sendAt {
		first = min(first, v)
	}
	for _, v := range cs.sendAt {
		cs.lag = append(cs.lag, v-first)
	}
	cs.sendAt = cs.sendAt[:0]
}

// kernelRuns is how many reference-kernel runs bracket each window.
const kernelRuns = 5

// idleSample times the kernel between windows. The window's garbage is
// collected first, so a collection still running from the load does not
// slow the kernel and read as a slower machine.
func idleSample(sp *speedometer) {
	runtime.GC()
	sp.sample(kernelRuns)
}

// runStep drives one step through loadgen.Run, from this process, with
// conns() connections. col, when set, gets one client span per request.
func runStep(st step, src *source, c *client, cs *clientSide, col *telemetry.Collector, sp *speedometer) (stepResult, error) {
	r := stepResult{step: st}
	dur := time.Duration((st.dur / time.Duration(st.windows)).Milliseconds()) * time.Millisecond
	interval := time.Duration(float64(time.Second) / st.rate)
	lanes := make(chan int, conns())
	for i := range conns() {
		lanes <- trackClient + i
	}
	var hist telemetry.HistSnapshot
	var p50s, raw, scales []float64
	mark := len(sp.samples)
	idleSample(sp)
	for range st.windows {
		var seq atomic.Int64
		epoch := time.Now()
		send := func(ctx context.Context, _ loadgen.Workload, _ int) (string, error) {
			scheduled := time.Duration(seq.Add(1)-1) * interval
			sent := time.Now()
			lane := <-lanes
			defer func() { lanes <- lane }()
			id, body := src.next()
			startNs := col.Now()
			resp, n, err := c.optimize(ctx, body)
			rtt := time.Since(sent)
			if err == nil {
				err = src.check(id, resp)
			}
			cs.record(id, sent.Sub(epoch)-scheduled, rtt, len(body), n, resp, err)
			col.RecordSpan(telemetry.Span{Name: "POST /v1/optimize", Cat: "client", Track: lane, Start: startNs, Dur: rtt})
			if resp == nil {
				return "", err
			}
			return resp.Runtime.Cache, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		rep, err := loadgen.Run(context.Background(), loadgen.Spec{
			Connections: conns(), Corpus: oneKey,
			Phases: []loadgen.PhaseSpec{{Name: "step", DurationMs: dur.Milliseconds(), Rate: st.rate}},
		}, nil, send)
		if err != nil {
			return stepResult{}, err
		}
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		cs.endWindow()
		idleSample(sp)
		f := sp.since(mark)
		mark = len(sp.samples) - kernelRuns
		p := rep.Phases[0]
		r.sent += p.Sent
		r.errs += p.Errors
		r.dropped += p.Dropped
		r.cpu += ms(cpu) * f
		r.alloc += m1.TotalAlloc - m0.TotalAlloc
		p50 := histQuantile(p.Latency.Hist, 0.5) / 1e6
		p50s = append(p50s, p50*f)
		raw = append(raw, p50)
		scales = append(scales, f)
		hist.Merge(p.Latency.Hist)
	}
	r.scale = median(scales)
	r.p50 = median(p50s)
	r.p50Raw = median(raw)
	r.p99 = histQuantile(hist, 0.99) / 1e6 * r.scale
	return r, nil
}

// account folds a step's requests into the run's attempted/failed counts.
func (r stepResult) account(out *outcome, cs *clientSide) {
	out.attempted += r.sent
	out.failed += r.errs + r.dropped
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out.problems = append(out.problems, cs.problems...)
	cs.problems = nil
}

// serveSpec is the load shape shared by the serving workloads: ascending
// constant-rate steps, the reference step holding a larger share of the
// window.
type serveSpec struct {
	rates    []float64 // requests/s, ascending
	ref      int       // index of the reference step
	refShare float64
	windows  int
	limitMs  float64 // p99 limit of max_ok_rps
}

// plan lays the steps out over d.
func (s serveSpec) plan(d time.Duration) []step {
	steps := make([]step, len(s.rates))
	other := time.Duration(float64(d) * (1 - s.refShare) / float64(max(len(s.rates)-1, 1)))
	for i, r := range s.rates {
		steps[i] = step{rate: r, dur: other, windows: 1}
		if i == s.ref {
			steps[i] = step{rate: r, dur: time.Duration(float64(d) * s.refShare), windows: s.windows}
		}
	}
	return steps
}

// arrivals is how many requests a plan schedules.
func arrivals(steps []step) int {
	n := 0
	for _, st := range steps {
		interval := time.Duration(float64(time.Second) / st.rate)
		window := time.Duration((st.dur / time.Duration(st.windows)).Milliseconds()) * time.Millisecond
		n += st.windows * int((window+interval-1)/interval)
	}
	return n
}

// runSteps drives the untraced load: every step in order, from the same
// client. The reference step gives the latency, CPU and allocation metrics;
// the highest step within the p99 limit is max_ok_rps.
func (s serveSpec) runSteps(d time.Duration, f *fpserve, src *source, sp *speedometer, out *outcome) error {
	c := newClient(f.base)
	defer c.close()
	cs := newClientSide()
	var best float64
	for i, st := range s.plan(d) {
		r, err := runStep(st, src, c, cs, nil, sp)
		if err != nil {
			return err
		}
		r.account(out, cs)
		if r.p99 <= s.limitMs && r.errs == 0 && r.dropped == 0 {
			best = r.rate
		}
		out.steps = append(out.steps, r)
		if i == s.ref {
			done := float64(r.sent - r.errs - r.dropped)
			out.values["lat_p50_ms"] = r.p50
			out.values["lat_p50_ms_raw"] = r.p50Raw
			out.values["lat_tail_ms"] = r.p99
			out.values["cpu_ms_per_op"] = r.cpu / done
			out.values["alloc_kb_per_op"] = float64(r.alloc) / 1024 / done
			out.samples["ref_requests"] = int(r.sent)
		}
	}
	out.values["max_ok_rps"] = best
	// M per distinct problem answered, so that how often a key was drawn
	// does not weigh in.
	var sum, most int64
	for _, m := range cs.peaks {
		sum += m
		most = max(most, m)
	}
	out.values["peak_impls_mean"] = float64(sum) / float64(max(len(cs.peaks), 1))
	out.values["peak_impls_max"] = float64(most)
	return nil
}

// accessRecord is the part of one access-log line the benchmark reads.
type accessRecord struct {
	Path      string  `json:"path"`
	SpanID    string  `json:"span_id"`
	ElapsedMs float64 `json:"elapsed_ms"`
	QueueMs   float64 `json:"queue_wait_ms"`
	ComputeMs float64 `json:"compute_ms"`
}

// tracedStep runs st against f, a server started traced, and derives the
// serving-layer metrics from the client's samples, the access log and the
// /v1/stats deltas. It stops f. The returned step carries the latency the
// caller compares with an untraced step.
func tracedStep(f *fpserve, st step, src *source, col *telemetry.Collector, sp *speedometer, out *outcome) (stepResult, error) {
	c := newClient(f.base)
	defer c.close()
	ctx := context.Background()
	cs := newClientSide()
	var r stepResult
	var s1 *server.StatsResponse
	s0, err := c.stats(ctx)
	if err == nil {
		r, err = runStep(st, src, c, cs, col, sp)
	}
	if err == nil {
		r.account(out, cs)
		s1, err = c.stats(ctx)
	}
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return stepResult{}, err
	}
	col.Merge(f.col)

	var elapsed, overhead, queue, compute []float64
	var sumElapsed, sumQueue, sumCompute float64
	for _, line := range bytes.Split(f.log.Bytes(), []byte("\n")) {
		var rec accessRecord
		if len(line) == 0 || json.Unmarshal(line, &rec) != nil || rec.Path != "/v1/optimize" {
			continue
		}
		rtt, ok := cs.bySpan[rec.SpanID]
		if !ok {
			continue // priming traffic
		}
		elapsed = append(elapsed, rec.ElapsedMs)
		overhead = append(overhead, rtt-rec.ElapsedMs)
		sumElapsed += rec.ElapsedMs
		if bytes.Contains(line, []byte(`"compute_ms"`)) {
			queue = append(queue, rec.QueueMs)
			compute = append(compute, rec.ComputeMs)
			sumQueue += rec.QueueMs
			sumCompute += rec.ComputeMs
		}
	}
	v := out.values
	n := float64(max(len(cs.rtt), 1))
	v["client.rtt_ms_p50"] = percentile(cs.rtt, 0.5)
	v["client.rtt_ms_p99"] = percentile(cs.rtt, 0.99)
	v["loadgen.lag_ms_p99"] = percentile(cs.lag, 0.99)
	v["loadgen.dropped"] = float64(r.dropped)
	v["server.elapsed_ms_p50"] = percentile(elapsed, 0.5)
	v["server.elapsed_ms_p99"] = percentile(elapsed, 0.99)
	v["http.overhead_ms_p50"] = percentile(overhead, 0.5)
	v["server.queue_wait_share"] = ratio(sumQueue, sumElapsed)
	v["server.compute_share"] = ratio(sumCompute, sumElapsed)
	if len(compute) > 0 {
		v["server.queue_wait_ms_p50"] = percentile(queue, 0.5)
		v["server.queue_wait_ms_p99"] = percentile(queue, 0.99)
		v["server.compute_ms_p50"] = percentile(compute, 0.5)
		v["server.compute_ms_p99"] = percentile(compute, 0.99)
	}
	v["server.computes"] = float64(s1.Computed - s0.Computed)
	v["server.shed"] = float64(s1.Shed - s0.Shed)
	v["server.timeouts"] = float64(s1.TimedOutQueued + s1.TimedOutComputing - s0.TimedOutQueued - s0.TimedOutComputing)
	v["flight.coalesced"] = float64(s1.Coalesced - s0.Coalesced)
	hits, misses := s1.Cache.Hits-s0.Cache.Hits, s1.Cache.Misses-s0.Cache.Misses
	v["cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["cache.evictions"] = float64(s1.Cache.Evictions - s0.Cache.Evictions)
	v["substore.splice_ratio"] = ratio(float64(cs.spliced), float64(cs.spliced+cs.computed))
	v["substore.hits"] = float64(s1.Substore.Hits - s0.Substore.Hits)
	v["substore.misses"] = float64(s1.Substore.Misses - s0.Substore.Misses)
	v["substore.evictions"] = float64(s1.Substore.Evictions - s0.Substore.Evictions)
	v["req_kb_mean"] = float64(cs.reqBytes) / 1024 / n
	v["resp_kb_mean"] = float64(cs.respBytes) / 1024 / n
	out.samples["traced_requests"] = len(cs.rtt)
	out.samples["access_records"] = len(elapsed)
	return r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// expect solves every problem in process, store off: the answer the server
// must return byte for byte, and the facts the golden file pins.
func expect(probs []problem) ([][]byte, []goldenEntry, error) {
	want := make([][]byte, len(probs))
	facts := make([]goldenEntry, len(probs))
	for i, p := range probs {
		var res *optimizer.Result
		var err error
		if want[i], res, err = solve(p); err != nil {
			return nil, nil, err
		}
		bin, err := plan.Restructure(p.tree)
		if err != nil {
			return nil, nil, err
		}
		lib, err := plan.CanonicalLibrary(p.lib)
		if err != nil {
			return nil, nil, err
		}
		ev, err := replayEval(bin, optLibrary(lib), p.policy, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := checkReplay(ev, res); err != nil {
			return nil, nil, fmt.Errorf("problem %d: %w", i, err)
		}
		facts[i] = factsOf(res, ev.errR+ev.errL)
	}
	return want, facts, nil
}

// solve runs one problem in process the way the server would, minus the
// stores, and returns its result body.
func solve(p problem) ([]byte, *optimizer.Result, error) {
	lib, err := plan.CanonicalLibrary(p.lib)
	if err != nil {
		return nil, nil, err
	}
	o, err := optimizer.New(optLibrary(lib), optimizer.Options{Policy: p.policy, Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	res, err := o.Run(p.tree)
	if err != nil {
		return nil, nil, err
	}
	body, err := payload(res)
	return body, res, err
}

func bodies(probs []problem) [][]byte {
	out := make([][]byte, len(probs))
	for i, p := range probs {
		out[i] = p.body
	}
	return out
}

// startPrimed starts a server and posts each body once, checking the
// answers: the set-up every serving run times.
func startPrimed(traced bool, bodies, want [][]byte, out *outcome) (*fpserve, error) {
	f, err := startServer(traced)
	if err != nil {
		return nil, err
	}
	c := newClient(f.base)
	defer c.close()
	if err := prime(c, bodies, want, out); err != nil {
		_ = f.stop() // the priming failure is the error to report
		return nil, err
	}
	return f, nil
}

// traced is the serving workloads' per-layer run. It drives the reference
// step for a quarter of the window on the untraced server f, then for a
// quarter on a fresh traced server (the difference is the tracing
// overhead), and replays problems from next offline for the rest, until
// next runs out.
func (s serveSpec) traced(rc runConfig, f *fpserve, startTraced func() (*fpserve, error), src *source,
	next func(i int) (problem, bool), sp *speedometer, out *outcome) error {
	col := floorplan.NewCollector()
	st := s.plan(rc.duration)[s.ref]
	st.dur = rc.duration / 4
	st.windows = max(s.windows/2, 1)
	deadline := time.Now().Add(rc.duration)

	c := newClient(f.base)
	cs := newClientSide()
	plain, err := runStep(st, src, c, cs, nil, sp)
	c.close()
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	plain.account(out, cs)
	tf, err := startTraced()
	if err != nil {
		return err
	}
	tr, err := tracedStep(tf, st, src, col, sp, out)
	if err != nil {
		return err
	}
	out.values["trace.overhead_pct"] = (tr.p50/plain.p50 - 1) * 100

	rp, err := newReplayer(rc.seed, col, sp)
	if err != nil {
		return err
	}
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		p, ok := next(i)
		if !ok {
			break
		}
		out.attempted++
		if err := rp.replay(p); err != nil {
			out.fail("replay of problem %d: %v", i, err)
		}
	}
	out.samples["replay_problems"] = rp.sums.problems
	rp.sums.metrics(out.values)
	scaleTimes(out.values, sp.scale())
	out.values["machine.speed"] = sp.scale()
	out.values["lat_tail_ms"] = plain.p99 // scaled per window already
	return writeTrace(rc.traceOut, col)
}
