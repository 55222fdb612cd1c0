// Package server is the fpserve serving subsystem: an HTTP JSON API over
// the floorplan optimizer with cross-request memoization.
//
// Endpoints:
//
//	POST /v1/optimize  — optimize a plan tree + library (OptimizeRequest)
//	GET  /healthz      — liveness; 503 while draining
//	GET  /v1/stats     — cache, queue and pool statistics (StatsResponse)
//	GET  /metrics      — Prometheus text exposition of the telemetry
//	                     collector (counters, gauges, latency histograms)
//
// Observability: every request runs under a W3C trace context — extracted
// from the caller's traceparent header or minted on arrival — held in the
// request's one RequestRecord, which the reply's ResponseRuntime, the
// structured access log (Config.Logger) and the GET /debug/slow capture
// are all written from; the flight and optimizer telemetry spans carry
// it too. Coalesced followers report the leader's trace ID, so a client
// retry correlates with the server-side flight it joined.
//
// Production plumbing: a bounded worker pool (Config.Workers slots, the
// same semantics as floorplan.Options.Workers bounds goroutines) admits at
// most Workers concurrent evaluations with Config.QueueDepth requests
// waiting behind them; anything beyond that is shed with 429 and a
// Retry-After hint rather than queued without bound. Every request runs
// under a deadline and a clamped memory budget. Shutdown drains: in-flight
// requests finish, new ones get 503. When a Config.Cache is attached,
// results are memoized under their content address (cache.KeySpec), so a
// repeated request is answered byte-identically from memory — abandoned
// (timed-out) computations still warm the cache for the retry.
//
// Concurrent misses for the same content address are coalesced through an
// internal/flight group: one request leads the computation (one worker
// slot, one cache store) and the rest share its bytes, answered with the
// "coalesced" disposition. Retry-After hints on 429/503 are derived from
// observed queue pressure (pending depth × smoothed compute time) rather
// than a constant.
//
// Cluster mode (Config.Cluster): each content address has one owning
// backend on a consistent-hash ring. A request arriving at a non-owner
// first consults its local cache; on a miss the flight leader forwards the
// request to the owner — one hop, loop-guarded by the X-FP-Internal marker,
// traceparent-propagated — and local concurrent misses coalesce onto that
// single forward while the owner's own flight group coalesces across nodes,
// so a viral fingerprint costs one optimizer run cluster-wide. Owners track
// per-key hit EWMAs; responses for top-K keys carry X-FP-Hot and non-owners
// replicate exactly those into their local caches (peer fill), so hot keys
// are answered from any node without a hop. A non-2xx owner reply is
// relayed verbatim — status, message and Retry-After hint — in a single
// attempt (the origin client owns the retry budget); an owner that never
// answers degrades to local computation, counted as cluster.peer_fallback.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"floorplan/internal/buildinfo"
	"floorplan/internal/cache"
	"floorplan/internal/cluster"
	"floorplan/internal/flight"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
	"floorplan/internal/substore"
	"floorplan/internal/telemetry"
)

// Config sizes a Server. The zero value serves with one worker slot per
// CPU, a queue of four waiting requests per slot, a 60-second deadline, a
// 32 MiB body cap, no memory-budget ceiling and no cache.
type Config struct {
	// Workers is the number of requests evaluated concurrently
	// (0 = GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker slot
	// before the server sheds load (0 = 4×Workers).
	QueueDepth int
	// RequestTimeout is the per-request deadline (0 = 60s). Requests may
	// lower it via Options.TimeoutMs, never raise it.
	RequestTimeout time.Duration
	// MaxMemoryLimit caps every request's stored-implementation budget;
	// requests asking for more (or for unlimited) are clamped down to it.
	// 0 imposes no ceiling.
	MaxMemoryLimit int64
	// MaxBodyBytes caps the request body (0 = 32 MiB).
	MaxBodyBytes int64
	// Cache memoizes results across requests; nil disables.
	Cache *cache.Cache
	// Substore memoizes per-subtree optimizer results across requests:
	// two requests sharing a sub-floorplan share the evaluation work below
	// it, even when their full-workload cache keys differ. Responses are
	// byte-identical with or without it; nil disables. NoCache requests
	// never consult or fill it (a private run touches no shared state).
	Substore *substore.Store
	// Telemetry receives request/queue/cache counters, queue watermarks,
	// per-disposition latency histograms, the optimizer's scalar metrics
	// and, under KeepSpans, per-request spans; GET /metrics renders it.
	Telemetry *telemetry.Collector
	// Logger receives one structured access-log record per request, a
	// debug record per abandoned computation that failed and a warning per
	// failed peer forward; nil disables logging.
	Logger *slog.Logger
	// SlowThreshold enables server-side tail capture: the record of any
	// request whose end-to-end latency reaches it — with its queue/compute/
	// coalesce decomposition and the computation's span tree — goes into a
	// ring of the newest 64 captures, served (and scrubbed) by GET
	// /debug/slow. 0 disables capture and the endpoint.
	SlowThreshold time.Duration
	// NodeID labels this server instance in /v1/stats, access-log records,
	// slow captures and response runtime envelopes; empty omits it. In
	// cluster mode it defaults to the cluster's node id.
	NodeID string
	// Cluster enables the multi-node tier: requests for content addresses
	// owned by a peer are forwarded there (single attempt, per-hop timeout,
	// verbatim error relay) with hot-key peer fill and local-compute
	// fallback when the owner is down. Nil serves single-node.
	Cluster *cluster.Cluster
	// ClusterStatsTimeout caps each per-peer stats fetch of one GET
	// /v1/cluster/stats fan-out (0 = 1s). A peer that misses it is reported
	// unreachable in the aggregate rather than failing the whole response.
	ClusterStatsTimeout time.Duration
	// ProfileTriggerP99 arms the profiling flight recorder: a telemetry
	// watchdog samples this node's own latency histograms every
	// ProfileInterval, and when the window's p99 crosses this threshold —
	// or requests were shed, or the queue watermark hit capacity — it
	// captures a CPU+heap profile pair into a bounded ring served by GET
	// /debug/profiles, annotated with the trigger reason and the window's
	// exemplar trace IDs. 0 disables the recorder and the endpoint.
	ProfileTriggerP99 time.Duration
	// ProfileRing bounds the capture ring (0 = 4); when full, the oldest
	// capture is evicted.
	ProfileRing int
	// ProfileInterval is the watchdog sampling period (0 = 5s).
	ProfileInterval time.Duration
	// KeepSpans retains each request's serve, flight and optimizer spans
	// in the collector (full Merge instead of MergeScalars), so a shutdown
	// WriteTrace holds every request's cross-layer trace. Off by default:
	// span retention grows without bound on a long-lived server, so only
	// enable it for bounded runs that export a trace (fpserve sets it when
	// -trace is given).
	KeepSpans bool
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 4 * c.workers()
}

func (c Config) timeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	return 60 * time.Second
}

func (c Config) clusterStatsTimeout() time.Duration {
	if c.ClusterStatsTimeout > 0 {
		return c.ClusterStatsTimeout
	}
	return time.Second
}

func (c Config) profileRing() int {
	if c.ProfileRing > 0 {
		return c.ProfileRing
	}
	return 4
}

func (c Config) profileInterval() time.Duration {
	if c.ProfileInterval > 0 {
		return c.ProfileInterval
	}
	return 5 * time.Second
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 32 << 20
}

// Server serves optimization requests. Create with New.
type Server struct {
	cfg    Config
	sem    chan struct{}
	tel    *telemetry.Collector
	logger *slog.Logger
	start  time.Time

	flight flight.Group[cache.Key, []byte] // coalesces concurrent misses per key
	slow   *slowRing                       // tail captures; nil when disabled
	rec    *flightRecorder                 // triggered profiler; nil when disabled

	pending           atomic.Int64 // admitted requests not yet answered
	inflight          atomic.Int64 // computations holding a worker slot
	requests          atomic.Int64
	computed          atomic.Int64 // optimizer runs executed on this node
	shed              atomic.Int64 // 429: queue full at admission
	coalesced         atomic.Int64 // misses that joined an in-flight computation
	timedOutQueued    atomic.Int64 // 503: deadline before the computation began
	timedOutComputing atomic.Int64 // 503: deadline while the computation ran
	abandonedErrs     atomic.Int64 // detached computations that failed unobserved
	avgComputeNs      atomic.Int64 // EWMA of computation wall time, for Retry-After
	draining          atomic.Bool

	// wg counts background computations (incl. abandoned ones). drainMu
	// orders every wg.Add before Shutdown's Wait: a handler adds only
	// under the lock and after seeing draining unset, and Shutdown sets
	// draining under the same lock before it waits.
	wg      sync.WaitGroup
	drainMu sync.Mutex
	http    *http.Server
}

// New validates the configuration and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("server: negative worker count %d", cfg.Workers)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("server: negative queue depth %d", cfg.QueueDepth)
	}
	if cfg.MaxMemoryLimit < 0 {
		return nil, fmt.Errorf("server: negative memory ceiling %d", cfg.MaxMemoryLimit)
	}
	if cfg.SlowThreshold < 0 {
		return nil, fmt.Errorf("server: negative slow-capture threshold %v", cfg.SlowThreshold)
	}
	var slow *slowRing
	if cfg.SlowThreshold > 0 {
		slow = newSlowRing(slowCapacity)
	}
	if cfg.ProfileTriggerP99 < 0 || cfg.ProfileRing < 0 || cfg.ProfileInterval < 0 {
		return nil, fmt.Errorf("server: negative profile trigger/ring/interval (%v, %d, %v)",
			cfg.ProfileTriggerP99, cfg.ProfileRing, cfg.ProfileInterval)
	}
	if cfg.NodeID == "" && cfg.Cluster != nil {
		cfg.NodeID = cfg.Cluster.NodeID()
	}
	srv := &Server{
		cfg:    cfg,
		sem:    make(chan struct{}, cfg.workers()),
		slow:   slow,
		tel:    cfg.Telemetry,
		logger: cfg.Logger,
		start:  time.Now(),
	}
	if cfg.ProfileTriggerP99 > 0 {
		srv.rec = newFlightRecorder(srv)
	}
	return srv, nil
}

// Handler returns the API routes, for tests and embedding. Every route
// runs inside the observability middleware (trace extraction, access log,
// latency histograms).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.withObservability(s.handleHealth))
	mux.HandleFunc("/v1/stats", s.withObservability(s.handleStats))
	mux.HandleFunc("/v1/cluster/stats", s.withObservability(s.handleClusterStats))
	mux.HandleFunc("/v1/optimize", s.withObservability(s.handleOptimize))
	mux.HandleFunc("/metrics", s.withObservability(s.handleMetrics))
	mux.HandleFunc("/debug/slow", s.withObservability(s.handleSlow))
	mux.HandleFunc("/debug/profiles", s.withObservability(s.handleProfiles))
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in the
// background until Shutdown.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.http = &http.Server{Handler: s.Handler()}
	go func() { _ = s.http.Serve(ln) }()
	s.rec.start()
	return ln.Addr(), nil
}

// Shutdown drains gracefully: health flips to 503, new optimize requests
// are refused, in-flight HTTP requests and background computations finish
// (or ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	s.rec.stop()
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// statsResponse snapshots the node's full /v1/stats state — shared by
// handleStats and the cluster stats aggregator (which embeds this node's own
// snapshot next to the fetched peer ones).
func (s *Server) statsResponse() *StatsResponse {
	return &StatsResponse{
		StartTimeUnixMs:   s.start.UnixMilli(),
		UptimeMs:          time.Since(s.start).Milliseconds(),
		UptimeSeconds:     time.Since(s.start).Seconds(),
		NodeID:            s.cfg.NodeID,
		Version:           buildinfo.Get(),
		Requests:          s.requests.Load(),
		Computed:          s.computed.Load(),
		Shed:              s.shed.Load(),
		Coalesced:         s.coalesced.Load(),
		TimedOutQueued:    s.timedOutQueued.Load(),
		TimedOutComputing: s.timedOutComputing.Load(),
		AbandonedErrors:   s.abandonedErrs.Load(),
		InFlight:          s.inflight.Load(),
		Pending:           s.pending.Load(),
		Workers:           s.cfg.workers(),
		QueueCapacity:     s.cfg.queueDepth(),
		Cache:             s.cfg.Cache.Stats(),
		CacheEnabled:      s.cfg.Cache != nil,
		Substore:          s.cfg.Substore.Stats(),
		SubstoreEnabled:   s.cfg.Substore != nil,
		Cluster:           s.cfg.Cluster.Stats(),
		Histograms:        s.tel.HistSnapshots(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsResponse())
}

// testHookComputeStart, when non-nil, runs at the start of every background
// computation; tests use it to hold a run past its request deadline.
var testHookComputeStart func()

// errDraining refuses a computation whose flight call formed after drain
// began: the leader publishes it instead of spawning, and every waiter
// answers 503.
var errDraining = errors.New("draining")

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	rec := recordFrom(r.Context())
	if r.Method != http.MethodPost {
		rec.Disposition = "invalid"
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.draining.Load() {
		rec.Disposition = "draining"
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.requests.Add(1)
	s.tel.Inc(telemetry.CtrServeRequests)

	// Admission: at most Workers in flight plus QueueDepth waiting; beyond
	// that, shed immediately — a bounded queue with 429 beats an unbounded
	// one with collapse.
	pending := s.pending.Add(1)
	defer s.pending.Add(-1)
	s.tel.Observe(telemetry.MaxServeQueue, pending)
	if pending > int64(s.cfg.workers()+s.cfg.queueDepth()) {
		s.shed.Add(1)
		s.tel.Inc(telemetry.CtrServeShed)
		rec.Disposition = "shed"
		s.writeRetryable(w, http.StatusTooManyRequests, "saturated: request queue full")
		return
	}

	rec.Disposition = "invalid"
	req, status, err := s.decodeRequest(w, r)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	lib, err := plan.CanonicalLibrary(req.Library)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := plan.CheckModules(req.Tree.LeafModules(), lib); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	memLimit := req.Options.MemoryLimit
	if memLimit < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("negative memory_limit %d", memLimit))
		return
	}
	if max := s.cfg.MaxMemoryLimit; max > 0 && (memLimit == 0 || memLimit > max) {
		memLimit = max
	}

	key, err := cache.KeySpec{
		Tree:          req.Tree,
		Lib:           lib,
		K1:            req.Options.K1,
		K2:            req.Options.K2,
		Theta:         req.Options.Theta,
		S:             req.Options.S,
		MemoryLimit:   memLimit,
		SkipPlacement: req.Options.SkipPlacement,
	}.Key()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Cluster-mode placement: resolve the key's owner once. A request
	// carrying the hop marker is already an intra-cluster forward and is
	// never forwarded again (loop guard) — a disagreeing ring degrades to a
	// local computation, not a proxy loop.
	cl := s.cfg.Cluster
	internalFrom := r.Header.Get(cluster.HeaderInternal)
	owner, ownsKey := "", true
	if cl != nil {
		if internalFrom != "" {
			rec.InternalFrom = internalFrom
			cl.NoteInternal()
		}
		owner, ownsKey = cl.Owner(key)
	}

	rec.Disposition = "off"
	if s.cfg.Cache != nil {
		if req.Options.NoCache {
			rec.Disposition = "bypass"
		} else if payload, ok := s.cfg.Cache.Get(key); ok {
			if cl != nil {
				if ownsKey {
					s.markHot(w, key)
				} else if internalFrom == "" {
					cl.NoteReplicaHit()
				}
			}
			rec.Disposition = "hit"
			respond(w, key, payload, rec)
			return
		} else {
			rec.Disposition = "miss"
		}
	}
	if cl != nil && ownsKey && !req.Options.NoCache {
		// Owner-side misses (and the coalesced waiters behind them) feed
		// the hit EWMA too: a key going viral is hot before its first
		// computation finishes.
		s.markHot(w, key)
	}
	// Forward decision: non-owned keys leave this node unless the request
	// is an internal hop (loop guard) or demands a private run (NoCache
	// computes locally and never touches shared state).
	forward := cl != nil && !ownsKey && internalFrom == "" && !req.Options.NoCache
	if forward {
		rec.Disposition = "forwarded"
		rec.ForwardedTo = owner
	}

	// Compared in milliseconds: a timeout_ms past the server's deadline
	// leaves that deadline in force, however large (time.Duration(ms)
	// would wrap negative from 2⁶³ ns on).
	timeout := s.cfg.timeout()
	if ms := req.Options.TimeoutMs; ms > 0 && ms < timeout.Milliseconds() {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Coalesce concurrent misses: every request for one content address
	// (except cache bypasses, which demand a private run) shares a single
	// flight call — one worker slot, one computation, one cache store. The
	// first joiner leads; the rest wait for its bytes and answer with the
	// "coalesced" disposition. Each waiter waits under its own deadline;
	// if all of them give up before a worker slot was acquired, the call
	// is abandoned and never computes.
	var call *flight.Call[[]byte]
	leader := true
	if req.Options.NoCache {
		call = flight.Solo[[]byte]()
	} else {
		call, leader = s.flight.Join(key)
	}
	defer call.Leave()
	if leader {
		// The leader's request identity names the shared computation: its
		// trace ID is stamped on the flight tag (so followers can report
		// it), on the flight span and on the optimizer's spans.
		meta := &flightMeta{trace: rec.trace, traceID: rec.TraceID, forwardedTo: rec.ForwardedTo}
		rec.flight = meta
		call.SetTag(meta)
		// The computation runs detached from the HTTP goroutine:
		// optimization is not cancelable mid-evaluation, so on timeout we
		// answer 503 and let the run finish in the background — it still
		// stores its result, which warms the cache for the client's retry.
		// Shutdown waits for these. The draining re-check under drainMu
		// closes a race with Shutdown's wg.Wait: a handler past the entry
		// check could otherwise Add after Wait already returned and leak
		// the computation past "drain complete" (mid-Cache.Put at exit).
		s.drainMu.Lock()
		draining := s.draining.Load()
		if !draining {
			s.wg.Add(1)
		}
		s.drainMu.Unlock()
		if draining {
			call.Finish(nil, errDraining)
		} else if forward {
			go s.runForward(call, meta, req, lib, memLimit, key, owner)
		} else {
			go s.runCall(call, meta, req, lib, memLimit, key)
		}
	} else {
		s.coalesced.Add(1)
		s.tel.Inc(telemetry.CtrServeCoalesced)
		rec.Disposition = "coalesced"
	}

	select {
	case <-call.Done():
		payload, err := call.Result()
		noteFlight(rec, call, leader)
		if rec.Disposition == "forwarded" && rec.flight.fellBack.Load() {
			// The owner never answered; the flight degraded to a local
			// computation mid-call.
			rec.Disposition = "peer_fallback"
		}
		if err != nil {
			if errors.Is(err, errDraining) {
				// The drain re-check refused the computation after this
				// request joined (or led) the flight call.
				rec.Disposition = "draining"
				writeError(w, http.StatusServiceUnavailable, "draining")
				return
			}
			var pe *cluster.PeerStatusError
			if errors.As(err, &pe) {
				// Relay the owner's answer verbatim — status, message and
				// Retry-After hint. No local re-derivation (this node queued
				// nothing) and no second hop (the origin client owns the
				// retry budget).
				if pe.Status == http.StatusTooManyRequests || pe.Status == http.StatusServiceUnavailable {
					rec.Disposition = "forwarded_shed"
				} else {
					rec.Disposition = "forwarded_error"
				}
				if pe.RetryAfter != "" {
					w.Header().Set("Retry-After", pe.RetryAfter)
				}
				writeError(w, pe.Status, pe.Message)
				return
			}
			rec.Disposition = "error"
			if optimizer.IsMemoryLimit(err) {
				writeError(w, http.StatusUnprocessableEntity, err.Error())
			} else {
				writeError(w, http.StatusInternalServerError, err.Error())
			}
			return
		}
		respond(w, key, payload, rec)
	case <-ctx.Done():
		noteFlight(rec, call, leader)
		if call.Begun() {
			s.timedOutComputing.Add(1)
			s.tel.Inc(telemetry.CtrServeTimeoutComputing)
			rec.Disposition = "timeout_computing"
			s.writeRetryable(w, http.StatusServiceUnavailable, "deadline reached while computing")
		} else {
			s.timedOutQueued.Add(1)
			s.tel.Inc(telemetry.CtrServeTimeoutQueued)
			rec.Disposition = "timeout_queued"
			s.writeRetryable(w, http.StatusServiceUnavailable, "deadline reached while queued")
		}
	}
}

// noteFlight copies the answering computation's identity onto a waiter's
// record: followers report the leader's trace ID (and share its timing),
// the leader already carries its own.
func noteFlight(rec *RequestRecord, call *flight.Call[[]byte], leader bool) {
	if leader {
		return
	}
	meta, ok := call.Tag().(*flightMeta)
	if !ok {
		return
	}
	rec.flight = meta
	rec.FlightTraceID = meta.traceID
	if rec.ForwardedTo == "" {
		rec.ForwardedTo = meta.forwardedTo
	}
}

// runCall is the leader side of one flight call: wait for a worker slot
// (racing abandonment — if every waiter gives up first, nothing runs),
// compute, store, publish. A computation that began always completes, even
// with zero waiters left; if it then fails, the error would otherwise
// vanish with them, so it is counted as an abandoned error.
func (s *Server) runCall(call *flight.Call[[]byte], meta *flightMeta, req *OptimizeRequest, lib plan.Library, memLimit int64, key cache.Key) {
	defer s.wg.Done()
	queued := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-call.Abandoned():
		return
	}
	meta.queueWaitNs.Store(time.Since(queued).Nanoseconds())
	if !call.Begin() {
		// Abandoned in the instant the slot arrived; hand it back.
		<-s.sem
		return
	}
	s.computeCall(call, meta, req, lib, memLimit, key)
}

// computeCall is the slot-holding body of a computation: the caller has
// Begun the flight call and acquired a worker slot; computeCall runs the
// optimizer, stores the result and publishes the outcome. Shared by the
// plain miss path (runCall) and the owner-unreachable fallback (runForward).
func (s *Server) computeCall(call *flight.Call[[]byte], meta *flightMeta, req *OptimizeRequest, lib plan.Library, memLimit int64, key cache.Key) {
	s.tel.Observe(telemetry.MaxServeInFlight, s.inflight.Add(1))
	defer func() { <-s.sem; s.inflight.Add(-1) }()
	if testHookComputeStart != nil {
		testHookComputeStart()
	}
	s.computed.Add(1)
	computeStart := time.Now()
	payload, err := s.compute(req, lib, memLimit, meta)
	elapsed := time.Since(computeStart)
	meta.computeNs.Store(elapsed.Nanoseconds())
	s.observeComputeTime(elapsed)
	if s.cfg.KeepSpans {
		s.tel.RecordSpan(telemetry.Span{
			Name:    "flight compute",
			Cat:     "flight",
			Start:   s.tel.Now() - elapsed,
			Dur:     elapsed,
			TraceID: meta.traceID,
		})
	}
	if err == nil && s.cfg.Cache != nil && !req.Options.NoCache {
		s.cfg.Cache.Put(key, payload)
	}
	s.finishCall(call, meta, payload, err)
}

// finishCall publishes a flight call's outcome and accounts for failures
// nobody was left to observe: a computation that began always completes,
// and if it then fails with zero waiters the error would vanish with them,
// so it is counted as an abandoned error.
func (s *Server) finishCall(call *flight.Call[[]byte], meta *flightMeta, payload []byte, err error) {
	if waiters := call.Finish(payload, err); err != nil && waiters == 0 {
		s.abandonedErrs.Add(1)
		s.tel.Inc(telemetry.CtrServeAbandonedErrors)
		if s.logger != nil {
			s.logger.Debug("abandoned computation failed",
				slog.String("trace_id", meta.traceID),
				slog.String("error", err.Error()))
		}
	}
}

// runForward is the leader side of a forwarded flight call: re-encode the
// request, hand it to the owning peer (a single attempt under the per-hop
// timeout, hop-marked and traceparent-propagated so the cross-node spans
// join one trace) and publish the owner's deterministic bytes to every
// local waiter — local concurrent misses coalesce onto this one forward
// while the owner's own flight group coalesces across nodes. A hot-marked
// reply also fills the local cache (peer fill), so the next request for
// the key is a local hit on this node. An owner that answered non-2xx
// finishes the call with its *PeerStatusError for verbatim relay; an owner
// that never answered degrades to computing locally (peer fallback). The
// call Begins before the hop — forwarding holds no local worker slot, and
// a Begun call cannot be abandoned, so the fallback may block on a slot
// unconditionally.
func (s *Server) runForward(call *flight.Call[[]byte], meta *flightMeta, req *OptimizeRequest, lib plan.Library, memLimit int64, key cache.Key, owner string) {
	defer s.wg.Done()
	cl := s.cfg.Cluster
	if !call.Begin() {
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		s.finishCall(call, meta, nil, fmt.Errorf("re-encoding request for forward: %w", err))
		return
	}
	start := time.Now()
	reply, err := cl.Forward(context.Background(), owner, body, meta.trace.Child().Traceparent())
	meta.forwardNs.Store(time.Since(start).Nanoseconds())
	if err == nil {
		if reply.Hot && s.cfg.Cache != nil {
			s.cfg.Cache.Put(key, reply.Payload)
			cl.NoteHotFill()
		}
		s.finishCall(call, meta, reply.Payload, nil)
		return
	}
	var pe *cluster.PeerStatusError
	if errors.As(err, &pe) {
		s.finishCall(call, meta, nil, pe)
		return
	}
	// Transport-level failure: the owner never answered. Degrade to a local
	// computation so a dead peer costs one hop of latency, not availability.
	cl.NotePeerFallback()
	meta.fellBack.Store(true)
	if s.logger != nil {
		s.logger.Warn("peer forward failed, computing locally",
			slog.String("owner", owner),
			slog.String("trace_id", meta.traceID),
			slog.String("error", err.Error()))
	}
	queued := time.Now()
	s.sem <- struct{}{}
	meta.queueWaitNs.Store(time.Since(queued).Nanoseconds())
	s.computeCall(call, meta, req, lib, memLimit, key)
}

// markHot feeds one owner-served request for key into the hit EWMA and
// stamps the replication marker on the response when the key currently
// ranks in the top K, telling peers to fill their local caches.
func (s *Server) markHot(w http.ResponseWriter, key cache.Key) {
	if s.cfg.Cluster.TouchOwned(key) {
		w.Header().Set(cluster.HeaderHot, "1")
	}
}

// observeComputeTime folds one computation's wall time into the EWMA
// behind Retry-After hints (α = 1/8). The load/store pair may lose a
// concurrent update; the estimate tolerates that.
func (s *Server) observeComputeTime(d time.Duration) {
	n := d.Nanoseconds()
	if old := s.avgComputeNs.Load(); old > 0 {
		n = old + (n-old)/8
	}
	s.avgComputeNs.Store(n)
}

// retryAfterSeconds estimates how long until a retry is likely admitted:
// the pending queue drains in ceil(pending/workers) waves of roughly one
// smoothed computation each. Clamped to [1s, 60s] and recorded as the
// server.retry_after_ms watermark.
func (s *Server) retryAfterSeconds() int64 {
	avg := s.avgComputeNs.Load()
	if avg <= 0 {
		avg = int64(time.Second) // no completed computation yet
	}
	workers := int64(s.cfg.workers())
	pending := s.pending.Load()
	if pending < 1 {
		pending = 1
	}
	waves := (pending + workers - 1) / workers
	secs := (waves*avg + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	s.tel.Observe(telemetry.MaxServeRetryAfter, secs*1000)
	return secs
}

// writeRetryable answers a 429/503 with a queue-pressure-derived
// Retry-After hint.
func (s *Server) writeRetryable(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
	writeError(w, status, msg)
}

// decodeRequest reads the body and decodes and structurally validates it.
// A body over the configured limit is refused 413 whatever it holds, and
// the bytes after the request object may only be whitespace.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, int, error) {
	limit := s.cfg.maxBody()
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	// One read into one buffer sized from Content-Length: ReadFrom keeps
	// MinRead bytes free, so a complete body never regrows it.
	var body bytes.Buffer
	if r.ContentLength > 0 {
		body.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading request: %w", err)
	}
	var req OptimizeRequest
	if err := req.UnmarshalJSON(body.Bytes()); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err)
	}
	if req.Tree == nil {
		return nil, http.StatusBadRequest, errors.New("missing tree")
	}
	if err := req.Tree.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if len(req.Library) == 0 {
		return nil, http.StatusBadRequest, errors.New("missing library")
	}
	if req.Options.Workers < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("negative workers %d", req.Options.Workers)
	}
	if req.Options.TimeoutMs < 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("negative timeout_ms %d", req.Options.TimeoutMs)
	}
	if err := req.Options.policy().Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	return &req, 0, nil
}

// policy is the selection policy the request's options ask for.
func (o RequestOptions) policy() selection.Policy {
	return selection.Policy{K1: o.K1, K2: o.K2, Theta: o.Theta, S: o.S}
}

// compute runs one optimization and marshals the deterministic payload.
// The optimizer's scalar telemetry folds into the server collector through
// a per-request shard; spans are tagged with the leading request's trace ID
// and kept only under Config.KeepSpans (MergeScalars otherwise keeps the
// span slice bounded). With slow capture enabled, the shard's span tree is
// stashed on the flight meta before the shard is discarded, so a request
// that turns out slow can still attribute its compute time node by node.
func (s *Server) compute(req *OptimizeRequest, lib plan.Library, memLimit int64, meta *flightMeta) ([]byte, error) {
	olib := make(optimizer.Library, len(lib))
	for name, impls := range lib {
		olib[name] = shape.RList(impls) // canonical by construction
	}
	workers := req.Options.Workers
	if workers == 0 {
		// Default sequential: the pool already parallelizes across
		// requests; per-request parallelism is opt-in.
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	shard := s.tel.Shard()
	shard.SetTraceID(meta.traceID)
	// NoCache demands a private run: it must not read shared state another
	// request warmed, nor warm it — the same contract as the result cache.
	sub := s.cfg.Substore
	if req.Options.NoCache {
		sub = nil
	}
	o, err := optimizer.New(olib, optimizer.Options{
		Policy:        req.Options.policy(),
		MemoryLimit:   memLimit,
		SkipPlacement: req.Options.SkipPlacement,
		Workers:       workers,
		Telemetry:     shard,
		Substore:      sub,
	})
	if err != nil {
		return nil, err
	}
	res, err := o.Run(req.Tree)
	if err == nil && sub != nil {
		meta.subSpliced.Store(int64(res.Reuse.SplicedNodes))
		meta.subComputed.Store(int64(res.Reuse.ComputedNodes))
	}
	if s.slow != nil {
		sp := shard.Spans()
		meta.spans.Store(&sp)
	}
	if s.cfg.KeepSpans {
		s.tel.Merge(shard)
	} else {
		s.tel.MergeScalars(shard)
	}
	if err != nil {
		return nil, err
	}
	return marshalResult(res)
}

// respond writes the 200 reply of an optimize request, its runtime
// envelope built from the request's record.
func respond(w http.ResponseWriter, key cache.Key, payload []byte, rec *RequestRecord) {
	rt := ResponseRuntime{
		ElapsedMs: time.Since(rec.started).Milliseconds(),
		Cache:     rec.Disposition,
		NodeID:    rec.NodeID,
		// A coalesced follower reports the leader's trace ID — the trace
		// the answering computation actually ran under — with its own
		// span ID.
		TraceID: cmp.Or(rec.FlightTraceID, rec.TraceID),
		SpanID:  rec.SpanID,
	}
	if m := rec.flight; m != nil {
		// Subtree-store scorecard of the computation that answered this
		// request (the leader's, for coalesced followers). Zero for cache
		// hits, forwards and substore-less runs; runtime data by nature —
		// what resolves depends on store warmth, never the result bytes.
		rt.SubtreeSpliced = m.subSpliced.Load()
		rt.SubtreeComputed = m.subComputed.Load()
	}
	writeReply(w, key, payload, &rt)
}

// writeReply writes the 200 reply of an optimize request: the bytes
// json.Encoder writes for an OptimizeResponse, with the payload written
// as it is instead of re-encoded. The payload is json.Marshal output (here
// or on the peer that computed it), already compact and HTML-escaped,
// which the encoder would copy unchanged; the key is hex.
// TestWriteReplyMatchesEncoder pins the bytes.
func writeReply(w http.ResponseWriter, key cache.Key, payload []byte, rt *ResponseRuntime) {
	envelope, _ := json.Marshal(rt) // strings and integers always marshal
	head := make([]byte, 0, 2*len(key)+32)
	head = append(head, `{"key":"`...)
	head = hex.AppendEncode(head, key[:])
	head = append(head, `","result":`...)
	tail := append([]byte(`,"runtime":`), envelope...)
	tail = append(tail, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, b := range [][]byte{head, payload, tail} {
		if _, err := w.Write(b); err != nil {
			return // the client is gone; nothing left to tell it
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
