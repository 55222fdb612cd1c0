// Package telemetry is the measurement substrate of the floorplan system:
// lock-free counters, watermarks and histograms, a span recorder, a
// structured JSON run report, a Chrome trace_event export of the parallel
// schedule, and an expvar/pprof debug listener.
//
// Every recording method is nil-safe: a nil *Collector is the disabled
// state and costs exactly one branch per call site, so the optimizer's hot
// path carries no instrumentation overhead when telemetry is off. All
// scalar instruments are atomics — recording from any number of goroutines
// needs no locks and allocates nothing.
//
// Determinism: counters, watermarks and histogram buckets are folded by
// commutative operations (addition, max), so their merged values do not
// depend on which worker recorded what, or in what order — the same
// property PR 1's postorder stats merge gives the optimizer's Stats. The
// Report therefore splits into a deterministic section (bit-identical for
// any worker count on a successful run) and a Runtime section (wall times,
// spans, pool churn) that legitimately varies between runs;
// Report.Canonical strips the latter for diffing.
package telemetry

import (
	"sync"
	"time"
)

// Counter identifies one of the fixed additive metrics. The registry is a
// compile-time enum rather than a name map so that recording is a single
// atomic add with no hashing or allocation.
type Counter uint8

const (
	// Optimizer: bottom-up evaluation of the binary block tree.
	CtrNodes           Counter = iota // blocks evaluated
	CtrLNodes                         // L-shaped blocks evaluated
	CtrGenerated                      // implementations generated before selection
	CtrStored                         // implementations retained after selection
	CtrRSelections                    // R_Selection invocations
	CtrLSelections                    // L_Selection invocations
	CtrRSelectionError                // total staircase area admitted by R_Selection
	CtrLSelectionError                // total distance error admitted by L_Selection

	// Annealer: topology search moves.
	CtrMovesProposed
	CtrMovesAccepted
	CtrMovesImproved

	// Tables: paper-table grid cells (one optimizer run each).
	CtrCells

	// Generator: workload synthesis.
	CtrGenModules
	CtrGenImpls

	// Runtime-only counters: nondeterministic across runs or worker counts.
	CtrCSPPSolves   // CSPP DP solves
	CtrCSPPPoolHits // DP table pool reuses (capacity already sufficient)
	CtrCSPPPoolMiss // DP table pool misses (fresh allocation)
	CtrBatchWaste   // speculative anneal candidates evaluated then discarded

	// Serving layer: cross-request cache and request-queue churn. All
	// runtime-only — hit rates and shedding depend on request arrival
	// order, never on the optimization computed.
	CtrCacheHits             // cache lookups answered from a stored entry
	CtrCacheMisses           // cache lookups that fell through to computation
	CtrCacheEvictions        // entries evicted to fit the byte budget
	CtrCacheRejects          // entries too large to cache under the budget
	CtrServeRequests         // optimize requests admitted by the server
	CtrServeShed             // optimize requests shed with 429 (queue full)
	CtrServeCoalesced        // misses answered by joining an in-flight computation
	CtrServeTimeoutQueued    // requests that hit their deadline while still queued
	CtrServeTimeoutComputing // requests that hit their deadline while computing
	CtrServeAbandonedErrors  // abandoned computations that finished with an error

	// Client: retry loop of floorplan.Client.
	CtrClientAttempts // HTTP attempts, including first tries
	CtrClientRetries  // attempts that were retries of a retryable failure

	// Cluster tier: consistent-hash fingerprint sharding across fpserve
	// backends. All runtime-only — forwarding and replication depend on
	// request arrival and peer health, never on the optimization computed.
	CtrClusterForwarded     // requests proxied to their owning peer
	CtrClusterForwardErrors // forwards the owner answered non-2xx (relayed)
	CtrClusterPeerFallback  // owner unreachable; computed locally instead
	CtrClusterInternal      // hop-marked requests served for peers
	CtrClusterHotFills      // peer-fill stores of owner-marked hot keys
	CtrClusterReplicaHits   // local cache hits on peer-owned keys

	// Subtree result store: per-node shape-curve memoization across
	// requests. All runtime-only — what resolves from the store depends on
	// traffic history, never on the optimization computed (splices are
	// byte-identical to fresh evaluation by construction).
	CtrSubstoreHits      // node records resolved from the subtree store
	CtrSubstoreMisses    // node lookups that fell through to evaluation
	CtrSubstoreEvictions // node records evicted to fit the byte budget
	CtrSubstoreRejects   // node records too large to admit under the budget

	numCounters
)

// Watermark identifies one of the fixed maximum-value metrics.
type Watermark uint8

const (
	MaxPeakStored Watermark = iota // memtrack peak (the paper's M)
	MaxRList                       // largest rectangular list stored
	MaxLSet                        // largest L-shaped set stored
	MaxCSPPN                       // largest CSPP instance size n
	MaxCSPPK                       // largest CSPP path length k

	// Runtime-only watermarks: high-water marks of serving-layer state.
	MaxServeQueue      // deepest optimize-request queue observed
	MaxServeInFlight   // most requests evaluating concurrently
	MaxCacheBytes      // largest cache byte footprint observed
	MaxServeRetryAfter // largest Retry-After hint sent, in milliseconds

	MaxClusterForwardInflight // most peer forwards in flight concurrently

	MaxSubstoreBytes // largest subtree-store byte footprint observed

	numWatermarks
)

// Hist identifies one of the fixed histograms.
type Hist uint8

const (
	// Deterministic, size-valued.
	HistListBefore Hist = iota // per-node implementation count before selection
	HistListAfter              // per-node implementation count after selection

	// Runtime-only, time-valued (nanoseconds).
	HistNodeEvalNs // per-node evaluation wall time
	HistCellNs     // per-table-cell wall time
	HistAnnealNs   // per-candidate annealer evaluation wall time

	// Serving layer: end-to-end /v1/optimize latency split by disposition,
	// so a scrape distinguishes cheap cache hits from computations and from
	// the shed/timeout tail. All runtime-only.
	HistServeHitNs       // answered from the cache
	HistServeMissNs      // led a fresh computation
	HistServeCoalescedNs // joined another request's in-flight computation
	HistServeBypassNs    // cache bypassed (NoCache) or disabled
	HistServeShedNs      // shed at admission or timed out (429/503)
	HistServeErrorNs     // invalid requests and failed computations

	// Cluster tier: forward hop round trips and the end-to-end latency of
	// the two cluster dispositions. All runtime-only.
	HistClusterForwardNs // one forward hop to the owning peer, round trip
	HistServeForwardedNs // end-to-end, answered by proxying to the owner
	HistServeFallbackNs  // end-to-end, computed locally after owner failure

	numHists
)

// metricMeta names an instrument, carries its scrape-facing help string
// (the HELP line of the Prometheus exposition) and classifies it as
// deterministic or runtime-only for report placement. Every enum value
// must have a name and a help string; a lint test enforces it so the enum
// and this table cannot drift apart.
type metricMeta struct {
	name    string
	help    string
	runtime bool
}

var counterMeta = [numCounters]metricMeta{
	CtrNodes:                 {name: "optimizer.nodes", help: "Floorplan blocks evaluated bottom-up."},
	CtrLNodes:                {name: "optimizer.l_nodes", help: "L-shaped blocks evaluated."},
	CtrGenerated:             {name: "optimizer.generated", help: "Implementations generated before selection."},
	CtrStored:                {name: "optimizer.stored", help: "Implementations retained after selection."},
	CtrRSelections:           {name: "optimizer.r_selections", help: "R_Selection invocations."},
	CtrLSelections:           {name: "optimizer.l_selections", help: "L_Selection invocations."},
	CtrRSelectionError:       {name: "optimizer.r_selection_error", help: "Total staircase area admitted by R_Selection."},
	CtrLSelectionError:       {name: "optimizer.l_selection_error", help: "Total distance error admitted by L_Selection."},
	CtrMovesProposed:         {name: "anneal.proposed", help: "Topology moves proposed by the annealer."},
	CtrMovesAccepted:         {name: "anneal.accepted", help: "Topology moves accepted by the annealer."},
	CtrMovesImproved:         {name: "anneal.improved", help: "Accepted moves that improved the best area."},
	CtrCells:                 {name: "tables.cells", help: "Paper-table grid cells run (one optimization each)."},
	CtrGenModules:            {name: "gen.modules", help: "Modules synthesized by the workload generator."},
	CtrGenImpls:              {name: "gen.impls", help: "Implementations synthesized by the workload generator."},
	CtrCSPPSolves:            {name: "cspp.solves", help: "Constrained-shortest-path DP solves.", runtime: true},
	CtrCSPPPoolHits:          {name: "cspp.pool_hits", help: "CSPP DP table pool reuses.", runtime: true},
	CtrCSPPPoolMiss:          {name: "cspp.pool_misses", help: "CSPP DP table pool misses (fresh allocations).", runtime: true},
	CtrBatchWaste:            {name: "anneal.batch_waste", help: "Speculative anneal candidates evaluated then discarded.", runtime: true},
	CtrCacheHits:             {name: "cache.hits", help: "Result-cache lookups answered from a stored entry.", runtime: true},
	CtrCacheMisses:           {name: "cache.misses", help: "Result-cache lookups that fell through to computation.", runtime: true},
	CtrCacheEvictions:        {name: "cache.evictions", help: "Result-cache entries evicted to fit the byte budget.", runtime: true},
	CtrCacheRejects:          {name: "cache.rejects", help: "Result-cache entries too large to admit under the budget.", runtime: true},
	CtrServeRequests:         {name: "server.requests", help: "Optimize requests admitted by the server.", runtime: true},
	CtrServeShed:             {name: "server.shed", help: "Optimize requests shed with 429 (queue full).", runtime: true},
	CtrServeCoalesced:        {name: "server.coalesced", help: "Cache misses answered by joining an in-flight computation.", runtime: true},
	CtrServeTimeoutQueued:    {name: "server.timeout_queued", help: "Requests that hit their deadline while still queued.", runtime: true},
	CtrServeTimeoutComputing: {name: "server.timeout_computing", help: "Requests that hit their deadline while computing.", runtime: true},
	CtrServeAbandonedErrors:  {name: "server.abandoned_errors", help: "Abandoned computations that finished with an error.", runtime: true},
	CtrClientAttempts:        {name: "client.attempts", help: "Client HTTP attempts, including first tries.", runtime: true},
	CtrClientRetries:         {name: "client.retries", help: "Client attempts that were retries of a retryable failure.", runtime: true},
	CtrClusterForwarded:      {name: "cluster.forwarded", help: "Requests proxied to their owning peer.", runtime: true},
	CtrClusterForwardErrors:  {name: "cluster.forward_errors", help: "Forwards whose owner answered non-2xx (relayed to the client).", runtime: true},
	CtrClusterPeerFallback:   {name: "cluster.peer_fallback", help: "Requests computed locally because their owner was unreachable.", runtime: true},
	CtrClusterInternal:       {name: "cluster.internal_requests", help: "Hop-marked optimize requests served for peers.", runtime: true},
	CtrClusterHotFills:       {name: "cluster.hot_fills", help: "Peer-fill cache stores of owner-marked hot keys.", runtime: true},
	CtrClusterReplicaHits:    {name: "cluster.replica_hits", help: "Local cache hits on keys owned by a peer.", runtime: true},
	CtrSubstoreHits:          {name: "substore.hits", help: "Subtree-store node records resolved without evaluation.", runtime: true},
	CtrSubstoreMisses:        {name: "substore.misses", help: "Subtree-store node lookups that fell through to evaluation.", runtime: true},
	CtrSubstoreEvictions:     {name: "substore.evictions", help: "Subtree-store node records evicted to fit the byte budget.", runtime: true},
	CtrSubstoreRejects:       {name: "substore.rejects", help: "Subtree-store node records too large to admit under the budget.", runtime: true},
}

var watermarkMeta = [numWatermarks]metricMeta{
	MaxPeakStored:      {name: "memtrack.peak", help: "Peak implementations stored (the paper's M)."},
	MaxRList:           {name: "optimizer.max_rlist", help: "Largest rectangular implementation list stored."},
	MaxLSet:            {name: "optimizer.max_lset", help: "Largest L-shaped implementation set stored."},
	MaxCSPPN:           {name: "cspp.max_n", help: "Largest CSPP instance size n."},
	MaxCSPPK:           {name: "cspp.max_k", help: "Largest CSPP path length k."},
	MaxServeQueue:      {name: "server.queue_peak", help: "Deepest optimize-request queue observed.", runtime: true},
	MaxServeInFlight:   {name: "server.inflight_peak", help: "Most requests evaluating concurrently.", runtime: true},
	MaxCacheBytes:      {name: "cache.bytes_peak", help: "Largest result-cache byte footprint observed.", runtime: true},
	MaxServeRetryAfter: {name: "server.retry_after_ms", help: "Largest Retry-After hint sent, in milliseconds.", runtime: true},
	MaxClusterForwardInflight: {name: "cluster.forward_inflight_peak",
		help: "Most peer forwards in flight concurrently.", runtime: true},
	MaxSubstoreBytes: {name: "substore.bytes_peak",
		help: "Largest subtree-store byte footprint observed.", runtime: true},
}

var histMeta = [numHists]metricMeta{
	HistListBefore:       {name: "optimizer.list_before", help: "Per-node implementation count before selection."},
	HistListAfter:        {name: "optimizer.list_after", help: "Per-node implementation count after selection."},
	HistNodeEvalNs:       {name: "optimizer.node_eval_ns", help: "Per-node evaluation wall time in nanoseconds.", runtime: true},
	HistCellNs:           {name: "tables.cell_ns", help: "Per-table-cell wall time in nanoseconds.", runtime: true},
	HistAnnealNs:         {name: "anneal.eval_ns", help: "Per-candidate annealer evaluation wall time in nanoseconds.", runtime: true},
	HistServeHitNs:       {name: "server.latency_hit_ns", help: "End-to-end latency of optimize requests answered from the cache, in nanoseconds.", runtime: true},
	HistServeMissNs:      {name: "server.latency_miss_ns", help: "End-to-end latency of optimize requests that led a fresh computation, in nanoseconds.", runtime: true},
	HistServeCoalescedNs: {name: "server.latency_coalesced_ns", help: "End-to-end latency of optimize requests that joined an in-flight computation, in nanoseconds.", runtime: true},
	HistServeBypassNs:    {name: "server.latency_bypass_ns", help: "End-to-end latency of optimize requests that bypassed the cache or ran with it disabled, in nanoseconds.", runtime: true},
	HistServeShedNs:      {name: "server.latency_shed_ns", help: "End-to-end latency of optimize requests shed or timed out (429/503), in nanoseconds.", runtime: true},
	HistServeErrorNs:     {name: "server.latency_error_ns", help: "End-to-end latency of invalid or failed optimize requests, in nanoseconds.", runtime: true},
	HistClusterForwardNs: {name: "cluster.forward_ns", help: "Round-trip time of one forward hop to the owning peer, in nanoseconds.", runtime: true},
	HistServeForwardedNs: {name: "server.latency_forwarded_ns", help: "End-to-end latency of optimize requests answered by proxying to their owning peer, in nanoseconds.", runtime: true},
	HistServeFallbackNs:  {name: "server.latency_fallback_ns", help: "End-to-end latency of optimize requests computed locally after their owner was unreachable, in nanoseconds.", runtime: true},
}

// Collector accumulates one run's telemetry. The zero value is not used;
// create collectors with New (or Shard, to share the epoch). All methods
// are safe for concurrent use and safe on a nil receiver.
type Collector struct {
	epoch      time.Time
	counters   [numCounters]paddedInt64
	watermarks [numWatermarks]paddedInt64
	hists      [numHists]Histogram

	mu      sync.Mutex
	spans   []Span
	tracks  map[int]*trackAccum
	traceID string // default TraceID stamped on recorded spans
}

// trackAccum aggregates per-track (per-worker) busy time for the report.
type trackAccum struct {
	busy  time.Duration
	spans int
}

// New returns an empty collector whose span clock starts now.
func New() *Collector {
	return &Collector{epoch: time.Now(), tracks: make(map[int]*trackAccum)}
}

// Shard returns an empty collector sharing c's epoch, so spans recorded in
// the shard stay on the parent's timeline and Merge composes them
// seamlessly. Shard of a nil collector is nil, so a disabled parent
// propagates the disabled state for free.
func (c *Collector) Shard() *Collector {
	if c == nil {
		return nil
	}
	return &Collector{epoch: c.epoch, tracks: make(map[int]*trackAccum)}
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil }

// SetTraceID sets the default trace identity stamped on every span
// subsequently recorded on this collector (spans carrying their own
// TraceID keep it). The serving layer sets it on per-request shards so the
// optimizer's spans — recorded deep below the HTTP layer, which never sees
// the request — still land in the request's trace.
func (c *Collector) SetTraceID(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.traceID = id
	c.mu.Unlock()
}

// Add adds n to a counter.
func (c *Collector) Add(ctr Counter, n int64) {
	if c == nil {
		return
	}
	c.counters[ctr].v.Add(n)
}

// Inc adds 1 to a counter.
func (c *Collector) Inc(ctr Counter) { c.Add(ctr, 1) }

// Observe raises a watermark to at least v.
func (c *Collector) Observe(w Watermark, v int64) {
	if c == nil {
		return
	}
	bumpMax(&c.watermarks[w].v, v)
}

// Record adds one observation to a histogram. Negative values clamp to 0.
func (c *Collector) Record(h Hist, v int64) {
	if c == nil {
		return
	}
	c.hists[h].Observe(v)
}

// Counter returns a counter's current value (0 on a nil collector).
func (c *Collector) Counter(ctr Counter) int64 {
	if c == nil {
		return 0
	}
	return c.counters[ctr].v.Load()
}

// Watermark returns a watermark's current value (0 on a nil collector).
func (c *Collector) Watermark(w Watermark) int64 {
	if c == nil {
		return 0
	}
	return c.watermarks[w].v.Load()
}

// Now returns the time since the collector's epoch — the timeline spans
// live on. A nil collector reports 0 without reading the clock.
func (c *Collector) Now() time.Duration {
	if c == nil {
		return 0
	}
	return time.Since(c.epoch)
}

// Merge folds the shards into c: counters add, watermarks max, histograms
// add bucketwise, spans and track accumulators concatenate. All scalar
// folds are commutative, so any merge order yields the same deterministic
// report section; callers that also need a canonical span order (the trace
// export) get it from WriteTrace's sort. Mirroring the optimizer's
// postorder stats merge, callers should still pass shards in their
// canonical order so span slices concatenate reproducibly for equal
// timestamps. Nil shards are skipped; merging into a nil collector is a
// no-op.
func (c *Collector) Merge(shards ...*Collector) {
	if c == nil {
		return
	}
	for _, s := range shards {
		if s == nil || s == c {
			continue
		}
		for i := range s.counters {
			if v := s.counters[i].v.Load(); v != 0 {
				c.counters[i].v.Add(v)
			}
		}
		for i := range s.watermarks {
			bumpMax(&c.watermarks[i].v, s.watermarks[i].v.Load())
		}
		for i := range s.hists {
			c.hists[i].Merge(&s.hists[i])
		}
		s.mu.Lock()
		spans := append([]Span(nil), s.spans...)
		tracks := make(map[int]trackAccum, len(s.tracks))
		for id, t := range s.tracks {
			tracks[id] = *t
		}
		s.mu.Unlock()
		c.mu.Lock()
		c.spans = append(c.spans, spans...)
		for id, t := range tracks {
			c.track(id).add(t)
		}
		c.mu.Unlock()
	}
}

// MergeScalars folds only the shards' counters, watermarks and histograms
// into c, discarding their spans and track accumulators. Long-lived callers
// (the serving layer folds one shard per request) use this to accumulate
// run metrics without growing the span slice without bound; Merge remains
// the right fold for bounded runs that want the trace.
func (c *Collector) MergeScalars(shards ...*Collector) {
	if c == nil {
		return
	}
	for _, s := range shards {
		if s == nil || s == c {
			continue
		}
		for i := range s.counters {
			if v := s.counters[i].v.Load(); v != 0 {
				c.counters[i].v.Add(v)
			}
		}
		for i := range s.watermarks {
			bumpMax(&c.watermarks[i].v, s.watermarks[i].v.Load())
		}
		for i := range s.hists {
			c.hists[i].Merge(&s.hists[i])
		}
	}
}

// track returns the accumulator for a track id; c.mu must be held.
func (c *Collector) track(id int) *trackAccum {
	t := c.tracks[id]
	if t == nil {
		t = &trackAccum{}
		c.tracks[id] = t
	}
	return t
}

func (t *trackAccum) add(o trackAccum) {
	t.busy += o.busy
	t.spans += o.spans
}
