package server

import (
	"encoding/json"
	"fmt"
	"time"

	"floorplan/internal/buildinfo"
	"floorplan/internal/cache"
	"floorplan/internal/cluster"
	"floorplan/internal/jsondec"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/shape"
	"floorplan/internal/substore"
	"floorplan/internal/telemetry"
)

// Wire format of the fpserve HTTP API. The optimize response splits the way
// the telemetry report does: Result is the deterministic payload — cached
// verbatim, bit-identical for any worker count and for cached vs. freshly
// computed answers — while Runtime carries what legitimately varies
// (latency, cache disposition).

// OptimizeRequest is the POST /v1/optimize body.
type OptimizeRequest struct {
	// Tree is the floorplan topology (the EncodeTree JSON format).
	Tree *plan.Node `json:"tree"`
	// Library maps module names to implementation lists (the EncodeLibrary
	// format); lists need not be canonical.
	Library plan.Library `json:"library"`
	// Options tune the run; the zero value optimizes exactly.
	Options RequestOptions `json:"options,omitempty"`
}

// RequestOptions mirrors floorplan.Options plus serving controls.
type RequestOptions struct {
	// K1, K2, Theta, S configure the paper's selection algorithms.
	K1    int     `json:"k1,omitempty"`
	K2    int     `json:"k2,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	S     int     `json:"s,omitempty"`
	// MemoryLimit caps stored implementations; the server clamps it to its
	// own configured ceiling.
	MemoryLimit int64 `json:"memory_limit,omitempty"`
	// SkipPlacement omits the placement from the result.
	SkipPlacement bool `json:"skip_placement,omitempty"`
	// Workers bounds this request's evaluation goroutines (0 = 1, i.e.
	// sequential; the server's pool already provides cross-request
	// parallelism). Does not participate in the cache key: results are
	// bit-identical for every worker count.
	Workers int `json:"workers,omitempty"`
	// TimeoutMs overrides the server's per-request deadline downwards.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the cache for this request: no lookup, no store.
	NoCache bool `json:"no_cache,omitempty"`
}

var (
	requestFields = []string{"tree", "library", "options"}
	optionFields  = []string{"k1", "k2", "theta", "s", "memory_limit", "skip_placement", "workers", "timeout_ms", "no_cache"}
)

// UnmarshalJSON decodes a request in one pass over data, without
// reflection. Every field decodes as encoding/json decodes it into a copy
// of OptimizeRequest without methods whose tree is the plan.Node JSON
// shape (see plan.TreeDecoder, plan.DecodeLibrary and package jsondec),
// and the input is rejected wherever that decode fails or plan.Node's own
// decoding would: an unknown node kind or a null child. Keys match fields
// exactly, then case-insensitively; the last of a repeated key wins, and
// objects decode into what an earlier key left, so a second "library"
// merges into the first and a second "options" overwrites only the fields
// it names. Only whitespace may follow the request object.
func (r *OptimizeRequest) UnmarshalJSON(data []byte) error {
	d := jsondec.New(data)
	var trees plan.TreeDecoder
	if err := r.decode(d, &trees); err != nil {
		return err
	}
	if err := d.End(); err != nil {
		return err
	}
	if r.Tree == nil {
		return nil
	}
	return trees.Check(r.Tree)
}

func (r *OptimizeRequest) decode(d *jsondec.Decoder, trees *plan.TreeDecoder) error {
	if d.Null() {
		return nil
	}
	if err := d.Begin('{'); err != nil {
		return err
	}
	for i := 0; ; i++ {
		key, ok, err := d.Member(i)
		if err != nil || !ok {
			return err
		}
		name := jsondec.Match(key, requestFields)
		switch name {
		case "tree":
			err = trees.Decode(d, &r.Tree)
		case "library":
			err = plan.DecodeLibrary(d, &r.Library)
		case "options":
			err = r.Options.decode(d)
		default:
			name = string(key)
			err = d.Skip()
		}
		if err != nil {
			return jsondec.Field(err, name)
		}
	}
}

func (o *RequestOptions) decode(d *jsondec.Decoder) error {
	if d.Null() {
		return nil
	}
	if err := d.Begin('{'); err != nil {
		return err
	}
	for i := 0; ; i++ {
		key, ok, err := d.Member(i)
		if err != nil || !ok {
			return err
		}
		name := jsondec.Match(key, optionFields)
		switch name {
		case "k1":
			err = d.Int(&o.K1)
		case "k2":
			err = d.Int(&o.K2)
		case "theta":
			err = d.Float64(&o.Theta)
		case "s":
			err = d.Int(&o.S)
		case "memory_limit":
			err = d.Int64(&o.MemoryLimit)
		case "skip_placement":
			err = d.Bool(&o.SkipPlacement)
		case "workers":
			err = d.Int(&o.Workers)
		case "timeout_ms":
			err = d.Int64(&o.TimeoutMs)
		case "no_cache":
			err = d.Bool(&o.NoCache)
		default:
			name = string(key)
			err = d.Skip()
		}
		if err != nil {
			return jsondec.Field(err, name)
		}
	}
}

// OptimizeResponse is the POST /v1/optimize reply.
type OptimizeResponse struct {
	// Key is the request's content address (hex), the cache key.
	Key string `json:"key"`
	// Result is the deterministic payload (a marshaled Result). It is the
	// exact byte sequence the first computation of this key produced.
	Result json.RawMessage `json:"result"`
	// Runtime varies per request and is never cached.
	Runtime ResponseRuntime `json:"runtime"`
}

// ResponseRuntime is the nondeterministic half of a reply.
type ResponseRuntime struct {
	ElapsedMs int64 `json:"elapsed_ms"`
	// Cache is the disposition: "hit", "miss", "coalesced" (answered by
	// joining another request's in-flight computation of the same key),
	// "bypass" (NoCache set), "off" (server cache disabled), "forwarded"
	// (cluster mode: answered by the key's owning peer) or "peer_fallback"
	// (owner unreachable, computed locally).
	Cache string `json:"cache"`
	// NodeID names the node that answered; empty when the server runs
	// without an id.
	NodeID string `json:"node_id,omitempty"`
	// TraceID is the W3C trace ID the answer was produced under: the
	// caller's own trace (propagated from its traceparent header, or minted
	// by the server), except for coalesced answers, which report the trace
	// of the leading request whose computation they shared.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID is the server-side span for this specific request, always the
	// request's own even when TraceID names the coalesced leader's trace.
	SpanID string `json:"span_id,omitempty"`
	// SubtreeSpliced/SubtreeComputed are the answering computation's
	// subtree-store scorecard: how many tree nodes resolved from the store
	// versus were evaluated. Runtime data (store warmth varies; the result
	// bytes never do); both absent for cache hits, forwards and runs
	// without a subtree store.
	SubtreeSpliced  int64 `json:"subtree_spliced,omitempty"`
	SubtreeComputed int64 `json:"subtree_computed,omitempty"`
}

// Result is the deterministic optimization payload.
type Result struct {
	Best     shape.RImpl   `json:"best"`
	Area     int64         `json:"area"`
	RootList []shape.RImpl `json:"root_list"`
	Stats    ResultStats   `json:"stats"`
	// NodeStats describes every evaluated block in preorder.
	NodeStats []optimizer.NodeStat `json:"node_stats,omitempty"`
	// Placement realizes Best, sorted by module name (omitted with
	// SkipPlacement).
	Placement []PlacedModule `json:"placement,omitempty"`
}

// ResultStats is optimizer.Stats minus Elapsed — wall time is runtime data
// and must not fragment cached payloads.
type ResultStats struct {
	PeakStored  int64 `json:"peak_stored"`
	FinalStored int64 `json:"final_stored"`
	Generated   int64 `json:"generated"`
	Nodes       int   `json:"nodes"`
	LNodes      int   `json:"l_nodes"`
	RSelections int   `json:"r_selections"`
	LSelections int   `json:"l_selections"`
	MaxRList    int   `json:"max_rlist"`
	MaxLSet     int   `json:"max_lset"`
}

// PlacedModule is one realized module box.
type PlacedModule struct {
	Module string `json:"module"`
	X      int64  `json:"x"`
	Y      int64  `json:"y"`
	W      int64  `json:"w"`
	H      int64  `json:"h"`
	ImplW  int64  `json:"impl_w"`
	ImplH  int64  `json:"impl_h"`
}

// DecodeResult unmarshals the deterministic payload.
func (r *OptimizeResponse) DecodeResult() (*Result, error) {
	var out Result
	if err := json.Unmarshal(r.Result, &out); err != nil {
		return nil, fmt.Errorf("server: decoding result payload: %w", err)
	}
	return &out, nil
}

// marshalResult builds the deterministic payload bytes from an optimizer
// result. Struct (not map) marshaling plus the name-sorted placement makes
// the bytes a pure function of the computation.
func marshalResult(res *optimizer.Result) ([]byte, error) {
	out := Result{
		Best:     res.Best,
		Area:     res.Best.Area(),
		RootList: []shape.RImpl(res.RootList),
		Stats: ResultStats{
			PeakStored:  res.Stats.PeakStored,
			FinalStored: res.Stats.FinalStored,
			Generated:   res.Stats.Generated,
			Nodes:       res.Stats.Nodes,
			LNodes:      res.Stats.LNodes,
			RSelections: res.Stats.RSelections,
			LSelections: res.Stats.LSelections,
			MaxRList:    res.Stats.MaxRList,
			MaxLSet:     res.Stats.MaxLSet,
		},
		NodeStats: res.NodeStats,
	}
	if res.Placement != nil {
		for _, m := range res.Placement.ByModule() {
			out.Placement = append(out.Placement, PlacedModule{
				Module: m.Module,
				X:      m.Box.MinX, Y: m.Box.MinY,
				W: m.Box.Width(), H: m.Box.Height(),
				ImplW: m.Impl.W, ImplH: m.Impl.H,
			})
		}
	}
	return json.Marshal(out)
}

// StatsResponse is the GET /v1/stats reply.
type StatsResponse struct {
	// StartTimeUnixMs is the wall-clock instant the server process started
	// serving. A poller that sees it change between two scrapes knows the
	// server restarted — and that every counter below reset with it, so
	// deltas across the two scrapes are meaningless. The load harness uses
	// exactly this to invalidate a run whose server died mid-way.
	StartTimeUnixMs int64   `json:"start_time_unix_ms"`
	UptimeMs        int64   `json:"uptime_ms"`
	UptimeSeconds   float64 `json:"uptime_s"`
	// NodeID names this instance in cluster deployments (empty when unset).
	NodeID string `json:"node_id,omitempty"`
	// Version is the binary's build identity (VCS revision, toolchain). The
	// cluster stats aggregator compares it across nodes and flags
	// mixed-version rings.
	Version  buildinfo.Info `json:"version"`
	Requests int64          `json:"requests"`
	// Computed counts optimizer runs executed on this node — the number
	// cluster-wide dedup assertions sum across peers: a coalesced, cached or
	// forwarded answer does not increment it, only an actual local run.
	Computed int64 `json:"computed"`
	// Shed counts requests refused 429 at admission (queue full).
	Shed int64 `json:"shed"`
	// Coalesced counts misses answered by joining another request's
	// in-flight computation of the same key.
	Coalesced int64 `json:"coalesced"`
	// TimedOutQueued / TimedOutComputing split the deadline 503s by
	// whether the computation had begun when the deadline hit.
	TimedOutQueued    int64 `json:"timed_out_queued"`
	TimedOutComputing int64 `json:"timed_out_computing"`
	// AbandonedErrors counts detached (post-timeout) computations that
	// failed after every waiter had already been answered 503 — errors no
	// response could carry.
	AbandonedErrors int64       `json:"abandoned_errors"`
	InFlight        int64       `json:"in_flight"`
	Pending         int64       `json:"pending"`
	Workers         int         `json:"workers"`
	QueueCapacity   int         `json:"queue_capacity"`
	Cache           cache.Stats `json:"cache"`
	CacheEnabled    bool        `json:"cache_enabled"`
	// Substore carries the subtree result store's counters (per-node hits,
	// misses, evictions and byte footprint); zeros when disabled.
	Substore        substore.Stats `json:"substore"`
	SubstoreEnabled bool           `json:"substore_enabled"`
	// Cluster carries the multi-node tier's counters (forwards, fallbacks,
	// hot fills); absent on single-node servers.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Histograms exports the server's populated latency/size histograms
	// keyed by metric name (the same data GET /metrics renders); empty
	// histograms are omitted, and the whole field is absent when telemetry
	// is disabled or nothing has been recorded yet.
	Histograms map[string]telemetry.HistSnapshot `json:"histograms,omitempty"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

// StatusError is the client-side form of a non-2xx reply.
type StatusError struct {
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint, when the reply carried
	// one (0 otherwise).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Code, e.Message)
}
