// Package floorplan is a library for floorplan area optimization over fixed
// topologies, reproducing the system of Wang and Wong:
//
//	"A Graph Theoretic Technique to Speed up Floorplan Area Optimization"
//	(DAC 1992 / UT Austin TR-91-26),
//
// including the host optimizer of Wang–Wong DAC'90 it builds on, the
// constrained-shortest-path implementation-selection algorithms R_Selection
// and L_Selection that are the paper's contribution, Stockmeyer's slicing
// baseline, and the paper's evaluation harness.
//
// # Quick start
//
//	tree := floorplan.Wheel(
//	    floorplan.Leaf("nw"), floorplan.Leaf("ne"), floorplan.Leaf("se"),
//	    floorplan.Leaf("sw"), floorplan.Leaf("c"))
//	lib := floorplan.Library{
//	    "nw": {{W: 4, H: 7}}, "ne": {{W: 6, H: 4}}, "se": {{W: 3, H: 6}},
//	    "sw": {{W: 7, H: 3}}, "c": {{W: 3, H: 3}},
//	}
//	res, err := floorplan.Optimize(tree, lib, floorplan.Options{})
//	// res.Best is the minimum-area envelope; res.Placement the realization.
//
// To bound memory on large floorplans the way the paper does, set
// Options.Selection:
//
//	res, err = floorplan.Optimize(tree, lib, floorplan.Options{
//	    Selection: floorplan.Selection{K1: 40, K2: 2000, Theta: 0.5, S: 500},
//	})
//
// The packages under internal/ hold the implementation: shape lists, the
// CSPP solver, the selection algorithms, tree restructuring, combination
// operators, the optimizer, and the experiment harness.
package floorplan

import (
	"context"
	"io"
	"math/rand"

	"floorplan/internal/cache"
	"floorplan/internal/gen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/render"
	"floorplan/internal/reqid"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
	"floorplan/internal/stockmeyer"
	"floorplan/internal/telemetry"
)

// Impl is a rectangular implementation (width, height).
type Impl = shape.RImpl

// LShape is an L-shaped implementation (the paper's 4-tuple).
type LShape = shape.LImpl

// Library maps module names to implementation lists. Lists may be given in
// any order with redundant entries; Optimize canonicalizes them.
type Library map[string][]Impl

// Tree is a floorplan topology node.
type Tree = plan.Node

// Leaf returns a basic rectangle holding the named module.
func Leaf(module string) *Tree { return plan.NewLeaf(module) }

// VSlice cuts a rectangle vertically; children are placed left to right.
func VSlice(children ...*Tree) *Tree { return plan.NewVSlice(children...) }

// HSlice cuts a rectangle horizontally; children are stacked bottom to top.
func HSlice(children ...*Tree) *Tree { return plan.NewHSlice(children...) }

// Wheel arranges five blocks in a clockwise pinwheel [NW, NE, SE, SW,
// center] — the order-5 non-slicing pattern.
func Wheel(nw, ne, se, sw, center *Tree) *Tree { return plan.NewWheel(nw, ne, se, sw, center) }

// CCWWheel is the counter-clockwise (mirrored) pinwheel.
func CCWWheel(nw, ne, se, sw, center *Tree) *Tree {
	return plan.NewCCWWheel(nw, ne, se, sw, center)
}

// ParseTree decodes a floorplan tree from JSON (see EncodeTree).
func ParseTree(data []byte) (*Tree, error) { return plan.ParseTree(data) }

// EncodeTree encodes a floorplan tree as JSON.
func EncodeTree(t *Tree) ([]byte, error) { return plan.EncodeTree(t) }

// Selection configures the paper's implementation-selection algorithms.
type Selection struct {
	// K1 caps each rectangular block's implementation count via
	// R_Selection (0 = off).
	K1 int
	// K2 caps each L-shaped block's implementation count via L_Selection
	// (0 = off).
	K2 int
	// Theta only triggers L_Selection when K2/X < Theta (0 = always when
	// X > K2).
	Theta float64
	// S pre-reduces an L-list heuristically to S entries before the exact
	// O(n³) L_Selection runs (0 = never).
	S int
}

// Options configures Optimize.
type Options struct {
	// Selection enables the paper's memory-reduction technique.
	Selection Selection
	// MemoryLimit aborts the run when more than this many implementations
	// are stored (0 = unlimited), reproducing the out-of-memory behaviour
	// the paper addresses. Use IsMemoryLimit to detect the failure.
	MemoryLimit int64
	// SkipPlacement skips traceback; only the optimal area is computed.
	SkipPlacement bool
	// Workers bounds the number of goroutines evaluating floorplan blocks
	// concurrently (0 = one per CPU, 1 = sequential). Successful runs
	// return bit-identical results for every worker count. A
	// memory-limited run (MemoryLimit > 0) always evaluates sequentially,
	// in the order the paper's M is measured in, so it too has one outcome
	// for every worker count: the same result, or the same IsMemoryLimit
	// error and partial Stats.
	Workers int
	// Telemetry, when non-nil, records the run's metrics, per-block eval
	// spans and pipeline stage spans; read them back with
	// Collector.Report or export a Chrome trace with WriteTrace. nil (the
	// default) disables collection with no measurable overhead.
	Telemetry *Collector
}

// Collector gathers metrics, spans and histograms across a run; create one
// with NewCollector and pass it via Options.Telemetry. All methods are safe
// for concurrent use; a nil *Collector is the disabled state.
type Collector = telemetry.Collector

// TelemetryReport is the structured JSON run report a Collector snapshots:
// a deterministic section (identical for any worker count) and a Runtime
// section (wall times, spans, contention churn).
type TelemetryReport = telemetry.Report

// HistSnapshot is a latency/size histogram's point-in-time state, as carried
// by /v1/stats and /v1/cluster/stats; its Quantile method answers p50/p99
// queries from the bucket counts.
type HistSnapshot = telemetry.HistSnapshot

// HistExemplar is one histogram bucket's trace link: the W3C trace ID of a
// real request that landed in the bucket, with the node that recorded it in
// cluster aggregates.
type HistExemplar = telemetry.Exemplar

// NewCollector returns an empty telemetry collector whose span clock
// starts now.
func NewCollector() *Collector { return telemetry.New() }

// WriteTrace writes the collector's spans in Chrome trace_event format
// (load in Perfetto or chrome://tracing): one logical thread per worker,
// with per-block evaluation spans placed on the timeline.
func WriteTrace(w io.Writer, c *Collector) error { return c.WriteTrace(w) }

// WithTraceparent attaches a W3C traceparent header value (as produced by
// NewTraceparent, or received from an upstream system) to the context.
// Client.Optimize and friends propagate it to the server, which joins the
// same trace: its access log, telemetry spans and ResponseRuntime all carry
// the caller's trace ID. Malformed values are ignored and the client mints
// its own trace instead.
func WithTraceparent(ctx context.Context, traceparent string) context.Context {
	tc, err := reqid.Parse(traceparent)
	if err != nil {
		return ctx
	}
	return reqid.NewContext(ctx, tc)
}

// TraceparentFromContext returns the context's traceparent header value, or
// "" when none is attached.
func TraceparentFromContext(ctx context.Context) string {
	tc, ok := reqid.FromContext(ctx)
	if !ok || !tc.Valid() {
		return ""
	}
	return tc.Traceparent()
}

// NewTraceparent mints a fresh W3C traceparent header value (random trace
// and span IDs, sampled flag set), for callers that want to know their
// request's trace ID before sending it.
func NewTraceparent() string { return reqid.New().Traceparent() }

// Stats are the run's cost metrics; see the paper's M and CPU columns.
type Stats = optimizer.Stats

// Placement is a realized floorplan (module boxes tiling the envelope).
type Placement = optimizer.Placement

// NodeStat describes one evaluated block: implementation counts before and
// after selection.
type NodeStat = optimizer.NodeStat

// Result is the outcome of Optimize.
type Result struct {
	// Best is the minimum-area implementation of the floorplan.
	Best Impl
	// RootList is the envelope's full implementation staircase.
	RootList []Impl
	// Placement realizes Best (nil with SkipPlacement).
	Placement *Placement
	// Stats carries memory and time metrics.
	Stats Stats
	// NodeStats describes every evaluated block in preorder.
	NodeStats []NodeStat
}

// Optimize runs floorplan area optimization: it selects an implementation
// for every module so that the enveloping rectangle's area is minimum for
// the given topology (Wang–Wong DAC'90), optionally bounding memory with
// the paper's R_Selection/L_Selection.
func Optimize(tree *Tree, lib Library, opts Options) (*Result, error) {
	canonical := make(optimizer.Library, len(lib))
	for name, impls := range lib {
		l, err := plan.CanonicalModule(name, impls)
		if err != nil {
			return nil, err
		}
		canonical[name] = l
	}
	o, err := optimizer.New(canonical, optimizer.Options{
		Policy: selection.Policy{
			K1:    opts.Selection.K1,
			K2:    opts.Selection.K2,
			Theta: opts.Selection.Theta,
			S:     opts.Selection.S,
		},
		MemoryLimit:   opts.MemoryLimit,
		SkipPlacement: opts.SkipPlacement,
		Workers:       opts.Workers,
		Telemetry:     opts.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	res, err := o.Run(tree)
	if err != nil {
		return wrapResult(res), err
	}
	return wrapResult(res), nil
}

func wrapResult(res *optimizer.Result) *Result {
	if res == nil {
		return nil
	}
	return &Result{
		Best:      res.Best,
		RootList:  []Impl(res.RootList),
		Placement: res.Placement,
		Stats:     res.Stats,
		NodeStats: res.NodeStats,
	}
}

// IsMemoryLimit reports whether an Optimize error was a memory-limit abort.
func IsMemoryLimit(err error) bool { return optimizer.IsMemoryLimit(err) }

// Fingerprint returns the canonical content address (hex SHA-256) of an
// optimization problem: the tree structure, the canonicalized shape lists
// of the modules the tree references, and every Options field that affects
// results. Equivalent requests — relabelled nodes, shuffled or redundant
// implementation lists, irrelevant library entries, any Workers value —
// fingerprint identically; this is the cache key fpserve memoizes under.
func Fingerprint(tree *Tree, lib Library, opts Options) (string, error) {
	if err := tree.Validate(); err != nil {
		return "", err
	}
	canonical, err := plan.CanonicalLibrary(plan.Library(lib))
	if err != nil {
		return "", err
	}
	k, err := cache.KeySpec{
		Tree:          tree,
		Lib:           canonical,
		K1:            opts.Selection.K1,
		K2:            opts.Selection.K2,
		Theta:         opts.Selection.Theta,
		S:             opts.Selection.S,
		MemoryLimit:   opts.MemoryLimit,
		SkipPlacement: opts.SkipPlacement,
	}.Key()
	if err != nil {
		return "", err
	}
	return k.String(), nil
}

// SelectImpls is the paper's R_Selection as a standalone utility: it picks
// the k-subset of a rectangular block's implementations (canonicalized
// first) that minimizes the lost staircase area, and returns the subset and
// the error. Useful for approximating continuous shape functions (Section 6).
// Like a library module, every extent must be at most 2³¹−1, so the error
// arithmetic cannot overflow.
func SelectImpls(impls []Impl, k int) ([]Impl, int64, error) {
	l, err := plan.CanonicalModule("impls", impls)
	if err != nil {
		return nil, 0, err
	}
	res, err := selection.RSelect(l, k)
	if err != nil {
		return nil, 0, err
	}
	return []Impl(res.Selected), res.Error, nil
}

// Rotatable returns the implementation list for a fixed rectangle that may
// be rotated by 90 degrees — the classic orientation problem's leaf.
func Rotatable(w, h int64) []Impl {
	l, err := stockmeyer.Module{W: w, H: h, Rotatable: true}.Implementations()
	if err != nil {
		return nil
	}
	return []Impl(l)
}

// OptimizeSlicing runs Stockmeyer's baseline on a slicing floorplan
// (no wheels). k1 > 0 applies R_Selection at every node.
func OptimizeSlicing(tree *Tree, lib Library, k1 int) (*Result, error) {
	canonical := make(map[string]shape.RList, len(lib))
	for name, impls := range lib {
		l, err := plan.CanonicalModule(name, impls)
		if err != nil {
			return nil, err
		}
		canonical[name] = l
	}
	res, err := stockmeyer.Optimize(tree, canonical, stockmeyer.Options{K1: k1})
	if err != nil {
		return nil, err
	}
	return &Result{
		Best:     res.Best,
		RootList: []Impl(res.RootList),
		Stats:    Stats{PeakStored: res.PeakStored, RSelections: res.RSelections},
	}, nil
}

// RenderPlacement draws a placement as ASCII art of the given width.
func RenderPlacement(p *Placement, width int) string { return render.Placement(p, width) }

// RenderSVG draws a placement as a standalone SVG document of the given
// pixel width.
func RenderSVG(p *Placement, width int) string { return render.SVG(p, width) }

// RenderTree draws a floorplan tree as an indented outline.
func RenderTree(t *Tree) string { return render.Tree(t) }

// PlacementTable lists each module's box, implementation and slack.
func PlacementTable(p *Placement) string { return render.PlacementTable(p) }

// PaperFloorplan returns one of the paper's test floorplans FP1–FP4
// (Figure 8 reconstructions; see DESIGN.md).
func PaperFloorplan(name string) (*Tree, error) { return gen.ByName(name) }

// RandomModules generates a seeded module library for every leaf of the
// tree, with n non-redundant implementations per module and default size
// diversity. Use GenerateModules to control the diversity.
func RandomModules(tree *Tree, n int, seed int64) (Library, error) {
	return GenerateModules(tree, ModuleGen{N: n, Seed: seed})
}

// ModuleGen controls random module generation. Zero fields take defaults.
type ModuleGen struct {
	// N is the number of non-redundant implementations per module
	// (default 20; the paper uses 20 and 40).
	N int
	// Seed makes generation reproducible.
	Seed int64
	// Aspect bounds the aspect ratio of the extreme implementations
	// (default 4). Larger values yield more diverse shapes and hence far
	// larger non-redundant sets during optimization.
	Aspect float64
	// MinArea and MaxArea bound module areas (defaults 120 and 1200).
	MinArea, MaxArea int64
}

// GenerateModules builds a seeded module library for every leaf of the
// tree.
func GenerateModules(tree *Tree, g ModuleGen) (Library, error) {
	if g.N == 0 {
		g.N = 20
	}
	params := gen.DefaultModuleParams(g.N)
	if g.Aspect > 0 {
		params.MaxAspect = g.Aspect
	}
	if g.MinArea > 0 {
		params.MinArea = g.MinArea
	}
	if g.MaxArea > 0 {
		params.MaxArea = g.MaxArea
	}
	rng := rand.New(rand.NewSource(g.Seed))
	raw, err := gen.Library(rng, tree, params)
	if err != nil {
		return nil, err
	}
	lib := make(Library, len(raw))
	for name, l := range raw {
		lib[name] = []Impl(l)
	}
	return lib, nil
}

// RandomTree generates a seeded random floorplan topology with the given
// number of modules; pWheel is the probability of non-slicing (pinwheel)
// nodes.
func RandomTree(modules int, pWheel float64, seed int64) (*Tree, error) {
	return gen.RandomTree(rand.New(rand.NewSource(seed)), modules, pWheel)
}
