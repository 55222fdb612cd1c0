package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"floorplan/internal/cache"
	"floorplan/internal/combine"
	"floorplan/internal/gen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/server"
	"floorplan/internal/shape"
	"floorplan/internal/substore"
	"floorplan/internal/telemetry"
)

// problem is one optimization a workload asks for, in every form the layers
// below the HTTP handler see it: the request body, and the tree and library
// it decodes to.
type problem struct {
	tree   *plan.Node
	lib    plan.Library
	body   []byte
	policy selection.Policy
	// params draws the replacement module of the edit re-solve.
	params gen.ModuleParams
}

// newProblem encodes tree and lib as the POST /v1/optimize body a client
// would send for them.
func newProblem(tree *plan.Node, lib plan.Library, policy selection.Policy, params gen.ModuleParams) (problem, error) {
	body, err := json.Marshal(server.OptimizeRequest{Tree: tree, Library: lib, Options: requestOptions(policy)})
	if err != nil {
		return problem{}, fmt.Errorf("encoding request: %w", err)
	}
	return problem{tree: tree, lib: lib, body: body, policy: policy, params: params}, nil
}

func requestOptions(p selection.Policy) server.RequestOptions {
	return server.RequestOptions{K1: p.K1, K2: p.K2, Theta: p.Theta, S: p.S}
}

// optLibrary converts a canonical request library to the optimizer's form.
func optLibrary(lib plan.Library) optimizer.Library {
	out := make(optimizer.Library, len(lib))
	for name, impls := range lib {
		out[name] = shape.RList(impls)
	}
	return out
}

// payload is the result body fpserve caches and returns for res: the same
// struct marshaled the same way, so an in-process run checks a served
// answer byte for byte.
func payload(res *optimizer.Result) ([]byte, error) {
	out := server.Result{
		Best:     res.Best,
		Area:     res.Best.Area(),
		RootList: []shape.RImpl(res.RootList),
		Stats: server.ResultStats{
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
			out.Placement = append(out.Placement, server.PlacedModule{
				Module: m.Module,
				X:      m.Box.MinX, Y: m.Box.MinY,
				W: m.Box.Width(), H: m.Box.Height(),
				ImplW: m.Impl.W, ImplH: m.Impl.H,
			})
		}
	}
	return json.Marshal(out)
}

// evalReplay is the outcome of evaluating a binary tree by calling the
// combine and selection packages directly, node by node.
type evalReplay struct {
	best                   shape.RImpl
	peak, generated        int64
	candidates             int64
	rCalls, lCalls         int64
	rN, lN                 int64
	errR, errL             int64
	combineDur, rDur, lDur time.Duration
}

// replayEval walks bin in postorder exactly as the optimizer's sequential
// evaluator does: each node is combined from its children's retained lists,
// then R_ or L_Selection runs when the policy asks for it, leaves included
// (the optimizer's finishR/finishL). Every combine and selection call is
// timed and, when col is set, recorded as a span.
func replayEval(bin *plan.BinNode, lib optimizer.Library, pol selection.Policy, col *telemetry.Collector) (*evalReplay, error) {
	type kept struct {
		rl shape.RList
		ls shape.LSet
	}
	out := &evalReplay{}
	vals := make(map[*plan.BinNode]kept, bin.Count())
	var cur int64
	size := func(b *plan.BinNode) int {
		if b.IsL() {
			return vals[b].ls.Size()
		}
		return len(vals[b].rl)
	}
	span := func(name string, start time.Time, d time.Duration, node int) {
		col.RecordSpan(telemetry.Span{Name: name, Cat: "replay", Track: trackReplay,
			Start: col.Now() - time.Since(start), Dur: d, Args: map[string]int64{"node": int64(node)}})
	}
	var walk func(b *plan.BinNode) error
	walk = func(b *plan.BinNode) error {
		if b.Kind != plan.BinLeaf {
			if err := walk(b.Left); err != nil {
				return err
			}
			if err := walk(b.Right); err != nil {
				return err
			}
			out.candidates += int64(size(b.Left)) * int64(size(b.Right))
		}
		l, r := vals[b.Left], vals[b.Right]
		var rl shape.RList
		var ls shape.LSet
		start := time.Now()
		switch b.Kind {
		case plan.BinLeaf:
			rl = lib[b.Module]
		case plan.BinVCut:
			rl = combine.VCut(l.rl, r.rl)
		case plan.BinHCut:
			rl = combine.HCut(l.rl, r.rl)
		case plan.BinLStack:
			ls, _ = combine.LStack(l.rl, r.rl, 0)
		case plan.BinLNotch:
			ls, _ = combine.LNotch(l.ls, r.rl, 0)
		case plan.BinLBottom:
			ls, _ = combine.LBottom(l.ls, r.rl, 0)
		case plan.BinClose:
			rl, _ = combine.Close(l.ls, r.rl, 0)
		default:
			return fmt.Errorf("replay: unexpected node kind %v", b.Kind)
		}
		if b.Kind != plan.BinLeaf {
			d := time.Since(start)
			out.combineDur += d
			span("combine "+b.Kind.String(), start, d, b.ID)
		}
		n := len(rl)
		if b.IsL() {
			n = ls.Size()
		}
		out.generated += int64(n)
		cur += int64(n)
		out.peak = max(out.peak, cur)
		start = time.Now()
		switch {
		case !b.IsL() && pol.WantR(n):
			reduced, e, err := pol.ReduceR(rl)
			if err != nil {
				return err
			}
			d := time.Since(start)
			out.rDur += d
			out.rCalls++
			out.rN += int64(n)
			out.errR += e
			span("R_Selection", start, d, b.ID)
			rl = reduced
		case b.IsL() && pol.WantL(n):
			reduced, e, err := pol.ReduceLSet(ls)
			if err != nil {
				return err
			}
			d := time.Since(start)
			out.lDur += d
			out.lCalls++
			out.lN += int64(n)
			out.errL += e
			span("L_Selection", start, d, b.ID)
			ls = reduced
		}
		stored := len(rl)
		if b.IsL() {
			stored = ls.Size()
		}
		cur -= int64(n - stored)
		vals[b] = kept{rl: rl, ls: ls}
		return nil
	}
	if err := walk(bin); err != nil {
		return nil, err
	}
	root := vals[bin].rl
	if len(root) == 0 {
		return nil, fmt.Errorf("replay: root has no implementations")
	}
	out.best, _ = root.Best()
	return out, nil
}

// checkReplay compares a replay with the optimizer's own run of the same
// problem: the root answer, the paper's M and the generated count must all
// agree.
func checkReplay(ev *evalReplay, res *optimizer.Result) error {
	if ev.best != res.Best || ev.peak != res.Stats.PeakStored || ev.generated != res.Stats.Generated {
		return fmt.Errorf("replay best %v M %d generated %d, optimizer.Run best %v M %d generated %d",
			ev.best, ev.peak, ev.generated, res.Best, res.Stats.PeakStored, res.Stats.Generated)
	}
	return nil
}

// Trace tracks: one per layer the benchmark times from outside.
const (
	trackReplay  = 1
	trackSolve   = 2
	trackHandler = 3
	trackClient  = 10 // + connection
)

// layerSums accumulates the offline replay of a workload's problems.
type layerSums struct {
	problems                                 int
	decode, canonical, key, digest, restruct time.Duration
	get, put                                 time.Duration
	combine, rSel, lSel, run1, run2          time.Duration
	edits                                    []float64 // ms
	candidates, generated, rCalls, lCalls    int64
	rN, lN, errR, errL                       int64
}

// replayer owns the state the replay reuses across problems: caches the
// get/put timings run against, a subtree store for the edit re-solve, and
// the trace collector.
type replayer struct {
	col      *telemetry.Collector
	sp       *speedometer
	getCache *cache.Cache
	putCache *cache.Cache
	store    *substore.Store
	rng      *rand.Rand
	sums     layerSums
}

// cacheOps is how many Get and Put calls one problem's cache timing
// averages over; a single call is too short to time alone.
const cacheOps = 32

func newReplayer(seed int64, col *telemetry.Collector, sp *speedometer) (*replayer, error) {
	get, err := cache.New(cache.Config{MaxBytes: 64 << 20, Shards: 16})
	if err != nil {
		return nil, err
	}
	// The put cache is small and kept full, so every timed Put evicts as a
	// long-running server's does.
	put, err := cache.New(cache.Config{MaxBytes: 4 << 20, Shards: 16})
	if err != nil {
		return nil, err
	}
	store, err := substore.New(substore.Config{MaxBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	return &replayer{col: col, sp: sp, getCache: get, putCache: put, store: store, rng: rand.New(rand.NewSource(seed))}, nil
}

// timed runs f and returns its duration, recording a span named name.
func (r *replayer) timed(name string, f func() error) (time.Duration, error) {
	startNs := r.col.Now()
	start := time.Now()
	err := f()
	d := time.Since(start)
	r.col.RecordSpan(telemetry.Span{Name: name, Cat: "replay", Track: trackHandler, Start: startNs, Dur: d})
	return d, err
}

// replay pushes one problem through every layer the server and the
// optimizer cross, timing each call from outside, and checks that the
// node-by-node replay agrees with optimizer.Run.
func (r *replayer) replay(p problem) error {
	s := &r.sums
	var req server.OptimizeRequest
	d, err := r.timed("decode", func() error { return json.Unmarshal(p.body, &req) })
	if err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	s.decode += d
	var lib plan.Library
	d, err = r.timed("canonical", func() (err error) { lib, err = plan.CanonicalLibrary(req.Library); return err })
	if err != nil {
		return err
	}
	s.canonical += d
	var key cache.Key
	d, err = r.timed("key", func() (err error) {
		key, err = cache.KeySpec{Tree: req.Tree, Lib: lib, K1: p.policy.K1, K2: p.policy.K2,
			Theta: p.policy.Theta, S: p.policy.S}.Key()
		return err
	})
	if err != nil {
		return err
	}
	s.key += d
	var bin *plan.BinNode
	d, err = r.timed("restructure", func() (err error) { bin, err = plan.Restructure(req.Tree); return err })
	if err != nil {
		return err
	}
	s.restruct += d
	// The digest context only prefixes each preimage; its bytes do not
	// change the cost, so none is passed.
	d, _ = r.timed("digests", func() error { plan.SubtreeDigests(bin, nil, lib); return nil })
	s.digest += d

	olib := optLibrary(lib)
	ev, err := replayEval(bin, olib, p.policy, r.col)
	if err != nil {
		return err
	}
	s.combine += ev.combineDur
	s.rSel += ev.rDur
	s.lSel += ev.lDur
	s.candidates += ev.candidates
	s.generated += ev.generated
	s.rCalls += ev.rCalls
	s.lCalls += ev.lCalls
	s.rN += ev.rN
	s.lN += ev.lN
	s.errR += ev.errR
	s.errL += ev.errL

	var res *optimizer.Result
	for _, w := range []int{1, 2} {
		o, err := optimizer.New(olib, optimizer.Options{Policy: p.policy, Workers: w})
		if err != nil {
			return err
		}
		d, err := r.timed(fmt.Sprintf("optimizer.Run w%d", w), func() (err error) { res, err = o.Run(req.Tree); return err })
		if err != nil {
			return err
		}
		if w == 1 {
			s.run1 += d
		} else {
			s.run2 += d
		}
	}
	if err := checkReplay(ev, res); err != nil {
		return err
	}
	body, err := payload(res)
	if err != nil {
		return err
	}
	if err := r.timeCache(key, body); err != nil {
		return err
	}
	if err := r.editResolve(p, req.Tree, olib); err != nil {
		return err
	}
	s.problems++
	r.sp.sample(1)
	return nil
}

// timeCache times Get of a resident entry and Put of fresh keys into a
// full cache, cacheOps calls each.
func (r *replayer) timeCache(key cache.Key, body []byte) error {
	s := &r.sums
	r.getCache.Put(key, body)
	d, err := r.timed("cache.Get", func() error {
		for range cacheOps {
			if got, ok := r.getCache.Get(key); !ok || !bytes.Equal(got, body) {
				return fmt.Errorf("cache.Get missed a resident key")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.get += d / cacheOps
	keys := make([]cache.Key, cacheOps)
	for i := range keys {
		r.rng.Read(keys[i][:])
	}
	for r.putCache.Stats().Evictions == 0 {
		if r.putCache.Stats().Rejects > 0 {
			return fmt.Errorf("a %d-byte result does not fit the put cache", len(body))
		}
		var k cache.Key
		r.rng.Read(k[:])
		r.putCache.Put(k, body)
	}
	d, _ = r.timed("cache.Put", func() error {
		for _, k := range keys {
			r.putCache.Put(k, body)
		}
		return nil
	})
	s.put += d / cacheOps
	return nil
}

// editResolve warms the replayer's subtree store with the problem, swaps
// one module's implementation list for a fresh draw and times the re-solve,
// which recomputes only the spine from that leaf to the root.
func (r *replayer) editResolve(p problem, tree *plan.Node, lib optimizer.Library) error {
	opts := optimizer.Options{Policy: p.policy, Workers: 1, Substore: r.store}
	warm, err := optimizer.New(lib, opts)
	if err != nil {
		return err
	}
	if _, err := warm.Run(tree); err != nil {
		return err
	}
	edited := make(optimizer.Library, len(lib))
	for name, l := range lib {
		edited[name] = l
	}
	mods := tree.Modules()
	nl, err := gen.Module(r.rng, p.params)
	if err != nil {
		return err
	}
	edited[mods[r.rng.Intn(len(mods))]] = nl
	o, err := optimizer.New(edited, opts)
	if err != nil {
		return err
	}
	d, err := r.timed("optimizer.Run edit", func() error { _, err := o.Run(tree); return err })
	if err != nil {
		return err
	}
	r.sums.edits = append(r.sums.edits, ms(d))
	return nil
}

// metrics turns the sums into the per-layer replay metrics, per problem.
func (s *layerSums) metrics(v map[string]float64) {
	n := float64(max(s.problems, 1))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	perMs := func(d time.Duration) float64 { return ms(d) / n }
	v["plan.decode_us"] = us(s.decode)
	v["plan.canonical_us"] = us(s.canonical)
	v["cache.key_us"] = us(s.key)
	v["cache.get_us"] = us(s.get)
	v["cache.put_us"] = us(s.put)
	v["plan.digest_us"] = us(s.digest)
	v["plan.restructure_us"] = us(s.restruct)
	v["combine.ms"] = perMs(s.combine)
	v["selection.ms"] = perMs(s.rSel + s.lSel)
	v["selection.r_ms"] = perMs(s.rSel)
	v["selection.l_ms"] = perMs(s.lSel)
	// Shares are of the replayed evaluation (restructure, combine and
	// selection), which the optimizer's own run can beat: its combine
	// buffers come from arenas, the replay's plain calls allocate.
	eval := ms(s.restruct + s.combine + s.rSel + s.lSel)
	v["combine.share"] = ms(s.combine) / eval
	v["selection.share"] = ms(s.rSel+s.lSel) / eval
	v["optimizer.overhead_ms"] = perMs(s.run1 - s.restruct - s.combine - s.rSel - s.lSel)
	v["optimizer.w2_speedup"] = ms(s.run1) / ms(s.run2)
	v["optimizer.edit_ms_p50"] = median(s.edits)
	v["combine.candidates"] = float64(s.candidates) / n
	v["combine.generated"] = float64(s.generated) / n
	v["selection.r_calls"] = float64(s.rCalls) / n
	v["selection.l_calls"] = float64(s.lCalls) / n
	v["selection.r_n_mean"] = meanOf(s.rN, s.rCalls)
	v["selection.l_n_mean"] = meanOf(s.lN, s.lCalls)
	v["selection.error_area"] = float64(s.errR) / n
	v["selection.l_error"] = float64(s.errL) / n
}

func meanOf(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
