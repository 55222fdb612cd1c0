package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"floorplan"
	"floorplan/internal/gen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/telemetry"
)

// solveSpec is a library workload: one caller solving a pool of generated
// instances back to back (a closed loop), first at Workers 1, then at
// Workers 2.
type solveSpec struct {
	name      string
	floorplan string
	params    gen.ModuleParams
	policy    selection.Policy
	// pool is the number of distinct instances; the timed loops cycle it.
	pool int
	// w2Share is the part of the timed window spent at Workers 2.
	w2Share float64
	// probe is how many instances the traced run posts through fpserve.
	probe int
}

// paperSpec is the paper's grid setting (FP3, N = 20): combine and Pareto
// pruning dominate, selection is a few percent of a solve.
func paperSpec() solveSpec {
	return solveSpec{
		name: "solve_paper", floorplan: "FP3",
		params: gen.ModuleParams{N: 20, MinArea: 2e6, MaxArea: 2e7, MaxAspect: 5},
		policy: selection.Policy{K1: 40, K2: 1500, Theta: 0.5, S: 500},
		pool:   32, w2Share: 0.3, probe: 8,
	}
}

// selectSpec is the same floorplan with soft modules of 256 implementations
// each: leaf and node R_Selection plus L_Selection dominate a solve.
func selectSpec() solveSpec {
	return solveSpec{
		name: "solve_select", floorplan: "FP3",
		params: gen.ModuleParams{N: 256, MinArea: 2e6, MaxArea: 2e7, MaxAspect: 8},
		policy: selection.Policy{K1: 16, K2: 200, Theta: 0.5, S: 500},
		pool:   32, w2Share: 0.3, probe: 8,
	}
}

// instance is one generated problem of a solve workload.
type instance struct {
	tree   *plan.Node
	lib    optimizer.Library
	w1, w2 *optimizer.Optimizer
}

// generate builds the pool from the seed: instance i's library is drawn
// from seed·1000 + i.
func (s solveSpec) generate(seed int64) ([]instance, error) {
	tree, err := gen.ByName(s.floorplan)
	if err != nil {
		return nil, err
	}
	insts := make([]instance, s.pool)
	for i := range insts {
		raw, err := gen.Library(rand.New(rand.NewSource(seed*1000+int64(i))), tree, s.params)
		if err != nil {
			return nil, err
		}
		lib := optimizer.Library(raw)
		w1, err := optimizer.New(lib, optimizer.Options{Policy: s.policy, Workers: 1})
		if err != nil {
			return nil, err
		}
		w2, err := optimizer.New(lib, optimizer.Options{Policy: s.policy, Workers: 2})
		if err != nil {
			return nil, err
		}
		insts[i] = instance{tree: tree, lib: lib, w1: w1, w2: w2}
	}
	return insts, nil
}

// loopResult is one timed closed loop of solves.
type loopResult struct {
	ms    []float64           // wall time per solve, reference ms
	cpu   []float64           // process CPU time per solve, reference ms
	raw   []float64           // wall time per solve, ms as measured
	first []*optimizer.Result // first result per instance, nil if not reached
	alloc uint64
}

// solveWindow is how many consecutive solves share one speed scale: the
// reference kernel runs after every solve, and each window's solves are
// rescaled by the median of its kernel times.
const solveWindow = 8

// solveLoop solves the pool round-robin, instance k with opts[k], until d
// has passed (at least once), timing each optimizer.Run. A repeated solve
// of an instance must reproduce its first result.
func solveLoop(insts []instance, opts []*optimizer.Optimizer, d time.Duration, col *telemetry.Collector, sp *speedometer, out *outcome) *loopResult {
	lr := &loopResult{first: make([]*optimizer.Result, len(insts))}
	var wall, cpu []float64
	mark := len(sp.samples)
	flush := func() {
		f := sp.since(mark)
		for i := range wall {
			lr.ms = append(lr.ms, wall[i]*f)
			lr.cpu = append(lr.cpu, cpu[i]*f)
		}
		lr.raw = append(lr.raw, wall...)
		wall, cpu, mark = wall[:0], cpu[:0], len(sp.samples)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % len(insts)
		startNs := col.Now()
		cpu0 := cpuTime()
		start := time.Now()
		res, err := opts[k].Run(insts[k].tree)
		took := time.Since(start)
		cpuTook := cpuTime() - cpu0
		out.attempted++
		if err != nil {
			out.fail("instance %d: %v", k, err)
			continue
		}
		col.RecordSpan(telemetry.Span{Name: fmt.Sprintf("solve %d", k), Cat: "solve", Track: trackSolve, Start: startNs, Dur: took})
		wall = append(wall, ms(took))
		cpu = append(cpu, ms(cpuTook))
		if first := lr.first[k]; first == nil {
			lr.first[k] = res
		} else if !sameResult(first, res) {
			out.fail("instance %d: repeated solve differs from the first", k)
		}
		sp.sample(1)
		if len(wall) == solveWindow {
			flush()
		}
	}
	if len(wall) > 0 {
		flush()
	}
	runtime.ReadMemStats(&m1)
	lr.alloc = m1.TotalAlloc - m0.TotalAlloc
	return lr
}

// workers returns the pool's optimizers for the given worker count.
func workers(insts []instance, w int) []*optimizer.Optimizer {
	opts := make([]*optimizer.Optimizer, len(insts))
	for i, in := range insts {
		opts[i] = in.w1
		if w == 2 {
			opts[i] = in.w2
		}
	}
	return opts
}

// sameResult compares everything deterministic in two runs' results.
func sameResult(a, b *optimizer.Result) bool {
	sa, sb := a.Stats, b.Stats
	sa.Elapsed, sb.Elapsed = 0, 0
	return a.Best == b.Best && sa == sb && a.RootList.Equal(b.RootList)
}

func runSolve(s solveSpec, rc runConfig) (*outcome, error) {
	out := newOutcome(s.name)
	sp := newSpeedometer()
	var insts []instance
	setup, err := timeSetups(rc.setups, func() (err error) { insts, err = s.generate(rc.seed); return err })
	if err != nil {
		return nil, err
	}
	out.samples["instances"] = len(insts)
	if rc.trace {
		return out, s.traced(rc, insts, sp, out)
	}
	w2Dur := time.Duration(float64(rc.duration) * s.w2Share)
	w1 := solveLoop(insts, workers(insts, 1), rc.duration-w2Dur, nil, sp, out)
	w2 := solveLoop(insts, workers(insts, 2), w2Dur, nil, sp, out)
	out.samples["solves_w1"] = len(w1.ms)
	out.samples["solves_w2"] = len(w2.ms)
	out.values["setup_s"] = setup * sp.scale()
	out.values["machine.speed"] = sp.scale()
	out.values["lat_p50_ms"] = median(w1.ms)
	out.values["lat_p50_ms_raw"] = median(w1.raw)
	out.values["lat_tail_ms"] = percentile(w1.ms, 0.9)
	out.values["cpu_ms_per_op"] = mean(w1.cpu)
	out.values["alloc_kb_per_op"] = float64(w1.alloc) / 1024 / float64(len(w1.ms))
	out.values["w2_p50_ms"] = median(w2.ms)
	return out, s.verify(rc.seed, insts, w1.first, w2.first, out)
}

// verify is the solve workloads' correctness gate: every instance's
// Workers 1 and Workers 2 results must be byte-identical, a node-by-node
// replay must reproduce optimizer.Run, and the default seed's answers must
// match the golden file. Instances the timed loops did not reach are
// solved here, untimed. It also sets the pool's mean and largest M.
func (s solveSpec) verify(seed int64, insts []instance, first1, first2 []*optimizer.Result, out *outcome) error {
	var peak, sum int64
	for i, in := range insts {
		var err error
		if first1[i] == nil {
			if first1[i], err = in.w1.Run(in.tree); err != nil {
				return err
			}
		}
		if first2[i] == nil {
			if first2[i], err = in.w2.Run(in.tree); err != nil {
				return err
			}
		}
		p1, err := payload(first1[i])
		if err != nil {
			return err
		}
		p2, err := payload(first2[i])
		if err != nil {
			return err
		}
		if !bytes.Equal(p1, p2) {
			out.fail("instance %d: Workers 1 and Workers 2 results differ", i)
		}
		peak = max(peak, first1[i].Stats.PeakStored)
		sum += first1[i].Stats.PeakStored
	}
	out.values["peak_impls_mean"] = float64(sum) / float64(len(insts))
	out.values["peak_impls_max"] = float64(peak)
	// The replay is a second full evaluation; on other seeds one instance
	// suffices to catch a drift between it and the optimizer.
	check := insts[:1]
	if seed == goldenSeed {
		check = insts
	}
	for i, in := range check {
		bin, err := plan.Restructure(in.tree)
		if err != nil {
			return err
		}
		ev, err := replayEval(bin, in.lib, s.policy, nil)
		if err != nil {
			return err
		}
		if err := checkReplay(ev, first1[i]); err != nil {
			out.fail("instance %d: %v", i, err)
		}
		if seed == goldenSeed {
			out.golden = append(out.golden, factsOf(first1[i], ev.errR+ev.errL))
		}
	}
	return nil
}

// traced is the per-layer run: the same Workers 1 loop without and then
// with tracing (for the tracing overhead), a served probe of the first
// instances through an in-process fpserve, and the offline replay of as many
// instances as the rest of the window allows.
func (s solveSpec) traced(rc runConfig, insts []instance, sp *speedometer, out *outcome) error {
	col := floorplan.NewCollector()
	loopDur := rc.duration / 5
	plain := solveLoop(insts, workers(insts, 1), loopDur, nil, sp, out)
	withTel := make([]*optimizer.Optimizer, len(insts))
	for i, in := range insts {
		o, err := optimizer.New(in.lib, optimizer.Options{Policy: s.policy, Workers: 1, Telemetry: col})
		if err != nil {
			return err
		}
		withTel[i] = o
	}
	tr := solveLoop(insts, withTel, loopDur, col, sp, out)
	out.values["trace.overhead_pct"] = (median(tr.ms)/median(plain.ms) - 1) * 100
	out.samples["solves_untraced"] = len(plain.ms)
	out.samples["solves_traced"] = len(tr.ms)

	deadline := time.Now().Add(rc.duration - 2*loopDur)
	probe := make([]problem, min(s.probe, len(insts)))
	expected := make([][]byte, len(probe))
	for i := range probe {
		res := plain.first[i]
		if res == nil {
			var err error
			if res, err = insts[i].w1.Run(insts[i].tree); err != nil {
				return err
			}
		}
		p, err := s.problem(insts[i])
		if err != nil {
			return err
		}
		if expected[i], err = payload(res); err != nil {
			return err
		}
		probe[i] = p
	}
	src := listSource(probe, expected)
	// Four requests a second keeps a probe below one worker's capacity on
	// either solve workload, so it measures the layers, not a queue.
	st := step{rate: 4, dur: time.Duration(len(probe)) * time.Second / 4, windows: 1}
	f, err := startServer(true)
	if err != nil {
		return err
	}
	if _, err := tracedStep(f, st, src, col, sp, out); err != nil {
		return err
	}

	rp, err := newReplayer(rc.seed, col, sp)
	if err != nil {
		return err
	}
	for i := 0; i == 0 || (i < len(insts) && time.Now().Before(deadline)); i++ {
		p, err := s.problem(insts[i])
		if err != nil {
			return err
		}
		out.attempted++
		if err := rp.replay(p); err != nil {
			out.fail("replay of instance %d: %v", i, err)
		}
	}
	out.samples["replay_problems"] = rp.sums.problems
	rp.sums.metrics(out.values)
	scaleTimes(out.values, sp.scale())
	out.values["machine.speed"] = sp.scale()
	out.values["lat_tail_ms"] = percentile(plain.ms, 0.9) // scaled per window already
	return writeTrace(rc.traceOut, col)
}

// problem encodes an instance as the request a client would send for it.
func (s solveSpec) problem(in instance) (problem, error) {
	lib := make(plan.Library, len(in.lib))
	for name, l := range in.lib {
		lib[name] = l
	}
	return newProblem(in.tree, lib, s.policy, s.params)
}
