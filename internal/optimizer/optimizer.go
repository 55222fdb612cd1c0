// Package optimizer implements the floorplan area optimization algorithm of
// Wang–Wong DAC'90 ([9] in the paper), the host into which the paper's
// R_Selection and L_Selection are incorporated.
//
// The optimizer takes a floorplan tree and a module library, restructures
// the tree into the binary tree T' of rectangular and L-shaped blocks
// (package plan), and computes every block's non-redundant implementation
// list bottom-up (package combine). After each internal node's list is
// generated, the configured selection policy (package selection) may reduce
// it; this is exactly the paper's memory-reduction scheme. The minimum-area
// implementation at the root is then traced back to a concrete placement of
// every module, which is verified geometrically.
package optimizer

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"floorplan/internal/combine"
	"floorplan/internal/cspp"
	"floorplan/internal/memtrack"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
	"floorplan/internal/substore"
	"floorplan/internal/telemetry"
)

// Library maps module names to their non-redundant implementation lists.
type Library map[string]shape.RList

// Validate checks that every list is non-empty and canonical.
func (lib Library) Validate() error {
	for name, l := range lib {
		if len(l) == 0 {
			return fmt.Errorf("optimizer: module %q has no implementations", name)
		}
		if err := l.Validate(); err != nil {
			return fmt.Errorf("optimizer: module %q: %w", name, err)
		}
	}
	return nil
}

// Options configures a run.
type Options struct {
	// Policy is the selection policy (zero value: plain [9], no selection).
	Policy selection.Policy
	// MemoryLimit caps the number of stored implementations, reproducing
	// the paper's out-of-memory failures. 0 = unlimited.
	MemoryLimit int64
	// SkipPlacement skips traceback and verification; evaluation stats and
	// the optimal area are still produced. Used by benchmarks that only
	// measure the bottom-up phase.
	SkipPlacement bool
	// Workers bounds the number of binary-tree nodes evaluated
	// concurrently. 0 defaults to runtime.GOMAXPROCS(0); 1 runs the exact
	// sequential evaluation order of the original implementation. For any
	// value, a successful run's Best, RootList, Stats (except Elapsed),
	// NodeStats and Placement are bit-identical: per-node results do not
	// depend on evaluation order and the final merge replays the
	// sequential memory-accounting order. A memory-limited run
	// (MemoryLimit > 0) always evaluates sequentially, whatever Workers
	// says: the paper's M is the peak of the sequential order, so only
	// that order gives one outcome — success, or the same error and
	// partial Stats — for every worker count.
	Workers int
	// Telemetry, when non-nil, receives the run's metrics, per-node eval
	// spans and stage spans. The deterministic report section is identical
	// for any worker count (the per-node records fold in canonical
	// postorder, like Stats); nil disables collection at the cost of one
	// branch per instrumentation site.
	Telemetry *telemetry.Collector
	// Substore, when non-nil, memoizes per-subtree evaluation results
	// across runs: nodes whose content address resolves are spliced from
	// the store instead of evaluated, and freshly evaluated nodes fill it.
	// Results are bit-identical with the store nil, cold or warm, at any
	// worker count (pinned by tests). Memory-limited runs never consult
	// the store — when MemoryLimit > 0 this field is ignored.
	Substore *substore.Store
}

// workers resolves the effective worker count for a schedule of n nodes:
// 1 for a memory-limited run (see Workers).
func (o Options) workers(n int) int {
	if o.MemoryLimit > 0 {
		return 1
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ErrMemoryLimit wraps memtrack.ErrLimit so callers can match the paper's
// "failed to run" outcome with errors.Is.
var ErrMemoryLimit = memtrack.ErrLimit

// Stats records the cost metrics the paper reports.
type Stats struct {
	// PeakStored is the paper's M: the maximum number of implementations
	// simultaneously stored.
	PeakStored int64
	// FinalStored is the implementation count at the end of the run.
	FinalStored int64
	// Generated is the total number of non-redundant implementations
	// produced across all nodes, before selection discarded any.
	Generated int64
	// Nodes is the number of BinNodes evaluated.
	Nodes int
	// LNodes is the number of L-shaped BinNodes evaluated.
	LNodes int
	// RSelections / LSelections count selection invocations.
	RSelections int
	LSelections int
	// MaxRList and MaxLSet are the largest rectangular list and L-shaped
	// set stored (after selection), for calibrating K1/K2.
	MaxRList int
	MaxLSet  int
	// Elapsed is the wall time of the bottom-up evaluation (the phase whose
	// CPU seconds the paper reports), excluding traceback.
	Elapsed time.Duration
}

// Result is a successful optimization outcome.
type Result struct {
	// Best is the minimum-area implementation of the entire floorplan.
	Best shape.RImpl
	// RootList is the root block's retained implementation list.
	RootList shape.RList
	// Placement realizes Best; nil when Options.SkipPlacement is set.
	Placement *Placement
	Stats     Stats
	// NodeStats describes every evaluated block in preorder (ID order):
	// where the implementations live and what selection did to them.
	NodeStats []NodeStat
	// Reuse reports how much of the run the subtree store absorbed; all
	// zeros when no store was configured.
	Reuse Reuse
}

// Reuse is a run's subtree-store scorecard. SplicedNodes + ComputedNodes
// equals Stats.Nodes on a successful run.
type Reuse struct {
	// ComputedNodes is the number of nodes actually evaluated.
	ComputedNodes int
	// SplicedNodes is the number of nodes resolved from the store.
	SplicedNodes int
	// StorePuts is the number of freshly evaluated records offered back.
	StorePuts int
}

// NodeStat records one block's evaluation outcome.
type NodeStat struct {
	// ID is the BinNode's preorder index.
	ID int
	// Kind is the combine operation that formed the block.
	Kind plan.BinKind
	// LShaped marks L-shaped blocks.
	LShaped bool
	// Generated is the non-redundant implementation count before
	// selection.
	Generated int
	// Stored is the count kept after selection (== Generated when
	// selection did not run).
	Stored int
	// Lists is the number of irreducible L-lists (1 for rectangular
	// blocks).
	Lists int
}

// Optimizer runs floorplan area optimization over one module library.
type Optimizer struct {
	lib  Library
	opts Options
}

// New validates the library and policy and returns an Optimizer.
func New(lib Library, opts Options) (*Optimizer, error) {
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Policy.Validate(); err != nil {
		return nil, err
	}
	if opts.MemoryLimit < 0 {
		return nil, fmt.Errorf("optimizer: negative memory limit %d", opts.MemoryLimit)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("optimizer: negative worker count %d", opts.Workers)
	}
	return &Optimizer{lib: lib, opts: opts}, nil
}

// nodeEval stores a node's retained implementation list; exactly one of
// rl/ls is meaningful depending on node kind. Lists are retained until the
// end of the run because traceback needs them — their count is what the
// memory tracker measures.
type nodeEval struct {
	rl shape.RList
	ls shape.LSet
}

// nodeOutcome is the order-independent record one node evaluation leaves
// behind. Outcomes are produced by whichever worker evaluates the node and
// merged into Stats/NodeStats afterwards in the canonical sequential order,
// which is what makes the run's statistics identical for any worker count.
type nodeOutcome struct {
	stat NodeStat
	// rsel/lsel count selection invocations at this node (0 or 1).
	rsel, lsel int
	// failed marks a node whose evaluation aborted (memory limit or
	// selection error): its generated count still feeds the stats, but it
	// contributes no NodeStat row and no stored list.
	failed bool

	// Telemetry fields, populated only when a collector is attached.
	// selErr is the selection error admitted at this node; selN/selK the
	// CSPP instance dimensions when selection ran. start, dur and worker
	// place the evaluation on the trace timeline.
	selErr     int64
	selN, selK int
	start, dur time.Duration
	worker     int
}

type runState struct {
	o   *Optimizer
	mem *memtrack.Tracker
	// tel is nil when telemetry is disabled; every use is one branch.
	tel *telemetry.Collector
	// evals and outcomes are indexed by BinNode.ID (preorder, 0..n-1).
	// Each slot is written exactly once, by the worker that evaluates the
	// node, before any reader can observe it (the scheduler's dependency
	// hand-off orders the accesses). A nil slot is a node not evaluated; a
	// set one points into the run's slab of the same index, so a run
	// allocates two slabs instead of two records per node.
	evals       []*nodeEval
	outcomes    []*nodeOutcome
	evalSlab    []nodeEval
	outcomeSlab []nodeOutcome
	// sub is the subtree result store consulted and filled by this run;
	// nil when memoization is off. digests holds every node's content
	// address, indexed by BinNode.ID, computed once up front.
	sub     *substore.Store
	digests []plan.Digest
}

// Run optimizes the floorplan tree. On memory exhaustion it returns an
// error matching ErrMemoryLimit together with a partial Result carrying the
// stats gathered so far (mirroring the paper's "> M" rows).
func (o *Optimizer) Run(tree *plan.Node) (*Result, error) {
	tel := o.opts.Telemetry
	restructureStart := tel.Now()
	bin, err := plan.Restructure(tree)
	if err != nil {
		return nil, err
	}
	tel.RecordSpan(telemetry.Span{
		Name: "restructure", Cat: telemetry.CatStage,
		Start: restructureStart, Dur: tel.Now() - restructureStart,
	})
	return o.RunBinary(bin)
}

// RunBinary optimizes an already-restructured binary tree. Trees built by
// plan.Restructure carry preorder IDs; a hand-built tree whose IDs are not
// the preorder permutation 0..n-1 is renumbered in place first, because the
// evaluator's per-node tables are indexed by ID.
func (o *Optimizer) RunBinary(bin *plan.BinNode) (*Result, error) {
	if err := bin.Validate(); err != nil {
		return nil, err
	}
	if bin.IsL() {
		return nil, fmt.Errorf("optimizer: root block is L-shaped; the floorplan root must be rectangular")
	}
	if err := plan.CheckModules(bin.Modules(), o.lib); err != nil {
		return nil, err
	}
	if !bin.HasPreorderIDs() {
		bin.AssignIDs()
	}
	schedule := flattenPostorder(bin)
	st := &runState{
		o:           o,
		mem:         memtrack.NewTracker(o.opts.MemoryLimit),
		tel:         o.opts.Telemetry,
		evals:       make([]*nodeEval, len(schedule)),
		outcomes:    make([]*nodeOutcome, len(schedule)),
		evalSlab:    make([]nodeEval, len(schedule)),
		outcomeSlab: make([]nodeOutcome, len(schedule)),
	}
	// Subtree memoization: resolve what the store already knows and
	// schedule only the remainder. Memory-limited runs never consult the
	// store — an abort's partial accounting depends on which nodes really
	// admitted implementations, which splicing would change.
	work := schedule
	if o.opts.Substore != nil && o.opts.MemoryLimit <= 0 {
		st.sub = o.opts.Substore
		st.digests = plan.SubtreeDigests(bin, o.substoreContext(), o.planLibrary())
		work = st.resolveFromStore(schedule)
	}
	workers := o.opts.workers(len(work))
	var poolSolves0, poolHits0, poolMisses0 int64
	evalSpanStart := st.tel.Now()
	if st.tel != nil {
		poolSolves0, poolHits0, poolMisses0 = cspp.PoolCounters()
	}
	start := time.Now()
	var evalErr error
	if len(work) > 0 {
		if workers <= 1 {
			evalErr = st.runSequential(work)
		} else {
			evalErr = st.runParallel(work, workers)
		}
	}
	var puts int
	if evalErr == nil && st.sub != nil {
		puts = st.fillStore(work)
	}
	stats, nodeStats := st.mergeOutcomes(schedule)
	stats.Elapsed = time.Since(start)
	if evalErr != nil {
		// A failed run reports the tracker's view: the peak includes the
		// would-be count of the rejected admission, the paper's "> M".
		stats.PeakStored = st.mem.Peak()
		stats.FinalStored = st.mem.Current()
	}
	if st.tel != nil {
		st.tel.RecordSpan(telemetry.Span{
			Name: "evaluate", Cat: telemetry.CatStage,
			Start: evalSpanStart, Dur: st.tel.Now() - evalSpanStart,
			Args: map[string]int64{"workers": int64(workers)},
		})
		solves, hits, misses := cspp.PoolCounters()
		st.tel.Add(telemetry.CtrCSPPSolves, solves-poolSolves0)
		st.tel.Add(telemetry.CtrCSPPPoolHits, hits-poolHits0)
		st.tel.Add(telemetry.CtrCSPPPoolMiss, misses-poolMisses0)
		st.emitTelemetry(schedule, stats)
	}
	if evalErr != nil {
		return &Result{Stats: stats}, evalErr
	}
	rootEval := st.evals[bin.ID]
	if rootEval == nil || len(rootEval.rl) == 0 {
		return &Result{Stats: stats}, fmt.Errorf("optimizer: root has no implementations")
	}
	best, _ := rootEval.rl.Best()
	sort.Slice(nodeStats, func(i, j int) bool { return nodeStats[i].ID < nodeStats[j].ID })
	res := &Result{
		Best:      best,
		RootList:  rootEval.rl.Clone(),
		Stats:     stats,
		NodeStats: nodeStats,
	}
	if st.sub != nil {
		res.Reuse = Reuse{
			ComputedNodes: len(work),
			SplicedNodes:  len(schedule) - len(work),
			StorePuts:     puts,
		}
	}
	if !o.opts.SkipPlacement {
		traceStart := st.tel.Now()
		placement, err := st.trace(bin, best)
		if err != nil {
			return res, err
		}
		if err := placement.Verify(o.lib); err != nil {
			return res, fmt.Errorf("optimizer: traceback produced an illegal placement: %w", err)
		}
		res.Placement = placement
		st.tel.RecordSpan(telemetry.Span{
			Name: "traceback", Cat: telemetry.CatStage,
			Start: traceStart, Dur: st.tel.Now() - traceStart,
		})
	}
	return res, nil
}

// flattenPostorder linearizes the binary tree into the canonical bottom-up
// evaluation order (left subtree, right subtree, node) — the exact order
// the original recursive evaluator visited nodes, and the order the stats
// merge replays for memory accounting.
func flattenPostorder(bin *plan.BinNode) []*plan.BinNode {
	out := make([]*plan.BinNode, 0, bin.Count())
	var walk func(*plan.BinNode)
	walk = func(b *plan.BinNode) {
		if b == nil {
			return
		}
		walk(b.Left)
		walk(b.Right)
		out = append(out, b)
	}
	walk(bin)
	return out
}

// runSequential evaluates the schedule on the calling goroutine, in exact
// postorder — byte-for-byte the original single-threaded behavior.
func (st *runState) runSequential(schedule []*plan.BinNode) error {
	for _, b := range schedule {
		if err := st.evalNode(b, 0); err != nil {
			return err
		}
	}
	return nil
}

// mergeOutcomes folds the per-node outcomes into run-wide statistics. It
// walks the canonical postorder schedule, so every derived quantity — in
// particular PeakStored, which replays the sequential Add/Release ledger —
// is identical no matter which worker evaluated which node, or in what
// real-time order. Nodes never evaluated (parallel abort drained them) are
// skipped; a failed node contributes its generated count only.
func (st *runState) mergeOutcomes(schedule []*plan.BinNode) (Stats, []NodeStat) {
	var stats Stats
	nodeStats := make([]NodeStat, 0, len(schedule))
	var cur, peak int64
	for _, b := range schedule {
		out := st.outcomes[b.ID]
		if out == nil {
			continue
		}
		stats.Nodes++
		if out.stat.LShaped {
			stats.LNodes++
		}
		stats.Generated += int64(out.stat.Generated)
		stats.RSelections += out.rsel
		stats.LSelections += out.lsel
		if out.failed {
			continue
		}
		if out.stat.LShaped {
			if out.stat.Stored > stats.MaxLSet {
				stats.MaxLSet = out.stat.Stored
			}
		} else if out.stat.Stored > stats.MaxRList {
			stats.MaxRList = out.stat.Stored
		}
		// Replay the sequential memory ledger: the node admits its full
		// generated set, peaks, then selection releases the discarded part.
		cur += int64(out.stat.Generated)
		if cur > peak {
			peak = cur
		}
		cur -= int64(out.stat.Generated - out.stat.Stored)
		nodeStats = append(nodeStats, out.stat)
	}
	stats.PeakStored = peak
	stats.FinalStored = cur
	return stats, nodeStats
}

// evalNode computes one node's retained implementation list. Its operands
// (st.evals of the children) must already be present; the schedulers
// guarantee that. Apart from the shared memory tracker — which is atomic —
// it touches only this node's slots, so any number of evalNode calls on
// distinct nodes may run concurrently. worker tags the outcome for trace
// attribution; with telemetry disabled the timing wrapper is a single
// branch.
func (st *runState) evalNode(b *plan.BinNode, worker int) error {
	if st.tel == nil {
		return st.evalNodeInner(b)
	}
	start := st.tel.Now()
	err := st.evalNodeInner(b)
	if out := st.outcomes[b.ID]; out != nil {
		out.start = start
		out.dur = st.tel.Now() - start
		out.worker = worker
	}
	return err
}

// newOutcome marks node id evaluated and returns its zeroed outcome.
func (st *runState) newOutcome(id int) *nodeOutcome {
	st.outcomes[id] = &st.outcomeSlab[id]
	return st.outcomes[id]
}

// setEval records node id's retained lists.
func (st *runState) setEval(id int, ev nodeEval) {
	st.evalSlab[id] = ev
	st.evals[id] = &st.evalSlab[id]
}

func (st *runState) evalNodeInner(b *plan.BinNode) error {
	out := st.newOutcome(b.ID)
	if b.Kind == plan.BinLeaf {
		return st.finishR(b, out, st.o.lib[b.Module], false)
	}
	left := st.evals[b.Left.ID]
	right := st.evals[b.Right.ID]
	// budget lets the combination abort as soon as a node's non-redundant
	// set alone exceeds the remaining memory allowance, instead of fully
	// generating a doomed node first.
	budget, err := st.remainingBudget(b)
	if err != nil {
		out.stat = NodeStat{ID: b.ID, Kind: b.Kind, LShaped: b.IsL()}
		out.failed = true
		return err
	}
	switch b.Kind {
	case plan.BinVCut:
		err = st.finishR(b, out, combine.VCut(left.rl, right.rl), false)
	case plan.BinHCut:
		err = st.finishR(b, out, combine.HCut(left.rl, right.rl), false)
	case plan.BinLStack:
		set, truncated := combine.LStack(left.rl, right.rl, budget)
		err = st.finishL(b, out, set, truncated)
	case plan.BinLNotch:
		set, truncated := combine.LNotch(left.ls, right.rl, budget)
		err = st.finishL(b, out, set, truncated)
	case plan.BinLBottom:
		set, truncated := combine.LBottom(left.ls, right.rl, budget)
		err = st.finishL(b, out, set, truncated)
	case plan.BinClose:
		list, truncated := combine.Close(left.ls, right.rl, budget)
		err = st.finishR(b, out, list, truncated)
	default:
		out.failed = true
		return fmt.Errorf("optimizer: unexpected node kind %v", b.Kind)
	}
	return err
}

// remainingBudget returns how many more implementations may be stored
// before the memory limit trips, or 0 (unlimited) when no limit is set.
// When the budget is already exhausted it fails immediately: every
// combination stores at least one implementation, so generating the node
// would only burn CPU before the inevitable limit error. A limited run is
// sequential, so the count cannot move between the read and the probing
// Add, which fails and records the would-be count so the error reports
// "> limit" like every other abort.
func (st *runState) remainingBudget(b *plan.BinNode) (int, error) {
	limit := st.o.opts.MemoryLimit
	if limit <= 0 {
		return 0, nil
	}
	if rem := limit - st.mem.Current(); rem >= 1 {
		return int(rem), nil
	}
	err := st.mem.Add(1)
	return 0, fmt.Errorf("optimizer: node %d (%v): %w", b.ID, b.Kind, err)
}

// finishR accounts for, optionally reduces, and stores a rectangular
// block's list. truncated marks a list whose generation aborted early on
// the memory budget; accounting still happens so the error carries the
// count, but the run must fail.
func (st *runState) finishR(b *plan.BinNode, out *nodeOutcome, list shape.RList, truncated bool) error {
	out.stat = NodeStat{ID: b.ID, Kind: b.Kind, Generated: len(list)}
	if err := st.mem.Add(int64(len(list))); err != nil {
		out.failed = true
		return fmt.Errorf("optimizer: node %d (%v): %w", b.ID, b.Kind, err)
	}
	if truncated {
		out.failed = true
		return fmt.Errorf("optimizer: node %d (%v): generation aborted: %w: %d stored",
			b.ID, b.Kind, memtrack.ErrLimit, st.mem.Current())
	}
	if st.o.opts.Policy.WantR(len(list)) {
		reduced, admitted, err := st.o.opts.Policy.ReduceR(list)
		if err != nil {
			out.failed = true
			return err
		}
		out.rsel = 1
		out.selErr = admitted
		out.selN, out.selK = len(list), st.o.opts.Policy.K1
		if err := st.mem.Release(int64(len(list) - len(reduced))); err != nil {
			out.failed = true
			return err
		}
		list = reduced
	}
	out.stat.Stored = len(list)
	out.stat.Lists = 1
	st.setEval(b.ID, nodeEval{rl: list})
	return nil
}

// finishL accounts for, optionally reduces, and stores an L-shaped block's
// set of L-lists.
func (st *runState) finishL(b *plan.BinNode, out *nodeOutcome, set shape.LSet, truncated bool) error {
	size := set.Size()
	out.stat = NodeStat{ID: b.ID, Kind: b.Kind, LShaped: true, Generated: size}
	if err := st.mem.Add(int64(size)); err != nil {
		out.failed = true
		return fmt.Errorf("optimizer: node %d (%v): %w", b.ID, b.Kind, err)
	}
	if truncated {
		out.failed = true
		return fmt.Errorf("optimizer: node %d (%v): generation aborted: %w: %d stored",
			b.ID, b.Kind, memtrack.ErrLimit, st.mem.Current())
	}
	if st.o.opts.Policy.WantL(size) {
		reduced, admitted, err := st.o.opts.Policy.ReduceLSet(set)
		if err != nil {
			out.failed = true
			return err
		}
		out.lsel = 1
		out.selErr = admitted
		out.selN, out.selK = size, st.o.opts.Policy.K2
		if err := st.mem.Release(int64(size - reduced.Size())); err != nil {
			out.failed = true
			return err
		}
		set = reduced
	}
	out.stat.Stored = set.Size()
	out.stat.Lists = len(set.Lists)
	st.setEval(b.ID, nodeEval{ls: set})
	return nil
}

// emitTelemetry folds the per-node records into the run's collector,
// walking the canonical postorder schedule exactly like mergeOutcomes —
// every node's contribution lands in the same order no matter which
// worker produced it, so the deterministic report section is bit-identical
// across worker counts. Wall-clock data (eval spans, per-worker busy time)
// goes to the runtime section, which legitimately varies.
func (st *runState) emitTelemetry(schedule []*plan.BinNode, stats Stats) {
	tel := st.tel
	for _, b := range schedule {
		out := st.outcomes[b.ID]
		if out == nil {
			continue
		}
		tel.Record(telemetry.HistListBefore, int64(out.stat.Generated))
		if out.rsel > 0 {
			tel.Add(telemetry.CtrRSelectionError, out.selErr)
		}
		if out.lsel > 0 {
			tel.Add(telemetry.CtrLSelectionError, out.selErr)
		}
		if out.rsel > 0 || out.lsel > 0 {
			tel.Observe(telemetry.MaxCSPPN, int64(out.selN))
			tel.Observe(telemetry.MaxCSPPK, int64(out.selK))
		}
		if !out.failed {
			tel.Record(telemetry.HistListAfter, int64(out.stat.Stored))
			tel.Add(telemetry.CtrStored, int64(out.stat.Stored))
		}
		if out.dur > 0 {
			tel.Record(telemetry.HistNodeEvalNs, out.dur.Nanoseconds())
			tel.RecordSpan(telemetry.Span{
				Name:  fmt.Sprintf("n%d %v", b.ID, b.Kind),
				Cat:   "eval",
				Track: out.worker,
				Start: out.start,
				Dur:   out.dur,
				Args: map[string]int64{
					"node":      int64(b.ID),
					"generated": int64(out.stat.Generated),
					"stored":    int64(out.stat.Stored),
				},
			})
		}
	}
	tel.Add(telemetry.CtrNodes, int64(stats.Nodes))
	tel.Add(telemetry.CtrLNodes, int64(stats.LNodes))
	tel.Add(telemetry.CtrGenerated, stats.Generated)
	tel.Add(telemetry.CtrRSelections, int64(stats.RSelections))
	tel.Add(telemetry.CtrLSelections, int64(stats.LSelections))
	tel.Observe(telemetry.MaxPeakStored, stats.PeakStored)
	tel.Observe(telemetry.MaxRList, int64(stats.MaxRList))
	tel.Observe(telemetry.MaxLSet, int64(stats.MaxLSet))
}

// IsMemoryLimit reports whether err is a memory-limit abort.
func IsMemoryLimit(err error) bool { return errors.Is(err, memtrack.ErrLimit) }
