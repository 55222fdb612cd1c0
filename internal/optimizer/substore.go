package optimizer

import (
	"encoding/binary"
	"math"

	"floorplan/internal/plan"
	"floorplan/internal/substore"
)

// Subtree memoization: before evaluating, the run resolves every node
// whose content address is already in the subtree store, splicing the
// stored curve and statistics in place of evaluation; only the unresolved
// remainder is scheduled. Two requests sharing a sub-floorplan share the
// work below it, and re-optimizing an edited tree evaluates only the
// spine from the changed leaf to the root — every other digest is
// unchanged and resolves.
//
// The splice is exact, not approximate: a NodeRecord carries the full
// per-node outcome (curve, generated/stored counts, selection error and
// CSPP dimensions), so the deterministic accounting — Stats replay,
// NodeStats, telemetry counters — and placement traceback are
// byte-identical whether a node was evaluated or resolved. Memory-limited
// runs never consult the store (RunBinary gates on MemoryLimit == 0): an
// abort's partial statistics depend on which nodes actually admitted
// implementations, which splicing would change.
//
// A spliced record's lists are the stored ones, shared with every other
// run that splices them, concurrent runs included. That is sound because
// nothing writes to a retained list: combine, selection and traceback
// only read their operands, and Result.RootList is a copy.

// substoreContext encodes everything outside the tree and library that
// changes a node's evaluation result: the selection policy. Worker count,
// placement skipping and telemetry do not affect per-node results (pinned
// by the bit-identity tests) and are deliberately excluded, so runs that
// differ only in those share records.
func (o *Optimizer) substoreContext() []byte {
	p := o.opts.Policy
	ctx := binary.AppendVarint(nil, int64(p.K1))
	ctx = binary.AppendVarint(ctx, int64(p.K2))
	ctx = binary.AppendVarint(ctx, int64(p.S))
	ctx = binary.AppendUvarint(ctx, math.Float64bits(p.Theta))
	return ctx
}

// planLibrary views the optimizer's library as a plan.Library for digest
// computation.
func (o *Optimizer) planLibrary() plan.Library {
	pl := make(plan.Library, len(o.lib))
	for name, l := range o.lib {
		pl[name] = l
	}
	return pl
}

// resolveFromStore consults the store for every node of the canonical
// schedule, in postorder, splicing hits and returning the unresolved
// remainder (still in postorder) for evaluation. It runs on the calling
// goroutine before any worker starts, so every splice happens-before
// every evaluation that might read a spliced operand, and the resolved
// set is deterministic for a given store state.
func (st *runState) resolveFromStore(schedule []*plan.BinNode) []*plan.BinNode {
	work := schedule[:0:0]
	for _, b := range schedule {
		rec, ok := st.sub.Get(st.digests[b.ID])
		if !ok || rec.LShaped != b.IsL() {
			// Miss — or a record whose shape class contradicts the node,
			// which would mean a digest collision; evaluate.
			work = append(work, b)
			continue
		}
		st.splice(b, rec)
	}
	return work
}

// splice installs a stored record as node b's outcome and retained curve,
// exactly as if the node had been evaluated. The memory ledger replays
// the node's admit/release so a later abort elsewhere reports the same
// tracker state a store-off run would (Add cannot fail: the store is
// gated to unlimited runs).
func (st *runState) splice(b *plan.BinNode, rec substore.NodeRecord) {
	out := st.newOutcome(b.ID)
	*out = nodeOutcome{
		stat: NodeStat{
			ID:        b.ID,
			Kind:      b.Kind,
			LShaped:   rec.LShaped,
			Generated: rec.Generated,
			Stored:    rec.Stored,
			Lists:     rec.Lists,
		},
		selErr: rec.SelErr,
		selN:   rec.SelN,
		selK:   rec.SelK,
	}
	if rec.RSel {
		out.rsel = 1
	}
	if rec.LSel {
		out.lsel = 1
	}
	st.setEval(b.ID, nodeEval{rl: rec.RL, ls: rec.LS})
	_ = st.mem.Add(int64(rec.Generated))
	_ = st.mem.Release(int64(rec.Generated - rec.Stored))
}

// fillStore writes every successfully evaluated node's outcome back to
// the store and returns the number of records offered. Failed nodes are
// never stored (their outcome is a partial accounting artifact, not a
// reusable curve). The store keeps the lists it is given, so a leaf's list
// is copied: one that needed no R_Selection is the caller's library slice,
// which the caller may change after the run.
func (st *runState) fillStore(work []*plan.BinNode) int {
	puts := 0
	for _, b := range work {
		out := st.outcomes[b.ID]
		ev := st.evals[b.ID]
		if out == nil || out.failed || ev == nil {
			continue
		}
		rl := ev.rl
		if b.Kind == plan.BinLeaf {
			rl = rl.Clone()
		}
		st.sub.Put(st.digests[b.ID], substore.NodeRecord{
			LShaped:   out.stat.LShaped,
			RSel:      out.rsel > 0,
			LSel:      out.lsel > 0,
			Generated: out.stat.Generated,
			Stored:    out.stat.Stored,
			Lists:     out.stat.Lists,
			SelErr:    out.selErr,
			SelN:      out.selN,
			SelK:      out.selK,
			RL:        rl,
			LS:        ev.ls,
		})
		puts++
	}
	return puts
}
