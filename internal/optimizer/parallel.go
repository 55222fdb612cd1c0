package optimizer

import (
	"sort"
	"sync"
	"sync/atomic"

	"floorplan/internal/plan"
)

// runParallel evaluates the work schedule with a bounded pool of worker
// goroutines using dependency-counting dispatch: every node carries the
// number of unevaluated children; nodes with no unevaluated children
// (leaves, and nodes whose operands the subtree store resolved) start
// ready, and the worker that completes a node's last unevaluated child
// enqueues the node. The ready queue is a buffered channel sized for the
// whole schedule, so enqueues never block and a worker is only ever idle
// when no node is ready.
//
// work may be any postorder-closed subset of the tree: a node's operands
// are either in work (evaluated here, ordered by the dependency hand-off)
// or were spliced into st.evals before this call (ordered by goroutine
// creation). The per-ID tables are sized for the whole tree, so resolved
// IDs simply stay inert.
//
// Correctness notes:
//
//   - st.evals[id] and st.outcomes[id] are each written once, by the worker
//     evaluating node id. A parent's worker observes its children's writes
//     through the atomic pending-counter decrement followed by the channel
//     hand-off, both of which establish happens-before edges.
//   - On any failure the scheduler stops evaluating (remaining ready nodes
//     drain without running) and, after all workers join, reports the error
//     of the lowest-ID failed node — deterministic when a failure is itself
//     deterministic, e.g. a selection error on a specific node.
func (st *runState) runParallel(work []*plan.BinNode, workers int) error {
	n := len(st.outcomes)
	byID := make([]*plan.BinNode, n)
	parent := make([]int, n)
	pending := make([]atomic.Int32, n)
	for _, b := range work {
		byID[b.ID] = b
		parent[b.ID] = -1
	}
	ready := make(chan int, len(work))
	var inFlight atomic.Int64
	for _, b := range work {
		if b.Kind == plan.BinLeaf {
			continue
		}
		var deps int32
		if byID[b.Left.ID] != nil {
			parent[b.Left.ID] = b.ID
			deps++
		}
		if byID[b.Right.ID] != nil {
			parent[b.Right.ID] = b.ID
			deps++
		}
		pending[b.ID].Store(deps)
	}
	for _, b := range work {
		if pending[b.ID].Load() == 0 {
			inFlight.Add(1)
			ready <- b.ID
		}
	}

	var (
		aborted atomic.Bool
		errMu   sync.Mutex
		nodeErr []struct {
			id  int
			err error
		}
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := range ready {
				completed := false
				if !aborted.Load() {
					if err := st.evalNode(byID[id], w); err != nil {
						aborted.Store(true)
						errMu.Lock()
						nodeErr = append(nodeErr, struct {
							id  int
							err error
						}{id, err})
						errMu.Unlock()
					} else {
						completed = true
					}
				}
				if completed {
					if p := parent[id]; p >= 0 && pending[p].Add(-1) == 0 {
						inFlight.Add(1)
						ready <- p
					}
				}
				if inFlight.Add(-1) == 0 {
					close(ready)
				}
			}
		}(w)
	}
	wg.Wait()
	if len(nodeErr) == 0 {
		return nil
	}
	sort.Slice(nodeErr, func(i, j int) bool { return nodeErr[i].id < nodeErr[j].id })
	return nodeErr[0].err
}
