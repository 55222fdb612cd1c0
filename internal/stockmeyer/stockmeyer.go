// Package stockmeyer implements the classic baseline the paper's line of
// work descends from: Stockmeyer's optimal orientation / shape algorithm
// for slicing floorplans (reference [8], Information and Control 1983).
//
// A slicing floorplan is one obtainable by recursive horizontal and
// vertical cuts only — no wheels, hence no L-shaped blocks. For such trees
// the bottom-up combination needs only the linear two-pointer merge of
// R-lists (combine.VCut and combine.HCut, the merges the general optimizer
// runs), and every node's list length is bounded by the sum of its leaves'
// list lengths, so the whole optimization is low-polynomial.
//
// The package serves three purposes in this repository:
//
//   - it is the baseline algorithm for slicing inputs in the benchmark
//     harness;
//   - it folds each n-ary slice of the original tree left to right, where
//     the general optimizer first restructures the tree into binary cuts,
//     so on slicing trees the two cross-check the fold against the
//     restructure;
//   - it demonstrates the paper's claim (Section 6) that R_Selection plugs
//     into other floorplan optimizers: Options.K1 applies the same optimal
//     staircase pruning at every node.
package stockmeyer

import (
	"fmt"

	"floorplan/internal/combine"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
)

// Module is a basic block for the classic orientation problem: a fixed
// rectangle that may optionally be rotated by 90 degrees.
type Module struct {
	W, H      int64
	Rotatable bool
}

// Implementations returns the module's irreducible R-list: the module
// itself, plus its rotation when allowed and not redundant.
func (m Module) Implementations() (shape.RList, error) {
	if m.W <= 0 || m.H <= 0 {
		return nil, fmt.Errorf("stockmeyer: module %dx%d invalid", m.W, m.H)
	}
	impls := []shape.RImpl{{W: m.W, H: m.H}}
	if m.Rotatable {
		impls = append(impls, shape.RImpl{W: m.H, H: m.W})
	}
	return shape.NewRList(impls)
}

// Options configures a run. The zero value is the plain Stockmeyer
// algorithm.
type Options struct {
	// K1, when positive, applies R_Selection with this limit to every
	// node's list, demonstrating the paper's technique on a slicing
	// optimizer.
	K1 int
}

// Result is the outcome of Optimize.
type Result struct {
	// Best is the minimum-area implementation of the whole floorplan.
	Best shape.RImpl
	// RootList is the root's full (or selected) implementation list.
	RootList shape.RList
	// PeakStored counts implementations stored across all nodes, the
	// analogue of the paper's M.
	PeakStored int64
	// RSelections counts selection invocations.
	RSelections int
}

// Optimize runs the algorithm over a slicing floorplan tree. Trees
// containing wheels are rejected — use the general optimizer for those.
func Optimize(tree *plan.Node, lib map[string]shape.RList, opts Options) (*Result, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if tree.WheelCount() > 0 {
		return nil, fmt.Errorf("stockmeyer: tree contains %d wheels; only slicing floorplans are supported", tree.WheelCount())
	}
	if opts.K1 < 0 || opts.K1 == 1 {
		return nil, fmt.Errorf("stockmeyer: K1 must be 0 (off) or >= 2, got %d", opts.K1)
	}
	if err := plan.CheckModules(tree.LeafModules(), lib); err != nil {
		return nil, err
	}
	res := &Result{}
	root, err := res.eval(tree, lib, opts)
	if err != nil {
		return nil, err
	}
	if len(root) == 0 {
		return nil, fmt.Errorf("stockmeyer: empty root list")
	}
	best, _ := root.Best()
	res.Best = best
	res.RootList = root
	return res, nil
}

func (r *Result) eval(n *plan.Node, lib map[string]shape.RList, opts Options) (shape.RList, error) {
	var list shape.RList
	switch n.Kind {
	case plan.Leaf:
		l := lib[n.Module] // present: Optimize ran plan.CheckModules
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("stockmeyer: module %q: %w", n.Module, err)
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("stockmeyer: module %q has no implementations", n.Module)
		}
		list = l
	case plan.HSlice, plan.VSlice:
		cut := combine.HCut
		if n.Kind == plan.VSlice {
			cut = combine.VCut
		}
		for i, c := range n.Children {
			next, err := r.eval(c, lib, opts)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				list = next
			} else {
				list = cut(list, next)
			}
		}
	default:
		return nil, fmt.Errorf("stockmeyer: unsupported node kind %v", n.Kind)
	}
	if opts.K1 > 0 && len(list) > opts.K1 {
		sel, err := selection.RSelect(list, opts.K1)
		if err != nil {
			return nil, err
		}
		list = sel.Selected
		r.RSelections++
	}
	r.PeakStored += int64(len(list))
	return list, nil
}

// OrientationLibrary builds a library from named modules for the classic
// orientation problem.
func OrientationLibrary(modules map[string]Module) (map[string]shape.RList, error) {
	lib := make(map[string]shape.RList, len(modules))
	for name, m := range modules {
		l, err := m.Implementations()
		if err != nil {
			return nil, fmt.Errorf("stockmeyer: module %q: %w", name, err)
		}
		lib[name] = l
	}
	return lib, nil
}
