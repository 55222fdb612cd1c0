// Package plan models floorplan topologies as floorplan trees and
// restructures them for bottom-up area optimization.
//
// A floorplan tree (Section 2 of the paper, Figure 1) describes how an
// enveloping rectangle is recursively partitioned. This package supports
// the constructs of hierarchical floorplans of order 5, the input class of
// the Wang–Wong DAC'90 optimizer the paper builds on:
//
//   - Leaf: a basic rectangle holding one module.
//   - HSlice / VSlice: a slicing cut into two or more parts (children
//     stacked bottom-to-top, or placed left-to-right).
//   - Wheel: the order-5 non-slicing pinwheel of five blocks.
//
// Restructure converts a floorplan tree T into the binary tree T' of
// Figure 3, in which every internal node represents either a rectangular
// block or an L-shaped block; the optimizer evaluates T' bottom-up.
package plan

import (
	"fmt"
	"strconv"
)

// Kind enumerates floorplan tree node kinds.
type Kind int

const (
	// Leaf is a basic rectangle assigned one module.
	Leaf Kind = iota
	// HSlice cuts a rectangle with horizontal lines; children are listed
	// bottom to top. Heights add, widths max.
	HSlice
	// VSlice cuts a rectangle with vertical lines; children are listed
	// left to right. Widths add, heights max.
	VSlice
	// Wheel is the order-5 pinwheel. Children are listed
	// [NW, NE, SE, SW, center]; see the package comment of internal/combine
	// for the exact geometry.
	Wheel
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Leaf:
		return "leaf"
	case HSlice:
		return "hslice"
	case VSlice:
		return "vslice"
	case Wheel:
		return "wheel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a floorplan tree node. Build trees with the NewX constructors and
// check them with Validate.
type Node struct {
	Kind     Kind
	Module   string  // Leaf: the module library key
	Children []*Node // internal nodes
	// CCW marks a counter-clockwise wheel (the mirror image of the default
	// clockwise pinwheel).
	CCW bool
	// Name optionally labels the node for diagnostics and rendering.
	Name string
}

// NewLeaf returns a leaf node referencing a module by name.
func NewLeaf(module string) *Node { return &Node{Kind: Leaf, Module: module} }

// NewHSlice returns a horizontal slicing node over the children, listed
// bottom to top.
func NewHSlice(children ...*Node) *Node { return &Node{Kind: HSlice, Children: children} }

// NewVSlice returns a vertical slicing node over the children, listed left
// to right.
func NewVSlice(children ...*Node) *Node { return &Node{Kind: VSlice, Children: children} }

// NewWheel returns a clockwise pinwheel node over exactly five children
// [NW, NE, SE, SW, center].
func NewWheel(nw, ne, se, sw, center *Node) *Node {
	return &Node{Kind: Wheel, Children: []*Node{nw, ne, se, sw, center}}
}

// NewCCWWheel returns a counter-clockwise pinwheel, the mirror image of
// NewWheel with the same child roles.
func NewCCWWheel(nw, ne, se, sw, center *Node) *Node {
	n := NewWheel(nw, ne, se, sw, center)
	n.CCW = true
	return n
}

// Validate checks structural well-formedness: leaves name a module and have
// no children, slices have at least two children, wheels exactly five, and
// the tree is free of nil nodes and cycles.
func (n *Node) Validate() error {
	// The recursion shares one path buffer, sized so that trees up to 32
	// levels deep never regrow it.
	return n.validate(make(map[*Node]bool), make([]int, 0, 32))
}

// validate checks the subtree at n, which the root reaches through the
// child indices in path. Only an error formats the path.
func (n *Node) validate(seen map[*Node]bool, path []int) error {
	if n == nil {
		return fmt.Errorf("plan: nil node at %s", nodePath(path))
	}
	if seen[n] {
		return fmt.Errorf("plan: node %s appears more than once (tree is a DAG or cyclic)", nodePath(path))
	}
	seen[n] = true
	switch n.Kind {
	case Leaf:
		if n.Module == "" {
			return fmt.Errorf("plan: leaf at %s has no module", nodePath(path))
		}
		if len(n.Children) != 0 {
			return fmt.Errorf("plan: leaf at %s has %d children", nodePath(path), len(n.Children))
		}
	case HSlice, VSlice:
		if len(n.Children) < 2 {
			return fmt.Errorf("plan: %s at %s needs >= 2 children, has %d", n.Kind, nodePath(path), len(n.Children))
		}
		if n.Module != "" {
			return fmt.Errorf("plan: internal node at %s names module %q", nodePath(path), n.Module)
		}
	case Wheel:
		if len(n.Children) != 5 {
			return fmt.Errorf("plan: wheel at %s needs exactly 5 children, has %d", nodePath(path), len(n.Children))
		}
		if n.Module != "" {
			return fmt.Errorf("plan: internal node at %s names module %q", nodePath(path), n.Module)
		}
	default:
		return fmt.Errorf("plan: unknown kind %d at %s", int(n.Kind), nodePath(path))
	}
	for i, c := range n.Children {
		if err := c.validate(seen, append(path, i)); err != nil {
			return err
		}
	}
	return nil
}

// nodePath names a node by its child indices from the root, as in
// "root.0.2".
func nodePath(path []int) string {
	b := []byte("root")
	for _, i := range path {
		b = strconv.AppendInt(append(b, '.'), int64(i), 10)
	}
	return string(b)
}

// ModuleCount returns the number of leaves.
func (n *Node) ModuleCount() int {
	if n == nil {
		return 0
	}
	if n.Kind == Leaf {
		return 1
	}
	total := 0
	for _, c := range n.Children {
		total += c.ModuleCount()
	}
	return total
}

// Leaves appends all leaf nodes in depth-first order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.walkLeaves(&out)
	return out
}

// LeafModules returns the module of every leaf in depth-first order, so a
// module used twice appears twice: the occurrences CheckModules sums over.
func (n *Node) LeafModules() []string {
	leaves := n.Leaves()
	out := make([]string, len(leaves))
	for i, leaf := range leaves {
		out[i] = leaf.Module
	}
	return out
}

func (n *Node) walkLeaves(out *[]*Node) {
	if n == nil {
		return
	}
	if n.Kind == Leaf {
		*out = append(*out, n)
		return
	}
	for _, c := range n.Children {
		c.walkLeaves(out)
	}
}

// Depth returns the height of the tree (a lone leaf has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	if n.Kind == Leaf {
		return 1
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// WheelCount returns the number of wheel nodes, a proxy for how non-slicing
// (and hence how L-heavy) the floorplan is.
func (n *Node) WheelCount() int {
	if n == nil || n.Kind == Leaf {
		return 0
	}
	total := 0
	if n.Kind == Wheel {
		total = 1
	}
	for _, c := range n.Children {
		total += c.WheelCount()
	}
	return total
}
