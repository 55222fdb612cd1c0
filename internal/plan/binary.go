package plan

import "fmt"

// BinKind enumerates the combine operations of the restructured binary tree
// T'. Each internal BinNode merges its Left operand (a rectangular or
// L-shaped partial block) with its Right operand (always a rectangular
// block) into a bigger block.
type BinKind int

const (
	// BinLeaf is a module leaf (rectangular).
	BinLeaf BinKind = iota
	// BinVCut joins Left and Right side by side (Left to the left):
	// a vertical slicing cut. Result is rectangular.
	BinVCut
	// BinHCut stacks Right on top of Left: a horizontal slicing cut.
	// Result is rectangular.
	BinHCut
	// BinLStack starts a pinwheel: Right (the NW block B1) is stacked on
	// the left part of Left (the SW block B4), producing an L-shaped block
	// with its notch at the top-right.
	BinLStack
	// BinLNotch grows a pinwheel: Right (the center block B5) is placed in
	// the notch, on top of the bottom slab and right of the top slab.
	// Result is L-shaped.
	BinLNotch
	// BinLBottom grows a pinwheel: Right (the SE block B3) is appended to
	// the right of the bottom edge. Result is L-shaped.
	BinLBottom
	// BinClose finishes a pinwheel: Right (the NE block B2) fills the
	// notch's top-right corner, completing a rectangle.
	BinClose
)

// String implements fmt.Stringer.
func (k BinKind) String() string {
	switch k {
	case BinLeaf:
		return "leaf"
	case BinVCut:
		return "vcut"
	case BinHCut:
		return "hcut"
	case BinLStack:
		return "lstack"
	case BinLNotch:
		return "lnotch"
	case BinLBottom:
		return "lbottom"
	case BinClose:
		return "close"
	default:
		return fmt.Sprintf("BinKind(%d)", int(k))
	}
}

// BinNode is a node of the restructured binary tree T'. Every BinNode
// represents either a rectangular block (BinLeaf, BinVCut, BinHCut,
// BinClose) or an L-shaped block (BinLStack, BinLNotch, BinLBottom),
// exactly the property Figure 3 of the paper establishes.
type BinNode struct {
	Kind        BinKind
	Left, Right *BinNode
	// Module is the module key for BinLeaf nodes.
	Module string
	// Mirror marks a BinClose whose wheel was counter-clockwise: the
	// placement of the whole wheel is reflected horizontally at traceback.
	// Shape sets are mirror-invariant, so evaluation ignores it.
	Mirror bool
	// ID is a stable preorder index assigned by Restructure, used by the
	// optimizer for stats tables.
	ID int
}

// IsL reports whether the node represents an L-shaped block.
func (b *BinNode) IsL() bool {
	switch b.Kind {
	case BinLStack, BinLNotch, BinLBottom:
		return true
	default:
		return false
	}
}

// Count returns the number of BinNodes in the subtree.
func (b *BinNode) Count() int {
	if b == nil {
		return 0
	}
	return 1 + b.Left.Count() + b.Right.Count()
}

// Restructure converts a validated floorplan tree into the binary tree T'.
//
//   - A slicing node with children c1..cn folds left into n-1 binary cuts:
//     ((c1 ⊕ c2) ⊕ c3) ⊕ … — multi-way slicing cuts are associative.
//   - A clockwise wheel [B1..B5] = [NW, NE, SE, SW, C] becomes
//     (((B4 ⊕ B1) ⊕ B5) ⊕ B3) ⊕ B2 with L-shaped intermediates, following
//     the geometry x1 <= x2, y1 <= y2 of the pinwheel.
//   - A counter-clockwise wheel is the mirror image; since rectangle
//     implementation sets are mirror-invariant, it is evaluated as the
//     clockwise wheel of the mirrored child roles
//     [NE, NW, SW, SE, C] and only the final placement is reflected
//     (BinNode.Mirror).
func Restructure(root *Node) (*BinNode, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	b := restructure(root)
	assignIDs(b, new(int))
	return b, nil
}

func restructure(n *Node) *BinNode {
	switch n.Kind {
	case Leaf:
		return &BinNode{Kind: BinLeaf, Module: n.Module}
	case HSlice, VSlice:
		kind := BinHCut
		if n.Kind == VSlice {
			kind = BinVCut
		}
		acc := restructure(n.Children[0])
		for _, c := range n.Children[1:] {
			acc = &BinNode{Kind: kind, Left: acc, Right: restructure(c)}
		}
		return acc
	case Wheel:
		nw, ne, se, sw, center := n.Children[0], n.Children[1], n.Children[2], n.Children[3], n.Children[4]
		if n.CCW {
			// Mirror the roles: the CCW wheel seen in a mirror is the CW
			// wheel with NW/NE and SW/SE exchanged.
			nw, ne = ne, nw
			sw, se = se, sw
		}
		b4 := restructure(sw)
		b1 := restructure(nw)
		b5 := restructure(center)
		b3 := restructure(se)
		b2 := restructure(ne)
		l1 := &BinNode{Kind: BinLStack, Left: b4, Right: b1}
		l2 := &BinNode{Kind: BinLNotch, Left: l1, Right: b5}
		l3 := &BinNode{Kind: BinLBottom, Left: l2, Right: b3}
		return &BinNode{Kind: BinClose, Left: l3, Right: b2, Mirror: n.CCW}
	default:
		panic(fmt.Sprintf("plan: restructure on invalid kind %v", n.Kind))
	}
}

// AssignIDs renumbers the subtree's IDs as a fresh preorder walk starting
// at 0, the numbering Restructure produces. The optimizer's evaluator
// indexes its per-node tables by ID, so hand-built binary trees whose IDs
// are not the preorder permutation 0..Count-1 are renumbered before a run.
func (b *BinNode) AssignIDs() { assignIDs(b, new(int)) }

// HasPreorderIDs reports whether the subtree's IDs are exactly the preorder
// indices 0..Count-1 — the invariant the optimizer's ID-indexed per-node
// tables rely on.
func (b *BinNode) HasPreorderIDs() bool {
	next := 0
	var walk func(*BinNode) bool
	walk = func(n *BinNode) bool {
		if n == nil {
			return true
		}
		if n.ID != next {
			return false
		}
		next++
		return walk(n.Left) && walk(n.Right)
	}
	return walk(b)
}

func assignIDs(b *BinNode, next *int) {
	if b == nil {
		return
	}
	b.ID = *next
	*next++
	assignIDs(b.Left, next)
	assignIDs(b.Right, next)
}

// Validate checks the structural invariants of a binary tree: leaves have a
// module and no children; every internal node has both children; the Right
// operand of every internal node is rectangular; the Left operand of
// BinLNotch/BinLBottom/BinClose is L-shaped and of BinVCut/BinHCut/BinLStack
// is rectangular.
func (b *BinNode) Validate() error {
	if b == nil {
		return fmt.Errorf("plan: nil BinNode")
	}
	if b.Kind == BinLeaf {
		if b.Module == "" {
			return fmt.Errorf("plan: BinLeaf without module")
		}
		if b.Left != nil || b.Right != nil {
			return fmt.Errorf("plan: BinLeaf with children")
		}
		return nil
	}
	if b.Left == nil || b.Right == nil {
		return fmt.Errorf("plan: %v node missing operand", b.Kind)
	}
	if b.Right.IsL() {
		return fmt.Errorf("plan: %v node has L-shaped right operand", b.Kind)
	}
	wantLLeft := b.Kind == BinLNotch || b.Kind == BinLBottom || b.Kind == BinClose
	if b.Left.IsL() != wantLLeft {
		return fmt.Errorf("plan: %v node: left operand L-shaped=%v, want %v", b.Kind, b.Left.IsL(), wantLLeft)
	}
	if b.Mirror && b.Kind != BinClose {
		return fmt.Errorf("plan: Mirror set on %v node", b.Kind)
	}
	if err := b.Left.Validate(); err != nil {
		return err
	}
	return b.Right.Validate()
}

// Modules returns the module keys of the subtree's leaves, left to right.
func (b *BinNode) Modules() []string {
	var out []string
	var walk func(*BinNode)
	walk = func(n *BinNode) {
		if n == nil {
			return
		}
		if n.Kind == BinLeaf {
			out = append(out, n.Module)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(b)
	return out
}
