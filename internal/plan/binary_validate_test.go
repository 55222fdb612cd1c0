package plan

import "testing"

func leafBN(m string) *BinNode { return &BinNode{Kind: BinLeaf, Module: m} }

func TestBinNodeValidateBranches(t *testing.T) {
	lstack := &BinNode{Kind: BinLStack, Left: leafBN("a"), Right: leafBN("b")}
	cases := []struct {
		name string
		node *BinNode
	}{
		{"nil node", nil},
		{"leaf without module", &BinNode{Kind: BinLeaf}},
		{"leaf with children", &BinNode{Kind: BinLeaf, Module: "m", Left: leafBN("x")}},
		{"missing left", &BinNode{Kind: BinVCut, Right: leafBN("b")}},
		{"missing right", &BinNode{Kind: BinVCut, Left: leafBN("a")}},
		{"L-shaped right operand", &BinNode{Kind: BinVCut, Left: leafBN("a"), Right: lstack}},
		{"vcut with L left", &BinNode{Kind: BinVCut, Left: lstack, Right: leafBN("c")}},
		{"lnotch with rect left", &BinNode{Kind: BinLNotch, Left: leafBN("a"), Right: leafBN("b")}},
		{"close with rect left", &BinNode{Kind: BinClose, Left: leafBN("a"), Right: leafBN("b")}},
		{"mirror on non-close", func() *BinNode {
			n := &BinNode{Kind: BinLStack, Left: leafBN("a"), Right: leafBN("b"), Mirror: true}
			return n
		}()},
		{"invalid nested child", &BinNode{Kind: BinVCut, Left: &BinNode{Kind: BinLeaf}, Right: leafBN("b")}},
	}
	for _, tc := range cases {
		if err := tc.node.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	// Well-formed trees of each internal kind pass.
	good := []*BinNode{
		leafBN("m"),
		{Kind: BinVCut, Left: leafBN("a"), Right: leafBN("b")},
		{Kind: BinHCut, Left: leafBN("a"), Right: leafBN("b")},
		lstack,
		{Kind: BinLNotch, Left: lstack, Right: leafBN("c")},
		{Kind: BinClose, Left: lstack, Right: leafBN("c"), Mirror: true},
	}
	for i, g := range good {
		if err := g.Validate(); err != nil {
			t.Errorf("good case %d: %v", i, err)
		}
	}
}

func TestBinNodeCountsOnNil(t *testing.T) {
	var n *BinNode
	if n.Count() != 0 || countL(n) != 0 {
		t.Error("nil counts should be zero")
	}
}
