package plan

import (
	"slices"
	"strings"
	"testing"
)

// figure1Tree is a small mixed tree: a wheel whose NW block is a vertical
// slice of two modules.
func figure1Tree() *Node {
	return NewWheel(
		NewVSlice(NewLeaf("a"), NewLeaf("b")),
		NewLeaf("c"),
		NewLeaf("d"),
		NewLeaf("e"),
		NewLeaf("f"),
	)
}

func TestValidateAcceptsGoodTrees(t *testing.T) {
	trees := []*Node{
		NewLeaf("m"),
		NewVSlice(NewLeaf("a"), NewLeaf("b"), NewLeaf("c")),
		NewHSlice(NewLeaf("a"), NewLeaf("b")),
		figure1Tree(),
		NewCCWWheel(NewLeaf("1"), NewLeaf("2"), NewLeaf("3"), NewLeaf("4"), NewLeaf("5")),
	}
	for i, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Errorf("tree %d: %v", i, err)
		}
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	shared := NewLeaf("x")
	bad := []struct {
		name string
		tree *Node
	}{
		{"leaf without module", &Node{Kind: Leaf}},
		{"leaf with children", &Node{Kind: Leaf, Module: "m", Children: []*Node{NewLeaf("c")}}},
		{"slice with one child", NewVSlice(NewLeaf("a"))},
		{"wheel with four children", &Node{Kind: Wheel, Children: []*Node{NewLeaf("1"), NewLeaf("2"), NewLeaf("3"), NewLeaf("4")}}},
		{"internal with module", &Node{Kind: VSlice, Module: "m", Children: []*Node{NewLeaf("a"), NewLeaf("b")}}},
		{"nil child", NewVSlice(NewLeaf("a"), nil)},
		{"shared node", NewVSlice(shared, shared)},
		{"unknown kind", &Node{Kind: Kind(99)}},
	}
	for _, tc := range bad {
		if err := tc.tree.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
	// The error names the bad node by its child indices from the root.
	deep := NewHSlice(NewLeaf("a"), NewVSlice(NewLeaf("b"), &Node{Kind: Leaf}))
	if err := deep.Validate(); err == nil || !strings.Contains(err.Error(), "leaf at root.1.1 has no module") {
		t.Errorf("deep leaf without module: err = %v", err)
	}
}

func TestTreeMetrics(t *testing.T) {
	tr := figure1Tree()
	if got := tr.ModuleCount(); got != 6 {
		t.Errorf("ModuleCount = %d, want 6", got)
	}
	if got := len(tr.Leaves()); got != 6 {
		t.Errorf("len(Leaves) = %d, want 6", got)
	}
	if got := tr.Depth(); got != 3 {
		t.Errorf("Depth = %d, want 3", got)
	}
	if got := tr.WheelCount(); got != 1 {
		t.Errorf("WheelCount = %d, want 1", got)
	}
	if got := NewLeaf("m").Depth(); got != 1 {
		t.Errorf("leaf Depth = %d, want 1", got)
	}
	reused := NewVSlice(NewLeaf("a"), NewHSlice(NewLeaf("b"), NewLeaf("a")))
	if got := reused.LeafModules(); !slices.Equal(got, []string{"a", "b", "a"}) {
		t.Errorf("LeafModules = %v, want every occurrence in order", got)
	}
}

func TestRestructureSliceFold(t *testing.T) {
	tr := NewVSlice(NewLeaf("a"), NewLeaf("b"), NewLeaf("c"), NewLeaf("d"))
	b, err := Restructure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// ((a|b)|c)|d: three BinVCut nodes, four leaves.
	if got := b.Count(); got != 7 {
		t.Errorf("Count = %d, want 7", got)
	}
	if got := countL(b); got != 0 {
		t.Errorf("CountL = %d, want 0 for slicing tree", got)
	}
	mods := b.Modules()
	if strings.Join(mods, "") != "abcd" {
		t.Errorf("Modules = %v", mods)
	}
	if b.Kind != BinVCut || b.Right.Module != "d" {
		t.Errorf("fold shape wrong: %v / %v", b.Kind, b.Right.Module)
	}
}

func TestRestructureWheel(t *testing.T) {
	tr := NewWheel(NewLeaf("nw"), NewLeaf("ne"), NewLeaf("se"), NewLeaf("sw"), NewLeaf("c"))
	b, err := Restructure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// (((sw ⊕ nw) ⊕ c) ⊕ se) ⊕ ne
	if b.Kind != BinClose || b.Mirror {
		t.Fatalf("root = %v mirror=%v", b.Kind, b.Mirror)
	}
	if b.Right.Module != "ne" {
		t.Errorf("closing block = %q, want ne", b.Right.Module)
	}
	l3 := b.Left
	if l3.Kind != BinLBottom || l3.Right.Module != "se" {
		t.Errorf("step 3 = %v %q", l3.Kind, l3.Right.Module)
	}
	l2 := l3.Left
	if l2.Kind != BinLNotch || l2.Right.Module != "c" {
		t.Errorf("step 2 = %v %q", l2.Kind, l2.Right.Module)
	}
	l1 := l2.Left
	if l1.Kind != BinLStack || l1.Left.Module != "sw" || l1.Right.Module != "nw" {
		t.Errorf("step 1 = %v %q %q", l1.Kind, l1.Left.Module, l1.Right.Module)
	}
	if got := countL(b); got != 3 {
		t.Errorf("CountL = %d, want 3", got)
	}
}

func TestRestructureCCWWheel(t *testing.T) {
	tr := NewCCWWheel(NewLeaf("nw"), NewLeaf("ne"), NewLeaf("se"), NewLeaf("sw"), NewLeaf("c"))
	b, err := Restructure(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Mirror {
		t.Fatal("CCW wheel should set Mirror on its BinClose")
	}
	// Mirrored roles: the closing (NE-role) block is the original nw.
	if b.Right.Module != "nw" {
		t.Errorf("closing block = %q, want nw", b.Right.Module)
	}
	if b.Left.Left.Left.Left.Module != "se" {
		t.Errorf("bottom block = %q, want se", b.Left.Left.Left.Left.Module)
	}
}

func TestRestructureRejectsInvalid(t *testing.T) {
	if _, err := Restructure(&Node{Kind: Leaf}); err == nil {
		t.Error("expected validation error")
	}
}

func TestRestructureAssignsUniqueIDs(t *testing.T) {
	b, err := Restructure(figure1Tree())
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[int]bool)
	var walk func(*BinNode)
	walk = func(n *BinNode) {
		if n == nil {
			return
		}
		if ids[n.ID] {
			t.Fatalf("duplicate ID %d", n.ID)
		}
		ids[n.ID] = true
		walk(n.Left)
		walk(n.Right)
	}
	walk(b)
	if len(ids) != b.Count() {
		t.Fatalf("%d ids for %d nodes", len(ids), b.Count())
	}
}

func TestBinNodeValidateCatchesCorruption(t *testing.T) {
	b, err := Restructure(figure1Tree())
	if err != nil {
		t.Fatal(err)
	}
	// Swap a close node's operands: right becomes L-shaped.
	b.Left, b.Right = b.Right, b.Left
	if err := b.Validate(); err == nil {
		t.Error("expected validation failure after operand swap")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := figure1Tree()
	orig.Name = "demo"
	orig.Children[1].Name = "ne-block"
	data, err := EncodeTree(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(orig, back) {
		t.Fatalf("round trip changed tree:\n%s", data)
	}
}

func treesEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Module != b.Module || a.Name != b.Name || a.CCW != b.CCW || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !treesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

func TestParseTreeErrors(t *testing.T) {
	cases := []string{
		`{`,                                  // malformed JSON
		`{"kind":"spiral"}`,                  // unknown kind
		`{"kind":"leaf"}`,                    // invalid (no module)
		`{"kind":"wheel","children":[null]}`, // null child
	}
	for _, c := range cases {
		if _, err := ParseTree([]byte(c)); err == nil {
			t.Errorf("ParseTree(%q) succeeded", c)
		}
	}
}

func TestCCWJSONRoundTrip(t *testing.T) {
	orig := NewCCWWheel(NewLeaf("1"), NewLeaf("2"), NewLeaf("3"), NewLeaf("4"), NewLeaf("5"))
	data, err := EncodeTree(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.CCW {
		t.Error("CCW flag lost in round trip")
	}
}

func TestKindStrings(t *testing.T) {
	if Leaf.String() != "leaf" || Wheel.String() != "wheel" || HSlice.String() != "hslice" || VSlice.String() != "vslice" {
		t.Error("Kind.String wrong")
	}
	if BinLeaf.String() != "leaf" || BinClose.String() != "close" || BinLStack.String() != "lstack" {
		t.Error("BinKind.String wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") || !strings.Contains(BinKind(42).String(), "42") {
		t.Error("unknown kind formatting wrong")
	}
}

// countL returns the number of L-shaped BinNodes in the subtree at b.
func countL(b *BinNode) int {
	if b == nil {
		return 0
	}
	n := 0
	if b.IsL() {
		n = 1
	}
	return n + countL(b.Left) + countL(b.Right)
}
