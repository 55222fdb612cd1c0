package plan

import (
	"encoding/json"
	"fmt"

	"floorplan/internal/jsondec"
)

// jsonNode is the serialized form of a Node.
type jsonNode struct {
	Kind     string      `json:"kind"`
	Module   string      `json:"module,omitempty"`
	Name     string      `json:"name,omitempty"`
	CCW      bool        `json:"ccw,omitempty"`
	Children []*jsonNode `json:"children,omitempty"`
}

// MarshalJSON encodes the node with string kinds, e.g.
//
//	{"kind":"wheel","children":[{"kind":"leaf","module":"m1"}, …]}
func (n *Node) MarshalJSON() ([]byte, error) {
	return json.Marshal(toJSONNode(n))
}

func toJSONNode(n *Node) *jsonNode {
	if n == nil {
		return nil
	}
	j := &jsonNode{Kind: n.Kind.String(), Module: n.Module, Name: n.Name, CCW: n.CCW}
	for _, c := range n.Children {
		j.Children = append(j.Children, toJSONNode(c))
	}
	return j
}

// kindUnset marks a decoded node whose object named no valid kind (yet: a
// repeated "kind" key may still set one).
const kindUnset Kind = -1

var nodeFields = []string{"kind", "module", "name", "ccw", "children"}

// TreeDecoder decodes floorplan trees in the MarshalJSON format from a
// jsondec stream, with the results encoding/json gives when it decodes the
// same bytes into a *jsonNode, then converts: an object decodes into the
// node already there (a repeated "tree" or "children" key merges into the
// nodes the earlier one built, exactly as encoding/json reuses pointers and
// slice elements), null sets a node or a children list to nil, and a
// node's kind must be known and no child nil once the whole document has
// been read. Decode defers those two checks to Check, which the caller
// runs after the document's last value.
type TreeDecoder struct {
	// unknown remembers the last unrecognized kind string of each node,
	// for Check's error message.
	unknown map[*Node]string
	// stack holds the children of every list being decoded, innermost
	// last, so each list is allocated once at its final length.
	stack []*Node
}

// Decode reads the next value of d into *dst: null sets it to nil, an
// object decodes into *dst, allocated when nil.
func (t *TreeDecoder) Decode(d *jsondec.Decoder, dst **Node) error {
	if d.Null() {
		*dst = nil
		return nil
	}
	if *dst == nil {
		*dst = &Node{Kind: kindUnset}
	}
	return t.node(d, *dst)
}

func (t *TreeDecoder) node(d *jsondec.Decoder, n *Node) error {
	if err := d.Begin('{'); err != nil {
		return err
	}
	for i := 0; ; i++ {
		key, ok, err := d.Member(i)
		if err != nil || !ok {
			return err
		}
		name := jsondec.Match(key, nodeFields)
		switch name {
		case "kind":
			err = t.kind(d, n)
		case "module":
			err = d.String(&n.Module)
		case "name":
			err = d.String(&n.Name)
		case "ccw":
			err = d.Bool(&n.CCW)
		case "children":
			err = t.children(d, n)
		default:
			name = string(key)
			err = d.Skip()
		}
		if err != nil {
			return jsondec.Field(err, name)
		}
	}
}

func (t *TreeDecoder) kind(d *jsondec.Decoder, n *Node) error {
	if d.Null() {
		return nil
	}
	b, err := d.Bytes()
	if err != nil {
		return err
	}
	switch string(b) {
	case "leaf":
		n.Kind = Leaf
	case "hslice":
		n.Kind = HSlice
	case "vslice":
		n.Kind = VSlice
	case "wheel":
		n.Kind = Wheel
	default:
		n.Kind = kindUnset
		if t.unknown == nil {
			t.unknown = make(map[*Node]string)
		}
		t.unknown[n] = string(b)
	}
	return nil
}

// children decodes a children list into n.Children. Like encoding/json
// decoding into a slice, element i decodes into the node at index i of the
// list's backing array when one is there, even past the current length.
func (t *TreeDecoder) children(d *jsondec.Decoder, n *Node) error {
	if d.Null() {
		n.Children = nil
		return nil
	}
	if err := d.Begin('['); err != nil {
		return err
	}
	old := n.Children[:cap(n.Children)]
	base := len(t.stack)
	for i := 0; ; i++ {
		ok, err := d.Elem(i)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var c *Node
		if i < len(old) {
			c = old[i]
		}
		if err := t.Decode(d, &c); err != nil {
			return jsondec.Index(err, i)
		}
		t.stack = append(t.stack, c)
	}
	kids := t.stack[base:]
	switch {
	case len(kids) == 0:
		n.Children = nil
	case len(kids) <= len(old):
		n.Children = old[:copy(old, kids)]
	default:
		n.Children = append([]*Node(nil), kids...)
	}
	t.stack = t.stack[:base]
	return nil
}

// Check reports the first node of the decoded tree at root, in preorder,
// that is nil or has no valid kind.
func (t *TreeDecoder) Check(root *Node) error {
	return t.check(root, make([]int, 0, 32))
}

func (t *TreeDecoder) check(n *Node, path []int) error {
	if n == nil {
		return fmt.Errorf("plan: null node at %s", nodePath(path))
	}
	if n.Kind == kindUnset {
		return fmt.Errorf("plan: unknown node kind %q at %s", t.unknown[n], nodePath(path))
	}
	for i, c := range n.Children {
		if err := t.check(c, append(path, i)); err != nil {
			return err
		}
	}
	return nil
}

// UnmarshalJSON decodes the format produced by MarshalJSON, replacing n.
// The decoded tree is not automatically validated; call Validate.
func (n *Node) UnmarshalJSON(data []byte) error {
	dec, err := decodeTree(data)
	if err != nil {
		return err
	}
	if dec == nil {
		return fmt.Errorf("plan: null node at %s", nodePath(nil))
	}
	*n = *dec
	return nil
}

// decodeTree decodes data, one tree document, without validating it.
func decodeTree(data []byte) (*Node, error) {
	var t TreeDecoder
	var root *Node
	d := jsondec.New(data)
	if err := t.Decode(d, &root); err != nil {
		return nil, err
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	if root != nil {
		if err := t.Check(root); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// ParseTree decodes and validates a floorplan tree from JSON.
func ParseTree(data []byte) (*Node, error) {
	n, err := decodeTree(data)
	if err != nil {
		return nil, fmt.Errorf("plan: decoding tree: %w", err)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// EncodeTree validates and encodes a floorplan tree as indented JSON.
func EncodeTree(n *Node) ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(n, "", "  ")
}
