package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"floorplan/internal/shape"
)

// refTree is the reference decode of a tree document: encoding/json into
// the method-free jsonNode shape, then the conversion plan.Node's decoding
// has always applied (a null node or an unknown kind is an error).
func refTree(data []byte) (*Node, error) {
	var j jsonNode
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	return refNode(&j)
}

func refNode(j *jsonNode) (*Node, error) {
	if j == nil {
		return nil, fmt.Errorf("null node")
	}
	n := &Node{Module: j.Module, Name: j.Name, CCW: j.CCW}
	switch j.Kind {
	case "leaf":
		n.Kind = Leaf
	case "hslice":
		n.Kind = HSlice
	case "vslice":
		n.Kind = VSlice
	case "wheel":
		n.Kind = Wheel
	default:
		return nil, fmt.Errorf("unknown node kind %q", j.Kind)
	}
	for _, c := range j.Children {
		dec, err := refNode(c)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, dec)
	}
	return n, nil
}

// sameTree compares two decoded trees field by field, a nil children list
// equal to an empty one.
func sameTree(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Module != b.Module || a.Name != b.Name || a.CCW != b.CCW ||
		len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// FuzzParseTree checks ParseTree against the reference decode: both must
// reject the input, or both accept it with the same tree. Accepted trees
// are valid and survive an encode/decode round trip. Seeds for the
// decoder's traps (folded and repeated keys, null in each position,
// escapes, invalid UTF-8, deep nesting, trailing data) are under
// testdata/fuzz/FuzzParseTree.
func FuzzParseTree(f *testing.F) {
	seeds := []string{
		`{"kind":"leaf","module":"m"}`,
		`{"kind":"vslice","children":[{"kind":"leaf","module":"a"},{"kind":"leaf","module":"b"}]}`,
		`{"kind":"wheel","ccw":true,"children":[
			{"kind":"leaf","module":"1"},{"kind":"leaf","module":"2"},
			{"kind":"leaf","module":"3"},{"kind":"leaf","module":"4"},
			{"kind":"leaf","module":"5"}]}`,
		`{"kind":"spiral"}`,
		`{"kind":"hslice","children":[null]}`,
		`not json at all`,
		`{"kind":"wheel","children":[]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := ParseTree(data)
		want, refErr := refTree(data)
		if refErr == nil {
			refErr = want.Validate()
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseTree error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameTree(tree, want) {
			t.Fatalf("ParseTree decoded %s, reference %s", mustJSON(t, tree), mustJSON(t, want))
		}
		enc, err := EncodeTree(tree)
		if err != nil {
			t.Fatalf("EncodeTree failed on accepted tree: %v", err)
		}
		back, err := ParseTree(enc)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !sameTree(back, tree) {
			t.Fatal("round trip changed the tree")
		}
	})
}

func mustJSON(t *testing.T, n *Node) []byte {
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzParseLibrary checks the library decoder against encoding/json
// decoding into a map[string][]shape.RImpl (the same map, a nil list equal
// to an empty one, or both reject), and that anything ParseLibrary accepts
// is a fixed point of the shared canonicalization path: parse → encode →
// parse yields identical bytes. Seeds mirror the examples/ corpora (the
// quickstart wheel library) and fpgen's output format; the decoder's traps
// are under testdata/fuzz/FuzzParseLibrary.
func FuzzParseLibrary(f *testing.F) {
	seeds := []string{
		// examples/quickstart's five-module wheel library.
		`{"nw":[{"W":4,"H":7}],"ne":[{"W":6,"H":4}],"se":[{"W":3,"H":6}],
		  "sw":[{"W":7,"H":3}],"c":[{"W":3,"H":3}]}`,
		// fpgen-style indented output with a redundant implementation.
		`{
		  "cpu": [
		    {"W": 4, "H": 7},
		    {"W": 7, "H": 4},
		    {"W": 7, "H": 7}
		  ],
		  "pll": [
		    {"W": 3, "H": 3}
		  ]
		}`,
		// examples/orientation-style rotatable module.
		`{"m000":[{"W":40,"H":55},{"W":55,"H":40}]}`,
		`{}`,
		`{"m": []}`,
		`{"m": [{"W":0,"H":1}]}`,
		`{"m": [{"W":-3,"H":4}]}`,
		// Extents that pass W>0/H>0 but overflow the int64 area product
		// (2^32 × 2^32 ≡ 0) — must be rejected by the MaxExtent bound.
		`{"m": [{"W":4294967296,"H":4294967296}]}`,
		`{"m": [{"W":2147483648,"H":1}]}`,
		`{"m": [{"W":2147483647,"H":2147483647}]}`,
		`{"m": null}`,
		`[1,2,3]`,
		`not json at all`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Library
		err := got.UnmarshalJSON(data)
		var want map[string][]shape.RImpl
		refErr := json.Unmarshal(data, &want)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode error %v, encoding/json error %v", err, refErr)
		}
		if err == nil && !sameLibrary(got, want) {
			t.Fatalf("decoded %v, encoding/json %v", got, want)
		}

		lib, err := ParseLibrary(data)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		for name, impls := range lib {
			if len(impls) == 0 {
				t.Fatalf("ParseLibrary accepted empty module %q", name)
			}
			for _, im := range impls {
				if !im.Valid() {
					t.Fatalf("ParseLibrary accepted invalid implementation %v in %q", im, name)
				}
				if im.W > MaxExtent || im.H > MaxExtent {
					t.Fatalf("ParseLibrary accepted oversize implementation %v in %q", im, name)
				}
				if im.Area() <= 0 {
					t.Fatalf("ParseLibrary accepted non-positive area %d for %v in %q", im.Area(), im, name)
				}
			}
		}
		enc, err := EncodeLibrary(lib)
		if err != nil {
			t.Fatalf("EncodeLibrary failed on accepted library: %v", err)
		}
		back, err := ParseLibrary(enc)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		enc2, err := EncodeLibrary(back)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("parse/encode not a fixed point")
		}
	})
}

// sameLibrary compares a decoded library with the reference map: the same
// names (a nil map equal to an empty one) with equal lists (a nil list
// equal to an empty one).
func sameLibrary(got Library, want map[string][]shape.RImpl) bool {
	if len(got) != len(want) {
		return false
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if g[i] != w[i] {
				return false
			}
		}
	}
	return true
}
