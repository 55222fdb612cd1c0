package plan

import (
	"encoding/json"
	"fmt"
	"math"

	"floorplan/internal/jsondec"
	"floorplan/internal/shape"
)

// Library maps module names to rectangular implementation lists — the
// module-library JSON format shared by fpgen, fpopt and fpserve. Lists may
// be given in any order with redundant entries; the canonicalization path
// below prunes and sorts them.
type Library map[string][]shape.RImpl

// MaxExtent bounds a single implementation extent (width or height).
// Without it, a pair of large positive extents overflows the int64 area
// product — e.g. W = H = 2^32 gives Area() == 0 — and the degenerate
// "zero-area" curve sails through every downstream comparison. 2^31−1
// keeps any single implementation's area under 2^62, leaving slack for
// the envelope sums placement verification computes. CheckModules applies
// the same bound to the sums over a whole tree.
const MaxExtent = int64(1)<<31 - 1

// CanonicalModule validates and canonicalizes one module's implementation
// list: the module must have at least one implementation and every
// implementation positive extents no larger than MaxExtent (so areas can
// never overflow to zero or negative); the result is the irreducible,
// staircase-ordered R-list. This is the single validation path shared by
// EncodeLibrary and ParseLibrary (and by the optimizer entry points), so
// the rules cannot drift between the encode and decode directions.
func CanonicalModule(name string, impls []shape.RImpl) (shape.RList, error) {
	if len(impls) == 0 {
		return nil, fmt.Errorf("plan: module %q has no implementations", name)
	}
	for _, im := range impls {
		if im.W > MaxExtent || im.H > MaxExtent {
			return nil, fmt.Errorf("plan: module %q: implementation %dx%d exceeds the maximum extent %d",
				name, im.W, im.H, MaxExtent)
		}
	}
	l, err := shape.NewRList(impls)
	if err != nil {
		return nil, fmt.Errorf("plan: module %q: %w", name, err)
	}
	return l, nil
}

// CheckModules is the whole-problem validation shared by the optimizer and
// fpserve. occurrences lists the module of every leaf (a module used twice
// appears twice). Each must name a lib entry, and the sum over occurrences
// of each module's largest width — likewise height — must not exceed
// MaxExtent. Every block the optimizer builds is at most those sums in
// each dimension, so the bound keeps every envelope extent within
// MaxExtent and every area, as for a single implementation, under 2^62.
func CheckModules[L ~[]shape.RImpl](occurrences []string, lib map[string]L) error {
	var sumW, sumH int64
	for _, m := range occurrences {
		impls, ok := lib[m]
		if !ok {
			return fmt.Errorf("plan: module %q not in library", m)
		}
		var w, h int64
		for _, im := range impls {
			w, h = max(w, im.W), max(h, im.H)
		}
		sumW, sumH = addSat(sumW, w), addSat(sumH, h)
	}
	if sumW > MaxExtent {
		return fmt.Errorf("plan: the modules' widest implementations sum to %d, over the maximum extent %d", sumW, MaxExtent)
	}
	if sumH > MaxExtent {
		return fmt.Errorf("plan: the modules' tallest implementations sum to %d, over the maximum extent %d", sumH, MaxExtent)
	}
	return nil
}

// addSat adds two non-negative extents, saturating at math.MaxInt64.
func addSat(a, b int64) int64 {
	if b > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + b
}

// CanonicalLibrary canonicalizes every module list through CanonicalModule.
func CanonicalLibrary(lib Library) (Library, error) {
	out := make(Library, len(lib))
	for name, impls := range lib {
		l, err := CanonicalModule(name, impls)
		if err != nil {
			return nil, err
		}
		out[name] = []shape.RImpl(l)
	}
	return out, nil
}

// EncodeLibrary canonicalizes and serializes a module library as indented
// JSON, the format fpgen emits and fpopt/fpserve consume:
//
//	{"cpu": [{"W":4,"H":7},{"W":7,"H":4}], …}
//
// Redundant implementations are pruned and lists staircase-ordered before
// encoding, so the file round-trips bit-exactly.
func EncodeLibrary(lib Library) ([]byte, error) {
	canonical, err := CanonicalLibrary(lib)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(canonical, "", "  ")
}

// ParseLibrary decodes a module library from JSON and validates it through
// the same canonicalization path EncodeLibrary uses.
func ParseLibrary(data []byte) (Library, error) {
	var lib Library
	d := jsondec.New(data)
	if err := DecodeLibrary(d, &lib); err != nil {
		return nil, fmt.Errorf("plan: decoding library: %w", err)
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("plan: decoding library: %w", err)
	}
	return CanonicalLibrary(lib)
}

// UnmarshalJSON decodes a library in the EncodeLibrary format into *lib,
// without canonicalizing it; see DecodeLibrary.
func (lib *Library) UnmarshalJSON(data []byte) error {
	d := jsondec.New(data)
	if err := DecodeLibrary(d, lib); err != nil {
		return err
	}
	return d.End()
}

var implFields = []string{"W", "H"}

// DecodeLibrary reads the next value of d into *lib with the results
// encoding/json gives for a map[string][]shape.RImpl: null sets *lib to
// nil, an object adds its modules to *lib (made when nil, so a second
// object merges into the first), a repeated module name replaces the
// earlier list, null as a list is a nil list and null as an
// implementation is {0, 0}. The lists are not canonicalized.
func DecodeLibrary(d *jsondec.Decoder, lib *Library) error {
	if d.Null() {
		*lib = nil
		return nil
	}
	if err := d.Begin('{'); err != nil {
		return err
	}
	if *lib == nil {
		*lib = make(Library)
	}
	var scratch []shape.RImpl // one module's list, copied out at its length
	for i := 0; ; i++ {
		key, ok, err := d.Member(i)
		if err != nil || !ok {
			return err
		}
		name := string(key)
		var impls []shape.RImpl
		if !d.Null() {
			if scratch, err = decodeImpls(d, scratch[:0]); err != nil {
				return jsondec.Key(err, name)
			}
			impls = append([]shape.RImpl{}, scratch...)
		}
		(*lib)[name] = impls
	}
}

// decodeImpls appends the implementations of one module list to out.
func decodeImpls(d *jsondec.Decoder, out []shape.RImpl) ([]shape.RImpl, error) {
	if err := d.Begin('['); err != nil {
		return out, err
	}
	for i := 0; ; i++ {
		ok, err := d.Elem(i)
		if err != nil || !ok {
			return out, err
		}
		var im shape.RImpl
		if !d.Null() {
			if err := decodeImpl(d, &im); err != nil {
				return out, jsondec.Index(err, i)
			}
		}
		out = append(out, im)
	}
}

func decodeImpl(d *jsondec.Decoder, im *shape.RImpl) error {
	if err := d.Begin('{'); err != nil {
		return err
	}
	for i := 0; ; i++ {
		key, ok, err := d.Member(i)
		if err != nil || !ok {
			return err
		}
		name := jsondec.Match(key, implFields)
		switch name {
		case "W":
			err = d.Int64(&im.W)
		case "H":
			err = d.Int64(&im.H)
		default:
			name = string(key)
			err = d.Skip()
		}
		if err != nil {
			return jsondec.Field(err, name)
		}
	}
}
