package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"floorplan/internal/gen"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
	"floorplan/internal/server"
	"floorplan/internal/shape"
)

// editSpec is an interactive edit stream: every request is one of a few
// primed base designs with one module's list replaced by a fresh draw, so
// it misses the result cache, stores its answer, and re-solves only the
// spine from that module to the root out of the subtree store.
type editSpec struct {
	name string
	serveSpec
	bases, modules int
	pWheel         float64
	params         gen.ModuleParams
	policy         selection.Policy
	// verifyEvery picks which answers are re-solved in process, store off.
	verifyEvery int
}

// editDefault pins the steps at 25/50/75/100/125% of the 500 requests/s a
// two-CPU host sustained at the seed commit (see README.md). 32 bases, not
// fewer, keep the mean M of the answers within a few percent from seed to
// seed.
func editDefault() editSpec {
	return editSpec{
		name:      "serve_edit",
		serveSpec: serveSpec{rates: []float64{125, 250, 375, 500, 625}, ref: 1, refShare: 0.4, windows: 8, limitMs: 50},
		bases:     32, modules: 96, pWheel: 0.25,
		params:      gen.DefaultModuleParams(16),
		policy:      selection.Policy{K1: 16, K2: 200, Theta: 0.5, S: 500},
		verifyEvery: 16,
	}
}

// editBase is one base design and its request body, with the byte range
// of every module's list in that body so an edit is two copies, not an
// encode.
type editBase struct {
	prob  problem
	mods  []string
	spans map[string][2]int
}

// anEdit replaces module mod of base with list.
type anEdit struct {
	base, mod int
	list      shape.RList
	json      []byte
}

type editInputs struct {
	bases []editBase
	edits []anEdit
}

// inputs draws the bases and n edits from the seed. Edits are independent
// of one another and pairwise distinct, and none restores a base's own
// list, so each one is a new content address.
func (e editSpec) inputs(seed int64, n int) (*editInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &editInputs{}
	seen := map[string]bool{}
	for range e.bases {
		tree, err := gen.RandomTree(rng, e.modules, e.pWheel)
		if err != nil {
			return nil, err
		}
		raw, err := gen.Library(rng, tree, e.params)
		if err != nil {
			return nil, err
		}
		lib := make(plan.Library, len(raw))
		for name, l := range raw {
			lib[name] = l
		}
		p, err := newProblem(tree, lib, e.policy, e.params)
		if err != nil {
			return nil, err
		}
		b := editBase{prob: p, mods: tree.Modules(), spans: map[string][2]int{}}
		for _, m := range b.mods {
			key := []byte(fmt.Sprintf("%q:", m))
			at := bytes.Index(p.body, append(key, '['))
			if at < 0 {
				return nil, fmt.Errorf("module %s not found in the request body", m)
			}
			start := at + len(key)
			b.spans[m] = [2]int{start, start + bytes.IndexByte(p.body[start:], ']') + 1}
			list, _ := json.Marshal(lib[m]) // a list of int pairs always encodes
			seen[fmt.Sprint(len(in.bases), m, string(list))] = true
		}
		in.bases = append(in.bases, b)
	}
	for len(in.edits) < n {
		ed := anEdit{base: rng.Intn(len(in.bases)), mod: rng.Intn(e.modules)}
		l, err := gen.Module(rng, e.params)
		if err != nil {
			return nil, err
		}
		ed.list = l
		ed.json, _ = json.Marshal(l) // a list of int pairs always encodes
		key := fmt.Sprint(ed.base, in.bases[ed.base].mods[ed.mod], string(ed.json))
		if seen[key] {
			continue
		}
		seen[key] = true
		in.edits = append(in.edits, ed)
	}
	return in, nil
}

// body splices edit i's list into its base's body.
func (in *editInputs) body(i int) []byte {
	ed := in.edits[i]
	b := in.bases[ed.base]
	span := b.spans[b.mods[ed.mod]]
	out := make([]byte, 0, len(b.prob.body)+len(ed.json))
	out = append(out, b.prob.body[:span[0]]...)
	out = append(out, ed.json...)
	return append(out, b.prob.body[span[1]:]...)
}

// problem is edit i as the optimizer sees it.
func (in *editInputs) problem(i int) problem {
	ed := in.edits[i]
	b := in.bases[ed.base]
	lib := make(plan.Library, len(b.prob.lib))
	for name, l := range b.prob.lib {
		lib[name] = l
	}
	lib[b.mods[ed.mod]] = ed.list
	p := b.prob
	p.lib, p.body = lib, in.body(i)
	return p
}

func (in *editInputs) baseProblems() []problem {
	out := make([]problem, len(in.bases))
	for i, b := range in.bases {
		out[i] = b.prob
	}
	return out
}

// source sends the edits in order. Every answer must be a cache miss, and
// every verifyEvery-th is kept for the in-process check.
func (in *editInputs) source(verifyEvery int, kept map[int][]byte, mu *sync.Mutex) *source {
	var seq atomic.Int64
	return &source{
		next: func() (int, []byte) {
			i := int(seq.Add(1)-1) % len(in.edits)
			return i, in.body(i)
		},
		check: func(id int, resp *server.OptimizeResponse) error {
			if resp.Runtime.Cache != "miss" {
				return fmt.Errorf("edit %d answered %q, want a miss", id, resp.Runtime.Cache)
			}
			if id%verifyEvery == 0 {
				mu.Lock()
				kept[id] = resp.Result
				mu.Unlock()
			}
			return nil
		},
	}
}

func runEdit(e editSpec, rc runConfig) (*outcome, error) {
	out := newOutcome(e.name)
	sp := newSpeedometer()
	n := arrivals(e.plan(rc.duration)) + 64
	in, err := e.inputs(rc.seed, n)
	if err != nil {
		return nil, err
	}
	want, facts, err := expect(in.baseProblems())
	if err != nil {
		return nil, err
	}
	if rc.seed == goldenSeed {
		out.golden = facts
	}
	start := func(traced bool) (*fpserve, error) {
		return startPrimed(traced, bodies(in.baseProblems()), want, out)
	}
	var f *fpserve
	setup, err := timeSetups(rc.setups, func() (err error) {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
		}
		if in, err = e.inputs(rc.seed, n); err != nil {
			return err
		}
		f, err = start(false)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.samples["edits_drawn"] = len(in.edits)
	var mu sync.Mutex
	kept := map[int][]byte{}
	src := in.source(e.verifyEvery, kept, &mu)
	if rc.trace {
		next := func(i int) (problem, bool) {
			if i >= len(in.edits) {
				return problem{}, false
			}
			return in.problem(i), true
		}
		err = e.traced(rc, f, func() (*fpserve, error) { return start(true) }, src, next, sp, out)
	} else {
		err = e.runSteps(rc.duration, f, src, sp, out)
		if stopErr := f.stop(); err == nil {
			err = stopErr
		}
		out.values["setup_s"] = setup * sp.scale()
		out.values["machine.speed"] = sp.scale()
	}
	if err != nil {
		return nil, err
	}
	out.samples["edits_verified"] = len(kept)
	return out, e.verify(in, kept, out)
}

// verify re-solves the kept edits in process with no subtree store; the
// served answers, computed from spliced subtrees, must match byte for byte.
func (e editSpec) verify(in *editInputs, kept map[int][]byte, out *outcome) error {
	for i, got := range kept {
		want, _, err := solve(in.problem(i))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			out.fail("edit %d: served result differs from a store-off optimizer.Run", i)
		}
	}
	return nil
}
