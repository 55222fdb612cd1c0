package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"

	"floorplan/internal/gen"
	"floorplan/internal/loadgen"
	"floorplan/internal/selection"
	"floorplan/internal/server"
)

// hotSpec is cache-hot serving: a zipf-skewed corpus, every key primed in
// set-up, so the timed steps cost HTTP, decoding, canonicalization, the
// content address and a cache hit, and the optimizer does no work.
type hotSpec struct {
	name string
	serveSpec
	corpus loadgen.CorpusSpec
	// Key k is requested with probability proportional to (zipfV + k)^-zipfS.
	zipfS, zipfV float64
	policy       selection.Policy
}

func hotDefault() hotSpec {
	return hotSpec{
		name:      "serve_hot",
		serveSpec: serveSpec{rates: []float64{500, 1000, 2000, 3000, 4000}, ref: 1, refShare: 0.4, windows: 8, limitMs: 20},
		corpus:    loadgen.CorpusSpec{Keys: 64, MinModules: 20, MaxModules: 40, Impls: 10},
		// An offset of 4 keeps the 1.2 exponent's skew but spreads the head
		// over enough keys that the mean request size, and with it every
		// per-request number, moves little from one seed's corpus to the
		// next (see README.md).
		zipfS: 1.2, zipfV: 4,
		policy: selection.Policy{K1: 12},
	}
}

// inputs is the seed's corpus as request bodies, in key order.
func (h hotSpec) inputs(seed int64) ([]problem, error) {
	corpus, err := loadgen.BuildCorpus(h.corpus, seed)
	if err != nil {
		return nil, err
	}
	probs := make([]problem, len(corpus))
	for i, w := range corpus {
		if probs[i], err = newProblem(w.Tree, w.Library, h.policy, gen.DefaultModuleParams(h.corpus.Impls)); err != nil {
			return nil, err
		}
	}
	return probs, nil
}

func runHot(h hotSpec, rc runConfig) (*outcome, error) {
	out := newOutcome(h.name)
	sp := newSpeedometer()
	probs, err := h.inputs(rc.seed)
	if err != nil {
		return nil, err
	}
	want, facts, err := expect(probs)
	if err != nil {
		return nil, err
	}
	if rc.seed == goldenSeed {
		out.golden = facts
	}
	start := func(traced bool) (*fpserve, error) {
		probs, err := h.inputs(rc.seed)
		if err != nil {
			return nil, err
		}
		return startPrimed(traced, bodies(probs), want, out)
	}
	var f *fpserve
	setup, err := timeSetups(rc.setups, func() (err error) {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
		}
		f, err = start(false)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.samples["keys"] = len(probs)
	// Every 200 reply must carry the byte-exact in-process answer of its key.
	var mu sync.Mutex
	zipf := rand.NewZipf(rand.New(rand.NewSource(rc.seed)), h.zipfS, h.zipfV, uint64(len(probs)-1))
	src := &source{
		next: func() (int, []byte) {
			mu.Lock()
			k := int(zipf.Uint64())
			mu.Unlock()
			return k, probs[k].body
		},
		check: func(id int, resp *server.OptimizeResponse) error {
			if !bytes.Equal(resp.Result, want[id]) {
				return fmt.Errorf("key %d: result differs from an in-process optimizer.Run", id)
			}
			return nil
		},
	}
	if rc.trace {
		next := func(i int) (problem, bool) {
			if i >= len(probs) {
				return problem{}, false
			}
			return probs[i], true
		}
		return out, h.traced(rc, f, func() (*fpserve, error) { return start(true) }, src, next, sp, out)
	}
	err = h.runSteps(rc.duration, f, src, sp, out)
	out.values["setup_s"] = setup * sp.scale()
	out.values["machine.speed"] = sp.scale()
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	return out, err
}
