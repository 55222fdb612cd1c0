package optimizer

import (
	"bytes"
	"math/rand"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/selection"
	"floorplan/internal/telemetry"
)

// TestTelemetryReportBitIdentical is the determinism contract of the
// telemetry layer: the canonical report (counters, watermarks, histogram
// buckets — everything outside the Runtime section) must be byte-for-byte
// identical whether the evaluation ran on one worker or eight. The runtime
// section (wall times, spans, CAS retries, pool churn) is explicitly
// excluded by Canonical().
func TestTelemetryReportBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 3; trial++ {
		tree, err := gen.RandomTree(rng, 12+rng.Intn(10), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(5))
		if err != nil {
			t.Fatal(err)
		}
		lib := Library(rawLib)
		policy := selection.Policy{K1: 4, K2: 40, S: 30}

		canonical := func(workers int) []byte {
			col := telemetry.New()
			res := mustRun(t, lib, Options{Policy: policy, Workers: workers, Telemetry: col}, tree)
			if res == nil {
				t.Fatal("nil result")
			}
			data, err := col.Report().Canonical().JSON()
			if err != nil {
				t.Fatal(err)
			}
			return data
		}

		ref := canonical(1)
		if len(ref) == 0 {
			t.Fatal("empty canonical report")
		}
		for _, w := range []int{2, 8} {
			if got := canonical(w); !bytes.Equal(got, ref) {
				t.Fatalf("trial %d: canonical report differs between Workers=1 and Workers=%d:\n--- w=1 ---\n%s\n--- got ---\n%s",
					trial, w, ref, got)
			}
		}
	}
}

// TestTelemetryCountersMatchStats cross-checks the collector against the
// run's own Stats: both are folds of the same per-node outcomes, so the
// deterministic counters must agree exactly.
func TestTelemetryCountersMatchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	tree, err := gen.RandomTree(rng, 16, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(6))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	col := telemetry.New()
	res := mustRun(t, lib, Options{
		Policy:    selection.Policy{K1: 4, K2: 40, S: 30},
		Workers:   4,
		Telemetry: col,
	}, tree)

	st := res.Stats
	checks := []struct {
		name string
		ctr  int64
		want int64
	}{
		{"nodes", col.Counter(telemetry.CtrNodes), int64(st.Nodes)},
		{"l_nodes", col.Counter(telemetry.CtrLNodes), int64(st.LNodes)},
		{"generated", col.Counter(telemetry.CtrGenerated), st.Generated},
		{"r_selections", col.Counter(telemetry.CtrRSelections), int64(st.RSelections)},
		{"l_selections", col.Counter(telemetry.CtrLSelections), int64(st.LSelections)},
		{"stored", col.Counter(telemetry.CtrStored), st.FinalStored},
		{"peak", col.Watermark(telemetry.MaxPeakStored), st.PeakStored},
		{"max_rlist", col.Watermark(telemetry.MaxRList), int64(st.MaxRList)},
		{"max_lset", col.Watermark(telemetry.MaxLSet), int64(st.MaxLSet)},
	}
	for _, c := range checks {
		if c.ctr != c.want {
			t.Errorf("%s: collector has %d, stats say %d", c.name, c.ctr, c.want)
		}
	}
	if st.RSelections > 0 && col.Counter(telemetry.CtrRSelectionError) <= 0 {
		t.Error("R selections ran but no admitted selection error was recorded")
	}
	// Both selections solve through the pooled cspp DP: every R_Selection
	// is one solve of the line solver, every exact L_Selection one of the
	// Monge solver. The pool counter is process-wide, so other tests
	// running at the same time can only add to it.
	if st.RSelections == 0 {
		t.Fatal("the run did no R selections")
	}
	if got := col.Counter(telemetry.CtrCSPPSolves); got < int64(st.RSelections) {
		t.Errorf("cspp.solves = %d, below the run's %d R selections", got, st.RSelections)
	}
	if st.LSelections > 0 && col.Counter(telemetry.CtrCSPPSolves) <= 0 {
		t.Error("L selections ran but no CSPP solves were counted")
	}

	// Per-node eval spans plus the evaluate/traceback stage spans.
	spans := col.Spans()
	var evalSpans, stageSpans int
	for _, s := range spans {
		switch s.Cat {
		case "eval":
			evalSpans++
		case telemetry.CatStage:
			stageSpans++
		}
	}
	if evalSpans != st.Nodes {
		t.Errorf("got %d eval spans, want one per node (%d)", evalSpans, st.Nodes)
	}
	if stageSpans < 2 {
		t.Errorf("got %d stage spans, want at least evaluate+traceback", stageSpans)
	}
}

// TestTelemetryNilCollector runs the optimizer with a nil collector — the
// default — and demands the run succeed with outputs identical to an
// instrumented run, proving instrumentation is observation-only.
func TestTelemetryNilCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tree, err := gen.RandomTree(rng, 14, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(5))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	policy := selection.Policy{K1: 4, K2: 40, S: 30}
	plain := mustRun(t, lib, Options{Policy: policy, Workers: 4}, tree)
	instr := mustRun(t, lib, Options{Policy: policy, Workers: 4, Telemetry: telemetry.New()}, tree)
	if plain.Best != instr.Best {
		t.Fatalf("telemetry changed the result: %v != %v", plain.Best, instr.Best)
	}
	ps, is := plain.Stats, instr.Stats
	ps.Elapsed, is.Elapsed = 0, 0
	if ps != is {
		t.Fatalf("telemetry changed the stats: %+v != %+v", ps, is)
	}
}
