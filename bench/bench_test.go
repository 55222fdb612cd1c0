package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"floorplan/internal/gen"
	"floorplan/internal/loadgen"
	"floorplan/internal/selection"
	"floorplan/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the default workloads at the default seed")

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// benchmark prints from in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.kind, i, m, d)
			}
		}
	}
}

// Shrunken configurations: the same code paths on inputs small enough that
// every workload, untraced and traced, runs in about a second.
func smallSolve() solveSpec {
	return solveSpec{
		name: "solve_paper", floorplan: "FP1",
		params: gen.ModuleParams{N: 6, MinArea: 2e6, MaxArea: 2e7, MaxAspect: 5},
		policy: selection.Policy{K1: 4, K2: 30, Theta: 0.5, S: 20},
		pool:   2, w2Share: 0.3, probe: 2,
	}
}

func smallServe() serveSpec {
	return serveSpec{rates: []float64{40}, ref: 0, refShare: 1, windows: 2, limitMs: 1000}
}

func smallHot() hotSpec {
	return hotSpec{name: "serve_hot", serveSpec: smallServe(),
		corpus: loadgen.CorpusSpec{Keys: 4, MinModules: 4, MaxModules: 8, Impls: 4},
		zipfS:  1.2, zipfV: 4, policy: selection.Policy{K1: 3}}
}

func smallEdit() editSpec {
	return editSpec{name: "serve_edit", serveSpec: smallServe(), bases: 2, modules: 12, pWheel: 0.25,
		params: gen.DefaultModuleParams(4), policy: selection.Policy{K1: 6, K2: 30, Theta: 0.5, S: 20},
		verifyEvery: 4}
}

// TestWorkloads runs every workload untraced and traced and checks that
// each emits every declared metric with its unit and gets every answer
// right.
func TestWorkloads(t *testing.T) {
	runs := map[string]func(runConfig) (*outcome, error){
		"solve":      func(rc runConfig) (*outcome, error) { return runSolve(smallSolve(), rc) },
		"serve_hot":  func(rc runConfig) (*outcome, error) { return runHot(smallHot(), rc) },
		"serve_edit": func(rc runConfig) (*outcome, error) { return runEdit(smallEdit(), rc) },
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				t.Parallel()
				rc := runConfig{seed: 7, duration: time.Second, trace: traced, setups: 1,
					traceOut: t.TempDir() + "/trace.json"}
				out, err := run(rc)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 || len(out.problems) != 0 {
					t.Fatalf("%d failed: %v", out.failed, out.problems)
				}
				line, err := resultLine(record(out, rc), traced)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct bool             `json:"correct"`
					Metrics map[string]value `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if !got.Correct || len(got.Metrics) != len(defs) {
					t.Fatalf("result line %s", line)
				}
				for _, d := range defs {
					if m := got.Metrics[d.name]; m.Unit != d.unit {
						t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if traced {
					if _, err := os.Stat(rc.traceOut); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				}
			})
		}
	}
}

// TestGolden checks the serving workloads' default-seed answers against the
// golden file (the solve pools take too long for a unit test; the benchmark
// checks them on every default-seed run). With -update it rewrites the file
// from all four default workloads.
func TestGolden(t *testing.T) {
	facts := map[string][]goldenEntry{}
	h := hotDefault()
	probs, err := h.inputs(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, facts[h.name], err = expect(probs); err != nil {
		t.Fatal(err)
	}
	e := editDefault()
	in, err := e.inputs(goldenSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, facts[e.name], err = expect(in.baseProblems()); err != nil {
		t.Fatal(err)
	}
	if *update {
		for _, s := range []solveSpec{paperSpec(), selectSpec()} {
			out, err := runSolve(s, runConfig{seed: goldenSeed, duration: time.Second, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			facts[s.name] = out.golden
		}
		// One instance per line keeps the file short and its diffs readable.
		raw := []byte("{")
		for i, w := range workloads {
			raw = fmt.Appendf(raw, "\n  %q: [", w.name)
			for j, f := range facts[w.name] {
				line, err := json.Marshal(f)
				if err != nil {
					t.Fatal(err)
				}
				raw = fmt.Appendf(raw, "\n    %s%s", line, map[bool]string{true: ",", false: ""}[j < len(facts[w.name])-1])
			}
			raw = fmt.Appendf(raw, "\n  ]%s", map[bool]string{true: ",", false: ""}[i < len(workloads)-1])
		}
		raw = append(raw, "\n}\n"...)
		if err := os.WriteFile("testdata/golden.json", raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, got := range facts {
		out := &outcome{workload: name, golden: got}
		if err := checkGolden(out); err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %v", name, out.problems)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{3, 1, 2, 5}, 1.25, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1.5, 2.25, 9, 4, 7, 3.3, 8}, 2.25, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadAndPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("p50 = %v, want 2.5", got)
	}
	if got := percentile([]float64{1, 2, 3, 4, 5}, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestBounds(t *testing.T) {
	if got := worseBy(10, 11, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 10 -> 11 is %v worse, want 0.1", got)
	}
	if got := worseBy(10, 11, "higher"); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 11 is %v worse, want -0.1", got)
	}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		head  []float64
		bound float64
		want  string
	}{
		{shift(0), 0.1, "unchanged"},
		{shift(-10), 0.1, "improved"},
		{shift(20), 0.1, "worse"},
		{shift(5), 0.1, "unchanged"},
		{shift(5), 0.001, "worse"},
		{[]float64{90, 110, 90, 110, 90, 110, 90, 110, 90, 110}, 0.2, "unchanged"},
	} {
		if got := verdict(base, c.head, "lower", c.bound); got != c.want {
			t.Errorf("verdict(head %v, bound %v) = %s, want %s", c.head, c.bound, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(noisy, noisy, "lower", 0.1); got != "unresolved" {
		t.Errorf("a spread wider than the bound gave %s, want unresolved", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h telemetry.Histogram
	for v := int64(1000); v < 2000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := histQuantile(s, 0.5); math.Abs(got-1500) > 10 {
		t.Errorf("p50 of 1000..1999 = %v, want about 1500", got)
	}
	if got := histQuantile(s, 1); got != 1999 {
		t.Errorf("p100 = %v, want the max", got)
	}
}
