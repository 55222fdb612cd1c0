// Command bench is the repository's benchmark: four named workloads that
// measure the floorplan optimizer and its serving stack end to end, and a
// traced mode that measures each layer from outside by timing calls into
// plan, combine, selection, optimizer, cache, substore and server. Every
// answer is checked; a wrong one fails the run.
//
//	bash bench/run.sh --workload solve_paper --seed 3 --seconds 24 --trace 0
//	go run .                                 # from bench/: every workload, seed 1
//	go run . -workload serve_hot -trace 1    # per-layer metrics, Chrome trace
//	go run . -out base.json ...              # append the run to a results file
//	go run . -compare base.json head.json    # judge head against base
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json declares (end-to-end ones untraced,
// per-layer ones traced). README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"floorplan"
	"floorplan/internal/buildinfo"
)

// runConfig is how one workload run is driven.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	traceOut string
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
	samples   map[string]int
	steps     []stepResult
	// golden holds the default seed's per-instance facts, in instance order.
	golden []goldenEntry
}

func newOutcome(name string) *outcome {
	return &outcome{workload: name, values: map[string]float64{}, samples: map[string]int{}}
}

// fail records a wrong answer or a failed check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"solve_paper", func(rc runConfig) (*outcome, error) { return runSolve(paperSpec(), rc) }},
	{"solve_select", func(rc runConfig) (*outcome, error) { return runSolve(selectSpec(), rc) }},
	{"serve_hot", func(rc runConfig) (*outcome, error) { return runHot(hotDefault(), rc) }},
	{"serve_edit", func(rc runConfig) (*outcome, error) { return runEdit(editDefault(), rc) }},
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all): solve_paper, solve_select, serve_hot, serve_edit")
	seed := flag.Int64("seed", goldenSeed, "seed every input is generated from")
	seconds := flag.Int("seconds", 24, "length of the measured window of one run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	outPath := flag.String("out", "", "append each run, with machine metadata, to this results file")
	compare := flag.Bool("compare", false, "compare two results files: -compare base.json head.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	status := 0
	for _, w := range selected {
		rc := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second, trace: *trace == 1,
			traceOut: filepath.Join(".bench_build", "trace-"+w.name+".json"), setups: 3}
		correct, err := runOne(w, rc, *outPath)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			status = 2
		case !correct && status == 0:
			status = 1
		}
	}
	os.Exit(status)
}

// runOne runs a workload, checks the default seed against the golden file,
// prints the report and, last, the result line. It reports whether every
// answer was right.
func runOne(w workload, rc runConfig, outPath string) (bool, error) {
	out, err := w.run(rc)
	if err != nil {
		return false, err
	}
	if rc.seed == goldenSeed && !rc.trace {
		if err := checkGolden(out); err != nil {
			return false, err
		}
	}
	if out.attempted > 0 {
		out.values["error_rate"] = float64(out.failed) / float64(out.attempted)
	}
	rec := record(out, rc)
	printReport(os.Stdout, rec, out.steps)
	line, err := resultLine(rec, rc.trace)
	if err != nil {
		return false, err
	}
	if outPath != "" {
		if err := appendResults(outPath, rec); err != nil {
			return false, err
		}
	}
	fmt.Println(string(line))
	return rec.Correct, nil
}

// value is one metric as printed: its number with every digit, and unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runMeta says where a run's numbers came from.
type runMeta struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NProc      int            `json:"nproc"`
	Revision   string         `json:"revision"`
	Modified   bool           `json:"modified,omitempty"`
	Started    string         `json:"started"`
	Samples    map[string]int `json:"samples"`
}

// runRecord is one run in a results file.
type runRecord struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Meta      runMeta          `json:"meta"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// resultsFile is what -out appends to and -compare reads.
type resultsFile struct {
	Schema string      `json:"schema"`
	Runs   []runRecord `json:"runs"`
}

const resultsSchema = "floorplan/bench-results/v1"

func record(out *outcome, rc runConfig) runRecord {
	bi := buildinfo.Get()
	rec := runRecord{
		Workload: out.workload, Seed: rc.seed, Seconds: rc.duration.Seconds(), Trace: rc.trace,
		Meta: runMeta{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
			Revision: bi.Revision, Modified: bi.Modified, Started: time.Now().UTC().Format(time.RFC3339),
			Samples: out.samples,
		},
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Problems: out.problems,
		Metrics: map[string]value{},
	}
	for name, v := range out.values {
		rec.Metrics[name] = value{Value: v, Unit: unitOf(name)}
	}
	return rec
}

// resultLine is the JSON object that ends the output: the declared metrics of
// the run's kind, each of which must have been measured.
func resultLine(rec runRecord, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, max(rec.Attempted, 1), rec.Failed, map[string]value{}}
	for _, d := range defs {
		v, ok := rec.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = v
	}
	return json.Marshal(line)
}

func printReport(w io.Writer, rec runRecord, steps []stepResult) {
	mode := "end-to-end"
	if rec.Trace {
		mode = "traced"
	}
	m := rec.Meta
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s  correct %v  attempted %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Seconds, mode, rec.Correct, rec.Attempted, rec.Failed)
	fmt.Fprintf(w, "   %s  GOMAXPROCS %d  nproc %d  revision %s modified %v  %s\n",
		m.GoVersion, m.GOMAXPROCS, m.NProc, m.Revision, m.Modified, m.Started)
	names := make([]string, 0, len(m.Samples))
	for k := range m.Samples {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprint(w, "   samples:")
	for _, k := range names {
		fmt.Fprintf(w, " %s=%d", k, m.Samples[k])
	}
	fmt.Fprintln(w)
	for _, st := range steps {
		fmt.Fprintf(w, "   step %6.0f/s %5.1fs  sent %6d  errors %d  dropped %d  p50 %8.3f ms  p99 %8.3f ms\n",
			st.rate, st.dur.Seconds(), st.sent, st.errs, st.dropped, st.p50, st.p99)
	}
	for _, group := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end", endToEnd}, {"per-layer", perLayer}, {"report-only", reportOnly}} {
		for _, d := range group.defs {
			if v, ok := rec.Metrics[d.name]; ok {
				fmt.Fprintf(w, "   %-11s %-26s %16.6f %s\n", group.title, d.name, v.Value, d.unit)
			}
		}
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "   WRONG:", p)
	}
}

func appendResults(path string, rec runRecord) error {
	f := resultsFile{Schema: resultsSchema}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil || f.Schema != resultsSchema {
			return fmt.Errorf("%s is not a results file", path)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, rec)
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// timeSetups runs setup n times and returns the median wall time in
// seconds; the state of the last run is what the workload uses.
func timeSetups(n int, setup func() error) (float64, error) {
	var took []float64
	for range max(n, 1) {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return median(took), nil
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeTrace writes the collected spans as a Chrome trace_event file, which
// chrome://tracing and ui.perfetto.dev open.
func writeTrace(path string, col *floorplan.Collector) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := floorplan.WriteTrace(f, col); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
