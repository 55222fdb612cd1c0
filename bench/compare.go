package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBenchmark reads BENCHMARK.json from the current directory (the
// repository root) or its parent (bench/).
func loadBenchmark() (*benchmarkFile, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var b benchmarkFile
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &b, nil
	}
	return nil, errors.New("BENCHMARK.json not found in . or ..")
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s is not a results file", path)
	}
	return &f, nil
}

// verdict judges head against base for one metric, pairing the i-th runs of
// each side:
//   - improved: head wins at least nine tenths of the pairs (ties count for
//     neither) and the medians differ, in head's favour, by more than base's
//     interquartile range;
//   - worse: head's median is worse than base's by more than the bound;
//   - unresolved: base's own spread exceeds the bound and not every head run
//     beats every base run;
//   - unchanged: none of these.
func verdict(base, head []float64, better string, bound float64) string {
	n := min(len(base), len(head))
	if n == 0 {
		return "unresolved"
	}
	wins, allBetter := 0, true
	for i := range n {
		if worseBy(base[i], head[i], better) < 0 {
			wins++
		}
	}
	for _, h := range head {
		for _, b := range base {
			if worseBy(b, h, better) >= 0 {
				allBetter = false
			}
		}
	}
	mb, mh := median(append([]float64(nil), base...)), median(append([]float64(nil), head...))
	var iqr float64
	if len(base) >= 2 {
		q1, q3 := quartiles(base)
		iqr = q3 - q1
	}
	diff := worseBy(mb, mh, better)
	switch {
	case float64(wins) >= 0.9*float64(n) && diff < 0 && math.Abs(mh-mb) > iqr:
		return "improved"
	case diff > bound:
		return "worse"
	case spread(base) > bound && !allBetter:
		return "unresolved"
	}
	return "unchanged"
}

// runCompare prints, for every workload both files ran untraced, one row
// of verdicts over BENCHMARK.json's end-to-end metrics, then the medians,
// quartiles and pair wins behind them.
func runCompare(w io.Writer, basePath, headPath string) error {
	spec, err := loadBenchmark()
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	head, err := readResults(headPath)
	if err != nil {
		return err
	}
	series := func(f *resultsFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, v.Value)
			}
		}
		return out
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range base.Runs {
		if !r.Trace && !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	var detail strings.Builder
	fmt.Fprintf(w, "%-14s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Fprintf(w, " %-16s", m.Name)
	}
	fmt.Fprintln(w)
	for _, name := range names {
		fmt.Fprintf(w, "%-14s", name)
		for _, m := range spec.EndToEnd {
			b, h := series(base, name, m.Name), series(head, name, m.Name)
			fmt.Fprintf(w, " %-16s", verdict(b, h, m.Better, m.Bound))
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bq1, bq3 := quartilesOrSelf(b)
			hq1, hq3 := quartilesOrSelf(h)
			fmt.Fprintf(&detail, "%-14s %-16s base %.6g [%.6g, %.6g] n=%d  head %.6g [%.6g, %.6g] n=%d  bound %.2f\n",
				name, m.Name, median(append([]float64(nil), b...)), bq1, bq3, len(b),
				median(append([]float64(nil), h...)), hq1, hq3, len(h), m.Bound)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "\n", detail.String())
	return nil
}

func quartilesOrSelf(xs []float64) (float64, float64) {
	if len(xs) < 2 {
		return xs[0], xs[0]
	}
	return quartiles(xs)
}
