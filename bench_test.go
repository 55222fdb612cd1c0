// Benchmark harness regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the core algorithms and this
// repository's ablations.
//
// The table benchmarks each run one full paper table (four cases, every
// selection configuration) per iteration; they take tens of seconds to a
// few minutes, so run them with an explicit count and a generous timeout:
//
//	go test -bench=Table -benchtime=1x -timeout=120m
//
// The regenerated tables print to stderr on -v; `fpbench -table N` produces
// the same output interactively.
package floorplan_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	floorplan "floorplan"
	"floorplan/internal/cspp"
	"floorplan/internal/gen"
	"floorplan/internal/selection"
	"floorplan/internal/shape"
	"floorplan/internal/tables"
)

// benchTable regenerates one paper table per iteration and reports the
// paper's M metric for the first row as a benchmark metric.
func benchTable(b *testing.B, number int) {
	cfg := tables.DefaultConfig()
	for i := 0; i < b.N; i++ {
		t, err := tables.Run(number, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintln(os.Stderr, t.Format())
			reportTableMetrics(b, t)
		}
	}
}

func reportTableMetrics(b *testing.B, t *tables.Table) {
	var refM, selM int64
	var selRuns int64
	for _, row := range t.Rows {
		refM += row.Ref.M
		for _, s := range row.Sel {
			selM += s.Out.M
			selRuns++
		}
	}
	b.ReportMetric(float64(refM)/float64(len(t.Rows)), "ref-M/case")
	if selRuns > 0 {
		b.ReportMetric(float64(selM)/float64(selRuns), "sel-M/run")
	}
}

// BenchmarkTable1 regenerates Table 1: FP1 (25 modules), plain [9] vs
// [9]+R_Selection at K1 ∈ {20,30,40} / {40,50,60}.
func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }

// BenchmarkTable2 regenerates Table 2: FP2 (49 modules).
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }

// BenchmarkTable3 regenerates Table 3: FP3 (120 modules), where plain [9]
// runs out of memory on cases 2–4.
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }

// BenchmarkTable4 regenerates Table 4: FP4 (245 modules), where plain [9]
// always fails, R_Selection alone fails on cases 3–4, and
// R_Selection+L_Selection (K2 ∈ {1000,1500,2000}) completes every case.
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }

// BenchmarkAblationUniformVsOptimal quantifies the CSPP-optimal selection
// against naive uniform subsampling (this repository's ablation; the
// paper's Figure 5–7 machinery is what makes the optimal choice cheap).
func BenchmarkAblationUniformVsOptimal(b *testing.B) {
	cfg := tables.DefaultConfig()
	for i := 0; i < b.N; i++ {
		out, err := tables.AblationUniform(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintln(os.Stderr, out)
		}
	}
}

// BenchmarkAblationThetaS sweeps the Section 5 speed-up knobs θ and S on
// FP4.
func BenchmarkAblationThetaS(b *testing.B) {
	cfg := tables.DefaultConfig()
	for i := 0; i < b.N; i++ {
		out, err := tables.AblationThetaS(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintln(os.Stderr, out)
		}
	}
}

// BenchmarkFigure4CSPP solves the worked CSPP instance of Figure 4
// (6 vertices, k=4) — the kernel both selection algorithms reduce to.
func BenchmarkFigure4CSPP(b *testing.B) {
	g := cspp.MustGraph(6)
	edges := []struct {
		from, to int
		w        int64
	}{
		{0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {3, 4, 2}, {4, 5, 2},
		{1, 3, 4}, {3, 5, 6}, {0, 2, 5}, {1, 4, 12},
	}
	for _, e := range edges {
		if err := g.AddEdge(e.from, e.to, e.w); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cspp.Solve(g, 0, 5, 4)
		if err != nil || res.Weight != 11 {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

func benchRList(n int) shape.RList {
	rng := rand.New(rand.NewSource(9))
	l := make(shape.RList, n)
	w, h := int64(100000), int64(100)
	for i := range l {
		l[i] = shape.RImpl{W: w, H: h}
		w -= 1 + rng.Int63n(50)
		h += 1 + rng.Int63n(50)
	}
	return l
}

// BenchmarkComputeRError measures the paper's O(n²) error table
// (Figures 5–6 machinery) on a 1000-corner staircase.
func BenchmarkComputeRError(b *testing.B) {
	l := benchRList(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selection.ComputeRError(l)
	}
}

// BenchmarkRSelect measures R_Selection (O(kn) on the line-envelope DP;
// Theorem 2 bounds it by O(k n²)) on a 1000-corner list cut to k = 40, and
// at the shapes of the benchmark's selection-heavy solve: its node lists
// (n = 200, k = 16) and its 256→16 leaf reductions.
func BenchmarkRSelect(b *testing.B) {
	for _, c := range []struct{ n, k int }{{1000, 40}, {200, 16}, {256, 16}} {
		b.Run(fmt.Sprintf("n%d_k%d", c.n, c.k), func(b *testing.B) {
			l := benchRList(c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := selection.RSelect(l, c.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchLList(n int) shape.LList {
	rng := rand.New(rand.NewSource(10))
	l := make(shape.LList, n)
	w1, h1, h2 := int64(100000), int64(100), int64(50)
	for i := range l {
		l[i] = shape.LImpl{W1: w1, W2: 40, H1: h1, H2: h2}
		w1 -= 1 + rng.Int63n(20)
		h1 += 1 + rng.Int63n(20)
		h2 += rng.Int63n(10)
		if h2 > h1 {
			h2 = h1
		}
	}
	return l
}

// BenchmarkLSelect measures Manhattan L_Selection (O(k n log² n) with O(n)
// scratch, below Theorem 3's O(n³)) on a 500-entry L-list — the S-capped
// worst case of one Section 5 invocation.
func BenchmarkLSelect(b *testing.B) {
	l := benchLList(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := selection.LSelect(l, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimaL measures 4-d Pareto pruning, the optimizer's hot path.
func BenchmarkMinimaL(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	in := make([]shape.LImpl, 100000)
	for i := range in {
		w2 := 1 + rng.Int63n(300)
		h2 := 1 + rng.Int63n(300)
		in[i] = shape.LImpl{W1: w2 + rng.Int63n(300), W2: w2, H1: h2 + rng.Int63n(300), H2: h2}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shape.MinimaL(in)
	}
}

// BenchmarkOptimizeFP1 measures a full optimization of the 25-module FP1
// with placement traceback.
func BenchmarkOptimizeFP1(b *testing.B) {
	tree, err := floorplan.PaperFloorplan("FP1")
	if err != nil {
		b.Fatal(err)
	}
	lib, err := floorplan.RandomModules(tree, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floorplan.Optimize(tree, lib, floorplan.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStockmeyerBaseline measures the slicing baseline on a 200-module
// random slicing tree, without and with the R_Selection hook.
func BenchmarkStockmeyerBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	tree, err := gen.RandomTree(rng, 200, 0)
	if err != nil {
		b.Fatal(err)
	}
	lib, err := floorplan.RandomModules(tree, 8, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := floorplan.OptimizeSlicing(tree, lib, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("k1=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := floorplan.OptimizeSlicing(tree, lib, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalParallel measures the parallel bottom-up evaluator on FP3
// (120 modules) across worker counts. Workers=1 is the sequential baseline;
// results are bit-identical for every sub-benchmark, so the only difference
// is wall-clock. On a multi-core machine expect near-linear scaling until
// the tree's dependency structure limits the ready set.
func BenchmarkEvalParallel(b *testing.B) {
	tree, err := floorplan.PaperFloorplan("FP3")
	if err != nil {
		b.Fatal(err)
	}
	lib, err := floorplan.RandomModules(tree, 12, 7)
	if err != nil {
		b.Fatal(err)
	}
	opts := floorplan.Options{
		Selection:     floorplan.Selection{K1: 30},
		SkipPlacement: true,
	}
	ref, err := floorplan.Optimize(tree, lib, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			o := opts
			o.Workers = w
			for i := 0; i < b.N; i++ {
				res, err := floorplan.Optimize(tree, lib, o)
				if err != nil {
					b.Fatal(err)
				}
				if res.Best != ref.Best {
					b.Fatalf("workers=%d changed the optimum: %v vs %v", w, res.Best, ref.Best)
				}
			}
		})
	}
}
