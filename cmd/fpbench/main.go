// fpbench regenerates the paper's evaluation tables (Tables 1–4 of
// Wang/Wong TR-91-26) on this reproduction's substrate, plus the
// repository's ablation experiments.
//
// Examples:
//
//	fpbench -table 1          # Table 1 (FP1)
//	fpbench -all              # all four tables (several minutes)
//	fpbench -ablation uniform # R_Selection vs uniform subsampling
//	fpbench -ablation thetas  # θ / S sensitivity on FP4
//	fpbench -smoke -benchjson out -report out/report.json  # CI-scale grid
//	fpbench -server http://localhost:8080  # end-to-end check of fpserve
//	fpbench -load -server http://localhost:8080 -load-spec spec.json \
//	    -load-out report.json  # open-loop load run with SLO gating
//	fpbench -load -server http://n1:8081,http://n2:8082,http://n3:8083
//	    # same, spread round-robin over a cluster's nodes
//	fpbench -cluster-check -server http://n1:8081,http://n2:8082 \
//	    -single http://ref:8080  # cluster-wide dedup + byte-identity check
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"floorplan/internal/cliutil"
	"floorplan/internal/tables"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpbench: ")
	var (
		table    = flag.Int("table", 0, "regenerate one paper table (1-4)")
		all      = flag.Bool("all", false, "regenerate all four tables")
		smoke    = flag.Bool("smoke", false, "run a small CI-scale grid instead of a paper table")
		ablation = flag.String("ablation", "", "run an ablation: 'uniform' or 'thetas'")
		limit    = flag.Int64("limit", 0, "override the memory limit (default: calibrated 300000)")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		csvOut   = flag.String("csv", "", "also write machine-readable CSV to this file")
		jsonDir  = flag.String("benchjson", "", "write BENCH_table<N>.json files into this directory")
		workers  = flag.Int("workers", 0, "concurrent optimizer runs (0 = all CPUs, 1 = sequential)")
		servURL  = flag.String("server", "", "drive a running fpserve at this base URL end-to-end and exit (-load and -cluster-check accept a comma-separated list)")
		load     = flag.Bool("load", false, "with -server: run the open-loop load harness instead of the functional check")
		loadSpec = flag.String("load-spec", "", "with -load: JSON load spec file (default: built-in schedule)")
		loadOut  = flag.String("load-out", "", "with -load: write the JSON load report here (default: stdout)")
		clCheck  = flag.Bool("cluster-check", false, "with -server (comma-separated node URLs): assert cluster-wide dedup and byte-identity, then exit")
		clStats  = flag.Bool("cluster-stats", false, "with -server: fetch GET /v1/cluster/stats from the first node and print the ring-wide aggregate, then exit")
		single   = flag.String("single", "", "with -cluster-check: also compare results against this single-node reference fpserve")
		tf       cliutil.TelemetryFlags
	)
	tf.Register(flag.CommandLine)
	flag.Parse()

	if (*load || *clCheck || *clStats) && *servURL == "" {
		log.Fatal("-load/-cluster-check/-cluster-stats need -server pointing at running fpserve nodes")
	}
	if *servURL != "" {
		switch {
		case *load:
			if err := runLoad(*servURL, *loadSpec, *loadOut); err != nil {
				log.Fatal(err)
			}
		case *clStats:
			if err := clusterStatsReport(*servURL); err != nil {
				log.Fatal(err)
			}
		case *clCheck:
			if err := clusterCheck(*servURL, *single); err != nil {
				log.Fatal(err)
			}
		case strings.Contains(*servURL, ","):
			log.Fatal("the functional check takes a single URL; use -load or -cluster-check for multi-node runs")
		default:
			if err := serveCheck(*servURL); err != nil {
				log.Fatal(err)
			}
		}
		return
	}
	cfg := tables.DefaultConfig()
	if *limit > 0 {
		cfg.MemoryLimit = *limit
	}
	if *workers < 0 {
		log.Fatalf("negative -workers %d", *workers)
	}
	cfg.Workers = *workers
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	// The root collector spans the whole invocation; each table runs
	// against its own shard (so its BENCH json embeds only its own
	// numbers) and the shards merge back into the root for -report. The
	// -benchjson embed implies collection even without -report.
	root := tf.CollectorIf(*jsonDir != "")
	if _, err := tf.Logger(); err != nil {
		log.Fatal(err)
	}
	if err := tf.StartDebug(root); err != nil {
		log.Fatal(err)
	}
	// runTable executes fn with a per-table telemetry shard in cfg.
	runTable := func(fn func(cfg tables.Config) (*tables.Table, error)) *tables.Table {
		tcfg := cfg
		shard := root.Shard()
		tcfg.Telemetry = shard
		t, err := fn(tcfg)
		if err != nil {
			log.Fatal(err)
		}
		root.Merge(shard)
		return t
	}

	switch {
	case *ablation == "uniform":
		out, err := tables.AblationUniform(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
	case *ablation == "thetas":
		out, err := tables.AblationThetaS(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(out)
	case *ablation != "":
		log.Fatalf("unknown ablation %q (want 'uniform' or 'thetas')", *ablation)
	case *smoke:
		t := runTable(func(cfg tables.Config) (*tables.Table, error) {
			return tables.RunCases(1, "FP1", smokeCases(), cfg)
		})
		fmt.Println(t.Format())
		writeJSON(*jsonDir, t)
		if *csvOut != "" {
			part, err := t.CSV()
			if err != nil {
				log.Fatal(err)
			}
			writeCSV(*csvOut, part)
		}
	case *all:
		var csvParts []string
		for i := 1; i <= 4; i++ {
			i := i
			t := runTable(func(cfg tables.Config) (*tables.Table, error) {
				return tables.Run(i, cfg)
			})
			fmt.Println(t.Format())
			writeJSON(*jsonDir, t)
			if *csvOut != "" {
				part, err := t.CSV()
				if err != nil {
					log.Fatal(err)
				}
				if i > 1 {
					// Drop the duplicate header of subsequent tables.
					if idx := strings.IndexByte(part, '\n'); idx >= 0 {
						part = part[idx+1:]
					}
				}
				csvParts = append(csvParts, part)
			}
		}
		writeCSV(*csvOut, strings.Join(csvParts, ""))
	case *table >= 1 && *table <= 4:
		t := runTable(func(cfg tables.Config) (*tables.Table, error) {
			return tables.Run(*table, cfg)
		})
		fmt.Println(t.Format())
		writeJSON(*jsonDir, t)
		if *csvOut != "" {
			part, err := t.CSV()
			if err != nil {
				log.Fatal(err)
			}
			writeCSV(*csvOut, part)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := tf.Flush(root); err != nil {
		log.Fatal(err)
	}
}

// smokeCases is the CI-scale grid behind -smoke: two cases small enough to
// finish in well under a second yet still exercising the full table
// protocol (reference run, K1 sweep, selection, telemetry plumbing).
func smokeCases() []tables.Case {
	return []tables.Case{
		{ID: 1, N: 6, Aspect: 4, Seed: 1, K1s: []int{4, 6}},
		{ID: 2, N: 8, Aspect: 5, Seed: 2, K1s: []int{4, 6}},
	}
}

func writeCSV(path, content string) {
	if path == "" || content == "" {
		return
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}

// writeJSON drops one BENCH_table<N>.json per regenerated table into dir,
// the machine-readable record (M, cpu_ms, wall_ms, peak per run, plus the
// embedded telemetry report) consumed by benchmark tooling.
func writeJSON(dir string, t *tables.Table) {
	if dir == "" {
		return
	}
	raw, err := t.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_table%d.json", t.Number))
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
