// fpopt optimizes a floorplan: it reads a topology and a module library
// (JSON, as produced by fpgen), runs the Wang–Wong optimizer with optional
// R_Selection/L_Selection, and reports the optimal area, memory statistics
// and (optionally) the placement.
//
// Example:
//
//	fpgen -fp FP1 -n 20 -seed 1 -tree fp1.json -lib lib.json
//	fpopt -tree fp1.json -lib lib.json -k1 30 -limit 400000 -art
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	floorplan "floorplan"
	"floorplan/internal/cliutil"
)

// jsonResult is the machine-readable output of -json.
type jsonResult struct {
	Modules    int          `json:"modules"`
	Wheels     int          `json:"wheels"`
	Width      int64        `json:"width"`
	Height     int64        `json:"height"`
	Area       int64        `json:"area"`
	RootShapes int          `json:"rootShapes"`
	PeakStored int64        `json:"peakStored"`
	Generated  int64        `json:"generated"`
	RSel       int          `json:"rSelections"`
	LSel       int          `json:"lSelections"`
	EvalMs     int64        `json:"evalMs"`
	TotalMs    int64        `json:"totalMs"`
	Placement  []jsonModule `json:"placement,omitempty"`
}

type jsonModule struct {
	Module string `json:"module"`
	X      int64  `json:"x"`
	Y      int64  `json:"y"`
	W      int64  `json:"w"`
	H      int64  `json:"h"`
	ImplW  int64  `json:"implW"`
	ImplH  int64  `json:"implH"`
}

func emitJSON(tree *floorplan.Tree, res *floorplan.Result, elapsed time.Duration) {
	out := jsonResult{
		Modules:    tree.ModuleCount(),
		Wheels:     tree.WheelCount(),
		Width:      res.Best.W,
		Height:     res.Best.H,
		Area:       res.Best.Area(),
		RootShapes: len(res.RootList),
		PeakStored: res.Stats.PeakStored,
		Generated:  res.Stats.Generated,
		RSel:       res.Stats.RSelections,
		LSel:       res.Stats.LSelections,
		EvalMs:     res.Stats.Elapsed.Milliseconds(),
		TotalMs:    elapsed.Milliseconds(),
	}
	if res.Placement != nil {
		for _, m := range res.Placement.ByModule() {
			out.Placement = append(out.Placement, jsonModule{
				Module: m.Module,
				X:      m.Box.MinX, Y: m.Box.MinY,
				W: m.Box.Width(), H: m.Box.Height(),
				ImplW: m.Impl.W, ImplH: m.Impl.H,
			})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpopt: ")
	var (
		treeFile = flag.String("tree", "", "topology JSON file (required)")
		libFile  = flag.String("lib", "", "module library JSON file (required)")
		k1       = flag.Int("k1", 0, "R_Selection limit per rectangular block (0 = off)")
		k2       = flag.Int("k2", 0, "L_Selection limit per L-shaped block (0 = off)")
		theta    = flag.Float64("theta", 0, "L_Selection trigger ratio θ (0 = always)")
		s        = flag.Int("s", 500, "heuristic pre-reduction threshold per L-list")
		limit    = flag.Int64("limit", 0, "stored-implementation limit (0 = unlimited)")
		art      = flag.Bool("art", false, "draw the placement as ASCII art")
		artWidth = flag.Int("artwidth", 78, "ASCII art width")
		table    = flag.Bool("table", false, "print the per-module placement table")
		skip     = flag.Bool("noplace", false, "skip placement traceback")
		jsonOut  = flag.Bool("json", false, "emit the result as JSON instead of text")
		nodes    = flag.Bool("nodes", false, "print per-block implementation counts")
		svgOut   = flag.String("svg", "", "write the placement as SVG to this file")
		workers  = flag.Int("workers", 0, "parallel block evaluators (0 = all CPUs, 1 = sequential)")
		tf       cliutil.TelemetryFlags
	)
	tf.Register(flag.CommandLine)
	flag.Parse()
	if *treeFile == "" || *libFile == "" {
		flag.Usage()
		os.Exit(2)
	}

	treeData, err := os.ReadFile(*treeFile)
	if err != nil {
		log.Fatal(err)
	}
	tree, err := floorplan.ParseTree(treeData)
	if err != nil {
		log.Fatal(err)
	}
	libData, err := os.ReadFile(*libFile)
	if err != nil {
		log.Fatal(err)
	}
	lib, err := floorplan.ParseLibrary(libData)
	if err != nil {
		log.Fatal(err)
	}

	if _, err := tf.Logger(); err != nil {
		log.Fatal(err)
	}
	col := tf.Collector()
	if err := tf.StartDebug(col); err != nil {
		log.Fatal(err)
	}
	opts := floorplan.Options{
		Selection:     floorplan.Selection{K1: *k1, K2: *k2, Theta: *theta, S: *s},
		MemoryLimit:   *limit,
		SkipPlacement: *skip,
		Workers:       *workers,
		Telemetry:     col,
	}
	start := time.Now()
	res, err := floorplan.Optimize(tree, lib, opts)
	elapsed := time.Since(start)
	// The report and trace cover failed runs too — a memory-limit abort is
	// exactly when the selection-error and peak numbers matter.
	if ferr := tf.Flush(col); ferr != nil {
		log.Fatal(ferr)
	}
	if err != nil {
		if floorplan.IsMemoryLimit(err) && res != nil {
			fmt.Printf("OUT OF MEMORY: > %d implementations stored (limit %d) after %s\n",
				res.Stats.PeakStored, *limit, elapsed.Round(time.Millisecond))
			os.Exit(1)
		}
		log.Fatal(err)
	}

	if *jsonOut {
		emitJSON(tree, res, elapsed)
		return
	}

	fmt.Printf("modules:    %d (%d wheels)\n", tree.ModuleCount(), tree.WheelCount())
	fmt.Printf("optimum:    %dx%d  area %d\n", res.Best.W, res.Best.H, res.Best.Area())
	fmt.Printf("staircase:  %d envelope shapes\n", len(res.RootList))
	fmt.Printf("M:          %d implementations stored (peak)\n", res.Stats.PeakStored)
	fmt.Printf("generated:  %d before selection\n", res.Stats.Generated)
	fmt.Printf("selections: %d R, %d L\n", res.Stats.RSelections, res.Stats.LSelections)
	fmt.Printf("CPU:        %s (bottom-up), %s total\n",
		res.Stats.Elapsed.Round(time.Millisecond), elapsed.Round(time.Millisecond))
	if *nodes {
		fmt.Println()
		fmt.Printf("%-6s %-8s %-8s %10s %10s %8s\n", "node", "kind", "shape", "generated", "stored", "lists")
		for _, ns := range res.NodeStats {
			shapeKind := "rect"
			if ns.LShaped {
				shapeKind = "L"
			}
			fmt.Printf("%-6d %-8s %-8s %10d %10d %8d\n",
				ns.ID, ns.Kind, shapeKind, ns.Generated, ns.Stored, ns.Lists)
		}
	}
	if res.Placement != nil {
		slack, frac := res.Placement.WhiteSpace()
		fmt.Printf("whitespace: %d (%.2f%%)\n", slack, 100*frac)
		if *table {
			fmt.Println()
			fmt.Print(floorplan.PlacementTable(res.Placement))
		}
		if *art {
			fmt.Println()
			fmt.Print(floorplan.RenderPlacement(res.Placement, *artWidth))
		}
		if *svgOut != "" {
			if err := os.WriteFile(*svgOut, []byte(floorplan.RenderSVG(res.Placement, 800)), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}
}
