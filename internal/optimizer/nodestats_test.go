package optimizer

import (
	"math/rand"
	"testing"

	"floorplan/internal/gen"
	"floorplan/internal/plan"
	"floorplan/internal/selection"
)

func TestNodeStatsCoverTree(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	tree, err := gen.RandomTree(rng, 12, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(5))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	res := mustRun(t, lib, Options{}, tree)
	bin, err := plan.Restructure(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeStats) != bin.Count() {
		t.Fatalf("%d node stats for %d nodes", len(res.NodeStats), bin.Count())
	}
	var total int64
	lCount := 0
	for i, ns := range res.NodeStats {
		if i > 0 && ns.ID <= res.NodeStats[i-1].ID {
			t.Fatal("node stats not sorted by ID")
		}
		if ns.Stored > ns.Generated {
			t.Fatalf("node %d stored %d > generated %d", ns.ID, ns.Stored, ns.Generated)
		}
		if ns.Stored < 1 {
			t.Fatalf("node %d stored nothing", ns.ID)
		}
		if ns.LShaped && ns.Lists < 1 {
			t.Fatalf("L node %d has no lists", ns.ID)
		}
		if !ns.LShaped && ns.Lists != 1 {
			t.Fatalf("rect node %d has %d lists", ns.ID, ns.Lists)
		}
		if ns.LShaped {
			lCount++
		}
		total += int64(ns.Stored)
	}
	if lCount != countL(bin) {
		t.Fatalf("%d L nodes in stats, tree has %d", lCount, countL(bin))
	}
	// Without selection, the sum of stored counts is the final footprint.
	if total != res.Stats.FinalStored {
		t.Fatalf("node stats sum %d != FinalStored %d", total, res.Stats.FinalStored)
	}
}

func TestNodeStatsReflectSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	tree := gen.FP1()
	rawLib, err := gen.Library(rng, tree, gen.DefaultModuleParams(8))
	if err != nil {
		t.Fatal(err)
	}
	lib := Library(rawLib)
	res := mustRun(t, lib, Options{Policy: selection.Policy{K1: 4, K2: 20}}, tree)
	reducedSomewhere := false
	for _, ns := range res.NodeStats {
		if ns.Stored < ns.Generated {
			reducedSomewhere = true
		}
		if !ns.LShaped && ns.Stored > 4 && ns.Kind != plan.BinLeaf {
			t.Fatalf("rect node %d stored %d > K1", ns.ID, ns.Stored)
		}
	}
	if !reducedSomewhere {
		t.Fatal("selection left no trace in node stats")
	}
}
