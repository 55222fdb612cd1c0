package shape

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLListValidate(t *testing.T) {
	good := LList{
		{W1: 10, W2: 4, H1: 3, H2: 1},
		{W1: 8, W2: 4, H1: 4, H2: 2},
		{W1: 6, W2: 4, H1: 6, H2: 5},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LList{
		{{10, 4, 3, 1}, {8, 5, 4, 2}},  // W2 changes
		{{8, 4, 3, 1}, {10, 4, 4, 2}},  // W1 increases
		{{10, 4, 5, 1}, {8, 4, 4, 2}},  // H1 decreases
		{{10, 4, 3, 3}, {8, 4, 4, 2}},  // H2 decreases
		{{10, 4, 3, 1}, {10, 4, 4, 2}}, // second dominates first
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad list %d passed validation: %v", i, l)
		}
	}
}

func TestLListSubset(t *testing.T) {
	l := LList{
		{W1: 10, W2: 4, H1: 3, H2: 1},
		{W1: 8, W2: 4, H1: 4, H2: 2},
		{W1: 6, W2: 4, H1: 6, H2: 5},
		{W1: 5, W2: 4, H1: 8, H2: 7},
	}
	sub, err := l.Subset([]int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 3 || sub[1] != l[2] {
		t.Fatalf("Subset = %v", sub)
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("subset not canonical: %v", err)
	}
	if _, err := l.Subset([]int{2, 1}); err == nil {
		t.Error("expected error for decreasing indices")
	}
}

func TestNewLSetBasic(t *testing.T) {
	set, err := NewLSet([]LImpl{
		{W1: 10, W2: 4, H1: 3, H2: 1},
		{W1: 8, W2: 4, H1: 4, H2: 2},
		{W1: 10, W2: 4, H1: 4, H2: 2}, // dominates the second
		{W1: 9, W2: 5, H1: 3, H2: 1},  // different W2 group
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.Size() != 3 {
		t.Fatalf("Size = %d, want 3", set.Size())
	}
}

func TestNewLSetRejectsInvalid(t *testing.T) {
	if _, err := NewLSet([]LImpl{{W1: 3, W2: 4, H1: 5, H2: 2}}); err == nil {
		t.Error("expected error for W1 < W2")
	}
}

func TestNewLSetChainPartition(t *testing.T) {
	// An antichain within one W2 group where H1 and H2 move in opposite
	// directions as W1 falls; the greedy partition must split it.
	in := []LImpl{
		{W1: 10, W2: 4, H1: 5, H2: 1},
		{W1: 9, W2: 4, H1: 6, H2: 3}, // chains with the first
		{W1: 8, W2: 4, H1: 7, H2: 2}, // H2 drops vs previous: new chain
	}
	set := MustLSet(in)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.Size() != 3 {
		t.Fatalf("Size = %d, want 3", set.Size())
	}
	if len(set.Lists) < 2 {
		t.Fatalf("expected at least 2 chains, got %d", len(set.Lists))
	}
}

func TestLSetAll(t *testing.T) {
	set := MustLSet([]LImpl{
		{W1: 10, W2: 4, H1: 3, H2: 1},
		{W1: 5, W2: 5, H1: 4, H2: 4},
	})
	if got := len(set.All()); got != set.Size() {
		t.Fatalf("All returned %d, Size %d", got, set.Size())
	}
}

func TestNewLSetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomLImpls(r, 1+r.Intn(150), int64(3+r.Intn(10)))
		set, err := NewLSet(in)
		if err != nil {
			return false
		}
		if err := set.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// The set must hold exactly the Pareto minima of the input.
		want := sortedCopy(minimaLBrute(in))
		got := sortedCopy(set.All())
		if !equalLSlices(got, want) {
			t.Logf("content mismatch: got %d, want %d", len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionChainsCoversInput(t *testing.T) {
	group := []LImpl{
		{W1: 10, W2: 4, H1: 2, H2: 1},
		{W1: 9, W2: 4, H1: 6, H2: 5},
		{W1: 8, W2: 4, H1: 3, H2: 2},
		{W1: 7, W2: 4, H1: 7, H2: 6},
		{W1: 6, W2: 4, H1: 4, H2: 3},
	}
	lists := partitionChains(group)
	total := 0
	for _, l := range lists {
		total += len(l)
		if err := l.Validate(); err != nil {
			t.Fatalf("chain %v invalid: %v", l, err)
		}
	}
	if total != len(group) {
		t.Fatalf("chains cover %d of %d points", total, len(group))
	}
}
