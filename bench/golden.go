package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"floorplan/internal/optimizer"
)

// goldenSeed is the default seed; its instances' answers are pinned in
// testdata/golden.json (regenerate with `go test -run TestGolden -update`).
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenEntry pins one instance's answer: the optimal envelope, the paper's
// M, the implementations generated and the error selection admitted.
type goldenEntry struct {
	W         int64 `json:"w"`
	H         int64 `json:"h"`
	Area      int64 `json:"area"`
	M         int64 `json:"m"`
	Generated int64 `json:"generated"`
	SelError  int64 `json:"sel_error"`
}

func factsOf(res *optimizer.Result, selErr int64) goldenEntry {
	return goldenEntry{W: res.Best.W, H: res.Best.H, Area: res.Best.Area(),
		M: res.Stats.PeakStored, Generated: res.Stats.Generated, SelError: selErr}
}

// checkGolden compares the facts a default-seed run collected with the
// pinned ones; every difference is a wrong answer.
func checkGolden(out *outcome) error {
	var pinned map[string][]goldenEntry
	if err := json.Unmarshal(goldenJSON, &pinned); err != nil {
		return fmt.Errorf("reading golden file: %w", err)
	}
	want := pinned[out.workload]
	if len(want) != len(out.golden) {
		out.fail("golden: %d instances pinned, run produced %d", len(want), len(out.golden))
		return nil
	}
	for i, got := range out.golden {
		if got != want[i] {
			out.fail("golden: instance %d is %+v, pinned %+v", i, got, want[i])
		}
	}
	return nil
}
