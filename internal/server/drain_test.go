package server

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"floorplan/internal/plan"
	"floorplan/internal/substore"
)

// TestDrainUnderLoadRace races Shutdown against a burst of optimize
// requests and pins the leader-side drain re-check: no background
// computation may start after Shutdown has returned — the leak the
// re-check closes is a handler that passed the entry drain check, then
// wg.Add'd after wg.Wait had already given up waiting. Every request must
// still get a definite answer: its result, or 503 draining.
func TestDrainUnderLoadRace(t *testing.T) {
	var shutdownDone, leaked atomic.Bool
	testHookComputeStart = func() {
		if shutdownDone.Load() {
			leaked.Store(true)
		}
	}
	t.Cleanup(func() { testHookComputeStart = nil })

	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256, Cache: testCache(t, 1<<20)})

	const n = 64
	statuses := make([]int, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Distinct valid K1 (>= 2) per request: every request leads its
			// own flight call, maximizing leaders in the racy window.
			req := &OptimizeRequest{Tree: testTree(), Library: testLibrary(),
				Options: RequestOptions{K1: i + 2}}
			status, _, _ := postOptimize(t, ts, req)
			statuses[i] = status
		}(i)
	}
	close(start)
	// Let part of the burst pass admission before the drain flips, so both
	// sides of the entry check are populated.
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	shutdownDone.Store(true)
	wg.Wait()

	if leaked.Load() {
		t.Fatal("a computation started after Shutdown returned: drain re-check leaked")
	}
	for i, status := range statuses {
		if status != http.StatusOK && status != http.StatusServiceUnavailable {
			t.Errorf("request %d: status %d, want 200 or 503", i, status)
		}
	}
}

// TestOptimizeRejectsBadLibraries pins the request-validation satellite:
// empty implementation lists, non-positive extents and extents past the
// overflow bound are all 400s naming the offending module — never 500s or
// silently accepted degenerate runs.
func TestOptimizeRejectsBadLibraries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tree := plan.NewVSlice(plan.NewLeaf("a"), plan.NewLeaf("b"))
	cases := []struct {
		name string
		lib  plan.Library
		frag string
	}{
		{"empty list", plan.Library{"a": {}, "b": {{W: 3, H: 3}}}, "no implementations"},
		{"zero extent", plan.Library{"a": {{W: 0, H: 7}}, "b": {{W: 3, H: 3}}}, "invalid"},
		{"negative extent", plan.Library{"a": {{W: -4, H: 7}}, "b": {{W: 3, H: 3}}}, "invalid"},
		{"overflow extent", plan.Library{"a": {{W: 1 << 32, H: 1 << 32}}, "b": {{W: 3, H: 3}}}, "maximum extent"},
	}
	for _, tc := range cases {
		status, raw, _ := postOptimize(t, ts, &OptimizeRequest{Tree: tree, Library: tc.lib})
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %s), want 400", tc.name, status, raw)
			continue
		}
		if !strings.Contains(string(raw), tc.frag) {
			t.Errorf("%s: body %s does not name the failure (%q)", tc.name, raw, tc.frag)
		}
		if !strings.Contains(string(raw), `\"a\"`) && !strings.Contains(string(raw), `"a"`) {
			t.Errorf("%s: body %s does not name module a", tc.name, raw)
		}
	}
}

// TestServerSubstoreWarmup runs the same workload twice against a server
// with a subtree store and no result cache: the second run must resolve
// every node from the store, return byte-identical result payloads, and
// surface the splice scorecard in runtime and /v1/stats.
func TestServerSubstoreWarmup(t *testing.T) {
	sub, err := substore.New(substore.Config{MaxBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Substore: sub})
	req := &OptimizeRequest{Tree: testTree(), Library: testLibrary()}

	status, raw, _ := postOptimize(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d (body %s)", status, raw)
	}
	cold := decodeOptimize(t, raw)
	if cold.Runtime.SubtreeComputed == 0 || cold.Runtime.SubtreeSpliced != 0 {
		t.Fatalf("cold runtime %+v: want all nodes computed", cold.Runtime)
	}

	status, raw, _ = postOptimize(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("warm: status %d (body %s)", status, raw)
	}
	warm := decodeOptimize(t, raw)
	if warm.Runtime.SubtreeSpliced != cold.Runtime.SubtreeComputed || warm.Runtime.SubtreeComputed != 0 {
		t.Fatalf("warm runtime %+v: want all %d nodes spliced", warm.Runtime, cold.Runtime.SubtreeComputed)
	}
	if string(cold.Result) != string(warm.Result) {
		t.Fatal("spliced result payload not byte-identical to the cold one")
	}

	stats := getStats(t, ts)
	if !stats.SubstoreEnabled {
		t.Fatal("stats: substore not reported enabled")
	}
	if stats.Substore.Hits == 0 || stats.Substore.Entries == 0 {
		t.Fatalf("stats: substore %+v after a warm run", stats.Substore)
	}

	// NoCache demands a private run: it must neither consult nor warm the
	// shared store.
	before := sub.Stats()
	req.Options.NoCache = true
	status, raw, _ = postOptimize(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("nocache: status %d (body %s)", status, raw)
	}
	priv := decodeOptimize(t, raw)
	if priv.Runtime.SubtreeSpliced != 0 || priv.Runtime.SubtreeComputed != 0 {
		t.Fatalf("nocache runtime %+v: private run touched the subtree store", priv.Runtime)
	}
	after := sub.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("nocache run moved store counters: %+v -> %+v", before, after)
	}
}
