package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestCountersWatermarks(t *testing.T) {
	c := New()
	c.Add(CtrGenerated, 10)
	c.Inc(CtrGenerated)
	c.Observe(MaxPeakStored, 7)
	c.Observe(MaxPeakStored, 3)
	if got := c.Counter(CtrGenerated); got != 11 {
		t.Fatalf("counter = %d, want 11", got)
	}
	if got := c.Watermark(MaxPeakStored); got != 7 {
		t.Fatalf("watermark = %d, want 7", got)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.Add(CtrNodes, 5)
	c.Inc(CtrNodes)
	c.Observe(MaxRList, 9)
	c.Record(HistListBefore, 4)
	c.RecordSpan(Span{Name: "x"})
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	if c.Now() != 0 {
		t.Fatal("nil collector has a clock")
	}
	if c.Counter(CtrNodes) != 0 || c.Watermark(MaxRList) != 0 {
		t.Fatal("nil collector reads nonzero")
	}
	if c.Shard() != nil {
		t.Fatal("nil shard should stay nil")
	}
	r := c.Report()
	if r.Schema != Schema {
		t.Fatalf("nil report schema %q", r.Schema)
	}
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatalf("nil trace: %v", err)
	}
}

func TestConcurrentRecordingIsExact(t *testing.T) {
	c := New()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(CtrNodes)
				c.Observe(MaxRList, int64(g*per+i))
				c.Record(HistListBefore, int64(i))
			}
		}(g)
	}
	wg.Wait()
	if got := c.Counter(CtrNodes); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := c.Watermark(MaxRList); got != goroutines*per-1 {
		t.Fatalf("watermark = %d, want %d", got, goroutines*per-1)
	}
	s := c.hists[HistListBefore].Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("hist count = %d, want %d", s.Count, goroutines*per)
	}
	if s.Min != 0 || s.Max != per-1 {
		t.Fatalf("hist min/max = %d/%d", s.Min, s.Max)
	}
}

// TestMergeIsOrderIndependent folds the same shards in two different
// orders and demands identical canonical reports — the commutativity that
// underwrites the Workers=1 vs Workers=N bit-identity guarantee.
func TestMergeIsOrderIndependent(t *testing.T) {
	mkShards := func(parent *Collector) []*Collector {
		a, b, c := parent.Shard(), parent.Shard(), parent.Shard()
		a.Add(CtrGenerated, 100)
		a.Observe(MaxPeakStored, 40)
		a.Record(HistListBefore, 12)
		b.Add(CtrGenerated, 50)
		b.Observe(MaxPeakStored, 90)
		b.Record(HistListBefore, 7)
		c.Inc(CtrRSelections)
		c.Add(CtrRSelectionError, 33)
		c.Record(HistListBefore, 7)
		return []*Collector{a, b, c}
	}
	r1 := New()
	s := mkShards(r1)
	r1.Merge(s[0], s[1], s[2])
	r2 := New()
	s = mkShards(r2)
	r2.Merge(s[2], s[0], s[1])
	j1, err := r1.Report().Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.Report().Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("merge order changed the canonical report:\n%s\nvs\n%s", j1, j2)
	}
	if got := r1.Counter(CtrGenerated); got != 150 {
		t.Fatalf("merged counter = %d, want 150", got)
	}
	if got := r1.Watermark(MaxPeakStored); got != 90 {
		t.Fatalf("merged watermark = %d, want 90", got)
	}
}

func TestMergeSpansAndTracks(t *testing.T) {
	root := New()
	sh := root.Shard()
	sh.RecordSpan(Span{Name: "n1", Cat: "eval", Track: 2, Start: time.Millisecond, Dur: time.Millisecond})
	sh.RecordSpan(Span{Name: "n2", Cat: "eval", Track: 2, Start: 3 * time.Millisecond, Dur: time.Millisecond})
	root.RecordSpan(Span{Name: "evaluate", Cat: CatStage, Dur: 5 * time.Millisecond})
	root.Merge(sh)
	r := root.Report()
	if r.Runtime.SpanCount != 3 {
		t.Fatalf("span count = %d, want 3", r.Runtime.SpanCount)
	}
	if len(r.Runtime.Stages) != 1 || r.Runtime.Stages[0].Name != "evaluate" {
		t.Fatalf("stages = %+v", r.Runtime.Stages)
	}
	var tr *TrackStat
	for i := range r.Runtime.Tracks {
		if r.Runtime.Tracks[i].Track == 2 {
			tr = &r.Runtime.Tracks[i]
		}
	}
	if tr == nil || tr.Spans != 2 || tr.BusyNs != (2*time.Millisecond).Nanoseconds() {
		t.Fatalf("track 2 = %+v", tr)
	}
}

func TestReportRoundTrip(t *testing.T) {
	c := New()
	c.Add(CtrGenerated, 123)
	c.Add(CtrCSPPSolves, 4)
	c.Observe(MaxPeakStored, 99)
	c.Record(HistListBefore, 5)
	c.Record(HistNodeEvalNs, 1500)
	c.RecordSpan(Span{Name: "evaluate", Cat: CatStage, Dur: time.Millisecond, Args: map[string]int64{"nodes": 9}})
	raw, err := c.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	raw2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("report does not round-trip:\n%s\nvs\n%s", raw, raw2)
	}
	if back.Counters["optimizer.generated"] != 123 {
		t.Fatalf("counters = %v", back.Counters)
	}
	if back.Runtime.Counters["cspp.solves"] != 4 {
		t.Fatalf("runtime counters = %v", back.Runtime.Counters)
	}
	if _, err := ParseReport([]byte(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("bogus schema accepted")
	}
}

func TestTraceExportShape(t *testing.T) {
	c := New()
	c.RecordSpan(Span{Name: "n0 leaf", Cat: "eval", Track: 0, Start: 0, Dur: 2 * time.Microsecond})
	c.RecordSpan(Span{Name: "n1 vcut", Cat: "eval", Track: 1, Start: 3 * time.Microsecond, Dur: 4 * time.Microsecond, Args: map[string]int64{"node": 1}})
	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Two thread_name metadata events plus two complete events.
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Pid != 1 {
				t.Fatalf("pid = %d", ev.Pid)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("events: %d metadata, %d complete", meta, complete)
	}
	// The second span's timestamp is 3µs.
	last := doc.TraceEvents[len(doc.TraceEvents)-1]
	if last.Ts != 3 || last.Dur != 4 {
		t.Fatalf("ts/dur = %v/%v, want 3/4", last.Ts, last.Dur)
	}
}

func TestDebugServer(t *testing.T) {
	c := New()
	c.Add(CtrNodes, 42)
	srv, addr, err := StartDebugServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	rep, err := ParseReport(get("/debug/report"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["optimizer.nodes"] != 42 {
		t.Fatalf("live report counters = %v", rep.Counters)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("expvar output: %v", err)
	}
	if _, ok := vars["floorplan_telemetry"]; !ok {
		t.Fatal("floorplan_telemetry not published to expvar")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("pprof cmdline empty")
	}
}
