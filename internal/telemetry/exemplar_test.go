package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// testTrace builds a distinct non-zero 16-byte trace ID from a seed.
func testTrace(seed byte) [16]byte {
	var tr [16]byte
	for i := range tr {
		tr[i] = seed + byte(i)
	}
	return tr
}

// TestExemplarStoreLoad: the seqlock slot round-trips a published exemplar
// and reports empty before any store.
func TestExemplarStoreLoad(t *testing.T) {
	var h Histogram
	if e := h.exemplarAt(17); e != nil {
		t.Fatalf("empty histogram returned exemplar %+v", e)
	}
	hi, lo := exemplarWords(testTrace(1))
	h.ObserveExemplar(100, hi, lo, 42)
	e := h.exemplarAt(bucketIndex(100))
	if e == nil {
		t.Fatal("exemplar not published")
	}
	if e.TraceID != traceHex(hi, lo) || e.Value != 100 || e.UnixMs != 42 {
		t.Fatalf("exemplar mismatch: %+v", e)
	}
	if e := h.exemplarAt(bucketIndex(5000)); e != nil {
		t.Fatalf("unexemplared bucket returned %+v", e)
	}
}

// TestExemplarZeroTraceSkipped: a zero trace records the observation but
// publishes no exemplar and allocates no slot table.
func TestExemplarZeroTraceSkipped(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(100, 0, 0, 42)
	if n := h.Snapshot().Count; n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	if h.ex.Load() != nil {
		t.Fatal("zero-trace observation allocated the exemplar table")
	}
	c := New()
	c.RecordExemplar(HistServeMissNs, 100, [16]byte{})
	if c.hists[HistServeMissNs].Snapshot().Count != 1 {
		t.Fatal("RecordExemplar with zero trace dropped the observation")
	}
}

// TestExemplarLastWriterWins: repeated observations into the same bucket
// leave the latest store published.
func TestExemplarLastWriterWins(t *testing.T) {
	var h Histogram
	for i := 1; i <= 5; i++ {
		hi, lo := exemplarWords(testTrace(byte(i)))
		h.ObserveExemplar(100, hi, lo, int64(i))
	}
	e := h.exemplarAt(bucketIndex(100))
	if e == nil || e.UnixMs != 5 {
		t.Fatalf("want last store (unixMs 5), got %+v", e)
	}
}

// TestExemplarMergeNewerWins: Histogram.Merge keeps the newer capture per
// bucket regardless of merge direction.
func TestExemplarMergeNewerWins(t *testing.T) {
	hiA, loA := exemplarWords(testTrace(0xa0))
	hiB, loB := exemplarWords(testTrace(0xb0))
	for _, dir := range []string{"newer-into-older", "older-into-newer"} {
		var old, new Histogram
		old.ObserveExemplar(100, hiA, loA, 10)
		new.ObserveExemplar(100, hiB, loB, 20)
		dst, src := &old, &new
		if dir == "older-into-newer" {
			dst, src = &new, &old
		}
		dst.Merge(src)
		e := dst.exemplarAt(bucketIndex(100))
		if e == nil || e.TraceID != traceHex(hiB, loB) {
			t.Fatalf("%s: want newer exemplar %s, got %+v", dir, traceHex(hiB, loB), e)
		}
		if n := dst.Snapshot().Count; n != 2 {
			t.Fatalf("%s: count = %d, want 2", dir, n)
		}
	}
}

// TestCollectorMergeExemplarRace is the race-detector stress for the
// seqlock: shards record exemplared observations while the root collector
// merges them and a reader snapshots — concurrent store/storeNewer/load on
// the same slots. Run under -race (make race does).
func TestCollectorMergeExemplarRace(t *testing.T) {
	root := New()
	const workers = 4
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sh := root.Shard()
				hi, lo := exemplarWords(testTrace(byte(w*16 + i%16 + 1)))
				sh.hists[HistServeMissNs].ObserveExemplar(int64(i%300), hi, lo, int64(i))
				root.hists[HistServeMissNs].ObserveExemplar(int64(i%300), hi, lo, int64(i))
				root.Merge(sh)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf jsonDiscard
		for i := 0; i < iters; i++ {
			s := root.hists[HistServeMissNs].Snapshot()
			for _, b := range s.Buckets {
				if b.Exemplar != nil && len(b.Exemplar.TraceID) != 32 {
					panic(fmt.Sprintf("torn exemplar read: %+v", b.Exemplar))
				}
			}
			_ = root.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	want := int64(2 * workers * iters)
	if got := root.hists[HistServeMissNs].Snapshot().Count; got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
}

type jsonDiscard struct{}

func (jsonDiscard) Write(p []byte) (int, error) { return len(p), nil }

// TestExemplarSnapshotJSONRoundTrip: an exemplar survives Snapshot →
// JSON → HistSnapshot (the /v1/stats path the cluster aggregator decodes),
// and snapshot-level Merge keeps the newer capture.
func TestExemplarSnapshotJSONRoundTrip(t *testing.T) {
	var h Histogram
	hi, lo := exemplarWords(testTrace(7))
	h.ObserveExemplar(900, hi, lo, 1234)
	h.Observe(3)

	raw, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s HistSnapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	var found *Exemplar
	for _, b := range s.Buckets {
		if b.Exemplar != nil {
			if found != nil {
				t.Fatalf("multiple exemplars after round trip")
			}
			found = b.Exemplar
		}
	}
	if found == nil || found.TraceID != traceHex(hi, lo) || found.Value != 900 || found.UnixMs != 1234 {
		t.Fatalf("exemplar did not survive JSON round trip: %+v", found)
	}

	// Merge a second node's snapshot carrying a newer exemplar in the same
	// bucket: the merged snapshot must keep the newer one.
	var h2 Histogram
	hi2, lo2 := exemplarWords(testTrace(9))
	h2.ObserveExemplar(900, hi2, lo2, 5678)
	s2 := h2.Snapshot()
	s.Merge(s2)
	for _, b := range s.Buckets {
		if b.Lo <= 900 && 900 < b.Hi {
			if b.Exemplar == nil || b.Exemplar.TraceID != traceHex(hi2, lo2) {
				t.Fatalf("snapshot merge kept older exemplar: %+v", b.Exemplar)
			}
			if b.N != 2 {
				t.Fatalf("merged bucket count = %d, want 2", b.N)
			}
		}
	}
}

// TestHistSnapshotDelta: the window between two cumulative snapshots holds
// exactly the observations recorded in between, carries the bucket
// exemplars forward, and an empty window is fully zero.
func TestHistSnapshotDelta(t *testing.T) {
	var h Histogram
	h.Observe(10)
	h.Observe(1000)
	prev := h.Snapshot()

	if d := prev.Delta(prev); d.Count != 0 || len(d.Buckets) != 0 {
		t.Fatalf("self-delta not empty: %+v", d)
	}

	hi, lo := exemplarWords(testTrace(3))
	h.ObserveExemplar(1000, hi, lo, 99)
	h.Observe(50)
	cur := h.Snapshot()

	d := cur.Delta(prev)
	if d.Count != 2 {
		t.Fatalf("delta count = %d, want 2", d.Count)
	}
	if d.Sum != 1050 {
		t.Fatalf("delta sum = %d, want 1050", d.Sum)
	}
	var exemplared int
	for _, b := range d.Buckets {
		if b.Lo <= 50 && 50 < b.Hi && b.N != 1 {
			t.Fatalf("window bucket for 50 has N=%d, want 1", b.N)
		}
		if b.Exemplar != nil {
			exemplared++
			if b.Exemplar.TraceID != traceHex(hi, lo) {
				t.Fatalf("delta exemplar mismatch: %+v", b.Exemplar)
			}
		}
	}
	if exemplared != 1 {
		t.Fatalf("delta carried %d exemplars, want 1", exemplared)
	}
	if d.Quantile(1) > cur.Max {
		t.Fatalf("delta max %d exceeds cumulative max %d", d.Quantile(1), cur.Max)
	}
}
