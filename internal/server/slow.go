package server

import (
	"net/http"
	"sync"
	"time"
)

// Server-side tail attribution: when Config.SlowThreshold is set, the
// RequestRecord of every request whose end-to-end latency reaches it is
// captured into a bounded ring — the record the access log writes
// (identity, response envelope, the queue/compute/coalesce decomposition
// from its flight), plus the capture time and the optimizer span tree the
// computation recorded. GET /debug/slow returns and drains the ring, so an
// operator chasing a tail spike gets the *attribution* for the slowest
// requests (where the time went, node by node) without grepping logs or
// correlating a trace export after the fact.

// slowCapacity bounds the capture ring; when full, the oldest capture is
// evicted.
const slowCapacity = 64

// slowRing is the bounded capture buffer. Captures are rare by definition
// (tail requests only), so a mutex-guarded slice beats cleverness; when
// full, the oldest capture is evicted — the ring always holds the newest
// evidence.
type slowRing struct {
	mu       sync.Mutex
	capacity int
	buf      []RequestRecord
	captured int64 // total captures ever
	evicted  int64 // captures displaced before being read
}

func newSlowRing(capacity int) *slowRing {
	return &slowRing{capacity: capacity}
}

// add captures a finished request's record, with the capture time and the
// span tree of the computation it waited on.
func (r *slowRing) add(rec RequestRecord) {
	rec.CapturedUnixMs = time.Now().UnixMilli()
	if rec.flight != nil {
		if sp := rec.flight.spans.Load(); sp != nil {
			rec.Spans = *sp
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.captured++
	if len(r.buf) >= r.capacity {
		n := copy(r.buf, r.buf[1:])
		r.buf = r.buf[:n]
		r.evicted++
	}
	r.buf = append(r.buf, rec)
}

// drain returns the captured requests (oldest first) and scrubs the ring,
// so each capture is reported exactly once and the buffer never serves
// stale evidence twice.
func (r *slowRing) drain() (reqs []RequestRecord, captured, evicted int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	reqs = r.buf
	r.buf = nil
	return reqs, r.captured, r.evicted
}

// peek returns a copy of the buffered captures without scrubbing them — the
// non-destructive read behind GET /debug/slow?keep=1, so a human can look at
// the evidence without stealing it from the alerting pipeline's next drain.
func (r *slowRing) peek() (reqs []RequestRecord, captured, evicted int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) > 0 {
		reqs = append([]RequestRecord(nil), r.buf...)
	}
	return reqs, r.captured, r.evicted
}

// slowResponse is the GET /debug/slow reply.
type slowResponse struct {
	ThresholdMs float64 `json:"threshold_ms"`
	Capacity    int     `json:"capacity"`
	// Captured counts every capture since start; Evicted counts captures
	// displaced unread by newer ones. Requests holds (and scrubs) the
	// currently buffered captures, oldest first.
	Captured int64           `json:"captured"`
	Evicted  int64           `json:"evicted"`
	Requests []RequestRecord `json:"requests"`
}

// handleSlow serves GET /debug/slow: the buffered tail captures, scrubbed
// on read. ?keep=1 peeks without scrubbing, so an interactive look does not
// steal captures from whatever automation drains the ring.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.slow == nil {
		writeError(w, http.StatusNotFound, "slow-request capture disabled (set SlowThreshold)")
		return
	}
	read := s.slow.drain
	if r.URL.Query().Get("keep") == "1" {
		read = s.slow.peek
	}
	reqs, captured, evicted := read()
	if reqs == nil {
		reqs = []RequestRecord{}
	}
	writeJSON(w, http.StatusOK, &slowResponse{
		ThresholdMs: durMs(s.cfg.SlowThreshold),
		Capacity:    s.slow.capacity,
		Captured:    captured,
		Evicted:     evicted,
		Requests:    reqs,
	})
}
