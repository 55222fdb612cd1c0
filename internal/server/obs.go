package server

import (
	"context"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"floorplan/internal/reqid"
	"floorplan/internal/telemetry"
)

// This file is the server's request-scoped observability plumbing: every
// endpoint runs inside withObservability, which extracts (or mints) the
// request's W3C trace context and hands the handler one RequestRecord
// through the request context. After the reply the middleware writes that
// record once: to the per-disposition latency histogram (and, under
// Config.KeepSpans, a serve span), to the GET /debug/slow ring when it
// reached Config.SlowThreshold, and to the access log. respond builds the
// reply's ResponseRuntime from the same record.

// RequestRecord is everything the server reports about one request, and
// the GET /debug/slow element. The handler goroutine owns it; the timing
// of the computation it waited on is read from the flight tag once, after
// the reply.
type RequestRecord struct {
	// TraceID/SpanID are the request's identity: the trace ID propagated
	// from the client's traceparent header (or minted here) and a fresh
	// server-side span ID. ParentSpanID is the client's span, when it sent
	// one.
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	Method       string `json:"method"`
	Path         string `json:"path"`
	Status       int    `json:"status"`
	Bytes        int64  `json:"bytes"`
	// Disposition classifies how an optimize request was answered: hit,
	// miss, coalesced, bypass, off, shed, draining, timeout_queued,
	// timeout_computing, invalid, error — plus the cluster set: forwarded
	// (answered by the owning peer), peer_fallback (owner unreachable,
	// computed locally), forwarded_shed and forwarded_error (owner's
	// non-2xx relayed). Empty for other endpoints.
	Disposition string `json:"disposition,omitempty"`
	// FlightTraceID names the leader's trace when this request coalesced
	// onto another request's computation; the spans below belong to it.
	FlightTraceID string `json:"flight_trace_id,omitempty"`
	// NodeID names the node that served the request, ForwardedTo the
	// owning peer its key was (or would have been) forwarded to, and
	// InternalFrom the origin node of an intra-cluster hop.
	NodeID       string `json:"node_id,omitempty"`
	ForwardedTo  string `json:"forwarded_to,omitempty"`
	InternalFrom string `json:"internal_from,omitempty"`
	// CapturedUnixMs is the capture wall-clock time (captures only).
	CapturedUnixMs int64 `json:"captured_unix_ms"`

	// The latency decomposition: ElapsedMs is end-to-end; QueueWaitMs is
	// the computation's wait for a worker slot; ComputeMs is optimization
	// wall time; ForwardMs is the peer hop on forwarded requests;
	// UnattributedMs is the remainder (decode, marshal, response write,
	// and — for followers — waiting on a flight that started before this
	// request arrived). All zero except ElapsedMs and UnattributedMs when
	// the request never waited on a computation (hits, shed, invalid).
	ElapsedMs      float64 `json:"elapsed_ms"`
	QueueWaitMs    float64 `json:"queue_wait_ms,omitempty"`
	ComputeMs      float64 `json:"compute_ms,omitempty"`
	ForwardMs      float64 `json:"forward_ms,omitempty"`
	UnattributedMs float64 `json:"unattributed_ms,omitempty"`

	// Spans is the span tree the answering computation's optimizer run
	// recorded (stage and node spans), kept in captures even when the
	// server's collector discards per-request spans (Config.KeepSpans off).
	Spans []telemetry.Span `json:"spans,omitempty"`

	trace   reqid.Context // the identity TraceID and SpanID render
	started time.Time
	// flight is the computation this request waited on; nil for cache hits
	// and early exits.
	flight *flightMeta
}

// flightMeta is the annotation the leader stamps on its flight call
// (flight.Call.SetTag): the identity of the computation every coalesced
// follower shares, plus its timing. The timing slots are written by the
// detached computation goroutine and read by each waiter's handler
// goroutine, hence atomics.
type flightMeta struct {
	trace   reqid.Context
	traceID string // trace.TraceID in hex, the leader's RequestRecord.TraceID
	// forwardedTo is the owning peer the leader forwarded to ("" for local
	// computations); copied to coalesced waiters for tail attribution.
	forwardedTo string
	queueWaitNs atomic.Int64 // wait for a worker slot before Begin
	computeNs   atomic.Int64 // optimization wall time
	forwardNs   atomic.Int64 // wall time of the peer hop (forwarded calls)
	// fellBack flips when the owner never answered and the flight degraded
	// to a local computation; waiters report peer_fallback instead of
	// forwarded.
	fellBack atomic.Bool
	// subSpliced/subComputed are the computation's subtree-store scorecard
	// (nodes resolved from the store vs. evaluated), written by the
	// detached computation goroutine and copied into every sharing
	// request's ResponseRuntime. Zero when the substore is off.
	subSpliced  atomic.Int64
	subComputed atomic.Int64
	// spans is the computation's span tree, stashed by compute when slow
	// capture is on (nil otherwise); shared by every coalesced waiter.
	spans atomic.Pointer[[]telemetry.Span]
}

// recordKey keys the RequestRecord in the request context.
type recordKey struct{}

// recordFrom returns the record of a request served through
// withObservability, as every route is.
func recordFrom(ctx context.Context) *RequestRecord {
	return ctx.Value(recordKey{}).(*RequestRecord)
}

// recordWriter is the ResponseWriter handlers write through: it holds the
// request's record and counts the status and body bytes into it.
type recordWriter struct {
	http.ResponseWriter
	rec RequestRecord
}

func (w *recordWriter) WriteHeader(code int) {
	if w.rec.Status == 0 {
		w.rec.Status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordWriter) Write(p []byte) (int, error) {
	if w.rec.Status == 0 {
		w.rec.Status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.rec.Bytes += int64(n)
	return n, err
}

// withObservability wraps one endpoint: it opens the request's record,
// runs the handler and writes the finished record to each output once.
func (s *Server) withObservability(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rw := &recordWriter{ResponseWriter: w}
		rec := &rw.rec
		rec.started = time.Now()
		if tc, err := reqid.Parse(r.Header.Get("traceparent")); err == nil {
			// Same trace as the caller, fresh span for the server's work.
			rec.trace = tc.Child()
			rec.ParentSpanID = tc.SpanID.String()
		} else {
			rec.trace = reqid.New()
		}
		rec.TraceID, rec.SpanID = rec.trace.TraceID.String(), rec.trace.SpanID.String()
		rec.Method, rec.Path, rec.NodeID = r.Method, r.URL.Path, s.cfg.NodeID
		h(rw, r.WithContext(context.WithValue(r.Context(), recordKey{}, rec)))

		elapsed := time.Since(rec.started)
		rec.finish(elapsed)
		if hist, ok := dispositionHist(rec.Disposition); ok {
			// The request's trace ID rides along as the bucket's exemplar, so
			// a latency bucket on /metrics or in a cluster merge links to a
			// real trace in this node's access log.
			s.tel.RecordExemplar(hist, elapsed.Nanoseconds(), rec.trace.TraceID)
			if s.cfg.KeepSpans {
				s.tel.RecordSpan(telemetry.Span{
					Name:    "optimize " + rec.Disposition,
					Cat:     "serve",
					Start:   s.tel.Now() - elapsed,
					Dur:     elapsed,
					TraceID: rec.TraceID,
				})
			}
		}
		if s.slow != nil && elapsed >= s.cfg.SlowThreshold {
			s.slow.add(*rec)
		}
		s.logAccess(r.Context(), rec)
	}
}

// finish fills the record's status and latency decomposition once the
// reply is written.
func (rec *RequestRecord) finish(elapsed time.Duration) {
	if rec.Status == 0 {
		rec.Status = http.StatusOK
	}
	rec.ElapsedMs = durMs(elapsed)
	rest := rec.ElapsedMs
	if m := rec.flight; m != nil {
		rec.QueueWaitMs = durMs(time.Duration(m.queueWaitNs.Load()))
		rec.ComputeMs = durMs(time.Duration(m.computeNs.Load()))
		rec.ForwardMs = durMs(time.Duration(m.forwardNs.Load()))
		rest -= rec.QueueWaitMs + rec.ComputeMs + rec.ForwardMs
	}
	rec.UnattributedMs = max(rest, 0)
}

// dispositionHist maps an optimize disposition onto its end-to-end
// latency histogram. Unknown (including empty) dispositions record
// nothing.
func dispositionHist(d string) (telemetry.Hist, bool) {
	switch d {
	case "hit":
		return telemetry.HistServeHitNs, true
	case "miss":
		return telemetry.HistServeMissNs, true
	case "coalesced":
		return telemetry.HistServeCoalescedNs, true
	case "bypass", "off":
		return telemetry.HistServeBypassNs, true
	case "forwarded":
		return telemetry.HistServeForwardedNs, true
	case "peer_fallback":
		return telemetry.HistServeFallbackNs, true
	case "shed", "draining", "timeout_queued", "timeout_computing", "forwarded_shed":
		return telemetry.HistServeShedNs, true
	case "invalid", "error", "forwarded_error":
		return telemetry.HistServeErrorNs, true
	}
	return 0, false
}

// durMs renders a duration as fractional milliseconds for log records.
func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// logAccess writes the record as one access-log line: the keys of its JSON
// form but captured_unix_ms and spans, left out when empty as there, except
// that queue_wait_ms and compute_ms appear exactly when the request waited
// on a computation, zero or not. Scrape traffic (/metrics) logs at debug so
// a 15-second Prometheus interval does not drown the request log.
func (s *Server) logAccess(ctx context.Context, rec *RequestRecord) {
	if s.logger == nil {
		return
	}
	level := slog.LevelInfo
	if rec.Path == "/metrics" {
		level = slog.LevelDebug
	}
	if !s.logger.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 17)
	attrs = append(attrs,
		slog.String("method", rec.Method),
		slog.String("path", rec.Path),
		slog.Int("status", rec.Status),
		slog.Int64("bytes", rec.Bytes),
		slog.String("trace_id", rec.TraceID),
		slog.String("span_id", rec.SpanID),
		slog.Float64("elapsed_ms", rec.ElapsedMs))
	for _, a := range [...]slog.Attr{
		slog.String("node_id", rec.NodeID),
		slog.String("parent_span_id", rec.ParentSpanID),
		slog.String("disposition", rec.Disposition),
		slog.String("forwarded_to", rec.ForwardedTo),
		slog.String("internal_from", rec.InternalFrom),
		slog.String("flight_trace_id", rec.FlightTraceID),
	} {
		if a.Value.String() != "" {
			attrs = append(attrs, a)
		}
	}
	if rec.flight != nil {
		attrs = append(attrs,
			slog.Float64("queue_wait_ms", rec.QueueWaitMs),
			slog.Float64("compute_ms", rec.ComputeMs))
	}
	for _, a := range [...]slog.Attr{
		slog.Float64("forward_ms", rec.ForwardMs),
		slog.Float64("unattributed_ms", rec.UnattributedMs),
	} {
		if a.Value.Float64() != 0 {
			attrs = append(attrs, a)
		}
	}
	s.logger.LogAttrs(ctx, level, "request", attrs...)
}

// handleMetrics serves GET /metrics: the telemetry collector in Prometheus
// text exposition format. A server without a collector still renders every
// family at zero, so scrape configs never see a 404.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	_ = s.tel.WritePrometheus(w)
}
