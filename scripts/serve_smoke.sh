#!/bin/sh
# serve_smoke.sh boots fpserve on a random port, drives it end to end with
# `fpbench -server` (health check, trace-ID round-trip, two optimize
# round-trips, cache hit-rate and byte-identity verification), scrapes
# GET /metrics for the Prometheus exposition, fetches the slow-request
# capture from GET /debug/slow (the threshold is set artificially low so
# every request qualifies), checks the structured access log and that a
# capture and its access-log line agree on span_id and disposition,
# exiting non-zero on any failure.
# Invoked by `make obs-check` and, through it, `make check`.
set -eu

GO="${GO:-go}"
workdir="$(mktemp -d)"
server_pid=""

cleanup() {
    status=$?
    if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
        kill "$server_pid" 2>/dev/null || true
        wait "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
    exit $status
}
trap cleanup EXIT INT TERM

"$GO" build -o "$workdir/fpserve" ./cmd/fpserve
"$GO" build -o "$workdir/fpbench" ./cmd/fpbench

"$workdir/fpserve" -addr localhost:0 -addr-file "$workdir/addr" \
    -cache-mb 16 -workers 2 -slow-threshold 1ns 2>"$workdir/fpserve.log" &
server_pid=$!

# Wait for the server to publish its bound address.
i=0
while [ ! -s "$workdir/addr" ]; do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "serve-smoke: fpserve died during startup:" >&2
        cat "$workdir/fpserve.log" >&2
        exit 1
    fi
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "serve-smoke: fpserve did not publish an address in time" >&2
        exit 1
    fi
    sleep 0.1
done

addr="$(cat "$workdir/addr")"
"$workdir/fpbench" -server "http://$addr"

# The Prometheus exposition must be scrapeable and populated: the request
# counter family reflects the traffic fpbench just drove, and the latency
# histograms emit cumulative buckets.
curl -sf "http://$addr/metrics" >"$workdir/metrics"
grep -q '^floorplan_server_requests_total [1-9]' "$workdir/metrics" || {
    echo "serve-smoke: /metrics missing a populated floorplan_server_requests_total" >&2
    cat "$workdir/metrics" >&2
    exit 1
}
grep -q '_bucket{le="' "$workdir/metrics" || {
    echo "serve-smoke: /metrics has no histogram bucket samples" >&2
    exit 1
}

# Tail attribution: with the capture threshold at 1ns every request
# fpbench drove is "slow", so GET /debug/slow must return at least one
# captured optimize request with its trace identity and latency
# decomposition.
curl -sf "http://$addr/debug/slow" >"$workdir/slow"
grep -q '"path":"/v1/optimize"' "$workdir/slow" || {
    echo "serve-smoke: /debug/slow captured no optimize request" >&2
    cat "$workdir/slow" >&2
    exit 1
}
grep -q '"trace_id":"' "$workdir/slow" || {
    echo "serve-smoke: /debug/slow capture carries no trace_id" >&2
    exit 1
}
grep -q '"elapsed_ms":' "$workdir/slow" || {
    echo "serve-smoke: /debug/slow capture carries no latency decomposition" >&2
    exit 1
}

# The structured access log must carry per-request records with trace IDs.
grep -q '"msg":"request".*"path":"/v1/optimize".*"trace_id":' "$workdir/fpserve.log" || {
    echo "serve-smoke: no structured access-log record for /v1/optimize:" >&2
    cat "$workdir/fpserve.log" >&2
    exit 1
}

# One record feeds both outputs: the first captured optimize request's
# span_id names an access-log line with the same disposition. The match
# cannot cross a '{', so it stays inside one capture and ends before the
# capture's span tree.
capture="$(grep -o '"span_id":"[0-9a-f]*"[^{]*"path":"/v1/optimize"[^{]*"disposition":"[a-z_]*"' \
    "$workdir/slow" | head -n 1)"
span="$(echo "$capture" | sed 's/^"span_id":"\([0-9a-f]*\)".*/\1/')"
disposition="$(echo "$capture" | sed 's/.*"disposition":"\([a-z_]*\)"$/\1/')"
grep '"msg":"request"' "$workdir/fpserve.log" | grep "\"span_id\":\"$span\"" |
    grep -q "\"disposition\":\"$disposition\"" || {
    echo "serve-smoke: capture span_id '$span' (disposition '$disposition') has no matching access-log line" >&2
    cat "$workdir/slow" "$workdir/fpserve.log" >&2
    exit 1
}

# Graceful shutdown must drain cleanly (fpserve exits 0 on SIGTERM).
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
echo "serve-smoke: OK (http://$addr)"
