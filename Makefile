# Developer entry points. `make check` is the CI gate: vet plus the full
# test suite under the race detector (the parallel evaluator, annealer and
# table grid are all exercised concurrently by their tests), focused race
# passes over the telemetry collector, the shared LRU, the arenas and the
# serving path, the observability goldens, the benchmark module's vet and
# tests, and the edit-loop, serve, load and cluster smokes. Performance is
# measured by the benchmark in bench/ (see bench/README.md), not by make.

GO ?= go

.PHONY: all build test race vet bench bench-report bench-module race-arena serve-smoke load-smoke cluster-smoke race-serve editloop-smoke obs-check check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also enforces gofmt: a formatting drift fails the gate with the list
# of offending files rather than surfacing as diff noise in review.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Short-mode suite under the race detector; must stay race-clean.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -run NONE -bench EvalParallel -benchtime 3x .

# bench-report runs the CI-scale grid with telemetry and writes the merged
# run report plus per-table BENCH json. fpbench itself re-parses the report
# (telemetry.ParseReport) and exits non-zero if it does not round-trip, so
# this target fails on any report schema or marshalling regression.
bench-report: build
	mkdir -p bench-out
	$(GO) run ./cmd/fpbench -smoke -quiet -benchjson bench-out -report bench-out/report.json

# bench-module vets and tests the repository benchmark (`bench/`, run by
# `bash bench/run.sh`). It is its own Go module, so the root `./...`
# patterns never compile it; this target catches a change to a package it
# imports that would break the benchmark.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Focused race pass over the arena-backed evaluation hot path: the slab
# arenas themselves plus the parallel optimizer that resets them per node.
race-arena:
	$(GO) test -race -count=2 ./internal/arena/...
	$(GO) test -race -run 'TestWorkersBitIdentical|TestParallelMemoryLimit' ./internal/optimizer/

# serve-smoke boots fpserve on a random port and drives it through the
# HTTP API with `fpbench -server` (health check, a concurrent burst that
# must report the "coalesced" disposition, cache hit-rate and byte-identity
# verification, client retry policy); non-zero exit on failure.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh

# load-smoke boots fpserve and runs the open-loop load harness against it:
# a constant/ramp/burst schedule whose SLO assertions must pass, then a
# deliberately impossible SLO that must fail the run (the gate's negative
# control); non-zero exit on either going wrong.
load-smoke:
	GO="$(GO)" sh scripts/load_smoke.sh

# cluster-smoke boots a 3-node fpserve ring plus a single-node reference
# and asserts the multi-node tier end to end: cluster-wide dedup (one
# optimizer run for a burst of identical fingerprints across all nodes,
# byte-identical to the reference), a passing skewed load run spread over
# all three nodes, and graceful degradation (peer_fallback, zero failures)
# when one node is killed mid-run.
cluster-smoke:
	GO="$(GO)" sh scripts/cluster_smoke.sh

# Focused race pass over the serving hot path: the flight coalescing group,
# the cluster ring/forwarding layer, the subtree result store and the
# server's shared-computation plumbing.
race-serve:
	$(GO) test -race -count=2 ./internal/flight/... ./internal/cluster/... ./internal/server/... ./internal/substore/...

# editloop-smoke is the incremental re-optimization gate: fpbench's edit
# loop asserts that re-solving after a one-module edit evaluates only the
# root-to-leaf spine (subtree store splices the rest) and stays
# bit-identical to store-off runs at workers 1 and 8.
editloop-smoke: build
	$(GO) run ./cmd/fpbench -editloop -edit-iters 6

# obs-check gates the observability surface: vet over the trace/log
# packages, the Prometheus exposition golden + metric-metadata lint tests,
# and the serve smoke (which scrapes /metrics and greps the access log).
obs-check:
	$(GO) vet ./internal/reqid/... ./internal/slogx/... ./internal/telemetry/...
	$(GO) test -run 'TestPrometheus|TestMetricMeta' ./internal/telemetry/
	$(GO) test ./internal/reqid/... ./internal/slogx/...
	GO="$(GO)" sh scripts/serve_smoke.sh

check: vet race obs-check race-serve race-arena bench-module editloop-smoke load-smoke cluster-smoke
	$(GO) test -race ./internal/telemetry/... ./internal/cache/...
