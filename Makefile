# Developer entry points. `make check` is the CI gate: vet plus the full
# test suite under the race detector (the parallel evaluator, annealer and
# table grid are all exercised concurrently by their tests), focused race
# passes over the telemetry collector, the shared LRU, the pooled combine
# buffers and dominance-kernel scratch, the subtree records concurrent runs
# share and the serving path,
# the observability goldens, a short fuzzing pass over the dominance kernel,
# the L-block operations, R_Selection's line-envelope solver and the
# one-pass request decoder, the benchmark module's vet and tests, and the
# serve, load and cluster smokes.
# Performance is measured by the benchmark in bench/ (see bench/README.md),
# not by make.

GO ?= go

.PHONY: all build test race vet bench bench-report bench-module race-combine fuzz-smoke serve-smoke load-smoke cluster-smoke race-serve obs-check check

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

# Focused race pass over the evaluation hot path: the pooled combine
# buffers, whose results must never alias a buffer another goroutine reuses,
# the pooled dominance-kernel scratch (rank column and Fenwick tree), which
# must carry no state from one prune into the next, plus the parallel
# optimizer, the memory-limited runs it must not change, and the stored
# subtree records that concurrent runs splice and must never write to.
race-combine:
	$(GO) test -race -count=2 ./internal/combine/ ./internal/shape/
	$(GO) test -race -run 'TestWorkersBitIdentical|TestMemoryLimitWorkersAgree|TestSubstoreRecordsUnchanged' ./internal/optimizer/

# fuzz-smoke fuzzes for 10 s each, beyond the seed corpora `go test` runs:
# the 4-d minima kernel against its quadratic oracle, the four L-block
# operations against the pruned full cross products of their candidate
# formulas, R_Selection's line-envelope solver against the Monge solver on
# the same error, and the one-pass tree, library and request decoders
# against encoding/json decoding the same bytes into method-free reference
# types.
# Their corpora hold 20 KB deep-nesting seeds; minimizing each new input
# grown from one would take most of the 10 s, so minimizing stops after 1 s.
# A failing input is written under the package's testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMinimaLAgainstBrute$$' -fuzztime 10s ./internal/shape/
	$(GO) test -run '^$$' -fuzz '^FuzzLBlockOpsAgainstCrossProduct$$' -fuzztime 10s ./internal/combine/
	$(GO) test -run '^$$' -fuzz '^FuzzRSelectAgainstMonge$$' -fuzztime 10s ./internal/selection/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTree$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzParseLibrary$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/plan/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server/

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

# obs-check gates the observability surface: vet over the trace/log
# packages, the Prometheus exposition golden + metric-metadata lint tests,
# and the serve smoke (which scrapes /metrics and greps the access log).
obs-check:
	$(GO) vet ./internal/reqid/... ./internal/slogx/... ./internal/telemetry/...
	$(GO) test -run 'TestPrometheus|TestMetricMeta' ./internal/telemetry/
	$(GO) test ./internal/reqid/... ./internal/slogx/...
	GO="$(GO)" sh scripts/serve_smoke.sh

check: vet race obs-check race-serve race-combine fuzz-smoke bench-module load-smoke cluster-smoke
	$(GO) test -race ./internal/telemetry/... ./internal/cache/...
