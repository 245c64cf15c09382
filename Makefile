GO ?= go

.PHONY: build test vet fmt check race docs-check bench-selftest fuzz-smoke e2e-smoke bench bench-codec bench-tables bench-suite bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: fmt vet build test docs-check

# Everything under the race detector: every test in the module, including
# the fleet, enumeration, policy and temporal suites and the fuzz targets'
# seed corpora. CI runs this.
race:
	$(GO) test -race ./...

# The repository benchmark's harness self-test under the race detector: all
# three workloads at toy scale, traced and untraced, the input-cache and drift
# checks, the span and percentile arithmetic, and BENCHMARK.json against the
# code. bench/ is a module of its own, so `go test ./...` does not reach it.
bench-selftest:
	cd bench && $(GO) test -race .

# The documentation gate: the godoc lint (undocumented facade exports,
# packages without doc comments), the relative-link check over
# README/ARCHITECTURE/docs, the cmd/* flag and internal/serve route coverage
# checks against docs/operations.md, and FUZZ_TARGETS against the tree's
# fuzz targets.
docs-check:
	$(GO) run ./cmd/docslint -root .

# Every fuzz target in the module, as package:Target. cmd/docslint fails when
# a func Fuzz* is missing here or an entry names no target.
FUZZ_TARGETS = \
	.:FuzzShardedSnapshotDecode \
	.:FuzzWindowedSnapshotDecode \
	./internal/graph:FuzzRowsOps \
	./internal/pattern:FuzzDifferentialEnumeration \
	./internal/policy:FuzzPolicyArtifactDecode \
	./internal/reservoir:FuzzReservoirOps \
	./internal/stream:FuzzBinaryEncodeDecode \
	./internal/stream:FuzzRead \
	./internal/stream:FuzzReadBinary \
	./internal/wal:FuzzWALSegmentDecode \
	./internal/window:FuzzRingOps

# A short pass over each fuzz target, one at a time; long campaigns stay
# local. Minimising a new input is capped at 1 s: at the default 60 s it
# spends the whole budget.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 30s -fuzzminimizetime 1s "$${t%%:*}"; \
	done

# End to end: the dense-community core, core-wsdl and core-temporal cells
# built with the race detector, then a 10-second load soak of a windowed
# 3-worker fleet that must finish error-free under a generous p99 bound.
e2e-smoke:
	$(GO) run -race ./cmd/wsdbench -exp suite -only core/dense,core-wsdl,core-temporal -trials 1
	$(GO) run ./cmd/wsdload -fleet 3 -window 6000 -rate 20000 -duration 10s -max-p99 250

# Ingestion throughput on the dense-community 4-clique stream: one worker fed
# per event (submit) or in batches (pipeline) vs split-budget ensembles of 2,
# 4 and 8 shards — the benchsuite cells gated against BENCH_baseline.json.
bench:
	$(GO) run ./cmd/wsdbench -exp suite -only submit,pipeline/dense,shard2,shard4/dense,shard8

# Binary vs text decode throughput on a 1M-event stream (the binary codec's
# acceptance benchmark: binary must decode at >= 2x the text rate).
bench-codec:
	$(GO) test -run xxx -bench Decode -benchtime 3x ./internal/stream/

# Every paper table/figure at the quick profile (slow), one sub-benchmark per
# experiment.Registry entry: -bench 'Artifacts/table3$$' runs one, and
# -cpuprofile profiles it.
bench-tables:
	$(GO) test -run xxx -bench Artifacts -benchtime 1x .

# The ingest regression suite: record a machine-readable perf report.
bench-suite:
	$(GO) run ./cmd/wsdbench -exp suite -json > BENCH_$$(date +%F).json
	@echo "wrote BENCH_$$(date +%F).json"

# Gate the current tree against the committed baseline (exit 1 on >10%
# regression; allocs/event is machine-independent, events/s is not — loosen
# -tolerance when comparing across machines).
bench-compare:
	$(GO) run ./cmd/wsdbench -exp suite -json > /tmp/bench_current.json
	$(GO) run ./cmd/wsdbench -compare BENCH_baseline.json /tmp/bench_current.json
