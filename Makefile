GO ?= go

.PHONY: build test vet fmt check race docs-check bench-selftest fleet-smoke enum-smoke policy-smoke window-smoke bench bench-tables bench-suite bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: fmt vet build test

# Everything under the race detector (CI runs this; the concurrency-heavy
# packages are shard, serve, and cluster).
race:
	$(GO) test -race ./...

# The repository benchmark's harness self-test under the race detector: all
# three workloads at toy scale, traced and untraced, the input-cache and drift
# checks, the span and percentile arithmetic, and BENCHMARK.json against the
# code. bench/ is a module of its own, so `go test ./...` does not reach it.
bench-selftest:
	cd bench && $(GO) test -race .

# The documentation gate: formatting, vet, the godoc lint (undocumented
# facade exports, packages without doc comments), the relative-link check
# over README/ARCHITECTURE/docs, and the cmd/* flag and internal/serve route
# coverage checks against docs/operations.md. CI runs this on every push.
docs-check: fmt vet
	$(GO) run ./cmd/docslint -root .

# The fleet under the race detector. Every coordinator mode (broadcast,
# broadcast + WAL, partitioned, partitioned + WAL) runs one ingest path —
# route, encode and log, stamped send, ack — so one target covers them all:
# coordinator vs equal-budget in-process ensemble and routed partitions vs
# bit-identical in-process references, snapshot->restore, degraded reads, the
# fault-injection suites (worker killed mid-stream and restarted empty must
# rejoin bit-identically via log replay, coordinator crash over a torn frame
# must recover, duplicated delivery and apply-then-lost response must never
# double-apply, a short apply is never acked), the frame-identity check
# (every worker's delivered frame payloads equal its slot's logged payloads
# byte for byte, broadcast and partitioned), stamped-ingest dedup on the
# worker, the write-ahead log's unit/property/alloc guards, the
# ownership/Beta suite and the combiners, then a short fuzz pass over
# segment recovery (an append after recovery must replay as the very bytes
# appended). Every fuzz pass in this Makefile caps the minimisation of each
# new input at 1 s: at the default 60 s it spends the whole fuzz budget.
fleet-smoke:
	$(GO) test -race -run 'Cluster|Coordinator|Degraded|WAL|CatchUp|Torn|Retention|Lagging|LogMode|RestoreSeeds|Partition|SumCombine|AckAmbiguity|Idempotent|FlagConflict' ./internal/cluster/ ./internal/serve/ ./cmd/wsdserve/
	$(GO) test -race ./internal/wal/ ./internal/partition/ ./internal/combine/
	$(GO) test -run xxx -fuzz FuzzWALSegmentDecode -fuzztime 30s -fuzzminimizetime 1s ./internal/wal/

# The enumeration layer under the race detector: the differential
# property/fuzz suite (the mark-array/merge clique intersection must emit
# the identical instance multiset as the naive probe-based reference across
# all five kinds, plain and Live views, random histories), the tests of the
# one enumeration entry point MultiCompleter.ForEach (multi-kind passes,
# clique sinks beside wedge and 4-cycle callbacks, sharer scratch, its
# allocation guards) and of the Kind.*Completions conveniences, the
# reservoir intersection regression tests and its op-history suite against
# a map reference (sorted rows, degrees, heap order, the adjacency arena's
# block layout and fragmentation bound), a short fuzz pass, then the
# dense-community core cell end to end with -race on — the workload whose
# throughput the intersection layer owns. The pooled conveniences' alloc
# guard skips itself under -race (sync.Pool drops items there); `make
# test` runs it.
enum-smoke:
	$(GO) test -race -run 'Differential|PairAmong|Common|AdjacentIn|ReservoirOps|RowsOps|SparseRowFootprint|DenseIndexGrowth|MultiCompleter|Completions' ./internal/pattern/ ./internal/reservoir/ ./internal/graph/
	$(GO) test -run xxx -fuzz FuzzDifferentialEnumeration -fuzztime 20s -fuzzminimizetime 1s ./internal/pattern/
	$(GO) run -race ./cmd/wsdbench -exp suite -only core/dense -trials 1

# The policy lifecycle under the race detector: artifact encode/decode and
# the trained-bytes golden, the hot-swap path (concurrent ingest/swap/read
# storm, swap->snapshot->restore->resume bit-identity at the serve and
# cluster layers, partial-swap fault injections and heal-by-restore), shadow
# evaluation, the learned-weight alloc guards, the WSD-L statistical
# acceptance harness, and the temporal-fold property test (the clique sink's
# merged Eq. 20 features bit-identical to the materializing path's); then a
# short fuzz pass over the artifact decoder, and the core-wsdl and
# core-temporal dense-community cells end to end with -race on — the cells
# whose throughput WSD-L's state extraction owns (core-temporal computes the
# features under the WSD-H weight, so its gap to core is their cost).
policy-smoke:
	$(GO) test -race ./internal/policy/ ./internal/nn/
	$(GO) test -race -run 'Policy|Shadow|WSDL|TemporalFold' ./internal/serve/ ./internal/cluster/ ./internal/core/ .
	$(GO) test -run xxx -fuzz FuzzPolicyArtifactDecode -fuzztime 30s -fuzzminimizetime 1s ./internal/policy/
	$(GO) run -race ./cmd/wsdbench -exp suite -only core-wsdl,core-temporal -trials 1

# Temporal estimation under the race detector: the window/ring and exact
# oracle unit suites, the core window/decay tests (snapshot v5 resume
# bit-identity, v4 compatibility, temporal validation), the serving layer's
# temporal contract (mode-asserting /estimate queries, unknown-param 400s,
# restore refusal, mixed-fleet detection), multi-pattern temporal counting
# (windowed/decayed counters over several patterns against the exact oracles,
# in core, served, and through the facade), the facade degenerate
# bit-identity and windowed-vs-oracle acceptance cells, short fuzz passes
# over windowed snapshot decoding and the ring's op histories, then a
# 10-second sustained-load soak of a windowed 3-worker fleet that must finish
# error-free under a generous p99 bound.
window-smoke:
	$(GO) test -race ./internal/window/ ./internal/exact/
	$(GO) test -race -run 'Window|Decay|Temporal|EstimateUnknownParam' ./internal/core/ ./internal/serve/ ./internal/cluster/ .
	$(GO) test -run xxx -fuzz FuzzWindowedSnapshotDecode -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -run xxx -fuzz FuzzRingOps -fuzztime 30s -fuzzminimizetime 1s ./internal/window/
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
