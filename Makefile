# PDC-Query reproduction — common workflows.

GO ?= go

.PHONY: all build lint test benchmark-check cover race fuzz stress chaos bench bench-diff bench-seed bench-smoke figures verify examples clean

all: build lint test

build:
	$(GO) build ./...

# Static analysis in one gate: go vet plus the project invariant
# checkers of internal/lint (`pdc-lint -list` prints the catalog; README
# has the table): determinism, no panics on request paths, cancellation
# propagation, alias escapes from exported methods (aliasguard), the
# CFG/dataflow tier — barrier determinism in
# pooled workers (barrierdet), request-path error propagation (errflow),
# and lock order, hold time and guarding from one held-lock analysis
# (lockset) — and //lint:ignore directives that name no analyzer
# (lintignore). Accounts need no analyzer: they are required above
# internal/simio, so a forgotten one panics in the first test that runs
# the path, and bench-diff's modeled rows catch an uncharged store call.
# One pdc-lint invocation runs them all over a single loaded package
# set, call graph, and CFG cache — the only way to run them, since most
# need every package at once; -timing prints the per-analyzer step
# budget. Allocation growth is pdc-benchdiff's to
# catch (bench-diff below), and wire-codec symmetry each codec's
# TestWireRoundTrip's.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/pdc-lint -timing ./...

test:
	$(GO) test ./...

# benchmark/ is a Go module of its own, so `build`, `lint` and `test`
# above never compile it: a changed internal/* signature that
# benchmark/adapter.go uses would break the wall-clock benchmark without
# any of them noticing. This holds it to the same gates (vet, its short
# tests, pdc-lint) and edits nothing in it.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test -short . && $(GO) run pdcquery/cmd/pdc-lint .

# Coverage over all packages; writes cover.out and prints the total.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

race:
	$(GO) test -race ./...

# Scheduler stress under the race detector: concurrent sessions vs the
# brute-force oracle, admission-control overload, worker-count
# determinism, the parallel import against its per-region reference,
# busy-retry, async-lifetime leak checks, one client's cached text run
# from eight goroutines, and the region-task
# pool's guarantees (shared bound, lowest-index error, cancellation, the
# caller working, helpers stopping on Close) twenty times over. A separate CI
# step so scheduler interleaving failures are attributable at a glance;
# each pattern is listed first, so the log shows which tests it still
# names.
STRESS_CORE = TestConcurrentSessionsStress|TestOverloadBusyReplies|TestWorkerCountDeterminism|TestImportMatchesReference
STRESS_CLIENT = TestBusyRetry|TestQueryBudgetEndToEnd|TestRunAsyncReapedOnClose|TestClosedClientReturnsError|TestConcurrentTextShared
stress:
	$(GO) test -list '$(STRESS_CORE)' ./internal/core/
	$(GO) test -race -count=2 -run '$(STRESS_CORE)' ./internal/core/
	$(GO) test -list '$(STRESS_CLIENT)' ./internal/client/
	$(GO) test -race -count=2 -run '$(STRESS_CLIENT)' ./internal/client/
	$(GO) test -race -count=2 -run 'Test' ./internal/sched/
	$(GO) test -race -count=20 -run 'TestPool' ./internal/sched/

# Chaos soak: CHAOS_SEEDS seeded transport/storage fault schedules
# against a single-process deployment and CLUSTER_SEEDS seeded
# kill/join/drain schedules against a local cluster, plus the pinned
# corpus — its membership plans run on a local cluster and on real
# pdc-server catalog and member processes, whose /metrics the audit
# scrapes — and the checkpoint crash-recovery round-trip. Every statement
# (seeded forcing, text or prepared, count or ids) is checked against the
# brute-force oracle: zero wrong answers — every fault is masked by
# recovery or surfaces as a typed error — and every fired fault is
# audited against the flight recorders. A failing seed replays; pin it
# in internal/fault/corpus_test.go.
CHAOS_SEEDS ?= 64
CLUSTER_SEEDS ?= 32
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestCorpus|TestClusterChaos' \
		./internal/fault/ -chaos-seeds $(CHAOS_SEEDS) -cluster-seeds $(CLUSTER_SEEDS)

# Short fuzz smoke on the serialization-heavy packages and every decoder
# of another process's bytes; CI runs this. Minimizing is held to one
# run per new input (FUZZMIN): left at its 60 s default, the engine
# spends a short smoke minimizing, at 0 execs/s, instead of fuzzing.
FUZZTIME ?= 20s
FUZZMIN = 1x
FUZZ = $(GO) test -run=^$$ -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN)
fuzz:
	$(GO) test -fuzz=FuzzWAHRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN) ./internal/wah/
	$(FUZZ) -fuzz=FuzzOrEncodedInto ./internal/wah/
	$(FUZZ) -fuzz=FuzzFromIndicesMatchesReference ./internal/wah/
	$(FUZZ) -fuzz=FuzzBuildMatchesReference ./internal/bitindex/
	$(FUZZ) -fuzz=FuzzDecodeDirectory ./internal/bitindex/
	$(FUZZ) -fuzz=FuzzSelect ./internal/bitindex/
	$(GO) test -fuzz=FuzzHistogramMerge -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN) ./internal/histogram/
	$(FUZZ) -fuzz=FuzzBuildBytesMatchesBuild ./internal/histogram/
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=$(FUZZTIME) -fuzzminimizetime=$(FUZZMIN) ./internal/qlang/
	$(FUZZ) -fuzz=FuzzCompiledBounds ./internal/exec/
	$(FUZZ) -fuzz='^FuzzDecode$$' ./internal/query/
	$(FUZZ) -fuzz='^FuzzParse$$' ./internal/query/
	$(FUZZ) -fuzz=FuzzDecodeQueryRequest ./internal/server/
	$(FUZZ) -fuzz=FuzzPreparedStatement ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeQueryResponse ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeDataRequest ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeStatsResponse ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeTagQuery ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeReplies ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeFetchExtents ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeExtentsResult ./internal/server/
	$(FUZZ) -fuzz=FuzzDecodeEvents ./internal/telemetry/
	$(FUZZ) -fuzz=FuzzDecodeSelection ./internal/selection/
	$(FUZZ) -fuzz=FuzzPackedDecode ./internal/selection/
	$(FUZZ) -fuzz=FuzzPackedRoundTrip ./internal/selection/
	$(FUZZ) -fuzz=FuzzDecodeView ./internal/cluster/
	$(FUZZ) -fuzz=FuzzDecodeCatalog ./internal/cluster/
	$(FUZZ) -fuzz=FuzzSortedMatchesScan ./internal/core/

# Wall-clock and kernel benchmarks. The paper's figures are modeled, not
# timed: `pdc-bench` prints them (figures below) and bench-diff gates them.
bench:
	$(GO) test -bench=. -benchmem ./...

# Performance ratchet and the one allocation gate: deterministic
# allocs/op (hot kernels, the index build, and whole warm statements on
# every access path) and modeled virtual-time figures (every paper figure,
# scale-out, plan cache, Fig. 3's import, cluster import and rebalance)
# vs the committed BENCH_seed.json baseline, the one baseline file. Every figure must
# equal its committed value: higher fails as a regression, lower fails
# until bench-seed takes it.
# Deterministic by construction, so CI runs it.
bench-diff:
	$(GO) run ./cmd/pdc-benchdiff

# Regenerate the committed baseline after a deliberate perf change.
bench-seed:
	$(GO) run ./cmd/pdc-benchdiff -write

# CI smoke: the ratchet, then every benchmark once. A benchmark checks
# its fixture before it times anything (hit counts against the oracle,
# bins touched), so one iteration is enough to keep them from rotting.
# Then pdc-bench runs every figure once at a small scale, printing each
# table and writing each CSV into a temporary directory, with the
# fault-recovery experiment: it fails on a faulted answer that differs
# from the clean run's or an untyped error.
bench-smoke: bench-diff
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	dir=$$(mktemp -d) && $(GO) run ./cmd/pdc-bench -fig all -faults -logn 14 -servers 4 -boss 1000 -flux 50 -csv $$dir; \
		rc=$$?; rm -rf $$dir; exit $$rc

# Regenerate every figure of the paper's evaluation (modeled times).
figures:
	$(GO) run ./cmd/pdc-bench -fig all -logn 20 -servers 64

# Figures with brute-force verification of every query result.
verify:
	$(GO) run ./cmd/pdc-bench -fig all -logn 18 -servers 16 -verify

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vpic -logn 18
	$(GO) run ./examples/boss -objects 5000
	$(GO) run ./examples/batch -logn 18
	$(GO) run ./examples/producer -logn 18

clean:
	$(GO) clean ./...
