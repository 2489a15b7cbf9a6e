# ERMS reproduction — common workflows.

GO ?= go

.PHONY: all build vet test race check bench benchpair lint cover cover-check \
	figures fuzz failover federate full-scale soak sweep degrade scenarios serve benchcheck runtime-table examples loc loc-check clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate: what CI runs and what a PR must keep green.
check: build vet test race soak sweep degrade scenarios federate serve benchcheck

# Cross-core determinism gate: the same threshold grid — and the scenario
# grid — at -parallel 1 and -parallel 8 must merge to byte-identical
# output, proven under the race detector (see internal/sweep and DESIGN.md).
sweep:
	$(GO) test -race -run 'TestThresholdSweepWorkerInvariance|TestWorkerCountInvariance|TestScenarioWorkerInvariance' \
		./internal/experiments/ ./internal/sweep/

# Scenario gate: the production-shaped workload suite (multi-tenant,
# diurnal, flash crowd, partial reads), the hdfs ranged-read path, the
# judge's block-level boundary tests, and the tenant-isolation/reaction
# oracles — all under the race detector (see DESIGN.md §14).
scenarios:
	$(GO) test -race -run 'TestScenario|TestReadRange|TestJudgeRanged|TestShrink|TestJainFairness' \
		./internal/workload/ ./internal/experiments/ ./internal/hdfs/ ./internal/core/ ./internal/invariant/

# Degradation gate: the degrade study (rack outage vs repair throttling,
# EXPERIMENTS.md) must be deterministic and keep its shape — throttled
# repair beats unthrottled on foreground reads, safe mode defers the
# storm, nothing loses data — plus the 25-seed correlated-failure storm
# suite with its safe-mode / repair-cap / epoch-fencing oracles. All
# under the race detector.
degrade:
	$(GO) test -race -run 'TestDegradeDeterminism|TestDegradeShape' ./internal/experiments/
	$(GO) test -race -run 'TestDegradedStormSuite' ./internal/invariant/

# Regenerates the per-figure serial-vs-parallel runtime table embedded in
# EXPERIMENTS.md (append-only artifact; CI uploads it from the cover job).
runtime-table:
	$(GO) run ./cmd/figures -fig all -runtime-table > runtime_table.md
	@cat runtime_table.md

# Failover gate: namenode crashes mid-storm (checkpoint + journal-tail
# standby rebuild), the 10-seed checkpoint-resume equivalence property,
# and the root-package promotion path — all under the race detector.
failover:
	$(GO) test -race -run 'TestFailoverMidStorm|TestFailoverDemo|TestCheckpointResumeEquivalence|TestSystemCheckpointFailover' \
		./internal/chaos/ ./internal/experiments/ ./internal/hdfs/ ./.

# Federation gate: the one-shard system must stay byte-identical to the
# pre-federation single namenode (the TestShardOneEquivalence golden:
# state digest, checkpoint bytes, metrics, journal) and fail over in
# place like any shard, the status model must hold on every shape, the
# 2/4-shard grid must be worker-count invariant, the two-phase
# cross-shard rename must survive a crash between any two protocol
# steps, and the 25-seed rename storm must hold the ownership oracle —
# no file in two shards or zero shards, ever. All under the race
# detector (see DESIGN.md §15).
federate:
	$(GO) test -race -run 'TestShardOneEquivalence|TestOneShardFailover|TestStatus|TestFederatedRoutingAndAggregation|TestCrossShardMoveRun|TestMoveCrashRecoveryAtEveryStep|TestResolveMovesBranches|TestFederatedCheckpointRoundTrip|TestFederatedSweepDeterminism' ./.
	$(GO) test -race -run 'TestCrossShardRenameStorm|TestCheckFederationOracle' ./internal/invariant/
	$(GO) test -race ./internal/federation/

# Service-mode gate: the Clock-seam equivalence proof (sim vs seam vs
# service mode, byte-identical), the HTTP control plane's handler suite,
# and the real-clock ermsd smoke test (build the daemon, boot it, post
# ops, scrape /metrics) — all under the race detector. See OPERATIONS.md.
serve:
	$(GO) build ./cmd/ermsd
	$(GO) test -race -run 'TestClockSeamEquivalence' ./.
	$(GO) test -race ./internal/server/ ./cmd/ermsd/

# Benchmark-harness gate: the end-to-end benchmark (BENCHMARK.json,
# benchmark/) is a module of its own, so `go build ./...` and `go test
# ./...` here never reach it. Its tests run all four workloads at the
# -quick scale against the facade (about 6 s), so a facade or server
# change that breaks the benchmark fails here, not in the next
# performance PR. The tests run once more if they fail: serve-ops runs on
# the real clock, and at the -quick scale about one run in ten on a busy
# 2-core box has a stalled request overtaken by the 64 that follow it, so
# that one delete reaches the server before its file's create (the
# harness's churnLag; measured 3/30 at the commit before this target
# existed, never at full scale). A real break fails both runs.
benchcheck:
	cd benchmark && $(GO) vet ./... && { $(GO) test ./... || $(GO) test ./...; }

# Chaos soak: six virtual hours of crashes, partitions, and silent
# corruption under heartbeat detection, across a 3-seed matrix, with the
# race detector on. ERMS_SOAK=1 widens the seed matrix.
soak:
	ERMS_SOAK=1 $(GO) test -race -run 'TestChaosSoak|TestChaosDeterminism' ./internal/core/

# Prints every package's microbenchmarks and saves nothing: ns/op means
# something only beside a run of the parent on the same host (`make
# benchpair` for the end-to-end numbers), and the judge hot path's
# allocs/op are held by the *AllocCeiling* tests `go test ./...` runs.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Paired end-to-end measurement of one BENCHMARK.json workload: the parent
# commit ($$BASE, default HEAD~1, in a temporary git worktree) against this
# working tree, alternating which side runs first, on seeds from $$SEED0
# (default 101) up. Prints per-pair ratios, each side's quartiles for the six
# end-to-end metrics, digest/events equality and failed operations — what a
# performance PR's CHANGES.md entry reports. See scripts/benchpair.sh.
WORKLOAD ?= churn-failover
PAIRS ?= 10
RUN_SECONDS ?= 12
benchpair:
	bash scripts/benchpair.sh $(WORKLOAD) $(PAIRS) $(RUN_SECONDS)

# Style gate: vet, gofmt (fails listing any unformatted file), and the
# documentation floor (every package needs a godoc comment; the public
# surface — the erms facade, the HTTP control plane, the workload codec,
# the judge core, the experiments, and the CEP engine — must document
# every exported identifier; see cmd/doccheck).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/doccheck -exported .,internal/server,internal/workload,internal/core,internal/experiments,internal/cep .

# Size ledger: non-test Go lines per top-level package and in total,
# benchmark/ excluded (it is a module of its own). ROADMAP's
# simplification items are accepted on "non-test LoC down"; this is the
# number they mean, and the CI lint job prints it into the step summary.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | sed 's|^\./||' | \
		while read -r f; do echo "$$(dirname "$$f") $$(wc -l < "$$f")"; done | \
		awk '{ n[$$1] += $$2; t += $$2 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# Size ratchet: the ledger's total may not pass this ceiling. A PR that
# needs more raises the number in the same diff, with its reason here. CI
# runs it in the lint job. History: 24,700 at PR 15 (its result, 24,676,
# rounded up to the next 50); 24,750 at PR 19, which spends 65 lines in
# netsim, sim and topology — Engine.Reschedule and its Clock seam, the
# fabric's dirty/flush state, its two counters and the horizon guard on the
# completion delay — to halve swim-large's host time; 23,850 at PR 24 (its
# result, 23,840, rounded up), which deleted what no shipped path reached:
# the ClassAd syntax beyond the two expressions matchmaking evaluates, the
# HDFS balancer, the second tau_M grid and the absolute ns/op gate command.
LOC_CEILING ?= 23850

loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_CEILING) ]; then \
		echo "non-test Go is $$total lines, over the $(LOC_CEILING) ceiling (LOC_CEILING in the Makefile)"; exit 1; fi; \
	echo "non-test Go $$total lines <= ceiling $(LOC_CEILING)"

# Coverage floor: CI fails if total statement coverage drops below this.
COVER_FLOOR ?= 80.0

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

cover-check: cover
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

# Prints every figure/ablation table at quick scale (use FIG=8 for one).
FIG ?= all
figures:
	$(GO) run ./cmd/figures -fig $(FIG)

# Paper-scale shape validation (minutes).
full-scale:
	ERMS_FULL=1 $(GO) test -run TestPaperScale -v ./internal/experiments/

# Short fuzzing passes over the parsers, the trace decoder, and the
# checkpoint decoder (corrupt bytes must error, never panic or
# half-restore).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/auditlog/
	$(GO) test -fuzz=FuzzParseQuery -fuzztime=30s ./internal/cep/
	$(GO) test -fuzz=FuzzParseExpr -fuzztime=30s ./internal/classad/
	$(GO) test -fuzz=FuzzDecodeTrace -fuzztime=30s ./internal/workload/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=30s ./internal/hdfs/
	$(GO) test -fuzz=FuzzShardRouter -fuzztime=30s ./internal/federation/
	$(GO) test -fuzz=FuzzDecodeFederatedCheckpoint -fuzztime=30s ./.

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hotdata
	$(GO) run ./examples/coldarchive
	$(GO) run ./examples/standby
	$(GO) run ./examples/auditreplay

clean:
	$(GO) clean -testcache
