# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint bench bench-evolve bench-trial bench-fleet bench-hotpath bench-gate bench-compare alloc-budget engine-determinism differential fleet-determinism selector-determinism metrics-determinism pool-clobberfree fuzz-seeds fuzz-smoke evaluate figures cli-smoke short cover race

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -shuffle=on ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# require-tests fails unless every |-separated alternative of the test
# pattern $(1) names at least one test, fuzz target or example in the
# packages $(2). Every pattern-filtered gate below runs it first, so a
# renamed or deleted test cannot silently empty a gate: `go test -run` and
# `go test -fuzz` both pass when their pattern matches nothing.
define require-tests
	@for alt in $$(printf '%s' '$(1)' | tr '|' ' '); do \
		n=$$($(GO) test -list "$$alt" $(2) | grep -cE '^(Test|Fuzz|Example)'); \
		if [ "$$n" -eq 0 ]; then echo "pattern '$$alt' selects no test in $(2)"; exit 1; fi; \
	done
endef

# One pass over the evolution-engine benchmarks (cache hit rates + worker
# scaling); the CI smoke step runs exactly this.
bench-evolve:
	$(GO) test -run '^$$' -bench Evolve -benchtime 1x ./...

# Trial hot-path benchmarks; regenerates BENCH_trial.json with the current
# numbers next to the frozen pre-pooling baseline (see tools/benchjson).
BENCH_TRIAL = 'BenchmarkTrial|BenchmarkRigSetup|BenchmarkPacketRoundtrip|BenchmarkPacketMarshal|BenchmarkPacketParse|BenchmarkEngineApply|BenchmarkFullConnection'
bench-trial:
	$(GO) test -run '^$$' -bench $(BENCH_TRIAL) -benchmem -benchtime 2000x . | tee /tmp/bench_trial.txt
	$(GO) run ./tools/benchjson < /tmp/bench_trial.txt > BENCH_trial.json
	@cat BENCH_trial.json

# Deployment-harness throughput at the 10^5-connection workload; regenerates
# BENCH_fleet.json with conns/s across the worker × shard ladder (see
# tools/benchjson -set fleet). The FleetResult is identical at every width —
# only the wall clock moves. Set GENEVA_FLEET_SMOKE=1 to add the
# 10^6-connection smoke rung (slow; see EXPERIMENTS.md).
bench-fleet:
	$(GO) test -run '^$$' -bench BenchmarkFleet -benchmem -benchtime 3x -timeout 30m . | tee /tmp/bench_fleet.txt
	$(GO) run ./tools/benchjson -set fleet < /tmp/bench_fleet.txt > BENCH_fleet.json
	@cat BENCH_fleet.json

# The fleet allocation gate: re-measure the fleet ladder (one iteration per
# rung, enough for allocs/op, which is deterministic) and compare against the
# committed BENCH_fleet.json. Catches per-connection or per-exchange alloc
# leaks in both the one-shot rungs and the keep-alive/reconnect longhorizon
# rung. CI runs exactly this in the fleet bench smoke.
bench-fleet-gate:
	$(GO) test -run '^$$' -bench BenchmarkFleet -benchmem -benchtime 1x -timeout 30m . | \
		$(GO) run ./tools/benchjson -compare BENCH_fleet.json -compare-metrics $(GATE_METRICS)

# The evaluation-engine determinism gate: the parallel, cached population
# engine must produce the exact Result of an uncached serial reference (a
# BatchFitness loop over FitnessFor, built inside the test) at GOMAXPROCS
# 1/2/8; the GA's first-occurrence parsimony rule holds on the batch path;
# every RateStats count is identical at 1, 2 and 8 trial workers; the one
# trial fold equals a serial loop of single trials at any width and seed
# stride; a rig rebuilt from the manifest's seed schedule alone
# reproduces RateStats; and lazyrand's generators, fresh, reseeded or
# pooled, draw rand.NewSource's streams under every *rand.Rand method. CI
# runs exactly this.
ENGINE_RUN = Deterministic|BatchMatchesSequential|BatchSeam|ParsimonyFirstOccurrence|Evaluator|FitnessCache|EvolveWithStats|RateStatsWidthInvariance|FoldMatchesSerialReference|SeedScheduleDescribesRig|StreamIdentity|ReseedUsedGenerator
engine-determinism:
	$(call require-tests,$(ENGINE_RUN),./...)
	$(GO) test -race -shuffle=on -run '$(ENGINE_RUN)' ./...

# The cross-censor differential golden plus the registry's structural
# checks. CI runs exactly this.
DIFFERENTIAL_RUN = TestDifferential|TestRegistry
differential:
	$(call require-tests,$(DIFFERENTIAL_RUN),./internal/eval/)
	$(GO) test -race -run '$(DIFFERENTIAL_RUN)' ./internal/eval/

# The fleet determinism gate: the whole FleetResult must be bit-identical
# across the workers × shards matrix (1/2/8 × 1/2/8 plus shards=auto), with
# a live residual ledger, under the race detector. CI runs exactly this.
FLEET_DETERMINISM_RUN = TestFleetDeterminism|TestFleetMetricsMatchResult|TestFleetResidualLedgerProperty|TestFleetLongHorizonShardInvariance
fleet-determinism:
	$(call require-tests,$(FLEET_DETERMINISM_RUN),. ./internal/fleet/)
	$(GO) test -race -run '$(FLEET_DETERMINISM_RUN)' -v . ./internal/fleet/

# The control-plane determinism gate: with online selection live (bandit
# pulls, barrier merges, a mid-run censor shift) the FleetResult must stay
# bit-identical across the workers × shards matrix; with Selection unset it
# must be byte-identical to the committed pre-control-plane goldens; and the
# collapse-and-recover scenario must hold. Runs under the race detector next
# to the selector's own unit determinism tests. CI runs exactly this.
SELECTOR_DETERMINISM_RUN = TestFleetSelectionDeterminism|TestFleetPinnedByteIdentity|TestFleetCollapseAndRecover
selector-determinism:
	$(call require-tests,$(SELECTOR_DETERMINISM_RUN),.)
	$(GO) test -race -run '$(SELECTOR_DETERMINISM_RUN)' -v .
	$(GO) test -race ./internal/selector/

# Hot-path microbenchmarks: the netsim event queue and the per-censor
# Process cost; regenerates BENCH_hotpath.json (see tools/benchjson -set
# hotpath).
BENCH_HOTPATH = 'BenchmarkEventQueue|BenchmarkCensorProcess'
bench-hotpath:
	$(GO) test -run '^$$' -bench $(BENCH_HOTPATH) -benchmem -benchtime 100000x . ./internal/netsim/ | tee /tmp/bench_hotpath.txt
	$(GO) run ./tools/benchjson -set hotpath < /tmp/bench_hotpath.txt > BENCH_hotpath.json
	@cat BENCH_hotpath.json

# The benchmark regression gate: re-measure the hot-path benchmarks and
# compare against the committed BENCH_hotpath.json. allocs/op is
# deterministic, so it gates everywhere; add ns/op locally with
# GATE_METRICS=ns,allocs (same-machine numbers only). CI runs exactly this.
GATE_METRICS ?= allocs
bench-gate:
	$(GO) test -run '^$$' -bench $(BENCH_HOTPATH) -benchmem -benchtime 100000x . ./internal/netsim/ | \
		$(GO) run ./tools/benchjson -compare BENCH_hotpath.json -compare-metrics $(GATE_METRICS)

# benchstat comparison against the committed BENCH_trial numbers
# (informational; benchstat is optional and never installed by this repo).
bench-compare:
	@command -v benchstat >/dev/null 2>&1 || { echo "benchstat not installed; skipping (go install golang.org/x/perf/cmd/benchstat@latest)"; exit 0; }
	$(GO) test -run '^$$' -bench $(BENCH_TRIAL) -benchmem -count 6 . > /tmp/bench_new.txt
	benchstat /tmp/bench_new.txt

# The allocation-budget tripwires: fail when the zero-alloc hot paths, the
# per-trial budget, or the fleet's per-connection budget regress. CI runs
# exactly this.
ALLOC_BUDGET_RUN = TestAllocBudget|TestTrialAllocBudget|TestFleetAllocBudget
ALLOC_BUDGET_PKGS = ./internal/packet/ ./internal/core/ ./internal/eval/ ./internal/fleet/
alloc-budget:
	$(call require-tests,$(ALLOC_BUDGET_RUN),$(ALLOC_BUDGET_PKGS))
	$(GO) test -run '$(ALLOC_BUDGET_RUN)' -v $(ALLOC_BUDGET_PKGS)

# Counters observe and never steer: evolve and impaired trial rates must be
# bit-identical with metrics on and off, and counter totals identical at any
# worker width. CI runs exactly this.
metrics-determinism:
	$(call require-tests,TestMetrics,./internal/eval/)
	$(GO) test -race -shuffle=on -run 'TestMetrics' ./internal/eval/

# Pool safety: GODEBUG=clobberfree poisons freed memory, so if any recycled
# packet buffer is still referenced the bit-identical recycling tests
# diverge. CI runs exactly this.
POOL_RUN = TestPool|TestRecycling
pool-clobberfree:
	$(call require-tests,$(POOL_RUN),./internal/packet/ ./internal/eval/)
	GODEBUG=clobberfree=1 $(GO) test -run '$(POOL_RUN)' ./internal/packet/ ./internal/eval/

# Replay every fuzz target's seed corpus as plain tests. CI runs exactly
# this.
fuzz-seeds:
	$(call require-tests,Fuzz,./...)
	$(GO) test -short -run Fuzz ./...

# Coverage-guided fuzzing bursts — the fuzz targets promoted from
# seed-corpus-only to live mutation. Go's fuzz engine takes one -fuzz
# pattern per package per invocation, so each target gets its own run.
# CI runs exactly this with the default budget.
FUZZTIME ?= 10s
fuzz-smoke:
	$(call require-tests,^FuzzDNSQueryName$$|^FuzzExtractSNI$$|^FuzzHTTPParsers$$,./internal/apps/)
	$(call require-tests,^FuzzParse$$|^FuzzTCPUnmarshal$$|^FuzzHTTPRequestMatch$$,./internal/packet/)
	$(call require-tests,^FuzzParse$$,./internal/core/)
	$(call require-tests,^FuzzImpairments$$|^FuzzEventQueue$$,./internal/netsim/)
	$(call require-tests,^FuzzIndiaProcess$$,./internal/censor/india/)
	$(call require-tests,^FuzzTMCProcess$$,./internal/censor/tmc/)
	$(call require-tests,^FuzzLazySource$$,./internal/lazyrand/)
	$(GO) test -fuzz '^FuzzDNSQueryName$$' -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz '^FuzzExtractSNI$$' -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz '^FuzzHTTPParsers$$' -fuzztime $(FUZZTIME) ./internal/apps/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz '^FuzzTCPUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz '^FuzzHTTPRequestMatch$$' -fuzztime $(FUZZTIME) ./internal/packet/
	$(GO) test -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz '^FuzzImpairments$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -fuzz '^FuzzEventQueue$$' -fuzztime $(FUZZTIME) ./internal/netsim/
	$(GO) test -fuzz '^FuzzIndiaProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/india/
	$(GO) test -fuzz '^FuzzTMCProcess$$' -fuzztime $(FUZZTIME) ./internal/censor/tmc/
	$(GO) test -fuzz '^FuzzLazySource$$' -fuzztime $(FUZZTIME) ./internal/lazyrand/

# Static checks: vet always; gocritic (checks like hugeParam — catching
# accidental by-value copies of packet structs) only when installed.
lint: vet
	@command -v gocritic >/dev/null 2>&1 && gocritic check ./... || echo "gocritic not installed; skipped"

evaluate:
	$(GO) run ./cmd/geneva evaluate -trials 300

figures:
	$(GO) run ./cmd/geneva evaluate -figure 1
	$(GO) run ./cmd/geneva evaluate -figure 2

# Build the one binary and run each subcommand once at a tiny size; an
# unknown subcommand must exit 2. CI runs exactly this.
cli-smoke:
	$(GO) build -o .bin/geneva ./cmd/geneva
	./.bin/geneva evaluate -table 1 -trials 4 > /dev/null
	./.bin/geneva fleet -connections 20 -countries china -metrics > /dev/null
	./.bin/geneva evolve -country kazakhstan -population 6 -generations 2 -trials 2 > /dev/null
	printf 'strategies\n' | ./.bin/geneva explore -trials 2 > /dev/null
	./.bin/geneva nosuch 2> /dev/null; test $$? -eq 2
