# Verification entry points. `make check` is the tier-1 gate; `make race`
# exercises the parallel scheduler's concurrency under the race detector.

GO ?= go

.PHONY: all check vet build test race lint guestlint perfbench-check bench bench-json bench-diff docs docscheck fleet-smoke fuzz-smoke clean

all: check race perfbench-check

check: vet docscheck build test lint guestlint

vet:
	$(GO) vet ./...

# Invariant linter: the internal/analysis suite's four analyzers
# (determinism, locksetflow, lockorder, hotpath) run over the whole module,
# sharing one type-checked load and one call graph. Zero findings is part
# of the tier-1 gate; -time reports the per-analyzer wall time on stderr
# (recorded in OBSERVABILITY.md), and -budget fails a clean run that
# blows past about 2x the reference wall clock (so analysis-time
# regressions surface in CI, not in reviewers' patience). See DESIGN.md §5d.
LINT_BUDGET ?= 5s
lint:
	$(GO) run ./cmd/cryptojacklint -time -budget $(LINT_BUDGET) ./...

# Guest static analysis gate: sweep the ISA program registry with the
# gsa scoring pipeline, enforce the ranking contract (every miner flagged
# and strictly above every benign program — zero inversions), and
# regenerate the committed golden score manifest in place. The cmd test
# fails if the manifest drifts from a fresh sweep, so retuning a scoring
# weight is reviewed like any other golden change. See DESIGN.md §5h.
guestlint:
	$(GO) run ./cmd/guestlint -all \
	  -manifest internal/workload/guestlint_manifest.txt

build:
	$(GO) build ./...

# Benchmark module gate: perfbench/ is its own Go module (it replaces
# darkarts with ../), so the root `go build ./...` never compiles it. Vet
# and test it so a change that removes an API the benchmark reads fails
# here rather than at benchmark time (~20 s).
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

# The second line reruns the scheduler's serial/parallel differential tests,
# the worker pool's tests, the CPU's block-store (SharedBlocks) tests and
# the pass-replay tests (Replay, PassTrace; the fleet's replay differential
# among them) at -cpu 1 and 4: at GOMAXPROCS=1 the pool has no helper
# goroutine and the calling goroutine claims every item itself, and cores
# fill the store's shared tables, and fleet workers record its pass traces,
# with and without real parallelism. test and race skip
# cryptojacklint's TestAnnotatedTreeClean, a whole-module lint in a
# subprocess: `make lint` runs the same lint once, under its budget (a bare
# `go test ./...` still includes it).
test:
	$(GO) test -skip '^TestAnnotatedTreeClean$$' ./...
	$(GO) test -run 'Parallel|RunUntilAlert|Accessors|Callback|Pool|SharedBlocks|Replay|PassTrace' -cpu 1,4 ./internal/kernel ./internal/pool ./internal/cpu ./internal/fleet

# Documentation gate: vet plus a doc.go package comment for every
# internal package (the per-package paper tie-ins; see OBSERVABILITY.md
# and DESIGN.md for the subsystem docs), and a `// Command <name>` doc
# comment for every cmd main.
docs: vet docscheck

docscheck:
	@fail=0; for d in internal/*/; do \
	  if [ ! -f "$$d/doc.go" ]; then \
	    echo "docscheck: $$d is missing doc.go"; fail=1; \
	  elif ! grep -q '^// Package' "$$d/doc.go"; then \
	    echo "docscheck: $$d/doc.go has no package comment"; fail=1; \
	  fi; \
	done; \
	for d in cmd/*/; do \
	  if ! grep -q '^// Command' "$$d"*.go; then \
	    echo "docscheck: $$d has no '// Command' package comment"; fail=1; \
	  fi; \
	done; exit $$fail

# Fleet service smoke: a 256-machine fleetload run (FLEET.md). Exercises
# the sharded round loop, placement, alert collection, and the shared
# block cache end to end, and prints the service-level benchjson record
# (hosts_per_second, alert latency, per-shard busy fractions). Scaled so
# it finishes in well under a minute on one CI core.
fleet-smoke:
	$(GO) run ./cmd/fleetload -machines 256 -duration 4s -round 500ms -period 3s

# Bounded fuzz smoke over the CPU engines: the block engine, the only
# fast tier, against the step engine; pass replay against the block
# engine; and every engine against panics;
# over the fleet API's submit and alert-query handlers; over kernel
# fast-forward against per-quantum simulation; and over the rate models'
# noise stream against math/rand. Go fuzzes one target per invocation;
# 20 s each keeps CI short.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBlocksDifferential$$' -fuzztime 20s ./internal/cpu
	$(GO) test -run '^$$' -fuzz '^FuzzPassReplay$$' -fuzztime 20s ./internal/cpu
	$(GO) test -run '^$$' -fuzz '^FuzzExecutorNeverPanics$$' -fuzztime 20s ./internal/cpu
	$(GO) test -run '^$$' -fuzz '^FuzzAPI$$' -fuzztime 20s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzFastForward$$' -fuzztime 20s ./internal/kernel
	$(GO) test -run '^$$' -fuzz '^FuzzNoise$$' -fuzztime 20s ./internal/kernel

# Race-detect the whole module. The packages the parallel quantum
# execution touches (scheduler, core engines, counter banks, metrics
# registry) dominate the runtime; everything else rides along for free.
race:
	$(GO) test -race -skip '^TestAnnotatedTreeClean$$' ./...

# Headline throughput benchmarks (engine MIPS + parallel scheduler).
# The fast-engine benches run 50–100M guest instructions per measurement:
# shorter runs (20M) swing ±20% with host frequency scaling, which would
# swallow the bench-diff gate's whole tolerance.
bench:
	$(GO) test -run '^$$' -bench 'FastEngineMIPS' -benchtime 100000000x .
	$(GO) test -run '^$$' -bench 'DetailedEngineMIPS' -benchtime 20000000x .
	$(GO) test -run '^$$' -bench 'BlockCacheMIPS' -benchtime 50000000x .
	$(GO) test -run '^$$' -bench 'ParallelQuantum' -benchtime 50x ./internal/kernel
	$(GO) test -run '^$$' -bench 'FleetScaling/Mixed' -benchtime 16x -cpu 1,2,4 ./internal/fleet
	$(GO) test -run '^$$' -bench 'FleetScaling/IdleHeavy' -benchtime 1024x -cpu 1,2,4 ./internal/fleet

# Perf-regression gate: re-measure the guarded benchmarks and fail on a
# drop below the committed BENCH_baseline.json — the engine MIPS figures
# (FastEngineMIPS, BlockCacheMIPS) at 20%, and the fleet round loop's
# hosts/s (FleetScaling, multi-core + fast-forward ablation cells) at
# 40%: fleet rounds are milliseconds, not seconds, so shared-runner noise
# is larger, but a lost fast-forward or serialization bug loses 5-25x.
# The -cpu list and per-population iteration counts must match
# bench-json's, or the fresh run would lack stable counterparts for the
# baseline's per-width records (idle-heavy rounds are tens of
# microseconds — they need ~1024 rounds to average scheduler jitter
# below the gate's tolerance). Run after any change near internal/cpu or
# internal/fleet; CI's perf-smoke job runs the same gates.
bench-diff:
	{ $(GO) test -run '^$$' -bench 'FastEngineMIPS' -benchtime 100000000x . ; \
	  $(GO) test -run '^$$' -bench 'BlockCacheMIPS' -benchtime 50000000x . ; } \
	| $(GO) run ./cmd/benchjson -diff BENCH_baseline.json -tol 0.20
	{ $(GO) test -run '^$$' -bench 'FleetScaling/Mixed' -benchtime 16x -cpu 1,2,4 ./internal/fleet ; \
	  $(GO) test -run '^$$' -bench 'FleetScaling/IdleHeavy' -benchtime 1024x -cpu 1,2,4 ./internal/fleet ; } \
	| $(GO) run ./cmd/benchjson -diff BENCH_baseline.json -tol 0.40 \
	  -diff-metric 'hosts/s' -diff-match 'FleetScaling' -keep-cpu 'FleetScaling'

# Regenerate BENCH_baseline.json from the benchmarks above.
bench-json:
	{ $(GO) test -run '^$$' -bench 'FastEngineMIPS' -benchtime 100000000x . ; \
	  $(GO) test -run '^$$' -bench 'DetailedEngineMIPS' -benchtime 20000000x . ; \
	  $(GO) test -run '^$$' -bench 'BlockCacheMIPS' -benchtime 50000000x . ; \
	  $(GO) test -run '^$$' -bench 'ParallelQuantum' -benchtime 50x ./internal/kernel ; \
	  $(GO) test -run '^$$' -bench 'FleetScaling/Mixed' -benchtime 16x -cpu 1,2,4 ./internal/fleet ; \
	  $(GO) test -run '^$$' -bench 'FleetScaling/IdleHeavy' -benchtime 1024x -cpu 1,2,4 ./internal/fleet ; } \
	| $(GO) run ./cmd/benchjson -keep-cpu 'FleetScaling' -o BENCH_baseline.json

clean:
	$(GO) clean ./...
