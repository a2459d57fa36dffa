# Build/test targets. The tier-1 flow is `make check`: the gofmt gate, build,
# vet, the default test suite, and a short race-detector pass over every package
# (exercising the interner's and the parallel engine's concurrency claims).
# `make test-short` is the <60s developer loop; `make bench` runs the
# engine microbenchmarks; `make profile` captures CPU/heap profiles of the
# default benchmark suite. The benchmark gates (TestLIABench, TestWarmBench,
# TestClusterBench, TestCompactBench) are plain tests that `make test` runs;
# only the wall-clock hedging gate needs its own target, `make bench-rpc`.
# Performance over time is measured by perfbench (perfbench/README.md).

GO ?= go

.PHONY: all fmt build vet test test-short test-race test-differential serve-smoke cluster-smoke rpc-smoke restart-smoke compact-smoke fuzz-rpc fuzz-store fuzz-spec perfbench-check bench-rpc bench bench-quick profile check clean

all: check

# Formatting gate: fails, listing the offending files, when gofmt would
# rewrite any file in the module.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full default suite (the bench package runs its representative search
# subset; the exhaustive sweep needs VS3_SEARCH=1).
test: build vet
	$(GO) test ./...

# Fast unit tests only: skips the search, cross-check, and table-rendering
# integration tests (see README "Test suites").
test-short: build vet
	$(GO) test -short ./...

# Race-detector pass over every package: the shared SMT solver, the formula
# interner, the parallel fixed-point worklist, the parallel ψ_Prog encoder,
# and the parallel benchmark runner.
test-race:
	$(GO) test -short -race ./...

# Differential tests for the incremental solving pipeline under the race
# detector (reused-vs-fresh SAT probes, context-vs-fresh SMT verdicts,
# fixpoint determinism, ψ_Prog byte-identity), plus the TestMapVsBFS sweeps,
# which compare the engine's map-solver search with an independent reference:
# the plain bounded BFS in internal/optimal/optimaltest, run on a fresh
# solver of its own that shares no memo, core store, context or knowledge
# store with the engine. Randomized small lattices and the randomized §6
# precondition sweep answer every group search from the reference in one
# engine and compare its results with a map-search engine (equal
# maximally-weak precondition sets modulo logical equivalence); the
# shared-engine sweep, every examples/ problem, and every examples/ problem
# on a reopened knowledge store (warm-loaded cores) run the map search and
# check each group's solution list against the reference's. The lia line
# is the Fourier–Motzkin sweep: lia.Check and the persistent LinChecker vs
# brute-force small-domain enumeration over random general linear systems.
# The store lines are the persistence sweep: record round-trips, checksum /
# version / params corruption recovery, the flush requeue / retry-budget /
# drop-warning regressions, the compaction suite (duplicate-heavy shrink,
# crash-mid-compaction recovery at every stage, stale tmp generations,
# header re-checks, concurrent appends), and the warm-vs-cold plus
# warm-vs-compacted verdict-identity sweeps over every examples/ problem (a
# reopened — or compacted-then-reopened — knowledge store must prove exactly
# what the cold lifetime proved). The rewrite lines compare the
# structure-sharing formula rewrites (Simplify, NNF, StandardizeApart, the
# Substitute family, RewriteArrayEq, skolemize, instantiate) with their
# rebuild-everything oracles over seeded random formulas, and check that an
# input a rewrite leaves unchanged costs no allocation.
test-differential:
	$(GO) test -race -run 'TestRewriteDifferential|TestRewriteZeroAlloc' ./internal/logic/
	$(GO) test -race -run 'TestQuantDifferential|TestQuantZeroAlloc' ./internal/smt/
	$(GO) test -short -race -run 'TestReusedVsFresh|TestSolveAssuming|TestSolveReuse|TestContext|TestFixpointDeterministic|TestFixpointIncremental|TestPsiProg|TestCFPIncremental' \
		./internal/sat/ ./internal/smt/ ./internal/fixpoint/ ./internal/cbi/
	$(GO) test -race -run 'TestRandomGeneralAgainstBox|TestRandomDifferenceAgainstBox|TestLinChecker|TestDiffChecker' ./internal/lia/
	$(GO) test -race -run 'TestRoundTrip|TestLinCheckerVerdict|TestFormulaKey|TestCorruption|TestDedup|TestFlushDurable|TestFlushRequeues|TestFlushRetryBudget|TestFlushPartialWrite|TestDropWarning|TestCompact|TestOutcomeDigest' ./internal/store/
	$(GO) test -race -run 'TestWarmStart|TestStoreParamsMismatch|TestWarmLemma' ./internal/smt/
	$(GO) test -run 'TestMapVsBFS|TestWarmVsCold|TestWarmVsCompacted' ./internal/optimal/ ./internal/bench/ ./internal/precond/

# End-to-end check of the vs3d HTTP daemon: boots the real server on an
# ephemeral port, verifies a spec with all three methods, infers
# preconditions, reads /v1/stats, and shuts down cleanly.
serve-smoke:
	$(GO) test -run TestServeSmoke -v ./cmd/vs3d/

# End-to-end check of the scale-out tier: the real vs3router daemon over TCP
# in front of two real vs3d backends — affinity headers, batch split/merge,
# failover after a backend death, stats, clean shutdown.
cluster-smoke:
	$(GO) test -run TestClusterSmoke -count=1 -v ./cmd/vs3router/

# End-to-end check of the binary VS3R transport, the only router-to-backend
# wire, driven through the router's HTTP edge (its only client edge) over
# real daemons on TCP: single verifies and batch fan-out over rpc backends,
# a backend that does not advertise rpc reported not live and sent no
# traffic, a client disconnect reaching the backend as a stream cancel, and
# hedging with counters on /metrics.
rpc-smoke:
	$(GO) test -run '^TestRPCSmoke$$' -count=1 -v ./cmd/vs3router/

# End-to-end check of warm-start persistence: the real vs3d daemon booted
# twice on one -store directory (second lifetime must replay the solved
# problem with zero SMT work), plus the vs3load mid-test restart scenario
# (drain, reopen the store, one corpus pass back at warm-path latency).
restart-smoke:
	$(GO) test -run TestWarmRestart -count=1 -v ./cmd/vs3d/
	$(GO) test -run TestRestartRecovery -count=1 -v ./internal/load/

# End-to-end check of generational log compaction: a store-backed backend
# solves the smoke corpus, its log is duplicated 6x, a second lifetime
# compacts it over POST /v1/compact while serving (>=3x on-disk shrink,
# identical verdicts, zero fresh work), and a third lifetime restarts fully
# warm on the compacted generation.
compact-smoke:
	$(GO) test -run TestCompactSmoke -count=1 -v ./cmd/vs3router/

# Short fuzz budget for the VS3R decoders (frame, request, response): no
# input may panic, and whatever decodes must round-trip through the encoder.
# The seed corpus is committed under internal/rpc/testdata/fuzz/. go test
# fuzzes one target per invocation.
fuzz-rpc:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime=10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime=10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime=10s ./internal/rpc/

# Short fuzz budget for the knowledge-log decoders (record line, header line)
# and the outcome-digest parser: no input may panic, and whatever parses must
# round-trip through its encoder. The seed corpus is committed under
# internal/store/testdata/fuzz/.
fuzz-store:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime=10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckHeaderLine$$' -fuzztime=10s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBloomDigest$$' -fuzztime=10s ./internal/store/

# Short fuzz budget for the spec parser, the one decoder that reads request
# bodies: parsing plus validation (what vs3d runs on every request) may not
# panic on any input, and every parsed formula without a template unknown
# must survive a print-and-parse round trip. The seed corpus is committed
# under internal/lang/testdata/fuzz/.
fuzz-spec:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpecFile$$' -fuzztime=10s ./internal/lang/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFormula$$' -fuzztime=10s ./internal/lang/

# Vet and test the benchmark module (perfbench/, its own go.mod), which
# imports internal/bench.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Hedging gate: hedged vs unhedged routing over a store-backed 2-backend
# fleet with one stalled backend, asserting hedging wins p99 with identical
# verdicts across the corpus. The gate is a wall-clock comparison, so the
# test skips under plain `go test ./...`, where it would compete with the
# rest of the suite for CPU, and only runs with -wallclock; CI runs it as
# its own step.
bench-rpc:
	$(GO) test -run '^TestRPCBench$$' -count=1 -v ./cmd/vs3router/ -args -wallclock

# Engine microbenchmarks: the parallel-engine comparisons from PR 1 plus the
# interning/hot-path benchmarks (cache-hit keying, structural equality,
# compiled fills, lattice search).
bench:
	$(GO) test -bench 'Valid(Sequential|Parallel)' -benchtime 2x -run - ./internal/smt/
	$(GO) test -bench 'LFP(Sequential|Parallel)' -benchtime 2x -run - ./internal/fixpoint/
	$(GO) test -bench 'FormulaEq|HashFormula|StringKey|Intern' -run - ./internal/logic/
	$(GO) test -bench 'ValidCacheHit' -run - ./internal/smt/
	$(GO) test -bench 'Fill|NegativeSolutions' -run - ./internal/optimal/ ./internal/template/

# Fast local sanity: one task (List Delete) across all three methods — one
# cell per algorithm, a few seconds end to end.
bench-quick:
	$(GO) run ./cmd/benchtab -suite quick

# CPU/heap profiles of the default suite (sequential, so the profile is not
# dominated by scheduler noise). Inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/benchtab -suite default -parallel 1 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; inspect with: $(GO) tool pprof cpu.prof"

check: fmt build vet test test-race test-differential

clean:
	$(GO) clean ./...
