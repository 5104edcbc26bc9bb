# Development targets. `make check` is the pre-commit gate: vet, lint,
# build, the full test suite under the race detector, and a quick pass
# over the differential tests that hold each fast path — the compiled
# lineage kernel first among them — to its reference. Measuring:
# `make bench-smoke` (does the serving benchmark still build and answer),
# `make bench-pairs BASE=<ref> [WORKLOAD=<name>]` (alternating
# parent/change pairs, of every workload or of the one named, what a
# CHANGES.md entry pastes; each invocation appends a line to
# BENCH_history.jsonl), `make bench-serving` (regenerate the
# committed BENCH_serving.json), `make loc BASE=<ref>` (line counts).
# `make fuzz-smoke` runs every fuzz target for ten seconds.
GO ?= go

.PHONY: check vet lint build test race differential mvcc-stress fuzz-smoke bench bench-parallel bench-planner bench-smoke bench-serving bench-pairs obs-smoke serve-smoke loc

check: vet lint build race mvcc-stress differential obs-smoke serve-smoke

vet:
	$(GO) vet ./...

# lint runs go vet, a gofmt check, the repo's own static-invariant suite
# (cmd/pcqelint; see DESIGN.md §7) and, when installed,
# golangci-lint with .golangci.yml. golangci-lint is optional so
# hermetic environments still get the full vet + gofmt + pcqelint gate.
lint: vet
	@test -z "$$(gofmt -l .)" || { echo "gofmt: these files need formatting:"; gofmt -l .; exit 1; }
	$(GO) run ./cmd/pcqelint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; skipped (pcqelint ran)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The MVCC suite under the race detector: snapshot-isolation semantics,
# the concurrent reader/writer stress tests with commit-fault injection,
# and the transactional improvement-plan apply path. -count=1 forces a
# fresh run (the stress tests are scheduling-sensitive, so a cached
# verdict proves nothing).
mvcc-stress:
	$(GO) test -race -count=1 -run 'MVCC' ./internal/relation/ ./internal/core/

# The differential suites, each pinning a fast path to its reference:
# the compiled lineage kernel vs the tree walk in internal/lineage (the
# reference evaluator; no production path can select it) — kernel by
# kernel there, the factoring OR fold vs the plain one (truth table,
# occurrence counts, the Shannon kernel's bits), and in internal/strategy the solvers' evaluator (it feeds
# each kernel its one slot row: there is no batched sweep left to hold to
# the per-machine calls) after every step of a random walk, with every
# solver's plan pinned to
# goldens recorded while the solvers could still run on the tree walk,
# and factored against unfactored DISTINCT-join lineage plan for plan —
# the solver's reset / re-targeted evaluator vs a fresh build, and the
# typed refusal of a formula past the shared-variable limit; in
# internal/core the _confidence column vs the confidence the policy
# filter compares with β, and the filter itself (core.Release) vs
# Definition 1 over generated rows on and around β; in internal/relation the leaf's filter kernels vs
# EvalBool (the TEXT ones, on dictionary codes, for all six
# comparisons too), an index probe vs a full scan at every version of
# UPDATEs, DELETEs and rollbacks over keys whose hashes collide,
# IndexJoin vs HashJoin at a pinned version, linear lineage
# folds vs the pairwise fold, incremental cache advance vs scratch, every
# operator at the version it is opened at vs that version's rows; in
# internal/sql the planner vs a reference executor written against the
# AST in the test package (the serving benchmark's shapes, the fuzz
# corpora, pinned refusals, generated catalogs and statements, and the
# engine's β partition of them, and a region window wide enough that
# only the factored fold evaluates it), filter pushdown over the fuzz seeds, the one AST renderer
# vs the parser round trip and the fingerprint's invariances, and SQL
# DML's subqueries vs the version its transaction reads; the batch
# operators vs result images recorded while they ran a row at a time
# (every corpus row, in order, with its lineage), the hash join vs the
# nested loop (NULL keys included) and every equi-join spelling vs the
# others, the typed row key vs Value.Key's strings, LIMIT vs the error
# of a row past it, the allocation budget of a row no consumer keeps,
# the uncached read-once confidence vs the tree walk, and lock-free
# variable lookups and string-dictionary reads vs the pinned version
# while the directory and the dictionary grow; in
# internal/server a wire body vs the same statement and version on a
# cold, a warm and a fresh engine. Beside them:
# D&C's top-up reached through a degraded group (the degraded-D&C
# goldens pin its plans), the solver planning over the filter's own
# lineage, /v1/explain under admission and drain, and the withheld-row
# contract on the wire (no withheld cell on any surface; the count and
# a bisection on it as documented allowances).
differential:
	$(GO) test -run 'Differential|OrFactored|FactoredLineagePlansIdentically|EvaluatorMatchesReference|EvaluatorReset|EvaluatorRetarget|DnCCompiles|TooManyShared|MaxPivotsSharedResult|DncSplitGroupFallback' -count=1 ./internal/lineage/ ./internal/strategy/
	$(GO) test -run 'ConfidenceColumn|StructuralSolverError|ProposePlansOverTheFilteredLineage|ReleaseFilter' -count=1 ./internal/core/
	$(GO) test -run 'ExplainRefusedWhileDraining|ExplainAdmissionControl|WithheldRowContract|WireBodyIgnoresCacheState' -count=1 ./internal/server/
	$(GO) test -count=1 ./internal/relation/ ./internal/sql/ \
		-run 'Differential|CompiledPredicate|FilteredLeaf|IndexJoin|LineageFolds|PlannerMatchesReference|GeneratedStatementsMatchReference|EngineReleasesAgainstReference|WideRegionWindows|ServingShape|FilterPushdown|RendererPins|EveryOperatorOpensAtTheGivenVersion|DMLSubqueryReadsAtItsTransaction|ResultImageGoldens|HashJoinMatchesNestedLoop|EquiJoinNullKeysMatchNothing|CompositeKeysDoNotCollide|SameValueIsKeyEquality|HashChainsCompareValues|LimitStopsBeforeTheFailingRow|BatchAllocationBudget|ReadOnceConfidenceDifferential|VarDirectoryUnderGrowth|IndexProbeDifferential|TextKernelDifferential|DictionaryUnderGrowth'

# Every fuzz target, ten seconds each past its seed corpus: the SQL
# query and statement parsers, the executor, filter pushdown into the
# access leaf, the planner against the reference executor over generated
# catalogs and statements, the compiled lineage kernel against the reference
# evaluators, the solvers under random budgets, and the server's
# request decoding with budget resolution. Not part of `check` (a minute
# of CPU); CI runs it as its own step. go test fuzzes one target per
# invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzParseStatement$$' -fuzztime 10s ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzExec$$' -fuzztime 10s ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzFilterPushdown$$' -fuzztime 10s ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzPlannerReference$$' -fuzztime 10s ./internal/sql/
	$(GO) test -run '^$$' -fuzz '^FuzzLineageEvaluators$$' -fuzztime 10s ./internal/lineage/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveBudget$$' -fuzztime 10s ./internal/strategy/
	$(GO) test -run '^$$' -fuzz '^FuzzWire$$' -fuzztime 10s ./internal/server/

# obs-smoke runs the README example workload with tracing and metrics
# on and asserts the observability surfaces are live: the span tree
# shows the strategy phase, and the Prometheus text counted the query
# and types the request-latency histogram.
obs-smoke:
	@out=$$($(GO) run ./cmd/pcqe \
		-table Proposal=testdata/proposal.csv \
		-table CompanyInfo=testdata/companyinfo.csv \
		-role mark=manager -policy manager:investment:0.06 \
		-user mark -purpose investment -min 1 -trace -metrics \
		'SELECT DISTINCT CompanyInfo.Company, Income FROM CompanyInfo JOIN Proposal ON CompanyInfo.Company = Proposal.Company WHERE Funding < 1000000' 2>&1); \
	echo "$$out" | grep -q '^  strategy ' || { echo "obs-smoke: no strategy span in trace"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -qx 'pcqe_engine_queries 1' || { echo "obs-smoke: metrics missing pcqe_engine_queries 1"; echo "$$out"; exit 1; }; \
	echo "$$out" | grep -qx '# TYPE pcqe_engine_request_seconds histogram' || { echo "obs-smoke: metrics missing the request-latency histogram type line"; echo "$$out"; exit 1; }; \
	echo "obs-smoke: ok"

# serve-smoke boots pcqed on the README fixtures, drives one scripted
# HTTP session per role (sue released, mark withheld → propose → apply →
# released, unpolicied pair refused), scrapes the operator listener's
# /metrics (one name per layer and a runtime gauge) and /debug/pprof/,
# checks that a taken operator address fails startup, then SIGTERMs the
# daemon and asserts a clean drain with the audit journal flushed
# gap-free.
serve-smoke:
	@sh scripts/serve_smoke.sh

# One fused probability+derivative sweep of the compiled kernel against
# the reference tree walk's Prob + Derivatives, the parallel D&C
# worker-pool scaling benchmark, and the per-group overhead benchmark
# (2 000 one-result groups; watch allocs/op); then the plan-cache key of
# point_hot's statement, which every request pays; then a 200K-row
# Orders load (B/op, allocs/op and the live bytes per loaded row), the
# access leaf over that table (Item = k, Amount > a, one index chain)
# and a hash-index probe beside it (a Suppliers(Name) point probe, an
# Orders(Supplier) chain walk; ns/op and allocs/op), whose rows/op must
# agree across the commits compared.
bench:
	$(GO) test -run xxx -bench BenchmarkCompiledProbDeriv -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkDnCParallel|BenchmarkDnCSingletonGroups' -benchtime 3x -benchmem .
	$(GO) test -run xxx -bench BenchmarkFingerprint -benchmem ./internal/sql/
	$(GO) test -run xxx -bench 'BenchmarkLoadCSV|BenchmarkLeafScan|BenchmarkIndexProbe' -benchmem .

# Worker-pool scaling across GOMAXPROCS settings: the serial and
# fixed-width variants must not regress at -cpu 1, and workersAuto must
# track the core count upward.
bench-parallel:
	$(GO) test -run xxx -bench BenchmarkDnCParallel -benchtime 3x -cpu 1,2,4 .

# The planner vs a hand-built statement-order plan of the same star
# query, plus the plan-cache hit-rate sweep; writes BENCH_planner.json
# to the working directory.
bench-planner:
	$(GO) run ./cmd/benchrunner -fig planner

# The committed serving baseline: five runs of all four workloads on
# seeds 1..5, traced pass included (≈15 min). A performance PR
# regenerates it at its head and pastes
# `go run ./benchmark -compare <parent>.json BENCH_serving.json` into
# CHANGES.md.
bench-serving:
	$(GO) run ./benchmark -seed 1 -runs 5 -out BENCH_serving.json

# A 3-second pass of the serving benchmark (BENCHMARK.json) on its
# hottest workload, without the traced per-layer pass: catches an API
# change that breaks the benchmark's imports or answer checks. Not part
# of `make check` — the numbers are not a gate here.
bench-smoke:
	$(GO) run ./benchmark -workload point_hot -seconds 3 -trace 0

# Alternating parent/change pairs of the serving benchmark against
# BASE (PAIRS of them, default 5), then `-compare` over the merged
# documents and per-metric win counts; see scripts/bench_pairs.sh.
# WORKLOAD=<name> runs that one workload per pair (≈2 min a pair instead
# of ≈5): what a claimed gain on one workload pastes, ten pairs of it.
# -compare then reports the other workloads as missing; the five pairs
# over all workloads stay the no-regression check.
bench-pairs:
	@sh scripts/bench_pairs.sh $(BASE) $(or $(PAIRS),5) $(WORKLOAD)

# Non-test Go lines per package under internal/ and cmd/, and the total;
# `make loc BASE=<ref>` adds that commit's counts and the per-package
# and total deltas (what a CHANGES.md entry quotes).
loc:
	@sh scripts/loc.sh $(BASE)
