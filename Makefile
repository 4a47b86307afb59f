.PHONY: all build test bench bench-quick bench-smoke examples regress regress-bless \
	regress-paper regress-bless-paper trace-paper simcheck-smoke simcheck-selftest \
	trace-smoke perf-smoke perf-gate fmt fmt-check deps deps-fmt clean

all: build

# Generated result files (suite results, the perf-gate table) land here
# instead of littering the repo root. Never committed.
ART = regress/artifacts

build:
	dune build @all

test:
	dune runtest

# Regenerate every table and figure of the paper (~40 min single-core).
bench:
	dune exec bench/main.exe

bench-quick:
	QUICK=1 dune exec bench/main.exe

# The cheapest bench subset: exercises bench/main.exe in CI without the
# 40-minute cost. Runs fig1, ablate-allocfix (the one experiment that
# drives batch-aware JEmalloc), fig11b (ten reclaimers, batch and AF, at
# 192 threads) and ablate-zipf (the one experiment that sets the key
# distribution); ~30 s with QUICK=1.
bench-smoke:
	QUICK=1 dune exec bench/main.exe -- smoke

# Regression harness: run the pr tier of the simbench suite against the
# golden baselines under regress/baselines/. `simbench check` is the one
# gate: each entry must run at its baseline's seed, match its digest bit
# for bit, and record zero grace-period violations. All regress targets
# honour EPOCHS_JOBS (domain fan-out; results are bit-identical at any
# value).
regress:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- check --out $(ART)/simbench-results.json

# Model checker: explore adversarial schedules across every scenario with a
# bounded budget (350 seeds x 3 strategies = 1050+ distinct schedules per
# scenario, ~20 s at -j 4), failing on any oracle violation; counterexample
# traces land in simcheck-traces/ (shrunk and replay-verified). Honours
# EPOCHS_JOBS like the regress targets.
simcheck-smoke:
	dune exec bin/simcheck.exe -- run --budget 350

# Seeded-bug matrix: every mutant must be caught by its oracle and every
# shrunk counterexample must replay bit-identically.
simcheck-selftest:
	dune exec bin/simcheck.exe -- selftest

# Event-tracing smoke: record a traced run (the paper's core scenario at a
# small thread count), schema-validate the emitted Chrome trace JSON, and
# leave trace-smoke.trace.json behind for the CI artifact / Perfetto. The
# traced run also prints the trace-derived profiler report, whose shares are
# cross-checked bit-exactly against the metrics counters in `make test`.
trace-smoke:
	dune exec bin/epochs.exe -- run --ds list --smr debra --alloc jemalloc \
		--threads 8 --keys 256 --duration 8 --trace trace-smoke.trace.json
	dune exec bin/epochs.exe -- validate-trace trace-smoke.trace.json

# Host-cost benchmark smoke: one short run of every workload BENCHMARK.json
# declares (--seconds 1; a run still measures at least 40 passes, ~1.5 min
# in all). A run exits non-zero when a trial failed — a grace-period
# violation, or a digest at seed 42 that differs from regress/baselines/ —
# so this gates the paper-tier entries the benchmark runs on every change,
# not only in the scheduled paper-scale job. Two traced runs, of the n192
# control workload (~20 s) and of pr-32 (~15 s; the OCC tree and the
# skiplist under DEBRA, hazard pointers and Token-EBR), also fail when a
# traced digest differs from the untraced one or the trace ring drops
# events, and they run the per-layer micro-benchmarks, the event-queue
# dispatch micro among them. Timings are gated by perf-gate.
PERF_WORKLOADS = $(shell sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
perf-smoke:
	@test -n "$(PERF_WORKLOADS)" || { echo "perf-smoke: no workloads in BENCHMARK.json"; exit 1; }
	@for w in $(PERF_WORKLOADS); do \
		echo "perf-smoke: $$w"; \
		dune exec perf/main.exe -- run --workload $$w --seconds 1 || exit 1; \
	done
	@for w in leak-token-192 pr-32; do \
		echo "perf-smoke: $$w traced"; \
		dune exec perf/main.exe -- run --workload $$w --seconds 1 --trace 1 || exit 1; \
	done

# Host-time gate: `perf/main.exe compare` of the parent commit against the
# working tree, 3 alternating parent/change pairs of 1 s runs on every
# BENCHMARK.json workload (~6 min on 2 vCPUs), under the verdict rule of
# perf/compare.ml. The parent is HEAD when `git status --porcelain` shows
# local changes and HEAD^1 otherwise (in CI: a PR merge commit's base, or
# the previous commit on a push). It is checked out with `git worktree add`
# into a temporary directory outside the dune workspace, which would
# otherwise build it as part of this project, and removed on every exit.
# Fails when compare exits non-zero (a side that does not build, a run
# with incorrect outputs) or when any row's verdict reads `worse`, which
# compare prints but does not exit on; `same`, `unresolved` and `improved`
# pass. The table lands in $(ART)/perf-gate.txt.
# Coverage: the workloads of record, which run four pr-tier entries
# (pr-32), three paper-tier ABtree entries and offheap-1d. The other 16
# pr-tier entries run for 1-120 ms each and spread beyond 1.25x between
# runs of one build, so no single timing of them could tell a 25%
# regression from noise; `make regress` gates their digests.
# Limitation: compare reads the parent's BENCHMARK.json, so a benchmark
# change that renames or removes an end-to-end metric fails this gate.
perf-gate:
	@mkdir -p $(ART)
	@if [ -n "$$(git status --porcelain)" ]; then rev=HEAD; else rev=HEAD^1; fi; \
	parent=$$(mktemp -d) || exit 1; \
	trap 'rm -rf "$$parent"; git worktree prune' EXIT; \
	trap 'exit 130' HUP INT TERM; \
	git worktree add --detach "$$parent" "$$rev" || exit 1; \
	echo "perf-gate: parent $$(git rev-parse --short "$$rev") ($$rev) vs the working tree"; \
	{ dune exec perf/main.exe -- compare "$$parent" . --pairs 3 --seconds 1 \
		|| echo "perf-gate: compare exited $$?"; } 2>&1 | tee $(ART)/perf-gate.txt; \
	if grep -q '^perf-gate: compare exited' $(ART)/perf-gate.txt; then exit 1; fi; \
	worse=$$(awk '$$NF == "worse"' $(ART)/perf-gate.txt); \
	if [ -n "$$worse" ]; then \
		echo "perf-gate: worse than the parent by more than the bound:"; \
		echo "$$worse"; exit 1; \
	fi; \
	echo "perf-gate: no metric worse than the parent"

# Paper-scale tier: the 192-thread configurations of the paper's headline
# figures (ABtree on the 4-socket topology, all six allocator models x
# {debra, token, hazard} x batch/AF), under the same gate against their
# own blessed baselines. About 7 s on 2 domains; CI runs it on every PR
# (ci.yml) and nightly with a traced run (paper-scale.yml).
regress-paper:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- check --tier paper \
		--out $(ART)/simbench-paper-results.json

# One traced paper-scale entry: writes paper-traces/<id>.trace.json for
# Perfetto. Tracing never perturbs virtual time, so the results JSON is
# byte-identical to the untraced gate run.
trace-paper:
	dune exec bin/simbench.exe -- run --only paper-je-ebr-n192 --trace paper-traces \
		--out paper-trace-results.json

# Re-record the golden baselines: one run per entry at its seed. Bless
# refuses, writing nothing, when a run would fail `check` (a grace-period
# violation). Review the diff before committing: blessing legitimizes
# whatever digests the current build produces.
regress-bless:
	dune exec bin/simbench.exe -- bless

regress-bless-paper:
	dune exec bin/simbench.exe -- bless --tier paper

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt; \
	else \
		echo "warning: ocamlformat not installed; skipping (make deps-fmt)"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "warning: ocamlformat not installed; skipping format check (make deps-fmt)"; \
	fi

# Dependency setup wrappers so CI jobs only ever invoke make/dune targets.
deps:
	opam install . --deps-only --with-test --yes

deps-fmt:
	opam install --yes ocamlformat.0.26.2

examples:
	dune exec examples/quickstart.exe
	dune exec examples/timeline_demo.exe
	dune exec examples/reclaimer_shootout.exe
	dune exec examples/af_tuning.exe
	dune exec examples/custom_structure.exe
	dune exec examples/multicore_offheap.exe

clean:
	dune clean
