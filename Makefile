.PHONY: all build test bench bench-quick bench-smoke bench-trajectory bench-diff \
	bench-diff-gate examples regress regress-exact regress-perf regress-bless \
	regress-paper regress-bless-paper trace-paper simcheck-smoke simcheck-selftest \
	trace-smoke perf-smoke fmt fmt-check deps deps-fmt clean

all: build

# Generated result files (suite results, micro-bench output) land here
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
# 40-minute cost.
bench-smoke:
	QUICK=1 dune exec bench/main.exe -- smoke

# Host-performance trajectory: run the simbench suite (wall-clock + GC
# self-measurements land in BENCH_simbench.json) and the Bechamel
# micro-benchmarks of the simulator primitives (ns/run and minor words/run,
# written to bench-micro.txt). Virtual-time results are unaffected; this
# measures how fast the simulator itself runs on the host.
bench-trajectory:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- run --out $(ART)/simbench-results.json --bench-out BENCH_simbench.json
	dune exec bench/main.exe -- micro | tee $(ART)/bench-micro.txt

# Advisory wall-clock comparison against a previous trajectory (e.g. a
# cached BENCH file from the last CI run). Never fails: wall times on
# shared runners are noise, the trajectory is for reading, not gating.
PREV_BENCH ?= BENCH_simbench.prev.json
bench-diff:
	dune exec bin/simbench.exe -- bench-diff $(PREV_BENCH) BENCH_simbench.json

# Regression harness: run the simbench suite against the golden baselines
# under regress/baselines/. `regress` applies both gates; the -exact and
# -perf variants are the split CI jobs. All targets honour EPOCHS_JOBS
# (domain fan-out; results are bit-identical at any value) and write
# wall-clock self-measurements to BENCH_simbench.json.
regress:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- check --out $(ART)/simbench-results.json

regress-exact:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- check --exact --out $(ART)/simbench-results.json

regress-perf:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- check --perf --out $(ART)/simbench-results.json

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
# not only in the scheduled paper-scale job. Timings are not gated here.
PERF_WORKLOADS = $(shell sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)
perf-smoke:
	@test -n "$(PERF_WORKLOADS)" || { echo "perf-smoke: no workloads in BENCHMARK.json"; exit 1; }
	@for w in $(PERF_WORKLOADS); do \
		echo "perf-smoke: $$w"; \
		dune exec perf/main.exe -- run --workload $$w --seconds 1 || exit 1; \
	done

# Paper-scale tier: the 192-thread configurations of the paper's headline
# figures (ABtree on the 4-socket topology, all six allocator models x
# {debra, token} x batch/AF), gated bit-exactly against their own blessed
# baselines. ~2 min single-domain; CI runs it on a schedule, not per PR.
regress-paper:
	@mkdir -p $(ART)
	dune exec bin/simbench.exe -- check --tier paper --exact \
		--out $(ART)/simbench-paper-results.json --bench-out BENCH_simbench_paper.json

# One traced paper-scale entry: writes paper-traces/<id>.trace.json for
# Perfetto. Tracing never perturbs virtual time, so the results JSON is
# byte-identical to the untraced gate run.
trace-paper:
	dune exec bin/simbench.exe -- run --only paper-je-ebr-n192 --trace paper-traces \
		--out paper-trace-results.json --bench-out paper-trace-bench.json

# Gating form of bench-diff: fail on >25% wall-clock regression of any
# suite entry vs the cached previous BENCH file. CI skips the gate when the
# commit message contains [bench-skip] (see .github/workflows/ci.yml);
# policy in EXPERIMENTS.md.
bench-diff-gate:
	dune exec bin/simbench.exe -- bench-diff --gate 25 $(PREV_BENCH) BENCH_simbench.json

# Re-record the golden baselines (multi-seed, derives the perf tolerances).
# Review the diff before committing: blessing legitimizes whatever the
# current build produces.
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
