# Convenience wrappers around dune; `make test` is the tier-1 gate.

.PHONY: all check test test-fast bench bench-modarith bench-obs bench-setup bench-serve bench-scale bench-telemetry bench-trajectory faults frontier serve-smoke clean

all:
	dune build

# Tier-1: full build + full test suite (the CI gate).
test:
	dune build && dune runtest

# Everything in one command: build, full tests, and every self-test —
# the modular-arithmetic kernel smoke, the setup-path smoke (gated prime
# search cross-checked against the reference pipeline), the soundness
# frontier smoke (search-dominates-registry assertion), the run-log
# inspector's embedded v2/v3 samples, the tracing layer's
# zero-cost-when-disabled bound, and the verification-service smoke
# (daemon round-trip with a forced worker kill + torn-tail recovery),
# the telemetry-plane smoke (ledger exactness, trace stitching, torn
# frame drill), the committed-benchmark trajectory table, the repo
# benchmark's smoke run (every perfbench workload at a tiny size), the
# three GNI experiments at a quarter budget on the default domain count
# (two workers racing to build an instance's candidate set), and E1-E3 and
# E12 at a quarter budget (every row-hash caller end to end, E2 over both
# of Protocol 2's field paths: one-limb primes up to n = 12, multi-limb
# above), and the E13 fault sweep at a quarter budget (every protocol's
# verifier under every fault class). The suite
# runs twice: once on the C bignum kernels, once on the pure-OCaml
# fallback, so the fallback's bit-identity is tested, not assumed. The
# scale smoke runs three times, on the default domain count, at
# IDS_DOMAINS=1 and at IDS_DOMAINS=4, so Apihash's split and one-range
# paths, and its BFS-beside-the-tables batch with more domains than this
# box has cores, all pass its acceptance and dense = sparse checks.
check:
	dune build && dune runtest && \
	IDS_BIGNUM_KERNEL=ocaml dune test --force && \
	IDS_RUNLOG= IDS_TRIALS_SCALE=0.25 dune exec bench/main.exe -- e5 e9 e11 && \
	IDS_RUNLOG= IDS_TRIALS_SCALE=0.25 dune exec bench/main.exe -- e1 e2 e3 e12 && \
	IDS_RUNLOG= IDS_TRIALS_SCALE=0.25 dune exec bench/main.exe -- e13 && \
	dune exec bench/modarith/main.exe -- --smoke -o /dev/null && \
	dune exec bench/setup/main.exe -- --smoke -o /dev/null && \
	dune exec bench/frontier/main.exe -- --smoke -o /dev/null && \
	dune exec bin/ids_inspect.exe -- --self-test && \
	dune exec bench/obs/main.exe -- --smoke && \
	dune exec bench/serve/main.exe -- --smoke && \
	dune exec bench/scale/main.exe -- --smoke -o /dev/null && \
	IDS_DOMAINS=1 dune exec bench/scale/main.exe -- --smoke -o /dev/null && \
	IDS_DOMAINS=4 dune exec bench/scale/main.exe -- --smoke -o /dev/null && \
	dune exec bench/telemetry/main.exe -- --smoke && \
	dune exec bin/ids_inspect.exe -- --bench-summary . && \
	python3 perfbench/smoke_test.py

# Same suite with Monte Carlo trial budgets cut down via IDS_TRIALS_SCALE.
test-fast:
	dune build @runtest-fast

# Regenerate the EXPERIMENTS.md tables (plus the JSON run log ids_runs.jsonl).
# IDS_DOMAINS / IDS_TRIALS_SCALE / IDS_RUNLOG tune workers, budgets, log path.
bench:
	dune exec bench/main.exe -- tables

# Modular-arithmetic kernel microbenchmark: naive Modarith vs the
# Montgomery/Barrett contexts, and schoolbook vs Toom-3 products; fails if
# a row's naive/ctx speedup is under its floor. Regenerates
# BENCH_modarith.json.
bench-modarith:
	dune exec bench/modarith/main.exe

# Tracing-layer overhead assertion: measures the disabled-path cost of
# every instrumentation primitive and fails if one Protocol 2 run's worth
# exceeds 2% of the run itself.
bench-obs:
	dune exec bench/obs/main.exe

# Setup-path benchmark: sieve-gated prime search vs the reference pipeline
# per protocol interval, plus end-to-end dSym trial setup at n=24.
# Regenerates BENCH_setup.json and asserts the speedup targets.
bench-setup:
	dune exec bench/setup/main.exe

# Fast fault-sweep smoke: E13 (degradation curves) with reduced trial
# budgets and no run log. IDS_FAULT_SPEC adds one custom grid point.
faults:
	IDS_TRIALS_SCALE=0.2 IDS_RUNLOG= dune exec bench/main.exe -- faults

# E17: the empirical soundness frontier — grid search over the cheat
# strategy space per protocol, compared against the registry adversaries
# and the analytic bounds. Regenerates BENCH_frontier.json (fixed trial
# budgets, bit-identical across IDS_DOMAINS).
frontier:
	dune exec bench/frontier/main.exe

# E18 smoke: boot the ids-serve daemon, run a handful of requests through
# forked workers (one with a forced mid-request kill, recovered by retry),
# assert bit-identity against the in-process engine and a clean SIGTERM
# drain, then the torn-tail recovery drill on the framed run log.
serve-smoke:
	dune exec bench/serve/main.exe -- --smoke

# E19: the million-node scale run — degree-4 sparse expander through the
# spanning-tree PLS and the Section 4 eps-API hash, end to end,
# with nodes/sec, peak RSS and a traced run's phase split. Regenerates
# BENCH_scale.json, stamped with the domain count and commit. --smoke
# (n = 10^4, also wired into @runtest-fast and `make check`) adds the
# peak-RSS bound and the dense/sparse bit-identity assertion.
bench-scale:
	dune exec bench/scale/main.exe

# E18 full chaos bench: 60 requests under a 10% seeded worker-kill schedule
# plus forced kills, the shed-at-the-bound burst phase, and the kill -9
# torn-tail drill. Regenerates BENCH_serve.json and asserts 100%
# availability of accepted requests with every record bit-identical.
bench-serve:
	dune exec bench/serve/main.exe

# E20 full telemetry bench: chaos workload with the telemetry plane on —
# the server-folded ledger must equal the in-process oracle's net-bit sums
# exactly with every counted gap accounted for, the merged Chrome trace
# must stitch spans from server and worker pids under shared trace ids,
# and the enabled-path overhead must stay under 3% of the E18-style
# throughput run. Regenerates BENCH_telemetry.json.
bench-telemetry:
	dune exec bench/telemetry/main.exe

# The benchmark trajectory: one headline line per committed BENCH_*.json,
# rendered by the run-log inspector (parse failure = non-zero exit, so a
# malformed committed benchmark fails `make check`).
bench-trajectory:
	dune exec bin/ids_inspect.exe -- --bench-summary .

clean:
	dune clean
