# Convenience wrappers around dune; `make check` is the one command CI
# and contributors run before pushing.

.PHONY: all build test bench bench-smoke bench-flow bench-serve bench-journal bench-loadgen bench-shard bench-chaos ledger ledger-self-test serve-smoke chaos-smoke chaos-shard-smoke loadgen-smoke journal-smoke shard-smoke flow-smoke fmt check clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Fast parallel sanity run: two figures at toy scale on two domains, with
# the per-figure timing JSON.  The cram test test/cli/bench.t pins the
# flag parsing and JSON schema under `dune runtest` (and thus @check).
bench-smoke:
	dune exec bench/main.exe -- fig3-K ablation-batch \
	  --scale 0.05 --reps 2 --jobs 2 --json bench-smoke.json

# Streaming pipeline pin: the cram test test/cli/serve.t pipes an NDJSON
# arrival stream through `ltc serve`, kills it mid-stream, resumes from
# the journal and diffs the concatenated decisions against the
# uninterrupted run.  Runs under `dune runtest` (and thus @check) too.
serve-smoke:
	dune build @serve-smoke

chaos-smoke:
	dune build @chaos-smoke

chaos-shard-smoke:
	dune build @chaos-shard-smoke

# Load-generation pin: the cram test test/cli/loadgen.t drives `ltc
# loadgen` over shaped virtual-clock traffic and pins the report, the
# flight-record schema and the Chrome-trace shape.  Also in @runtest.
loadgen-smoke:
	dune build @loadgen-smoke

# Journal tooling pin: the cram test test/cli/journal.t serves the same
# stream under both codecs, converts the journals both ways, checks the
# restore fingerprints agree, and runs chaos on a binary group-commit
# journal.  Also in @runtest.
journal-smoke:
	dune build @journal-smoke

# Sharded serving pin: the cram test test/cli/shard.t feeds a clustered
# shard-local stream through `ltc serve --shards K`, diffs it against
# the single-session run, and exercises sharded kill/resume via the
# manifest.  Also in @runtest.
shard-smoke:
	dune build @shard-smoke

# Flow-solver pin: the cram test test/cli/flow.t lists the solver
# registry, checks backend parity of MCF-LTC under --mcf-solver
# (sspa/incremental), rejects unknown backends and exercises the
# --mcf-budget-rounds anytime cutoff with its degraded telemetry.  Also
# in @runtest.
flow-smoke:
	dune build @flow-smoke

# Min-cost-flow hot path: cold per-batch solves vs the reused
# arena/workspace with DAG-layer potentials vs the incremental session.
# Refreshes the committed BENCH_flow_batch.json snapshot.
bench-flow:
	dune exec bench/main.exe -- flow-batch-reuse --json BENCH_flow_batch.json

# Streaming service: plain feed vs journaled feed vs checkpoint/restore.
# Refreshes the committed BENCH_serve_replay.json snapshot.
bench-serve:
	dune exec bench/main.exe -- serve-replay --json BENCH_serve_replay.json

# Journal codec comparison: the serve-replay bench times the feed under
# the text codec, the binary codec with group commit, and no journal at
# all, and reports the per-codec rates plus journal_speedup.  Alias of
# bench-serve — both refresh BENCH_serve_replay.json.
bench-journal: bench-serve

# Open-loop SLO measurement: one deterministic Loadgen flash-crowd pass,
# timed.  Refreshes the committed BENCH_loadgen.json snapshot.
bench-loadgen:
	dune exec bench/main.exe -- loadgen --json BENCH_loadgen.json

# Chaos survival cost: one Chaos.run kill/restore pass plus the
# supervised sharded scenario (per-shard scoped faults, online shard
# restores).  Refreshes the committed BENCH_chaos_replay.json snapshot.
bench-chaos:
	dune exec bench/main.exe -- chaos-replay --json BENCH_chaos_replay.json

# Sharded serving: single session vs 1/2/4/8 spatial shards on a
# clustered shard-local stream, with a core-scaled speedup bar.
# Refreshes the committed BENCH_serve_shard.json snapshot.
bench-shard:
	dune exec bench/main.exe -- serve-shard --json BENCH_serve_shard.json

# The end-to-end arrival-ledger benchmark declared in BENCHMARK.json
# (ledger/README.md): one run per workload with the declared command.
# Each run takes about a minute; the ledger's correctness gate fails the
# target on a wrong decision stream.
LEDGER_WORKLOADS = serve-journaled batch-mcf

ledger:
	for w in $(LEDGER_WORKLOADS); do \
	  python3 ledger/run.py --workload $$w --seed 1 --seconds 7 || exit 1; \
	done

# The ledger's own check: tampered decision streams must be caught.
ledger-self-test:
	python3 ledger/run.py --self-test

fmt:
	dune build @fmt --auto-promote

check:
	dune build @check

clean:
	dune clean
