#!/usr/bin/env python3
"""Arrival-ledger benchmark: `ltc serve` and MCF-LTC end to end.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 ledger/run.py --self-test

Run it from the root of a source checkout.  It builds bin/ltc.exe and
ledger/probe.exe with dune (release profile), generates the workload's
instance and arrival stream, drives the real `ltc` binary from this
one-thread process over one stdin/stdout pipe pair on open-loop schedules
drawn from the seed, checks every output, and prints one JSON object as
the last line of stdout.  With
--trace 1 it instead runs the workload in-process through ledger/probe.exe
and reports the per-layer metrics.  README.md lists every metric.
"""

import argparse
import gc
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

# The open-loop rate is about half of serve-journaled's capacity
# (arrivals_per_s) on a 2-core host when this benchmark was introduced.
WORKLOADS = {
    "serve-journaled": {"tasks": 10_000, "workers": 100_000, "rate": 1_500},
    "batch-mcf": {"tasks": 1_000, "workers": 30_000},
}

SETUP_REPS = 3          # set-ups after each pass; setup_s is the fastest
CAPACITY_PASSES = 2     # the first and the last pass; their median
PACED_PASSES = 3        # open-loop passes; each percentile is their median
BATCH_RUNS = 6          # full `ltc run`s of batch-mcf; times are medians
SHARDS = 2              # the traced run's shard-layer pass (= nproc)
KILL_AT = 5_000         # arrival index at which the recovery run is killed
RESTARTS = 2            # `--resume` restarts after the kill
RESUME_TAIL = 1_000     # arrivals offered past the kill index after restart
TRACE_PREFIX = 10_000   # arrivals of the traced run's comparison passes
TRICKLE_S = 0.01        # arrival spacing while waiting for a server to be ready
RSS_POLL_S = 0.01       # how often a child's peak resident memory is read
LATE_BOUND_MS = 100.0   # generator lateness beyond which a run is invalid
UNATTRIBUTED_BOUND = 0.05
PROC_TIMEOUT_S = 150.0
# Instances come from one fixed seed, so the spread between runs is the
# program's and the host's, not the instance's: across instance seeds 1-5,
# ltc_latency_arrivals moved by 15% and arrivals_per_s by 18-24%.  --seed
# drives the open-loop arrival schedules.
INSTANCE_SEED = 5
# The host's speed swings by up to 1.8x over minutes on a shared VM, and
# every time of a run swings with it.  So between its passes a run times a
# fixed CPU-bound job that runs no project code, and reports its times
# (rates) scaled to a host on which that job takes HOST_REF_S: a time is
# multiplied by HOST_REF_S / the median job time of the run.  The raw
# figures and the job times are in `# facts`.
HOST_REF_S = 0.1
HOST_PROBES_PER_GROUP = 3

now = time.perf_counter
host_probes = []


def host_probe():
    for _ in range(HOST_PROBES_PER_GROUP):
        t = now()
        d = {}
        for i in range(500_000):
            d[i * 7919 % 500_009] = i
        sorted(d.values(), reverse=True)
        host_probes.append(now() - t)


class Invalid(Exception):
    """The run cannot be judged (not a regression): exit 3, no result."""


def die(msg, code=2):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


def peak_rss_mb(pid):
    """The process's own peak resident memory so far.  Not wait4's
    ru_maxrss: a child's also counts this process's resident memory at the
    fork."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def percentile(xs, q):
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


# ---------------------------------------------------------------- build

def build():
    for f in ("dune-project", "bin/ltc.ml", "lib", "ledger/probe.ml"):
        if not os.path.exists(f):
            die(f"{f} not found: run from the root of an ltc source checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "bin/ltc.exe", "ledger/probe.exe"],
        env=env, stdout=sys.stderr)
    if r.returncode != 0:
        die("build failed")
    return ("_build/default/bin/ltc.exe", "_build/default/ledger/probe.exe")


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                              capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


# ------------------------------------------------------------ workloads

def generate(ltc, work, tasks, workers, seed, scale=1):
    """The instance, and its workers as an NDJSON arrival stream (the
    conversion test/cli/serve.t uses)."""
    inst = os.path.join(work, "instance.inst")
    subprocess.run([ltc, "generate", "-T", str(tasks), "-W", str(workers),
                    "--scale", str(scale), "-e", "0.02", "--seed", str(seed),
                    "-o", inst], check=True, stdout=subprocess.DEVNULL)
    arrivals = []
    with open(inst) as f:
        for line in f:
            if line.startswith("w "):
                _, i, x, y, acc, cap = line.split()
                arrivals.append(
                    f'{{"index":{i},"x":{x},"y":{y},"accuracy":{acc},'
                    f'"capacity":{cap}}}\n'.encode())
    path = os.path.join(work, "arrivals.ndjson")
    with open(path, "wb") as f:
        f.writelines(arrivals)
    return inst, path, arrivals


def probe(probe_exe, *args):
    r = subprocess.run([probe_exe, *args], capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        die(f"probe {args[0]} failed: {r.stderr.strip()}")
    return json.loads(lines[-1])


def read_lines(path):
    with open(path, "rb") as f:
        return f.read().splitlines()


# ---------------------------------------------------------- load generator

def drive(argv, lines, stderr, *, rate=None, rng=None, want=None,
          finish="close"):
    """Offer `lines` to a spawned server and collect its decision lines.

    rate None offers everything at once.  Otherwise arrivals trickle every
    TRICKLE_S until the first decision shows the server is ready, and from
    then on follow a Poisson schedule of `rate` per second: open loop, so
    a stalled server does not slow the schedule.  Once `want` decisions
    are in, `finish` either closes stdin (the server drains and exits) or
    SIGKILLs the server.  Each decision is stamped when it is read."""
    gc.disable()    # no collector pauses inside the timed loop
    t_spawn = now()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=stderr)
    fin, fout = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(fin, False)
    os.set_blocking(fout, False)
    n = len(lines)
    due = [0.0] * n
    sent, base, late = 0, None, []
    buf = bytearray()
    chunks, stamps = [], []
    next_t = t_spawn
    rss, next_poll = 0.0, t_spawn
    feeding = True      # still enqueueing new arrivals
    in_open = True      # our end of the server's stdin
    finished = False
    while True:
        t = now()
        if t - t_spawn > PROC_TIMEOUT_S:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise RuntimeError(f"{argv[1]} did not finish in time")
        if t >= next_poll:
            rss = max(rss, peak_rss_mb(proc.pid))
            next_poll = t + RSS_POLL_S
        while feeding and sent < n and next_t <= t:
            buf += lines[sent]
            due[sent] = next_t
            if base is not None:
                late.append(t - next_t)
            sent += 1
            if rate is None:
                pass
            elif base is None:
                next_t = t_spawn + sent * TRICKLE_S
            else:
                next_t += rng.expovariate(rate)
        if in_open and buf:
            try:
                del buf[:os.write(fin, buf)]
            except BlockingIOError:
                pass
            except BrokenPipeError:   # the server stopped at completion
                buf.clear()
                feeding = False
        if not finished and want is not None and len(stamps) >= want:
            finished = True
            feeding = False
            if finish == "kill":
                rss = max(rss, peak_rss_mb(proc.pid))
                # not proc.kill(): it may reap the child before wait4 can
                os.kill(proc.pid, signal.SIGKILL)
        if in_open and not buf and (sent == n or not feeding):
            proc.stdin.close()
            in_open = False
        timeout = RSS_POLL_S
        if feeding and sent < n:
            timeout = min(timeout, max(0.0, next_t - now()))
        r, _, _ = select.select([fout], [fin] if in_open and buf else [],
                                [], timeout)
        if r:
            data = os.read(fout, 1 << 16)
            if not data:
                rss = max(rss, peak_rss_mb(proc.pid))
                break
            t = now()
            stamps.extend([t] * data.count(b"\n"))
            chunks.append(data)
            if rate is not None and base is None and stamps:
                base = sent
                next_t = stamps[0] + rng.expovariate(rate)
    _, status, _ = os.wait4(proc.pid, 0)
    gc.enable()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if in_open:
        proc.stdin.close()
    proc.stdout.close()
    out = b"".join(chunks).splitlines()
    return {"t_spawn": t_spawn, "out": out, "stamps": stamps, "due": due,
            "base": base, "late": late, "sent": sent,
            "rss_mb": rss, "code": proc.returncode}


class Gate:
    """Counts offered arrivals and the ones whose decision is missing,
    out of order, invalid or different from the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def expect(self, what, got, want):
        bad = sum(1 for i, w in enumerate(want)
                  if i >= len(got) or got[i] != w)
        bad += max(0, len(got) - len(want))
        self.attempted += len(want)
        self.failed += bad
        if bad:
            self.notes.append(f"{what}: {bad} of {len(want)} decisions wrong")

    def check(self, what, verdict):
        if not verdict.get("ok", False):
            self.failed += max(1, len(verdict.get("errors", [])))
            self.notes.append(f"{what}: {verdict.get('errors')}")


# ------------------------------------------------------------ serve runs

def serve_argv(ltc, inst, journal, shards=None):
    argv = [ltc, "serve", "--load", inst, "-a", "LAF", "--journal", journal]
    if shards:
        argv += ["--shards", str(shards)]
    return argv


def discard(path):
    """Unlink a spent journal (and its shard journals): its unwritten
    pages are dropped instead of being written back while later passes
    run."""
    d, base = os.path.split(path)
    for f in os.listdir(d):
        if f == base or f.startswith(base + "."):
            os.remove(os.path.join(d, f))


def copy_journal(src, dst):
    d, base = os.path.split(src)
    for f in os.listdir(d):
        if f == base or f.startswith(base + "."):
            shutil.copyfile(os.path.join(d, f),
                            os.path.join(d, os.path.basename(dst)
                                         + f[len(base):]))


def serve_setups(ltc, inst, work, arrivals, ref, gate, stderr):
    """Spawn to first decision, SETUP_REPS times."""
    host_probe()
    journal = os.path.join(work, "setup.j")
    times = []
    for _ in range(SETUP_REPS):
        r = drive(serve_argv(ltc, inst, journal), arrivals[:64], stderr,
                  want=1, finish="kill")
        discard(journal)
        gate.expect("setup", r["out"][:1], ref[:1])
        times.append(r["stamps"][0] - r["t_spawn"])
    return times


def paced_run(ltc, work, inst, cfg, arrivals, ref, seed, name, seconds,
              gate, stderr, k=0):
    """One open-loop pass: latency samples for the arrivals decided after
    the server was ready, up to the window of `seconds` at the workload
    rate."""
    window = min(len(ref), int(cfg["rate"] * seconds))
    rng = random.Random(f"{name}:{seed}:{k}")
    journal = os.path.join(work, "paced.j")
    r = drive(serve_argv(ltc, inst, journal), arrivals, stderr,
              rate=cfg["rate"], rng=rng, want=window)
    discard(journal)
    gate.expect("paced", r["out"], ref[:min(r["sent"], len(ref))])
    base = r["base"] or 0
    lat = [(r["stamps"][j] - r["due"][j]) * 1e3
           for j in range(base, min(window, len(r["stamps"])))]
    late_max = max(r["late"]) * 1e3 if r["late"] else 0.0
    if late_max > LATE_BOUND_MS:
        raise Invalid(f"generator fell {late_max:.1f} ms behind its "
                      f"schedule (bound {LATE_BOUND_MS} ms)")
    return lat, late_max, r


def kill_and_resume(ltc, work, inst, arrivals, ref, gate, stderr):
    """Kill a journaled server at a fixed arrival index, then restart it
    with `--resume` on a copy of its journal: the two streams must
    concatenate to the uninterrupted one.  Returns the restarts' spawn to
    first new decision times."""
    killed = os.path.join(work, "kill.j")
    resumed = os.path.join(work, "resume.j")
    part1 = drive(serve_argv(ltc, inst, killed), arrivals[:KILL_AT],
                  stderr, want=KILL_AT, finish="kill")
    gate.expect("killed run", part1["out"], ref[:KILL_AT])
    offered = KILL_AT + RESUME_TAIL
    times = []
    for _ in range(RESTARTS):
        copy_journal(killed, resumed)
        part2 = drive([ltc, "serve", "--resume", resumed], arrivals[:offered],
                      stderr, want=RESUME_TAIL)
        discard(resumed)
        gate.expect("resumed run", part2["out"], ref[KILL_AT:offered])
        if part2["stamps"]:
            times.append(part2["stamps"][0] - part2["t_spawn"])
    discard(killed)
    return times


def capacity_run(ltc, work, inst, arrivals, stderr, shards=None):
    """The whole stream offered at once, first decision to the completing
    one."""
    journal = os.path.join(work, "capacity.j")
    cap = drive(serve_argv(ltc, inst, journal, shards), arrivals, stderr)
    discard(journal)
    cap["rate"] = ((len(cap["stamps"]) - 1)
                   / (cap["stamps"][-1] - cap["stamps"][0]))
    return cap


def serve_trace0(ltc, probe_exe, work, inst, arrivals_path, arrivals, cfg,
                 name, seed, seconds, gate, stderr, facts):
    # Reference: the same stream through an in-process session.
    ref_path = os.path.join(work, "reference.ndjson")
    probe(probe_exe, "replay", inst, arrivals_path, ref_path)
    ref = read_lines(ref_path)
    setup = lambda: serve_setups(ltc, inst, work, arrivals, ref, gate, stderr)
    setups = setup()

    # The host's speed drifts over tens of seconds, so the two capacity
    # passes open and close the run.  Each percentile is the median over
    # independent open-loop passes, so one pass hit by a host stall does
    # not move the result.
    caps = [capacity_run(ltc, work, inst, arrivals, stderr)]
    setups += setup()
    passes = []
    for k in range(PACED_PASSES):
        passes.append(paced_run(ltc, work, inst, cfg, arrivals, ref, seed,
                                name, seconds, gate, stderr, k))
        setups += setup()
    for _ in range(1, CAPACITY_PASSES):
        caps.append(capacity_run(ltc, work, inst, arrivals, stderr))
        setups += setup()
    for cap in caps:
        gate.expect("capacity", cap["out"], ref)
    cap_path = os.path.join(work, "capacity.ndjson")
    with open(cap_path, "wb") as f:
        f.write(b"".join(l + b"\n" for l in caps[0]["out"]))
    gate.check("capacity stream", probe(probe_exe, "check", inst, cap_path))
    lats = [p[0] for p in passes]
    tail = {q: statistics.median(percentile(l, q) for l in lats)
            for q in (0.5, 0.99, 0.999)}

    recovers = kill_and_resume(ltc, work, inst, arrivals, ref, gate, stderr)
    facts.update({
        "offered": {"capacity": [c["sent"] for c in caps],
                    "paced": [p[2]["sent"] for p in passes],
                    "killed": KILL_AT, "resumed": KILL_AT + RESUME_TAIL},
        "rate_per_s": cfg["rate"], "kill_at": KILL_AT,
        "latency_samples": [len(l) for l in lats],
        "samples_beyond_p999": [len(l) - int(0.999 * len(l)) for l in lats],
        "setup_samples": len(setups), "restarts": len(recovers),
        "recover_s": statistics.median(recovers) if recovers else None,
        "latency_p50_ms": tail[0.5],
        "loadgen_late_ms_max": max(p[1] for p in passes),
    })
    return {
        "setup_s": (min(setups), "s"),
        "arrivals_per_s": (statistics.median(c["rate"] for c in caps), "1/s"),
        "latency_p99_ms": (tail[0.99], "ms"),
        "latency_p999_ms": (tail[0.999], "ms"),
        "ltc_latency_arrivals": (float(len(ref)), "arrivals"),
        "peak_rss_mb": (statistics.median(c["rss_mb"] for c in caps), "MB"),
    }


def traced_replay(probe_exe, work, inst, arrivals_path, gate, tag,
                  shards=None):
    """probe replay --traced: the per-layer metrics of one in-process
    configuration; its streams are checked, and returned as the
    reference for the binary."""
    out = os.path.join(work, f"{tag}.ndjson")
    args = ["replay", "--traced", os.path.join(work, f"{tag}.trace.json"),
            "--prefix", str(TRACE_PREFIX),
            "--journal", os.path.join(work, f"{tag}.j")]
    if shards:
        args += ["--shards", str(shards)]
    res = probe(probe_exe, *args, inst, arrivals_path, out)
    gate.check(f"{tag} stream", probe(probe_exe, "check", inst, out))
    ref = read_lines(out)
    gate.expect(f"{tag} untraced passes", ref if res["streams_equal"] else [],
                ref)
    return res, ref


def serve_trace1(ltc, probe_exe, work, inst, arrivals_path, arrivals, cfg,
                 name, seed, seconds, gate, stderr, facts):
    res, ref = traced_replay(probe_exe, work, inst, arrivals_path, gate,
                             "traced")
    # The shard layer: the same instance and journal through a
    # Shard_server of SHARDS shards.  An open-loop sharded server's tail
    # is bimodal from run to run on a 2-core host, so no workload of this
    # benchmark times it end to end; its stream is still checked against
    # the binary's, offered at once.
    sres, sref = traced_replay(probe_exe, work, inst, arrivals_path, gate,
                               "sharded", SHARDS)
    scap = capacity_run(ltc, work, inst, arrivals, stderr, SHARDS)
    gate.expect("sharded binary", scap["out"], sref)
    # The binary's open-loop stream must match the traced run too; the
    # pass also gives the generator's lateness.
    _, late_max, paced = paced_run(ltc, work, inst, cfg, arrivals, ref, seed,
                                   name, seconds, gate, stderr)
    facts.update({"offered": {"traced": res["decided"],
                              "sharded": sres["decided"],
                              "untraced": TRACE_PREFIX,
                              "sharded_binary": scap["sent"],
                              "paced": paced["sent"]},
                  "spans": res["spans"] + sres["spans"],
                  "traced_wall_s": res["wall_s"],
                  "sharded_wall_s": sres["wall_s"],
                  "sharded_unattributed_frac":
                      sres["metrics"]["trace.unattributed_frac"]})
    m = res["metrics"]
    m.update({k: v for k, v in sres["metrics"].items()
              if k.startswith("shard.")})
    m["loadgen.late_ms_max"] = late_max
    if sres["metrics"]["trace.unattributed_frac"] > UNATTRIBUTED_BOUND:
        raise Invalid("the sharded pass's self times miss its wall time by "
                      f"{sres['metrics']['trace.unattributed_frac']:.1%}")
    return m


# ------------------------------------------------------------ batch runs

RESULT = re.compile(rb"^MCF-LTC: latency=(\d+) .*consumed=(\d+)")


def batch_run(argv, stderr, setup_only=False):
    """One `ltc run`: time to its instance line (set-up), then to its
    result line (the solve).  With setup_only the run is killed at its
    instance line."""
    t0 = now()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr)
    fd = proc.stdout.fileno()
    t_inst = t_res = None
    consumed, rss, pending = 0, 0.0, b""
    while True:
        rss = max(rss, peak_rss_mb(proc.pid))
        if not select.select([fd], [], [], RSS_POLL_S)[0]:
            continue
        data = os.read(fd, 1 << 16)
        if not data:
            break
        t = now()
        *lines, pending = (pending + data).split(b"\n")
        for line in lines:
            if t_inst is None and line.startswith(b"instance{"):
                t_inst = t
            m = RESULT.match(line)
            if m:
                t_res, consumed = t, int(m.group(2))
        if setup_only and t_inst is not None:
            os.kill(proc.pid, signal.SIGKILL)
            break
    _, status, _ = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return {"setup": (t_inst or t0) - t0, "solve": (t_res or t0) - (t_inst or t0),
            "consumed": consumed, "ok": t_res is not None, "rss_mb": rss}


def batch_trace0(ltc, probe_exe, work, inst, gate, stderr, facts):
    ref_path = os.path.join(work, "reference.arr")
    probe(probe_exe, "replay", "--batch", inst, "-", ref_path)
    with open(ref_path, "rb") as f:
        ref = f.read()
    argv = lambda tag: [ltc, "run", "--load", inst, "-a", "MCF-LTC",
                        "--save-arrangement", os.path.join(work, tag + ".arr")]
    def setup():
        host_probe()
        return [batch_run(argv("setup"), stderr, setup_only=True)["setup"]
                for _ in range(SETUP_REPS)]

    setups, runs = setup(), []
    for i in range(BATCH_RUNS):
        runs.append(batch_run(argv(f"run{i}"), stderr))
        setups += setup()
    for i, r in enumerate(runs):
        path = os.path.join(work, f"run{i}.arr")
        gate.attempted += 1
        with open(path, "rb") as f:
            same = r["ok"] and f.read() == ref
        verdict = probe(probe_exe, "check-arr", inst, path)
        if not same or not verdict["ok"]:
            gate.failed += 1
            gate.notes.append(f"run {i}: same={same} {verdict['errors']}")
    consumed = runs[0]["consumed"]
    # Every worker of a batch run is answered when its solve ends, so each
    # percentile of a run's per-worker response time is its solve time.
    solve = statistics.median(r["solve"] for r in runs)
    facts.update({"offered": {"runs": len(runs)}, "consumed": consumed,
                  "latency_samples": [consumed] * len(runs),
                  "setup_samples": len(setups),
                  "latency_p50_ms": solve * 1e3})
    return {
        "setup_s": (min(setups), "s"),
        "arrivals_per_s": (consumed / solve, "1/s"),
        "latency_p99_ms": (solve * 1e3, "ms"),
        "latency_p999_ms": (solve * 1e3, "ms"),
        "ltc_latency_arrivals": (float(probe(
            probe_exe, "check-arr", inst, ref_path)["latency"]), "arrivals"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
    }


def batch_trace1(probe_exe, work, inst, gate, facts):
    out = os.path.join(work, "traced.arr")
    res = probe(probe_exe, "replay", "--batch", "--traced",
                os.path.join(work, "trace.json"), inst, "-", out)
    gate.check("traced arrangement", probe(probe_exe, "check-arr", inst, out))
    gate.attempted += 1
    if not res["streams_equal"]:
        gate.failed += 1
        gate.notes.append("traced and untraced arrangements differ")
    facts.update({"offered": {"traced": res["decided"]},
                  "spans": res["spans"], "traced_wall_s": res["wall_s"]})
    m = res["metrics"]
    m["loadgen.late_ms_max"] = 0.0
    return m


# ------------------------------------------------------------ per-layer

PER_LAYER_UNITS = {
    "wire.parse_us_p50": "us", "wire.encode_us_p50": "us",
    "wire.busy_frac": "ratio",
    "policy.decide_us_p50": "us", "policy.decide_us_p99": "us",
    "policy.busy_frac": "ratio", "policy.empty_frac": "ratio",
    "policy.decide_growth": "ratio",
    "session.self_us_p50": "us", "session.checkpoints": "count",
    "session.checkpoint_ms_p50": "ms", "session.checkpoint_ms_max": "ms",
    "session.checkpoint_growth": "ratio", "session.busy_frac": "ratio",
    "session.journal_bytes": "B", "session.bytes_written_per_arrival": "B",
    "flow.batches": "count", "flow.dijkstra_passes": "count",
    "flow.units": "count", "flow.units_per_pass": "ratio",
    "flow.busy_frac": "ratio",
    "setup.load_s": "s", "setup.create_s": "s",
    "gc.minor_words_per_arrival": "words", "gc.promoted_words_per_arrival":
        "words", "gc.major_collections": "count",
    "obs.metrics_overhead_frac": "ratio",
    "loadgen.late_ms_max": "ms", "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "shard.feed_us_p50": "us", "shard.feed_us_p99": "us",
    "shard.flush_ms": "ms", "shard.stalls": "count",
    "shard.release_lag_p99": "arrivals", "shard.arrival_skew": "ratio",
}


# ------------------------------------------------------------- self-test

def self_test():
    """Tampered decision streams must fail the gate's stream check."""
    ltc, probe_exe = build()
    work = fresh_dir("self-test")
    inst, arrivals_path, arrivals = generate(ltc, work, 200, 20_000, 3,
                                             scale=0.05)
    with open(os.path.join(work, "stderr"), "ab") as stderr:
        r = drive([ltc, "serve", "--load", inst, "-a", "LAF"], arrivals,
                  stderr)
    good = r["out"]
    ref_path = os.path.join(work, "reference.ndjson")
    probe(probe_exe, "replay", inst, arrivals_path, ref_path)
    ref = read_lines(ref_path)

    def swap(s, i):
        s = list(s)
        s[i], s[i + 1] = s[i + 1], s[i]
        return s

    def edit(s, i, old, new):
        s = list(s)
        s[i] = s[i].replace(old, new, 1)
        return s

    assigning = [i for i, l in enumerate(good) if b'"assigned":[]' not in l]
    i = assigning[len(assigning) // 2]
    task = re.search(rb'"assigned":\[(\d+)', good[i]).group(1)
    cases = {
        "untouched": good,
        "dropped decision": good[:i] + good[i + 1:],
        "duplicated decision": good[:i] + [good[i]] + good[i:],
        "reordered decisions": swap(good, i),
        "truncated before completion": good[:-1],
        "task out of range": edit(good, i, b'"assigned":[' + task,
                                  b'"assigned":[99999'),
        "duplicate task": edit(good, i, b'"assigned":[' + task,
                               b'"assigned":[' + task + b"," + task),
        "wrong latency": edit(good, len(good) - 2, b'"latency":',
                              b'"latency":1'),
    }
    failures = 0
    for what, stream in cases.items():
        path = os.path.join(work, "tampered.ndjson")
        with open(path, "wb") as f:
            f.write(b"".join(l + b"\n" for l in stream))
        gate = Gate()
        gate.check(what, probe(probe_exe, "check", inst, path))
        gate.expect(what, stream, ref)
        caught = gate.failed > 0
        expected = what != "untouched"
        ok = caught == expected
        failures += not ok
        print(f"{'ok ' if ok else 'BAD'} {what}: "
              f"{'caught' if caught else 'passed'}")
    if failures:
        die(f"self-test: {failures} case(s) misjudged", 1)
    print("self-test passed")


# ------------------------------------------------------------------ main

def fresh_dir(name):
    work = os.path.join(".ledger", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return work


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    ltc, probe_exe = build()
    cfg = WORKLOADS[a.workload]
    work = fresh_dir(a.workload)
    inst, arrivals_path, arrivals = generate(ltc, work, cfg["tasks"],
                                             cfg["workers"], INSTANCE_SEED)
    facts = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
             "trace": a.trace, "nproc": os.cpu_count(),
             "ocaml": ocaml_version(), "profile": "release",
             "instance_seed": INSTANCE_SEED, "tasks": cfg["tasks"],
             "workers": cfg["workers"]}
    gate = Gate()
    serve = "rate" in cfg
    try:
        with open(os.path.join(work, "stderr"), "ab") as stderr:
            if a.trace and serve:
                m = serve_trace1(ltc, probe_exe, work, inst, arrivals_path,
                                 arrivals, cfg, a.workload, a.seed,
                                 a.seconds, gate, stderr, facts)
            elif a.trace:
                m = batch_trace1(probe_exe, work, inst, gate, facts)
            elif serve:
                m = serve_trace0(ltc, probe_exe, work, inst, arrivals_path,
                                 arrivals, cfg, a.workload, a.seed,
                                 a.seconds, gate, stderr, facts)
            else:
                m = batch_trace0(ltc, probe_exe, work, inst, gate, stderr,
                                 facts)
        if a.trace:
            if m["trace.unattributed_frac"] > UNATTRIBUTED_BOUND:
                raise Invalid("per-layer self times miss the traced wall "
                              f"time by {m['trace.unattributed_frac']:.1%}")
            metrics = {k: (m[k], u) for k, u in PER_LAYER_UNITS.items()}
        else:
            speed = statistics.median(host_probes) / HOST_REF_S
            facts["host_probe_s"] = statistics.median(host_probes)
            facts["host_probes"] = len(host_probes)
            facts["raw"] = {k: v for k, (v, _) in m.items()}
            scale = {"s": 1 / speed, "ms": 1 / speed, "1/s": speed}
            metrics = {k: (v * scale.get(u, 1.0), u)
                       for k, (v, u) in m.items()}
    except Invalid as e:
        print(f"# facts {json.dumps(facts)}")
        die(f"invalid run: {e}", 3)
    facts["failed_frac"] = gate.failed / max(1, gate.attempted)
    facts["gate"] = gate.notes
    print(f"# facts {json.dumps(facts)}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v:.6g} {u}")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
