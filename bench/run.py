"""Benchmark for the sailfree package: one workload per run.

    python3 bench/run.py --workload {prove,prove-par,classify,canon}
                         [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run from the repository root; the package is imported from ./src.  The
run repeats rounds of the workload's calls for about --seconds and checks
every answer.  It prints a context line, one line per metric (name, value,
unit), and as its last line a JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics
(wall_s and cpu_s at reference speed, see REF_SECONDS; the context line
holds them as measured), --trace 1 the per-layer ones (see tracing.py).  --quick swaps in small
inputs for the benchmark's own tests.  Exit codes: 0 all answers correct,
1 a check failed, 2 usage error or no package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9  # fresh interpreters timed per run for setup_s
BUILD_REPEATS = 5  # input builds timed per run for constructions.build_ms
REPLAY_SHAPE = (9, 10)  # the prove workload's search, recorded for the replay
REPLAY_NODES = 100_000
QUICK_REPLAY_NODES = 4_096

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# End-to-end times are given at reference speed: each timed call's measured
# time is multiplied by REF_SECONDS over the mean time of a fixed
# pure-Python task, the reference, over the runs of it taken between calls
# within one call-length of the call (so at least the runs just before and
# just after it).  Shared machines change speed by a third for seconds to
# minutes at a time as other tenants come and go; the reference shares no
# code with the package and slows with the machine, so scaled times keep
# the program's changes and shed most of the machine's.  REF_SECONDS is
# about the reference's time on a 2-core x86-64 VM running fast, so scaled
# times read as seconds there.
REF_SECONDS = 0.0035
MIN_WINDOW = 0.05  # seconds; the window for calls shorter than this


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("prove", "prove-par", "classify", "canon"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small inputs (for tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs, print 'ready' and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sailfree").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def context(mp_method: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mp_start_method": mp_method,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_before": list(os.getloadavg()),
    }


def _queens(n: int) -> int:
    """Number of n-queens placements, by bit-mask backtracking."""
    full = (1 << n) - 1

    def place(cols, left, right):
        if cols == full:
            return 1
        total = 0
        free = full & ~(cols | left | right)
        while free:
            bit = free & -free
            free ^= bit
            total += place(cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1)
        return total

    return place(0, 0, 0)


def reference_seconds() -> float:
    """Median of three timings of the reference task, 9-queens."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        if _queens(9) != 352:
            raise RuntimeError("reference task gave a wrong count")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Runs of the reference task between timed calls, and the scale that
    takes a call's time to reference speed."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = reference_seconds()
        self.samples.append(((t0 + time.perf_counter()) / 2, seconds))

    def scale(self, t0: float, t1: float) -> float:
        pad = max(t1 - t0, MIN_WINDOW)
        near = [s for t, s in self.samples if t0 - pad <= t <= t1 + pad]
        return REF_SECONDS / statistics.mean(near)

    def speed(self) -> float:
        """The run's median speed relative to the reference."""
        return REF_SECONDS / statistics.median(s for _, s in self.samples)


def setup_seconds(args, speed: Speedometer) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to its inputs being
    ready, at reference speed and as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    spans = []
    speed.sample()
    for _ in range(3 if args.quick else SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {' '.join(cmd)}")
        speed.sample()
        spans.append((t0, t1))
    scaled = statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans)
    return scaled, statistics.median(t1 - t0 for t0, t1 in spans)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"CHECK FAILED: {error}", file=sys.stderr)


def run_round(workload, r, checks, tracer=None, speed=None) -> dict:
    """Run every item once; times, CPU (self and children) and trace counts.

    With a speedometer, the reference runs before the first item and after
    each, and spans lists (start, end, CPU) per item for scaling.
    """
    out = {"items": {}, "search_s": 0.0, "wall": 0.0, "self_cpu": 0.0,
           "child_cpu": 0.0, "spans": [], "counts": [0, 0, 0, 0],
           "canon_calls": 0, "canon_s": 0.0, "classes": 0}
    if speed is not None:
        speed.sample()
    for item in workload.items:
        s0, c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        answer = item.run(r)
        t1 = time.perf_counter()
        dt = t1 - t0
        self_cpu = _cpu(resource.RUSAGE_SELF) - s0
        child_cpu = _cpu(resource.RUSAGE_CHILDREN) - c0
        if speed is not None:
            speed.sample()
        out["spans"].append((t0, t1, self_cpu + child_cpu))
        out["self_cpu"] += self_cpu
        out["child_cpu"] += child_cpu
        out["items"][item.name] = dt
        out["wall"] += dt
        if item.search:
            out["search_s"] += dt
            if isinstance(answer, (set, frozenset)):
                out["classes"] += len(answer)
        checks.record(item.check(answer, r))
    if tracer is not None:
        counts, calls, busy = tracer.take()
        out["counts"] = counts
        out["canon_calls"] = calls
        out["canon_s"] = busy
    return out


def run_rounds(workload, seconds, checks, speed) -> list[dict]:
    """Rounds until the next one would overrun the budget (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, len(rounds), checks, speed=speed))
        typical = statistics.median(r["wall"] for r in rounds)
        if time.perf_counter() - start + typical > seconds:
            return rounds


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def _int_median(values):
    """Median of exact counts, kept an int when it is one."""
    med = statistics.median(values)
    return int(med) if med == int(med) else med


def end_to_end(args, workload, checks, ctx) -> dict:
    """End-to-end metrics; the times as measured go into ctx."""
    speed = Speedometer()
    setup, raw_setup = setup_seconds(args, speed)
    rounds = run_rounds(workload, args.seconds, checks, speed)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    walls, cpus = [], []
    for r in rounds:
        scales = [speed.scale(t0, t1) for t0, t1, _ in r["spans"]]
        walls.append(sum((t1 - t0) * k for (t0, t1, _), k in zip(r["spans"], scales)))
        cpus.append(sum(cpu * k for (_, _, cpu), k in zip(r["spans"], scales)))
    ctx["speed"] = speed.speed()
    ctx["measured"] = {
        "wall_s": _median(rounds, "wall"),
        "cpu_s": statistics.median(r["self_cpu"] + r["child_cpu"] for r in rounds),
        "setup_s": raw_setup,
        "rounds": len(rounds),
    }
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup,
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,  # ru_maxrss is in KiB
    }


def per_layer(args, workload, checks) -> dict:
    """Per-layer metrics and their units.

    Untraced rounds, guard replays and traced rounds alternate, so that the
    times set against each other are taken in the same stretch of machine
    speed.
    """
    import tracing
    import workloads

    start = time.perf_counter()
    nodes = QUICK_REPLAY_NODES if args.quick else REPLAY_NODES
    stream = tracing.record_stream(*REPLAY_SHAPE, nodes)
    plain, costs, traced = [], [], []
    tracer = tracing.Tracer()
    while True:
        t0 = time.perf_counter()
        plain.append(run_round(workload, 2 * len(plain), checks))
        push_ns, pop_ns, wrong = tracing.replay_costs(REPLAY_SHAPE[0], stream)
        costs.append((push_ns, pop_ns))
        checks.record(None if wrong == 0 else f"replay: {wrong} pushes disagreed with the record")
        with tracer:
            traced.append(run_round(workload, 2 * len(traced) + 1, checks, tracer))
        if time.perf_counter() - start + (time.perf_counter() - t0) > args.seconds:
            break
    if workload.workers > 1:
        serial = workloads.make(workload.name.replace("-par", ""), args.seed, args.quick)
        with tracer:
            serial_nodes = sum(run_round(serial, 0, checks, tracer)["counts"][:3])
    else:
        serial_nodes = 0
    push_ns = statistics.median(c[0] for c in costs)
    pop_ns = statistics.median(c[1] for c in costs)

    # Guard and canon time add up over pool workers, so shares and self time
    # are taken against worker-seconds: wall times the worker count.  Guard
    # time comes from replay costs, so its share is over the untraced wall;
    # canon time is taken in the traced rounds, so its share is over theirs.
    workers = workload.workers
    wall = _median(plain, "wall")
    search_wall = _median(plain, "search_s") * workers
    counts = [_int_median(r["counts"][i] for r in traced) for i in range(4)]
    pushes = sum(counts[:3])
    pops = counts[tracing.POPS]
    canon_calls = _int_median(r["canon_calls"] for r in traced)
    canon_s = _median(traced, "canon_s")
    traced_wall = _median(traced, "wall")
    canon_share = canon_s / (traced_wall * workers)
    guard_s = (pushes * push_ns + pops * pop_ns) * 1e-9

    m = {
        "search.nodes": (pushes, "count"),
        "search.nodes_per_s": (pushes / search_wall if search_wall else 0.0, "1/s"),
        "search.self_s": (max(search_wall - guard_s - canon_share * wall * workers, 0.0)
                          if search_wall else 0.0, "s"),
        "sails.push_calls": (pushes, "count"),
        "sails.push_accepted": (counts[tracing.ACCEPTED], "count"),
        "sails.reject_sail": (counts[tracing.SAIL], "count"),
        "sails.reject_linearity": (counts[tracing.LINEARITY], "count"),
        "sails.pop_calls": (pops, "count"),
        "sails.accept_ratio": (counts[tracing.ACCEPTED] / pushes if pushes else 0.0, "ratio"),
        "sails.push_ns": (push_ns, "ns"),
        "sails.pop_ns": (pop_ns, "ns"),
        "sails.replay_ops": (len(stream), "count"),
        "sails.guard_s": (guard_s, "s"),
        "sails.share": (guard_s / (wall * workers), "ratio"),
        "canon.calls": (canon_calls, "count"),
        "canon.busy_s": (canon_s, "s"),
        "canon.ms_per_call": (canon_s * 1e3 / canon_calls if canon_calls else 0.0, "ms"),
        "canon.share": (canon_share, "ratio"),
        "canon.dedup_ratio": (_median(traced, "classes") / canon_calls if canon_calls else 0.0,
                              "ratio"),
    }
    for name in workloads.canon_metric_names():
        label = name[len("canon.ms."):]
        ms = statistics.median(r["items"].get(label, 0.0) for r in plain) * 1e3
        m[name] = (ms, "ms")
    pooled = workers > 1
    worker_cpu = _median(plain, "child_cpu") if pooled else 0.0
    m["pool.worker_cpu_s"] = (worker_cpu, "s")
    m["pool.parent_cpu_s"] = (_median(plain, "self_cpu") if pooled else 0.0, "s")
    m["pool.utilization"] = (worker_cpu / (wall * workers), "ratio")
    m["pool.node_ratio"] = (pushes / serial_nodes if pooled else 0.0, "ratio")
    m["pool.serial_nodes"] = (serial_nodes, "count")
    build = (workloads.build_ms(args.seed, args.quick, BUILD_REPEATS)
             if workload.name == "canon" else 0.0)
    m["constructions.build_ms"] = (build, "ms")
    m["trace.wall_s"] = (wall, "s")
    m["trace.traced_wall_s"] = (traced_wall, "s")
    m["trace.overhead"] = (traced_wall / wall, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sailfree" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, args.seed, args.quick)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    ctx = context(mp.get_start_method())
    checks = Checks()
    if args.trace:
        metrics = per_layer(args, workload, checks)
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(args, workload, checks, ctx).items()}
    ctx["loadavg_after"] = list(os.getloadavg())
    print("context " + json.dumps(ctx))
    fail_ratio = checks.failed / checks.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {fail_ratio:.6g} ratio ({checks.failed}/{checks.attempted})")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
