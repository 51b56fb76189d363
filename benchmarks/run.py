"""Benchmark of lgsteer: four workloads through the public API, checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory and nowhere else.  The run builds its
inputs from ``--seed`` (timed as ``setup_s``), repeats whole rounds of
the workload for about ``--seconds`` seconds, checks every output, and
prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Every time is scaled to a reference speed of the machine, measured with a
fixed loop between operations (``speed.py``); the summary line also
prints the raw figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with every layer's
public functions rebound to span recorders (``spans.py``), then reports
the per-layer metrics, the tracing overhead, and writes the spans to
``benchmarks/out/trace-<workload>-<seed>.csv``.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("detuning_sweeps", "optimum_scans", "point_queries", "verify")
# set-ups timed per run (this process plus fresh interpreters); setup_s is their median
SETUP_SAMPLES = 7
# reference-loop samples taken before and after each round and set-up
BURST = 5


def _setup(workload: str, seed: int, workdir: Path):
    """Import lgsteer and build the workload's inputs; returns (seconds, workload)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lgsteer  # noqa: F401  (timed: part of set-up)
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    return time.perf_counter() - t0, wl


def _probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Time one set-up in a fresh interpreter, which imports lgsteer anew."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", str(workdir),
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _measure(wl, seconds: float, first: int, speed) -> list:
    """Whole rounds until the next one would end further past ``seconds``
    than stopping now falls short of it; at least one round.  Each round,
    and each operation, gets the speed factor of the reference samples
    taken around and inside it."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        speed.sample(BURST)
        t0 = time.perf_counter()
        rnd = wl.run_round(first + len(rounds), speed)
        t1 = time.perf_counter()
        speed.sample(BURST)
        rnd.factor = speed.factor(t0, t1)
        for op in rnd.ops:
            op.factor = speed.factor(op.start, op.start + op.seconds)
        rounds.append(rnd)
        if time.perf_counter() - t_start + rnd.wall / 2 >= seconds:
            return rounds


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _end_to_end(rounds: list, setup_s: float, peak_rss_mb: float, name: str,
                scaled: bool = True) -> dict:
    """The end-to-end metrics, with times at the reference speed unless
    ``scaled`` is false (the raw figures on the summary line)."""
    def f(obj):
        return obj.factor if scaled else 1.0

    ops = [op for rnd in rounds for op in rnd.ops]
    if name == "point_queries":
        stable = [op.seconds * f(op) for op in ops if op.stable is True]
        unstable = [op.seconds * f(op) for op in ops if op.stable is False]
        p50_stable, p50_unstable = _percentile(stable, 0.5), _percentile(unstable, 0.5)
        p99_stable = _percentile(stable, 0.99)
    else:
        # whole sweeps, searches or verify calls have no stable flag, are of
        # several kinds and number only tens per run, so a median over them
        # jumps between kinds and a 99th percentile is one operation's time.
        # Per round, take the mean and the slowest operation; report medians
        # over rounds.
        stable = unstable = ops
        p50_stable = p50_unstable = statistics.median(
            r.wall * f(r) / len(r.ops) for r in rounds)
        p99_stable = statistics.median(max(op.seconds for op in r.ops) * f(r) for r in rounds)
    walls = [r.wall * f(r) for r in rounds]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "rows_per_s": (sum(r.rows for r in rounds) / sum(walls), "rows/s"),
        "latency_stable_p50_ms": (1e3 * p50_stable, "ms"),
        "latency_stable_p99_ms": (1e3 * p99_stable, "ms"),
        "latency_unstable_p50_ms": (1e3 * p50_unstable, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, len(stable), len(unstable)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "lgsteer" / "__init__.py").is_file():
        print(f"error: no lgsteer package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        seconds, _ = _setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(seconds))
        return 0

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    speed = Speed()
    setups, setups_raw = [], []

    def timed_setup(fn):
        speed.sample(BURST)
        t0 = time.perf_counter()
        seconds, out = fn()
        t1 = time.perf_counter()
        speed.sample(BURST)
        setups_raw.append(seconds)
        setups.append(seconds * speed.factor(t0, t1))
        return out

    wl = timed_setup(lambda: _setup(args.workload, args.seed, workdir / "inputs"))
    import lgsteer

    if Path(lgsteer.__file__).resolve().parent != SRC / "lgsteer":
        print(f"error: imported lgsteer from {lgsteer.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import spans

        untraced = _measure(wl, args.seconds / 2, 0, speed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = _measure(wl, args.seconds / 2, len(untraced), speed)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        rounds = untraced = _measure(wl, args.seconds, 0, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, missed, n_recomputed = wl.check(rounds)
    # the probes rewrite the same input files, which costs the file system
    # less than creating and deleting new ones
    for _ in range(SETUP_SAMPLES - 1):
        timed_setup(lambda: (_probe_setup(args.workload, args.seed, workdir / "inputs"), None))

    failed_by_class = Counter()
    attempted = 0
    for rnd in rounds:
        for op in rnd.ops:
            attempted += op.rows + (1 if args.workload == "optimum_scans" else 0)
            failed_by_class.update(op.failed)
    failed = sum(failed_by_class.values())

    if tracer is None:
        metrics, n_stable, n_unstable = _end_to_end(
            untraced, statistics.median(setups), peak_rss_mb, args.workload)
        raw, _, _ = _end_to_end(
            untraced, statistics.median(setups_raw), peak_rss_mb, args.workload, scaled=False)
    else:
        metrics = tracer.layer_metrics(
            len(traced), statistics.median(r.factor for r in traced))
        base_wall = statistics.median(r.wall * r.factor for r in untraced)
        traced_wall = statistics.median(r.wall * r.factor for r in traced)
        metrics["trace.overhead_s"] = (traced_wall - base_wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - base_wall) / base_wall, "%")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.csv"
        tracer.write(trace_path)
        n_stable = n_unstable = None

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s)"
          f"{' (' + str(len(untraced)) + ' untraced)' if tracer else ''}, "
          f"{attempted} operations attempted, {failed} failed "
          f"{json.dumps(dict(sorted(failed_by_class.items())))}")
    factors = [r.factor for r in rounds]
    print(f"speed factor (reference-loop time, nominal over measured): median "
          f"{statistics.median(factors):.3f}, rounds {min(factors):.3f} to {max(factors):.3f}")
    if n_stable is not None:
        print(f"latency samples: {n_stable} stable, {n_unstable} unstable; "
              f"set-up samples (s, scaled): {', '.join(f'{s:.4f}' for s in setups)}")
        print("raw (unscaled): " + " ".join(
            f"{k}={v:.6g}" for k, (v, _) in raw.items() if k != "peak_rss_mb"))
    print(f"checks: {len(problems)} problem(s); independent recomputation of "
          f"{n_recomputed} row(s); self-test missed {len(missed)} corruption(s)")
    if tracer is not None:
        print(f"trace: {len(tracer.start)} spans written to {trace_path.relative_to(ROOT)}; "
              f"overhead {metrics['trace.overhead_s'][0]:+.3f} s "
              f"({metrics['trace.overhead_pct'][0]:+.1f} % of untraced wall_s)")
    for line in (problems + [f"self-test missed: {m}" for m in missed])[:20]:
        print(f"  {line}", file=sys.stderr)

    result = {
        "correct": not problems and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
