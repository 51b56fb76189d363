"""Time each layer of the sweep path for two source trees, in one process.

    python3 tools/layer_split.py BEFORE_ROOT AFTER_ROOT [--rounds 25] [--json PATH]

Each root is a checkout whose ``src/lgsteer`` is imported; the two are
loaded side by side as separate copies of the package, and their rounds
alternate (before first in even rounds, after first in odd ones), so
both see the same machine.  Two workloads, built as the benchmark's
workloads of the same names build theirs:

- ``optimum_scans``: 8 ``optimum_detuning`` searches, each followed by
  a 51-point temperature or gain sweep at the optimum, written as JSON;
- ``detuning_sweeps``: 30 sweeps of 81 detunings, written as CSV.

After writing a sweep, each round takes ``len(result.rows)`` and reads
every row's ``error``, as the benchmark does.

A layer's time in a round is the summed wall time of its functions:

- ``build``: ``model.build_model`` as ``sweep`` calls it;
- ``margins``: ``gaussian._inputs`` and ``gaussian._margins``;
- ``lyapunov``: ``gaussian._lyapunov``, with ``np.linalg.inv`` inside it
  on its own line;
- ``measures``: ``measures._reports``, the report stage of a block's
  stable rows (the stage that returns the measures as columns, or in
  trees before columns the one that builds a report per row), and
  ``measures._pairs`` where the optimum search calls it from ``sweep``
  (timed there, so its calls from ``_reports`` are not counted twice; a
  tree without it has none), with ``np.linalg.eigvalsh`` inside them on
  its own line;
- ``serialize``: ``io.serialize_json`` or ``io.serialize_csv``, which in
  a columnar tree format whole columns;
- ``assembly``: the rest of the round: gathering the stage's columns
  (or building row objects), the walk of the rows, and the searches'
  own bookkeeping.

It prints each layer's minimum and median over the timed rounds (after
one warm-up round per tree and workload) and the after/before ratio of
the medians, and exits 1 unless both trees write the same bytes.
``--json`` also writes the figures to a file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("round", "build", "margins", "lyapunov", "inv", "measures", "eigvalsh",
          "assembly", "serialize")
# layers whose time is part of the layer above them, not of the round's rest
_NESTED = ("inv", "eigvalsh")
# the layers that, with the assembly, make up the round
_TOP = ("build", "margins", "lyapunov", "measures", "serialize")
# (name, omega_phi2 / omega_phi1, opa_gain / omega_phi1, opa_phase), as the benchmark's PUMPS
_PUMPS = (("chi0", 0.0, 0.0), ("chi0p1_theta0", 0.1, 0.0),
          ("chi0p1_thetapi2", 0.1, 0.5 * math.pi), ("chi0p1_thetapi", 0.1, math.pi),
          ("chi0p1_theta3pi2", 0.1, 1.5 * math.pi))

# the round's layer clocks; every timer adds to this
_clock: dict[str, float] = {}


def _timed(owner, name: str, layer: str) -> None:
    """Rebind ``owner.name`` to a wrapper that adds its wall time to ``layer``."""
    fn = getattr(owner, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _clock[layer] += time.perf_counter() - t0

    setattr(owner, name, timed)


def _load(root: Path) -> dict:
    """The modules of ``root``'s ``src/lgsteer``, as a copy of their own."""
    def ours(name):
        return name == "lgsteer" or name.startswith("lgsteer.")

    for name in [n for n in sys.modules if ours(n)]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        mods = {name: importlib.import_module(f"lgsteer.{name}")
                for name in ("gaussian", "io", "measures", "sweep")}
        mods["lgsteer"] = sys.modules["lgsteer"]
    finally:
        sys.path.pop(0)
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
    _timed(mods["sweep"], "build_model", "build")
    _timed(mods["gaussian"], "_inputs", "margins")
    _timed(mods["gaussian"], "_margins", "margins")
    _timed(mods["gaussian"], "_lyapunov", "lyapunov")
    _timed(mods["measures"], "_reports", "measures")
    if hasattr(mods["sweep"], "_pairs"):
        _timed(mods["sweep"], "_pairs", "measures")
    _timed(mods["io"], "serialize_json", "serialize")
    _timed(mods["io"], "serialize_csv", "serialize")
    return mods


def _written(serialize, result) -> str:
    """``serialize(result)``, then the benchmark's read of the rows: their count and errors."""
    text = serialize(result)
    len(result.rows)
    for row in result.rows:
        row.error
    return text


def _optimum_scans(mods: dict):
    lg = mods["lgsteer"]
    base = lg.table_defaults()
    w1 = base.omega_phi1
    t_axis = lg.Axis("temperature_k", tuple(np.geomspace(1e-3, 1.0, 51)))
    g_axis = lg.Axis("opa_gain_ratio", tuple(np.linspace(0.0, 0.2, 51)))
    for ratio in (0.5, 1.5):
        for _, chi, theta in (_PUMPS[0], _PUMPS[2]):
            b = lg.with_updates(base, omega_phi2=ratio * w1, opa_gain=chi * w1, opa_phase=theta)
            for measure, axis in (("ENmm", t_axis), ("ENmc", g_axis)):
                opt = lg.optimum_detuning(b, measure)
                spec = lg.SweepSpec(lg.with_updates(b, detuning=opt.delta), axis)
                yield _written(mods["io"].serialize_json, lg.run_sweep(spec))


def _detuning_sweeps(mods: dict):
    lg = mods["lgsteer"]
    base = lg.table_defaults()
    w1 = base.omega_phi1
    axis = lg.Axis("detuning_ratio", tuple(np.linspace(-2.0, 2.0, 81)))
    for temperature, ratios in ((15e-3, (0.5, 0.9, 1.0, 1.1, 1.5)), (0.0, (1.0,))):
        for ratio in ratios:
            for _, chi, theta in _PUMPS:
                b = lg.with_updates(base, omega_phi2=ratio * w1, opa_gain=chi * w1,
                                    opa_phase=theta, temperature=temperature)
                yield _written(mods["io"].serialize_csv, lg.run_sweep(lg.SweepSpec(b, axis)))


WORKLOADS = {"optimum_scans": _optimum_scans, "detuning_sweeps": _detuning_sweeps}


def _round(workload, mods: dict) -> tuple[dict, str]:
    """One round's layer times in ms, and the SHA-256 of everything it wrote."""
    _clock.clear()
    _clock.update(dict.fromkeys(LAYERS, 0.0))
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for text in workload(mods):
        digest.update(text.encode("utf-8"))
    _clock["round"] = time.perf_counter() - t0
    _clock["assembly"] = _clock["round"] - sum(_clock[layer] for layer in _TOP)
    return {layer: 1e3 * s for layer, s in _clock.items()}, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    trees = {"before": _load(args.before), "after": _load(args.after)}
    for name in _NESTED:
        _timed(np.linalg, name, name)
    report, same = {}, True
    for wl_name, workload in WORKLOADS.items():
        times = {side: {layer: [] for layer in LAYERS} for side in trees}
        digests = {side: set() for side in trees}
        for k in range(args.rounds + 1):
            order = list(trees) if k % 2 == 0 else list(trees)[::-1]
            for side in order:
                ms, digest = _round(workload, trees[side])
                digests[side].add(digest)
                if k:
                    for layer, value in ms.items():
                        times[side][layer].append(value)
        same &= len(digests["before"] | digests["after"]) == 1
        report[wl_name] = {
            layer: {side: {"min_ms": round(min(times[side][layer]), 3),
                           "median_ms": round(statistics.median(times[side][layer]), 3)}
                    for side in trees}
            for layer in LAYERS
        }
        print(f"{wl_name} ({args.rounds} rounds a side, ms)")
        print(f"  {'layer':<12}{'before min':>12}{'median':>10}{'after min':>12}{'median':>10}"
              f"{'after/before':>14}")
        for layer, row in report[wl_name].items():
            label = ("  " if layer in _NESTED else "") + layer
            b, a = row["before"], row["after"]
            ratio = a["median_ms"] / b["median_ms"] if b["median_ms"] else math.nan
            print(f"  {label:<12}{b['min_ms']:>12.2f}{b['median_ms']:>10.2f}"
                  f"{a['min_ms']:>12.2f}{a['median_ms']:>10.2f}{ratio:>14.3f}")
    print("outputs: " + ("identical" if same else "DIFFER between the trees"))
    if args.json is not None:
        args.json.write_text(json.dumps({"rounds": args.rounds, "identical": same,
                                         "workloads": report}, indent=2) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
