"""Time each layer of the sweep and verify paths for two source trees, in one process.

    python3 tools/layer_split.py BEFORE_ROOT AFTER_ROOT [--rounds 25] [--json PATH]

Each root is a checkout whose ``src/lgsteer`` is imported; the two are
loaded side by side as separate copies of the package, and their rounds
alternate (before first in even rounds, after first in odd ones), so
both see the same machine.  Three workloads, built as the benchmark's
workloads of the same names build theirs:

- ``optimum_scans``: 8 ``optimum_detuning`` searches, each followed by
  a 51-point temperature or gain sweep at the optimum, written as JSON;
- ``detuning_sweeps``: 30 sweeps of 81 detunings, written as CSV;
- ``verify``: ``validation.run_checks`` for 8 seeds, the checks of
  ``lgsteer verify --seed S``.

After writing a sweep, each round takes ``len(result.rows)`` and reads
every row's ``error``, as the benchmark does.

A layer's time in a round is the summed wall time of its functions:

- ``build``: ``model.build_model`` as ``sweep`` calls it;
- ``margins``: ``gaussian._inputs`` and ``gaussian._margins``, with
  ``np.linalg.eigvals`` inside them on its own line;
- ``lyapunov``: ``gaussian._lyapunov``, with ``np.linalg.inv`` inside it
  on its own line;
- ``measures``: ``measures._reports``, the report stage of a block's
  stable rows, and ``measures._pairs`` where the optimum search calls it
  from ``sweep`` (timed there, so its calls from ``_reports`` are not
  counted twice), with ``np.linalg.eigvalsh`` inside them on its own
  line;
- ``serialize``: ``io.serialize_json`` or ``io.serialize_csv``;
- ``assembly``: the rest of the round: gathering the stage's columns,
  the walk of the rows, and the searches' own bookkeeping.

In ``verify`` each check is a layer of its own: the wall time of
``validation._check`` for it.  Inside ``route_agreement`` four more are
on their own lines, the stacked routes of its seeded systems:

- ``draws``: ``_random_stable_systems``;
- ``solve``: the production solver, ``steady_covariances``;
- ``oracle``: ``_lyapunov_oracles``;
- ``rk4``: ``_integrate_covariances``.

Calls of these functions from the other checks are not counted there.
The ``assembly`` of ``verify`` is the rest of the round.  Every function
named here must exist in both trees: a renamed stage stops the tool with
an ``AttributeError`` instead of reading 0 ms.

It prints each layer's minimum and median over the timed rounds (after
one warm-up round per tree and workload) and the after/before ratios of
the minima and of the medians (on a loaded machine the minima are the
figures to compare), then the matrices a round passes to
``np.linalg.eigvals``, ``inv`` and ``eigvalsh`` (a stack of N counts N),
so the work a change removes shows beside the time.  It exits 1 unless both trees write the
same bytes (for ``verify``: return equal lists of check names, outcomes
and details).  ``--json`` also writes the figures to a file.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SWEEP_LAYERS = ("round", "build", "margins", "eigvals", "lyapunov", "inv", "measures",
                "eigvalsh", "assembly", "serialize")
_CHECKS = ("solver_identity", "oracle_identity", "integrator_identity",
           "integrator_overflow", "marginal_rejected", "route_agreement",
           "reference_states", "steady_state_physical")
# route_agreement's routes: layer, and the validation function it times
_ROUTES = (("draws", "_random_stable_systems"), ("solve", "steady_covariances"),
           ("oracle", "_lyapunov_oracles"), ("rk4", "_integrate_covariances"))
VERIFY_LAYERS = (("round",) + _CHECKS[:6] + tuple(layer for layer, _ in _ROUTES)
                 + _CHECKS[6:] + ("assembly",))
# the LAPACK calls timed on their own lines, whose matrices are counted too
_LINALG = ("eigvals", "inv", "eigvalsh")
# layers whose time is part of the layer above them, not of the round's rest
_NESTED = _LINALG + tuple(layer for layer, _ in _ROUTES)
# the layers that, with the assembly, make up a sweep round
_TOP = ("build", "margins", "lyapunov", "measures", "serialize")
# the verify seeds, drawn as the benchmark draws its rounds' seeds
_SEEDS = [int(s) for s in np.random.default_rng(0).integers(1, 2**31 - 1, 8)]
# (name, omega_phi2 / omega_phi1, opa_gain / omega_phi1, opa_phase), as the benchmark's PUMPS
_PUMPS = (("chi0", 0.0, 0.0), ("chi0p1_theta0", 0.1, 0.0),
          ("chi0p1_thetapi2", 0.1, 0.5 * math.pi), ("chi0p1_thetapi", 0.1, math.pi),
          ("chi0p1_theta3pi2", 0.1, 1.5 * math.pi))

# the round's layer clocks; every timer adds to this
_clock: collections.defaultdict[str, float] = collections.defaultdict(float)
# the round's matrices per LAPACK call of _LINALG
_matrices: collections.Counter[str] = collections.Counter()
# the verify check running now, if any
_running: list[str] = []


def _timed(owner, name: str, layer: str, within: str | None = None,
           counted: bool = False) -> None:
    """Rebind ``owner.name`` to a wrapper that adds its wall time to ``layer``.

    With ``within``, only calls made while that verify check runs count.
    With ``counted``, the matrices of each call's first argument, a
    matrix or a stack of them, add to ``layer``'s count.
    """
    fn = getattr(owner, name)

    def timed(*args, **kwargs):
        if within is not None and _running != [within]:
            return fn(*args, **kwargs)
        if counted:
            _matrices[layer] += math.prod(np.shape(args[0])[:-2])
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _clock[layer] += time.perf_counter() - t0

    setattr(owner, name, timed)


def _timed_checks(validation) -> None:
    """Rebind ``validation._check`` so each check's wall time goes to the layer of its name."""
    fn = validation._check

    def timed(name, check):
        _running.append(name)
        t0 = time.perf_counter()
        try:
            return fn(name, check)
        finally:
            _clock[name] += time.perf_counter() - t0
            _running.pop()

    validation._check = timed


def _load(root: Path) -> dict:
    """The modules of ``root``'s ``src/lgsteer``, as a copy of their own."""
    def ours(name):
        return name == "lgsteer" or name.startswith("lgsteer.")

    for name in [n for n in sys.modules if ours(n)]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        mods = {name: importlib.import_module(f"lgsteer.{name}")
                for name in ("gaussian", "io", "measures", "sweep", "validation")}
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
    _timed(mods["sweep"], "_pairs", "measures")
    _timed(mods["io"], "serialize_json", "serialize")
    _timed(mods["io"], "serialize_csv", "serialize")
    _timed_checks(mods["validation"])
    for layer, name in _ROUTES:
        _timed(mods["validation"], name, layer, within="route_agreement")
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


def _verify(mods: dict):
    for seed in _SEEDS:
        results = mods["validation"].run_checks(seed=seed)
        yield repr([(r.name, r.passed, r.detail) for r in results])


# name: (workload, its layers, the layers that with the assembly make up its round)
WORKLOADS = {"optimum_scans": (_optimum_scans, SWEEP_LAYERS, _TOP),
             "detuning_sweeps": (_detuning_sweeps, SWEEP_LAYERS, _TOP),
             "verify": (_verify, VERIFY_LAYERS, _CHECKS)}


def _round(workload, mods: dict, layers: tuple, top: tuple) -> tuple[dict, dict, str]:
    """One round's layer times in ms, its matrices per LAPACK call, and the SHA-256 of
    everything it wrote."""
    _clock.clear()
    _matrices.clear()
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for text in workload(mods):
        digest.update(text.encode("utf-8"))
    _clock["round"] = time.perf_counter() - t0
    _clock["assembly"] = _clock["round"] - sum(_clock[layer] for layer in top)
    times = {layer: 1e3 * _clock[layer] for layer in layers}
    return times, {name: _matrices[name] for name in _LINALG}, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    trees = {"before": _load(args.before), "after": _load(args.after)}
    for name in _LINALG:
        _timed(np.linalg, name, name, counted=True)
    report, same = {}, True
    for wl_name, (workload, layers, top) in WORKLOADS.items():
        times = {side: {layer: [] for layer in layers} for side in trees}
        digests = {side: set() for side in trees}
        # each side's matrices per round, one entry per distinct count
        matrices = {side: {name: set() for name in _LINALG} for side in trees}
        for k in range(args.rounds + 1):
            order = list(trees) if k % 2 == 0 else list(trees)[::-1]
            for side in order:
                ms, counts, digest = _round(workload, trees[side], layers, top)
                digests[side].add(digest)
                for name, n in counts.items():
                    matrices[side][name].add(n)
                if k:
                    for layer, value in ms.items():
                        times[side][layer].append(value)
        same &= len(digests["before"] | digests["after"]) == 1
        report[wl_name] = {
            layer: {side: {"min_ms": round(min(times[side][layer]), 3),
                           "median_ms": round(statistics.median(times[side][layer]), 3)}
                    for side in trees}
            for layer in layers
        }
        print(f"{wl_name} ({args.rounds} rounds a side, ms)")
        print(f"  {'layer':<24}{'before min':>12}{'median':>10}{'after min':>12}{'median':>10}"
              f"{'after/before min':>18}{'median':>10}")
        for layer, row in report[wl_name].items():
            label = ("  " if layer in _NESTED else "") + layer
            b, a = row["before"], row["after"]
            ratios = [a[key] / b[key] if b[key] else math.nan for key in ("min_ms", "median_ms")]
            print(f"  {label:<24}{b['min_ms']:>12.2f}{b['median_ms']:>10.2f}"
                  f"{a['min_ms']:>12.2f}{a['median_ms']:>10.2f}{ratios[0]:>18.3f}{ratios[1]:>10.3f}")
        # a count that moved between rounds is shown as its range
        counts = {side: {name: "-".join(map(str, sorted({min(n), max(n)})))
                         for name, n in matrices[side].items()} for side in trees}
        report[wl_name]["matrices_per_round"] = counts
        print(f"  {'matrices per round':<24}{'before':>12}{'after':>12}")
        for name in _LINALG:
            print(f"  {name:<24}{counts['before'][name]:>12}{counts['after'][name]:>12}")
    print("outputs: " + ("identical" if same else "DIFFER between the trees"))
    if args.json is not None:
        args.json.write_text(json.dumps({"rounds": args.rounds, "identical": same,
                                         "workloads": report}, indent=2) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
