"""The four benchmark workloads: inputs, rounds and output checks.

A workload's inputs are built once, from ``--seed``, before the first
evaluation.  A round is one pass over all of them; a run repeats whole
rounds, so every round attempts the same operations and the failed
share is the same in every run.  An *operation* is what a user waits
for: one sweep written to disk, one optimum search with its sweep, one
``point`` query, one ``verify`` call.  Rows are the records the
operations write (sweep rows, point answers, verify check lines).

Every workload calls the package through module attributes at call
time (``lgsteer.run_sweep``, ``lgsteer.cli.main``), so the traced run
sees the rebound functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lgsteer
import lgsteer.cli

import checks

W1 = 2.0 * math.pi * 1e7
TWO_PI = 2.0 * math.pi
PUMPS = (
    ("chi0", 0.0, 0.0),
    ("chi0p1_theta0", 0.1, 0.0),
    ("chi0p1_thetapi2", 0.1, 0.5 * math.pi),
    ("chi0p1_thetapi", 0.1, math.pi),
    ("chi0p1_theta3pi2", 0.1, 1.5 * math.pi),
)
# every 5th point of the 401-point preset grid in [-2, 2]
DETUNING_POINTS = 81
# every 8th point of the 401-point temperature and gain preset grids
FOLLOW_UP_POINTS = 51
POINT_QUERIES = 3300
# a round is every QUERY_BLOCKS-th draw, so a run covers all draws in 4 rounds
QUERY_BLOCKS = 4
# stable and not-stable rows recomputed independently, per run
SAMPLE_STABLE = 150
SAMPLE_UNSTABLE = 50

# sweep axis -> (SystemParams field, scaled by omega_phi1)
_AXIS_FIELDS = {
    "detuning_ratio": ("detuning", True),
    "temperature_k": ("temperature", False),
    "opa_gain_ratio": ("opa_gain", True),
}
# display-unit values written to every point config, as SystemParams fields
_POINT_SYSTEM = {
    "cavity_length_m": 1e-3,
    "mirror_mass_kg": 35e-12,
    "mirror_radius_m": 10e-6,
    "omega_phi1_hz": 1e7,
    "laser_power_w": 50e-3,
    "laser_wavelength_m": 810e-9,
    "quality_factor": 2e7,
    "finesse": 5e3,
    "oam_number": 100,
}


@dataclass
class Op:
    """One timed operation of a round."""

    seconds: float
    rows: int
    start: float
    stable: bool | None = None
    failed: Counter = field(default_factory=Counter)
    # machine-speed factor around the operation, set by the caller (speed.py)
    factor: float = 1.0


@dataclass
class Round:
    """All operations of one pass over the inputs plus what they returned."""

    wall: float
    ops: list[Op]
    outputs: list = field(default_factory=list)
    # machine-speed factor of the round, set by the caller (see speed.py)
    factor: float = 1.0

    @property
    def rows(self) -> int:
        return sum(op.rows for op in self.ops)


def _row_params(base, row: dict, axis: str):
    name, scaled = _AXIS_FIELDS[axis]
    value = row[axis] * base.omega_phi1 if scaled else row[axis]
    return lgsteer.with_updates(base, **{name: value})


def _error_class(error: str) -> str:
    return error.split(":", 1)[0]


class _Sample:
    """Seeded sample of rows for the independent recomputation."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 7])
        self.stable: list = []
        self.unstable: list = []

    def offer(self, rows_with_params) -> None:
        for row, params in rows_with_params:
            if row["stable"] is True:
                self.stable.append((row, params))
            elif row["stable"] is False:
                self.unstable.append((row, params))

    def check(self) -> tuple[list[str], list[str], int]:
        """(problems, self-test misses, rows recomputed)."""
        problems: list[str] = []
        picked = []
        for pool, k in ((self.stable, SAMPLE_STABLE), (self.unstable, SAMPLE_UNSTABLE)):
            for i in self.rng.permutation(len(pool))[:k]:
                picked.append(pool[i])
        # the self-test corrupts the most entangled row whose tolerance is
        # well below the perturbation it applies
        best, best_en = None, 0.0
        for row, params in picked:
            ind = checks.Independent(lgsteer.build_model(params))
            problems.extend(ind.problems(row))
            en = max(row[c] for c in checks.EN_CELLS) if row["stable"] is True else 0.0
            if en > best_en and ind.rel_tol < checks.PERTURBATION / 10:
                best, best_en = (row, ind), en
        if best is None:
            return problems, ["no entangled, well-conditioned row to corrupt"], len(picked)
        return problems, checks.self_test(*best), len(picked)


class DetuningSweeps:
    """25 sweeps at 15 mK plus 5 at T = 0, omega2 = omega1, written as CSV."""

    name = "detuning_sweeps"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        base = lgsteer.table_defaults()
        w1 = base.omega_phi1
        axis = lgsteer.Axis("detuning_ratio", tuple(np.linspace(-2.0, 2.0, DETUNING_POINTS)))
        items = []
        for temperature, ratios in ((15e-3, (0.5, 0.9, 1.0, 1.1, 1.5)), (0.0, (1.0,))):
            for ratio in ratios:
                for tag, chi, theta in PUMPS:
                    b = lgsteer.with_updates(
                        base,
                        omega_phi2=ratio * w1,
                        opa_gain=chi * w1,
                        opa_phase=theta,
                        temperature=temperature,
                    )
                    label = f"T{temperature * 1e3:g}mK_w{ratio:g}_{tag}"
                    items.append((label, lgsteer.SweepSpec(b, axis)))
        order = np.random.default_rng(seed).permutation(len(items))
        self.items = [items[i] for i in order]

    def run_round(self, k: int, speed) -> Round:
        out_dir = self.workdir / f"round{k}"
        out_dir.mkdir(parents=True)
        ops = []
        t_round, spent = time.perf_counter(), speed.spent_s
        for label, spec in self.items:
            t0 = time.perf_counter()
            result = lgsteer.run_sweep(spec)
            lgsteer.write_result(result, str(out_dir / f"{label}.csv"), "csv")
            t1 = time.perf_counter()
            failed = Counter(_error_class(r.error) for r in result.rows if r.error)
            ops.append(Op(t1 - t0, len(result.rows), t0, failed=failed))
            speed.tick()
        wall = time.perf_counter() - t_round - (speed.spent_s - spent)
        return Round(wall, ops, [out_dir])

    def check(self, rounds: list[Round]):
        problems: list[str] = []
        sample = _Sample(self.seed)
        first: dict[str, str] = {}
        for rnd in rounds:
            out_dir = rnd.outputs[0]
            for label, spec in self.items:
                text = (out_dir / f"{label}.csv").read_text(encoding="utf-8")
                if label in first:
                    if text != first[label]:
                        problems.append(f"{label}: output differs between rounds")
                    continue
                first[label] = text
                header, rows = checks.parse_csv(text)
                problems.extend(_grid_problems(label, spec, header[0], rows))
                sample.offer((row, _row_params(spec.base, row, "detuning_ratio")) for row in rows)
        more, missed, n = sample.check()
        return problems + more, missed, n


class OptimumScans:
    """8 optimum searches, each followed by a sweep at the optimum, as JSON."""

    name = "optimum_scans"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed, self.workdir = seed, workdir
        base = lgsteer.table_defaults()
        w1 = base.omega_phi1
        t_axis = lgsteer.Axis(
            "temperature_k", tuple(np.geomspace(1e-3, 1.0, FOLLOW_UP_POINTS))
        )
        g_axis = lgsteer.Axis(
            "opa_gain_ratio", tuple(np.linspace(0.0, 0.2, FOLLOW_UP_POINTS))
        )
        items = []
        for ratio in (0.5, 1.5):
            for tag, chi, theta in (PUMPS[0], PUMPS[2]):
                b = lgsteer.with_updates(
                    base, omega_phi2=ratio * w1, opa_gain=chi * w1, opa_phase=theta
                )
                items.append((f"w{ratio:g}_{tag}_ENmm", b, "ENmm", t_axis))
                items.append((f"w{ratio:g}_{tag}_ENmc", b, "ENmc", g_axis))
        order = np.random.default_rng(seed).permutation(len(items))
        self.items = [items[i] for i in order]

    def run_round(self, k: int, speed) -> Round:
        out_dir = self.workdir / f"round{k}"
        out_dir.mkdir(parents=True)
        ops, optima = [], []
        t_round, spent = time.perf_counter(), speed.spent_s
        for label, base, measure, axis in self.items:
            t0 = time.perf_counter()
            try:
                opt = lgsteer.optimum_detuning(base, measure)
            except lgsteer.NoStableRegion:
                optima.append(None)
                failed = Counter(NoStableRegion=1)
                ops.append(Op(time.perf_counter() - t0, 0, t0, failed=failed))
                continue
            spec = lgsteer.SweepSpec(lgsteer.with_updates(base, detuning=opt.delta), axis)
            result = lgsteer.run_sweep(spec)
            lgsteer.write_result(result, str(out_dir / f"{label}.json"), "json")
            t1 = time.perf_counter()
            failed = Counter(_error_class(r.error) for r in result.rows if r.error)
            optima.append(opt)
            ops.append(Op(t1 - t0, len(result.rows), t0, failed=failed))
            speed.tick()
        wall = time.perf_counter() - t_round - (speed.spent_s - spent)
        return Round(wall, ops, [out_dir, optima])

    def check(self, rounds: list[Round]):
        problems: list[str] = []
        sample = _Sample(self.seed)
        first: dict[str, str] = {}
        for rnd in rounds:
            out_dir, optima = rnd.outputs
            for (label, base, measure, axis), opt in zip(self.items, optima):
                if opt is None:
                    continue
                text = (out_dir / f"{label}.json").read_text(encoding="utf-8")
                if label in first:
                    if text != first[label]:
                        problems.append(f"{label}: output differs between rounds")
                    continue
                first[label] = text
                doc, rows = checks.parse_json_rows(text)
                got_ratio = doc["spec"]["system"]["detuning_ratio"]
                if abs(got_ratio - opt.delta_ratio) > 1e-12 * max(1.0, abs(opt.delta_ratio)):
                    problems.append(f"{label}: spec detuning {got_ratio!r} is not the optimum")
                spec = lgsteer.SweepSpec(lgsteer.with_updates(base, detuning=opt.delta), axis)
                problems.extend(_grid_problems(label, spec, doc["spec"]["axis1"]["name"], rows))
                sample.offer((row, _row_params(spec.base, row, axis.name)) for row in rows)
                problems.extend(_optimum_problems(label, base, measure, opt))
        more, missed, n = sample.check()
        return problems + more, missed, n


def _grid_problems(label: str, spec, axis_name: str, rows: list[dict]) -> list[str]:
    problems = []
    if axis_name != spec.axis1.name:
        problems.append(f"{label}: axis {axis_name!r}, expected {spec.axis1.name!r}")
        return problems
    coords = tuple(row[axis_name] for row in rows)
    if coords != spec.axis1.values:
        problems.append(f"{label}: {len(rows)} rows or their coordinates differ from the grid")
    for row in rows:
        problems.extend(f"{label} @ {row[axis_name]!r}: {p}" for p in checks.row_problems(row))
    return problems


def _optimum_problems(label: str, base, measure: str, opt) -> list[str]:
    """The optimum is no worse than any stable point of an independent scan."""
    pair = "EN_mm" if measure == "ENmm" else "EN_m1c"
    w1 = base.omega_phi1
    values = []
    for ratio in np.linspace(-2.0, 2.0, 401):
        ind = checks.Independent(
            lgsteer.build_model(lgsteer.with_updates(base, detuning=float(ratio) * w1))
        )
        if ind.values:
            values.append(ind.measure(pair))
    at_opt = checks.Independent(
        lgsteer.build_model(lgsteer.with_updates(base, detuning=opt.delta))
    )
    if not values:
        return [f"{label}: search returned {opt.delta_ratio!r} but no scan point is stable"]
    if not at_opt.values:
        return [f"{label}: optimum {opt.delta_ratio!r} is not stable"]
    best = max(values)
    got = at_opt.measure(pair)
    problems = []
    if got < best - (checks.REL_TOL * best + checks.ABS_TOL):
        problems.append(f"{label}: {pair} {got!r} at the optimum < scan maximum {best!r}")
    if opt.flat and best - min(values) > checks.ABS_TOL:
        problems.append(f"{label}: reported flat but the scan spans [{min(values)!r}, {best!r}]")
    return problems


class PointQueries:
    """Seeded random single points through ``lgsteer point --format json``."""

    name = "point_queries"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.answers: dict[int, tuple[int, str]] = {}
        rng = np.random.default_rng(seed)
        n = POINT_QUERIES
        self.draws = {
            "detuning_ratio": rng.uniform(-2.0, 2.0, n),
            "opa_gain_ratio": rng.uniform(0.0, 0.2, n),
            "opa_phase_rad": rng.uniform(0.0, TWO_PI, n),
            "omega_phi2_ratio": rng.uniform(0.5, 1.5, n),
            "temperature_k": np.exp(rng.uniform(math.log(1e-3), math.log(0.1), n)),
        }
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i in range(n):
            system = dict(_POINT_SYSTEM)
            system.update((key, float(vals[i])) for key, vals in self.draws.items())
            path = cfg_dir / f"q{i:05d}.json"
            path.write_text(
                json.dumps({"system": system, "run": {"mode": "point"}}), encoding="utf-8"
            )
            self.paths.append(str(path))

    def params(self, i: int):
        d = {key: float(vals[i]) for key, vals in self.draws.items()}
        return lgsteer.SystemParams(
            cavity_length=_POINT_SYSTEM["cavity_length_m"],
            mirror_mass=_POINT_SYSTEM["mirror_mass_kg"],
            mirror_radius=_POINT_SYSTEM["mirror_radius_m"],
            omega_phi1=W1,
            omega_phi2=d["omega_phi2_ratio"] * W1,
            laser_power=_POINT_SYSTEM["laser_power_w"],
            laser_wavelength=_POINT_SYSTEM["laser_wavelength_m"],
            quality_factor=_POINT_SYSTEM["quality_factor"],
            finesse=_POINT_SYSTEM["finesse"],
            oam_number=_POINT_SYSTEM["oam_number"],
            temperature=d["temperature_k"],
            opa_gain=d["opa_gain_ratio"] * W1,
            opa_phase=d["opa_phase_rad"],
            detuning=d["detuning_ratio"] * W1,
        )

    def run_round(self, k: int, speed) -> Round:
        """Block ``k mod QUERY_BLOCKS`` of the draws, one query after another."""
        block = range(k % QUERY_BLOCKS, len(self.paths), QUERY_BLOCKS)
        answers = []
        times = []
        clock = time.perf_counter
        t_round, spent = clock(), speed.spent_s
        for i in block:
            buf = io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(buf):
                code = lgsteer.cli.main(["point", "--config", self.paths[i], "--format", "json"])
            times.append((t0, clock() - t0))
            answers.append((code, buf.getvalue()))
            speed.tick()
        wall = clock() - t_round - (speed.spent_s - spent)
        ops = []
        for (code, text), (t0, seconds) in zip(answers, times):
            if code != 0:
                ops.append(Op(seconds, 1, t0, failed=Counter({f"exit{code}": 1})))
            else:
                ops.append(Op(seconds, 1, t0, stable=json.loads(text)["stable"]))
        # a block's first answers are kept for the checks; a repeat keeps only
        # the queries whose answer changed, so memory stays bounded
        changed = []
        for i, ans in zip(block, answers):
            if i not in self.answers:
                self.answers[i] = ans
            elif ans != self.answers[i]:
                changed.append(i)
        return Round(wall, ops, changed)

    def check(self, rounds: list[Round]):
        problems: list[str] = []
        sample = _Sample(self.seed)
        for i, (code, text) in sorted(self.answers.items()):
            if code != 0:
                continue
            row = json.loads(text)
            problems.extend(f"query {i}: {p}" for p in checks.row_problems(row))
            sample.offer([(row, self.params(i))])
        for rnd in rounds:
            problems.extend(f"query {i}: answer differs from its first run" for i in rnd.outputs)
        more, missed, n = sample.check()
        return problems + more, missed, n


class Verify:
    """``lgsteer verify --seed S`` with seeds drawn from the run's seed."""

    name = "verify"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, 64)]

    def run_round(self, k: int, speed) -> Round:
        buf = io.StringIO()
        argv = ["verify", "--seed", str(self.seeds[k % len(self.seeds)])]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = lgsteer.cli.main(argv)
        wall = time.perf_counter() - t0
        text = buf.getvalue()
        lines = [ln for ln in text.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        failed = Counter(FAIL=sum(ln.startswith("FAIL ") for ln in lines))
        return Round(wall, [Op(wall, len(lines), t0, failed=+failed)], [(code, text)])

    def check(self, rounds: list[Round]):
        problems = []
        for k, rnd in enumerate(rounds):
            problems.extend(f"round {k}: {p}" for p in checks.verify_problems(*rnd.outputs[0]))
        return problems, checks.verify_self_test(*rounds[0].outputs[0]), 0


WORKLOADS = {w.name: w for w in (DetuningSweeps, OptimumScans, PointQueries, Verify)}
