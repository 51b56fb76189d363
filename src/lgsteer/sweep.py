"""Grid evaluation of correlation reports with figure presets.

Sweeps evaluate correlation reports over 1-D or 2-D parameter grids in
blocks of at most 512 points, whose stable rows are solved and measured
64 at a time, which bounds the working memory of any grid.  Each axis
is converted to SI and checked once; a block's models are built as one
(N, 6, 6) stack by :func:`lgsteer.model.build_model` and solved and
measured by :func:`lgsteer.measures.full_reports`.  Axis
coordinates use the same display units as the configuration surface
(frequencies as ratios to the left-mirror frequency, phases in radians,
temperatures in kelvin, powers in watts); absolute SI values exist only
inside the model layer.  Unstable grid points are data, not errors: the
row carries the margin and an unstable marker.  Any error at a point is
captured in that row, and only that row, so a grid never aborts
half-way.  A figure preset is data: sweep run configs in run-file units,
built by :func:`to_sweep_spec` as any run file is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .config import Axis, RunConfig, RunSection, _check_axes, to_si, to_system_params
from .constants import CLIGHT, HBAR, KBOLTZ
from .errors import (
    InvalidSpec,
    LgsteerError,
    NonPositiveParameter,
    NoStableRegion,
    UnknownPreset,
)
from .gaussian import _CHUNK_ROWS
from .measures import CorrelationReport, _pairs, _solve_models, _unentangled, full_reports
from .model import FIELD_RULES, SystemParams, build_model, check_field, with_updates

_GRID_1D = 401
_GRID_2D = 101
# points the optimum search adds inside the winning coarse bracket
_REFINE_POINTS = 9
# grid points per batched evaluation (about 1-2 KB a point to build and
# take margins); the solve and the measures bound their own working
# arrays by taking a block's stable rows 64 at a time
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class SweepSpec:
    """A grid: base parameters plus one or two axes."""

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None

    def __post_init__(self) -> None:
        _check_axes(self.axis1, self.axis2)

    @property
    def shape(self) -> tuple[int, int]:
        return (
            len(self.axis1.values),
            1 if self.axis2 is None else len(self.axis2.values),
        )


def to_sweep_spec(config: RunConfig) -> SweepSpec:
    """Build the sweep grid from a sweep-mode config."""
    if config.run.mode != "sweep":
        raise InvalidSpec("config run.mode is not 'sweep'")
    return SweepSpec(to_system_params(config), config.run.axis1, config.run.axis2)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: coordinates, report, or a captured error."""

    index: tuple[int, int]
    coords: tuple[tuple[str, float], ...]
    report: CorrelationReport | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """All rows of a sweep in grid order plus run metadata."""

    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    metadata: dict = field(default_factory=dict)


def _column(base: SystemParams, which: int, axis: Axis) -> tuple:
    """``(which, field, SI values as SystemParams stores them, each one's error or None)``."""
    values, errors = [], []
    for v in axis.values:
        name, value = to_si(axis.name, v, base.omega_phi1)
        try:
            value, error = check_field(name, value), None
        except NonPositiveParameter as exc:
            error = exc
        values.append(value)
        errors.append(error)
    return which, name, np.array(values), errors


def _evaluate_point(index: tuple[int, int], coords, outcome) -> SweepRow:
    """A grid row from the point's report, or an error row from its exception."""
    if isinstance(outcome, LgsteerError):
        return SweepRow(index, coords, None, f"{type(outcome).__name__}: {outcome}")
    return SweepRow(index, coords, outcome)


def _evaluate_block(spec: SweepSpec, columns, points, coords) -> list[SweepRow]:
    """Rows of some grid points: the valid points' models built and reported as one block.

    A bad point's error is its first in ``columns`` (``FIELD_RULES``) order,
    as ``SystemParams`` would raise it.
    """
    outcomes = [None] * len(points)
    for which, _, _, errors in columns:
        for k, point in enumerate(points):
            if outcomes[k] is None:
                outcomes[k] = errors[point[which]]
    good = [k for k, error in enumerate(outcomes) if error is None]
    if good:
        index = np.array(points)[good]
        swept = {name: values[index[:, which]] for which, name, values, _ in columns}
        for k, report in zip(good, full_reports(build_model(spec.base, swept))):
            outcomes[k] = report
    return [_evaluate_point(*row) for row in zip(points, coords, outcomes)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; rows come back in (axis1, axis2) index order.

    Points are evaluated in blocks of ``_BLOCK_ROWS`` through
    :func:`lgsteer.measures.full_reports`, which solves and measures a
    block's stable rows 64 at a time: that bounds the working memory
    whatever the grid size.
    """
    n1, n2 = spec.shape
    points = [(i, j) for i in range(n1) for j in range(n2)]
    axes = enumerate((spec.axis1, spec.axis2))
    columns = [_column(spec.base, which, axis) for which, axis in axes if axis is not None]
    columns.sort(key=lambda column: list(FIELD_RULES).index(column[1]))
    # each point's (name, value) coordinates, in the order of ``points``
    pairs = [[(a.name, v) for v in a.values] for a in (spec.axis1, spec.axis2) if a is not None]
    coords = list(itertools.product(*pairs))
    rows = []
    for start in range(0, len(points), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows.extend(_evaluate_block(spec, columns, points[block], coords[block]))
    metadata = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "constants": {"hbar": HBAR, "kboltz": KBOLTZ, "clight": CLIGHT},
    }
    return SweepResult(spec, tuple(rows), metadata)


class OptimumDetuning(NamedTuple):
    """Result of the detuning optimization."""

    delta: float
    delta_ratio: float
    flat: bool


def _scores(base: SystemParams, ratios, measure: str) -> list[float]:
    """Chosen measure at each detuning ratio, from one block through the solve of
    :func:`run_sweep` and the pair half of its measures (:func:`lgsteer.measures._pairs`).

    -inf marks a row that is not stable, fails its detuning check, its
    solve or its pair measures, or breaks the steering-entanglement
    hierarchy.  No report is built, so the one-vs-two splits are not
    computed; every other row scores what its report would hold.
    """
    _, name, values, errors = _column(base, 0, Axis("detuning_ratio", ratios))
    scores = np.full(len(values), -math.inf)
    good = np.flatnonzero([error is None for error in errors])
    if len(good):
        rows, _, v = _solve_models(build_model(base, {name: values[good]}))
        if len(v):
            en, zetas = rows.run(_pairs, v, chunk=_CHUNK_ROWS)
            kept = ~_unentangled(zetas.max(axis=1), en[:, 0])
            scores[good[rows.live[kept]]] = en[kept, 0 if measure == "ENmm" else 1]
    return scores.tolist()


def optimum_detuning(base: SystemParams, measure: str = "ENmm") -> OptimumDetuning:
    """Detuning maximizing a measure over [-2, 2] mirror-1 frequencies.

    Scans a 401-point grid, then evaluates evenly spaced points inside
    the bracket around the best grid point (one grid step either side,
    split in 10, skipping the grid point itself), which resolves the
    optimum to 2e-3 of the mirror-1 frequency; the grid winner stands
    unless a refined point is strictly better.  Each grid is one block
    through the solve that :func:`run_sweep` makes, scored from the pair
    measures alone (see :func:`_scores`).  A flat landscape (every stable
    point identical) skips refinement and returns the smallest-detuning
    argmax with ``flat=True``.  Raises :class:`NoStableRegion` when no grid
    point is stable.
    """
    if measure not in ("ENmm", "ENmc"):
        raise InvalidSpec(f"measure must be ENmm or ENmc, got {measure!r}")
    grid = _DETUNING.values
    values = _scores(base, grid, measure)
    stable_vals = [v for v in values if v != -math.inf]
    if not stable_vals:
        raise NoStableRegion("every grid point in [-2, 2] is unstable")
    best_v = max(values)
    k = values.index(best_v)
    best_x = grid[k]
    flat = max(stable_vals) == min(stable_vals)
    if not flat:
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        fine = np.linspace(lo, hi, _REFINE_POINTS + 2)[1:-1]
        if 0 < k < len(grid) - 1:
            # the middle point is the grid winner again
            fine = np.delete(fine, _REFINE_POINTS // 2)
        for x, v in zip(fine, _scores(base, fine, measure)):
            if v > best_v:
                best_x, best_v = float(x), v
    _, delta = to_si("detuning_ratio", best_x, base.omega_phi1)
    return OptimumDetuning(delta, best_x, flat)


def _sweep(system: dict, axis1: Axis, axis2: Axis | None = None) -> RunConfig:
    return RunConfig(system, RunSection("sweep", axis1, axis2))


_DETUNING = Axis("detuning_ratio", np.linspace(-2.0, 2.0, _GRID_1D))
_GAIN = Axis("opa_gain_ratio", np.linspace(0.0, 0.2, _GRID_1D))
_TEMPERATURE = Axis("temperature_k", np.geomspace(1e-3, 1.0, _GRID_1D))
_PHASES = {
    "theta0": 0.0,
    "thetapi2": 0.5 * math.pi,
    "thetapi": math.pi,
    "theta3pi2": 1.5 * math.pi,
}
# the pumped system at each phase of the detuning scans
_PUMPED = {tag: {"opa_gain_ratio": 0.1, "opa_phase_rad": p} for tag, p in _PHASES.items()}
_DETUNING_SCANS = (("chi0", _sweep({}, _DETUNING), None),) + tuple(
    (f"chi0p1_{tag}", _sweep(system, _DETUNING), None) for tag, system in _PUMPED.items()
)
_FIG3 = _sweep(
    {"detuning_ratio": -1.0},
    Axis("opa_gain_ratio", np.linspace(0.0, 0.2, _GRID_2D)),
    Axis("opa_phase_rad", np.linspace(0.0, 2.0 * math.pi, _GRID_2D)),
)
# omega_phi2 / omega_phi1 of the unpumped detuning scans of Figs 6 and 7
_W2_RATIOS = {
    "fig6a": 0.5, "fig6b": 1.5,
    "fig7a": 0.9, "fig7b": 0.95, "fig7c": 1.05, "fig7d": 1.1,
}
# Fig 8's unpumped gain scans: both mirror ratios at each phase
_FIG8 = [
    {"omega_phi2_ratio": r, "opa_phase_rad": p} for r in (0.5, 1.5) for p in _PHASES.values()
]

# preset name -> variants, in listing order.  A variant is (suffix, sweep
# run config in run-file units, the measure whose optimal detuning the
# grid's base takes, or None).
_PRESETS = {
    "fig2a": _DETUNING_SCANS,
    "fig2b": _DETUNING_SCANS,
    "fig3": (("", _FIG3, None),),
    "fig4": (
        ("chi0", _sweep({}, _TEMPERATURE), "ENmm"),
        ("chi0p1_theta3pi2", _sweep(_PUMPED["theta3pi2"], _TEMPERATURE), "ENmm"),
    ),
    "fig5": _DETUNING_SCANS,
    **{
        name: (("", _sweep({"omega_phi2_ratio": ratio}, _DETUNING), None),)
        for name, ratio in _W2_RATIOS.items()
    },
    **{
        f"fig8{letter}": (("", _sweep(system, _GAIN), "ENmm"),)
        for letter, system in zip("abcdefgh", _FIG8)
    },
}
PRESET_NAMES = tuple(_PRESETS)


def preset_variants(name: str):
    """All (suffix, SweepSpec) pairs a preset expands to.

    Each variant is a sweep run config built by :func:`to_sweep_spec`, as
    ``lgsteer sweep --config`` builds a run file's grid; the temperature
    and gain scans then move the base detuning to the optimum of EN_mm.
    Detuning-scan presets carry an unpumped variant plus four pumped
    phases; the temperature preset carries unpumped and best-phase
    pumped variants; the rest are single grids (empty suffix).
    """
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    variants = []
    for suffix, config, measure in _PRESETS[name]:
        spec = to_sweep_spec(config)
        if measure is not None:
            delta = optimum_detuning(spec.base, measure).delta
            spec = replace(spec, base=with_updates(spec.base, detuning=delta))
        variants.append((suffix, spec))
    return variants
