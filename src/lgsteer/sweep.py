"""Grid evaluation of correlation reports with figure presets.

Sweeps evaluate correlation reports over 1-D or 2-D parameter grids in
blocks of at most 512 points, whose stable rows are solved and measured
64 at a time, which bounds the working memory of any grid.  Each axis
is converted to SI and checked once, as one array; a block's models
are built as one (N, 6, 6) stack by :func:`lgsteer.model.build_model`,
and :func:`lgsteer.measures._report_columns` solves and measures them
straight into the one table of the grid, which the result keeps; its
rows are built only when read.  Axis
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

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import Axis, RunConfig, RunSection, _check_axes, to_si, to_system_params
from .errors import InvalidSpec, NoStableRegion, UnknownPreset
from .measures import (
    CorrelationReport,
    _Columns,
    _pairs,
    _report_columns,
    _solve_models,
)
from .model import FIELD_RULES, SystemParams, _check_values, build_model, with_updates

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


class SweepRow:
    """One grid point of a :class:`SweepResult`: coordinates, report, or a captured error.

    A row reads its result's columns: ``index`` is its (axis1, axis2)
    index, ``coords`` its ``(axis name, value)`` pairs, ``report`` its
    :class:`CorrelationReport`, built each time it is read (None on an
    error row), and ``error`` the error row's ``"<class>: <message>"``
    (None elsewhere).  A row prints by those four and compares by identity.
    """

    __slots__ = ("_result", "_k")

    def __init__(self, result: SweepResult, k: int) -> None:
        self._result, self._k = result, k

    @property
    def index(self) -> tuple[int, int]:
        return divmod(self._k, self._result.spec.shape[1])

    @property
    def coords(self) -> tuple[tuple[str, float], ...]:
        spec, (i, j) = self._result.spec, self.index
        coords = ((spec.axis1.name, spec.axis1.values[i]),)
        if spec.axis2 is None:
            return coords
        return coords + ((spec.axis2.name, spec.axis2.values[j]),)

    @property
    def report(self) -> CorrelationReport | None:
        result = self._result
        return None if self._k in result.errors else result.columns.report(self._k)

    @property
    def error(self) -> str | None:
        return self._result.errors.get(self._k)

    def __repr__(self) -> str:
        return (f"SweepRow(index={self.index!r}, coords={self.coords!r}, "
                f"report={self.report!r}, error={self.error!r})")


class _RowView(Sequence):
    """:attr:`SweepResult.rows`: a row is built when it is read, and not kept."""

    __slots__ = ("_result",)

    def __init__(self, result: SweepResult) -> None:
        self._result = result

    def __len__(self) -> int:
        return len(self._result.columns.margin)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(len(self)))))
        k, n = operator.index(k), len(self)
        if not -n <= k < n:
            raise IndexError(f"row {k} of a {n}-row sweep")
        return SweepRow(self._result, k % n)

    def __iter__(self):
        return map(SweepRow, itertools.repeat(self._result), range(len(self)))


@dataclass(frozen=True, eq=False)
class SweepResult:
    """All rows of a sweep in grid order.

    The rows are held as columns: ``columns`` has each row's report values
    as arrays and ``errors`` each error row's message, both by row number
    ``i * n2 + j`` (``n2`` is 1 on a 1-D grid).  :attr:`rows` reads them.
    """

    spec: SweepSpec
    columns: _Columns
    errors: dict[int, str]

    @property
    def rows(self) -> Sequence[SweepRow]:
        """The rows in (axis1, axis2) index order, each built as it is read."""
        return _RowView(self)


def _column(base: SystemParams, which: int, axis: Axis) -> tuple:
    """``(which, field, SI values as SystemParams stores them, {value index: its error})``.

    The axis is converted and checked as one array (see
    :func:`lgsteer.model._check_values`), bit for bit as ``to_si`` and
    ``check_field`` convert and check each value.
    """
    with np.errstate(over="ignore"):  # a value that overflows in SI fails its check
        name, values = to_si(axis.name, np.array(axis.values), base.omega_phi1)
    return (which, name, *_check_values(name, values))


def _evaluate_block(spec: SweepSpec, columns, rows: np.ndarray, table: _Columns,
                    errors: dict) -> None:
    """Fill grid rows ``rows`` of ``table`` and ``errors``: the valid points' models built
    as one block and reported into ``table``.

    ``columns`` holds each axis's ``(which, field, SI values, {value index:
    its error})``.  A bad point's error is its first in ``columns``
    (``FIELD_RULES``) order, as ``SystemParams`` would raise it.
    """
    index = np.stack(np.divmod(rows, spec.shape[1]), axis=1)
    failed = {}
    for which, _, _, bad in columns:
        if bad:
            for k in np.flatnonzero(np.isin(index[:, which], list(bad))).tolist():
                failed.setdefault(k, bad[int(index[k, which])])
    good = np.delete(np.arange(len(rows)), list(failed))
    if len(good):
        swept = {name: values[index[good, which]] for which, name, values, _ in columns}
        block_errors = _report_columns(build_model(spec.base, swept), table, rows[good])
        failed.update((int(good[k]), exc) for k, exc in block_errors.items())
    errors.update((int(rows[k]), f"{type(exc).__name__}: {exc}") for k, exc in failed.items())


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; rows come back in (axis1, axis2) index order.

    Points are evaluated in blocks of ``_BLOCK_ROWS`` through
    :func:`lgsteer.measures._report_columns`, which solves and measures a
    block's stable rows 64 at a time into the grid's one table: that
    bounds the working memory whatever the grid size.  The result keeps
    that table, about 70 B a row; no row object is built.
    """
    n = math.prod(spec.shape)
    axes = enumerate((spec.axis1, spec.axis2))
    columns = [_column(spec.base, which, axis) for which, axis in axes if axis is not None]
    columns.sort(key=lambda column: list(FIELD_RULES).index(column[1]))
    table, errors = _Columns.of(n), {}
    for start in range(0, n, _BLOCK_ROWS):
        rows = np.arange(start, min(n, start + _BLOCK_ROWS))
        _evaluate_block(spec, columns, rows, table, errors)
    return SweepResult(spec, table, errors)


class OptimumDetuning(NamedTuple):
    """Result of the detuning optimization."""

    delta: float
    delta_ratio: float
    flat: bool


def _scores(base: SystemParams, axis: Axis, measure: str) -> list[float]:
    """Chosen measure at each value of a detuning axis, from one block through the solve
    of :func:`run_sweep` and the pair half of its measures (:func:`lgsteer.measures._pairs`).

    -inf marks a row that is not stable or fails its detuning check, its
    solve or the pair stage, which also fails a row that breaks the
    steering-entanglement hierarchy.  Only the pairs read are computed:
    the mirror-mirror pair, which the hierarchy guard reads, and for ENmc
    mirror 1-cavity too.  No report is built, so neither mirror 2-cavity
    nor the one-vs-two splits are computed; every other row scores what
    its report would hold.
    """
    _, name, values, errors = _column(base, 0, axis)
    scores = np.full(len(values), -math.inf)
    good = np.delete(np.arange(len(values)), list(errors))
    if len(good):
        # the pairs read, in _pairs' order: EN_mm, then EN_m1c for ENmc
        read = 1 if measure == "ENmm" else 2
        stage = functools.partial(_pairs, pairs=read)
        rows, _, out = _solve_models(build_model(base, {name: values[good]}), stage)
        if out is not None:
            scores[good[rows.live]] = out[0][:, read - 1]
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
    values = _scores(base, _DETUNING, measure)
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
        for x, v in zip(fine, _scores(base, Axis("detuning_ratio", fine), measure)):
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
