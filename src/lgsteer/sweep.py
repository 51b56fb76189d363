"""Grid evaluation of correlation reports with figure presets.

Sweeps evaluate correlation reports over 1-D or 2-D parameter grids in
blocks of at most 64 points, which bounds the working memory of any
grid.  Each axis is converted to SI and checked once; a block's models
are built as one (N, 6, 6) stack by :func:`lgsteer.model.build_model`
and solved and measured by :func:`lgsteer.measures.full_reports`.  Axis
coordinates use the same display units as the configuration surface
(frequencies as ratios to the left-mirror frequency, phases in radians,
temperatures in kelvin, powers in watts); absolute SI values exist only
inside the model layer.  Unstable grid points are data, not errors: the
row carries the margin and an unstable marker.  Any error at a point is
captured in that row, and only that row, so a grid never aborts
half-way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import NamedTuple

import numpy as np

from ._version import __version__
from .config import Axis, RunConfig, table_defaults, to_si, to_system_params
from .constants import CLIGHT, HBAR, KBOLTZ
from .errors import (
    InvalidSpec,
    LgsteerError,
    NonPositiveParameter,
    NoStableRegion,
    UnknownPreset,
)
from .measures import CorrelationReport, full_reports
from .model import FIELD_RULES, SystemParams, build_model, check_field, with_updates

_GRID_1D = 401
_GRID_2D = 101
# points the optimum search adds inside the winning coarse bracket
_REFINE_POINTS = 9
# grid points per batched evaluation: bounds the solver's working arrays
# (about 34 KB a row) and so the peak memory of any grid
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class SweepSpec:
    """A grid: base parameters plus one or two axes."""

    base: SystemParams
    axis1: Axis
    axis2: Axis | None = None

    def __post_init__(self) -> None:
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise InvalidSpec(f"both axes sweep {self.axis1.name!r}")

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


def _evaluate_block(spec: SweepSpec, columns, points) -> list[SweepRow]:
    """Rows of some grid points: the valid points' models built and reported as one block.

    A bad point's error is its first in ``columns`` (``FIELD_RULES``) order,
    as ``SystemParams`` would raise it.
    """
    axes = [axis for axis in (spec.axis1, spec.axis2) if axis is not None]
    coords = [tuple((a.name, a.values[k]) for a, k in zip(axes, point)) for point in points]
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
    :func:`lgsteer.measures.full_reports`, which bounds the working
    memory whatever the grid size.
    """
    n1, n2 = spec.shape
    points = [(i, j) for i in range(n1) for j in range(n2)]
    axes = enumerate((spec.axis1, spec.axis2))
    columns = [_column(spec.base, which, axis) for which, axis in axes if axis is not None]
    columns.sort(key=lambda column: list(FIELD_RULES).index(column[1]))
    rows = []
    for start in range(0, len(points), _BLOCK_ROWS):
        rows.extend(_evaluate_block(spec, columns, points[start : start + _BLOCK_ROWS]))
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
    """Chosen measure at each detuning ratio; -inf marks unstable or failed rows."""
    rows = run_sweep(SweepSpec(base, Axis("detuning_ratio", ratios))).rows
    name = "en_mm" if measure == "ENmm" else "en_m1c"
    reports = [row.report for row in rows]
    return [getattr(r, name) if r and r.stable else -math.inf for r in reports]


def optimum_detuning(base: SystemParams, measure: str = "ENmm") -> OptimumDetuning:
    """Detuning maximizing a measure over [-2, 2] mirror-1 frequencies.

    Scans a 401-point grid, then evaluates evenly spaced points inside
    the bracket around the best grid point (one grid step either side,
    split in 10, skipping the grid point itself), which resolves the
    optimum to 2e-3 of the mirror-1 frequency; the grid winner stands
    unless a refined point is strictly better.  Both grids are
    :func:`run_sweep` rows.  A flat landscape (every stable point
    identical) skips refinement and returns the smallest-detuning argmax
    with ``flat=True``.  Raises :class:`NoStableRegion` when no grid
    point is stable.
    """
    if measure not in ("ENmm", "ENmc"):
        raise InvalidSpec(f"measure must be ENmm or ENmc, got {measure!r}")
    grid = np.linspace(-2.0, 2.0, _GRID_1D)
    values = _scores(base, grid, measure)
    stable_vals = [v for v in values if v != -math.inf]
    if not stable_vals:
        raise NoStableRegion("every grid point in [-2, 2] is unstable")
    best_v = max(values)
    k = values.index(best_v)
    best_x = float(grid[k])
    if max(stable_vals) == min(stable_vals):
        return OptimumDetuning(best_x * base.omega_phi1, best_x, True)
    lo = grid[max(0, k - 1)]
    hi = grid[min(len(grid) - 1, k + 1)]
    fine = np.linspace(lo, hi, _REFINE_POINTS + 2)[1:-1]
    if 0 < k < len(grid) - 1:
        # the middle point is the grid winner again
        fine = np.delete(fine, _REFINE_POINTS // 2)
    for x, v in zip(fine, _scores(base, fine, measure)):
        if v > best_v:
            best_x, best_v = float(x), v
    return OptimumDetuning(best_x * base.omega_phi1, best_x, False)


def _delta_axis() -> Axis:
    return Axis("detuning_ratio", tuple(np.linspace(-2.0, 2.0, _GRID_1D)))


def _gain_axis(n: int = _GRID_1D) -> Axis:
    return Axis("opa_gain_ratio", tuple(np.linspace(0.0, 0.2, n)))


_THETA_TAGS = (
    ("theta0", 0.0),
    ("thetapi2", 0.5 * math.pi),
    ("thetapi", math.pi),
    ("theta3pi2", 1.5 * math.pi),
)


def _delta_scan_variants():
    """chi=0 plus the four pumped phases used by the detuning scans."""
    base = table_defaults()
    w1 = base.omega_phi1
    out = [("chi0", SweepSpec(with_updates(base, opa_gain=0.0), _delta_axis()))]
    for tag, theta in _THETA_TAGS:
        pumped = with_updates(base, opa_gain=0.1 * w1, opa_phase=theta)
        out.append((f"chi0p1_{tag}", SweepSpec(pumped, _delta_axis())))
    return out


def _fig4_variants():
    base = table_defaults()
    w1 = base.omega_phi1
    t_axis = Axis("temperature_k", tuple(np.geomspace(1e-3, 1.0, _GRID_1D)))
    out = []
    for tag, overrides in (
        ("chi0", {"opa_gain": 0.0}),
        ("chi0p1_theta3pi2", {"opa_gain": 0.1 * w1, "opa_phase": 1.5 * math.pi}),
    ):
        b = with_updates(base, **overrides)
        opt = optimum_detuning(b, "ENmm")
        out.append((tag, SweepSpec(with_updates(b, detuning=opt.delta), t_axis)))
    return out


def _fig8_variants(w2_ratio: float, theta: float):
    base = table_defaults()
    b = with_updates(
        base,
        omega_phi2=w2_ratio * base.omega_phi1,
        opa_gain=0.0,
        opa_phase=theta,
    )
    opt = optimum_detuning(b, "ENmm")
    return [("", SweepSpec(with_updates(b, detuning=opt.delta), _gain_axis()))]


def _fig3_variants():
    base = table_defaults()
    spec = SweepSpec(
        with_updates(base, detuning=-base.omega_phi1),
        _gain_axis(_GRID_2D),
        Axis("opa_phase_rad", tuple(np.linspace(0.0, 2.0 * math.pi, _GRID_2D))),
    )
    return [("", spec)]


def _delta_scan_at_ratio(w2_ratio: float):
    base = table_defaults()
    b = with_updates(
        base, omega_phi2=w2_ratio * base.omega_phi1, opa_gain=0.0
    )
    return [("", SweepSpec(b, _delta_axis()))]


# preset name -> variant builder, in listing order
_PRESETS = {
    "fig2a": _delta_scan_variants,
    "fig2b": _delta_scan_variants,
    "fig3": _fig3_variants,
    "fig4": _fig4_variants,
    "fig5": _delta_scan_variants,
    "fig6a": partial(_delta_scan_at_ratio, 0.5),
    "fig6b": partial(_delta_scan_at_ratio, 1.5),
    "fig7a": partial(_delta_scan_at_ratio, 0.9),
    "fig7b": partial(_delta_scan_at_ratio, 0.95),
    "fig7c": partial(_delta_scan_at_ratio, 1.05),
    "fig7d": partial(_delta_scan_at_ratio, 1.1),
    "fig8a": partial(_fig8_variants, 0.5, 0.0),
    "fig8b": partial(_fig8_variants, 0.5, 0.5 * math.pi),
    "fig8c": partial(_fig8_variants, 0.5, math.pi),
    "fig8d": partial(_fig8_variants, 0.5, 1.5 * math.pi),
    "fig8e": partial(_fig8_variants, 1.5, 0.0),
    "fig8f": partial(_fig8_variants, 1.5, 0.5 * math.pi),
    "fig8g": partial(_fig8_variants, 1.5, math.pi),
    "fig8h": partial(_fig8_variants, 1.5, 1.5 * math.pi),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_variants(name: str):
    """All (suffix, SweepSpec) pairs a preset expands to.

    Detuning-scan presets carry an unpumped variant plus four pumped
    phases; the temperature preset carries unpumped and best-phase
    pumped variants; the rest are single grids (empty suffix).
    """
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return _PRESETS[name]()
