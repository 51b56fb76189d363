"""Entanglement and steering measures on Gaussian states.

All measures act on covariance matrices in the vacuum-variance-1/2
convention.  Entanglement is the logarithmic negativity, from the
smallest symplectic eigenvalue of a partially transposed state (the
two-mode pair, or the full three-mode state for a one-versus-two
split); steering uses the Renyi-2 entropy criterion.
:func:`_report_columns` bundles everything for a block of linearized
models: it goes on with the rows of one batched solve, computes each
measure of its stable rows 64 at a time, from one stacked spectrum per
kind of cut, and writes the reports into the caller's columns.  The
one-state functions and :func:`full_report` are one-row cases of the
same array code.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import LgsteerError, NonPhysicalInput, NonPositiveDeterminant, UnknownMode
from .gaussian import (
    _CHUNK_ROWS,
    _EPS,
    MODE_ORDER,
    CovarianceMatrix,
    _pt_stack,
    _solve,
    _spectra,
    _stack,
)
from .model import LinearModel

# ζ below this is treated as exactly zero when classifying directions
_CLASS_TOL = 1e-12
# monogamy residual may dip this far below zero from rounding
_MONOGAMY_TOL = 1e-6
# ζ > 0 must come with EN > 0 at this resolution
_HIERARCHY_TOL = 1e-10


def _en(nu: np.ndarray, nu_max: np.ndarray) -> np.ndarray:
    """``EN = max(0, -ln(2 nu))`` of each cut, from the ends of its partial-transpose spectrum.

    ``nu`` and ``nu_max`` are each cut's smallest and largest symplectic
    eigenvalue.  A spectrum is accurate to about ``eps nu_max`` absolute,
    so a ``nu`` within that of 1/2 is not resolved below 1/2: its EN is 0.
    Each log is :func:`math.log`, which NumPy's ``log`` need not match.
    """
    if (nu <= 0.0).any():
        raise NonPhysicalInput(f"partial-transpose eigenvalue {nu[nu <= 0.0][0]} is not positive")
    en = np.zeros(nu.shape)
    logged = ~(nu >= 0.5 - _EPS * nu_max)
    en[logged] = [-math.log(x) for x in (2.0 * nu[logged]).tolist()]
    return en


def log_negativity(cm: CovarianceMatrix, single: str | None = None) -> float:
    """Logarithmic negativity across the ``single | rest`` cut.

    ``EN = max(0, -ln(2 nu))`` with ``nu`` the smallest symplectic
    eigenvalue of the state partially transposed on ``single`` (see
    :func:`lgsteer.gaussian.min_pt_symplectic`), and 0 where ``nu`` is
    within the spectrum's accuracy of 1/2 (see :func:`_en`); a two-mode
    state may omit ``single``.
    """
    nus = _spectra(_pt_stack(cm, single))
    return float(_en(nus[:, 0], nus[:, -1])[0])


def _cuts(labels: tuple[str, ...], splits: bool = False) -> tuple:
    """Each pair of three modes, in ``combinations`` order, transposed on its second
    mode; with ``splits``, each ``mode | rest`` cut instead."""
    if splits:
        return tuple((labels, focus) for focus in labels)
    return tuple((pair, pair[1]) for pair in itertools.combinations(labels, 2))


def _pt_en(data: np.ndarray, labels: tuple[str, ...], cuts: tuple) -> np.ndarray:
    """EN of each of the ``cuts`` (see :func:`_cuts`) of a (K, 6, 6) stack of states, as
    (K, cuts).

    The cuts, all of one size, are one stacked spectrum, and
    :func:`_en` is elementwise, so a row's values do not depend on the
    stack or on the other cuts.
    """
    k, m, n = len(data), len(cuts), 2 * len(cuts[0][0])
    nus = _spectra(_stack(data, labels, cuts).reshape(m * k, n, n))
    return _en(nus[:, 0].reshape(k, m), nus[:, -1].reshape(k, m))


# the two pairs, in combinations order, that hold each focus mode
_HELD = np.array([[0, 1], [0, 2], [1, 2]])


def _residual_min(pairs: np.ndarray, splits: np.ndarray) -> np.ndarray:
    """:func:`residual_contangle_min` of each row of the pair and split EN of :func:`_pt_en`.

    Each square is libm ``pow``, as Python's ``x**2``: ``x * x`` rounds
    differently on about 0.1 % of doubles, which would move R_min.
    """
    sq = np.float_power(np.concatenate((pairs, splits), axis=1), 2.0)
    res = sq[:, 3:] - sq[:, _HELD[:, 0]] - sq[:, _HELD[:, 1]]
    return np.where((res < -_MONOGAMY_TOL) | (res > 0.0), res, 0.0).min(axis=1)


def residual_contangle_min(cm: CovarianceMatrix) -> float:
    """Minimum residual contangle over the three one-vs-two splits.

    For each focus mode ``f`` the residual is
    ``EN(f|jk)^2 - EN(f|j)^2 - EN(f|k)^2`` using squared logarithmic
    negativities.  That inequality is proven for the Gaussian contangle
    (Adesso & Illuminati, NJP 8, 15, 2006), not for squared
    negativities of mixed states, so a negative residual is a result,
    not an error: residuals below ``-1e-6`` are returned as they are and
    small negative rounding noise is clamped to zero.  Returns the
    smallest residual.
    """
    if cm.n_modes != 3:
        raise NonPhysicalInput(
            f"residual_contangle_min needs a three-mode state, got {cm.n_modes}"
        )
    labels = cm.mode_labels
    en = (_pt_en(cm.data[None], labels, _cuts(labels, splits)) for splits in (False, True))
    return float(_residual_min(*en)[0])


def _renyi2(dets: np.ndarray) -> np.ndarray:
    """Renyi-2 entropies ``S = 0.5 ln det(2 V)`` from the determinants det(2 V)."""
    flat = dets.ravel().tolist()
    if flat and min(flat) <= 0.0:
        raise NonPositiveDeterminant(
            f"det(2V) = {min(flat)} is not positive; state is unphysical"
        )
    return 0.5 * np.array([math.log(det) for det in flat]).reshape(dets.shape)


def renyi2_entropy(cm: CovarianceMatrix) -> float:
    """Renyi-2 entropy ``S = 0.5 ln det(2 V)`` of a Gaussian state."""
    return float(_renyi2(np.linalg.det(2.0 * cm.data[None]))[0])


def _zetas(pair_dets: np.ndarray, single_dets: np.ndarray) -> np.ndarray:
    """Steering by each mode of each pair, from det(2 V) of pairs (K,) and their modes (K, 2)."""
    s = _renyi2(np.concatenate([pair_dets[:, None], single_dets], axis=1))
    gain = s[:, 1:] - s[:, :1]
    return np.where(gain > 0.0, gain, 0.0)


def _singles(labels: tuple[str, ...]) -> tuple:
    return tuple(((label,), None) for label in labels)


def steering(cm: CovarianceMatrix, by: str) -> float:
    """Gaussian Renyi-2 steering of the other mode *by* mode ``by``.

    ``zeta = max(0, S(V_by) - S(V))`` with ``S`` the Renyi-2 entropy and
    ``V_by`` the reduced single-mode state (Kogias et al., PRL 114,
    060403, 2015).  Positive values certify that ``by`` can steer the
    other mode.
    """
    if cm.n_modes != 2:
        raise NonPhysicalInput(f"steering needs a two-mode state, got {cm.n_modes} modes")
    if by not in cm.mode_labels:
        raise UnknownMode(f"mode {by!r} not in {cm.mode_labels}")
    singles = _stack(2.0 * cm.data[None], cm.mode_labels, _singles(cm.mode_labels))
    zetas = _zetas(np.linalg.det(2.0 * cm.data[None]), np.linalg.det(singles))[0].tolist()
    return zetas[cm.mode_labels.index(by)]


def steering_asymmetry(zeta_ab: float, zeta_ba: float) -> float:
    """Absolute difference of the two steering directions."""
    return abs(zeta_ab - zeta_ba)


class SteeringClass(enum.Enum):
    """Directional classification of two-mode Gaussian steering."""

    NO_WAY = "no_way"
    ONE_WAY_ALPHA_TO_BETA = "one_way_alpha_to_beta"
    ONE_WAY_BETA_TO_ALPHA = "one_way_beta_to_alpha"
    TWO_WAY = "two_way"


# the classes in code order: no-way, α to β, β to α, then two-way
_CLASSES = tuple(SteeringClass)


def _class_codes(zetas: np.ndarray) -> np.ndarray:
    """The :class:`SteeringClass` code (its index in ``_CLASSES``) of each row of (K, 2) ζ,
    α steering β first; a ζ below ``1e-12`` counts as zero so that floating-point dust
    cannot flip the class."""
    steers = zetas > _CLASS_TOL
    return (steers[:, 0] + 2 * steers[:, 1]).astype(np.int8)


def _check_hierarchy(zeta_ab, zeta_ba, en_mm) -> None:
    """Raise :class:`NonPhysicalInput` for the first row whose steering comes without
    entanglement: the larger ζ above 1e-10 with EN_mm at most 1e-10; floats or arrays."""
    zeta = np.maximum(zeta_ab, zeta_ba)
    breach = (zeta > _HIERARCHY_TOL) & (en_mm <= _HIERARCHY_TOL)
    if breach.any():
        k = np.argmax(breach)
        zeta, en_mm = np.ravel(zeta)[k], np.ravel(en_mm)[k]
        raise NonPhysicalInput(f"steering {zeta} without entanglement {en_mm}: hierarchy violated")


@dataclass(frozen=True)
class CorrelationReport:
    """All steady-state correlation measures at one parameter point.

    When the drift is not strictly stable the measures are ``None``
    (never zero-filled): only the margin and the flag are meaningful.
    For the steering fields α is mirror 1 and β is mirror 2, so
    ``zeta_m1_m2`` is mirror 1 steering mirror 2.
    """

    stable: bool
    stability_margin: float
    en_mm: float | None = None
    en_m1c: float | None = None
    en_m2c: float | None = None
    zeta_m1_m2: float | None = None
    zeta_m2_m1: float | None = None
    zeta_asym: float | None = None
    steering_class: SteeringClass | None = None
    r_min: float | None = None

    def __post_init__(self) -> None:
        missing = [getattr(self, name) for name in _MEASURE_FIELDS].count(None)
        if not self.stable:
            if missing < len(_MEASURE_FIELDS):
                raise NonPhysicalInput("unstable report must not carry measure values")
            return
        if missing:
            raise NonPhysicalInput("stable report is missing measure values")
        if abs(self.zeta_asym - steering_asymmetry(self.zeta_m1_m2, self.zeta_m2_m1)) > 0.0:
            raise NonPhysicalInput("steering asymmetry does not match ζ values")
        _check_hierarchy(self.zeta_m1_m2, self.zeta_m2_m1, self.en_mm)


# every field after the stability margin is a measure: the one statement of their row order
_MEASURE_FIELDS = tuple(f.name for f in fields(CorrelationReport))[2:]
_CLASS_AT = _MEASURE_FIELDS.index("steering_class")
# every measure but the class is a float: the columns of ``_Columns.values``
_FLOATS = _MEASURE_FIELDS[:_CLASS_AT] + _MEASURE_FIELDS[_CLASS_AT + 1 :]
_MIRRORS = (("mirror1", "mirror2"), None)
_SINGLES = _singles(_MIRRORS[0])
# mirror-mirror, mirror 1-cavity, mirror 2-cavity; then each mode | rest
_PAIR_CUTS, _SPLIT_CUTS = _cuts(MODE_ORDER), _cuts(MODE_ORDER, splits=True)


def _tagged(exc: LgsteerError, ratio: float) -> LgsteerError:
    """``exc`` re-issued with the detuning ratio of the point that raised it."""
    tagged = type(exc)(f"at detuning_ratio={ratio:g}: {exc}")
    tagged.__cause__ = exc
    return tagged


def _pairs(v: np.ndarray, pairs: int = 3) -> tuple:
    """Stage: the EN (K, pairs) of the first ``pairs`` pairs and the steering ζ (K, 2) of a
    (K, 6, 6) stack of states.

    The pairs are mirror-mirror, mirror 1-cavity and mirror 2-cavity, and
    ζ is mirror 1 steering mirror 2, then the reverse.  The first half of
    :func:`_reports`; the optimum search takes only the pairs it reads.
    A measure that fails raises, and so does a row that breaks the
    steering-entanglement hierarchy (see :func:`_check_hierarchy`).
    """
    en = _pt_en(v, MODE_ORDER, _PAIR_CUTS[:pairs])
    two_v = 2.0 * v
    zetas = _zetas(np.linalg.det(_stack(two_v, MODE_ORDER, (_MIRRORS,))[:, 0]),
                   np.linalg.det(_stack(two_v, MODE_ORDER, _SINGLES)))
    _check_hierarchy(zetas[:, 0], zetas[:, 1], en[:, 0])
    return en, zetas


def _reports(v: np.ndarray) -> tuple:
    """Stage of :func:`_report_columns`: the measures of a (K, 6, 6) stack of stable states.

    :func:`_pairs`, then the one-vs-two splits, R_min and the classes, each
    measure for all rows at once.  Returns the rows' ``_Columns.values``,
    one column per name in ``_FLOATS``, and class codes (K,).  A measure
    that fails raises.
    """
    pairs, zetas = _pairs(v)
    asym = steering_asymmetry(zetas[:, 0], zetas[:, 1])
    r_min = _residual_min(pairs, _pt_en(v, MODE_ORDER, _SPLIT_CUTS))
    values = np.concatenate((pairs, zetas, asym[:, None], r_min[:, None]), axis=1)
    return values, _class_codes(zetas)


class _Columns(NamedTuple):
    """The reports of N rows as arrays, one entry per row.

    ``values`` holds each stable row's float measures, one column per
    name in ``_FLOATS``, and ``classes`` its steering-class code (an
    index into ``_CLASSES``); both are filler on the other rows.  The
    margin is NaN where a row failed before its margin was taken.  A row
    with an error is not stable; the errors are kept beside the columns.
    """

    stable: np.ndarray
    margin: np.ndarray
    values: np.ndarray
    classes: np.ndarray

    @classmethod
    def of(cls, n: int) -> _Columns:
        """Columns of ``n`` rows with NaN margins and no stable row."""
        values = np.full((n, len(_FLOATS)), np.nan)
        return cls(np.zeros(n, dtype=bool), np.full(n, np.nan), values, np.zeros(n, dtype=np.int8))

    def report(self, k: int) -> CorrelationReport:
        """The :class:`CorrelationReport` of row ``k``, which must not be an error row."""
        margin = float(self.margin[k])
        if not self.stable[k]:
            return CorrelationReport(False, margin)
        measures = self.values[k].tolist()
        measures.insert(_CLASS_AT, _CLASSES[self.classes[k]])
        return CorrelationReport(True, margin, *measures)


def _solve_models(models: LinearModel, stage) -> tuple:
    """The batched solve of a block of models, then ``stage`` on its stable rows, as
    ``(rows, margins, out)``, with one row per row of its (N, 6, 6) stacks.

    ``rows`` and ``margins`` are those of :func:`lgsteer.gaussian._solve`;
    ``stage`` runs on the covariances of 64 live rows at a time, which
    bounds its working arrays, and drops each row it fails (see
    :meth:`lgsteer.gaussian._Rows.run`).  ``out`` is the tuple of stacks
    it returns for the rows still live, or None when no row is stable.

    At the OPA threshold the drift is not finite; the zero matrix stands
    in for it, with the margin 0 reported there (see :func:`full_report`).
    """
    n = math.prod(models.derived.shape)
    drifts = np.reshape(models.drift, (n, 6, 6))
    threshold = abs(models.steady.a0) == math.inf
    if np.any(threshold):
        drifts = np.where(np.reshape(threshold, (-1, 1, 1)), 0.0, drifts)
    rows, margins, v = _solve(drifts, np.reshape(models.diffusion, (n, 6, 6)))
    return rows, margins, (rows.run(stage, v, chunk=_CHUNK_ROWS) if len(v) else None)


def _report_columns(models: LinearModel, table: _Columns, at: np.ndarray) -> dict:
    """Write the reports of a block of models into rows ``at`` of ``table``, and return
    ``{row of the block: its LgsteerError}``.

    ``table`` is fresh at those rows (see :meth:`_Columns.of`): each
    gets its margin, and each stable row its flag, values and class code.
    The measures (:func:`_reports`) go on with the rows of the batched
    solve (:func:`_solve_models`), so one error list covers both.  Each
    error, from the solve or the measures (a steering-entanglement
    hierarchy breach among them), is tagged with its row's detuning; its
    row stays not stable.
    """
    rows, margins, out = _solve_models(models, _reports)
    table.margin[at] = margins
    if out is not None:
        live = at[rows.live]
        table.stable[live], table.values[live], table.classes[live] = True, *out
    failed = [k for k, exc in enumerate(rows.errors) if exc is not None]
    if not failed:
        return {}
    derived = models.derived
    ratio = np.broadcast_to(derived.value("detuning") / derived.value("omega_phi1"), len(margins))
    return {k: _tagged(rows.errors[k], float(ratio[k])) for k in failed}


def full_report(model: LinearModel) -> CorrelationReport:
    """Compute every correlation measure for one linearized model.

    Solves the steady state once and evaluates the mirror-mirror and
    mirror-cavity entanglement, the three-way residual contangle, and
    the two steering directions with their classification, as the
    one-row case of the block stage that sweeps run
    (:func:`_report_columns`).  Solver and measure errors, a breach of
    the steering-entanglement hierarchy among them, are raised tagged
    with the detuning of the failing point.

    At the OPA threshold the mean field diverges and there is no working
    point to linearize about.  The cavity block there has determinant
    kappa^2 + Delta^2 - 4 chi^2 = 0 and trace -2 kappa, so its spectrum
    is {0, -2 kappa}: the point is reported as not stable with margin 0.
    """
    table = _Columns.of(1)
    errors = _report_columns(model, table, np.arange(1))
    if errors:
        raise errors[0]
    return table.report(0)
