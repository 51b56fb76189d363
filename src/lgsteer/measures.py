"""Entanglement and steering measures on Gaussian states.

All measures act on covariance matrices in the vacuum-variance-1/2
convention.  Entanglement is the logarithmic negativity, from the
smallest symplectic eigenvalue of a partially transposed state (the
two-mode pair, or the full three-mode state for a one-versus-two
split); steering uses the Renyi-2 entropy criterion.
:func:`full_reports` bundles everything for a block of linearized
models: it goes on with the rows of one batched solve, and takes each
pair and each one-versus-two spectrum of every stable row from one
stacked call per kind.  :func:`full_report` is its one-model case.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import LgsteerError, NonPhysicalInput, NonPositiveDeterminant, UnknownMode
from .gaussian import MODE_ORDER, CovarianceMatrix, _pt_stack, _solve, _spectra, _stack
from .model import LinearModel

# ζ below this is treated as exactly zero when classifying directions
_CLASS_TOL = 1e-12
# monogamy residual may dip this far below zero from rounding
_MONOGAMY_TOL = 1e-6
# ζ > 0 must come with EN > 0 at this resolution
_HIERARCHY_TOL = 1e-10
# a symplectic spectrum is accurate to this times its largest value
_EPS = float(np.finfo(float).eps)


def _en(nu: float, nu_max: float) -> float:
    """``EN = max(0, -ln(2 nu))`` from the ends of a partial-transpose spectrum.

    ``nu`` and ``nu_max`` are the smallest and the largest symplectic
    eigenvalue of one partially transposed state.  The spectrum is
    accurate to about ``eps nu_max`` absolute, so a ``nu`` within that of
    1/2 is not resolved below 1/2, and its EN is 0.
    """
    if nu <= 0.0:
        raise NonPhysicalInput(f"partial-transpose eigenvalue {nu} is not positive")
    return 0.0 if nu >= 0.5 - _EPS * nu_max else -math.log(2.0 * nu)


def log_negativity(cm: CovarianceMatrix, single: str | None = None) -> float:
    """Logarithmic negativity across the ``single | rest`` cut.

    ``EN = max(0, -ln(2 nu))`` with ``nu`` the smallest symplectic
    eigenvalue of the state partially transposed on ``single`` (see
    :func:`lgsteer.gaussian.min_pt_symplectic`), and 0 where ``nu`` is
    within the spectrum's accuracy of 1/2 (see :func:`_en`); a two-mode
    state may omit ``single``.
    """
    return _en(*_spectra(_pt_stack(cm, single))[0, [0, -1]].tolist())


def _pt_nus(data: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """Smallest and largest partial-transpose symplectic eigenvalue of each cut.

    For a (K, 6, 6) stack of three-mode states returns (K, 6, 2): the
    pairs in ``combinations`` order, then each ``mode | rest`` split,
    each as the ``(nu, nu_max)`` that :func:`_en` takes.  The pairs and
    the splits are one stacked spectrum each.
    """
    pairs = tuple((pair, pair[1]) for pair in itertools.combinations(labels, 2))
    cuts = tuple((labels, focus) for focus in labels)
    k = len(data)
    return np.concatenate(
        [_spectra(_stack(data, labels, c).reshape(3 * k, n, n))[:, [0, -1]].reshape(k, 3, 2)
         for c, n in ((pairs, 4), (cuts, 6))],
        axis=1,
    )


def _negativities(nus: list) -> tuple[list[float], list[float]]:
    """EN of each pair and each ``mode | rest`` cut, from one row of :func:`_pt_nus`."""
    return [_en(*nu) for nu in nus[:3]], [_en(*nu) for nu in nus[3:]]


def _residual_min(pair_en: list[float], cut_en: list[float]) -> float:
    """:func:`residual_contangle_min` from the output of :func:`_negativities`."""
    pairs = list(itertools.combinations(range(3), 2))
    residuals = []
    for focus, e_all in enumerate(cut_en):
        e_j, e_k = (e for pair, e in zip(pairs, pair_en) if focus in pair)
        res = e_all**2 - e_j**2 - e_k**2
        residuals.append(res if res < -_MONOGAMY_TOL else max(0.0, res))
    return min(residuals)


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
    return _residual_min(*_negativities(_pt_nus(cm.data[None], cm.mode_labels)[0].tolist()))


def _renyi2(dets: list[float]) -> list[float]:
    """Renyi-2 entropies ``S = 0.5 ln det(2 V)`` from the determinants det(2 V)."""
    if min(dets) <= 0.0:
        raise NonPositiveDeterminant(
            f"det(2V) = {min(dets)} is not positive; state is unphysical"
        )
    return [0.5 * math.log(det) for det in dets]


def _dets(stack: np.ndarray) -> list:
    """det(2 V) of each matrix of a stack, as nested lists."""
    return np.linalg.det(2.0 * stack).tolist()


def renyi2_entropy(cm: CovarianceMatrix) -> float:
    """Renyi-2 entropy ``S = 0.5 ln det(2 V)`` of a Gaussian state."""
    return _renyi2(_dets(cm.data[None]))[0]


def _zetas(pair_det: float, single_dets: list[float]) -> list[float]:
    """Steering by each mode of a pair, from det(2 V) of the pair and of each mode."""
    s_pair = _renyi2([pair_det])[0]
    return [max(0.0, s - s_pair) for s in _renyi2(single_dets)]


def _singles(labels: tuple[str, ...]) -> tuple:
    return tuple(((label,), None) for label in labels)


def _steerings(cm: CovarianceMatrix) -> list[float]:
    """Steering by each mode of a two-mode state, in label order."""
    if cm.n_modes != 2:
        raise NonPhysicalInput(f"steering needs a two-mode state, got {cm.n_modes} modes")
    singles = _stack(cm.data, cm.mode_labels, _singles(cm.mode_labels))
    return _zetas(_dets(cm.data[None])[0], _dets(singles))


def steering(cm: CovarianceMatrix, by: str) -> float:
    """Gaussian Renyi-2 steering of the other mode *by* mode ``by``.

    ``zeta = max(0, S(V_by) - S(V))`` with ``S`` the Renyi-2 entropy and
    ``V_by`` the reduced single-mode state (Kogias et al., PRL 114,
    060403, 2015).  Positive values certify that ``by`` can steer the
    other mode.
    """
    zetas = _steerings(cm)
    if by not in cm.mode_labels:
        raise UnknownMode(f"mode {by!r} not in {cm.mode_labels}")
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


def classify(zeta_ab: float, zeta_ba: float) -> SteeringClass:
    """Classify steering directionality from the two ζ values.

    Values below ``1e-12`` count as zero so that floating-point dust
    cannot flip the class.  ``zeta_ab`` is α steering β.
    """
    ab = zeta_ab > _CLASS_TOL
    ba = zeta_ba > _CLASS_TOL
    if ab and ba:
        return SteeringClass.TWO_WAY
    if ab:
        return SteeringClass.ONE_WAY_ALPHA_TO_BETA
    if ba:
        return SteeringClass.ONE_WAY_BETA_TO_ALPHA
    return SteeringClass.NO_WAY


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
        # every field after the stability margin is a measure
        present = [getattr(self, f.name) is not None for f in fields(self)[2:]]
        if not self.stable:
            if any(present):
                raise NonPhysicalInput("unstable report must not carry measure values")
            return
        if not all(present):
            raise NonPhysicalInput("stable report is missing measure values")
        if abs(self.zeta_asym - steering_asymmetry(self.zeta_m1_m2, self.zeta_m2_m1)) > 0.0:
            raise NonPhysicalInput("steering asymmetry does not match ζ values")
        zeta = max(self.zeta_m1_m2, self.zeta_m2_m1)
        if zeta > _HIERARCHY_TOL and self.en_mm <= _HIERARCHY_TOL:
            raise NonPhysicalInput(
                f"steering {zeta} without entanglement {self.en_mm}: hierarchy violated"
            )


_MIRRORS = (("mirror1", "mirror2"), None)


def _tagged(exc: LgsteerError, ratio: float) -> LgsteerError:
    """``exc`` re-issued with the detuning ratio of the point that raised it."""
    tagged = type(exc)(f"at detuning_ratio={ratio:g}: {exc}")
    tagged.__cause__ = exc
    return tagged


def _report(margin: float, nus: list, pair_det: float, single_dets: list):
    """The report of one stable row from its spectra and determinants.

    A measure that fails raises; the error of a report that breaks the
    steering-entanglement hierarchy is returned in its place, untagged.
    """
    pair_en, cut_en = _negativities(nus)
    zeta_m1_m2, zeta_m2_m1 = _zetas(pair_det, single_dets)
    try:
        return CorrelationReport(
            stable=True,
            stability_margin=margin,
            en_mm=pair_en[0],
            en_m1c=pair_en[1],
            en_m2c=pair_en[2],
            zeta_m1_m2=zeta_m1_m2,
            zeta_m2_m1=zeta_m2_m1,
            zeta_asym=steering_asymmetry(zeta_m1_m2, zeta_m2_m1),
            steering_class=classify(zeta_m1_m2, zeta_m2_m1),
            r_min=_residual_min(pair_en, cut_en),
        )
    except LgsteerError as exc:
        return exc


def _reports(margins: np.ndarray, v: np.ndarray) -> tuple:
    """Stage of :func:`full_reports`: :func:`_report` of each stable row."""
    nus = _pt_nus(v, MODE_ORDER).tolist()
    pair_dets = _dets(_stack(v, MODE_ORDER, (_MIRRORS,))[:, 0])
    single_dets = _dets(_stack(v, MODE_ORDER, _singles(_MIRRORS[0])))
    return ([_report(*row) for row in zip(margins.tolist(), nus, pair_dets, single_dets)],)


def full_reports(models: LinearModel) -> list:
    """:func:`full_report` of each row of a block of models, as one batch.

    Returns one entry per row of the (N, 6, 6) stacks of ``models`` (see
    :func:`lgsteer.model.build_model`), in order: its :class:`CorrelationReport`,
    or the :class:`~lgsteer.errors.LgsteerError` that :func:`full_report`
    would raise for it alone.  A failing row never fails the batch.  The
    measures go on with the rows of the batched solve, so one error list
    covers both: the three pair and three one-vs-two spectra of all stable
    rows are one stacked ``eigvalsh`` each, and the steering determinants
    one stacked ``det`` per size.  Callers bound memory by passing blocks.
    """
    derived = models.derived
    n = math.prod(derived.shape)
    drifts = np.reshape(models.drift, (n, 6, 6))
    # at the OPA threshold the drift is not finite; the zero matrix stands
    # in for it, with the margin 0 reported there (see full_report)
    threshold = abs(models.steady.a0) == math.inf
    if np.any(threshold):
        drifts = np.where(np.reshape(threshold, (-1, 1, 1)), 0.0, drifts)
    rows, margins, v = _solve(drifts, np.reshape(models.diffusion, (n, 6, 6)))
    out: list = [None] * n
    if len(v):
        (reports,) = rows.run(_reports, margins[rows.live], v)
        for k, report in zip(rows.live.tolist(), reports):
            out[k] = report
    for k, (exc, margin) in enumerate(zip(rows.errors, margins.tolist())):
        if exc is not None:
            ratio = derived.value("detuning") / derived.value("omega_phi1")
            out[k] = _tagged(exc, float(np.broadcast_to(ratio, n)[k]))
        elif out[k] is None:
            out[k] = CorrelationReport(stable=False, stability_margin=margin)
    return out


def full_report(model: LinearModel) -> CorrelationReport:
    """Compute every correlation measure for one linearized model.

    Solves the steady state once and evaluates the mirror-mirror and
    mirror-cavity entanglement, the three-way residual contangle, and
    the two steering directions with their classification, as the
    one-row case of :func:`full_reports`.  Solver and measure errors are
    raised tagged with the detuning of the failing point; a report that
    breaks the steering-entanglement hierarchy raises untagged.

    At the OPA threshold the mean field diverges and there is no working
    point to linearize about.  The cavity block there has determinant
    kappa^2 + Delta^2 - 4 chi^2 = 0 and trace -2 kappa, so its spectrum
    is {0, -2 kappa}: the point is reported as not stable with margin 0.
    """
    (report,) = full_reports(model)
    if isinstance(report, LgsteerError):
        raise report
    return report
