"""Entanglement and steering measures on Gaussian states.

All measures act on covariance matrices in the vacuum-variance-1/2
convention.  Entanglement is the logarithmic negativity, from the
smallest symplectic eigenvalue of a partially transposed state (the
two-mode pair, or the full three-mode state for a one-versus-two
split); steering uses the Renyi-2 entropy criterion.
:func:`full_report` bundles everything for a single linearized model
and computes each pair and each one-versus-two spectrum once.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import LgsteerError, NonPhysicalInput, NonPositiveDeterminant, UnknownMode
from .gaussian import (
    CovarianceMatrix,
    _spectra,
    _stack,
    min_pt_symplectic,
    reduce,
    steady_covariance,
)
from .model import LinearModel

# ζ below this is treated as exactly zero when classifying directions
_CLASS_TOL = 1e-12
# monogamy residual may dip this far below zero from rounding
_MONOGAMY_TOL = 1e-6
# ζ > 0 must come with EN > 0 at this resolution
_HIERARCHY_TOL = 1e-10


def _en(nu: float) -> float:
    """``EN = max(0, -ln(2 nu))`` from a partial-transpose eigenvalue."""
    if nu <= 0.0:
        raise NonPhysicalInput(f"partial-transpose eigenvalue {nu} is not positive")
    return max(0.0, -math.log(2.0 * nu))


def log_negativity(cm: CovarianceMatrix, single: str | None = None) -> float:
    """Logarithmic negativity across the ``single | rest`` cut.

    ``EN = max(0, -ln(2 nu))`` with ``nu`` the smallest symplectic
    eigenvalue of the state partially transposed on ``single`` (see
    :func:`lgsteer.gaussian.min_pt_symplectic`); a two-mode state may
    omit ``single``.
    """
    return _en(min_pt_symplectic(cm, single))


def _negativities(cm: CovarianceMatrix) -> tuple[list[float], list[float]]:
    """EN of each pair (``combinations`` order) and each ``mode | rest`` cut.

    Each of the two sets is one stacked spectrum.
    """
    if cm.n_modes != 3:
        raise NonPhysicalInput(
            f"residual_contangle_min needs a three-mode state, got {cm.n_modes}"
        )
    labels = cm.mode_labels
    pairs = tuple((pair, pair[1]) for pair in itertools.combinations(labels, 2))
    cuts = tuple((labels, focus) for focus in labels)
    nus = [_spectra(_stack(cm, c))[:, 0].tolist() for c in (pairs, cuts)]
    return tuple([_en(nu) for nu in row] for row in nus)


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
    return _residual_min(*_negativities(cm))


def _renyi2(stack: np.ndarray) -> list[float]:
    """Renyi-2 entropies ``S = 0.5 ln det(2 V)`` of a (k, 2n, 2n) stack."""
    dets = np.linalg.det(2.0 * stack).tolist()
    if min(dets) <= 0.0:
        raise NonPositiveDeterminant(
            f"det(2V) = {min(dets)} is not positive; state is unphysical"
        )
    return [0.5 * math.log(det) for det in dets]


def renyi2_entropy(cm: CovarianceMatrix) -> float:
    """Renyi-2 entropy ``S = 0.5 ln det(2 V)`` of a Gaussian state."""
    return _renyi2(cm.data[None])[0]


def _steerings(cm: CovarianceMatrix) -> list[float]:
    """Steering by each mode of a two-mode state, in label order."""
    if cm.n_modes != 2:
        raise NonPhysicalInput(f"steering needs a two-mode state, got {cm.n_modes} modes")
    s_global = renyi2_entropy(cm)
    singles = tuple(((label,), None) for label in cm.mode_labels)
    return [max(0.0, s - s_global) for s in _renyi2(_stack(cm, singles))]


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


def full_report(model: LinearModel) -> CorrelationReport:
    """Compute every correlation measure for one linearized model.

    Solves the steady state once and evaluates the mirror-mirror and
    mirror-cavity entanglement, the three-way residual contangle, and
    the two steering directions with their classification.  The three
    pair and three one-vs-two spectra come from two stacked calls and
    feed both the negativities and the residual contangle; S(m1m2) is
    computed once for both steering directions.  Solver errors are
    re-raised tagged with the detuning of the failing point.

    At the OPA threshold the mean field diverges and there is no working
    point to linearize about.  The cavity block there has determinant
    kappa^2 + Delta^2 - 4 chi^2 = 0 and trace -2 kappa, so its spectrum
    is {0, -2 kappa}: the point is reported as not stable with margin 0.
    """
    if math.isinf(abs(model.steady.a0)):
        return CorrelationReport(stable=False, stability_margin=0.0)
    try:
        margin, cm = steady_covariance(model.drift, model.diffusion)
        if cm is None:
            return CorrelationReport(stable=False, stability_margin=margin)
        pair_en, cut_en = _negativities(cm)
        en_mm, en_m1c, en_m2c = pair_en
        zeta_m1_m2, zeta_m2_m1 = _steerings(reduce(cm, ("mirror1", "mirror2")))
        r_min = _residual_min(pair_en, cut_en)
    except LgsteerError as exc:
        params = model.derived.params
        ratio = params.detuning / params.omega_phi1
        raise type(exc)(f"at detuning_ratio={ratio:g}: {exc}") from exc
    return CorrelationReport(
        stable=True,
        stability_margin=margin,
        en_mm=en_mm,
        en_m1c=en_m1c,
        en_m2c=en_m2c,
        zeta_m1_m2=zeta_m1_m2,
        zeta_m2_m1=zeta_m2_m1,
        zeta_asym=steering_asymmetry(zeta_m1_m2, zeta_m2_m1),
        steering_class=classify(zeta_m1_m2, zeta_m2_m1),
        r_min=r_min,
    )
