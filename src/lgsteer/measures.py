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
from dataclasses import dataclass

import numpy as np

from .errors import (
    LgsteerError,
    MonogamyViolation,
    NonPhysicalInput,
    NonPositiveDeterminant,
)
from .gaussian import (
    CovarianceMatrix,
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


def log_negativity(cm: CovarianceMatrix, single: str | None = None) -> float:
    """Logarithmic negativity across the ``single | rest`` cut.

    ``EN = max(0, -ln(2 nu))`` with ``nu`` the smallest symplectic
    eigenvalue of the state partially transposed on ``single`` (see
    :func:`lgsteer.gaussian.min_pt_symplectic`); a two-mode state may
    omit ``single``.
    """
    nu = min_pt_symplectic(cm, single)
    if nu <= 0.0:
        raise NonPhysicalInput(f"partial-transpose eigenvalue {nu} is not positive")
    return max(0.0, -math.log(2.0 * nu))


def residual_contangle_min(cm: CovarianceMatrix, pair_en=None) -> float:
    """Minimum residual contangle over the three one-vs-two splits.

    For each focus mode ``f`` the residual is
    ``EN(f|jk)^2 - EN(f|j)^2 - EN(f|k)^2`` using squared logarithmic
    negativities; monogamy requires each residual to be non-negative.
    Residuals below ``-1e-6`` raise :class:`MonogamyViolation`; small
    negative rounding noise is clamped to zero.  Returns the smallest
    residual.

    ``pair_en`` maps ``frozenset({j, k})`` to ``EN(j|k)`` for each pair
    of modes, when the caller has them already; by default they are
    computed here.
    """
    if cm.n_modes != 3:
        raise NonPhysicalInput(
            f"residual_contangle_min needs a three-mode state, got {cm.n_modes}"
        )
    labels = cm.mode_labels
    if pair_en is None:
        pair_en = {
            frozenset(pair): log_negativity(reduce(cm, pair))
            for pair in itertools.combinations(labels, 2)
        }
    residuals = []
    for focus in labels:
        others = [lab for lab in labels if lab != focus]
        e_all = log_negativity(cm, focus)
        e_pair = [pair_en[frozenset((focus, other))] for other in others]
        res = e_all**2 - e_pair[0] ** 2 - e_pair[1] ** 2
        if res < -_MONOGAMY_TOL:
            raise MonogamyViolation(
                f"residual contangle {res} for split {focus}|{others} "
                f"is below -{_MONOGAMY_TOL}"
            )
        residuals.append(max(0.0, res))
    return min(residuals)


def renyi2_entropy(cm: CovarianceMatrix) -> float:
    """Renyi-2 entropy ``S = 0.5 ln det(2 V)`` of a Gaussian state."""
    det = float(np.linalg.det(2.0 * cm.data))
    if det <= 0.0:
        raise NonPositiveDeterminant(
            f"det(2V) = {det} is not positive; state is unphysical"
        )
    return 0.5 * math.log(det)


def steering(cm: CovarianceMatrix, by: str) -> float:
    """Gaussian Renyi-2 steering of the other mode *by* mode ``by``.

    ``zeta = max(0, S(V_by) - S(V))`` with ``S`` the Renyi-2 entropy and
    ``V_by`` the reduced single-mode state (Kogias et al., PRL 114,
    060403, 2015).  Positive values certify that ``by`` can steer the
    other mode.
    """
    if cm.n_modes != 2:
        raise NonPhysicalInput(
            f"steering needs a two-mode state, got {cm.n_modes} modes"
        )
    s_local = renyi2_entropy(reduce(cm, (by,)))
    s_global = renyi2_entropy(cm)
    return max(0.0, s_local - s_global)


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
        measures = (
            self.en_mm,
            self.en_m1c,
            self.en_m2c,
            self.zeta_m1_m2,
            self.zeta_m2_m1,
            self.zeta_asym,
            self.steering_class,
            self.r_min,
        )
        if not self.stable:
            if any(m is not None for m in measures):
                raise NonPhysicalInput(
                    "unstable report must not carry measure values"
                )
            return
        if any(m is None for m in measures):
            raise NonPhysicalInput("stable report is missing measure values")
        if abs(self.zeta_asym - steering_asymmetry(self.zeta_m1_m2, self.zeta_m2_m1)) > 0.0:
            raise NonPhysicalInput("steering asymmetry does not match ζ values")
        if (
            max(self.zeta_m1_m2, self.zeta_m2_m1) > _HIERARCHY_TOL
            and self.en_mm <= _HIERARCHY_TOL
        ):
            raise NonPhysicalInput(
                f"steering {max(self.zeta_m1_m2, self.zeta_m2_m1)} without "
                f"entanglement {self.en_mm}: hierarchy violated"
            )


def full_report(model: LinearModel) -> CorrelationReport:
    """Compute every correlation measure for one linearized model.

    Solves the steady state once and evaluates the mirror-mirror and
    mirror-cavity entanglement, the three-way residual contangle, and
    the two steering directions with their classification.  Each of the
    three pair spectra is computed once and shared with the residual
    contangle.  Solver errors are re-raised tagged with the detuning of
    the failing point.

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
        mm = reduce(cm, ("mirror1", "mirror2"))
        en_mm = log_negativity(mm)
        en_m1c = log_negativity(reduce(cm, ("mirror1", "cavity")))
        en_m2c = log_negativity(reduce(cm, ("mirror2", "cavity")))
        zeta_m1_m2 = steering(mm, "mirror1")
        zeta_m2_m1 = steering(mm, "mirror2")
        r_min = residual_contangle_min(
            cm,
            {
                frozenset(("mirror1", "mirror2")): en_mm,
                frozenset(("mirror1", "cavity")): en_m1c,
                frozenset(("mirror2", "cavity")): en_m2c,
            },
        )
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
