"""Shared fixtures: the published base parameters and frozen oracle values.

The REF_* constants were computed by an independent scratch pipeline
(straight formula arithmetic plus a dense reference Lyapunov solver)
and are frozen here as regression anchors.  Tests compare package
output against them at loose-enough tolerances to absorb the
difference between eigensolver implementations.
"""

import math

import numpy as np
import pytest

from lgsteer import CovarianceMatrix, SystemParams, with_updates
from lgsteer.config import to_si

W1 = 2.0 * math.pi * 1e7

# parameter-chain constants (independent arithmetic from the formulas)
REF_KAPPA = 94182578.36544266
REF_GAMMA_M = 3.141592653589793
REF_INERTIA = 1.75e-21
REF_OMEGA_L = 2325495762109695.5
REF_DRIVE_E = 6197113227263.442
REF_COTH_15MK = 62.51518980960723  # 2*nbar + 1 at 15 mK, 10 MHz
REF_NBAR_15MK = 30.757594904803614
REF_G1 = 928.4314101068904
REF_G2_AT_1P5 = 758.0610719781836
# |a0| at detuning -w1, gain 0.1*w1, phase pi/2.  Pumped values take theta
# relative to the intracavity field: a0 = E / (kappa + i*Delta - 2*chi*e^{i*theta})
REF_ABS_A0_PUMPED = 51366.45490034147
# |a0| and coupling ratios at detuning +w1, gain 0
REF_ABS_A0_BLUE = 54736.359894306945
REF_G1_RATIO_BLUE = 1.1438283769379431
REF_G2_RATIO_BLUE = 0.933931958937941

# stability margins (units of w1); the pumped red-detuned point is
# genuinely unstable at the published parameters
REF_MARGIN_BLUE = -0.09288068055269214
REF_MARGIN_RED = 0.09418571768552471
REF_MARGIN_PUMPED_RED_THETA0 = 0.11524520925348458
REF_MARGIN_PUMPED_BLUE_PI2 = -0.12196305284283271

# measures at the stable blue-detuned reference point
# (detuning +w1, gain 0, omega_phi2 = 1.5*w1)
REF_EN_M1C_BLUE = 0.022048302475564725
REF_RMIN_BLUE = 0.010608237995768465
# one-vs-two negativity for the cavity split at the pumped blue point
# (gain 0.1*w1, phase pi/2, detuning +w1, omega_phi2 = 1.5*w1)
REF_EN_CAV_SPLIT_PUMPED = 0.2573086370973463

# steady-state covariance entries at the blue reference point (drift and
# diffusion scaled by w1)
REF_V_BLUE = {
    (0, 0): 1.8443125997078713,
    (1, 1): 1.0617277701547825,
    (4, 4): 0.8481493602993808,
    (0, 4): -0.6841802890465841,
    (2, 5): 0.5582470458587098,
}
REF_NUS_BLUE = (0.5078848418129852, 0.9415501680999101, 1.4544662359920757)


def make_params(**overrides) -> SystemParams:
    base = dict(
        cavity_length=1e-3,
        mirror_mass=35e-12,
        mirror_radius=10e-6,
        omega_phi1=W1,
        omega_phi2=1.5 * W1,
        laser_power=50e-3,
        laser_wavelength=810e-9,
        quality_factor=2e7,
        finesse=5e3,
        oam_number=100,
        temperature=15e-3,
        opa_gain=0.0,
        opa_phase=0.0,
        detuning=-W1,
    )
    base.update(overrides)
    return SystemParams(**base)


def params_at(base: SystemParams, coords) -> SystemParams:
    """``base`` with every ``(axis name, value)`` of a grid point set, in SI:
    one grid point's parameters, for checks that rebuild a row alone."""
    return with_updates(base, **dict(to_si(n, v, base.omega_phi1) for n, v in coords))


def block(cm: CovarianceMatrix, modes) -> CovarianceMatrix:
    """The state of ``modes`` alone: their rows and columns of ``cm.data``."""
    idx = [2 * cm.mode_labels.index(m) + k for m in modes for k in (0, 1)]
    return CovarianceMatrix(cm.data[np.ix_(idx, idx)], tuple(modes))


def transposed(cm: CovarianceMatrix, mode: str) -> CovarianceMatrix:
    """``cm`` partially transposed on ``mode``: P V P, with P the identity but for -1 at
    that mode's momentum."""
    p = np.eye(2 * cm.n_modes)
    k = 2 * cm.mode_labels.index(mode) + 1
    p[k, k] = -1.0
    return CovarianceMatrix(p @ cm.data @ p, cm.mode_labels)


def counted_linalg(monkeypatch, name: str) -> list[int]:
    """The number of matrices each call of ``np.linalg.<name>`` gets, as a list that fills."""
    calls, fn = [], getattr(np.linalg, name)

    def counted(x):
        calls.append(len(x))
        return fn(x)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def params_factory():
    return make_params
