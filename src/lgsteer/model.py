"""Linearized model of a Laguerre-Gaussian cavity with two rotating mirrors.

The cavity supports a single LG mode with orbital angular momentum ``l``
driven by a laser of power ``P``; an intracavity parametric amplifier (gain
``chi``, pump phase ``theta``) squeezes the field.  Each mirror is a
torsional oscillator (angle, angular momentum) coupled to the field by the
radiation torque; reflection transfers ``2l*hbar`` per photon with opposite
sign at the two mirrors.

Linearizing the Langevin equations around the steady state gives

    d/dt u = A u + noise,        u = (d_phi1, d_Lz1, d_phi2, d_Lz2, dX, dY)

with a 6x6 drift matrix ``A`` and a diagonal diffusion matrix ``D`` that
together fix the steady-state covariance through ``A V + V A^T = -D``.
Both come from the Hamiltonian matrix H (:func:`hamiltonian`) and a bath
table: A = Omega H - diag(Gamma) and D = diag(Gamma (2 N + 1)).  This
module builds ``A`` and ``D`` in SI units (rad/s); everything downstream
works with the dimensionless ratios.

One path builds one model or a block of them: given arrays of the fields
that vary, every step broadcasts over the block's rows, and A and D are
(N, 6, 6) stacks whose rows equal the one-model build bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import CLIGHT, HBAR, KBOLTZ
from .errors import NonPositiveParameter
from .gaussian import symplectic_form

# SystemParams field -> its rule in ``_RULES`` (``kappa_override`` may also
# be None); the run-file checks in :mod:`lgsteer.config` read it too
FIELD_RULES = {
    "cavity_length": "pos",
    "mirror_mass": "pos",
    "mirror_radius": "pos",
    "omega_phi1": "pos",
    "omega_phi2": "pos",
    "laser_power": "pos",
    "laser_wavelength": "pos",
    "quality_factor": "pos",
    "finesse": "pos",
    "oam_number": "posint",
    "temperature": "nonneg",
    "opa_gain": "nonneg",
    "opa_phase": "any",
    "detuning": "any",
    "kappa_override": "pos",
}
_REAL_TYPES = (int, float, np.integer, np.floating)
# rule -> (what a value must be, where a finite value obeys it); each test
# takes a float or a float array.  Every rule wants a finite number too.
_RULES = {
    "pos": ("positive", lambda x: x > 0.0),
    "nonneg": ("non-negative", lambda x: x >= 0.0),
    "posint": ("a positive integer", lambda x: (x > 0.0) & (x == np.trunc(x))),
    "any": (None, lambda x: True),
}

# H as data: (row, column, term) per nonzero entry, terms as in hamiltonian(),
# gathered into the index of each entry's term (7, the last term, is 0)
_H_ROW, _H_COL, _H_TERM = np.array(
    [(0, 0, 0), (1, 1, 0), (2, 2, 1), (3, 3, 1), (4, 4, 2), (5, 5, 3)]
    + [(0, 4, 4), (4, 0, 4), (2, 4, 5), (4, 2, 5), (4, 5, 6), (5, 4, 6)]
).T
_H_INDEX = np.full((6, 6), 7)
_H_INDEX[_H_ROW, _H_COL] = _H_TERM
# Omega H as rows of H: row i of Omega is _OMEGA_SIGN[i] = +/-1 at _OMEGA_ROW[i]
_OMEGA_ROW = np.abs(symplectic_form(3)).argmax(axis=1)
_OMEGA_SIGN = symplectic_form(3).sum(axis=1, keepdims=True)
# bath table per quadrature: damping (0 none, 1 gamma_m, 2 kappa) and mode
_DAMPING = np.array([0, 1, 0, 1, 2, 2])
_MODE = np.array([0, 0, 1, 1, 2, 2])
_EYE6 = np.eye(6)


def rule_breach(value, rule: str) -> str | None:
    """What ``value`` must be to obey ``rule``, or None when it does."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        return "a number"
    value = float(value) if isinstance(value, np.floating) else value  # float32 cannot hold max
    # false for NaN, infinities and ints beyond the double range
    if not abs(value) <= sys.float_info.max:
        return "finite"
    need, obeys = _RULES[rule]
    return None if obeys(float(value)) else need


def check_field(name: str, value):
    """``value`` as :class:`SystemParams` stores field ``name`` (a NumPy int or float as
    Python's, a positive integer as an int, phases in [0, 2*pi)); raises
    :class:`NonPositiveParameter` if it breaks it."""
    if value is None and name == "kappa_override":
        return value
    need = rule_breach(value, FIELD_RULES[name])
    if need is not None:
        raise NonPositiveParameter(f"{name} must be {need}, got {value!r}")
    if FIELD_RULES[name] == "posint":
        value = int(value)
    elif isinstance(value, np.generic):
        value = float(value) if isinstance(value, np.floating) else int(value)
    return _wrapped(value) if name == "opa_phase" else value


def _wrapped(phase):
    """``phase``, a float or an array of them, in [0, 2*pi): Python's ``%`` on a
    float and NumPy's on an array round alike."""
    phase = phase % (2.0 * math.pi)
    # x % (2 pi) rounds to 2 pi itself for tiny negative x
    if isinstance(phase, np.ndarray):
        phase[phase == 2.0 * math.pi] = 0.0
        return phase
    return 0.0 if phase == 2.0 * math.pi else phase


def _obeys(values: np.ndarray, rule: str) -> np.ndarray:
    """Where float ``values`` obey ``rule``: where :func:`rule_breach` finds nothing."""
    return (np.abs(values) <= sys.float_info.max) & _RULES[rule][1](values)


def _check_values(name: str, values: np.ndarray) -> tuple[np.ndarray, dict]:
    """Float ``values`` of field ``name`` checked as one array: the values as
    :class:`SystemParams` stores them (bit for bit :func:`check_field`'s), and
    ``{index: NonPositiveParameter}`` for those that break the rule.  Only the
    bad values go through :func:`check_field`, which writes their messages."""
    errors = {}
    for k in np.flatnonzero(~_obeys(values, FIELD_RULES[name])).tolist():
        try:
            check_field(name, values[k].item())
        except NonPositiveParameter as exc:
            errors[k] = exc
    return (_wrapped(values) if name == "opa_phase" else values), errors


@dataclass(frozen=True)
class SystemParams:
    """Raw physical inputs, all in SI units.

    Parameters
    ----------
    cavity_length : float
        Cavity length L in meters.
    mirror_mass : float
        Mass m of each rotating mirror in kilograms.
    mirror_radius : float
        Mirror radius R in meters.
    omega_phi1, omega_phi2 : float
        Torsional angular frequencies of the two mirrors, rad/s.
    laser_power : float
        Drive power in watts.
    laser_wavelength : float
        Drive wavelength in meters.
    quality_factor : float
        Mechanical quality factor Q (sets gamma_m = omega_phi1 / Q).
    finesse : float
        Cavity finesse (sets kappa unless ``kappa_override`` is given).
    oam_number : int
        Topological charge l of the LG mode, integer >= 1.
    temperature : float
        Bath temperature in kelvin, >= 0.
    opa_gain : float
        Parametric gain chi in rad/s, >= 0.
    opa_phase : float
        Pump phase theta in radians, relative to the intracavity field
        (the phase against the drive is theta + 2*arg(a0)); reduced
        modulo 2*pi on construction.
    detuning : float
        Effective cavity detuning Delta in rad/s (the sweep variable;
        may take either sign).
    kappa_override : float or None
        If set, replaces the finesse-derived cavity decay rate.
    """

    cavity_length: float
    mirror_mass: float
    mirror_radius: float
    omega_phi1: float
    omega_phi2: float
    laser_power: float
    laser_wavelength: float
    quality_factor: float
    finesse: float
    oam_number: int
    temperature: float
    opa_gain: float = 0.0
    opa_phase: float = 0.0
    detuning: float = 0.0
    kappa_override: float | None = None

    def __post_init__(self) -> None:
        for name in FIELD_RULES:
            object.__setattr__(self, name, check_field(name, getattr(self, name)))


@dataclass(frozen=True)
class DerivedParams:
    """Rates and constants computed from :class:`SystemParams`.

    ``kappa`` is the cavity amplitude decay rate, ``gamma_m`` the mirror
    damping rate, ``inertia`` the moment of inertia I = m R^2 / 2,
    ``g1``/``g2`` the single-photon optorotational couplings,
    ``nbar1``/``nbar2`` the thermal occupations of the two mirrors,
    ``drive_amplitude`` the input-field amplitude E and ``laser_freq``
    the laser angular frequency.  All rates in rad/s.  For a block,
    ``swept`` maps the fields that vary to (N,) arrays, and the rates that
    depend on them are (N,) arrays too.
    """

    kappa: float
    gamma_m: float
    inertia: float
    g1: float
    g2: float
    nbar1: float
    nbar2: float
    drive_amplitude: float
    laser_freq: float
    params: SystemParams = field(repr=False)
    swept: dict = field(default_factory=dict, repr=False, compare=False)

    def value(self, name: str):
        """Field ``name`` of the parameters: its (N,) array where swept."""
        return self.swept.get(name, getattr(self.params, name))

    @property
    def shape(self) -> tuple:
        """``()`` for one model, ``(N,)`` for a block of N rows."""
        return np.broadcast_shapes(*map(np.shape, self.swept.values())) if self.swept else ()


@dataclass(frozen=True)
class SteadyState:
    """Classical working point the fluctuations are expanded around.

    ``a0`` is the intracavity field amplitude, ``phi10``/``phi20`` the
    static angular displacements, and ``G1``/``G2`` the effective
    (photon-enhanced) coupling rates in rad/s.
    """

    a0: complex
    phi10: float
    phi20: float
    G1: float
    G2: float


@dataclass(frozen=True)
class LinearModel:
    """Drift and diffusion matrices plus the working point behind them.

    ``drift`` and ``diffusion`` are 6x6 real matrices in rad/s with
    row/column ordering (d_phi1, d_Lz1, d_phi2, d_Lz2, dX, dY); for a
    block they are (N, 6, 6) stacks, one row per model.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    steady: SteadyState
    derived: DerivedParams


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation n̄ of a mode at ``omega`` (rad/s) and temperature (K).

    Satisfies 2*n̄ + 1 = coth(hbar*omega / (2*kB*T)); returns 0 at T = 0
    and wherever e^(hbar*omega/(kB*T)) overflows a double (n̄ < 1e-308).
    """
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (KBOLTZ * temperature)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        return 0.0


# ufuncs that round as these scalar calls do (libm pow and hypot, IEEE sqrt)
_VECTORIZED = {math.pow: np.float_power, math.sqrt: np.sqrt, abs: lambda z: np.hypot(z.real, z.imag)}


def _each(fn, *args):
    """``fn`` of numbers, or of each element of a block's arrays: every step
    beyond IEEE arithmetic, so a block's row equals the one-model build bit
    for bit (NumPy's cos, sin and expm1 may round otherwise)."""
    if np.ndarray not in map(type, args):
        return fn(*args)
    if fn in _VECTORIZED:
        return _VECTORIZED[fn](*args)
    with np.errstate(all="ignore"):  # the calls handle their own overflow
        return np.array(np.frompyfunc(fn, len(args), 1)(*args).tolist())


def _gather(shape: tuple, terms, index: np.ndarray) -> np.ndarray:
    """``terms[index]``, each term broadcast over a block of shape () or (N,) first."""
    if not shape:
        return np.array(terms)[index]
    cols = np.empty(shape + (len(terms),))
    for k, term in enumerate(terms):
        cols[:, k] = term
    return cols.take(index, axis=1)


def _amplitude(re: float, im: float, e_amp: float) -> complex:
    """a0 = (re - i im) E / (re^2 + im^2); infinite where that denominator is 0.

    Where a square overflows, re and im are first divided by the larger
    magnitude s, and the denominator is s ((re/s)^2 + (im/s)^2).
    """
    try:
        denom = re**2 + im**2
    except OverflowError:
        s = max(abs(re), abs(im))
        re, im = re / s, im / s
        denom = s * (re**2 + im**2)
    if denom == 0.0:
        return complex(math.inf, 0.0)
    return complex(re * e_amp / denom, -im * e_amp / denom)


@np.errstate(all="ignore")
def _amplitudes(re, im, e_amp) -> np.ndarray:
    """:func:`_amplitude` of arrays; the squares are libm ``pow``, as ``x**2`` is."""
    re, im, e_amp = np.broadcast_arrays(re, im, e_amp)
    re_sq, im_sq = np.float_power(re, 2.0), np.float_power(im, 2.0)
    if np.isinf(re_sq).any() or np.isinf(im_sq).any():
        # where x**2 overflows, the scalar code takes a scaled form
        return np.array(np.frompyfunc(_amplitude, 3, 1)(re, im, e_amp).tolist())
    denom = re_sq + im_sq
    a0 = np.empty(denom.shape, dtype=complex)
    a0.real = re * e_amp / denom
    a0.imag = -im * e_amp / denom
    a0[denom == 0.0] = math.inf
    return a0


_VECTORIZED[_amplitude] = _amplitudes


def derive(params: SystemParams, swept: dict | None = None) -> DerivedParams:
    """Compute all derived rates from the raw inputs.

    The cavity decay follows kappa = pi*c / (2*F*L) unless overridden;
    the drive amplitude is E = sqrt(2*kappa*P / (hbar*omega_L)).  For a
    block, ``swept`` replaces fields by (N,) arrays of checked values.
    """
    swept = dict(swept or {})
    f = {**vars(params), **swept}
    length, w1, w2 = f["cavity_length"], f["omega_phi1"], f["omega_phi2"]
    kappa = math.pi * CLIGHT / (2.0 * f["finesse"] * length)
    if f["kappa_override"] is not None:
        kappa = f["kappa_override"]
    inertia = f["mirror_mass"] * _each(math.pow, f["mirror_radius"], 2.0) / 2.0
    coupling_prefactor = CLIGHT * f["oam_number"] / length
    laser_freq = 2.0 * math.pi * CLIGHT / f["laser_wavelength"]
    return DerivedParams(
        kappa=kappa,
        gamma_m=w1 / f["quality_factor"],
        inertia=inertia,
        g1=coupling_prefactor * _each(math.sqrt, HBAR / (inertia * w1)),
        g2=coupling_prefactor * _each(math.sqrt, HBAR / (inertia * w2)),
        nbar1=_each(thermal_occupation, w1, f["temperature"]),
        nbar2=_each(thermal_occupation, w2, f["temperature"]),
        drive_amplitude=_each(math.sqrt, 2.0 * kappa * f["laser_power"] / (HBAR * laser_freq)),
        laser_freq=laser_freq,
        params=params,
        swept=swept,
    )


def steady_state(derived: DerivedParams) -> SteadyState:
    """Solve for the classical working point.

    ``theta`` is the pump phase relative to the intracavity field (the
    phase against the drive is theta + 2*arg(a0)), so the mean-field
    equation

        -(kappa + i*Delta) a + 2*chi*e^{i(theta + 2 arg a)} a* + E = 0

    collapses to -(kappa + i*Delta - 2*chi*e^{i*theta}) a + E = 0 and

        a0 = (kappa - 2*chi*cos(theta) - i*(Delta - 2*chi*sin(theta))) * E
             / ((kappa - 2*chi*cos(theta))^2 + (Delta - 2*chi*sin(theta))^2)

    The static mirror displacements follow from torque balance,
    phi_j0 = g_aj |a0|^2 / omega_phij with g_a1 = -g1, g_a2 = +g2.
    The effective couplings G_j = sqrt(2) g_j |a0| drop a0's phase: in
    this frame the fluctuation X is the quadrature along the mean field
    and :func:`hamiltonian` applies the pump at phase theta to it.

    At the OPA threshold kappa + i*Delta = 2*chi*e^{i*theta} the
    denominator vanishes and no finite working point exists; ``a0`` is
    then infinite and :func:`lgsteer.measures.full_report` reports the
    point as not stable.  For a block every field is an (N,) array.
    """
    p = derived.value
    chi, theta = p("opa_gain"), p("opa_phase")
    re = derived.kappa - 2.0 * chi * _each(math.cos, theta)
    im = p("detuning") - 2.0 * chi * _each(math.sin, theta)
    a0 = _each(_amplitude, re, im, derived.drive_amplitude)
    mag = _each(abs, a0)
    mag2 = _each(math.pow, mag, 2.0)
    root2 = math.sqrt(2.0)
    return SteadyState(
        a0=a0,
        phi10=-derived.g1 * mag2 / p("omega_phi1"),
        phi20=+derived.g2 * mag2 / p("omega_phi2"),
        G1=root2 * derived.g1 * mag,
        G2=root2 * derived.g2 * mag,
    )


def hamiltonian(derived: DerivedParams, steady: SteadyState) -> np.ndarray:
    """Symmetric 6x6 matrix H of the linearized quadratic Hamiltonian.

    Diagonal (w1, w1, w2, w2, Delta - 2 chi sin(theta), Delta + 2 chi
    sin(theta)); the torque couplings H[phi1, X] = G1 and H[phi2, X] = -G2
    carry the opposite angular-momentum transfer at the two mirrors, and
    the pump adds H[X, Y] = 2 chi cos(theta).  (N, 6, 6) for a block.
    """
    p = derived.value
    pump = 2.0 * p("opa_gain")
    squeeze = pump * _each(math.sin, p("opa_phase"))
    delta = p("detuning")
    terms = [p("omega_phi1"), p("omega_phi2"), delta - squeeze, delta + squeeze]
    terms += [steady.G1, -steady.G2, pump * _each(math.cos, p("opa_phase")), 0.0]
    return _gather(derived.shape, terms, _H_INDEX)


def _bath(derived: DerivedParams) -> tuple[np.ndarray, np.ndarray]:
    """Damping Gamma and occupation N per quadrature (mirror baths damp only L_z)."""
    d = derived
    damping = _gather(d.shape, [0.0, d.gamma_m, d.kappa], _DAMPING)
    return damping, _gather(d.shape, [d.nbar1, d.nbar2, 0.0], _MODE)


def build_drift(derived: DerivedParams, steady: SteadyState) -> np.ndarray:
    """Drift matrix A = Omega H - diag(Gamma) (see :func:`hamiltonian`).

    Omega is applied as the row swap and sign it encodes, not as a product,
    so infinite couplings at the OPA threshold stay +/-inf, not 0 * inf = NaN.
    """
    a = _OMEGA_SIGN * hamiltonian(derived, steady)[..., _OMEGA_ROW, :]
    # Gamma I is exactly 0 off the diagonal; + 0.0 turns negated zeros to +0
    return a - _bath(derived)[0][..., None] * _EYE6 + 0.0


def build_diffusion(derived: DerivedParams) -> np.ndarray:
    """Diagonal diffusion matrix D = diag(Gamma (2 N + 1)) (see :func:`_bath`)."""
    damping, occupation = _bath(derived)
    return (damping * (2.0 * occupation + 1.0))[..., None] * _EYE6


def build_model(params: SystemParams, swept: dict | None = None) -> LinearModel:
    """Full pipeline: params -> derived -> steady state -> (A, D).

    With ``swept``, fields replaced by (N,) arrays of values checked by
    :func:`check_field`, a block with (N, 6, 6) drift and diffusion.
    """
    derived = derive(params, swept)
    steady = steady_state(derived)
    drift = build_drift(derived, steady)
    return LinearModel(drift, build_diffusion(derived), steady, derived)


def with_updates(params: SystemParams, **changes) -> SystemParams:
    """Return a copy of ``params`` with the given fields replaced."""
    return replace(params, **changes)
