"""Independent oracles that certify the core solver pipeline.

Three routes to the steady-state covariance exist in this package: the
refined solve of :func:`lgsteer.gaussian.solve_lyapunov`, the plain
Kronecker solve here, and direct time integration of the covariance
ODE.  The oracle solves the same vectorized system as the package
solver but shares no code with it (no scaling, no refinement, its own
LAPACK call); the integrator is the independent algorithm, a time
stepper whose steps are taken as one ``np.linalg.matrix_power`` with no
linear solve, so three-way agreement is meaningful evidence.  Both
routes, and the seeded random systems, are array functions over
(N, n, n) stacks, of which the public functions are the one-system
cases.  :func:`run_checks` bundles the cross-checks plus analytic
reference states for the CLI ``verify`` command, putting all its seeded
systems through each route in one call; the solver under test is
injectable so a corrupted solver is detectably red.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import table_defaults
from .errors import (
    LgsteerError,
    NonPhysicalInput,
    SingularSystem,
    SolveFailure,
    StepOverflow,
)
from .gaussian import (
    CovarianceMatrix,
    lyapunov_residual,
    min_pt_symplectic,
    steady_covariances,
)
from . import measures as _measures
from .model import build_model, with_updates

# entries beyond this abort the integrator (diverging or bad step size)
_OVERFLOW = 1e12
# Kronecker-sum conditioning threshold for declaring marginal stability
_MARGINAL_TOL = 1e-12

_DEFAULT_SEED = 12345


def _generic_labels(n_modes: int) -> tuple[str, ...]:
    return tuple(f"mode{k + 1}" for k in range(n_modes))


def _square_pair(a, d) -> tuple[np.ndarray, np.ndarray, int]:
    """``a`` and ``d`` as float arrays of one square shape, and their order."""
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or d.shape != (n, n):
        raise SolveFailure(f"expected square matrices, got {a.shape} and {d.shape}")
    return a, d, n


def _first_failure(body):
    """A stacked oracle that raises the one-system error of its first failing system.

    ``body`` takes (N, n, n) stacks as its positional arguments and checks
    each stage on the whole stack, so the system whose error it raises
    need not be the first that fails.  When it raises, the decorated
    function runs the systems one at a time, in stack order, and the
    first to fail raises what the one-system call raises for it.
    """

    @functools.wraps(body)
    def stacked(*stacks, **kwargs):
        try:
            return body(*stacks, **kwargs)
        except (np.linalg.LinAlgError, LgsteerError) as exc:
            if len(stacks[0]) == 1:
                raise
            error = exc
        for k in range(len(stacks[0])):
            body(*(x[k : k + 1] for x in stacks), **kwargs)
        raise error

    return stacked


def _kron_sum(a: np.ndarray) -> np.ndarray:
    """``kron(I, A) + kron(A, I)`` of each matrix of an (N, n, n) stack.

    The products are those ``np.kron`` forms, so each matrix is the
    one-system Kronecker sum bit for bit.
    """
    count, n = len(a), a.shape[-1]
    eye = np.eye(n)
    left = eye[:, None, :, None] * a[:, None, :, None, :]
    right = a[:, :, None, :, None] * eye[None, :, None, :]
    return (left + right).reshape(count, n * n, n * n)


@_first_failure
def _lyapunov_oracles(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`lyapunov_oracle` over (N, n, n) stacks: the (N, n, n) covariances."""
    count, n = len(a), a.shape[-1]
    lam = np.linalg.eigvals(a)
    scale = np.maximum(1.0, np.abs(lam).max(axis=-1))
    sums = lam[:, :, None] + lam[:, None, :]
    if (np.abs(sums).min(axis=(1, 2)) <= _MARGINAL_TOL * scale).any():
        raise SingularSystem(
            "eigenvalue pair sums to zero: marginally stable drift"
        )
    # vec(D) stacks D's columns, which are the rows of D^T
    rhs = -d.swapaxes(1, 2).reshape(count, n * n, 1)
    try:
        vec = np.linalg.solve(_kron_sum(a), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Kronecker sum not invertible: {exc}") from exc
    v = vec.reshape(count, n, n).swapaxes(1, 2)
    v = 0.5 * (v + v.swapaxes(1, 2))
    al, vl = a.astype(np.longdouble), v.astype(np.longdouble)
    resid = np.abs(al @ vl + vl @ al.swapaxes(1, 2) + d).max(axis=(1, 2)).astype(float)
    bound = 1e-10 * np.maximum(
        np.maximum(1.0, np.abs(d).max(axis=(1, 2))),
        np.abs(a).max(axis=(1, 2)) * np.abs(v).max(axis=(1, 2)),
    )
    over = np.flatnonzero(resid > bound)
    if over.size:
        k = over[0]
        raise SolveFailure(f"oracle residual {resid[k]} exceeds bound {bound[k]}")
    # an overflowed V has an infinite residual bound too, so the check
    # above passes it; this is the error the returned container raises
    if not np.isfinite(v).all():
        raise NonPhysicalInput("covariance matrix has non-finite entries")
    return v


def lyapunov_oracle(a: np.ndarray, d: np.ndarray) -> CovarianceMatrix:
    """Steady-state covariance by dense Kronecker elimination.

    Vectorizes ``A V + V A^T = -D`` into
    ``(I (+) A + A (+) I) vec(V) = -vec(D)`` and solves the 4n^2-sized
    dense system directly, without the package solver's scaling or
    refinement, and checks its own long-double residual; intended for
    tests and the ``verify`` command.  Being unrefined, it is accurate
    only to about ``eps cond(L) max|V|``, with L the Kronecker sum: at
    equal mirror frequencies cond(L) is about 1e8, and on 300 seeded
    stable points there its dark-mode covariance was off from the exact
    one by up to 2.6e-7 relative.
    """
    a, d, n = _square_pair(a, d)
    return CovarianceMatrix(_lyapunov_oracles(a[None], d[None])[0], _generic_labels(n // 2))


@_first_failure
def _integrate_covariances(
    a: np.ndarray, d: np.ndarray, v: np.ndarray, *, t_end: float, dt: float
) -> np.ndarray:
    """:func:`integrate_covariance` over (N, n, n) stacks, from the start covariances ``v``."""
    count, n = len(a), a.shape[-1]
    n_steps = max(1, int(round(t_end / dt)))
    m = n * n
    eye = np.eye(m)
    hl = dt * _kron_sum(a)
    # Horner form: M = I + hL q, c = h q vec D
    q = eye + 0.5 * hl @ (eye + hl @ (eye + 0.25 * hl) / 3.0)
    step = np.zeros((count, m + 1, m + 1))
    step[:, :m, :m] = eye + hl @ q
    step[:, :m, m] = dt * (q @ d.reshape(count, m, 1))[..., 0]
    step[:, m, m] = 1.0
    start = np.concatenate((v.reshape(count, m), np.ones((count, 1))), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        state = (np.linalg.matrix_power(step, n_steps) @ start[..., None])[..., 0]
    peak = np.abs(state).max(axis=1)
    over = ~np.isfinite(peak)
    big = np.flatnonzero(~over & (peak > _OVERFLOW))
    if big.size:
        # M's eigenvalues are R(h(lam_i + lam_j)), RK4's stability function on L's
        over[big] = np.abs(np.linalg.eigvals(step[big, :m, :m])).max(axis=-1) > 1.0
    if over.any():
        raise StepOverflow(
            f"propagator entry reached {peak[np.argmax(over)]:g}: "
            "unstable drift or dt too large"
        )
    v = state[:, :m].reshape(count, n, n)
    return 0.5 * (v + v.swapaxes(1, 2))


def integrate_covariance(
    a: np.ndarray,
    d: np.ndarray,
    v0: np.ndarray | None,
    t_end: float,
    dt: float,
) -> CovarianceMatrix:
    """Integrate ``dV/dt = A V + V A^T + D`` with fixed-step RK4.

    ``v0 = None`` starts from zero covariance.  The equation is linear
    in vec V, ``d vec V/dt = L vec V + vec D`` with
    ``L = I (x) A + A (x) I``, so one RK4 step is exactly the affine map
    ``vec V -> M vec V + c`` with ``M = I + hL + (hL)^2/2 + (hL)^3/6 +
    (hL)^4/24`` and ``c = h (I + hL/2 + (hL)^2/6 + (hL)^3/24) vec D``.
    All ``round(t_end / dt)`` steps are the power of the augmented
    matrix ``[[M, c], [0, 1]]``, taken by ``np.linalg.matrix_power``,
    which squares repeatedly: the same discrete scheme as stepping, in
    about ``2 log2(n)`` products.  The result is re-symmetrized.  For
    stable drift and ``t_end >= 50/|margin|`` it matches the Lyapunov
    solution to 1e-6 in max entry.

    Raises :class:`StepOverflow` when an entry of the result is not
    finite, or exceeds 1e12 while the step map is unstable (spectral
    radius of M above 1): the signature of an unstable drift or an
    unstable step size.
    """
    a, d, n = _square_pair(a, d)
    if dt <= 0.0 or t_end <= 0.0:
        raise SolveFailure(f"need positive t_end and dt, got {t_end} and {dt}")
    if v0 is None:
        v = np.zeros((n, n))
    else:
        v = np.array(getattr(v0, "data", v0), dtype=float)
        if v.shape != (n, n):
            raise SolveFailure(f"initial covariance has shape {v.shape}, drift {a.shape}")
        v = 0.5 * (v + v.T)
    v = _integrate_covariances(a[None], d[None], v[None], t_end=t_end, dt=dt)[0]
    return CovarianceMatrix(v, _generic_labels(n // 2))


@dataclass(frozen=True)
class ReferenceState:
    """Analytic Gaussian state with closed-form measure values."""

    name: str
    cm: CovarianceMatrix
    expected: dict = field(default_factory=dict)


def reference(name: str, value: float) -> ReferenceState:
    """Analytic reference states: vacuum, thermal, two-mode squeezed.

    ``vacuum``: ``value`` = number of modes, V = I/2, every measure 0.
    ``thermal``: ``value`` = occupation n, single mode, Renyi-2 entropy
    ``ln(2n+1)``.  ``tmsv``: ``value`` = squeezing r; EN = 2r, both
    steering directions ``ln cosh 2r``, pure so entropy 0, and the
    smaller partial-transpose eigenvalue is ``exp(-2r)/2``.
    """
    if name == "vacuum":
        m = int(value)
        if m < 1 or m != value:
            raise ValueError(f"vacuum needs a positive integer mode count, got {value}")
        cm = CovarianceMatrix(0.5 * np.eye(2 * m), _generic_labels(m))
        expected = {"renyi2_entropy": 0.0}
        if m == 2:
            expected.update(
                log_negativity=0.0,
                steering_ab=0.0,
                steering_ba=0.0,
                min_pt_symplectic=0.5,
            )
        return ReferenceState("vacuum", cm, expected)
    if name == "thermal":
        nbar = float(value)
        if nbar < 0.0:
            raise ValueError(f"thermal occupation must be >= 0, got {value}")
        cm = CovarianceMatrix((nbar + 0.5) * np.eye(2), _generic_labels(1))
        return ReferenceState(
            "thermal", cm, {"renyi2_entropy": math.log(2.0 * nbar + 1.0)}
        )
    if name == "tmsv":
        r = float(value)
        ch = 0.5 * math.cosh(2.0 * r)
        sh = 0.5 * math.sinh(2.0 * r)
        v = np.array(
            [
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ]
        )
        cm = CovarianceMatrix(v, _generic_labels(2))
        zeta = math.log(math.cosh(2.0 * r))
        return ReferenceState(
            "tmsv",
            cm,
            {
                "log_negativity": 2.0 * r,
                "steering_ab": zeta,
                "steering_ba": zeta,
                "renyi2_entropy": 0.0,
                "min_pt_symplectic": 0.5 * math.exp(-2.0 * r),
            },
        )
    raise ValueError(f"unknown reference state {name!r}")


def _random_stable_systems(rng: np.random.Generator, count: int, n: int = 6):
    """:func:`random_stable_system` ``count`` times: (count, n, n) stacks of A and D.

    Each system's M and B are drawn in turn, as ``count`` one-system
    calls draw them, so the stacks are those calls' pairs.
    """
    draws = rng.uniform(-1.0, 1.0, size=(count, 2, n, n))
    m, b = draws[:, 0], draws[:, 1]
    shift = np.linalg.eigvals(m).real.max(axis=-1) + 0.5
    a = m - shift[:, None, None] * np.eye(n)
    return a, b @ b.swapaxes(1, 2)


def random_stable_system(rng: np.random.Generator, n: int = 6):
    """Seeded random (A, D) pair with stability margin exactly -0.5.

    A is uniform on [-1, 1) shifted left by ``max Re eig + 0.5``; D is
    ``B B^T`` for uniform B, hence symmetric positive semidefinite.
    """
    a, d = _random_stable_systems(rng, 1, n)
    return a[0], d[0]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    detail: str


def _check(name: str, fn) -> CheckResult:
    try:
        detail = fn()
    except (LgsteerError, ValueError, ArithmeticError) as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    if isinstance(detail, str):
        return CheckResult(name, False, detail)
    return CheckResult(name, True, "ok")


def run_checks(solver=None, seed: int = _DEFAULT_SEED, n_random: int = 20):
    """Run the verification suite; returns a list of :class:`CheckResult`.

    ``solver`` is the Lyapunov solver under test, with the stacked
    signature of :func:`lgsteer.gaussian.steady_covariances` (the
    default): ``solver(drifts, diffusions)`` takes (N, 6, 6) stacks and
    returns ``(margins, covariances, errors)``.  A check that uses it
    fails with the first row's error, or when a row's covariance is not
    finite; injecting a wrong solver makes the identity and agreement
    checks fail by name.  ``seed`` fixes the random-matrix stream so
    failures reproduce; ``n_random`` sets how many seeded systems the
    three-route agreement covers, all in one call of each route.  A
    negative ``seed`` or ``n_random`` raises :class:`ValueError` before
    any check runs.
    """
    solver = steady_covariances if solver is None else solver
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from exc
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    eye6 = np.eye(6)

    def solved(a: np.ndarray, d: np.ndarray) -> np.ndarray:
        _, covariances, errors = solver(a, d)
        covariances = np.asarray(covariances, dtype=float)
        for k, error in enumerate(errors):
            if error is not None:
                raise error
            if not np.isfinite(covariances[k]).all():
                raise SolveFailure(f"solver gave system {k} a non-finite covariance")
        return covariances

    def off_half(v: np.ndarray, tol: float):
        err = float(np.max(np.abs(v - 0.5 * eye6)))
        if err > tol:
            return f"max deviation from I/2 is {err:g}"

    def solver_identity():
        return off_half(solved(-eye6[None], eye6[None])[0], 1e-10)

    def oracle_identity():
        return off_half(lyapunov_oracle(-eye6, eye6).data, 1e-12)

    def integrator_identity():
        return off_half(integrate_covariance(-eye6, eye6, None, 40.0, 0.01).data, 1e-6)

    def integrator_overflow():
        try:
            integrate_covariance(eye6, eye6, None, 60.0, 0.1)
        except StepOverflow:
            return None
        return "unstable drift did not trigger StepOverflow"

    def marginal_rejected():
        a = -eye6.copy()
        a[0, 0] = 0.0
        try:
            lyapunov_oracle(a, eye6)
        except SingularSystem:
            return None
        return "marginally stable drift was not rejected"

    def route_agreement():
        a, d_mat = _random_stable_systems(rng, n_random)
        v_solver = solved(a, d_mat)
        v_oracle = _lyapunov_oracles(a, d_mat)
        v_ode = _integrate_covariances(a, d_mat, np.zeros_like(a), t_end=100.0, dt=0.02)
        # np.max, unlike max(), keeps a NaN difference: it fails the test below
        worst = float(np.max(
            np.abs([v_solver - v_oracle, v_solver - v_ode, v_oracle - v_ode]), initial=0.0
        ))
        if not worst <= 1e-6:
            return f"worst three-route disagreement {worst:g} exceeds 1e-6"

    def reference_states():
        measure = {
            "log_negativity": _measures.log_negativity,
            "steering_ab": lambda cm: _measures.steering(cm, "mode1"),
            "steering_ba": lambda cm: _measures.steering(cm, "mode2"),
            "renyi2_entropy": _measures.renyi2_entropy,
            "min_pt_symplectic": min_pt_symplectic,
        }
        states = [("tmsv", r, 1e-10) for r in (0.25, 0.5, 1.0, 2.0)]
        states += [("vacuum", 2, 1e-12), ("thermal", 3.0, 1e-12)]
        for name, value, tol in states:
            ref = reference(name, value)
            for key, want in ref.expected.items():
                err = abs(measure[key](ref.cm) - want)
                # a vacuum is separable exactly, not to within rounding
                if err > (0.0 if (name, key) == ("vacuum", "log_negativity") else tol):
                    return f"{name}({value}) {key} off by {err:g}"

    def steady_state_physical():
        base = table_defaults()
        params = with_updates(base, detuning=base.omega_phi1)
        lm = build_model(params)
        v = solved(lm.drift[None], lm.diffusion[None])[0]
        resid = lyapunov_residual(lm.drift, lm.diffusion, v)
        bound = 1e-8 * max(1.0, float(np.max(np.abs(lm.diffusion))))
        if resid > bound:
            return f"steady-state residual {resid:g} exceeds {bound:g}"
        CovarianceMatrix(v, _generic_labels(3)).check_physical()

    checks = (
        solver_identity,
        oracle_identity,
        integrator_identity,
        integrator_overflow,
        marginal_rejected,
        route_agreement,
        reference_states,
        steady_state_physical,
    )
    return [_check(fn.__name__, fn) for fn in checks]
