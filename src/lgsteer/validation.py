"""Independent oracles that certify the core solver pipeline.

Three routes to the steady-state covariance exist in this package: the
refined solve of :func:`lgsteer.gaussian.steady_covariances`, the plain
Kronecker solve here, and direct time integration of the covariance
ODE.  The oracle solves the full n^2-unknown Kronecker system, which
the package solver reduces to the n(n+1)/2 entries of a symmetric V,
and shares no code with it (no scaling, no refinement, its own LAPACK
call); the integrator is the independent algorithm, a time stepper on
those n(n+1)/2 entries (21 for three modes) built from its own
duplication tables, whose steps are taken as one
``np.linalg.matrix_power`` with no linear solve, so three-way agreement
is meaningful evidence.  Both routes, and the seeded random systems,
are array functions over (N, n, n) stacks, of which the public
functions are the one-system cases.  :func:`run_checks` bundles the
cross-checks plus analytic reference states for the CLI ``verify``
command, putting all its seeded systems through each route in one
call; the solver under test is injectable so a corrupted solver is
detectably red.
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
    _spectra,
    _stack,
    lyapunov_residual,
    steady_covariances,
)
from . import measures as _measures
from .model import build_model, with_updates

# entries beyond this abort the integrator (diverging or bad step size)
_OVERFLOW = 1e12
# Kronecker-sum conditioning threshold for declaring marginal stability
_MARGINAL_TOL = 1e-12
# verify's default seed, and the seeded systems its route agreement takes
_DEFAULT_SEED = 12345
_N_RANDOM = 20


def _generic_labels(n_modes: int) -> tuple[str, ...]:
    return tuple(f"mode{k + 1}" for k in range(n_modes))


def _square_pair(a, d) -> tuple[np.ndarray, np.ndarray, int]:
    """``a`` and ``d`` as float arrays of one square shape, and their order.

    Raises :class:`SolveFailure` unless the order is even and positive:
    two quadratures a mode.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    n = len(a) if a.ndim else 0
    if not n or n % 2 or a.shape != (n, n) or d.shape != (n, n):
        raise SolveFailure(
            f"expected square matrices of one positive even order, got {a.shape} and {d.shape}"
        )
    return a, d, n


def _system(failed: np.ndarray) -> str:
    return f"system {np.argmax(failed)}: " if len(failed) > 1 else ""


@functools.cache
def _kron_places(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where ``kron(I, A)`` and ``kron(A, I)`` put the entries of an order-``n`` A.

    Entry (k, l) of A goes to (i n + k, i n + l) in the first and to
    (k n + i, l n + i) in the second, for every i.  Returns the flat
    indices in the n^2 x n^2 sum of each term's n^3 placed entries, and
    the flat indices in A they take, the same for both; all read-only.
    """
    i, k, l = np.indices((n, n, n)).reshape(3, -1)
    tables = ((i * n + k) * n * n + i * n + l, (k * n + i) * n * n + l * n + i, k * n + l)
    for table in tables:
        table.flags.writeable = False
    return tables


def _kron_sum(a: np.ndarray) -> np.ndarray:
    """``kron(I, A) + kron(A, I)`` of each matrix of an (N, n, n) stack.

    Each A's entries are scattered into zeros (see :func:`_kron_places`),
    so every entry equals that of the ``np.kron`` sum, a diagonal one as
    the same sum of two entries of A; only a structural zero is +0.0
    where the two ``np.kron`` products can give -0.0.
    """
    count, n = len(a), a.shape[-1]
    left, right, source = _kron_places(n)
    entries = a.reshape(count, n * n)[:, source]
    out = np.zeros((count, n**4))
    out[:, left] = entries
    out[:, right] += entries
    return out.reshape(count, n * n, n * n)


def _lyapunov_oracles(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`lyapunov_oracle` over (N, n, n) stacks: the (N, n, n) covariances.

    Each check covers the stack; a failure quotes its first failing system, ``system k: `` if N > 1.
    """
    count, n = len(a), a.shape[-1]
    lam = np.linalg.eigvals(a)
    scale = np.maximum(1.0, np.abs(lam).max(axis=-1))
    marginal = np.abs(lam[:, :, None] + lam[:, None, :]).min(axis=(1, 2)) <= _MARGINAL_TOL * scale
    if marginal.any():
        raise SingularSystem(
            f"{_system(marginal)}eigenvalue pair sums to zero: marginally stable drift"
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
    over = resid > bound
    if over.any():
        k = np.argmax(over)
        raise SolveFailure(f"{_system(over)}oracle residual {resid[k]} exceeds bound {bound[k]}")
    # an overflowed V has an infinite residual bound too, so the check
    # above passes it; this is the error the returned container raises
    bad = ~np.isfinite(v).all(axis=(1, 2))
    if bad.any():
        raise NonPhysicalInput(f"{_system(bad)}covariance matrix has non-finite entries")
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


@functools.cache
def _duplication(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The duplication matrix P of order ``n`` and the rows E selects.

    A symmetric V's row-major ``vec V`` is ``P u``, with u its
    n(n+1)/2 upper-triangle entries row by row, and ``u = E vec V`` is
    ``vec V[rows]``.  Both arrays are read-only.
    """
    upper = np.triu_indices(n)
    pair = np.empty((n, n), dtype=int)
    pair[upper] = pair[upper[::-1]] = np.arange(len(upper[0]))
    dup = np.eye(len(upper[0]))[pair.ravel()]
    rows = upper[0] * n + upper[1]
    dup.flags.writeable = rows.flags.writeable = False
    return dup, rows


def _integrate_covariances(
    a: np.ndarray, d: np.ndarray, v: np.ndarray, *, t_end: float, dt: float
) -> np.ndarray:
    """:func:`integrate_covariance` over (N, n, n) stacks, from the start covariances ``v``.

    Only the upper triangles of ``v`` and ``d`` are read.  An overflow quotes its first
    system, ``system k: `` if N > 1.
    """
    count, n = len(a), a.shape[-1]
    n_steps = max(1, int(round(t_end / dt)))
    dup, rows = _duplication(n)
    m = len(rows)
    eye = np.eye(m)
    # L maps symmetric matrices to symmetric ones (L P = P L_r), so the
    # upper triangle follows the same ODE with L_r = E L P
    hl = dt * (_kron_sum(a)[:, rows] @ dup)
    # Horner form: M = I + hL_r q, c = h q E vec D
    q = eye + 0.5 * hl @ (eye + hl @ (eye + 0.25 * hl) / 3.0)
    step = np.zeros((count, m + 1, m + 1))
    step[:, :m, :m] = eye + hl @ q
    step[:, :m, m] = dt * (q @ d.reshape(count, n * n, 1)[:, rows])[..., 0]
    step[:, m, m] = 1.0
    start = np.concatenate((v.reshape(count, n * n)[:, rows], np.ones((count, 1))), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        state = (np.linalg.matrix_power(step, n_steps) @ start[..., None])[..., 0]
    peak = np.abs(state).max(axis=1)
    over = ~np.isfinite(peak)
    big = np.flatnonzero(~over & (peak > _OVERFLOW))
    if big.size:
        # M's eigenvalues are R(h(lam_i + lam_j)), i <= j, RK4's stability function on L's
        over[big] = np.abs(np.linalg.eigvals(step[big, :m, :m])).max(axis=-1) > 1.0
    if over.any():
        raise StepOverflow(
            f"{_system(over)}propagator entry reached {peak[np.argmax(over)]:g}: "
            "unstable drift or dt too large"
        )
    return (state[:, :m] @ dup.T).reshape(count, n, n)


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
    ``L = I (x) A + A (x) I``.  L maps symmetric matrices to symmetric
    ones, ``L P = P L_r`` with P the duplication matrix
    (``vec V = P u``, u the n(n+1)/2 upper-triangle entries of V) and
    ``L_r = E L P``, E the selection of the upper-triangle rows; so the
    scheme steps u alone, ``du/dt = L_r u + E vec D``.  One RK4 step is
    exactly the affine map ``u -> M u + c`` with ``M = I + hL_r +
    (hL_r)^2/2 + (hL_r)^3/6 + (hL_r)^4/24`` and ``c = h (I + hL_r/2 +
    (hL_r)^2/6 + (hL_r)^3/24) E vec D``: in exact arithmetic the RK4
    step of all of vec V, restricted to its distinct entries.  All
    ``round(t_end / dt)`` steps are the power of the augmented matrix
    ``[[M, c], [0, 1]]`` (22x22 for three modes), taken by
    ``np.linalg.matrix_power``, which squares repeatedly: the same
    discrete scheme as stepping, in about ``2 log2(steps)`` products.
    The result is ``P u``, symmetric by construction.  For stable drift
    and ``t_end >= 50/|margin|`` it matches the Lyapunov solution to
    1e-6 in max entry.

    Raises :class:`SolveFailure` unless ``t_end`` and ``dt`` are
    positive and ``dt`` and the step count ``t_end / dt`` are finite.
    Raises :class:`StepOverflow` when an entry of the result is not
    finite, or exceeds 1e12 while the step map is unstable (spectral
    radius of M, whose eigenvalues are ``R(h(lam_i + lam_j))`` for
    i <= j, above 1): the signature of an unstable drift or an unstable
    step size.
    """
    a, d, n = _square_pair(a, d)
    if not (dt > 0.0 and t_end > 0.0):
        raise SolveFailure(f"need positive t_end and dt, got {t_end} and {dt}")
    if not (math.isfinite(dt) and math.isfinite(float(t_end) / float(dt))):
        raise SolveFailure(f"need finite dt and t_end / dt, got {t_end} and {dt}")
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
    smaller partial-transpose eigenvalue is ``exp(-2r)/2``.  Raises
    :class:`ValueError` for a value outside its state's domain: a mode
    count that is not a positive integer, a negative or non-finite
    occupation or squeezing, or a squeezing whose ``cosh 2r`` overflows.
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
        if not 0.0 <= nbar < math.inf:
            raise ValueError(f"thermal occupation must be finite and >= 0, got {value}")
        cm = CovarianceMatrix((nbar + 0.5) * np.eye(2), _generic_labels(1))
        return ReferenceState(
            "thermal", cm, {"renyi2_entropy": math.log(2.0 * nbar + 1.0)}
        )
    if name == "tmsv":
        r = float(value)
        if not 0.0 <= r < math.inf:
            raise ValueError(f"tmsv squeezing must be finite and >= 0, got {value}")
        try:
            ch = 0.5 * math.cosh(2.0 * r)
        except OverflowError:
            raise ValueError(f"tmsv squeezing {value} overflows cosh(2r)") from None
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


# verify's reference states as (name, value, tolerance), in the order it checks them
_REFERENCES = (
    *(("tmsv", r, 1e-10) for r in (0.25, 0.5, 1.0, 2.0)),
    ("vacuum", 2, 1e-12),
    ("thermal", 3.0, 1e-12),
)
# the measures of a two-mode reference state, as _reference_values orders them
_PAIR_KEYS = (
    "log_negativity", "steering_ab", "steering_ba", "renyi2_entropy", "min_pt_symplectic"
)


def _reference_values(states: list[CovarianceMatrix]) -> list[dict]:
    """The measures a :func:`reference` state can declare, of each of ``states``, by key.

    The two-mode states, labelled ``mode1`` and ``mode2``, are one stack
    through the array stage that sweeps run: one spectrum of their
    partial transposes gives ``min_pt_symplectic`` and
    ``log_negativity``, and det(2V) of each state and of its modes the
    Renyi-2 entropy and the steering by mode1 (``steering_ab``) and by
    mode2.  Any other state gets its Renyi-2 entropy.  Each value is the
    one that its key's one-state function returns.
    """
    labels = _generic_labels(2)
    pair = np.array([cm.n_modes == 2 for cm in states])
    v = np.array([cm.data for cm in states if cm.n_modes == 2])
    nus = _spectra(_stack(v, labels, ((labels, labels[1]),))[:, 0])
    dets = np.empty(len(states))
    dets[pair] = np.linalg.det(2.0 * v)
    dets[~pair] = [np.linalg.det(2.0 * cm.data) for cm in states if cm.n_modes != 2]
    singles = np.linalg.det(_stack(2.0 * v, labels, _measures._singles(labels)))
    entropies = _measures._renyi2(dets)
    columns = iter(np.column_stack((
        _measures._en(nus[:, 0], nus[:, -1]),
        _measures._zetas(dets[pair], singles),
        entropies[pair],
        nus[:, 0],
    )).tolist())
    return [
        dict(zip(_PAIR_KEYS, next(columns))) if is_pair else {"renyi2_entropy": s}
        for is_pair, s in zip(pair.tolist(), entropies.tolist())
    ]


def _random_stable_systems(rng: np.random.Generator, count: int, n: int = 6):
    """``count`` seeded random (A, D) pairs with stability margin exactly -0.5,
    as (count, n, n) stacks.

    A is M uniform on [-1, 1) shifted left by ``max Re eig M + 0.5``; D is
    ``B B^T`` for uniform B, hence symmetric positive semidefinite.  Each
    system's M and B are drawn in turn, so ``count`` one-system calls on
    one generator give the rows of one ``count``-system call.
    """
    draws = rng.uniform(-1.0, 1.0, size=(count, 2, n, n))
    m, b = draws[:, 0], draws[:, 1]
    shift = np.linalg.eigvals(m).real.max(axis=-1) + 0.5
    a = m - shift[:, None, None] * np.eye(n)
    return a, b @ b.swapaxes(1, 2)


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


def run_checks(solver=None, seed: int = _DEFAULT_SEED):
    """Run the verification suite; returns a list of :class:`CheckResult`.

    ``solver`` is the Lyapunov solver under test, with the stacked
    signature of :func:`lgsteer.gaussian.steady_covariances` (the
    default): ``solver(drifts, diffusions)`` takes (N, 6, 6) stacks and
    returns ``(margins, covariances, errors)``.  A check that uses it
    fails with the first failing row's error (``system k: `` before its
    message in a stack of more than one), or when a row's covariance is
    not finite; injecting a wrong solver makes the identity and agreement
    checks fail by name.  ``seed`` fixes the stream of the random systems
    that the three-route agreement puts through one call of each route,
    so failures reproduce; an oracle's or the integrator's error there
    names the first failing system (``system k: ``).  A negative ``seed``
    raises :class:`ValueError` before any check runs.
    """
    solver = steady_covariances if solver is None else solver
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from exc
    eye6 = np.eye(6)

    def solved(a: np.ndarray, d: np.ndarray) -> np.ndarray:
        _, covariances, errors = solver(a, d)
        covariances = np.asarray(covariances, dtype=float)
        for k, error in enumerate(errors):
            if error is not None:
                if len(errors) == 1:
                    raise error
                raise type(error)(f"system {k}: {error}") from error
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
        a, d_mat = _random_stable_systems(rng, _N_RANDOM)
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
        refs = [reference(name, value) for name, value, _ in _REFERENCES]
        measured = _reference_values([ref.cm for ref in refs])
        for (name, value, tol), ref, got in zip(_REFERENCES, refs, measured):
            for key, want in ref.expected.items():
                err = abs(got[key] - want)
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
