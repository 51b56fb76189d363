"""Covariance-matrix containers and the Gaussian linear-algebra kernel.

Quadrature ordering is (q_1, p_1, q_2, p_2, ...) per mode with vacuum
variance 1/2, so the symplectic form is Omega = diag-blocks [[0, 1], [-1, 0]]
and a state is physical iff every symplectic eigenvalue is >= 1/2.
Symplectic eigenvalues are the positive eigenvalues of the Hermitian
matrix i L^T Omega L, with V = L L^T the Cholesky factorization.

The steady-state covariance of the linear model solves the Lyapunov
equation A V + V A^T = -D; :func:`steady_covariances` solves its
vectorized 36-unknown form for a whole stack of systems with batched
LAPACK calls and refines the results in extended precision, and
:func:`steady_covariance` is its one-system case.  A system that fails
a check carries its own error and leaves the rest of the stack alone.
An independent solver lives in :mod:`lgsteer.validation` so the two
routes can cross-check each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigen import power_of_two_scale, spectral_abscissae
from .errors import (
    EigenFailure,
    LgsteerError,
    NonPhysicalInput,
    SolveFailure,
    UnknownMode,
    UnstableSystem,
)

__all__ = [
    "CovarianceMatrix",
    "symplectic_form",
    "reduce",
    "partial_transpose",
    "symplectic_eigenvalues",
    "min_pt_symplectic",
    "steady_covariance",
    "steady_covariances",
    "solve_lyapunov",
    "lyapunov_residual",
]

MODE_ORDER = ("mirror1", "mirror2", "cavity")

_SYM_TOL = 1e-12
_PHYS_TOL = 1e-9
# refinement stops once a correction is at most this many eps of max|V|
_FORWARD_FACTOR = 2.0
_MAX_REFINE = 8
_EYE6 = np.eye(6)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Real symmetric matrix of quadrature second moments.

    ``data`` is symmetrized on construction and frozen; ``mode_labels``
    names the modes in row order.  Physicality (nu >= 1/2) is *not*
    enforced here because partial transposition legitimately produces
    non-physical matrices of the same shape; use :meth:`check_physical`
    where a contract requires a genuine state.
    """

    data: np.ndarray
    mode_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        n = 2 * len(self.mode_labels)
        if data.shape != (n, n):
            raise NonPhysicalInput(
                f"covariance shape {data.shape} does not match "
                f"{len(self.mode_labels)} mode labels"
            )
        if not np.isfinite(data).all():
            raise NonPhysicalInput("covariance matrix has non-finite entries")
        sym = 0.5 * (data + data.T)
        sym.flags.writeable = False
        object.__setattr__(self, "data", sym)
        object.__setattr__(self, "mode_labels", tuple(self.mode_labels))

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def check_physical(self, tol: float = _PHYS_TOL) -> None:
        """Raise :class:`NonPhysicalInput` unless every nu >= 1/2 - tol."""
        nus = symplectic_eigenvalues(self)
        if nus[0] < 0.5 - tol:
            raise NonPhysicalInput(
                f"smallest symplectic eigenvalue {nus[0]} violates the "
                f"Heisenberg bound 1/2"
            )


def symplectic_form(n_modes: int) -> np.ndarray:
    """Omega = direct sum of n_modes copies of [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


_OMEGA = {n: symplectic_form(n) for n in (1, 2, 3)}


@functools.lru_cache(maxsize=64)
def _gather(labels: tuple[str, ...], cuts: tuple) -> tuple[np.ndarray, ...]:
    """Row indices, column indices and signs that take every cut as one stack.

    A cut ``(modes, flipped)`` is the principal submatrix of the
    ``modes`` subset (original ordering) with the momentum of mode
    ``flipped`` (None for none) sign-flipped, V -> P V P; all subsets
    have the same size.
    """
    idx, p = [], []
    for modes, flipped in cuts:
        named = set(modes) | ({flipped} - {None})
        if not modes or not named.issubset(labels):
            raise UnknownMode(f"modes {sorted(named, key=str)} are not all in {labels}")
        kept = [(i, lb == flipped) for i, lb in enumerate(labels) if lb in modes]
        idx.append([2 * i + k for i, _ in kept for k in (0, 1)])
        p.append([-1.0 if k and flip else 1.0 for _, flip in kept for k in (0, 1)])
    idx, p = np.array(idx), np.array(p)
    return idx[:, :, None], idx[:, None, :], p[:, :, None] * p[:, None, :]


def _stack(data: np.ndarray, labels: tuple[str, ...], cuts: tuple) -> np.ndarray:
    """Every cut of ``data`` as one stack; a (K, 6, 6) input gives (K, cuts, n, n)."""
    rows, cols, signs = _gather(labels, cuts)
    return data[..., rows, cols] * signs


def reduce(cm: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Principal submatrix for the given mode subset, original ordering."""
    modes = tuple(modes)
    keep_labels = tuple(lb for lb in cm.mode_labels if lb in modes)
    return CovarianceMatrix(
        _stack(cm.data, cm.mode_labels, ((modes, None),))[0], keep_labels
    )


def partial_transpose(cm: CovarianceMatrix, mode: str) -> CovarianceMatrix:
    """Flip the sign of ``mode``'s momentum quadrature: V -> P V P.

    An involution; the determinant is preserved (P has det -1 but enters
    twice).
    """
    cut = ((cm.mode_labels, mode),)
    return CovarianceMatrix(_stack(cm.data, cm.mode_labels, cut)[0], cm.mode_labels)


def _spectra(stack: np.ndarray) -> np.ndarray:
    """Ascending symplectic eigenvalues of each matrix in a (k, 2n, 2n) stack.

    They are the upper half of the spectrum of the Hermitian matrix
    i L^T Omega L, with V = L L^T (Serafini, *Quantum Continuous
    Variables*, 2017), whose eigenvalues come in exact +/- pairs.  A
    matrix that is not positive definite is not a state and raises
    :class:`NonPhysicalInput`.
    """
    n = stack.shape[-1] // 2
    try:
        low = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        raise NonPhysicalInput(
            "covariance matrix is not positive definite, so it is not a "
            "valid state"
        ) from None
    omega = _OMEGA[n] if n in _OMEGA else symplectic_form(n)
    return np.linalg.eigvalsh(1j * (low.swapaxes(-1, -2) @ omega @ low))[:, n:]


def symplectic_eigenvalues(cm: CovarianceMatrix) -> list[float]:
    """Symplectic eigenvalues of ``cm``, ascending (see :func:`_spectra`)."""
    return _spectra(cm.data[None])[0].tolist()


def min_pt_symplectic(cm: CovarianceMatrix, mode: str | None = None) -> float:
    """Smallest symplectic eigenvalue of ``cm`` partially transposed on ``mode``.

    Values below 1/2 certify entanglement across the ``mode | rest``
    cut.  A two-mode state may omit ``mode``: transposing either mode
    gives the same spectrum.
    """
    if mode is None:
        if cm.n_modes != 2:
            raise NonPhysicalInput(
                f"only a two-mode state may omit the transposed mode, "
                f"got {cm.n_modes} modes"
            )
        mode = cm.mode_labels[1]
    cut = ((cm.mode_labels, mode),)
    return float(_spectra(_stack(cm.data, cm.mode_labels, cut))[0, 0])


def _rowwise(fn, *stacks: np.ndarray):
    """``fn`` of whole stacks, falling back to one row at a time.

    ``fn`` takes aligned stacks (equal first axes).  Returns ``(out,
    rejected)``: ``out`` holds ``fn``'s rows for the accepted rows only,
    in order, and ``rejected`` maps the position of each row ``fn``
    fails on alone to its exception.  LAPACK rejects a stack when any
    one matrix fails, so only then, rarely, is the batch re-run row by
    row to find the failing rows.
    """
    try:
        return fn(*stacks), {}
    except (np.linalg.LinAlgError, LgsteerError):
        pass
    out, rejected = [], {}
    for k in range(len(stacks[0])):
        try:
            out.append(fn(*(x[k : k + 1] for x in stacks)))
        except (np.linalg.LinAlgError, LgsteerError) as exc:
            rejected[k] = exc
    return (np.concatenate(out) if out else fn(*(x[:0] for x in stacks))), rejected


class _Rows:
    """The rows of a batch still in play, and the errors of those dropped."""

    def __init__(self, n: int) -> None:
        self.errors: list[LgsteerError | None] = [None] * n
        self.live = np.arange(n)

    def drop(self, failed: dict, *arrays):
        """Record ``failed`` (live position -> error) and drop those rows.

        Returns ``arrays``, whose rows follow the live rows, compressed
        the same way.
        """
        if not failed:
            return arrays
        for pos, exc in failed.items():
            self.errors[self.live[pos]] = exc
        keep = np.ones(len(self.live), dtype=bool)
        keep[list(failed)] = False
        self.live = self.live[keep]
        return tuple(x[keep] for x in arrays)


@np.errstate(invalid="ignore", over="ignore")
def steady_covariances(drifts, diffusions):
    """Stability margins and steady-state covariances of many systems at once.

    ``drifts`` and ``diffusions`` are sequences (or stacks) of 6x6
    matrices.  Returns ``(margins, covariances, errors)``: the margins in
    the units of each drift (NaN for a row that fails its input checks
    or its eigensolve), a (N, 6, 6) stack that holds the covariance of
    every stable row (NaN elsewhere), and a list with the
    :class:`~lgsteer.errors.LgsteerError` of each row that fails a check
    (None elsewhere).  A failing row never fails the
    others; each row gets exactly what :func:`steady_covariance` returns
    or raises for it alone.

    Every step is one batched LAPACK call over the rows still in play:
    the margins from one ``eigvals`` (see
    :func:`lgsteer.eigen.spectral_abscissae`), the 36x36 Kronecker
    inverses of the stable rows from one ``inv``, and each refinement
    pass on the rows not yet converged.
    """
    a = [np.asarray(x, dtype=float) for x in drifts]
    d = [np.asarray(x, dtype=float) for x in diffusions]
    n = len(a)
    rows = _Rows(n)
    rows.drop({
        k: SolveFailure(f"expected 6x6 matrices, got {x.shape} and {y.shape}")
        for k, (x, y) in enumerate(zip(a, d))
        if x.shape != (6, 6) or y.shape != (6, 6)
    })
    if len(rows.live) < n:
        a, d = [a[k] for k in rows.live], [d[k] for k in rows.live]
    a = np.array(a).reshape(-1, 6, 6)
    d = np.array(d).reshape(-1, 6, 6)
    a_peak = np.abs(a).max(axis=(1, 2))
    d_peak = np.abs(d).max(axis=(1, 2))
    # a non-finite entry makes its row's peak or asymmetry inf or NaN
    ok = (a_peak < np.inf) & (
        np.abs(d - d.swapaxes(1, 2)).max(axis=(1, 2)) <= _SYM_TOL * np.maximum(1.0, d_peak)
    )
    if not ok.all():
        a, d, a_peak, d_peak = rows.drop({
            pos: SolveFailure(
                "diffusion matrix is not symmetric"
                if np.isfinite(a[pos]).all() and np.isfinite(d[pos]).all()
                else "drift or diffusion has non-finite entries"
            )
            for pos in np.flatnonzero(~ok).tolist()
        }, a, d, a_peak, d_peak)
    scale = power_of_two_scale(a)
    margin, failed = _rowwise(spectral_abscissae, a, scale)
    a, d, a_peak, d_peak, scale = rows.drop({
        pos: EigenFailure(f"eigenvalue iteration did not converge: {exc}")
        for pos, exc in failed.items()
    }, a, d, a_peak, d_peak, scale)
    margins = np.full(n, np.nan)
    margins[rows.live] = margin
    covariances = np.full((n, 6, 6), np.nan)
    stable = margin < 0.0
    n_stable = np.count_nonzero(stable)
    if not n_stable:
        return margins, covariances, rows.errors
    if n_stable < len(stable):
        a, d, a_peak, d_peak, scale, rows.live = (
            x[stable] for x in (a, d, a_peak, d_peak, scale, rows.live)
        )
    a_s = a / scale[:, None, None]
    d_s = d / scale[:, None, None]
    # I (x) A + A (x) I, indexed [row, p, i, q, j]: a_ij on the p = q
    # diagonal plus a_pq on the i = j diagonal, written through views
    kron_sum = np.zeros((len(a_s), 6, 6, 6, 6))
    np.einsum("npipj->npij", kron_sum)[...] = a_s[:, None]
    np.einsum("npiqi->npqi", kron_sum)[...] += a_s[:, :, :, None]
    kron_sum = kron_sum.reshape(-1, 36, 36)
    inverse, failed = _rowwise(np.linalg.inv, kron_sum)
    a, d, a_peak, d_peak, a_s, d_s = rows.drop({
        pos: SolveFailure(f"singular Lyapunov operator: {exc}")
        for pos, exc in failed.items()
    }, a, d, a_peak, d_peak, a_s, d_s)
    # ravel is the column-major vec of the transpose, and X -> A X + X A^T
    # commutes with transposition, so ravel/reshape solve the same equation
    v = (inverse @ -d_s.reshape(-1, 36, 1)).reshape(-1, 6, 6)
    v = 0.5 * (v + v.swapaxes(1, 2))
    al = a_s.astype(np.longdouble)
    dl = d_s.astype(np.longdouble)
    limit = _FORWARD_FACTOR * float(np.finfo(float).eps)
    # rows still refining; a row whose V is not finite compares false
    # below, stops, and fails the finiteness check after the loop
    todo = slice(None)
    for _ in range(_MAX_REFINE):
        vl = v[todo].astype(np.longdouble)
        ar = al[todo]
        resid = np.asarray(ar @ vl + vl @ ar.swapaxes(1, 2) + dl[todo], dtype=float)
        delta = (inverse[todo] @ -resid.reshape(-1, 36, 1)).reshape(-1, 6, 6)
        v[todo] = v[todo] + 0.5 * (delta + delta.swapaxes(1, 2))
        going = np.abs(delta).max(axis=(1, 2)) > limit * np.abs(v[todo]).max(axis=(1, 2))
        n_going = np.count_nonzero(going)
        if not n_going:
            break
        if n_going < len(going):
            todo = np.arange(len(v))[todo][going]
    vmax = np.abs(v).max(axis=(1, 2))
    resid = lyapunov_residual(a, d, v)
    bound = 1e-8 * np.maximum(np.maximum(1.0, d_peak), a_peak * vmax)
    ok = resid <= bound
    if not ok.all():
        v, vmax = rows.drop({
            pos: SolveFailure(
                f"Lyapunov residual {float(resid[pos])} exceeds bound {float(bound[pos])}"
                if np.isfinite(v[pos]).all() else "Lyapunov solution has non-finite entries"
            )
            for pos in np.flatnonzero(~ok).tolist()
        }, v, vmax)
    jitter = 1e-9 * np.maximum(1.0, vmax)[:, None, None]
    _, failed = _rowwise(np.linalg.cholesky, v + jitter * _EYE6)
    (v,) = rows.drop(
        {pos: SolveFailure("Lyapunov solution is not positive semidefinite") for pos in failed},
        v,
    )
    if len(v) == n:
        return margins, v, rows.errors
    covariances[rows.live] = v
    return margins, covariances, rows.errors


def steady_covariance(a: np.ndarray, d: np.ndarray):
    """Stability margin and (when stable) steady-state covariance.

    Returns ``(margin, cm_or_None)`` with the margin in the units of
    ``a``, from :func:`lgsteer.eigen.spectral_abscissa`; this is the
    one-row case of :func:`steady_covariances`, and raises the row's
    error.

    A stable system is solved as ``(I (x) A + A (x) I) vec V = -vec D``
    on power-of-two-scaled inputs.  Near-marginal systems, and equal
    mirror frequencies, make that operator ill conditioned (cond_2 up to
    ~1e8), so the solution is refined with residuals accumulated in
    extended precision until a correction is at most ``2 eps max|V|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 12): that is forward accuracy, not just a small backward error.
    """
    margins, covariances, errors = steady_covariances([a], [d])
    if errors[0] is not None:
        raise errors[0]
    margin = float(margins[0])
    if margin >= 0.0:
        return margin, None
    return margin, CovarianceMatrix(covariances[0], MODE_ORDER)


def solve_lyapunov(a: np.ndarray, d: np.ndarray) -> CovarianceMatrix:
    """Steady-state covariance from A V + V A^T = -D (see :func:`steady_covariance`).

    Requires a strictly stable drift; raises :class:`UnstableSystem`
    otherwise (callers sweeping a grid should mask the point instead of
    treating this as fatal).
    """
    margin, cm = steady_covariance(a, d)
    if cm is None:
        raise UnstableSystem(
            f"stability margin {margin} >= 0: no steady state"
        )
    return cm


def lyapunov_residual(a: np.ndarray, d: np.ndarray, v):
    """Max-norm of A V + V A^T + D; one value per system for (N, 6, 6) stacks.

    Accumulated in extended precision so the returned value reflects the
    quality of ``v`` rather than rounding noise in the evaluation, which
    matters when the products ``A V`` are many orders larger than their
    cancelling sum.
    """
    vm = v.data if isinstance(v, CovarianceMatrix) else np.asarray(v, dtype=float)
    al = np.asarray(a, dtype=np.longdouble)
    vl = vm.astype(np.longdouble)
    dl = np.asarray(d, dtype=np.longdouble)
    peak = np.abs(al @ vl + vl @ al.swapaxes(-1, -2) + dl).max(axis=(-2, -1))
    return float(peak) if peak.ndim == 0 else peak.astype(float)
