"""Covariance-matrix containers and the Gaussian linear-algebra kernel.

Quadrature ordering is (q_1, p_1, q_2, p_2, ...) per mode with vacuum
variance 1/2, so the symplectic form is Omega = diag-blocks [[0, 1], [-1, 0]]
and a state is physical iff every symplectic eigenvalue is >= 1/2.
Symplectic eigenvalues are the positive eigenvalues of the Hermitian
matrix i L^T Omega L, with V = L L^T the Cholesky factorization.

The steady-state covariance of the linear model solves the Lyapunov
equation A V + V A^T = -D; :func:`steady_covariance` solves its
vectorized 36-unknown form with LAPACK and refines the result in
extended precision.  An independent solver lives in
:mod:`lgsteer.validation` so the two routes can cross-check each other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigen import power_of_two_scale, spectral_abscissa
from .errors import (
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


def _stack(cm: CovarianceMatrix, cuts: tuple) -> np.ndarray:
    rows, cols, signs = _gather(cm.mode_labels, cuts)
    return cm.data[rows, cols] * signs


def reduce(cm: CovarianceMatrix, modes) -> CovarianceMatrix:
    """Principal submatrix for the given mode subset, original ordering."""
    modes = tuple(modes)
    keep_labels = tuple(lb for lb in cm.mode_labels if lb in modes)
    return CovarianceMatrix(_stack(cm, ((modes, None),))[0], keep_labels)


def partial_transpose(cm: CovarianceMatrix, mode: str) -> CovarianceMatrix:
    """Flip the sign of ``mode``'s momentum quadrature: V -> P V P.

    An involution; the determinant is preserved (P has det -1 but enters
    twice).
    """
    return CovarianceMatrix(_stack(cm, ((cm.mode_labels, mode),))[0], cm.mode_labels)


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
    return float(_spectra(_stack(cm, ((cm.mode_labels, mode),)))[0, 0])


def steady_covariance(a: np.ndarray, d: np.ndarray):
    """Stability margin and (when stable) steady-state covariance.

    Returns ``(margin, cm_or_None)`` with the margin in the units of
    ``a``, from :func:`lgsteer.eigen.spectral_abscissa`.

    A stable system is solved as ``(I (x) A + A (x) I) vec V = -vec D``
    on power-of-two-scaled inputs.  Near-marginal systems, and equal
    mirror frequencies, make that operator ill conditioned (cond_2 up to
    ~1e8), so the solution is refined with residuals accumulated in
    extended precision until a correction is at most ``2 eps max|V|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 12): that is forward accuracy, not just a small backward error.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.shape != (6, 6) or d.shape != (6, 6):
        raise SolveFailure(f"expected 6x6 matrices, got {a.shape} and {d.shape}")
    if not (np.isfinite(a).all() and np.isfinite(d).all()):
        raise SolveFailure("drift or diffusion has non-finite entries")
    if np.abs(d - d.T).max() > _SYM_TOL * max(1.0, np.abs(d).max()):
        raise SolveFailure("diffusion matrix is not symmetric")
    margin = spectral_abscissa(a)
    if margin >= 0.0:
        return margin, None
    scale = power_of_two_scale(a)
    a_s = a / scale
    d_s = d / scale
    # I (x) A + A (x) I, indexed [(p, i), (q, j)]
    kron_sum = (
        _EYE6[:, None, :, None] * a_s[None, :, None, :]
        + a_s[:, None, :, None] * _EYE6[None, :, None, :]
    ).reshape(36, 36)
    try:
        inverse = np.linalg.inv(kron_sum)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"singular Lyapunov operator: {exc}") from exc
    # ravel is the column-major vec of the transpose, and X -> A X + X A^T
    # commutes with transposition, so ravel/reshape solve the same equation
    v = (inverse @ -d_s.ravel()).reshape(6, 6)
    v = 0.5 * (v + v.T)
    al = a_s.astype(np.longdouble)
    dl = d_s.astype(np.longdouble)
    limit = _FORWARD_FACTOR * float(np.finfo(float).eps)
    for _ in range(_MAX_REFINE):
        if not np.isfinite(v).all():
            raise SolveFailure("Lyapunov solution has non-finite entries")
        vl = v.astype(np.longdouble)
        resid_mat = np.asarray(al @ vl + vl @ al.T + dl, dtype=float)
        delta = (inverse @ -resid_mat.ravel()).reshape(6, 6)
        v = v + 0.5 * (delta + delta.T)
        if np.abs(delta).max() <= limit * np.abs(v).max():
            break
    if not np.isfinite(v).all():
        raise SolveFailure("Lyapunov solution has non-finite entries")
    vmax = float(np.abs(v).max())
    resid = lyapunov_residual(a, d, v)
    bound = 1e-8 * max(1.0, float(np.abs(d).max()), float(np.abs(a).max()) * vmax)
    if resid > bound:
        raise SolveFailure(f"Lyapunov residual {resid} exceeds bound {bound}")
    jitter = 1e-9 * max(1.0, vmax)
    try:
        np.linalg.cholesky(v + jitter * _EYE6)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(
            "Lyapunov solution is not positive semidefinite"
        ) from exc
    return margin, CovarianceMatrix(v, MODE_ORDER)


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


def lyapunov_residual(a: np.ndarray, d: np.ndarray, v) -> float:
    """Max-norm of A V + V A^T + D.

    Accumulated in extended precision so the returned value reflects the
    quality of ``v`` rather than rounding noise in the evaluation, which
    matters when the products ``A V`` are many orders larger than their
    cancelling sum.
    """
    vm = v.data if isinstance(v, CovarianceMatrix) else np.asarray(v, dtype=float)
    al = np.asarray(a, dtype=np.longdouble)
    vl = vm.astype(np.longdouble)
    dl = np.asarray(d, dtype=np.longdouble)
    return float(np.max(np.abs(al @ vl + vl @ al.T + dl)))
