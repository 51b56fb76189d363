"""Covariance-matrix containers and the Gaussian linear-algebra kernel.

Quadrature ordering is (q_1, p_1, q_2, p_2, ...) per mode with vacuum
variance 1/2, so the symplectic form is Omega = diag-blocks [[0, 1], [-1, 0]]
and a state is physical iff every symplectic eigenvalue is >= 1/2.
Symplectic eigenvalues are the positive eigenvalues of the Hermitian
matrix i L^T Omega L, with V = L L^T the Cholesky factorization.

The steady-state covariance of the linear model solves the Lyapunov
equation A V + V A^T = -D; :func:`steady_covariances` solves it for the
21 unknowns of a symmetric V over a whole stack of systems with batched
LAPACK calls and refines the results in extended precision, and
:func:`steady_covariance` is its one-system case.  Every stage drops a
failing system through one helper, with its own error, and leaves the
rest of the stack alone.  An independent solver lives in
:mod:`lgsteer.validation` so the two routes can cross-check each other.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenFailure,
    LgsteerError,
    NonPhysicalInput,
    SolveFailure,
    UnknownMode,
)

MODE_ORDER = ("mirror1", "mirror2", "cavity")

_EPS = float(np.finfo(float).eps)
_SYM_TOL = 1e-12
_PHYS_TOL = 1e-9
# margins within this many eps of 0 after power-of-two scaling read 0
_MARGIN_FLOOR = 8.0
# refinement stops once a correction is at most this many eps of max|V|
_FORWARD_FACTOR = 2.0
_MAX_REFINE = 8
# stable rows per call of the Lyapunov and report stages: bounds their
# working arrays (about 12 KB a row, two 21x21 operators among them)
_CHUNK_ROWS = 64
_EYE6 = np.eye(6)
# the 21 unknowns of a symmetric 6x6 V are its upper triangle, row by row;
# _SYM[p, i] is the unknown that holds V[p, i], so u[..., _SYM] is V
_ROWS, _COLS = np.triu_indices(6)
_SYM = np.zeros((6, 6), dtype=int)
_SYM[_ROWS, _COLS] = _SYM[_COLS, _ROWS] = np.arange(21)


def _operator_terms() -> np.ndarray:
    """Where the Lyapunov operator on the 21 unknowns takes its entries from A.

    The operator is E (I (x) A + A (x) I) P: P (36x21) duplicates the
    unknowns into vec V and E (21x36) keeps the rows of the upper
    triangle, so it maps the unknowns of V to those of A V + V A^T, with
    eigenvalues lambda_i + lambda_j, i <= j.  The unknown (q, j) enters
    (A V + V A^T)[p, i] = sum_x a_px V[x, i] + a_ix V[p, x] through V[q, j]
    as a_pq [j = i] + a_ij [q = p] and, off the diagonal, through V[j, q]
    as a_pj [q = i] + a_iq [j = p].  At most two of the four terms are
    present, so each entry is a sum of two entries of A, 36 standing for a
    zero.  Returns their (2, 441) flat indices.
    """
    p, i = _ROWS[:, None], _COLS[:, None]
    q, j = _ROWS, _COLS
    off = q != j
    terms = [
        np.where(present, 6 * row + col, 36)
        for present, row, col in (
            (j == i, p, q), (q == p, i, j), (off & (q == i), p, j), (off & (j == p), i, q)
        )
    ]
    return np.sort(terms, axis=0)[:2].reshape(2, 441)


_TERMS = _operator_terms()


def _operator(a: np.ndarray) -> np.ndarray:
    """The (N, 21, 21) Lyapunov operators on the unknowns of V, of an (N, 6, 6) stack.

    Each entry is gathered as the exact sum of its two terms (see
    :func:`_operator_terms`), so it does not depend on the stack.
    """
    n = len(a)
    padded = np.zeros((n, 37))
    padded[:, :36] = a.reshape(n, 36)
    out = padded.take(_TERMS[0], axis=1)
    out += padded.take(_TERMS[1], axis=1)
    return out.reshape(n, 21, 21)


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
        # halved before the sum, so that finite entries stay finite
        sym = 0.5 * data + 0.5 * data.T
        sym.flags.writeable = False
        object.__setattr__(self, "data", sym)
        object.__setattr__(self, "mode_labels", tuple(self.mode_labels))

    @property
    def n_modes(self) -> int:
        return len(self.mode_labels)

    def check_physical(self) -> None:
        """Raise :class:`NonPhysicalInput` unless every nu >= 1/2 - ``_PHYS_TOL``."""
        nus = symplectic_eigenvalues(self)
        if nus[0] < 0.5 - _PHYS_TOL:
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
    return float(_spectra(_pt_stack(cm, mode))[0, 0])


def _pt_stack(cm: CovarianceMatrix, mode: str | None) -> np.ndarray:
    """``cm`` partially transposed on ``mode``, as a one-matrix stack.

    A two-mode state may omit ``mode`` (see :func:`min_pt_symplectic`).
    """
    if mode is None:
        if cm.n_modes != 2:
            raise NonPhysicalInput(
                f"only a two-mode state may omit the transposed mode, "
                f"got {cm.n_modes} modes"
            )
        mode = cm.mode_labels[1]
    return _stack(cm.data, cm.mode_labels, ((cm.mode_labels, mode),))


class _Rows:
    """The rows of a batch still in play, and the errors of those dropped."""

    def __init__(self, n: int) -> None:
        self.errors: list[LgsteerError | None] = [None] * n
        self.live = np.arange(n)

    def run(self, stage, *arrays, chunk: int | None = None) -> tuple:
        """``stage(*arrays)``, the tuple of stacks the live rows go on with.

        The one way a stage drops a failing row: ``arrays`` and the stacks
        ``stage`` returns are aligned with the live rows, and when LAPACK
        or a guard rejects the whole stack, the stage is re-run on no rows
        (for the shapes) and then row by row, and each row that fails
        alone is dropped with its own exception as its error.  With
        ``chunk``, the stage runs on at most that many rows at a time,
        which bounds its working arrays, and a failing row is re-run alone
        within its chunk.
        """
        if chunk is not None and len(self.live) > chunk:
            outs, live = [], []
            for start in range(0, len(self.live), chunk):
                part = copy.copy(self)
                part.live = self.live[start : start + chunk]
                outs.append(part.run(stage, *(x[start : start + chunk] for x in arrays)))
                live.append(part.live)
            self.live = np.concatenate(live)
            return tuple(np.concatenate(parts) for parts in zip(*outs))
        try:
            return stage(*arrays)
        except (np.linalg.LinAlgError, LgsteerError):
            pass
        outs, kept = [stage(*(x[:0] for x in arrays))], []
        for k, row in enumerate(self.live.tolist()):
            try:
                outs.append(stage(*(x[k : k + 1] for x in arrays)))
                kept.append(k)
            except (np.linalg.LinAlgError, LgsteerError) as exc:
                self.errors[row] = exc
        self.live = self.live[kept]
        return tuple(np.concatenate(parts) for parts in zip(*outs))


def _inputs(a, d) -> tuple:
    """Stage: the drift and diffusion stacks.

    Raises :class:`SolveFailure` unless every pair is two finite 6x6
    matrices with a symmetric diffusion; shapes are checked on the whole
    stack.  A stage of its own, so a bad input re-runs only these checks
    row by row, not the eigensolve.
    """
    try:
        a, d = np.asarray(a, dtype=float), np.asarray(d, dtype=float)
    except ValueError:
        raise SolveFailure("drifts or diffusions differ in shape") from None
    if len(a) and (a.shape[1:], d.shape[1:]) != ((6, 6), (6, 6)):
        raise SolveFailure(f"expected 6x6 matrices, got {a.shape[1:]} and {d.shape[1:]}")
    a, d = a.reshape(-1, 6, 6), d.reshape(-1, 6, 6)
    # a non-finite entry makes its row's peak or asymmetry inf or NaN
    d_peak = np.abs(d).max(axis=(1, 2))
    ok = (np.abs(a).max(axis=(1, 2)) < np.inf) & (
        np.abs(d - d.swapaxes(1, 2)).max(axis=(1, 2)) <= _SYM_TOL * np.maximum(1.0, d_peak)
    )
    if not ok.all():
        raise SolveFailure(
            "diffusion matrix is not symmetric"
            if np.isfinite(a).all() and np.isfinite(d).all()
            else "drift or diffusion has non-finite entries"
        )
    return a, d


def _scale(a: np.ndarray) -> np.ndarray:
    """Per matrix of a stack, the smallest power of two at or above max|a|; 1 if a = 0.

    The largest finite power of two, 2^1023, stands in when max|a| is
    above it, so the scale is never inf.  Dividing by it is exact, so
    SI-scale and unit-scale inputs take the same numerical path.
    """
    # max|a| = m 2^e with m in [0.5, 1), or m = 0 for the zero matrix
    m, e = np.frexp(np.abs(a).max(axis=(-2, -1)))
    scale = np.ldexp(np.ceil(m), np.minimum(e - (m == 0.5), 1023))
    # the zero matrix has eigenvalues 0 at any scale
    return scale + (scale == 0.0)


def _shared(a: np.ndarray) -> bool:
    """Whether a stack of two or more drifts holds one drift, bit for bit, as a
    temperature axis's does: its stages solve that drift once."""
    if len(a) < 2:
        return False
    bits = np.ascontiguousarray(a).view(np.uint64)
    return bool((bits == bits[:1]).all())


def _margins(a: np.ndarray, d: np.ndarray) -> tuple:
    """Stage: margins and power-of-two scales, with the stacks they go on with.

    A margin is the largest real part of a drift's spectrum, in the units
    of the drift, from one batched ``eigvals`` of the drifts divided by
    their :func:`_scale` s, or of the first alone when they are one drift
    (:func:`_shared`).  A margin in (-8 eps s, 0), s < 2 max|a|, is
    below what the eigensolver resolves: it reads 0.0, not stable
    (Lyapunov solves there failed up to 2.3 eps max|a|).  Raises
    :class:`EigenFailure` when ``eigvals`` does not converge.
    """
    scale = _scale(a)
    solved = a[:1] if _shared(a) else a
    try:
        lam = np.linalg.eigvals(solved / scale[: len(solved), None, None])
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration did not converge: {exc}") from exc
    margin = lam.real.max(axis=-1)
    margin[(-_MARGIN_FLOOR * _EPS < margin) & (margin < 0.0)] = 0.0
    # one drift's margin broadcasts over its rows
    return scale * margin, a, d, scale


def _residual(a: np.ndarray, v: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A V + V A^T + D on the 21 unknowns of each system, accumulated in extended precision.

    V is exactly symmetric, so V A^T is (A V)^T bit for bit and one
    product M = A V gives the residual as M + M^T + D, summed on the
    upper triangle only.
    """
    m = a.astype(np.longdouble) @ v.astype(np.longdouble)
    return np.asarray(m[:, _ROWS, _COLS] + m[:, _COLS, _ROWS] + d[:, _ROWS, _COLS], dtype=float)


def _lyapunov(a: np.ndarray, d: np.ndarray, scale: np.ndarray) -> tuple:
    """Stage: the covariance of each stable system (see :func:`steady_covariance`).

    Raises :class:`SolveFailure` unless every residual is within
    ``1e-8 max(1, max|D|, max|A| max|V|)`` and every solution is
    positive semidefinite.  A stack of one drift (:func:`_shared`) builds
    and inverts one operator, and each row refines against its own D.
    """
    a_s = a / scale[:, None, None]
    d_s = d / scale[:, None, None]
    shared = _shared(a)
    try:
        inverse = np.linalg.inv(_operator(a_s[:1] if shared else a_s))
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"singular Lyapunov operator: {exc}") from None
    if shared:
        inverse = np.broadcast_to(inverse, (len(a), 21, 21))
    # the unknowns and every correction fill V symmetrically through _SYM
    v = (inverse @ -d_s[:, _ROWS, _COLS, None])[:, _SYM, 0]
    limit = _FORWARD_FACTOR * _EPS
    # rows still refining; a row whose V is not finite compares false
    # below, stops, and fails the finiteness check after the loop
    todo = slice(None)
    for _ in range(_MAX_REFINE):
        resid = _residual(a_s[todo], v[todo], d_s[todo])
        delta = (inverse[todo] @ -resid[..., None])[..., 0]
        v[todo] = v[todo] + delta[:, _SYM]
        going = np.abs(delta).max(axis=1) > limit * np.abs(v[todo]).max(axis=(1, 2))
        n_going = np.count_nonzero(going)
        if not n_going:
            break
        if n_going < len(going):
            todo = np.arange(len(v))[todo][going]
    vmax = np.abs(v).max(axis=(1, 2))
    resid = np.abs(_residual(a, v, d)).max(axis=1)
    bound = 1e-8 * np.maximum(
        np.maximum(1.0, np.abs(d).max(axis=(1, 2))), np.abs(a).max(axis=(1, 2)) * vmax
    )
    if not (resid <= bound).all():
        raise SolveFailure(
            f"Lyapunov residual {float(resid.max())} exceeds bound {float(bound.max())}"
            if np.isfinite(v).all() else "Lyapunov solution has non-finite entries"
        )
    jitter = 1e-9 * np.maximum(1.0, vmax)[:, None, None]
    try:
        np.linalg.cholesky(v + jitter * _EYE6)
    except np.linalg.LinAlgError:
        raise SolveFailure("Lyapunov solution is not positive semidefinite") from None
    return (v,)


@np.errstate(invalid="ignore", over="ignore")
def _solve(drifts, diffusions):
    """:func:`steady_covariances` as ``(rows, margins, v)``.

    ``rows`` is the batch's :class:`_Rows`, whose live rows are the
    stable rows that passed every check; ``v`` holds their covariances.
    """
    if len(drifts) != len(diffusions):
        raise SolveFailure(f"got {len(drifts)} drifts but {len(diffusions)} diffusions")
    rows = _Rows(len(drifts))
    margins = np.full(len(drifts), np.nan)
    a, d = rows.run(_inputs, drifts, diffusions)
    margin, a, d, scale = rows.run(_margins, a, d)
    margins[rows.live] = margin
    stable = margin < 0.0
    if not stable.any():
        rows.live = rows.live[:0]
        return rows, margins, a[:0]
    if not stable.all():
        rows.live, a, d, scale = (x[stable] for x in (rows.live, a, d, scale))
    (v,) = rows.run(_lyapunov, a, d, scale, chunk=_CHUNK_ROWS)
    return rows, margins, v


def steady_covariances(drifts, diffusions):
    """Stability margins and steady-state covariances of many systems at once.

    ``drifts`` and ``diffusions`` are sequences or (N, 6, 6) stacks of
    6x6 matrices, one pair per row; inputs of different lengths raise
    :class:`~lgsteer.errors.SolveFailure` before any row is solved.
    Returns ``(margins, covariances, errors)``: the margins in
    the units of each drift (NaN for a row that fails its input checks
    or its eigensolve), a (N, 6, 6) stack that holds the covariance of
    every stable row (NaN elsewhere), and a list with the
    :class:`~lgsteer.errors.LgsteerError` of each row that fails a check
    (None elsewhere).  A failing row never fails the
    others; each row gets exactly what :func:`steady_covariance` returns
    or raises for it alone.

    Each stage makes batched LAPACK calls over the rows still in play:
    the margins from one ``eigvals`` of the power-of-two-scaled drifts
    (a margin within 8 eps of 0 after scaling reads 0.0, not stable),
    then, 64 stable rows at a time, the inverses of their 21x21 Lyapunov
    operators from one ``inv`` and each refinement pass on the rows not
    yet converged.  Only when LAPACK or a check rejects a call is it
    re-run one row at a time.
    """
    rows, margins, v = _solve(drifts, diffusions)
    covariances = np.full((len(margins), 6, 6), np.nan)
    covariances[rows.live] = v
    return margins, covariances, rows.errors


def steady_covariance(a: np.ndarray, d: np.ndarray):
    """Stability margin and (when stable) steady-state covariance.

    Returns ``(margin, cm_or_None)`` with the margin in the units of
    ``a``; this is the one-row case of :func:`steady_covariances`, and
    raises the row's error.

    A stable system is solved on power-of-two-scaled inputs for the 21
    unknowns of a symmetric V: the rows of the upper triangle of
    ``(I (x) A + A (x) I) vec V = -vec D``, with V's lower triangle
    eliminated, a 21x21 operator with eigenvalues ``lambda_i + lambda_j``
    (i <= j) of A's.  Near-marginal systems, and equal mirror
    frequencies, make that operator ill conditioned (cond_2 up to
    ~1e8), so the solution is refined with residuals accumulated in
    extended precision until a correction is at most ``2 eps max|V|``
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 12): that is forward accuracy, not just a small backward error.
    """
    rows, margins, v = _solve([a], [d])
    if rows.errors[0] is not None:
        raise rows.errors[0]
    return float(margins[0]), (CovarianceMatrix(v[0], MODE_ORDER) if len(v) else None)


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
