"""Eigenvalues of small general real matrices: a reference off the production path.

:func:`eigenvalues` calls LAPACK through ``numpy.linalg.eigvals``.  The
Hessenberg reduction and Francis double-shift QR below
(:func:`hessenberg`, :func:`real_schur`) are a self-contained real Schur
decomposition A = Q T Q^T with T quasi upper triangular (1x1 and 2x2
diagonal blocks).  No module of the package calls into this one (the
stability margins are taken in :mod:`lgsteer.gaussian`); it stays only
because the ``TARGETS`` of the benchmark's tracer, ``benchmarks/spans.py``,
name ``eigen.real_schur`` and ``eigen.eigenvalues``, and
``tests/test_api.py`` checks that every such name resolves.  It is sized
for matrices of order n <= 16: the QR has no balancing, blocking, or
sparsity handling, and leaves 2x2 blocks with real eigenvalues unsplit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenFailure

__all__ = ["hessenberg", "real_schur", "eigenvalues"]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny / _EPS
_MAX_SIZE = 16
_ITER_FACTOR = 100          # total Francis-iteration budget is 100 * n
_EXCEPTIONAL_EVERY = 10     # ad-hoc shifts after this many stalled sweeps


def _check_input(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigenFailure(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > _MAX_SIZE:
        raise EigenFailure(
            f"matrix order {a.shape[0]} exceeds the supported maximum {_MAX_SIZE}"
        )
    if not np.all(np.isfinite(a)):
        raise EigenFailure("matrix contains non-finite entries")
    return a


def _householder3(x: float, y: float, z: float | None):
    """Reflector annihilating the trailing entries of (x, y[, z]).

    Returns the normalized Householder vector ``v`` (length 2 or 3) with
    P = I - 2 v v^T, or None when the column is already collapsed.
    """
    if z is None:
        norm = math.hypot(x, y)
        if norm <= _TINY:
            return None
        alpha = -norm if x >= 0 else norm
        v0 = x - alpha
        vn = math.hypot(v0, y)
        if vn <= _TINY:
            return None
        return np.array([v0 / vn, y / vn])
    norm = math.sqrt(x * x + y * y + z * z)
    if norm <= _TINY:
        return None
    alpha = -norm if x >= 0 else norm
    v0 = x - alpha
    vn = math.sqrt(v0 * v0 + y * y + z * z)
    if vn <= _TINY:
        return None
    return np.array([v0 / vn, y / vn, z / vn])


def hessenberg(a: np.ndarray, accumulate: bool = True):
    """Reduce ``a`` to upper Hessenberg form H = Q^T a Q.

    Returns ``(H, Q)``; ``Q`` is None when ``accumulate`` is False.
    """
    h = _check_input(a).copy()
    n = h.shape[0]
    q = np.eye(n) if accumulate else None
    for k in range(n - 2):
        col = h[k + 1 :, k]
        norm = math.sqrt(float(col @ col))
        if norm <= _TINY:
            continue
        alpha = -norm if col[0] >= 0 else norm
        v = col.copy()
        v[0] -= alpha
        vn = math.sqrt(float(v @ v))
        if vn <= _TINY:
            continue
        v /= vn
        # P = I - 2 v v^T applied as similarity transform
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v)
        if accumulate:
            q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v)
        h[k + 2 :, k] = 0.0
    return h, q


def real_schur(a: np.ndarray, accumulate: bool = True):
    """Real Schur decomposition by Francis double-shift QR.

    Returns ``(T, Q)`` with ``a = Q T Q^T`` (Q is None when not
    accumulated).  Raises :class:`EigenFailure` when the iteration budget
    of ``100 * n`` sweeps is exhausted, which in practice signals NaNs or
    a pathologically scaled input rather than a hard spectrum.
    """
    h, q = hessenberg(a, accumulate)
    n = h.shape[0]
    budget = _ITER_FACTOR * n
    iters = 0
    stall = 0
    bottom = n - 1
    while bottom > 0:
        # deflation scan: zero negligible subdiagonals, find the active block
        low = 0
        for i in range(bottom, 0, -1):
            sub = abs(h[i, i - 1])
            if sub <= _EPS * (abs(h[i - 1, i - 1]) + abs(h[i, i])) + _TINY:
                h[i, i - 1] = 0.0
                low = i
                break
        if low == bottom:            # 1x1 converged
            bottom -= 1
            stall = 0
            continue
        if low == bottom - 1:        # 2x2 block converged (kept unsplit)
            bottom -= 2
            stall = 0
            continue
        if iters >= budget:
            raise EigenFailure(
                f"QR iteration exceeded {budget} sweeps (order {n})"
            )
        iters += 1
        stall += 1
        # double shift from the trailing 2x2 of the active block
        if stall % _EXCEPTIONAL_EVERY == 0:
            ex = h[bottom, bottom] + 0.75 * abs(h[bottom, bottom - 1])
            tr = 2.0 * ex
            det = ex * ex
        else:
            tr = h[bottom - 1, bottom - 1] + h[bottom, bottom]
            det = (
                h[bottom - 1, bottom - 1] * h[bottom, bottom]
                - h[bottom - 1, bottom] * h[bottom, bottom - 1]
            )
        # first column of (H - s1)(H - s2) within the active block
        h00 = h[low, low]
        h10 = h[low + 1, low]
        x = h00 * h00 + h[low, low + 1] * h10 - tr * h00 + det
        y = h10 * (h00 + h[low + 1, low + 1] - tr)
        z = h10 * h[low + 2, low + 1]
        for k in range(low, bottom - 1):
            v = _householder3(x, y, z if k < bottom - 1 else None)
            if v is not None:
                m = len(v)
                rows = slice(k, k + m)
                h[rows, :] -= 2.0 * np.outer(v, v @ h[rows, :])
                h[:, rows] -= 2.0 * np.outer(h[:, rows] @ v, v)
                if accumulate:
                    q[:, rows] -= 2.0 * np.outer(q[:, rows] @ v, v)
            x = h[k + 1, k]
            y = h[k + 2, k]
            z = h[k + 3, k] if k + 3 <= bottom else 0.0
        v = _householder3(x, y, None)
        if v is not None:
            rows = slice(bottom - 1, bottom + 1)
            h[rows, :] -= 2.0 * np.outer(v, v @ h[rows, :])
            h[:, rows] -= 2.0 * np.outer(h[:, rows] @ v, v)
            if accumulate:
                q[:, rows] -= 2.0 * np.outer(q[:, rows] @ v, v)
        # the reflectors annihilate the bulge only to O(eps); clip the dust
        # so deflated zeros stay exact zeros
        for i in range(low + 2, bottom + 1):
            h[i, low : i - 1] = 0.0
        if not np.all(np.isfinite(h)):
            raise EigenFailure("QR iteration produced non-finite entries")
    return h, q


def eigenvalues(a: np.ndarray) -> list[complex]:
    """Full spectrum of a general real matrix (order <= 16), by LAPACK.

    Complex eigenvalues come out in exact conjugate pairs.  Raises
    :class:`EigenFailure` on bad input or non-convergence.
    """
    a = _check_input(a)
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigenvalue iteration did not converge: {exc}") from exc
    return lam.astype(complex).tolist()
