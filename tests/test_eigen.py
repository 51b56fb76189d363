"""Dense real eigensolver: Hessenberg reduction and the QR iteration."""

import numpy as np
import pytest

from lgsteer import EigenFailure, eigenvalues, hessenberg, real_schur
from lgsteer.eigen import spectral_abscissa


def _sorted(vals):
    return sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _assert_spectra_match(got, want, tol=1e-9):
    got = _sorted(got)
    want = _sorted(want)
    assert len(got) == len(want)
    scale = max(1.0, max(abs(w) for w in want))
    for g, w in zip(got, want):
        assert abs(g - w) <= tol * scale, (g, w)


def test_diagonal_two_by_two():
    vals = eigenvalues(np.diag([3.0, -1.0]))
    _assert_spectra_match(vals, [3.0, -1.0], tol=1e-12)


def test_rotation_generator_gives_conjugate_pair():
    vals = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    _assert_spectra_match(vals, [1j, -1j], tol=1e-12)
    assert vals[0] == vals[1].conjugate()


def test_known_schur_construction_recovered():
    # assemble A = Q T Q^T from a chosen quasi-triangular T, then ask
    # the solver for T's spectrum back
    rng = np.random.default_rng(42)
    t = np.triu(rng.uniform(-1.0, 1.0, (6, 6)))
    t[0, 0], t[1, 1] = 1.5, -2.5
    # one complex block with eigenvalues 0.3 +/- 0.7i
    t[2, 2] = t[3, 3] = 0.3
    t[2, 3], t[3, 2] = 0.7, -0.7
    t[3, 2 + 2 :] = t[3, 2 + 2 :] * 0 + rng.uniform(-1, 1, 2)
    t[4, 4], t[5, 5] = 0.9, 0.1
    t[3, 2] = -0.7
    q, _ = np.linalg.qr(rng.uniform(-1.0, 1.0, (6, 6)))
    a = q @ t @ q.T
    want = [1.5, -2.5, 0.3 + 0.7j, 0.3 - 0.7j, 0.9, 0.1]
    _assert_spectra_match(eigenvalues(a), want, tol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 11, 16])
def test_random_spectra_match_reference(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        a = rng.uniform(-2.0, 2.0, (n, n))
        _assert_spectra_match(eigenvalues(a), np.linalg.eigvals(a), tol=1e-8)


def test_conjugate_pairs_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vals = eigenvalues(rng.uniform(-1.0, 1.0, (6, 6)))
        complex_vals = [z for z in vals if z.imag != 0.0]
        assert len(complex_vals) % 2 == 0
        remaining = list(complex_vals)
        while remaining:
            z = remaining.pop()
            assert z.conjugate() in remaining
            remaining.remove(z.conjugate())


def test_determinant_product_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, (6, 6))
        det = float(np.linalg.det(a))
        prod = complex(np.prod(eigenvalues(a)))
        assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))
        assert abs(prod.imag) <= 1e-8 * max(1.0, abs(det))


def test_hessenberg_similarity_and_structure():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (7, 7))
    h, q = hessenberg(a)
    assert np.allclose(q @ h @ q.T, a, atol=1e-12)
    assert np.allclose(q @ q.T, np.eye(7), atol=1e-12)
    below = np.tril(h, -2)
    assert np.max(np.abs(below)) == 0.0


def test_real_schur_factorization():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, (6, 6))
        t, q = real_schur(a)
        assert np.allclose(q @ t @ q.T, a, atol=1e-10)
        assert np.allclose(q @ q.T, np.eye(6), atol=1e-12)
        # quasi-triangular: nothing below the first subdiagonal, and no
        # two consecutive nonzero subdiagonal entries
        assert np.max(np.abs(np.tril(t, -2))) == 0.0
        sub = np.abs(np.diag(t, -1)) > 0.0
        assert not np.any(sub[:-1] & sub[1:])


def test_identity_and_repeated_eigenvalues():
    _assert_spectra_match(eigenvalues(np.eye(6)), [1.0] * 6, tol=1e-12)
    a = np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 0.5])
    _assert_spectra_match(eigenvalues(a), [2, 2, 2, -1, -1, 0.5], tol=1e-10)


def test_defective_jordan_like_block():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    _assert_spectra_match(eigenvalues(a), [1.0, 1.0], tol=1e-7)


def test_zero_matrix():
    _assert_spectra_match(eigenvalues(np.zeros((4, 4))), [0.0] * 4, tol=1e-12)


def test_margin_below_the_floor_reads_zero():
    # LAPACK resolves a margin only beyond about eps max|A|; within 8 eps s
    # of 0, s = max|A| rounded up to a power of two, it reads 0.0 (not
    # stable), beyond it is kept
    eps = np.finfo(float).eps
    assert spectral_abscissa(np.diag([-4.0 * eps, -1.0])) == 0.0
    assert spectral_abscissa(np.diag([-4.0 * eps, -1.0]) * 1e8) == 0.0
    assert spectral_abscissa(np.diag([-16.0 * eps, -1.0])) == -16.0 * eps
    assert spectral_abscissa(np.diag([4.0 * eps, -1.0])) == 4.0 * eps


def test_size_cap_enforced():
    with pytest.raises(EigenFailure):
        eigenvalues(np.eye(17))


def test_non_finite_rejected():
    a = np.eye(3)
    a[1, 2] = np.inf
    with pytest.raises(EigenFailure):
        eigenvalues(a)


def test_non_square_rejected():
    with pytest.raises(EigenFailure):
        eigenvalues(np.zeros((3, 4)))
