"""Covariance containers, symplectic spectra, and the Lyapunov solver."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import lgsteer.gaussian
from lgsteer import (
    CovarianceMatrix,
    MODE_ORDER,
    NonPhysicalInput,
    NonPositiveDeterminant,
    SolveFailure,
    UnknownMode,
    build_model,
    full_report,
    lyapunov_oracle,
    lyapunov_residual,
    min_pt_symplectic,
    steady_covariance,
    steady_covariances,
    symplectic_eigenvalues,
    symplectic_form,
)
from lgsteer.validation import _random_stable_systems

from conftest import (
    REF_NUS_BLUE,
    REF_V_BLUE,
    W1,
    block,
    counted_linalg,
    make_params,
    transposed,
)


def tmsv(r: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum, squeezing parameter r."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    v = 0.5 * np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    return CovarianceMatrix(v, ("alpha", "beta"))


def thermal(nbars) -> CovarianceMatrix:
    diag = []
    for n in nbars:
        diag.extend([n + 0.5, n + 0.5])
    labels = tuple(f"m{i}" for i in range(len(nbars)))
    return CovarianceMatrix(np.diag(diag), labels)


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s], [-s, c]])


def squeezer(r: float) -> np.ndarray:
    return np.diag([math.exp(r), math.exp(-r)])


def beamsplitter(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, c, 0.0, s],
            [-s, 0.0, c, 0.0],
            [0.0, -s, 0.0, c],
        ]
    )


def two_mode_symplectic() -> np.ndarray:
    """Rotations * beamsplitter * squeezers; checked symplectic in-test."""
    local_rot = np.block(
        [[rotation(0.3), np.zeros((2, 2))], [np.zeros((2, 2)), rotation(-0.7)]]
    )
    local_sq = np.block(
        [[squeezer(0.5), np.zeros((2, 2))], [np.zeros((2, 2)), squeezer(-0.2)]]
    )
    return local_rot @ beamsplitter(0.4) @ local_sq


def blue_covariance() -> CovarianceMatrix:
    m = build_model(make_params(detuning=+W1))
    return steady_covariance(m.drift / W1, m.diffusion / W1)[1]


class TestCovarianceMatrix:
    def test_symmetrized_on_construction(self):
        raw = np.array([[1.0, 0.2], [0.0, 1.0]])
        cm = CovarianceMatrix(raw, ("solo",))
        assert cm.data[0, 1] == cm.data[1, 0] == 0.1

    def test_largest_entries_stay_finite(self):
        # halved before they are summed, so the sum cannot overflow, which
        # the suite's warnings-as-errors filter would also catch
        big = np.finfo(float).max
        for top in (1e308, big):
            cm = CovarianceMatrix(top * np.eye(2), ("solo",))
            assert cm.data.tolist() == [[top, 0.0], [0.0, top]]

    def test_data_is_frozen(self):
        cm = CovarianceMatrix(np.eye(2), ("solo",))
        with pytest.raises(ValueError):
            cm.data[0, 0] = 5.0

    def test_shape_must_match_labels(self):
        with pytest.raises(NonPhysicalInput, match="shape"):
            CovarianceMatrix(np.eye(4), ("solo",))

    def test_rejects_repeated_labels(self):
        # a repeated label would make every cut by name pick the wrong rows
        data = tmsv(1.0).data
        with pytest.raises(NonPhysicalInput, match="repeat"):
            CovarianceMatrix(data, ("a", "a"))
        CovarianceMatrix(data, ("a", "b"))

    def test_rejects_non_finite(self):
        bad = np.eye(2)
        bad[0, 0] = math.nan
        with pytest.raises(NonPhysicalInput, match="non-finite"):
            CovarianceMatrix(bad, ("solo",))

    def test_n_modes(self):
        assert CovarianceMatrix(np.eye(6) / 2, MODE_ORDER).n_modes == 3

    def test_check_physical(self):
        CovarianceMatrix(np.eye(2) / 2, ("solo",)).check_physical()
        with pytest.raises(NonPhysicalInput, match="Heisenberg"):
            CovarianceMatrix(0.4 * np.eye(2), ("solo",)).check_physical()


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), [[0.0, 1.0], [-1.0, 0.0]])

    def test_squares_to_minus_identity(self):
        for n in (1, 2, 3):
            omega = symplectic_form(n)
            assert np.array_equal(omega @ omega, -np.eye(2 * n))
            assert np.array_equal(omega.T, -omega)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        for n in (1, 2, 3):
            labels = tuple(f"m{i}" for i in range(n))
            cm = CovarianceMatrix(0.5 * np.eye(2 * n), labels)
            assert symplectic_eigenvalues(cm) == pytest.approx([0.5] * n, abs=1e-12)

    def test_thermal(self):
        nus = symplectic_eigenvalues(thermal([0.0, 2.0, 0.5]))
        assert nus == pytest.approx([0.5, 1.0, 2.5], abs=1e-10)

    def test_pure_squeezed_states(self):
        # squeezing is symplectic, so purity (nu = 1/2) survives
        sq = CovarianceMatrix(np.diag([math.e, 1.0 / math.e]) / 2.0, ("solo",))
        assert symplectic_eigenvalues(sq) == pytest.approx([0.5], abs=1e-10)
        assert symplectic_eigenvalues(tmsv(1.0)) == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_determinant_is_product_of_squares(self):
        cm = blue_covariance()
        nus = symplectic_eigenvalues(cm)
        prod = np.prod([nu**2 for nu in nus])
        assert np.linalg.det(cm.data) == pytest.approx(prod, rel=1e-8)

    def test_symplectic_invariance(self):
        s = two_mode_symplectic()
        omega = symplectic_form(2)
        assert np.allclose(s.T @ omega @ s, omega, atol=1e-12)
        for cm in (tmsv(0.6), block(blue_covariance(), ["mirror1", "mirror2"])):
            moved = CovarianceMatrix(s @ cm.data @ s.T, cm.mode_labels)
            assert symplectic_eigenvalues(moved) == pytest.approx(
                symplectic_eigenvalues(cm), rel=1e-8
            )

    def test_blue_point_regression(self):
        nus = symplectic_eigenvalues(blue_covariance())
        assert nus == pytest.approx(list(REF_NUS_BLUE), rel=1e-8)
        assert nus[0] >= 0.5 - 1e-9


class TestMinPtSymplectic:
    def test_two_mode_squeezed_closed_form(self):
        for r in (0.0, 0.25, 0.5, 1.0, 2.0):
            assert min_pt_symplectic(tmsv(r)) == pytest.approx(
                0.5 * math.exp(-2.0 * r), rel=1e-12
            )

    def test_product_state_unmoved_by_transpose(self):
        cm = thermal([1.0, 0.2])
        assert min_pt_symplectic(cm) == pytest.approx(0.7, abs=1e-12)

    def test_agrees_with_eigenvalue_route(self):
        blue = blue_covariance()
        cases = [
            tmsv(0.3),
            tmsv(0.9),
            block(blue, ["mirror1", "mirror2"]),
            block(blue, ["mirror1", "cavity"]),
            block(blue, ["mirror2", "cavity"]),
        ]
        for cm in cases:
            via_eig = symplectic_eigenvalues(transposed(cm, cm.mode_labels[1]))[0]
            assert min_pt_symplectic(cm) == pytest.approx(via_eig, rel=1e-7)

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode):
            min_pt_symplectic(tmsv(0.1), "gamma")

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(NonPhysicalInput, match="two-mode"):
            min_pt_symplectic(blue_covariance())

    def test_rejects_invalid_state(self):
        # symmetric matrix engineered so aleph^2 - 4 det V < 0; no Gaussian
        # state has that signature
        c = math.sqrt(2.4)
        v = np.array(
            [
                [1.0, 0.0, 0.0, c],
                [0.0, 1.0, -c, 0.0],
                [0.0, -c, 2.0, 0.0],
                [c, 0.0, 0.0, 2.0],
            ]
        )
        with pytest.raises(NonPhysicalInput, match="valid state"):
            min_pt_symplectic(CovarianceMatrix(v, ("alpha", "beta")))


class TestSteadyCovariance:
    def test_diagonal_analytic_solution(self):
        # A = -diag(a), D = diag(d)  =>  V = diag(d / 2a)
        rates = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        noise = np.array([1.0, 0.5, 2.0, 0.25, 3.0, 0.125])
        margin, cm = steady_covariance(np.diag(-rates), np.diag(noise))
        assert margin == pytest.approx(-0.5, abs=1e-12)
        assert np.allclose(cm.data, np.diag(noise / (2.0 * rates)), atol=1e-12)

    def test_identity_example(self):
        margin, cm = steady_covariance(-0.5 * np.eye(6), np.eye(6))
        assert margin == pytest.approx(-0.5, abs=1e-12)
        assert np.allclose(cm.data, np.eye(6), atol=1e-10)

    def test_zero_drift_reports_marginal(self):
        margin, cm = steady_covariance(np.zeros((6, 6)), np.eye(6))
        assert margin == 0.0
        assert cm is None

    def test_unstable_returns_margin_only(self):
        m = build_model(make_params(detuning=-W1))
        margin, cm = steady_covariance(m.drift / W1, m.diffusion / W1)
        assert cm is None
        assert margin > 0.0
        assert margin == pytest.approx(np.linalg.eigvals(m.drift / W1).real.max(), rel=1e-10)

    def test_margin_matches_stability_margin_when_stable(self):
        m = build_model(make_params(detuning=+W1))
        margin, cm = steady_covariance(m.drift / W1, m.diffusion / W1)
        assert cm is not None
        assert margin == pytest.approx(np.linalg.eigvals(m.drift / W1).real.max(), rel=1e-10)

    def test_margin_below_the_floor_reads_zero(self):
        # LAPACK resolves a margin only beyond about eps max|A|; within 8 eps s
        # of 0, s = max|A| rounded up to a power of two, it reads 0.0 (not
        # stable), beyond it is kept
        eps = np.finfo(float).eps
        drifts = [
            np.diag([-4.0 * eps] + [-1.0] * 5),
            np.diag([-4.0 * eps] + [-1.0] * 5) * 1e8,
            np.diag([-16.0 * eps] + [-1.0] * 5),
            np.diag([4.0 * eps] + [-1.0] * 5),
        ]
        margins = steady_covariances(drifts, [np.eye(6)] * 4)[0]
        assert margins.tolist() == [0.0, 0.0, -16.0 * eps, 4.0 * eps]

    def test_agrees_with_independent_oracle(self):
        m = build_model(make_params(detuning=+W1))
        a, d = m.drift / W1, m.diffusion / W1
        _, cm = steady_covariance(a, d)
        oracle = lyapunov_oracle(a, d)
        assert np.max(np.abs(cm.data - oracle.data)) < 1e-8

    def test_agrees_with_oracle_on_random_systems(self):
        rng = np.random.default_rng(7)
        for a, d in zip(*_random_stable_systems(rng, 10)):
            _, cm = steady_covariance(a, d)
            assert cm is not None
            assert np.max(np.abs(cm.data - lyapunov_oracle(a, d).data)) < 1e-7

    def test_unit_scale_independence(self):
        # V is dimensionless: solving in rad/s and in units of w1 must agree
        m = build_model(make_params(detuning=+W1))
        _, si = steady_covariance(m.drift, m.diffusion)
        _, scaled = steady_covariance(m.drift / W1, m.diffusion / W1)
        assert np.max(np.abs(si.data - scaled.data)) < 1e-9

    def test_rejects_wrong_shape(self):
        with pytest.raises(SolveFailure, match="6x6"):
            steady_covariance(-np.eye(4), np.eye(4))

    def test_rejects_asymmetric_diffusion(self):
        d = np.eye(6)
        d[0, 1] = 0.5
        with pytest.raises(SolveFailure, match="symmetric"):
            steady_covariance(-np.eye(6), d)

    def test_stack_rows_are_independent(self):
        # every kind of row in one stack: each gets exactly what it gets alone
        m = build_model(make_params(detuning=+W1))
        asym = np.eye(6)
        asym[0, 1] = 0.5
        nan_drift = -np.eye(6)
        nan_drift[2, 3] = math.nan
        rows = [
            (m.drift, m.diffusion),
            (-np.eye(4), np.eye(4)),
            (nan_drift, np.eye(6)),
            (-np.eye(6), asym),
            (build_model(make_params(detuning=-W1)).drift, m.diffusion),
            (-0.5 * np.eye(6), np.eye(6)),
            (m.drift, -m.diffusion),
        ]
        margins, covariances, errors = steady_covariances(*zip(*rows))
        for k, (a, d) in enumerate(rows):
            try:
                margin, cm = steady_covariance(a, d)
            except SolveFailure as exc:
                assert (type(errors[k]), str(errors[k])) == (SolveFailure, str(exc))
                assert np.isnan(margins[k]) == (k != 6)
                continue
            assert errors[k] is None
            assert margins[k] == margin
            if cm is None:
                assert np.isnan(covariances[k]).all()
            else:
                assert np.array_equal(covariances[k], cm.data)
        assert [e is None for e in errors] == [True, False, False, False, True, True, False]

    def test_rejects_inputs_of_different_lengths(self):
        # checked before any row is solved, in both directions
        a, d = -np.eye(6), np.eye(6)
        with pytest.raises(SolveFailure, match="2 drifts but 1 diffusions"):
            steady_covariances([a, a], [d])
        with pytest.raises(SolveFailure, match="1 drifts but 2 diffusions"):
            steady_covariances([a], [d, d])

    def test_bad_input_leaves_one_eigensolve(self, monkeypatch):
        # the input checks are a stage of their own: an asymmetric
        # diffusion re-runs them row by row, and the other 63 rows' margins
        # still come from one stacked eigvals call; the 64 drifts differ,
        # so the stack is not one shared drift
        block = build_model(make_params(), {"detuning": np.linspace(0.5, 1.5, 64) * W1})
        drifts, diffusions = list(block.drift), list(block.diffusion)
        bad = diffusions[17].copy()
        bad[0, 1] += 1e-3 * bad.max()
        diffusions[17] = bad
        calls = counted_linalg(monkeypatch, "eigvals")
        margins, _, errors = steady_covariances(drifts, diffusions)
        assert calls == [63]
        assert isinstance(errors[17], SolveFailure)
        assert str(errors[17]) == "diffusion matrix is not symmetric"
        assert math.isnan(margins[17]) and errors.count(None) == 63
        alone = [steady_covariance(a, d)[0] for a, d in zip(drifts, block.diffusion)]
        assert (np.delete(margins, 17) == np.delete(alone, 17)).all()

    @staticmethod
    def _rows_alone(drifts, diffusions, margins, covariances) -> None:
        for k, (a, d) in enumerate(zip(drifts, diffusions)):
            margin, cm = steady_covariance(a, d)
            assert margins[k] == margin and cm is not None
            assert covariances[k].tobytes() == cm.data.tobytes(), k

    def test_one_shared_drift_is_solved_once(self, monkeypatch):
        # a temperature axis moves D only: its stack of one drift takes one
        # eigvals and one operator inverse, and each row refines against
        # its own D to what it gets alone, bit for bit
        block = build_model(make_params(detuning=+W1),
                            {"temperature": np.geomspace(1e-3, 1.0, 51)})
        assert block.drift.shape == (51, 6, 6) and (block.drift == block.drift[0]).all()
        assert len({d.tobytes() for d in block.diffusion}) == 51
        calls = {name: counted_linalg(monkeypatch, name) for name in ("eigvals", "inv")}
        margins, covariances, errors = steady_covariances(block.drift, block.diffusion)
        assert calls == {"eigvals": [1], "inv": [1]}
        monkeypatch.undo()
        assert errors == [None] * 51
        self._rows_alone(block.drift, block.diffusion, margins, covariances)

    def test_one_differing_drift_takes_the_stacked_path(self, monkeypatch):
        m = build_model(make_params(detuning=+W1))
        drifts = [m.drift] * 64
        drifts[40] = build_model(make_params(detuning=+1.1 * W1)).drift
        diffusions = [m.diffusion] * 64
        calls = {name: counted_linalg(monkeypatch, name) for name in ("eigvals", "inv")}
        margins, covariances, errors = steady_covariances(drifts, diffusions)
        assert calls == {"eigvals": [64], "inv": [64]}
        monkeypatch.undo()
        assert errors == [None] * 64
        self._rows_alone(drifts, diffusions, margins, covariances)

    def test_drift_peak_above_2_to_1023_keeps_its_margin(self):
        # such a drift is scaled by 2**1023, the largest finite power of
        # two, so its margin is its model's margin times the factor, with
        # no overflow; the stable one's det(2V) then underflows to 0
        m = build_model(make_params(detuning=+W1))
        a = m.drift * 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            margins, covariances, errors = steady_covariances([a], [m.diffusion])
        margin, cm = steady_covariance(a, m.diffusion)
        assert margins[0] == margin
        assert margin == pytest.approx(np.linalg.eigvals(a).real.max(), rel=2e-14)
        assert margin == pytest.approx(-5.8358652736951e306, rel=1e-14)
        assert margin == pytest.approx(1e300 * np.linalg.eigvals(m.drift).real.max(), rel=2e-14)
        assert errors == [None] and np.isfinite(covariances).all() and cm is not None
        underflow = r"det\(2V\) = 0.0 is not positive"
        with pytest.raises(NonPositiveDeterminant, match=underflow):
            full_report(dataclasses.replace(m, drift=a))
        red = build_model(make_params(detuning=-W1))
        report = full_report(dataclasses.replace(red, drift=red.drift * 1e300))
        assert report.stable is False
        assert report.stability_margin == pytest.approx(
            1e300 * np.linalg.eigvals(red.drift).real.max(), rel=2e-14
        )

    def test_blue_point_regression(self):
        cm = blue_covariance()
        for (i, j), value in REF_V_BLUE.items():
            assert cm.data[i, j] == pytest.approx(value, rel=1e-8)

    def test_blue_point_residual_and_physicality(self):
        m = build_model(make_params(detuning=+W1))
        a, d = m.drift / W1, m.diffusion / W1
        cm = steady_covariance(a, d)[1]
        assert lyapunov_residual(a, d, cm) < 1e-10
        cm.check_physical()

    def test_pumped_point_physical(self):
        m = build_model(
            make_params(detuning=+W1, opa_gain=0.1 * W1, opa_phase=math.pi / 2)
        )
        cm = steady_covariance(m.drift / W1, m.diffusion / W1)[1]
        cm.check_physical()

    def test_labels_follow_mode_order(self):
        assert blue_covariance().mode_labels == MODE_ORDER


class TestSymmetricUnknowns:
    """The solve for the 21 unknowns of a symmetric V."""

    @staticmethod
    def restricted(a: np.ndarray) -> np.ndarray:
        # E (I (x) A + A (x) I) P: P duplicates the upper triangle into the
        # row-major vec V, E keeps its rows
        rows, cols = np.triu_indices(6)
        index = np.zeros((6, 6), dtype=int)
        index[rows, cols] = index[cols, rows] = np.arange(21)
        dup = np.eye(21)[index.ravel()]
        elim = np.eye(36)[6 * rows + cols]
        return elim @ (np.kron(np.eye(6), a) + np.kron(a, np.eye(6))) @ dup

    def test_operator_is_the_restricted_kronecker_sum(self):
        rng = np.random.default_rng(16)
        drifts = _random_stable_systems(rng, 5)[0]
        ops = lgsteer.gaussian._operator(drifts)
        assert ops.shape == (5, 21, 21)
        for a, op in zip(drifts, ops):
            assert np.array_equal(op, self.restricted(a))

    def test_eigenvalues_are_the_pair_sums(self):
        a = _random_stable_systems(np.random.default_rng(21), 1)[0][0]
        lam = np.linalg.eigvals(a)
        rows, cols = np.triu_indices(6)
        want = lam[rows] + lam[cols]
        got = np.linalg.eigvals(lgsteer.gaussian._operator(a[None])[0])
        tol = 1e-12 * np.abs(want).max()
        assert np.abs(got[:, None] - want[None, :]).min(axis=0).max() < tol
        assert np.abs(want[:, None] - got[None, :]).min(axis=0).max() < tol

    def test_agrees_with_oracle_within_its_accuracy(self):
        # the oracle is an unrefined dense solve of the 36x36 system: its
        # forward error is about eps cond_2(I (x) A + A (x) I) max|V|; the
        # solution is exactly symmetric with no symmetrizing step
        rng = np.random.default_rng(2026)
        drifts, diffusions = _random_stable_systems(rng, 40)
        _, covariances, errors = steady_covariances(drifts, diffusions)
        assert errors == [None] * 40
        eps = np.finfo(float).eps
        for a, d, v in zip(drifts, diffusions, covariances):
            assert np.array_equal(v, v.T)
            cond = np.linalg.cond(np.kron(np.eye(6), a) + np.kron(a, np.eye(6)))
            err = np.abs(v - lyapunov_oracle(a, d).data).max()
            assert err <= 2.0 * eps * cond * np.abs(v).max()


class TestNearMarginalPoint:
    """Equal mirror frequencies at the margin of stability.

    The point is detuning 0, OPA gain 0.1 w1 at phase 0, T = 0 and
    omega_phi2 = w1, with the other parameters at their table defaults.
    Its margin is -2.5e-8 w1 and cond_2(I (x) A + A (x) I) is about 1e8,
    so a solve that stops at a small backward error is off by ~1e-8.

    Provenance of the reference values: the float64 drift and diffusion
    of ``build_model`` (SI units) were taken as exact, the 36x36
    Kronecker system of A V + V A^T = -D was solved in 50-digit mpmath
    arithmetic, and each symplectic eigenvalue is the modulus of a
    50-digit eigenvalue of Omega V~, V~ the partially transposed state.
    """

    NU_PT_M1_CAVITY = 0.8220943092904425
    NU_MIRROR1_REST = 0.34794529845637273
    NU_CAVITY_REST = 0.5

    @staticmethod
    def model():
        return build_model(
            make_params(
                detuning=0.0,
                opa_gain=0.1 * W1,
                opa_phase=0.0,
                temperature=0.0,
                omega_phi2=W1,
            )
        )

    def covariance(self) -> CovarianceMatrix:
        m = self.model()
        _, cm = steady_covariance(m.drift, m.diffusion)
        return cm

    def test_pair_partial_transpose(self):
        nu = min_pt_symplectic(block(self.covariance(), ["mirror1", "cavity"]))
        assert nu == pytest.approx(self.NU_PT_M1_CAVITY, rel=1e-8)

    def test_one_vs_two_spectra(self):
        cm = self.covariance()
        nu_m1 = symplectic_eigenvalues(transposed(cm, "mirror1"))[0]
        nu_cav = symplectic_eigenvalues(transposed(cm, "cavity"))[0]
        assert nu_m1 == pytest.approx(self.NU_MIRROR1_REST, rel=1e-8)
        assert nu_cav == pytest.approx(self.NU_CAVITY_REST, abs=1e-8)

    def test_no_spurious_residual_contangle(self):
        assert full_report(self.model()).r_min == 0


class TestLyapunovResidual:
    def test_exact_formula(self):
        a = np.eye(6)
        d = np.ones((6, 6))
        v = np.eye(6)
        # A V + V A^T + D = 2 I + ones: max entry 3
        assert lyapunov_residual(a, d, v) == 3.0

    def test_accepts_covariance_wrapper(self):
        cm = CovarianceMatrix(np.eye(6), MODE_ORDER)
        assert lyapunov_residual(np.eye(6), np.zeros((6, 6)), cm) == 2.0
