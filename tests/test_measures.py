"""Entanglement, steering, monogamy, and the per-point report."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import lgsteer.measures
from lgsteer import (
    CorrelationReport,
    CovarianceMatrix,
    LgsteerError,
    LinearModel,
    NonPhysicalInput,
    NonPositiveDeterminant,
    SolveFailure,
    SteeringClass,
    UnknownMode,
    build_diffusion,
    build_drift,
    build_model,
    derive,
    full_report,
    log_negativity,
    lyapunov_oracle,
    min_pt_symplectic,
    preset_variants,
    residual_contangle_min,
    renyi2_entropy,
    steady_covariance,
    steady_state,
    steering,
    steering_asymmetry,
    symplectic_eigenvalues,
    symplectic_form,
    table_defaults,
    with_updates,
)
from lgsteer.gaussian import _Rows, _scale
from lgsteer.measures import (
    _CLASSES,
    _HIERARCHY_TOL,
    _class_codes,
    _Columns,
    _en,
    _pairs,
    _report_columns,
    _reports,
    _residual_min,
)

from conftest import (
    REF_EN_CAV_SPLIT_PUMPED,
    REF_EN_M1C_BLUE,
    REF_MARGIN_BLUE,
    REF_RMIN_BLUE,
    W1,
    block,
    make_params,
    params_at,
)


def tmsv(r: float, labels=("alpha", "beta")) -> CovarianceMatrix:
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    z = np.diag([1.0, -1.0])
    v = 0.5 * np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])
    return CovarianceMatrix(v, labels)


def tmsv_plus_vacuum(r: float) -> CovarianceMatrix:
    v = np.eye(6) * 0.5
    v[0:4, 0:4] = tmsv(r).data
    return CovarianceMatrix(v, ("alpha", "beta", "gamma"))


def noisy_tmsv(r: float, t_beta: float) -> CovarianceMatrix:
    """TMSV with extra thermal noise on beta only; one-way regime for
    moderate noise."""
    v = tmsv(r).data + np.diag([0.0, 0.0, t_beta, t_beta])
    return CovarianceMatrix(v, ("alpha", "beta"))


def local_symplectic(phi1, r1, phi2, r2) -> np.ndarray:
    def rot(phi):
        c, s = math.cos(phi), math.sin(phi)
        return np.array([[c, s], [-s, c]])

    def sq(r):
        return np.diag([math.exp(r), math.exp(-r)])

    s1 = rot(phi1) @ sq(r1)
    s2 = rot(phi2) @ sq(r2)
    out = np.zeros((4, 4))
    out[0:2, 0:2] = s1
    out[2:4, 2:4] = s2
    return out


def class_of(zeta_ab: float, zeta_ba: float) -> SteeringClass:
    """The steering class of one pair of ζ, α steering β first."""
    return _CLASSES[_class_codes(np.array([[zeta_ab, zeta_ba]]))[0]]


def blue_model() -> LinearModel:
    return build_model(make_params(detuning=+W1))


class TestLogNegativity:
    def test_two_mode_squeezed(self):
        # determinant arithmetic loses a few digits at strong squeezing
        for r in (0.1, 0.5, 1.0, 2.0):
            assert log_negativity(tmsv(r)) == pytest.approx(2.0 * r, abs=1e-9)

    def test_separable_states_clamp_to_zero(self):
        vac = CovarianceMatrix(0.5 * np.eye(4), ("alpha", "beta"))
        assert log_negativity(vac) == 0.0
        hot = CovarianceMatrix(np.diag([1.5, 1.5, 0.7, 0.7]), ("alpha", "beta"))
        assert log_negativity(hot) == 0.0

    def test_wrong_mode_count(self):
        with pytest.raises(NonPhysicalInput, match="two-mode"):
            log_negativity(tmsv_plus_vacuum(0.5))

    @pytest.mark.parametrize("nu_max", [0.5, 3.0, 2.8e7])
    def test_nu_within_the_spectrum_accuracy_of_half_is_not_entangled(self, nu_max):
        # the spectrum is accurate to eps nu_max: a nu that close below 1/2
        # gives EN = 0, one just further below gives -ln(2 nu) > 0
        band = np.finfo(float).eps * nu_max
        outside = 0.5 - 2.0 * band
        nus = np.array([0.5, 0.5 - band, 0.5 - 0.5 * band, outside])
        en = _en(nus, np.full(4, nu_max)).tolist()
        assert en[:3] == [0.0, 0.0, 0.0]
        assert en[3] == -math.log(2.0 * outside) > 0.0

    def test_band_follows_the_cut_spectrum(self):
        # the same nu is resolved below 1/2 in a narrow spectrum and not in
        # a wide one
        nu = 0.5 - 1e-9
        en = _en(np.array([nu, nu, 0.3]), np.array([1.0, 1e7, 1e7])).tolist()
        assert en[0] == pytest.approx(2e-9, rel=1e-6)
        assert en[1] == 0.0
        assert en[2] == -math.log(0.6)

    def test_local_symplectic_invariance(self):
        s = local_symplectic(0.4, 0.3, -1.1, -0.2)
        for cm in (tmsv(0.7), noisy_tmsv(0.5, 0.2)):
            moved = CovarianceMatrix(s @ cm.data @ s.T, cm.mode_labels)
            assert log_negativity(moved) == pytest.approx(
                log_negativity(cm), abs=1e-8
            )

    def test_noise_monotonicity(self):
        # symmetric added noise can only wash entanglement out
        base = tmsv(0.5).data
        levels = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
        ens = [
            log_negativity(CovarianceMatrix(base + t * np.eye(4), ("alpha", "beta")))
            for t in levels
        ]
        for a, b in zip(ens, ens[1:]):
            assert b <= a + 1e-10


class TestOneVsTwo:
    def test_product_vacuum(self):
        cm = CovarianceMatrix(0.5 * np.eye(6), ("alpha", "beta", "gamma"))
        for label in cm.mode_labels:
            assert log_negativity(cm, label) == 0.0

    def test_pair_plus_spectator(self):
        # spectator mode contributes nothing: E(a|bc) equals E(a|b)
        cm = tmsv_plus_vacuum(0.6)
        assert log_negativity(cm, "alpha") == pytest.approx(1.2, rel=1e-9)
        assert log_negativity(cm, "gamma") == 0.0

    def test_wrong_mode_count(self):
        # only a two-mode state leaves the transposed mode implicit
        with pytest.raises(NonPhysicalInput, match="two-mode"):
            log_negativity(tmsv_plus_vacuum(0.5))
        with pytest.raises(NonPhysicalInput, match="two-mode"):
            min_pt_symplectic(tmsv_plus_vacuum(0.5))

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode):
            log_negativity(tmsv_plus_vacuum(0.5), "delta")

    def test_two_mode_cut_may_name_either_mode(self):
        cm = noisy_tmsv(0.5, 0.2)
        assert log_negativity(cm, "alpha") == log_negativity(cm)
        assert log_negativity(cm, "beta") == log_negativity(cm)

    def test_pumped_cavity_split_regression(self):
        m = build_model(
            make_params(detuning=+W1, opa_gain=0.1 * W1, opa_phase=math.pi / 2)
        )
        cm = steady_covariance(m.drift / W1, m.diffusion / W1)[1]
        assert log_negativity(cm, "cavity") == pytest.approx(
            REF_EN_CAV_SPLIT_PUMPED, rel=1e-8
        )


class TestResidualContangle:
    def test_unresolved_cut_is_zero_on_every_path(self):
        # equal mirrors at T = 0, Delta = 0, chi = 0.1 w1: the exact
        # nu(cavity | rest) is 1/2 and nu_max is about 3e7, so the cut is
        # not entangled whichever function reads it
        model = build_model(
            make_params(
                detuning=0.0, opa_gain=0.1 * W1, opa_phase=0.0, temperature=0.0, omega_phi2=W1
            )
        )
        _, cm = steady_covariance(model.drift, model.diffusion)
        assert log_negativity(cm, "cavity") == 0.0
        assert residual_contangle_min(cm) == full_report(model).r_min == 0.0

    def test_product_state(self):
        cm = CovarianceMatrix(0.5 * np.eye(6), ("alpha", "beta", "gamma"))
        assert residual_contangle_min(cm) == 0.0

    def test_pair_plus_spectator(self):
        # all pairwise entanglement lives in the alpha-beta link, so the
        # residual saturates at zero
        assert residual_contangle_min(tmsv_plus_vacuum(0.4)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_blue_point_regression(self):
        m = blue_model()
        cm = steady_covariance(m.drift / W1, m.diffusion / W1)[1]
        r_min = residual_contangle_min(cm)
        assert r_min == pytest.approx(REF_RMIN_BLUE, rel=1e-7)
        assert r_min >= 0.0

    def test_negative_residual_is_a_result(self):
        # degenerate mirrors at T = 0, far blue of resonance: the squared
        # negativities of this mixed state break the monogamy inequality
        # (proven for the Gaussian contangle, not for EN^2), and the
        # signed residual is reported instead of raising
        m = build_model(make_params(omega_phi2=W1, temperature=0.0, detuning=1.9 * W1))
        cm = steady_covariance(m.drift, m.diffusion)[1]
        r_min = residual_contangle_min(cm)
        # the cavity split is the one that fails
        e_cut = log_negativity(cm, "cavity") ** 2
        e_pairs = [
            log_negativity(block(cm, (m, "cavity"))) ** 2 for m in ("mirror1", "mirror2")
        ]
        assert r_min == pytest.approx(-2.812e-3, rel=1e-3)
        assert r_min == pytest.approx(e_cut - sum(e_pairs), rel=1e-12)
        assert full_report(m).r_min == r_min

    def test_cloned_correlations_rejected(self):
        # no physical state correlates one mode identically with two
        # others this strongly; the matrix is not even positive definite
        # (smallest eigenvalue cosh(1.6)/2 - sqrt(2) sinh(1.6)/2 < 0), so it
        # is rejected as a state before any monogamy residual exists
        r = 0.8
        a, c = math.cosh(2.0 * r) / 2.0, math.sinh(2.0 * r) / 2.0
        z = np.diag([1.0, -1.0])
        eye2 = np.eye(2)
        zero = np.zeros((2, 2))
        v = np.block(
            [[a * eye2, c * z, c * z], [c * z, a * eye2, zero], [c * z, zero, a * eye2]]
        )
        cm = CovarianceMatrix(v, ("alpha", "beta", "gamma"))
        with pytest.raises(NonPhysicalInput, match="not positive definite"):
            residual_contangle_min(cm)

    def test_wrong_mode_count(self):
        with pytest.raises(NonPhysicalInput, match="three-mode"):
            residual_contangle_min(tmsv(0.3))

    def test_squares_are_the_pow_squares_bit_for_bit(self):
        # a split EN x beside no pair EN gives R_min = x**2, and a pair EN x
        # beside no split EN gives -x**2: Python's squares (libm pow), bit
        # for bit, on seeded values some of which x * x rounds otherwise
        x = np.random.default_rng(33).uniform(0.01, 2.0, 20000)
        squares = [e**2 for e in x.tolist()]
        assert (x * x != squares).sum() > 5
        zero, three = np.zeros_like(x), np.full_like(x, 3.0)
        by_split = _residual_min(np.stack([zero] * 3, axis=1), np.stack([x, three, three], 1))
        by_pair = _residual_min(np.stack([x, zero, zero], 1), np.stack([zero, three, three], 1))
        assert by_split.tolist() == squares
        assert by_pair.tolist() == [-sq for sq in squares]


class TestRenyi2Entropy:
    def test_vacuum_is_pure(self):
        assert renyi2_entropy(
            CovarianceMatrix(0.5 * np.eye(2), ("solo",))
        ) == pytest.approx(0.0, abs=1e-12)

    def test_thermal(self):
        for n in (0.5, 1.0, 5.0):
            cm = CovarianceMatrix((n + 0.5) * np.eye(2), ("solo",))
            assert renyi2_entropy(cm) == pytest.approx(
                math.log(2.0 * n + 1.0), rel=1e-12
            )

    def test_pure_two_mode_squeezed(self):
        assert renyi2_entropy(tmsv(0.9)) == pytest.approx(0.0, abs=1e-9)

    def test_reduced_squeezed_mode_is_thermal(self):
        solo = block(tmsv(0.7), ("alpha",))
        assert renyi2_entropy(solo) == pytest.approx(
            math.log(math.cosh(2.0 * 0.7)), rel=1e-12
        )

    def test_rejects_nonpositive_determinant(self):
        bad = CovarianceMatrix(np.diag([-0.5, 0.5]), ("solo",))
        with pytest.raises(NonPositiveDeterminant):
            renyi2_entropy(bad)


class TestSteering:
    def test_two_mode_squeezed_symmetric(self):
        for r in (0.25, 0.5, 1.0):
            cm = tmsv(r)
            expected = math.log(math.cosh(2.0 * r))
            assert steering(cm, "beta") == pytest.approx(expected, rel=1e-9)
            assert steering(cm, "alpha") == pytest.approx(expected, rel=1e-9)

    def test_product_state_no_steering(self):
        cm = CovarianceMatrix(np.diag([1.5, 1.5, 0.5, 0.5]), ("alpha", "beta"))
        assert steering(cm, "alpha") == 0.0
        assert steering(cm, "beta") == 0.0

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode, match="'nope' not in"):
            steering(tmsv(0.5), "nope")

    def test_unknown_mode_before_the_state_is_measured(self):
        # det(2 V) of this matrix is negative, which the measure rejects;
        # a mode it does not have is rejected first
        cm = CovarianceMatrix(np.diag([0.5, 0.5, -1.0, 0.5]), ("a", "b"))
        with pytest.raises(NonPositiveDeterminant):
            steering(cm, "a")
        with pytest.raises(UnknownMode, match="'zzz' not in"):
            steering(cm, "zzz")

    def test_one_way_regime(self):
        # thermal noise on beta breaks the symmetry: the noisy beta can
        # still steer alpha, alpha can no longer steer beta
        cm = noisy_tmsv(0.5, 0.3)
        z_ba = steering(cm, "beta")
        z_ab = steering(cm, "alpha")
        assert z_ba > 0.05
        assert z_ab == 0.0
        assert class_of(z_ab, z_ba) is SteeringClass.ONE_WAY_BETA_TO_ALPHA

    def test_direction_from_conditional_state(self):
        # beta steers alpha iff alpha conditioned on a Gaussian measurement
        # of beta is squeezed below vacuum: det 2(V_a - C V_b^-1 C^T) < 1,
        # and then the steering is -ln(that determinant) / 2
        cm = noisy_tmsv(0.5, 0.2)
        v = cm.data
        va, vb, c = v[:2, :2], v[2:, 2:], v[:2, 2:]
        det_a_given_b = np.linalg.det(2.0 * (va - c @ np.linalg.inv(vb) @ c.T))
        det_b_given_a = np.linalg.det(2.0 * (vb - c.T @ np.linalg.inv(va) @ c))
        assert det_a_given_b == pytest.approx(0.6928, abs=1e-4)
        assert det_b_given_a > 1.0
        assert steering(cm, by="beta") == pytest.approx(
            -0.5 * math.log(det_a_given_b), rel=1e-12
        )
        assert steering(cm, by="beta") == pytest.approx(0.1836, abs=1e-4)
        assert steering(cm, by="alpha") == 0.0

    def test_heavy_noise_kills_both_directions(self):
        cm = noisy_tmsv(0.5, 1.0)
        assert steering(cm, "beta") == 0.0
        assert steering(cm, "alpha") == 0.0

    def test_local_symplectic_invariance(self):
        s = local_symplectic(-0.9, 0.25, 0.6, -0.35)
        cm = noisy_tmsv(0.5, 0.3)
        moved = CovarianceMatrix(s @ cm.data @ s.T, cm.mode_labels)
        assert steering(moved, "beta") == pytest.approx(
            steering(cm, "beta"), abs=1e-8
        )
        assert steering(moved, "alpha") == pytest.approx(
            steering(cm, "alpha"), abs=1e-8
        )

    def test_wrong_mode_count(self):
        with pytest.raises(NonPhysicalInput, match="two-mode"):
            steering(tmsv_plus_vacuum(0.5), "alpha")


class TestClassification:
    def test_asymmetry(self):
        assert steering_asymmetry(0.3, 0.1) == pytest.approx(0.2)
        assert steering_asymmetry(0.1, 0.3) == pytest.approx(0.2)
        assert steering_asymmetry(0.0, 0.0) == 0.0

    @pytest.mark.parametrize(
        "z_ab, z_ba, expected",
        [
            (0.0, 0.0, SteeringClass.NO_WAY),
            (1e-13, 1e-13, SteeringClass.NO_WAY),  # dust below tolerance
            (1e-3, 0.0, SteeringClass.ONE_WAY_ALPHA_TO_BETA),
            (0.0, 1e-3, SteeringClass.ONE_WAY_BETA_TO_ALPHA),
            (1.0, 2.0, SteeringClass.TWO_WAY),
        ],
    )
    def test_classify(self, z_ab, z_ba, expected):
        assert class_of(z_ab, z_ba) is expected

    def test_enum_values(self):
        assert {c.value for c in SteeringClass} == {
            "no_way",
            "one_way_alpha_to_beta",
            "one_way_beta_to_alpha",
            "two_way",
        }


class TestCorrelationReport:
    def test_unstable_must_stay_empty(self):
        CorrelationReport(stable=False, stability_margin=0.1)  # fine
        with pytest.raises(NonPhysicalInput, match="unstable"):
            CorrelationReport(stable=False, stability_margin=0.1, en_mm=0.0)

    def test_stable_must_be_complete(self):
        with pytest.raises(NonPhysicalInput, match="missing"):
            CorrelationReport(stable=True, stability_margin=-0.1, en_mm=0.0)

    def test_asymmetry_must_be_consistent(self):
        with pytest.raises(NonPhysicalInput, match="asymmetry"):
            CorrelationReport(
                stable=True,
                stability_margin=-0.1,
                en_mm=0.5,
                en_m1c=0.0,
                en_m2c=0.0,
                zeta_m1_m2=0.3,
                zeta_m2_m1=0.1,
                zeta_asym=0.15,  # should be 0.2
                steering_class=SteeringClass.TWO_WAY,
                r_min=0.0,
            )

    def test_steering_requires_entanglement(self):
        with pytest.raises(NonPhysicalInput, match="hierarchy"):
            CorrelationReport(
                stable=True,
                stability_margin=-0.1,
                en_mm=0.0,
                en_m1c=0.0,
                en_m2c=0.0,
                zeta_m1_m2=0.3,
                zeta_m2_m1=0.0,
                zeta_asym=0.3,
                steering_class=SteeringClass.ONE_WAY_ALPHA_TO_BETA,
                r_min=0.0,
            )


class TestFullReport:
    def test_blue_point(self):
        r = full_report(blue_model())
        assert r.stable is True
        assert r.stability_margin / W1 == pytest.approx(REF_MARGIN_BLUE, rel=1e-9)
        assert r.en_m1c == pytest.approx(REF_EN_M1C_BLUE, rel=1e-8)
        assert r.r_min == pytest.approx(REF_RMIN_BLUE, rel=1e-7)
        # the mirrors themselves stay separable and unsteerable here
        assert r.en_mm == 0.0
        assert r.zeta_m1_m2 == 0.0 == r.zeta_m2_m1
        assert r.zeta_asym == 0.0
        assert r.steering_class is SteeringClass.NO_WAY
        # only the mirror tuned near the drive detuning entangles with
        # the field at this point
        assert r.en_m2c == 0.0

    def test_red_point_unstable(self):
        r = full_report(build_model(make_params(detuning=-W1)))
        assert r.stable is False
        assert r.stability_margin > 0.0
        assert r.en_mm is None
        assert r.steering_class is None
        assert r.r_min is None

    def test_zero_drive_gives_thermal_product(self):
        d = replace(derive(make_params()), drive_amplitude=0.0)
        s = steady_state(d)
        model = LinearModel(
            drift=build_drift(d, s),
            diffusion=build_diffusion(d),
            steady=s,
            derived=d,
        )
        r = full_report(model)
        assert r.stable is True
        assert r.en_mm == 0.0
        assert r.en_m1c == 0.0 == r.en_m2c
        assert r.zeta_m1_m2 == 0.0 == r.zeta_m2_m1
        assert r.steering_class is SteeringClass.NO_WAY
        assert r.r_min == 0.0

    def test_twin_mirror_covariance_symmetry(self):
        # identical mirrors: swapping them while flipping the field sign
        # maps the steady state onto itself
        m = build_model(make_params(detuning=+1.4 * W1, omega_phi2=W1))
        cm = steady_covariance(m.drift / W1, m.diffusion / W1)[1]
        s = np.zeros((6, 6))
        s[0, 2] = s[1, 3] = s[2, 0] = s[3, 1] = 1.0
        s[4, 4] = s[5, 5] = -1.0
        assert np.max(np.abs(s @ cm.data @ s.T - cm.data)) < 1e-9
        r = full_report(m)
        assert r.en_m1c == pytest.approx(r.en_m2c, abs=1e-9)
        assert r.zeta_asym == pytest.approx(0.0, abs=1e-9)

    def test_steering_direction(self):
        # a strongly damped, narrow-cavity point where mirror 1 steers
        # mirror 2 one way; the direction is fixed by the conditional
        # state of mirror 2 given mirror 1, from an independent solve
        m = build_model(
            make_params(
                kappa_override=0.05 * W1,
                quality_factor=10.0,
                temperature=0.0,
                opa_gain=0.1 * W1,
                opa_phase=math.pi / 2,
                detuning=1.2 * W1,
            )
        )
        v = lyapunov_oracle(m.drift / W1, m.diffusion / W1).data
        v1, v2, c = v[0:2, 0:2], v[2:4, 2:4], v[0:2, 2:4]
        det_2_given_1 = np.linalg.det(2.0 * (v2 - c.T @ np.linalg.inv(v1) @ c))
        det_1_given_2 = np.linalg.det(2.0 * (v1 - c @ np.linalg.inv(v2) @ c.T))
        assert det_2_given_1 == pytest.approx(0.9606, abs=1e-4)
        assert det_1_given_2 > 1.0
        r = full_report(m)
        assert r.zeta_m1_m2 == pytest.approx(0.0201159, rel=1e-5)
        assert r.zeta_m1_m2 == pytest.approx(-0.5 * math.log(det_2_given_1), rel=1e-9)
        assert r.zeta_m2_m1 == 0.0
        assert r.steering_class is SteeringClass.ONE_WAY_ALPHA_TO_BETA

    def test_errors_tagged_with_detuning(self):
        m = blue_model()
        bad_drift = m.drift.copy()
        bad_drift[0, 0] = math.nan
        broken = LinearModel(
            drift=bad_drift,
            diffusion=m.diffusion,
            steady=m.steady,
            derived=m.derived,
        )
        with pytest.raises(SolveFailure, match="detuning_ratio=1"):
            full_report(broken)


def _with_vacuum_cavity(mirrors: np.ndarray) -> np.ndarray:
    """A three-mode state in MODE_ORDER: ``mirrors`` beside a vacuum cavity."""
    v = 0.5 * np.eye(6)
    v[:4, :4] = mirrors
    return v


# [[1.5 I, I], [I, I]]: positive definite but not a state (its symplectic
# eigenvalues are 0.22 and 2.28), where mirror 1 steers with EN = 0
_UNENTANGLED_STEERING = np.kron([[1.5, 1.0], [1.0, 1.0]], np.eye(2))


class TestReportStage:
    """The block stage of sweeps and reports (``_report_columns``) on synthetic stacks
    the model never gives."""

    @pytest.fixture(autouse=True)
    def _patch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def stage(self, *mirrors) -> list:
        # each row's report or error, from a block at detuning_ratio 0, 1,
        # 2, ... whose solve gives these stable states, written into rows
        # 1, 3, 5, ... of a table twice its size
        v = np.stack([_with_vacuum_cavity(m) for m in mirrors])
        solved = (_Rows(len(v)), np.full(len(v), -0.25), v)
        self.monkeypatch.setattr(lgsteer.measures, "_solve", lambda drifts, diffusions: solved)
        table, at = _Columns.of(2 * len(v)), 2 * np.arange(len(v)) + 1
        models = build_model(make_params(), {"detuning": W1 * np.arange(len(v))})
        errors = _report_columns(models, table, at)
        assert not table.stable[::2].any() and np.isnan(table.margin[::2]).all()
        return [errors[k] if k in errors else table.report(at[k]) for k in range(len(v))]

    def test_tmsv_beside_a_vacuum_cavity(self):
        rs = (0.25, 0.5, 1.0)
        for r, report in zip(rs, self.stage(*(tmsv(r).data for r in rs))):
            zeta = math.log(math.cosh(2.0 * r))
            assert report.stable and report.stability_margin == -0.25
            assert report.en_mm == pytest.approx(2.0 * r, rel=1e-12)
            assert report.en_m1c == report.en_m2c == 0.0
            assert report.zeta_m1_m2 == pytest.approx(zeta, rel=1e-12)
            assert report.zeta_m2_m1 == pytest.approx(zeta, rel=1e-12)
            assert report.zeta_asym == abs(report.zeta_m1_m2 - report.zeta_m2_m1)
            assert report.steering_class is SteeringClass.TWO_WAY
            # EN(m|rest)^2 = EN_mm^2 for each mirror, and the cavity has none
            assert report.r_min == 0.0

    def test_one_way_states_in_both_directions(self):
        # thermal noise on mirror 2, then the same state with the mirrors
        # swapped: only the noisy mirror steers
        noisy = noisy_tmsv(0.5, 0.3).data
        swapped = noisy[np.ix_([2, 3, 0, 1], [2, 3, 0, 1])]
        to_1, to_2 = self.stage(noisy, swapped)
        z = steering(noisy_tmsv(0.5, 0.3), "beta")
        assert z > 0.05
        assert (to_1.zeta_m1_m2, to_1.zeta_m2_m1) == (0.0, z)
        assert to_2.zeta_m1_m2 == pytest.approx(z, rel=1e-12) and to_2.zeta_m2_m1 == 0.0
        assert to_1.steering_class is SteeringClass.ONE_WAY_BETA_TO_ALPHA
        assert to_2.steering_class is SteeringClass.ONE_WAY_ALPHA_TO_BETA
        assert to_1.en_mm == pytest.approx(to_2.en_mm, rel=1e-12) and to_1.en_mm > 0.0

    def test_a_hierarchy_breach_stays_on_its_row(self):
        clean = [tmsv(0.5).data, noisy_tmsv(0.5, 0.3).data]
        reports = self.stage(clean[0], _UNENTANGLED_STEERING, clean[1])
        assert type(reports[1]) is NonPhysicalInput
        message = re.fullmatch(
            r"at detuning_ratio=1: steering (\S+) without entanglement 0.0: hierarchy violated",
            str(reports[1]),
        )
        zeta = math.log(1.5)
        assert float(message.group(1)) == pytest.approx(zeta, rel=1e-12)
        assert [reports[0], reports[2]] == self.stage(*clean)

    def test_no_rows(self):
        (values,) = _reports(np.zeros((0, 6, 6)))
        assert values.shape == (0, 6)


class TestHierarchyRule:
    def test_reports_and_the_pair_stage_flag_the_same_rows(self, monkeypatch):
        # a 64-row stack through _pairs, whose EN_mm and zetas are replaced
        # by a seeded grid, fails exactly the rows whose CorrelationReport
        # raises, with the same messages
        tol = _HIERARCHY_TOL
        special = [0.0, -0.0, math.nan, tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0), 0.3]
        rng = np.random.default_rng(29)
        grid = [(z, e) for z in special for e in special]
        grid += list(zip(rng.uniform(0.0, 2.0 * tol, 15), rng.uniform(0.0, 2.0 * tol, 15)))
        steerer = rng.integers(0, 2, len(grid))
        zetas = np.zeros((len(grid), 2))
        zetas[np.arange(len(grid)), steerer] = [z for z, _ in grid]
        en_mm = np.array([e for _, e in grid])
        # row k's state carries k as mirror 1's variance, and det(2 V_m1) = 4k
        v = np.zeros((len(grid), 6, 6))
        v[:, 0, 0], v[:, 1, 1] = np.arange(len(grid)), 1.0
        monkeypatch.setattr(lgsteer.measures, "_pt_en", lambda v, labels, cuts: np.repeat(
            en_mm[v[:, 0, 0].astype(int), None], len(cuts), axis=1))
        monkeypatch.setattr(lgsteer.measures, "_zetas", lambda pair_dets, single_dets: zetas[
            np.rint(single_dets[:, 0] / 4.0).astype(int)])
        rows = _Rows(len(grid))
        rows.run(_pairs, v)
        staged = {k: str(exc) for k, exc in enumerate(rows.errors) if exc is not None}
        reported = {}
        for k, ((z1, z2), en) in enumerate(zip(zetas.tolist(), en_mm.tolist())):
            try:
                CorrelationReport(True, -0.25, en, 0.0, 0.0, z1, z2, abs(z1 - z2),
                                  SteeringClass.NO_WAY, 0.0)
            except NonPhysicalInput as exc:
                reported[k] = str(exc)
        assert len(grid) == 64 and staged == reported
        assert 0 < len(staged) < len(grid) and set(rows.live.tolist()).isdisjoint(staged)


def _degenerate_zero_temperature_sweep():
    spec = dict(preset_variants("fig2a"))["chi0p1_thetapi2"]
    w1 = spec.base.omega_phi1
    return replace(spec, base=with_updates(spec.base, omega_phi2=w1, temperature=0.0))


class TestOnePath:
    @pytest.mark.parametrize(
        "spec",
        [
            dict(preset_variants("fig2a"))["chi0"],
            dict(preset_variants("fig2a"))["chi0p1_thetapi2"],
            _degenerate_zero_temperature_sweep(),
        ],
        ids=["fig2a_chi0", "fig2a_chi0p1_thetapi2", "w2_eq_w1_T0"],
    )
    def test_full_report_equals_the_per_state_functions(self, spec):
        # the stacked spectra of full_report must give exactly what the
        # public one-state functions give, row by row
        n_stable = 0
        for delta in spec.axis1.values:
            model = build_model(params_at(spec.base, ((spec.axis1.name, delta),)))
            r = full_report(model)
            if not r.stable:
                continue
            n_stable += 1
            _, cm = steady_covariance(model.drift, model.diffusion)
            mm = block(cm, ("mirror1", "mirror2"))
            assert r.en_mm == log_negativity(mm)
            assert r.en_m1c == log_negativity(block(cm, ("mirror1", "cavity")))
            assert r.en_m2c == log_negativity(block(cm, ("mirror2", "cavity")))
            assert r.zeta_m1_m2 == steering(mm, "mirror1")
            assert r.zeta_m2_m1 == steering(mm, "mirror2")
            assert r.r_min == residual_contangle_min(cm)
        assert n_stable > 100


class TestStress:
    def test_random_points_give_physical_reports(self):
        # seeded draws over near-degenerate mirrors (a quarter exactly
        # degenerate), 0 to 1 K (a third at T = 0), any OPA phase, gain up
        # to the cavity threshold sqrt(kappa^2 + Delta^2) / 2, and
        # |Delta| <= 2 w1; every point is a report, never an error
        n = 2000
        rng = np.random.default_rng(20261018)
        ratio = rng.uniform(0.9, 1.1, n)
        ratio[::4] = 1.0
        temperature = 10.0 ** rng.uniform(-4.0, 0.0, n)
        temperature[::3] = 0.0
        gain_share = rng.uniform(0.0, 1.0, n)
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        delta = rng.uniform(-2.0, 2.0, n) * W1
        base = table_defaults()
        kappa = derive(base).kappa
        eps = np.finfo(float).eps
        errors, n_stable = [], 0
        for i in range(n):
            params = with_updates(
                base,
                omega_phi2=ratio[i] * W1,
                temperature=temperature[i],
                opa_gain=gain_share[i] * 0.5 * math.hypot(kappa, delta[i]),
                opa_phase=theta[i],
                detuning=delta[i],
            )
            model = build_model(params)
            # Omega^-1 (A + diag Gamma) is the symmetric Hamiltonian matrix
            d = model.derived
            gamma = np.array([0.0, d.gamma_m, 0.0, d.gamma_m, d.kappa, d.kappa])
            h = symplectic_form(3).T @ (model.drift + np.diag(gamma))
            assert np.abs(h - h.T).max() <= 4.0 * eps * np.abs(model.drift).max(), i
            try:
                r = full_report(model)
            except LgsteerError as exc:
                errors.append(f"draw {i}: {type(exc).__name__}: {exc}")
                continue
            if not r.stable:
                continue
            n_stable += 1
            _, cm = steady_covariance(model.drift, model.diffusion)
            assert symplectic_eigenvalues(cm)[0] >= 0.5 - 1e-9, i
            if max(r.zeta_m1_m2, r.zeta_m2_m1) > 1e-10:
                assert r.en_mm > 0.0, i
        assert errors == []
        assert n_stable > 400


class TestStabilityBoundary:
    def test_bisected_boundaries_do_not_fail_the_solve(self):
        # bisect, down to adjacent doubles, every detuning at which a
        # seeded base changes stability; margins within 8 eps of 0 after
        # power-of-two scaling are below what the eigensolver resolves and
        # read 0.0, so no row reaches a Lyapunov solve that cannot
        # converge.  NonPhysicalInput
        # rows, where the solved V is too inaccurate next to the boundary
        # for the measures, are still open and only counted here
        eps = np.finfo(float).eps
        rng = np.random.default_rng(20261018)
        base = table_defaults()
        solve_errors, n_unresolved, n_floor, n_rows = [], 0, 0, 0

        def raw_margin(a):
            scale = _scale(a)
            return np.linalg.eigvals(a / scale).real.max(), np.abs(a / scale).max()

        for b in range(16):
            params = with_updates(
                base,
                omega_phi2=(1.0 if b % 2 == 0 else rng.uniform(0.5, 2.0)) * W1,
                temperature=0.0 if b % 3 == 0 else 10.0 ** rng.uniform(-4.0, 0.0),
                laser_power=10.0 ** rng.uniform(-3.0, -0.5),
                quality_factor=10.0 ** rng.uniform(1.0, 8.0),
                opa_gain=0.0 if b % 4 else rng.uniform(0.0, 0.3) * W1,
                opa_phase=rng.uniform(0.0, 2.0 * math.pi),
            )
            grid = np.linspace(-2.0, 2.0, 41)
            models = [build_model(with_updates(params, detuning=x * W1)) for x in grid]
            stable = [raw_margin(m.drift)[0] < 0.0 for m in models]
            for k in range(len(grid) - 1):
                if stable[k] == stable[k + 1]:
                    continue
                lo, hi = grid[k], grid[k + 1]
                while lo < 0.5 * (lo + hi) < hi:
                    mid = 0.5 * (lo + hi)
                    model = build_model(with_updates(params, detuning=mid * W1))
                    raw, peak = raw_margin(model.drift)
                    if (raw < 0.0) == stable[k]:
                        lo = mid
                    else:
                        hi = mid
                    n_rows += 1
                    try:
                        r = full_report(model)
                    except SolveFailure as exc:
                        solve_errors.append(f"base {b}, ratio {mid!r}: {exc}")
                        continue
                    except NonPhysicalInput:
                        n_unresolved += 1
                        continue
                    assert r.stable is (r.stability_margin < 0.0)
                    if -8.0 * eps * peak < raw < 0.0:
                        n_floor += 1
                        assert r.stability_margin == 0.0, (b, mid)
        assert solve_errors == []
        assert n_floor > 100
        assert n_unresolved < 0.01 * n_rows
