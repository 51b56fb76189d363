"""Parameter chain, working point, drift/diffusion assembly, stability."""

import cmath
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lgsteer import (
    CLIGHT,
    HBAR,
    KBOLTZ,
    Axis,
    NonPositiveParameter,
    SweepSpec,
    build_diffusion,
    build_drift,
    build_model,
    derive,
    full_report,
    hamiltonian,
    lyapunov_oracle,
    run_sweep,
    serialize_json,
    symplectic_form,
    table_defaults,
    steady_covariances,
    steady_state,
    thermal_occupation,
    with_updates,
)
from lgsteer.model import FIELD_RULES, _obeys, rule_breach

from conftest import (
    REF_ABS_A0_BLUE,
    REF_ABS_A0_PUMPED,
    REF_COTH_15MK,
    REF_DRIVE_E,
    REF_G1,
    REF_G1_RATIO_BLUE,
    REF_G2_AT_1P5,
    REF_G2_RATIO_BLUE,
    REF_GAMMA_M,
    REF_INERTIA,
    REF_KAPPA,
    REF_MARGIN_BLUE,
    REF_MARGIN_PUMPED_BLUE_PI2,
    REF_MARGIN_PUMPED_RED_THETA0,
    REF_MARGIN_RED,
    REF_NBAR_15MK,
    REF_OMEGA_L,
    W1,
    make_params,
)


class TestDerive:
    def test_rates_match_frozen_values(self):
        d = derive(make_params())
        assert d.kappa == pytest.approx(REF_KAPPA, rel=1e-12)
        assert d.gamma_m == pytest.approx(REF_GAMMA_M, rel=1e-12)
        assert d.inertia == pytest.approx(REF_INERTIA, rel=1e-12)
        assert d.laser_freq == pytest.approx(REF_OMEGA_L, rel=1e-12)
        assert d.drive_amplitude == pytest.approx(REF_DRIVE_E, rel=1e-12)
        assert d.g1 == pytest.approx(REF_G1, rel=1e-12)
        assert d.g2 == pytest.approx(REF_G2_AT_1P5, rel=1e-12)

    def test_formula_identities(self):
        p = make_params()
        d = derive(p)
        assert d.kappa == pytest.approx(
            math.pi * CLIGHT / (2.0 * p.finesse * p.cavity_length), rel=1e-15
        )
        assert d.gamma_m == pytest.approx(p.omega_phi1 / p.quality_factor, rel=1e-15)
        assert d.inertia == pytest.approx(
            p.mirror_mass * p.mirror_radius**2 / 2.0, rel=1e-15
        )
        # couplings scale as 1/sqrt(omega): g2/g1 = sqrt(w1/w2)
        assert d.g2 / d.g1 == pytest.approx(
            math.sqrt(p.omega_phi1 / p.omega_phi2), rel=1e-14
        )
        assert d.drive_amplitude == pytest.approx(
            math.sqrt(2.0 * d.kappa * p.laser_power / (HBAR * d.laser_freq)),
            rel=1e-15,
        )

    def test_kappa_override_feeds_drive(self):
        d = derive(make_params(kappa_override=2.0 * W1))
        assert d.kappa == 2.0 * W1
        # the drive amplitude must be built from the overridden kappa
        base = derive(make_params())
        expected = base.drive_amplitude * math.sqrt(2.0 * W1 / base.kappa)
        assert d.drive_amplitude == pytest.approx(expected, rel=1e-12)

    def test_thermal_occupation(self):
        n = thermal_occupation(W1, 15e-3)
        assert n == pytest.approx(REF_NBAR_15MK, rel=1e-12)
        assert 2.0 * n + 1.0 == pytest.approx(REF_COTH_15MK, rel=1e-12)
        # exact Bose identity: 2n+1 = coth(hbar w / 2 k T)
        x = HBAR * W1 / (2.0 * KBOLTZ * 15e-3)
        assert 2.0 * n + 1.0 == pytest.approx(1.0 / math.tanh(x), rel=1e-12)

    def test_thermal_occupation_limits(self):
        assert thermal_occupation(W1, 0.0) == 0.0
        # monotone: hotter means more phonons, stiffer means fewer
        assert thermal_occupation(W1, 1.0) > thermal_occupation(W1, 15e-3)
        assert thermal_occupation(2.0 * W1, 15e-3) < thermal_occupation(W1, 15e-3)
        # high-T asymptote n ~ kT/(hbar w)
        n_hot = thermal_occupation(W1, 300.0)
        assert n_hot == pytest.approx(KBOLTZ * 300.0 / (HBAR * W1) - 0.5, rel=1e-6)

    def test_thermal_occupation_below_a_microkelvin(self):
        # hbar w / kB T passes ln(DBL_MAX) ~ 709.8 near 1 µK at 10 MHz; n̄
        # is then below the smallest double and reads 0 instead of
        # overflowing
        assert 0.0 < thermal_occupation(W1, 7e-7) < 1e-290
        assert thermal_occupation(W1, 1e-7) == 0.0
        assert thermal_occupation(1e6 * W1, 15e-3) == 0.0

    def test_sub_microkelvin_report_equals_zero_temperature(self):
        cold = full_report(build_model(make_params(temperature=1e-7, detuning=W1)))
        zero = full_report(build_model(make_params(temperature=0.0, detuning=W1)))
        assert cold.stable
        assert cold == zero


class TestSteadyState:
    def test_blue_point_amplitude(self):
        d = derive(make_params(detuning=+W1))
        s = steady_state(d)
        assert abs(s.a0) == pytest.approx(REF_ABS_A0_BLUE, rel=1e-12)
        assert s.G1 / W1 == pytest.approx(REF_G1_RATIO_BLUE, rel=1e-12)
        assert s.G2 / W1 == pytest.approx(REF_G2_RATIO_BLUE, rel=1e-12)

    def test_pumped_point_amplitude(self):
        d = derive(make_params(detuning=-W1, opa_gain=0.1 * W1, opa_phase=math.pi / 2))
        s = steady_state(d)
        assert abs(s.a0) == pytest.approx(REF_ABS_A0_PUMPED, rel=1e-12)

    def test_amplitude_formula(self):
        # a0 solves the mean-field equation with theta the pump phase
        # relative to the intracavity field: against the drive it is
        # theta + 2 arg(a0)
        for delta_ratio, chi_ratio, theta in (
            (0.3, 0.07, 1.1),
            (-1.0, 0.1, 0.5 * math.pi),
            (1.0, 0.1, 1.5 * math.pi),
            (-2.0, 0.2, 3.0),
            (0.0, 0.5, 5.0),
            (1.0, 0.0, 0.0),
        ):
            p = make_params(
                detuning=delta_ratio * W1, opa_gain=chi_ratio * W1, opa_phase=theta
            )
            d = derive(p)
            a0 = steady_state(d).a0
            theta_drive = p.opa_phase + 2.0 * cmath.phase(a0)
            residual = (
                -(d.kappa + 1j * p.detuning) * a0
                + 2.0 * p.opa_gain * cmath.exp(1j * theta_drive) * a0.conjugate()
                + d.drive_amplitude
            )
            assert abs(residual) <= 1e-12 * d.drive_amplitude, (
                delta_ratio, chi_ratio, theta, abs(residual) / d.drive_amplitude
            )

    def test_amplitude_where_a_square_overflows(self):
        # 1e160^2 overflows a double; a0 = -i E / Delta does not, in one
        # model or as a row of a block
        delta = 1e160 * W1
        d = derive(make_params(detuning=delta))
        a0 = steady_state(d).a0
        assert a0.imag == pytest.approx(-d.drive_amplitude / delta, rel=1e-12)
        assert abs(a0.real) <= 1e-300
        block = build_model(make_params(), {"detuning": np.array([W1, delta])})
        assert block.steady.a0[1] == a0
        assert block.steady.a0[0] == steady_state(derive(make_params(detuning=W1))).a0

    def test_static_tilt_signs(self):
        # radiation torque pushes the two mirrors in opposite directions
        s = steady_state(derive(make_params()))
        assert s.phi10 < 0.0 < s.phi20
        d = derive(make_params())
        assert s.phi10 == pytest.approx(-d.g1 * abs(s.a0) ** 2 / W1, rel=1e-14)
        assert s.phi20 == pytest.approx(+d.g2 * abs(s.a0) ** 2 / (1.5 * W1), rel=1e-14)

    def test_enhanced_couplings(self):
        d = derive(make_params())
        s = steady_state(d)
        assert s.G1 == pytest.approx(math.sqrt(2.0) * d.g1 * abs(s.a0), rel=1e-14)
        assert s.G2 == pytest.approx(math.sqrt(2.0) * d.g2 * abs(s.a0), rel=1e-14)

    def test_zero_drive_decouples(self):
        d = replace(derive(make_params()), drive_amplitude=0.0)
        s = steady_state(d)
        assert s.a0 == 0.0
        assert s.phi10 == 0.0 == s.phi20
        assert s.G1 == 0.0 == s.G2


class TestDrift:
    def test_structure_at_blue_point(self):
        p = make_params(detuning=+W1)
        d = derive(p)
        s = steady_state(d)
        a = build_drift(d, s)
        assert a.shape == (6, 6)
        w2 = 1.5 * W1
        expected = np.array(
            [
                [0.0, W1, 0.0, 0.0, 0.0, 0.0],
                [-W1, -d.gamma_m, 0.0, 0.0, -s.G1, 0.0],
                [0.0, 0.0, 0.0, w2, 0.0, 0.0],
                [0.0, 0.0, -w2, -d.gamma_m, s.G2, 0.0],
                [0.0, 0.0, 0.0, 0.0, -d.kappa, +W1],
                [-s.G1, 0.0, s.G2, 0.0, -W1, -d.kappa],
            ]
        )
        assert np.array_equal(a, expected)
        # pumped at a phase with both quadrature terms nonzero
        chi, theta = 0.1 * W1, 0.7
        p = make_params(detuning=+W1, opa_gain=chi, opa_phase=theta)
        d = derive(p)
        s = steady_state(d)
        mu_p = -d.kappa + 2.0 * chi * math.cos(theta)
        mu_m = -d.kappa - 2.0 * chi * math.cos(theta)
        rho_p = +W1 + 2.0 * chi * math.sin(theta)
        rho_m = -W1 + 2.0 * chi * math.sin(theta)
        expected = np.array(
            [
                [0.0, W1, 0.0, 0.0, 0.0, 0.0],
                [-W1, -d.gamma_m, 0.0, 0.0, -s.G1, 0.0],
                [0.0, 0.0, 0.0, w2, 0.0, 0.0],
                [0.0, 0.0, -w2, -d.gamma_m, s.G2, 0.0],
                [0.0, 0.0, 0.0, 0.0, mu_p, rho_p],
                [-s.G1, 0.0, s.G2, 0.0, rho_m, mu_m],
            ]
        )
        assert np.array_equal(build_drift(d, s), expected)

    def test_amplifier_entries(self):
        chi = 0.1 * W1
        theta = 0.7
        p = make_params(detuning=-W1, opa_gain=chi, opa_phase=theta)
        d = derive(p)
        a = build_drift(d, steady_state(d))
        assert a[4, 4] == pytest.approx(-d.kappa + 2.0 * chi * math.cos(theta))
        assert a[5, 5] == pytest.approx(-d.kappa - 2.0 * chi * math.cos(theta))
        assert a[4, 5] == pytest.approx(-W1 + 2.0 * chi * math.sin(theta))
        assert a[5, 4] == pytest.approx(+W1 + 2.0 * chi * math.sin(theta))

    def test_phase_irrelevant_without_gain(self):
        p0 = make_params(opa_gain=0.0, opa_phase=0.0)
        p1 = make_params(opa_gain=0.0, opa_phase=1.234)
        m0 = build_model(p0)
        m1 = build_model(p1)
        assert np.array_equal(m0.drift, m1.drift)
        assert np.array_equal(m0.diffusion, m1.diffusion)

    def test_mirror_couplings_opposite_sign(self):
        m = build_model(make_params())
        a = m.drift
        assert a[1, 4] < 0 < a[3, 4]
        assert a[5, 0] < 0 < a[5, 2]
        # momentum kick and back-action carry the same magnitude
        assert a[1, 4] == a[5, 0]
        assert a[3, 4] == a[5, 2]

    def test_zero_drive_blocks_decouple(self):
        d = replace(derive(make_params()), drive_amplitude=0.0)
        a = build_drift(d, steady_state(d))
        coupling = a[np.ix_([0, 1, 2, 3], [4, 5])]
        assert np.array_equal(coupling, np.zeros((4, 2)))
        assert np.array_equal(a[np.ix_([4, 5], [0, 1, 2, 3])], np.zeros((2, 4)))
        # mirror cross-blocks are always zero: mirrors only talk via the field
        assert np.array_equal(a[np.ix_([0, 1], [2, 3])], np.zeros((2, 2)))
        assert np.array_equal(a[np.ix_([2, 3], [0, 1])], np.zeros((2, 2)))

    def test_twin_mirror_exchange_symmetry(self):
        # with identical mirrors, swapping them while flipping the field
        # sign leaves both drift and diffusion invariant
        m = build_model(make_params(omega_phi2=W1))
        s = np.zeros((6, 6))
        s[0, 2] = s[1, 3] = s[2, 0] = s[3, 1] = 1.0
        s[4, 4] = s[5, 5] = -1.0
        assert np.array_equal(s @ m.drift @ s.T, m.drift)
        assert np.array_equal(s @ m.diffusion @ s.T, m.diffusion)


class TestHamiltonian:
    def test_entries(self):
        chi, theta = 0.1 * W1, 0.7
        d = derive(make_params(detuning=+W1, opa_gain=chi, opa_phase=theta))
        s = steady_state(d)
        h = hamiltonian(d, s)
        assert np.array_equal(h, h.T)
        pump_y = 2.0 * chi * math.sin(theta)
        w2 = 1.5 * W1
        assert np.array_equal(
            np.diag(h), [W1, W1, w2, w2, W1 - pump_y, W1 + pump_y]
        )
        off = h - np.diag(np.diag(h))
        assert off[0, 4] == s.G1
        assert off[2, 4] == -s.G2
        assert off[4, 5] == 2.0 * chi * math.cos(theta)
        assert np.count_nonzero(off) == 6

    def test_drift_and_diffusion_share_one_bath(self):
        # A = Omega H - diag(Gamma), D = diag(Gamma (2N + 1)), with
        # Gamma = (0, g, 0, g, kappa, kappa) and N = (n1, n1, n2, n2, 0, 0)
        d = derive(make_params(detuning=+W1, opa_gain=0.1 * W1, opa_phase=2.0))
        s = steady_state(d)
        gamma = np.array([0.0, d.gamma_m, 0.0, d.gamma_m, d.kappa, d.kappa])
        occupation = np.array([d.nbar1, d.nbar1, d.nbar2, d.nbar2, 0.0, 0.0])
        omega_h = symplectic_form(3) @ hamiltonian(d, s)
        assert np.array_equal(build_drift(d, s), omega_h - np.diag(gamma))
        assert np.array_equal(
            build_diffusion(d), np.diag(gamma * (2.0 * occupation + 1.0))
        )

    def test_threshold_couplings_stay_infinite(self):
        # at the OPA threshold the couplings are infinite; a product with
        # Omega's zeros would turn them into NaN
        base = make_params()
        kappa = derive(base).kappa
        d = derive(with_updates(base, opa_gain=0.5 * kappa, opa_phase=0.0, detuning=0.0))
        s = steady_state(d)
        a = build_drift(d, s)
        assert not np.isnan(a).any()
        assert a[1, 4] == a[5, 0] == -math.inf
        assert a[3, 4] == a[5, 2] == math.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(symplectic_form(3) @ hamiltonian(d, s)).any()


class TestClosedFormLimits:
    """Exact limits of the model, solved by the independent oracle."""

    @pytest.mark.parametrize("gain", [0.1, 0.3, 0.7])
    def test_opa_alone(self, gain):
        # no drive, Delta = 0, theta = 0: the OPA squeezes Y and amplifies X,
        # V_X = (1/2) kappa / (kappa - 2 chi), V_Y = (1/2) kappa / (kappa + 2 chi)
        chi = gain * W1
        p = make_params(detuning=0.0, opa_gain=chi, opa_phase=0.0)
        d = replace(derive(p), drive_amplitude=0.0)
        v = lyapunov_oracle(build_drift(d, steady_state(d)), build_diffusion(d)).data
        kappa = d.kappa
        assert v[4, 4] == pytest.approx(0.5 * kappa / (kappa - 2.0 * chi), rel=1e-12)
        assert v[5, 5] == pytest.approx(0.5 * kappa / (kappa + 2.0 * chi), rel=1e-12)
        assert abs(v[4, 5]) <= 1e-12 * v[4, 4]

    def test_equal_mirrors_dark_mode_stays_thermal(self):
        # at w2 = w1 the couplings G1 = G2 leave (phi1 + phi2)/sqrt2,
        # (L1 + L2)/sqrt2 coupled to nothing but its bath: (nbar + 1/2) I.
        # Its own margin is -gamma_m/2, so the unrefined oracle is held to
        # the dense solve's forward-error bound eps cond(L) max|V|
        rng = np.random.default_rng(31)
        base = table_defaults()
        kappa = derive(base).kappa
        eps = np.finfo(float).eps
        dark = np.zeros((2, 6))
        dark[0, [0, 2]] = dark[1, [1, 3]] = 1.0 / math.sqrt(2.0)
        n_stable = 0
        while n_stable < 300:
            delta = rng.uniform(-2.0, 2.0) * W1
            p = with_updates(
                base,
                omega_phi2=W1,
                detuning=delta,
                temperature=rng.choice([0.0, 10.0 ** rng.uniform(-4.0, 0.0)]),
                laser_power=10.0 ** rng.uniform(-3.0, -1.0),
                opa_gain=rng.uniform(0.0, 0.5) * 0.5 * math.hypot(kappa, delta),
                opa_phase=rng.uniform(0.0, 2.0 * math.pi),
            )
            m = build_model(p)
            a = m.drift
            if np.linalg.eigvals(a).real.max() >= 0.0:
                continue
            n_stable += 1
            v = lyapunov_oracle(a, m.diffusion).data
            thermal = (m.derived.nbar1 + 0.5) * np.eye(2)
            lyap = np.kron(np.eye(6), a) + np.kron(a, np.eye(6))
            bound = eps * np.linalg.cond(lyap) * np.abs(v).max()
            assert np.abs(dark @ v @ dark.T - thermal).max() <= bound, n_stable

    def test_single_mirror_routh_hurwitz(self):
        # mirror 1 and the cavity alone (chi = 0): det A4 = w1 s2 with
        # s2 = w1 (kappa^2 + Delta^2) - G1^2 Delta (Vitali et al., PRL 98,
        # 030405, 2007).  s2 < 0 needs Delta > 0 and leaves A4 unstable,
        # so Delta > 0 is the side where the optical spring can overcome w1
        keep = np.ix_([0, 1, 4, 5], [0, 1, 4, 5])
        n_static = 0
        for kappa in np.linspace(0.1, 2.0, 10) * W1:
            for power in (1e-3, 5e-3, 2e-2, 5e-2, 0.2, 1.0):
                for ratio in np.linspace(-2.0, 2.0, 41):
                    delta = ratio * W1
                    p = make_params(
                        detuning=delta, laser_power=power, kappa_override=kappa
                    )
                    m = build_model(p)
                    a4 = m.drift[keep]
                    g1 = m.steady.G1
                    s2 = W1 * (kappa**2 + delta**2) - g1**2 * delta
                    scale = W1 * (W1 * (kappa**2 + delta**2) + g1**2 * abs(delta))
                    assert abs(np.linalg.det(a4) - W1 * s2) <= 1e-12 * scale
                    if s2 < 0.0:
                        n_static += 1
                        assert delta > 0.0
                        assert np.linalg.eigvals(a4).real.max() >= 0.0
        assert n_static > 100


class TestDiffusion:
    def test_diagonal_values(self):
        p = make_params()
        d = derive(p)
        dd = build_diffusion(d)
        n1 = thermal_occupation(W1, p.temperature)
        n2 = thermal_occupation(1.5 * W1, p.temperature)
        expected = np.diag(
            [
                0.0,
                d.gamma_m * (2.0 * n1 + 1.0),
                0.0,
                d.gamma_m * (2.0 * n2 + 1.0),
                d.kappa,
                d.kappa,
            ]
        )
        assert np.array_equal(dd, expected)

    def test_zero_temperature_floor(self):
        d = derive(make_params(temperature=0.0))
        dd = build_diffusion(d)
        # vacuum floor: one unit of noise per damping rate
        assert dd[1, 1] == d.gamma_m
        assert dd[3, 3] == d.gamma_m

    def test_monotone_in_temperature(self):
        temps = [0.0, 1e-3, 15e-3, 1.0, 300.0]
        vals = [build_diffusion(derive(make_params(temperature=t)))[1, 1] for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # the optical noise does not depend on temperature
        cavs = [build_diffusion(derive(make_params(temperature=t)))[4, 4] for t in temps]
        assert len(set(cavs)) == 1


def margin_of(a, d=np.eye(6)):
    """The stability margin that the solve reports for drift ``a``."""
    return steady_covariances([a], [d])[0][0]


def model_margin(**overrides):
    """A model's stability margin in units of omega_phi1."""
    m = build_model(make_params(**overrides))
    return margin_of(m.drift, m.diffusion) / W1


class TestStabilityMargin:
    def test_simple_examples(self):
        assert margin_of(np.zeros((6, 6))) == 0.0
        diag = np.diag([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0])
        assert margin_of(diag) == pytest.approx(-1.0, abs=1e-12)
        rot = np.zeros((6, 6))
        rot[0, 1], rot[1, 0] = 1.0, -1.0
        rot -= 0.25 * np.eye(6)
        assert margin_of(rot) == pytest.approx(-0.25, abs=1e-10)

    def test_scaling_homogeneity(self):
        m = build_model(make_params(detuning=+W1))
        assert margin_of(m.drift, m.diffusion) / W1 == pytest.approx(
            margin_of(m.drift / W1, m.diffusion / W1), rel=1e-9
        )

    def test_blue_point_stable(self):
        assert model_margin(detuning=+W1) == pytest.approx(REF_MARGIN_BLUE, rel=1e-9)

    def test_red_point_unstable(self):
        # the red-detuned working point blows up at these parameters:
        # the blue mirror sits above threshold
        margin = model_margin(detuning=-W1)
        assert margin > 0.0
        assert margin == pytest.approx(REF_MARGIN_RED, rel=1e-9)

    def test_pumped_red_point_unstable(self):
        margin = model_margin(detuning=-W1, opa_gain=0.1 * W1, opa_phase=0.0)
        assert margin > 0.0
        assert margin == pytest.approx(REF_MARGIN_PUMPED_RED_THETA0, rel=1e-9)

    def test_pumped_blue_point_stable(self):
        margin = model_margin(detuning=+W1, opa_gain=0.1 * W1, opa_phase=math.pi / 2)
        assert margin == pytest.approx(REF_MARGIN_PUMPED_BLUE_PI2, rel=1e-9)


class TestSystemParamsValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "cavity_length",
            "mirror_mass",
            "mirror_radius",
            "omega_phi1",
            "omega_phi2",
            "laser_power",
            "laser_wavelength",
            "quality_factor",
            "finesse",
        ],
    )
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_positive_fields(self, field, bad):
        with pytest.raises(NonPositiveParameter, match=field):
            make_params(**{field: bad})

    @pytest.mark.parametrize("bad", [0, -3, 2.5, pytest.param(10**400, id="1e400")])
    def test_oam_number(self, bad):
        with pytest.raises(NonPositiveParameter, match="oam_number"):
            make_params(oam_number=bad)

    def test_temperature_bounds(self):
        assert make_params(temperature=0.0).temperature == 0.0
        for bad in (-1e-3, math.nan):
            with pytest.raises(NonPositiveParameter, match="temperature"):
                make_params(temperature=bad)

    def test_opa_gain_bounds(self):
        assert make_params(opa_gain=0.0).opa_gain == 0.0
        with pytest.raises(NonPositiveParameter, match="opa_gain"):
            make_params(opa_gain=-0.1)

    def test_opa_phase_must_be_finite(self):
        with pytest.raises(NonPositiveParameter, match="opa_phase"):
            make_params(opa_phase=math.nan)

    def test_non_numbers_rejected(self):
        with pytest.raises(NonPositiveParameter, match="temperature"):
            make_params(temperature="hot")
        with pytest.raises(NonPositiveParameter, match="oam_number"):
            make_params(oam_number=True)

    def test_detuning_must_be_finite(self):
        with pytest.raises(NonPositiveParameter, match="detuning"):
            make_params(detuning=math.inf)

    def test_kappa_override_positive(self):
        with pytest.raises(NonPositiveParameter, match="kappa_override"):
            make_params(kappa_override=-1.0)

    def test_phase_canonicalized(self):
        tau = 2.0 * math.pi
        assert make_params(opa_phase=tau + 0.5).opa_phase == pytest.approx(0.5)
        assert make_params(opa_phase=-0.5).opa_phase == pytest.approx(tau - 0.5)

    def test_tiny_negative_phase_wraps_to_zero(self):
        # -1e-20 % (2 pi) rounds to 2 pi itself, outside [0, 2 pi)
        assert -1e-20 % (2.0 * math.pi) == 2.0 * math.pi
        p = make_params(opa_phase=-1e-20)
        assert p.opa_phase == 0.0
        assert p == make_params(opa_phase=0.0)

    def test_with_updates(self):
        p = make_params()
        q = with_updates(p, detuning=+W1, opa_gain=0.05 * W1)
        assert q.detuning == +W1
        assert q.opa_gain == 0.05 * W1
        assert p.detuning == -W1  # original untouched
        assert q.cavity_length == p.cavity_length


class TestRuleTable:
    @pytest.mark.parametrize("rule", sorted(set(FIELD_RULES.values())))
    def test_array_check_agrees_with_the_scalar_one(self, rule):
        # the one-array axis check and the one-value check read one table
        rng = np.random.default_rng(28)
        big = sys.float_info.max
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, big, -big, 1e300, 0.5, -2.5]
        whole = rng.integers(-4, 5, 40).astype(float)
        values = np.concatenate([special, whole, whole + rng.uniform(0.01, 0.99, 40)])
        rng.shuffle(values)
        obeys = _obeys(values, rule)
        assert obeys.tolist() == [rule_breach(x, rule) is None for x in values.tolist()]
        assert obeys.any() and not obeys.all()

    @pytest.mark.parametrize("kind", [np.float16, np.float32, np.longdouble])
    def test_a_numpy_float_is_stored_as_its_double(self, kind):
        # checked without a cast to the NumPy type, which float16 and float32
        # overflow, and stored as a float: the model computes in double
        value = kind(0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = with_updates(table_defaults(), temperature=value)
            q = with_updates(table_defaults(), temperature=float(value))
            m, n = build_model(p), build_model(q)
        assert type(p.temperature) is float and p == q
        assert m.derived == n.derived and m.steady == n.steady
        assert np.array_equal(m.drift, n.drift) and np.array_equal(m.diffusion, n.diffusion)

    def test_a_numpy_integer_is_stored_as_an_int(self):
        # a NumPy integer left in a base would reach the JSON encoder, which
        # cannot write it
        p = with_updates(table_defaults(), oam_number=np.int64(50))
        q = with_updates(table_defaults(), oam_number=50)
        assert type(p.oam_number) is int and p == q
        axis = Axis("detuning_ratio", (0.5, 1.0))
        sweeps = [serialize_json(run_sweep(SweepSpec(base, axis))) for base in (p, q)]
        assert sweeps[0] == sweeps[1]

    @pytest.mark.parametrize("value", [np.longdouble("1e400"), 10**400, np.float32("inf")])
    def test_a_value_beyond_the_double_range_is_not_finite(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rule_breach(value, "nonneg") == "finite"
            with pytest.raises(NonPositiveParameter, match="temperature must be finite"):
                with_updates(table_defaults(), temperature=value)


class TestBuildModel:
    def test_pipeline_consistency(self):
        p = make_params(detuning=+W1)
        m = build_model(p)
        d = derive(p)
        s = steady_state(d)
        assert np.array_equal(m.drift, build_drift(d, s))
        assert np.array_equal(m.diffusion, build_diffusion(d))
        assert m.steady == s
        assert m.derived == d
