"""Independent-route oracles, reference states, and the check suite."""

import ast
import inspect
import math

import numpy as np
import pytest

from lgsteer import (
    NonPhysicalInput,
    SingularSystem,
    SolveFailure,
    StepOverflow,
    build_model,
    integrate_covariance,
    log_negativity,
    lyapunov_oracle,
    lyapunov_residual,
    random_stable_system,
    reference,
    renyi2_entropy,
    run_checks,
    steady_covariance,
    steady_covariances,
    steering,
    validation,
)

from conftest import W1, make_params


class TestLyapunovOracle:
    def test_identity_example(self):
        v = lyapunov_oracle(-np.eye(6), np.eye(6))
        assert np.allclose(v.data, 0.5 * np.eye(6), atol=1e-12)

    def test_diagonal_example(self):
        rates = np.array([1.0, 2.0, 3.0, 4.0])
        noise = np.array([2.0, 2.0, 6.0, 1.0])
        v = lyapunov_oracle(np.diag(-rates), np.diag(noise))
        assert np.allclose(v.data, np.diag(noise / (2.0 * rates)), atol=1e-12)

    def test_residual_is_tiny(self):
        rng = np.random.default_rng(3)
        a, d = random_stable_system(rng)
        v = lyapunov_oracle(a, d)
        assert lyapunov_residual(a, d, v) < 1e-10

    def test_rejects_marginal_drift(self):
        a = -np.eye(6)
        a[0, 0] = 0.0
        with pytest.raises(SingularSystem, match="marginal"):
            lyapunov_oracle(a, np.eye(6))

    def test_rejects_unstable_pair_sum(self):
        # +1 and -1 eigenvalues sum to zero even though neither is zero
        a = np.diag([1.0, -1.0, -2.0, -2.0, -2.0, -2.0])
        with pytest.raises(SingularSystem):
            lyapunov_oracle(a, np.eye(6))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SolveFailure, match="square"):
            lyapunov_oracle(-np.eye(6), np.eye(4))

    def test_generic_labels(self):
        v = lyapunov_oracle(-np.eye(6), np.eye(6))
        assert v.mode_labels == ("mode1", "mode2", "mode3")


class TestIntegrateCovariance:
    def test_relaxes_to_identity_fixed_point(self):
        v = integrate_covariance(-0.5 * np.eye(6), np.eye(6), None, 40.0, 0.01)
        assert np.max(np.abs(v.data - np.eye(6))) < 1e-6

    def test_start_point_does_not_matter(self):
        a = -0.5 * np.eye(6)
        d = np.eye(6)
        from_zero = integrate_covariance(a, d, None, 60.0, 0.01)
        from_hot = integrate_covariance(a, d, 5.0 * np.eye(6), 60.0, 0.01)
        assert np.max(np.abs(from_zero.data - from_hot.data)) < 1e-9

    def test_accepts_covariance_wrapper_start(self):
        a = -0.5 * np.eye(6)
        d = np.eye(6)
        start = lyapunov_oracle(a, d)
        v = integrate_covariance(a, d, start, 10.0, 0.01)
        # starting at the fixed point stays at the fixed point
        assert np.max(np.abs(v.data - start.data)) < 1e-9

    @pytest.mark.parametrize("shape", [(4, 4), (6, 5), (36,)])
    def test_rejects_wrong_shaped_start(self, shape):
        with pytest.raises(SolveFailure, match=r"initial covariance has shape"):
            integrate_covariance(-0.5 * np.eye(6), np.eye(6), np.ones(shape), 1.0, 0.01)

    def test_agrees_with_oracle_on_random_systems(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            a, d = random_stable_system(rng)
            ode = integrate_covariance(a, d, None, 100.0, 0.02)
            oracle = lyapunov_oracle(a, d)
            assert np.max(np.abs(ode.data - oracle.data)) < 1e-6

    def test_overflow_on_unstable_drift(self):
        with pytest.raises(StepOverflow, match="unstable"):
            integrate_covariance(np.eye(6), np.eye(6), None, 60.0, 0.1)

    def test_overflow_on_reckless_step(self):
        # stable drift, but dt far beyond the RK4 stability limit
        with pytest.raises(StepOverflow):
            integrate_covariance(-100.0 * np.eye(6), np.eye(6), None, 50.0, 1.0)

    def test_rejects_bad_time_grid(self):
        with pytest.raises(SolveFailure, match="positive"):
            integrate_covariance(-np.eye(6), np.eye(6), None, 10.0, -0.1)
        with pytest.raises(SolveFailure, match="positive"):
            integrate_covariance(-np.eye(6), np.eye(6), None, 0.0, 0.1)

    @pytest.mark.parametrize(
        "t_end, dt",
        [
            pytest.param(math.nan, 0.01, id="nan-t_end"),
            pytest.param(10.0, math.nan, id="nan-dt"),
            pytest.param(math.inf, 0.01, id="inf-t_end"),
            pytest.param(10.0, math.inf, id="inf-dt"),
            pytest.param(1e300, 1e-10, id="ratio-overflows"),
            pytest.param(np.float64(1e300), np.float64(1e-10), id="numpy-ratio-overflows"),
        ],
    )
    def test_rejects_non_finite_step_count(self, t_end, dt):
        with pytest.raises(SolveFailure, match="positive|finite"):
            integrate_covariance(-np.eye(6), np.eye(6), None, t_end, dt)

    @staticmethod
    def _full_power(a, d, v, n_steps, dt):
        # reference: the RK4 step-map power on all n^2 entries of vec V,
        # the scheme that stepping the upper triangle restricts
        n = len(a)
        m = n * n
        eye = np.eye(m)
        hl = dt * (np.kron(np.eye(n), a) + np.kron(a, np.eye(n)))
        q = eye + 0.5 * hl @ (eye + hl @ (eye + 0.25 * hl) / 3.0)
        step = np.zeros((m + 1, m + 1))
        step[:m, :m] = eye + hl @ q
        step[:m, m] = dt * q @ d.reshape(m)
        step[m, m] = 1.0
        state = np.linalg.matrix_power(step, n_steps) @ np.append(v.reshape(m), 1.0)
        got = state[:m].reshape(n, n)
        return 0.5 * (got + got.T)

    @pytest.mark.parametrize("seed", [2, 31, 404])
    @pytest.mark.parametrize("n_steps", [1, 5, 64, 999, 5000])
    def test_reduced_map_is_the_full_map(self, seed, n_steps):
        # stepping the 21 distinct entries is the 36-entry scheme, from a
        # non-zero symmetric start and after any number of steps
        rng = np.random.default_rng(seed)
        a, d = random_stable_system(rng)
        b = rng.uniform(-1.0, 1.0, size=(6, 6))
        v0 = b @ b.T
        dt = 0.02
        got = integrate_covariance(a, d, v0, n_steps * dt, dt).data
        want = self._full_power(a, d, v0, n_steps, dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def _stepped(a, d, n_steps, dt):
        # reference RK4 loop, one step at a time, as the propagator replaced
        v = np.zeros_like(a)
        rate = lambda s: a @ s + (a @ s).T + d  # noqa: E731
        for _ in range(n_steps):
            k1 = rate(v)
            k2 = rate(v + 0.5 * dt * k1)
            k3 = rate(v + 0.5 * dt * k2)
            k4 = rate(v + dt * k3)
            v = v + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            v = 0.5 * (v + v.T)
        return v

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 1023, 5000])
    def test_propagator_is_the_stepping_scheme(self, n_steps):
        # the squared propagator is the same discrete scheme as stepping,
        # not just the same limit: it matches the loop after any number of steps
        a, d = random_stable_system(np.random.default_rng(n_steps))
        dt = 0.02
        got = integrate_covariance(a, d, None, n_steps * dt, dt).data
        assert np.max(np.abs(got - self._stepped(a, d, n_steps, dt))) < 1e-12

    @pytest.mark.parametrize("sign, dt", [(1.0, 0.1), (-1.0, 3.0)])
    def test_overflow_from_an_unstable_step_map(self, sign, dt):
        # A = I diverges in continuous time; A = -I is stable, but h = 3
        # puts h(lam_i + lam_j) = -6 outside RK4's stability interval
        # (|R(-6)| = 31), so the discrete scheme diverges
        with pytest.raises(StepOverflow, match="unstable"):
            integrate_covariance(sign * np.eye(6), np.eye(6), None, 60.0, dt)

    def test_large_stable_state_is_not_an_overflow(self):
        # entries above 1e12 on a stable step map are the answer, not a blow-up
        v = integrate_covariance(-np.eye(6), 1e13 * np.eye(6), None, 50.0, 0.1)
        assert v.data[0, 0] == pytest.approx(5e12, rel=1e-12)

    def test_table_point_matches_direct_solver(self):
        # physical stable point, drift scaled to order one
        m = build_model(make_params(detuning=+W1))
        a, d = m.drift / W1, m.diffusion / W1
        ode = integrate_covariance(a, d, None, 400.0, 0.02)
        direct = steady_covariance(a, d)[1]
        assert np.max(np.abs(ode.data - direct.data)) < 1e-6


class TestReferenceStates:
    def test_vacuum(self):
        ref = reference("vacuum", 2)
        assert ref.expected["log_negativity"] == 0.0
        assert log_negativity(ref.cm) == 0.0
        assert renyi2_entropy(ref.cm) == pytest.approx(0.0, abs=1e-12)

    def test_vacuum_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            reference("vacuum", 0)
        with pytest.raises(ValueError):
            reference("vacuum", 1.5)

    def test_thermal(self):
        ref = reference("thermal", 3.0)
        assert renyi2_entropy(ref.cm) == pytest.approx(math.log(7.0), rel=1e-12)
        with pytest.raises(ValueError):
            reference("thermal", -0.5)

    def test_tmsv_closed_forms(self):
        for r in (0.25, 1.0):
            ref = reference("tmsv", r)
            assert log_negativity(ref.cm) == pytest.approx(
                ref.expected["log_negativity"], abs=1e-9
            )
            assert steering(ref.cm, "mode2") == pytest.approx(
                ref.expected["steering_ab"], abs=1e-9
            )
            assert renyi2_entropy(ref.cm) == pytest.approx(0.0, abs=1e-9)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            reference("cat_state", 1.0)


class TestRandomStableSystem:
    def test_margin_is_exactly_half(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a, d = random_stable_system(rng)
            margin = float(np.max(np.linalg.eigvals(a).real))
            assert margin == pytest.approx(-0.5, abs=1e-12)

    def test_diffusion_is_psd_symmetric(self):
        rng = np.random.default_rng(1)
        a, d = random_stable_system(rng)
        assert np.array_equal(d, d.T)
        assert np.min(np.linalg.eigvalsh(d)) > -1e-12

    def test_seed_reproducibility(self):
        a1, d1 = random_stable_system(np.random.default_rng(42))
        a2, d2 = random_stable_system(np.random.default_rng(42))
        assert np.array_equal(a1, a2)
        assert np.array_equal(d1, d2)


class TestRunChecks:
    def test_all_pass_with_package_solver(self):
        results = run_checks()
        assert [r.name for r in results] == [
            "solver_identity",
            "oracle_identity",
            "integrator_identity",
            "integrator_overflow",
            "marginal_rejected",
            "route_agreement",
            "reference_states",
            "steady_state_physical",
        ]
        failed = [r for r in results if not r.passed]
        assert failed == []
        assert all(r.detail == "ok" for r in results)

    def test_seed_changes_are_still_green(self):
        results = run_checks(seed=999)
        assert all(r.passed for r in results)

    def test_corrupted_solver_is_caught_by_name(self):
        def wrong_solver(drifts, diffusions):
            margins, covariances, errors = steady_covariances(drifts, diffusions)
            return margins, 1.02 * covariances, errors

        results = run_checks(solver=wrong_solver)
        by_name = {r.name: r for r in results}
        assert not by_name["solver_identity"].passed
        assert not by_name["route_agreement"].passed
        # oracle and integrator do not depend on the injected solver
        assert by_name["oracle_identity"].passed
        assert by_name["integrator_identity"].passed

    def test_every_declared_reference_value_is_checked(self, monkeypatch):
        # the two-mode vacuum declares its steering; verify must measure it
        def off_reference(name, value):
            ref = reference(name, value)
            if name == "vacuum":
                ref.expected["steering_ab"] = 1e-11
            return ref

        monkeypatch.setattr(validation, "reference", off_reference)
        by_name = {r.name: r for r in run_checks()}
        assert by_name["reference_states"].detail == "vacuum(2) steering_ab off by 1e-11"

    def test_crashing_solver_is_reported_not_raised(self):
        def crashing_solver(drifts, diffusions):
            n = len(drifts)
            failure = SolveFailure("synthetic failure")
            return np.full(n, np.nan), np.full((n, 6, 6), np.nan), [failure] * n

        results = run_checks(solver=crashing_solver)
        by_name = {r.name: r for r in results}
        # a one-system call keeps the row's message; a stack names the row
        assert by_name["solver_identity"].detail == "SolveFailure: synthetic failure"
        assert by_name["route_agreement"].detail == "SolveFailure: system 0: synthetic failure"

    def test_a_later_failing_row_is_named_with_its_class(self):
        # the production solve's errors per row; only row 3 of a stack fails
        def row3_solver(drifts, diffusions):
            margins, covariances, errors = steady_covariances(drifts, diffusions)
            if len(errors) > 3:
                errors[3] = NonPhysicalInput("synthetic failure")
            return margins, covariances, errors

        by_name = {r.name: r for r in run_checks(solver=row3_solver)}
        assert by_name["route_agreement"].detail == (
            "NonPhysicalInput: system 3: synthetic failure"
        )
        assert [name for name, r in by_name.items() if not r.passed] == ["route_agreement"]

    def test_non_finite_solver_row_fails_agreement(self):
        # one NaN row among the seeded systems: a NaN difference must not
        # drop out of the worst disagreement
        def nan_row_solver(drifts, diffusions):
            margins, covariances, errors = steady_covariances(drifts, diffusions)
            if len(covariances) > 3:
                covariances[3, 2, 2] = np.nan
            return margins, covariances, errors

        by_name = {r.name: r for r in run_checks(solver=nan_row_solver)}
        assert by_name["route_agreement"].detail == (
            "SolveFailure: solver gave system 3 a non-finite covariance"
        )
        assert [name for name, r in by_name.items() if not r.passed] == ["route_agreement"]

    @pytest.mark.parametrize("kwargs", [{"seed": -1}])
    def test_bad_seed_or_count_raises_before_any_check(self, kwargs):
        calls = []

        def counting_solver(drifts, diffusions):
            calls.append(len(drifts))
            return steady_covariances(drifts, diffusions)

        with pytest.raises(ValueError, match="seed must be"):
            run_checks(solver=counting_solver, **kwargs)
        assert calls == []


class TestStackedRoutes:
    """The stacked draws and oracles are their one-system calls, system by system."""

    @pytest.mark.parametrize("seed", [12345, 7, 999])
    def test_equal_to_one_system_calls(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [random_stable_system(rng) for _ in range(20)]
        a, d = validation._random_stable_systems(np.random.default_rng(seed), 20)
        assert np.array_equal(a, [p[0] for p in pairs])
        assert np.array_equal(d, [p[1] for p in pairs])
        oracle = validation._lyapunov_oracles(a, d)
        ode = validation._integrate_covariances(a, d, np.zeros_like(a), t_end=100.0, dt=0.02)
        for k, (a_k, d_k) in enumerate(pairs):
            assert np.array_equal(oracle[k], lyapunov_oracle(a_k, d_k).data)
            assert np.array_equal(ode[k], integrate_covariance(a_k, d_k, None, 100.0, 0.02).data)

    @staticmethod
    def _stack(*drifts):
        a = np.array(drifts, dtype=float)
        return a, np.broadcast_to(np.eye(6), a.shape).copy()

    @staticmethod
    def _raised(fn, *args, **kwargs):
        with pytest.raises(Exception) as exc:
            fn(*args, **kwargs)
        return type(exc.value), str(exc.value)

    @classmethod
    def _named(cls, k, fn, *args, **kwargs):
        # what the one-system call raises, as a stack names its system k
        error, message = cls._raised(fn, *args, **kwargs)
        return error, f"system {k}: {message}"

    @pytest.mark.parametrize("k", [0, 2])
    def test_marginal_system_raises_its_own_error(self, k):
        marginal = -np.eye(6)
        marginal[0, 0] = 0.0
        drifts = [-np.eye(6), -2.0 * np.eye(6), -3.0 * np.eye(6)]
        drifts[k] = marginal
        a, d = self._stack(*drifts)
        assert self._raised(validation._lyapunov_oracles, a, d) == self._named(
            k, lyapunov_oracle, a[k], d[k]
        )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_system_raises_its_own_error(self):
        # V = D / 0.5 overflows; its residual bound is infinite as well
        a, d = self._stack(-np.eye(6), -0.25 * np.eye(6))
        d[1] *= 1e308
        got = self._raised(validation._lyapunov_oracles, a, d)
        assert got == self._named(1, lyapunov_oracle, a[1], d[1])
        assert got == (NonPhysicalInput, "system 1: covariance matrix has non-finite entries")

    def test_first_failing_system_wins(self):
        # a check runs on the whole stack: the later NaN drift makes LAPACK
        # reject the whole stack's eigvals, so the marginal system before it
        # is never checked, and the stack raises what the NaN drift raises alone
        marginal = -np.eye(6)
        marginal[0, 0] = 0.0
        a, d = self._stack(-np.eye(6), marginal, np.full((6, 6), np.nan))
        got = self._raised(validation._lyapunov_oracles, a, d)
        assert got == self._raised(lyapunov_oracle, a[2], d[2])
        assert got[0] is np.linalg.LinAlgError
        assert self._raised(lyapunov_oracle, a[1], d[1])[0] is SingularSystem

    def test_unstable_system_raises_its_own_overflow(self):
        # both unstable drifts overflow, at different peaks: the first one's is raised
        a, d = self._stack(-np.eye(6), -np.eye(6), 2.0 * np.eye(6), -np.eye(6), np.eye(6))
        got = self._raised(
            validation._integrate_covariances, a, d, np.zeros_like(a), t_end=20.0, dt=0.01
        )
        assert got == self._named(2, integrate_covariance, a[2], d[2], None, 20.0, 0.01)
        assert got[0] is StepOverflow
        assert got != self._named(2, integrate_covariance, a[4], d[4], None, 20.0, 0.01)

    def test_overflow_names_a_later_system(self):
        # an unstable drift at k = 1 is named; alone it keeps the bare message
        a, d = self._stack(-np.eye(6), np.eye(6))
        got = self._raised(
            validation._integrate_covariances, a, d, np.zeros_like(a), t_end=60.0, dt=0.1
        )
        assert got == self._named(1, integrate_covariance, a[1], d[1], None, 60.0, 0.1)
        assert got[1].startswith("system 1: propagator entry reached ")

    def test_residual_error_names_its_system(self, monkeypatch):
        # a solve that is off on system 1 alone fails the oracle's own residual check
        solve = np.linalg.solve

        def off_on_system_1(lhs, rhs):
            vec = solve(lhs, rhs)
            vec[1] *= 1.01
            return vec

        monkeypatch.setattr(np.linalg, "solve", off_on_system_1)
        a, d = self._stack(-np.eye(6), -2.0 * np.eye(6), -3.0 * np.eye(6))
        error, message = self._raised(validation._lyapunov_oracles, a, d)
        assert error is SolveFailure
        assert message.startswith("system 1: oracle residual ")

    @pytest.mark.parametrize("count", [0, 1])
    def test_zero_and_one_system_stacks(self, count):
        # verify's stacked routes take stacks of any size, the empty one too
        a, d = validation._random_stable_systems(np.random.default_rng(count), count)
        assert a.shape == d.shape == (count, 6, 6)
        _, v_solver, errors = steady_covariances(a, d)
        assert list(errors) == [None] * count
        v_oracle = validation._lyapunov_oracles(a, d)
        v_ode = validation._integrate_covariances(a, d, np.zeros_like(a), t_end=100.0, dt=0.02)
        for v in (v_solver, v_oracle, v_ode):
            assert np.shape(v) == (count, 6, 6)
        diffs = np.abs([v_solver - v_oracle, v_solver - v_ode, v_oracle - v_ode])
        assert np.max(diffs, initial=0.0) <= 1e-6


def test_oracles_share_no_production_solver_code():
    # the oracle and the integrator certify the package solver, so their
    # bodies, and every function of this module that they reach (the
    # stacked bodies among them), may use no name taken from
    # lgsteer.gaussian except the container they return (a module alias
    # counts as every name); the seeded draws are held to the same rule
    import lgsteer.validation as validation

    tree = ast.parse(inspect.getsource(validation))
    from_gaussian = set()
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if node.module in ("gaussian", "lgsteer.gaussian") or alias.name == "gaussian":
                from_gaussian.add(alias.asname or alias.name)
    assert "lyapunov_residual" in from_gaussian  # the scan sees the imports
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo = ["lyapunov_oracle", "integrate_covariance", "random_stable_system"]
    scanned = set()
    while todo:
        name = todo.pop()
        if name in scanned:
            continue
        scanned.add(name)
        used = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert used & from_gaussian <= {"CovarianceMatrix"}, name
        todo.extend(used & functions.keys())
    # the scan reaches the stacked bodies that verify runs
    assert {
        "_lyapunov_oracles",
        "_integrate_covariances",
        "_random_stable_systems",
        "_kron_sum",
    } <= scanned
    # the RK4 route builds its own symmetric-covariance tables: it reaches
    # no private table or helper of lgsteer.gaussian, by name, as an
    # attribute, or as a module global of validation bound to one
    from lgsteer import gaussian

    private = {
        k: v for k, v in vars(gaussian).items() if k.startswith("_") and not k.startswith("__")
    }
    assert {"_SYM", "_ROWS", "_COLS", "_TERMS", "_operator"} <= private.keys()
    todo, route, names = ["integrate_covariance"], set(), set()
    while todo:
        name = todo.pop()
        if name in route:
            continue
        route.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo.extend(names & functions.keys())
    assert {"_integrate_covariances", "_duplication", "_kron_sum"} <= route
    assert not names & private.keys()
    tables = {id(v) for v in private.values() if not isinstance(v, (int, float))}
    assert not {id(vars(validation)[k]) for k in names & vars(validation).keys()} & tables
