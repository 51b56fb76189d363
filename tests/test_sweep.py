"""Grid sweeps, the detuning optimizer, and the figure presets."""

import dataclasses
import json
import math
import tracemalloc
from datetime import datetime

import numpy as np
import pytest

import lgsteer.gaussian
import lgsteer.measures
import lgsteer.model
import lgsteer.sweep
from lgsteer import (
    Axis,
    InvalidSpec,
    LgsteerError,
    NoStableRegion,
    SweepSpec,
    SystemParams,
    UnknownPreset,
    __version__,
    build_model,
    full_report,
    full_reports,
    optimum_detuning,
    parse_config,
    preset_variants,
    PRESET_NAMES,
    reduce,
    run_sweep,
    serialize_config,
    steady_covariance,
    table_defaults,
    to_sweep_spec,
    to_system_params,
    with_updates,
)
from lgsteer.config import _SWEEPABLE
from lgsteer.gaussian import _scale
from lgsteer.sweep import _PRESETS, _column

from conftest import W1, make_params, params_at


def small_delta_spec(values=(0.8, 1.0, 1.2)) -> SweepSpec:
    return SweepSpec(make_params(), Axis("detuning_ratio", values))


class TestAxis:
    def test_valid_axis(self):
        ax = Axis("detuning_ratio", [0.0, 0.5, 1.0])
        assert ax.values == (0.0, 0.5, 1.0)
        assert all(isinstance(v, float) for v in ax.values)

    def test_decreasing_is_fine(self):
        Axis("temperature_k", (1.0, 0.1, 0.01))

    def test_unknown_name(self):
        for name in ("mirror_mass_kg", "finesse"):
            with pytest.raises(InvalidSpec, match="not sweepable"):
                Axis(name, (1.0, 2.0))

    @pytest.mark.parametrize("name", _SWEEPABLE)
    def test_axis_matches_run_file_key(self, name):
        # an axis value converts exactly as the run-file key of that name
        def params(system):
            doc = {"system": {"omega_phi1_hz": 2e7, **system}, "run": {"mode": "point"}}
            return to_system_params(parse_config(json.dumps(doc)))

        _, field, values, errors = _column(params({}), 0, Axis(name, (0.37,)))
        assert errors == [None]
        assert values.tolist() == [getattr(params({name: 0.37}), field)]

    def test_empty(self):
        with pytest.raises(InvalidSpec, match="no values"):
            Axis("detuning_ratio", ())

    def test_non_finite(self):
        with pytest.raises(InvalidSpec, match="non-finite"):
            Axis("detuning_ratio", (0.0, math.nan))

    def test_non_monotone(self):
        with pytest.raises(InvalidSpec, match="monotone"):
            Axis("detuning_ratio", (0.0, 1.0, 0.5))
        with pytest.raises(InvalidSpec, match="monotone"):
            Axis("detuning_ratio", (0.0, 0.0, 1.0))


class TestSweepSpec:
    def test_shapes(self):
        one_d = small_delta_spec()
        assert one_d.shape == (3, 1)
        two_d = SweepSpec(
            make_params(),
            Axis("opa_gain_ratio", (0.0, 0.1)),
            Axis("opa_phase_rad", (0.0, 1.0, 2.0)),
        )
        assert two_d.shape == (2, 3)

    def test_rejects_duplicate_axis(self):
        with pytest.raises(InvalidSpec, match="both axes"):
            SweepSpec(
                make_params(),
                Axis("detuning_ratio", (0.0, 1.0)),
                Axis("detuning_ratio", (2.0, 3.0)),
            )


class TestRunSweep:
    def test_single_point_matches_direct_report(self):
        spec = SweepSpec(make_params(), Axis("detuning_ratio", (1.0,)))
        result = run_sweep(spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.error is None
        assert row.coords == (("detuning_ratio", 1.0),)
        direct = full_report(build_model(make_params(detuning=+W1)))
        assert row.report == direct

    def test_grid_order_and_coords(self):
        spec = SweepSpec(
            make_params(detuning=+W1),
            Axis("opa_gain_ratio", (0.0, 0.05)),
            Axis("opa_phase_rad", (0.0, 1.0, 2.0)),
        )
        result = run_sweep(spec)
        assert [r.index for r in result.rows] == [
            (i, j) for i in range(2) for j in range(3)
        ]
        assert result.rows[4].coords == (
            ("opa_gain_ratio", 0.05),
            ("opa_phase_rad", 1.0),
        )

    def test_mixed_stability_rows(self):
        # the sweep crosses the instability boundary without aborting
        result = run_sweep(small_delta_spec((-1.0, 1.0)))
        unstable, stable = result.rows
        assert unstable.report.stable is False
        assert unstable.report.stability_margin > 0.0
        assert unstable.report.en_mm is None
        assert stable.report.stable is True
        assert stable.error is None

    def test_opa_threshold_row_is_not_stable(self):
        # kappa = 2*chi*cos(theta), Delta = 2*chi*sin(theta) at the middle
        # point: the mean field diverges there, yet the sweep completes
        base = make_params(
            kappa_override=0.2 * W1, opa_gain=0.1 * W1, opa_phase=0.0
        )
        axis = Axis("detuning_ratio", (-0.1, 0.0, 0.1))
        result = run_sweep(SweepSpec(base, axis))
        assert all(row.error is None for row in result.rows)
        assert all(row.report.stable is False for row in result.rows)
        threshold = result.rows[1].report
        assert threshold.stability_margin == 0.0
        assert threshold.en_mm is None

    def test_bad_point_is_captured_not_raised(self):
        spec = SweepSpec(make_params(), Axis("laser_power_w", (0.0, 0.05)))
        result = run_sweep(spec)
        bad, good = result.rows
        assert bad.report is None
        assert "NonPositiveParameter" in bad.error
        assert "laser_power" in bad.error
        assert good.error is None
        assert good.report is not None

    def test_two_dimensional_point_is_validated_once(self, monkeypatch):
        # each axis value is checked once, not once per grid point, and
        # when both values of a 2-D point break their rules the row names
        # the field that comes first in FIELD_RULES, whichever axis it is
        # on, as SystemParams would
        spec = SweepSpec(
            make_params(),
            Axis("temperature_k", (-1.0, 0.0, 0.015)),
            Axis("laser_power_w", (0.0, 0.05)),
        )
        checks = []
        check_field = lgsteer.sweep.check_field

        def counted(name, value):
            checks.append((name, value))
            return check_field(name, value)

        monkeypatch.setattr(lgsteer.sweep, "check_field", counted)
        rows = run_sweep(spec).rows
        assert len(rows) == 6
        assert checks == [
            ("temperature", -1.0),
            ("temperature", 0.0),
            ("temperature", 0.015),
            ("laser_power", 0.0),
            ("laser_power", 0.05),
        ]
        assert [row.error for row in rows[:3]] == [
            "NonPositiveParameter: laser_power must be positive, got 0.0",
            "NonPositiveParameter: temperature must be non-negative, got -1.0",
            "NonPositiveParameter: laser_power must be positive, got 0.0",
        ]
        assert rows[3].error is None and rows[4].error == rows[0].error

    def test_equal_mirrors_at_zero_temperature_have_no_residual_noise(self):
        # at T = 0, omega_phi2 = omega_phi1, chi = 0 and Delta = 0 the exact
        # nu(cavity | rest) is 1/2; the float spectrum puts it within
        # eps nu_max of 1/2, which is no entanglement, so R_min is exactly 0
        base = make_params(omega_phi2=W1, temperature=0.0, opa_gain=0.0)
        rows = run_sweep(SweepSpec(base, Axis("detuning_ratio", np.linspace(-2, 2, 81)))).rows
        at_zero = rows[40]
        assert at_zero.coords == (("detuning_ratio", 0.0),)
        assert at_zero.report.stable and at_zero.report.r_min == 0.0

    def test_metadata(self):
        result = run_sweep(small_delta_spec((1.0,)))
        meta = result.metadata
        assert meta["version"] == __version__
        assert set(meta["constants"]) == {"hbar", "kboltz", "clight"}
        datetime.fromisoformat(meta["created_at"])  # parseable timestamp


class TestBlockBuild:
    """A block's drift and diffusion rows equal the one-point build, bit for bit."""

    @staticmethod
    def _check(base: SystemParams, *axes: Axis) -> None:
        columns = [_column(base, which, axis) for which, axis in enumerate(axes)]
        assert all(e is None for column in columns for e in column[3])
        points = [(i, j) for i in range(len(axes[0].values))
                  for j in range(len(axes[-1].values) if len(axes) == 2 else 1)]
        index = np.array(points)
        swept = {name: values[index[:, which]] for which, name, values, _ in columns}
        block = build_model(base, swept)
        assert block.drift.shape == block.diffusion.shape == (len(points), 6, 6)
        # a0 is one value when no swept field moves it
        a0 = np.broadcast_to(block.steady.a0, len(points))
        for k, point in enumerate(points):
            coords = [(axis.name, axis.values[i]) for axis, i in zip(axes, point)]
            one = build_model(params_at(base, coords))
            assert block.drift[k].tobytes() == one.drift.tobytes(), coords
            assert block.diffusion[k].tobytes() == one.diffusion.tobytes(), coords
            assert complex(a0[k]) == complex(one.steady.a0), coords

    def test_detuning(self):
        self._check(make_params(), Axis("detuning_ratio", np.linspace(-2.0, 2.0, 401)))

    def test_gain_by_phase(self):
        self._check(
            make_params(detuning=W1),
            Axis("opa_gain_ratio", np.linspace(0.0, 0.2, 11)),
            Axis("opa_phase_rad", np.linspace(0.0, 2.0 * math.pi, 13)),
        )

    def test_temperature(self):
        # T = 0 and 1e-7 K, where e^(hbar w / kB T) overflows and n̄ reads 0
        values = np.concatenate([[0.0, 1e-7], np.geomspace(1e-6, 1.0, 40)])
        self._check(make_params(detuning=W1), Axis("temperature_k", values))

    def test_mirror_frequency(self):
        values = np.append(np.linspace(0.5, 1.5, 41), [0.999, 1.001])
        self._check(make_params(detuning=W1), Axis("omega_phi2_ratio", np.sort(values)))

    def test_laser_power(self):
        self._check(make_params(detuning=W1), Axis("laser_power_w", np.geomspace(1e-4, 1.0, 41)))

    def test_opa_threshold(self):
        # kappa = 0.2 w1, chi = 0.1 w1, theta = 0, Delta = 0 is the threshold
        base = make_params(kappa_override=0.2 * W1, opa_phase=0.0, detuning=0.0)
        self._check(base, Axis("opa_gain_ratio", (0.0, 0.05, 0.1, 0.15)))
        block = build_model(base, {"opa_gain": np.array([0.1 * W1])})
        assert np.isinf(block.steady.a0[0])

    def test_tiny_negative_phase_is_phase_zero(self):
        _, _, values, errors = _column(make_params(), 0, Axis("opa_phase_rad", (-1e-20, 1.0)))
        assert values.tolist() == [0.0, 1.0] and errors == [None, None]


class TestBlocks:
    """Batching is an implementation detail: blocks never change a row."""

    def test_grid_builds_no_point_parameters(self, monkeypatch):
        # the block path validates the base once and each axis value once:
        # a sweep builds no SystemParams per point, so a 401-point sweep
        # makes as many checks as a 3-point one, and a 2-D grid checks
        # each axis value, not each point
        checks = {"post_init": 0, "rule": 0}
        post_init, rule_breach = SystemParams.__post_init__, lgsteer.model.rule_breach

        def counted_post_init(params):
            checks["post_init"] += 1
            post_init(params)

        def counted_rule(value, rule):
            checks["rule"] += 1
            return rule_breach(value, rule)

        monkeypatch.setattr(SystemParams, "__post_init__", counted_post_init)
        monkeypatch.setattr(lgsteer.model, "rule_breach", counted_rule)
        counts = []
        base = make_params()
        for n in (3, 401):
            checks.update(post_init=0, rule=0)
            rows = run_sweep(SweepSpec(base, Axis("detuning_ratio", np.linspace(-2, 2, n)))).rows
            assert len(rows) == n
            counts.append(checks["post_init"])
        assert counts[0] == counts[1]
        checks.update(post_init=0, rule=0)
        gain = Axis("opa_gain_ratio", np.linspace(0.0, 0.1, 21))
        rows = run_sweep(SweepSpec(base, gain, Axis("detuning_ratio", np.linspace(0.5, 1.5, 21))))
        assert len(rows.rows) == 441
        assert checks == {"post_init": counts[0], "rule": 42}

    @staticmethod
    def _mixed_spec() -> SweepSpec:
        # kappa = 0.2 w1, theta = 0: chi = 0.1 w1 at Delta = 0 is the OPA
        # threshold; chi = 0 is stable on one side, chi = 0.15 w1 mostly not
        rng = np.random.default_rng(909)
        deltas = np.sort(np.append(rng.uniform(-2.0, 2.0, 40), 0.0))
        base = make_params(kappa_override=0.2 * W1, opa_phase=0.0)
        return SweepSpec(
            base, Axis("detuning_ratio", deltas), Axis("opa_gain_ratio", (0.0, 0.1, 0.15))
        )

    @staticmethod
    def _rows(monkeypatch, spec, block, broken):
        # ``broken`` maps grid indices to a factor on their diffusion: -1
        # makes the Lyapunov solution negative definite, so it fails the
        # solver's PSD guard; 0 makes it V = 0, which passes that guard
        # (it allows a jitter) but has no symplectic spectrum
        built = []

        def build(params, swept):
            model = build_model(params, swept)
            rows = range(len(built), len(built) + len(model.diffusion))
            built.extend(rows)
            factors = np.array([broken.get(k, 1.0) for k in rows])
            return dataclasses.replace(model, diffusion=factors[:, None, None] * model.diffusion)

        monkeypatch.setattr(lgsteer.sweep, "_BLOCK_ROWS", block)
        monkeypatch.setattr(lgsteer.sweep, "build_model", build)
        return [repr(row) for row in run_sweep(spec).rows]

    def test_blocks_are_invisible(self, monkeypatch):
        spec = self._mixed_spec()
        n = len(spec.axis1.values) * len(spec.axis2.values)
        clean = run_sweep(spec).rows
        stable = [k for k, row in enumerate(clean) if row.report.stable]
        assert 0 < len(stable) < n
        threshold = clean[3 * list(spec.axis1.values).index(0.0) + 1]
        assert threshold.report.stable is False
        assert threshold.report.stability_margin == 0.0
        broken = {stable[len(stable) // 3]: -1.0, stable[2 * len(stable) // 3]: 0.0}
        whole = self._rows(monkeypatch, spec, n, broken)
        assert self._rows(monkeypatch, spec, 1, broken) == whole
        assert self._rows(monkeypatch, spec, 64, broken) == whole
        messages = {
            -1.0: "SolveFailure: at detuning_ratio={:g}: Lyapunov solution is not "
            "positive semidefinite",
            0.0: "NonPhysicalInput: at detuning_ratio={:g}: covariance matrix is not "
            "positive definite, so it is not a valid state",
        }
        for k, factor in broken.items():
            assert clean[k].error is None
            ratio = clean[k].coords[0][1]
            assert f"error={messages[factor].format(ratio)!r})" in whole[k]
        assert [r for k, r in enumerate(whole) if k not in broken] == [
            repr(row) for k, row in enumerate(clean) if k not in broken
        ]

    @staticmethod
    def _holds(stack, target) -> bool:
        stack = np.asarray(stack)
        return stack.shape[-2:] == target.shape and any(
            np.array_equal(m, target) for m in stack.reshape(-1, *target.shape)
        )

    @pytest.mark.parametrize(
        "stage, prefix",
        [
            ("eigvals", "EigenFailure: at detuning_ratio=1: eigenvalue iteration did not "
             "converge: forced"),
            ("inv", "SolveFailure: at detuning_ratio=1: singular Lyapunov operator: forced"),
            ("residual", "SolveFailure: at detuning_ratio=1: Lyapunov residual "),
            ("report", "NonPhysicalInput: steering 0.3 without entanglement 0.0: hierarchy"),
        ],
    )
    def test_forced_stage_failure_stays_on_its_row(self, monkeypatch, stage, prefix):
        # one stable row of a 21-row block fails a stage that LAPACK or a
        # guard rejects for the whole stack: the stacked eigvals, the
        # stacked inv of the 21x21 Lyapunov operators, the Lyapunov
        # residual bound, or the report's own steering-entanglement check
        # (whose error stays untagged)
        spec = SweepSpec(make_params(), Axis("detuning_ratio", [k / 10 for k in range(-9, 12)]))
        clean = [repr(row) for row in run_sweep(spec).rows]
        marked = build_model(make_params(detuning=+W1))
        scaled = marked.drift / _scale(marked.drift)
        if stage == "residual":
            residual = lgsteer.gaussian._residual

            def inflated(a, v, d):
                out = residual(a, v, d)
                out[[np.array_equal(x, marked.drift) for x in a]] *= 1e12
                return out

            monkeypatch.setattr(lgsteer.gaussian, "_residual", inflated)
        elif stage == "report":
            _, cm = steady_covariance(marked.drift, marked.diffusion)
            pair_det = np.linalg.det(2.0 * reduce(cm, ("mirror1", "mirror2")).data)
            zetas = lgsteer.measures._zetas

            def steering(pair_dets, single_dets):
                out = zetas(pair_dets, single_dets)
                out[[math.isclose(det, pair_det, rel_tol=1e-12) for det in pair_dets]] = 0.3, 0.0
                return out

            monkeypatch.setattr(lgsteer.measures, "_zetas", steering)
        else:
            target = scaled
            if stage == "inv":
                target = lgsteer.gaussian._operator(scaled[None])[0]
            call = getattr(np.linalg, stage)

            def forced(x):
                if self._holds(x, target):
                    raise np.linalg.LinAlgError("forced")
                return call(x)

            monkeypatch.setattr(np.linalg, stage, forced)
        with pytest.raises(LgsteerError) as alone:
            full_report(marked)
        expected = f"{type(alone.value).__name__}: {alone.value}"
        assert expected.startswith(prefix)
        rows = run_sweep(spec).rows
        k = [row.coords[0][1] for row in rows].index(1.0)
        assert rows[k].report is None and rows[k].error == expected
        assert "stable=True" in clean[k]
        assert [r for i, r in enumerate(map(repr, rows)) if i != k] == clean[:k] + clean[k + 1 :]
        assert sum("stable=True" in r for r in clean) > 1
        assert sum("stable=False" in r for r in clean) > 1

    def test_peak_memory_is_bounded(self):
        # a stable row needs about 12 KB of working arrays (two 21x21
        # operators among them), so a 401-point grid solved as one batch
        # peaks near 5 MB; blocks of 64 rows keep it near 1 MB
        base = with_updates(make_params(), omega_phi2=1.5 * W1)
        opt = optimum_detuning(base, "ENmc")
        spec = SweepSpec(
            with_updates(base, detuning=opt.delta),
            Axis("opa_gain_ratio", tuple(np.linspace(0.0, 0.2, 401))),
        )
        tracemalloc.start()
        try:
            rows = run_sweep(spec).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(row.report.stable for row in rows)
        assert peak < 3e6


class TestOptimumDetuning:
    def test_mirror_cavity_peak(self):
        opt = optimum_detuning(table_defaults(), "ENmc")
        assert opt.flat is False
        assert opt.delta_ratio == pytest.approx(1.4017, abs=2e-3)
        assert opt.delta == pytest.approx(opt.delta_ratio * W1, rel=1e-12)

    def test_refinement_lands_on_the_fine_lattice(self, monkeypatch):
        # the grid step is 0.01; the refinement splits the winning
        # bracket [x_k - 0.01, x_k + 0.01] into steps of 0.002 and skips
        # its middle, x_k itself: 401 + 8 evaluations
        evaluated = []

        def counting_reports(models):
            evaluated.append(len(models.drift))
            return full_reports(models)

        monkeypatch.setattr(lgsteer.sweep, "full_reports", counting_reports)
        base = table_defaults()
        opt = optimum_detuning(base, "ENmc")
        assert opt.delta_ratio == pytest.approx(1.402, abs=1e-12)
        assert sum(evaluated) == 409
        refined = full_report(build_model(with_updates(base, detuning=opt.delta)))
        coarse = full_report(build_model(with_updates(base, detuning=1.4 * W1)))
        assert refined.en_m1c > coarse.en_m1c

    def test_flat_landscape_returns_first_argmax(self):
        # mirror-mirror negativity is zero wherever this base is stable,
        # so the optimizer reports a flat landscape
        opt = optimum_detuning(table_defaults(), "ENmm")
        assert opt.flat is True
        assert opt.delta_ratio == 0.0

    def test_unknown_measure(self):
        with pytest.raises(InvalidSpec, match="measure"):
            optimum_detuning(table_defaults(), "ENxy")

    def test_no_stable_region(self):
        # amplifier gain far above the cavity loss rate blows up the
        # amplified quadrature at every detuning on the grid
        with pytest.raises(NoStableRegion):
            optimum_detuning(
                make_params(opa_gain=5.0 * W1, opa_phase=0.0), "ENmm"
            )

    def test_zero_detuning_stable_at_any_power(self):
        # without detuning the undamped mirrors see no back-action loop,
        # so even extreme drive power leaves one marginally stable point
        opt = optimum_detuning(make_params(laser_power=5e3), "ENmm")
        assert opt.flat is True
        assert opt.delta_ratio == 0.0


class TestPresets:
    def test_names(self):
        assert len(PRESET_NAMES) == 19
        assert len(set(PRESET_NAMES)) == 19

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset, match="fig99"):
            preset_variants("fig99")

    def test_detuning_scan_variants(self):
        variants = preset_variants("fig2a")
        assert [tag for tag, _ in variants] == [
            "chi0",
            "chi0p1_theta0",
            "chi0p1_thetapi2",
            "chi0p1_thetapi",
            "chi0p1_theta3pi2",
        ]
        chi0 = variants[0][1]
        assert chi0.base.opa_gain == 0.0
        assert chi0.axis1.name == "detuning_ratio"
        assert len(chi0.axis1.values) == 401
        assert chi0.axis1.values[0] == -2.0
        assert chi0.axis1.values[-1] == 2.0
        pumped = dict(variants)["chi0p1_thetapi2"]
        assert pumped.base.opa_gain == pytest.approx(0.1 * W1)
        assert pumped.base.opa_phase == pytest.approx(0.5 * math.pi)

    def test_shared_detuning_scan_presets(self):
        assert preset_variants("fig2b") == preset_variants("fig2a")
        assert preset_variants("fig5") == preset_variants("fig2a")

    def test_two_dimensional_preset(self):
        variants = preset_variants("fig3")
        assert len(variants) == 1
        tag, spec = variants[0]
        assert tag == ""
        assert spec.shape == (101, 101)
        assert spec.axis1.name == "opa_gain_ratio"
        assert spec.axis2.name == "opa_phase_rad"
        assert spec.base.detuning == pytest.approx(-W1)

    def test_mirror_ratio_presets(self):
        for name, ratio in (
            ("fig6a", 0.5),
            ("fig6b", 1.5),
            ("fig7a", 0.9),
            ("fig7b", 0.95),
            ("fig7c", 1.05),
            ("fig7d", 1.1),
        ):
            spec = preset_variants(name)[0][1]
            assert spec.base.omega_phi2 == pytest.approx(ratio * W1), name
            assert spec.base.opa_gain == 0.0
            assert spec.axis1.name == "detuning_ratio"

    def test_gain_scan_preset(self):
        variants = preset_variants("fig8e")
        assert len(variants) == 1
        spec = variants[0][1]
        assert spec.base.omega_phi2 == pytest.approx(1.5 * W1)
        assert spec.axis1.name == "opa_gain_ratio"
        assert spec.axis1.values[0] == 0.0
        assert spec.axis1.values[-1] == pytest.approx(0.2)
        # base detuning fixed at the unpumped optimum before the gain scan
        opt = optimum_detuning(with_updates(spec.base, opa_gain=0.0), "ENmm")
        assert spec.base.detuning == pytest.approx(opt.delta)

    @pytest.mark.parametrize(
        "name, suffix, config",
        [
            (name, suffix, config)
            for name, variants in _PRESETS.items()
            for suffix, config, measure in variants
            if measure is None
        ],
    )
    def test_preset_is_a_run_file(self, name, suffix, config):
        spec = to_sweep_spec(parse_config(serialize_config(config)))
        assert spec == dict(preset_variants(name))[suffix]

    def test_table_defaults_match_reference_point(self):
        assert table_defaults() == make_params()
