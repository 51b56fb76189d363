"""Run-file parsing: defaults, validation, units, and round-trips."""

import json
import math
import tracemalloc

import pytest

from lgsteer import (
    BadUnit,
    LgsteerError,
    MissingRequired,
    NonPositiveParameter,
    RunConfig,
    UnknownKey,
    UnknownMode,
    build_model,
    full_report,
    parse_config,
    serialize_config,
    to_sweep_spec,
    to_system_params,
    system_to_display,
    table_defaults,
    with_updates,
)
from lgsteer.config import _SYSTEM_KEYS

from conftest import W1, make_params

MINIMAL = '{"run": {"mode": "point"}}'


class TestParsing:
    def test_minimal_point_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.run.mode == "point"
        assert cfg.run.axis1 is None
        assert cfg.output.path is None
        assert cfg.output.format == "csv"

    def test_defaults_fill_system_section(self):
        cfg = parse_config(MINIMAL)
        s = cfg.system
        assert s["cavity_length_m"] == 1e-3
        assert s["mirror_mass_kg"] == 35e-12
        assert s["mirror_radius_m"] == 10e-6
        assert s["omega_phi1_hz"] == 1e7
        assert s["omega_phi2_ratio"] == 1.5
        assert s["laser_power_w"] == 50e-3
        assert s["laser_wavelength_m"] == 810e-9
        assert s["quality_factor"] == 2e7
        assert s["finesse"] == 5e3
        assert s["oam_number"] == 100
        assert s["temperature_k"] == 15e-3
        assert s["opa_gain_ratio"] == 0.0
        assert s["opa_phase_rad"] == 0.0
        assert s["detuning_ratio"] == -1.0
        assert "kappa_override_ratio" not in s

    def test_explicit_values_override_defaults(self):
        cfg = parse_config(
            '{"system": {"detuning_ratio": 1.0, "temperature_k": 0.1},'
            ' "run": {"mode": "point"}}'
        )
        assert cfg.system["detuning_ratio"] == 1.0
        assert cfg.system["temperature_k"] == 0.1
        assert cfg.system["finesse"] == 5e3  # untouched default

    def test_invalid_json(self):
        with pytest.raises(BadUnit, match="not valid JSON"):
            parse_config("{nope")

    def test_non_object_root(self):
        with pytest.raises(BadUnit, match="root"):
            parse_config("[1, 2]")

    def test_missing_run_section(self):
        with pytest.raises(MissingRequired, match="run"):
            parse_config('{"system": {}}')

    def test_unknown_sections_and_keys(self):
        with pytest.raises(UnknownKey, match="sytsem"):
            parse_config('{"sytsem": {}, "run": {"mode": "point"}}')
        with pytest.raises(UnknownKey, match="finnesse"):
            parse_config('{"system": {"finnesse": 1e4}, "run": {"mode": "point"}}')
        with pytest.raises(UnknownKey, match="modee"):
            parse_config('{"run": {"modee": "point"}}')
        with pytest.raises(UnknownKey, match="pathh"):
            parse_config('{"run": {"mode": "point"}, "output": {"pathh": "x"}}')
        # system keys are checked in file order, each value as its key is read
        with pytest.raises(BadUnit, match="finesse"):
            parse_config(
                '{"system": {"finesse": -1, "finnesse": 1e4}, "run": {"mode": "point"}}'
            )
        with pytest.raises(UnknownKey, match="finnesse"):
            parse_config(
                '{"system": {"finnesse": 1e4, "finesse": -1}, "run": {"mode": "point"}}'
            )

    def test_unknown_mode(self):
        with pytest.raises(UnknownMode, match="scan"):
            parse_config('{"run": {"mode": "scan"}}')
        with pytest.raises(UnknownMode):
            parse_config('{"run": {}}')

    def test_bad_unit_messages_name_key_and_unit(self):
        with pytest.raises(BadUnit, match="laser_power_w.*watts"):
            parse_config(
                '{"system": {"laser_power_w": -1.0}, "run": {"mode": "point"}}'
            )
        with pytest.raises(BadUnit, match="temperature_k.*kelvin"):
            parse_config(
                '{"system": {"temperature_k": -0.1}, "run": {"mode": "point"}}'
            )
        with pytest.raises(BadUnit, match="oam_number"):
            parse_config(
                '{"system": {"oam_number": 2.5}, "run": {"mode": "point"}}'
            )
        with pytest.raises(BadUnit, match="finesse"):
            parse_config(
                '{"system": {"finesse": true}, "run": {"mode": "point"}}'
            )

    def test_point_mode_rejects_axes(self):
        with pytest.raises(BadUnit, match="point mode"):
            parse_config(
                '{"run": {"mode": "point",'
                ' "axis1": {"name": "detuning_ratio", "values": [1.0]}}}'
            )

    def test_output_format_validation(self):
        cfg = parse_config(
            '{"run": {"mode": "point"}, "output": {"path": "out.json", "format": "json"}}'
        )
        assert cfg.output.path == "out.json"
        assert cfg.output.format == "json"
        with pytest.raises(BadUnit, match="format"):
            parse_config(
                '{"run": {"mode": "point"}, "output": {"format": "yaml"}}'
            )


class TestAxisParsing:
    def test_explicit_values(self):
        cfg = parse_config(
            '{"run": {"mode": "sweep",'
            ' "axis1": {"name": "detuning_ratio", "values": [0.5, 1.0, 1.5]}}}'
        )
        assert cfg.run.axis1.name == "detuning_ratio"
        assert cfg.run.axis1.values == (0.5, 1.0, 1.5)

    def test_linear_range(self):
        cfg = parse_config(
            '{"run": {"mode": "sweep",'
            ' "axis1": {"name": "detuning_ratio", "start": 0.0, "stop": 1.0,'
            ' "points": 5}}}'
        )
        assert cfg.run.axis1.values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_log_range(self):
        cfg = parse_config(
            '{"run": {"mode": "sweep",'
            ' "axis1": {"name": "temperature_k", "start": 0.001, "stop": 1.0,'
            ' "points": 4, "spacing": "log"}}}'
        )
        vals = cfg.run.axis1.values
        assert vals[0] == pytest.approx(1e-3)
        assert vals[-1] == pytest.approx(1.0)
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert ratios == pytest.approx([10.0, 10.0, 10.0], rel=1e-9)

    def test_log_range_needs_positive_bounds(self):
        with pytest.raises(BadUnit, match="log"):
            parse_config(
                '{"run": {"mode": "sweep",'
                ' "axis1": {"name": "detuning_ratio", "start": -1.0, "stop": 1.0,'
                ' "points": 3, "spacing": "log"}}}'
            )

    def test_values_exclusive_with_range(self):
        with pytest.raises(BadUnit, match="mixes"):
            parse_config(
                '{"run": {"mode": "sweep",'
                ' "axis1": {"name": "detuning_ratio", "values": [1.0],'
                ' "start": 0.0}}}'
            )

    def test_sweep_needs_axis1(self):
        with pytest.raises(MissingRequired, match="axis1"):
            parse_config('{"run": {"mode": "sweep"}}')

    def test_axis_needs_name(self):
        with pytest.raises(MissingRequired, match="name"):
            parse_config(
                '{"run": {"mode": "sweep", "axis1": {"values": [1.0]}}}'
            )

    def test_axis_unknown_key(self):
        with pytest.raises(UnknownKey, match="step"):
            parse_config(
                '{"run": {"mode": "sweep",'
                ' "axis1": {"name": "detuning_ratio", "values": [1.0], "step": 2}}}'
            )

    def test_bad_points(self):
        with pytest.raises(BadUnit, match="points"):
            parse_config(
                '{"run": {"mode": "sweep",'
                ' "axis1": {"name": "detuning_ratio", "start": 0.0, "stop": 1.0,'
                ' "points": 1}}}'
            )
        # beyond what NumPy can allocate; rejected before any grid is built
        with pytest.raises(BadUnit, match="points is too large"):
            parse_config(
                '{"run": {"mode": "sweep",'
                ' "axis1": {"name": "detuning_ratio", "start": 0.0, "stop": 1.0,'
                f' "points": {2**62}}}}}}}'
            )

    def test_grid_size_is_bounded_before_any_point_is_built(self):
        # 10**12 points is within what NumPy may try to allocate; the parse
        # rejects the size before a single value exists
        axis = {"name": "detuning_ratio", "start": 0.0, "stop": 1.0, "points": 10**12}
        tracemalloc.start()
        try:
            with pytest.raises(BadUnit, match="axis1.points is too large, got 1000000000000; "
                               "a grid holds at most 1000000 points"):
                parse_config(json.dumps({"run": {"mode": "sweep", "axis1": axis}}))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_grid_size_bounds_the_product_of_the_axes(self):
        def sweep(n1, axis2):
            axis1 = {"name": "detuning_ratio", "start": 0.0, "stop": 1.0, "points": n1}
            return json.dumps({"run": {"mode": "sweep", "axis1": axis1, "axis2": axis2}})

        gains = {"name": "opa_gain_ratio", "start": 0.0, "stop": 0.1, "points": 1000}
        assert len(parse_config(sweep(1000, gains)).run.axis2.values) == 1000
        with pytest.raises(BadUnit, match="axis2.points is too large, got 1000"):
            parse_config(sweep(1001, gains))
        listed = {"name": "opa_gain_ratio", "values": [0.0] * 1001}
        with pytest.raises(BadUnit, match="axis2.values is too large, got 1001"):
            parse_config(sweep(1000, listed))

    @pytest.mark.parametrize("name", ["temperature_k", "laser_power_w", "opa_gain_ratio"])
    def test_axis_values_obey_their_key_rule(self, name):
        # a value an axis sweeps is held to the rule of the system key of
        # that name, with the same message, for listed and ranged axes
        def error(doc):
            with pytest.raises(BadUnit) as info:
                parse_config(json.dumps(doc))
            return str(info.value)

        system = error({"system": {name: -0.01}, "run": {"mode": "point"}})
        for axis in (
            {"name": name, "values": [-0.01, 0.01]},
            {"name": name, "start": -0.01, "stop": 0.01, "points": 3},
        ):
            assert error({"run": {"mode": "sweep", "axis1": axis}}) == system

    def test_two_axes(self):
        cfg = parse_config(
            '{"run": {"mode": "sweep",'
            ' "axis1": {"name": "opa_gain_ratio", "values": [0.0, 0.1]},'
            ' "axis2": {"name": "opa_phase_rad", "values": [0.0, 3.14]}}}'
        )
        spec = to_sweep_spec(cfg)
        assert spec.shape == (2, 2)
        assert spec.axis2.name == "opa_phase_rad"


class TestConversion:
    def test_to_system_params_defaults(self):
        params = to_system_params(parse_config(MINIMAL))
        assert params == make_params()

    def test_default_runconfig_converts(self):
        assert to_system_params(RunConfig()) == table_defaults()

    def test_partial_system_takes_defaults(self):
        cfg = RunConfig(system={"detuning_ratio": 1.0, "temperature_k": 0.0})
        assert to_system_params(cfg) == make_params(detuning=W1, temperature=0.0)

    @pytest.mark.parametrize("key", list(_SYSTEM_KEYS))
    def test_run_file_rule_is_the_model_rule(self, key):
        # every scale keeps the sign, so a raw value breaks the run-file
        # key's rule exactly when it breaks its model field's rule
        name = _SYSTEM_KEYS[key][0]
        for value in (-1.0, 0.0, 2.5, math.inf):
            try:
                make_params(**{name: value})
                model_ok = True
            except NonPositiveParameter:
                model_ok = False
            doc = json.dumps({"system": {key: value}, "run": {"mode": "point"}})
            try:
                parse_config(doc)
                config_ok = True
            except BadUnit:
                config_ok = False
            assert config_ok is model_ok, (key, value)

    def test_ratio_scaling(self):
        cfg = parse_config(
            '{"system": {"omega_phi1_hz": 2e7, "detuning_ratio": 0.5,'
            ' "opa_gain_ratio": 0.1, "omega_phi2_ratio": 0.8},'
            ' "run": {"mode": "point"}}'
        )
        params = to_system_params(cfg)
        w1 = 2.0 * math.pi * 2e7
        assert params.omega_phi1 == pytest.approx(w1)
        assert params.omega_phi2 == pytest.approx(0.8 * w1)
        assert params.detuning == pytest.approx(0.5 * w1)
        assert params.opa_gain == pytest.approx(0.1 * w1)

    def test_kappa_override_ratio(self):
        cfg = parse_config(
            '{"system": {"kappa_override_ratio": 2.0}, "run": {"mode": "point"}}'
        )
        params = to_system_params(cfg)
        assert params.kappa_override == pytest.approx(2.0 * W1)

    def test_system_to_display_round_trip(self):
        params = make_params(
            detuning=0.7 * W1, opa_gain=0.05 * W1, opa_phase=1.25, temperature=0.2
        )
        for p in (params, with_updates(params, kappa_override=0.3 * W1)):
            display = system_to_display(p)
            text = json.dumps({"system": display, "run": {"mode": "point"}})
            back = to_system_params(parse_config(text))
            assert back == p

    def test_si_value_that_no_decimal_converts_back_to_keeps_its_quotient(self):
        # a detuning set in Python is no decimal times omega_phi1: no decimal
        # of up to 16 digits converts back to it, so the spec names the
        # plain quotient, which converts back one ulp away
        params = with_updates(table_defaults(), detuning=4146122.0249091685)
        display = system_to_display(params)
        ratio = display["detuning_ratio"]
        assert ratio == params.detuning / params.omega_phi1 == 0.06598758149264726
        text = json.dumps({"system": display, "run": {"mode": "point"}})
        back = to_system_params(parse_config(text))
        assert back == with_updates(params, detuning=back.detuning)
        assert abs(back.detuning - params.detuning) == math.ulp(params.detuning)

    @pytest.mark.parametrize("hz", [1e7, 1.2e7, 2e7, 3.3e6])
    def test_scaled_keys_come_back_as_written(self, hz):
        # a scaled key's quotient by its scale can be one ulp off the run
        # file's number (0.9 came back as 0.8999999999999999 at 1.2e7 Hz);
        # the spec must name the run file's own decimal
        scaled = [key for key, (_, scale, _, _) in _SYSTEM_KEYS.items() if scale in ("ratio", "hz")]
        values = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.05, 1.1, 1.25, 1.4017,
                  1.5, 2.0, 1 / 3)
        for key in scaled:
            for value in values:
                if key == "detuning_ratio":
                    value = -value
                system = {"omega_phi1_hz": hz, key: value * (1e6 if key == "omega_phi1_hz" else 1)}
                config = parse_config(json.dumps({"system": system, "run": {"mode": "point"}}))
                display = system_to_display(to_system_params(config))
                assert display[key] == system[key], (key, system[key], display[key])

    def test_to_sweep_spec_requires_sweep_mode(self):
        from lgsteer import InvalidSpec

        with pytest.raises(InvalidSpec, match="sweep"):
            to_sweep_spec(parse_config(MINIMAL))


class TestSerialization:
    def test_round_trip_identity(self):
        cfg = parse_config(
            '{"system": {"detuning_ratio": 1.0},'
            ' "run": {"mode": "sweep",'
            ' "axis1": {"name": "detuning_ratio", "start": -2.0, "stop": 2.0,'
            ' "points": 5}},'
            ' "output": {"path": "x.csv", "format": "csv"}}'
        )
        text = serialize_config(cfg)
        assert parse_config(text) == cfg

    def test_serialization_is_canonical(self):
        cfg = parse_config(MINIMAL)
        text = serialize_config(cfg)
        assert text == serialize_config(parse_config(text))
        assert text.endswith("\n")
        doc = json.loads(text)
        assert set(doc) == {"system", "run", "output"}

    def test_default_runconfig_is_point_mode(self):
        cfg = RunConfig()
        assert cfg.run.mode == "point"
        assert cfg.output.format == "csv"


# values that pass the run-file checks but whose products in the model underflow to 0
# (a division by it, an n̄ of 1/expm1(0)) or overflow (R squared), or that overflow in the
# drift or diffusion
_FAR_VALUES = [
    ("mirror_mass_kg", 1e-320),
    ("mirror_radius_m", 1e-300),
    ("mirror_radius_m", 1e300),
    ("omega_phi1_hz", 1e-300),
    ("omega_phi2_ratio", 1e-300),
    ("laser_wavelength_m", 1e300),
    ("temperature_k", 1e-320),
    ("quality_factor", 1e-300),
    ("finesse", 1e-300),
    ("cavity_length_m", 1e-320),
]


class TestExtremeValues:
    @pytest.mark.parametrize(
        "key, values",
        [pytest.param(k, (v[2] * 1e-6, v[2] * 1e6), id=k) for k, v in _SYSTEM_KEYS.items() if v[2]]
        + [pytest.param(k, (v,), id=f"{k}={v!r}") for k, v in _FAR_VALUES],
    )
    def test_far_from_default_evaluates_or_raises_package_error(self, key, values):
        # six orders of magnitude either side of the default, and values
        # at the ends of the double range, on both sides of resonance: a
        # point is a report or a LgsteerError, never an uncaught Python
        # exception or warning (sub-microkelvin thermal occupations used
        # to overflow in expm1)
        for value in values:
            for detuning in (1.0, -1.0):
                system = {key: value}
                if key != "detuning_ratio":
                    system["detuning_ratio"] = detuning
                doc = json.dumps({"system": system, "run": {"mode": "point"}})
                try:
                    params = to_system_params(parse_config(doc))
                    full_report(build_model(params))
                except LgsteerError:
                    pass
