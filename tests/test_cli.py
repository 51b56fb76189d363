"""Command-line surface: argument handling, exit codes, file outputs."""

import json

import pytest

import lgsteer.cli
from lgsteer import (
    MEASURE_COLUMNS,
    PRESET_NAMES,
    parse_result_csv,
    run_checks,
    serialize_config,
    steady_covariances,
)
from lgsteer.cli import main
from lgsteer.sweep import _PRESETS


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_SWEEP = {
    "run": {
        "mode": "sweep",
        "axis1": {"name": "detuning_ratio", "values": [-0.5, 1.0, 1.4]},
    }
}


class TestPoint:
    def test_default_point_is_unstable_but_exits_zero(self, capsys):
        # the default working point sits beyond the instability threshold;
        # that is a physics answer, not a tool failure
        assert main(["point"]) == 0
        out = capsys.readouterr().out
        assert "stable" in out
        assert "false" in out

    def test_table_output_for_stable_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"system": {"detuning_ratio": 1.0}, "run": {"mode": "point"}}
        )
        assert main(["point", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "EN_m1c" in out
        assert "steering_class" in out
        assert "no_way" in out

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"system": {"detuning_ratio": 1.0}, "run": {"mode": "point"}}
        )
        assert main(["point", "--format", "json", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stable"] is True
        assert doc["EN_m1c"] > 0.0

    def test_sub_microkelvin_point(self, tmp_path, capsys):
        system = {"temperature_k": 1e-7, "detuning_ratio": 1.0}
        cfg = write_config(tmp_path, {"system": system, "run": {"mode": "point"}})
        assert main(["point", "--format", "json", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["stable"] is True

    def test_csv_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"system": {"detuning_ratio": 1.0}, "run": {"mode": "point"}}
        )
        assert main(["point", "--format", "csv", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(MEASURE_COLUMNS)
        assert lines[1].startswith("true,")

    def test_csv_output_of_a_point_that_is_not_stable(self, capsys):
        # the default point is not stable: every measure cell is empty
        assert main(["point", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            ",".join(MEASURE_COLUMNS) + "\nfalse,,,,,,,,,0.094185717685525\n"
        )

    def test_point_at_the_stability_boundary_exits_zero(self, tmp_path, capsys):
        # the margin here is below what the eigensolver resolves: it reads
        # 0.0, not stable, instead of failing the Lyapunov solve
        system = {"omega_phi2_ratio": 1.0, "detuning_ratio": -4.649928699652051e-08}
        cfg = write_config(tmp_path, {"system": system, "run": {"mode": "point"}})
        assert main(["point", "--format", "json", "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stable"] is False
        assert doc["stability_margin_ratio"] == 0.0

    def test_table_is_the_default_format(self, capsys):
        assert main(["point"]) == 0
        default = capsys.readouterr().out
        assert main(["point", "--format", "table"]) == 0
        assert capsys.readouterr().out == default

    def test_bad_config_value_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"system": {"laser_power_w": 0.0}, "run": {"mode": "point"}}
        )
        assert main(["point", "--config", cfg]) == 2
        assert "laser_power_w" in capsys.readouterr().err

    def test_oversized_grid_exits_two(self, tmp_path, capsys):
        # point --config reads a sweep-mode file's axes too; a grid above
        # the run-file limit is rejected at parse time, before it is built
        axis = {"name": "detuning_ratio", "start": -1.0, "stop": 1.0, "points": 10**12}
        cfg = write_config(tmp_path, {"run": {"mode": "sweep", "axis1": axis}})
        assert main(["point", "--config", cfg]) == 2
        assert "run.axis1.points is too large" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["point", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"system": {"finnesse": 100}, "run": {"mode": "point"}}
        )
        assert main(["point", "--config", cfg]) == 2
        assert "finnesse" in capsys.readouterr().err

    def test_sweep_file_with_one_key_on_both_axes_exits_two(self, tmp_path, capsys):
        # the whole run file is checked when it is read, even by point
        axis = {"name": "detuning_ratio", "values": [0.5, 1.0]}
        run = {"mode": "sweep", "axis1": axis, "axis2": axis}
        cfg = write_config(tmp_path, {"run": run})
        assert main(["point", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: both axes sweep 'detuning_ratio'\n"


    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(
                {"system": [1], "run": {"mode": "point"}},
                "'system' must be an object",
                id="system_not_an_object",
            ),
            pytest.param(
                {"run": {"mode": "sweep", "axis1": 5}},
                "run.axis1 must be an object",
                id="axis_not_an_object",
            ),
            pytest.param(
                {"run": {"mode": "sweep", "axis1": {"name": 3, "values": [1.0]}}},
                "run.axis1.name must be a string, got 3",
                id="axis_name_not_a_string",
            ),
            pytest.param(
                {"run": {"mode": "sweep", "axis1": {"name": "detuning_ratio", "values": []}}},
                "run.axis1.values must be a non-empty list",
                id="empty_values",
            ),
            pytest.param(
                {"run": {"mode": "sweep", "axis1": {"name": "detuning_ratio", "start": 0.0}}},
                "run.axis1 needs 'values' or start/stop/points",
                id="axis_without_a_range",
            ),
            pytest.param(
                {"run": {"mode": "sweep", "axis1": {
                    "name": "detuning_ratio", "start": 0.1, "stop": 1.0, "points": 3,
                    "spacing": "cubic",
                }}},
                "run.axis1.spacing must be 'linear' or 'log', got 'cubic'",
                id="unknown_spacing",
            ),
            pytest.param(
                {"run": {"mode": "point"}, "output": {"path": 3}},
                "output.path must be a string, got 3",
                id="output_path_not_a_string",
            ),
        ],
    )
    def test_bad_run_file_exits_two_with_its_message(self, tmp_path, capsys, doc, message):
        assert main(["point", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(b'{"run": {"mode": "point"}} \xff', id="not_utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested_100000_deep"),
            pytest.param(
                b'{"system": {"oam_number": 1%s}, "run": {"mode": "point"}}' % (b"0" * 400),
                id="int_beyond_double_range",
            ),
            pytest.param(
                b'{"system": {"oam_number": 1%s}, "run": {"mode": "point"}}' % (b"0" * 5000),
                id="int_too_long_to_parse",
            ),
            pytest.param(
                b'{"run": {"mode": "sweep", "axis1": {"name": "detuning_ratio",'
                b' "start": 0.0, "stop": 1.0, "points": %d}}}' % 2**62,
                id="points_beyond_numpy",
            ),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["point", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSweep:
    def test_config_sweep_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        cfg = write_config(tmp_path, SMALL_SWEEP)
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert f"wrote {out}: 3 rows, 2 stable" in stdout
        axis_names, rows = parse_result_csv(open(out).read())
        assert axis_names == ["detuning_ratio"]
        assert [r["stable"] for r in rows] == [False, True, True]

    def test_output_section_supplies_path_and_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        doc = dict(SMALL_SWEEP)
        doc["output"] = {"path": "fromcfg.json", "format": "json"}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg]) == 0
        written = json.loads((tmp_path / "fromcfg.json").read_text())
        assert len(written["rows"]) == 3

    def test_cli_format_overrides_config(self, tmp_path, capsys):
        doc = dict(SMALL_SWEEP)
        doc["output"] = {"path": str(tmp_path / "o.any"), "format": "json"}
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--format", "csv"]) == 0
        text = (tmp_path / "o.any").read_text()
        assert text.splitlines()[0].startswith("detuning_ratio,stable,")

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg, "--out", a]) == 0
        assert main(["sweep", "--config", cfg, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_preset_writes_what_its_run_file_writes(self, tmp_path, capsys, fmt):
        [(_, config, _)] = _PRESETS["fig6a"]
        cfg = tmp_path / "fig6a.json"
        cfg.write_text(serialize_config(config))
        preset, run_file = tmp_path / f"preset.{fmt}", tmp_path / f"run_file.{fmt}"
        argv = ["sweep", "--format", fmt, "--out"]
        assert main(argv + [str(preset), "--preset", "fig6a"]) == 0
        assert main(argv + [str(run_file), "--config", str(cfg)]) == 0
        assert preset.read_bytes() == run_file.read_bytes()

    def test_preset_variants_get_suffixed_paths(self, tmp_path, capsys):
        # each variant of a preset goes to --out with its suffix before the extension
        out = tmp_path / "f.csv"
        assert main(["sweep", "--preset", "fig4", "--out", str(out)]) == 0
        paths = [tmp_path / "f_chi0.csv", tmp_path / "f_chi0p1_theta3pi2.csv"]
        assert capsys.readouterr().out == "".join(
            f"wrote {path}: 401 rows, 401 stable\n" for path in paths
        )
        assert sorted(tmp_path.iterdir()) == paths
        assert not out.exists()

    def test_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["sweep"]) == 2
        assert "exactly one" in capsys.readouterr().err
        cfg = write_config(tmp_path, SMALL_SWEEP)
        assert main(["sweep", "--config", cfg, "--preset", "fig6a"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_preset_exits_two(self, capsys):
        assert main(["sweep", "--preset", "fig99"]) == 2
        assert "fig99" in capsys.readouterr().err

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_SWEEP)
        missing_dir = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert main(["sweep", "--config", cfg, "--out", missing_dir]) == 3
        assert "error writing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, values, need",
        [
            ("temperature_k", [-0.01, 0.01], "non-negative, in kelvin"),
            ("laser_power_w", [0.0, 0.05], "positive, in watts"),
            ("omega_phi2_ratio", [0.0, 1.0], "positive, in units of omega_phi1"),
            ("opa_gain_ratio", [-0.1, 0.1], "non-negative, in units of omega_phi1"),
        ],
    )
    def test_axis_value_breaking_its_key_rule_exits_two(
        self, tmp_path, capsys, name, values, need
    ):
        out = tmp_path / "scan.csv"
        axis = {"name": name, "values": values}
        cfg = write_config(tmp_path, {"run": {"mode": "sweep", "axis1": axis}})
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert f"{name} must be {need}, got {values[0]!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axis_value_overflowing_in_si_is_an_error_row(self, tmp_path, capsys, fmt):
        # 1e303 passes the run-file check in units of omega_phi1, but its
        # SI detuning overflows to inf: the sweep's own check of the SI value
        # makes that point an error row, and the run still exits 0
        out = tmp_path / f"scan.{fmt}"
        axis = {"name": "detuning_ratio", "values": [1.0, 1e303]}
        cfg = write_config(tmp_path, {"run": {"mode": "sweep", "axis1": axis}})
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        assert f"wrote {out}: 2 rows, 1 stable" in capsys.readouterr().out
        if fmt == "csv":
            _, rows = parse_result_csv(out.read_text())
            assert [r["stable"] for r in rows] == [True, "error"]
        else:
            rows = json.loads(out.read_text())["rows"]
            assert rows[0]["stable"] is True
            assert rows[1] == {
                "detuning_ratio": 1e303,
                "stable": "error",
                "error": "NonPositiveParameter: detuning must be finite, got inf",
            }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_axis_value_whose_square_overflows_gets_a_row(self, tmp_path, capsys, fmt):
        # the SI detuning of 1e150 is finite, but its square in the mean
        # field's denominator is not: the point still gets its own row
        out = tmp_path / f"scan.{fmt}"
        axis = {"name": "detuning_ratio", "values": [1.0, 1e150]}
        cfg = write_config(tmp_path, {"run": {"mode": "sweep", "axis1": axis}})
        assert main(["sweep", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        assert f"wrote {out}: 2 rows, 1 stable" in capsys.readouterr().out
        if fmt == "csv":
            _, rows = parse_result_csv(out.read_text())
            assert [r["stable"] for r in rows] == [True, False]
        else:
            rows = json.loads(out.read_text())["rows"]
            assert [r["stable"] for r in rows] == [True, False]
            assert rows[1]["detuning_ratio"] == 1e150

    def test_point_whose_square_overflows_exits_zero(self, tmp_path, capsys):
        system = {"detuning_ratio": 1e150}
        cfg = write_config(tmp_path, {"system": system, "run": {"mode": "point"}})
        assert main(["point", "--format", "json", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["stable"] is False

    def test_point_mode_config_rejected_for_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"run": {"mode": "point"}})
        assert main(["sweep", "--config", cfg]) == 2
        assert "sweep" in capsys.readouterr().err


class TestPresetList:
    def test_lists_all_presets_in_order(self, capsys):
        assert main(["preset-list"]) == 0
        names = capsys.readouterr().out.split()
        assert tuple(names) == PRESET_NAMES


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 8
        assert "all 8 checks passed" in out

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        # a solver 2 % off fails the checks that use it, and verify says how many
        def wrong_solver(drifts, diffusions):
            margins, covariances, errors = steady_covariances(drifts, diffusions)
            return margins, 1.02 * covariances, errors

        def checks(seed):
            return run_checks(solver=wrong_solver, seed=seed)

        monkeypatch.setattr(lgsteer.cli, "run_checks", checks)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines if line.startswith("FAIL")] == [
            ["FAIL", "solver_identity"],
            ["FAIL", "route_agreement"],
            ["FAIL", "steady_state_physical"],
        ]
        assert lines[-1] == "3 of 8 checks failed"

    def test_verify_seed_flag(self, capsys):
        assert main(["verify", "--seed", "777"]) == 0
        assert "all 8 checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("seed, message", [
        ("-1", "must be a non-negative integer, got -1"),
        ("seven", "invalid int value: 'seven'"),
    ])
    def test_bad_seed_is_a_usage_error(self, capsys, seed, message):
        # a bad argument exits 2 at parse time; 1 would mean a failed check
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", seed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --seed: {message}" in err


class TestParser:
    def test_version_flag(self, capsys):
        from lgsteer import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_command_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestRepeatedCalls:
    def test_second_round_repeats_the_first(self, tmp_path, capsys):
        # one process runs every command twice in a row: nothing a call
        # leaves behind (a cached parser, say) may change a later call's
        # output, exit code or written file
        point = {"system": {"detuning_ratio": 1.0}, "run": {"mode": "point"}}
        point = write_config(tmp_path, point, "point.json")
        out = tmp_path / "scan.csv"
        calls = [["point", "--format", fmt, "--config", point] for fmt in ("table", "json", "csv")]
        calls += [
            ["sweep", "--config", write_config(tmp_path, SMALL_SWEEP), "--out", str(out)],
            ["verify"],
            ["point", "--format", "xml"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        first = [run(argv) for argv in calls]
        assert [call[0] for call in first] == [0, 0, 0, 0, 0, 2]
        assert "invalid choice: 'xml'" in first[-1][2]
        written = out.read_bytes()
        out.unlink()
        assert [run(argv) for argv in calls] == first
        assert out.read_bytes() == written
