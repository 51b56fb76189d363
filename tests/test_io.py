"""CSV/JSON serialization, exact round-trips, and golden-file pins."""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

import lgsteer
import lgsteer.io
from lgsteer import (
    Axis,
    BadUnit,
    CLIGHT,
    HBAR,
    KBOLTZ,
    MEASURE_COLUMNS,
    SweepSpec,
    build_model,
    format_report_table,
    full_report,
    parse_result_csv,
    report_to_json,
    run_sweep,
    serialize_csv,
    serialize_json,
    write_result,
)
from lgsteer.config import _axis_doc, system_to_display
from lgsteer.gaussian import _Rows

from conftest import W1, make_params
from test_measures import _with_vacuum_cavity, noisy_tmsv, tmsv

GOLDEN = pathlib.Path(__file__).parent / "golden"


def boundary_sweep():
    vals = tuple(round(v, 10) for v in np.linspace(-0.05, 0.05, 11))
    spec = SweepSpec(make_params(), Axis("detuning_ratio", vals))
    return run_sweep(spec)


def degenerate_detuning_sweep():
    # T = 0, equal mirrors, Q = 10: 21 stable rows, 6 of them with R_min < -1e-6
    vals = tuple(round(v, 10) for v in np.linspace(-2.0, 2.0, 41))
    base = make_params(temperature=0.0, omega_phi2=W1, quality_factor=10.0)
    return run_sweep(SweepSpec(base, Axis("detuning_ratio", vals)))


def mini_2d_sweep():
    spec = SweepSpec(
        make_params(detuning=+W1),
        Axis("opa_gain_ratio", (0.0, 0.05, 0.1)),
        Axis("opa_phase_rad", (0.0, 0.5 * math.pi, math.pi)),
    )
    return run_sweep(spec)


def error_sweep():
    return run_sweep(
        SweepSpec(make_params(detuning=+W1), Axis("laser_power_w", (0.0, 0.05)))
    )


def row_doc(row, omega_phi1: float) -> dict:
    """A row's JSON object, read from the row itself rather than the result's columns."""
    doc = dict(row.coords)
    if row.report is None:
        doc.update(stable="error", error=row.error)
    else:
        doc.update(lgsteer.io._report_values(row.report, omega_phi1))
    return doc


class TestSerializeCsv:
    def test_header_layout(self):
        text = serialize_csv(boundary_sweep())
        header = text.splitlines()[0]
        assert header == "detuning_ratio," + ",".join(MEASURE_COLUMNS)

    def test_two_axis_header(self):
        text = serialize_csv(mini_2d_sweep())
        header = text.splitlines()[0]
        assert header.startswith("opa_gain_ratio,opa_phase_rad,stable,")

    def test_line_endings_and_final_newline(self):
        text = serialize_csv(boundary_sweep())
        assert "\r" not in text
        assert text.endswith("\n")
        assert len(text.splitlines()) == 12  # header + 11 rows

    def test_unstable_rows_keep_margin_only(self):
        text = serialize_csv(boundary_sweep())
        first_row = text.splitlines()[1].split(",")
        assert first_row[1] == "false"
        assert first_row[2:-1] == [""] * (len(MEASURE_COLUMNS) - 2)
        margin = float(first_row[-1])
        assert margin > 0.0  # boundary location survives serialization

    def test_error_rows_are_marked(self):
        text = serialize_csv(error_sweep())
        bad = text.splitlines()[1].split(",")
        assert bad[1] == "error"
        assert bad[2:] == [""] * (len(MEASURE_COLUMNS) - 1)

    def test_stable_rows_are_complete(self):
        text = serialize_csv(mini_2d_sweep())
        for line in text.splitlines()[1:]:
            cells = line.split(",")
            assert cells[2] == "true"
            assert "" not in cells


class TestRoundTrip:
    def test_csv_round_trip_is_exact(self):
        result = boundary_sweep()
        axis_names, rows = parse_result_csv(serialize_csv(result))
        assert axis_names == ["detuning_ratio"]
        assert len(rows) == len(result.rows)
        w1 = result.spec.base.omega_phi1
        for parsed, row in zip(rows, result.rows):
            assert parsed["detuning_ratio"] == row.coords[0][1]
            report = row.report
            assert parsed["stable"] == report.stable
            assert parsed["stability_margin_ratio"] == report.stability_margin / w1
            if report.stable:
                assert parsed["EN_mm"] == report.en_mm
                assert parsed["EN_m1c"] == report.en_m1c
                assert parsed["zeta_M"] == report.zeta_asym
                assert parsed["R_min"] == report.r_min
                assert parsed["steering_class"] == report.steering_class.value
            else:
                assert parsed["EN_mm"] is None
                assert parsed["steering_class"] is None

    def test_error_rows_round_trip(self):
        _, rows = parse_result_csv(serialize_csv(error_sweep()))
        assert rows[0]["stable"] == "error"
        assert rows[0]["EN_mm"] is None
        assert rows[1]["stable"] is True

    def test_rejects_empty_text(self):
        with pytest.raises(BadUnit, match="empty"):
            parse_result_csv("")

    def test_rejects_foreign_header(self):
        with pytest.raises(BadUnit, match="header"):
            parse_result_csv("a,b,c\n1,2,3\n")

    def test_rejects_short_row(self):
        text = serialize_csv(boundary_sweep())
        lines = text.splitlines()
        lines[1] = "0.5,true"
        with pytest.raises(BadUnit, match="cells"):
            parse_result_csv("\n".join(lines))

    def test_rejects_bad_stable_cell(self):
        text = serialize_csv(boundary_sweep())
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[1] = "maybe"
        lines[1] = ",".join(cells)
        with pytest.raises(BadUnit, match="stable"):
            parse_result_csv("\n".join(lines))


class TestSteeringClassCells:
    def test_each_class_through_both_writers(self, monkeypatch):
        # the synthetic states of test_measures' report stage, one class each:
        # two-way, beta to alpha, its mirror swap alpha to beta, and no-way
        noisy, swap = noisy_tmsv(0.5, 0.3).data, [2, 3, 0, 1]
        mirrors = (tmsv(0.5).data, noisy, noisy[np.ix_(swap, swap)], 0.5 * np.eye(4))
        v = np.stack([_with_vacuum_cavity(m) for m in mirrors])
        solved = (_Rows(len(v)), np.full(len(v), -0.25), v)
        monkeypatch.setattr(lgsteer.measures, "_solve", lambda drifts, diffusions: solved)
        axis = Axis("detuning_ratio", (0.5, 1.0, 1.5, 2.0))
        result = run_sweep(SweepSpec(make_params(detuning=+W1), axis))
        w1 = result.spec.base.omega_phi1
        want = [lgsteer.io._report_values(row.report, w1) for row in result.rows]
        assert [values["steering_class"] for values in want] == [
            "two_way", "one_way_beta_to_alpha", "one_way_alpha_to_beta", "no_way"
        ]
        text = serialize_csv(result)
        _, parsed = parse_result_csv(text)
        docs = json.loads(serialize_json(result))["rows"]
        lines = text.splitlines()[1:]
        for line, back, doc, x, values in zip(lines, parsed, docs, axis.values, want):
            assert line.split(",") == [repr(x)] + [lgsteer.io._fmt(c) for c in values.values()]
            assert back == doc == {"detuning_ratio": x, **values}


class TestSerializeJson:
    def test_mirrors_csv_fields(self):
        result = mini_2d_sweep()
        doc = json.loads(serialize_json(result))
        assert len(doc["rows"]) == 9
        row = doc["rows"][0]
        assert row["opa_gain_ratio"] == 0.0
        assert row["stable"] is True
        for key in ("EN_mm", "EN_m1c", "EN_m2c", "zeta_M", "R_min",
                    "steering_class", "stability_margin_ratio"):
            assert key in row

    def test_error_message_survives_in_json(self):
        doc = json.loads(serialize_json(error_sweep()))
        bad = doc["rows"][0]
        assert bad["stable"] == "error"
        assert "NonPositiveParameter" in bad["error"]

    def test_spec_block(self):
        doc = json.loads(serialize_json(boundary_sweep()))
        assert doc["spec"]["system"]["finesse"] == 5000.0
        assert doc["spec"]["axis1"]["name"] == "detuning_ratio"
        assert doc["spec"]["axis2"] is None
        assert doc["metadata"]["constants"]["clight"] == 299792458.0

    @pytest.mark.parametrize("sweep", [boundary_sweep, mini_2d_sweep, error_sweep])
    def test_bytes_are_those_of_indent_2(self, sweep):
        # the rows go through the C encoder; the document must still be
        # json.dumps(doc, indent=2) byte for byte, also for error rows whose
        # messages hold quotes, a backslash, non-ASCII text, a newline, and
        # the very text that joins two rows
        result = sweep()
        messages = [
            'SolveFailure: "quoted" \\ back\\slash',
            "NonPhysicalInput: ν < ½ at Δ = −1 ω, ünïcödé ✓",
            'x"},\n      {"y": 1',
        ]
        marked = dict(zip(range(0, len(result.rows), 2), messages))
        stable = result.columns.stable.copy()
        stable[list(marked)] = False
        result = dataclasses.replace(
            result,
            columns=result.columns._replace(stable=stable),
            errors={**result.errors, **marked},
        )
        spec = result.spec
        doc = {
            "metadata": {
                "version": lgsteer.__version__,
                "constants": {"hbar": HBAR, "kboltz": KBOLTZ, "clight": CLIGHT},
            },
            "spec": {
                "system": system_to_display(spec.base),
                "axis1": _axis_doc(spec.axis1),
                "axis2": _axis_doc(spec.axis2),
            },
            "rows": [row_doc(row, spec.base.omega_phi1) for row in result.rows],
        }
        assert serialize_json(result) == json.dumps(doc, indent=2) + "\n"
        loaded = json.loads(serialize_json(result))["rows"]
        assert all(loaded[k]["error"] == message for k, message in marked.items())

    def test_identical_runs_identical_bytes(self):
        # no timestamp or other volatile value enters the serialized form
        a = serialize_json(boundary_sweep())
        b = serialize_json(boundary_sweep())
        assert a == b
        assert serialize_csv(boundary_sweep()) == serialize_csv(boundary_sweep())


class TestGoldenFiles:
    def test_boundary_sweep_csv(self):
        expected = (GOLDEN / "boundary_sweep.csv").read_text()
        assert serialize_csv(boundary_sweep()) == expected

    def test_boundary_sweep_json(self):
        expected = (GOLDEN / "boundary_sweep.json").read_text()
        assert serialize_json(boundary_sweep()) == expected

    def test_degenerate_detuning_csv(self):
        expected = (GOLDEN / "degenerate_detuning.csv").read_text()
        assert serialize_csv(degenerate_detuning_sweep()) == expected

    def test_mini_2d_csv(self):
        expected = (GOLDEN / "mini_2d.csv").read_text()
        assert serialize_csv(mini_2d_sweep()) == expected


class TestWriteResult:
    def test_writes_csv_and_json(self, tmp_path):
        result = boundary_sweep()
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        write_result(result, str(csv_path), "csv")
        write_result(result, str(json_path), "json")
        assert csv_path.read_text() == serialize_csv(result)
        assert json.loads(json_path.read_text())["rows"]

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(BadUnit, match="format"):
            write_result(boundary_sweep(), str(tmp_path / "x"), "yaml")


class TestSingleReportOutput:
    def test_stable_table(self):
        report = full_report(build_model(make_params(detuning=+W1)))
        table = format_report_table(report, W1)
        lines = table.splitlines()
        assert lines[0].startswith("stable")
        assert lines[0].endswith("true")
        keys = [line.split()[0] for line in lines]
        assert keys == [
            "stable",
            "stability_margin_ratio",
            "EN_mm",
            "EN_m1c",
            "EN_m2c",
            "zeta_m1_m2",
            "zeta_m2_m1",
            "zeta_M",
            "steering_class",
            "R_min",
        ]

    def test_unstable_table_is_short(self):
        report = full_report(build_model(make_params(detuning=-W1)))
        lines = format_report_table(report, W1).splitlines()
        assert len(lines) == 2
        assert lines[0].endswith("false")
        assert float(lines[1].split()[-1]) > 0.0

    def test_report_json_round_trip(self):
        report = full_report(build_model(make_params(detuning=+W1)))
        doc = json.loads(report_to_json(report, W1))
        assert doc["stable"] is True
        assert doc["EN_m1c"] == report.en_m1c
        assert doc["steering_class"] == "no_way"
        unstable = full_report(build_model(make_params(detuning=-W1)))
        doc2 = json.loads(report_to_json(unstable, W1))
        assert doc2["stable"] is False
        assert doc2["EN_mm"] is None
        assert doc2["steering_class"] is None

    @pytest.mark.parametrize(
        "updates, stable, at_threshold",
        [
            ({"detuning": +W1}, True, False),
            ({"detuning": -W1}, False, False),
            # kappa = 2 chi at Delta = 0 is the OPA threshold: not stable, margin 0
            ({"detuning": 0.0, "kappa_override": 0.2 * W1, "opa_gain": 0.1 * W1,
              "opa_phase": 0.0}, False, True),
        ],
        ids=["stable", "not_stable", "opa_threshold"],
    )
    def test_report_json_bytes_are_those_of_indent_2(self, updates, stable, at_threshold):
        # the flat object goes through the C encoder, which indent=2 would turn off
        report = full_report(build_model(make_params(**updates)))
        values = lgsteer.io._point_values(report, W1)
        assert (values["stable"], values["stability_margin_ratio"] == 0.0) == (
            stable, at_threshold
        )
        assert report_to_json(report, W1) == json.dumps(values, indent=2) + "\n"
