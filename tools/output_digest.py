"""Print a SHA-256 digest of every user-visible output, one per line.

Covers the CSV and the JSON of every preset variant, the default
``point`` output as a table, CSV and JSON, the exit code and stdout of
``verify`` and ``verify --seed 7``, ``sweep --config`` runs in both
formats over a listed, a linear 2-D, a log-spaced and a
mirror-frequency grid and an 81-point detuning grid whose stable rows
steer one way or not at all, a run file that sets every ``system`` key
away from its default through ``sweep --config`` in both formats and
through ``point --config`` in all three, the exit code and stderr of
``sweep --config`` for four bad axes, two ``sweep --preset`` runs
(their stdout and the names and bytes of the files they write), and
library sweeps whose error rows each come from one bad axis value.  Run it in two checkouts and diff
what it prints to show that a change leaves every output byte-identical:

    python3 tools/output_digest.py > after.txt

It imports ``lgsteer`` from the ``src`` directory next to it, writes
run files and results to a temporary directory, and takes no options.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lgsteer import (  # noqa: E402
    PRESET_NAMES,
    Axis,
    SweepSpec,
    preset_variants,
    run_sweep,
    table_defaults,
    with_updates,
)
from lgsteer.cli import main  # noqa: E402
from lgsteer.io import serialize_csv, serialize_json  # noqa: E402

# every system key away from its default, the optional kappa_override too
_ALL_KEYS = {
    "cavity_length_m": 1.2e-3,
    "mirror_mass_kg": 30e-12,
    "mirror_radius_m": 12e-6,
    "omega_phi1_hz": 1.2e7,
    "omega_phi2_ratio": 1.25,
    "laser_power_w": 0.03,
    "laser_wavelength_m": 1064e-9,
    "quality_factor": 1.5e7,
    "finesse": 6e3,
    "oam_number": 80,
    "temperature_k": 0.01,
    "opa_gain_ratio": 0.05,
    "opa_phase_rad": 1.0,
    "detuning_ratio": 1.0,
    "kappa_override_ratio": 0.9,
}

# run-file sweeps: name -> (system section, axis1, axis2 or None)
_CONFIG_SWEEPS = {
    "listed": (
        {"temperature_k": 0.0},
        {"name": "detuning_ratio", "values": [-1.5, -0.5, 0.5, 1.0, 1.4]},
        None,
    ),
    "linear2d": (
        {"detuning_ratio": 1.0},
        {"name": "opa_gain_ratio", "start": 0.0, "stop": 0.1, "points": 6},
        {"name": "opa_phase_rad", "start": 0.0, "stop": 6.0, "points": 7},
    ),
    "log": (
        {"detuning_ratio": 1.0},
        {"name": "temperature_k", "start": 1e-3, "stop": 1.0, "points": 9,
         "spacing": "log"},
        None,
    ),
    # the one axis that moves g2 and nbar2; 1.0 is the degenerate pair
    "omega2": (
        {"detuning_ratio": 1.0},
        {"name": "omega_phi2_ratio",
         "values": [0.5, 0.75, 0.9, 0.99, 1.0, 1.01, 1.1, 1.25, 1.5]},
        None,
    ),
    # 51 one_way_alpha_to_beta rows and 30 no_way rows
    "steering": (
        {"omega_phi2_ratio": 1.5, "kappa_override_ratio": 0.05, "quality_factor": 10.0,
         "temperature_k": 0.0, "opa_gain_ratio": 0.1, "opa_phase_rad": 1.5707963267948966},
        {"name": "detuning_ratio", "start": 0.8, "stop": 1.6, "points": 81},
        None,
    ),
    "all_keys": (
        _ALL_KEYS,
        {"name": "detuning_ratio", "values": [0.5, 0.8, 1.0, 1.2, 1.6]},
        None,
    ),
}

# run-file axes that ``sweep --config`` must reject
_BAD_AXES = {
    "not_sweepable": {"name": "finesse", "values": [1.0, 2.0]},
    "unknown_name": {"name": "foo", "values": [1.0, 2.0]},
    "not_monotone": {"name": "detuning_ratio", "values": [1.0, 0.5, 2.0]},
    "breaks_rule": {"name": "temperature_k", "values": [-0.01, 0.01]},
}

# ``sweep --preset`` runs: preset -> options before ``--out``, output file name
_CLI_PRESETS = {
    "fig2a": ([], "p.csv"),
    "fig6a": (["--format", "json"], "q.json"),
}


def _error_row_specs():
    """Library grids in which each error row has exactly one bad axis value."""
    base = with_updates(table_defaults(), detuning=table_defaults().omega_phi1)
    power = Axis("laser_power_w", (0.0, 0.05))
    temperature = Axis("temperature_k", (-1.0, 0.015))
    return {
        "power_1d": SweepSpec(base, power),
        "temperature_1d": SweepSpec(base, temperature),
        "temperature_x_detuning": SweepSpec(
            base, temperature, Axis("detuning_ratio", (0.5, 1.0))
        ),
        "detuning_x_power": SweepSpec(base, Axis("detuning_ratio", (0.5, 1.0)), power),
    }


def _line(name: str, text: str) -> str:
    return f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {name}"


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def _cli(argv, tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"exit {code}\n{out.getvalue()}\nstderr\n{err.getvalue()}"
    return text.replace(tmp, "<tmp>")


def _run_file(tmp: str, name: str, system: dict, axis1: dict, axis2) -> str:
    run = {"mode": "sweep", "axis1": axis1}
    if axis2 is not None:
        run["axis2"] = axis2
    path = Path(tmp) / f"{name}.json"
    path.write_text(json.dumps({"system": system, "run": run}), encoding="utf-8")
    return str(path)


def digests():
    """Yield one ``sha256  name`` line per output."""
    # fig2a, fig2b and fig5 share their grids: each distinct grid runs once
    results = {}
    for preset in PRESET_NAMES:
        for suffix, spec in preset_variants(preset):
            if spec not in results:
                results[spec] = run_sweep(spec)
            result = results[spec]
            stem = f"{preset}_{suffix}" if suffix else preset
            yield _line(f"{stem}.csv", serialize_csv(result))
            yield _line(f"{stem}.json", serialize_json(result))
    for fmt in ("table", "csv", "json"):
        argv = ["point"] + ([] if fmt == "table" else ["--format", fmt])
        yield _line(f"point.{fmt}", _stdout(argv))
    yield _line("verify", _stdout(["verify"]))
    yield _line("verify_seed7", _stdout(["verify", "--seed", "7"]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, (system, axis1, axis2) in _CONFIG_SWEEPS.items():
            config = _run_file(tmp, name, system, axis1, axis2)
            for fmt in ("csv", "json"):
                result = Path(tmp) / f"{name}.out.{fmt}"
                argv = ["sweep", "--config", config, "--out", str(result)]
                log = _cli(argv + ["--format", fmt], tmp)
                text = result.read_text(encoding="utf-8") if result.exists() else ""
                yield _line(f"config_{name}.{fmt}", f"{log}\n{text}")
            if name == "all_keys":
                for fmt in ("table", "csv", "json"):
                    argv = ["point", "--config", config, "--format", fmt]
                    yield _line(f"config_all_keys_point.{fmt}", _cli(argv, tmp))
        for name, axis in _BAD_AXES.items():
            config = _run_file(tmp, name, {}, axis, None)
            log = _cli(["sweep", "--config", config], tmp)
            yield _line(f"config_{name}.stderr", log)
    for preset, (options, out) in _CLI_PRESETS.items():
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["sweep", "--preset", preset, *options, "--out", str(Path(tmp) / out)]
            log = _cli(argv, tmp)
            files = sorted(Path(tmp).iterdir())
            written = "".join(f"{f.name}\n{f.read_text(encoding='utf-8')}" for f in files)
            yield _line(f"cli_preset_{preset}", f"{log}\n{written}")
    for name, spec in _error_row_specs().items():
        # the JSON rows carry each error's message; the CSV marks only "error"
        yield _line(f"errors_{name}.json", serialize_json(run_sweep(spec)))


if __name__ == "__main__":
    for line in digests():
        print(line)
