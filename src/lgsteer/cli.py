"""Command-line interface: point evaluation, sweeps, presets, verify.

Commands
--------
``point``        evaluate one parameter point, print a report table
``sweep``        run a configured or preset grid and write CSV/JSON
``preset-list``  list the built-in figure presets
``verify``       run the validation suite (oracles + reference states)

Exit codes: 0 success (including physically unstable points), 1 verify
failure, 2 configuration error, 3 I/O error writing results.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._version import __version__
from .config import _FORMATS, RunConfig, parse_config, to_system_params
from .errors import LgsteerError
from .io import (
    MEASURE_COLUMNS,
    _report_cells,
    format_report_table,
    report_to_json,
    write_result,
)
from .measures import full_report
from .model import build_model
from .sweep import PRESET_NAMES, preset_variants, run_sweep, to_sweep_spec
from .validation import run_checks


def _read_config(path: str | None):
    if path is None:
        return RunConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LgsteerError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _variant_path(base_path: str, suffix: str) -> str:
    if not suffix:
        return base_path
    root, ext = os.path.splitext(base_path)
    return f"{root}_{suffix}{ext}"


def cmd_point(args) -> int:
    params = to_system_params(_read_config(args.config))
    report = full_report(build_model(params))
    if args.format == "json":
        sys.stdout.write(report_to_json(report, params.omega_phi1))
    elif args.format == "csv":
        cells = _report_cells(report, params.omega_phi1)
        sys.stdout.write(",".join(MEASURE_COLUMNS) + "\n")
        sys.stdout.write(",".join(cells) + "\n")
    else:
        print(format_report_table(report, params.omega_phi1))
    return 0


def cmd_sweep(args) -> int:
    if (args.preset is None) == (args.config is None):
        print("error: sweep needs exactly one of --preset or --config", file=sys.stderr)
        return 2
    if args.preset is not None:
        name, config, variants = args.preset, RunConfig(), preset_variants(args.preset)
    else:
        config = _read_config(args.config)
        name, variants = "sweep", [("", to_sweep_spec(config))]
    fmt = args.format or config.output.format
    base_path = args.out or config.output.path or f"{name}.{fmt}"
    for suffix, spec in variants:
        path = _variant_path(base_path, suffix)
        result = run_sweep(spec)
        try:
            write_result(result, path, fmt)
        except OSError as exc:
            print(f"error writing {path!r}: {exc}", file=sys.stderr)
            return 3
        n_stable = int(result.columns.stable.sum())
        print(f"wrote {path}: {len(result.rows)} rows, {n_stable} stable")
    return 0


def cmd_preset_list(_args) -> int:
    for name in PRESET_NAMES:
        print(name)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as NumPy's generators take."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsteer",
        description=(
            "Steady-state quantum correlations of a two-rotating-mirror "
            "Laguerre-Gaussian cavity with an optical parametric amplifier"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate a single parameter point")
    p_point.add_argument("--config", help="JSON run configuration path")
    p_point.add_argument("--format", choices=("table",) + _FORMATS, default="table")
    p_point.set_defaults(fn=cmd_point)

    p_sweep = sub.add_parser("sweep", help="run a grid and write results")
    p_sweep.add_argument("--config", help="JSON run configuration path")
    p_sweep.add_argument("--preset", help="built-in figure preset name")
    p_sweep.add_argument("--out", help="output path (variants add suffixes)")
    p_sweep.add_argument("--format", choices=_FORMATS, default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_list = sub.add_parser("preset-list", help="list built-in presets")
    p_list.set_defaults(fn=cmd_preset_list)

    p_verify = sub.add_parser("verify", help="run the validation suite")
    p_verify.add_argument("--seed", type=_seed, default=12345)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LgsteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
