"""JSON run-configuration parsing, validation, and serialization.

A run file is a single JSON object with three sections: ``system``
(physical parameters, display units), ``run`` (a point evaluation or a
sweep definition), and ``output`` (path and format).  Only ``run`` is
required; absent system keys fall back to the published experimental
defaults.  Frequencies are given as ratios to the left-mirror angular
frequency except ``omega_phi1_hz`` itself, which is an ordinary
frequency in hertz.  Unknown keys anywhere are rejected so typos cannot
silently become defaults.

``_SYSTEM_KEYS`` is the single source of that display-unit convention:
run-file validation, both directions of the SI conversion, the defaults
(:func:`table_defaults`), the presets (sweep :class:`RunConfig` values,
as a run file parses to) and the sweep axes all read it.  The sign rules
are the model's own (:data:`lgsteer.model.FIELD_RULES`).
A sweep axis is one :class:`Axis`, whether a run file or the library
defines it; only a run file's axis values are held to their key's rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadUnit, InvalidSpec, MissingRequired, UnknownKey, UnknownMode
from .model import FIELD_RULES, SystemParams, rule_breach

# scale -> SI value of one display unit, given omega_phi1; "si" values are
# SI already
_UNITS = {"ratio": lambda omega_phi1: omega_phi1, "hz": lambda _: 2.0 * math.pi}
# run-file key -> (SystemParams field, scale, default, unit), in the key
# order of the JSON ``spec`` block.  Scales: "ratio" and "hz" as in
# ``_UNITS``, "si" as-is.  A None default marks an optional key.  Each key
# obeys its field's rule in :data:`lgsteer.model.FIELD_RULES`.
_RATIO = "units of omega_phi1"
_SYSTEM_KEYS: dict = {
    "cavity_length_m": ("cavity_length", "si", 1e-3, "meters"),
    "mirror_mass_kg": ("mirror_mass", "si", 35e-12, "kilograms"),
    "mirror_radius_m": ("mirror_radius", "si", 10e-6, "meters"),
    "omega_phi1_hz": ("omega_phi1", "hz", 1e7, "hertz"),
    "omega_phi2_ratio": ("omega_phi2", "ratio", 1.5, _RATIO),
    "laser_power_w": ("laser_power", "si", 50e-3, "watts"),
    "laser_wavelength_m": ("laser_wavelength", "si", 810e-9, "meters"),
    "quality_factor": ("quality_factor", "si", 2e7, "dimensionless"),
    "finesse": ("finesse", "si", 5e3, "dimensionless"),
    "oam_number": ("oam_number", "si", 100, "dimensionless integer"),
    "temperature_k": ("temperature", "si", 15e-3, "kelvin"),
    "opa_gain_ratio": ("opa_gain", "ratio", 0.0, _RATIO),
    "opa_phase_rad": ("opa_phase", "si", 0.0, "radians"),
    "detuning_ratio": ("detuning", "ratio", -1.0, _RATIO),
    "kappa_override_ratio": ("kappa_override", "ratio", None, _RATIO),
}
_DEFAULTS = {
    key: float(default)
    for key, (_, _, default, _) in _SYSTEM_KEYS.items()
    if default is not None
}

_RUN_KEYS = {"mode", "axis1", "axis2"}
_AXIS_KEYS = {"name", "values", "start", "stop", "points", "spacing"}
_OUTPUT_KEYS = {"path", "format"}
_FORMATS = ("csv", "json")
_SPACINGS = {"linear": np.linspace, "log": np.geomspace}
# points in one run file's grid, over both axes: about 100 times fig3
_MAX_GRID_POINTS = 10**6
_TOO_LARGE = f"; a grid holds at most {_MAX_GRID_POINTS} points"


def _section(raw, allowed, where: str, check=lambda key, value: value) -> dict:
    """Run-file object ``raw`` with ``check`` applied to each value in file
    order; the first key not in ``allowed`` raises :class:`UnknownKey`."""
    if not isinstance(raw, dict):
        raise BadUnit(f"{where} must be an object")
    out = {}
    for key, value in raw.items():
        if key not in allowed:
            raise UnknownKey(f"unknown key {key!r} in {where}")
        out[key] = check(key, value)
    return out


def _check_number(key: str, value, unit: str, rule: str) -> float:
    need = rule_breach(value, rule)
    if need is not None:
        raise BadUnit(f"{key} must be {need}, in {unit}, got {value!r}")
    return float(value)


def _check_key(key: str, value) -> float:
    """``value`` as a float, checked against run-file ``key``'s unit and rule."""
    name, _, _, unit = _SYSTEM_KEYS[key]
    return _check_number(key, value, unit, FIELD_RULES[name])


# closed set of sweepable axes, named and scaled as their run-file keys
_SWEEPABLE = (
    "detuning_ratio",
    "opa_gain_ratio",
    "opa_phase_rad",
    "temperature_k",
    "omega_phi2_ratio",
    "laser_power_w",
)


@dataclass(frozen=True)
class Axis:
    """One sweep axis: a parameter name and its coordinate values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in _SWEEPABLE:
            raise InvalidSpec(
                f"axis {self.name!r} is not sweepable; "
                f"choose from {sorted(_SWEEPABLE)}"
            )
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise InvalidSpec(f"axis {self.name!r} has no values")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidSpec(f"axis {self.name!r} has non-finite values")
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise InvalidSpec(f"axis {self.name!r} must be strictly monotone")
        object.__setattr__(self, "values", vals)


def _check_axes(axis1: Axis, axis2: Axis | None) -> None:
    """Raise :class:`InvalidSpec` when a grid's two axes sweep one key."""
    if axis2 is not None and axis2.name == axis1.name:
        raise InvalidSpec(f"both axes sweep {axis1.name!r}")


@dataclass(frozen=True)
class RunSection:
    """Either a single-point evaluation or a sweep over one/two axes."""

    mode: str
    axis1: Axis | None = None
    axis2: Axis | None = None


@dataclass(frozen=True)
class OutputSection:
    """Where and in which format results are written."""

    path: str | None = None
    format: str = "csv"


@dataclass(frozen=True)
class RunConfig:
    """Validated run file: defaults filled, units still display-side."""

    system: dict = field(default_factory=dict)
    run: RunSection = RunSection("point")
    output: OutputSection = OutputSection()


def _parse_axis(which: str, raw, limit: int = _MAX_GRID_POINTS) -> Axis:
    """A run file's axis of at most ``limit`` points; each value obeys its key's rule."""
    _section(raw, _AXIS_KEYS, which)
    if "name" not in raw:
        raise MissingRequired(f"{which} needs a 'name'")
    name = raw["name"]
    if not isinstance(name, str):
        raise BadUnit(f"{which}.name must be a string, got {name!r}")
    if "values" in raw:
        for key in ("start", "stop", "points", "spacing"):
            if key in raw:
                raise BadUnit(
                    f"{which} mixes explicit 'values' with range key {key!r}"
                )
        vals = raw["values"]
        if not isinstance(vals, list) or not vals:
            raise BadUnit(f"{which}.values must be a non-empty list")
        if len(vals) > limit:
            raise BadUnit(f"{which}.values is too large, got {len(vals)}{_TOO_LARGE}")
        values = tuple(
            _check_number(f"{which}.values[{i}]", v, "axis units", "any")
            for i, v in enumerate(vals)
        )
    else:
        for key in ("start", "stop", "points"):
            if key not in raw:
                raise MissingRequired(f"{which} needs 'values' or start/stop/points")
        start = _check_number(f"{which}.start", raw["start"], "axis units", "any")
        stop = _check_number(f"{which}.stop", raw["stop"], "axis units", "any")
        points = raw["points"]
        if isinstance(points, bool) or not isinstance(points, int) or points < 2:
            raise BadUnit(f"{which}.points must be an integer >= 2, got {points!r}")
        if points > limit:
            raise BadUnit(f"{which}.points is too large, got {points!r}{_TOO_LARGE}")
        spacing = raw.get("spacing", "linear")
        if spacing not in _SPACINGS:
            raise BadUnit(f"{which}.spacing must be 'linear' or 'log', got {spacing!r}")
        if spacing == "log" and (start <= 0.0 or stop <= 0.0):
            raise BadUnit(f"{which} log spacing needs positive start/stop")
        values = tuple(float(v) for v in _SPACINGS[spacing](start, stop, points))
    if name in _SYSTEM_KEYS:
        for value in values:
            _check_key(name, value)
    return Axis(name, values)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run file into a :class:`RunConfig`."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
        raise BadUnit(f"configuration is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise BadUnit("configuration nests too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise BadUnit("configuration root must be a JSON object")
    for key in raw:
        if key not in ("system", "run", "output"):
            raise UnknownKey(f"unknown top-level section {key!r}")
    if "run" not in raw:
        raise MissingRequired("configuration needs a 'run' section")

    system = _section(raw.get("system", {}), _SYSTEM_KEYS, "'system'", _check_key)
    for key, default in _DEFAULTS.items():
        system.setdefault(key, default)

    run_raw = _section(raw["run"], _RUN_KEYS, "'run'")
    mode = run_raw.get("mode")
    if mode not in ("point", "sweep"):
        raise UnknownMode(f"run.mode must be 'point' or 'sweep', got {mode!r}")
    axis1 = axis2 = None
    if mode == "sweep":
        if "axis1" not in run_raw:
            raise MissingRequired("sweep mode needs run.axis1")
        axis1 = _parse_axis("run.axis1", run_raw["axis1"])
        if "axis2" in run_raw:
            axis2 = _parse_axis(
                "run.axis2", run_raw["axis2"], _MAX_GRID_POINTS // len(axis1.values)
            )
            _check_axes(axis1, axis2)
    else:
        for key in ("axis1", "axis2"):
            if key in run_raw:
                raise BadUnit(f"point mode does not take run.{key}")
    run = RunSection(mode, axis1, axis2)

    output_raw = _section(raw.get("output", {}), _OUTPUT_KEYS, "'output'")
    path = output_raw.get("path")
    if path is not None and not isinstance(path, str):
        raise BadUnit(f"output.path must be a string, got {path!r}")
    fmt = output_raw.get("format", OutputSection.format)
    if fmt not in _FORMATS:
        raise BadUnit(f"output.format must be one of {_FORMATS}, got {fmt!r}")
    return RunConfig(system, run, OutputSection(path, fmt))


def _axis_doc(axis: Axis | None) -> dict | None:
    """An axis as its run file and result JSON record it."""
    return None if axis is None else {"name": axis.name, "values": list(axis.values)}


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON text for a config; parses back to an equal object."""
    doc: dict = {"system": dict(sorted(config.system.items()))}
    run: dict = {"mode": config.run.mode}
    for name, axis in (("axis1", config.run.axis1), ("axis2", config.run.axis2)):
        if axis is not None:
            run[name] = _axis_doc(axis)
    doc["run"] = run
    out: dict = {"format": config.output.format}
    if config.output.path is not None:
        out["path"] = config.output.path
    doc["output"] = out
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def to_si(key: str, value, omega_phi1: float) -> tuple[str, float]:
    """The :class:`SystemParams` field and SI value of one run-file key."""
    name, scale = _SYSTEM_KEYS[key][:2]
    if scale in _UNITS:
        value = value * _UNITS[scale](omega_phi1)
    return name, value


def to_system_params(config: RunConfig) -> SystemParams:
    """Convert the display-unit system section into SI model inputs;
    absent keys take their defaults."""
    system = {**_DEFAULTS, **config.system}
    _, w1 = to_si("omega_phi1_hz", system["omega_phi1_hz"], None)
    return SystemParams(**dict(to_si(k, v, w1) for k, v in system.items()))


def _unscaled(value: float, factor: float) -> float:
    """The shortest decimal that :func:`to_si` multiplies by ``factor`` back to ``value``.

    ``value / factor`` can be one ulp off the number a run file gave:
    ``1.5 * w1 / w1`` is 1.4999999999999998 for some ``w1``.
    """
    quotient = value / factor
    for digits in range(1, 17):
        shorter = float(f"{quotient:.{digits}g}")
        if shorter * factor == value:
            return shorter
    return quotient


def system_to_display(params: SystemParams) -> dict:
    """Inverse of :func:`to_system_params`: SI model inputs back to
    display-unit config keys (frequencies as ratios, hertz for the
    reference frequency), each scaled key as the shortest decimal that
    converts back to the stored value."""
    w1 = params.omega_phi1
    out = {}
    for key, (name, scale, _, _) in _SYSTEM_KEYS.items():
        value = getattr(params, name)
        if value is not None:
            out[key] = _unscaled(value, _UNITS[scale](w1)) if scale in _UNITS else value
    return out


def table_defaults() -> SystemParams:
    """Base physical parameters shared by every preset: the run-file
    defaults in SI units."""
    return to_system_params(RunConfig())
