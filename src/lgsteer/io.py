"""Result serialization: CSV tables and the JSON mirror.

The CSV layout is fixed: axis coordinate columns first, then
``MEASURE_COLUMNS``.  Numbers are written as shortest round-trip
decimals, lines end with LF, and files are UTF-8.
Unstable rows print ``false`` with empty measure cells; rows whose
evaluation raised an error print ``error`` in the stable column (the
message itself survives only in the JSON mirror, which carries the same
field names plus a metadata block).  The margin ratio is reported for
unstable rows too — it locates the stability boundary.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from ._version import __version__
from .config import _FORMATS, _axis_doc, system_to_display
from .constants import CLIGHT, HBAR, KBOLTZ
from .errors import BadUnit
from .measures import _CLASSES, _COLUMNS, CorrelationReport, SteeringClass, _measure_columns
from .sweep import SweepResult

_STABLE, _MARGIN, *_MEASURES = (name for _, name in _COLUMNS)
# a sweep row's columns: the stable cell, the measures, then the margin ratio
MEASURE_COLUMNS = (_STABLE, *_MEASURES, _MARGIN)
# the cells after the stable cell of a row that is not stable, but for its margin
_BLANKS = "," * (len(_MEASURES) + 1)
# the values of a row that is not stable, from its stable cell to its margin
_NOT_STABLE = (False,) + (None,) * len(_MEASURES)
# each steering-class code's cell
_CLASS_VALUES = tuple(c.value for c in _CLASSES)
# a row's item separator at indent=2: its fields sit three levels deep
_ROW_SEPARATORS = (",\n      ", ": ")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return repr(float(value))


def _point_values(report: CorrelationReport, omega_phi1: float) -> dict:
    """A report's values keyed by output name in field order, as single-point outputs print
    them: the class as its cell, the margin as a ratio to ``omega_phi1``."""
    values = {name: getattr(report, field) for field, name in _COLUMNS}
    values[_MARGIN] /= omega_phi1
    return {name: v.value if isinstance(v, SteeringClass) else v for name, v in values.items()}


def _report_values(report: CorrelationReport, omega_phi1: float) -> dict:
    """A report's values keyed by ``MEASURE_COLUMNS``: stable, its measures, margin ratio."""
    values = _point_values(report, omega_phi1)
    return {name: values[name] for name in MEASURE_COLUMNS}


def _report_cells(report: CorrelationReport, omega_phi1: float) -> list[str]:
    return [_fmt(v) for v in _report_values(report, omega_phi1).values()]


def _axes(spec) -> list:
    return [axis for axis in (spec.axis1, spec.axis2) if axis is not None]


def _margin_ratios(result: SweepResult) -> list[float]:
    return (result.columns.margin / result.spec.base.omega_phi1).tolist()


def _stable_columns(result: SweepResult, numbers) -> tuple[list[int], list[list]]:
    """The stable rows, and their values from ``EN_mm`` to ``R_min``, one list per column
    of ``MEASURE_COLUMNS``; ``numbers`` maps each list of floats (to its cells, say).

    Each column is taken whole from the result's columns.
    """
    table = result.columns
    stable = np.flatnonzero(table.stable)
    return stable.tolist(), _measure_columns(table.values[stable], numbers, _CLASS_VALUES)


def _not_stable(result: SweepResult):
    """Each row that is not stable, with its error message or None."""
    for k in np.flatnonzero(~result.columns.stable).tolist():
        yield k, result.errors.get(k)


def serialize_csv(result: SweepResult) -> str:
    """Fixed-column CSV text for a sweep result (LF endings), written a column at a time."""
    axes = _axes(result.spec)
    coords = list(map(",".join, itertools.product(*(map(repr, a.values) for a in axes))))
    margins = list(map(repr, _margin_ratios(result)))
    lines = [""] * len(coords)
    stable, columns = _stable_columns(result, lambda column: list(map(repr, column)))
    cells = zip(map(coords.__getitem__, stable), itertools.repeat("true"), *columns,
                map(margins.__getitem__, stable))
    for k, line in zip(stable, map(",".join, cells)):
        lines[k] = line
    for k, error in _not_stable(result):
        cells = f"false{_BLANKS}{margins[k]}" if error is None else "error" + _BLANKS
        lines[k] = f"{coords[k]},{cells}"
    header = ",".join([axis.name for axis in axes] + list(MEASURE_COLUMNS))
    return "\n".join([header, *lines]) + "\n"


def _row_docs(result: SweepResult) -> list[dict]:
    """The JSON object of each row: coordinates, then its values or its error."""
    axes = _axes(result.spec)
    names = [axis.name for axis in axes]
    keys = names + list(MEASURE_COLUMNS)
    coords = list(itertools.product(*(axis.values for axis in axes)))
    margins = _margin_ratios(result)
    docs: list = [None] * len(coords)
    stable, columns = _stable_columns(result, lambda column: column)
    for k, values in zip(stable, zip(*columns)):
        docs[k] = dict(zip(keys, (*coords[k], True, *values, margins[k])))
    for k, error in _not_stable(result):
        if error is None:
            docs[k] = dict(zip(keys, coords[k] + _NOT_STABLE + (margins[k],)))
        else:
            docs[k] = {**dict(zip(names, coords[k])), _STABLE: "error", "error": error}
    return docs


def serialize_json(result: SweepResult) -> str:
    """JSON mirror: same field names as the CSV plus spec and metadata.

    The metadata is the package version and the physical constants, and
    no timestamp, so identical runs produce identical bytes.  The bytes
    are those of ``json.dumps(doc, indent=2)``; the rows go through the C
    encoder, which ``indent`` would turn off.
    """
    spec = result.spec
    doc = {
        "metadata": {
            "version": __version__,
            "constants": {"hbar": HBAR, "kboltz": KBOLTZ, "clight": CLIGHT},
        },
        "spec": {
            "system": system_to_display(spec.base),
            "axis1": _axis_doc(spec.axis1),
            "axis2": _axis_doc(spec.axis2),
        },
    }
    rows = json.dumps(_row_docs(result), separators=_ROW_SEPARATORS)
    # the rows are flat objects whose strings escape every newline, so the
    # only "},\n      {" joins two rows and these edits give indent=2's layout
    rows = rows.replace("},\n      {", "\n    },\n    {\n      ")
    head = json.dumps(doc, indent=2)[:-2]
    return f'{head},\n  "rows": [\n    {{\n      {rows[2:-2]}\n    }}\n  ]\n}}\n'


def write_result(result: SweepResult, path: str, fmt: str) -> None:
    """Write a sweep result to ``path`` as ``csv`` or ``json``."""
    if fmt not in _FORMATS:
        raise BadUnit(f"format must be {' or '.join(map(repr, _FORMATS))}, got {fmt!r}")
    payload = serialize_csv(result) if fmt == "csv" else serialize_json(result)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def format_report_table(report: CorrelationReport, omega_phi1: float) -> str:
    """Aligned key/value table for a single-point report."""
    rows = list(_point_values(report, omega_phi1).items())
    if not report.stable:
        rows = rows[:2]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {_fmt(v)}" for k, v in rows)


def report_to_json(report: CorrelationReport, omega_phi1: float) -> str:
    """JSON document for a single-point report: ``indent=2``'s bytes, from the C encoder."""
    flat = json.dumps(_point_values(report, omega_phi1), separators=(",\n  ", ": "))
    return f"{{\n  {flat[1:-1]}\n}}\n"
