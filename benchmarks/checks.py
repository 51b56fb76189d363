"""Output checks for the lgsteer benchmark.

Two kinds of check, neither of which compares against stored output:

* properties every row must have (``row_problems``): the stable flag
  agrees with the sign of the margin, not-stable rows carry no measures,
  measures of stable rows are finite and non-negative, zeta_M is
  |zeta_m1_m2 - zeta_m2_m1|, the steering class agrees with the signs of
  the two zetas, steering implies mirror-mirror entanglement;
* an independent recomputation (``Independent``) from the drift and
  diffusion of ``lgsteer.build_model``: margin from ``np.linalg.eigvals``,
  covariance from a dense Kronecker solve of A V + V A^T = -D with
  extended-precision residual refinement, log-negativities from the
  eigenvalues of i Omega V~ and Renyi-2 steering from determinants.  It
  shares no code with ``lgsteer.gaussian``, ``lgsteer.measures`` or
  ``lgsteer.validation``.

Steering follows Kogias et al., PRL 114, 060403 (2015): A steers B when
S(A) > S(AB), with S the Renyi-2 entropy, and ``zeta_m1_m2`` is mirror 1
steering mirror 2 as ``lgsteer.CorrelationReport`` documents.

``self_test`` corrupts a checked row three ways and requires every
corruption to be rejected.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

MEASURE_CELLS = (
    "EN_mm",
    "EN_m1c",
    "EN_m2c",
    "zeta_m1_m2",
    "zeta_m2_m1",
    "zeta_M",
    "steering_class",
    "R_min",
)
EN_CELLS = ("EN_mm", "EN_m1c", "EN_m2c")
ZETA_CELLS = ("zeta_m1_m2", "zeta_m2_m1")

# agreement with the independent route: |x - y| <= rel * |y| + ABS_TOL with
# rel = REL_TOL + FORWARD_FACTOR * eps * cond2(I (x) A + A (x) I).  A solve
# that stops at a backward error of FORWARD_FACTOR * eps (as lgsteer's
# refinement does) can be off by that much times the condition number of the
# Lyapunov operator, which reaches 1e8 when the two mirror frequencies are equal
REL_TOL = 1e-9
ABS_TOL = 1e-12
FORWARD_FACTOR = 32.0
# margins (in units of omega_phi1) agree to this share of max|A| / omega_phi1
MARGIN_TOL = 1e-11
# a zeta at or below this counts as zero for the steering class
CLASS_ZERO = 1e-12
# steering above this must come with EN_mm > 0
HIERARCHY_ZETA = 1e-10
# the self-test perturbs one EN cell by this relative amount
PERTURBATION = 1e-6

_CLASSES = {
    (False, False): "no_way",
    (True, False): "one_way_alpha_to_beta",
    (False, True): "one_way_beta_to_alpha",
    (True, True): "two_way",
}
_OMEGA2 = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_FLIP_SECOND = np.diag([1.0, 1.0, 1.0, -1.0])


# --------------------------------------------------------------------------
# parsing the program's outputs


def _cell(text: str):
    return None if text == "" else float(text)


def parse_csv(text: str):
    """(header, rows) of a result CSV, with the stable column as a bool
    or ``"error"`` and empty cells as ``None``."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = []
    for cells in reader:
        row = dict(zip(header, cells))
        stable = row["stable"]
        row["stable"] = {"true": True, "false": False}.get(stable, stable)
        for key in header:
            if key not in ("stable", "steering_class"):
                row[key] = _cell(row[key])
        if row.get("steering_class") == "":
            row["steering_class"] = None
        rows.append(row)
    return header, rows


def parse_json_rows(text: str):
    """(document, rows) of a result JSON."""
    doc = json.loads(text)
    return doc, doc["rows"]


# --------------------------------------------------------------------------
# properties


def _finite_nonneg(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


def row_problems(row: dict) -> list[str]:
    """Properties one row or point answer must have; [] when it has them."""
    stable = row["stable"]
    margin = row.get("stability_margin_ratio")
    if stable == "error":
        if any(row.get(k) is not None for k in MEASURE_CELLS):
            return ["error row carries measure values"]
        return []
    problems = []
    if not (isinstance(margin, float) and math.isfinite(margin)):
        return [f"margin {margin!r} is not a finite number"]
    if stable is not (margin < 0.0):
        problems.append(f"stable={stable} disagrees with margin {margin!r}")
    if stable is False:
        if any(row.get(k) is not None for k in MEASURE_CELLS):
            problems.append("not-stable row carries measure values")
        return problems
    for key in EN_CELLS + ZETA_CELLS:
        if not _finite_nonneg(row.get(key)):
            problems.append(f"{key}={row.get(key)!r} is not finite and >= 0")
    if problems:
        return problems
    z12, z21 = row["zeta_m1_m2"], row["zeta_m2_m1"]
    if not (isinstance(row.get("zeta_M"), float)
            and abs(row["zeta_M"] - abs(z12 - z21)) <= 1e-15 + 1e-12 * abs(z12 - z21)):
        problems.append(f"zeta_M={row.get('zeta_M')!r} is not |{z12!r} - {z21!r}|")
    expected = _CLASSES[(z12 > CLASS_ZERO, z21 > CLASS_ZERO)]
    if row.get("steering_class") != expected:
        problems.append(f"steering_class={row.get('steering_class')!r}, signs say {expected}")
    if max(z12, z21) > HIERARCHY_ZETA and not row["EN_mm"] > 0.0:
        problems.append(f"steering {max(z12, z21)!r} without mirror-mirror entanglement")
    r_min = row.get("R_min")
    if not (isinstance(r_min, float) and math.isfinite(r_min)):
        problems.append(f"R_min={r_min!r} is not finite")
    return problems


# --------------------------------------------------------------------------
# independent recomputation


def _renyi2(v: np.ndarray) -> float:
    return 0.5 * math.log(np.linalg.det(2.0 * v))


def _log_negativity(v4: np.ndarray) -> float:
    tilde = _FLIP_SECOND @ v4 @ _FLIP_SECOND
    nu = float(np.min(np.abs(np.linalg.eigvals(1j * _OMEGA2 @ tilde))))
    return max(0.0, -math.log(2.0 * nu))


def _pair(v: np.ndarray, i: int, j: int) -> np.ndarray:
    idx = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
    return v[np.ix_(idx, idx)]


def lyapunov_operator(a: np.ndarray) -> np.ndarray:
    """I (x) A + A (x) I, the matrix of V -> A V + V A^T on column-major vec V."""
    eye = np.eye(a.shape[0])
    return np.kron(eye, a) + np.kron(a, eye)


def kronecker_covariance(a: np.ndarray, d: np.ndarray, kron: np.ndarray) -> np.ndarray:
    """Solve A V + V A^T = -D as ``kron @ vec V = -vec D``.

    Two refinement steps with the residual accumulated in long double
    take the solution to full double accuracy (checked against a 40-digit
    solve) even where the operator's condition number is 1e8.
    """
    n = a.shape[0]
    v = np.linalg.solve(kron, -d.reshape(-1, order="F")).reshape((n, n), order="F")
    v = 0.5 * (v + v.T)
    al, dl = a.astype(np.longdouble), d.astype(np.longdouble)
    for _ in range(2):
        vl = v.astype(np.longdouble)
        resid = np.asarray(al @ vl + vl @ al.T + dl, dtype=float)
        dv = np.linalg.solve(kron, -resid.reshape(-1, order="F")).reshape((n, n), order="F")
        v = v + 0.5 * (dv + dv.T)
    return v


class Independent:
    """Margin and measures of one model, recomputed without lgsteer's solver."""

    def __init__(self, model) -> None:
        a, d = model.drift, model.diffusion
        w1 = model.derived.params.omega_phi1
        self.scale = float(np.max(np.abs(a))) / w1
        self.margin_ratio = float(np.max(np.linalg.eigvals(a).real)) / w1
        self.values: dict[str, float] = {}
        self.rel_tol = REL_TOL
        if self.margin_ratio >= 0.0:
            return
        kron = lyapunov_operator(a)
        eps = float(np.finfo(float).eps)
        self.rel_tol = REL_TOL + FORWARD_FACTOR * eps * float(np.linalg.cond(kron))
        v = kronecker_covariance(a, d, kron)
        mm = _pair(v, 0, 1)
        s_mm = _renyi2(mm)
        self.values = {
            "EN_mm": _log_negativity(mm),
            "EN_m1c": _log_negativity(_pair(v, 0, 2)),
            "EN_m2c": _log_negativity(_pair(v, 1, 2)),
            "zeta_m1_m2": max(0.0, _renyi2(mm[:2, :2]) - s_mm),
            "zeta_m2_m1": max(0.0, _renyi2(mm[2:, 2:]) - s_mm),
        }

    def measure(self, name: str) -> float:
        return self.values[name]

    def problems(self, row: dict) -> list[str]:
        """Disagreements between a row and this recomputation."""
        out = []
        margin = row["stability_margin_ratio"]
        tol = MARGIN_TOL * max(1.0, self.scale)
        if abs(margin - self.margin_ratio) > tol:
            out.append(f"margin {margin!r} vs independent {self.margin_ratio!r}")
        if abs(self.margin_ratio) > tol and row["stable"] is not (self.margin_ratio < 0):
            out.append(f"stable={row['stable']} vs independent margin {self.margin_ratio!r}")
        if row["stable"] is True and self.values:
            for key, ref in self.values.items():
                got = row.get(key)
                if not isinstance(got, float) or abs(got - ref) > self.rel_tol * abs(ref) + ABS_TOL:
                    out.append(f"{key}={got!r} vs independent {ref!r}")
        return out


# --------------------------------------------------------------------------
# self-test of the checks


def self_test(row: dict, independent: Independent) -> list[str]:
    """Corrupt a correct stable row three ways; each must be rejected.

    Returns the corruptions that were *not* rejected ([] is a pass).
    """
    missed = []
    cell = max(EN_CELLS, key=lambda k: row[k])
    bumped = dict(row)
    bumped[cell] = row[cell] * (1.0 + PERTURBATION)
    if not independent.problems(bumped):
        missed.append(f"{cell} perturbed by {PERTURBATION:g} relative")
    wrong_class = dict(row)
    wrong_class["steering_class"] = next(
        c for c in _CLASSES.values() if c != row["steering_class"]
    )
    if not row_problems(wrong_class):
        missed.append("wrong steering_class")
    flipped = dict(row)
    flipped["stable"] = not row["stable"]
    if not row_problems(flipped):
        missed.append("stable flag that disagrees with the margin")
    return missed


def verify_problems(code: int, text: str) -> list[str]:
    """``lgsteer verify`` must exit 0 and report PASS for every named check."""
    lines = text.splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not checks:
        problems.append("no check lines")
    problems.extend(f"not passed: {ln}" for ln in checks if not ln.startswith("PASS "))
    if not lines or lines[-1] != f"all {len(checks)} checks passed":
        problems.append(f"summary line {lines[-1] if lines else ''!r}")
    return problems


def verify_self_test(code: int, text: str) -> list[str]:
    missed = []
    if not verify_problems(code, text.replace("PASS ", "FAIL ", 1)):
        missed.append("a check line turned to FAIL")
    if not verify_problems(1, text):
        missed.append("exit code 1")
    return missed
