"""Span tracing of lgsteer's public functions, installed from outside.

``Tracer.install`` rebinds each named function, in every ``lgsteer``
module that holds a reference to it, to a wrapper that records one span
per call: name, start, end, parent span and an outcome tag.  Because the
package imports its functions by name (``from .eigen import
real_schur``), rebinding only the defining module would miss most calls;
rebinding every reference catches calls made inside the package too.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Spans are kept in flat arrays in memory and written out once, at the end
of the run.  A span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function, outcome rule); the rule tags each span:
#   "covariance": "stable" when a covariance came back, else "unstable"
#   "rows":       counts the rows of the SweepResult argument
TARGETS = (
    ("model", "build_model", None),
    ("eigen", "real_schur", None),
    ("eigen", "eigenvalues", None),
    ("gaussian", "steady_covariance", "covariance"),
    ("gaussian", "symplectic_eigenvalues", None),
    ("gaussian", "min_pt_symplectic", None),
    ("measures", "full_report", None),
    ("measures", "residual_contangle_min", None),
    ("measures", "log_negativity", None),
    ("measures", "steering", None),
    ("sweep", "run_sweep", None),
    ("sweep", "optimum_detuning", None),
    ("io", "serialize_csv", "rows"),
    ("io", "serialize_json", "rows"),
    ("io", "report_to_json", None),
    ("io", "write_result", None),
    ("config", "parse_config", None),
    ("cli", "main", None),
    ("validation", "run_checks", None),
    ("validation", "integrate_covariance", None),
    ("validation", "lyapunov_oracle", None),
)

# error classes reported one by one for full_report; others go in the total
ERROR_CLASSES = (
    "MonogamyViolation",
    "NonPhysicalInput",
    "SolveFailure",
    "EigenFailure",
    "NonPositiveDeterminant",
)


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.tag_id = array("i")
        self.rows: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _tag(self, text: str) -> int:
        try:
            return self.tags.index(text)
        except ValueError:
            self.tags.append(text)
            return len(self.tags) - 1

    def _wrap(self, name: str, fn, rule):
        nid = len(self.names)
        self.names.append(name)
        stable_tag = self._tag("stable")
        unstable_tag = self._tag("unstable")
        start, end, name_id = self.start, self.end, self.name_id
        parent, tag_id, stack = self.parent, self.tag_id, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            tag_id.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                tag_id[idx] = self._tag(type(exc).__name__)
                raise
            finally:
                stack.pop()
            end[idx] = clock()
            if rule == "covariance":
                tag_id[idx] = stable_tag if out[1] is not None else unstable_tag
            elif rule == "rows":
                self.rows[name] = self.rows.get(name, 0) + len(args[0].rows)
            return out

        return wrapper

    def install(self) -> None:
        """Rebind every target in every loaded ``lgsteer`` module."""
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "lgsteer" or key.startswith("lgsteer."))
        ]
        for mod_name, fn_name, rule in TARGETS:
            original = getattr(sys.modules[f"lgsteer.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, rule)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """One line per span: id, parent, name, start_s, end_s, outcome."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,outcome\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r},{self.tags[self.tag_id[i]]}\n"
                )

    def layer_metrics(self, rounds: int, factor: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; counts are per round so they repeat exactly.

        Times are multiplied by ``factor``, the traced rounds' machine-speed
        factor, so they are on the same footing as the end-to-end times.
        """
        n = len(self.start)
        dur = (np.array(self.end, dtype=float) - np.array(self.start, dtype=float)) * factor
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        tag_id = np.array(self.tag_id, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_time = dur - child_time
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(name, tag=None):
            m = name_id == ids[name]
            if tag is not None:
                m &= tag_id == (self.tags.index(tag) if tag in self.tags else -1)
            return m

        def calls(name, tag=None):
            return int(np.count_nonzero(mask(name, tag)))

        def mean(values, name, tag=None, scale=1e6):
            m = mask(name, tag)
            k = np.count_nonzero(m)
            return float(values[m].sum() / k * scale) if k else 0.0

        # steady_covariance calls made inside optimum_detuning, found through
        # the parent links (a parent always has a smaller index than its child)
        opt_id = ids["sweep.optimum_detuning"]
        under_opt = [False] * n
        for i, p in enumerate(self.parent):
            under_opt[i] = p >= 0 and (under_opt[p] or self.name_id[p] == opt_id)
        in_search = mask("gaussian.steady_covariance") & np.array(under_opt, dtype=bool)
        opt_evals = int(np.count_nonzero(in_search))
        n_opt = calls("sweep.optimum_detuning")

        def per_row(name):
            rows = self.rows.get(name, 0)
            return float(dur[mask(name)].sum() / rows * 1e6) if rows else 0.0

        full_errors = mask("measures.full_report") & (tag_id != 0)
        out = {
            "model.build_model_us": (mean(dur, "model.build_model"), "us"),
            "model.build_model_calls": (calls("model.build_model") / rounds, "count"),
            "eigen.real_schur_us": (mean(dur, "eigen.real_schur"), "us"),
            "eigen.real_schur_calls": (calls("eigen.real_schur") / rounds, "count"),
            "eigen.eigenvalues_us": (mean(dur, "eigen.eigenvalues"), "us"),
            "eigen.eigenvalues_calls": (calls("eigen.eigenvalues") / rounds, "count"),
            "gaussian.steady_covariance_stable_us": (
                mean(dur, "gaussian.steady_covariance", "stable"), "us"),
            "gaussian.steady_covariance_unstable_us": (
                mean(dur, "gaussian.steady_covariance", "unstable"), "us"),
            "gaussian.steady_covariance_calls": (
                calls("gaussian.steady_covariance") / rounds, "count"),
            "gaussian.symplectic_eigenvalues_us": (
                mean(dur, "gaussian.symplectic_eigenvalues"), "us"),
            "gaussian.symplectic_eigenvalues_calls": (
                calls("gaussian.symplectic_eigenvalues") / rounds, "count"),
            "gaussian.min_pt_symplectic_us": (mean(dur, "gaussian.min_pt_symplectic"), "us"),
            "measures.full_report_self_us": (mean(self_time, "measures.full_report"), "us"),
            "measures.residual_contangle_min_us": (
                mean(dur, "measures.residual_contangle_min"), "us"),
            "measures.log_negativity_us": (mean(dur, "measures.log_negativity"), "us"),
            "measures.steering_us": (mean(dur, "measures.steering"), "us"),
            "measures.full_report_errors": (
                int(np.count_nonzero(full_errors)) / rounds, "count"),
        }
        for cls in ERROR_CLASSES:
            out[f"measures.full_report_errors.{cls}"] = (
                calls("measures.full_report", cls) / rounds, "count")
        out.update({
            "sweep.run_sweep_self_s": (mean(self_time, "sweep.run_sweep", scale=1.0), "s"),
            "sweep.optimum_detuning_s": (mean(dur, "sweep.optimum_detuning", scale=1.0), "s"),
            "sweep.optimum_detuning_evals": (opt_evals / n_opt if n_opt else 0.0, "count"),
            "io.serialize_csv_us_per_row": (per_row("io.serialize_csv"), "us"),
            "io.serialize_json_us_per_row": (per_row("io.serialize_json"), "us"),
            "io.report_to_json_us": (mean(dur, "io.report_to_json"), "us"),
            "io.write_result_s": (mean(dur, "io.write_result", scale=1.0), "s"),
            "config.parse_config_us": (mean(dur, "config.parse_config"), "us"),
            "cli.main_self_us": (mean(self_time, "cli.main"), "us"),
            "validation.run_checks_s": (mean(dur, "validation.run_checks", scale=1.0), "s"),
            "validation.integrate_covariance_s": (
                mean(dur, "validation.integrate_covariance", scale=1.0), "s"),
            "validation.integrate_covariance_calls": (
                calls("validation.integrate_covariance") / rounds, "count"),
            "validation.lyapunov_oracle_us": (mean(dur, "validation.lyapunov_oracle"), "us"),
            "trace.spans": (n / rounds, "count"),
        })
        return out
