"""The public names the package exports."""

import ast
import importlib
from pathlib import Path

import lgsteer
import lgsteer.errors


# the public surface; ``__all__`` is derived from the package's imports, so
# this list is what catches a name that drops out or appears by accident
PUBLIC_NAMES = """
Axis BadUnit CLIGHT CheckResult CorrelationReport CovarianceMatrix DerivedParams
EigenFailure HBAR InvalidSpec KBOLTZ LgsteerError LinearModel MEASURE_COLUMNS
MODE_ORDER MissingRequired NoStableRegion NonPhysicalInput
NonPositiveDeterminant NonPositiveParameter OptimumDetuning OutputSection
PRESET_NAMES ReferenceState RunConfig RunSection SingularSystem SolveFailure
SteadyState SteeringClass StepOverflow SweepResult SweepRow SweepSpec
SystemParams UnknownKey UnknownMode UnknownPreset __version__
build_diffusion build_drift build_model derive eigenvalues
format_report_table full_report hamiltonian hessenberg
integrate_covariance log_negativity lyapunov_oracle lyapunov_residual
min_pt_symplectic optimum_detuning parse_config parse_result_csv
preset_variants real_schur reference renyi2_entropy report_to_json
residual_contangle_min run_checks run_sweep serialize_config serialize_csv
serialize_json
steady_covariance steady_covariances steady_state steering steering_asymmetry
symplectic_eigenvalues symplectic_form system_to_display table_defaults
thermal_occupation to_sweep_spec to_system_params with_updates write_result
""".split()


def test_every_exported_name_resolves():
    missing = [name for name in lgsteer.__all__ if not hasattr(lgsteer, name)]
    assert missing == []


def test_exports_are_the_public_surface():
    assert sorted(lgsteer.__all__) == sorted(PUBLIC_NAMES)


def test_no_duplicate_exports():
    assert len(lgsteer.__all__) == len(set(lgsteer.__all__))


def test_every_error_class_is_raised():
    # an error class that nothing raises is dead API; scan the ``raise``
    # statements of the package source for each class by name
    raised = set()
    for path in Path(lgsteer.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = {
        name
        for name, obj in vars(lgsteer.errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert sorted(classes - raised) == []


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _resolve(dotted: str):
    obj = lgsteer
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def test_every_name_the_benchmark_uses_resolves():
    # the benchmark is pinned to names of the package: a deletion that
    # breaks a traced or timed run must fail here, not only in the run
    for path in Path(lgsteer.__file__).parent.glob("*.py"):
        importlib.import_module(f"lgsteer.{path.stem}")
    tree = ast.parse((BENCHMARKS / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    names = {f"lgsteer.{module}.{function}" for module, function, _ in targets}
    for path in BENCHMARKS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                dotted = ast.unparse(node)
                chain = dotted.replace(".", "_").isidentifier()
                if chain and dotted.startswith("lgsteer."):
                    names.add(dotted)
    assert len(names) > len(targets)
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_every_name_the_layer_split_tool_wraps_resolves():
    # tools/layer_split.py times stages by rebinding them, with no fallback:
    # a stage renamed in the package must fail here, not only in the tool
    for path in Path(lgsteer.__file__).parent.glob("*.py"):
        importlib.import_module(f"lgsteer.{path.stem}")
    tree = ast.parse((TOOLS / "layer_split.py").read_text(encoding="utf-8"))
    (routes,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_ROUTES"
    ]
    names = {f"lgsteer.validation.{name}" for _, name in routes}

    def module(owner):
        # the tool's module handles: mods["<module>"], its validation argument, lg
        if isinstance(owner, ast.Subscript) and ast.unparse(owner.value) == "mods":
            return f"lgsteer.{ast.literal_eval(owner.slice)}"
        return {"validation": "lgsteer.validation", "lg": "lgsteer"}.get(ast.unparse(owner))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_timed":
            owner, name = node.args[:2]
            if module(owner) and isinstance(name, ast.Constant):
                names.add(f"{module(owner)}.{name.value}")
        elif isinstance(node, ast.Attribute) and module(node.value):
            names.add(f"{module(node.value)}.{node.attr}")
    assert {
        "lgsteer.sweep._pairs",
        "lgsteer.validation._check",
        "lgsteer.validation._lyapunov_oracles",
        "lgsteer.validation.run_checks",
        "lgsteer.io.serialize_csv",
    } <= names
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_every_name_the_output_digest_imports_resolves():
    # tools/output_digest.py imports its names with no fallback: a public
    # name removed from the package must fail here, not only in the digest
    tree = ast.parse((TOOLS / "output_digest.py").read_text(encoding="utf-8"))
    names = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lgsteer"
        for alias in node.names
    }
    # the scan sees all three import lines
    wanted = {("lgsteer", "run_sweep"), ("lgsteer.cli", "main"), ("lgsteer.io", "serialize_csv")}
    assert wanted <= names
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_no_module_but_the_package_root_imports_eigen():
    # the reference QR in ``eigen`` is off the production path: only the
    # package root re-exports it, so deleting it touches no other module
    importers = []
    for path in sorted(Path(lgsteer.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ("." * node.level) + (node.module or "")
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "eigen" for m in modules):
                importers.append(path.name)
    assert importers == []


def test_no_module_but_measures_names_the_hierarchy_rule():
    # steering without entanglement fails its row in the pair stage of
    # ``measures``, the one statement of the rule; a sweep, a search or a
    # report reaches it only through that stage or ``CorrelationReport``
    rule = {"_HIERARCHY_TOL", "_check_hierarchy"}
    namers, readers = [], []
    for path in sorted(Path(lgsteer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "measures.py":
            readers = [
                node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and any(getattr(n, "id", None) == "_HIERARCHY_TOL" for n in ast.walk(node))
            ]
            continue
        for node in ast.walk(tree):
            if {getattr(node, key, None) for key in ("id", "attr", "name")} & rule:
                namers.append(path.name)
    assert namers == []
    assert readers == ["_check_hierarchy"]


def test_no_module_but_gaussian_and_measures_names_the_chunk_size():
    # a block's stable rows are solved in ``gaussian`` and measured in
    # ``measures`` 64 at a time; no other module runs a stage in chunks
    namers = []
    for path in sorted(Path(lgsteer.__file__).parent.glob("*.py")):
        if path.name in ("gaussian.py", "measures.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "_CHUNK_ROWS" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
                namers.append(path.name)
    assert namers == []
