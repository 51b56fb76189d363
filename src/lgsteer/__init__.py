"""Steady-state quantum correlations of a Laguerre-Gaussian cavity.

A linearized model of an optical cavity whose two spiral-phase mirrors
rotate under radiation torque, with an intracavity optical parametric
amplifier.  The package computes the steady-state covariance matrix of
the three Gaussian modes (two mirror rotational modes, one cavity
mode), then bipartite/tripartite entanglement and directional Gaussian
steering, over 1-D and 2-D parameter grids with figure presets and a
CSV/JSON command-line surface.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .constants import CLIGHT, HBAR, KBOLTZ
from .errors import (
    BadUnit,
    EigenFailure,
    InvalidSpec,
    LgsteerError,
    MissingRequired,
    NonPhysicalInput,
    NonPositiveDeterminant,
    NonPositiveParameter,
    NoStableRegion,
    SingularSystem,
    SolveFailure,
    StepOverflow,
    UnknownKey,
    UnknownMode,
    UnknownPreset,
)
from .eigen import eigenvalues, hessenberg, real_schur
from .model import (
    DerivedParams,
    LinearModel,
    SteadyState,
    SystemParams,
    build_diffusion,
    build_drift,
    build_model,
    derive,
    hamiltonian,
    steady_state,
    thermal_occupation,
    with_updates,
)
from .gaussian import (
    MODE_ORDER,
    CovarianceMatrix,
    lyapunov_residual,
    min_pt_symplectic,
    partial_transpose,
    reduce,
    steady_covariance,
    steady_covariances,
    symplectic_eigenvalues,
    symplectic_form,
)
from .measures import (
    CorrelationReport,
    SteeringClass,
    classify,
    full_report,
    full_reports,
    log_negativity,
    renyi2_entropy,
    residual_contangle_min,
    steering,
    steering_asymmetry,
)
from .validation import (
    CheckResult,
    ReferenceState,
    integrate_covariance,
    lyapunov_oracle,
    random_stable_system,
    reference,
    run_checks,
)
from .sweep import (
    PRESET_NAMES,
    OptimumDetuning,
    SweepResult,
    SweepRow,
    SweepSpec,
    optimum_detuning,
    preset_variants,
    run_sweep,
    to_sweep_spec,
)
from .config import (
    Axis,
    OutputSection,
    RunConfig,
    RunSection,
    parse_config,
    serialize_config,
    system_to_display,
    table_defaults,
    to_system_params,
)
from .io import (
    MEASURE_COLUMNS,
    format_report_table,
    parse_result_csv,
    report_to_json,
    serialize_csv,
    serialize_json,
    write_result,
)

# the public names are exactly those imported above, each written once
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
