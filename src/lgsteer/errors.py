"""Exception hierarchy shared across the package.

Everything derives from :class:`LgsteerError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish configuration problems from numerical ones.
"""


class LgsteerError(Exception):
    """Base class for all package-specific errors."""


# --- parameter / configuration validation ---------------------------------

class NonPositiveParameter(LgsteerError):
    """A physical parameter that must be strictly positive is not."""


class UnknownKey(LgsteerError):
    """Configuration contains a key that is not part of the schema."""


class BadUnit(LgsteerError):
    """Configuration value has the wrong sign, type, or unit."""


class MissingRequired(LgsteerError):
    """A required configuration section or key is absent."""


class InvalidSpec(LgsteerError):
    """A sweep specification violates its invariants."""


class UnknownPreset(LgsteerError):
    """Requested figure preset name does not exist."""


class UnknownMode(LgsteerError):
    """Requested mode label is not present in a covariance matrix."""


# --- numerics -------------------------------------------------------------

class EigenFailure(LgsteerError):
    """An eigensolver got a bad matrix or did not converge (LAPACK or the QR).

    Signals a numerical pathology, not physical instability.
    """


class SolveFailure(LgsteerError):
    """Linear solve broke down (singular or non-finite intermediate)."""


class SingularSystem(LgsteerError):
    """Marginally stable drift matrix: the steady-state system is singular."""


class StepOverflow(LgsteerError):
    """Covariance ODE integration diverged (entry exceeded the overflow cap)."""


# --- measure-level sanity checks ------------------------------------------

class NonPhysicalInput(LgsteerError):
    """A covariance matrix violates the Heisenberg bound beyond tolerance."""


class NonPositiveDeterminant(LgsteerError):
    """Determinant required to be positive (for a log) is not."""


class NoStableRegion(LgsteerError):
    """Every grid point of a detuning scan is unstable."""
