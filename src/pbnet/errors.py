"""Exception hierarchy, and the one integer rule every index and count the
package takes goes through.

There is no command-line entry point yet; the one planned in ROADMAP item 4
is to map these onto exit codes: ValidationError -> 1, NumericalError -> 2,
AcceptanceFailure -> 3.
"""

import numpy as np


class PbnetError(Exception):
    """Base class for all package errors."""


class ValidationError(PbnetError):
    """Invalid input, configuration, or model structure."""


class InvalidObservationError(ValidationError):
    """Observation outside the support of the likelihood family."""


class UnboundedLikelihoodError(ValidationError):
    """Log-likelihood ratios have no finite bound for this family."""


class ConnectivityError(ValidationError):
    """Graph is not strongly connected."""


class DegenerateDegreeError(ValidationError):
    """Averaging rule cannot distribute the off-self mass (isolated node)."""


class DivisionDegeneracyError(ValidationError):
    """Some agent has full self-weight while others still listen to it."""


class IndistinguishableHypothesesError(ValidationError):
    """Two distinct hypotheses induce the same observation distribution."""


class GraphGenerationError(ValidationError):
    """Random graph generation exhausted its resampling budget."""


class NumericalError(PbnetError):
    """A numerical procedure failed to meet its tolerance contract."""


class NonConvergenceError(NumericalError):
    """A solve returned a result that fails its residual or sign check."""


class MeasurementError(NumericalError):
    """Empirical quantity could not be measured from the trajectory."""


class InconsistentConditionsError(NumericalError):
    """Mutually exclusive sufficient conditions evaluated as both true."""


class AcceptanceFailure(PbnetError):
    """A reproduction-suite criterion failed."""


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value) -> None:
    """ValidationError naming ``name`` unless ``value`` is an integer."""
    if not _is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
