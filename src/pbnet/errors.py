"""Exception hierarchy, and the two rules every caller input goes through.

An index, a count, a window or a burn-in is a Python or numpy integer other
than a bool, within the bounds its caller gives (``_check_integer``). Below
its least value the error reads ``<name> must be >= <least>, got <value>``,
and above its most ``<name> <value> out of range [<least>, <most>]``. An
array, or a real-valued parameter, holds bool, integer or float entries
(``_numbers``): it is read with no dtype, so text, "0.5" included, is no
number, and ragged rows or object entries raise a typed error naming the
argument instead of a bare numpy one.

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


def _check_integer(name: str, value, least=None, most=None) -> None:
    """ValidationError naming ``name`` unless ``value`` is an integer, at
    least ``least`` and at most ``most`` where they are given; a caller that
    gives ``most`` gives ``least`` too."""
    if not _is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValidationError(f"{name} {value} out of range [{least}, {most}]")


def _numbers(what: str, value, dtype=None, error=ValidationError) -> np.ndarray:
    """``value`` as an array of numbers, cast to ``dtype`` when given, or
    ``error`` naming ``what``: when numpy cannot build the array (rows of
    unequal lengths) or its entries are not bool, integer or float. The
    value is read with no dtype, so text is never parsed; a float array
    passes as it is."""
    try:
        x = np.asarray(value)
    except ValueError:
        raise error(f"{what}: not a table of numbers, rows of unequal lengths") from None
    if x.dtype.kind not in "biuf":
        raise error(f"{what}: not a table of numbers, {x.dtype} entries")
    return x if dtype is None else x.astype(dtype, copy=False)
