"""Exception hierarchy, and the rules every caller input goes through; no
other module restates one.

An index, a count, a window or a burn-in is a Python or numpy integer other
than a bool, within the bounds its caller gives (``_check_integer``). Below
its least value the error reads ``<name> must be >= <least>, got <value>``,
and above its most ``<name> <value> out of range [<least>, <most>]``. An
array, or a real-valued parameter, holds bool, integer or float entries
(``_numbers``): it is read with no dtype, so text, "0.5" included, is no
number, and ragged rows or object entries raise a typed error naming the
argument instead of a bare numpy one. A real-valued parameter is one number
in an open interval, or one closed above (``_in_interval``): else the error
reads ``<name> must be one number in (<low>, <high>), got <value>``, with
``]`` for a closed end. A vector that must sum to 1 (a pmf row, a mixture
weight row, a column of a combination matrix) does so within ``SUM_TOL``
(``_sums_to_one``), NaN sums failing: else the error names the first bad one,
``<what> <i> sums to <sum>, expected 1``.

There is no command-line entry point yet; the one planned in ROADMAP item 4
is to map these onto exit codes: ValidationError -> 1, NumericalError -> 2,
AcceptanceFailure -> 3.
"""

import numpy as np

#: How far from 1 a pmf row, a mixture weight row or a column of a combination
#: matrix may sum.
SUM_TOL = 1e-12


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


def _in_interval(name: str, value, low, high, closed: bool = False):
    """``value`` as one float, read by the number rule (``_numbers``), in
    (``low``, ``high``), or (``low``, ``high``] when ``closed``; else
    ValidationError naming ``name``, a NaN included."""
    x = _numbers(name, value, float)[()]
    if x.ndim or not (low < x and (x <= high if closed else x < high)):
        raise ValidationError(
            f"{name} must be one number in ({low}, {high}{']' if closed else ')'}, got {x}"
        )
    return x


def _sums_to_one(what: str, sums: np.ndarray) -> None:
    """ValidationError naming the first of ``sums`` farther than ``SUM_TOL``
    from 1, or NaN, as ``<what> <i>``."""
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= SUM_TOL))
    if bad.size:
        raise ValidationError(f"{what} {bad[0]} sums to {sums[bad[0]]:.12g}, expected 1")
