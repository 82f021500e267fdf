"""Hypothesis sets and per-hypothesis observation models.

Two families are supported: unit-variance Gaussians (one mean per
hypothesis) and strictly positive finite-support pmfs over {0..S-1}.
Strict positivity of discrete rows is enforced at construction so that
log-likelihood ratios are always finite and integrable; test code may
bypass with ``validate=False``.

All indices are 0-based inside the library; only the ``to_dict`` forms
of the analysis results write hypothesis indices 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import integrate

from .errors import (
    InvalidObservationError,
    NumericalError,
    UnboundedLikelihoodError,
    ValidationError,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Absolute tolerance for adaptive quadrature of Gaussian-vs-mixture KL.
KL_QUAD_TOL = 1e-6
#: Quadrature window half-width in standard deviations beyond the extreme means.
KL_QUAD_SIGMA_SPAN = 10.0

PMF_ROW_TOL = 1e-12


@dataclass(frozen=True)
class HypothesisSet:
    """The finite hypothesis space with the true and the transmitted index."""

    count: int
    true_index: int
    tx_index: int

    def __post_init__(self):
        if self.count < 2:
            raise ValidationError(f"hypothesis count must be >= 2, got {self.count}")
        for name in ("true_index", "tx_index"):
            idx = getattr(self, name)
            if not 0 <= idx < self.count:
                raise ValidationError(
                    f"{name} must be in [0, {self.count - 1}], got {idx}"
                )


class GaussianFamily:
    """Unit-variance Gaussian observation model, one mean per hypothesis.

    The variance is fixed to 1; only the means distinguish hypotheses.
    Observations are real numbers.
    """

    def __init__(self, means: Sequence[float]):
        arr = np.asarray(means, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("means must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Gaussian means must be finite")
        arr.setflags(write=False)
        self.means = arr

    @property
    def hypothesis_count(self) -> int:
        return int(self.means.size)

    def __repr__(self):
        return f"GaussianFamily(means={self.means.tolist()})"


class DiscreteFamily:
    """Finite-support observation model: an H x S table of pmf rows.

    Every row must sum to 1 (within 1e-12) and every entry must be
    strictly positive, which keeps all log-likelihood ratios finite.
    ``validate=False`` skips the positivity check (test fixtures only).
    """

    def __init__(self, pmf: Sequence[Sequence[float]], validate: bool = True):
        table = np.asarray(pmf, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValidationError("pmf must be a 2-D table with at least one row")
        row_sums = table.sum(axis=1)
        bad = np.where(np.abs(row_sums - 1.0) > PMF_ROW_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"pmf row {bad[0]} sums to {row_sums[bad[0]]:.12g}, expected 1"
            )
        if validate:
            if np.any(table <= 0.0):
                r, s = map(int, np.argwhere(table <= 0.0)[0])
                raise ValidationError(
                    f"pmf entry [{r}][{s}] must be strictly positive"
                )
        elif np.any(table < 0.0):
            raise ValidationError("pmf entries must be nonnegative")
        table.setflags(write=False)
        self.pmf = table
        with np.errstate(divide="ignore"):
            self._log_pmf = np.log(table)
        self._log_pmf.setflags(write=False)
        self._cdf = np.cumsum(table, axis=1)

    @property
    def hypothesis_count(self) -> int:
        return int(self.pmf.shape[0])

    @property
    def support_size(self) -> int:
        return int(self.pmf.shape[1])

    def __repr__(self):
        return f"DiscreteFamily(pmf={self.pmf.tolist()})"


LikelihoodModel = Union[GaussianFamily, DiscreteFamily]


@dataclass(frozen=True)
class MixtureSpec:
    """A mixture of the likelihoods of every hypothesis except ``excluded``.

    ``weights`` is a full-length vector over all H hypotheses whose entry at
    ``excluded`` is zero; the rest are nonnegative and sum to one. The uniform
    case (1/(H-1) each) is the averaged complement distribution used by the
    convergence-rate formula; point-mass weights give the vertex probes of the
    self-aware truth-learning check.
    """

    excluded: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise ValidationError("mixture weights must be a 1-D vector, length >= 2")
        if not 0 <= self.excluded < w.size:
            raise ValidationError(f"excluded index {self.excluded} out of range")
        if np.any(w < 0):
            raise ValidationError("mixture weights must be nonnegative")
        if w[self.excluded] != 0.0:
            raise ValidationError("mixture weight on the excluded hypothesis must be 0")
        if abs(w.sum() - 1.0) > PMF_ROW_TOL:
            raise ValidationError(f"mixture weights sum to {w.sum():.12g}, expected 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform_complement(cls, count: int, excluded: int) -> "MixtureSpec":
        """Equal weights 1/(H-1) on every hypothesis other than ``excluded``."""
        if count < 2:
            raise ValidationError("uniform complement needs at least 2 hypotheses")
        w = np.full(count, 1.0 / (count - 1))
        w[excluded] = 0.0
        return cls(excluded, w)

    @classmethod
    def vertex(cls, count: int, excluded: int, target: int) -> "MixtureSpec":
        """Point mass on ``target`` (must differ from ``excluded``)."""
        if target == excluded:
            raise ValidationError("vertex target must differ from the excluded index")
        w = np.zeros(count)
        w[target] = 1.0
        return cls(excluded, w)


def _check_hypothesis(model: LikelihoodModel, theta: int) -> None:
    if not 0 <= theta < model.hypothesis_count:
        raise ValidationError(
            f"hypothesis index {theta} out of range [0, {model.hypothesis_count - 1}]"
        )


def _check_gaussian_obs(xi) -> float:
    x = float(xi)
    if not math.isfinite(x):
        raise InvalidObservationError(f"Gaussian observation must be finite, got {xi}")
    return x


def _check_discrete_obs(model: DiscreteFamily, xi) -> int:
    x = int(xi)
    if x != xi or not 0 <= x < model.support_size:
        raise InvalidObservationError(
            f"observation {xi!r} outside discrete support 0..{model.support_size - 1}"
        )
    return x


def log_likelihood(model: LikelihoodModel, theta: int, xi) -> float:
    """log L(xi | theta) for a single hypothesis and observation."""
    _check_hypothesis(model, theta)
    if isinstance(model, GaussianFamily):
        x = _check_gaussian_obs(xi)
        d = x - model.means[theta]
        return -0.5 * d * d - _LOG_SQRT_2PI
    x = _check_discrete_obs(model, xi)
    return float(model._log_pmf[theta, x])


def likelihood(model: LikelihoodModel, theta: int, xi) -> float:
    """L(xi | theta), strictly positive for validated models."""
    if isinstance(model, DiscreteFamily):
        _check_hypothesis(model, theta)
        return float(model.pmf[theta, _check_discrete_obs(model, xi)])
    return math.exp(log_likelihood(model, theta, xi))


def log_likelihood_row(model: LikelihoodModel, xi) -> np.ndarray:
    """Vector of log L(xi | theta) over all hypotheses, for one observation."""
    if isinstance(model, GaussianFamily):
        x = _check_gaussian_obs(xi)
        d = x - model.means
        return -0.5 * d * d - _LOG_SQRT_2PI
    return model._log_pmf[:, _check_discrete_obs(model, xi)].copy()


def log_likelihood_rows(model: LikelihoodModel, xi_array: np.ndarray) -> np.ndarray:
    """(n, H) matrix of log-likelihoods for a batch of observations."""
    if isinstance(model, GaussianFamily):
        x = np.asarray(xi_array, dtype=float)
        d = x[:, None] - model.means[None, :]
        return -0.5 * d * d - _LOG_SQRT_2PI
    idx = np.asarray(xi_array, dtype=np.int64)
    if np.any(idx < 0) or np.any(idx >= model.support_size):
        raise InvalidObservationError("observation outside discrete support")
    return model._log_pmf[:, idx].T.copy()


def mixture_log_density(model: LikelihoodModel, spec: MixtureSpec, xi) -> float:
    """log of sum_tau q(tau) L(xi | tau)."""
    if spec.weights.size != model.hypothesis_count:
        raise ValidationError("mixture weights length does not match the model")
    row = log_likelihood_row(model, xi)
    active = spec.weights > 0
    vals = np.log(spec.weights[active]) + row[active]
    m = vals.max()
    return float(m + np.log(np.exp(vals - m).sum()))


def _discrete_pmf_of(model: DiscreteFamily, which) -> np.ndarray:
    """Resolve an index or MixtureSpec into a pmf vector over the support."""
    if isinstance(which, MixtureSpec):
        if which.weights.size != model.hypothesis_count:
            raise ValidationError("mixture weights length does not match the model")
        return which.weights @ model.pmf
    _check_hypothesis(model, int(which))
    return model.pmf[int(which)]


def _kl_discrete(p: np.ndarray, q: np.ndarray) -> float:
    # 0 * log(0/q) = 0; q may contain zeros only for unvalidated tables.
    mask = p > 0
    if np.any(q[mask] == 0.0):
        return math.inf
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _gaussian_log_density_fn(model: GaussianFamily, which):
    if isinstance(which, MixtureSpec):
        if which.weights.size != model.hypothesis_count:
            raise ValidationError("mixture weights length does not match the model")
        active = np.where(which.weights > 0)[0]
        logw = np.log(which.weights[active])
        means = model.means[active]

        def logq(x):
            vals = logw - 0.5 * (x - means) ** 2 - _LOG_SQRT_2PI
            m = vals.max()
            return m + np.log(np.exp(vals - m).sum())

        return logq
    theta = int(which)
    _check_hypothesis(model, theta)
    mean = model.means[theta]

    def logp(x):
        return -0.5 * (x - mean) ** 2 - _LOG_SQRT_2PI

    return logp


def kl_divergence(model: LikelihoodModel, p, q) -> float:
    """D_KL between two observation distributions of the same model.

    ``p`` and ``q`` are each a hypothesis index or a :class:`MixtureSpec`.
    Discrete families use the exact finite sum. Gaussian point-vs-point uses
    the closed form (m_p - m_q)^2 / 2. Any Gaussian case involving a mixture
    falls back to adaptive quadrature with absolute tolerance ``KL_QUAD_TOL``,
    truncated ``KL_QUAD_SIGMA_SPAN`` standard deviations beyond the extreme
    means; failure to meet the tolerance raises instead of returning a guess.
    """
    if isinstance(model, DiscreteFamily):
        return _kl_discrete(_discrete_pmf_of(model, p), _discrete_pmf_of(model, q))

    if not isinstance(p, MixtureSpec) and not isinstance(q, MixtureSpec):
        _check_hypothesis(model, int(p))
        _check_hypothesis(model, int(q))
        diff = model.means[int(p)] - model.means[int(q)]
        return 0.5 * float(diff * diff)

    logp = _gaussian_log_density_fn(model, p)
    logq = _gaussian_log_density_fn(model, q)
    lo = float(model.means.min() - KL_QUAD_SIGMA_SPAN)
    hi = float(model.means.max() + KL_QUAD_SIGMA_SPAN)

    def integrand(x):
        lp = logp(x)
        return math.exp(lp) * (lp - logq(x))

    out = integrate.quad(
        integrand, lo, hi, epsabs=KL_QUAD_TOL, epsrel=1e-10, limit=200, full_output=1
    )
    if len(out) > 3:  # an error message element is appended on trouble
        raise NumericalError(f"KL quadrature failed: {out[3]}")
    value, abserr = out[0], out[1]
    if abserr > KL_QUAD_TOL:
        raise NumericalError(
            f"KL quadrature error estimate {abserr:.3g} exceeds tolerance {KL_QUAD_TOL:.3g}"
        )
    if value < -KL_QUAD_TOL:
        raise NumericalError(f"KL quadrature produced a negative value {value:.3g}")
    return max(value, 0.0)


def likelihood_bound(model: LikelihoodModel, excluded: int) -> float:
    """Largest |log L(xi|a) - log L(xi|b)| over the support and all pairs
    a, b != excluded.

    This is the boundedness constant used by the self-aware mislearning
    condition. It is finite only for discrete families; a Gaussian family
    raises, since its log-ratios are unbounded in xi.
    """
    _check_hypothesis(model, excluded)
    if isinstance(model, GaussianFamily):
        raise UnboundedLikelihoodError(
            "Gaussian log-likelihood ratios are unbounded; the boundedness "
            "constant exists only for finite-support families"
        )
    keep = [h for h in range(model.hypothesis_count) if h != excluded]
    if len(keep) < 2:
        return 0.0
    logs = model._log_pmf[keep]
    best = 0.0
    for i in range(len(keep)):
        for j in range(i + 1, len(keep)):
            best = max(best, float(np.max(np.abs(logs[i] - logs[j]))))
    return best


def sample_observation(model: LikelihoodModel, theta: int, rng: np.random.Generator,
                       size=None):
    """Draw from L(. | theta). Scalar when ``size`` is None, else an array.

    Deterministic given the generator state. Discrete draws use inverse-CDF
    lookup so the same uniform stream yields the same observations everywhere.
    """
    _check_hypothesis(model, theta)
    if isinstance(model, GaussianFamily):
        return rng.normal(model.means[theta], 1.0, size=size)
    cdf = model._cdf[theta]
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="right")
    idx = np.minimum(idx, model.support_size - 1)
    return int(idx) if size is None else idx.astype(np.int64)
