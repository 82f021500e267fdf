"""Per-hypothesis observation models.

Two families are supported: unit-variance Gaussians (one mean per
hypothesis) and strictly positive finite-support pmfs over {0..S-1}.
Strict positivity of discrete rows is enforced at construction so that
log-likelihood ratios are always finite and integrable; test code may
bypass with ``validate=False``.

All indices are 0-based inside the library; only the ``to_dict`` forms
of the analysis results write hypothesis indices 1-based.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import integrate, linalg

from .errors import (
    InvalidObservationError,
    NumericalError,
    UnboundedLikelihoodError,
    ValidationError,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Absolute tolerance of a Gaussian KL that involves a mixture. The
#: Gauss-Hermite rule's value stands only when its 80- and 160-node sums agree
#: to within it; the fallback quadrature must reach it by its own error estimate.
KL_QUAD_TOL = 1e-6
#: Window half-width of the fallback quadrature, in standard deviations beyond
#: the extreme means.
KL_QUAD_SIGMA_SPAN = 10.0

PMF_ROW_TOL = 1e-12


class GaussianFamily:
    """Unit-variance Gaussian observation model, one mean per hypothesis.

    The variance is fixed to 1; only the means distinguish hypotheses.
    Observations are real numbers. ``means`` is (H,); a :class:`GaussianGroup`
    stacks it to (n, H), one row per agent, and ``log_rows`` and ``sample``
    broadcast over that agent axis, and over a step axis before it.
    """

    dtype = np.dtype(np.float64)

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
        return int(self.means.shape[-1])

    def __repr__(self):
        return f"GaussianFamily(means={self.means.tolist()})"

    def log_rows(self, xi) -> np.ndarray:
        d = np.asarray(xi, dtype=float)[..., None] - self.means
        return -0.5 * d * d - _LOG_SQRT_2PI

    def sample(self, theta: int, rng: np.random.Generator, size=None):
        _check_hypothesis(self, theta)
        return rng.normal(self.means[..., theta], 1.0, size=size)

    def kl(self, p, q) -> float:
        p = _point_or_mixture(self, p)
        q = _point_or_mixture(self, q)
        if not isinstance(p, MixtureSpec) and not isinstance(q, MixtureSpec):
            diff = self.means[p] - self.means[q]
            return 0.5 * float(diff * diff)

        value = gauss_hermite_kl(self.means, self._weights(p), self._weights(q))
        # no certificate: a kink of log q under p's mass slows the rule down
        return self._quad_kl(p, q) if value is None else max(value, 0.0)

    def _weights(self, which) -> np.ndarray:
        """Full-length mixture weights of a hypothesis index or a MixtureSpec."""
        if isinstance(which, MixtureSpec):
            return which.weights
        w = np.zeros(self.hypothesis_count)
        w[which] = 1.0
        return w

    def _quad_kl(self, p, q) -> float:
        """The KL by adaptive quadrature over a truncated window."""
        logp = self._log_density_fn(p)
        logq = self._log_density_fn(q)
        lo = float(self.means.min() - KL_QUAD_SIGMA_SPAN)
        hi = float(self.means.max() + KL_QUAD_SIGMA_SPAN)

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

    def _log_density_fn(self, which):
        if isinstance(which, MixtureSpec):
            active = np.where(which.weights > 0)[0]
            logw = np.log(which.weights[active])
            means = self.means[active]

            def logq(x):
                vals = logw - 0.5 * (x - means) ** 2 - _LOG_SQRT_2PI
                m = vals.max()
                return m + np.log(np.exp(vals - m).sum())

            return logq
        mean = self.means[which]

        def logp(x):
            return -0.5 * (x - mean) ** 2 - _LOG_SQRT_2PI

        return logp

    def bound(self, excluded: int) -> float:
        _check_hypothesis(self, excluded)
        raise UnboundedLikelihoodError(
            "Gaussian log-likelihood ratios are unbounded; the boundedness "
            "constant exists only for finite-support families"
        )


class DiscreteFamily:
    """Finite-support observation model: an H x S table of pmf rows.

    Every row must sum to 1 (within 1e-12) and every entry must be
    strictly positive, which keeps all log-likelihood ratios finite.
    ``validate=False`` skips the positivity check (test fixtures only).

    ``log_pmf`` is (1, H, S), ``cdf`` is (H, S, 1) and ``support_size`` is
    S; a :class:`DiscreteGroup` stacks them to (n, H, S), (H, S, n) and an
    (n,) array, one entry per agent, and ``log_rows`` and ``sample``
    broadcast over that agent axis. ``cdf`` holds the cumulative sums with
    the last one set to +inf, so that the count of its entries <= u is the
    inverse-CDF draw for a uniform u; its agent axis comes last so that a
    draw compares contiguous rows.

    Both methods also take a leading step axis: ``sample`` with ``size``
    (steps, n) draws ``rng.random((steps, n))``, which consumes the stream
    exactly as ``steps`` draws of size n do, so a block of steps drawn at
    once equals the same steps drawn one at a time, bitwise.
    """

    dtype = np.dtype(np.int64)

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
        self.support_size = table.shape[1]
        with np.errstate(divide="ignore"):
            self.log_pmf = np.log(table)[None]
        self.log_pmf.setflags(write=False)
        self.cdf = np.cumsum(table, axis=1)[:, :, None]
        self.cdf[:, -1] = np.inf

    @property
    def hypothesis_count(self) -> int:
        return int(self.log_pmf.shape[1])

    def __repr__(self):
        return f"DiscreteFamily(pmf={self.pmf.tolist()})"

    def log_rows(self, xi) -> np.ndarray:
        idx = np.asarray(xi, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.support_size):
            raise InvalidObservationError("observation outside discrete support")
        return self.log_pmf[np.arange(len(self.log_pmf)), :, idx]

    def sample(self, theta: int, rng: np.random.Generator, size=None):
        _check_hypothesis(self, theta)
        u = rng.random(1 if size is None else size)  # random(1) is random()'s draw
        idx = (self.cdf[theta] <= u[..., None, :]).sum(axis=-2)
        return int(idx[0]) if size is None else idx

    def kl(self, p, q) -> float:
        p = self._pmf_of(p)
        q = self._pmf_of(q)
        # 0 * log(0/q) = 0; q may contain zeros only for unvalidated tables.
        mask = p > 0
        if np.any(q[mask] == 0.0):
            return math.inf
        return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))

    def _pmf_of(self, which) -> np.ndarray:
        """Resolve an index or MixtureSpec into a pmf vector over the support."""
        which = _point_or_mixture(self, which)
        if isinstance(which, MixtureSpec):
            return which.weights @ self.pmf
        return self.pmf[which]

    def bound(self, excluded: int) -> float:
        _check_hypothesis(self, excluded)
        logs = np.delete(self.log_pmf[0], excluded, axis=0)
        a, b = logs[:, None], logs[None, :]
        # a column where both rows are zero contributes no ratio
        both_zero = (a == -np.inf) & (b == -np.inf)
        diff = np.subtract(a, b, out=np.zeros(both_zero.shape), where=~both_zero)
        return float(np.abs(diff).max(initial=0.0))


LikelihoodModel = Union[GaussianFamily, DiscreteFamily]


class GaussianGroup(GaussianFamily):
    """The Gaussian agents of a per-agent model list, means stacked (n, H).
    ``agents`` holds their positions in the list, ascending."""

    def __init__(self, agents: np.ndarray, models: Sequence[GaussianFamily]):
        self.agents = agents
        self.means = np.stack([m.means for m in models])


class DiscreteGroup(DiscreteFamily):
    """The discrete agents of a per-agent model list. Tables span the widest
    support S; an agent's entries past its own support hold log-pmf -inf and
    cdf +inf. ``agents`` holds their positions in the list, ascending."""

    def __init__(self, agents: np.ndarray, models: Sequence[DiscreteFamily]):
        self.agents = agents
        self.support_size = np.array([m.support_size for m in models])
        n, h, s = len(models), models[0].hypothesis_count, int(self.support_size.max())
        self.log_pmf = np.full((n, h, s), -np.inf)
        self.cdf = np.full((h, s, n), np.inf)
        for i, m in enumerate(models):
            self.log_pmf[i, :, : m.support_size] = m.log_pmf[0]
            self.cdf[:, : m.support_size, i] = m.cdf[:, :, 0]


_GROUP_OF = {GaussianFamily: GaussianGroup, DiscreteFamily: DiscreteGroup}


@dataclass(frozen=True)
class StackedModels:
    """A per-agent model list stacked by family type, built once per
    trajectory by :func:`stack_models`."""

    groups: tuple  # one group per family type, in order of first appearance
    n_agents: int
    hypothesis_count: int
    dtype: np.dtype  # observations': int64 when every agent is discrete, else float64


def stack_models(models: Sequence[LikelihoodModel], n_agents: int) -> StackedModels:
    if len(models) != n_agents:
        raise ValidationError("need one likelihood model per agent")
    positions: dict = {}
    for k, m in enumerate(models):
        if type(m) not in _GROUP_OF:
            raise ValidationError(f"agent {k} has no likelihood family: {m!r}")
        positions.setdefault(type(m), []).append(k)
    counts = {m.hypothesis_count for m in models}
    if len(counts) != 1:
        raise ValidationError("per-agent models must share one hypothesis count")
    groups = tuple(
        _GROUP_OF[kind](np.array(agents), [models[k] for k in agents])
        for kind, agents in positions.items()
    )
    return StackedModels(
        groups, n_agents, counts.pop(), np.result_type(*(g.dtype for g in groups))
    )


@dataclass(frozen=True)
class MixtureSpec:
    """A mixture of the likelihoods of every hypothesis except ``excluded``.

    ``weights`` is a full-length vector over all H hypotheses whose entry at
    ``excluded`` is zero; the rest are nonnegative and sum to one. The uniform
    case (1/(H-1) each) is the averaged complement distribution used by the
    convergence-rate formula. Weights with one positive entry, such as the
    uniform complement at H = 2, are that single hypothesis, and KL takes its
    point forms.
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


def _check_hypothesis(model: LikelihoodModel, theta: int) -> None:
    if not 0 <= theta < model.hypothesis_count:
        raise ValidationError(
            f"hypothesis index {theta} out of range [0, {model.hypothesis_count - 1}]"
        )


def _check_gaussian_obs(xi) -> float:
    try:
        # float() would parse a numeric string, which is no observation
        x = math.nan if isinstance(xi, (str, bytes, bytearray)) else float(xi)
    except (TypeError, ValueError):  # not a number
        x = math.nan
    if not math.isfinite(x):
        raise InvalidObservationError(
            f"Gaussian observation must be a finite number, got {xi!r}"
        )
    return x


def _check_discrete_obs(model: DiscreteFamily, xi) -> int:
    try:
        x = int(xi)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN or an infinity
        x = -1
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
    return float(model.log_pmf[0, theta, x])


def likelihood(model: LikelihoodModel, theta: int, xi) -> float:
    """L(xi | theta), strictly positive for validated models."""
    if isinstance(model, DiscreteFamily):
        _check_hypothesis(model, theta)
        return float(model.pmf[theta, _check_discrete_obs(model, xi)])
    return math.exp(log_likelihood(model, theta, xi))


def log_likelihood_row(model: LikelihoodModel, xi) -> np.ndarray:
    """Vector of log L(xi | theta) over all hypotheses, for one observation."""
    gaussian = isinstance(model, GaussianFamily)
    x = _check_gaussian_obs(xi) if gaussian else _check_discrete_obs(model, xi)
    return model.log_rows([x])[0]


def log_likelihood_rows(model: LikelihoodModel, xi_array: np.ndarray) -> np.ndarray:
    """(n, H) matrix of log-likelihoods for a batch of observations; for a
    :class:`GaussianGroup` or :class:`DiscreteGroup`, row i scores observation
    i under agent i's model. A (steps, n) block of observations gives
    (steps, n, H)."""
    return model.log_rows(xi_array)


def mixture_log_density(model: LikelihoodModel, spec: MixtureSpec, xi) -> float:
    """log of sum_tau q(tau) L(xi | tau)."""
    if spec.weights.size != model.hypothesis_count:
        raise ValidationError("mixture weights length does not match the model")
    return float(_log_mix(log_likelihood_row(model, xi), spec.weights))


def _log_mix(logs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log sum_k weights[k] exp(logs[..., k]), over the positive weights only."""
    active = np.flatnonzero(weights)
    vals = logs[..., active] + np.log(weights[active])
    peak = vals.max(axis=-1, keepdims=True)
    return (peak + np.log(np.exp(vals - peak).sum(axis=-1, keepdims=True)))[..., 0]


@functools.cache
def _hermite_rules():
    """Probabilists' Gauss-Hermite rules of 80 and 160 nodes in one node
    vector, so that one evaluation serves both, and one weight column per
    rule, scaled to sum to 1: E[f(Z)] for Z ~ N(0, 1) is about
    f(nodes) @ weights. Built on first use, so that a run with no Gaussian
    mixture KL does not pay for the eigensolver behind it."""
    rules = [np.polynomial.hermite_e.hermegauss(n) for n in (80, 160)]
    nodes = np.concatenate([x for x, _ in rules])
    weights = linalg.block_diag(*[(w / w.sum())[:, None] for _, w in rules])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite_kl(means: np.ndarray, p_weights: np.ndarray, q_weights: np.ndarray):
    """D_KL[p||q] for two mixtures of unit-variance Gaussians over ``means``,
    or None when the rule cannot certify its value.

    E_p[log p - log q] is summed on probabilists' Gauss-Hermite nodes centred
    on each component of p, so that a mixture p is the weighted sum of its
    per-component rules. The 80- and the 160-node rule come from one
    evaluation over every node and component; the 160-node value is returned
    when the two agree to within ``KL_QUAD_TOL``.
    """
    nodes, rule_weights = _hermite_rules()
    comps = np.flatnonzero(p_weights)
    x = (means[comps, None] + nodes)[..., None] - means  # (C, nodes, H)
    logs = -0.5 * x * x  # the normalizing constant cancels in the ratio
    ratio = _log_mix(logs, p_weights) - _log_mix(logs, q_weights)
    coarse, fine = p_weights[comps] @ (ratio @ rule_weights)
    return float(fine) if abs(coarse - fine) <= KL_QUAD_TOL else None


def _point_or_mixture(model: LikelihoodModel, which):
    """An index or a MixtureSpec, checked against the model; a mixture with
    one positive weight is that hypothesis's index."""
    if not isinstance(which, MixtureSpec):
        _check_hypothesis(model, int(which))
        return int(which)
    if which.weights.size != model.hypothesis_count:
        raise ValidationError("mixture weights length does not match the model")
    support = np.flatnonzero(which.weights)
    return int(support[0]) if support.size == 1 else which


def kl_divergence(model: LikelihoodModel, p, q) -> float:
    """D_KL between two observation distributions of the same model.

    ``p`` and ``q`` are each a hypothesis index or a :class:`MixtureSpec`.
    Discrete families use the exact finite sum. Gaussian point-vs-point uses
    the closed form (m_p - m_q)^2 / 2. A mixture with one positive weight is
    that hypothesis and takes the point forms. Any other Gaussian case
    involving a mixture is E_p[log p - log q] by :func:`gauss_hermite_kl`,
    whose 160-node value stands when the 80-node value agrees with it to
    ``KL_QUAD_TOL``. When it does not (log q has a soft kink where its
    dominant component switches, and the rule converges slowly when that kink
    sits under p's mass), adaptive quadrature takes over, with absolute
    tolerance ``KL_QUAD_TOL`` on a window ``KL_QUAD_SIGMA_SPAN`` standard
    deviations beyond the extreme means; if it cannot meet the tolerance,
    ``NumericalError`` is raised instead of returning a guess.
    """
    return model.kl(p, q)


def likelihood_bound(model: LikelihoodModel, excluded: int) -> float:
    """Largest |log L(xi|a) - log L(xi|b)| over the support and all pairs
    a, b != excluded.

    This is the boundedness constant used by the self-aware mislearning
    condition. It is finite only for discrete families (and infinite for an
    unvalidated table in which one row of a pair is zero where the other is
    not); a Gaussian family raises UnboundedLikelihoodError, since its
    log-ratios are unbounded in xi.
    """
    return model.bound(excluded)


def sample_observation(model: LikelihoodModel, theta: int, rng: np.random.Generator, size=None):
    """Draw from L(. | theta). Scalar when ``size`` is None, else an array;
    a :class:`GaussianGroup` or :class:`DiscreteGroup` draws one observation
    per agent, in agent order, with ``size`` its agent count, or (steps, n)
    for a block of steps.

    Deterministic given the generator state. Discrete draws use inverse-CDF
    lookup so the same uniform stream yields the same observations everywhere.
    A (steps, n) block consumes the stream as ``steps`` draws of size n in
    turn and equals them bitwise, for a family and for a group alike.
    """
    return model.sample(theta, rng, size)
