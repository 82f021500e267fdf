"""Per-hypothesis observation models.

Two families are supported: unit-variance Gaussians (one mean per
hypothesis) and strictly positive finite-support pmfs over {0..S-1}.
Strict positivity of discrete rows is enforced at construction so that
log-likelihood ratios are always finite and integrable. Each family also
holds its divergence tables (``point``, ``complement``, ``bound``), built
lazily on first read, which the regime predictors read.

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
    _check_integer,
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


def _numbers(xi) -> np.ndarray:
    """A batch of observations as an array of numbers (bool, integer or
    float), or InvalidObservationError."""
    x = np.asarray(xi)
    if x.dtype.kind not in "biuf":
        raise InvalidObservationError(f"observations must be numbers, got {x.dtype} entries")
    return x


def _one(xi) -> list:
    """One observation as a batch of one, or InvalidObservationError."""
    if np.ndim(xi) != 0:  # a sequence, or a bytearray, would score as a batch
        raise InvalidObservationError(f"expected one observation, got {xi!r}")
    return [xi]


def _reject_first(x: np.ndarray, ok: np.ndarray, why: str) -> None:
    """InvalidObservationError naming the first entry of ``x`` where ``ok``
    fails, in row-major order, if any."""
    if not ok.all():
        bad = np.broadcast_to(x, ok.shape)[~ok][0]
        raise InvalidObservationError(f"observation {bad.item()!r} {why}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Divergences:
    """The divergence tables of a likelihood family, none built at
    construction, each built on its first read in one batched evaluation and
    read-only from then on:

    * ``point[t, u]`` = D_KL(L_t||L_u), (H, H): a Gaussian closed form;
    * ``complement[t, x]`` = D_KL(L_t||uniform mixture of every hypothesis
      but x), (H, H), for H >= 2: one Gaussian :func:`gauss_hermite_kl` call
      over every pair;
    * ``bound[x]``, the likelihood bound with x left out, (H,).

    A Gaussian complement entry the rule does not certify runs the fallback
    quadrature when it is read, for that entry alone; reading all of
    ``complement`` resolves every entry.
    """

    @functools.cached_property
    def point(self) -> np.ndarray:
        return _read_only(self._point_table())

    @functools.cached_property
    def _complements(self) -> np.ndarray:
        """``complement``, NaN where the rule left an entry uncertified;
        writable, so that a read can store that entry's fallback value."""
        h = self.hypothesis_count
        if h < 2:
            raise ValidationError("uniform complement needs at least 2 hypotheses")
        if h == 2:  # the other hypothesis is the whole complement
            return self.point[:, ::-1].copy()
        return self._complement_table(np.where(np.eye(h, dtype=bool), 0.0, 1.0 / (h - 1)))

    @property
    def complement(self) -> np.ndarray:
        for t, x in np.argwhere(np.isnan(self._complements)):
            self._complement_kl(t, x)
        return _read_only(self._complements.view())

    def _complement_kl(self, true_index: int, excluded: int) -> float:
        """``complement[true_index, excluded]`` for checked indices; an
        uncertified entry is resolved here, by the fallback quadrature."""
        value = self._complements[true_index, excluded]
        if math.isnan(value):  # only the Gaussian rule leaves one
            mix = MixtureSpec.uniform_complement(self.hypothesis_count, excluded)
            value = self._complements[true_index, excluded] = self._quad_kl(true_index, mix)
        return float(value)

    def kl(self, p, q) -> float:
        """D_KL[p||q]; a point or uniform-complement pair reads its table."""
        p = _point_or_mixture(self, p)
        q = _point_or_mixture(self, q)
        if not isinstance(p, MixtureSpec):
            if not isinstance(q, MixtureSpec):
                return float(self.point[p, q])
            others = self.hypothesis_count - 1
            if np.count_nonzero(q.weights == 1.0 / others) == others:  # uniform
                return self._complement_kl(p, q.excluded)
        return self._mixture_kl(p, q)


class GaussianGroup:
    """Unit-variance Gaussian agents of a per-agent model list: ``means``
    stacked (n, H), one row per agent, and ``agents``, their positions in the
    list, ascending. Both are read-only, like a family's tables, so a stack
    can be reused. ``log_rows`` and ``sample`` broadcast over the agent axis,
    and over a step axis before it. ``sample`` is the hypothesis check, one
    ``variates`` call and the ``observations`` map of its draws.
    """

    dtype = np.dtype(np.float64)

    def __init__(self, agents: np.ndarray, models: Sequence["GaussianFamily"]):
        self.agents = agents
        self.means = np.stack([m.means for m in models])
        for a in (self.agents, self.means):
            a.setflags(write=False)

    @property
    def hypothesis_count(self) -> int:
        return int(self.means.shape[-1])

    def log_rows(self, xi) -> np.ndarray:
        x = _numbers(xi).astype(float, copy=False)
        _reject_first(x, np.isfinite(x), "is not a finite number")
        return self._log_density(x)

    def _log_density(self, x) -> np.ndarray:
        """``log_rows`` of observations known to be finite numbers."""
        d = np.asarray(x, dtype=float)[..., None] - self.means
        return -0.5 * d * d - _LOG_SQRT_2PI

    @staticmethod
    def variates(rng: np.random.Generator):
        """The generator call whose draws ``observations`` maps: standard
        normals."""
        return rng.standard_normal

    def observations(self, theta: int, z: np.ndarray) -> np.ndarray:
        """Observations under hypothesis ``theta`` (checked) of standard
        normals z, (..., n) for a group: loc + z."""
        # rng.normal(loc, 1.0, size) is loc + z bitwise, but an array loc sends
        # it through a slow scale check
        return self.means[..., theta] + z

    def sample(self, theta: int, rng: np.random.Generator, size=None):
        _check_hypothesis(self, theta)
        z = self.variates(rng)(self.means.shape[:-1] if size is None else size)
        return self.observations(theta, z)


class GaussianFamily(GaussianGroup, _Divergences):
    """Unit-variance Gaussian observation model, one mean per hypothesis.

    The variance is fixed to 1; only the means distinguish hypotheses.
    Observations are real numbers. ``means`` is (H,), so that the group's
    ``log_rows`` and ``sample`` broadcast it over any agent and step axes.

    An instance does not change once built; its divergence tables (see
    ``_Divergences``) are built lazily and read-only. Reading ``bound``
    raises UnboundedLikelihoodError: the log-likelihood ratios are unbounded.
    """

    def __init__(self, means: Sequence[float]):
        arr = np.asarray(means, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("means must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Gaussian means must be finite")
        arr.setflags(write=False)
        self.means = arr

    def __repr__(self):
        return f"GaussianFamily(means={self.means.tolist()})"

    def _point_table(self) -> np.ndarray:
        d = self.means[:, None] - self.means
        return 0.5 * (d * d)

    def _complement_table(self, weights: np.ndarray) -> np.ndarray:
        # one rule evaluation: every L_t against every complement
        points = np.eye(self.hypothesis_count)
        return np.maximum(gauss_hermite_kl(self.means, points, weights), 0.0)

    def _mixture_kl(self, p, q) -> float:
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
        lwp, lwq = _log_weights(self._weights(p)), _log_weights(self._weights(q))
        lo = float(self.means.min() - KL_QUAD_SIGMA_SPAN)
        hi = float(self.means.max() + KL_QUAD_SIGMA_SPAN)

        def integrand(x):
            logs = self._log_density(x)  # quad's nodes are finite
            lp = _log_mix(logs, lwp)
            return math.exp(lp) * (lp - _log_mix(logs, lwq))

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

    @property
    def bound(self) -> np.ndarray:
        raise UnboundedLikelihoodError(
            "Gaussian log-likelihood ratios are unbounded; the boundedness "
            "constant exists only for finite-support families"
        )


class DiscreteGroup:
    """Discrete agents of a per-agent model list. ``log_table`` is (n·S, H),
    ``log_pmf`` (n, H, S), ``cdf`` (H, S, n) and ``support_size`` (n,), one
    entry per agent, and ``agents`` holds their positions in the list,
    ascending. All five arrays are read-only.

    The tables span the widest support S; an agent's entries past its own
    support hold log-pmf -inf and cdf +inf. Row k·S + s of ``log_table`` is
    agent k's log-likelihood row of observation s, so that ``log_rows`` is one
    ``np.take`` of whole rows, for a family (n = 1) and a group alike;
    ``log_pmf`` is a view of it. ``cdf`` holds each agent's
    cumulative sums with the last one set to +inf, so that the count of its
    entries <= u is the inverse-CDF draw for a uniform u; its agent axis comes
    last so that a draw compares contiguous rows. ``log_rows`` and ``sample``
    broadcast over the agent axis, and over a step axis before it: ``sample``
    with ``size`` (steps, n) draws ``rng.random((steps, n))``, which consumes
    the stream exactly as ``steps`` draws of size n do, so a block of steps
    drawn at once equals the same steps drawn one at a time, bitwise.
    ``sample`` is the hypothesis check, one ``variates`` call and the
    ``observations`` map of its draws.
    """

    dtype = np.dtype(np.int64)

    def __init__(self, agents: np.ndarray, models: Sequence["DiscreteFamily"]):
        self.agents = agents
        self.support_size = np.array([m.support_size for m in models])
        self._tabulate([m.pmf for m in models])
        for a in (self.agents, self.support_size):
            a.setflags(write=False)

    def _tabulate(self, pmfs) -> None:
        """Set the read-only ``log_table``, ``log_pmf`` and ``cdf`` of pmf
        tables, one per agent."""
        n, h, s = len(pmfs), pmfs[0].shape[0], max(p.shape[1] for p in pmfs)
        padded = np.zeros((n, h, s))
        for i, p in enumerate(pmfs):
            padded[i, :, : p.shape[1]] = p
        with np.errstate(divide="ignore"):  # the padding's 0
            log_pmf = np.log(padded)
        self.log_table = np.ascontiguousarray(log_pmf.transpose(0, 2, 1)).reshape(n * s, h)
        self.log_pmf = self.log_table.reshape(n, s, h).transpose(0, 2, 1)
        self._row_start = np.arange(n) * s
        cdf = padded.cumsum(axis=2)
        for i, p in enumerate(pmfs):  # +inf from each agent's last entry on
            cdf[i, :, p.shape[1] - 1:] = np.inf
        self.cdf = np.ascontiguousarray(cdf.transpose(1, 2, 0))
        for a in (self.log_table, self.log_pmf, self._row_start, self.cdf):
            a.setflags(write=False)

    @property
    def hypothesis_count(self) -> int:
        return int(self.log_pmf.shape[1])

    def log_rows(self, xi) -> np.ndarray:
        return np.take(self.log_table, self._support_index(xi) + self._row_start, axis=0)

    def _support_index(self, xi) -> np.ndarray:
        """Observations as int64 indices into each agent's support, or
        InvalidObservationError naming the first that is no support point."""
        x = _numbers(xi)
        with np.errstate(invalid="ignore"):  # a NaN or an infinity casts to junk, rejected below
            idx = x.astype(np.int64, copy=False)
        _reject_first(x, (idx == x) & (idx >= 0) & (idx < self.support_size),
                      "outside discrete support")
        return idx

    @staticmethod
    def variates(rng: np.random.Generator):
        """The generator call whose draws ``observations`` maps: uniforms on
        [0, 1)."""
        return rng.random

    def observations(self, theta: int, u: np.ndarray) -> np.ndarray:
        """Observations under hypothesis ``theta`` (checked) of uniforms u,
        (..., n) for a group: each agent's inverse-CDF point."""
        return (self.cdf[theta] <= u[..., None, :]).sum(axis=-2)

    def sample(self, theta: int, rng: np.random.Generator, size=None):
        _check_hypothesis(self, theta)
        u = self.variates(rng)(1 if size is None else size)  # random(1) is random()'s draw
        idx = self.observations(theta, u)
        return int(idx[0]) if size is None else idx


class DiscreteFamily(DiscreteGroup, _Divergences):
    """Finite-support observation model: an H x S table of pmf rows.

    Every row must sum to 1 (within 1e-12) and every entry must be
    strictly positive, which keeps all log-likelihood ratios finite.

    The tables are the group's for one agent: ``log_table`` is (S, H),
    ``log_pmf`` (1, H, S), ``cdf`` (H, S, 1), and ``support_size`` is S.

    An instance does not change once built; its divergence tables (see
    ``_Divergences``) are built lazily, by exact sums over the support, and
    are read-only.
    """

    def __init__(self, pmf: Sequence[Sequence[float]]):
        table = np.asarray(pmf, dtype=float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValidationError("pmf must be a 2-D table with at least one row")
        row_sums = table.sum(axis=1)
        bad = np.where(~(np.abs(row_sums - 1.0) <= PMF_ROW_TOL))[0]
        if bad.size:
            raise ValidationError(
                f"pmf row {bad[0]} sums to {row_sums[bad[0]]:.12g}, expected 1"
            )
        if (table <= 0.0).any():
            r, s = map(int, np.argwhere(table <= 0.0)[0])
            raise ValidationError(f"pmf entry [{r}][{s}] must be strictly positive")
        table.setflags(write=False)
        self.pmf = table
        self.support_size = table.shape[1]
        self._tabulate([table])

    def __repr__(self):
        return f"DiscreteFamily(pmf={self.pmf.tolist()})"

    def _point_table(self) -> np.ndarray:
        return _exact_kl(self.pmf[:, None], self.pmf)

    def _complement_table(self, weights: np.ndarray) -> np.ndarray:
        return _exact_kl(self.pmf[:, None], weights @ self.pmf)

    def _mixture_kl(self, p, q) -> float:
        return float(_exact_kl(self._pmf_of(p), self._pmf_of(q)))

    def _pmf_of(self, which) -> np.ndarray:
        """The pmf vector over the support of an index or a MixtureSpec."""
        if isinstance(which, MixtureSpec):
            return which.weights @ self.pmf
        return self.pmf[which]

    @functools.cached_property
    def bound(self) -> np.ndarray:
        logs = self.log_pmf[0]
        spread = np.abs(logs[:, None] - logs).max(axis=-1)  # each pair's largest |log ratio|
        kept = ~np.eye(self.hypothesis_count, dtype=bool)  # kept[x, a]: a is not x
        pairs = kept[:, :, None] & kept[:, None, :]
        return _read_only(np.where(pairs, spread, 0.0).max(axis=(1, 2), initial=0.0))


def _exact_kl(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_s p log(p/q) over the last axis of pmfs that broadcast; an entry 0
    of p adds nothing (0 log 0 = 0)."""
    # a mixture's entry can underflow to 0 on a positive table
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * (np.log(p) - np.log(q))
    return np.where(p > 0, terms, 0.0).sum(axis=-1)


LikelihoodModel = Union[GaussianFamily, DiscreteFamily]


_GROUP_OF = {GaussianFamily: GaussianGroup, DiscreteFamily: DiscreteGroup}


def stack_models(models, n_agents: int) -> tuple:
    """The groups a models argument scores and samples by: ``(family,)`` for
    one family, or for a list or tuple of ``n_agents`` families one group per
    family type, in order of first appearance. Anything else, a bare group
    included, raises ValidationError, as does a list of another length or of
    mixed hypothesis counts."""
    if not isinstance(models, (list, tuple)):
        return (_family(models),)
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
    return tuple(
        _GROUP_OF[kind](np.array(agents), [models[k] for k in agents])
        for kind, agents in positions.items()
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
        _check_index("excluded", self.excluded, w.size)
        if np.any(w < 0):
            raise ValidationError("mixture weights must be nonnegative")
        if w[self.excluded] != 0.0:
            raise ValidationError("mixture weight on the excluded hypothesis must be 0")
        if not abs(w.sum() - 1.0) <= PMF_ROW_TOL:
            raise ValidationError(f"mixture weights sum to {w.sum():.12g}, expected 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform_complement(cls, count: int, excluded: int) -> "MixtureSpec":
        """Equal weights 1/(H-1) on every hypothesis other than ``excluded``."""
        _check_integer("count", count)
        if count < 2:
            raise ValidationError("uniform complement needs at least 2 hypotheses")
        # no item assignment, so that an invalid ``excluded`` meets the spec's
        # own check rather than an IndexError
        return cls(excluded, np.where(np.arange(count) == excluded, 0.0, 1.0 / (count - 1)))


def _check_index(what: str, index, count: int) -> None:
    _check_integer(f"{what} index", index)
    if not 0 <= index < count:
        raise ValidationError(f"{what} index {index} out of range [0, {count - 1}]")


def _check_hypothesis(model: LikelihoodModel, theta: int) -> None:
    _check_index("hypothesis", theta, model.hypothesis_count)


def _family(model) -> LikelihoodModel:
    """``model`` if it is one likelihood family, else ValidationError. A
    group of :func:`stack_models` scores and samples in batches, but has no
    single scalar score, divergence or bound."""
    if type(model) not in _GROUP_OF:  # the two families, as stack_models accepts them
        raise ValidationError(f"expected one likelihood family, got {type(model).__name__}")
    return model


def log_likelihood(model: LikelihoodModel, theta: int, xi) -> float:
    """log L(xi | theta) for a single hypothesis and observation."""
    _check_hypothesis(model, theta)
    return log_likelihood_row(model, xi)[theta]


def log_likelihood_row(model: LikelihoodModel, xi) -> np.ndarray:
    """Vector of log L(xi | theta) over all hypotheses, for one observation."""
    return _family(model).log_rows(_one(xi))[0]


def log_likelihood_rows(model: LikelihoodModel, xi_array: np.ndarray) -> np.ndarray:
    """(n, H) matrix of log-likelihoods for a batch of observations; for a
    group of :func:`stack_models`, row i scores observation i under the
    model of the group's i-th agent. A (steps, n) block of observations gives
    (steps, n, H). The batch obeys the scalar scorers' value rules: a
    non-numeric batch, a non-finite Gaussian observation or a discrete one
    off its agent's support raises InvalidObservationError, which names the
    first bad value."""
    return model.log_rows(xi_array)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log of mixture weights, -inf at a zero weight."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _log_mix(logs: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """log sum_k exp(logs[k] + log_weights[k]) over the leading axis, the
    components, for arrays that broadcast; a zero weight adds nothing.

    A max shift, built one component at a time, in index order, so that no
    array holds every component at once: a stack of mixtures over a stack of
    nodes stays the size of one component's terms.
    """
    pairs = list(zip(logs, log_weights))
    peak = pairs[0][0] + pairs[0][1]
    for log, lw in pairs[1:]:
        peak = np.maximum(peak, log + lw)
    return peak + np.log(sum(np.exp(log + lw - peak) for log, lw in pairs))


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


def gauss_hermite_kl(means: np.ndarray, p_weights, q_weights):
    """D_KL[p||q] for mixtures of unit-variance Gaussians over ``means``, by a
    rule that certifies each value it gives.

    ``p_weights`` and ``q_weights`` are each one weight vector over the H
    means, or a (K, H) stack of them. For two vectors the result is a float,
    or None when the rule cannot certify it; otherwise it holds D_KL[p||q]
    for every p and q of the stacks, of shape p's stack + q's stack, with NaN
    where the rule cannot certify a pair.

    E_p[log p - log q] is summed on probabilists' Gauss-Hermite nodes centred
    on each component of p, so that a mixture p is the weighted sum of its
    per-component rules. The 80- and the 160-node rule come from one
    evaluation over every node, every component of each p and every q; the
    160-node value stands when the two agree to within ``KL_QUAD_TOL``.
    """
    nodes, rule_weights = _hermite_rules()
    p_weights = np.asarray(p_weights, dtype=float)
    q_weights = np.asarray(q_weights, dtype=float)
    p, q = np.atleast_2d(p_weights, q_weights)
    which, comps = np.nonzero(p)  # one term per component of each p, grouped by p
    # (H, terms, nodes): the normalizing constant cancels in the ratio
    x = (means[comps, None] + nodes) - means[:, None, None]
    logs = -0.5 * x * x
    log_p = _log_mix(logs, _log_weights(p.T[:, which, None]))  # (terms, nodes)
    log_q = _log_mix(logs[:, :, None], _log_weights(q.T[:, None, :, None]))  # (terms, q, nodes)
    ratio = log_p[:, None] - log_q
    sums = (ratio.reshape(-1, nodes.size) @ rule_weights).reshape(ratio.shape[:2] + (2,))
    sums *= p[which, comps][:, None, None]
    starts = np.flatnonzero(np.diff(which, prepend=-1))
    coarse, fine = np.moveaxis(np.add.reduceat(sums, starts, axis=0), -1, 0)
    certified = np.abs(coarse - fine) <= KL_QUAD_TOL
    if p_weights.ndim == q_weights.ndim == 1:
        return float(fine[0, 0]) if certified[0, 0] else None
    shape = p_weights.shape[:-1] + q_weights.shape[:-1]
    return np.where(certified, fine, np.nan).reshape(shape)


def _point_or_mixture(model: LikelihoodModel, which):
    """An index or a MixtureSpec, checked against the model; a mixture with
    one positive weight is that hypothesis's index."""
    if not isinstance(which, MixtureSpec):
        _check_hypothesis(model, which)
        return which
    if which.weights.size != model.hypothesis_count:
        raise ValidationError("mixture weights length does not match the model")
    support = np.flatnonzero(which.weights)
    return int(support[0]) if support.size == 1 else which


def kl_divergence(model: LikelihoodModel, p, q) -> float:
    """D_KL between two observation distributions of the same model.

    ``p`` and ``q`` are each a hypothesis index or a :class:`MixtureSpec`. A
    mixture with one positive weight is that hypothesis. A point pair returns
    the family's ``point`` entry, and a point p against the uniform mixture
    of every hypothesis but x (weights exactly 1/(H-1), as
    :meth:`MixtureSpec.uniform_complement` makes them) returns its
    ``complement`` entry, bitwise, so each such divergence has one value. The
    tables are built on first read: discrete ones by the exact finite sums,
    Gaussian points by the closed form (m_p - m_q)^2 / 2.

    Every other pair, and each Gaussian complement entry, involves a mixture.
    A discrete family takes the exact sum. A Gaussian one takes
    E_p[log p - log q] by :func:`gauss_hermite_kl`, whose 160-node value
    stands when the 80-node value agrees with it to ``KL_QUAD_TOL``; the
    ``complement`` table comes from one such evaluation over every pair. When
    the rule does not certify a value (log q has a soft kink where its
    dominant component switches, and the rule converges slowly when that kink
    sits under p's mass), adaptive quadrature takes over for that value alone,
    and for a table entry only when it is read, with absolute tolerance
    ``KL_QUAD_TOL`` on a window ``KL_QUAD_SIGMA_SPAN`` standard deviations
    beyond the extreme means, whose integrand is the family's own ``log_rows``
    mixed by p's and q's weights; if it cannot meet the tolerance,
    ``NumericalError`` is raised instead of returning a guess.
    """
    return _family(model).kl(p, q)


def likelihood_bound(model: LikelihoodModel, excluded: int) -> float:
    """Largest |log L(xi|a) - log L(xi|b)| over the support and all pairs
    a, b != excluded.

    This is the boundedness constant used by the self-aware mislearning
    condition. It is finite only for discrete families; a Gaussian family
    raises UnboundedLikelihoodError, since its log-ratios are unbounded in xi.
    It is the entry ``excluded`` of the family's ``bound`` table.
    """
    model = _family(model)
    _check_hypothesis(model, excluded)
    return float(model.bound[excluded])


def sample_observation(model: LikelihoodModel, theta: int, rng: np.random.Generator, size=None):
    """Draw from L(. | theta). Scalar when ``size`` is None, else an array;
    a :class:`GaussianGroup` or :class:`DiscreteGroup` draws one observation
    per agent, in agent order, with ``size`` its agent count, or (steps, n)
    for a block of steps.

    Deterministic given the generator state. Discrete draws use inverse-CDF
    lookup so the same uniform stream yields the same observations everywhere.
    A (steps, n) block consumes the stream as ``steps`` draws of size n in
    turn and equals them bitwise, for a family and for a group alike.
    A trajectory over a list mixing family types does not call this: it
    makes each group's raw generator call (``variates``) itself, step by step
    and group by group, and maps them by the group's ``observations``, as
    this function does.
    """
    return model.sample(theta, rng, size)
