"""Per-hypothesis observation models.

Two families are supported: unit-variance Gaussians (one mean per
hypothesis) and strictly positive finite-support pmfs over {0..S-1}.
Strict positivity of discrete rows is enforced at construction so that
log-likelihood ratios are always finite and integrable. Each family also
holds its divergence tables (``point``, ``complement``, ``bound``), each
built whole on its first read, which the regime predictors read. Divergences
take hypothesis indices (:func:`kl_divergence`, a ``point`` entry) or mixture
weights, one vector or a stack per side (:func:`mixture_kl`, which also
builds ``complement``). A Gaussian mixture divergence that the Gauss-Hermite
rule cannot certify falls back to adaptive quadrature, in :func:`mixture_kl`
alone; ``scipy.integrate`` is imported on that first fallback only, so a
process that never reaches it does not pay for loading it.

All indices are 0-based inside the library; only the ``to_dict`` forms
of the analysis results write hypothesis indices 1-based.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import Sequence, Union

import numpy as np

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


def _quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call: only the
    fallback quadrature uses it, and ``scipy.integrate``, which loads
    ``scipy.optimize`` with it, would otherwise add about a quarter to the
    memory that importing pbnet takes."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


#: The seam ``_quad_kl`` calls through; tests and tracing swap it out whole.
integrate = SimpleNamespace(quad=_quad)


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
      but x), (H, H), for H >= 2: :func:`mixture_kl` of the identity against
      the uniform complements, so one Gaussian :func:`gauss_hermite_kl` call
      (at H = 2, ``point`` with its columns swapped);
    * ``bound[x]``, the likelihood bound with x left out, (H,).

    Each family's ``_mixture_table(P, Q)`` gives D_KL of every mixture of a
    (K, H) weight stack P against every one of an (M, H) stack Q, (K, M), in
    one evaluation: exact sums, or the Gaussian rule with NaN where it does
    not certify an entry. ``complement`` is :func:`mixture_kl` of those two
    stacks, so every entry the rule leaves uncertified runs the fallback
    quadrature when the table is built, on the first read of any entry.
    """

    @functools.cached_property
    def point(self) -> np.ndarray:
        return _read_only(self._point_table())

    @functools.cached_property
    def complement(self) -> np.ndarray:
        h = self.hypothesis_count
        if h < 2:
            raise ValidationError("uniform complement needs at least 2 hypotheses")
        if h == 2:  # the other hypothesis is the whole complement
            return self.point[:, ::-1]
        return _read_only(mixture_kl(self, np.eye(h), _uniform_complements(h)))


def _uniform_complements(count: int) -> np.ndarray:
    """(H, H) weights whose row x is the uniform mixture of every hypothesis
    but x: 1/(H-1) off the diagonal, 0 on it."""
    return np.where(np.eye(count, dtype=bool), 0.0, 1.0 / (count - 1))


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

    def _mixture_table(self, p_weights: np.ndarray, q_weights: np.ndarray) -> np.ndarray:
        return np.maximum(gauss_hermite_kl(self.means, p_weights, q_weights), 0.0)

    def _quad_kl(self, p_weights: np.ndarray, q_weights: np.ndarray) -> float:
        """The KL of two mixtures, one weight vector each, by adaptive
        quadrature over a truncated window. ``scipy.integrate`` is loaded on
        the first call, so a run that the rule fully certifies never loads it."""
        lwp, lwq = _log_weights(p_weights), _log_weights(q_weights)
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
        (..., n) for a group: each agent's inverse-CDF point, the count of
        its cdf entries <= u, added one cdf row at a time. The last row is
        +inf for every agent and adds nothing, so it is skipped (at S = 1
        the first row is that row: 0 for every u)."""
        cdf = self.cdf[theta]
        idx = (cdf[0] <= u).astype(np.int64)
        for row in cdf[1:-1]:
            idx += row <= u
        return idx

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

    def _mixture_table(self, p_weights: np.ndarray, q_weights: np.ndarray) -> np.ndarray:
        return _exact_kl((p_weights @ self.pmf)[:, None], q_weights @ self.pmf)

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


def _check_index(what: str, index, count: int) -> None:
    _check_integer(f"{what} index", index)
    if not 0 <= index < count:
        raise ValidationError(f"{what} index {index} out of range [0, {count - 1}]")


def _check_hypothesis(model: LikelihoodModel, theta: int) -> None:
    _check_index("hypothesis", theta, model.hypothesis_count)


def _check_weights(weights, count: int) -> np.ndarray:
    """Mixture weights over ``count`` hypotheses as a float array, one vector
    or a (K, H) stack, or ValidationError: each row must be finite,
    nonnegative and sum to 1 within ``PMF_ROW_TOL``."""
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != count:
        raise ValidationError(f"mixture weights of shape {w.shape} are not (H,) or (K, H), H = {count}")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValidationError("mixture weights must be finite and nonnegative")
    sums = np.atleast_1d(w.sum(axis=-1))
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= PMF_ROW_TOL))
    if bad.size:
        raise ValidationError(f"mixture weights sum to {sums[bad[0]]:.12g}, expected 1")
    return w


def _family(model) -> LikelihoodModel:
    """``model`` if it is one likelihood family, else ValidationError. A
    group of :func:`stack_models` scores and samples in batches, but has no
    one-observation row, divergence or bound."""
    if type(model) not in _GROUP_OF:  # the two families, as stack_models accepts them
        raise ValidationError(f"expected one likelihood family, got {type(model).__name__}")
    return model


def log_likelihood_row(model: LikelihoodModel, xi) -> np.ndarray:
    """Vector of log L(xi | theta) over all hypotheses, for one observation."""
    return _family(model).log_rows(_one(xi))[0]


def log_likelihood_rows(model: LikelihoodModel, xi_array: np.ndarray) -> np.ndarray:
    """(n, H) matrix of log-likelihoods for a batch of observations; for a
    group of :func:`stack_models`, row i scores observation i under the
    model of the group's i-th agent. A (steps, n) block of observations gives
    (steps, n, H). The batch obeys :func:`log_likelihood_row`'s value rules: a
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
    (x80, w80), (x160, w160) = (np.polynomial.hermite_e.hermegauss(n) for n in (80, 160))
    nodes = np.concatenate([x80, x160])
    weights = np.zeros((nodes.size, 2))
    weights[:80, 0], weights[80:, 1] = w80 / w80.sum(), w160 / w160.sum()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_hermite_kl(means: np.ndarray, p_weights, q_weights):
    """D_KL[p||q] for mixtures of unit-variance Gaussians over ``means``, by a
    rule that certifies each value it gives.

    ``means`` is one finite number per hypothesis, ValidationError else.
    ``p_weights`` and ``q_weights`` are each one weight vector over the H
    means, or a (K, H) stack of them, checked as :func:`mixture_kl` checks
    them. For two vectors the result is a float, or None when the rule
    cannot certify it; otherwise it holds D_KL[p||q] for every p and q of the
    stacks, of shape p's stack + q's stack, with NaN where the rule cannot
    certify a pair.

    E_p[log p - log q] is summed on probabilists' Gauss-Hermite nodes centred
    on each component of p, so that a mixture p is the weighted sum of its
    per-component rules. The 80- and the 160-node rule come from one
    evaluation over every node, every component of each p and every q; the
    160-node value stands when the two agree to within ``KL_QUAD_TOL``.
    """
    means = np.asarray(means, dtype=float)
    if means.ndim != 1 or not np.isfinite(means).all():
        raise ValidationError(f"means must be one finite value per hypothesis, got shape {means.shape}")
    nodes, rule_weights = _hermite_rules()
    p_weights = _check_weights(p_weights, len(means))
    q_weights = _check_weights(q_weights, len(means))
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


def kl_divergence(model: LikelihoodModel, p: int, q: int) -> float:
    """D_KL[L_p||L_q] between the observation distributions of two
    hypotheses of one model: the family's ``point`` entry, bitwise.

    ``p`` and ``q`` are hypothesis indices, checked against the model. The
    ``point`` table is built on the first read of any entry: a discrete
    family's by the exact finite sums, a Gaussian one's by the closed form
    (m_p - m_q)^2 / 2. A divergence between mixtures is :func:`mixture_kl`.
    """
    model = _family(model)
    _check_hypothesis(model, p)
    _check_hypothesis(model, q)
    return float(model.point[p, q])


def mixture_kl(model: LikelihoodModel, p_weights, q_weights):
    """D_KL[p||q] between mixtures of one model's observation distributions.

    ``p_weights`` and ``q_weights`` are each one weight vector over the H
    hypotheses or a (K, H) stack of them, each row finite, nonnegative and
    summing to 1 within ``PMF_ROW_TOL`` (else ValidationError). For two
    vectors the result is a float; otherwise it holds D_KL[p||q] for every p
    and q of the stacks, of shape p's stack + q's stack.

    A discrete family takes the exact finite sums. A Gaussian one takes one
    :func:`gauss_hermite_kl` evaluation of both stacks. Where the rule does
    not certify a value (log q has a soft kink where its dominant component
    switches, and the rule converges slowly when that kink sits under p's
    mass), adaptive quadrature takes over for that value alone, with absolute
    tolerance ``KL_QUAD_TOL`` on a window ``KL_QUAD_SIGMA_SPAN`` standard
    deviations beyond the extreme means, whose integrand is the family's own
    ``log_rows`` mixed by p's and q's weights; if it cannot meet the
    tolerance, ``NumericalError`` is raised instead of returning a guess.
    Every uncertified value of the stacks is resolved before the result is
    returned; a family's ``complement`` is this function of the identity
    against the uniform complements, so its uncertified entries are resolved
    when the table is built.
    """
    model = _family(model)
    p_weights = _check_weights(p_weights, model.hypothesis_count)
    q_weights = _check_weights(q_weights, model.hypothesis_count)
    p, q = np.atleast_2d(p_weights, q_weights)
    table = model._mixture_table(p, q)
    for i, j in np.argwhere(np.isnan(table)):  # only the Gaussian rule leaves one
        table[i, j] = model._quad_kl(p[i], q[j])
    if p_weights.ndim == q_weights.ndim == 1:
        return float(table[0, 0])
    return table.reshape(p_weights.shape[:-1] + q_weights.shape[:-1])


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
