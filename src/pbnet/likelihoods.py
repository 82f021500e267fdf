"""Per-hypothesis observation models.

Two families are supported: unit-variance Gaussians (one mean per
hypothesis) and strictly positive finite-support pmfs over {0..S-1}.
Strict positivity of discrete rows is enforced at construction so that
log-likelihood ratios are always finite and integrable. Each family also
holds its divergence tables (``point``, ``complement``, ``bound``), each
built whole on its first read, which the regime predictors read; a discrete
family builds its scoring and sampling tables on first read too.
Divergences take hypothesis indices (:func:`kl_divergence`, a ``point``
entry) or mixture weights, one vector or a stack per side
(:func:`mixture_kl`, which also builds ``complement``). A Gaussian mixture
divergence is summed by a Gauss-Hermite rule (``GaussianFamily._mixture_table``);
one that rule cannot certify falls back to pbnet's own composite
Gauss-Legendre rule, in :func:`mixture_kl` alone. Both rules give a value
only with one certificate: their coarse and fine sums agree within
``KL_QUAD_TOL``. Both, and the scorers, read the one Gaussian log-density,
:func:`_log_normal`.

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
    _numbers,
    _sums_to_one,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Absolute tolerance of a Gaussian KL that involves a mixture, and the one
#: certificate of every such value: the Gauss-Hermite rule's 160-node sum stands
#: only when its 80-node sum agrees with it to within it, and the fallback
#: rule's 48-node sum only when its 24-node sum does.
KL_QUAD_TOL = 1e-6
#: Window half-width of the fallback quadrature, in standard deviations beyond
#: the extreme means.
KL_QUAD_SIGMA_SPAN = 10.0


@functools.cache
def _rules(gauss, coarse: int, fine: int):
    """The ``coarse``- and ``fine``-node rules of ``gauss`` (numpy's
    ``hermegauss`` or ``leggauss``) in one node vector, so that one
    evaluation serves both, and one weight column per rule, scaled to sum to
    1. Built once, on first use, so that a run with no Gaussian mixture KL
    does not pay for the eigensolver behind them."""
    (xc, wc), (xf, wf) = gauss(coarse), gauss(fine)
    nodes = np.concatenate([xc, xf])
    weights = np.zeros((nodes.size, 2))
    weights[:coarse, 0], weights[coarse:, 1] = wc / wc.sum(), wf / wf.sum()
    return _read_only(nodes), _read_only(weights)


def _quad(f, edges: np.ndarray) -> list:
    """The composite Gauss-Legendre rule of the fallback quadrature: the 24-
    and the 48-node sums of ``f`` over every panel between consecutive
    ``edges``, as ``[coarse, fine]``, from one evaluation of ``f`` over both
    rules' nodes. ``f`` maps a (panels, nodes) array of points to their
    values."""
    nodes, weights = _rules(np.polynomial.legendre.leggauss, 24, 48)
    width, mid = np.diff(edges)[:, None], (edges[1:] + edges[:-1])[:, None] / 2
    return (width * (f(mid + width / 2 * nodes) @ weights)).sum(axis=0).tolist()


#: The seam ``_quad_kl`` calls through, once per uncertified value; tests and
#: tracing swap it out whole.
integrate = SimpleNamespace(quad=_quad)


def _one(xi) -> list:
    """One observation as a batch of one, or InvalidObservationError: its
    shape is read by the number rule (``errors._numbers``)."""
    # a sequence, or a bytearray, would score as a batch
    if _numbers("observations", xi, error=InvalidObservationError).ndim != 0:
        raise InvalidObservationError(f"expected one observation, got {xi!r}")
    return [xi]


def _reject_first(x: np.ndarray, ok: np.ndarray, why: str) -> None:
    """InvalidObservationError naming the first entry of ``x`` where ``ok``
    fails, in row-major order, if any."""
    if not ok.all():
        bad = np.broadcast_to(x, ok.shape)[~ok][0]
        raise InvalidObservationError(f"observation {bad.item()!r} {why}")


def _agent_axis(what: str, shape: tuple, agents: tuple, error) -> None:
    """``error`` naming ``what`` unless ``shape``, of a batch of observations
    or of a draw, ends in the agent shape ``agents`` of a group, (n,); a
    family's () takes any shape."""
    if agents and shape[-1:] != agents:
        raise error(f"{what} {shape}: a group of {agents[0]} agents takes (..., {agents[0]})")


def _draw_shape(size, agents: tuple) -> tuple:
    """The shape a ``sample`` with agent shape ``agents`` draws: ``agents``
    when ``size`` is None, else ``size``, an integer or a tuple or list of
    them, each at least 0 (``errors._check_integer``), whose last entry is a
    group's agent count; ValidationError else, before any draw."""
    if size is None:
        return agents
    shape = tuple(size) if isinstance(size, (tuple, list)) else (size,)
    for entry in shape:
        _check_integer("size", entry, 0)
    _agent_axis("size", shape, agents, ValidationError)
    return shape


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
      the uniform complements, so one evaluation of a Gaussian family's
      Gauss-Hermite rule (at H = 2, ``point`` with its columns swapped);
    * ``bound[x]``, the likelihood bound with x left out, (H,): the largest
      |log L(xi|a) - log L(xi|b)| over the support and a, b != x, from a
      discrete family's pmf alone; a Gaussian family's ``_bound_table``
      raises UnboundedLikelihoodError, on every read, since a cached
      property caches no exception.

    So no divergence table reads a scoring table. Each family's
    ``_mixture_table(P, Q)`` gives D_KL of every mixture of a (K, H) weight
    stack P against every one of an (M, H) stack Q, (K, M), in one
    evaluation: exact sums, or the Gaussian rule with NaN where it does not
    certify an entry. ``complement`` is :func:`mixture_kl` of those two
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

    @functools.cached_property
    def bound(self) -> np.ndarray:
        return _read_only(self._bound_table())


def _uniform_complements(count: int) -> np.ndarray:
    """(H, H) weights whose row x is the uniform mixture of every hypothesis
    but x: 1/(H-1) off the diagonal, 0 on it."""
    return np.where(np.eye(count, dtype=bool), 0.0, 1.0 / (count - 1))


def _log_normal(d: np.ndarray) -> np.ndarray:
    """The one unit-variance Gaussian log-density, at offsets d = x - mean,
    in one fresh buffer: -0.5 * d * d - log sqrt(2 pi), in that order. Each
    caller forms d in its own layout."""
    out = np.multiply(d, -0.5)
    out *= d
    out -= _LOG_SQRT_2PI
    return out


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
        self.agents = _read_only(agents)
        self.means = _read_only(np.stack([m.means for m in models]))
        self.hypothesis_count = models[0].hypothesis_count

    def log_rows(self, xi) -> np.ndarray:
        x = _numbers("observations", xi, float, InvalidObservationError)
        _agent_axis("observations of shape", x.shape, self.means.shape[:-1],
                    InvalidObservationError)
        _reject_first(x, np.isfinite(x), "is not a finite number")
        return self._log_density(x)

    def _log_density(self, x) -> np.ndarray:
        """``log_rows`` of observations known to be finite numbers:
        :func:`_log_normal` of d = x - mean, in two buffers."""
        return _log_normal(x[..., None] - self.means)

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
        _check_integer("hypothesis index", theta, 0, self.hypothesis_count - 1)
        z = self.variates(rng)(_draw_shape(size, self.means.shape[:-1]))
        return self.observations(theta, z)


class GaussianFamily(GaussianGroup, _Divergences):
    """Unit-variance Gaussian observation model, one mean per hypothesis.

    The variance is fixed to 1; only the means distinguish hypotheses.
    Observations are real numbers. ``means`` is (H,), so that the group's
    ``log_rows`` and ``sample`` broadcast it over any agent and step axes. It
    is read by the number rule (``errors._numbers``) as floats, one finite
    value per hypothesis, or ValidationError.

    An instance does not change once built: it keeps a read-only copy of
    ``means``, and a caller's array stays writeable. Its divergence tables
    (see ``_Divergences``) are built lazily and read-only. Reading ``bound``
    raises UnboundedLikelihoodError: the log-likelihood ratios are unbounded.
    """

    def __init__(self, means: Sequence[float]):
        arr = _numbers("means", means, float)
        if arr.ndim != 1 or arr.size < 1 or not np.isfinite(arr).all():
            raise ValidationError(f"means must be one finite value per hypothesis, got {means!r}")
        self.means = _read_only(arr.copy())
        self.hypothesis_count = arr.size

    def __repr__(self):
        return f"GaussianFamily(means={self.means.tolist()})"

    def _point_table(self) -> np.ndarray:
        d = self.means[:, None] - self.means
        return 0.5 * (d * d)

    def _mixture_table(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """D_KL[p||q] of every mixture of a checked (K, H) weight stack ``p``
        against every one of a checked (M, H) stack ``q``, (K, M), clipped at
        0, by a rule that certifies each value it gives: NaN where it does
        not, which :func:`mixture_kl` fills by ``_quad_kl``.

        E_p[log p - log q] is summed on probabilists' Gauss-Hermite nodes
        centred on each component of p, so that a mixture p is the weighted
        sum of its per-component rules. The 80- and the 160-node rule come
        from one evaluation over every node, every component of each p and
        every q; the 160-node value stands when the two agree to within
        ``KL_QUAD_TOL``.

        A term is one nonzero component of one p, T of them in all, over the
        nodes, N = 240: the H component log-densities (:func:`_log_normal`)
        are (H, T, N). Each (term, node) is shifted once, by its largest
        component log-density, and exponentiated once, so the rule takes
        H T N exponentials whatever the number Q of q mixtures. Every p row,
        (T, N), and every q row, (T, Q, N), is then a multiply-add of those
        over the H components in index order (:func:`_log_mix_shared`):
        identical weight rows give identical bits, so D_KL[w||w] is exactly
        0. A row whose mixture underflows at any node is recomputed by
        :func:`_log_mix`, so no value loses digits to the shared shift: each
        differs from a per-entry shift's by rounding alone.
        """
        # probabilists' rules: E[f(Z)] for Z ~ N(0, 1) is about f(nodes) @ rule_weights
        nodes, rule_weights = _rules(np.polynomial.hermite_e.hermegauss, 80, 160)
        which, comps = np.nonzero(p)  # one term per component of each p, grouped by p
        x = (self.means[comps, None] + nodes) - self.means[:, None, None]  # (H, terms, nodes)
        logs = _log_normal(x)
        peak = logs.max(axis=0)
        shifted = np.exp(np.subtract(logs, peak, out=x), out=x)  # in place: fewer fresh pages
        log_p = _log_mix_shared(logs, p.T[:, which, None], shifted, peak)  # (terms, nodes)
        log_q = _log_mix_shared(logs[:, :, None], q.T[:, None, :, None],
                                shifted[:, :, None], peak[:, None])
        ratio = np.subtract(log_p[:, None], log_q, out=log_q)  # (terms, q, nodes)
        sums = (ratio.reshape(-1, nodes.size) @ rule_weights).reshape(ratio.shape[:2] + (2,))
        sums *= p[which, comps][:, None, None]
        starts = np.flatnonzero(np.diff(which, prepend=-1))
        coarse, fine = np.moveaxis(np.add.reduceat(sums, starts, axis=0), -1, 0)
        return np.maximum(np.where(np.abs(coarse - fine) <= KL_QUAD_TOL, fine, np.nan), 0.0)

    def _quad_kl(self, p_weights: np.ndarray, q_weights: np.ndarray) -> float:
        """The KL of two mixtures, one weight vector each: the integral of
        p (log p - log q) over a truncated window by the composite rule
        (``integrate.quad``). Its 48-node value stands when the 24-node value
        agrees within ``KL_QUAD_TOL``.

        The panels are at most 2 wide, and break at each kink of log q, where
        the two components that lead q cross. A kink between components
        ``gap`` apart is about 1/gap wide (log q has poles pi/gap off the real
        axis there), so the panels also halve toward it, from 1 down to no less
        than 4/gap: each panel then lies far from the poles for its width."""
        m, mixed = self.means, p_weights > 0  # p mixes only its nonzero-weight components
        lwp, lwq = np.log(p_weights[mixed]), _log_weights(q_weights)
        lo, hi = m.min() - KL_QUAD_SIGMA_SPAN, m.max() + KL_QUAD_SIGMA_SPAN
        lines = lwq - m * m / 2  # component k of q leads where lines[k] + m[k] x is largest
        with np.errstate(divide="ignore", invalid="ignore"):  # equal means, zero weights
            cross = (lines - lines[:, None]) / (m[:, None] - m)
            kink = lines[:, None] + m[:, None] * cross >= (lines + m * cross[..., None]).max(-1)
        kink &= (lo < cross) & (cross < hi)
        halves = 2.0 ** -np.arange(30)  # 1, 1/2, 1/4, ...: offsets from a kink
        halves = np.where(halves * np.abs(m[:, None] - m)[kink, None] >= 4, halves, np.nan)
        near = (cross[kink, None] + np.concatenate([halves, -halves], axis=1)).ravel()
        grid = np.linspace(lo, hi, math.ceil((hi - lo) / 2) + 1)
        edges = np.union1d(grid, np.append(cross[kink], near[(lo < near) & (near < hi)]))

        def integrand(x):
            logs = np.moveaxis(self._log_density(x), -1, 0)  # the nodes are finite
            lp = _log_mix(logs[mixed], lwp)
            return np.exp(lp) * (lp - _log_mix(logs, lwq))

        coarse, fine = integrate.quad(integrand, edges)
        if abs(fine - coarse) > KL_QUAD_TOL:
            raise NumericalError(f"KL quadrature error estimate {abs(fine - coarse):.3g} "
                                 f"exceeds tolerance {KL_QUAD_TOL:.3g}")
        if fine < -KL_QUAD_TOL:
            raise NumericalError(f"KL quadrature produced a negative value {fine:.3g}")
        return max(fine, 0.0)

    def _bound_table(self) -> np.ndarray:
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
    drawn at once equals the same steps drawn one at a time, bitwise; with no
    ``size`` a group draws one observation per agent, as ``size`` n does.
    ``sample`` is the hypothesis check, one ``variates`` call and the
    ``observations`` map of its draws.
    """

    dtype = np.dtype(np.int64)

    def __init__(self, agents: np.ndarray, models: Sequence["DiscreteFamily"]):
        self.agents = _read_only(agents)
        self.support_size = _read_only(np.array([m.support_size for m in models]))
        self.hypothesis_count = models[0].hypothesis_count
        self._tabulate([m.pmf for m in models])

    def _tabulate(self, pmfs) -> None:
        """Set the read-only ``log_table``, ``log_pmf`` and ``cdf`` of pmf
        tables, one per agent. The tables are filled in ``log_table``'s
        (agent, support point, hypothesis) layout, each by one mask over
        (agent, support point): the agents' own points, then, in the cdf,
        each agent's points from its last one on."""
        n, h = len(pmfs), self.hypothesis_count
        support = np.atleast_1d(self.support_size)
        s = int(support.max())
        points = np.arange(s)
        padded = np.zeros((n, s, h))
        padded[points < support[:, None]] = np.concatenate([p.T for p in pmfs])
        with np.errstate(divide="ignore"):  # the padding's 0
            self.log_table = np.log(padded).reshape(n * s, h)
        self.log_pmf = self.log_table.reshape(n, s, h).transpose(0, 2, 1)
        self._row_start = np.arange(n) * s
        cdf = padded.cumsum(axis=1)
        cdf[points >= support[:, None] - 1] = np.inf
        self.cdf = np.ascontiguousarray(cdf.transpose(2, 1, 0))
        for a in (self.log_table, self.log_pmf, self._row_start, self.cdf):
            a.setflags(write=False)

    def log_rows(self, xi) -> np.ndarray:
        return np.take(self.log_table, self._support_index(xi) + self._row_start, axis=0)

    def _support_index(self, xi) -> np.ndarray:
        """Observations as int64 indices into each agent's support, or
        InvalidObservationError naming the first that is no support point.
        Observations that are int64 already, as a trajectory's own draws
        are, are their own indices, and are only bounds-checked."""
        x = _numbers("observations", xi, error=InvalidObservationError)
        _agent_axis("observations of shape", x.shape, np.shape(self.support_size),
                    InvalidObservationError)
        with np.errstate(invalid="ignore"):  # a NaN or an infinity casts to junk, rejected below
            idx = x.astype(np.int64, copy=False)
        ok = (idx >= 0) & (idx < self.support_size)
        if idx is not x:  # a cast: a fraction or junk differs from its source
            ok &= idx == x
        _reject_first(x, ok, "outside discrete support")
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
        _check_integer("hypothesis index", theta, 0, self.hypothesis_count - 1)
        agents = np.shape(self.support_size)  # (n,) for a group, () for a family
        # a family draws random(1), which is random()'s draw
        u = self.variates(rng)((agents or 1) if size is None else _draw_shape(size, agents))
        idx = self.observations(theta, u)
        return int(idx[0]) if size is None and not agents else idx


class DiscreteFamily(DiscreteGroup, _Divergences):
    """Finite-support observation model: an H x S table of pmf rows, read by
    the number rule (``errors._numbers``) as floats.

    Every row must sum to 1 (``errors._sums_to_one``) and every entry must be
    strictly positive, which keeps all log-likelihood ratios finite.

    The tables are the group's for one agent: ``log_table`` is (S, H),
    ``log_pmf`` (1, H, S), ``cdf`` (H, S, 1), and ``support_size`` is S.
    They are built together, read-only, on the first read of any of them,
    which a score or a draw makes, never a divergence table; a family in a
    per-agent list is scored by its group (:func:`stack_models`), built from
    ``pmf``, and never builds its own.

    An instance does not change once built: it keeps a read-only copy of
    ``pmf``, and a caller's array stays writeable. Its divergence tables (see
    ``_Divergences``) are built lazily, by exact sums over the support, and
    are read-only.
    """

    def __init__(self, pmf: Sequence[Sequence[float]]):
        table = _numbers("pmf", pmf, float)
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
            raise ValidationError("pmf must be a 2-D table with at least one row")
        _sums_to_one("pmf row", table.sum(axis=1))
        if (table <= 0.0).any():
            r, s = map(int, np.argwhere(table <= 0.0)[0])
            raise ValidationError(f"pmf entry [{r}][{s}] must be strictly positive")
        self.pmf = _read_only(table.copy())
        self.support_size = table.shape[1]
        self.hypothesis_count = table.shape[0]

    def __getattr__(self, name):
        # reached only while the group's tables are not built
        if name not in ("log_table", "log_pmf", "cdf", "_row_start"):
            raise AttributeError(f"'DiscreteFamily' object has no attribute {name!r}")
        self._tabulate([self.pmf])
        return getattr(self, name)

    def __repr__(self):
        return f"DiscreteFamily(pmf={self.pmf.tolist()})"

    def _point_table(self) -> np.ndarray:
        """:func:`_exact_kl` of every pmf row against every one, bitwise,
        without its guards: a pmf is strictly positive, so each log is taken
        once and no term is 0 log 0."""
        logs = np.log(self.pmf)
        return (self.pmf[:, None] * (logs[:, None] - logs)).sum(-1)

    def _mixture_table(self, p_weights: np.ndarray, q_weights: np.ndarray) -> np.ndarray:
        return _exact_kl((p_weights @ self.pmf)[:, None], q_weights @ self.pmf)

    def _bound_table(self) -> np.ndarray:
        logs = np.log(self.pmf)
        spread = np.abs(logs[:, None] - logs).max(axis=-1)  # each pair's largest |log ratio|
        kept = ~np.eye(self.hypothesis_count, dtype=bool)  # kept[x, a]: a is not x
        pairs = kept[:, :, None] & kept[:, None, :]
        return np.where(pairs, spread, 0.0).max(axis=(1, 2), initial=0.0)


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


def _check_weights(weights, count: int) -> np.ndarray:
    """Mixture weights over ``count`` hypotheses, read by the number rule
    (``errors._numbers``) as floats, one vector or a (K, H) stack, or
    ValidationError: each row must be finite, nonnegative and sum to 1
    (``errors._sums_to_one``)."""
    w = _numbers("mixture weights", weights, float)
    if w.ndim not in (1, 2) or w.shape[-1] != count:
        raise ValidationError(f"mixture weights of shape {w.shape} are not (H,) or (K, H), H = {count}")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise ValidationError("mixture weights must be finite and nonnegative")
    _sums_to_one("mixture weights row", np.atleast_1d(w.sum(axis=-1)))
    return w


def _family(model, groups: bool = False) -> LikelihoodModel:
    """``model`` if it is one likelihood family, or with ``groups`` also a
    group of :func:`stack_models`, else ValidationError. A group scores and
    samples in batches, but has no one-observation row, divergence or bound."""
    kinds = (*_GROUP_OF, *_GROUP_OF.values()) if groups else _GROUP_OF
    if type(model) not in kinds:  # as stack_models accepts them: no subclass, no stand-in
        what = "a likelihood family or group" if groups else "one likelihood family"
        raise ValidationError(f"expected {what}, got {type(model).__name__}")
    return model


def log_likelihood_row(model: LikelihoodModel, xi) -> np.ndarray:
    """Vector of log L(xi | theta) over all hypotheses, for one observation."""
    return _family(model).log_rows(_one(xi))[0]


def log_likelihood_rows(model: LikelihoodModel, xi_array: np.ndarray) -> np.ndarray:
    """(n, H) matrix of log-likelihoods for a batch of observations; for a
    group of :func:`stack_models`, row i scores observation i under the
    model of the group's i-th agent. A (steps, n) block of observations gives
    (steps, n, H). The batch obeys :func:`log_likelihood_row`'s value rules: a
    batch that is not a table of numbers (``errors._numbers``: text is none),
    a non-finite Gaussian observation or a discrete one off its agent's
    support raises InvalidObservationError, which names the first bad value,
    as does a group's batch whose last axis is not its agent count (a family
    scores any shape). Any other ``model`` raises ValidationError."""
    return _family(model, groups=True).log_rows(xi_array)


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log of mixture weights, -inf at a zero weight."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _log_mix(logs: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """log sum_k exp(logs[k] + log_weights[k]) over the leading axis, the
    components, for arrays that broadcast; a zero weight adds nothing.

    A max shift per entry, built one component at a time, in index order, so
    that no array holds every component at once. Two callers: the fallback
    quadrature's integrand, and the rows :func:`_log_mix_shared` recomputes.
    """
    pairs = list(zip(logs, log_weights))
    peak = pairs[0][0] + pairs[0][1]
    for log, lw in pairs[1:]:
        peak = np.maximum(peak, log + lw)
    return peak + np.log(sum(np.exp(log + lw - peak) for log, lw in pairs))


def _log_mix_shared(logs: np.ndarray, weights: np.ndarray, shifted: np.ndarray,
                    peak: np.ndarray) -> np.ndarray:
    """log sum_k weights[k] exp(logs[k]) over the leading axis, the
    components, for arrays that broadcast, given ``shifted`` = exp(logs -
    peak) under one ``peak`` shared by every component.

    Each mixture is a multiply-add over the components in index order, so
    that equal weight rows mix to equal bits, and its log plus ``peak`` is
    the result. A row (of the last axis, the nodes) whose mixture falls below
    the smallest normal float at any node lost digits to the shared shift, as
    when its weights leave out the component that sets the peak there: it is
    recomputed by :func:`_log_mix`, whose values it then equals bitwise.
    """
    mix = weights[0] * shifted[0]
    for w, s in zip(weights[1:], shifted[1:]):
        mix += w * s
    low = (mix < np.finfo(float).tiny).any(axis=-1)
    with np.errstate(divide="ignore"):  # a mixture that underflows to 0, recomputed below
        result = np.log(mix, out=mix)
    result += peak
    if low.any():
        rows = np.nonzero(low)
        entries = (len(logs),) + low.shape

        def row_entries(a):
            return np.broadcast_to(a, entries + a.shape[-1:])[(slice(None), *rows)]

        result[rows] = _log_mix(row_entries(logs), row_entries(_log_weights(weights)))
    return result


def kl_divergence(model: LikelihoodModel, p: int, q: int) -> float:
    """D_KL[L_p||L_q] between the observation distributions of two
    hypotheses of one model: the family's ``point`` entry, bitwise.

    ``p`` and ``q`` are hypothesis indices, checked against the model. The
    ``point`` table is built on the first read of any entry: a discrete
    family's by the exact finite sums, a Gaussian one's by the closed form
    (m_p - m_q)^2 / 2. A divergence between mixtures is :func:`mixture_kl`.
    """
    model = _family(model)
    last = model.hypothesis_count - 1
    for index in (p, q):
        _check_integer("hypothesis index", index, 0, last)
    return float(model.point[p, q])


def mixture_kl(model: LikelihoodModel, p_weights, q_weights):
    """D_KL[p||q] between mixtures of one model's observation distributions.

    ``p_weights`` and ``q_weights`` are each one weight vector over the H
    hypotheses or a (K, H) stack of them, each row finite, nonnegative and
    summing to 1 (``errors._sums_to_one``; else ValidationError). For two
    vectors the result is a float; otherwise it holds D_KL[p||q] for every p
    and q of the stacks, of shape p's stack + q's stack.

    A discrete family takes the exact finite sums. A Gaussian one takes one
    evaluation of its Gauss-Hermite rule (``GaussianFamily._mixture_table``)
    over both stacks, which reads them as checked here, so each stack is
    checked once. Where the rule does not certify a value (log q has a soft
    kink where its dominant component switches, and the rule converges
    slowly when that kink sits under p's mass), pbnet's composite
    Gauss-Legendre rule takes over for that value alone, on a window
    ``KL_QUAD_SIGMA_SPAN`` standard deviations beyond the extreme means, with
    panels broken at those kinks; its integrand is the family's own
    log-density mixed by p's and q's weights. This is the one public mixture
    divergence.
    Both rules certify a value one way: its coarse and fine sums agree
    within ``KL_QUAD_TOL``. A value the composite rule cannot certify raises
    ``NumericalError`` instead of returning a guess.
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
    _check_integer("hypothesis index", excluded, 0, model.hypothesis_count - 1)
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
    this function does. Any ``model`` but a family or a group raises
    ValidationError, as does a ``size`` that is not an integer or a tuple or
    list of them, each at least 0, or, for a group, does not end in its agent
    count, before any draw; ``rng`` is not checked, only called.
    """
    return _family(model, groups=True).sample(theta, rng, size)
