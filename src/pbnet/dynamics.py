"""One social-learning run: Bayes update, sharing modification, log-linear
combination.

Everything stays in the log domain. Belief ratios decay linearly in the
iteration index, so linear-domain probabilities underflow within a few
hundred steps; exponentiate only at the edges (export, verdicts). The mass
spread over the non-transmitted hypotheses is computed as a log-sum-exp of
the *other* components rather than log(1 - exp(tx)), which stays finite even
when the transmitted component is within one ulp of probability one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import NumericalError, ValidationError
from .likelihoods import (
    LikelihoodModel,
    StackedModels,
    log_likelihood_row,
    log_likelihood_rows,
    sample_observation,
    stack_models,
)
from .network import Network

BELIEF_SUM_TOL = 1e-9

#: Steps whose observations ``run_trajectory`` draws and scores at once. It
#: caps the side buffer of log-likelihoods at _BLOCK * N * H doubles.
_BLOCK = 64


# -- sharing rules ------------------------------------------------------------

@dataclass(frozen=True)
class Sharing:
    """What each agent transmits, and which belief it pools for itself.

    ``transmit`` is None (the whole belief vector), a hypothesis index, or
    ``"argmax"`` (each agent's strongest component, ties toward the lowest
    index so runs are reproducible). Receivers of one component spread the
    rest of the mass evenly over the other hypotheses, and agents pool that
    same modified belief for themselves unless ``self_aware``: then each pools
    its own unmodified belief at weight a_kk. "argmax" with ``self_aware``
    runs, but is beyond the behavior validated by the bundled experiments.
    """

    transmit: Union[None, int, str] = None
    self_aware: bool = False

    def __post_init__(self):
        t = self.transmit
        index = isinstance(t, (int, np.integer)) and not isinstance(t, bool) and t >= 0
        if not (index or t is None or (isinstance(t, str) and t == "argmax")):
            raise ValidationError(
                f"transmit must be None, a hypothesis index or 'argmax', got {t!r}"
            )

    # equal by the two fields, whichever constructor below built the rule
    def __eq__(self, other):
        if not isinstance(other, Sharing):
            return NotImplemented
        return (self.transmit, self.self_aware) == (other.transmit, other.self_aware)

    def __hash__(self):
        return hash((self.transmit, self.self_aware))


class FullSharing(Sharing):
    """``Sharing()``: entire belief vectors (classic log-linear learning)."""

    def __init__(self):
        super().__init__(None, False)


class PartialSharing(Sharing):
    """``Sharing(tx_index)``: only the tx component is transmitted."""

    def __init__(self, tx_index: int):
        super().__init__(tx_index, False)


class SelfAwarePartialSharing(Sharing):
    """``Sharing(tx_index, self_aware=True)``: self-aware partial sharing."""

    def __init__(self, tx_index: int):
        super().__init__(tx_index, True)


class MaxBeliefSharing(Sharing):
    """``Sharing("argmax", self_aware)``: the strongest component is transmitted."""

    def __init__(self, self_aware: bool = False):
        super().__init__("argmax", self_aware)


@dataclass(frozen=True)
class NetworkState:
    """Per-agent log-beliefs at one iteration."""

    log_beliefs: np.ndarray  # (N, H)
    iteration: int = 0


# -- log-domain helpers -------------------------------------------------------

def _row_logsumexp(x: np.ndarray) -> np.ndarray:
    # the reductions behind x.max and x.sum, without their method dispatch
    m = np.maximum.reduce(x, axis=1, keepdims=True)
    return m + np.log(np.add.reduce(np.exp(x - m), axis=1, keepdims=True))


def log_normalize(log_values: np.ndarray) -> np.ndarray:
    """Normalize a single log-probability vector to exp-sum one."""
    v = np.asarray(log_values, dtype=float)
    m = v.max()
    return v - (m + np.log(np.exp(v - m).sum()))


def check_log_beliefs(log_beliefs: np.ndarray) -> None:
    """Hard invariant: finite entries, rows exp-summing to 1 within 1e-9.

    Raises instead of clamping; a violation means the engine lost positivity.
    The message names the first offending row, i.e. agent.
    """
    b = log_beliefs if getattr(log_beliefs, "ndim", 0) == 2 else np.atleast_2d(log_beliefs)
    finite = np.isfinite(b)
    if not finite.all():
        agent = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise NumericalError(f"agent {agent}: non-finite log-belief entry")
    off = np.abs(np.add.reduce(np.exp(b), axis=1) - 1.0)
    if off.max() > BELIEF_SUM_TOL:
        agent = int(np.flatnonzero(off > BELIEF_SUM_TOL)[0])
        raise NumericalError(f"agent {agent}: belief normalization off by {off[agent]:.3g}")


def uniform_log_beliefs(n_agents: int, n_hypotheses: int) -> np.ndarray:
    return np.full((n_agents, n_hypotheses), -np.log(n_hypotheses))


def log_beliefs_from_table(table) -> np.ndarray:
    """Validate and log a linear-domain (N, H) belief table."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise ValidationError("initial beliefs must be a 2-D table")
    if np.any(t <= 0):
        raise ValidationError("initial beliefs must be strictly positive")
    sums = t.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > BELIEF_SUM_TOL):
        raise ValidationError("initial belief rows must sum to 1")
    return np.log(t)


# -- the three algorithm steps ------------------------------------------------

def bayesian_update(log_belief: np.ndarray, model: LikelihoodModel, xi) -> np.ndarray:
    """Posterior log-belief after observing xi: prior + log-likelihood,
    renormalized."""
    out = log_normalize(np.asarray(log_belief, dtype=float) + log_likelihood_row(model, xi))
    check_log_beliefs(out)
    return out


def _spread_rows(log_psi: np.ndarray, tx) -> np.ndarray:
    """Rowwise sharing modification: keep the tx entry, split the rest evenly.

    ``tx`` is one column for every row, or an array of one column per row.
    The split value is logsumexp of the non-tx entries minus log(H-1), i.e.
    the exact log of (1 - psi_tx)/(H-1) computed from the surviving mass.
    """
    n, h = log_psi.shape
    # one column is a basic slice, which is cheaper than fancy indexing
    kept = (np.arange(n), tx) if isinstance(tx, np.ndarray) else (slice(None), tx)
    masked = log_psi.copy()
    masked[kept] = -np.inf
    out = np.empty((n, h))
    out[:] = _row_logsumexp(masked) - np.log(h - 1)
    out[kept] = log_psi[kept]
    return out


def modify_for_sharing(log_psi: np.ndarray, sharing: Sharing) -> np.ndarray:
    """Belief vector as reconstructed by receivers under the given rule."""
    v = np.asarray(log_psi, dtype=float)
    single = v.ndim == 1
    rows = v[None, :] if single else v
    h = rows.shape[1]
    tx = sharing.transmit
    if tx is None:
        out = rows.copy()
    elif tx == "argmax":
        out = _spread_rows(rows, np.argmax(rows, axis=1))
    else:
        if tx >= h:
            raise ValidationError(f"tx index {tx} out of range for H={h}")
        out = _spread_rows(rows, tx)
    return out[0] if single else out


def combine_step(
    net: Network,
    log_shared: np.ndarray,
    log_own: np.ndarray,
    sharing: Sharing,
) -> np.ndarray:
    """Log-linear pooling of the (modified) neighbor beliefs.

    Row k of the result is sum_l a_lk * shared_l. Self-aware: the a_kk term
    uses the agent's own unmodified belief instead of its modified one.
    """
    shared = np.asarray(log_shared, dtype=float)
    pooled = net.pool @ shared
    if sharing.self_aware:
        own = np.asarray(log_own, dtype=float)
        pooled = pooled + net.diagonal[:, None] * (own - shared)
    out = pooled - _row_logsumexp(pooled)
    check_log_beliefs(out)
    return out


# -- full iteration -----------------------------------------------------------

def _stacked(models, n_agents: int):
    """A per-agent model list stacked by family type; a single family, or
    models stacked already, as they are."""
    if isinstance(models, (list, tuple)):
        return stack_models(models, n_agents)
    if isinstance(models, StackedModels) and models.n_agents != n_agents:
        raise ValidationError("need one likelihood model per agent")
    return models


def _observe(models, true_index: int, n_agents: int, steps: int, rng):
    """(steps, N) observations, one per agent and step, and their
    (steps, N, H) log-likelihoods.

    A single family, or a list whose agents share one family type, draws the
    block in one call, which equals ``steps`` per-step draws bitwise. Mixed
    lists draw step by step and group by group, the order a single step
    draws in, and score each group once per block.
    """
    if isinstance(models, StackedModels) and len(models.groups) == 1:
        models = models.groups[0]  # every agent, in order
    if not isinstance(models, StackedModels):
        xi = sample_observation(models, true_index, rng, size=(steps, n_agents))
        return xi, log_likelihood_rows(models, xi)
    xi = np.empty((steps, n_agents), dtype=models.dtype)
    for t in range(steps):
        for group in models.groups:
            xi[t, group.agents] = sample_observation(
                group, true_index, rng, size=group.agents.size
            )
    table = np.empty((steps, n_agents, models.hypothesis_count))
    for group in models.groups:
        table[:, group.agents] = log_likelihood_rows(group, xi[:, group.agents])
    return xi, table


def run_iteration(
    state: NetworkState,
    net: Network,
    models: Union[LikelihoodModel, Sequence[LikelihoodModel]],
    true_index: int,
    sharing: Sharing,
    rng: np.random.Generator,
    *,
    observed=None,
):
    """Advance the network by one step.

    Draws one observation per agent from the true-hypothesis distribution,
    performs the Bayesian update, applies the sharing modification, and pools.
    Returns the new state together with the drawn observations (needed by the
    recursion checks and optional trajectory retention).

    With one model per agent, the agents are stacked by family type and the
    draws are made group by group, each group in agent order. ``observed``,
    an (xi, loglik) pair of the (N,) observations and their (N, H)
    log-likelihoods, is a row drawn ahead of time: the step then draws
    nothing and returns that xi.
    """
    n = net.size
    if state.log_beliefs.shape[0] != n:
        raise ValidationError("state size does not match the network")
    if observed is None:
        xi, loglik = _observe(_stacked(models, n), true_index, n, 1, rng)
        xi, loglik = xi[0], loglik[0]
    else:
        xi, loglik = observed
    unnorm = state.log_beliefs + loglik
    log_psi = unnorm - _row_logsumexp(unnorm)
    log_shared = modify_for_sharing(log_psi, sharing)
    log_next = combine_step(net, log_shared, log_psi, sharing)
    return NetworkState(log_next, state.iteration + 1), xi


def run_trajectory(
    initial_log_beliefs: np.ndarray,
    net: Network,
    models,
    true_index: int,
    sharing: Sharing,
    horizon: int,
    rng: np.random.Generator,
    keep_observations: bool = False,
):
    """Run ``horizon`` iterations; return ((horizon+1, N, H) log-beliefs,
    observations or None). Index 0 holds the initial beliefs.

    Observations are drawn and scored ``_BLOCK`` steps at a time, and each
    step goes through :func:`run_iteration` with its pre-drawn row. A single
    family, or a list whose agents share one family type, draws each block
    in one call; mixed lists draw step by step, group by group. Either way
    the generator yields what ``horizon`` calls of ``run_iteration`` without
    ``observed`` would draw, so trajectories and observations equal that
    loop's bitwise. A ``NumericalError`` of a step is raised again with the
    iteration (1-based, as the index into the result) in its message, and
    with the first agent whose log-likelihood was non-finite, if any.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    init = np.asarray(initial_log_beliefs, dtype=float)
    check_log_beliefs(init)
    n, h = init.shape
    out = np.empty((horizon + 1, n, h))
    out[0] = init
    models = _stacked(models, n)
    obs = np.empty((horizon, n), dtype=models.dtype) if keep_observations else None
    state = NetworkState(init, 0)
    for start in range(0, horizon, _BLOCK):
        steps = min(_BLOCK, horizon - start)
        xi, loglik = _observe(models, true_index, n, steps, rng)
        if keep_observations:
            obs[start:start + steps] = xi
        try:
            for j in range(steps):
                state, _ = run_iteration(
                    state, net, models, true_index, sharing, rng, observed=(xi[j], loglik[j])
                )
                out[start + j + 1] = state.log_beliefs
        except NumericalError as exc:
            # dense pooling spreads a NaN to every agent: name the one it came from
            scored = np.flatnonzero(~np.isfinite(loglik[j]).all(axis=1))
            origin = f"agent {scored[0]} scored a non-finite log-likelihood; " if scored.size else ""
            raise NumericalError(f"iteration {start + j + 1}: {origin}{exc}") from exc
    return out, obs
