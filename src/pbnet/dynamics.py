"""One social-learning run: Bayes update, sharing modification, log-linear
combination.

Everything stays in the log domain. Belief ratios decay linearly in the
iteration index, so linear-domain probabilities underflow within a few
hundred steps; exponentiate only at the edges (export, verdicts). The mass
spread over the non-transmitted hypotheses is a log-sum-exp of the *other*
components rather than log(1 - exp(tx)), which stays finite even when the
transmitted component is within one ulp of probability one.

A step past the Bayes update is two lists of (function, args) calls that the
step plan (``_Plan``) builds once for its rule, its shape of rows and its
network, bound to the plan's workspace and to the network's pool and a_kk
table: ``modify`` makes the shared rows from the posterior ``psi``, and
``combine`` pools them and normalizes. :func:`modify_for_sharing` and
:func:`combine_step` copy rows from outside the plan into it and run their
list; the one thing a seam asks of the rule is whether a combine reads the
caller's own rows.

Each log-sum-exp of a step (a fixed tx's spread, argmax's spread and the
pooled rows' normalization) is a run of calls within those lists. Which calls
follows one table's agent count alone, so a stack of (N, H) tables steps each
table bitwise as it steps alone. From ``_SHIFT_MIN_ROWS`` rows per table on, a
fixed tx's spread and the normalization, under every rule and pool, are the
max shift m + log sum exp(x - m) with m the row's largest entry: a few
vectorized ``np.maximum``, ``np.exp``, add and ``np.log`` passes over column
views, where ``np.logaddexp`` is scalar libm code per entry. It rounds apart
from the reduce by a few ulp. On fewer rows each is a fold of ``np.logaddexp``
over two or more column views in index order, which makes the calls of one
``np.logaddexp.reduce`` and so gives its bits, or one reduce over a single
column (the spread at H = 2, the normalization at H = 1). Argmax's spread,
whose columns differ from row to row, is one masked reduce at every size.

A step pools the posterior unnormalized: the normalization of the pooled rows
cancels its normalizer exactly, because a per-row shift passes through the
spread (the kept entry and the log-sum-exp of the rest both move), argmax,
pooling (for any A) and the self-aware own - shared term (where it cancels).

``run_trajectory`` is the one path that validates, draws and checks: it
rejects bad inputs, and resolves its ``Sharing`` into a step plan, before the
first draw, so the generator moves only for a valid run; it draws and checks
each ``_BLOCK`` steps at once, and runs them with invalid-value warnings off,
because the log-sum-exps warn on the NaN or infinity that the check reports.
``run_iteration`` called alone is a one-step ``run_trajectory``; given its
observations, it is the step itself, which ``run_trajectory`` calls.

Under every rule, a planned step on a dense pool allocates no array (tested
on both sides of ``_SHIFT_MIN_ROWS``): every array its calls write is the
plan's. A sparse pool's product is made by scipy and copied into the
workspace. At ten agents a step costs what its numpy calls cost to enter, so
each call takes its cheapest form that gives the same bits (timed in
``_Plan``): ``np.dot`` for one table, no (..., N, 1) operand broadcast over a
row in a per-step ufunc, a view assignment rather than ``np.copyto`` but for
argmax's masked one, and positional ``out``. A trajectory resolves one plan
and passes it through the three seams on every step, so the workspace is
reused and each step's rows are copied into the result; a public call with a
``Sharing`` resolves a fresh plan and so returns fresh arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import setitem
from typing import Sequence, Union

import numpy as np

from .errors import NumericalError, ValidationError, _check_integer, _is_integer
from .likelihoods import (
    LikelihoodModel,
    _check_index,
    log_likelihood_row,  # read by no step: kept as the benchmark's traced seam
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
    its own unmodified belief at weight a_kk. At H = 2 the spread returns a
    belief as it is, so every rule, "argmax" with ``self_aware`` included,
    steps bitwise like full sharing.
    """

    transmit: Union[None, int, str] = None
    self_aware: bool = False

    def __post_init__(self):
        t = self.transmit
        index = _is_integer(t) and t >= 0
        if not (index or t is None or (isinstance(t, str) and t == "argmax")):
            raise ValidationError(
                f"transmit must be None, a hypothesis index or 'argmax', got {t!r}"
            )
        if not isinstance(self.self_aware, (bool, np.bool_)):
            raise ValidationError(f"self_aware must be a bool, got {self.self_aware!r}")


def FullSharing() -> Sharing:
    """``Sharing()``: entire belief vectors (classic log-linear learning)."""
    return Sharing(None, False)


def PartialSharing(tx_index: int) -> Sharing:
    """``Sharing(tx_index)``: only the tx component is transmitted."""
    return Sharing(tx_index, False)


def SelfAwarePartialSharing(tx_index: int) -> Sharing:
    """``Sharing(tx_index, self_aware=True)``: self-aware partial sharing."""
    return Sharing(tx_index, True)


def MaxBeliefSharing(self_aware: bool = False) -> Sharing:
    """``Sharing("argmax", self_aware)``: the strongest component is transmitted."""
    return Sharing("argmax", self_aware)


# -- log-domain helpers -------------------------------------------------------

def check_log_beliefs(log_beliefs: np.ndarray) -> None:
    """Hard invariant: finite entries, rows (along the last axis) exp-summing
    to 1 within 1e-9.

    Raises instead of clamping; a violation means the engine lost positivity.
    The message names the first offending row: its agent for an (N, H) table
    (or one belief vector, agent 0), its index tuple for a stack of tables.
    The exponentials are added column by column in index order, one pass over
    every row each. A table with no rows has nothing to check.
    """
    b = log_beliefs if getattr(log_beliefs, "ndim", 0) >= 2 else np.atleast_2d(log_beliefs)
    if 0 in b.shape[:-1]:
        return
    finite = np.isfinite(b)
    if not finite.all():
        raise NumericalError(f"{_first_row(~finite.all(axis=-1))}: non-finite log-belief entry")
    h = b.shape[-1]
    e = np.exp(b)
    total = e[..., 0] + e[..., 1] if h >= 2 else e.sum(axis=-1)  # 0 with no column
    for c in range(2, h):
        total += e[..., c]
    total -= 1.0
    off = np.abs(total, out=total)
    if off.max() > BELIEF_SUM_TOL:
        bad = off > BELIEF_SUM_TOL
        raise NumericalError(f"{_first_row(bad)}: belief normalization off by {off[bad][0]:.3g}")


def _first_row(bad: np.ndarray) -> str:
    """The first row a mask over rows flags: ``agent k`` for one table's
    rows, ``row (i, ..., k)`` for a stack's."""
    index = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return f"agent {index[0]}" if bad.ndim == 1 else f"row {tuple(map(int, index))}"


def uniform_log_beliefs(n_agents: int, n_hypotheses: int) -> np.ndarray:
    for name, count in (("n_agents", n_agents), ("n_hypotheses", n_hypotheses)):
        _check_integer(name, count)
        if count < 1:
            raise ValidationError(f"{name} must be >= 1, got {count}")
    return np.full((n_agents, n_hypotheses), -np.log(n_hypotheses))


# -- the three algorithm steps ------------------------------------------------

#: Rows per table (N, the agents of one (N, H) table, also in a stack) from
#: which log-sum-exps take the max shift instead of the reduce's calls: the
#: shift's ufunc call per column costs more than the reduce's inner loop per
#: row on few rows. Timed on trajectory rows at H = 3 (numpy 2.4, shared
#: 2-core Xeon VM), the spread broke even near 64 rows and the pooled
#: normalization between 96 and 128 on a ring; on the 100-agent random graph
#: of ``hetero_random`` the shift cost about 5 us a step more than the reduce.
#: Below it, a log-sum-exp over k >= 2 columns (a fixed tx's spread sums
#: H - 1, the pooled normalization H) is a fold of k - 1 ``np.logaddexp``
#: calls over column views, which makes the reduce's calls and so gives its
#: bits; a single column (the spread at H = 2, the normalization at H = 1)
#: stays one reduce, where the fold cannot start. Timed the same way, with
#: ``out=`` on both sides, the H = 3 spread took 1.6 against 4.1 us at 10 rows
#: and the H = 3 normalization 2.6 against 3.3 us at 10 rows and 6.2 against
#: 14.0 at 100. At 10 rows the spread's reduce was cheaper from four columns on
#: (2.8 against 3.5 us), but no benchmark workload steps a table that small and
#: wide. ``_plan`` alone reads it; the seams run whichever calls it built.
_SHIFT_MIN_ROWS = 128


def _fold_calls(out: np.ndarray, first: np.ndarray, second: np.ndarray,
                *rest: np.ndarray) -> list:
    """The ``np.logaddexp`` calls, as (function, positional (x1, x2, out))
    pairs, that fold ``first``, ``second`` and the ``rest`` in index order
    into ``out`` (a positional ``out`` costs less than the keyword). They make
    the calls the reduce over those columns makes, so they have its bits, and
    those of the masked reduce from ``initial=-inf``: that reduce's first
    call, ``logaddexp(-inf, x)``, only turns -0.0 into +0.0, which the next
    call cannot tell apart."""
    calls = [(np.logaddexp, (first, second, out))]
    for column in rest:
        calls.append((np.logaddexp, (out, column, out)))
    return calls


def _shift_calls(out: np.ndarray, first: np.ndarray, *rest: np.ndarray) -> list:
    """The calls of the max shift m + log sum_c exp(x_c - m) over ``first``
    and the ``rest`` into ``out``, with m their largest entry per row: the
    ``np.maximum``, ``np.subtract``, ``np.exp``, ``np.add`` and ``np.log``
    passes over column views, each over every row, the exponentials added in
    index order, into two scratch arrays of ``out``'s shape. ``np.maximum``
    takes ``out`` by keyword, a positional one being deprecated there.

    A NaN or +inf entry gives NaN, so a row holding one stays non-finite once
    normalized; on finite rows no pass warns. It rounds apart from the reduce
    by a few ulp; a single column x gives 0.0 + x, as the reduce from -inf.
    """
    shift, term = np.empty_like(out), np.empty_like(out)
    maximum = partial(np.maximum, out=shift)
    calls = [(maximum, (first, rest[0])) if rest else (np.copyto, (shift, first))]
    calls += [(maximum, (shift, column)) for column in rest[1:]]
    calls.append((np.subtract, (first, shift, out)))
    calls.append((np.exp, (out, out)))
    for column in rest:
        calls += [(np.subtract, (column, shift, term)), (np.exp, (term, term)),
                  (np.add, (out, term, out))]
    return calls + [(np.log, (out, out)), (np.add, (out, shift, out))]


def _lse_calls(rows: np.ndarray, out: np.ndarray, shift: bool, skip=None) -> list:
    """The calls that write log sum_c exp(rows[..., c]) over the last axis,
    column ``skip`` left out, into ``out`` of the rows' shape less that axis:
    with ``shift``, the max shift (:func:`_shift_calls`); otherwise a fold
    over two or more columns (:func:`_fold_calls`), or the one reduce over a
    single column, masked from -inf where ``skip`` is left out, as argmax's
    spread is."""
    columns = [rows[..., c] for c in range(rows.shape[-1]) if c != skip]
    if shift:
        return _shift_calls(out, *columns)
    if len(columns) > 1:
        return _fold_calls(out, *columns)
    mask = () if skip is None else (False, -np.inf, np.arange(rows.shape[-1]) != skip)
    return [(np.logaddexp.reduce, (rows, -1, None, out, *mask))]


def _sparse_product(pool, shared: np.ndarray, out: np.ndarray) -> None:
    """``pool @ shared`` into ``out`` for a sparse pool, which multiplies 2-D
    operands only: a (..., N, H) stack is one (N, ...·H) product, whose
    columns are the tables' columns, each summed as it is alone."""
    columns = shared.swapaxes(0, -2)  # (N, ..., H)
    product = pool @ columns.reshape(len(columns), -1)
    out.swapaxes(0, -2)[...] = product.reshape(columns.shape)


@dataclass(slots=True)
class _Plan:
    """A ``Sharing`` resolved for a shape of rows (..., N, H), and for a
    combine also for a network, once per trajectory: the workspace a step
    computes into and the two lists of (function, args) calls it makes there,
    bound to that workspace and to the network's pool and a_kk table.

    ``psi`` holds the posterior rows, ``shared`` the rows the rule sends
    (``psi`` itself only under full sharing that is not self-aware) and
    ``pooled``, given a network, the combined rows; each has the rows' shape.
    ``modify`` writes ``shared`` from ``psi``: a fixed tx's log-sum-exp of
    its other columns (:func:`_lse_calls`), or argmax's ``np.argmax``,
    ``np.not_equal`` into a mask and masked reduce, into one (..., N, 1)
    entry per row; the ``np.subtract`` of log(H - 1); then a fixed tx writes
    that entry across its row of ``shared`` and the kept tx column over it,
    where argmax copies psi and runs the masked ``np.copyto``. Full sharing
    makes no call, or, self-aware, one copy of psi. ``combine`` writes
    ``pooled``: the pool product (``np.dot`` for one dense (N, H) table,
    ``np.matmul`` for a dense stack, which ``np.dot`` would contract
    otherwise, :func:`_sparse_product` for a sparse pool); under a
    self-aware rule a_kk * (psi - shared) added in, a_kk an (N, H) table so
    that a stack broadcasts it only over its leading axes; the pooled rows'
    log-sum-exp into the same per-row entry, copied across its row and
    subtracted. ``aware`` tells a combine that it reads the caller's own
    rows into ``psi``.

    The step's calls take the cheapest form that gives the same bits: ``np.dot``
    for one table, no (..., N, 1) operand broadcast over a row in a per-step
    ufunc, and no ``np.copyto`` but argmax's masked one. Timed at 10 x 3 rows
    (numpy 2.4.6, OpenBLAS 0.3.31, best of 7, one thread of a 2-core Xeon
    VM): ``np.dot`` with ``out`` 1.0 us against 1.8 for ``np.matmul``; an
    (N, 1) operand, which takes numpy's broadcast-stride path, 1.0 us in
    ``pooled -= lse`` against 0.2 + 0.3 for the copy across the row and a
    contiguous subtraction, and 1.4 against 0.8 in the a_kk product; a view
    assignment 0.1 us against 0.65 for ``np.copyto``, which goes through
    numpy's Python-level dispatcher; a positional ``out`` about 0.15 us less
    than the keyword, and a loop over prebuilt calls 0.16 us less than a
    function that makes them, for one call, and 0.3 for two.

    Building a plan is most of what a lone :func:`run_iteration` adds to the
    step, so it is kept small: each array is one ``np.empty`` call, which
    costs less than a view into one allocation, and the class is a slotted,
    unfrozen dataclass built by position (on the VM of the timings at
    ``_SHIFT_MIN_ROWS``, a frozen one took about 4 us longer to build and
    keywords about 1.5 us). Nothing reassigns a field once built.
    """

    aware: bool
    psi: np.ndarray
    shared: np.ndarray
    pooled: Union[None, np.ndarray]
    modify: Sequence[tuple]
    combine: Sequence[tuple]


def _table(rows) -> np.ndarray:
    """Log-belief rows, an array or array-like, as floats, as a copy into the
    workspace reads them; ValidationError where numpy cannot, for rows of
    unequal lengths or entries that are not numbers. A float array passes as
    it is."""
    try:
        return np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"log-beliefs are not a table of numbers: {exc}") from None


def _plan(sharing, rows, net=None) -> _Plan:
    """``sharing`` resolved for rows of the shape (..., H) of ``rows``, an
    array or array-like, and, given, for ``net``, whose agent count must be
    that of the rows; a plan as it is, so a trajectory checks its rule once
    and reads no shape. The log-sum-exp form follows one table's agent count,
    ``shape[-2]``, so a stack of tables steps each as it would step alone."""
    if isinstance(sharing, _Plan):
        return sharing
    if not isinstance(sharing, Sharing):
        raise ValidationError(f"sharing must be a Sharing, got {sharing!r}")
    shape = _table(rows).shape
    if not shape or not shape[-1]:
        raise ValidationError(f"log-beliefs of shape {shape} hold no hypothesis")
    if net is not None and (len(shape) < 2 or shape[-2] != net.size):
        raise ValidationError(f"log-beliefs of shape {shape} are not (..., N={net.size}, H)")
    h = shape[-1]
    shift = len(shape) >= 2 and shape[-2] >= _SHIFT_MIN_ROWS
    tx, aware = sharing.transmit, sharing.self_aware
    if _is_integer(tx) and tx >= h:
        raise ValidationError(f"tx index {tx} out of range for H={h}")
    if h == 1:  # a single hypothesis has nothing to spread
        tx = None
    psi, lse = np.empty(shape), np.empty(shape[:-1] + (1,))
    shared = psi if tx is None and not aware else np.empty(shape)
    if tx is None:
        modify = [] if shared is psi else [(setitem, (shared, ..., psi))]
    else:
        if tx == "argmax":  # ties toward the lowest index
            top, others = np.empty(shape[:-1], np.intp), np.empty(shape, bool)
            # logaddexp(-inf, a) is a + 0.0, so the masked-out entries add nothing
            modify = [(np.argmax, (psi, -1, top)),
                      (np.not_equal, (top[..., None], np.arange(h), others)),
                      (np.logaddexp.reduce, (psi, -1, None, lse, True, -np.inf, others))]
            write = [(setitem, (shared, ..., psi)), (np.copyto, (shared, lse, "same_kind", others))]
        else:
            modify = _lse_calls(psi, lse[..., 0], shift, tx)
            write = [(setitem, (shared, ..., lse)), (setitem, (shared[..., tx], ..., psi[..., tx]))]
        log_rest = np.asarray(np.log(h - 1.0))  # 0-d: the subtraction converts a scalar per call
        modify += [(np.subtract, (lse, log_rest, lse)), *write]
    pooled, combine = None, []
    if net is not None:
        dense = isinstance(net.pool, np.ndarray)
        product = (np.dot if len(shape) == 2 else np.matmul) if dense else _sparse_product
        pooled, normalizer = np.empty(shape), np.empty(shape)
        combine.append((product, (net.pool, shared, pooled)))
        if aware:
            term, diagonal = np.empty(shape), np.empty(shape[-2:])
            diagonal[...] = net.diagonal[:, None]
            combine += [(np.subtract, (psi, shared, term)), (np.multiply, (term, diagonal, term)),
                        (np.add, (pooled, term, pooled))]
        combine += _lse_calls(pooled, lse[..., 0], shift)
        combine += [(setitem, (normalizer, ..., lse)), (np.subtract, (pooled, normalizer, pooled))]
    return _Plan(aware, psi, shared, pooled, modify, combine)


def modify_for_sharing(log_psi: np.ndarray, sharing: Sharing) -> np.ndarray:
    """Belief vector as reconstructed by receivers under the given rule: each
    row keeps its tx entry and splits the rest evenly, at the exact log of
    (1 - psi_tx)/(H-1) computed from the surviving mass.

    The rows are read from the plan's ``psi``, where a step computes them;
    rows from elsewhere, as a public call's, are copied there first, as
    floats, and rows that are not a table of numbers raise ValidationError.
    The result is the plan's ``shared``, which is ``psi`` itself
    only under full sharing that is not self-aware, so a call with a
    ``Sharing`` returns an array of its own.
    """
    plan = _plan(sharing, log_psi)
    if log_psi is not plan.psi:
        plan.psi[...] = log_psi
    for function, args in plan.modify:
        function(*args)
    return plan.shared


def combine_step(net: Network, log_shared: np.ndarray, log_own: np.ndarray,
                 sharing: Sharing) -> np.ndarray:
    """Log-linear pooling of the (modified) neighbor beliefs.

    Row k of the result is sum_l a_lk * shared_l. Self-aware: the a_kk term
    uses the agent's own unmodified belief, of the shared rows' shape,
    instead of its modified one; other rules do not read ``log_own``. The
    rows are normalized here, over the last axis, so the inputs may carry a
    per-row shift, and the caller runs :func:`check_log_beliefs`. A
    (..., N, H) stack of tables pools each table as it pools alone. Rows that
    are not the plan's own are copied into its ``shared`` and ``psi`` first,
    as floats, and the result is the plan's ``pooled``. Rows that are not a
    table of numbers, and tables of another agent count than N, raise
    ValidationError.
    """
    plan = _plan(sharing, log_shared, net)
    if log_shared is not plan.shared:
        plan.shared[...] = log_shared
    if plan.aware and log_own is not plan.psi:
        own = _table(log_own)
        if own.shape != plan.psi.shape:
            raise ValidationError(
                f"own log-beliefs of shape {own.shape} are not the shared rows' {plan.psi.shape}"
            )
        plan.psi[...] = log_own
    for function, args in plan.combine:
        function(*args)
    return plan.pooled


# -- full iteration -----------------------------------------------------------

def _observe(groups: tuple, true_index: int, n_agents: int, steps: int, dtype, rng):
    """(steps, N) observations of ``dtype``, one per agent and step, and their
    (steps, N, H) log-likelihoods, from the groups of :func:`stack_models`,
    for a ``true_index`` the caller has checked.

    One group, a family or a list whose agents share one family type, draws
    the block in one :func:`sample_observation` call, which equals ``steps``
    per-step draws bitwise. Several groups keep the order a single step draws
    in, step by step and group by group, but each step makes only the raw
    generator call of each group (its ``variates``), into that step's row of
    the group's (steps, n) buffer. Once per block, each group maps its buffer
    to observations (its ``observations``, the map its ``sample`` uses) and
    scores them.
    """
    if len(groups) == 1:
        xi = sample_observation(groups[0], true_index, rng, size=(steps, n_agents))
        return xi, log_likelihood_rows(groups[0], xi)
    raws = [(group.variates(rng), np.empty((steps, group.agents.size))) for group in groups]
    for t in range(steps):
        for fill, raw in raws:
            fill(out=raw[t])
    xi = np.empty((steps, n_agents), dtype=dtype)
    table = np.empty((steps, n_agents, groups[0].hypothesis_count))
    for group, (_, raw) in zip(groups, raws):
        x = group.observations(true_index, raw)
        xi[:, group.agents] = x
        table[:, group.agents] = log_likelihood_rows(group, x)
    return xi, table


def run_iteration(
    log_beliefs: np.ndarray,
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
    Takes the (N, H) log-beliefs and returns ``(log_next, xi)``: the next
    (N, H) log-beliefs and the drawn observations (needed by the recursion
    checks and optional trajectory retention).

    Without ``observed`` the step is a one-step :func:`run_trajectory`: its
    inputs are validated before the draw, the draw is a one-step block, the
    result is checked, and an error names iteration 1 and the agent. With one
    model per agent, the agents are stacked by family type
    (:func:`stack_models`) on every call, and the step draws group by group,
    each group in agent order, what :func:`sample_observation` draws for that
    group. ``observed``, an (xi, loglik) pair of
    the (N,) observations and their (N, H) log-likelihoods, is a row drawn
    ahead of time: the step then draws nothing, returns that xi and leaves
    the result unchecked, because :func:`run_trajectory` validates its inputs
    once and checks its steps once per block. It checks only what a wrong
    call would otherwise turn into a numpy error or a silent broadcast: the
    rule must be a ``Sharing`` (ValidationError), and the log-beliefs and
    log-likelihoods must be arrays of one shape (N, H) with N the network's
    agent count (ValidationError), compared as shape tuples. The posterior is
    pooled unnormalized (see the module docstring), into the plan's workspace:
    given the plan of a trajectory, the result is overwritten by its next
    step.
    """
    if observed is None:
        out, obs = run_trajectory(log_beliefs, net, models, true_index, sharing, 1, rng,
                                  keep_observations=True)
        return out[1], obs[0]
    xi, loglik = observed
    try:
        shape, scored = log_beliefs.shape, loglik.shape
    except AttributeError:
        raise ValidationError("the step takes log-beliefs and log-likelihoods as arrays") from None
    plan = _plan(sharing, log_beliefs, net)
    if not (len(shape) == 2 and shape == scored == plan.psi.shape):
        raise ValidationError(
            f"log-beliefs of shape {shape} and log-likelihoods of shape {scored} "
            f"are not both (N={net.size}, H)"
        )
    log_psi = np.add(log_beliefs, loglik, plan.psi)
    return combine_step(net, modify_for_sharing(log_psi, plan), log_psi, plan), xi


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
    in one :func:`sample_observation` call. A list mixing family types makes
    one raw generator call per group and step, in the groups' order, and maps
    each group's block of draws to observations at once, by the map its
    ``sample`` uses. Either way the generator yields what ``horizon`` calls
    of ``run_iteration`` without ``observed`` would draw, so trajectories and
    observations equal that loop's bitwise. The beliefs of each block are
    checked at once, after its last step; a step past a bad one still runs,
    with invalid-value warnings off. The error names the first failing step's
    iteration (1-based, as the index into the result) and the first agent
    whose log-likelihood was non-finite at that step, if any. The beliefs'
    shape, agent and hypothesis counts and normalization are checked against
    the network and the models, and ``true_index`` and a fixed tx against H,
    before the first draw. A lone :func:`run_iteration` is this with
    ``horizon`` 1.
    """
    _check_integer("horizon", horizon)
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    init = np.asarray(initial_log_beliefs, dtype=float)
    if init.ndim != 2 or init.shape[0] != net.size:
        raise ValidationError(f"log-beliefs of shape {init.shape} are not (N={net.size}, H)")
    check_log_beliefs(init)
    n, h = init.shape
    plan = _plan(sharing, init, net)
    groups = stack_models(models, n)
    if groups[0].hypothesis_count != h:
        raise ValidationError(
            f"log-beliefs hold {h} hypotheses but the models {groups[0].hypothesis_count}"
        )
    _check_index("hypothesis", true_index, h)
    dtype = np.result_type(*(g.dtype for g in groups))
    out = np.empty((horizon + 1, n, h))
    out[0] = init
    obs = np.empty((horizon, n), dtype=dtype) if keep_observations else None
    log_b = init
    for start in range(0, horizon, _BLOCK):
        steps = min(_BLOCK, horizon - start)
        xi, loglik = _observe(groups, true_index, n, steps, dtype, rng)
        if keep_observations:
            obs[start:start + steps] = xi
        block = out[start + 1:start + steps + 1]
        with np.errstate(invalid="ignore"):  # a NaN is reported by the block check
            for row, scored in zip(block, loglik):  # obs keeps xi; the step returns it unread
                log_b, _ = run_iteration(
                    log_b, net, models, true_index, plan, rng, observed=(None, scored)
                )
                row[...] = log_b
        try:
            check_log_beliefs(block.reshape(-1, h))
        except NumericalError:
            _raise_first_failure(block, loglik, start)
            raise
    return out, obs


def _raise_first_failure(block: np.ndarray, loglik: np.ndarray, start: int) -> None:
    """Raise the error of the first step of a block whose beliefs fail the
    check, named by its iteration and, if any, by the first agent whose
    log-likelihood was non-finite at that step."""
    for j, log_b in enumerate(block):
        try:
            check_log_beliefs(log_b)
        except NumericalError as exc:
            # dense pooling spreads a NaN to every agent: name the one it came from
            scored = np.flatnonzero(~np.isfinite(loglik[j]).all(axis=1))
            origin = f"agent {scored[0]} scored a non-finite log-likelihood; " if scored.size else ""
            raise NumericalError(f"iteration {start + j + 1}: {origin}{exc}") from exc
