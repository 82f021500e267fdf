"""One social-learning run: Bayes update, sharing modification, log-linear
combination.

Everything stays in the log domain. Belief ratios decay linearly in the
iteration index, so linear-domain probabilities underflow within a few
hundred steps; exponentiate only at the edges (export, verdicts). The mass
spread over the non-transmitted hypotheses is a log-sum-exp of the *other*
components rather than log(1 - exp(tx)), which stays finite even when the
transmitted component is within one ulp of probability one.

A step pools the posterior unnormalized: the normalization of the pooled rows
cancels its normalizer exactly, because a per-row shift passes through the
spread (the kept entry and the log-sum-exp of the rest both move), argmax,
pooling (for any A) and the self-aware own - shared term (where it cancels).

Each rule of a step is stated once, where the code decides it:

* the step plan, its two call lists and their call forms, the
  allocation-free step, and what a seam trusts of a plan: ``_Plan``;
* the form of each log-sum-exp, a fold of ``np.logaddexp`` or the max shift:
  :func:`_lse_calls`;
* the form of the normalization, column by column or one broadcast entry:
  ``_plan``'s ``shift`` test, the agent count that picks each log-sum-exp's
  form (a fixed tx's spread is written column by column at every size);
* a sparse pool's product: :func:`_product_calls`;
* the length of a block of steps: ``_BLOCK``;
* how a block draws and scores its observations: :func:`_observe`.

One block loop validates, draws, steps and checks: it serves
``run_trajectory``, one (N, H) table, and ``run_replicas``, an (R, N, H)
stack of replicas each drawn from its own generator. ``run_iteration``
called alone is a one-step ``run_trajectory``; given its observations, it is
the step itself, which the block loop calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import setitem
from typing import Sequence, Union

import numpy as np

from .errors import NumericalError, ValidationError, _check_integer, _is_integer, _numbers
from .likelihoods import (
    LikelihoodModel,
    log_likelihood_row,  # read by no step: kept as the benchmark's traced seam
    log_likelihood_rows,
    sample_observation,
    stack_models,
)
from .network import SPARSE_SOLVE_MIN_AGENTS, Network, _network

BELIEF_SUM_TOL = 1e-9

#: A block of a run draws, scores and checks at once at most _BLOCK steps
#: and, past one step, at most _BLOCK_DOUBLES log-likelihoods
#: (steps * N * H doubles, 512 KiB): min(_BLOCK, _BLOCK_DOUBLES // (N * H))
#: steps, fewer than _BLOCK where N * H > 1024, and at least one. Each block
#: makes its temporaries afresh, and past the allocator's reuse size they were
#: page-faulted in afresh on every block, as a 64-step block's were at
#: N = 1000, so a large table gets short blocks whose buffers are reused, and
#: no buffer grows with the step count (a 64-step block's was 154 MB at 10^5
#: agents); a smaller budget pays numpy's per-call cost on more blocks, a
#: larger one peaks higher (``BENCH_30.json``, ``block_budget_choice``).
#: A run whose log-likelihoods are at most _BLOCK_DOUBLES // 4 in all
#: (horizon * N * H <= 2^14 doubles, 128 KiB, glibc's default mapping
#: threshold), as a 10 x 3 run of up to 546 steps, is one block whatever its
#: step count, so ``repro_grid``'s 10 x 3 runs of 300 steps pay one block's
#: numpy calls instead of five. The deciding property is the
#: run's size, not its family mix: larger one-block runs, and runs of several
#: longer blocks, faulted their heap in afresh on every run, and an unbounded
#: step count made mixed and one-family runs of 50 to 150 agents slower
#: (page-fault counts and timings in ``BENCH_37.json``, ``faults`` and
#: ``rejected_rule``).
_BLOCK = 64
_BLOCK_DOUBLES = 2**16


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
    every row each. A table with no rows has nothing to check. Entries that
    are not numbers (``errors._numbers``) raise ValidationError.

    A table that passes is read twice: the sums, and its least entry. A NaN
    or +inf entry fails the sum test, and the least entry catches a -inf one,
    whose row may still exp-sum to 1. Only a table that fails is scanned for
    non-finite entries, which are reported before any normalization.
    """
    b = np.atleast_2d(_numbers("log-beliefs", log_beliefs))
    if 0 in b.shape[:-1]:
        return
    h = b.shape[-1]
    e = np.exp(b)
    total = e[..., 0] + e[..., 1] if h >= 2 else e.sum(axis=-1)  # 0 with no column
    for c in range(2, h):
        total += e[..., c]
    total -= 1.0
    off = np.abs(total, out=total)
    if off.max() <= BELIEF_SUM_TOL and b.min() > -np.inf:
        return
    finite = np.isfinite(b)
    if not finite.all():
        raise NumericalError(f"{_first_row(~finite.all(axis=-1))}: non-finite log-belief entry")
    bad = off > BELIEF_SUM_TOL
    raise NumericalError(f"{_first_row(bad)}: belief normalization off by {off[bad][0]:.3g}")


def _first_row(bad: np.ndarray) -> str:
    """The first row a mask over rows flags: ``agent k`` for one table's
    rows, ``row (i, ..., k)`` for a stack's."""
    index = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return f"agent {index[0]}" if bad.ndim == 1 else f"row {tuple(map(int, index))}"


def uniform_log_beliefs(n_agents: int, n_hypotheses: int) -> np.ndarray:
    for name, count in (("n_agents", n_agents), ("n_hypotheses", n_hypotheses)):
        _check_integer(name, count, 1)
    return np.full((n_agents, n_hypotheses), -np.log(n_hypotheses))


# -- the three algorithm steps ------------------------------------------------

def _fold_calls(out: np.ndarray, first: np.ndarray, *rest: np.ndarray) -> list:
    """The calls, as (function, positional (x1, x2, out)) pairs, that fold
    ``first`` and the ``rest`` in index order into ``out`` (a positional
    ``out`` costs less than the keyword): ``np.logaddexp`` of the first two,
    then of ``out`` and each next column. They make the calls the reduce over
    those columns makes, so they have its bits, and those of the masked
    reduce from ``initial=-inf``: that reduce's first call,
    ``logaddexp(-inf, x)``, only turns -0.0 into +0.0, which the next call
    cannot tell apart. A single column x is that first call alone, whose bits
    are x + 0.0, and so one ``np.add``."""
    calls = [(np.logaddexp, (first, rest[0], out)) if rest else (np.add, (first, 0.0, out))]
    return calls + [(np.logaddexp, (out, column, out)) for column in rest[1:]]


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
    column ``skip`` left out, into ``out`` of the rows' shape less that axis.

    Every log-sum-exp of a step but argmax's spread (a fixed tx's spread and
    the pooled rows' normalization, under every rule) is a run of these
    calls, and one count decides their form: ``_plan`` sets ``shift`` when a
    table's agent count, ``shape[-2]``, is at least the count from which a
    network's pool is sparse (``network.SPARSE_SOLVE_MIN_AGENTS``). Below it,
    the fold (:func:`_fold_calls`), which makes the calls of one
    ``np.logaddexp.reduce`` and so gives its bits; a single column (the
    spread at H = 2, the normalization at H = 1) is the reduce's one call,
    whose bits are the entry + 0.0. From it on, the max shift
    (:func:`_shift_calls`), m + log sum exp(x - m) with m the row's largest
    entry: a few vectorized ``np.maximum``, ``np.exp``, add and ``np.log``
    passes over column views, where ``np.logaddexp`` is scalar libm code per
    entry. It rounds apart from the reduce by a few ulp. In the band of
    128-199 rows the fold timed as fast as the shift or faster
    (``BENCH_38.json``, ``band``). Argmax's spread, whose columns differ from
    row to row, is one masked reduce at every size (``_Plan``)."""
    columns = [rows[..., c] for c in range(rows.shape[-1]) if c != skip]
    return (_shift_calls if shift else _fold_calls)(out, *columns)


def _product_calls(pool, rows: np.ndarray, out: np.ndarray) -> list:
    """The calls that write ``pool @ rows`` into ``out``, for a sparse pool
    and C-contiguous (N, K) ``rows`` and ``out``: a zero-fill of ``out``, then
    scipy's own ``<pool.format>_matvecs`` kernel on the pool's arrays and the
    two raveled views. That kernel is what ``pool @ rows`` runs after its
    dispatch, into a fresh zeroed result, so the calls give its bits and make
    no array, and nothing is copied back into the workspace; it is picked by
    the pool's format, as scipy picks it.

    ``scipy.sparse._sparsetools`` is a private scipy module. It is looked up
    here, when a sparse pool's plan is built, so that pbnet still imports
    without it; ``test_sparse_pool_product_is_scipys_bitwise`` fails if a
    scipy release moves it or changes the kernel's bits."""
    from scipy.sparse import _sparsetools

    kernel = getattr(_sparsetools, pool.format + "_matvecs")
    (m, n), vectors = pool.shape, rows.shape[1]
    return [(out.fill, (0.0,)),
            (kernel, (m, n, vectors, pool.indptr, pool.indices, pool.data,
                      rows.ravel(), out.ravel()))]


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
    ``shared`` one (..., N) column view at a time, the kept tx column from
    ``psi`` and every other from that entry, where argmax copies psi and runs
    the masked ``np.copyto``. Full sharing makes no call, or, self-aware, one
    copy of psi. ``combine`` writes ``pooled``: the pool product (``np.dot`` for one
    dense (N, H) table, ``np.matmul`` for a dense stack (``run_replicas``),
    which ``np.dot`` would contract otherwise; for a sparse pool
    :func:`_product_calls` on each (N, H) table, in place); under a self-aware rule a_kk * (psi -
    shared) added in, a_kk an (N, H) table so that a stack broadcasts it only
    over its leading axes; the pooled rows' log-sum-exp into the same per-row
    entry, subtracted from each row: one ``np.subtract`` per column from the
    sparse cutoff on, and below it one subtraction of a normalizer table the
    entry is copied across (``_plan``'s ``shift``).

    A seam given a ``Sharing`` resolves a fresh plan, copies the caller's
    rows into it and runs its list, so a public call returns arrays of its
    own; the one thing a seam asks of the rule is whether a combine reads the
    caller's own rows into ``psi``, ``Sharing.self_aware``. A trajectory
    resolves one plan and passes it through the three seams on every step, so
    the workspace is reused and each step's rows are copied into the result.
    Given the trajectory's plan, a seam trusts it: its rows are the plan's own
    and its shapes are those the trajectory checked, so a step copies and
    compares nothing; the seams still run once per step, each through its
    module attribute.

    Under every rule, a planned step allocates no array, on a dense pool or a
    sparse one, and neither do the max shift's calls (all tested): every
    array they write is the plan's. At ten agents a step costs what its numpy
    calls cost to enter, so each call takes the cheapest form that gives the
    same bits: ``np.dot`` for one table, no (..., N, 1) operand broadcast
    over a row in a per-step ufunc (numpy's broadcast-stride path), no
    ``np.copyto`` but argmax's masked one (it goes through numpy's
    Python-level dispatcher), a positional ``out`` and a loop over prebuilt
    calls; each form was timed against the one it replaced
    (``BENCH_25.json``, ``step_form_measurements``).

    Building a plan is most of what a lone :func:`run_iteration` adds to the
    step, so it is kept small: each array is one ``np.empty`` call, which
    costs less than a view into one allocation, and the class is a slotted,
    unfrozen dataclass built by position, which builds faster than a frozen
    one or keywords (plan build times in ``BENCH_27.json``,
    ``lone_run_iteration``). Nothing reassigns a field once built.
    """

    psi: np.ndarray
    shared: np.ndarray
    pooled: Union[None, np.ndarray]
    modify: Sequence[tuple]
    combine: Sequence[tuple]


def _plan(sharing, rows, net=None) -> _Plan:
    """``sharing`` resolved for rows of the shape (..., H) of ``rows``, an
    array or array-like read by the number rule (``errors._numbers``), and,
    given, for ``net``, a Network whose agent count must be that of the rows
    (ValidationError else). Every form it picks follows one table's shape,
    ``shape[-2:]``, so a stack of tables steps each as it would step alone."""
    if not isinstance(sharing, Sharing):
        raise ValidationError(f"sharing must be a Sharing, got {sharing!r}")
    if net is not None:
        _network(net)
    shape = _numbers("log-beliefs", rows).shape
    if not shape or not shape[-1]:
        raise ValidationError(f"log-beliefs of shape {shape} hold no hypothesis")
    if net is not None and (len(shape) < 2 or shape[-2] != net.size):
        raise ValidationError(f"log-beliefs of shape {shape} are not (..., N={net.size}, H)")
    h = shape[-1]
    shift = len(shape) >= 2 and shape[-2] >= SPARSE_SOLVE_MIN_AGENTS  # see _lse_calls
    tx, aware = sharing.transmit, sharing.self_aware
    if _is_integer(tx):
        _check_integer("tx index", tx, 0, h - 1)
    if h == 1:  # a single hypothesis has nothing to spread
        tx = None
    psi, lse = np.empty(shape), np.empty(shape[:-1] + (1,))
    entry = lse[..., 0]
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
            modify = _lse_calls(psi, entry, shift, tx)
            write = [(setitem, (shared[..., c], ..., psi[..., c] if c == tx else entry))
                     for c in range(h)]
        log_rest = np.asarray(np.log(h - 1.0))  # 0-d: the subtraction converts a scalar per call
        modify += [(np.subtract, (lse, log_rest, lse)), *write]
    pooled, combine = None, []
    if net is not None:
        pool, pooled = net.pool, np.empty(shape)
        if isinstance(pool, np.ndarray):
            combine = [(np.dot if len(shape) == 2 else np.matmul, (pool, shared, pooled))]
        else:  # each (N, H) table of a stack is C-contiguous, and [()] is one table
            combine = [call for table in np.ndindex(shape[:-2])
                       for call in _product_calls(pool, shared[table], pooled[table])]
        if aware:
            term, diagonal = np.empty(shape), np.empty(shape[-2:])
            diagonal[...] = net.diagonal[:, None]
            combine += [(np.subtract, (psi, shared, term)), (np.multiply, (term, diagonal, term)),
                        (np.add, (pooled, term, pooled))]
        combine += _lse_calls(pooled, entry, shift)
        # by column from the cutoff on; below it, the column form read
        # repro_grid 1.20x the broadcast (BENCH_46.json, below_cutoff)
        if shift:
            combine += [(np.subtract, (pooled[..., c], entry, pooled[..., c])) for c in range(h)]
        else:
            normalizer = np.empty(shape)
            combine += [(setitem, (normalizer, ..., lse)), (np.subtract, (pooled, normalizer, pooled))]
    return _Plan(psi, shared, pooled, modify, combine)


def modify_for_sharing(log_psi: np.ndarray, sharing: Sharing) -> np.ndarray:
    """Belief vector as reconstructed by receivers under the given rule: each
    row keeps its tx entry and splits the rest evenly, at the exact log of
    (1 - psi_tx)/(H-1) computed from the surviving mass.

    Given a step's plan, the rows are its ``psi``, where the step computed
    them, and are not read again. A call with a ``Sharing`` resolves a plan
    for its rows, read by the number rule (``errors._numbers``: ragged rows,
    text or object entries raise ValidationError), and copies them into its
    ``psi`` first. The result is the plan's ``shared``, which is ``psi`` itself
    only under full sharing that is not self-aware, so a call with a
    ``Sharing`` returns an array of its own.
    """
    if isinstance(sharing, _Plan):  # a step's own plan: the rows are its psi
        plan = sharing
    else:
        plan = _plan(sharing, log_psi)
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
    (..., N, H) stack of tables pools each table as it pools alone. Given a
    step's plan, the rows are its ``shared`` and ``psi`` and nothing is read
    or checked; a call with a ``Sharing`` resolves a plan for its rows and
    network and copies them into its ``shared`` and, self-aware, its ``psi``
    first. The result is the plan's ``pooled``. Rows that are not a table of
    numbers by the number rule (``errors._numbers``), and tables of another
    agent count than N, raise ValidationError.
    """
    if isinstance(sharing, _Plan):  # a step's own plan: the rows are its shared and psi
        plan = sharing
    else:
        plan = _plan(sharing, log_shared, net)
        plan.shared[...] = log_shared
        if sharing.self_aware:
            own = _numbers("own log-beliefs", log_own)
            if own.shape != plan.psi.shape:
                raise ValidationError(
                    f"own log-beliefs of shape {own.shape} are not the shared rows' {plan.psi.shape}"
                )
            plan.psi[...] = log_own
    for function, args in plan.combine:
        function(*args)
    return plan.pooled


# -- full iteration -----------------------------------------------------------

def _observe(groups: tuple, columns, true_index: int, n_agents: int, steps: int, rng,
             kept) -> np.ndarray:
    """(steps, N, H) log-likelihoods of one observation per agent and step,
    from the groups of :func:`stack_models`, for a ``true_index`` the caller
    has checked; the (steps, N) observations are written into ``kept``, or,
    when it is None, not assembled.

    The draw contract: a block draws, bitwise, what its steps would draw one
    at a time, so its length changes no bit of a run. One group, a family or a
    list whose agents share one family type, draws the block in one
    :func:`sample_observation` call, which equals ``steps`` per-step draws
    bitwise. Several groups keep the order a single step draws in, step by
    step and group by group, but each step makes only the raw generator call
    of each group (its ``variates``), into that step's row of the group's
    (steps, n) buffer. Once per block, each group maps its buffer to
    observations (its ``observations``, the map its ``sample`` uses) and
    scores them. Its log-likelihoods go into the block's table through a
    (steps, N * H) view, one fancy index on the last axis per group, by that
    group's ``columns``, which the trajectory maps once: indexing the agent
    axis of (steps, N, H) copied each H-entry row through numpy's strided
    subspace loop at about twice the cost, and a join in group order gathered
    back by ``np.take`` cost as little but held one more (steps, N, H) buffer.
    """
    if len(groups) == 1:
        xi = sample_observation(groups[0], true_index, rng, size=(steps, n_agents))
        if kept is not None:
            kept[...] = xi
        return log_likelihood_rows(groups[0], xi)
    raws = [(group.variates(rng), np.empty((steps, group.agents.size))) for group in groups]
    for t in range(steps):
        for fill, raw in raws:
            fill(out=raw[t])
    table = np.empty((steps, n_agents, groups[0].hypothesis_count))
    entries = table.reshape(steps, -1)
    for group, group_columns, (_, raw) in zip(groups, columns, raws):
        x = group.observations(true_index, raw)
        if kept is not None:
            kept[:, group.agents] = x
        entries[:, group_columns] = log_likelihood_rows(group, x).reshape(steps, -1)
    return table


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
    (:func:`stack_models`, which keeps the groups of the last lists it
    stacked), and the step draws as a trajectory's block does
    (:func:`_observe`). ``observed``, an (xi, loglik) pair of the
    (N,) observations and their (N, H) log-likelihoods, is a row drawn ahead
    of time: the step then draws nothing, returns that xi and leaves the
    result unchecked, because :func:`run_trajectory` validates its inputs once
    and checks its steps once per block. Given a ``Sharing``, it checks only
    what a wrong call would otherwise turn into a numpy error or a silent
    broadcast: the log-beliefs and log-likelihoods must be arrays of one shape
    (N, H) with N the network's agent count (ValidationError), compared as
    shape tuples, and a rule that is no ``Sharing`` raises ValidationError.
    Given the plan of a trajectory, which built and checked the arrays, it
    checks nothing (``_Plan``): it adds the log-likelihoods into the plan's
    ``psi`` and hands the plan to :func:`modify_for_sharing` and
    :func:`combine_step`. The posterior is pooled unnormalized (see the module
    docstring), into the plan's workspace: given the plan of a trajectory, the
    result is overwritten by its next step.
    """
    if observed is None:
        out, obs = run_trajectory(log_beliefs, net, models, true_index, sharing, 1, rng,
                                  keep_observations=True)
        return out[1], obs[0]
    xi, loglik = observed
    if isinstance(sharing, _Plan):  # a trajectory's: it built and checked these arrays
        plan = sharing
    else:
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

    ``net`` must be a Network (ValidationError else). The beliefs are read
    by the number rule (``errors._numbers``), and their shape, agent and
    hypothesis counts and normalization are checked against the network and
    the models, and ``true_index`` and a fixed tx against H, and the
    ``Sharing`` is resolved into the step plan (``_Plan``), all before the
    first draw, so the generator moves only for a valid run.

    Observations are drawn and scored a block of steps at a time (its
    length: ``_BLOCK``; its draws: :func:`_observe`), and each step goes
    through :func:`run_iteration` with its pre-drawn row and the trajectory's
    plan, which the step and its seams trust. The observations are assembled
    in agent order only when ``keep_observations``. The generator yields what
    ``horizon`` calls of ``run_iteration`` without ``observed`` would draw,
    so trajectories and observations equal that loop's bitwise, whatever the
    block length. The beliefs of each block are checked at once, after its
    last step; a step past a bad one still runs, with invalid-value warnings
    off, because the log-sum-exps warn on the NaN or infinity that the check
    reports. The error names the first failing step's iteration (1-based, as
    the index into the result) and the first agent whose log-likelihood was
    non-finite at that step, if any. A lone :func:`run_iteration` is this
    with ``horizon`` 1, and this is :func:`run_replicas` of one generator, on
    one (N, H) table.
    """
    out, obs = _run(initial_log_beliefs, net, models, true_index, sharing, horizon, [rng],
                    keep_observations)
    return out[0], obs


def run_replicas(
    initial_log_beliefs: np.ndarray,
    net: Network,
    models,
    true_index: int,
    sharing: Sharing,
    horizon: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Run one replica per generator of ``rngs``, a non-empty list or tuple,
    from the same (N, H) initial beliefs; return their (R, horizon+1, N, H)
    log-beliefs. Replica r equals ``run_trajectory(..., rngs[r])[0]``
    bitwise, and leaves ``rngs[r]`` where that run leaves it.

    Every argument is checked as :func:`run_trajectory` checks it, and
    ``rngs`` too (ValidationError), before any generator moves. From two
    replicas on, the R tables step as one (R, N, H) stack through one plan:
    a dense pool's product is ``np.matmul``, a sparse one's scipy's kernel on
    each table, and each table steps as it steps alone (``_plan``). Each
    replica draws and scores its blocks from its own generator
    (:func:`_observe`, whose draw contract makes its draws those of its own
    run), the models are stacked once per call, and each block of the stack
    is checked once; an error names the first failing iteration, the first
    replica failing there, and the agent, as :func:`run_trajectory` does.
    """
    if not isinstance(rngs, (list, tuple)) or not rngs:
        raise ValidationError(f"rngs must be a non-empty list or tuple of generators, got {rngs!r}")
    return _run(initial_log_beliefs, net, models, true_index, sharing, horizon, rngs)[0]


def _run(initial_log_beliefs, net, models, true_index, sharing, horizon, rngs,
         keep_observations=False):
    """The one block loop: (R, horizon+1, N, H) log-beliefs of one replica
    per generator, and, when ``keep_observations`` (one generator alone), the
    (horizon, N) observations. One generator steps one (N, H) table, so that
    its pool product stays ``np.dot``; several step an (R, N, H) stack, each
    step's R log-likelihood tables joined from the replicas' blocks."""
    _check_integer("horizon", horizon, 1)
    _network(net)
    init = _numbers("log-beliefs", initial_log_beliefs, float)
    if init.ndim != 2 or init.shape[0] != net.size:
        raise ValidationError(f"log-beliefs of shape {init.shape} are not (N={net.size}, H)")
    check_log_beliefs(init)
    n, h = init.shape
    stacked = len(rngs) > 1
    plan = _plan(sharing, np.broadcast_to(init, (len(rngs), n, h)) if stacked else init, net)
    groups = stack_models(models, n)
    if groups[0].hypothesis_count != h:
        raise ValidationError(
            f"log-beliefs hold {h} hypotheses but the models {groups[0].hypothesis_count}"
        )
    _check_integer("hypothesis index", true_index, 0, h - 1)
    # each group's entries of a step, agent k's being k*H ... k*H + H - 1
    columns = None if len(groups) == 1 else [
        (group.agents[:, None] * h + np.arange(h)).ravel() for group in groups]
    dtype = np.result_type(*(g.dtype for g in groups))
    out = np.empty((len(rngs), horizon + 1, n, h))
    out[:, 0] = init
    rows = out.swapaxes(0, 1) if stacked else out[0]  # (horizon+1, [R,] N, H)
    obs = np.empty((horizon, n), dtype=dtype) if keep_observations else None
    log_b = init
    # a replica's blocks are those of its own run, R of them to a stack's block
    block_steps = min(_BLOCK, max(1, _BLOCK_DOUBLES // (n * h)))
    if horizon * n * h <= _BLOCK_DOUBLES // 4:  # a small run is one block: see _BLOCK
        block_steps = horizon
    for start in range(0, horizon, block_steps):
        steps = min(block_steps, horizon - start)
        kept = obs[start:start + steps] if keep_observations else None
        drawn = [_observe(groups, columns, true_index, n, steps, rng, kept) for rng in rngs]
        loglik = np.stack(drawn, axis=1) if stacked else drawn[0]
        block = rows[start + 1:start + steps + 1]
        with np.errstate(invalid="ignore"):  # a NaN is reported by the block check
            for row, scored in zip(block, loglik):  # obs keeps xi; the step returns it unread
                log_b, _ = run_iteration(
                    log_b, net, models, true_index, plan, rngs[0], observed=(None, scored)
                )
                row[...] = log_b
        try:
            check_log_beliefs(block.reshape(-1, h))
        except NumericalError:
            _raise_first_failure(block, loglik, start, stacked)
            raise
    return out, obs


def _raise_first_failure(block: np.ndarray, loglik: np.ndarray, start: int,
                         stacked: bool) -> None:
    """Raise the error of the first step of a block whose beliefs fail the
    check, named by its iteration, for a stack by the first replica failing
    there, and, if any, by the first agent whose log-likelihood was
    non-finite in that table at that step."""
    if not stacked:
        block, loglik = block[:, None], loglik[:, None]
    for j, (tables, scores) in enumerate(zip(block, loglik)):
        for r, (log_b, scored) in enumerate(zip(tables, scores)):
            try:
                check_log_beliefs(log_b)
            except NumericalError as exc:
                # dense pooling spreads a NaN to every agent: name the one it came from
                bad = np.flatnonzero(~np.isfinite(scored).all(axis=1))
                origin = f"agent {bad[0]} scored a non-finite log-likelihood; " if bad.size else ""
                replica = f"replica {r}, " if stacked else ""
                raise NumericalError(f"{replica}iteration {start + j + 1}: {origin}{exc}") from exc
