"""Combination matrices over strongly connected directed graphs.

Convention (important): the combination matrix A is LEFT-stochastic and
column k holds the incoming weights of agent k, i.e. A[l, k] is the weight
agent k puts on what it hears from agent l, and every column sums to 1.
Transposing this by accident is the classic failure mode; all code in this
package goes through this module so the convention lives in one place.

Adjacency uses the same orientation: adjacency[l, k] is True when l is a
neighbor of k (an edge l -> k, "k listens to l").
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix, csr_array, identity, issparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .errors import (
    ConnectivityError,
    DegenerateDegreeError,
    GraphGenerationError,
    NonConvergenceError,
    ValidationError,
    _check_integer,
    _in_interval,
    _numbers,
    _sums_to_one,
)

PERRON_RESIDUAL_TOL = 1e-10
#: One count decides whether a matrix or a table is large. Its readers:
#: ``_stored``, where A or a builder's graph takes its form: dense below it, CSC from it on.
#: ``perron_vector``, which solves that form: a dense block below it, sparse LU from it on.
#: ``dynamics._plan``, the step's log-sum-exp: a fold below it, the max shift from it on.
SPARSE_SOLVE_MIN_AGENTS = 200


def _square(what: str, matrix, dtype):
    """A scipy.sparse ``matrix`` as it is, or a dense one read by the number
    rule (``errors._numbers``) as ``dtype``; ValidationError naming ``what``
    unless it is 2-D and square. Sparse input is not canonicalized: its stored
    zeros stay stored."""
    matrix = matrix if issparse(matrix) else _numbers(what, matrix, dtype)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{what} must be a square matrix")
    return matrix


def _one_strong_component(indices, indptr) -> bool:
    """Whether the graph held as the index arrays of a CSR, or of a CSC read
    as the CSR of its transpose, whose strong components are the same, has
    one strongly connected component. scipy is handed one float64 CSR array,
    so it converts neither format nor values; the arrays hold each edge once."""
    n = indptr.size - 1
    # csr_matrix would scan the indices to downcast them; csr_array takes them
    graph = csr_array((np.ones(indices.size), indices, indptr), shape=(n, n))
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    return int(n_comp) == 1


def is_strongly_connected(adjacency) -> bool:
    """Whether a directed adjacency, a square matrix dense or sparse
    (``_square``), has one strongly connected component.

    A dense matrix's edges are its nonzeros; a sparse matrix's are its stored
    entries, a stored zero or a duplicate included. The check
    (``_one_strong_component``) reads a dense matrix's nonzeros, or a CSR's
    or a CSC's own index arrays; any other sparse format is converted to CSR
    once. An edge stored twice is summed into one on a copy first.

    A build drops stored zeros instead (``_entries``), so a sparse graph
    joined only by stored zeros passes this check and then raises
    ConnectivityError in ``Network.from_matrix``.
    """
    adjacency = _square("adjacency", adjacency, bool)
    if not issparse(adjacency):
        n = adjacency.shape[0]
        rows, indices = np.divmod(np.flatnonzero(adjacency), n)
        return _one_strong_component(indices, np.searchsorted(rows, np.arange(n + 1)))
    if adjacency.format not in ("csr", "csc"):
        adjacency = adjacency.tocsr()
    if not adjacency.has_canonical_format:
        # scipy miscounts, or never returns, on an edge stored twice
        adjacency = adjacency.copy()
        adjacency.sum_duplicates()
    return _one_strong_component(adjacency.indices, adjacency.indptr)


def _entries(matrix) -> tuple:
    """(rows, values, indptr) of a square matrix's nonzeros, the index, data
    and column-start arrays of its CSC form: column by column, rows
    ascending (``_columns`` gives each entry's column). Every build reads A
    or a graph through it, once.

    A scipy.sparse matrix in any format is copied once into CSC, its
    duplicates summed in its own dtype and its stored zeros dropped, and is
    never made dense: a stored zero, or entries that sum to zero, are no
    nonzero. A dense array, which its callers have read by the number rule
    (``errors._numbers``), is scanned at every size as the boolean mask of
    its transpose, whose row-major order is A's column order.
    """
    n = matrix.shape[0]
    if not issparse(matrix):
        # a flat scan of a boolean mask is far cheaper than np.nonzero on floats
        cols, rows = np.divmod(np.flatnonzero(matrix.T.astype(bool, order="C")), n)
        return rows, matrix[rows, cols], cols.searchsorted(np.arange(n + 1))
    matrix = csc_matrix(matrix, copy=True)
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    return matrix.indices, matrix.data, matrix.indptr


def _columns(indptr) -> np.ndarray:
    """The column of each entry of a CSC matrix whose columns start at ``indptr``."""
    return np.repeat(np.arange(indptr.size - 1), indptr[1:] - indptr[:-1])


def _stored(rows, values, indptr):
    """The square matrix with CSC arrays ``rows`` (ascending within each
    column), ``values`` and ``indptr``, in ``values``' dtype and in the one
    form pbnet keeps a matrix in, a Network's A and a ring, path or star
    builder's graph alike: below SPARSE_SOLVE_MIN_AGENTS agents a dense
    array, from there on a CSC matrix on these arrays as they are, with no
    sort and no N x N array."""
    n = indptr.size - 1
    if n >= SPARSE_SOLVE_MIN_AGENTS:
        return csc_matrix((values, rows, indptr), shape=(n, n))
    out = np.zeros((n, n), values.dtype)
    out[rows, _columns(indptr)] = values
    return out


def perron_vector(matrix) -> np.ndarray:
    """Leading eigenvector v with A v = v, v > 0, sum(v) = 1, by a direct solve.

    Fixing v_N = 1 leaves (I - A)' v' = A[:N-1, N-1], with (I - A)' the
    leading (N-1) x (N-1) block, which is nonsingular when A is irreducible
    (its weighted graph strongly connected). ``matrix`` is square, dense or
    scipy.sparse in any format, a dense one an array or array-like read by
    ``_square`` as floats. Input not already in the form a Network stores A
    in (dense below SPARSE_SOLVE_MIN_AGENTS agents, CSC from there on) is
    read by ``_entries`` and stored by ``_stored`` as floats; the block is
    then solved dense, or by sparse LU on the CSC form, so no N x N array is
    allocated from the cutoff on. A matrix with no agent raises
    ValidationError, and an exactly singular block NonConvergenceError,
    dense or sparse.

    ``Network.from_matrix`` calls it on every build, and so does
    ``build_averaging_matrix`` on a graph that is not balanced; an averaging
    build on a balanced graph takes its closed form instead.
    """
    matrix = _square("combination matrix", matrix, float)
    n = matrix.shape[0]
    if n == 0:
        raise ValidationError("combination matrix has no agent")
    # stored as a Network stores A (``_stored``) unless in that form already
    if getattr(matrix, "format", "dense") != ("csc" if n >= SPARSE_SOLVE_MIN_AGENTS else "dense"):
        rows, values, indptr = _entries(matrix)
        matrix = _stored(rows, values.astype(float, copy=False), indptr)
    m = n - 1
    if issparse(matrix):
        block = identity(m, format="csc") - matrix[:m, :m]
        solve, rhs = spsolve, matrix[:m, [m]].toarray().ravel()
    else:
        solve, block, rhs = np.linalg.solve, np.eye(m) - matrix[:m, :m], matrix[:m, m]
    try:
        with warnings.catch_warnings():  # spsolve warns, and returns NaNs, on a singular block
            warnings.simplefilter("error", MatrixRankWarning)
            head = solve(block, rhs)
    except (np.linalg.LinAlgError, MatrixRankWarning):
        raise NonConvergenceError(f"the leading {m} x {m} block of I - A is singular") from None
    v = np.append(head, 1.0)
    return v / v.sum()


def _self_weights(matrix, perron) -> tuple:
    """(diag(A), v): ``matrix`` is square, dense or scipy.sparse
    (``_square``), its diagonal returned as a contiguous copy, and
    ``perron`` is read by the number rule (``errors._numbers``) as N floats."""
    matrix = _square("combination matrix", matrix, float)
    d = matrix.diagonal().copy()
    perron = _numbers("perron", perron, float)
    if perron.shape != d.shape:
        raise ValidationError(f"perron must hold {d.size} entries, got shape {perron.shape}")
    return d, perron


def _closed_forms(diagonal, perron) -> tuple:
    """(alpha, weight_sum) of a network with self-weights ``diagonal``, a
    contiguous array, and Perron vector ``perron``: (1.0, diagonal @ perron)
    with N >= 2 agents, (0.0, 0.0) with one (see ``alpha_constant`` and
    ``mislearning_weight_sum``). A dense A's diagonal is a strided view,
    whose product can differ in the last bit, hence the contiguous copy."""
    return (1.0, float(diagonal @ perron)) if diagonal.size > 1 else (0.0, 0.0)


def alpha_constant(matrix, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} / (1 - a_{nn}), which is exactly 1.0
    on every network ``Network.from_matrix`` accepts with N >= 2 agents, and
    0.0 for a single agent.

    Swapping the sums gives sum_n ((A v)_n - a_nn v_n) / (1 - a_nn), and
    A v = v makes each term v_n, so the sum is sum(v) = 1. No a_nn is 1 on
    a strongly connected network of N >= 2 agents, since agent n would then
    hear nobody. So alpha depends on neither the weights nor the graph:
    ``matrix`` and ``perron`` are only checked (``_self_weights``) before
    the closed form (``_closed_forms``).
    """
    return _closed_forms(*_self_weights(matrix, perron))[0]


def mislearning_weight_sum(matrix, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} * a_{nn} / (1 - a_{nn}).

    The network-dependent factor of the self-aware mislearning condition
    (it gets multiplied by the likelihood bound). By A v = v it is
    diag(A) @ v on every accepted network with N >= 2 agents (see
    ``alpha_constant``), and 0.0 for a single agent (``_closed_forms``). For
    an averaging-rule matrix with self-weight lam every a_nn is lam, so it is
    lam * sum(v): lam up to the rounding of sum(v).
    """
    return _closed_forms(*_self_weights(matrix, perron))[1]


@dataclass(frozen=True)
class Network:
    """Validated network: combination matrix and derived constants.

    ``weights`` is A in the form it is stored (``_stored``, as floats): a
    dense array below SPARSE_SOLVE_MIN_AGENTS agents, a CSC matrix from
    there on, so that no N x N array is built or kept. Its nonzeros are the
    graph; a declared adjacency is checked against them and not kept.
    ``matrix`` is A's dense, read-only form; from the cutoff on it is built
    on first read and cached, and nothing in pbnet reads it. ``pool`` is A.T
    in the form the step multiplies by, ``pool @ shared``: the dense
    transposed view below the cutoff, from it on CSR with no copy. The
    Perron vector is solved (dense or sparse LU by the same cutoff) or, for
    an averaging network on a balanced graph, taken in closed form
    (``build_averaging_matrix``); either way its residual on ``weights``
    certifies it. ``diagonal`` holds the self-weights a_kk. ``alpha`` is
    exactly 1.0, or 0.0 for a single agent (``alpha_constant``), and
    ``weight_sum`` is diagonal @ perron (``mislearning_weight_sum``); a
    build takes both from the one closed form (``_closed_forms``) on its
    checked diagonal and Perron vector, with no call of either public
    function.

    Immutable after construction; safe to share across concurrent runs.
    """

    weights: object = field(repr=False)  # np.ndarray or scipy.sparse.csc_matrix
    pool: object = field(repr=False)  # np.ndarray or scipy.sparse.csr_matrix
    diagonal: np.ndarray = field(repr=False)
    perron: np.ndarray
    alpha: float
    weight_sum: float

    @property
    def size(self) -> int:
        return int(self.diagonal.shape[0])

    @cached_property
    def matrix(self) -> np.ndarray:
        """A, dense and read-only: ``weights`` itself below the cutoff."""
        if not issparse(self.weights):
            return self.weights
        out = self.weights.toarray()
        out.setflags(write=False)
        return out

    @classmethod
    def from_matrix(cls, matrix, adjacency=None) -> "Network":
        """Validate A and derive its constants. ``matrix`` and ``adjacency``
        are each a square matrix, dense or scipy.sparse (``_square``). A
        given ``adjacency`` only checks that no nonzero weight sits off its
        edges; the graph the network keeps and checks for strong
        connectivity is A's nonzeros. A is read once (``_entries``) and its
        CSC arrays are handed to ``_build``, which stores A as floats
        (``_stored``). The Perron vector is always solved for
        (``perron_vector``); only ``build_averaging_matrix`` on a balanced
        graph proposes it in closed form instead.
        """
        matrix = _square("combination matrix", matrix, float)
        return cls._build(*_entries(matrix), adjacency)

    @classmethod
    def _build(cls, rows, values, indptr, adjacency=None, proposal=None) -> "Network":
        """A Network from A's CSC arrays (``_entries``), with the Perron
        vector ``proposal`` in place of the solve when one is given. Either
        vector must pass the same certificate, max|A v - v| <=
        PERRON_RESIDUAL_TOL and v > 0, or the build raises
        NonConvergenceError: a wrong proposal is never kept.

        A is made once into its stored form, its values as floats
        (``_stored``, see Network). Every other check reads the entries; a
        given adjacency is read by ``_entries`` too, and A is indexed at its
        edges. The strong-connectivity check (``_one_strong_component``)
        takes the rows and ``indptr`` as they are, A's CSC index arrays.
        """
        n = indptr.size - 1
        if (values < 0).any():
            raise ValidationError("combination weights must be nonnegative")
        # each column summed pairwise by reduceat, as np.sum adds: added in
        # sequence, the 10^5 weights of a 10^5-star's hub drift 2e-12 from 1
        filled = indptr[:-1] < indptr[1:]
        sums = np.zeros(n)
        sums[filled] = np.add.reduceat(values, indptr[:-1][filled])
        _sums_to_one("column", sums)
        weights = _stored(rows, values.astype(float, copy=False), indptr)
        if adjacency is not None:
            graph = _square("adjacency", adjacency, bool)
            if graph.shape != (n, n):
                raise ValidationError("adjacency shape does not match the matrix")
            tails, _, starts = _entries(graph)
            # every nonzero weight is on an edge when the edges hold them all
            if np.count_nonzero(weights[tails, _columns(starts)]) < values.size:
                raise ValidationError("nonzero weight on a non-edge")
        if not _one_strong_component(rows, indptr):
            raise ConnectivityError("graph is not strongly connected")
        diagonal = weights.diagonal().copy()
        if not np.any(diagonal > 0):
            raise ValidationError("at least one agent must have a positive self-loop")
        v = perron_vector(weights) if proposal is None else proposal
        residual = np.max(np.abs(weights @ v - v))
        if not residual <= PERRON_RESIDUAL_TOL:
            raise NonConvergenceError(
                f"Perron residual {residual:.3g} exceeds {PERRON_RESIDUAL_TOL:.1g}"
            )
        if np.any(v <= 0):
            raise NonConvergenceError("Perron vector has non-positive entries")
        parts = (weights.data, weights.indices, weights.indptr) if issparse(weights) else (weights,)
        for arr in (diagonal, v, *parts):
            arr.setflags(write=False)
        alpha, weight_sum = _closed_forms(diagonal, v)
        return cls(weights=weights, pool=weights.T, diagonal=diagonal, perron=v,
                   alpha=alpha, weight_sum=weight_sum)

    def describe(self) -> dict:
        """Plain-Python summary of the network and its derived constants."""
        return {
            "agents": self.size,
            "strongly_connected": True,
            "perron": [float(x) for x in self.perron],
            "alpha": float(self.alpha),
            "mislearn_weight_sum": float(self.weight_sum),
        }


def _network(net) -> Network:
    """``net`` if it is a :class:`Network`, else ValidationError."""
    if not isinstance(net, Network):
        raise ValidationError(f"expected a Network, got {type(net).__name__}")
    return net


def build_averaging_matrix(adjacency, self_weight: float) -> Network:
    """Averaging-rule network: a_kk = lam, a_lk = (1-lam)/(n_k - 1).

    n_k is the neighborhood size of agent k including itself. Requires a
    self-loop at every node and at least one other neighbor per node.
    ``adjacency`` is dense or scipy.sparse (``_square``), and its edges are
    read once, by ``_entries``; ``self_weight`` is one number in (0, 1)
    (``errors._in_interval``). Every weight is positive, so A's nonzeros are
    exactly the edges, in the graph's CSC order: the build hands them to
    ``Network._build`` as A's entries, makes no matrix of its own and never
    reads A back. ``_stored`` keeps them dense below SPARSE_SOLVE_MIN_AGENTS
    nodes and as CSC from there on, with no N x N array.

    On a balanced graph, where every node is heard by as many nodes as it
    hears (every undirected graph, a ring, path or star included, and
    balanced digraphs such as a directed cycle), the Perron vector is
    v_k = (n_k - 1) / sum_j (n_j - 1), exact up to one rounding per entry:
    (A v)_l is lam v_l plus, for each of the n_l - 1 other nodes k that hear
    l, a_lk v_k = (1 - lam) / sum_j (n_j - 1). On an undirected graph it is
    the stationary law of the reversible walk. The build proposes that
    vector and certifies it by the residual and sign checks every network
    passes (``Network._build``), with no solve. A graph that is not balanced
    is solved (``perron_vector``), as ``Network.from_matrix`` does.
    """
    graph = _square("adjacency", adjacency, bool)
    lam = _in_interval("self-weight", self_weight, 0, 1)
    n = graph.shape[0]
    rows, _, indptr = _entries(graph)
    cols = _columns(indptr)
    loops = rows == cols
    looped = np.bincount(cols[loops], minlength=n)
    if not looped.all():
        missing = int(np.argmin(looped))
        raise ValidationError(f"averaging rule needs a self-loop at every node; node {missing} has none")
    degrees = np.diff(indptr)  # includes self
    if np.any(degrees == 1):
        lonely = int(np.flatnonzero(degrees == 1)[0])
        raise DegenerateDegreeError(
            f"node {lonely} has no neighbors besides itself; cannot split weight 1-lam"
        )
    weights = ((1.0 - lam) / (degrees - 1))[cols]
    weights[loops] = lam
    # balanced when every node's row count (listeners) equals its column
    # count (degrees): then A v = v at v proportional to degrees - 1
    balanced = np.array_equal(np.bincount(rows, minlength=n), degrees)
    heard = degrees - 1
    return Network._build(rows, weights, indptr, proposal=heard / heard.sum() if balanced else None)


# -- adjacency builders ------------------------------------------------------

def _tridiagonal(n: int) -> np.ndarray:
    """Rows k - 1, k, k + 1 of each column k, column after column, as int32,
    an index type scipy takes as it is. The first row is -1 and the last n,
    which each builder drops or wraps round."""
    return (np.arange(n, dtype=np.int32)[:, None] + np.array([-1, 0, 1], np.int32)).ravel()


def ring_adjacency(n: int):
    """Bidirectional ring with self-loops. Balanced: every node hears and is
    heard by itself and its two neighbours.

    Below SPARSE_SOLVE_MIN_AGENTS nodes a dense bool array, from there on a
    bool CSC matrix with canonical format, built in O(n) (``_stored``)."""
    _check_integer("n", n, 2)
    if n == 2:  # both neighbours of a node are the other node
        return path_adjacency(2)
    rows = _tridiagonal(n)
    # columns 0 and n - 1 wrap round: rows (0, 1, n - 1) and (0, n - 2, n - 1)
    rows[:3] = 0, 1, n - 1
    rows[-3:] = 0, n - 2, n - 1
    return _stored(rows, np.ones(rows.size, bool), np.arange(0, 3 * n + 1, 3, dtype=np.int32))


def path_adjacency(n: int):
    """Path 0 - 1 - ... - (n - 1), linked both ways, with self-loops.
    Balanced, as every undirected graph.

    Below SPARSE_SOLVE_MIN_AGENTS nodes a dense bool array, from there on a
    bool CSC matrix with canonical format, built in O(n) (``_stored``)."""
    _check_integer("n", n, 2)
    # column 0 holds rows (0, 1), column n - 1 rows (n - 2, n - 1)
    indptr = np.maximum(3 * np.arange(n + 1, dtype=np.int32) - 1, 0)
    indptr[-1] -= 1
    return _stored(_tridiagonal(n)[1:-1], np.ones(3 * n - 2, bool), indptr)


def star_adjacency(n: int):
    """Hub node 0 linked both ways with every spoke; self-loops everywhere.
    Balanced, as every undirected graph: each node is heard by as many nodes
    as it hears.

    Below SPARSE_SOLVE_MIN_AGENTS nodes a dense bool array, from there on a
    bool CSC matrix with canonical format, built in O(n) (``_stored``)."""
    _check_integer("n", n, 2)
    # column 0 holds every row, spoke k rows (0, k)
    rows = np.zeros(3 * n - 2, np.int32)
    rows[:n] = np.arange(n)
    rows[n + 1::2] = np.arange(1, n)
    indptr = np.arange(n - 2, 3 * n - 1, 2, dtype=np.int32)
    indptr[0] = 0
    return _stored(rows, np.ones(rows.size, bool), indptr)


GENERATION_MAX_ATTEMPTS = 1000


def generate_strongly_connected_adjacency(
    n: int, edge_probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Random directed graph with all self-loops, resampled until strongly
    connected. Deterministic given the generator state. ``edge_probability``
    is one number in (0, 1] (``errors._in_interval``)."""
    _check_integer("n", n, 1)
    p = _in_interval("edge probability", edge_probability, 0, 1, closed=True)
    for _ in range(GENERATION_MAX_ATTEMPTS):
        adj = rng.random((n, n)) < p
        np.fill_diagonal(adj, True)
        if is_strongly_connected(adj):
            return adj
    raise GraphGenerationError(
        f"no strongly connected graph in {GENERATION_MAX_ATTEMPTS} attempts; "
        "raise edge_probability"
    )
