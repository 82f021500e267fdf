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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, identity, issparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .errors import (
    ConnectivityError,
    DegenerateDegreeError,
    DivisionDegeneracyError,
    GraphGenerationError,
    NonConvergenceError,
    ValidationError,
    _check_integer,
)

COLUMN_SUM_TOL = 1e-12
PERRON_RESIDUAL_TOL = 1e-10
#: From this many agents on, a Network keeps A only as a CSC matrix, built and
#: checked in O(nnz) with no N x N array, and the Perron system is solved by
#: sparse LU; the step's pooling and the constants read that form (see Network).
SPARSE_SOLVE_MIN_AGENTS = 200


def is_strongly_connected(adjacency) -> bool:
    """Whether a directed 0/1 adjacency, dense, or sparse with one stored
    entry per edge, has one strongly connected component."""
    if not issparse(adjacency):
        adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    n_comp, _ = connected_components(
        csr_matrix(adjacency), directed=True, connection="strong"
    )
    return int(n_comp) == 1


def _entries(matrix) -> tuple:
    """(rows, cols, values) of a matrix's nonzeros: a dense array's in
    row-major order, or a CSC matrix's stored entries in storage order, which
    ``_csc`` makes exactly its nonzeros. Every check on A or on a graph reads
    them, at every size."""
    if issparse(matrix):
        cols = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
        return matrix.indices, cols, matrix.data
    # a flat scan of a boolean mask is far cheaper than np.nonzero on floats
    flat = np.flatnonzero(matrix.astype(bool, copy=False))
    return (*np.divmod(flat, matrix.shape[1]), matrix.ravel()[flat])


def _csc(matrix, dtype=float):
    """CSC copy of a dense or scipy.sparse matrix with sorted indices and
    no stored zeros, so its stored entries are exactly its nonzeros.

    A dense input converts from its nonzeros (``_entries``) in O(nnz). A
    sparse input has its duplicates summed and its explicit zeros dropped,
    and is never made dense.
    """
    if not issparse(matrix):
        rows, cols, values = _entries(np.asarray(matrix, dtype=dtype))
        return csc_matrix((values, (rows, cols)), shape=np.shape(matrix))
    out = csc_matrix(matrix, dtype=dtype, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _graph(adjacency):
    """A dense or scipy.sparse adjacency as a boolean array or a ``_csc``
    copy, which ``_entries`` reads and which index alike: a nonzero entry is
    an edge, a stored zero is none."""
    return _csc(adjacency, bool) if issparse(adjacency) else np.asarray(adjacency, dtype=bool)


def perron_vector(matrix) -> np.ndarray:
    """Leading eigenvector v with A v = v, v > 0, sum(v) = 1, by a direct solve.

    Fixing v_N = 1 leaves (I - A)' v' = A[:N-1, N-1], with (I - A)' the
    leading (N-1) x (N-1) block, which is nonsingular when A is irreducible
    (its weighted graph strongly connected). Below SPARSE_SOLVE_MIN_AGENTS
    agents the block is solved dense; from there on by sparse LU on a CSC
    copy of A, so no N x N array is allocated. ``matrix`` is dense or
    scipy.sparse in any format; from the cutoff on, input that is not CSC
    already, as a Network stores it, is read through ``_csc``, and below it
    sparse input is read densely.
    """
    n = matrix.shape[0]
    m = n - 1
    if n < SPARSE_SOLVE_MIN_AGENTS:
        A = np.asarray(matrix.toarray() if issparse(matrix) else matrix, dtype=float)
        head = np.linalg.solve(np.eye(m) - A[:m, :m], A[:m, m])
    else:
        if not issparse(matrix) or matrix.format != "csc":
            matrix = _csc(matrix)
        block = identity(m, format="csc") - matrix[:m, :m]
        head = spsolve(block, matrix[:m, [m]].toarray().ravel())
    v = np.append(head, 1.0)
    return v / v.sum()


def _listener_sum(matrix, perron: np.ndarray, self_weighted: bool) -> float:
    """sum_l v_l * sum_{m != l} a_ml * w_m, where w_m = 1 / (1 - a_mm), times
    a_mm when ``self_weighted``.

    Swapping the sums gives sum_m w_m * ((A v)_m - a_mm v_m), and A v = v
    turns the bracket into (1 - a_mm) v_m, which w_m cancels: the sum is
    sum_{m : a_mm < 1} v_m, each term times a_mm when ``self_weighted``. So no
    product with A is needed. An agent with a_mm >= 1 drops out; that is only
    sound when nobody listens to it, which is the one check that reads A's
    entries (``_entries``); a matrix with no such agent is never scanned.
    ``matrix`` is dense or scipy.sparse. The error names the lowest listener,
    then the lowest agent it hears with full self-weight.
    """
    d = (matrix if issparse(matrix) else np.asarray(matrix, dtype=float)).diagonal()
    full = d >= 1.0
    if full.any():
        rows, cols, _ = _entries(_csc(matrix))  # column by column, rows ascending
        heard = np.flatnonzero(full[rows] & (rows != cols))
        if heard.size:
            m, l = rows[heard[0]], cols[heard[0]]
            raise DivisionDegeneracyError(f"agent {m} has full self-weight but agent {l} listens to it")
    w = np.where(d < 1.0, d if self_weighted else 1.0, 0.0)
    return float(w @ perron)


def alpha_constant(matrix, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} / (1 - a_{nn}).

    By A v = v this is sum_{n : a_nn < 1} v_n (see ``_listener_sum``). A
    strongly connected network of N >= 2 agents has no a_nn = 1, since
    agent n would then hear nobody; so alpha is sum(v) = 1 for every network
    ``Network.from_matrix`` accepts with N >= 2, whatever its weights, and 0
    for a single agent. As defined here it does not depend on the graph.
    """
    return _listener_sum(matrix, perron, self_weighted=False)


def mislearning_weight_sum(matrix, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} * a_{nn} / (1 - a_{nn}).

    The network-dependent factor of the self-aware mislearning condition
    (it gets multiplied by the likelihood bound). By A v = v it is
    sum_{n : a_nn < 1} a_nn v_n, which is diag(A) @ v for every accepted
    network with N >= 2 (see ``alpha_constant``). For an averaging-rule
    matrix with self-weight lam every a_nn is lam, so it is exactly lam.
    """
    return _listener_sum(matrix, perron, self_weighted=True)


@dataclass(frozen=True)
class Network:
    """Validated network: combination matrix and derived constants.

    ``weights`` is A in the form it is stored: a dense array below
    SPARSE_SOLVE_MIN_AGENTS agents, a CSC matrix from there on, so that no
    N x N array is built or kept. Its nonzeros are the graph; a declared
    adjacency is checked against them and not kept. ``matrix`` is A's dense,
    read-only form; from the cutoff on it is built on first read and cached,
    and nothing in pbnet reads it. ``pool`` is A.T in the form the step
    multiplies by, ``pool @ shared``: the dense transposed view below the
    cutoff, from it on CSR with no copy. The strong-connectivity check, the
    Perron solve (dense or sparse LU by the same cutoff) and its residual all
    read ``weights``. ``diagonal`` holds the self-weights a_kk; ``alpha`` and
    ``weight_sum`` are closed forms in it and ``perron``.

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
        may each be dense or scipy.sparse. A given ``adjacency`` only checks
        that no nonzero weight sits off its edges; the graph the network
        keeps and checks for strong connectivity is A's nonzeros.

        A is copied once into its stored form (see Network), a CSC copy with
        no stored zeros (``_csc``) from SPARSE_SOLVE_MIN_AGENTS agents on.
        Every check reads A's nonzeros by ``_entries`` (O(nnz) from the cutoff
        on), and a given adjacency is indexed at them; a stored zero is no edge.
        """
        shape = np.shape(matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValidationError("combination matrix must be square")
        n = shape[0]
        if n >= SPARSE_SOLVE_MIN_AGENTS:
            weights = _csc(matrix)
        else:  # a float copy, which nothing else holds
            weights = np.array(matrix.toarray() if issparse(matrix) else matrix, dtype=float)
        rows, cols, values = _entries(weights)
        if (values < 0).any():
            raise ValidationError("combination weights must be nonnegative")
        # per column in row order, as sum(axis=0) adds a dense A: the same sums
        colsums = np.bincount(cols, values, minlength=n)
        bad = np.flatnonzero(~(np.abs(colsums - 1.0) <= COLUMN_SUM_TOL))
        if bad.size:
            raise ValidationError(
                f"column {bad[0]} sums to {colsums[bad[0]]:.12g}; columns must sum to 1"
            )
        if adjacency is not None:
            if np.shape(adjacency) != shape:
                raise ValidationError("adjacency shape does not match the matrix")
            if not np.all(_graph(adjacency)[rows, cols]):
                raise ValidationError("nonzero weight on a non-edge")
        if not is_strongly_connected(weights):
            raise ConnectivityError("graph is not strongly connected")
        diagonal = weights.diagonal().copy()
        if not np.any(diagonal > 0):
            raise ValidationError("at least one agent must have a positive self-loop")
        v = perron_vector(weights)
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
        return cls(
            weights=weights,
            pool=weights.T,
            diagonal=diagonal,
            perron=v,
            alpha=alpha_constant(weights, v),
            weight_sum=mislearning_weight_sum(weights, v),
        )

    def describe(self) -> dict:
        """Plain-Python summary of the network and its derived constants."""
        return {
            "agents": self.size,
            "strongly_connected": True,
            "perron": [float(x) for x in self.perron],
            "alpha": float(self.alpha),
            "mislearn_weight_sum": float(self.weight_sum),
        }


def build_averaging_matrix(adjacency, self_weight: float) -> Network:
    """Averaging-rule network: a_kk = lam, a_lk = (1-lam)/(n_k - 1).

    n_k is the neighborhood size of agent k including itself. Requires a
    self-loop at every node and at least one other neighbor per node.
    ``adjacency`` is dense or scipy.sparse; its edges are read once, by
    ``_entries``. Every weight is positive, so A's nonzeros are exactly the
    edges. Below SPARSE_SOLVE_MIN_AGENTS nodes the weights fill a dense A;
    from there on they go straight into CSC, and no N x N array is made.
    """
    shape = np.shape(adjacency)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    lam = float(self_weight)
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"self-weight must lie in (0, 1), got {lam}")
    n = shape[0]
    rows, cols, _ = _entries(_graph(adjacency))
    loops = rows == cols
    looped = np.bincount(cols[loops], minlength=n)
    if not looped.all():
        missing = int(np.argmin(looped))
        raise ValidationError(f"averaging rule needs a self-loop at every node; node {missing} has none")
    degrees = np.bincount(cols, minlength=n)  # includes self
    if np.any(degrees == 1):
        lonely = int(np.flatnonzero(degrees == 1)[0])
        raise DegenerateDegreeError(
            f"node {lonely} has no neighbors besides itself; cannot split weight 1-lam"
        )
    weights = ((1.0 - lam) / (degrees - 1))[cols]
    weights[loops] = lam
    if n < SPARSE_SOLVE_MIN_AGENTS:
        A = np.zeros((n, n))
        A[rows, cols] = weights
    else:
        A = csc_matrix((weights, (rows, cols)), shape=shape)
    return Network.from_matrix(A)


# -- adjacency builders ------------------------------------------------------

def ring_adjacency(n: int) -> np.ndarray:
    """Bidirectional ring with self-loops."""
    _check_integer("n", n)
    if n < 2:
        raise ValidationError("ring preset needs at least 2 nodes")
    adj = np.eye(n, dtype=bool)
    k = np.arange(n)
    adj[k, (k + 1) % n] = True
    adj[(k + 1) % n, k] = True
    return adj


def star_adjacency(n: int) -> np.ndarray:
    """Hub node 0 linked both ways with every spoke; self-loops everywhere."""
    _check_integer("n", n)
    if n < 2:
        raise ValidationError("star preset needs at least 2 nodes")
    adj = np.eye(n, dtype=bool)
    adj[0, :] = True
    adj[:, 0] = True
    return adj


GENERATION_MAX_ATTEMPTS = 1000


def generate_strongly_connected_adjacency(
    n: int, edge_probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Random directed graph with all self-loops, resampled until strongly
    connected. Deterministic given the generator state."""
    _check_integer("n", n)
    if n < 1:
        raise ValidationError("need at least one node")
    p = float(edge_probability)
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"edge probability must lie in (0, 1], got {p}")
    for _ in range(GENERATION_MAX_ATTEMPTS):
        adj = rng.random((n, n)) < p
        np.fill_diagonal(adj, True)
        if is_strongly_connected(adj):
            return adj
    raise GraphGenerationError(
        f"no strongly connected graph in {GENERATION_MAX_ATTEMPTS} attempts; "
        "raise edge_probability"
    )
