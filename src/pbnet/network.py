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
)

COLUMN_SUM_TOL = 1e-12
PERRON_RESIDUAL_TOL = 1e-10
#: From this many agents on, a Network keeps A and its graph only as CSC
#: matrices, built and checked in O(nnz) with no N x N array; the Perron solve,
#: the step's pooling and the constants read them (see Network).
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


def _shape(matrix) -> tuple:
    return matrix.shape if issparse(matrix) else np.shape(matrix)


def _csc(matrix, dtype=float):
    """CSC copy of a dense or scipy.sparse matrix with sorted indices and
    no stored zeros, so its stored entries are exactly its nonzeros.

    A dense input is scanned once, row-major, for its nonzeros, which
    convert to CSC in O(nnz). A sparse input has its duplicates summed and
    its explicit zeros dropped, and is never made dense.
    """
    if issparse(matrix):
        out = csc_matrix(matrix, dtype=dtype, copy=True)
        out.sum_duplicates()
        out.eliminate_zeros()
        return out
    m = np.asarray(matrix, dtype=dtype)
    flat = np.flatnonzero(m)
    return csc_matrix((m.ravel()[flat], np.divmod(flat, m.shape[1])), shape=m.shape)


def _columns(matrix) -> np.ndarray:
    """Column index of each stored entry of a CSC matrix, in storage order."""
    return np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))


def perron_vector(matrix) -> np.ndarray:
    """Leading eigenvector v with A v = v, v > 0, sum(v) = 1, by a direct solve.

    Fixing v_N = 1 leaves (I - A)' v' = A[:N-1, N-1], with (I - A)' the
    leading (N-1) x (N-1) block, which is nonsingular when A is irreducible
    (its weighted graph strongly connected). Below SPARSE_SOLVE_MIN_AGENTS
    agents the block is solved dense; from there on by sparse LU on a CSC
    copy of A, so no N x N array is allocated. ``matrix`` is dense, or from
    the cutoff on may be CSC already, as a Network stores it.
    """
    n = matrix.shape[0]
    m = n - 1
    if n < SPARSE_SOLVE_MIN_AGENTS:
        A = np.asarray(matrix, dtype=float)
        head = np.linalg.solve(np.eye(m) - A[:m, :m], A[:m, m])
    else:
        if not issparse(matrix):
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
    sound when nobody listens to it, which is the one check that reads rows
    of A, and only those rows. ``matrix`` is dense or scipy.sparse.
    """
    if not issparse(matrix):
        matrix = np.asarray(matrix, dtype=float)
    d = matrix.diagonal()
    full = np.flatnonzero(d >= 1.0)
    if full.size:
        rows = matrix[full]
        heard = (rows.toarray() if issparse(rows) else rows) != 0.0
        heard[np.arange(full.size), full] = False
        if heard.any():
            l, i = np.argwhere(heard.T)[0]
            raise DivisionDegeneracyError(
                f"agent {full[i]} has full self-weight but agent {l} listens to it"
            )
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


def _dense(matrix):
    """A scipy.sparse matrix as a read-only dense array; anything else as is."""
    if not issparse(matrix):
        return matrix
    out = matrix.toarray()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Network:
    """Validated network: graph, combination matrix, and derived constants.

    ``weights`` is A and ``edges`` its graph, in the form they are stored:
    dense arrays below SPARSE_SOLVE_MIN_AGENTS agents, CSC matrices from
    there on, so that no N x N array is built or kept. ``matrix`` and
    ``adjacency`` are their dense, read-only forms; from the cutoff on they
    are built on first read and cached, and nothing in pbnet reads them.
    ``pool`` is A.T in the form the step multiplies by, ``pool @ shared``:
    the dense transposed view below the cutoff, from it on CSR with no copy.
    The strong-connectivity check, the Perron solve (dense or sparse LU by
    the same cutoff) and its residual all read ``weights``. ``diagonal``
    holds the self-weights a_kk; ``alpha`` and ``weight_sum`` are closed
    forms in it and ``perron``.

    Immutable after construction; safe to share across concurrent runs.
    """

    weights: object = field(repr=False)  # np.ndarray or scipy.sparse.csc_matrix
    edges: object = field(repr=False)  # bool, in the form of ``weights``
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
        """A, dense and read-only."""
        return _dense(self.weights)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The graph, dense, boolean and read-only."""
        return _dense(self.edges)

    @classmethod
    def from_matrix(cls, matrix, adjacency=None) -> "Network":
        """Validate A and derive its constants. ``matrix`` and ``adjacency``
        may each be dense or scipy.sparse; ``adjacency`` defaults to the
        pattern of A's nonzeros.

        From SPARSE_SOLVE_MIN_AGENTS agents on, A is read once into a CSC
        copy with no stored zeros (``_csc``) and every check runs on its
        stored entries, in O(nnz); a stored zero is no edge. Below the cutoff
        A is copied dense and checked as an array.
        """
        shape = _shape(matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValidationError("combination matrix must be square")
        sparse = shape[0] >= SPARSE_SOLVE_MIN_AGENTS
        if sparse:
            weights = _csc(matrix)
            values = weights.data
            colsums = np.bincount(_columns(weights), values, minlength=shape[1])
        else:
            weights = values = np.array(_dense(matrix), dtype=float)
            colsums = weights.sum(axis=0)
        if np.any(values < 0):
            raise ValidationError("combination weights must be nonnegative")
        bad = np.flatnonzero(~(np.abs(colsums - 1.0) <= COLUMN_SUM_TOL))
        if bad.size:
            raise ValidationError(
                f"column {bad[0]} sums to {colsums[bad[0]]:.12g}; columns must sum to 1"
            )
        if adjacency is None:
            edges = weights > 0
        else:
            if _shape(adjacency) != shape:
                raise ValidationError("adjacency shape does not match the matrix")
            if sparse:
                edges = _csc(adjacency, bool)
                off_edge = ~edges[weights.indices, _columns(weights)]
            else:
                edges = np.array(_dense(adjacency), dtype=bool)
                off_edge = (weights > 0) & ~edges
            if np.any(off_edge):
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
        stored = [diagonal, v]
        for m in (weights, edges):
            stored += (m.data, m.indices, m.indptr) if sparse else (m,)
        for arr in stored:
            arr.setflags(write=False)
        return cls(
            weights=weights,
            edges=edges,
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
    ``adjacency`` is dense or scipy.sparse. Its edges are read once: by one
    row-major scan of a dense array, or from the stored pattern of a sparse
    one. Below SPARSE_SOLVE_MIN_AGENTS nodes the weights fill a dense A; from
    there on they go straight into CSC, and no N x N array is made.
    """
    shape = _shape(adjacency)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    lam = float(self_weight)
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"self-weight must lie in (0, 1), got {lam}")
    n = shape[0]
    if issparse(adjacency):
        pattern = _csc(adjacency, bool)
        rows, cols = pattern.indices, _columns(pattern)
    else:
        rows, cols = np.divmod(np.flatnonzero(np.asarray(adjacency, dtype=bool)), n)
    loops = rows == cols
    looped = np.zeros(n, dtype=bool)
    looped[cols[loops]] = True
    if not np.all(looped):
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
    # every weight is positive, so A's nonzeros are the adjacency: from_matrix derives it
    if n < SPARSE_SOLVE_MIN_AGENTS:
        A = np.zeros((n, n))
        A[rows, cols] = weights
    else:
        A = csc_matrix((weights, (rows, cols)), shape=shape)
    return Network.from_matrix(A)


# -- adjacency builders ------------------------------------------------------

def ring_adjacency(n: int) -> np.ndarray:
    """Bidirectional ring with self-loops."""
    if n < 2:
        raise ValidationError("ring preset needs at least 2 nodes")
    adj = np.eye(n, dtype=bool)
    k = np.arange(n)
    adj[k, (k + 1) % n] = True
    adj[(k + 1) % n, k] = True
    return adj


def complete_adjacency(n: int) -> np.ndarray:
    if n < 2:
        raise ValidationError("complete preset needs at least 2 nodes")
    return np.ones((n, n), dtype=bool)


def star_adjacency(n: int) -> np.ndarray:
    """Hub node 0 linked both ways with every spoke; self-loops everywhere."""
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
