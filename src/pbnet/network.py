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

import numpy as np
from scipy.sparse import csr_matrix, identity, issparse
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
#: From this many agents on, A is also kept sparse: the Perron solve and the
#: step's pooling read one CSC copy of it (see Network).
SPARSE_SOLVE_MIN_AGENTS = 200


def strongly_connected_component_count(adjacency) -> int:
    """Number of strongly connected components of a directed 0/1 adjacency,
    dense, or sparse with one stored entry per edge."""
    if not issparse(adjacency):
        adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    n_comp, _ = connected_components(
        csr_matrix(adjacency), directed=True, connection="strong"
    )
    return int(n_comp)


def is_strongly_connected(adjacency) -> bool:
    return strongly_connected_component_count(adjacency) == 1


def _sparse_copy(matrix: np.ndarray, nonzero: np.ndarray):
    """CSC copy of a dense matrix, given the boolean mask of its nonzeros.

    One row-major scan of the mask finds the entries; the CSR matrix they
    form converts to CSC in O(nnz).
    """
    n_rows, n_cols = matrix.shape
    flat = np.flatnonzero(nonzero)
    rows, cols = np.divmod(flat, n_cols)
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    return csr_matrix((matrix.ravel()[flat], cols, indptr), shape=matrix.shape).tocsc()


def perron_vector(matrix) -> np.ndarray:
    """Leading eigenvector v with A v = v, v > 0, sum(v) = 1, by a direct solve.

    Fixing v_N = 1 leaves (I - A)' v' = A[:N-1, N-1], with (I - A)' the
    leading (N-1) x (N-1) block, which is nonsingular when A is irreducible
    (its weighted graph strongly connected). Below SPARSE_SOLVE_MIN_AGENTS
    agents the block is solved dense; from there on by sparse LU on a CSC
    copy of A, so no further N x N array is allocated. ``matrix`` is dense,
    or from the cutoff on may be that CSC copy already.
    """
    n = matrix.shape[0]
    m = n - 1
    if n < SPARSE_SOLVE_MIN_AGENTS:
        A = np.asarray(matrix, dtype=float)
        head = np.linalg.solve(np.eye(m) - A[:m, :m], A[:m, m])
    else:
        if not issparse(matrix):
            A = np.asarray(matrix, dtype=float)
            matrix = _sparse_copy(A, A != 0)
        block = identity(m, format="csc") - matrix[:m, :m]
        head = spsolve(block, matrix[:m, [m]].toarray().ravel())
    v = np.append(head, 1.0)
    return v / v.sum()


def _listener_sum(matrix: np.ndarray, perron: np.ndarray, self_weighted: bool) -> float:
    """sum_l v_l * sum_{m != l} a_ml * w_m, where w_m = 1 / (1 - a_mm), times
    a_mm when ``self_weighted``.

    Swapping the sums gives sum_m w_m * ((A v)_m - a_mm v_m), and A v = v
    turns the bracket into (1 - a_mm) v_m, which w_m cancels: the sum is
    sum_{m : a_mm < 1} v_m, each term times a_mm when ``self_weighted``. So no
    product with A is needed. An agent with a_mm >= 1 drops out; that is only
    sound when nobody listens to it.
    """
    A = np.asarray(matrix, dtype=float)
    d = np.diag(A)
    full = np.flatnonzero(d >= 1.0)
    heard = A[full] != 0.0
    heard[np.arange(full.size), full] = False
    if heard.any():
        l, i = np.argwhere(heard.T)[0]
        raise DivisionDegeneracyError(
            f"agent {full[i]} has full self-weight but agent {l} listens to it"
        )
    w = np.where(d < 1.0, d if self_weighted else 1.0, 0.0)
    return float(w @ perron)


def alpha_constant(matrix: np.ndarray, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} / (1 - a_{nn}).

    By A v = v this is sum_{n : a_nn < 1} v_n (see ``_listener_sum``). A
    strongly connected network of N >= 2 agents has no a_nn = 1, since
    agent n would then hear nobody; so alpha is sum(v) = 1 for every network
    ``Network.from_matrix`` accepts with N >= 2, whatever its weights, and 0
    for a single agent. As defined here it does not depend on the graph.
    """
    return _listener_sum(matrix, perron, self_weighted=False)


def mislearning_weight_sum(matrix: np.ndarray, perron: np.ndarray) -> float:
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
    """Validated network: graph, combination matrix, and derived constants.

    ``matrix`` is A, dense. ``pool`` is A.T in the form the step multiplies
    by, ``pool @ shared``: below SPARSE_SOLVE_MIN_AGENTS agents the dense
    transposed view of ``matrix``, from there on CSR. The same cutoff picks
    the Perron solve: from it on, ``from_matrix`` scans A for its nonzeros
    once into a CSC copy that the strong-connectivity check, the sparse LU
    solve and the Perron residual read, and ``pool`` is that copy transposed,
    which is CSR with no further copy. ``diagonal`` holds the self-weights
    a_kk; ``alpha`` and ``weight_sum`` are closed forms in it and ``perron``.

    Immutable after construction; safe to share across concurrent runs.
    """

    adjacency: np.ndarray
    matrix: np.ndarray
    pool: object = field(repr=False)  # np.ndarray or scipy.sparse.csr_matrix
    diagonal: np.ndarray = field(repr=False)
    perron: np.ndarray
    alpha: float
    weight_sum: float

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    @classmethod
    def from_matrix(cls, matrix, adjacency=None) -> "Network":
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError("combination matrix must be square")
        if np.any(A < 0):
            raise ValidationError("combination weights must be nonnegative")
        colsums = A.sum(axis=0)
        bad = np.where(~(np.abs(colsums - 1.0) <= COLUMN_SUM_TOL))[0]
        if bad.size:
            raise ValidationError(
                f"column {bad[0]} sums to {colsums[bad[0]]:.12g}; columns must sum to 1"
            )
        positive = A > 0
        if adjacency is None:
            adj = positive
        else:
            adj = np.array(adjacency, dtype=bool)
            if adj.shape != A.shape:
                raise ValidationError("adjacency shape does not match the matrix")
            if np.any(positive & ~adj):
                raise ValidationError("nonzero weight on a non-edge")
        # Below the cutoff everything reads the dense A; from it on, one sparse
        # copy serves the connectivity check, the solve, its residual and the step.
        weights = A if A.shape[0] < SPARSE_SOLVE_MIN_AGENTS else _sparse_copy(A, positive)
        if not is_strongly_connected(weights):
            raise ConnectivityError("graph is not strongly connected")
        diagonal = np.diag(A).copy()
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
        stored = (A, adj, diagonal, v)
        if weights is not A:
            stored += (weights.data, weights.indices, weights.indptr)
        for arr in stored:
            arr.setflags(write=False)
        return cls(
            adjacency=adj,
            matrix=A,
            pool=weights.T,
            diagonal=diagonal,
            perron=v,
            alpha=alpha_constant(A, v),
            weight_sum=mislearning_weight_sum(A, v),
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


def build_averaging_matrix(adjacency: np.ndarray, self_weight: float) -> Network:
    """Averaging-rule network: a_kk = lam, a_lk = (1-lam)/(n_k - 1).

    n_k is the neighborhood size of agent k including itself. Requires a
    self-loop at every node and at least one other neighbor per node.
    """
    adj = np.array(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    lam = float(self_weight)
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"self-weight must lie in (0, 1), got {lam}")
    if not np.all(np.diag(adj)):
        missing = int(np.where(~np.diag(adj))[0][0])
        raise ValidationError(f"averaging rule needs a self-loop at every node; node {missing} has none")
    degrees = adj.sum(axis=0)  # includes self
    if np.any(degrees == 1):
        lonely = int(np.where(degrees == 1)[0][0])
        raise DegenerateDegreeError(
            f"node {lonely} has no neighbors besides itself; cannot split weight 1-lam"
        )
    # through the mask, not np.where: only the pages holding edges get written
    A = np.zeros(adj.shape)
    A[adj] = ((1.0 - lam) / (degrees - 1))[np.nonzero(adj)[1]]
    np.fill_diagonal(A, lam)
    # every weight is positive, so A > 0 is the adjacency: from_matrix derives it
    return Network.from_matrix(A)


# -- adjacency builders ------------------------------------------------------

def ring_adjacency(n: int) -> np.ndarray:
    """Bidirectional ring with self-loops."""
    if n < 2:
        raise ValidationError("ring preset needs at least 2 nodes")
    adj = np.eye(n, dtype=bool)
    for k in range(n):
        adj[(k - 1) % n, k] = True
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
