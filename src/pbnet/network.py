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
from scipy.sparse import csc_matrix, csr_matrix, identity
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
SPARSE_SOLVE_MIN_AGENTS = 200


def strongly_connected_component_count(adjacency: np.ndarray) -> int:
    """Number of strongly connected components of a directed 0/1 adjacency."""
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValidationError("adjacency must be a square matrix")
    n_comp, _ = connected_components(
        csr_matrix(adj), directed=True, connection="strong"
    )
    return int(n_comp)


def is_strongly_connected(adjacency: np.ndarray) -> bool:
    return strongly_connected_component_count(adjacency) == 1


def perron_vector(matrix: np.ndarray) -> np.ndarray:
    """Leading eigenvector v with A v = v, v > 0, sum(v) = 1, by a direct solve.

    Fixing v_N = 1 leaves (I - A)' v' = A[:N-1, N-1], with (I - A)' the
    leading (N-1) x (N-1) block, which is nonsingular when A is irreducible
    (its weighted graph strongly connected). Below SPARSE_SOLVE_MIN_AGENTS
    agents the block is solved dense; from there on by sparse LU on the
    nonzeros of A, so no further N x N array is allocated.
    """
    A = np.asarray(matrix, dtype=float)
    m = A.shape[0] - 1
    if A.shape[0] < SPARSE_SOLVE_MIN_AGENTS:
        head = np.linalg.solve(np.eye(m) - A[:m, :m], A[:m, m])
    else:
        rows, cols = np.nonzero(A[:m, :m])
        block = identity(m, format="csc") - csc_matrix(
            (A[rows, cols], (rows, cols)), shape=(m, m)
        )
        head = spsolve(block, A[:m, m])
    v = np.append(head, 1.0)
    return v / v.sum()


def _listener_sum(matrix: np.ndarray, perron: np.ndarray, self_weighted: bool) -> float:
    """sum_l v_l * sum_{m != l} a_ml * w_m, where w_m = 1 / (1 - a_mm), times
    a_mm when ``self_weighted``.

    Swapping the sums gives sum_m w_m * ((A v)_m - a_mm v_m). An agent with
    a_mm >= 1 has w_m masked to 0; that is only sound when nobody listens to it.
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
    w = np.divide(1.0, 1.0 - d, out=np.zeros_like(d), where=d < 1.0)
    if self_weighted:
        w *= d
    return float(w @ (A @ perron - d * perron))


def alpha_constant(matrix: np.ndarray, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} / (1 - a_{nn}).

    Equals 1 for every averaging-rule matrix regardless of the self-weight
    parameter; see the property tests.
    """
    return _listener_sum(matrix, perron, self_weighted=False)


def mislearning_weight_sum(matrix: np.ndarray, perron: np.ndarray) -> float:
    """sum_l v_l * sum_{n != l} a_{nl} * a_{nn} / (1 - a_{nn}).

    The network-dependent factor of the self-aware mislearning condition
    (it gets multiplied by the likelihood bound). For an averaging-rule
    matrix with self-weight lam this collapses to exactly lam.
    """
    return _listener_sum(matrix, perron, self_weighted=True)


@dataclass(frozen=True)
class Network:
    """Validated network: graph, combination matrix, and derived constants.

    Immutable after construction; safe to share across concurrent runs.
    """

    adjacency: np.ndarray
    matrix: np.ndarray
    perron: np.ndarray
    alpha: float
    weight_sum: float
    self_weight: float | None = field(default=None)  # averaging-rule lambda, if built that way

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    @classmethod
    def from_matrix(cls, matrix, adjacency=None, self_weight=None) -> "Network":
        A = np.array(matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError("combination matrix must be square")
        if np.any(A < 0):
            raise ValidationError("combination weights must be nonnegative")
        colsums = A.sum(axis=0)
        bad = np.where(np.abs(colsums - 1.0) > COLUMN_SUM_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"column {bad[0]} sums to {colsums[bad[0]]:.12g}; columns must sum to 1"
            )
        if adjacency is None:
            adj = A > 0
        else:
            adj = np.array(adjacency, dtype=bool)
            if adj.shape != A.shape:
                raise ValidationError("adjacency shape does not match the matrix")
            if np.any((A > 0) & ~adj):
                raise ValidationError("nonzero weight on a non-edge")
        if not is_strongly_connected(A > 0):
            raise ConnectivityError("graph is not strongly connected")
        if not np.any(np.diag(A) > 0):
            raise ValidationError("at least one agent must have a positive self-loop")
        v = perron_vector(A)
        residual = np.max(np.abs(A @ v - v))
        if not residual <= PERRON_RESIDUAL_TOL:
            raise NonConvergenceError(
                f"Perron residual {residual:.3g} exceeds {PERRON_RESIDUAL_TOL:.1g}"
            )
        if np.any(v <= 0):
            raise NonConvergenceError("Perron vector has non-positive entries")
        A.setflags(write=False)
        adj.setflags(write=False)
        v.setflags(write=False)
        return cls(
            adjacency=adj,
            matrix=A,
            perron=v,
            alpha=alpha_constant(A, v),
            weight_sum=mislearning_weight_sum(A, v),
            self_weight=self_weight,
        )

    def describe(self) -> dict:
        """Plain-Python summary of the network and its derived constants."""
        return {
            "agents": self.size,
            "strongly_connected": True,
            "self_weight": self.self_weight,
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
    n = adj.shape[0]
    if not np.all(np.diag(adj)):
        missing = int(np.where(~np.diag(adj))[0][0])
        raise ValidationError(f"averaging rule needs a self-loop at every node; node {missing} has none")
    degrees = adj.sum(axis=0)  # includes self
    if np.any(degrees == 1):
        lonely = int(np.where(degrees == 1)[0][0])
        raise DegenerateDegreeError(
            f"node {lonely} has no neighbors besides itself; cannot split weight 1-lam"
        )
    A = np.zeros((n, n))
    for k in range(n):
        share = (1.0 - lam) / (degrees[k] - 1)
        A[adj[:, k], k] = share
        A[k, k] = lam
    return Network.from_matrix(A, adjacency=adj, self_weight=lam)


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


PRESETS = {
    "ring": ring_adjacency,
    "complete": complete_adjacency,
    "star": star_adjacency,
}

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
