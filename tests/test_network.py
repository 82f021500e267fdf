import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix, identity, issparse, lil_matrix

from pbnet import network
from pbnet.dynamics import Sharing, SelfAwarePartialSharing, run_trajectory, uniform_log_beliefs
from pbnet.errors import (
    ConnectivityError,
    DegenerateDegreeError,
    GraphGenerationError,
    NonConvergenceError,
    ValidationError,
)
from pbnet.likelihoods import DiscreteFamily
from pbnet.network import (
    Network,
    alpha_constant,
    build_averaging_matrix,
    generate_strongly_connected_adjacency,
    is_strongly_connected,
    mislearning_weight_sum,
    perron_vector,
    ring_adjacency,
    star_adjacency,
)

# Hand-solved 2x2 example: (A - I)v = 0 with 1^T v = 1 gives v = (0.6, 0.4);
# alpha = 0.6*(0.2/0.3) + 0.4*(0.3/0.2) = 1, weight sum = 0.6*(0.2*0.7/0.3)
# + 0.4*(0.3*0.8/0.2) = 0.76.
A_2X2 = np.array([[0.8, 0.3], [0.2, 0.7]])


def random_connected_adjacency(rng, n):
    return generate_strongly_connected_adjacency(n, 0.4, rng)


def as_dense(adj):
    """A builder's output as a dense array: CSC from SPARSE_SOLVE_MIN_AGENTS on."""
    return adj.toarray() if issparse(adj) else adj


def path_adjacency(n):
    adj = np.eye(n, dtype=bool)
    i = np.arange(n - 1)
    adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def directed_cycle_adjacency(n):
    """A directed cycle 0 -> 1 -> ... -> n-1 -> 0 with self-loops: balanced,
    not symmetric."""
    adj = np.eye(n, dtype=bool)
    k = np.arange(n)
    adj[k, (k + 1) % n] = True
    return adj


def two_cycles_adjacency(n):
    """Two directed cycles with self-loops that share node 0, one through
    nodes 1 .. n//2 - 1 and one through n//2 .. n-1: balanced, not symmetric,
    node 0 hears and is heard by three nodes and every other node by two."""
    adj = np.eye(n, dtype=bool)
    for cycle in (np.arange(n // 2), np.r_[0, n // 2:n]):
        adj[cycle, np.roll(cycle, -1)] = True
    return adj


def high_precision_averaging_perron(adj, lam) -> np.ndarray:
    """The averaging rule's Perron vector on the graph ``adj``, solved at 30
    digits. A is built from the graph, each weight (1 - lam)/(n_k - 1) at 30
    digits, so the rounding of a float A does not enter. (A - I) v = 0 with
    its last equation replaced by sum(v) = 1, as in
    ``test_matches_high_precision_solve``, is solved by Gaussian elimination
    over the nonzeros: pivots in order of fewest entries, the sum last, so
    that a ring, a path or a star fills in O(N) entries."""
    n = len(adj)
    tails, heads = np.nonzero(adj)  # A[tail, head] is head's weight on tail
    degrees = np.bincount(heads, minlength=n)
    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        rows = [{} for _ in range(n)]
        for l, k in zip(tails.tolist(), heads.tolist()):
            rows[l][k] = lam - 1 if l == k else (1 - lam) / int(degrees[k] - 1)
        rows[-1] = dict.fromkeys(range(n), mpmath.mpf(1))
        rhs = [mpmath.mpf(0)] * (n - 1) + [mpmath.mpf(1)]
        order = sorted(range(n - 1), key=lambda k: len(rows[k])) + [n - 1]
        holders = [set() for _ in range(n)]  # the rows, not yet pivots, that hold a column
        for r, row in enumerate(rows):
            for c in row:
                holders[c].add(r)
        for p in order:
            pivot = rows[p]
            for c in pivot:
                holders[c].discard(p)
            for r in holders[p]:
                row = rows[r]
                factor = row.pop(p) / pivot[p]
                for c, x in pivot.items():
                    if c != p:
                        holders[c].add(r)
                        row[c] = row.get(c, 0) - factor * x
                rhs[r] -= factor * rhs[p]
        v = [None] * n
        for p in reversed(order):
            rest = mpmath.fsum(x * v[c] for c, x in rows[p].items() if c != p)
            v[p] = (rhs[p] - rest) / rows[p][p]
        return np.array(v, dtype=float)


def count_solves(monkeypatch) -> list:
    """Count calls of ``network.perron_vector``, through the module
    attribute that the builds call: the list that gets each call's matrix."""
    calls, solve = [], network.perron_vector

    def counted(matrix):
        calls.append(matrix)
        return solve(matrix)

    monkeypatch.setattr(network, "perron_vector", counted)
    return calls


def count_reads(monkeypatch) -> list:
    """Count calls of ``network._entries``, the one reader of A and of a
    graph, through the module attribute that the builds call: the list that
    gets each call's matrix."""
    calls, read = [], network._entries

    def counted(matrix):
        calls.append(matrix)
        return read(matrix)

    monkeypatch.setattr(network, "_entries", counted)
    return calls


def column_stochastic(adj, rng):
    weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
    return weights / weights.sum(axis=0)


def closure_is_connected(edges: np.ndarray) -> bool:
    """Reference check: whether every node reaches every other, by squaring
    the Boolean reachability matrix (the edges and the diagonal) until it
    stops growing."""
    reach = edges | np.eye(len(edges), dtype=bool)
    while True:
        step = reach.astype(np.float32)
        grown = step @ step > 0
        if (grown == reach).all():
            return bool(reach.all())
        reach = grown


def adjacency_forms(edges: np.ndarray, rng) -> dict:
    """``edges`` as every input form the check takes. Dense forms hold a
    nonzero at each edge; sparse forms store each edge once or twice, some
    entries with value 0, and nothing else, so that their stored entries are
    the edges."""
    n = len(edges)
    rows, cols = np.nonzero(edges)
    twice = rng.random(rows.size) < 0.3
    rows, cols = np.concatenate([rows, rows[twice]]), np.concatenate([cols, cols[twice]])
    values = rng.choice([0.0, 1.0, -2.5], size=rows.size)

    def compressed(build, major, minor):
        order = np.lexsort((minor, major))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(major, minlength=n))))
        return build((values[order], minor[order], indptr), shape=(n, n))

    weights = np.where(edges, rng.choice([1, -3, 7], size=edges.shape), 0)
    coo = coo_matrix((values, (rows, cols)), shape=(n, n))
    return {"bool": edges, "int": weights, "float": 0.25 * weights, "coo": coo,
            "csr": compressed(csr_matrix, rows, cols), "csc": compressed(csc_matrix, cols, rows),
            "lil": lil_matrix(coo)}


def over_random_patterns(test):
    """Run ``test(self, sizes, p, cycle, drops, seed, data)`` on 30 derandomized
    draws of ``random_pattern``'s arguments per size range: 1-30 nodes, and
    250, past SPARSE_SOLVE_MIN_AGENTS."""
    test = given(p=st.sampled_from([0.0, 0.004, 0.05, 0.2, 0.5]), cycle=st.booleans(),
                 drops=st.integers(0, 2), seed=st.integers(0, 2**32 - 1), data=st.data())(test)
    test = settings(derandomize=True, max_examples=30, deadline=None)(test)
    return pytest.mark.parametrize("sizes", [range(1, 31), [250]], ids=["1-30", "250"])(test)


def random_pattern(sizes, p, cycle, drops, seed, data) -> tuple:
    """(edges, rng): a random graph on a drawn size, over a cycle through
    every node less a few of its edges when ``cycle``, so that both answers
    of a connectivity check come up at every size; and the generator that
    drew it."""
    n = data.draw(st.sampled_from(sizes))
    rng = np.random.default_rng(seed)
    edges = rng.random((n, n)) < p
    if cycle:
        order = rng.permutation(n)
        kept = np.ones(n, bool)
        kept[rng.integers(0, n, drops)] = False
        edges[order[kept], np.roll(order, -1)[kept]] = True
    return edges, rng


class TestConnectivity:
    @over_random_patterns
    def test_matches_a_boolean_closure_reference(self, sizes, p, cycle, drops, seed, data):
        edges, rng = random_pattern(sizes, p, cycle, drops, seed, data)
        want = closure_is_connected(edges)
        forms = adjacency_forms(edges, rng)
        assert forms["csr"].nnz >= edges.sum() and forms["lil"].nnz == edges.sum()
        for name, adjacency in forms.items():
            assert is_strongly_connected(adjacency) is want, name

    def test_cycle_is_strongly_connected(self):
        adj = np.zeros((4, 4), dtype=bool)
        for k in range(4):
            adj[k, (k + 1) % 4] = True
        assert is_strongly_connected(adj)

    def test_chain_is_not(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 2] = True
        assert not is_strongly_connected(adj)

    def test_presets_are_strongly_connected(self):
        for build in (ring_adjacency, star_adjacency):
            adj = build(7)
            assert is_strongly_connected(adj)
            assert np.all(np.diag(adj))


class TestPerron:
    def test_symmetric_two_node(self):
        v = perron_vector(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(v, [0.5, 0.5], atol=1e-12)

    def test_hand_solved_example(self):
        v = perron_vector(A_2X2)
        np.testing.assert_allclose(v, [0.6, 0.4], atol=1e-10)

    def test_fixed_point_residual_random(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            adj = random_connected_adjacency(rng, n)
            net = build_averaging_matrix(adj, float(rng.uniform(0.05, 0.95)))
            residual = np.max(np.abs(net.matrix @ net.perron - net.perron))
            assert residual < 1e-10
            assert net.perron.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(net.perron > 0)

    @pytest.mark.parametrize("n", [200, 400])
    def test_path_matches_closed_form(self, n):
        # Averaging rule on an undirected graph is reversible, so v_k is
        # proportional to (deg_k - 1), deg counting the self-loop. Power
        # iteration stopped on successive iterates missed this by 8e-7 at
        # n = 200 (|lambda_2| = 0.99994) and hit its cap at n = 400.
        adj = path_adjacency(n)
        net = build_averaging_matrix(adj, 0.5)
        residual = np.max(np.abs(net.matrix @ net.perron - net.perron))
        assert residual <= 1e-10  # False for a NaN from a singular solve
        assert np.all(net.perron > 0)
        degrees = adj.sum(axis=0) - 1.0
        np.testing.assert_allclose(net.perron, degrees / degrees.sum(), rtol=1e-12, atol=0)

    def test_matches_high_precision_solve(self):
        # (A - I) v = 0 with sum(v) = 1, solved again at 30 digits: the last
        # equation of A - I is replaced by the sum, not dropped as in the solve
        rng = np.random.default_rng(30)
        for n in [2, 3, 5, 8, 13, 21, 30]:
            adj = generate_strongly_connected_adjacency(n, 0.2, rng)
            weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
            A = weights / weights.sum(axis=0)
            with mpmath.workdps(30):
                system = mpmath.matrix(A.tolist()) - mpmath.eye(n)
                system[n - 1, :] = mpmath.ones(1, n)
                exact = mpmath.lu_solve(system, mpmath.matrix([0] * (n - 1) + [1]))
                exact = np.array(exact.tolist(), dtype=float).ravel()
            np.testing.assert_allclose(perron_vector(A), exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [10, network.SPARSE_SOLVE_MIN_AGENTS - 1,
                                   network.SPARSE_SOLVE_MIN_AGENTS, 1000])
    @pytest.mark.parametrize("kind", ["ring", "path", "star", "directed cycle", "two cycles"])
    def test_balanced_builds_take_the_closed_form(self, kind, n, monkeypatch):
        # every node heard by as many nodes as it hears: v is proportional to
        # n_k - 1 and is certified with no solve; dense below the cutoff, CSC
        # from it on. The reference builds A at 30 digits: the Perron vector
        # of the rounded float A, which the LU solve finds, lies up to 5e-11
        # from it on the 1000-path at lam = 0.3, about N^2 times the rounding.
        adj = as_dense({"ring": ring_adjacency, "path": path_adjacency, "star": star_adjacency,
                        "directed cycle": directed_cycle_adjacency,
                        "two cycles": two_cycles_adjacency}[kind](n))
        assert (adj.sum(axis=0) == adj.sum(axis=1)).all()
        form = np.asarray if n < network.SPARSE_SOLVE_MIN_AGENTS else csc_matrix
        calls = count_solves(monkeypatch)
        net = build_averaging_matrix(form(adj), 0.3)
        assert calls == []
        exact = high_precision_averaging_perron(adj, 0.3)
        np.testing.assert_allclose(net.perron, exact, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [10, network.SPARSE_SOLVE_MIN_AGENTS - 1,
                                   network.SPARSE_SOLVE_MIN_AGENTS, 300])
    def test_unbalanced_builds_solve_once(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        adj = generate_strongly_connected_adjacency(n, min(0.5, 4.0 * np.log(n) / n), rng)
        assert (adj.sum(axis=0) != adj.sum(axis=1)).any()
        form = np.asarray if n < network.SPARSE_SOLVE_MIN_AGENTS else csc_matrix
        calls = count_solves(monkeypatch)
        net = build_averaging_matrix(form(adj), float(rng.uniform(0.05, 0.95)))
        assert len(calls) == 1
        assert net.perron.tobytes() == perron_vector(net.weights).tobytes()


class TestDerivedConstants:
    def test_alpha_hand_example(self):
        v = perron_vector(A_2X2)
        assert alpha_constant(A_2X2, v) == pytest.approx(1.0, abs=1e-10)

    def test_weight_sum_hand_example(self):
        v = perron_vector(A_2X2)
        assert mislearning_weight_sum(A_2X2, v) == pytest.approx(0.76, abs=1e-10)

    def test_single_agent_alpha_zero(self):
        A = np.array([[1.0]])
        v = np.array([1.0])
        assert alpha_constant(A, v) == 0.0
        assert mislearning_weight_sum(A, v) == 0.0
        net = Network.from_matrix(A)
        assert (net.alpha, net.weight_sum) == (0.0, 0.0)

    def test_no_full_self_weight_reads_no_rows(self, monkeypatch):
        def scan(matrix):
            raise AssertionError("rows of A were read")

        monkeypatch.setattr(network, "_entries", scan)
        v = perron_vector(A_2X2)
        for matrix in (A_2X2, csc_matrix(A_2X2)):
            assert alpha_constant(matrix, v) == pytest.approx(1.0, abs=1e-10)
            assert mislearning_weight_sum(matrix, v) == pytest.approx(0.76, abs=1e-10)

    def test_matches_loop_reference_on_random_weights(self):
        # the defining double sums, evaluated term by term
        def reference(A, v, numerator):
            d = np.diag(A)
            return sum(
                v[l] * A[m, l] * numerator(d[m]) / (1.0 - d[m])
                for l in range(len(v)) for m in range(len(v)) if m != l
            )

        rng = np.random.default_rng(4)
        for _ in range(20):
            adj = random_connected_adjacency(rng, int(rng.integers(2, 15)))
            weights = rng.random(adj.shape) * adj
            net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
            A, v = net.matrix, net.perron
            assert net.alpha == pytest.approx(reference(A, v, lambda d: 1.0), rel=1e-12)
            assert net.weight_sum == pytest.approx(reference(A, v, lambda d: d), rel=1e-12)

    def test_averaging_rule_alpha_one_and_weight_sum_lambda(self):
        # property over 100 random strongly connected graphs and lambdas
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            adj = random_connected_adjacency(rng, n)
            lam = float(rng.uniform(0.01, 0.99))
            net = build_averaging_matrix(adj, lam)
            assert net.alpha == pytest.approx(1.0, abs=1e-9)
            assert net.weight_sum == pytest.approx(lam, abs=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(2, 40) | st.integers(200, 320), seed=st.integers(0, 2**32 - 1))
    def test_closed_forms_on_random_weights(self, n, seed):
        # random weights on a random strongly connected graph, some agents
        # with no self-loop: alpha = 1 and weight_sum = diag(A) @ v anyway
        rng = np.random.default_rng(seed)
        adj = generate_strongly_connected_adjacency(n, min(1.0, 4.0 * np.log(n) / n), rng)
        adj[np.diag_indices(n)] = rng.random(n) < 0.5
        adj[0, 0] = True
        weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
        net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
        assert net.alpha == pytest.approx(1.0, abs=1e-12)
        assert net.weight_sum == pytest.approx(net.diagonal @ net.perron, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 10, 199, 200, 1000])
    @pytest.mark.parametrize("kind", ["ring", "path", "star", "random", "weights"])
    def test_exact_constants(self, kind, n):
        # A dense below SPARSE_SOLVE_MIN_AGENTS, CSC from it on; the reference
        # is the general sum over the agents with a_nn < 1
        rng = np.random.default_rng(n)
        form = np.asarray if n < network.SPARSE_SOLVE_MIN_AGENTS else csc_matrix
        builder = {"ring": ring_adjacency, "path": path_adjacency, "star": star_adjacency}.get(kind)
        if builder is None:
            adj = generate_strongly_connected_adjacency(n, min(1.0, 4.0 * np.log(n) / n), rng)
        else:
            adj = builder(n)
        if kind == "weights":
            net = Network.from_matrix(form(column_stochastic(adj, rng)))
        else:
            lam = float(rng.uniform(0.01, 0.99))
            net = build_averaging_matrix(form(adj), lam)
            assert net.weight_sum == pytest.approx(lam, rel=1e-14)
        d, v = net.diagonal, net.perron
        assert net.alpha == 1.0
        assert net.weight_sum == float(np.where(d < 1.0, d, 0.0) @ v)
        for matrix in (net.matrix, net.weights):
            assert alpha_constant(matrix, v) == net.alpha
            assert mislearning_weight_sum(matrix, v) == net.weight_sum


class TestAveragingMatrix:
    def test_two_node_bidirectional(self):
        net = build_averaging_matrix(np.ones((2, 2), dtype=bool), 0.5)
        np.testing.assert_allclose(net.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=0)
        np.testing.assert_allclose(net.perron, [0.5, 0.5], atol=1e-12)

    def test_three_node_complete(self):
        net = build_averaging_matrix(np.ones((3, 3), bool), 0.5)
        off = net.matrix[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.25, atol=0)
        np.testing.assert_allclose(net.perron, [1 / 3] * 3, atol=1e-12)

    def test_columns_stochastic(self):
        rng = np.random.default_rng(2)
        adj = random_connected_adjacency(rng, 9)
        net = build_averaging_matrix(adj, 0.37)
        np.testing.assert_allclose(net.matrix.sum(axis=0), 1.0, atol=1e-12)
        # zero weight off the graph
        assert np.all(net.matrix[~adj] == 0.0)

    @pytest.mark.parametrize("n, p", [(5, 0.5), (40, 0.2), (120, 0.05), (250, 0.02)])
    def test_fill_matches_column_loop(self, n, p):
        rng = np.random.default_rng(n)
        adj = generate_strongly_connected_adjacency(n, p, rng)
        lam = float(rng.uniform(0.05, 0.95))
        want = np.zeros((n, n))
        degrees = adj.sum(axis=0)
        for k in range(n):
            want[adj[:, k], k] = (1.0 - lam) / (degrees[k] - 1)
            want[k, k] = lam
        np.testing.assert_array_equal(build_averaging_matrix(adj, lam).matrix, want)

    @pytest.mark.parametrize("lam", [1e-12, 0.5, 1.0 - 2.0**-52])
    def test_adjacency_is_the_input_graph(self, lam):
        # no weight underflows, so A's nonzeros, the graph the network keeps, are the input
        rng = np.random.default_rng(17)
        for adj in (ring_adjacency(10), path_adjacency(300),
                    generate_strongly_connected_adjacency(100, 0.05, rng)):
            net = build_averaging_matrix(adj, lam)
            np.testing.assert_array_equal(net.matrix != 0, adj)

    def test_requires_self_loops_everywhere(self):
        adj = np.ones((3, 3), bool)
        adj[1, 1] = False
        with pytest.raises(ValidationError, match="self-loop"):
            build_averaging_matrix(adj, 0.5)

    def test_isolated_node_rejected(self):
        adj = np.eye(2, dtype=bool)  # self-loops only, no neighbors
        with pytest.raises(DegenerateDegreeError):
            build_averaging_matrix(adj, 0.5)

    def test_not_strongly_connected_rejected(self):
        adj = np.eye(4, dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        adj[2, 3] = adj[3, 2] = True  # two separate pairs
        with pytest.raises(ConnectivityError):
            build_averaging_matrix(adj, 0.5)

    def test_lambda_range(self):
        with pytest.raises(ValidationError):
            build_averaging_matrix(np.ones((2, 2), dtype=bool), 1.0)
        with pytest.raises(ValidationError):
            build_averaging_matrix(np.ones((2, 2), dtype=bool), 0.0)


class TestFromMatrix:
    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValidationError, match="column"):
            Network.from_matrix([[0.8, 0.3], [0.3, 0.7]])

    def test_rejects_nan_column_sum(self):
        with pytest.raises(ValidationError, match="column 0"):
            Network.from_matrix([[np.nan, 0.5], [0.5, 0.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Network.from_matrix([[1.2, 0.3], [-0.2, 0.7]])

    def test_rejects_weight_off_graph(self):
        adj = np.eye(2, dtype=bool)
        adj[1, 0] = True
        with pytest.raises(ValidationError, match="non-edge"):
            Network.from_matrix(A_2X2, adjacency=adj)

    def test_connectivity_of_weights_not_declared_adjacency(self):
        # the declared graph is complete, but nobody listens to anybody
        with pytest.raises(ConnectivityError):
            Network.from_matrix(np.eye(2), adjacency=np.ones((2, 2), dtype=bool))

    @over_random_patterns
    def test_connectivity_matches_a_boolean_closure_reference(self, sizes, p, cycle, drops, seed,
                                                              data):
        # the patterns with a self-loop at every node, weighted and given
        # dense and as CSC: rejected exactly when the reference says no
        edges, rng = random_pattern(sizes, p, cycle, drops, seed, data)
        want = closure_is_connected(edges)
        np.fill_diagonal(edges, True)
        A = column_stochastic(edges, rng)
        for matrix in (A, csc_matrix(A)):
            try:
                Network.from_matrix(matrix)
            except ConnectivityError:
                assert not want
            else:
                assert want

    def test_builds_without_the_public_connectivity_check(self, monkeypatch):
        # A's nonzeros are found once per build: from_matrix never calls
        # is_strongly_connected, which finds them again
        def scan(adjacency):
            raise AssertionError("is_strongly_connected was called")

        ring = build_averaging_matrix(ring_adjacency(10), 0.5).matrix
        monkeypatch.setattr(network, "is_strongly_connected", scan)
        assert Network.from_matrix(ring).size == 10
        assert build_averaging_matrix(csc_matrix(ring_adjacency(1000)), 0.5).size == 1000
        with pytest.raises(ConnectivityError):
            Network.from_matrix([[1.0, 0.5], [0.0, 0.5]])

    @pytest.mark.parametrize("n", [10, 250])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csc"])
    def test_one_read_per_build(self, n, sparse, monkeypatch):
        # an averaging build reads its graph once and hands the entries on,
        # so it never reads A; from_matrix reads A once and a given
        # adjacency once, balanced graph or not
        form = csc_matrix if sparse else np.asarray
        rng = np.random.default_rng(n)
        calls = count_reads(monkeypatch)
        for adj in (as_dense(ring_adjacency(n)), generate_strongly_connected_adjacency(n, 8.0 / n, rng)):
            adj = form(adj)
            weights = form(build_averaging_matrix(adj, 0.5).matrix)
            for build, read in ((lambda: build_averaging_matrix(adj, 0.5), [adj]),
                                (lambda: Network.from_matrix(weights), [weights]),
                                (lambda: Network.from_matrix(weights, adjacency=adj), [weights, adj])):
                calls.clear()
                build()
                assert [id(matrix) for matrix in calls] == [id(matrix) for matrix in read]

    def test_single_agent(self):
        net = Network.from_matrix([[1.0]])
        assert net.size == 1
        assert net.alpha == 0.0

    def test_describe_keys(self):
        net = Network.from_matrix(A_2X2)
        d = net.describe()
        assert d["agents"] == 2
        assert d["strongly_connected"] is True
        assert d["alpha"] == pytest.approx(1.0, abs=1e-10)
        assert d["mislearn_weight_sum"] == pytest.approx(0.76, abs=1e-10)


class TestGenerator:
    def test_single_node(self):
        adj = generate_strongly_connected_adjacency(1, 0.5, np.random.default_rng(0))
        assert adj.shape == (1, 1) and adj[0, 0]

    def test_deterministic(self):
        a = generate_strongly_connected_adjacency(10, 0.3, np.random.default_rng(9))
        b = generate_strongly_connected_adjacency(10, 0.3, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_always_strongly_connected_with_self_loops(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            adj = generate_strongly_connected_adjacency(int(rng.integers(1, 15)), 0.35, rng)
            assert is_strongly_connected(adj)
            assert np.all(np.diag(adj))

    def test_exhaustion_raises(self):
        # p tiny and n large enough that success within the budget is
        # essentially impossible
        with pytest.raises(GraphGenerationError):
            generate_strongly_connected_adjacency(40, 1e-6, np.random.default_rng(1))

    def test_bad_probability(self):
        with pytest.raises(ValidationError):
            generate_strongly_connected_adjacency(3, 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("name, call", [
    ("n", lambda: ring_adjacency(10.0)),
    ("n", lambda: ring_adjacency(True)),
    ("n", lambda: star_adjacency(10.0)),
    ("n", lambda: network.path_adjacency(10.0)),
    ("n", lambda: generate_strongly_connected_adjacency(10.0, 0.5, np.random.default_rng(0))),
    ("n_agents", lambda: uniform_log_beliefs(10.0, 3)),
    ("n_hypotheses", lambda: uniform_log_beliefs(10, 3.0)),
    ("n_agents", lambda: uniform_log_beliefs(-1, 3)),
    ("n_agents", lambda: uniform_log_beliefs(0, 3)),
    ("n_hypotheses", lambda: uniform_log_beliefs(3, 0)),
    ("transmit", lambda: Sharing(1.0)),
], ids=["ring", "ring-bool", "star", "path", "random", "beliefs-agents",
        "beliefs-hypotheses", "beliefs-negative-agents", "beliefs-no-agents",
        "beliefs-no-hypotheses", "sharing"])
def test_counts_must_be_integers(name, call):
    # one shared rule: a Python or numpy integer other than a bool
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        call()


def old_ring_adjacency(n):
    # the per-node loop ring_adjacency replaced
    adj = np.eye(n, dtype=bool)
    for k in range(n):
        adj[(k - 1) % n, k] = True
        adj[(k + 1) % n, k] = True
    return adj


@pytest.mark.parametrize("n", [2, 3, 10, 1000])
def test_ring_adjacency_equals_the_node_loop(n):
    adj = as_dense(ring_adjacency(n))
    assert adj.dtype == bool
    np.testing.assert_array_equal(adj, old_ring_adjacency(n))


def hub_star_adjacency(n):
    # node 0 linked both ways with every node, self-loops everywhere
    adj = np.eye(n, dtype=bool)
    adj[0, :] = True
    adj[:, 0] = True
    return adj


BUILDERS = {"ring": (ring_adjacency, old_ring_adjacency),
            "path": (network.path_adjacency, path_adjacency),
            "star": (star_adjacency, hub_star_adjacency)}


class TestBuilderForms:
    """The ring, path and star builders return a dense bool array below
    SPARSE_SOLVE_MIN_AGENTS nodes and a bool CSC matrix from there on."""

    @pytest.mark.parametrize("n", [2, 3, 10, network.SPARSE_SOLVE_MIN_AGENTS - 1,
                                   network.SPARSE_SOLVE_MIN_AGENTS,
                                   network.SPARSE_SOLVE_MIN_AGENTS + 1, 1000])
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_form_and_pattern(self, kind, n):
        build, reference = BUILDERS[kind]
        adj, want = build(n), reference(n)
        if n < network.SPARSE_SOLVE_MIN_AGENTS:
            assert type(adj) is np.ndarray and adj.dtype == bool and adj.flags.c_contiguous
            assert adj.shape == want.shape and adj.tobytes() == want.tobytes()
            return
        assert isinstance(adj, csc_matrix) and adj.format == "csc" and adj.dtype == bool
        # sorted rows within each column, no duplicate, no stored zero
        fresh = csc_matrix((adj.data, adj.indices, adj.indptr), shape=adj.shape)
        assert fresh.has_canonical_format
        assert adj.nnz == np.count_nonzero(want) and adj.data.all()
        np.testing.assert_array_equal(adj.toarray(), want)

    @pytest.mark.parametrize("n", [network.SPARSE_SOLVE_MIN_AGENTS, 250, 1000])
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_builds_from_the_output_equal_the_dense_builds_bitwise(self, kind, n):
        adj = BUILDERS[kind][0](n)
        sparse = build_averaging_matrix(adj, 0.3)
        # the dense read is one scan on either memory order
        for array in (adj.toarray(), np.ascontiguousarray(adj.toarray())):
            dense = build_averaging_matrix(array, 0.3)
            for name in ("perron", "diagonal"):
                assert getattr(sparse, name).tobytes() == getattr(dense, name).tobytes()
            for part in ("data", "indices", "indptr"):
                assert getattr(sparse.pool, part).tobytes() == getattr(dense.pool, part).tobytes()
            assert (sparse.alpha, sparse.weight_sum) == (dense.alpha, dense.weight_sum)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_a_hundred_thousand_nodes_build_from_the_output(self, kind, monkeypatch):
        # a dense bool N x N array would be 9.3 GiB, a float A 75 GiB; the
        # balanced graph takes the closed-form Perron vector with no solve
        n = 10**5
        calls = count_solves(monkeypatch)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            net = build_averaging_matrix(BUILDERS[kind][0](n), 0.5)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seconds < 1.0
        assert peak < 64 * 2**20
        assert calls == []
        assert net.size == n and net.pool.nnz == 3 * n - (kind != "ring") * 2
        assert (net.alpha, net.weight_sum) == (1.0, float(net.diagonal @ net.perron))


class TestSparseInput:
    """From SPARSE_SOLVE_MIN_AGENTS on a Network keeps A as CSC;
    scipy.sparse input must give what the same dense input gives."""

    @staticmethod
    def build(kind, n, sparse):
        rng = np.random.default_rng(n)
        to = csr_matrix if sparse else np.asarray
        if kind == "weights":
            adj = generate_strongly_connected_adjacency(n, 4.0 * np.log(n) / n, rng)
            A = column_stochastic(adj, rng)
            return Network.from_matrix(to(A), adjacency=coo_matrix(adj) if sparse else adj)
        adj = {"ring": ring_adjacency, "path": path_adjacency}.get(kind)
        if adj is None:
            adj = generate_strongly_connected_adjacency(n, 4.0 * np.log(n) / n, rng)
        else:
            adj = as_dense(adj(n))
        return build_averaging_matrix(to(adj), 0.3)

    @pytest.mark.parametrize("n", [200, 250, 1000])
    @pytest.mark.parametrize("kind", ["ring", "path", "random", "weights"])
    def test_sparse_input_equals_dense_bitwise(self, kind, n):
        dense, sparse = self.build(kind, n, False), self.build(kind, n, True)
        assert issparse(dense.weights) and issparse(dense.pool)
        for name in ("perron", "diagonal", "matrix"):
            np.testing.assert_array_equal(getattr(sparse, name), getattr(dense, name))
        assert (sparse.alpha, sparse.weight_sum) == (dense.alpha, dense.weight_sum)
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(sparse.pool, part), getattr(dense.pool, part))
        # the dense accessor is built once, read-only
        assert dense.matrix is dense.matrix and not dense.matrix.flags.writeable
        fam = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.3, 0.4, 0.3]])
        runs = [
            run_trajectory(uniform_log_beliefs(n, 3), net, fam, 0, SelfAwarePartialSharing(1),
                           50, np.random.default_rng(3))[0]
            for net in (dense, sparse)
        ]
        np.testing.assert_array_equal(*runs)

    def test_constants_take_sparse_input(self):
        for constant in (alpha_constant, mislearning_weight_sum):
            assert constant(csc_matrix(A_2X2), perron_vector(A_2X2)) == constant(A_2X2, perron_vector(A_2X2))

    @pytest.mark.parametrize("form", [csc_matrix, csr_matrix], ids=["csc", "csr"])
    @pytest.mark.parametrize("n", [2, network.SPARSE_SOLVE_MIN_AGENTS - 1])
    def test_perron_vector_reads_sparse_input_below_the_cutoff(self, form, n):
        A = A_2X2 if n == 2 else self.averaging(n)
        assert perron_vector(form(A)).tobytes() == perron_vector(A).tobytes()

    @pytest.mark.parametrize("form", [coo_matrix, csr_matrix, lil_matrix],
                             ids=["coo", "csr", "lil"])
    def test_perron_vector_reads_any_sparse_format_from_the_cutoff(self, form):
        # a Network's stored CSC is solved as it is; any other format is made CSC
        weights = build_averaging_matrix(ring_adjacency(250), 0.5).weights
        assert weights.format == "csc"
        assert perron_vector(form(weights)).tobytes() == perron_vector(weights).tobytes()

    @staticmethod
    def averaging(n):
        return build_averaging_matrix(ring_adjacency(n), 0.5).matrix.copy()

    @staticmethod
    def two_rings(n):
        # two disjoint rings, so two strongly connected components
        A = np.zeros((n, n))
        half = n // 2
        A[:half, :half] = build_averaging_matrix(ring_adjacency(half), 0.5).matrix
        A[half:, half:] = build_averaging_matrix(ring_adjacency(n - half), 0.5).matrix
        return A

    def from_matrix_cases(self, n):
        negative = self.averaging(n)
        negative[0, 1] -= 0.6
        negative[1, 1] += 0.6
        nan = self.averaging(n)
        nan[2, 3] = np.nan
        bad_sum = self.averaging(n)
        bad_sum[5, 5] += 0.1
        off_edge = self.averaging(n)
        off_edge[n // 2, 0] = 0.1
        off_edge[0, 0] -= 0.1
        cycle = np.zeros((n, n))  # strongly connected, columns sum to 1, no self-loop
        cycle[(np.arange(n) + 1) % n, np.arange(n)] = 1.0
        return [
            (negative, None, ValidationError),
            (nan, None, ValidationError),
            (bad_sum, None, ValidationError),
            (off_edge, as_dense(ring_adjacency(n)), ValidationError),
            (cycle, None, ValidationError),
        ]

    @pytest.mark.parametrize("n", [10, 250])
    def test_from_matrix_errors_match_dense(self, n):
        expected = ["nonnegative", "column 3 sums to nan", "column 5 sums to 1.1", "non-edge",
                    "positive self-loop"]
        for (A, adj, error), match in zip(self.from_matrix_cases(n), expected):
            with pytest.raises(error, match=match) as dense:
                Network.from_matrix(A, adjacency=adj)
            sparse_adj = None if adj is None else csc_matrix(adj)
            with pytest.raises(error) as sparse:
                Network.from_matrix(csc_matrix(A), adjacency=sparse_adj)
            assert str(sparse.value) == str(dense.value)

    @pytest.mark.parametrize("n", [10, 250])
    def test_stored_zero_is_no_edge(self, n):
        # explicit zeros join the two rings both ways; dropped, they leave two
        A = coo_matrix(self.two_rings(n))
        half = n // 2
        joined = coo_matrix(
            (np.append(A.data, [0.0, 0.0]), (np.append(A.row, [0, half]), np.append(A.col, [half, 0]))),
            shape=A.shape,
        )
        assert joined.nnz == A.nnz + 2 and is_strongly_connected(joined)
        with pytest.raises(ConnectivityError):
            Network.from_matrix(self.two_rings(n))
        with pytest.raises(ConnectivityError):
            Network.from_matrix(joined)

    @pytest.mark.parametrize("n", [10, 250])
    def test_builder_errors_match_dense(self, n):
        no_loop = as_dense(ring_adjacency(n))
        no_loop[7, 7] = False
        lonely = as_dense(ring_adjacency(n))
        lonely[:, 3] = False
        lonely[3, 3] = True
        for adj, error, match in ((no_loop, ValidationError, "node 7 has none"),
                                  (lonely, DegenerateDegreeError, "node 3 has no neighbors")):
            with pytest.raises(error, match=match) as dense:
                build_averaging_matrix(adj, 0.5)
            with pytest.raises(error) as sparse:
                build_averaging_matrix(csr_matrix(adj), 0.5)
            assert str(sparse.value) == str(dense.value)

    @staticmethod
    def cancelling_forms(n) -> dict:
        """The n-ring with a non-edge (0, n // 2) stored twice, as 1.0 and
        -1.0, in COO, CSR and CSC, the same entries summed in LIL, and the
        dense summed pattern: every form holds the ring's graph."""
        rows, cols = np.nonzero(as_dense(ring_adjacency(n)))
        rows, cols = np.append(rows, [0, 0]), np.append(cols, [n // 2, n // 2])
        values = np.append(np.ones(rows.size - 2), [1.0, -1.0])

        def compressed(build, major, minor):
            order = np.lexsort((minor, major))
            indptr = np.searchsorted(major[order], np.arange(n + 1))
            return build((values[order], minor[order], indptr), shape=(n, n))

        coo = coo_matrix((values, (rows, cols)), shape=(n, n))
        forms = {"coo": coo, "csr": compressed(csr_matrix, rows, cols),
                 "csc": compressed(csc_matrix, cols, rows), "lil": lil_matrix(coo),
                 "dense": coo.toarray()}
        assert forms["csr"].nnz == forms["csc"].nnz == coo.nnz == 3 * n + 2
        return forms

    @pytest.mark.parametrize("n", [10, 250])
    def test_a_zero_sum_is_no_edge_in_every_format(self, n):
        # two stored entries that sum to zero are no edge, whatever the
        # format: summed in the input's dtype, not cast to bool first
        ring = build_averaging_matrix(ring_adjacency(n), 0.5)
        off_edge = ring.matrix.copy()
        off_edge[0, n // 2] = 0.1
        off_edge[n // 2, n // 2] -= 0.1
        for name, adj in self.cancelling_forms(n).items():
            net = build_averaging_matrix(adj, 0.5)
            np.testing.assert_array_equal(net.matrix, ring.matrix, err_msg=name)
            np.testing.assert_array_equal(net.perron, ring.perron, err_msg=name)
            assert Network.from_matrix(ring.matrix, adjacency=adj).perron.tobytes() \
                == Network.from_matrix(ring.matrix).perron.tobytes(), name
            with pytest.raises(ValidationError, match="^nonzero weight on a non-edge$"):
                Network.from_matrix(off_edge, adjacency=adj)

    def test_sparse_ring_allocates_no_dense_matrix(self):
        # a dense float A of 5000 agents would be 200 MB
        n = 5000
        k = np.arange(n)
        rows = np.concatenate([k, (k + 1) % n, (k - 1) % n])
        adj = csc_matrix((np.ones(3 * n, dtype=bool), (rows, np.tile(k, 3))), shape=(n, n))
        tracemalloc.start()
        try:
            net = build_averaging_matrix(adj, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        assert net.size == n and net.pool.nnz == 3 * n
        np.testing.assert_allclose(net.perron, 1.0 / n, rtol=1e-10, atol=0)


# rejections no other test reaches

@pytest.mark.parametrize("call", [
    lambda: is_strongly_connected(np.ones((2, 3), bool)),
    lambda: build_averaging_matrix(np.ones((2, 3), bool), 0.5),
    lambda: Network.from_matrix(np.full((2, 3), 0.5)),
    lambda: perron_vector(np.full((2, 3), 0.5)),
    lambda: alpha_constant(np.full((2, 3), 0.5), np.full(2, 0.5)),
    lambda: mislearning_weight_sum(np.full((2, 3), 0.5), np.full(2, 0.5)),
    lambda: perron_vector(np.full(2, 0.5)),
    lambda: alpha_constant(np.full(2, 0.5), np.full(2, 0.5)),
    lambda: mislearning_weight_sum(np.full(2, 0.5), np.full(2, 0.5)),
], ids=["is_strongly_connected", "build_averaging_matrix", "from_matrix", "perron_vector",
        "alpha_constant", "mislearning_weight_sum", "perron_vector-1d", "alpha_constant-1d",
        "mislearning_weight_sum-1d"])
def test_matrices_must_be_square(call):
    with pytest.raises(ValidationError, match="^(adjacency|combination matrix) must be .*square"):
        call()


@pytest.mark.parametrize("constant", [alpha_constant, mislearning_weight_sum])
@pytest.mark.parametrize("perron", [[0.5, 0.25, 0.25], [1.0], np.full((2, 1), 0.5), 0.5],
                         ids=["longer", "shorter", "column", "scalar"])
def test_perron_vector_must_hold_one_entry_per_agent(constant, perron):
    with pytest.raises(ValidationError, match="^perron must hold 2 entries, got shape"):
        constant(A_2X2, perron)


def test_adjacency_of_another_shape_is_rejected():
    with pytest.raises(ValidationError, match="^adjacency shape does not match the matrix"):
        Network.from_matrix(A_2X2, adjacency=np.ones((3, 3), bool))


def test_a_perron_vector_failing_its_checks_is_a_non_convergence_error(monkeypatch):
    solve = network.perron_vector
    monkeypatch.setattr(network, "perron_vector", lambda matrix: np.array([0.5, 0.5]))
    with pytest.raises(NonConvergenceError, match="^Perron residual 0.05 exceeds 1e-10"):
        Network.from_matrix(A_2X2)
    monkeypatch.setattr(network, "perron_vector", lambda matrix: -solve(matrix))
    with pytest.raises(NonConvergenceError, match="^Perron vector has non-positive entries"):
        Network.from_matrix(A_2X2)


@pytest.mark.parametrize("n", [10, 250])
def test_a_wrong_proposed_perron_vector_fails_its_certificate(n):
    # the closed form proposed for a graph that is not balanced is rejected
    # by the residual every solved vector passes; so is a vector below 0
    rng = np.random.default_rng(n)
    adj = generate_strongly_connected_adjacency(n, 0.3 if n < 100 else 0.05, rng)
    weights = build_averaging_matrix(adj, 0.5).weights
    heard = adj.sum(axis=0) - 1
    with pytest.raises(NonConvergenceError, match=r"^Perron residual \S+ exceeds 1e-10$"):
        Network._build(*network._entries(weights), proposal=heard / heard.sum())
    with pytest.raises(NonConvergenceError, match="^Perron vector has non-positive entries"):
        Network._build(*network._entries(weights), proposal=-perron_vector(weights))


@pytest.mark.parametrize("matrix, size", [
    (np.eye(2), 1),
    (identity(300, format="csc"), 299),
], ids=["dense", "sparse"])
def test_a_singular_perron_system_is_a_non_convergence_error(matrix, size):
    # numpy raised its LinAlgError, and spsolve returned NaNs with a MatrixRankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError,
                           match=f"^the leading {size} x {size} block of I - A is singular$"):
            perron_vector(matrix)


@pytest.mark.parametrize("matrix", [np.zeros((0, 0)), csc_matrix((0, 0))], ids=["dense", "sparse"])
def test_a_matrix_with_no_agent_has_no_perron_vector(matrix):
    # numpy raised a "negative dimensions" ValueError
    with pytest.raises(ValidationError, match="^combination matrix has no agent$"):
        perron_vector(matrix)


@pytest.mark.parametrize("call, match", [
    (lambda: ring_adjacency(1), "^n must be >= 2, got 1$"),
    (lambda: star_adjacency(1), "^n must be >= 2, got 1$"),
    (lambda: network.path_adjacency(1), "^n must be >= 2, got 1$"),
    (lambda: generate_strongly_connected_adjacency(0, 0.5, np.random.default_rng(0)),
     "^n must be >= 1, got 0$"),
], ids=["ring", "star", "path", "random"])
def test_graph_builders_reject_too_few_nodes(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
