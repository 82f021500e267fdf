import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csc_matrix, csr_matrix, issparse, lil_matrix

from pbnet import network
from pbnet.dynamics import Sharing, SelfAwarePartialSharing, run_trajectory, uniform_log_beliefs
from pbnet.errors import (
    ConnectivityError,
    DegenerateDegreeError,
    DivisionDegeneracyError,
    GraphGenerationError,
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


def path_adjacency(n):
    adj = np.eye(n, dtype=bool)
    i = np.arange(n - 1)
    adj[i, i + 1] = adj[i + 1, i] = True
    return adj


class TestConnectivity:
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

    def test_division_degeneracy(self):
        # agent 0 keeps everything, agent 1 still listens to it
        A = np.array([[1.0, 0.3], [0.0, 0.7]])
        v = np.array([0.5, 0.5])
        with pytest.raises(DivisionDegeneracyError):
            alpha_constant(A, v)
        with pytest.raises(DivisionDegeneracyError):
            mislearning_weight_sum(A, v)

    def test_division_degeneracy_names_the_lowest_listener(self):
        # agents 0 and 1 keep everything; agent 2 listens to 1, agent 3 to 0
        A = np.array([[1.0, 0.0, 0.0, 0.5],
                      [0.0, 1.0, 0.5, 0.0],
                      [0.0, 0.0, 0.5, 0.0],
                      [0.0, 0.0, 0.0, 0.5]])
        v = np.full(4, 0.25)
        for matrix in (A, csc_matrix(A), csr_matrix(A)):
            for constant in (alpha_constant, mislearning_weight_sum):
                with pytest.raises(DivisionDegeneracyError) as err:
                    constant(matrix, v)
                assert str(err.value) == "agent 1 has full self-weight but agent 2 listens to it"

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
    ("n", lambda: generate_strongly_connected_adjacency(10.0, 0.5, np.random.default_rng(0))),
    ("n_agents", lambda: uniform_log_beliefs(10.0, 3)),
    ("n_hypotheses", lambda: uniform_log_beliefs(10, 3.0)),
    ("n_agents", lambda: uniform_log_beliefs(-1, 3)),
    ("n_agents", lambda: uniform_log_beliefs(0, 3)),
    ("n_hypotheses", lambda: uniform_log_beliefs(3, 0)),
    ("transmit", lambda: Sharing(1.0)),
], ids=["ring", "ring-bool", "star", "random", "beliefs-agents",
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
    adj = ring_adjacency(n)
    assert adj.dtype == bool
    np.testing.assert_array_equal(adj, old_ring_adjacency(n))


def column_stochastic(adj, rng):
    weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
    return weights / weights.sum(axis=0)


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
            adj = adj(n)
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
        # agent 0 keeps everything, agent 1 still listens to it
        A = np.array([[1.0, 0.3], [0.0, 0.7]])
        for constant in (alpha_constant, mislearning_weight_sum):
            with pytest.raises(DivisionDegeneracyError, match="agent 0 .* agent 1 listens"):
                constant(csc_matrix(A), np.array([0.5, 0.5]))
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
            (off_edge, ring_adjacency(n), ValidationError),
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
        no_loop = ring_adjacency(n)
        no_loop[7, 7] = False
        lonely = ring_adjacency(n)
        lonely[:, 3] = False
        lonely[3, 3] = True
        for adj, error, match in ((no_loop, ValidationError, "node 7 has none"),
                                  (lonely, DegenerateDegreeError, "node 3 has no neighbors")):
            with pytest.raises(error, match=match) as dense:
                build_averaging_matrix(adj, 0.5)
            with pytest.raises(error) as sparse:
                build_averaging_matrix(csr_matrix(adj), 0.5)
            assert str(sparse.value) == str(dense.value)

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
