import numpy as np
import pytest

from pbnet.errors import (
    ConnectivityError,
    DegenerateDegreeError,
    DivisionDegeneracyError,
    GraphGenerationError,
    ValidationError,
)
from pbnet.network import (
    Network,
    alpha_constant,
    build_averaging_matrix,
    complete_adjacency,
    generate_strongly_connected_adjacency,
    is_strongly_connected,
    mislearning_weight_sum,
    perron_vector,
    ring_adjacency,
    star_adjacency,
    strongly_connected_component_count,
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
        assert strongly_connected_component_count(adj) == 3

    def test_presets_are_strongly_connected(self):
        for build in (ring_adjacency, complete_adjacency, star_adjacency):
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


class TestAveragingMatrix:
    def test_two_node_bidirectional(self):
        net = build_averaging_matrix(np.ones((2, 2), dtype=bool), 0.5)
        np.testing.assert_allclose(net.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=0)
        np.testing.assert_allclose(net.perron, [0.5, 0.5], atol=1e-12)

    def test_three_node_complete(self):
        net = build_averaging_matrix(complete_adjacency(3), 0.5)
        off = net.matrix[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.25, atol=0)
        np.testing.assert_allclose(net.perron, [1 / 3] * 3, atol=1e-12)

    def test_columns_stochastic(self):
        rng = np.random.default_rng(2)
        adj = random_connected_adjacency(rng, 9)
        net = build_averaging_matrix(adj, 0.37)
        np.testing.assert_allclose(net.matrix.sum(axis=0), 1.0, atol=1e-12)
        # zero weight off the graph
        assert np.all(net.matrix[~net.adjacency] == 0.0)

    def test_requires_self_loops_everywhere(self):
        adj = complete_adjacency(3).copy()
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
