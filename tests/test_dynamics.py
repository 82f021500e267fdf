import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import issparse

from pbnet import dynamics
from pbnet.dynamics import (
    FullSharing,
    MaxBeliefSharing,
    NetworkState,
    PartialSharing,
    SelfAwarePartialSharing,
    Sharing,
    bayesian_update,
    check_log_beliefs,
    combine_step,
    log_beliefs_from_table,
    log_normalize,
    modify_for_sharing,
    run_iteration,
    run_trajectory,
    uniform_log_beliefs,
)
from pbnet.errors import InvalidObservationError, NumericalError, ValidationError
from pbnet.likelihoods import (
    DiscreteFamily,
    DiscreteGroup,
    GaussianFamily,
    MixtureSpec,
    log_likelihood,
    log_likelihood_rows,
    mixture_log_density,
)
from pbnet.network import (
    SPARSE_SOLVE_MIN_AGENTS,
    Network,
    build_averaging_matrix,
    generate_strongly_connected_adjacency,
    ring_adjacency,
)

GAUSS3 = GaussianFamily([0.0, 0.2, 1.0])
DISC2 = DiscreteFamily([[0.8, 0.2], [0.2, 0.8]])
RING5 = build_averaging_matrix(ring_adjacency(5), 0.5)


def beliefs(log_b):
    return np.exp(log_b)


class TestBayesianUpdate:
    def test_symmetric_likelihoods_keep_uniform(self):
        fam = DiscreteFamily([[0.5, 0.5], [0.5, 0.5]], validate=False)
        prior = np.log([0.5, 0.5])
        post = bayesian_update(prior, fam, 0)
        np.testing.assert_allclose(beliefs(post), [0.5, 0.5], atol=1e-15)

    def test_direct_bayes_arithmetic(self):
        # likelihood row at xi=0 is (0.8, 0.2): 0.5*0.8 / (0.5*0.8 + 0.5*0.2)
        post = bayesian_update(np.log([0.5, 0.5]), DISC2, 0)
        np.testing.assert_allclose(beliefs(post), [0.8, 0.2], atol=1e-12)

    def test_point_mass_like_prior_stays_positive(self):
        eps = 1e-12
        post = bayesian_update(np.log([1 - eps, eps]), DISC2, 1)
        assert np.all(np.isfinite(post))
        assert math.exp(post[1]) > 0
        assert np.exp(post).sum() == pytest.approx(1.0, abs=1e-9)


class TestModifyForSharing:
    def test_already_uniform_remainder_is_identity(self):
        psi = np.log([0.6, 0.2, 0.2])
        out = modify_for_sharing(psi, PartialSharing(0))
        np.testing.assert_allclose(beliefs(out), [0.6, 0.2, 0.2], atol=1e-12)

    def test_mass_split(self):
        out = modify_for_sharing(np.log([0.6, 0.3, 0.1]), PartialSharing(0))
        np.testing.assert_allclose(beliefs(out), [0.6, 0.2, 0.2], atol=1e-12)

    def test_two_hypotheses_identity_is_exact(self):
        psi = log_normalize(np.log([0.7, 0.3]))
        out = modify_for_sharing(psi, PartialSharing(0))
        np.testing.assert_array_equal(out, psi)

    def test_max_belief_tie_breaks_low(self):
        out = modify_for_sharing(np.log([0.4, 0.4, 0.2]), MaxBeliefSharing())
        np.testing.assert_allclose(beliefs(out), [0.4, 0.3, 0.3], atol=1e-12)

    def test_full_is_identity(self):
        psi = log_normalize(np.log([0.5, 0.25, 0.25]))
        np.testing.assert_array_equal(modify_for_sharing(psi, FullSharing()), psi)

    def test_stable_when_tx_mass_is_one_ulp_from_unity(self):
        # log-beliefs like [0, -800, -800] are valid: exp-sum is 1 in floats
        psi = np.array([0.0, -800.0, -800.0])
        out = modify_for_sharing(psi, PartialSharing(0))
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(-800.0, abs=1e-9)

    def test_normalization_preserved_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = int(rng.integers(2, 6))
            psi = np.log(rng.dirichlet(np.ones(h)))
            for strat in (PartialSharing(int(rng.integers(h))), MaxBeliefSharing()):
                out = modify_for_sharing(psi, strat)
                assert np.exp(out).sum() == pytest.approx(1.0, abs=1e-9)


class TestCombineStep:
    def test_single_agent_identity(self):
        net = Network.from_matrix([[1.0]])
        psi = log_normalize(np.log([0.6, 0.3, 0.1])).reshape(1, 3)
        for strat in (FullSharing(), SelfAwarePartialSharing(1)):
            shared = modify_for_sharing(psi, strat)
            out = combine_step(net, shared, psi, strat)
            np.testing.assert_allclose(out, psi, atol=1e-12)
        # without self-awareness the step is the identity on the *shared* input
        strat = PartialSharing(1)
        shared = modify_for_sharing(psi, strat)
        out = combine_step(net, shared, psi, strat)
        np.testing.assert_allclose(out, shared, atol=1e-12)

    def test_identical_inputs_fixed_point(self):
        psi = np.tile(log_normalize(np.log([0.5, 0.3, 0.2])), (5, 1))
        out = combine_step(RING5, psi, psi, PartialSharing(2))
        np.testing.assert_allclose(out, psi, atol=1e-12)

    def test_geometric_mean_two_agents(self):
        net = Network.from_matrix([[0.5, 0.5], [0.5, 0.5]])
        shared = np.log([[0.8, 0.2], [0.2, 0.8]])
        out = combine_step(net, shared, shared, PartialSharing(0))
        np.testing.assert_allclose(beliefs(out), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


class TestRunIteration:
    def test_deterministic_given_seed(self):
        init = uniform_log_beliefs(5, 3)
        a, _ = run_trajectory(init, RING5, GAUSS3, 0, PartialSharing(1), 50,
                              np.random.default_rng(99))
        b, _ = run_trajectory(init, RING5, GAUSS3, 0, PartialSharing(1), 50,
                              np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_every_iteration_normalized(self):
        rng = np.random.default_rng(4)
        init = np.log(rng.dirichlet(np.ones(3), size=5))
        for strat in (FullSharing(), PartialSharing(2), SelfAwarePartialSharing(2),
                      MaxBeliefSharing(), MaxBeliefSharing(self_aware=True)):
            traj, _ = run_trajectory(init, RING5, GAUSS3, 0, strat, 60, rng)
            sums = np.exp(traj).sum(axis=2)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)
            assert np.all(np.isfinite(traj))

    def test_non_tx_components_equalize_from_first_iteration(self):
        # random positive initialization, partial sharing: all non-tx entries
        # agree at every agent for every i >= 1
        rng = np.random.default_rng(12)
        init = np.log(rng.dirichlet(np.ones(4), size=6))
        net = build_averaging_matrix(ring_adjacency(6), 0.4)
        fam = GaussianFamily([0.0, 0.3, 0.8, 1.5])
        traj, _ = run_trajectory(init, net, fam, 0, PartialSharing(2), 40, rng)
        others = [h for h in range(4) if h != 2]
        spread = traj[1:, :, others].max(axis=2) - traj[1:, :, others].min(axis=2)
        assert np.max(spread) < 1e-9

    def test_h2_partial_equals_full_bitwise(self):
        rng = np.random.default_rng(31)
        init = np.log(rng.dirichlet(np.ones(2), size=5))
        a, _ = run_trajectory(init, RING5, DISC2, 0, PartialSharing(1), 500,
                              np.random.default_rng(7))
        b, _ = run_trajectory(init, RING5, DISC2, 0, FullSharing(), 500,
                              np.random.default_rng(7))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_full_sharing_learns_the_truth(self):
        init = uniform_log_beliefs(5, 3)
        traj, _ = run_trajectory(init, RING5, GAUSS3, 0, FullSharing(), 1500,
                                 np.random.default_rng(3))
        final = beliefs(traj[-1])
        assert np.all(final[:, 0] > 0.999)

    def test_heterogeneous_models(self):
        models = [DISC2, DiscreteFamily([[0.6, 0.4], [0.3, 0.7]])]
        net = build_averaging_matrix(np.ones((2, 2), dtype=bool), 0.5)
        traj, obs = run_trajectory(uniform_log_beliefs(2, 2), net, models, 0,
                                   FullSharing(), 30, np.random.default_rng(0),
                                   keep_observations=True)
        assert obs.shape == (30, 2)
        check_log_beliefs(traj[-1])

    def test_model_count_mismatch(self):
        with pytest.raises(ValidationError):
            run_iteration(NetworkState(uniform_log_beliefs(5, 2)), RING5,
                          [DISC2, DISC2], 0, FullSharing(), np.random.default_rng(0))


class TestRecursionOracles:
    """Per-step log-ratio recursions recomputed from the stored observations."""

    def test_partial_log_ratio_recursion(self):
        # log mu_{k,i}(t)/mu_{k,i}(tx) = sum_l a_lk [prev ratio
        #   + log(mix(xi_l)/L(xi_l|tx))], exact once non-tx components have
        # equalized (i >= 2 for arbitrary init, i >= 1 for uniform)
        tx, theta = 2, 0
        net = build_averaging_matrix(ring_adjacency(6), 0.35)
        rng = np.random.default_rng(44)
        init = np.log(rng.dirichlet(np.ones(3), size=6))
        traj, obs = run_trajectory(init, net, GAUSS3, 0, PartialSharing(tx), 200,
                                   rng, keep_observations=True)
        mix = MixtureSpec.uniform_complement(3, tx)
        ratios = traj[:, :, theta] - traj[:, :, tx]
        worst = 0.0
        for i in range(2, 201):
            inc = np.array([
                mixture_log_density(GAUSS3, mix, x) - log_likelihood(GAUSS3, tx, x)
                for x in obs[i - 1]
            ])
            rhs = net.matrix.T @ (ratios[i - 1] + inc)
            worst = max(worst, float(np.max(np.abs(ratios[i] - rhs))))
        assert worst < 1e-8

    def test_partial_recursion_from_first_step_with_uniform_init(self):
        tx = 1
        net = RING5
        rng = np.random.default_rng(10)
        traj, obs = run_trajectory(uniform_log_beliefs(5, 3), net, GAUSS3, 0,
                                   PartialSharing(tx), 50, rng,
                                   keep_observations=True)
        mix = MixtureSpec.uniform_complement(3, tx)
        ratios = traj[:, :, 0] - traj[:, :, tx]
        for i in range(1, 51):
            inc = np.array([
                mixture_log_density(GAUSS3, mix, x) - log_likelihood(GAUSS3, tx, x)
                for x in obs[i - 1]
            ])
            rhs = net.matrix.T @ (ratios[i - 1] + inc)
            np.testing.assert_allclose(ratios[i], rhs, atol=1e-8)

    def test_self_aware_non_tx_ratio_recursion(self):
        # log mu_{k,i}(t)/mu_{k,i}(t') = a_kk [prev + log L(xi_k|t)/L(xi_k|t')]
        tx, ta, tb = 2, 0, 1
        net = build_averaging_matrix(ring_adjacency(6), 0.25)
        rng = np.random.default_rng(77)
        init = np.log(rng.dirichlet(np.ones(3), size=6))
        traj, obs = run_trajectory(init, net, GAUSS3, 0,
                                   SelfAwarePartialSharing(tx), 200, rng,
                                   keep_observations=True)
        akk = np.diag(net.matrix)
        ratios = traj[:, :, ta] - traj[:, :, tb]
        worst = 0.0
        for i in range(1, 201):
            inc = np.array([
                log_likelihood(GAUSS3, ta, x) - log_likelihood(GAUSS3, tb, x)
                for x in obs[i - 1]
            ])
            rhs = akk * (ratios[i - 1] + inc)
            worst = max(worst, float(np.max(np.abs(ratios[i] - rhs))))
        assert worst < 1e-8


class TestValidation:
    def test_initial_table_checks(self):
        with pytest.raises(ValidationError):
            log_beliefs_from_table([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValidationError):
            log_beliefs_from_table([[0.6, 0.5]])

    def test_check_log_beliefs_rejects_nan(self):
        with pytest.raises(NumericalError):
            check_log_beliefs(np.array([[0.0, np.nan]]))
        with pytest.raises(NumericalError):
            check_log_beliefs(np.log([[0.7, 0.7]]))

    def test_horizon_positive(self):
        with pytest.raises(ValidationError):
            run_trajectory(uniform_log_beliefs(5, 3), RING5, GAUSS3, 0,
                           FullSharing(), 0, np.random.default_rng(0))


DISC3 = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
SHARINGS = [FullSharing(), PartialSharing(1), SelfAwarePartialSharing(1)]


def mixed_models(n):
    """Alternating Gaussian and discrete agents with distinct parameters."""
    rng = np.random.default_rng(n)
    return [
        GaussianFamily(rng.normal(0.0, 0.5, 3)) if k % 2 == 0
        else DiscreteFamily(0.5 * rng.dirichlet(np.ones(2 + k % 3), 3) + 0.5 / (2 + k % 3))
        for k in range(n)
    ]


class TestStepKernel:
    @pytest.mark.parametrize("fam", [GAUSS3, DISC3], ids=["gaussian", "discrete"])
    @pytest.mark.parametrize("strat", SHARINGS, ids=["full", "partial", "self_aware"])
    def test_list_of_copies_equals_the_family_bitwise(self, fam, strat):
        init = uniform_log_beliefs(5, 3)
        a, obs_a = run_trajectory(init, RING5, fam, 0, strat, 40,
                                  np.random.default_rng(5), keep_observations=True)
        b, obs_b = run_trajectory(init, RING5, [fam] * 5, 0, strat, 40,
                                  np.random.default_rng(5), keep_observations=True)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(obs_a, obs_b)
        assert obs_a.dtype == obs_b.dtype

    @pytest.mark.parametrize("n", [30, 300], ids=["dense", "sparse"])
    @pytest.mark.parametrize("strat", SHARINGS[1:], ids=["partial", "self_aware"])
    def test_pool_matches_dense_recomputation(self, n, strat):
        # a ring with random weights: A is not symmetric, its diagonal not constant
        adj = ring_adjacency(n)
        weights = np.where(adj, np.random.default_rng(n).uniform(0.1, 1.0, adj.shape), 0.0)
        net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
        assert issparse(net.pool) == (n >= SPARSE_SOLVE_MIN_AGENTS)
        traj, obs = run_trajectory(uniform_log_beliefs(n, 3), net, DISC3, 0, strat, 50,
                                   np.random.default_rng(2), keep_observations=True)
        self_aware = isinstance(strat, SelfAwarePartialSharing)
        for i in range(1, 51):
            unnorm = traj[i - 1] + log_likelihood_rows(DISC3, obs[i - 1])
            psi = unnorm - np.log(np.exp(unnorm).sum(axis=1, keepdims=True))
            shared = modify_for_sharing(psi, strat)
            pooled = net.matrix.T @ shared
            if self_aware:
                pooled += np.diag(net.matrix)[:, None] * (psi - shared)
            want = pooled - np.log(np.exp(pooled).sum(axis=1, keepdims=True))
            np.testing.assert_allclose(traj[i], want, rtol=0, atol=1e-12)

    def test_mixed_list_model_count_mismatch(self):
        with pytest.raises(ValidationError):
            run_iteration(NetworkState(uniform_log_beliefs(5, 3)), RING5,
                          mixed_models(4), 0, FullSharing(), np.random.default_rng(0))

    def test_mixed_list_rejects_out_of_range_observation(self, monkeypatch):
        draw = dynamics.sample_observation

        def off_support(model, theta, rng, size=None):
            x = draw(model, theta, rng, size)
            return x + 10 if isinstance(model, DiscreteGroup) else x

        monkeypatch.setattr(dynamics, "sample_observation", off_support)
        with pytest.raises(InvalidObservationError):
            run_iteration(NetworkState(uniform_log_beliefs(5, 3)), RING5,
                          mixed_models(5), 0, FullSharing(), np.random.default_rng(0))

    def test_observation_dtype(self):
        init = uniform_log_beliefs(5, 3)
        discrete = [DISC3, DiscreteFamily([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])] * 2 + [DISC3]
        _, obs = run_trajectory(init, RING5, discrete, 0, FullSharing(), 5,
                                np.random.default_rng(0), keep_observations=True)
        assert obs.dtype == np.int64
        _, obs = run_trajectory(init, RING5, mixed_models(5), 0, FullSharing(), 5,
                                np.random.default_rng(0), keep_observations=True)
        assert obs.dtype == np.float64


class TestSharing:
    @pytest.mark.parametrize("old, fields", [
        (FullSharing(), (None, False)),
        (PartialSharing(2), (2, False)),
        (SelfAwarePartialSharing(2), (2, True)),
        (MaxBeliefSharing(), ("argmax", False)),
        (MaxBeliefSharing(self_aware=True), ("argmax", True)),
    ], ids=["full", "partial", "self_aware", "max_belief", "max_belief_self_aware"])
    def test_old_names_set_the_two_fields(self, old, fields):
        assert isinstance(old, Sharing)
        assert (old.transmit, old.self_aware) == fields

    @pytest.mark.parametrize("fam", [GAUSS3, DISC3], ids=["gaussian", "discrete"])
    @pytest.mark.parametrize("new, old", [
        (Sharing(1, self_aware=True), SelfAwarePartialSharing(1)),
        (Sharing("argmax", True), MaxBeliefSharing(self_aware=True)),
    ], ids=["self_aware", "max_belief_self_aware"])
    def test_trajectory_equals_old_name_bitwise(self, fam, new, old):
        init = uniform_log_beliefs(5, 3)
        a, _ = run_trajectory(init, RING5, fam, 0, new, 60, np.random.default_rng(9))
        b, _ = run_trajectory(init, RING5, fam, 0, old, 60, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("transmit", ["max", 1.5, True, -1])
    def test_invalid_transmit_rejected_at_construction(self, transmit):
        with pytest.raises(ValidationError, match="transmit"):
            Sharing(transmit)

    def test_rules_are_equal_by_their_two_fields(self):
        assert PartialSharing(1) == Sharing(1)
        assert Sharing(1) == PartialSharing(1)
        assert FullSharing() == Sharing()
        assert MaxBeliefSharing(self_aware=True) == Sharing("argmax", True)
        assert len({PartialSharing(1), Sharing(1)}) == 1
        assert SelfAwarePartialSharing(1) != PartialSharing(1)
        assert PartialSharing(1) != PartialSharing(2)


# -- the draw contract: run_trajectory is a loop of run_iteration ------------

# the five rules, each built from a transmitted index that only some use
STEP_RULES = [lambda tx: FullSharing(), PartialSharing, SelfAwarePartialSharing,
              lambda tx: MaxBeliefSharing(), lambda tx: MaxBeliefSharing(self_aware=True)]


def random_family(kind, h, rng):
    if kind == "gaussian":
        return GaussianFamily(rng.normal(0.0, 1.0, h))
    s = int(rng.integers(2, 5))
    return DiscreteFamily(0.5 * rng.dirichlet(np.ones(s), h) + 0.5 / s)


def random_models(form, kind, n, h, rng):
    """A family, a list of n copies of one, or a list mixing both families
    (agent 0 Gaussian, agent 1 discrete, the rest drawn)."""
    if form == "family":
        return random_family(kind, h, rng)
    if form == "copies":
        return [random_family(kind, h, rng)] * n
    kinds = ["gaussian", "discrete"] + list(rng.choice(["gaussian", "discrete"], n - 2))
    return [random_family(k, h, rng) for k in kinds]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def assert_trajectory_is_the_step_loop(net, models, true_index, rule, horizon, seed):
    n, h = net.size, (models[0] if isinstance(models, list) else models).hypothesis_count
    init = uniform_log_beliefs(n, h)
    rng = np.random.default_rng(seed)
    traj, obs = run_trajectory(init, net, models, true_index, rule, horizon, rng,
                               keep_observations=True)
    loop_rng = np.random.default_rng(seed)
    state, states, draws = NetworkState(init), [init], []
    for _ in range(horizon):
        state, xi = run_iteration(state, net, models, true_index, rule, loop_rng)
        states.append(state.log_beliefs)
        draws.append(xi)
    assert_bitwise(traj, np.stack(states))
    assert_bitwise(obs, np.stack(draws))
    assert rng.bit_generator.state == loop_rng.bit_generator.state


class TestDrawContract:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), h=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["gaussian", "discrete"]),
           form=st.sampled_from(["family", "copies", "mixed"]),
           rule=st.integers(0, len(STEP_RULES) - 1),
           horizon=st.sampled_from([1, 63, 64, 65, 130]), data=st.data())
    def test_trajectory_equals_the_step_loop_bitwise(self, n, h, seed, kind, form, rule,
                                                      horizon, data):
        rng = np.random.default_rng(seed)
        adj = generate_strongly_connected_adjacency(n, 0.3, rng)
        weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
        net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
        models = random_models(form, kind, n, h, rng)
        sharing = STEP_RULES[rule](data.draw(st.integers(0, h - 1), label="tx"))
        true_index = data.draw(st.integers(0, h - 1), label="true_index")
        assert_trajectory_is_the_step_loop(net, models, true_index, sharing, horizon, seed)

    @pytest.mark.parametrize("form", ["family", "copies", "mixed"])
    def test_sparse_pool_trajectory_equals_the_step_loop_bitwise(self, form):
        net = build_averaging_matrix(ring_adjacency(300), 0.5)
        assert issparse(net.pool)
        models = random_models(form, "discrete", 300, 3, np.random.default_rng(300))
        assert_trajectory_is_the_step_loop(net, models, 0, SelfAwarePartialSharing(1), 65, 4)


class TestStepErrors:
    def test_nan_names_the_iteration_and_the_agent(self, monkeypatch):
        score = dynamics.log_likelihood_rows
        seen = [0]  # observation rows scored so far

        def nan_at_row_69(model, xi):
            table = score(model, xi)
            row = 69 - seen[0]
            if 0 <= row < len(table):
                table[row, 3] = np.nan
            seen[0] += len(table)
            return table

        monkeypatch.setattr(dynamics, "log_likelihood_rows", nan_at_row_69)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # dense pooling spreads the NaN to every row, agent 0 first
            with pytest.raises(NumericalError, match=r"^iteration 70: agent 3 scored a "
                               r"non-finite log-likelihood; agent 0: non-finite log-belief"):
                run_trajectory(uniform_log_beliefs(5, 3), RING5, DISC3, 0, PartialSharing(1),
                               130, np.random.default_rng(0))

    def test_check_names_the_first_bad_row(self):
        with pytest.raises(NumericalError, match="agent 1: belief normalization"):
            check_log_beliefs(np.log([[0.5, 0.5], [0.7, 0.7], [0.9, 0.9]]))
