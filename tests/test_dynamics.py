import itertools
import math
import re
import sys
import tracemalloc
import warnings
from operator import setitem

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import issparse

from pbnet import dynamics
from pbnet.dynamics import (
    FullSharing,
    MaxBeliefSharing,
    PartialSharing,
    SelfAwarePartialSharing,
    Sharing,
    check_log_beliefs,
    combine_step,
    modify_for_sharing,
    run_iteration,
    run_replicas,
    run_trajectory,
    uniform_log_beliefs,
)
from pbnet.errors import InvalidObservationError, NumericalError, ValidationError
from pbnet.fixtures import bundled_discrete_family, bundled_gaussian_family
from pbnet.likelihoods import (
    DiscreteFamily,
    DiscreteGroup,
    GaussianFamily,
    log_likelihood_row,
    log_likelihood_rows,
    sample_observation,
    stack_models,
)
from pbnet.network import (
    SPARSE_SOLVE_MIN_AGENTS,
    Network,
    build_averaging_matrix,
    generate_strongly_connected_adjacency,
    ring_adjacency,
    star_adjacency,
)

GAUSS3 = GaussianFamily([0.0, 0.2, 1.0])
DISC2 = DiscreteFamily([[0.8, 0.2], [0.2, 0.8]])
RING5 = build_averaging_matrix(ring_adjacency(5), 0.5)

# the five rules, each built from a transmitted index that only some use
STEP_RULES = [lambda tx: FullSharing(), PartialSharing, SelfAwarePartialSharing,
              lambda tx: MaxBeliefSharing(), lambda tx: MaxBeliefSharing(self_aware=True)]
RULE_IDS = ["full", "partial", "self_aware", "max_belief", "max_belief_self_aware"]


def beliefs(log_b):
    return np.exp(log_b)


class TestModifyForSharing:
    def test_already_uniform_remainder_is_identity(self):
        psi = np.log([0.6, 0.2, 0.2])
        out = modify_for_sharing(psi, PartialSharing(0))
        np.testing.assert_allclose(beliefs(out), [0.6, 0.2, 0.2], atol=1e-12)

    def test_mass_split(self):
        out = modify_for_sharing(np.log([0.6, 0.3, 0.1]), PartialSharing(0))
        np.testing.assert_allclose(beliefs(out), [0.6, 0.2, 0.2], atol=1e-12)

    def test_two_hypotheses_identity_is_exact(self):
        psi = np.log([0.7, 0.3])
        psi -= np.logaddexp.reduce(psi)
        out = modify_for_sharing(psi, PartialSharing(0))
        np.testing.assert_array_equal(out, psi)

    def test_max_belief_tie_breaks_low(self):
        out = modify_for_sharing(np.log([0.4, 0.4, 0.2]), MaxBeliefSharing())
        np.testing.assert_allclose(beliefs(out), [0.4, 0.3, 0.3], atol=1e-12)

    def test_full_is_identity(self):
        psi = np.log([0.5, 0.25, 0.25])
        psi -= np.logaddexp.reduce(psi)
        np.testing.assert_array_equal(modify_for_sharing(psi, FullSharing()), psi)

    def test_stable_when_tx_mass_is_one_ulp_from_unity(self):
        # log-beliefs like [0, -800, -800] are valid: exp-sum is 1 in floats
        psi = np.array([0.0, -800.0, -800.0])
        out = modify_for_sharing(psi, PartialSharing(0))
        assert np.all(np.isfinite(out))
        assert out[1] == pytest.approx(-800.0, abs=1e-9)

    def test_tx_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match=r"^tx index 3 out of range \[0, 2\]$"):
            modify_for_sharing(np.log([[0.6, 0.3, 0.1]]), PartialSharing(3))

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
        psi = np.log([[0.6, 0.3, 0.1]])
        psi -= np.logaddexp.reduce(psi, axis=-1, keepdims=True)
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
        row = np.log([0.5, 0.3, 0.2])
        psi = np.tile(row - np.logaddexp.reduce(row), (5, 1))
        out = combine_step(RING5, psi, psi, PartialSharing(2))
        np.testing.assert_allclose(out, psi, atol=1e-12)

    def test_geometric_mean_two_agents(self):
        net = Network.from_matrix([[0.5, 0.5], [0.5, 0.5]])
        shared = np.log([[0.8, 0.2], [0.2, 0.8]])
        out = combine_step(net, shared, shared, PartialSharing(0))
        np.testing.assert_allclose(beliefs(out), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    @pytest.mark.parametrize("n, shape", [
        (10, (5, 3)), (10, (2, 5, 3)), (300, (5, 3)), (300, (2, 5, 3)), (300, (2, 150, 3)),
        (10, (10,)),
    ], ids=["dense", "dense_stack", "sparse", "sparse_stack", "sparse_stack_of_n_entries",
            "one_row_of_n_entries"])
    def test_agent_count_other_than_n_is_a_validation_error(self, n, shape):
        # the sparse stack holds N x H entries in all, which a reshape to N
        # rows took; one row of N entries was pooled and normalized over agents
        net = build_averaging_matrix(ring_adjacency(n), 0.5)
        assert issparse(net.pool) == (n == 300)
        rows = np.full(shape, -np.log(3.0))
        match = rf"log-beliefs of shape {re.escape(str(shape))} are not \(\.\.\., N={n}, H\)"
        with pytest.raises(ValidationError, match=match):
            combine_step(net, rows, rows, FullSharing())


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

    @pytest.mark.parametrize("fam", [GaussianFamily([0.0, 0.6]), DISC2],
                             ids=["gaussian", "discrete"])
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_h2_partial_equals_full_bitwise(self, fam, rule):
        # at H = 2 the spread returns a belief as it is, so every rule is full sharing
        rng = np.random.default_rng(31)
        init = np.log(rng.dirichlet(np.ones(2), size=5))
        a, _ = run_trajectory(init, RING5, fam, 0, rule(1), 500, np.random.default_rng(7))
        b, _ = run_trajectory(init, RING5, fam, 0, FullSharing(), 500,
                              np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("fam", [GaussianFamily([0.4]), DiscreteFamily([[0.3, 0.7]])],
                             ids=["gaussian", "discrete"])
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_h1_equals_full_bitwise_without_warnings(self, fam, rule):
        # a single hypothesis has nothing to spread, so no rule takes log(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, _ = run_trajectory(uniform_log_beliefs(5, 1), RING5, fam, 0, rule(0), 70,
                                  np.random.default_rng(7))
            b, _ = run_trajectory(uniform_log_beliefs(5, 1), RING5, fam, 0, FullSharing(), 70,
                                  np.random.default_rng(7))
            step, _ = run_iteration(uniform_log_beliefs(5, 1), RING5, fam, 0, rule(0),
                                    np.random.default_rng(7))
        assert_bitwise(a, b)
        assert_bitwise(step, b[1])

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
            run_iteration(uniform_log_beliefs(5, 2), RING5,
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
        mix = np.array([0.5, 0.5, 0.0])  # uniform over the hypotheses other than tx
        ratios = traj[:, :, theta] - traj[:, :, tx]
        worst = 0.0
        for i in range(2, 201):
            rows = log_likelihood_rows(GAUSS3, obs[i - 1])
            inc = np.log(np.exp(rows) @ mix) - rows[:, tx]
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
        mix = np.array([0.5, 0.0, 0.5])  # uniform over the hypotheses other than tx
        ratios = traj[:, :, 0] - traj[:, :, tx]
        for i in range(1, 51):
            rows = log_likelihood_rows(GAUSS3, obs[i - 1])
            inc = np.log(np.exp(rows) @ mix) - rows[:, tx]
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
                log_likelihood_row(GAUSS3, x)[ta] - log_likelihood_row(GAUSS3, x)[tb]
                for x in obs[i - 1]
            ])
            rhs = akk * (ratios[i - 1] + inc)
            worst = max(worst, float(np.max(np.abs(ratios[i] - rhs))))
        assert worst < 1e-8

    @pytest.mark.parametrize("tx", [0, 1, 2])
    @pytest.mark.parametrize("case", ["gaussian", "discrete", "mixed_list"])
    def test_partial_sharing_is_full_sharing_on_the_lumped_family(self, case, tx):
        # receivers spread the non-tx mass evenly, so from uniform beliefs the
        # non-tx columns stay equal and their mass evolves as one hypothesis
        # whose likelihood is the uniform mixture of theirs: the run is full
        # sharing on the two hypotheses [tx, bucket], stepped here by pbnet's
        # own full-sharing path on the lumped log-likelihoods of the stored
        # observations
        rng = np.random.default_rng(31 + tx)
        if case == "mixed_list":  # a non-symmetric random network
            n, models = 12, mixed_models(12)
            adj = generate_strongly_connected_adjacency(n, 0.3, rng)
            weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
            net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
            assert not np.allclose(net.matrix, net.matrix.T)
        else:
            n, net = 10, build_averaging_matrix(ring_adjacency(10), 0.3)
            fixture = bundled_gaussian_family if case == "gaussian" else bundled_discrete_family
            models = [fixture()] * n
        h, horizon = 3, 300
        traj, obs = run_trajectory(uniform_log_beliefs(n, h), net, models, 0, PartialSharing(tx),
                                   horizon, rng, keep_observations=True)
        loglik = stored_log_likelihoods(models, obs, h)
        others = np.arange(h) != tx
        lumped_loglik = np.stack(
            [loglik[..., tx], np.logaddexp.reduce(loglik[..., others], axis=-1) - np.log(h - 1)],
            axis=-1)
        lumped = np.log(np.tile([1.0 / h, (h - 1.0) / h], (n, 1)))
        worst = 0.0
        for t in range(horizon):
            # given its row, the step reads no model, true index or generator
            lumped, _ = run_iteration(lumped, net, None, None, FullSharing(), None,
                                      observed=(None, lumped_loglik[t]))
            mass = np.stack([traj[t + 1][:, tx],
                             np.logaddexp.reduce(traj[t + 1][:, others], axis=-1)], axis=-1)
            worst = max(worst, float(np.max(np.abs(lumped - mass))))
        assert worst < 1e-12

    @pytest.mark.parametrize("rule", [PartialSharing(1), PartialSharing(2), FullSharing()],
                             ids=["partial_tx1", "partial_tx2", "full"])
    @pytest.mark.parametrize("case", ["gaussian", "discrete", "mixed_list", "mixed_list_random"])
    def test_perron_weighted_log_odds_is_a_random_walk(self, case, rule):
        # each rule steps y(t) = A^T (y(t-1) + Z(t)), and A v = v for the
        # Perron vector v, so v^T y(t) - v^T y(t-1) = v^T Z(t) exactly: under
        # partial sharing y = log mu(0)/mu(tx) and Z = log mix(xi) - log L(xi|tx),
        # mix the uniform mixture of the hypotheses but tx (exact from uniform
        # beliefs on), under full sharing y = log mu(0)/mu(1) and
        # Z = log L(xi|0) - log L(xi|1). Only a non-symmetric A tells A^T from A.
        rng = np.random.default_rng(26)
        if case == "mixed_list_random":
            n = 12
            adj = generate_strongly_connected_adjacency(n, 0.3, rng)
            weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
            net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
        else:
            n, net = 10, build_averaging_matrix(star_adjacency(10), 0.3)
        assert not np.allclose(net.matrix, net.matrix.T)
        if case.startswith("mixed_list"):
            models = mixed_models(n)
        else:
            fixture = bundled_gaussian_family if case == "gaussian" else bundled_discrete_family
            models = [fixture()] * n
        h, horizon = 3, 200
        traj, obs = run_trajectory(uniform_log_beliefs(n, h), net, models, 0, rule, horizon,
                                   rng, keep_observations=True)
        loglik = stored_log_likelihoods(models, obs, h)
        tx = rule.transmit
        if tx is None:
            y, z = traj[..., 0] - traj[..., 1], loglik[..., 0] - loglik[..., 1]
        else:
            others = np.arange(h) != tx
            y = traj[..., 0] - traj[..., tx]
            z = (np.logaddexp.reduce(loglik[..., others], axis=-1) - np.log(h - 1)
                 - loglik[..., tx])
        walk = y @ net.perron
        residual = np.abs(np.diff(walk) - z @ net.perron)
        assert (residual <= 1e-12 * np.maximum(1.0, np.abs(walk[1:]))).all()


def stored_log_likelihoods(models, obs, h):
    """(horizon, n, H) log-likelihoods of a run's stored observations under
    a per-agent model list, scored group by group."""
    loglik = np.empty(obs.shape + (h,))
    for group in stack_models(models, obs.shape[1]):
        loglik[:, group.agents] = log_likelihood_rows(group, obs[:, group.agents])
    return loglik


class TestValidation:
    def test_check_log_beliefs_rejects_nan(self):
        with pytest.raises(NumericalError):
            check_log_beliefs(np.array([[0.0, np.nan]]))
        with pytest.raises(NumericalError):
            check_log_beliefs(np.log([[0.7, 0.7]]))

    def test_bad_tx_rejected_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match=r"^tx index 3 out of range \[0, 2\]$"):
            run_trajectory(uniform_log_beliefs(5, 3), RING5, GAUSS3, 0, PartialSharing(3),
                           10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("step", ["trajectory", "iteration"])
    @pytest.mark.parametrize("n, h", [(5, 2), (4, 3)], ids=["hypotheses", "agents"])
    def test_mismatched_beliefs_rejected_before_any_draw(self, step, n, h):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError):
            if step == "trajectory":
                run_trajectory(uniform_log_beliefs(n, h), RING5, GAUSS3, 0, FullSharing(),
                               100, rng)
            else:
                run_iteration(uniform_log_beliefs(n, h), RING5, GAUSS3, 0, FullSharing(), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("step", ["trajectory", "iteration"])
    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 5, 3)], ids=["1d", "1d_n", "3d"])
    def test_beliefs_not_two_dimensional_rejected_before_any_draw(self, step, shape):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        init = np.full(shape, -np.log(3.0))
        with pytest.raises(ValidationError, match=r"not \(N=5, H\)"):
            if step == "trajectory":
                run_trajectory(init, RING5, GAUSS3, 0, FullSharing(), 10, rng)
            else:
                run_iteration(init, RING5, GAUSS3, 0, FullSharing(), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("row", [[0.7, 0.7, 0.7], [np.nan, 0.5, 0.5]],
                             ids=["unnormalized", "nan"])
    def test_lone_step_rejects_bad_rows_before_any_draw(self, row):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        init = uniform_log_beliefs(5, 3)
        init[2] = np.log(row)
        with pytest.raises(NumericalError, match="^agent 2: "):
            run_iteration(init, RING5, GAUSS3, 0, FullSharing(), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("step", ["trajectory", "iteration"])
    @pytest.mark.parametrize("models", [
        "gaussian", None, stack_models([GAUSS3] * 5, 5)[0], stack_models([GAUSS3] * 5, 5),
    ], ids=["string", "none", "bare_group", "stacked_groups"])
    def test_models_of_no_family_rejected_before_any_draw(self, step, models):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError):
            if step == "trajectory":
                run_trajectory(uniform_log_beliefs(5, 3), RING5, models, 0, FullSharing(),
                               10, rng)
            else:
                run_iteration(uniform_log_beliefs(5, 3), RING5, models, 0, FullSharing(), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("step", ["trajectory", "iteration"])
    @pytest.mark.parametrize("form", ["family", "copies", "mixed"])
    @pytest.mark.parametrize("true_index", [3, -1, True, 1.0],
                             ids=["past_h", "negative", "bool", "float"])
    def test_bad_true_index_rejected_before_any_draw(self, step, form, true_index):
        # a mixed list maps its draws with the index unchecked, so the run
        # must reject it before the generator moves
        models = {"family": GAUSS3, "copies": [GAUSS3] * 5, "mixed": mixed_models(5)}[form]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="hypothesis index"):
            if step == "trajectory":
                run_trajectory(uniform_log_beliefs(5, 3), RING5, models, true_index,
                               FullSharing(), 10, rng)
            else:
                run_iteration(uniform_log_beliefs(5, 3), RING5, models, true_index,
                              FullSharing(), rng)
        assert rng.bit_generator.state == state

    def test_horizon_positive(self):
        with pytest.raises(ValidationError):
            run_trajectory(uniform_log_beliefs(5, 3), RING5, GAUSS3, 0,
                           FullSharing(), 0, np.random.default_rng(0))

    def test_fractional_horizon_rejected_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="horizon must be an integer, got 2.0"):
            run_trajectory(uniform_log_beliefs(5, 3), RING5, GAUSS3, 0, FullSharing(), 2.0, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("rule", ["partial", None, 1], ids=["string", "none", "index"])
    def test_a_rule_that_is_not_a_sharing_is_a_validation_error(self, rule):
        rows = uniform_log_beliefs(5, 3)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        calls = [
            lambda: modify_for_sharing(rows, rule),
            lambda: combine_step(RING5, rows, rows, rule),
            lambda: run_trajectory(rows, RING5, GAUSS3, 0, rule, 10, rng),
            lambda: run_iteration(rows, RING5, GAUSS3, 0, rule, rng),
            lambda: run_iteration(rows, RING5, GAUSS3, 0, rule, rng,
                                  observed=(np.zeros(5), np.zeros((5, 3)))),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="sharing must be a Sharing"):
                call()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("beliefs, loglik", [
        ("list", (5, 3)), ("array", (5, 2)), ("array", (1, 3)), ("array", "list"),
    ], ids=["list_beliefs", "fewer_hypotheses", "one_row", "list_loglik"])
    def test_a_step_given_its_observations_rejects_other_shapes(self, beliefs, loglik):
        # the one-row case broadcast silently before the step checked shapes
        init = uniform_log_beliefs(5, 3)
        scored = np.zeros((5, 3)).tolist() if loglik == "list" else np.zeros(loglik)
        with pytest.raises(ValidationError):
            run_iteration(init.tolist() if beliefs == "list" else init, RING5, GAUSS3, 0,
                          PartialSharing(1), np.random.default_rng(0),
                          observed=(np.zeros(5), scored))

    @pytest.mark.parametrize("own", [(5, 2), (1, 3)], ids=["fewer_hypotheses", "one_row"])
    def test_self_aware_own_rows_of_another_shape_are_a_validation_error(self, own):
        rows = uniform_log_beliefs(5, 3)
        with pytest.raises(ValidationError, match=r"own log-beliefs of shape \(\d, \d\)"):
            combine_step(RING5, rows, np.zeros(own), SelfAwarePartialSharing(1))

    @pytest.mark.parametrize("n", [10, 250], ids=["fold", "shift"])
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_a_table_with_no_hypothesis_is_a_validation_error(self, n, rule):
        # a zero-length hypothesis axis once gave an empty table, a bare
        # TypeError or ValueError, or an invalid-value warning by rule and N
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        rows = np.zeros((n, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: modify_for_sharing(rows, rule(0)),
                         lambda: combine_step(net, rows, rows, rule(0))):
                with pytest.raises(ValidationError, match=rf"shape \({n}, 0\) hold no hypothesis"):
                    call()

    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_rows_that_are_not_a_numeric_table_are_a_validation_error(self, rule):
        # numpy once raised a bare ValueError from the shape read (ragged
        # rows) or from the copy into the workspace (text)
        net = Network.from_matrix([[0.5, 0.5], [0.5, 0.5]])
        good = np.log([[0.6, 0.4], [0.3, 0.7]])
        for rows in ([[0.0, 1.0], [0.0]], [["a", "b"], ["c", "d"]]):
            calls = [lambda: modify_for_sharing(rows, rule(0)),
                     lambda: combine_step(net, rows, good, rule(0))]
            if rule(0).self_aware:  # only a self-aware combine reads the own rows
                calls.append(lambda: combine_step(net, good, rows, rule(0)))
            for call in calls:
                with pytest.raises(ValidationError, match="not a table of numbers"):
                    call()


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
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_pool_matches_dense_recomputation(self, n, rule):
        # the textbook step, with the posterior normalized before it is shared;
        # a ring with random weights: A is not symmetric, its diagonal not constant
        strat = rule(1)
        adj = ring_adjacency(n)
        adj = adj.toarray() if issparse(adj) else adj
        weights = np.where(adj, np.random.default_rng(n).uniform(0.1, 1.0, adj.shape), 0.0)
        net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
        assert issparse(net.pool) == (n >= SPARSE_SOLVE_MIN_AGENTS)
        traj, obs = run_trajectory(uniform_log_beliefs(n, 3), net, DISC3, 0, strat, 50,
                                   np.random.default_rng(2), keep_observations=True)
        for i in range(1, 51):
            unnorm = traj[i - 1] + log_likelihood_rows(DISC3, obs[i - 1])
            psi = unnorm - np.log(np.exp(unnorm).sum(axis=1, keepdims=True))
            shared = modify_for_sharing(psi, strat)
            pooled = net.matrix.T @ shared
            if strat.self_aware:
                pooled += np.diag(net.matrix)[:, None] * (psi - shared)
            want = pooled - np.log(np.exp(pooled).sum(axis=1, keepdims=True))
            np.testing.assert_allclose(traj[i], want, rtol=0, atol=1e-12)

    def test_sparse_pool_product_is_scipys_bitwise(self):
        # a random graph with random weights: A is not symmetric, so a kernel
        # that read the pool's arrays in another format's order would differ
        rng = np.random.default_rng(300)
        adj = generate_strongly_connected_adjacency(300, 0.02, rng)
        weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)
        net = Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)
        assert issparse(net.pool) and (net.pool != net.pool.T).nnz
        for shape in [(300, 3), (2, 300, 3)]:
            shared = rng.normal(0.0, 5.0, shape)
            product = np.stack([net.pool @ table for table in shared.reshape(-1, 300, 3)])
            product = product.reshape(shape)
            got = combine_step(net, shared, None, FullSharing())
            assert got.tobytes() == (product - shift_reference(product)).tobytes()
        # scipy picks the kernel by the pool's format, and so does the step
        for pool in (net.pool, net.pool.tocsc()):
            rows, out = rng.normal(0.0, 5.0, (300, 3)), np.full((300, 3), np.nan)
            for function, args in dynamics._product_calls(pool, rows, out):
                function(*args)
            assert out.tobytes() == (pool @ rows).tobytes()

    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_large_log_likelihood_gaps_stay_normalized(self, rule):
        # means 25 apart: per-step log-likelihood gaps reach about 400, the
        # log-beliefs about -4e4, and 130 steps cross a block boundary
        fam, strat = GaussianFamily([0.0, 25.0, 50.0]), rule(0)
        traj, obs = run_trajectory(uniform_log_beliefs(5, 3), RING5, fam, 1, strat, 130,
                                   np.random.default_rng(6), keep_observations=True)
        assert np.all(np.isfinite(traj))
        assert np.max(np.abs(np.exp(traj).sum(axis=2) - 1.0)) <= 1e-12
        # the kernel updates in place, but never its inputs
        psi = traj[64] + log_likelihood_rows(fam, obs[64])
        psi_before = psi.copy()
        shared = modify_for_sharing(psi, strat)
        shared_before = shared.copy()
        combine_step(RING5, shared, psi, strat)
        assert_bitwise(psi, psi_before)
        assert_bitwise(shared, shared_before)

    def test_mixed_list_model_count_mismatch(self):
        with pytest.raises(ValidationError):
            run_iteration(uniform_log_beliefs(5, 3), RING5,
                          mixed_models(4), 0, FullSharing(), np.random.default_rng(0))

    def test_mixed_list_rejects_out_of_range_observation(self, monkeypatch):
        # a mixed list maps each group's raw draws once per block, by the
        # group's own map: shift the discrete group's off its support there
        draw = DiscreteGroup.observations

        def off_support(group, theta, u):
            return draw(group, theta, u) + 10

        monkeypatch.setattr(DiscreteGroup, "observations", off_support)
        with pytest.raises(InvalidObservationError):
            run_iteration(uniform_log_beliefs(5, 3), RING5,
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


class TestWorkspace:
    @pytest.mark.parametrize("n", [10, 199, 250], ids=["fold", "fold_199", "shift"])
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_public_calls_return_arrays_of_their_own(self, n, rule):
        # a call with a Sharing resolves a plan of its own, so no workspace
        # is shared between calls or with the caller's arrays
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        rng = np.random.default_rng(n)
        init = uniform_log_beliefs(n, 3)
        log_psi = rng.normal(0.0, 5.0, (n, 3))
        loglik = rng.normal(0.0, 1.0, (n, 3))
        sharing = rule(1)
        results = []
        for _ in range(2):
            shared = modify_for_sharing(log_psi, sharing)
            results += [
                shared,
                combine_step(net, shared, log_psi, sharing),
                run_iteration(init, net, DISC3, 0, sharing, rng, observed=(None, loglik))[0],
                *run_iteration(init, net, DISC3, 0, sharing, rng),
                *run_trajectory(init, net, DISC3, 0, sharing, 3, rng, keep_observations=True),
            ]
        arrays = results + [init, log_psi, loglik]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


    @pytest.mark.parametrize("h, n", [(h, n) for h in (2, 3, 4) for n in (10, 100)]
                             + [(3, 199), (10, 10)],
                             ids=["H2-N10", "H2-N100", "H3-N10", "H3-N100", "H4-N10", "H4-N100",
                                  "H3-N199", "H10-N10"])
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_a_planned_dense_step_allocates_no_numpy_buffer(self, n, h, rule):
        # 64 steps given one plan, on a dense pool, up to its largest size
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        rng = np.random.default_rng(n + h)
        log_b = uniform_log_beliefs(n, h)
        plan = dynamics._plan(rule(1), log_b, net)
        rows = [(None, scored) for scored in rng.normal(0.0, 1.0, (65, n, h))]
        log_b, _ = run_iteration(log_b, net, DISC3, 0, plan, rng, observed=rows[0])

        def steps(log_b):
            for row in rows[1:]:
                log_b, _ = run_iteration(log_b, net, DISC3, 0, plan, rng, observed=row)
            return log_b

        check_log_beliefs(assert_no_numpy_buffer_is_made(steps, log_b))

    @pytest.mark.parametrize("h", [3, 5], ids=lambda h: f"H{h}")
    @pytest.mark.parametrize("n", [250, 1000], ids=lambda n: f"N{n}")
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_a_planned_sparse_step_allocates_no_numpy_buffer(self, n, h, rule):
        # 64 steps given one plan, on a sparse pool, whose product scipy's
        # kernel writes into the plan's workspace; the spread write and the
        # normalization go by column
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        assert issparse(net.pool)
        rng = np.random.default_rng(n + h)
        log_b = uniform_log_beliefs(n, h)
        plan = dynamics._plan(rule(1), log_b, net)
        rows = [(None, scored) for scored in rng.normal(0.0, 1.0, (65, n, h))]
        log_b, _ = run_iteration(log_b, net, DISC3, 0, plan, rng, observed=rows[0])

        def steps(log_b):
            for row in rows[1:]:
                log_b, _ = run_iteration(log_b, net, DISC3, 0, plan, rng, observed=row)
            return log_b

        check_log_beliefs(assert_no_numpy_buffer_is_made(steps, log_b))

    @pytest.mark.parametrize("h", [2, 3, 5, 10], ids=lambda h: f"H{h}")
    @pytest.mark.parametrize("n", [10, 199, 200, 1000], ids=lambda n: f"N{n}")
    def test_the_spread_writes_by_column_and_the_normalization_by_agent_count(self, n, h):
        # a fixed tx's spread is one setitem per (N,) column at every size;
        # the normalization is one subtract per column from the sparse cutoff
        # on, and below it one setitem of the (N, 1) entry over an (N, H)
        # normalizer table and one subtract
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        plan = dynamics._plan(PartialSharing(1), np.empty((n, h)), net)
        spread = [args[0].shape for function, args in plan.modify if function is setitem]
        normalizer = [args[0].shape for function, args in plan.combine if function is setitem]
        subtracts = [args[2].shape for function, args in plan.combine
                     if function is np.subtract and np.shares_memory(args[2], plan.pooled)]
        assert spread == [(n,)] * h
        if n >= SPARSE_SOLVE_MIN_AGENTS:
            assert normalizer == [] and subtracts == [(n,)] * h
        else:
            assert normalizer == [(n, h)] and subtracts == [(n, h)]

    @pytest.mark.parametrize("h", [2, 3, 4], ids=lambda h: f"H{h}")
    @pytest.mark.parametrize("rule", [PartialSharing, SelfAwarePartialSharing],
                             ids=["partial", "self_aware"])
    def test_the_max_shift_allocates_no_numpy_buffer(self, h, rule):
        # a fixed tx's spread, 64 times, on the max shift's rows of a plan
        # built without a network, so with no pool product
        n = 250
        plan = dynamics._plan(rule(1), np.empty((n, h)))
        assert np.exp in [function for function, _ in plan.modify]  # the shift's, not the fold's
        rng = np.random.default_rng(h)
        plan.psi[...] = rng.normal(0.0, 5.0, (n, h))
        scores = rng.normal(0.0, 1.0, (64, n, h))

        def spreads():
            for scored in scores:
                np.add(plan.psi, scored, plan.psi)
                modify_for_sharing(None, plan)
            return plan.shared

        shared = assert_no_numpy_buffer_is_made(spreads)
        others = np.arange(h) != 1
        want = np.where(others, shift_reference(plan.psi, others) - np.log(h - 1), plan.psi)
        assert shared.tobytes() == want.tobytes()


def assert_no_numpy_buffer_is_made(run, *args):
    """``run(*args)``, traced: at every bytecode of pbnet.dynamics at which
    the traced total has grown, numpy's tracemalloc domain must hold no more
    buffers than it held just before the call (a buffer made and freed inside
    one numpy call, such as a copy numpy takes of an overlapping source, is
    not seen). Returns what ``run`` returns."""
    domain, source = np.lib.tracemalloc_domain, dynamics.__file__
    seen, last = [], [0]

    def bytecode(frame, event, arg):
        if event == "opcode":
            total = tracemalloc.get_traced_memory()[0]
            if total > last[0]:
                traces = tracemalloc.take_snapshot().traces
                seen.append(sum(trace.domain == domain for trace in traces))
            last[0] = total
        return bytecode

    def calls(frame, event, arg):
        if frame.f_code.co_filename == source:
            frame.f_trace_opcodes = True
            return bytecode
        return None

    tracing, tracer = tracemalloc.is_tracing(), sys.gettrace()
    if not tracing:
        tracemalloc.start()
    before = sum(trace.domain == domain for trace in tracemalloc.take_snapshot().traces)
    sys.settrace(calls)
    try:
        result = run(*args)
    finally:
        sys.settrace(tracer)
        if not tracing:
            tracemalloc.stop()
    assert seen and max(seen) <= before
    return result


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

    @pytest.mark.parametrize("self_aware", ["no", None, 0, 1, np.int64(1)])
    def test_non_bool_self_aware_rejected_at_construction(self, self_aware):
        with pytest.raises(ValidationError, match="^self_aware must be a bool"):
            Sharing(0, self_aware)

    @pytest.mark.parametrize("self_aware", [True, False, np.True_, np.False_])
    def test_bool_self_aware_accepted(self, self_aware):
        assert Sharing(0, self_aware) == Sharing(0, bool(self_aware))

    def test_rules_are_equal_by_their_two_fields(self):
        assert PartialSharing(1) == Sharing(1)
        assert Sharing(1) == PartialSharing(1)
        assert FullSharing() == Sharing()
        assert MaxBeliefSharing(self_aware=True) == Sharing("argmax", True)
        assert len({PartialSharing(1), Sharing(1)}) == 1
        assert SelfAwarePartialSharing(1) != PartialSharing(1)
        assert PartialSharing(1) != PartialSharing(2)


# -- the draw contract: run_trajectory is a loop of run_iteration ------------

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
    log_b, states, draws = init, [init], []
    for _ in range(horizon):
        log_b, xi = run_iteration(log_b, net, models, true_index, rule, loop_rng)
        states.append(log_b)
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

    @pytest.mark.parametrize("horizon", [1, 64, 65, 130])
    @pytest.mark.parametrize("first", ["gaussian", "discrete"])
    def test_mixed_list_draws_what_the_public_sampler_draws(self, horizon, first):
        # the reference draws each step group by group, each group in one
        # sample_observation call, and scores agent by agent
        models = mixed_models(7)
        if first == "discrete":
            models = models[1:] + models[:1]
        net = build_averaging_matrix(ring_adjacency(7), 0.5)
        init, rule = uniform_log_beliefs(7, 3), SelfAwarePartialSharing(2)
        rng = np.random.default_rng(horizon)
        traj, obs = run_trajectory(init, net, models, 1, rule, horizon, rng,
                                   keep_observations=True)
        groups = stack_models(models, 7)
        assert isinstance(groups[0], DiscreteGroup) == (first == "discrete")
        ref_rng = np.random.default_rng(horizon)
        log_b, states, draws = init, [init], []
        for _ in range(horizon):
            xi = np.empty(7)
            for group in groups:
                xi[group.agents] = sample_observation(group, 1, ref_rng, size=group.agents.size)
            loglik = np.array([log_likelihood_row(m, x) for m, x in zip(models, xi)])
            log_b, _ = run_iteration(log_b, net, models, 1, rule, ref_rng,
                                     observed=(xi, loglik))
            states.append(log_b)
            draws.append(xi)
        assert_bitwise(traj, np.stack(states))
        assert_bitwise(obs, np.stack(draws))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_mixed_list_does_not_depend_on_kept_observations(self):
        # 60 x 3 over 130 steps is three blocks: 64, 64 and 2 steps
        models = random_models("mixed", "discrete", 60, 3, np.random.default_rng(60))
        assert len(stack_models(models, 60)) == 2
        net = build_averaging_matrix(ring_adjacency(60), 0.5)
        assert_trajectory_is_the_step_loop(net, models, 1, FullSharing(), 130, 9)
        init, rngs = uniform_log_beliefs(60, 3), [np.random.default_rng(9) for _ in range(2)]
        kept_traj, obs = run_trajectory(init, net, models, 1, FullSharing(), 130, rngs[0],
                                        keep_observations=True)
        traj, none = run_trajectory(init, net, models, 1, FullSharing(), 130, rngs[1])
        assert_bitwise(traj, kept_traj)
        assert obs.shape == (130, 60) and none is None
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


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

    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_lone_step_nan_names_iteration_one_and_the_agent(self, monkeypatch, rule):
        score = dynamics.log_likelihood_rows

        def nan_at_agent_3(model, xi):
            table = score(model, xi)
            table[0, 3] = np.nan
            return table

        monkeypatch.setattr(dynamics, "log_likelihood_rows", nan_at_agent_3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"^iteration 1: agent 3 scored a "
                               r"non-finite log-likelihood"):
                run_iteration(uniform_log_beliefs(5, 3), RING5, DISC3, 0, rule(1),
                              np.random.default_rng(0))

    @pytest.mark.parametrize("iteration", [64, 65, 1093],
                             ids=["block_end", "block_start", "partial_block_end"])
    def test_nan_names_the_iteration_within_a_block(self, monkeypatch, iteration):
        # beliefs are checked once per 64-step block, 1093 steps being past
        # one block's 2**14 log-likelihoods at 5 x 3; the error still names
        # the step
        score = dynamics.log_likelihood_rows
        seen = [0]  # observation rows scored so far

        def nan_at_iteration(model, xi):
            table = score(model, xi)
            row = iteration - 1 - seen[0]
            if 0 <= row < len(table):
                table[row, 3] = np.nan
            seen[0] += len(table)
            return table

        monkeypatch.setattr(dynamics, "log_likelihood_rows", nan_at_iteration)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^iteration {iteration}: agent 3 scored "
                               r"a non-finite log-likelihood; agent 0: non-finite log-belief"):
                run_trajectory(uniform_log_beliefs(5, 3), RING5, DISC3, 0, PartialSharing(1),
                               1093, np.random.default_rng(0))

    @pytest.mark.parametrize("strat", SHARINGS, ids=["full", "partial", "self_aware"])
    def test_zero_probability_names_the_first_step(self, monkeypatch, strat):
        # agent 0's first observation has probability 0 under hypothesis 1 (the
        # transmitted one); the rest of the block runs on, so its NaN arithmetic may warn
        score = dynamics.log_likelihood_rows

        def zero_at_agent_0(model, xi):
            table = score(model, xi)
            table[0, 0, 1] = -np.inf
            return table

        monkeypatch.setattr(dynamics, "log_likelihood_rows", zero_at_agent_0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericalError, match=r"^iteration 1: agent 0 scored a "
                               r"non-finite log-likelihood; "):
                run_trajectory(uniform_log_beliefs(5, 3), RING5, DISC3, 0, strat, 10,
                               np.random.default_rng(0))

    @pytest.mark.parametrize("horizon", [1, 63, 64, 65, 130, 1092, 1093])
    def test_check_runs_once_per_block(self, monkeypatch, horizon):
        calls = {}
        for name in ("run_iteration", "check_log_beliefs"):
            def counted(*args, _fn=getattr(dynamics, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(dynamics, name, counted)
        run_trajectory(uniform_log_beliefs(5, 3), RING5, DISC3, 0, PartialSharing(1),
                       horizon, np.random.default_rng(0))
        # the initial beliefs, then each stored block: a run of up to
        # 2**14 // 15 = 1092 steps at 5 x 3 is one block, a longer one 64-step
        # blocks
        blocks = 1 if horizon <= 1092 else math.ceil(horizon / 64)
        assert calls == {"run_iteration": horizon, "check_log_beliefs": 1 + blocks}

    def test_check_names_the_first_bad_row(self):
        with pytest.raises(NumericalError, match="agent 1: belief normalization"):
            check_log_beliefs(np.log([[0.5, 0.5], [0.7, 0.7], [0.9, 0.9]]))

    def test_check_passes_a_table_with_no_rows(self):
        check_log_beliefs(np.zeros((0, 3)))
        check_log_beliefs(np.zeros((2, 0, 3)))

    def test_check_rejects_rows_with_no_hypotheses(self):
        # nothing sums to 0, not 1
        with pytest.raises(NumericalError, match="agent 0: belief normalization off by 1"):
            check_log_beliefs(np.zeros((3, 0)))

    def test_check_reduces_over_the_last_axis_of_a_stack(self):
        check_log_beliefs(np.log(np.full((2, 5, 3), 1 / 3)))
        stack = np.log(np.full((2, 5, 3), 1 / 3))
        stack[1, 3] = np.log([0.7, 0.7, 0.7])
        with pytest.raises(NumericalError, match=r"^row \(1, 3\): belief normalization off by"):
            check_log_beliefs(stack)
        stack[0, 2, 1] = np.nan
        with pytest.raises(NumericalError, match=r"^row \(0, 2\): non-finite log-belief"):
            check_log_beliefs(stack)

    def test_one_pass_check_keeps_its_rules(self):
        # a passing table is read by its sums and its least entry alone; a
        # table that fails still reports non-finite entries first
        table = np.log(np.full((3, 3), 1 / 3))
        table[1] = [0.0, -np.inf, -np.inf]  # exp-sums to exactly 1
        with pytest.raises(NumericalError, match=r"^agent 1: non-finite log-belief entry$"):
            check_log_beliefs(table)
        for bad in (np.inf, np.nan):
            table = np.log(np.full((3, 3), 1 / 3))
            table[2, 1] = bad
            with pytest.raises(NumericalError, match=r"^agent 2: non-finite log-belief entry$"):
                check_log_beliefs(table)
        stack = np.log(np.full((2, 4, 3), 1 / 3))
        stack[1, 2] = [-np.inf, 0.0, -np.inf]
        with pytest.raises(NumericalError, match=r"^row \(1, 2\): non-finite log-belief entry$"):
            check_log_beliefs(stack)


RING400 = build_averaging_matrix(ring_adjacency(400), 0.5)  # 400 x 3 = 1200 doubles a step
STEPS400 = 54  # 2**16 // 1200
HORIZONS = [1, 54, 55, 109, 130]


def count_calls(monkeypatch, names):
    """Count the calls ``run_trajectory`` makes to each of ``names``, as
    dynamics reads them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(dynamics, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, counted)
    return calls


class TestBlockBudget:
    # past 2**16 log-likelihoods a block is shorter than 64 steps: the 400-ring
    # at H = 3 takes 54-step blocks; below the budget blocks stay 64 steps, and
    # a run of at most 2**14 log-likelihoods in all is one block

    @pytest.mark.parametrize("rule, form", [
        *[(rule, "family") for rule in STEP_RULES],
        (PartialSharing, "copies"), (PartialSharing, "mixed"),
        (STEP_RULES[4], "mixed")],
        ids=[*(f"{r}-family" for r in RULE_IDS), "partial-copies", "partial-mixed",
             "max_belief_self_aware-mixed"])
    def test_short_blocks_equal_the_step_loop_bitwise(self, rule, form):
        # one loop of lone steps serves every horizon: a horizon's run is its prefix
        models = random_models(form, "gaussian" if form == "copies" else "discrete", 400, 3,
                               np.random.default_rng(400))
        sharing = rule(1)
        init = uniform_log_beliefs(400, 3)
        loop_rng = np.random.default_rng(7)
        log_b, states, draws, generator = init, [init], [], []
        for _ in range(max(HORIZONS)):
            log_b, xi = run_iteration(log_b, RING400, models, 2, sharing, loop_rng)
            states.append(log_b)
            draws.append(xi)
            generator.append(loop_rng.bit_generator.state)
        for horizon in HORIZONS:
            rng = np.random.default_rng(7)
            traj, obs = run_trajectory(init, RING400, models, 2, sharing, horizon, rng,
                                       keep_observations=True)
            assert_bitwise(traj, np.stack(states[:horizon + 1]))
            assert_bitwise(obs, np.stack(draws[:horizon]))
            assert rng.bit_generator.state == generator[horizon - 1]

    @pytest.mark.parametrize("iteration", [54, 55, 108, 109])
    def test_nan_names_the_iteration_and_the_agent_across_short_blocks(self, monkeypatch,
                                                                        iteration):
        score = dynamics.log_likelihood_rows
        seen = [0]  # observation rows scored so far

        def nan_at_iteration(model, xi):
            table = score(model, xi)
            row = iteration - 1 - seen[0]
            if 0 <= row < len(table):
                table[row, 3] = np.nan
            seen[0] += len(table)
            return table

        monkeypatch.setattr(dynamics, "log_likelihood_rows", nan_at_iteration)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the ring pools agent 3's NaN into its neighbours 2, 3 and 4 only
            with pytest.raises(NumericalError, match=rf"^iteration {iteration}: agent 3 scored "
                               r"a non-finite log-likelihood; agent 2: non-finite log-belief"):
                run_trajectory(uniform_log_beliefs(400, 3), RING400, DISC3, 0, PartialSharing(1),
                               130, np.random.default_rng(0))

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_draw_score_and_check_run_once_per_block(self, monkeypatch, horizon):
        calls = count_calls(monkeypatch,
                            ["sample_observation", "log_likelihood_rows", "check_log_beliefs"])
        run_trajectory(uniform_log_beliefs(400, 3), RING400, DISC3, 0, PartialSharing(1),
                       horizon, np.random.default_rng(0))
        blocks = math.ceil(horizon / STEPS400)
        # the check also reads the initial beliefs once
        assert calls == {"sample_observation": blocks, "log_likelihood_rows": blocks,
                         "check_log_beliefs": 1 + blocks}

    @pytest.mark.parametrize("n, h, horizon, steps", [
        (5, 3, 1093, 64), (5, 3, 1092, 1092), (512, 2, 130, 64), (205, 5, 130, 63),
        (400, 3, 130, 54), (1000, 3, 130, 21), (2000, 17, 3, 1)],
        ids=["5x3", "5x3_one_block", "512x2_at_budget", "205x5_past_budget", "400x3",
             "1000x3", "2000x17"])
    def test_every_block_fits_the_budget_or_is_one_step(self, monkeypatch, n, h, horizon,
                                                        steps):
        score, blocks = dynamics.log_likelihood_rows, []

        def recorded(model, xi):
            blocks.append(xi.shape)
            return score(model, xi)

        monkeypatch.setattr(dynamics, "log_likelihood_rows", recorded)
        fam = GaussianFamily(0.1 * np.arange(h))
        net = build_averaging_matrix(ring_adjacency(n), 0.5)
        run_trajectory(uniform_log_beliefs(n, h), net, fam, 0, PartialSharing(1), horizon,
                       np.random.default_rng(0))
        lengths = [shape[0] for shape in blocks]
        assert lengths == [steps] * (horizon // steps) + [horizon % steps] * (horizon % steps > 0)
        assert all(shape[1] == n for shape in blocks)
        assert all(k * n * h <= dynamics._BLOCK_DOUBLES or k == 1 for k in lengths)
        small = horizon * n * h <= dynamics._BLOCK_DOUBLES // 4
        assert (steps == horizon) == small
        assert small or (steps == 64) == (n * h <= 1024)

    @pytest.mark.parametrize("form", ["family", "mixed"])
    @pytest.mark.parametrize("n", [6, 50, 400])
    def test_the_run_size_not_the_family_mix_sets_the_blocks(self, monkeypatch, n, form):
        # 130 steps: one block on the 6-ring (2340 log-likelihoods), 64 + 64 + 2
        # steps on the 50-ring (19500), the budget's 54 + 54 + 22 on the
        # 400-ring; each group scores each block once
        score, blocks = dynamics.log_likelihood_rows, []

        def recorded(model, xi):
            blocks.append(xi.shape[0])
            return score(model, xi)

        monkeypatch.setattr(dynamics, "log_likelihood_rows", recorded)
        models = random_models(form, "discrete", n, 3, np.random.default_rng(n))
        net = build_averaging_matrix(ring_adjacency(n), 0.5)
        run_trajectory(uniform_log_beliefs(n, 3), net, models, 0, PartialSharing(1), 130,
                       np.random.default_rng(0))
        lengths = {6: [130], 50: [64, 64, 2], 400: [54, 54, 22]}[n]
        assert blocks == [k for k in lengths for _ in range(2 if form == "mixed" else 1)]

    @pytest.mark.parametrize("form", ["family", "copies", "mixed"])
    def test_a_10_ring_run_of_300_steps_is_one_block_and_the_step_loop(self, monkeypatch,
                                                                       form):
        score, blocks = dynamics.log_likelihood_rows, []

        def recorded(model, xi):
            blocks.append(xi.shape[0])
            return score(model, xi)

        monkeypatch.setattr(dynamics, "log_likelihood_rows", recorded)
        net = build_averaging_matrix(ring_adjacency(10), 0.3)
        models = random_models(form, "discrete", 10, 3, np.random.default_rng(10))
        assert_trajectory_is_the_step_loop(net, models, 0, SelfAwarePartialSharing(1), 300, 3)
        # the trajectory's one block, then the loop's 300 one-step blocks, each
        # scored once per group
        groups = 2 if form == "mixed" else 1
        assert blocks == [300] * groups + [1] * (300 * groups)


def reduce_reference(rows, where=None):
    """The log-sum-exp below the cutoff, as one reduce call."""
    if where is None:
        return np.logaddexp.reduce(rows, axis=-1, keepdims=True)
    return np.logaddexp.reduce(rows, axis=-1, keepdims=True, where=where, initial=-np.inf)


def shift_reference(rows, where=None):
    """The max-shift log-sum-exp from the cutoff on: m + log sum exp(x - m)
    over the kept columns, the exponentials added in index order."""
    kept = rows if where is None else rows[..., where]
    m = kept.max(axis=-1, keepdims=True)
    terms = np.exp(kept - m)
    total = terms[..., :1]
    for c in range(1, kept.shape[-1]):
        total = total + terms[..., c:c + 1]
    return m + np.log(total)


def shift_lse(rows, tx=None):
    """The max-shift calls a plan runs, over every column or all but ``tx``."""
    out = np.empty(rows.shape[:-1] + (1,))
    for function, args in dynamics._lse_calls(rows, out[..., 0], True, tx):
        function(*args)
    return out


def lse_paths(rows, tx=None):
    """Both log-sum-exp paths, over every column or all but ``tx``."""
    mask = None if tx is None else np.arange(rows.shape[-1]) != tx
    return {"reduce": reduce_reference(rows, mask), "shift": shift_lse(rows, tx)}


class TestColumnFold:
    """The two log-sum-exp forms: the fold, with the reduce's bits, below
    ``SPARSE_SOLVE_MIN_AGENTS`` rows per table, and the max shift over column
    views from there on."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(h=st.integers(1, 10), scale=st.sampled_from([1.0, 30.0, 1e3, 4e4]),
           data=st.data())
    def test_both_paths_match_a_40_digit_logsumexp(self, h, scale, data):
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        rows = scale * np.array(data.draw(
            st.lists(st.lists(unit, min_size=h, max_size=h), min_size=1, max_size=8),
            label="rows"))
        if h >= 2 and data.draw(st.booleans(), label="tie"):
            rows[:, data.draw(st.integers(1, h - 1), label="twin")] = rows[:, 0]
        tx = data.draw(st.integers(0, h - 1), label="tx") if h >= 2 else None
        eps = np.finfo(float).eps
        for skip in {None, tx}:
            kept = [c for c in range(h) if c != skip]
            with mpmath.workdps(40):
                exact = [mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(x)) for x in row[kept]))
                         for row in rows]
            bound = 4 * eps * np.maximum(1.0, np.abs(rows[:, kept]).max(axis=-1))
            for path, got in lse_paths(rows, skip).items():
                with mpmath.workdps(40):
                    errors = [abs(mpmath.mpf(g) - e) for g, e in zip(got[:, 0], exact)]
                assert all(err <= b for err, b in zip(errors, bound)), (path, skip)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(n=st.integers(1, 300), h=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           special=st.sampled_from([0.0, 0.02, 0.3]), data=st.data())
    def test_non_finite_entries_leave_a_non_finite_row(self, n, h, seed, special, data):
        rng = np.random.default_rng(seed)
        rows = rng.normal(0.0, 30.0, (n, h))
        hit = rng.random((n, h)) < special
        rows[hit] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 0.0], hit.sum())
        tx = data.draw(st.integers(0, h - 1), label="tx") if h >= 2 else None
        nan_rows = np.isnan(rows).any(axis=-1)
        bad_rows = ~np.isfinite(rows).all(axis=-1)
        with np.errstate(invalid="ignore"):  # NaN entries, as a run steps them
            for path, lse in lse_paths(rows).items():
                normalized = rows - lse
                # a NaN among the summed entries stays NaN, so the block check still fires
                assert np.isnan(lse[nan_rows]).all(), path
                assert not np.isfinite(normalized[bad_rows]).all(axis=-1).any(), path
                if bad_rows.any():
                    with pytest.raises(NumericalError, match="non-finite"):
                        check_log_beliefs(normalized)
            if tx is not None:
                kept_nan = np.isnan(rows[:, np.arange(h) != tx]).any(axis=-1)
                for path, rest in lse_paths(rows, tx).items():
                    assert np.isnan(rest[kept_nan]).all(), path

    def test_a_single_entry_enters_as_the_reduce_takes_it(self):
        # the reduce folds from -inf, which turns -0.0 into +0.0; the shift
        # adds log(exp(0)) = 0.0 to the entry and the fold adds 0.0, which
        # do the same
        rows = np.array([[-0.0, 1.0], [2.0, -0.0]])
        shift = shift_lse
        for tx in (0, 1):
            got = shift(rows, tx)
            assert got.tobytes() == reduce_reference(rows, np.arange(2) != tx).tobytes()
        assert shift(rows[:, :1]).tobytes() == reduce_reference(rows[:, :1]).tobytes()
        assert shift(rows[:, :1]).tobytes() == np.array([[0.0], [2.0]]).tobytes()
        # the spread of tx 0 on tables of 11 rows gives the masked reduce's
        # bits on every single, pair and triple of special values (H = 2, 3
        # and 4): the fold of the kept columns, one np.add for one column,
        # which also normalizes so
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5, 800.0, -800.0,
                    1e-300, -1e-300]
        with np.errstate(invalid="ignore"):
            for k in (1, 2, 3):
                kept = np.array(list(itertools.product(specials, repeat=k)))
                rows = np.concatenate([np.full((len(kept), 1), -1.0), kept], axis=1)
                rows = rows.reshape(-1, 11, k + 1)
                first = dynamics._plan(PartialSharing(0), rows).modify[0][0]
                assert first == (np.logaddexp if k > 1 else np.add)
                others = np.arange(k + 1) != 0
                want = np.where(others, reduce_reference(rows, others) - np.log(k), rows)
                assert modify_for_sharing(rows, PartialSharing(0)).tobytes() == want.tobytes()
                out = np.empty(len(kept))
                for function, args in dynamics._fold_calls(out, *kept.T):
                    function(*args)
                assert out.tobytes() == reduce_reference(kept)[:, 0].tobytes()
            # an H = 1 table normalizes its one column by that one np.add: a
            # stack of one-agent tables, whose pool passes each special value
            net = Network.from_matrix([[1.0]])
            shared = np.array(specials).reshape(-1, 1, 1)
            pooled = net.pool @ shared
            want = pooled - reduce_reference(pooled)
            got = combine_step(net, shared, shared, FullSharing())
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n", [10, 63, 64, 128, SPARSE_SOLVE_MIN_AGENTS - 1, SPARSE_SOLVE_MIN_AGENTS, 250],
        ids=lambda n: f"N{n}")
    @pytest.mark.parametrize("rule", STEP_RULES, ids=RULE_IDS)
    def test_seams_equal_one_reduce_per_step_bitwise(self, n, rule):
        # below the sparse pool's agent count the seams fold, with the
        # reduce's bits, from it on they give the max shift's; argmax's
        # spread is one masked reduce at every size
        lse = reduce_reference if n < SPARSE_SOLVE_MIN_AGENTS else shift_reference
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        for h in (2, 3, 4, 6):
            rng = np.random.default_rng(n)
            log_psi = rng.normal(0.0, 5.0, (n, h))
            tie = (1, 2) if h > 2 else (0, 1)
            log_psi[0, tie[0]] = log_psi[0, tie[1]]  # an argmax tie
            tx = min(2, h - 1)
            sharing = rule(tx)
            shared = modify_for_sharing(log_psi, sharing)
            if sharing.transmit is None:
                want = log_psi
            else:
                fixed = sharing.transmit == tx
                others = (np.arange(h) != tx if fixed
                          else np.argmax(log_psi, axis=-1, keepdims=True) != np.arange(h))
                rest = (lse if fixed else reduce_reference)(log_psi, others) - np.log(h - 1)
                want = np.where(others, rest, log_psi)
            assert shared.tobytes() == want.tobytes()
            pooled = net.pool @ shared
            if sharing.self_aware:
                pooled += net.diagonal[:, None] * (log_psi - shared)
            want = pooled - lse(pooled)
            assert combine_step(net, shared, log_psi, sharing).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [10, SPARSE_SOLVE_MIN_AGENTS - 1, 250],
                             ids=["fold", "fold_199", "shift"])
    def test_full_self_aware_sharing_pools_own_rows_apart_from_the_shared(self, n):
        # under Sharing(None, self_aware=True) the plan keeps the shared rows
        # apart from psi, so own rows that differ from them enter a_kk's term
        lse = reduce_reference if n < SPARSE_SOLVE_MIN_AGENTS else shift_reference
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        shared, own = np.random.default_rng(n).normal(0.0, 5.0, (2, n, 3))
        pooled = net.pool @ shared
        pooled += net.diagonal[:, None] * (own - shared)
        want = pooled - lse(pooled)
        got = combine_step(net, shared, own, Sharing(None, self_aware=True))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [10, 100, SPARSE_SOLVE_MIN_AGENTS - 1],
                             ids=lambda n: f"N{n}")
    @pytest.mark.parametrize("h", [2, 3, 4, 6], ids=lambda h: f"H{h}")
    @pytest.mark.parametrize("rule", [FullSharing, PartialSharing, SelfAwarePartialSharing],
                             ids=["full", "partial", "self_aware"])
    def test_trajectory_steps_as_the_reduce_formulas_bitwise(self, n, h, rule):
        # each step of a run, through the plan's workspace, its np.dot pool
        # product and the fold of every rule, equals the
        # step written with net.pool @ shared, the masked reduce and
        # pooled - reduce
        rng = np.random.default_rng(10 * n + h)
        fam = random_family("discrete", h, rng)
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        for tx in range(h) if rule is not FullSharing else [None]:
            sharing = rule() if tx is None else rule(tx)
            traj, obs = run_trajectory(uniform_log_beliefs(n, h), net, fam, 0, sharing, 70,
                                       np.random.default_rng(tx or 0), keep_observations=True)
            loglik = log_likelihood_rows(fam, obs)
            others = np.arange(h) != tx
            for t in range(70):
                psi = traj[t] + loglik[t]
                shared = psi if tx is None else np.where(
                    others, reduce_reference(psi, others) - np.log(h - 1), psi)
                pooled = net.pool @ shared
                if rule is SelfAwarePartialSharing:
                    pooled += net.diagonal[:, None] * (psi - shared)
                assert_bitwise(traj[t + 1], pooled - reduce_reference(pooled))

    @pytest.mark.parametrize("b, n, h", [(b, n, h) for h in (3, 5)
                                         for b, n in ((7, 10), (2, 70), (2, 199), (2, 250))],
                             ids=["7x10", "2x70", "2x199", "2x250",
                                  "7x10-H5", "2x70-H5", "2x199-H5", "2x250-H5"])
    @pytest.mark.parametrize("strat", SHARINGS, ids=["full", "partial", "self_aware"])
    def test_a_stack_steps_each_table_as_it_steps_alone(self, b, n, h, strat):
        # the path follows one table's agent count, and rows normalize over H;
        # from SPARSE_SOLVE_MIN_AGENTS agents on, the pool is sparse, the
        # log-sum-exps take the max shift and the normalization goes by column
        assert (n >= SPARSE_SOLVE_MIN_AGENTS) == (n == 250)
        rng = np.random.default_rng(n)
        log_psi = rng.normal(0.0, 5.0, (b, n, h))
        net = build_averaging_matrix(ring_adjacency(n), 0.4)
        shared = modify_for_sharing(log_psi, strat)
        pooled = combine_step(net, shared, log_psi, strat)
        assert pooled.shape == (b, n, h)
        for k in range(b):
            alone = modify_for_sharing(log_psi[k], strat)
            assert shared[k].tobytes() == alone.tobytes()
            assert pooled[k].tobytes() == combine_step(net, alone, log_psi[k], strat).tobytes()
        check_log_beliefs(pooled)


def test_a_block_failure_no_step_explains_stands_as_it_is(monkeypatch):
    # should the search for the first failing step find none, the block
    # check's own error is raised
    score = dynamics.log_likelihood_rows

    def nan_at_agent_3(model, xi):
        table = score(model, xi)
        table[0, 3] = np.nan
        return table

    monkeypatch.setattr(dynamics, "log_likelihood_rows", nan_at_agent_3)
    monkeypatch.setattr(dynamics, "_raise_first_failure", lambda *args: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^agent 0: non-finite log-belief"):
            run_trajectory(uniform_log_beliefs(5, 3), RING5, DISC3, 0, PartialSharing(1), 1,
                           np.random.default_rng(0))


REPLICA_RULES = [FullSharing(), PartialSharing(1), SelfAwarePartialSharing(1), MaxBeliefSharing()]


class TestReplicas:
    @pytest.mark.parametrize("n", [10, 150, 300])
    @pytest.mark.parametrize("form", ["gaussian", "discrete", "mixed"])
    @pytest.mark.parametrize("rule", REPLICA_RULES, ids=["full", "partial", "self_aware",
                                                         "max_belief"])
    def test_every_replica_is_its_run_bitwise(self, rule, form, n):
        # 300 agents give a sparse pool and the max shift; each replica draws
        # from its own generator and leaves it where its run leaves it
        net = build_averaging_matrix(ring_adjacency(n), 0.3)
        models = (mixed_models(n) if form == "mixed"
                  else random_family(form, 3, np.random.default_rng(n)))
        init = uniform_log_beliefs(n, 3)
        rngs = [np.random.default_rng([n, r]) for r in range(3)]
        stack = run_replicas(init, net, models, 0, rule, 40, rngs)
        assert stack.shape == (3, 41, n, 3)
        for r, rng in enumerate(rngs):
            alone = np.random.default_rng([n, r])
            assert_bitwise(stack[r], run_trajectory(init, net, models, 0, rule, 40, alone)[0])
            assert rng.bit_generator.state == alone.bit_generator.state

    def test_one_generator_is_the_trajectory(self):
        init = uniform_log_beliefs(5, 3)
        one = run_replicas(init, RING5, GAUSS3, 1, PartialSharing(2), 70,
                           (np.random.default_rng(5),))
        traj, _ = run_trajectory(init, RING5, GAUSS3, 1, PartialSharing(2), 70,
                                 np.random.default_rng(5))
        assert_bitwise(one, traj[None])

    def test_models_stack_once_and_each_block_is_checked_once(self, monkeypatch):
        # 400 x 3 takes 54-step blocks: 54 + 54 + 22 steps over 130
        calls = count_calls(monkeypatch, ["stack_models", "check_log_beliefs", "_observe"])
        run_replicas(uniform_log_beliefs(400, 3), RING400, [DISC3] * 400, 0, PartialSharing(1),
                     130, [np.random.default_rng(r) for r in range(3)])
        assert calls == {"stack_models": 1, "check_log_beliefs": 1 + 3, "_observe": 3 * 3}

    @pytest.mark.parametrize("net, iteration, first", [
        (RING5, 70, 0), (RING400, 109, 2)], ids=["one_block", "third_block"])
    def test_nan_names_the_replica_the_iteration_and_the_agent(self, monkeypatch, net,
                                                               iteration, first):
        # NaNs in replica 2 at the iteration and in replica 0 one step later:
        # the first failing iteration is named, then its replica and agent
        score, seen, planted = dynamics.log_likelihood_rows, [0] * 3, {2: (0, 3), 0: (1, 1)}
        calls = [0]

        def nan_in_two_replicas(model, xi):
            table = score(model, xi)
            replica = calls[0] % 3
            calls[0] += 1
            if replica in planted:
                later, agent = planted[replica]
                row = iteration - 1 + later - seen[replica]
                if 0 <= row < len(table):
                    table[row, agent] = np.nan
            seen[replica] += len(table)
            return table

        monkeypatch.setattr(dynamics, "log_likelihood_rows", nan_in_two_replicas)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^replica 2, iteration {iteration}: agent 3 "
                               rf"scored a non-finite log-likelihood; agent {first}: non-finite"):
                run_replicas(uniform_log_beliefs(net.size, 3), net, DISC3, 0, PartialSharing(1),
                             130, [np.random.default_rng(r) for r in range(3)])

    @pytest.mark.parametrize("case", ["no_generator", "one_generator_bare", "rule",
                                      "agents", "hypotheses"])
    def test_checks_run_before_any_draw(self, case):
        rngs = [np.random.default_rng(r) for r in range(2)]
        states = [rng.bit_generator.state for rng in rngs]
        init, rule, given = uniform_log_beliefs(5, 3), PartialSharing(1), rngs
        if case == "no_generator":
            given = []
        elif case == "one_generator_bare":
            given = rngs[0]
        elif case == "rule":
            rule = "partial"
        elif case == "agents":
            init = uniform_log_beliefs(4, 3)
        else:
            init = uniform_log_beliefs(5, 2)
        with pytest.raises(ValidationError):
            run_replicas(init, RING5, GAUSS3, 0, rule, 10, given)
        assert [rng.bit_generator.state for rng in rngs] == states
