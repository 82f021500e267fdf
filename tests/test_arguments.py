"""The rules for integer, real, sum-to-one and object arguments. Every index,
count, window and burn-in goes through one integer rule
(``errors._check_integer``), which words its two bounds one way everywhere;
every real-valued parameter through one interval rule
(``errors._in_interval``) and every vector that sums to 1 through one sum
rule (``errors._sums_to_one``); a model or a network argument of another
type raises ValidationError rather than a bare AttributeError."""

import re

import numpy as np
import pytest

from pbnet.analysis import (
    detect_convergence,
    measure_empirical_rate,
    oscillation_amplitude,
    predict_self_aware_regime,
)
from pbnet.dynamics import (
    FullSharing,
    combine_step,
    run_iteration,
    run_trajectory,
    uniform_log_beliefs,
)
from pbnet.errors import ValidationError
from pbnet.likelihoods import (
    DiscreteFamily,
    kl_divergence,
    likelihood_bound,
    log_likelihood_rows,
    mixture_kl,
    sample_observation,
)
from pbnet.network import (
    Network,
    build_averaging_matrix,
    generate_strongly_connected_adjacency,
    ring_adjacency,
)

NET = build_averaging_matrix(ring_adjacency(3), 0.5)
DISC = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])
INIT = uniform_log_beliefs(3, 3)
TRAJ = np.log(np.full((11, 2, 3), 1 / 3))  # T = 10, two agents, three hypotheses


def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize("call, message", [
    (lambda: run_trajectory(INIT, NET, DISC, 0, FullSharing(), 0, rng()),
     "horizon must be >= 1, got 0"),
    (lambda: uniform_log_beliefs(0, 3), "n_agents must be >= 1, got 0"),
    (lambda: uniform_log_beliefs(3, -2), "n_hypotheses must be >= 1, got -2"),
    (lambda: detect_convergence(TRAJ, window=0), "window must be >= 1, got 0"),
    (lambda: detect_convergence(TRAJ, window=11), "window 11 out of range [1, 10]"),
    (lambda: oscillation_amplitude(TRAJ, 0, 1, 1), "window must be >= 2, got 1"),
    (lambda: measure_empirical_rate(TRAJ, 0, 1, 10), "burn-in 10 out of range [0, 8]"),
    (lambda: measure_empirical_rate(TRAJ, 0, 1, -1), "burn-in must be >= 0, got -1"),
    (lambda: measure_empirical_rate(TRAJ, -1, 1, 0), "theta index must be >= 0, got -1"),
    (lambda: detect_convergence(TRAJ, window=5, tx_index=np.int64(-1)),
     "tx index must be >= 0, got -1"),
    (lambda: oscillation_amplitude(TRAJ, 0, 1, 5, agent=-1), "agent index must be >= 0, got -1"),
    (lambda: oscillation_amplitude(TRAJ, -1, 1, 5), "theta_a index must be >= 0, got -1"),
    (lambda: kl_divergence(DISC, -1, 0), "hypothesis index must be >= 0, got -1"),
    (lambda: likelihood_bound(DISC, -1), "hypothesis index must be >= 0, got -1"),
    (lambda: sample_observation(DISC, -1, rng()), "hypothesis index must be >= 0, got -1"),
    (lambda: sample_observation(DISC, 3, rng()), "hypothesis index 3 out of range [0, 2]"),
    (lambda: run_trajectory(INIT, NET, DISC, -1, FullSharing(), 1, rng()),
     "hypothesis index must be >= 0, got -1"),
], ids=["horizon", "n_agents", "n_hypotheses", "window_low", "window_high",
        "amplitude_window", "burn_in_high", "burn_in_low", "theta", "tx", "agent", "theta_a",
        "kl_divergence", "likelihood_bound", "sample_low", "sample_high", "true_index"])
def test_integer_bounds_have_one_wording(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: predict_self_aware_regime("x", NET, 0, 1), "expected one likelihood family, got str"),
    (lambda: predict_self_aware_regime(DISC, "x", 0, 1), "expected a Network, got str"),
    (lambda: combine_step("x", INIT, INIT, FullSharing()), "expected a Network, got str"),
    (lambda: run_trajectory(INIT, "x", DISC, 0, FullSharing(), 3, rng()),
     "expected a Network, got str"),
    (lambda: run_iteration(INIT, "x", DISC, 0, FullSharing(), rng()),
     "expected a Network, got str"),
    (lambda: log_likelihood_rows("x", [0, 1]), "expected a likelihood family or group, got str"),
    (lambda: sample_observation([DISC], 0, rng()),
     "expected a likelihood family or group, got list"),
], ids=["self_aware_model", "self_aware_net", "combine_step", "run_trajectory",
        "run_iteration", "log_likelihood_rows", "sample_observation"])
def test_model_and_network_arguments_are_checked(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: build_averaging_matrix(NET.matrix > 0, 1.0),
     "self-weight must be one number in (0, 1), got 1.0"),
    (lambda: build_averaging_matrix(NET.matrix > 0, np.nan),
     "self-weight must be one number in (0, 1), got nan"),
    (lambda: generate_strongly_connected_adjacency(3, 0, rng()),
     "edge probability must be one number in (0, 1], got 0.0"),
    (lambda: generate_strongly_connected_adjacency(3, 1.5, rng()),
     "edge probability must be one number in (0, 1], got 1.5"),
    (lambda: detect_convergence(TRAJ, threshold=0.5, window=2),
     "threshold must be one number in (0.5, 1), got 0.5"),
    (lambda: detect_convergence(TRAJ, threshold=[0.9, 0.9], window=2),
     "threshold must be one number in (0.5, 1), got [0.9 0.9]"),
], ids=["self_weight_high", "self_weight_nan", "edge_probability_low", "edge_probability_high",
        "threshold_open_end", "threshold_two_numbers"])
def test_real_parameters_have_one_interval_wording(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_interval_closed_above_takes_its_end():
    adjacency = generate_strongly_connected_adjacency(3, 1, rng())
    assert adjacency.all()


@pytest.mark.parametrize("call, message", [
    (lambda: DiscreteFamily([[0.5, 0.5], [0.5, 0.4]]), "pmf row 1 sums to 0.9, expected 1"),
    (lambda: mixture_kl(DISC, [1.0, 0.0, 0.0], [[0.0, 0.5, 0.5], [0.2, 0.2, 0.2]]),
     "mixture weights row 1 sums to 0.6, expected 1"),
    (lambda: Network.from_matrix([[0.5, 0.5], [0.5, 0.6]]), "column 1 sums to 1.1, expected 1"),
    (lambda: Network.from_matrix([[np.nan, 0.5], [0.5, 0.5]]),
     "column 0 sums to nan, expected 1"),
], ids=["pmf_row", "mixture_row", "column", "nan_column"])
def test_vectors_that_sum_to_one_have_one_wording(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
