import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from pbnet.analysis import (
    Regime,
    Verdict,
    detect_convergence,
    measure_empirical_rate,
    oscillation_amplitude,
    predict_partial_regime,
    predict_self_aware_regime,
    theoretical_rate,
)
from pbnet.dynamics import (
    SelfAwarePartialSharing,
    run_trajectory,
    uniform_log_beliefs,
)
from pbnet.errors import (
    InconsistentConditionsError,
    IndistinguishableHypothesesError,
    MeasurementError,
    UnboundedLikelihoodError,
    ValidationError,
)
from pbnet import likelihoods
from pbnet.fixtures import bundled_discrete_family, bundled_gaussian_family
from pbnet.likelihoods import DiscreteFamily, GaussianFamily, kl_divergence, mixture_kl
from pbnet.network import Network, build_averaging_matrix, ring_adjacency

GAUSS3 = bundled_gaussian_family()
DISC3 = bundled_discrete_family()


class TestTheoreticalRate:
    def test_confusable_tx_is_negative(self):
        assert theoretical_rate(GAUSS3, 0, 1) == pytest.approx(-0.091, abs=0.002)

    def test_separated_tx_is_positive(self):
        assert theoretical_rate(GAUSS3, 0, 2) == pytest.approx(0.494, abs=0.002)

    def test_zero_when_tx_matches_its_complement_mixture(self):
        # middle row is exactly the average of the outer two, so L(tx) and
        # the complement mixture coincide as distributions
        fam = DiscreteFamily([[0.6, 0.3, 0.1], [0.4, 0.3, 0.3], [0.2, 0.3, 0.5]])
        assert theoretical_rate(fam, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_indistinguishable_raises(self):
        fam = DiscreteFamily([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(IndistinguishableHypothesesError):
            theoretical_rate(fam, 0, 1)

    def test_antisymmetric_under_role_swap(self):
        swapped = mixture_kl(GAUSS3, [1.0, 0, 0], [0.5, 0.5, 0]) - kl_divergence(GAUSS3, 0, 2)
        assert swapped == pytest.approx(-theoretical_rate(GAUSS3, 0, 2), abs=1e-12)


class TestPredictPartial:
    def test_truth_learning_when_tx_is_true(self):
        rep = predict_partial_regime(GAUSS3, 0, 0)
        assert rep.predicted is Regime.TRUTH_LEARNING
        assert rep.condition_values["thm1_true"] > 0.1

    def test_mislearn_when_tx_confusable(self):
        rep = predict_partial_regime(GAUSS3, 0, 1)
        assert rep.predicted is Regime.MISLEARN_TX
        assert rep.rate == pytest.approx(-0.091, abs=0.002)
        assert rep.condition_values["thm1_ratio"] == pytest.approx(0.091, abs=0.002)

    def test_uniform_split_when_tx_separated(self):
        rep = predict_partial_regime(GAUSS3, 0, 2)
        assert rep.predicted is Regime.UNIFORM_SPLIT
        assert rep.rate == pytest.approx(0.494, abs=0.002)

    def test_inconclusive_near_boundary(self):
        # symmetric means: tx equidistant, rate numerically tiny
        fam = GaussianFamily([0.0, 0.05, -0.05])
        rep = predict_partial_regime(fam, 0, 1)
        assert abs(rep.rate) < 2e-3
        assert rep.predicted is Regime.INCONCLUSIVE

    def test_indistinguishable_raises(self):
        fam = DiscreteFamily([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(IndistinguishableHypothesesError):
            predict_partial_regime(fam, 0, 1)

    def test_indistinguishable_rejected_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran for a rejected input")

        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=no_quadrature))
        with pytest.raises(IndistinguishableHypothesesError):
            predict_partial_regime(GaussianFamily([0.0, 0.0, 1.0]), 0, 1)

    def test_indistinguishable_rejected_before_the_rule(self, monkeypatch):
        def no_rule(*args, **kwargs):
            raise AssertionError("the Gauss-Hermite rule ran for a rejected input")

        monkeypatch.setattr(GaussianFamily, "_mixture_table", no_rule)
        with pytest.raises(IndistinguishableHypothesesError):
            predict_partial_regime(GaussianFamily([0.0, 0.0, 1.0]), 0, 1)

    def test_tx_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            predict_partial_regime(GAUSS3, 0, 3)

    def test_report_json_round_trip(self):
        rep = predict_partial_regime(GAUSS3, 0, 1)
        d = rep.to_dict()
        assert d["true_index"] == 1 and d["tx_index"] == 2  # 1-based on the wire
        assert d["predicted"] == "MislearnTx"
        assert d["rate"] == rep.rate


class TestPredictSelfAware:
    def setup_method(self):
        self.net = build_averaging_matrix(ring_adjacency(10), 0.03)

    def test_report_json_round_trip(self):
        rep = predict_self_aware_regime(DISC3, self.net, 0, 1)
        rep.empirical = {"slope": -0.25, "verdict": Verdict("uniform_split").to_dict()}
        d = rep.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert list(d) == [f.name for f in dataclasses.fields(rep)]
        assert d["strategy"] == "self_aware_partial" and d["predicted"] == "SufficientCondOne"
        assert d["true_index"] == 1 and d["tx_index"] == 2  # 1-based on the wire
        for name in ("kl_true_vs_tx", "kl_true_vs_mixture", "rate", "empirical"):
            assert d[name] == getattr(rep, name)
        assert list(d["condition_values"]) == ["lem3", "likelihood_bound", "lem4"]
        assert d["condition_values"] == rep.condition_values
        assert d["condition_values"] is not rep.condition_values
        assert d["empirical"]["verdict"] == {"kind": "uniform_split", "theta": None}

    def test_truth_learning_probes(self):
        rep = predict_self_aware_regime(DISC3, self.net, 0, 0)
        assert rep.predicted is Regime.TRUTH_LEARNING
        assert rep.condition_values["thm2_probe_min"] > 1e-6

    def test_mislearning_condition_fires_for_confusable_tx(self):
        rep = predict_self_aware_regime(DISC3, self.net, 0, 1)
        assert rep.predicted is Regime.SUFFICIENT_COND_ONE
        assert rep.condition_values["lem4"] > 0.1
        assert rep.condition_values["lem3"] < 0
        # the bound itself ships with the fixture and is self-computed
        assert rep.condition_values["likelihood_bound"] == pytest.approx(
            math.log(0.8 / 0.024), abs=1e-12
        )

    def test_collapse_condition_fires_for_separated_tx(self):
        rep = predict_self_aware_regime(DISC3, self.net, 0, 2)
        assert rep.predicted is Regime.SUFFICIENT_COND_ZERO
        assert rep.condition_values["lem3"] > 1.0

    def test_collapse_condition_is_two_sided(self):
        # the weight-sum term vanishes as the self-weight goes to zero, so
        # mixture-dominance alone decides
        net = build_averaging_matrix(ring_adjacency(10), 0.01)
        rep = predict_self_aware_regime(DISC3, net, 0, 1)
        assert rep.predicted is Regime.SUFFICIENT_COND_ONE

    def test_gaussian_family_rejected_for_mislearning_check(self):
        with pytest.raises(UnboundedLikelihoodError):
            predict_self_aware_regime(GAUSS3, self.net, 0, 1)

    def test_gaussian_rejected_before_any_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran for a rejected input")

        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=no_quadrature))
        with pytest.raises(UnboundedLikelihoodError):
            predict_self_aware_regime(GAUSS3, self.net, 0, 1)

    def test_gaussian_rejected_before_the_rule(self, monkeypatch):
        def no_rule(*args, **kwargs):
            raise AssertionError("the Gauss-Hermite rule ran for a rejected input")

        monkeypatch.setattr(GaussianFamily, "_mixture_table", no_rule)
        with pytest.raises(UnboundedLikelihoodError):
            predict_self_aware_regime(GAUSS3, self.net, 0, 1)

    def test_truth_learning_runs_one_quadrature(self, monkeypatch):
        calls = []

        def counted_rule(*args, **kwargs):
            calls.append("rule")
            return rule(*args, **kwargs)

        def counted_quad(*args, **kwargs):
            calls.append("quad")
            return quad(*args, **kwargs)

        rule, quad = GaussianFamily._mixture_table, likelihoods.integrate.quad
        monkeypatch.setattr(GaussianFamily, "_mixture_table", counted_rule)
        monkeypatch.setattr(likelihoods, "integrate", SimpleNamespace(quad=counted_quad))
        # a fresh family: a family's tables outlive the test that built them
        rep = predict_self_aware_regime(bundled_gaussian_family(), self.net, 0, 0)
        assert rep.predicted is Regime.TRUTH_LEARNING
        # one rule evaluation builds the complement table, which the uniform
        # probe shares; the rule certifies every entry
        assert calls == ["rule"]

    def test_gaussian_family_fine_when_tx_is_true(self):
        rep = predict_self_aware_regime(GAUSS3, self.net, 0, 0)
        assert rep.predicted is Regime.TRUTH_LEARNING

    def test_both_conditions_firing_is_an_error(self):
        # cannot happen for alpha = 1 (averaging rule); force a tiny alpha to
        # exercise the guard
        fam = DiscreteFamily([[0.60, 0.30, 0.10],
                              [0.55, 0.33, 0.12],
                              [0.05, 0.15, 0.80]])
        broken = dataclasses.replace(self.net, alpha=1e-4, weight_sum=0.0)
        with pytest.raises(InconsistentConditionsError):
            predict_self_aware_regime(fam, broken, 0, 1)

    def test_one_agent_network_rejected_for_tx_other_than_true(self):
        # alpha and weight_sum are 0 on one agent, so both conditions would fire
        one = Network.from_matrix([[1.0]])
        fam = bundled_discrete_family()
        with pytest.raises(ValidationError, match="network of 2 or more agents"):
            predict_self_aware_regime(fam, one, 0, 1)
        assert "complement" not in vars(fam)  # rejected before any mixture KL
        assert predict_self_aware_regime(fam, one, 0, 0) == predict_self_aware_regime(
            fam, self.net, 0, 0)

    def test_margins_monotone_in_self_weight(self):
        # over an averaging-rule grid: alpha stays 1 so the lem3 margin is
        # constant; the lem4 right side grows with lambda so its margin falls
        lams = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
        lem3s, lem4s = [], []
        for lam in lams:
            net = build_averaging_matrix(ring_adjacency(8), lam)
            rep_sep = predict_self_aware_regime(DISC3, net, 0, 2)
            lem3s.append(rep_sep.condition_values["lem3"])
            try:
                rep_conf = predict_self_aware_regime(DISC3, net, 0, 1)
                lem4s.append(rep_conf.condition_values["lem4"])
            except InconsistentConditionsError:  # pragma: no cover
                pytest.fail("conditions must stay exclusive on this grid")
        np.testing.assert_allclose(lem3s, lem3s[0], atol=1e-9)
        assert all(a > b for a, b in zip(lem4s, lem4s[1:]))

    def test_prediction_matches_simulation_for_mislearning(self):
        # one medium run of the self-aware engine lands on the predicted limit
        rep = predict_self_aware_regime(DISC3, self.net, 0, 1)
        assert rep.predicted is Regime.SUFFICIENT_COND_ONE
        traj, _ = run_trajectory(uniform_log_beliefs(10, 3), self.net, DISC3, 0,
                                 SelfAwarePartialSharing(1), 800,
                                 np.random.default_rng(5))
        verdict = detect_convergence(traj, threshold=0.99, window=100, tx_index=1)
        assert verdict == Verdict("converged_to", 1)


class TestEmpiricalRate:
    def test_exact_linear_slope(self):
        t = np.arange(101)
        log_b = np.zeros((101, 2, 2))
        log_b[:, 0, 0] = 0.3 * t
        log_b[:, 0, 1] = 0.0
        assert measure_empirical_rate(log_b, 0, 1, 10) == pytest.approx(0.3, abs=1e-9)

    def test_truth_ratio_slope_is_negative_under_full_info(self):
        log_b = np.zeros((51, 1, 2))
        log_b[:, 0, 1] = -0.2 * np.arange(51)  # wrong hypothesis decays
        assert measure_empirical_rate(log_b, 1, 0, 5) < 0

    def test_burn_in_bounds(self):
        log_b = np.zeros((11, 1, 2))
        with pytest.raises(ValidationError):
            measure_empirical_rate(log_b, 0, 1, 10)
        with pytest.raises(ValidationError):
            measure_empirical_rate(log_b, 1, 1, 2)

    def test_negative_burn_in_rejected(self):
        # a negative burn-in would wrap its indices to the end of the series
        log_b = np.zeros((21, 1, 2))
        log_b[:, 0, 0] = 0.3 * np.arange(21)
        assert measure_empirical_rate(log_b, 0, 1, 0) == pytest.approx(0.3, abs=1e-9)
        with pytest.raises(ValidationError, match="burn-in must be >= 0"):
            measure_empirical_rate(log_b, 0, 1, -5)
        with pytest.raises(ValidationError, match="burn-in must be an integer, got 1.5"):
            measure_empirical_rate(log_b, 0, 1, 1.5)

    def test_one_point_fit_rejected(self):
        # a slope needs two points: the burn-in lies in [0, T - 2]
        log_b = np.log(np.full((11, 1, 2), 0.5))
        with pytest.raises(ValidationError, match=r"^burn-in 9 out of range \[0, 8\]$"):
            measure_empirical_rate(log_b, 0, 1, 9)
        assert measure_empirical_rate(log_b, 0, 1, 8) == 0.0

    def test_non_finite_raises(self):
        log_b = np.zeros((21, 1, 2))
        log_b[15, 0, 0] = -np.inf
        with pytest.raises(MeasurementError):
            measure_empirical_rate(log_b, 0, 1, 2)


def synth_beliefs(prob_rows, repeats):
    """(T, N, H) log-beliefs repeating the given per-agent probability rows."""
    rows = np.log(np.asarray(prob_rows, dtype=float))
    return np.tile(rows, (repeats, 1, 1))


class TestDetectConvergence:
    def test_converged_to_truth(self):
        log_b = synth_beliefs([[1 - 2e-9, 1e-9, 1e-9]] * 3, 101)
        v = detect_convergence(log_b, threshold=0.99, window=100)
        assert v == Verdict("converged_to", 0)
        assert v.to_dict() == {"kind": "converged_to", "theta": 1}

    def test_uniform_split(self):
        eps = 5e-4
        row = [eps, (1 - eps) / 2, (1 - eps) / 2]
        log_b = synth_beliefs([row] * 2, 60)
        v = detect_convergence(log_b, threshold=0.99, window=50, tx_index=0)
        assert v == Verdict("uniform_split")

    def test_oscillating(self):
        # tx component pinned near zero, the other two swapping dominance
        frames = []
        for i in range(80):
            r = 0.4 * (-1) ** i
            row = np.array([r / 2, -r / 2, math.log(1e-6)])
            row -= np.logaddexp.reduce(row)
            frames.append([row, row])
        log_b = np.array(frames)
        v = detect_convergence(log_b, threshold=0.99, window=60, tx_index=2)
        assert v == Verdict("oscillating")

    def test_undecided(self):
        log_b = synth_beliefs([[0.6, 0.3, 0.1]], 30)
        v = detect_convergence(log_b, threshold=0.99, window=20, tx_index=2)
        assert v == Verdict("undecided")

    def test_parameter_validation(self):
        log_b = synth_beliefs([[0.5, 0.5]], 10)
        with pytest.raises(ValidationError):
            detect_convergence(log_b, threshold=0.4)
        with pytest.raises(ValidationError):
            detect_convergence(log_b, window=40)
        with pytest.raises(ValidationError, match="window must be an integer, got 2.5"):
            detect_convergence(log_b, window=2.5)


class TestOscillationAmplitude:
    def test_alternating_series_amplitude(self):
        frames = []
        for i in range(100):
            r = 0.5 * (-1) ** i
            row = np.array([r / 2, -r / 2])
            frames.append([row - np.logaddexp.reduce(row)])
        log_b = np.array(frames)
        # log-ratio alternates between +0.5 and -0.5: std is 0.5
        assert oscillation_amplitude(log_b, 0, 1, window=50) == pytest.approx(0.5, abs=1e-9)

    def test_window_validation(self):
        log_b = np.zeros((10, 1, 2))
        with pytest.raises(ValidationError):
            oscillation_amplitude(log_b, 0, 1, window=20)
        with pytest.raises(ValidationError, match="window must be an integer, got 2.5"):
            oscillation_amplitude(log_b, 0, 1, window=2.5)


@pytest.mark.parametrize("measure, name", [
    (lambda b: measure_empirical_rate(b, 5, 1, 5), "theta index 5"),
    (lambda b: measure_empirical_rate(b, 0, 4, 5), "tx index 4"),
    (lambda b: detect_convergence(b, window=5, tx_index=7), "tx index 7"),
    (lambda b: oscillation_amplitude(b, 0, 1, 5, agent=9), "agent index 9"),
    (lambda b: oscillation_amplitude(b, 0, 3, 5), "theta_b index 3"),
    (lambda b: oscillation_amplitude(b, 0.5, 1, 5), "theta_a index must be an integer"),
], ids=["rate_theta", "rate_tx", "convergence_tx", "amplitude_agent", "amplitude_theta",
        "amplitude_fraction"])
def test_out_of_range_index_is_a_validation_error(measure, name):
    log_b = synth_beliefs([[0.5, 0.3, 0.2]] * 2, 20)
    with pytest.raises(ValidationError, match=name):
        measure(log_b)


@pytest.mark.parametrize("measure", [
    lambda b: measure_empirical_rate(b, 0, 1, 1),
    lambda b: detect_convergence(b, window=2),
    lambda b: oscillation_amplitude(b, 0, 1, 2),
], ids=["rate", "convergence", "amplitude"])
@pytest.mark.parametrize("log_b", [
    np.zeros((5, 3)), np.zeros((5, 2, 3, 1)), np.zeros((5, 0, 3)), np.zeros((5, 2, 0)),
    np.zeros((5, 2, 3)).tolist(),
], ids=["2d", "4d", "no_agents", "no_hypotheses", "list"])
def test_trajectory_must_be_three_dimensional(measure, log_b):
    with pytest.raises(ValidationError, match=r"^log-beliefs must be a \(T\+1, N, H\)"):
        measure(log_b)


@pytest.mark.parametrize("measure, log_b, iterations, least", [
    (lambda b: oscillation_amplitude(b, 0, 1, 2), np.zeros((2, 1, 2)), 1, 2),
    (lambda b: measure_empirical_rate(b, 0, 1, 0), np.zeros((2, 1, 2)), 1, 2),
    (lambda b: detect_convergence(b, window=1), np.zeros((1, 1, 2)), 0, 1),
], ids=["amplitude", "rate", "convergence"])
def test_a_trajectory_too_short_for_its_reader_names_its_length(measure, log_b, iterations, least):
    # no window or burn-in fits, so the error names the trajectory, not an empty range
    message = f"the trajectory holds T = {iterations} iterations, fewer than the {least} this reader needs"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        measure(log_b)


def test_json_forms_take_numpy_indices():
    # the integer rule accepts numpy integers; the wire forms write Python ints
    net = build_averaging_matrix(ring_adjacency(10), 0.03)
    reports = [predict_partial_regime(GAUSS3, np.int64(0), np.int64(1)),
               predict_self_aware_regime(DISC3, net, np.int64(0), np.int32(1))]
    for d in [rep.to_dict() for rep in reports]:
        assert json.loads(json.dumps(d)) == d
        assert (d["true_index"], d["tx_index"]) == (1, 2)
    d = Verdict("converged_to", np.int64(2)).to_dict()
    assert json.loads(json.dumps(d)) == d == {"kind": "converged_to", "theta": 3}


@pytest.mark.parametrize("measure", [
    lambda b: detect_convergence(b, window=10, tx_index=2),
    lambda b: measure_empirical_rate(b, 0, 1, 9),
    lambda b: oscillation_amplitude(b, 0, 1, 10),
], ids=["convergence", "rate", "amplitude"])
def test_the_readers_agree_on_a_non_finite_log_ratio(measure):
    # agent 0's mu(0) is exactly 0 every other step: detect_convergence read
    # the log-ratio's flips to -inf as sign changes, and called it oscillating
    frames = np.log([[0.999, 0.0005, 0.0005], [1.0, 0.9995, 0.0005]] * 10)[:, None]
    frames[1::2, 0, 0] = -np.inf
    with pytest.raises(MeasurementError, match="^non-finite log-ratio in trajectory"):
        measure(frames)


def test_amplitude_over_a_non_finite_log_ratio_is_a_measurement_error():
    log_b = np.full((10, 1, 2), np.log(0.5))
    log_b[-1, 0, 1] = -np.inf
    with pytest.raises(MeasurementError, match="^non-finite log-ratio in trajectory"):
        oscillation_amplitude(log_b, 0, 1, window=5)
