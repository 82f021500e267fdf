"""Convergence-regime prediction and empirical trajectory measurements.

The predictors evaluate the KL sufficient conditions for the partial and
self-aware partial strategies and classify the expected limiting behavior.
All conditions are *sufficient* only; margins inside the boundary tolerance
yield ``Inconclusive`` rather than a guess. Margins are reported as
left-minus-right of each inequality, on the KL scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InconsistentConditionsError,
    IndistinguishableHypothesesError,
    MeasurementError,
    UnboundedLikelihoodError,
    ValidationError,
)
from .likelihoods import (
    DiscreteFamily,
    LikelihoodModel,
    MixtureSpec,
    kl_divergence,
    likelihood_bound,
)
from .network import Network

#: Condition margins closer to the boundary than this are not called.
KL_MARGIN_TOL = 1e-3
#: Threshold for the truth-learning probe set of the self-aware strategy.
PROBE_TOL = 1e-6


class Regime(str, enum.Enum):
    TRUTH_LEARNING = "TruthLearning"
    MISLEARN_TX = "MislearnTx"
    UNIFORM_SPLIT = "UniformSplit"
    SUFFICIENT_COND_ZERO = "SufficientCondZero"
    SUFFICIENT_COND_ONE = "SufficientCondOne"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class RegimeReport:
    """Analytic prediction for one configuration, with the evaluated margins.

    ``rate`` is the asymptotic slope of log mu(theta)/mu(tx) under partial
    sharing: D_KL[L(true)||L(tx)] - D_KL[L(true)||mix(tx-complement)].
    ``empirical`` is never set by the library; a caller may attach measured
    values to it, and ``to_dict`` passes them through.
    """

    strategy: str
    true_index: int
    tx_index: int
    kl_true_vs_tx: float
    kl_true_vs_mixture: float
    rate: float
    predicted: Regime
    condition_values: dict = field(default_factory=dict)
    empirical: Optional[dict] = None

    def to_dict(self) -> dict:
        """JSON form; hypothesis indices are 1-based on the wire."""
        return {
            "strategy": self.strategy,
            "true_index": self.true_index + 1,
            "tx_index": self.tx_index + 1,
            "kl_true_vs_tx": self.kl_true_vs_tx,
            "kl_true_vs_mixture": self.kl_true_vs_mixture,
            "rate": self.rate,
            "predicted": self.predicted.value,
            "condition_values": dict(self.condition_values),
            "empirical": self.empirical,
        }


def theoretical_rate(model: LikelihoodModel, true_index: int, tx_index: int) -> float:
    """D_KL[L(true)||L(tx)] minus D_KL[L(true)||uniform complement mix of tx].

    Positive: the transmitted component decays (its log-ratio grows); negative:
    the transmitted hypothesis absorbs all belief under partial sharing.
    """
    h = model.hypothesis_count
    if h < 2:
        raise ValidationError("need at least two hypotheses")
    mix = MixtureSpec.uniform_complement(h, tx_index)
    return kl_divergence(model, true_index, tx_index) - kl_divergence(
        model, true_index, mix
    )


def predict_partial_regime(
    model: LikelihoodModel, true_index: int, tx_index: int
) -> RegimeReport:
    """Regime of the partial strategy for a homogeneous model.

    tx = true: truth learning iff the complement-mixture divergence is
    positive. tx != true: the sign of the rate decides between collapse onto
    tx and a uniform split over the other hypotheses.
    """
    h = model.hypothesis_count
    mix = MixtureSpec.uniform_complement(h, tx_index)
    d_tx = kl_divergence(model, true_index, tx_index)
    d_mix = kl_divergence(model, true_index, mix)
    rate = d_tx - d_mix
    values = {}
    if tx_index == true_index:
        values["thm1_true"] = d_mix
        predicted = Regime.TRUTH_LEARNING if d_mix > KL_MARGIN_TOL else Regime.INCONCLUSIVE
    else:
        if d_tx == 0.0:
            raise IndistinguishableHypothesesError(
                f"hypotheses {true_index} and {tx_index} have identical likelihoods"
            )
        # margin of mixture-vs-tx divergence: positive means tx is the easier
        # explanation and absorbs the belief
        margin = d_mix - d_tx
        values["thm1_ratio"] = margin
        if margin > KL_MARGIN_TOL:
            predicted = Regime.MISLEARN_TX
        elif margin < -KL_MARGIN_TOL:
            predicted = Regime.UNIFORM_SPLIT
        else:
            predicted = Regime.INCONCLUSIVE
    return RegimeReport(
        strategy="partial",
        true_index=true_index,
        tx_index=tx_index,
        kl_true_vs_tx=d_tx,
        kl_true_vs_mixture=d_mix,
        rate=rate,
        predicted=predicted,
        condition_values=values,
    )


def _truth_probe_margins(model: LikelihoodModel, true_index: int) -> dict:
    """KL of the true likelihood against every vertex mixture and the uniform
    one. A practical screen for the all-mixtures quantifier: necessary, and
    for these families in practice sufficient."""
    h = model.hypothesis_count
    margins = {}
    for tau in range(h):
        if tau == true_index:
            continue
        probe = MixtureSpec.vertex(h, true_index, tau)
        margins[f"vertex_{tau}"] = kl_divergence(model, true_index, probe)
    margins["uniform"] = kl_divergence(
        model, true_index, MixtureSpec.uniform_complement(h, true_index)
    )
    return margins


def predict_self_aware_regime(
    model: LikelihoodModel, net: Network, true_index: int, tx_index: int
) -> RegimeReport:
    """Regime of the self-aware partial strategy.

    tx = true: truth learning when every probe mixture stays KL-separated
    from the true likelihood. tx != true: two mutually exclusive sufficient
    conditions are checked. "lem3": the tx belief collapses to zero and the
    others oscillate, when D_KL[L(true)||L(tx)] exceeds alpha/(H-1) times the
    summed divergences to the other hypotheses. "lem4": the tx belief
    collapses to one, when the complement-mixture divergence exceeds the tx
    divergence plus bound * weight_sum; requires the finite likelihood bound,
    hence a discrete family. Neither firing yields Inconclusive: the
    conditions are sufficient, not exhaustive.
    """
    h = model.hypothesis_count
    mix = MixtureSpec.uniform_complement(h, tx_index)
    d_tx = kl_divergence(model, true_index, tx_index)
    d_mix = kl_divergence(model, true_index, mix)
    rate = d_tx - d_mix
    values = {}

    if tx_index == true_index:
        probes = _truth_probe_margins(model, true_index)
        values["thm2_probe_min"] = min(probes.values())
        predicted = (
            Regime.TRUTH_LEARNING
            if values["thm2_probe_min"] > PROBE_TOL
            else Regime.INCONCLUSIVE
        )
        return RegimeReport(
            strategy="self_aware_partial",
            true_index=true_index,
            tx_index=tx_index,
            kl_true_vs_tx=d_tx,
            kl_true_vs_mixture=d_mix,
            rate=rate,
            predicted=predicted,
            condition_values=values,
        )

    if d_tx == 0.0:
        raise IndistinguishableHypothesesError(
            f"hypotheses {true_index} and {tx_index} have identical likelihoods"
        )
    if not isinstance(model, DiscreteFamily):
        raise UnboundedLikelihoodError(
            "the self-aware mislearning condition needs a finite likelihood "
            "bound; only discrete families qualify"
        )

    other_sum = sum(
        kl_divergence(model, true_index, tau) for tau in range(h) if tau != tx_index
    )
    values["lem3"] = d_tx - (net.alpha / (h - 1)) * other_sum

    bound = likelihood_bound(model, tx_index)
    values["likelihood_bound"] = bound
    values["lem4"] = d_mix - d_tx - bound * net.weight_sum
    # reported with the weight term on the other side as well, for comparison
    # against summaries that fold it into the left side
    values["lem4_plus_weight"] = d_mix - d_tx + bound * net.weight_sum

    zero_fires = values["lem3"] > KL_MARGIN_TOL
    one_fires = values["lem4"] > KL_MARGIN_TOL
    if zero_fires and one_fires:
        raise InconsistentConditionsError(
            "both self-aware sufficient conditions fired; they predict "
            "contradictory limits"
        )
    if zero_fires:
        predicted = Regime.SUFFICIENT_COND_ZERO
    elif one_fires:
        predicted = Regime.SUFFICIENT_COND_ONE
    else:
        predicted = Regime.INCONCLUSIVE
    return RegimeReport(
        strategy="self_aware_partial",
        true_index=true_index,
        tx_index=tx_index,
        kl_true_vs_tx=d_tx,
        kl_true_vs_mixture=d_mix,
        rate=rate,
        predicted=predicted,
        condition_values=values,
    )


# -- empirical measurements ---------------------------------------------------

def measure_empirical_rate(
    log_beliefs: np.ndarray, theta: int, tx_index: int, burn_in: int
) -> float:
    """Least-squares slope of agent 1's log mu(theta)/mu(tx) over iterations
    (burn_in, end]. The trajectory array is (T+1, N, H) with index 0 holding
    the initial beliefs."""
    if theta == tx_index:
        raise ValidationError("rate is defined for theta != tx")
    t_max = log_beliefs.shape[0] - 1
    if t_max <= burn_in:
        raise ValidationError(f"trajectory length {t_max} must exceed burn-in {burn_in}")
    iters = np.arange(burn_in + 1, t_max + 1)
    series = log_beliefs[iters, 0, theta] - log_beliefs[iters, 0, tx_index]
    if not np.all(np.isfinite(series)):
        raise MeasurementError("non-finite log-ratio in trajectory")
    slope, _ = np.polyfit(iters, series, 1)
    return float(slope)


@dataclass(frozen=True)
class Verdict:
    """Empirical classification of a finished trajectory."""

    kind: str  # converged_to | uniform_split | oscillating | undecided
    theta: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "theta": None if self.theta is None else self.theta + 1,
        }


UNIFORM_SPLIT_TOL = 1e-3
TX_VANISH_TOL = 1e-3
MIN_SIGN_CHANGES = 3


def detect_convergence(
    log_beliefs: np.ndarray,
    threshold: float = 0.99,
    window: int = 100,
    tx_index: Optional[int] = None,
) -> Verdict:
    """Classify the tail of a run.

    converged_to(theta): every agent holds mu(theta) > threshold throughout
    the last ``window`` iterations. uniform_split / oscillating require a tx
    index: the tx component must stay below 1e-3 for all agents over the
    window, with the remaining components either pinned at 1/(H-1) within
    1e-3, or (oscillating) agent 1's log-ratio of the two lowest non-tx
    hypotheses changing sign at least 3 times.
    """
    if not 0.5 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0.5, 1)")
    t_max = log_beliefs.shape[0] - 1
    if window < 1 or window > t_max:
        raise ValidationError(f"window must lie in [1, {t_max}]")
    h = log_beliefs.shape[2]
    tail = log_beliefs[t_max - window + 1:]
    probs = np.exp(tail)

    log_thr = np.log(threshold)
    for theta in range(h):
        if np.all(tail[:, :, theta] > log_thr):
            return Verdict("converged_to", theta)

    if tx_index is not None and h >= 2:
        tx_gone = np.all(probs[:, :, tx_index] < TX_VANISH_TOL)
        others = [t for t in range(h) if t != tx_index]
        if tx_gone:
            target = 1.0 / (h - 1)
            if np.all(np.abs(probs[:, :, others] - target) <= UNIFORM_SPLIT_TOL):
                return Verdict("uniform_split")
            if len(others) >= 2:
                a, b = others[0], others[1]
                series = tail[:, 0, a] - tail[:, 0, b]
                changes = int(np.sum(series[:-1] * series[1:] < 0))
                if changes >= MIN_SIGN_CHANGES:
                    return Verdict("oscillating")
    return Verdict("undecided")


def oscillation_amplitude(
    log_beliefs: np.ndarray, theta_a: int, theta_b: int, window: int, agent: int = 0
) -> float:
    """Standard deviation of one agent's log mu(a)/mu(b) over the last
    ``window`` iterations."""
    t_max = log_beliefs.shape[0] - 1
    if window < 2 or window > t_max:
        raise ValidationError(f"window must lie in [2, {t_max}]")
    series = (
        log_beliefs[t_max - window + 1:, agent, theta_a]
        - log_beliefs[t_max - window + 1:, agent, theta_b]
    )
    if not np.all(np.isfinite(series)):
        raise MeasurementError("non-finite log-ratio in trajectory")
    return float(np.std(series))
