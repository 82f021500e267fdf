"""Convergence-regime prediction and empirical trajectory measurements.

The predictors evaluate the KL sufficient conditions for the partial and
self-aware partial strategies and classify the expected limiting behavior.
All conditions are *sufficient* only; margins inside the boundary tolerance
yield ``Inconclusive`` rather than a guess. Margins are reported as
left-minus-right of each inequality, on the KL scale.

The predictors and :func:`theoretical_rate` read the family's divergence
tables (see ``_Divergences`` in :mod:`pbnet.likelihoods`): ``point`` for
D_KL[L(true)||L(tau)], ``complement`` for the divergence to the uniform
mixture of every hypothesis but tx, and ``bound`` for the likelihood bound.
Each table is built whole, once per family, on its first read, so a sweep
over every (true, tx) pair computes each divergence once; the first read of
a Gaussian ``complement`` entry also resolves every entry of that table that
the Gauss-Hermite rule leaves uncertified. The predictors read public tables
only. The checks keep their order: the indices, then an indistinguishable
tx, then a Gaussian family's unbounded likelihood, and only then any mixture
KL.
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
    ValidationError,
    _check_integer,
)
from .likelihoods import (
    LikelihoodModel,
    _check_index,
    kl_divergence,
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
    d_tx = _kl_true_vs_tx(model, true_index, tx_index)
    return d_tx - _kl_true_vs_mixture(model, true_index, tx_index)


def _kl_true_vs_tx(model: LikelihoodModel, true_index: int, tx_index: int) -> float:
    """D_KL[L(true)||L(tx)], the family's ``point`` entry, after the checks
    :func:`kl_divergence` makes. For tx != true a zero divergence raises here,
    before any mixture KL runs; a Gaussian one needs a numerical rule."""
    d_tx = kl_divergence(model, true_index, tx_index)
    if tx_index != true_index and d_tx == 0.0:
        raise IndistinguishableHypothesesError(
            f"hypotheses {true_index} and {tx_index} have identical likelihoods"
        )
    return d_tx


def _kl_true_vs_mixture(model: LikelihoodModel, true_index: int, tx_index: int) -> float:
    """D_KL[L(true)||uniform mixture of every hypothesis except tx], the
    family's ``complement`` entry, for indices :func:`_kl_true_vs_tx` checked."""
    return float(model.complement[true_index, tx_index])


def _report(strategy, true_index, tx_index, d_tx, d_mix, predicted, values) -> RegimeReport:
    return RegimeReport(
        strategy, true_index, tx_index, d_tx, d_mix, d_tx - d_mix, predicted, values
    )


def predict_partial_regime(
    model: LikelihoodModel, true_index: int, tx_index: int
) -> RegimeReport:
    """Regime of the partial strategy for a homogeneous model.

    tx = true: truth learning iff the complement-mixture divergence is
    positive. tx != true: the sign of the rate decides between collapse onto
    tx and a uniform split over the other hypotheses.
    """
    d_tx = _kl_true_vs_tx(model, true_index, tx_index)
    d_mix = _kl_true_vs_mixture(model, true_index, tx_index)
    values = {}
    if tx_index == true_index:
        values["thm1_true"] = d_mix
        predicted = Regime.TRUTH_LEARNING if d_mix > KL_MARGIN_TOL else Regime.INCONCLUSIVE
    else:
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
    return _report("partial", true_index, tx_index, d_tx, d_mix, predicted, values)


def predict_self_aware_regime(
    model: LikelihoodModel, net: Network, true_index: int, tx_index: int
) -> RegimeReport:
    """Regime of the self-aware partial strategy.

    tx = true: truth learning when every probe mixture stays KL-separated
    from the true likelihood. tx != true: two mutually exclusive sufficient
    conditions are checked. "lem3": the tx belief collapses to zero and the
    others oscillate, when D_KL[L(true)||L(tx)] exceeds alpha/(H-1) times the
    summed divergences to the other hypotheses. As defined here alpha is 1
    on every network of two or more agents (see
    :func:`pbnet.network.alpha_constant`), so lem3 does not depend on the
    network. "lem4": the tx belief collapses to one, when the
    complement-mixture divergence exceeds the tx divergence plus
    bound * weight_sum; requires the finite likelihood bound, hence a
    discrete family. Neither firing yields Inconclusive: the conditions are
    sufficient, not exhaustive.
    """
    h = model.hypothesis_count
    d_tx = _kl_true_vs_tx(model, true_index, tx_index)
    if tx_index != true_index:
        # rejections come before the mixture KL, numerical for a Gaussian family
        bound = float(model.bound[tx_index])  # a Gaussian family raises
    d_mix = _kl_true_vs_mixture(model, true_index, tx_index)
    # divergences to every hypothesis except tx, as floats in index order
    others = model.point[true_index].tolist()
    del others[tx_index]
    values = {}

    if tx_index == true_index:
        # probes: every vertex of the complement simplex (a point likelihood)
        # and its uniform mixture. A screen for the all-mixtures quantifier
        # that is necessary only: L(true) may lie in the convex hull of the
        # other likelihoods, so that some mixture matches it exactly, while
        # every probe stays positive. Its TruthLearning is not certified.
        values["thm2_probe_min"] = min(others + [d_mix])
        predicted = (
            Regime.TRUTH_LEARNING
            if values["thm2_probe_min"] > PROBE_TOL
            else Regime.INCONCLUSIVE
        )
    else:
        values["lem3"] = d_tx - (net.alpha / (h - 1)) * sum(others)
        values["likelihood_bound"] = bound
        values["lem4"] = d_mix - d_tx - bound * net.weight_sum

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
    return _report("self_aware_partial", true_index, tx_index, d_tx, d_mix, predicted, values)


# -- empirical measurements ---------------------------------------------------

def _check_trajectory(log_beliefs) -> None:
    """ValidationError unless ``log_beliefs`` is a (T+1, N, H) array with no
    empty axis."""
    shape = getattr(log_beliefs, "shape", None)
    if shape is None or len(shape) != 3 or 0 in shape:
        raise ValidationError(f"log-beliefs must be a (T+1, N, H) array, got shape {shape}")


def measure_empirical_rate(
    log_beliefs: np.ndarray, theta: int, tx_index: int, burn_in: int
) -> float:
    """Least-squares slope of agent 0's log mu(theta)/mu(tx) over iterations
    (burn_in, end]. The trajectory array is (T+1, N, H) with index 0 holding
    the initial beliefs."""
    _check_trajectory(log_beliefs)
    if theta == tx_index:
        raise ValidationError("rate is defined for theta != tx")
    _check_index("theta", theta, log_beliefs.shape[2])
    _check_index("tx", tx_index, log_beliefs.shape[2])
    _check_integer("burn-in", burn_in)
    if burn_in < 0:
        raise ValidationError(f"burn-in must be >= 0, got {burn_in}")
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
    1e-3, or (oscillating) agent 0's log-ratio of the two lowest non-tx
    hypotheses changing sign at least 3 times.
    """
    _check_trajectory(log_beliefs)
    if not 0.5 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0.5, 1)")
    t_max = log_beliefs.shape[0] - 1
    _check_integer("window", window)
    if window < 1 or window > t_max:
        raise ValidationError(f"window must lie in [1, {t_max}]")
    h = log_beliefs.shape[2]
    if tx_index is not None:
        _check_index("tx", tx_index, h)
    tail = log_beliefs[t_max - window + 1:]

    log_thr = np.log(threshold)
    for theta in range(h):
        if np.all(tail[:, :, theta] > log_thr):
            return Verdict("converged_to", theta)

    if tx_index is not None and h >= 2:
        probs = np.exp(tail)
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
    _check_trajectory(log_beliefs)
    t_max = log_beliefs.shape[0] - 1
    _check_integer("window", window)
    if window < 2 or window > t_max:
        raise ValidationError(f"window must lie in [2, {t_max}]")
    _check_index("agent", agent, log_beliefs.shape[1])
    _check_index("theta_a", theta_a, log_beliefs.shape[2])
    _check_index("theta_b", theta_b, log_beliefs.shape[2])
    series = (
        log_beliefs[t_max - window + 1:, agent, theta_a]
        - log_beliefs[t_max - window + 1:, agent, theta_b]
    )
    if not np.all(np.isfinite(series)):
        raise MeasurementError("non-finite log-ratio in trajectory")
    return float(np.std(series))
