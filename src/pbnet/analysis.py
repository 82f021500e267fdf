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
tx, then the network, then a Gaussian family's unbounded likelihood, and
only then any mixture KL. Every index, window and burn-in is checked by the
integer rule (``errors._check_integer``).

Each rule is written once. ``_called`` turns (margin, regime) pairs into the
one regime whose margin clears KL_MARGIN_TOL, Inconclusive, or an
InconsistentConditionsError; both predictors call through it.
``_iterations`` rejects a trajectory too short for its reader, naming its
iteration count, before any window or burn-in range could be empty; ``_tail``
checks a window and takes the trajectory's last rows, and ``_log_ratio``
reads one agent's log-ratio and rejects a non-finite one; the measurements
read trajectories through them. ``RegimeReport.to_dict`` is built from the
dataclass fields, with only the wire forms of the indices (Python ints) and
the regime written out.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InconsistentConditionsError,
    IndistinguishableHypothesesError,
    MeasurementError,
    ValidationError,
    _check_integer,
    _in_interval,
    _numbers,
)
from .likelihoods import LikelihoodModel, kl_divergence
from .network import Network, _network

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
        """JSON form: every field in field order, copied; hypothesis indices
        are 1-based Python ints on the wire, whatever integer type the caller
        passed, and the regime is its string."""
        return {**asdict(self), "true_index": int(self.true_index) + 1,
                "tx_index": int(self.tx_index) + 1, "predicted": self.predicted.value}


def theoretical_rate(model: LikelihoodModel, true_index: int, tx_index: int) -> float:
    """D_KL[L(true)||L(tx)] minus D_KL[L(true)||uniform complement mix of tx].

    Positive: the transmitted component decays (its log-ratio grows); negative:
    the transmitted hypothesis absorbs all belief under partial sharing.
    It is the ``rate`` of :func:`predict_partial_regime`'s report.
    """
    return predict_partial_regime(model, true_index, tx_index).rate


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


def _called(*conditions) -> Regime:
    """The regime of the one (margin, regime) pair whose margin is above
    KL_MARGIN_TOL, or Inconclusive when none is. Two such pairs predict
    contradictory limits: InconsistentConditionsError."""
    called = [regime for margin, regime in conditions if margin > KL_MARGIN_TOL]
    if len(called) > 1:
        names = " and ".join(regime.value for regime in called)
        raise InconsistentConditionsError(f"the sufficient conditions of {names} both fired")
    return called[0] if called else Regime.INCONCLUSIVE


def _report(strategy, true_index, tx_index, d_tx, d_mix, predicted, values) -> RegimeReport:
    return RegimeReport(
        strategy, true_index, tx_index, d_tx, d_mix, d_tx - d_mix, predicted, values
    )


def predict_partial_regime(
    model: LikelihoodModel, true_index: int, tx_index: int
) -> RegimeReport:
    """Regime of the partial strategy for a homogeneous model.

    One comparison of the mixture and the tx divergences: a positive
    d_mix - d_tx means tx is the easier explanation and absorbs the belief
    (at tx = true, truth learning), a negative one a uniform split over the
    hypotheses other than tx. At tx = true, d_tx is the ``point`` table's
    diagonal, exactly 0.0, so the margin is d_mix and no split can be called.
    """
    d_tx = _kl_true_vs_tx(model, true_index, tx_index)
    d_mix = _kl_true_vs_mixture(model, true_index, tx_index)
    learned = tx_index == true_index
    values = {"thm1_true" if learned else "thm1_ratio": d_mix - d_tx}
    predicted = _called((d_mix - d_tx, Regime.TRUTH_LEARNING if learned else Regime.MISLEARN_TX),
                        (d_tx - d_mix, Regime.UNIFORM_SPLIT))
    return _report("partial", true_index, tx_index, d_tx, d_mix, predicted, values)


def predict_self_aware_regime(
    model: LikelihoodModel, net: Network, true_index: int, tx_index: int
) -> RegimeReport:
    """Regime of the self-aware partial strategy.

    tx = true: truth learning when every probe mixture stays KL-separated
    from the true likelihood. tx != true: two mutually exclusive sufficient
    conditions are checked. "lem3": the tx belief collapses to zero and the
    others oscillate, when D_KL[L(true)||L(tx)] exceeds alpha/(H-1) times the
    summed divergences to the other hypotheses. alpha is exactly 1.0 on
    every network of two or more agents (see
    :func:`pbnet.network.alpha_constant`), so lem3 does not depend on the
    network. "lem4": the tx belief collapses to one, when the
    complement-mixture divergence exceeds the tx divergence plus
    bound * weight_sum; requires the finite likelihood bound, hence a
    discrete family. Neither firing yields Inconclusive: the conditions are
    sufficient, not exhaustive. ``net`` must be a Network, of two or more
    agents when tx != true (ValidationError else).
    """
    d_tx = _kl_true_vs_tx(model, true_index, tx_index)
    h = model.hypothesis_count
    _network(net)
    if tx_index != true_index:
        # rejections come before the mixture KL, numerical for a Gaussian family
        if net.size < 2:  # alpha and weight_sum are 0: both conditions would fire
            raise ValidationError("the tx != true conditions need a network of 2 or more agents")
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
        predicted = _called((values["lem3"], Regime.SUFFICIENT_COND_ZERO),
                            (values["lem4"], Regime.SUFFICIENT_COND_ONE))
    return _report("self_aware_partial", true_index, tx_index, d_tx, d_mix, predicted, values)


# -- empirical measurements ---------------------------------------------------

def _check_trajectory(log_beliefs) -> None:
    """ValidationError unless ``log_beliefs`` is a (T+1, N, H) array with no
    empty axis, of numbers by the number rule (``errors._numbers``)."""
    shape = getattr(log_beliefs, "shape", None)
    if shape is None or len(shape) != 3 or 0 in shape:
        raise ValidationError(f"log-beliefs must be a (T+1, N, H) array, got shape {shape}")
    _numbers("log-beliefs", log_beliefs)


def _iterations(log_beliefs, least: int) -> int:
    """T of a checked (T+1, N, H) trajectory; ValidationError naming T unless
    it is at least ``least``, the fewest iterations the reader needs."""
    t_max = log_beliefs.shape[0] - 1
    if t_max < least:
        raise ValidationError(
            f"the trajectory holds T = {t_max} iterations, fewer than the {least} this reader needs"
        )
    return t_max


def _tail(log_beliefs, window, least: int):
    """The last ``window`` rows of a checked trajectory; ValidationError
    unless T is at least ``least`` (``_iterations``) and ``window`` is an
    integer in [least, T]."""
    _check_integer("window", window, least, _iterations(log_beliefs, least))
    return log_beliefs[-window:]


def _log_ratio(rows, agent: int, a: int, b: int) -> np.ndarray:
    """One agent's log mu(a)/mu(b) over ``rows``; MeasurementError unless
    every entry is finite."""
    series = rows[:, agent, a] - rows[:, agent, b]
    if not np.all(np.isfinite(series)):
        raise MeasurementError("non-finite log-ratio in trajectory")
    return series


def measure_empirical_rate(
    log_beliefs: np.ndarray, theta: int, tx_index: int, burn_in: int
) -> float:
    """Least-squares slope of agent 0's log mu(theta)/mu(tx) over iterations
    (burn_in, end]. The trajectory array is (T+1, N, H) with index 0 holding
    the initial beliefs; ``burn_in`` lies in [0, T - 2], so that the fit has
    two points or more. Both indices are checked by the integer rule before
    theta != tx is.

    The slope is in closed form, sum d y / sum d^2 over the log-ratios y,
    with d each fitted iteration's offset from their mean: exact integers or
    half-integers, which sum to 0. It differs from ``np.polyfit``'s scaled
    least squares by rounding alone, at a tenth of its cost."""
    _check_trajectory(log_beliefs)
    h = log_beliefs.shape[2]
    _check_integer("theta index", theta, 0, h - 1)
    _check_integer("tx index", tx_index, 0, h - 1)
    if theta == tx_index:
        raise ValidationError("rate is defined for theta != tx")
    t_max = _iterations(log_beliefs, 2)  # a slope needs two points
    _check_integer("burn-in", burn_in, 0, t_max - 2)
    series = _log_ratio(log_beliefs[burn_in + 1:], 0, theta, tx_index)
    d = np.arange(series.size) - (series.size - 1) / 2
    return float(np.dot(d, series) / np.dot(d, d))


@dataclass(frozen=True)
class Verdict:
    """Empirical classification of a finished trajectory."""

    kind: str  # converged_to | uniform_split | oscillating | undecided
    theta: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "theta": None if self.theta is None else int(self.theta) + 1,
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
    hypotheses changing sign at least 3 times; a non-finite entry of that
    log-ratio raises MeasurementError (``_log_ratio``), as it does for
    :func:`measure_empirical_rate` and :func:`oscillation_amplitude`.
    ``threshold`` is one number in (0.5, 1) (``errors._in_interval``).
    """
    _check_trajectory(log_beliefs)
    threshold = _in_interval("threshold", threshold, 0.5, 1)
    tail = _tail(log_beliefs, window, 1)
    h = log_beliefs.shape[2]
    if tx_index is not None:
        _check_integer("tx index", tx_index, 0, h - 1)

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
                series = _log_ratio(tail, 0, others[0], others[1])
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
    tail = _tail(log_beliefs, window, 2)
    _, n, h = log_beliefs.shape
    _check_integer("agent index", agent, 0, n - 1)
    _check_integer("theta_a index", theta_a, 0, h - 1)
    _check_integer("theta_b index", theta_b, 0, h - 1)
    return float(np.std(_log_ratio(tail, agent, theta_a, theta_b)))
