"""The four benchmark workloads and the pass loop that times them.

A run repeats a fixed number of *passes*. A pass is one whole reproduction
experiment: set up (generate graphs, build every Network and family), then
perform the workload's operations. An operation is one network build, one
regime prediction or one replica (predict, simulate, classify). Every input is
drawn from generators seeded by ``SeedSequence(seed, spawn_key=...)``, so one
seed always yields the same inputs, pass by pass.

The benchmark drives pbnet from outside, in one thread, through public
functions of its four layers: ``network``, ``likelihoods``, ``dynamics`` and
``analysis``. Correctness checks (the gate) run outside the timed regions and
their time is taken out of each pass's wall time.

Timed regions use the CPU time of the one thread that runs pbnet
(``Runner.clock``, ``time.thread_time``): BLAS is pinned to that thread, and
CPU time leaves out any wait for a core. During a pass a CPU-time interval
timer (``SIGPROF``) runs a fixed reference kernel (reference.py) every
``reference.INTERVAL_S``; its time is left out of the timed regions, and each
pass's times are reported scaled by the host speed that kernel measured
during the pass. (The process CPU clock would not do: while a CPU-time timer
is armed, Linux reads it only to the scheduler tick, 4 ms.)
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np
from scipy import sparse

import oracle
import reference
from pbnet import analysis, dynamics, fixtures, likelihoods, network
from pbnet.errors import NonConvergenceError, UnboundedLikelihoodError
from tracer import Tracer

Regime = analysis.Regime

LABELS_PATH = Path(__file__).resolve().parent / "labels.json"

# Where the traced run puts its wrappers: the module attributes pbnet's own
# functions look up at call time.
TRACE_TARGETS = (
    (network, "is_strongly_connected", "network.scc"),
    (network, "perron_vector", "network.perron"),
    (network, "alpha_constant", "network.constants"),
    (network, "mislearning_weight_sum", "network.constants"),
    (dynamics, "run_iteration", "dynamics.step"),
    (dynamics, "sample_observation", "likelihoods.sample"),
    (dynamics, "log_likelihood_rows", "likelihoods.loglik"),
    (dynamics, "log_likelihood_row", "likelihoods.loglik"),
    (dynamics, "modify_for_sharing", "dynamics.modify"),
    (dynamics, "combine_step", "dynamics.combine"),
    (dynamics, "check_log_beliefs", "dynamics.check"),
    (analysis, "kl_divergence", "likelihoods.kl"),
    (likelihoods, "kl_divergence", "likelihoods.kl"),
    (likelihoods, "integrate.quad", "likelihoods.kl_quad"),
)

REGIME_CODES = {
    Regime.TRUTH_LEARNING: "T",
    Regime.MISLEARN_TX: "M",
    Regime.UNIFORM_SPLIT: "U",
    Regime.SUFFICIENT_COND_ZERO: "Z",
    Regime.SUFFICIENT_COND_ONE: "O",
    Regime.INCONCLUSIVE: "I",
}
REJECTED = "R"  # typed UnboundedLikelihoodError: an expected rejection
ERROR = "E"


def expected_verdicts(regime: Optional[Regime], true_index: int, tx_index: Optional[int]):
    """Verdicts of ``detect_convergence`` that agree with a predicted regime;
    None when only the invariants can be checked."""
    if regime is Regime.TRUTH_LEARNING:
        return {("converged_to", true_index)}
    if regime in (Regime.MISLEARN_TX, Regime.SUFFICIENT_COND_ONE):
        return {("converged_to", tx_index)}
    if regime is Regime.UNIFORM_SPLIT:
        return {("uniform_split", None)}
    if regime is Regime.SUFFICIENT_COND_ZERO:
        return {("oscillating", None), ("uniform_split", None)}
    return None


@dataclass
class Cell:
    """One simulated configuration; every replica of it shares these inputs."""

    key: str
    net: Optional[network.Network]
    models: object  # one family, or a list with one family per agent
    sharing: object
    predict: Callable[[], Optional[Regime]]
    tx_index: Optional[int]  # handed to detect_convergence
    rate_checks: tuple = ()  # (theta, ref) pairs for measure_empirical_rate
    true_index: int = 0
    horizon: int = 300

    @property
    def hypotheses(self) -> int:
        first = self.models[0] if isinstance(self.models, list) else self.models
        return first.hypothesis_count


def family_params(model):
    if isinstance(model, likelihoods.GaussianFamily):
        return model.means, True
    return model.pmf, False


# Slope fits skip the first BURN_IN steps of every trajectory.
BURN_IN = 60

# A traced run spends about this many untraced passes' time on each pass
# index: the untraced pass, and its traced twin at up to 1.4 times the cost.
TRACED_PASS_COST = 2.5
# Fewest untraced passes a run makes, so that a median over passes means
# something; a traced run needs only one pass index.
MIN_PASSES = 3


# -- the run ------------------------------------------------------------------

@dataclass
class PassLog:
    traced: bool
    setup_cpu_s: float = 0.0
    wall_cpu_s: float = 0.0
    ref_s: list = field(default_factory=list)  # reference kernel times
    digest: object = field(default_factory=lambda: hashlib.blake2b(digest_size=16))

    @property
    def host_factor(self) -> float:
        """Reference-machine seconds per CPU second of this pass."""
        return reference.NOMINAL_S / statistics.fmean(self.ref_s)

    @property
    def setup_s(self) -> float:
        return self.setup_cpu_s * self.host_factor

    @property
    def wall_s(self) -> float:
        return self.wall_cpu_s * self.host_factor


class Runner:
    """Times passes of one workload and gates their outputs."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = int(seed)
        self.tracer = Tracer()
        self.passes: list[PassLog] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.incorrect: Counter = Counter()
        self.op_times: list[float] = []  # untraced replicas or sweep predictions
        self.predict_s: list[float] = []
        self.sim_s = 0.0
        self.agent_steps = 0
        self.builds_failed_traced = 0
        self.perron_errors: dict[str, float] = {}
        self.trajectory_bytes = 0
        self._excluded_ns = 0  # benchmark-only work: checks and the reference kernel
        self._sampling = False  # whether the interval timer may run the kernel
        self._oracles: dict = {}
        self._labels = None
        self.current: Optional[PassLog] = None

    # -- inputs --------------------------------------------------------------
    def rng(self, *key: int) -> np.random.Generator:
        """Generator for one input stream of this workload and seed."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.workload.key,) + key)
        return np.random.default_rng(ss)

    # -- accounting ----------------------------------------------------------
    def _fail(self, what: str, exc: BaseException) -> None:
        """Count a failed operation. Only the workload's one named, known
        failure leaves the result correct; any other makes it incorrect."""
        self.failed += 1
        message = f"{what}: {type(exc).__name__}: {exc}"
        self.failures[message] += 1
        if (what, type(exc)) != self.workload.expected_failure:
            self._wrong(f"unexpected failure, {message}")

    def _wrong(self, message: str) -> None:
        self.incorrect[message] += 1

    @contextmanager
    def checking(self):
        """Block of benchmark-only work: untraced, never interrupted by the
        reference kernel, and left out of every timed region."""
        sampling, self._sampling = self._sampling, False
        start = time.thread_time_ns()
        try:
            with self.tracer.paused():
                yield
        finally:
            self._excluded_ns += time.thread_time_ns() - start
            self._sampling = sampling

    def clock(self) -> float:
        """CPU seconds of this thread, less all benchmark-only work."""
        return (time.thread_time_ns() - self._excluded_ns) / 1e9

    def calibrate(self) -> None:
        """Run the reference kernel once for the current pass."""
        with self.checking():
            self.current.ref_s.append(reference.run())

    def _on_timer(self, signum, frame) -> None:
        if self._sampling:
            self.calibrate()

    # -- operations ----------------------------------------------------------
    def build(self, what: str, fn: Callable[[], network.Network]):
        """One network build; a raised error is a failed operation."""
        self.attempted += 1
        try:
            with self.tracer.span("network.build"):
                net = fn()
        except Exception as exc:  # operation boundary: count it and go on
            self._fail(what, exc)
            if self.current.traced:
                self.builds_failed_traced += 1
            return None
        if self.current.traced and what not in self.perron_errors:
            with self.checking():
                self.perron_errors[what] = oracle.perron_rel_err(net.perron, net.matrix)
        return net

    def predict(self, what: str, fn: Callable[[], Optional[Regime]]):
        """One prediction. Returns (code, regime); regime is None when the
        predictor rejected the input with its typed error or failed."""
        self.attempted += 1
        t0 = self.clock()
        try:
            with self.tracer.span("analysis.predict"):
                regime = fn()
            code = REGIME_CODES[regime]
        except UnboundedLikelihoodError:
            regime, code = None, REJECTED
        except Exception as exc:  # operation boundary
            self._fail(what, exc)
            regime, code = None, ERROR
        self.predict_s.append(self.clock() - t0)
        return code, regime

    def _op_time(self, t0: float) -> None:
        if not self.current.traced:
            self.op_times.append(self.clock() - t0)

    def replica(self, cell: Cell, rng: np.random.Generator) -> None:
        """Predict, simulate and classify one replica, then gate it."""
        self.attempted += 1
        if cell.net is None:
            self._fail(cell.key, RuntimeError("its network did not build"))
            return
        n, h = cell.net.size, cell.hypotheses
        t0 = self.clock()
        try:
            with self.tracer.span("bench.replica"):
                _, regime = self.predict(cell.key, cell.predict)
                init = dynamics.uniform_log_beliefs(n, h)
                ts = self.clock()
                with self.tracer.span("dynamics.simulate"):
                    traj, _ = dynamics.run_trajectory(
                        init, cell.net, cell.models, cell.true_index, cell.sharing,
                        cell.horizon, rng,
                    )
                sim = self.clock() - ts
                with self.tracer.span("analysis.classify"):
                    verdict = analysis.detect_convergence(traj, tx_index=cell.tx_index)
                slopes = []
                for theta, ref in cell.rate_checks:
                    with self.tracer.span("analysis.rate_fit"):
                        slopes.append(analysis.measure_empirical_rate(traj, theta, ref, BURN_IN))
        except Exception as exc:  # operation boundary
            self._op_time(t0)
            self._fail(cell.key, exc)
            return
        self._op_time(t0)
        self.sim_s += sim
        self.agent_steps += n * cell.horizon
        self.trajectory_bytes = max(self.trajectory_bytes, traj.nbytes)
        with self.checking():
            problems = self._check_replica(cell, regime, traj, verdict, slopes)
            self.current.digest.update(traj)  # buffer view, no copy
            self.current.digest.update(repr((verdict.kind, verdict.theta, slopes)).encode())
        if problems:
            self.failed += 1
            for p in problems:
                self._wrong(f"{cell.key}: {p}")

    # -- the gate ------------------------------------------------------------
    def _rate_oracle(self, cell: Cell, theta: int, ref: int):
        """(reference rate, allowed deviation) for one slope, cached per cell."""
        key = (cell.key, theta, ref)
        if key not in self._oracles:
            if isinstance(cell.models, list):
                # full sharing, slope of log mu(true)/mu(ref): Sum_k v_k D_k
                moments = [oracle.full_increment_moments(*family_params(m), theta, ref)
                           for m in cell.models]
                reference = None
            else:
                # partial sharing, slope of log mu(theta)/mu(tx): theoretical_rate
                params, gaussian = family_params(cell.models)
                moments = [oracle.partial_increment_moments(params, gaussian, cell.true_index, ref)]
                moments *= cell.net.size
                reference = analysis.theoretical_rate(cell.models, cell.true_index, ref)
            mean_inc = np.array([m for m, _ in moments])
            var_inc = np.array([v for _, v in moments])
            matrix = sparse.csr_array(cell.net.matrix)
            asymptotic = float(oracle.direct_perron(matrix) @ mean_inc)
            mean, sd = oracle.slope_moments(matrix, cell.horizon, BURN_IN, mean_inc, var_inc)
            if reference is None:
                reference = asymptotic
            self._oracles[key] = (reference, abs(mean - asymptotic) + oracle.Z_SCORE * sd)
        return self._oracles[key]

    def _check_replica(self, cell, regime, traj, verdict, slopes) -> list[str]:
        problems = []
        worst = 0.0
        for start in range(0, traj.shape[0], 64):  # blocks: no full-size temporaries
            block = traj[start:start + 64]
            if not np.all(np.isfinite(block)):
                problems.append("non-finite log-belief")
                break
            worst = max(worst, float(np.max(np.abs(np.exp(block).sum(axis=2) - 1.0))))
        if worst > dynamics.BELIEF_SUM_TOL:
            problems.append(f"belief rows off normalization by {worst:.3g}")
        if verdict.kind not in ("converged_to", "uniform_split", "oscillating", "undecided"):
            problems.append(f"unknown verdict {verdict.kind!r}")
        expected = expected_verdicts(regime, cell.true_index, cell.tx_index)
        if expected is not None and (verdict.kind, verdict.theta) not in expected:
            problems.append(f"predicted {regime.value} but observed {verdict.kind}({verdict.theta})")
        for (theta, ref), slope in zip(cell.rate_checks, slopes):
            reference, allowed = self._rate_oracle(cell, theta, ref)
            if not abs(slope - reference) <= allowed:
                problems.append(
                    f"rate {slope:.5g} vs predicted {reference:.5g} (allowed +-{allowed:.3g})"
                )
        return problems

    def sweep_prediction(self, key: str, position: int, fn) -> None:
        """One regime_sweep prediction, gated against the committed label."""
        t0 = self.clock()
        code, _ = self.predict(key, fn)
        self._op_time(t0)
        with self.checking():
            if self._labels is None:
                self._labels = json.loads(LABELS_PATH.read_text())["labels"]
            cls, index = key.split("#")
            expected = self._labels[cls][int(index)][position]
            self.current.digest.update(code.encode())
        if code != expected and code != ERROR:  # errors are already counted
            self.failed += 1
            self._wrong(f"{key} prediction {position}: label {code}, committed {expected}")

    # -- the pass loop -------------------------------------------------------
    def run_pass(self, index: int, traced: bool) -> PassLog:
        log = PassLog(traced)
        self.current = log
        self.calibrate()
        # The traced pass takes the kernel's speed from its two ends only:
        # a kernel run inside a span would add to that span's time.
        self._sampling = not traced
        t0 = self.clock()
        try:
            with self.tracer.tracing(TRACE_TARGETS) if traced else nullcontext():
                with self.tracer.span("bench.pass"):
                    with self.tracer.span("bench.setup"):
                        setup = self.workload.setup(self)
                    t1 = self.clock()
                    self.workload.operations(self, setup, index)
            t2 = self.clock()
        finally:
            self._sampling = False
        self.calibrate()
        log.setup_cpu_s = t1 - t0
        log.wall_cpu_s = t2 - t0
        self.passes.append(log)
        return log

    def pass_count(self, seconds: float, trace: bool) -> int:
        """Passes that fill ``seconds`` at the speed pbnet had when the
        benchmark was defined. The count depends on ``seconds`` alone, never
        on how fast the code under test runs, so medians over passes keep
        the same sample size on every commit."""
        per_pass = self.workload.pass_s * (TRACED_PASS_COST if trace else 1)
        return max(1 if trace else MIN_PASSES, round(seconds / per_pass))

    def run(self, seconds: float, trace: bool) -> None:
        """Run ``pass_count`` passes; with ``trace``, each pass index runs
        untraced then traced on the same inputs, and the two must agree
        bitwise."""
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, reference.INTERVAL_S, reference.INTERVAL_S)
        try:
            for index in range(self.pass_count(seconds, trace)):
                plain = self.run_pass(index, traced=False)
                if trace:
                    traced = self.run_pass(index, traced=True)
                    if plain.digest.digest() != traced.digest.digest():
                        self._wrong(f"pass {index}: traced and untraced outputs differ")
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    # -- results -------------------------------------------------------------
    def end_to_end(self) -> dict:
        """Medians over the untraced passes of measured CPU times; wall_s is
        the whole pass, failed operations included."""
        plain = [p for p in self.passes if not p.traced]
        return {
            "setup_s": statistics.median(p.setup_s for p in plain),
            "wall_s": statistics.median(p.wall_s for p in plain),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        traced = [p for p in self.passes if p.traced]
        plain = [p for p in self.passes if not p.traced]
        steps = tr.calls("dynamics.step")
        preds = tr.calls("analysis.predict")

        def per(value, count):
            return value / count if count else 0.0

        return {
            "dynamics.step_self_us": per(1e3 * tr.self_ms("dynamics.step"), steps),
            "dynamics.modify_us": per(1e3 * tr.total_ms("dynamics.modify"), steps),
            "dynamics.combine_self_us": per(1e3 * tr.self_ms("dynamics.combine"), steps),
            "dynamics.check_us": per(1e3 * tr.total_ms("dynamics.check"), steps),
            "likelihoods.sample_us": per(1e3 * tr.total_ms("likelihoods.sample"), steps),
            "likelihoods.loglik_us": per(1e3 * tr.total_ms("likelihoods.loglik"), steps),
            "likelihoods.sample_calls_per_step": per(tr.calls("likelihoods.sample"), steps),
            "likelihoods.loglik_calls_per_step": per(tr.calls("likelihoods.loglik"), steps),
            "network.build_ms": per(tr.total_ms("network.build"), len(traced)),
            "network.scc_ms": per(tr.total_ms("network.scc"), len(traced)),
            "network.perron_ms": per(tr.total_ms("network.perron"), len(traced)),
            "network.constants_ms": per(tr.total_ms("network.constants"), len(traced)),
            "network.perron_rel_err": max(self.perron_errors.values(), default=0.0),
            "network.builds_failed": per(self.builds_failed_traced, len(traced)),
            "likelihoods.kl_ms": per(tr.total_ms("likelihoods.kl"), preds),
            "likelihoods.kl_calls": per(tr.calls("likelihoods.kl"), preds),
            "likelihoods.kl_quad_calls": per(tr.calls("likelihoods.kl_quad"), preds),
            "analysis.predict_ms": per(tr.total_ms("analysis.predict"), preds),
            "analysis.classify_ms": per(tr.total_ms("analysis.classify"), tr.calls("analysis.classify")),
            "analysis.rate_fit_ms": per(tr.total_ms("analysis.rate_fit"), tr.calls("analysis.rate_fit")),
            "dynamics.trajectory_mb": self.trajectory_bytes / 2**20,
            "trace.overhead_frac": statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in plain) - 1.0,
        }


# -- workloads ----------------------------------------------------------------

def uniform_sharing(kind: str, tx: int):
    if kind == "partial":
        return dynamics.PartialSharing(tx)
    return dynamics.SelfAwarePartialSharing(tx)


def regime_predictor(kind: str, model, net, true_index: int, tx: int):
    if kind == "partial":
        return lambda: analysis.predict_partial_regime(model, true_index, tx).predicted
    return lambda: analysis.predict_self_aware_regime(model, net, true_index, tx).predicted


class ReproGrid:
    """The paper's grid on a 10-agent ring with H = 3."""

    key = 1
    # Every workload states pass_s, the reported seconds of one untraced pass
    # when the benchmark was defined (Runner.pass_count), and
    # expected_failure, the (operation, error type) it knows will fail, if any.
    pass_s = 1.9
    expected_failure = None
    name = "repro_grid"
    why = ("paper grid on a 10-agent ring: per-step Python overhead dominates "
           "and every regime, verdict and rate check is exercised")
    agents = 10
    self_weights = (0.05, 0.3)
    replicas_per_cell = 2

    def setup(self, run: Runner):
        adj = network.ring_adjacency(self.agents)
        nets = {lam: run.build(f"ring-{self.agents} lam={lam}",
                               lambda lam=lam: network.build_averaging_matrix(adj, lam))
                for lam in self.self_weights}
        families = {
            "gaussian": likelihoods.GaussianFamily(fixtures.BUNDLED_GAUSSIAN_MEANS),
            "discrete": likelihoods.DiscreteFamily(fixtures.BUNDLED_DISCRETE_PMF),
        }
        cells = []
        for fname, fam in families.items():
            for tx in range(fam.hypothesis_count):
                for kind in ("partial", "self_aware"):
                    for lam, net in nets.items():
                        cells.append(Cell(
                            key=f"{fname}/tx={tx}/{kind}/lam={lam}",
                            net=net,
                            models=fam,
                            sharing=uniform_sharing(kind, tx),
                            predict=regime_predictor(kind, fam, net, 0, tx),
                            tx_index=tx,
                            rate_checks=((0, tx),) if kind == "partial" and tx != 0 else (),
                        ))
        return cells

    def operations(self, run: Runner, cells, index: int) -> None:
        for c, cell in enumerate(cells):
            for r in range(self.replicas_per_cell):
                run.replica(cell, run.rng(index, c, r))


def path_adjacency(n: int) -> np.ndarray:
    adj = np.eye(n, dtype=bool)
    i = np.arange(n - 1)
    adj[i, i + 1] = adj[i + 1, i] = True
    return adj


class LargeSparse:
    """A 1000-agent ring (3 nonzeros per column), full trajectories stored."""

    key = 2
    pass_s = 8.2
    name = "large_sparse"
    why = ("1000-agent ring, 3 nonzeros per column: dense combine, O(N^2) "
           "constants and Perron iteration dominate; setup includes the "
           "path-400 build that fails")
    agents = 1000
    path_agents = 400
    # primitive and strongly connected, but power iteration hits its cap
    expected_failure = (f"path-{path_agents}", NonConvergenceError)
    self_weight = 0.5
    tx = 1
    replicas = 4
    horizon = 150

    def setup(self, run: Runner):
        ring = network.ring_adjacency(self.agents)
        net = run.build(f"ring-{self.agents}",
                        lambda: network.build_averaging_matrix(ring, self.self_weight))
        path = path_adjacency(self.path_agents)
        run.build(f"path-{self.path_agents}",
                  lambda: network.build_averaging_matrix(path, self.self_weight))
        fam = likelihoods.DiscreteFamily(fixtures.BUNDLED_DISCRETE_PMF)
        return Cell(
            key=f"ring-{self.agents}/discrete/tx={self.tx}/partial",
            net=net,
            models=fam,
            sharing=dynamics.PartialSharing(self.tx),
            predict=regime_predictor("partial", fam, net, 0, self.tx),
            tx_index=self.tx,
            rate_checks=((0, self.tx),),
            horizon=self.horizon,
        )

    def operations(self, run: Runner, cell, index: int) -> None:
        for r in range(self.replicas):
            run.replica(cell, run.rng(index, r))


class HeteroRandom:
    """Per-agent models on a seeded random strongly connected graph, full
    sharing; the full-sharing rate Sum_k v_k D_KL is the oracle."""

    key = 3
    pass_s = 1.1
    expected_failure = None
    name = "hetero_random"
    why = ("100 agents, random graph, per-agent Gaussian and discrete models "
           "under full sharing: the per-agent likelihood loop dominates")
    agents = 100
    edge_probability = 0.05
    self_weight = 0.5
    hypotheses = 3
    support = 4
    replicas = 3

    def setup(self, run: Runner):
        rng = run.rng(0)
        adj = network.generate_strongly_connected_adjacency(self.agents, self.edge_probability, rng)
        net = run.build(f"random-{self.agents}",
                        lambda: network.build_averaging_matrix(adj, self.self_weight))
        models = []
        for k in range(self.agents):
            if k % 2 == 0:
                others = rng.uniform(0.2, 0.6, self.hypotheses - 1) * rng.choice([-1.0, 1.0], self.hypotheses - 1)
                models.append(likelihoods.GaussianFamily(np.concatenate(([0.0], others))))
            else:
                rows = rng.dirichlet(np.full(self.support, 2.0), self.hypotheses)
                models.append(likelihoods.DiscreteFamily(0.8 * rows + 0.2 / self.support))
        others = tuple(t for t in range(self.hypotheses) if t != 0)

        def predict():
            rates = [sum(v * likelihoods.kl_divergence(m, 0, theta)
                         for v, m in zip(net.perron, models)) for theta in others]
            return Regime.TRUTH_LEARNING if min(rates) > 0 else Regime.INCONCLUSIVE

        return Cell(
            key=f"random-{self.agents}/hetero/full",
            net=net,
            models=models,
            sharing=dynamics.FullSharing(),
            predict=predict,
            tx_index=None,
            rate_checks=tuple((0, theta) for theta in others),
        )

    def operations(self, run: Runner, cell, index: int) -> None:
        for r in range(self.replicas):
            run.replica(cell, run.rng(index, r))


# regime_sweep draws its families from a fixed pool so that every label can be
# committed (labels.json); the seed picks one pool entry per class.
POOL_ENTROPY = 1910_13889
POOL_SIZE = 8
SWEEP_CLASSES = (("gaussian", 3), ("gaussian", 5), ("gaussian", 10),
                 ("discrete", 3), ("discrete", 5))
SWEEP_NETWORKS = 2
SWEEP_AGENTS = 12
SWEEP_SUPPORT = 4


def pool_family(kind: str, h: int, index: int):
    ss = np.random.SeedSequence(POOL_ENTROPY, spawn_key=(0 if kind == "gaussian" else 1, h, index))
    rng = np.random.default_rng(ss)
    if kind == "gaussian":
        # jittered, shuffled grid: seed-to-seed cost of the KL quadrature stays even
        spacing = rng.uniform(0.2, 0.4)
        return likelihoods.GaussianFamily(rng.permutation(spacing * (np.arange(h) + rng.uniform(-0.3, 0.3, h))))
    rows = rng.dirichlet(np.full(SWEEP_SUPPORT, 1.5), h)
    return likelihoods.DiscreteFamily(0.7 * rows + 0.3 / SWEEP_SUPPORT)


def pool_networks(run: Optional[Runner]):
    """Seeded random networks with random column-stochastic weights."""
    nets = []
    for j in range(SWEEP_NETWORKS):
        rng = np.random.default_rng(np.random.SeedSequence(POOL_ENTROPY, spawn_key=(2, j)))
        adj = network.generate_strongly_connected_adjacency(SWEEP_AGENTS, 0.3, rng)
        weights = np.where(adj, rng.uniform(0.1, 1.0, adj.shape), 0.0)

        def build(adj=adj, weights=weights):
            return network.Network.from_matrix(weights / weights.sum(axis=0), adjacency=adj)

        nets.append(run.build(f"sweep-net-{j}", build) if run else build())
    return nets


def sweep_predictors(family, nets):
    """Every (true, tx) pair, partial predictor first, then the self-aware
    predictor on each network; the order of the committed label strings."""
    h = family.hypothesis_count
    pairs = [(t, x) for t in range(h) for x in range(h)]
    for t, x in pairs:
        yield regime_predictor("partial", family, None, t, x)
    for net in nets:
        for t, x in pairs:
            yield regime_predictor("self_aware", family, net, t, x)


class RegimeSweep:
    """Both predictors over seeded families and networks; no simulation."""

    key = 4
    pass_s = 1.5
    expected_failure = None
    name = "regime_sweep"
    why = ("both predictors over every (true, tx) pair of seeded families, "
           "H up to 10, no simulation: Gaussian KL quadrature dominates")

    def setup(self, run: Runner):
        rng = run.rng(0)
        nets = pool_networks(run)
        families = []
        for kind, h in SWEEP_CLASSES:
            index = int(rng.integers(POOL_SIZE))
            families.append((f"{kind}-{h}#{index}", pool_family(kind, h, index)))
        return SimpleNamespace(nets=nets, families=families)

    def operations(self, run: Runner, setup, index: int) -> None:
        for key, family in setup.families:
            for position, fn in enumerate(sweep_predictors(family, setup.nets)):
                run.sweep_prediction(key, position, fn)


WORKLOADS = {w.name: w for w in (ReproGrid(), LargeSparse(), HeteroRandom(), RegimeSweep())}
