"""The benchmark drives pbnet through names that must keep working: its
traced run wraps pbnet's module attributes by name (perfbench/workloads.py,
TRACE_TARGETS), and its workloads build sharing rules by their old names."""

from pathlib import Path

import numpy as np
import pytest

from pbnet import dynamics
from pbnet.likelihoods import DiscreteFamily, GaussianFamily
from pbnet.network import build_averaging_matrix, ring_adjacency

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import TRACE_TARGETS

    assert TRACE_TARGETS
    for module, attr, _ in TRACE_TARGETS:
        target = module
        for part in attr.split("."):
            target = getattr(target, part)  # AttributeError names what is gone
        assert callable(target), f"{module.__name__}.{attr} is not callable"


def test_benchmark_sharing_constructors_build_sharing_rules():
    for rule in (dynamics.FullSharing(), dynamics.PartialSharing(0),
                 dynamics.SelfAwarePartialSharing(0)):
        assert isinstance(rule, dynamics.Sharing)


GAUSS3 = GaussianFamily([0.0, 0.2, 1.0])
DISC3 = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])


@pytest.mark.parametrize("models, groups", [
    (GAUSS3, 1), (DISC3, 1), ([DISC3] * 6, 1), ([GAUSS3, DISC3] * 3, 2),
], ids=["gaussian", "discrete", "copies", "mixed"])
def test_seam_calls_per_trajectory(monkeypatch, models, groups):
    # perfbench divides every per-layer time by the dynamics.step count, so a
    # trajectory steps once per iteration and draws and scores per 64-step block
    calls = {}
    for name in ("run_iteration", "sample_observation", "log_likelihood_rows"):
        def counted(*args, _fn=getattr(dynamics, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(dynamics, name, counted)
    net = build_averaging_matrix(ring_adjacency(6), 0.5)
    dynamics.run_trajectory(dynamics.uniform_log_beliefs(6, 3), net, models, 0,
                            dynamics.PartialSharing(1), 130, np.random.default_rng(0))
    blocks = 3  # 64 + 64 + 2 steps
    draws = blocks if groups == 1 else 130 * groups
    assert calls == {"run_iteration": 130, "sample_observation": draws,
                     "log_likelihood_rows": blocks * groups}
