"""The benchmark drives pbnet through names that must keep working: its
traced run wraps pbnet's module attributes by name (perfbench/workloads.py,
TRACE_TARGETS), its workloads build sharing rules by their old names, and
every pbnet name its scripts read must resolve."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from pbnet import dynamics
from pbnet.likelihoods import DiscreteFamily, DiscreteGroup, GaussianFamily, GaussianGroup
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


def pbnet_reads(tree):
    """(line, module name, attribute) for every pbnet name a module reads:
    each name a ``from pbnet... import`` brings in, and each attribute read
    on a pbnet module bound by ``import pbnet`` or ``from pbnet import``."""
    bound = {}  # local name -> pbnet module name
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name: a.name for a in node.names if a.name == "pbnet"})
        elif isinstance(node, ast.ImportFrom) and node.module == "pbnet":
            bound.update({a.asname or a.name: f"pbnet.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pbnet."):
            reads += [(node.lineno, node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.append((node.lineno, bound[node.value.id], node.attr))
    return reads


def test_every_pbnet_name_the_benchmark_reads_resolves():
    # a surface trim that breaks a benchmark script fails here, not in its run
    reads = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for line, module, attr in pbnet_reads(ast.parse(path.read_text(), str(path))):
            reads[f"{path.name}:{line} {module}.{attr}"] = (module, attr)
    assert len(reads) > 30  # workloads.py alone reads more; the walk found them
    gone = [where for where, (module, attr) in reads.items()
            if not hasattr(importlib.import_module(module), attr)]
    assert not gone, f"perfbench reads names pbnet no longer has: {gone}"


def test_benchmark_sharing_constructors_build_sharing_rules():
    for rule in (dynamics.FullSharing(), dynamics.PartialSharing(0),
                 dynamics.SelfAwarePartialSharing(0)):
        assert isinstance(rule, dynamics.Sharing)


GAUSS3 = GaussianFamily([0.0, 0.2, 1.0])
DISC3 = DiscreteFamily([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])


class CountingGenerator:
    """A generator whose two raw draw calls count themselves."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def standard_normal(self, *args, **kwargs):
        self._calls["generator"] += 1
        return self._rng.standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        self._calls["generator"] += 1
        return self._rng.random(*args, **kwargs)


@pytest.mark.parametrize("models, groups", [
    (GAUSS3, 1), (DISC3, 1), ([DISC3] * 60, 1), ([GAUSS3, DISC3] * 30, 2),
], ids=["gaussian", "discrete", "copies", "mixed"])
def test_seam_calls_per_trajectory(monkeypatch, models, groups):
    # perfbench divides every per-layer time by the dynamics.step count, so a
    # trajectory steps, modifies and combines once per iteration through the
    # module attributes, and scores per block, here per 64-step block of a
    # run past 2**14 log-likelihoods; one group draws a block in one
    # sample_observation call, while several make one raw generator call per
    # group and step, which sample_observation does not see, and map them
    # per block
    seams = ("run_iteration", "modify_for_sharing", "combine_step",
             "sample_observation", "log_likelihood_rows")
    calls = dict.fromkeys(seams + ("generator", "map"), 0)

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in seams:
        monkeypatch.setattr(dynamics, name, count(name, getattr(dynamics, name)))
    for group in (GaussianGroup, DiscreteGroup):
        monkeypatch.setattr(group, "observations", count("map", group.observations))
    net = build_averaging_matrix(ring_adjacency(60), 0.5)
    rng = CountingGenerator(np.random.default_rng(0), calls)
    dynamics.run_trajectory(dynamics.uniform_log_beliefs(60, 3), net, models, 0,
                            dynamics.PartialSharing(1), 130, rng)
    blocks = 3  # 64 + 64 + 2 steps
    assert calls == {"run_iteration": 130, "modify_for_sharing": 130, "combine_step": 130,
                     "sample_observation": blocks if groups == 1 else 0,
                     "generator": blocks if groups == 1 else 130 * groups,
                     "map": blocks * groups,
                     "log_likelihood_rows": blocks * groups}
