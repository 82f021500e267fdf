"""The benchmark drives pbnet through names that must keep working: its
traced run wraps pbnet's module attributes by name (perfbench/workloads.py,
TRACE_TARGETS), and its workloads build sharing rules by their old names."""

from pathlib import Path

from pbnet import dynamics

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
