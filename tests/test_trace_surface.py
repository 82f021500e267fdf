"""The benchmark's traced run wraps pbnet's module attributes by name
(perfbench/workloads.py, TRACE_TARGETS); every one of them must exist."""

from pathlib import Path

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
