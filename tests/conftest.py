import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported read-only: the benchmark's pools."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    # On a failure, hypothesis's report hook imports libcst to suggest an
    # explicit example, and that import emits a DeprecationWarning, which
    # filterwarnings = error turns into an INTERNALERROR that ends the session
    # and hides the falsifying example. Import it quietly first.
    if call.excinfo is not None and getattr(item.obj, "is_hypothesis_test", False):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import libcst  # noqa: F401
            except ImportError:
                pass
    return (yield)
