"""Every name a pbnet module imports is read by that module. The one
exemption is a name the benchmark's traced run wraps as a module attribute
(perfbench/workloads.py, TRACE_TARGETS): such a seam is kept on purpose, so
the benchmark's tracing still finds it when the module itself stops reading
it. ``dynamics.log_likelihood_row`` is such a seam, kept for tracing only: no
step reads it. And pbnet never loads ``scipy.integrate``: its fallback
quadrature is its own composite Gauss-Legendre rule."""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PBNET = ROOT / "src" / "pbnet"


def imported_names(tree):
    """(line, name) of every name an import statement binds in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:  # `import a.b` binds `a`
                yield node.lineno, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield node.lineno, a.asname or a.name


def read_names(tree):
    """Every name the module loads, annotations included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def traced_seams(monkeypatch):
    """(module, name) of each pbnet module attribute TRACE_TARGETS wraps; a
    dotted target such as ``integrate.quad`` keeps its first name."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import TRACE_TARGETS

    return {(module.__name__, attr.split(".")[0]) for module, attr, _ in TRACE_TARGETS}


def test_no_module_imports_a_name_it_never_reads(monkeypatch):
    seams = traced_seams(monkeypatch)
    imports, dead = 0, []
    for path in sorted(PBNET.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = read_names(tree)
        for line, name in imported_names(tree):
            imports += 1
            if name not in read and (f"pbnet.{path.stem}", name) not in seams:
                dead.append(f"{path.name}:{line} {name}")
    assert imports > 30  # the walk found the imports
    assert not dead, f"imported but never read: {dead}"


FOOTPRINT_SCRIPT = textwrap.dedent("""
    import importlib
    import json
    import pkgutil
    import sys

    import numpy as np

    import pbnet
    for module in pkgutil.iter_modules(pbnet.__path__):
        importlib.import_module(f"pbnet.{module.name}")
    from pbnet import analysis, dynamics, fixtures, likelihoods, network

    net = network.build_averaging_matrix(network.ring_adjacency(6), 0.1)
    analysis.predict_partial_regime(fixtures.bundled_gaussian_family(), 0, 1)
    analysis.predict_self_aware_regime(fixtures.bundled_discrete_family(), net, 0, 1)
    init = dynamics.uniform_log_beliefs(6, 3)
    dynamics.run_trajectory(init, net, fixtures.bundled_gaussian_family(), 0,
                            dynamics.PartialSharing(1), 10, np.random.default_rng(1))
    # the Gauss-Hermite rule cannot certify this entry, so reading it runs the
    # fallback quadrature
    report = analysis.predict_partial_regime(likelihoods.GaussianFamily([0, 3, 6]), 1, 1)
    print(json.dumps(["scipy.integrate" in sys.modules, report.kl_true_vs_mixture]))
""")


def test_pbnet_never_loads_scipy_integrate():
    # a fresh interpreter: this test session may have loaded it already
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT], cwd=ROOT / "src",
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded, value = json.loads(done.stdout)
    assert not loaded, "scipy.integrate loaded by the fallback quadrature"
    assert abs(value - 2.693351976604167) <= 1e-9
