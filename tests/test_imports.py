"""Every name a pbnet module imports is read by that module. The one
exemption is a name the benchmark's traced run wraps as a module attribute
(perfbench/workloads.py, TRACE_TARGETS): such a seam is kept on purpose, so
the benchmark's tracing still finds it when the module itself stops reading
it."""

import ast
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
