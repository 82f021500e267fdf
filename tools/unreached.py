"""Print every statement in src/pbnet that no Tier-1 test executes.

Runs the Tier-1 suite in this process under ``sys.settrace``, tracing lines
in frames of src/pbnet only, and then lists each statement (found by the
AST) none of whose lines ran, as file:line and its first line. Every
``ast.stmt`` counts but function and class definitions, imports and
docstrings; a compound statement spans its body, and any multi-line
statement counts as reached when any of its lines ran. A gate: it exits 1
when it lists any statement or when pytest fails, and 0 otherwise. It takes
about twice as long as the suite.

    python3 tools/unreached.py
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pbnet"
PREFIX = str(PACKAGE) + "/"

executed = set()  # (file name, line)


def trace_lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return trace_lines


def trace_calls(frame, event, arg):
    """The global trace function: a local one for pbnet's frames alone."""
    if frame.f_code.co_filename.startswith(PREFIX):
        return trace_lines
    return None


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
UNCOUNTED = DEFINITIONS + (ast.Import, ast.ImportFrom)


def is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    """Whether ``node`` is the docstring of a module, class or function."""
    return (isinstance(parent, (ast.Module, *DEFINITIONS)) and node is parent.body[0]
            and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path):
    """(first line, last line, first source line) of every counted statement
    of a module."""
    source = path.read_text()
    lines = source.splitlines()
    for parent in ast.walk(ast.parse(source, str(path))):
        for node in ast.iter_child_nodes(parent):
            if (isinstance(node, ast.stmt) and not isinstance(node, UNCOUNTED)
                    and not is_docstring(node, parent)):
                yield node.lineno, node.end_lineno, lines[node.lineno - 1].strip()


def main() -> int:
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        for first, last, text in sorted(statements(path)):
            if not any((name, line) in executed for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {text}")
    print(f"\npytest exit code {int(code)}; {len(missed)} statements no test reached")
    for line in missed:
        print(line)
    return int(bool(missed) or code != 0)


if __name__ == "__main__":
    sys.exit(main())
