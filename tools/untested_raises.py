"""Print every ``raise`` statement in src/pbnet that no Tier-1 test executes.

Runs the Tier-1 suite in this process under ``sys.settrace``, tracing lines
in frames of src/pbnet only, and then lists each ``raise`` (found by the
AST) none of whose lines ran, as file:line and the statement. A multi-line
statement counts as reached when any of its lines ran. A gate: it exits 1
when it lists any raise or when pytest fails, and 0 otherwise. It takes
about twice as long as the suite.

    python3 tools/untested_raises.py
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


def raises(path: Path):
    """(first line, last line, source) of every raise statement of a module."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.Raise):
            yield node.lineno, node.end_lineno, ast.get_source_segment(source, node)


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
        for first, last, text in sorted(raises(path)):
            if not any((name, line) in executed for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {' '.join(text.split())}")
    print(f"\npytest exit code {int(code)}; {len(missed)} raise statements no test reached")
    for line in missed:
        print(line)
    return int(bool(missed) or code != 0)


if __name__ == "__main__":
    sys.exit(main())
