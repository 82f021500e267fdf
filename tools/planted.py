"""Plant each listed defect in a copy of the tree and show that the theory
tests named for it catch it.

A defect is a small deliberate bug: an exact text of a file under src/
replaced by another. For each one, the tool copies src/, tests/ and
pyproject.toml to a temporary directory, applies the defect there, runs only
the tests named for it, and reads their outcomes from pytest's JUnit XML
report. A defect survives when any case of a named test passes on it.
Before the defects, the named tests run once on the unplanted copy, where
each must pass, so that a test that fails anyway counts as no catch. No
bytecode is written, so a restored file is never read from a stale cache,
and the working tree is never written.

A gate: it exits 1 when a defect survives, when a defect's text is not found
exactly once, or when a named test fails unplanted or is not collected, and
0 otherwise.

    python3 tools/planted.py

A new theory oracle adds the defect it must catch to ``DEFECTS``. A test that
restates the step it checks, such as ``TestStepKernel``'s
``test_pool_matches_dense_recomputation``, is no theory oracle and is not
named here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DYNAMICS = "src/pbnet/dynamics.py"
NETWORK = "src/pbnet/network.py"
LIKELIHOODS = "src/pbnet/likelihoods.py"
RECURSIONS = "tests/test_dynamics.py::TestRecursionOracles::"

# (name, file, exact old text, new text, the tests each of which must fail)
DEFECTS = [
    ("self-aware term times a_kk^2", DYNAMICS,
     "diagonal[...] = net.diagonal[:, None]",
     "diagonal[...] = net.diagonal[:, None] ** 2",
     [RECURSIONS + "test_self_aware_non_tx_ratio_recursion"]),
    ("self-aware term taken from the shared rows", DYNAMICS,
     "(np.subtract, (psi, shared, term))",
     "(np.subtract, (shared, shared, term))",
     [RECURSIONS + "test_self_aware_non_tx_ratio_recursion"]),
    ("spread over log H, not log(H - 1)", DYNAMICS,
     "log_rest = np.asarray(np.log(h - 1.0))",
     "log_rest = np.asarray(np.log(h * 1.0))",
     [RECURSIONS + "test_partial_log_ratio_recursion",
      RECURSIONS + "test_partial_recursion_from_first_step_with_uniform_init",
      RECURSIONS + "test_partial_sharing_is_full_sharing_on_the_lumped_family"]),
    ("the spread entry written over the kept tx column", DYNAMICS,
     "psi[..., c] if c == tx else entry",
     "entry",
     [RECURSIONS + "test_partial_log_ratio_recursion",
      RECURSIONS + "test_partial_sharing_is_full_sharing_on_the_lumped_family"]),
    ("weak connectivity taken for strong", NETWORK,
     'connection="strong"',
     'connection="weak"',
     ["tests/test_network.py::TestConnectivity::test_matches_a_boolean_closure_reference",
      "tests/test_network.py::TestFromMatrix::test_connectivity_matches_a_boolean_closure_reference"]),
    ("closed-form Perron vector proposed for an unbalanced graph", NETWORK,
     "np.array_equal(np.bincount(rows, minlength=n), degrees)",
     "np.array_equal(np.bincount(cols, minlength=n), degrees)",
     ["tests/test_network.py::TestPerron::test_unbalanced_builds_solve_once"]),
    ("pool transposed: A in place of its transpose", NETWORK,
     "pool=weights.T",
     "pool=weights",
     [RECURSIONS + "test_perron_weighted_log_odds_is_a_random_walk"]),
    # one density serves the scorers and the Gauss-Hermite rule, so one
    # wrong constant fails a scorer test and a rule test
    ("Gaussian log-density with -0.25 d^2", LIKELIHOODS,
     "np.multiply(d, -0.5)",
     "np.multiply(d, -0.25)",
     ["tests/test_likelihoods.py::TestLikelihood::"
      "test_gaussian_density_is_the_expression_bitwise_on_a_block",
      "tests/test_likelihoods.py::TestSharedShift::test_stacks_match_the_per_entry_shift"]),
    # a row [0, -inf, -inf] exp-sums to exactly 1: only the least entry flags it
    ("belief check passes a -inf entry whose row sums to 1", DYNAMICS,
     "if off.max() <= BELIEF_SUM_TOL and b.min() > -np.inf:",
     "if off.max() <= BELIEF_SUM_TOL:",
     ["tests/test_dynamics.py::TestStepErrors::test_one_pass_check_keeps_its_rules"]),
    ("every replica draws from the first generator", DYNAMICS,
     "_observe(groups, columns, true_index, n, steps, rng, kept) for rng in rngs]",
     "_observe(groups, columns, true_index, n, steps, rngs[0], kept) for rng in rngs]",
     ["tests/test_dynamics.py::TestReplicas::test_every_replica_is_its_run_bitwise"]),
]


def outcomes(tree: Path, tests: list) -> dict:
    """Run ``tests`` in ``tree``; map each named test to the outcomes of the
    cases pytest collected for it, True for a pass."""
    report = tree / "report.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--rootdir", str(tree), f"--junitxml={report}", *tests],
                   cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # the report names tests/test_x.py::TestY::test_z[p] as classname
    # "tests.test_x.TestY" and name "test_z[p]"
    named = {}
    for test in tests:
        path, *scope, name = test.split("::")
        named[".".join([path.removesuffix(".py").replace("/", "."), *scope]), name] = test
    found = {test: [] for test in tests}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            test = named.get((case.get("classname"), case.get("name").split("[")[0]))
            if test is not None:
                found[test].append(all(case.find(tag) is None
                                       for tag in ("failure", "error", "skipped")))
        report.unlink()
    return found


def main() -> int:
    start = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="planted-") as temp:
        tree = Path(temp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        named = sorted({test for *_, tests in DEFECTS for test in tests})
        for test, cases in outcomes(tree, named).items():
            if not cases or not all(cases):
                failures.append(f"unplanted: {test} " + ("collected no case" if not cases
                                                         else "fails without a defect"))
        for name, file, old, new, tests in DEFECTS:
            path = tree / file
            source = path.read_text()
            if source.count(old) != 1:
                failures.append(f"{name}: {file} holds {old!r} {source.count(old)} times")
                continue
            path.write_text(source.replace(old, new))
            for test, cases in outcomes(tree, tests).items():
                caught = bool(cases) and not any(cases)
                print(f"{'caught  ' if caught else 'SURVIVED'} {name}: {test} "
                      f"({cases.count(False)} of {len(cases)} cases fail)")
                if not caught:
                    failures.append(f"{name} survives {test}")
            path.write_text(source)
    for line in failures:
        print(f"FAIL {line}")
    print(f"{len(DEFECTS)} defects, {len(failures)} failures, "
          f"{time.perf_counter() - start:.1f} s")
    return int(bool(failures))


if __name__ == "__main__":
    sys.exit(main())
