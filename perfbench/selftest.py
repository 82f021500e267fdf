"""Self-test of the traced run: tracing must not change any output.

    python3 perfbench/selftest.py [--seed 1] [workload ...]

For each workload (all by default) it runs pass 0 untraced and then traced on
the same seeded inputs, and requires bitwise-identical digests of every
trajectory of log-beliefs, verdict, fitted slope and regime label. It also
runs pass 0 with the next seed and requires a different digest, so the
comparison cannot pass vacuously. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import sys

from run import import_pbnet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    import_pbnet()
    from workloads import WORKLOADS, Runner

    ok = True
    for name in args.workloads or list(WORKLOADS):
        runner = Runner(WORKLOADS[name], args.seed)
        plain = runner.run_pass(0, traced=False)
        traced = runner.run_pass(0, traced=True)
        other = Runner(WORKLOADS[name], args.seed + 1).run_pass(0, traced=False)
        same = plain.digest.digest() == traced.digest.digest()
        sensitive = plain.digest.digest() != other.digest.digest()
        spans = runner.tracer.calls("bench.pass")
        passed = same and sensitive and spans == 1 and not runner.incorrect
        ok &= passed
        print(f"{name:<14} traced==untraced {same}  seed-sensitive {sensitive}  "
              f"traced passes {spans}  gate {'clean' if not runner.incorrect else dict(runner.incorrect)}"
              f"  -> {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
