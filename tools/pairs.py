"""Compare two trees on one benchmark workload by alternating pairs of runs.

Each pair runs ``perfbench/run.py`` unchanged, at the benchmark's own length
(``run_seconds`` in BENCHMARK.json), once in each tree, and the side that runs
first alternates from pair to pair. Both trees are byte-compiled first
(``python3 -m compileall`` over src/ and perfbench/), because a tree that
compiles its sources in the run peaks higher than one that reads bytecode;
that bytecode is all the tool writes inside either tree.

It prints, for each end-to-end metric of BENCHMARK.json, each side's runs,
median and quartiles, the ratio of the medians (change over parent), how
many pairs read lower for the change, the difference of the medians (parent
minus change) and the parent's quartile spread, and each run's operations
failed out of attempted, as one JSON object. It stops on a run whose outputs
are incorrect. The runs' progress goes to stderr.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE WORKLOAD SEED PAIRS
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list) -> list:
    """[q1, median, q3], by linear interpolation between the sorted runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one untraced benchmark run in ``tree``, and
    its operations failed out of attempted as ``"failed"``; the tool stops
    on a run whose outputs are incorrect."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: incorrect outputs\n{done.stdout}")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, "failed": f"{result['failed']}/{result['attempted']}"}


def summary(parent: list, change: list) -> dict:
    """The claim's figures for one metric, over runs paired by index."""
    p, c = quartiles(parent), quartiles(change)
    lower = sum(b < a for a, b in zip(parent, change))
    return {
        "parent_q1_median_q3": p,
        "change_q1_median_q3": c,
        "ratio_of_medians": round(c[1] / p[1], 4),
        "change_lower": f"{lower}/{len(parent)}",
        "median_difference": p[1] - c[1],
        "parent_quartile_spread": p[2] - p[0],
        "parent": parent,
        "change": change,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("pairs", type=int)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds, names = declared["run_seconds"], [m["name"] for m in declared["end_to_end"]]
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src"),
                        str(tree / "perfbench")], check=True, stdout=subprocess.DEVNULL)
    runs = {side: [] for side in trees}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(trees[side], args.workload, args.seed, seconds))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): " + ", ".join(
            f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}"
            for name in names), file=sys.stderr, flush=True)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs, "seconds": seconds,
        **{name: summary([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
           for name in names},
        "failed": {side: [r["failed"] for r in side_runs] for side, side_runs in runs.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
