"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads repro_grid,...]
                                [--seconds 20] [--write baseline.json]

Runs are sequential, one process each, from the repository root. For every
metric it prints the median of the per-run values, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the bound in BENCHMARK.json. ``--write`` stores all of it, with the
runs and machine notes, as a JSON file in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True).stdout
    lines = out.strip().splitlines()
    machine = next((line[len("# machine "):] for line in lines if line.startswith("# machine ")), "{}")
    return json.loads(lines[-1]), machine


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--write", help="file name, in this directory, for the results")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    summary = {}
    machine = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, machine = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
            print(f"{workload:<14} {name:<36} median {med:<12.6g} spread {spread:8.4f}"
                  f"  bound {bound}{flag}")
        summary[workload] = {"runs": runs, "metrics": metrics,
                             "all_correct": all(r["correct"] for r in runs)}
    if args.write:
        doc = {"seeds": seeds, "seconds": args.seconds,
               "machine": json.loads(machine), "workloads": summary}
        (HERE / args.write).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
