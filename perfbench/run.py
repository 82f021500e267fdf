"""pbnet benchmark: one workload, one seed, about ``--seconds`` of CPU time.

    python3 perfbench/run.py --workload repro_grid --seed 1 --seconds 10 --trace 0

Run from the repository root; pbnet is imported from ``src/``. The run is one
process in a closed loop: one thread, BLAS pinned to one thread. It repeats
whole passes of the workload (see workloads.py), as many as filled
``--seconds`` of CPU time when the benchmark was defined, gates every output,
prints a report with units and machine notes, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``. Times are CPU time
scaled to a reference host speed, which a reference kernel measures during
every pass (reference.py).

``--trace 0`` reports the end-to-end metrics, with tracing off. ``--trace 1``
runs each pass index twice on the same inputs, untraced then traced, requires
bitwise-identical outputs, reports the per-layer metrics and writes the span
log to ``.bench_out/trace-<workload>.npz``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Seed held back from tuning; a later performance claim is validated on it.
HOLDOUT_SEED = 271828

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "dynamics.step_self_us": "us",
    "dynamics.modify_us": "us",
    "dynamics.combine_self_us": "us",
    "dynamics.check_us": "us",
    "likelihoods.sample_us": "us",
    "likelihoods.loglik_us": "us",
    "likelihoods.sample_calls_per_step": "count",
    "likelihoods.loglik_calls_per_step": "count",
    "network.build_ms": "ms",
    "network.scc_ms": "ms",
    "network.perron_ms": "ms",
    "network.constants_ms": "ms",
    "network.perron_rel_err": "ratio",
    "network.builds_failed": "count",
    "likelihoods.kl_ms": "ms",
    "likelihoods.kl_calls": "count",
    "likelihoods.kl_quad_calls": "count",
    "analysis.predict_ms": "ms",
    "analysis.classify_ms": "ms",
    "analysis.rate_fit_ms": "ms",
    "dynamics.trajectory_mb": "MiB",
    "trace.overhead_frac": "ratio",
}


def import_pbnet():
    """Import pbnet from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SOURCE))
    try:
        import pbnet
    except ImportError as exc:
        sys.exit(f"cannot import pbnet from {SOURCE}: {exc}")
    if Path(pbnet.__file__).resolve().parent != SOURCE / "pbnet":
        sys.exit(f"pbnet was imported from {pbnet.__file__}, not from {SOURCE}")


def machine_notes() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def metrics(runner, trace: bool) -> dict:
    """The metrics of the JSON line: per-layer when traced, else end-to-end."""
    if trace:
        return runner.per_layer()
    values = runner.end_to_end()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values


def extra_lines(runner):
    """Other end-to-end figures, shown where they apply but not gated."""
    ops = runner.op_times
    plain = [p for p in runner.passes if not p.traced]
    p90 = None
    if len(ops) >= 100:  # at least ten samples beyond p90
        p90 = 1e3 * statistics.quantiles(ops, n=10)[-1]
    lines = [
        ("setup_cpu_s", statistics.median(p.setup_cpu_s for p in plain), "s"),
        ("wall_cpu_s", statistics.median(p.wall_cpu_s for p in plain), "s"),
        ("host_factor", statistics.median(p.host_factor for p in plain), "ratio"),
        ("op_ms_p50", 1e3 * statistics.median(ops), "ms"),
        ("op_ms_p90", p90 if p90 is not None else f"n/a ({len(ops)} samples, fewer than 10 beyond p90)", "ms"),
        ("op_samples", len(ops), "count"),
        ("sim_agent_steps_per_s",
         runner.agent_steps / runner.sim_s if runner.sim_s else "n/a (no simulation)", "1/s"),
        ("predictions_per_s",
         len(runner.predict_s) / sum(runner.predict_s) if runner.predict_s else "n/a", "1/s"),
        ("ops_failed_frac", runner.failed / runner.attempted, "ratio"),
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_pbnet()
    import numpy as np

    import oracle
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    notes = machine_notes()
    runner.run(args.seconds, trace=bool(args.trace))

    entropy = np.random.SeedSequence(args.seed).entropy
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed} (SeedSequence entropy {entropy}); held-out seed {HOLDOUT_SEED}")
    print(f"# machine {json.dumps(notes)}")
    print(f"# rate checks allow |bias| + {oracle.Z_SCORE:g} sd: false-failure probability "
          f"{oracle.FALSE_FAILURE_PROB:.1e} per check")
    traced = sum(p.traced for p in runner.passes)
    print(f"# passes {len(runner.passes)} ({traced} traced); operations attempted "
          f"{runner.attempted}, failed {runner.failed}")
    for message, count in runner.failures.items():
        print(f"# failed x{count}: {message}")
    for message, count in runner.incorrect.items():
        print(f"# incorrect x{count}: {message}")
    values = metrics(runner, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    lines = [(name, value, units[name]) for name, value in values.items()]
    for name, value, unit in lines + ([] if args.trace else extra_lines(runner)):
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<36} {shown:>16} {unit}")
    if args.trace:
        path = ROOT / ".bench_out" / f"trace-{workload.name}.npz"
        runner.tracer.write(path, {"workload": workload.name, "seed": args.seed,
                                   "seed_entropy": entropy, "machine": notes})
        print(f"# spans written to {path.relative_to(ROOT)}")

    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
