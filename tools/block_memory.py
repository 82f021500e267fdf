"""Print the steps per block of ``run_trajectory``, and the minor page faults
and peak RSS of one trajectory, on four rings: 10 agents, 1000 agents, and
20000 agents, whose ``ring_adjacency`` is CSC (a dense one would be 400 MB),
each of the bundled discrete family, and 100 agents of a list that alternates the
bundled Gaussian and discrete families. So the table shows each block rule:
a run of at most 2^14 log-likelihoods in all is one block (the 10-ring's 150
steps), a larger one takes 64-step blocks whatever its family mix (the mixed
100-agent list), and fewer past 2^16 log-likelihoods a block (the 1000- and
20000-agent rings).

Each ring runs in a fresh interpreter, so that its peak RSS is its own. The
trajectory is partial sharing (H = 3, tx 1, 150 steps); three runs warm the
allocator, which takes a few to settle its reuse sizes, and a fourth, with
the same seed, is measured. The steps per block are the rows of the longest
block the first run scores; the faults are ``ru_minflt`` over the measured
run, the peak RSS is the process's ``ru_maxrss``, and "trajectory" is the
size of the returned (151, N, 3) array, which a run allocates and fills
whatever its blocks. Not a gate: the counts depend on the C library's
allocator and the kernel's huge-page setting.

    python3 tools/block_memory.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RINGS = ((10, "family"), (1000, "family"), (20000, "family"), (100, "mixed"))
HORIZON = 150
WARMUPS = 3


def measure(n: int, models: str) -> None:
    """Print one line of the table for the ring of ``n`` agents, whose
    ``models`` are the discrete "family" or a "mixed" list."""
    import resource

    import numpy as np
    from pbnet import dynamics, fixtures
    from pbnet.network import build_averaging_matrix, ring_adjacency

    net = build_averaging_matrix(ring_adjacency(n), 0.5)
    fam = fixtures.bundled_discrete_family()
    if models == "mixed":
        fam = [fixtures.bundled_gaussian_family(), fam] * (n // 2)
    init = dynamics.uniform_log_beliefs(n, 3)
    score, steps = dynamics.log_likelihood_rows, []

    def recorded(model, xi):
        steps.append(len(xi))
        return score(model, xi)

    def trajectory():
        return dynamics.run_trajectory(init, net, fam, 0, dynamics.PartialSharing(1), HORIZON,
                                       np.random.default_rng(1))[0]

    dynamics.log_likelihood_rows = recorded
    trajectory()
    dynamics.log_likelihood_rows = score
    for _ in range(WARMUPS - 1):
        trajectory()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = trajectory()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"{n:>7} {models:>7} {max(steps):>7} {usage.ru_minflt - before:>7} "
          f"{usage.ru_maxrss / 1024:>9.1f} {out.nbytes / 2**20:>11.1f}", flush=True)


def main() -> None:
    # this process imports no numpy, so each child's peak RSS is the child's
    paths = [str(ROOT / "src"), str(ROOT / "tools")]
    print(f"{'agents':>7} {'models':>7} {'steps':>7} {'faults':>7} {'peak MiB':>9} "
          f"{'trajectory':>11}", flush=True)
    for n, models in RINGS:
        code = (f"import sys; sys.path[:0] = {paths!r}; from block_memory import measure; "
                f"measure({n}, {models!r})")
        subprocess.run([sys.executable, "-c", code], check=True)


if __name__ == "__main__":
    main()
