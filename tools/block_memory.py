"""Print the steps per block of ``run_trajectory``, and the minor page faults
and peak RSS of one trajectory, on three rings: 10 agents, 1000 agents, and
20000 agents built from a CSC adjacency (a dense one would be 400 MB).

Each ring runs in a fresh interpreter, so that its peak RSS is its own. The
trajectory is partial sharing of the bundled discrete family (H = 3, tx 1, 150
steps); three runs warm the allocator, which takes a few to settle its reuse
sizes, and a fourth, with the same seed, is measured. The steps per block are
the rows of the blocks the first run scores; the faults are ``ru_minflt`` over
the measured run, the peak RSS is the process's ``ru_maxrss``, and
"trajectory" is the size of the returned (151, N, 3) array, which a run
allocates and fills whatever its blocks. Not a gate: the counts depend on the
C library's allocator and the kernel's huge-page setting.

    python3 tools/block_memory.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RINGS = (10, 1000, 20000)
HORIZON = 150
WARMUPS = 3


def ring(n: int):
    """The bidirectional ring with self-loops, as a CSC adjacency."""
    import numpy as np
    from scipy.sparse import csc_matrix

    k = np.arange(n)
    rows = np.concatenate([k, k, (k + 1) % n])
    cols = np.concatenate([k, (k + 1) % n, k])
    return csc_matrix((np.ones(3 * n, dtype=bool), (rows, cols)), shape=(n, n))


def measure(n: int) -> None:
    """Print one line of the table for the ring of ``n`` agents."""
    import resource

    import numpy as np
    from pbnet import dynamics, fixtures
    from pbnet.likelihoods import DiscreteFamily
    from pbnet.network import build_averaging_matrix

    net = build_averaging_matrix(ring(n), 0.5)
    fam = DiscreteFamily(fixtures.BUNDLED_DISCRETE_PMF)
    init = dynamics.uniform_log_beliefs(n, fam.hypothesis_count)
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
    print(f"{n:>7} {max(steps):>7} {usage.ru_minflt - before:>7} "
          f"{usage.ru_maxrss / 1024:>9.1f} {out.nbytes / 2**20:>11.1f}", flush=True)


def main() -> None:
    # this process imports no numpy, so each child's peak RSS is the child's
    paths = [str(ROOT / "src"), str(ROOT / "tools")]
    print(f"{'agents':>7} {'steps':>7} {'faults':>7} {'peak MiB':>9} {'trajectory':>11}",
          flush=True)
    for n in RINGS:
        code = f"import sys; sys.path[:0] = {paths!r}; from block_memory import measure; measure({n})"
        subprocess.run([sys.executable, "-c", code], check=True)


if __name__ == "__main__":
    main()
