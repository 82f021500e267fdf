"""Print the pass-0 output digest of every benchmark workload at seeds 1 and
271828: the digest perfbench/selftest.py compares, over every trajectory,
verdict, slope and regime label of the pass. Not a gate, because BLAS builds
may differ between hosts; a change that claims bitwise-equal outputs shows
its digests here.

    python3 tools/pass_digests.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from run import HOLDOUT_SEED, import_pbnet  # noqa: E402  (pins BLAS to one thread first)

import_pbnet()
from workloads import WORKLOADS, Runner  # noqa: E402

for seed in (1, HOLDOUT_SEED):
    for name, workload in WORKLOADS.items():
        digest = Runner(workload, seed).run_pass(0, traced=False).digest.hexdigest()
        print(f"seed {seed:<6} {name:<14} {digest[:8]}")
