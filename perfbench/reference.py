"""Reference kernel: a fixed piece of work that measures the host's speed.

The benchmark's host is shared: the CPU time a fixed piece of work takes
drifts by tens of percent over seconds to minutes, as other tenants load the
caches, memory bus and sibling hyperthreads. During a pass the Runner runs
this kernel every ``INTERVAL_S`` of CPU time, from a ``SIGPROF`` interval
timer, and scales the pass's CPU time by the kernel's nominal time over its
mean time during that pass. A reported time is therefore the pass's CPU time
at the host speed of the day the benchmark was defined: the host's drift
cancels, and a change in pbnet's own work does not, because the kernel uses
nothing from pbnet.

The kernel is the kind of work the workloads spend most of their time in:
interpreted Python and many numpy calls on tiny arrays. On the reference
machine, host load slowed it as much as it slowed the workloads' passes, and
more than it slowed a dense 512x512 matrix-vector product, which tracked the
passes worse: scaled by this kernel, the CPU time of a pass varied by 2-5%
from pass to pass where the unscaled time varied by 10-20%.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU seconds of one ``run()`` on the reference machine (2-core shared x86-64
#: VM, Python 3.11, numpy with one BLAS thread) when the benchmark was
#: defined. Only a constant scale: it never changes a ratio between commits.
NOMINAL_S = 0.0024
#: CPU time between two kernel runs; about 4% of a run goes to the kernel.
INTERVAL_S = 0.05

_RNG = np.random.default_rng(20191031)
_SMALL = _RNG.random((10, 3))


def _python_part() -> int:
    table = {}
    total = 0
    for i in range(4000):
        key = i % 97
        table[key] = table.get(key, 0) + i
        total += key * 3 if i & 1 else -key
    return total + len(table)


def _numpy_small_part() -> float:
    x = _SMALL
    for _ in range(120):
        x = np.exp(np.log(x + 1.0) - 0.5)
        x = x / x.sum(axis=1, keepdims=True)
    return float(x[0, 0])


def run() -> float:
    """Run the kernel once; returns the CPU seconds it took."""
    start = time.thread_time_ns()
    _python_part()
    _numpy_small_part()
    return (time.thread_time_ns() - start) / 1e9
