"""The regime labels of the benchmark's regime_sweep pool, checked here so
that a change to the predictors fails fast. Every pool entry of each family
class must give its committed label string (perfbench/labels.json), so a
divergence-table value that flips a label fails here; the pool and the codes
come from perfbench/workloads.py, imported read-only (the ``workloads``
fixture of conftest.py)."""

import json

from pbnet.errors import UnboundedLikelihoodError


def test_every_pool_entry_matches_committed_labels(workloads):
    w = workloads
    committed = json.loads(w.LABELS_PATH.read_text())["labels"]
    nets = w.pool_networks(None)
    for kind, h in w.SWEEP_CLASSES:
        for index in range(w.POOL_SIZE):
            codes = []
            for fn in w.sweep_predictors(w.pool_family(kind, h, index), nets):
                try:
                    codes.append(w.REGIME_CODES[fn()])
                except UnboundedLikelihoodError:
                    codes.append(w.REJECTED)
            assert "".join(codes) == committed[f"{kind}-{h}"][index], f"{kind}-{h}#{index}"
