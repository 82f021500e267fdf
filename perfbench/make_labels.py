"""Regenerate labels.json, the committed regime labels of the regime_sweep pool.

    python3 perfbench/make_labels.py

Run it only when a change is meant to alter predictions; the benchmark counts
every label that differs from the committed file as a failed operation.
"""

from __future__ import annotations

import json
import sys

from run import import_pbnet


def main() -> int:
    import_pbnet()
    from pbnet.errors import UnboundedLikelihoodError
    from workloads import (ERROR, LABELS_PATH, POOL_ENTROPY, POOL_SIZE, REGIME_CODES,
                           REJECTED, SWEEP_CLASSES, pool_family, pool_networks,
                           sweep_predictors)

    nets = pool_networks(None)
    labels = {}
    for kind, h in SWEEP_CLASSES:
        entries = []
        for index in range(POOL_SIZE):
            codes = []
            for fn in sweep_predictors(pool_family(kind, h, index), nets):
                try:
                    codes.append(REGIME_CODES[fn()])
                except UnboundedLikelihoodError:
                    codes.append(REJECTED)
                except Exception:  # recorded as a label, so it shows in review
                    codes.append(ERROR)
            entries.append("".join(codes))
        labels[f"{kind}-{h}"] = entries
    doc = {
        "pool_entropy": POOL_ENTROPY,
        "order": "per entry: partial over (true, tx) row-major, then self-aware on each network",
        "codes": {**{code: regime.value for regime, code in REGIME_CODES.items()},
                  REJECTED: "UnboundedLikelihoodError", ERROR: "other error"},
        "labels": labels,
    }
    LABELS_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {LABELS_PATH.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
