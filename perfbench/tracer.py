"""In-memory span tracer for the traced benchmark run.

A span is (id, name, start, end, parent) with nanosecond ``perf_counter_ns``
stamps: wall-clock, which is cheaper to read than CPU time, and the
per-layer figures are not gated. Spans come from two places, both in the benchmark's own code:
``span()`` blocks around the benchmark's calls into a layer, and wrappers set
on the module attributes that pbnet's functions look up at call time (for
example ``pbnet.dynamics.combine_step``, which ``run_iteration`` resolves as
a module global). Nothing inside ``pbnet`` is edited.

Per-name totals and self times (duration minus the time covered by child
spans) are accumulated for every span as it closes. The raw span log is kept
in a flat int64 array, capped at ``SPAN_LOG_CAP`` spans so that a long run
stays small in memory; spans past the cap still count in the totals, and the
written file says how many were left out of the log.
"""

from __future__ import annotations

import json
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SPAN_LOG_CAP = 250_000
_FIELDS = 5  # id, name id, start ns, end ns, parent id (-1 for a root)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._log = array("q")
        self._dropped = 0
        self._next_id = 0
        # open spans: [span id, name id, start ns, ns covered by children]
        self._stack: list[list[int]] = []
        # per name id: spans closed, total ns, self ns
        self._count: list[int] = []
        self._total: list[int] = []
        self._self: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._count.append(0)
            self._total.append(0)
            self._self.append(0)
        return nid

    def _open(self, nid: int) -> None:
        self._stack.append([self._next_id, nid, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child_ns = self._stack.pop()
        duration = end - start
        self._count[nid] += 1
        self._total[nid] += duration
        self._self[nid] += duration - child_ns
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self._log) < SPAN_LOG_CAP * _FIELDS:
            self._log.extend((sid, nid, start, end, parent))
        else:
            self._dropped += 1

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, when tracing is active."""
        if not self.active:
            yield
            return
        self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        """Replace ``module.attr`` by a tracing wrapper for each
        (module, attr, span name) in ``targets``; ``uninstall`` restores them.

        ``attr`` may be ``"integrate.quad"``: the module's ``integrate``
        reference is then swapped for a namespace whose ``quad`` is wrapped,
        which leaves scipy itself untouched.
        """
        for module, attr, name in targets:
            if "." in attr:
                holder_name, fn_name = attr.split(".")
                holder = getattr(module, holder_name)
                proxy = types.SimpleNamespace(**{fn_name: self._wrap(getattr(holder, fn_name), name)})
                self._patches.append((module, holder_name, holder))
                setattr(module, holder_name, proxy)
            else:
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def tracing(self, targets):
        """Install the wrappers and record spans for the duration of a block."""
        self.install(targets)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    @contextmanager
    def paused(self):
        """Run a block untraced, e.g. the benchmark's own correctness oracles."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _stat(self, table: list[int], name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else table[nid]

    def total_ms(self, name: str) -> float:
        return self._stat(self._total, name) / 1e6

    def self_ms(self, name: str) -> float:
        return self._stat(self._self, name) / 1e6

    def calls(self, name: str) -> int:
        return self._stat(self._count, name)

    def write(self, path: Path, meta: dict) -> None:
        """Write the span log (npz: ``spans`` as an (n, 5) int64 array of
        id, name id, start, end, parent; ``names``; ``meta`` as JSON)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = np.frombuffer(self._log, dtype=np.int64).reshape(-1, _FIELDS)
        meta = dict(meta, spans_logged=int(spans.shape[0]), spans_dropped=self._dropped)
        with open(path, "wb") as fh:
            np.savez(fh, spans=spans, names=np.array(self.names), meta=np.array(json.dumps(meta)))
