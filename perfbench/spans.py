"""Spans around the public methods of each tierpool layer, installed from
outside on the instances a workload built.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time of its direct children, summed per layer.  A
callback one layer passes into another runs in its own span charged to the
layer that supplied it: the tree's reader inside `optimistic_read` counts
as `btree`, the pool's `visit` inside `ResidentSet.sweep` as `pool`.
Spans are kept in memory only for the first `window_ops` operations and
written out when the run ends; the per-layer totals cover the whole run.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

from tierpool.state_word import EVICTED

LAYERS = ("btree", "pool", "migration", "resident_set", "backend", "state_word")

_METHODS = {
    "btree": ("lookup", "insert", "scan"),
    "pool": ("fix", "unfix", "optimistic_read", "evict_batch", "promote_batch",
             "maybe_evict", "flush_all", "evict_all"),
    "migration": ("move_pages2", "move_pages_legacy", "mbind_single"),
    "backend": ("bind_and_read", "write_back", "release_frame", "flush_page",
                "retarget_frame", "placement_of", "page_view", "read_token",
                "free_frames", "occupancy", "utilization"),
    "resident_set": ("insert", "remove", "sweep", "snapshot"),
    "state_word": ("load", "compare_and_swap", "try_edge", "set_raw"),
}

_INNER = 2  # node-type byte of a B+tree inner page


def _bump(ts, key: str, delta: int = 1) -> None:
    ts.counts[key] = ts.counts.get(key, 0) + delta


class _Sheet:
    """One thread's open-span stacks, totals, counts and recorded spans."""

    __slots__ = ("stack", "self_ns", "incl_ns", "calls", "counts", "spans")

    def __init__(self, n_names: int):
        self.stack: list[list[int]] = []  # one frame per open span
        self.self_ns = [0] * n_names
        self.incl_ns = [0] * n_names
        self.calls = [0] * n_names
        self.counts: dict[str, int] = {}
        self.spans = array("q")         # (name, parent, start_ns, end_ns) rows


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.sheet = _Sheet(len(tracer.names))
        with tracer.lock:
            tracer.sheets.append(self.sheet)


class Tracer:
    def __init__(self, pool, tree, record: bool = True):
        self.pool, self.tree = pool, tree
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.lock = threading.Lock()
        self.sheets: list[_Sheet] = []
        self.recording = record
        self._installed: list[tuple[object, str]] = []
        self._reg0 = pool.registry.total()
        self.reg: dict[str, int] = {}  # registry deltas while installed
        self._load = pool.state.load
        self._page_view = pool.backend.page_view
        targets = {"btree": [tree], "pool": [pool], "migration": [pool.engine],
                   "backend": [pool.backend], "resident_set": pool.resident,
                   "state_word": [pool.state]}
        plan = [(obj, layer, m) for layer in LAYERS
                for obj in targets[layer] for m in _METHODS[layer]]
        for layer in LAYERS:
            for m in _METHODS[layer]:
                self._nid(f"{layer}.{m}")
        self.reader_nid = self._nid("btree.reader")
        self.visit_nid = self._nid("pool.visit")
        self.local = _ThreadState(self)
        for obj, layer, m in plan:
            fn = getattr(obj, m)
            wrapped = self._span(fn, self.names.index(f"{layer}.{m}"),
                                 getattr(self, f"_pre_{layer}_{m}", None),
                                 getattr(self, f"_post_{layer}_{m}", None))
            setattr(obj, m, wrapped)
            self._installed.append((obj, m))

    def _nid(self, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(LAYERS.index(name.split(".")[0]))
        return len(self.names) - 1

    def uninstall(self) -> None:
        """Restore the original methods and drop every reference into the
        episode's pool, so only the sheets outlive it."""
        for obj, m in self._installed:
            delattr(obj, m)
        self._installed.clear()
        self.reg = {k: v - self._reg0.get(k, 0)
                    for k, v in self.pool.registry.total().items()}
        self.pool = self.tree = self._load = self._page_view = None

    # -- spans -----------------------------------------------------------

    def _span(self, fn, nid: int, pre=None, post=None):
        local = self.local
        perf = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            ts = local.sheet
            if pre is not None:
                args, token = pre(ts, args)
            stack = ts.stack
            if tracer.recording:
                spans = ts.spans
                sid = len(spans) >> 2
                spans.extend((nid, stack[-1][1] if stack else -1, 0, 0))
            else:
                sid = -1
            frame = [0, sid, nid]  # children's time, record index, name id
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                ts.self_ns[nid] += d - frame[0]
                ts.incl_ns[nid] += d
                ts.calls[nid] += 1
                if stack:
                    stack[-1][0] += d
                if sid >= 0:
                    spans[4 * sid + 2] = t0
                    spans[4 * sid + 3] = t1
            if post is not None:
                post(ts, args, result, token if pre is not None else None)
            return result

        return traced

    def _from_btree(self, ts) -> bool:
        """Whether the innermost open span, the caller, belongs to btree."""
        return bool(ts.stack) and self.layer_of[ts.stack[-1][2]] == 0

    # -- hooks: `_pre_*` may replace the arguments and returns a token for
    #    `_post_*`, which counts what the call did.  Counts the pool's own
    #    StatsRegistry keeps (faults, promoted, demoted and evicted pages,
    #    migration calls, pages and shootdowns, disk reads and writes, bytes
    #    copied) are read from it instead; hooks count only the rest -------

    def _pre_pool_fix(self, ts, args):
        faulting = self._load(args[0]) >> 56 == EVICTED
        return args, (faulting, self._from_btree(ts))

    def _post_pool_fix(self, ts, args, result, token):
        faulting, from_btree = token
        if from_btree:
            _bump(ts, "btree_pages_read")
        if faulting:
            pid = args[0]
            if pid == self.tree.root_pid or self._page_view(pid)[0] == _INNER:
                _bump(ts, "inner_faults")

    def _pre_pool_optimistic_read(self, ts, args):
        if self._from_btree(ts):
            _bump(ts, "btree_pages_read")
        pid, reader, *rest = args
        return (pid, self._span(reader, self.reader_nid), *rest), None

    def _post_backend_retarget_frame(self, ts, args, result, token):
        _bump(ts, "frame_moves")

    def _pre_resident_set_sweep(self, ts, args):
        visit, *rest = args
        return (self._span(visit, self.visit_nid), *rest), None

    def _post_resident_set_sweep(self, ts, args, result, token):
        _bump(ts, "sweep_taken", len(result))

    def _post_resident_set_insert(self, ts, args, result, token):
        _bump(ts, "resident_updates")

    _post_resident_set_remove = _post_resident_set_insert

    def _post_state_word_compare_and_swap(self, ts, args, result, token):
        _bump(ts, "cas")
        _bump(ts, "cas_applied", int(result))

    # -- results ---------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Save the recorded spans as one (name, parent, start_ns, end_ns)
        int64 array per thread; `parent` indexes the same array, -1 for none."""
        with self.lock:
            sheets = list(self.sheets)
        arrays = {f"thread{i}": np.frombuffer(sh.spans, dtype=np.int64).reshape(-1, 4)
                  for i, sh in enumerate(sheets)}
        np.savez(path, names=np.array(self.names), **arrays)
        return sum(len(a) for a in arrays.values())


def totals(tracers) -> dict:
    """Per-name self time, whole time and calls, and the counts, summed over
    every thread of every tracer."""
    n = len(tracers[0].names)
    out = {"self_ns": [0] * n, "incl_ns": [0] * n, "calls": [0] * n, "counts": {}}
    for tracer in tracers:
        with tracer.lock:
            sheets = list(tracer.sheets)
        for sh in sheets:
            for key in ("self_ns", "incl_ns", "calls"):
                out[key] = [a + b for a, b in zip(out[key], getattr(sh, key))]
            for k, v in sh.counts.items():
                out["counts"][k] = out["counts"].get(k, 0) + v
    return out
