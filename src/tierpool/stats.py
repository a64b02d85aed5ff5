"""Per-thread counter sheets with exact aggregation.

Counters are hot (several per page access), so each thread mutates its own
dict and never touches anyone else's; `total()` sums the sheets.  Sums are
exact whenever the writing threads are quiescent, which is the only time the
test suite asserts accounting identities.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class StatsRegistry:
    def __init__(self):
        self._tls = threading.local()
        self._sheets: list[dict] = []
        self._lock = threading.Lock()

    def sheet(self) -> dict:
        s = getattr(self._tls, "sheet", None)
        if s is None:
            s = {}
            self._tls.sheet = s
            with self._lock:
                self._sheets.append(s)
        return s

    def bump(self, key: str, delta: int = 1) -> None:
        s = self.sheet()
        s[key] = s.get(key, 0) + delta

    @contextmanager
    def timed(self, key: str):
        """Accumulate wall nanoseconds spent in the body under `key`."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            s = self.sheet()
            s[key] = s.get(key, 0) + (time.perf_counter_ns() - t0)

    def total(self) -> dict:
        out: dict = {}
        with self._lock:
            sheets = list(self._sheets)
        for s in sheets:
            # The owning thread may add a key mid-snapshot; retry that sheet.
            for _ in range(8):
                try:
                    items = list(s.items())
                    break
                except RuntimeError:
                    continue
            else:  # pragma: no cover - pathological write rate
                items = []
            for k, v in items:
                out[k] = out.get(k, 0) + v
        return out
