"""Latency cost model for the simulated memory/storage hierarchy.

Charges are real-time: short ones spin on perf_counter (keeps sub-10us charges
honest), long ones sleep (releases the GIL, so concurrent disk waits overlap
like real I/O).  Disabled by default so unit tests run at full speed; trend
benchmarks switch it on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def _default_bandwidth() -> list[float]:
    # GB/s per memory tier: local DRAM then progressively slower remote tiers.
    return [25.0, 10.0, 10.0, 10.0]


@dataclass
class CostModel:
    """Fixed migration costs plus the spin/sleep charging mechanics."""

    enabled: bool = False
    shootdown_ns: int = 4_000
    copy_bandwidth_gbps: list[float] = field(default_factory=_default_bandwidth)
    sleep_threshold_ns: int = 20_000

    def charge(self, ns: float) -> None:
        if not self.enabled or ns <= 0:
            return
        if ns >= self.sleep_threshold_ns:
            time.sleep(ns * 1e-9)
        else:
            end = time.perf_counter_ns() + int(ns)
            while time.perf_counter_ns() < end:
                pass

    def page_copy_ns(self, src_tier: int, dst_tier: int, page_size: int) -> int:
        """Cost of copying one page between memory tiers (slower side wins)."""
        bw = self.copy_bandwidth_gbps
        src_bw = bw[src_tier] if src_tier < len(bw) else bw[-1]
        dst_bw = bw[dst_tier] if dst_tier < len(bw) else bw[-1]
        return int(page_size / min(src_bw, dst_bw))

    def charge_shootdown(self) -> None:
        self.charge(self.shootdown_ns)
