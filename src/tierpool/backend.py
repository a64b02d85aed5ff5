"""Simulated n-tier physical substrate: frame pools, page table, and disk.

The backend owns the truth about where every page physically lives.  The
memory tiers share one byte arena of page frames, tier t owning the static
rows [base_t, base_t + capacity_t); the disk is one in-memory page array,
row i holding page i.  The page-slot space is sized by the disk tier, and a
page's slot index never changes; only the frame backing it moves.

Callers must hold a page's exclusive state-word lock to move or drop its
frame; accessors are plain reads.  The state word alone records a page's
tier, and its version tells an optimistic reader that the page moved.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .cost_model import CostModel
from .errors import ConfigError, IllegalState, TierFull
from .stats import StatsRegistry

# Destination marker for "the disk tier" in pool/backend APIs.
DISK = -1


@dataclass(frozen=True)
class TierSpec:
    """One tier's size and simulated latencies.

    A memory tier's `read_latency_ns` is charged on each hit there; the
    disk's read and write latencies on each page read and write-back.  A
    memory tier's `write_latency_ns` is accepted but never charged.
    """

    capacity_pages: int
    read_latency_ns: int = 0
    write_latency_ns: int = 0


@dataclass(frozen=True)
class TierTopology:
    """Shape of the hierarchy: tier 0 is local DRAM, the last entry is disk."""

    memory_tiers: tuple[TierSpec, ...]
    disk: TierSpec
    page_size_bytes: int = 4096

    def __post_init__(self):
        if not self.memory_tiers:
            raise ConfigError("at least one memory tier is required")
        for i, t in enumerate(self.memory_tiers):
            if t.capacity_pages <= 0:
                raise ConfigError(f"memory tier {i} has zero capacity")
        if self.disk.capacity_pages <= 0:
            raise ConfigError("disk tier has zero capacity")
        ps = self.page_size_bytes
        if ps < 512 or ps & (ps - 1):
            raise ConfigError(f"page size must be a power of two >= 512, got {ps}")

    @property
    def n_memory_tiers(self) -> int:
        return len(self.memory_tiers)

    @property
    def slots(self) -> int:
        return self.disk.capacity_pages


class FramePool:
    """One tier's arena rows, its free frames, and the page in each frame.

    `owner[row - base]` holds the pid bound to that row, or -1 for a free
    frame.  It is the tier's only record of residency: membership,
    occupancy and the clock's sweep order all read it.

    The free list is FIFO.  The clock walks frames, so the order in which
    freed frames are reused decides where a newly bound page sits relative
    to the hand; reusing the newest free frame first instead made the
    default policy migrate about four times as many pages per remote-tier
    lookup.
    """

    def __init__(self, base: int, capacity_pages: int):
        self.base = base
        self.capacity = capacity_pages
        self.owner = [-1] * capacity_pages
        self._free = deque(range(capacity_pages))
        self._hand = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    def insert(self, pid: int) -> int | None:
        """Bind `pid` to a free frame; returns its row, None when full."""
        with self._lock:
            if not self._free:
                return None
            frame = self._free.popleft()
            self.owner[frame] = pid
            return self.base + frame

    def remove(self, row: int) -> None:
        with self._lock:
            self.owner[row - self.base] = -1
            self._free.append(row - self.base)

    @property
    def n_free(self) -> int:
        return len(self._free)

    def sweep(self, visit: Callable[[int], bool], max_take: int) -> list[int]:
        """Advance the clock hand over the frames, calling `visit(pid)` per
        bound frame.

        Collects pids for which visit returned True, stopping after
        `max_take` takes or one full lap.  The hand position persists
        across calls.  `visit` runs under the pool's lock and must not
        call back into this pool.  The eviction clock
        (`BufferPool.evict_batch`) is the only caller: promotion fills its
        batches from the pages that were accessed, not from a sweep.
        """
        taken: list[int] = []
        with self._lock:
            if len(self._free) == self.capacity or max_take <= 0:
                return taken
            owner = self.owner
            n = self.capacity
            hand = self._hand
            for _ in range(n):
                pid = owner[hand]
                hand = hand + 1 if hand + 1 < n else 0
                if pid >= 0 and visit(pid):
                    taken.append(pid)
                    if len(taken) >= max_take:
                        break
            self._hand = hand
            return taken

    def snapshot(self) -> list[int]:
        """The bound pids in frame order."""
        with self._lock:
            return [pid for pid in self.owner if pid >= 0]


class TierBackend:
    """Page table, the memory arena, one frame pool per tier, and the disk."""

    def __init__(self, topology: TierTopology, cost_model: CostModel | None = None,
                 registry: StatsRegistry | None = None):
        self.topology = topology
        self.cost = cost_model or CostModel()
        self.registry = registry or StatsRegistry()
        self.page_size = topology.page_size_bytes
        caps = [t.capacity_pages for t in topology.memory_tiers]
        # The first row of each tier, then the arena's row count.
        self._bases = [0, *accumulate(caps)]
        self.pools = [FramePool(b, c) for b, c in zip(self._bases, caps)]
        self.arena = np.zeros((self._bases[-1], self.page_size), dtype=np.uint8)
        self.disk = np.zeros((topology.slots, self.page_size), dtype=np.uint8)
        # Arena row per slot, -1 on disk.  Any row indexes the arena, so an
        # optimistic reader's token is one load and always a valid row.
        self.place = [-1] * topology.slots

    # -- placement primitives (caller holds the page exclusively) --------

    def bind_and_read(self, pid: int, target: int) -> None:
        """Fault a disk-resident page into `target`: allocate, copy, publish."""
        self._check_memory_tier(target)
        if self.place[pid] != -1:
            raise IllegalState(f"page {pid} is already memory-resident")
        row = self.pools[target].insert(pid)
        if row is None:
            raise TierFull(f"tier {target} has no free frame")
        sheet = self.registry.sheet()
        with self.registry.timed("t_disk_ns"):
            self.arena[row] = self.disk[pid]
            sheet["disk_reads"] = sheet.get("disk_reads", 0) + 1
            sheet["bytes_copied"] = sheet.get("bytes_copied", 0) + self.page_size
            self.cost.charge(self.topology.disk.read_latency_ns)
        self.place[pid] = row

    def write_back(self, pid: int) -> None:
        """Copy the page's frame to disk, free the frame, mark it disk-resident."""
        self.flush_page(pid)
        self.release_frame(pid)

    def release_frame(self, pid: int) -> None:
        """Drop a clean page's frame without writing; disk already has the bytes."""
        row = self._row(pid)
        self.place[pid] = -1
        self.pools[self._tier_of(row)].remove(row)

    def flush_page(self, pid: int) -> None:
        """Copy a dirty page to disk but keep it cached (shutdown/flush path)."""
        row = self._row(pid)
        sheet = self.registry.sheet()
        with self.registry.timed("t_disk_ns"):
            self.disk[pid] = self.arena[row]
            sheet["disk_writes"] = sheet.get("disk_writes", 0) + 1
            sheet["bytes_copied"] = sheet.get("bytes_copied", 0) + self.page_size
            self.cost.charge(self.topology.disk.write_latency_ns)

    def retarget_frame(self, pid: int, target: int) -> int:
        """Move a memory-resident page to a frame in `target`, slot unchanged.

        This is the single-page primitive the migration engine batches; it
        returns the page's old tier, and a retarget to it succeeds as a no-op.
        """
        self._check_memory_tier(target)
        src = self._row(pid)
        src_tier = self._tier_of(src)
        if src_tier == target:
            return src_tier
        dst = self.pools[target].insert(pid)
        if dst is None:
            raise TierFull(f"tier {target} has no free frame")
        self.arena[dst] = self.arena[src]
        sheet = self.registry.sheet()
        sheet["bytes_copied"] = sheet.get("bytes_copied", 0) + self.page_size
        self.place[pid] = dst
        self.pools[src_tier].remove(src)
        return src_tier

    # -- accessors -------------------------------------------------------

    def placement_of(self, pid: int) -> tuple[int, int]:
        """The page's (tier, frame within the tier), or (DISK, -1) on disk."""
        row = self.place[pid]
        if row < 0:
            return DISK, -1
        tier = self._tier_of(row)
        return tier, row - self._bases[tier]

    def page_view(self, pid: int) -> np.ndarray:
        """View of the page's current frame bytes; caller must hold the page."""
        return self.arena[self._row(pid)]

    def read_token(self, pid: int) -> int:
        """The page's arena row, or -1 on disk, for an optimistic read; the
        state word, not the token, tells whether the page moved while the
        read ran."""
        return self.place[pid]

    def free_frames(self, tier: int) -> int:
        return self.pools[tier].n_free

    def occupancy(self, tier: int) -> int:
        return len(self.pools[tier])

    def utilization(self, tier: int) -> float:
        return len(self.pools[tier]) / self.pools[tier].capacity

    # -- internals -------------------------------------------------------

    def _row(self, pid: int) -> int:
        row = self.place[pid]
        if row < 0:
            raise IllegalState(f"page {pid} is on disk")
        return row

    def _tier_of(self, row: int) -> int:
        return bisect_right(self._bases, row) - 1

    def _check_memory_tier(self, tier: int) -> None:
        if not 0 <= tier < len(self.pools):
            raise IllegalState(f"tier {tier} is not a memory tier")
