"""Simulated n-tier physical substrate: frame pools, page table, and disk.

The backend owns the truth about where every page physically lives.  Memory
tiers are byte arenas carved into page frames; the disk is a flat page store
(in-memory by default, file-backed on request, page i at byte offset
i * page_size).  The page-slot space is sized by the disk tier, and a page's
slot index never changes; only the frame backing it moves.

Callers must hold a page's exclusive state-word lock before calling any
operation that moves or drops its frame; accessors are plain reads.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cost_model import CostModel
from .errors import ConfigError, IllegalState, TierFull
from .stats import StatsRegistry

# Destination marker for "the disk tier" in pool/backend APIs.
DISK = -1

# A placement packs gen << 48 | tier << 40 | frame; see TierBackend.place.
_FRAME_SHIFT = 40
_FRAME_MASK = (1 << _FRAME_SHIFT) - 1
_TIER_MASK = 0xFF
_GEN_SHIFT = 48


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


@dataclass(frozen=True)
class Placement:
    """Physical location of a page: a (tier, frame) pair or the disk."""

    tier: int
    frame: int

    @property
    def on_disk(self) -> bool:
        return self.tier == DISK


ON_DISK = Placement(DISK, -1)


class FramePool:
    """One tier's byte arena, its free frames, and the page bound to each frame.

    `owner[frame]` holds the pid bound to the frame, or -1 for a free frame.
    It is the tier's only record of residency: membership, occupancy and
    the clock's sweep order all read it.  Each frame carries a generation
    counter, bumped exactly when `insert` binds the frame.  The backend
    folds it into the page's placement right after every bind, so an
    optimistic reader that sees the same placement twice knows the frame
    was not recycled under it.

    The free list is FIFO.  The clock walks frames, so the order in which
    freed frames are reused decides where a newly bound page sits relative
    to the hand; reusing the newest free frame first instead made the
    default policy migrate about four times as many pages per remote-tier
    lookup.
    """

    def __init__(self, capacity_pages: int, page_size: int):
        self.capacity = capacity_pages
        self.arena = np.zeros((capacity_pages, page_size), dtype=np.uint8)
        self.gen = [0] * capacity_pages
        self.owner = [-1] * capacity_pages
        self._free = deque(range(capacity_pages))
        self._hand = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.capacity - len(self._free)

    def insert(self, pid: int) -> int | None:
        """Bind `pid` to a free frame; returns the frame, None when full."""
        with self._lock:
            if not self._free:
                return None
            frame = self._free.popleft()
            self.gen[frame] += 1
            self.owner[frame] = pid
            return frame

    def remove(self, frame: int) -> None:
        with self._lock:
            self.owner[frame] = -1
            self._free.append(frame)

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


class SimDisk:
    """Flat page store; in-memory by default, file-backed when given a path."""

    def __init__(self, capacity_pages: int, page_size: int, path: str | None = None):
        self.capacity = capacity_pages
        self.page_size = page_size
        self.path = path
        if path is None:
            self.store = np.zeros((capacity_pages, page_size), dtype=np.uint8)
        else:
            nbytes = capacity_pages * page_size
            mode = "r+" if os.path.exists(path) and os.path.getsize(path) == nbytes else "w+"
            self.store = np.memmap(path, dtype=np.uint8, mode=mode,
                                   shape=(capacity_pages, page_size))

    def flush(self) -> None:
        if self.path is not None:
            self.store.flush()


class TierBackend:
    """Page table plus per-tier frame pools plus the simulated disk."""

    def __init__(self, topology: TierTopology, cost_model: CostModel | None = None,
                 disk_path: str | None = None, registry: StatsRegistry | None = None):
        self.topology = topology
        self.cost = cost_model or CostModel()
        self.registry = registry or StatsRegistry()
        self.page_size = topology.page_size_bytes
        self.pools = [FramePool(t.capacity_pages, self.page_size)
                      for t in topology.memory_tiers]
        self.disk = SimDisk(topology.slots, self.page_size, disk_path)
        # Packed placement per slot: -1 on disk, else
        # gen << 48 | tier << 40 | frame, where gen is the frame's generation
        # when the page was bound to it.  One int, so an optimistic reader's
        # token is one load, and a recycled frame gives a different token.
        self.place = [-1] * topology.slots

    # -- placement primitives (caller holds the page exclusively) --------

    def bind_and_read(self, pid: int, target: int) -> Placement:
        """Fault a disk-resident page into `target`: allocate, copy, publish."""
        self._check_memory_tier(target)
        if self.place[pid] != -1:
            raise IllegalState(f"page {pid} is already memory-resident")
        pool = self.pools[target]
        frame = pool.insert(pid)
        if frame is None:
            raise TierFull(f"tier {target} has no free frame")
        sheet = self.registry.sheet()
        with self.registry.timed("t_disk_ns"):
            pool.arena[frame] = self.disk.store[pid]
            sheet["disk_reads"] = sheet.get("disk_reads", 0) + 1
            sheet["bytes_copied"] = sheet.get("bytes_copied", 0) + self.page_size
            self.cost.charge(self.topology.disk.read_latency_ns)
        self.place[pid] = ((pool.gen[frame] << _GEN_SHIFT)
                           | (target << _FRAME_SHIFT) | frame)
        return Placement(target, frame)

    def write_back(self, pid: int) -> None:
        """Copy the page's frame to disk, free the frame, mark it disk-resident."""
        self.flush_page(pid)
        self.release_frame(pid)

    def release_frame(self, pid: int) -> None:
        """Drop a clean page's frame without writing; disk already has the bytes."""
        tier, frame = self._resolve(pid)
        self.place[pid] = -1
        self.pools[tier].remove(frame)

    def flush_page(self, pid: int) -> None:
        """Copy a dirty page to disk but keep it cached (shutdown/flush path)."""
        tier, frame = self._resolve(pid)
        sheet = self.registry.sheet()
        with self.registry.timed("t_disk_ns"):
            self.disk.store[pid] = self.pools[tier].arena[frame]
            sheet["disk_writes"] = sheet.get("disk_writes", 0) + 1
            sheet["bytes_copied"] = sheet.get("bytes_copied", 0) + self.page_size
            self.cost.charge(self.topology.disk.write_latency_ns)

    def retarget_frame(self, pid: int, target: int) -> Placement:
        """Move a memory-resident page to a frame in `target`, slot unchanged.

        This is the single-page primitive the migration engine batches.  A
        retarget to the page's current tier is a successful no-op.
        """
        self._check_memory_tier(target)
        src_tier, src_frame = self._resolve(pid)
        if src_tier == target:
            return Placement(src_tier, src_frame)
        dst_pool = self.pools[target]
        dst_frame = dst_pool.insert(pid)
        if dst_frame is None:
            raise TierFull(f"tier {target} has no free frame")
        dst_pool.arena[dst_frame] = self.pools[src_tier].arena[src_frame]
        sheet = self.registry.sheet()
        sheet["bytes_copied"] = sheet.get("bytes_copied", 0) + self.page_size
        self.place[pid] = ((dst_pool.gen[dst_frame] << _GEN_SHIFT)
                           | (target << _FRAME_SHIFT) | dst_frame)
        self.pools[src_tier].remove(src_frame)
        return Placement(target, dst_frame)

    # -- accessors -------------------------------------------------------

    def placement_of(self, pid: int) -> Placement:
        packed = self.place[pid]
        if packed < 0:
            return ON_DISK
        return Placement((packed >> _FRAME_SHIFT) & _TIER_MASK, packed & _FRAME_MASK)

    def page_view(self, pid: int) -> np.ndarray:
        """View of the page's current frame bytes; caller must hold the page."""
        tier, frame = self._resolve(pid)
        return self.pools[tier].arena[frame]

    def read_token(self, pid: int) -> int:
        """Snapshot for optimistic reads: the packed placement
        gen << 48 | tier << 40 | frame, or -1 on disk.  Two equal tokens
        mean the page sat in the same binding of the same frame."""
        return self.place[pid]

    def free_frames(self, tier: int) -> int:
        return self.pools[tier].n_free

    def occupancy(self, tier: int) -> int:
        return len(self.pools[tier])

    def utilization(self, tier: int) -> float:
        return len(self.pools[tier]) / self.pools[tier].capacity

    def close(self) -> None:
        self.disk.flush()

    # -- internals -------------------------------------------------------

    def _resolve(self, pid: int) -> tuple[int, int]:
        packed = self.place[pid]
        if packed < 0:
            raise IllegalState(f"page {pid} is on disk")
        return (packed >> _FRAME_SHIFT) & _TIER_MASK, packed & _FRAME_MASK

    def _check_memory_tier(self, tier: int) -> None:
        if not 0 <= tier < len(self.pools):
            raise IllegalState(f"tier {tier} is not a memory tier")
