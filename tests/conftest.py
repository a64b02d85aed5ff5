"""Shared builders for the test suite."""

import random

from tierpool.backend import DISK, TierSpec, TierTopology
from tierpool.pool import BufferPool, MigrationPolicy


def topo(local: int, remote: int = 0, disk: int = 1 << 14,
         page_size: int = 4096, remote_read_ns: int = 0,
         disk_read_ns: int = 0, disk_write_ns: int = 0) -> TierTopology:
    tiers = [TierSpec(local)]
    if remote:
        tiers.append(TierSpec(remote, read_latency_ns=remote_read_ns,
                              write_latency_ns=remote_read_ns))
    return TierTopology(tiers, TierSpec(disk, read_latency_ns=disk_read_ns,
                                        write_latency_ns=disk_write_ns),
                        page_size_bytes=page_size)


def make_pool(local: int, remote: int = 0, disk: int = 1 << 14,
              page_size: int = 4096, seed: int = 0,
              policy: MigrationPolicy | None = None, **kw) -> BufferPool:
    return BufferPool(topo(local, remote, disk, page_size),
                      policy=policy, seed=seed, **kw)


def assert_coherent(pool, scan_all: bool = True) -> None:
    """Quiescent-state invariants: frame owners, placement, state words and
    frame math agree.

    Only valid while no thread holds a page or is mid-fault.
    """
    import tierpool.state_word as sw

    backend = pool.backend
    seen = {}
    for t in range(pool.topology.n_memory_tiers):
        fp = backend.pools[t]
        for frame, pid in enumerate(fp.owner):
            if pid < 0:
                continue
            assert pid not in seen, f"page {pid} owns two frames"
            seen[pid] = t
            assert backend.placement_of(pid) == (t, frame), \
                f"page {pid} owns frame {frame} of tier {t} but is placed " \
                f"at {backend.placement_of(pid)}"
        assert all(fp.owner[f] == -1 for f in fp._free), \
            f"tier {t}: a free frame has an owner"
        occ = backend.occupancy(t)
        snap = fp.snapshot()
        assert occ == len(snap) == len(fp), \
            f"tier {t}: {occ} frames vs {len(snap)} owned"
        assert backend.free_frames(t) + occ == \
            pool.topology.memory_tiers[t].capacity_pages
    for pid in [pid for pid, packed in enumerate(backend.place) if packed >= 0]:
        t, frame = backend.placement_of(pid)
        assert backend.pools[t].owner[frame] == pid, \
            f"page {pid} is placed at {(t, frame)} but that frame has another owner"
    for pid, t in seen.items():
        lock, tier, _ = pool.page_state(pid)
        assert lock != sw.EVICTED, f"resident page {pid} has an evicted word"
        assert tier == t, f"page {pid}: word tier {tier}, frame tier {t}"
    if scan_all:
        for pid in range(pool.topology.slots):
            if pid in seen:
                continue
            lock, _, _ = pool.page_state(pid)
            assert lock == sw.EVICTED, \
                f"non-resident page {pid} is {sw.describe_lock(lock)}"
            assert backend.placement_of(pid) == (DISK, -1)
            assert not pool.is_dirty(pid), f"evicted page {pid} still dirty"


class ScriptedRng(random.Random):
    """random.Random whose random() replays a fixed script, then a real stream.

    Lets a test pin exactly which policy coin-flips come up and in what
    order; consumed count is observable via `used`.
    """

    def __new__(cls, script, tail_seed: int = 99):
        # random.Random.__new__ seeds from its first argument
        return super().__new__(cls, tail_seed)

    def __init__(self, script, tail_seed: int = 99):
        super().__init__(tail_seed)
        self.script = list(script)
        self.used = 0

    def random(self) -> float:
        self.used += 1
        if self.script:
            return float(self.script.pop(0))
        return super().random()
