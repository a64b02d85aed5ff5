"""Frame arenas, the simulated disk, page placement plumbing, and each
frame pool's owner array and clock sweep."""

import random

import pytest

from conftest import topo
from tierpool.backend import DISK, FramePool, TierBackend, TierSpec, TierTopology
from tierpool.cost_model import CostModel
from tierpool.errors import ConfigError, IllegalState, TierFull


def test_topology_validation():
    with pytest.raises(ConfigError):
        TierTopology((), TierSpec(16))
    with pytest.raises(ConfigError):
        TierTopology((TierSpec(0),), TierSpec(16))
    with pytest.raises(ConfigError):
        TierTopology((TierSpec(4),), TierSpec(0))
    with pytest.raises(ConfigError):
        TierTopology((TierSpec(4),), TierSpec(16), page_size_bytes=1000)
    t = topo(4, 8, 64)
    assert t.n_memory_tiers == 2 and t.slots == 64


def test_bind_read_write_round_trip():
    be = TierBackend(topo(4, disk=32, page_size=512))
    be.bind_and_read(5, 0)
    assert be.placement_of(5) == (0, 0)
    view = be.page_view(5)
    assert view.shape == (512,) and not view.any()
    view[:4] = [1, 2, 3, 4]
    be.write_back(5)
    assert be.placement_of(5) == (DISK, -1)
    assert be.free_frames(0) == 4
    # bytes must come back from the disk image
    be.bind_and_read(5, 0)
    assert list(be.page_view(5)[:4]) == [1, 2, 3, 4]


def test_bind_refuses_double_residency():
    be = TierBackend(topo(4, disk=32))
    be.bind_and_read(1, 0)
    with pytest.raises(IllegalState):
        be.bind_and_read(1, 0)


def test_tier_full():
    be = TierBackend(topo(2, disk=32))
    be.bind_and_read(0, 0)
    be.bind_and_read(1, 0)
    with pytest.raises(TierFull):
        be.bind_and_read(2, 0)
    be.release_frame(0)
    be.bind_and_read(2, 0)  # freed frame is reusable
    assert be.occupancy(0) == 2


def test_release_discards_without_write():
    be = TierBackend(topo(2, disk=32, page_size=512))
    be.bind_and_read(7, 0)
    be.page_view(7)[:] = 0xAB
    be.release_frame(7)
    be.bind_and_read(7, 0)
    assert not be.page_view(7).any()


def test_flush_page_keeps_residency():
    be = TierBackend(topo(2, disk=32, page_size=512))
    be.bind_and_read(3, 0)
    be.page_view(3)[:8] = 9
    be.flush_page(3)
    assert be.placement_of(3)[0] == 0
    assert be.registry.total()["disk_writes"] == 1
    # a later clean drop must still find the flushed bytes
    be.release_frame(3)
    be.bind_and_read(3, 0)
    assert list(be.page_view(3)[:8]) == [9] * 8


def test_retarget_moves_bytes_and_frees_source():
    be = TierBackend(topo(2, 2, disk=32, page_size=512))
    be.bind_and_read(4, 0)
    be.page_view(4)[:] = 0x5C
    before = be.read_token(4)
    be.retarget_frame(4, 1)
    assert be.placement_of(4) == (1, 0)
    assert be.page_view(4)[0] == 0x5C
    assert be.free_frames(0) == 2 and be.occupancy(1) == 1
    assert be.read_token(4) != before  # packed placement changed
    # same-tier retarget is a no-op
    be.retarget_frame(4, 1)
    assert be.placement_of(4) == (1, 0) and be.occupancy(1) == 1


def test_counters_and_latency_accounting():
    cm = CostModel(enabled=True, sleep_threshold_ns=10**12)  # spin only
    be = TierBackend(topo(4, disk=32, page_size=512,
                      disk_read_ns=2000, disk_write_ns=3000), cost_model=cm)
    be.bind_and_read(0, 0)
    be.bind_and_read(1, 0)
    be.page_view(1)[:] = 1
    be.write_back(1)
    t = be.registry.total()
    assert t["disk_reads"] == 2 and t["disk_writes"] == 1
    assert t["t_disk_ns"] >= 2 * 2000 + 3000


def test_utilization_math():
    be = TierBackend(topo(4, disk=32))
    assert be.utilization(0) == 0.0
    for pid in range(3):
        be.bind_and_read(pid, 0)
    assert be.utilization(0) == pytest.approx(0.75)
    assert be.free_frames(0) == 1


# -- owner array and clock sweep ----------------------------------------

def bound_pool(capacity: int, pids) -> FramePool:
    fp = FramePool(0, capacity)
    for pid in pids:
        fp.insert(pid)
    return fp


def test_sweep_visits_each_once_per_lap():
    fp = bound_pool(16, range(10))
    seen = []
    taken = fp.sweep(lambda p: seen.append(p) or True, max_take=100)
    assert sorted(taken) == sorted(seen) == list(range(10))


def test_sweep_hand_persists_across_calls():
    fp = bound_pool(16, range(10))
    a = fp.sweep(lambda p: True, max_take=4)
    b = fp.sweep(lambda p: True, max_take=4)
    assert len(a) == 4 and len(b) == 4
    assert not set(a) & set(b)  # second call resumes, no overlap inside one lap


def test_sweep_respects_visit_veto():
    fp = bound_pool(16, range(8))
    wanted = {2, 5}
    taken = fp.sweep(lambda p: p in wanted, max_take=10)
    assert sorted(taken) == [2, 5]


def test_sweep_stops_after_one_lap_when_starved():
    fp = bound_pool(16, [1])
    visits = []
    assert fp.sweep(lambda p: visits.append(p) or False, max_take=3) == []
    assert visits == [1]


def test_sweep_max_take_zero():
    fp = bound_pool(8, [1])
    assert fp.sweep(lambda p: True, max_take=0) == []


def test_free_list_is_fifo():
    fp = bound_pool(4, range(4))
    fp.remove(2)
    fp.remove(0)
    assert fp.insert(7) == 2 and fp.insert(8) == 0
    assert fp.owner == [8, 1, 7, 3]


def test_owner_fuzz_against_dict_model():
    """Random binds, drops and moves over two tiers keep every frame pool's
    owner array, its count and the page table equal to a dict model."""
    be = TierBackend(topo(6, 5, disk=24, page_size=512))
    model = {}  # pid -> tier
    rnd = random.Random(5)
    for _ in range(3000):
        pid = rnd.randrange(24)
        op = rnd.random()
        if pid not in model:
            t = rnd.randrange(2)
            if be.free_frames(t):
                be.bind_and_read(pid, t)
                model[pid] = t
            else:
                with pytest.raises(TierFull):
                    be.bind_and_read(pid, t)
        elif op < 0.25:
            be.release_frame(pid)
            del model[pid]
        elif op < 0.5:
            be.write_back(pid)
            del model[pid]
        else:
            t = rnd.randrange(2)
            if t == model[pid] or be.free_frames(t):
                be.retarget_frame(pid, t)
                model[pid] = t
            else:
                with pytest.raises(TierFull):
                    be.retarget_frame(pid, t)
        for t, fp in enumerate(be.pools):
            want = sorted(p for p, mt in model.items() if mt == t)
            assert sorted(fp.snapshot()) == want
            assert len(fp) == len(want) == be.occupancy(t)
            for frame, owner in enumerate(fp.owner):
                if owner >= 0:
                    assert be.placement_of(owner) == (t, frame)
        for p in range(24):
            t, frame = be.placement_of(p)
            assert (t == DISK) == (p not in model)
            if t != DISK:
                assert be.pools[t].owner[frame] == p
