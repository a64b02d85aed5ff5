"""BufferPool: faults, policy rolls, eviction, promotion, optimistic reads."""

import random
import sys
import threading
import time

import numpy as np
import pytest

import tierpool.state_word as sw
from conftest import ScriptedRng, assert_coherent, make_pool
from test_state_word import all_edges
from tierpool.backend import DISK
from tierpool.errors import ConfigError, IllegalState, PoolTimeout
from tierpool.pool import DRAM, MigrationPolicy


def test_fault_then_hit():
    pool = make_pool(8, disk=64)
    h = pool.fix(3)
    assert not h.data.any()
    h.data[:4] = [9, 9, 9, 9]
    pool.unfix(h, dirty=True)
    assert pool.page_state(3) == (sw.UNLOCKED, 0, 1)
    h = pool.fix(3)
    assert list(h.data[:4]) == [9, 9, 9, 9]
    pool.unfix(h)
    s = pool.stats()
    assert s.faults == 1 and s.hits[0] == 1 and s.fixes == 2


def test_clean_unfix_keeps_version():
    pool = make_pool(4, disk=16)
    h = pool.fix(0)
    pool.unfix(h)
    assert pool.page_state(0) == (sw.UNLOCKED, 0, 0)


def test_handle_context_manager_marks_dirty():
    pool = make_pool(4, disk=16)
    with pool.fix(1) as h:
        h.data[0] = 7
        h.mark_dirty()
    assert pool.page_state(1)[2] == 1
    assert pool.is_dirty(1)


def test_fix_counts_a_page_evicted_before_its_lock_as_a_fault():
    """Hit or fault is decided on the path that returns the handle."""
    pool = make_pool(4, disk=16)
    pool.unfix(pool.fix(1))                   # page 1 now resident
    real_cas = pool.state.compare_and_swap

    def cas(slot, expected, new):             # fix() saw it resident
        pool.state.compare_and_swap = real_cas
        pool.evict_all()
        return real_cas(slot, expected, new)

    pool.state.compare_and_swap = cas
    pool.unfix(pool.fix(1))
    s = pool.stats()
    assert s.fixes == 2 and s.faults == 2 and s.hits[0] == 0
    assert s.disk_reads == 2


def test_fix_charges_the_tier_of_the_word_it_locked():
    """A promotion between fix()'s check and its lock must not leave the
    hit charged to the tier the page left."""
    pol = MigrationPolicy(dr=0.0, rr=0.0, promote_batch=1)
    pool = make_pool(8, 8, disk=64, policy=pol, trace=True)
    pool.unfix(pool.fix(1))                   # faults into the remote tier
    charged = []
    pool._charge_access = charged.append
    real_load = pool.state.load
    loads = []

    def load(slot):
        loads.append(slot)
        if len(loads) == 3:                   # after fix() saw it remote twice
            pool.state.load = real_load
            pool.promote_batch(1, 1)
        return real_load(slot)

    start = len(pool.state.trace_log)
    pool.state.load = load
    pool.unfix(pool.fix(1))
    lay = pool.layout
    locked = [lay.tier(new) for slot, old, new in pool.state.trace_log[start:]
              if lay.lock_byte(old) == sw.UNLOCKED and lay.lock_byte(new) == sw.LOCKED]
    assert charged == locked[-1:]             # the fix's own lock is the last
    assert pool.stats().hits == [0, 1]


def test_shared_fix_of_a_marked_page_only_unmarks_it():
    pool = make_pool(4, disk=16, trace=True)
    pool.unfix(pool.fix(0))
    pool.evict_batch(0, DISK)                 # marks only
    assert pool.page_state(0) == (sw.MARKED, 0, 0)
    start = len(pool.state.trace_log)
    h = pool.fix(0, exclusive=False)
    assert pool.page_state(0) == (1, 0, 0)
    pool.unfix(h)
    locks = [pool.layout.lock_byte(new) for slot, _, new in pool.state.trace_log[start:]
             if slot == 0]
    assert locks == [sw.UNLOCKED, 1, sw.UNLOCKED]
    assert pool.stats().hits[0] == 1


def test_shared_fault_survives_a_mark_before_its_downgrade():
    """A shared fault drops its exclusive lock before taking the shared
    one; a clock mark (or a demotion, which lands Marked) in that gap
    must not leave it spinning until its timeout."""
    pool = make_pool(4, disk=16, fix_timeout_s=2.0)
    try_edge = pool.state.try_edge

    def clock_in_the_gap(slot, edge, *word):
        applied = try_edge(slot, edge, *word)
        if edge.kind is sw.EdgeKind.UNLOCK_EXCLUSIVE and applied:
            assert try_edge(slot, sw.Edge.mark())
        return applied

    pool.state.try_edge = clock_in_the_gap
    h = pool.fix(3, exclusive=False)
    assert pool.page_state(3) == (1, 0, 0)
    pool.unfix(h)
    s = pool.stats()
    assert s.fixes == 1 and s.faults == 1


def test_shared_fault_into_the_remote_tier_stays_there():
    """A shared fault is a fault, not a remote hit: no rr roll, no hit,
    no promotion, and the page stays where dr put it."""
    pol = MigrationPolicy(dr=0.0, rr=1.0)
    pool = make_pool(8, 8, disk=64, policy=pol)
    rng = ScriptedRng([0.5])                  # dr roll: 0.5 >= dr, remote
    h = pool.fix(3, exclusive=False, rng=rng)
    assert rng.used == 1
    assert pool.page_state(3) == (1, 1, 0)    # LockedShared(1) in tier 1
    s = pool.stats()
    assert s.fixes == 1 and s.faults == 1
    assert s.hits == [0, 0] and s.promotions == 0
    pool.unfix(h)


def test_shared_lock_counting():
    pool = make_pool(4, disk=16)
    a = pool.fix(0, exclusive=False)
    b = pool.fix(0, exclusive=False)
    assert pool.page_state(0)[0] == 2
    pool.unfix(a)
    assert pool.page_state(0)[0] == 1
    pool.unfix(b)
    assert pool.page_state(0)[0] == sw.UNLOCKED


def test_shared_blocks_exclusive_cas():
    pool = make_pool(4, disk=16)
    h = pool.fix(0, exclusive=False)
    from tierpool.state_word import Edge
    assert not pool.state.try_edge(0, Edge.lock_exclusive())
    pool.unfix(h)


def test_double_unfix_is_an_error():
    pool = make_pool(4, disk=16)
    h = pool.fix(0)
    pool.unfix(h)
    with pytest.raises(AssertionError):
        pool.unfix(h)


def test_fix_rejects_out_of_range_pid():
    pool = make_pool(4, disk=16)
    with pytest.raises(ConfigError):
        pool.fix(16)


def test_introspection_and_promotion_reject_out_of_range_pid():
    """A negative pid must not wrap around to the last page."""
    pool = make_pool(4, remote=4, disk=8,
                     policy=MigrationPolicy(dr=0.0, rr=0.0))
    with pool.fix(7) as page:   # dr=0: the fault lands in tier 1
        page.mark_dirty()
    before = pool.page_state(7)
    assert before[1] == 1
    for pid in (-1, 8):
        with pytest.raises(ConfigError):
            pool.promote_batch(pid, 1)
        with pytest.raises(ConfigError):
            pool.page_state(pid)
        with pytest.raises(ConfigError):
            pool.is_dirty(pid)
    assert pool.page_state(7) == before


def test_fix_timeout_on_held_page():
    pool = make_pool(4, disk=16, fix_timeout_s=0.2)
    h = pool.fix(0)
    done = []

    def rival():
        try:
            pool.fix(0, exclusive=False)
        except PoolTimeout:
            done.append("timeout")

    t = threading.Thread(target=rival)
    t.start()
    t.join(5)
    pool.unfix(h)
    assert done == ["timeout"]


# -- policy rolls --------------------------------------------------------

def test_dr_roll_places_faults():
    pol = MigrationPolicy(dr=0.5, rr=0.0)
    pool = make_pool(8, 8, disk=64, policy=pol)
    h = pool.fix(0, rng=ScriptedRng([0.2]))   # 0.2 < dr: DRAM
    pool.unfix(h)
    h = pool.fix(1, rng=ScriptedRng([0.8]))   # 0.8 >= dr: remote
    pool.unfix(h)
    assert pool.page_state(0)[1] == DRAM
    assert pool.page_state(1)[1] == 1
    assert pool.backend.placement_of(1).tier == 1


def test_rr_roll_promotes_remote_hits():
    pol = MigrationPolicy(dr=0.0, rr=0.5, promote_batch=1)
    pool = make_pool(8, 8, disk=64, policy=pol)
    h = pool.fix(5, rng=ScriptedRng([0.9]))   # fault lands remote (dr=0)
    pool.unfix(h)
    h = pool.fix(5, rng=ScriptedRng([0.8]))   # 0.8 >= rr: no promotion
    pool.unfix(h)
    assert pool.page_state(5)[1] == 1
    h = pool.fix(5, rng=ScriptedRng([0.2]))   # 0.2 < rr: promote
    pool.unfix(h)
    assert pool.page_state(5)[1] == DRAM
    s = pool.stats()
    assert s.promotions == 1 and s.hits[1] == 2


def test_rw_roll_picks_demotion_destination():
    pol = MigrationPolicy(rw=0.5, rr=0.0, dr=1.0, evict_batch=64)
    pool = make_pool(8, 8, disk=64, policy=pol)
    for pid in range(6):
        pool.unfix(pool.fix(pid, rng=ScriptedRng([0.0])))
    # two sweeps per round: first marks, second takes
    rng = ScriptedRng([0.9, 0.9])             # >= rw both rounds: straight to disk
    pool._evict_round(0, rng)
    pool._evict_round(0, rng)
    assert pool.stats().evictions_to_disk == 6
    for pid in range(6):
        pool.unfix(pool.fix(pid, rng=ScriptedRng([0.0])))
    rng = ScriptedRng([0.1, 0.1])             # < rw: demote to the remote tier
    pool._evict_round(0, rng)
    pool._evict_round(0, rng)
    s = pool.stats()
    assert s.demotions == 6 and s.evictions_to_disk == 6
    assert pool.backend.occupancy(1) == 6


def test_dw_roll_can_skip_dirty_writeback():
    pol = MigrationPolicy(dw=0.5, evict_batch=8)
    pool = make_pool(4, disk=16, policy=pol)
    with pool.fix(2) as h:
        h.data[0] = 1
        h.mark_dirty()
    pool.evict_batch(0, DISK, rng=ScriptedRng([]))      # marks only
    evicted = pool.evict_batch(0, DISK, rng=ScriptedRng([0.9]))  # skip roll
    assert evicted == 0
    assert pool.is_dirty(2) and pool.page_state(2)[0] == sw.UNLOCKED
    pool.evict_batch(0, DISK, rng=ScriptedRng([]))      # re-mark
    evicted = pool.evict_batch(0, DISK, rng=ScriptedRng([0.2]))  # write roll
    assert evicted == 1
    assert pool.stats().disk_writes == 1 and not pool.is_dirty(2)
    assert pool.page_state(2)[0] == sw.EVICTED


def test_dw_keep_roll_only_unmarks_the_page():
    pol = MigrationPolicy(dw=0.5, evict_batch=8)
    pool = make_pool(4, disk=16, policy=pol, trace=True)
    with pool.fix(2) as h:
        h.data[0] = 1
        h.mark_dirty()
    pool.evict_batch(0, DISK, rng=ScriptedRng([]))      # marks only
    start = len(pool.state.trace_log)
    rng = ScriptedRng([0.9])                            # keep roll
    assert pool.evict_batch(0, DISK, rng=rng) == 0
    assert rng.used == 1
    lay = pool.layout
    assert [(lay.lock_byte(old), lay.lock_byte(new), lay.version(new))
            for _, old, new in pool.state.trace_log[start:]] == \
        [(sw.MARKED, sw.UNLOCKED, 1)]
    assert pool.is_dirty(2) and pool.page_state(2) == (sw.UNLOCKED, 0, 1)


# -- eviction and clock --------------------------------------------------

def test_evicted_dirty_page_survives_round_trip():
    pool = make_pool(2, disk=16)
    with pool.fix(9) as h:
        h.data[:3] = [4, 5, 6]
        h.mark_dirty()
    pool.evict_batch(0, DISK)
    pool.evict_batch(0, DISK)
    assert pool.page_state(9)[0] == sw.EVICTED
    with pool.fix(9) as h:
        assert list(h.data[:3]) == [4, 5, 6]


def test_evict_batch_rejects_an_upward_move():
    pool = make_pool(8, 8, disk=64)
    with pytest.raises(ConfigError):
        pool.evict_batch(1, DRAM)


def test_clock_second_chance():
    pool = make_pool(8, disk=32, policy=MigrationPolicy(evict_batch=8))
    for pid in range(4):
        pool.unfix(pool.fix(pid))
    assert pool.evict_batch(0, DISK) == 0     # first pass only marks
    assert pool.page_state(2)[0] == sw.MARKED
    pool.unfix(pool.fix(2))                   # touch clears the mark
    assert pool.page_state(2)[0] == sw.UNLOCKED
    evicted = pool.evict_batch(0, DISK)       # takes the still-marked three
    assert evicted == 3
    assert pool.page_state(2)[0] != sw.EVICTED
    for pid in (0, 1, 3):
        assert pool.page_state(pid)[0] == sw.EVICTED


def test_maybe_evict_enforces_threshold():
    pol = MigrationPolicy(evict_batch=16)
    pool = make_pool(16, disk=64, policy=pol)
    for pid in range(16):
        pool.unfix(pool.fix(pid))
    assert pool.backend.utilization(0) == 1.0
    pool.maybe_evict(0)
    assert pool.backend.occupancy(0) < 0.95 * 16
    assert_coherent(pool)


def test_make_room_reports_undersized_pool():
    pool = make_pool(2, disk=16, fix_timeout_s=5.0)
    h0 = pool.fix(0)
    h1 = pool.fix(1)
    with pytest.raises(ConfigError):
        pool.fix(2)
    pool.unfix(h0)
    pool.unfix(h1)


def test_flush_all_keeps_pages_resident():
    pool = make_pool(8, disk=32)
    for pid in range(4):
        with pool.fix(pid) as h:
            h.data[0] = pid + 1
            h.mark_dirty()
    assert pool.flush_all() == 4
    assert pool.backend.occupancy(0) == 4
    assert pool.stats().disk_writes == 4
    assert not any(pool.is_dirty(p) for p in range(4))


def test_evict_all_then_reload():
    pool = make_pool(8, 8, disk=64, policy=MigrationPolicy(dr=1.0, rr=0.0))
    for pid in range(6):
        with pool.fix(pid) as h:
            h.data[0] = pid
            h.mark_dirty()
    assert pool.evict_all() == 6
    assert pool.backend.occupancy(0) == 0 and pool.backend.occupancy(1) == 0
    assert_coherent(pool)
    for pid in range(6):
        with pool.fix(pid) as h:
            assert h.data[0] == pid


def test_evict_all_writes_back_every_dirty_page_whatever_dw():
    pool = make_pool(8, disk=64, policy=MigrationPolicy(dw=0.0))
    for pid in range(5):
        with pool.fix(pid) as h:
            h.data[0] = pid + 1
            h.mark_dirty()
    assert pool.evict_all() == 5
    assert pool.stats().disk_writes == 5
    assert not any(pool.is_dirty(p) for p in range(5))
    assert_coherent(pool)
    for pid in range(5):
        with pool.fix(pid) as h:
            assert h.data[0] == pid + 1


# -- promotion -----------------------------------------------------------

def test_promote_batch_pulls_trigger_and_neighbors():
    pol = MigrationPolicy(dr=0.0, rr=0.0, promote_batch=4)
    pool = make_pool(8, 8, disk=64, policy=pol)
    for pid in range(6):
        pool.unfix(pool.fix(pid))            # all fault into the remote tier
    moved = pool.promote_batch(2, 1)
    assert moved == 4
    assert pool.page_state(2)[1] == DRAM
    assert pool.backend.occupancy(0) == 4 and pool.backend.occupancy(1) == 2
    assert pool.stats().promotions == 4
    assert_coherent(pool)


def test_demoted_pages_land_marked_and_only_accessed_ones_are_promoted():
    pol = MigrationPolicy(rr=0.0, evict_batch=8, promote_batch=8)
    pool = make_pool(8, 8, disk=64, policy=pol)
    for pid in range(6):
        pool.unfix(pool.fix(pid))
    assert pool.evict_batch(0, 1) == 0        # first pass only marks
    assert pool.evict_batch(0, 1) == 6
    for pid in range(6):
        assert pool.page_state(pid) == (sw.MARKED, 1, 0)
    for pid in (1, 3):                        # accessed since demotion
        pool.optimistic_read(pid, lambda v: int(v[0]))
    assert pool.promote_batch(5, 1) == 3      # the trigger plus pages 1 and 3
    assert [pool.page_state(pid)[1] for pid in range(6)] == [1, DRAM, 1, DRAM, 1, DRAM]
    for pid in (0, 2, 4):
        assert pool.page_state(pid)[0] == sw.MARKED
    assert_coherent(pool)


@pytest.mark.parametrize("unmark", ["flush_all", "dw_keep_roll"])
def test_promotion_does_not_carry_pages_whose_mark_no_access_cleared(unmark):
    pol = MigrationPolicy(dw=0.5, rr=0.0, evict_batch=8, promote_batch=8)
    pool = make_pool(8, 8, disk=64, policy=pol)
    for pid in range(6):
        with pool.fix(pid) as h:
            h.mark_dirty()
    assert pool.evict_batch(0, 1) == 0        # first pass only marks
    assert pool.evict_batch(0, 1) == 6        # demoted pages land Marked
    if unmark == "flush_all":
        assert pool.flush_all() == 6          # lock/unlock clears each mark
    else:
        rng = ScriptedRng([0.9] * 6)          # keep every dirty page a lap
        assert pool.evict_batch(1, DISK, rng=rng) == 0
        assert rng.used == 6
    for pid in range(6):
        assert pool.page_state(pid)[:2] == (sw.UNLOCKED, 1)
    remote = pool.backend.pools[1]
    sweeps = []
    sweep = remote.sweep
    remote.sweep = lambda visit, max_take: sweeps.append(max_take) or sweep(visit, max_take)
    assert pool.promote_batch(5, 1) == 1      # the trigger alone
    assert sweeps == []
    assert [pool.page_state(pid)[1] for pid in range(6)] == [1, 1, 1, 1, 1, DRAM]
    assert_coherent(pool)


def _faulted_remote(pool, pids):
    for pid in pids:
        pool.unfix(pool.fix(pid))             # dr=0: each lands remote, enlisted


def test_promotion_skips_a_candidate_evicted_to_disk():
    pol = MigrationPolicy(dr=0.0, rr=0.0, evict_batch=8, promote_batch=4)
    pool = make_pool(8, 8, disk=64, policy=pol)
    _faulted_remote(pool, [0])
    assert pool.evict_batch(1, DISK) == 0
    assert pool.evict_batch(1, DISK) == 1
    _faulted_remote(pool, [1, 2])
    assert list(pool._candidates[1]) == [0, 1, 2]
    assert pool.promote_batch(2, 1) == 2      # the trigger and page 1
    assert pool.page_state(0)[0] == sw.EVICTED
    assert pool.page_state(1)[1] == DRAM and pool.page_state(2)[1] == DRAM
    assert not pool._candidates[1]
    assert_coherent(pool)


@pytest.mark.parametrize("exclusive", [True, False])
def test_promotion_skips_a_locked_candidate(exclusive):
    pol = MigrationPolicy(dr=0.0, rr=0.0, promote_batch=4)
    pool = make_pool(8, 8, disk=64, policy=pol)
    _faulted_remote(pool, [0, 1, 2])
    h = pool.fix(1, exclusive=exclusive)      # a remote hit enlists page 1 again
    assert list(pool._candidates[1]) == [1, 2, 1]   # page 0 fell off
    assert pool.promote_batch(0, 1) == 2      # the trigger and page 2
    assert pool.page_state(1)[1] == 1
    pool.unfix(h)
    assert pool.page_state(1)[:2] == (sw.UNLOCKED, 1)
    assert_coherent(pool)


def test_promotion_skips_a_candidate_the_clock_marked_since():
    pol = MigrationPolicy(dr=0.0, rr=0.0, evict_batch=8, promote_batch=4)
    pool = make_pool(8, 8, disk=64, policy=pol)
    _faulted_remote(pool, [0, 1])
    assert pool.evict_batch(1, DISK) == 0     # marks both
    pool.optimistic_read(1, lambda v: int(v[0]))  # an access clears 1's mark
    assert pool.promote_batch(1, 1) == 1      # page 0 was not accessed since
    assert pool.page_state(0)[:2] == (sw.MARKED, 1)
    assert_coherent(pool)


def test_promotion_skips_a_candidate_another_trigger_promoted():
    pol = MigrationPolicy(dr=0.0, rr=0.0, promote_batch=4)
    pool = make_pool(8, 8, disk=64, policy=pol)
    _faulted_remote(pool, [0, 1])
    assert pool.promote_batch(0, 1) == 2      # drops its own entry, carries 1

    class RacingRng(ScriptedRng):
        """Another fix promotes page 2 while this fix rolls rr for it."""

        def random(self):
            if self.used == 0:
                assert pool.promote_batch(2, 1) == 2   # carries page 3
            return super().random()

    _faulted_remote(pool, [2, 3])
    pool.unfix(pool.fix(2, rng=RacingRng([0.9])))   # missed: enlists page 2
    assert pool.page_state(2)[1] == DRAM
    assert list(pool._candidates[1]) == [2]
    _faulted_remote(pool, [4, 5])
    assert pool.promote_batch(5, 1) == 2      # the trigger and page 4
    assert [pool.page_state(pid)[1] for pid in range(6)] == [DRAM] * 6
    assert not pool._candidates[1]
    assert_coherent(pool)


def test_promotion_candidates_are_bounded_by_the_batch():
    pol = MigrationPolicy(dr=0.0, rr=0.0, promote_batch=4)
    pool = make_pool(16, 16, disk=64, policy=pol)
    _faulted_remote(pool, range(10))
    for pid in range(10):
        pool.optimistic_read(pid, lambda v: int(v[0]))
        assert len(pool._candidates[1]) == 3
    assert list(pool._candidates[1]) == [7, 8, 9]
    assert pool.promote_batch(0, 1) == 4
    assert [pid for pid in range(10) if pool.page_state(pid)[1] == DRAM] == [0, 7, 8, 9]
    assert not pool._candidates[1]
    assert_coherent(pool)


def test_promote_batch_of_one_enlists_nothing():
    pol = MigrationPolicy(dr=0.0, rr=0.0, promote_batch=1)
    pool = make_pool(8, 8, disk=64, policy=pol)
    _faulted_remote(pool, range(4))
    pool.optimistic_read(1, lambda v: int(v[0]))
    pool.unfix(pool.fix(2))
    assert not pool._candidates[1]
    assert pool.promote_batch(0, 1) == 1
    assert_coherent(pool)


def test_promote_batch_needs_unlocked_trigger():
    pol = MigrationPolicy(dr=0.0, rr=0.0)
    pool = make_pool(8, 8, disk=64, policy=pol)
    h = pool.fix(1)
    assert pool.promote_batch(1, 1) == 0
    pool.unfix(h)


def test_promote_batch_validates_source_tier():
    pool = make_pool(8, 8, disk=64)
    with pytest.raises(ConfigError):
        pool.promote_batch(0, 0)


# -- optimistic reads ----------------------------------------------------

def test_optimistic_read_returns_value():
    pool = make_pool(4, disk=16)
    with pool.fix(0) as h:
        h.data[8] = 42
        h.mark_dirty()
    assert pool.optimistic_read(0, lambda v: int(v[8])) == 42
    s = pool.stats()
    assert s.hits[0] == 1
    t = pool.registry.total()
    assert t.get("optimistic_reads", 0) == 1


def test_optimistic_read_faults_via_fallback():
    pool = make_pool(4, disk=16)
    assert pool.optimistic_read(2, lambda v: int(v[0])) == 0
    s = pool.stats()
    assert s.faults == 1
    assert pool.registry.total().get("optimistic_reads", 0) == 0


def test_optimistic_read_detects_frame_move():
    """A concurrent migration between read and validate forces a retry."""
    pol = MigrationPolicy(rr=0.0)
    pool = make_pool(4, 4, disk=16, policy=pol)
    with pool.fix(0) as h:
        h.data[0] = 77
        h.mark_dirty()
    calls = []

    def reader(view):
        calls.append(int(view[0]))
        if len(calls) == 1:
            # racing migration: clean copy to the remote tier mid-read
            pool.backend.retarget_frame(0, 1)
            assert pool.state.try_edge(0, sw.Edge.lock_exclusive())
            pool.state.try_edge(0, sw.Edge.set_tier(1))
            pool.state.try_edge(0, sw.Edge.unlock_exclusive(False))
        return int(view[0])

    assert pool.optimistic_read(0, reader) == 77
    assert len(calls) == 2
    assert pool.registry.total()["optimistic_retries"] >= 1
    assert_coherent(pool)


def test_optimistic_read_detects_a_rebind_of_the_same_frame():
    """The page leaves its DRAM frame and comes back to it with an
    unchanged word while another page wrote there: only the frame's
    generation in the placement tells the two bindings apart."""
    pool = make_pool(1, 2, disk=16, policy=MigrationPolicy(rr=0.0))
    state = pool.state

    def move(pid, tier):
        assert state.try_edge(pid, sw.Edge.lock_exclusive())
        pool.backend.retarget_frame(pid, tier)
        assert state.try_edge(pid, sw.Edge.set_tier(tier))
        assert state.try_edge(pid, sw.Edge.unlock_exclusive(False))

    with pool.fix(0) as h:
        h.data[0] = 11
        h.mark_dirty()
    word = state.load(0)
    calls = []

    def reader(view):
        calls.append(1)
        if len(calls) > 1:
            return int(view[0])
        move(0, 1)
        with pool.fix(1) as h:  # takes the only DRAM frame, page 0's old one
            h.data[0] = 99
            h.mark_dirty()
        seen = int(view[0])
        move(1, 1)
        move(0, 0)  # back into the same frame, the same word
        assert state.load(0) == word
        return seen

    assert pool.optimistic_read(0, reader) == 11
    assert len(calls) == 2
    assert pool.stats().optimistic_retries == 1
    assert_coherent(pool)


def test_optimistic_read_rejects_out_of_range_pid():
    pool = make_pool(4, disk=16)
    pool.unfix(pool.fix(15))  # so -1 cannot reach the last slot's bytes
    for pid in (-1, 16):
        with pytest.raises(ConfigError):
            pool.optimistic_read(pid, lambda v: v.tobytes())


def test_optimistic_read_clears_the_mark():
    pool = make_pool(4, disk=16)
    with pool.fix(0) as h:
        h.data[0] = 5
        h.mark_dirty()
    pool.evict_batch(0, DISK)                 # marks only
    assert pool.page_state(0) == (sw.MARKED, 0, 1)
    assert pool.optimistic_read(0, lambda v: int(v[0])) == 5
    assert pool.page_state(0) == (sw.UNLOCKED, 0, 1)
    s = pool.stats()
    assert s.optimistic_reads == 1 and s.optimistic_retries == 0


def test_optimistic_read_ignores_a_mark_set_while_it_reads():
    """Validation looks past the lock byte unless a writer holds the page."""
    pool = make_pool(4, disk=16)
    pool.unfix(pool.fix(0))
    calls = []

    def reader(view):
        calls.append(1)
        pool.state.try_edge(0, sw.Edge.mark())
        return int(view[0])

    assert pool.optimistic_read(0, reader) == 0
    assert len(calls) == 1
    assert pool.stats().optimistic_retries == 0
    assert pool.page_state(0) == (sw.UNLOCKED, 0, 0)


def test_optimistic_read_retries_after_a_write():
    pool = make_pool(4, disk=16)
    pool.unfix(pool.fix(0))
    calls = []

    def reader(view):
        calls.append(int(view[0]))
        if len(calls) == 1:                   # a writer slips in mid-read
            with pool.fix(0) as h:
                h.data[0] = 9
                h.mark_dirty()
        return int(view[0])

    assert pool.optimistic_read(0, reader) == 9
    assert calls == [0, 9]
    assert pool.stats().optimistic_retries == 1


def test_optimistic_read_never_tears():
    """Paired-byte pages: a validated read is internally consistent."""
    pool = make_pool(4, disk=16, page_size=512, fix_timeout_s=120.0)
    with pool.fix(0) as h:
        h.mark_dirty()
    stop = threading.Event()

    def writer():
        flip = 0
        while not stop.is_set():
            with pool.fix(0) as h:
                flip ^= 0xFF
                h.data[:] = flip
                h.mark_dirty()
            time.sleep(0)  # leave the reader a window

    w = threading.Thread(target=writer)
    w.start()
    try:
        for _ in range(200):
            lo, hi = pool.optimistic_read(
                0, lambda v: (int(v[0]), int(v[-1])))
            assert lo == hi, "torn optimistic read escaped validation"
    finally:
        stop.set()
        w.join()


def test_optimistic_read_never_tears_while_marks_and_shared_locks_move():
    """Validation looks past marks, unmarks and shared locks, but a writer
    between read and validate must still force a retry."""
    pool = make_pool(4, disk=16, page_size=512, fix_timeout_s=120.0)
    with pool.fix(0) as h:
        h.mark_dirty()
    stop = threading.Event()
    errors = []

    def writer():
        flip = 0
        while not stop.is_set():
            with pool.fix(0) as h:
                flip ^= 0xFF
                h.data[:] = flip
                h.mark_dirty()
            time.sleep(0)

    def clock():
        while not stop.is_set():
            pool.state.try_edge(0, sw.Edge.mark())
            time.sleep(0)

    def sharer():
        while not stop.is_set():
            pool.unfix(pool.fix(0, exclusive=False))
            time.sleep(0)

    def ends(view):
        lo = int(view[0])
        time.sleep(0)  # let the writer run between the two loads
        return lo, int(view[-1])

    def reader():
        try:
            for _ in range(300):
                lo, hi = pool.optimistic_read(0, ends)
                assert lo == hi, "torn optimistic read escaped validation"
        except Exception as e:       # pragma: no cover - failure reporting
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    background = [threading.Thread(target=f) for f in (writer, clock, sharer)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    try:
        for t in background + readers:
            t.start()
        for t in readers:
            t.join(120)
    finally:
        stop.set()
        for t in background:
            t.join(120)
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in background + readers)
    assert not errors, errors
    assert pool.stats().optimistic_reads > 0


# -- accounting and coherence -------------------------------------------

def test_every_cas_of_a_churned_pool_is_a_state_machine_edge():
    """The state machine is the only way the pool changes a word: each
    logged CAS of a churn through faults, locks, the clock, migration,
    write-back and eviction is `transition(old, e)` for some edge e."""
    pol = MigrationPolicy(dr=0.8, dw=0.7, rr=0.3, rw=0.6, evict_batch=4,
                          promote_batch=4)
    pool = make_pool(8, 8, disk=64, policy=pol, seed=5, trace=True,
                     fix_timeout_s=60.0)
    errors = []

    def worker(widx):
        rnd = random.Random(widx)
        try:
            for _ in range(600):
                pid = rnd.randrange(48)
                op = rnd.random()
                if op < 0.3:
                    pool.optimistic_read(pid, lambda v: int(v[0]))
                    continue
                with pool.fix(pid, exclusive=op < 0.7) as h:
                    if h.exclusive and rnd.random() < 0.5:
                        h.data[0] = widx
                        h.mark_dirty()
        except Exception as e:       # pragma: no cover - failure reporting
            errors.append(e)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)               # more interleavings, lost CASes
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert pool.flush_all() > 0
    with pool.fix(3) as h:
        h.mark_dirty()
    assert pool.evict_all() > 0

    layout = pool.layout
    edges = all_edges(pool.topology.n_memory_tiers)
    words = {}
    kinds = set()
    for slot, old, new in pool.state.trace_log:
        assert words.get(slot, layout.pack(sw.EVICTED, 0, 0)) == old, \
            f"page {slot}: CAS from a word it did not hold"
        words[slot] = new
        kind = next((e.kind for e in edges
                     if sw.transition(layout, old, e) == new), None)
        assert kind is not None, \
            f"page {slot}: {layout.unpack(old)} -> {layout.unpack(new)} is no edge"
        kinds.add(kind)
    assert kinds == set(sw.EdgeKind)          # the churn took every kind of edge
    assert_coherent(pool)


def test_stats_identity_and_coherence_after_churn():
    pol = MigrationPolicy(dr=0.9, rr=0.3, rw=0.7, evict_batch=8,
                          promote_batch=4)
    pool = make_pool(12, 16, disk=256, policy=pol, seed=4)
    rnd = random.Random(4)
    handles = []
    held = set()
    for step in range(4000):
        op = rnd.random()
        if handles and (op < 0.3 or len(handles) > 6):
            h = handles.pop(rnd.randrange(len(handles)))
            held.discard(h.pid)
            pool.unfix(h, dirty=rnd.random() < 0.3)
        elif op < 0.8:
            pid = rnd.randrange(128)
            if pid in held:
                continue  # single thread: re-fixing a held page deadlocks
            try:
                handles.append(pool.fix(pid, exclusive=rnd.random() < 0.5))
                held.add(pid)
            except ConfigError:
                pass  # all frames pinned by held handles
        else:
            pid = rnd.randrange(128)
            if pid in held:
                continue
            pool.optimistic_read(pid, lambda v: int(v[0]))
    for h in handles:
        pool.unfix(h)
    t = pool.registry.total()
    assert sum(pool.stats().hits) + t["faults"] == \
        t["fixes"] + t.get("optimistic_reads", 0)
    assert_coherent(pool)


# PoolStats fields whose name differs from the registry counter they show.
_STAT_FIELDS = {"promoted_pages": "promotions", "demoted_pages": "demotions",
                "evicted_to_disk": "evictions_to_disk"}


@pytest.mark.parametrize("engine", ["mp2", "legacy", "mbind"])
def test_every_registry_counter_of_a_churned_pool_is_in_pool_stats(engine):
    pol = MigrationPolicy(dr=0.7, dw=0.6, rr=0.4, rw=0.7, evict_batch=4,
                          promote_batch=4, engine=engine)
    pool = make_pool(8, 8, disk=128, policy=pol, seed=5)
    rnd = random.Random(5)
    for _ in range(1500):
        pid = rnd.randrange(64)
        if rnd.random() < 0.5:
            with pool.fix(pid) as h:
                if rnd.random() < 0.5:
                    h.mark_dirty()
        else:
            pool.optimistic_read(pid, lambda v: int(v[0]))
    pool.flush_all()
    pool.evict_all()
    t = pool.registry.total()
    s = pool.stats()
    assert {"bytes_copied", "disk_writes", "promoted_pages",
            "demoted_pages", "evicted_to_disk", "hits_t1"} <= t.keys()
    for key, value in t.items():
        if key.startswith("hits_t"):
            assert s.hits[int(key[len("hits_t"):])] == value, key
        else:
            assert getattr(s, _STAT_FIELDS.get(key, key)) == value, key


def test_concurrent_mixed_workload():
    pol = MigrationPolicy(dr=0.8, rr=0.2, rw=0.6, evict_batch=8,
                          promote_batch=4)
    pool = make_pool(16, 32, disk=256, policy=pol, seed=9,
                     fix_timeout_s=60.0)
    errors = []
    barrier = threading.Barrier(4)

    def worker(widx):
        rnd = random.Random(100 + widx)
        try:
            barrier.wait()
            for i in range(2500):
                pid = rnd.randrange(192)
                if rnd.random() < 0.25:
                    pool.optimistic_read(pid, lambda v: int(v[0]))
                else:
                    excl = rnd.random() < 0.4
                    h = pool.fix(pid, exclusive=excl)
                    if excl and rnd.random() < 0.3:
                        h.data[0] = (int(h.data[0]) + 1) % 256
                        h.mark_dirty()
                    pool.unfix(h)
        except Exception as e:       # pragma: no cover - failure reporting
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    t = pool.registry.total()
    assert sum(pool.stats().hits) + t["faults"] == \
        t["fixes"] + t.get("optimistic_reads", 0)
    assert_coherent(pool)


def test_concurrent_counters_exact():
    pol = MigrationPolicy(dr=0.7, rr=0.3, rw=0.5, evict_batch=4,
                          promote_batch=2)
    pool = make_pool(6, 8, disk=64, policy=pol, seed=2, fix_timeout_s=60.0)
    pages = list(range(8))
    n_threads, per_thread = 4, 1500
    stop = threading.Event()

    def churn():
        rnd = pool.rng()
        while not stop.is_set():
            try:
                pool.maybe_evict(0, rng=rnd)
                pool.evict_batch(1, DISK, rng=rnd)
            except Exception:
                pass

    def worker(widx):
        rnd = random.Random(widx)
        for i in range(per_thread):
            pid = pages[(widx + i) % len(pages)]
            with pool.fix(pid) as h:
                u = h.data[:8].view(np.uint64)
                u[0] = int(u[0]) + 1
                h.mark_dirty()

    c = threading.Thread(target=churn)
    c.start()
    workers = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    c.join()
    expect = {pid: 0 for pid in pages}
    for widx in range(n_threads):
        for i in range(per_thread):
            expect[pages[(widx + i) % len(pages)]] += 1
    total = 0
    for pid in pages:
        with pool.fix(pid) as h:
            got = int(h.data[:8].view(np.uint64)[0])
        assert got == expect[pid], f"lost update on page {pid}"
        total += got
    assert total == n_threads * per_thread
