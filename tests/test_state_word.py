"""State-word layout and lock state machine, checked against an
independently written oracle.

The oracle below is organized by *current state* (the implementation is
organized by edge kind) so the two cannot share a structural bug.
"""

import random
import threading

import numpy as np
import pytest

import tierpool.state_word as sw
from tierpool.state_word import Edge, EdgeKind, StateLayout, StateTable, transition

K = EdgeKind


def oracle(layout: StateLayout, lock: int, tier: int, version: int,
           edge: Edge):
    """Expected (lock, tier, version) after `edge`, or None if refused."""
    wrap = layout.version_mask
    bad_tier = not (0 <= edge.tier < layout.memory_tiers)
    if lock == sw.UNLOCKED:
        if edge.kind is K.LOCK_SHARED:
            return (1, tier, version)
        if edge.kind is K.LOCK_EXCLUSIVE:
            return (sw.LOCKED, tier, version)
        if edge.kind is K.MARK:
            return (sw.MARKED, tier, version)
        return None
    if sw.SHARED_MIN <= lock <= sw.SHARED_MAX:
        if edge.kind is K.LOCK_SHARED and lock < sw.SHARED_MAX:
            return (lock + 1, tier, version)
        if edge.kind is K.UNLOCK_SHARED:
            return (lock - 1, tier, version)
        return None
    if lock == sw.LOCKED:
        if edge.kind is K.UNLOCK_EXCLUSIVE:
            v = (version + 1) & wrap if edge.dirty else version
            return (sw.UNLOCKED, tier, v)
        if edge.kind is K.EVICT:
            return (sw.EVICTED, 0, (version + 1) & wrap)
        if edge.kind is K.SET_TIER and not bad_tier:
            return (sw.LOCKED, edge.tier, (version + 1) & wrap)
        return None
    if lock == sw.MARKED:
        if edge.kind is K.LOCK_EXCLUSIVE:
            return (sw.LOCKED, tier, version)
        if edge.kind is K.UNMARK:
            return (sw.UNLOCKED, tier, version)
        return None
    assert lock == sw.EVICTED
    if edge.kind is K.FAULT_IN and not bad_tier:
        return (sw.LOCKED, edge.tier, version)
    return None


def all_edges(memory_tiers: int):
    edges = [Edge.lock_shared(), Edge.lock_exclusive(), Edge.unlock_shared(),
             Edge.unlock_exclusive(dirty=False), Edge.unlock_exclusive(dirty=True),
             Edge.mark(), Edge.unmark(), Edge.evict()]
    for t in range(memory_tiers):
        edges.append(Edge.set_tier(t))
        edges.append(Edge.fault_in(t))
    # out-of-range tiers must be refused regardless of state
    edges.append(Edge.set_tier(memory_tiers))
    edges.append(Edge.fault_in(memory_tiers))
    return edges


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_transition_matches_oracle_exhaustive(m):
    layout = StateLayout(m)
    versions = [0, 1, 7, layout.version_mask]
    for lock in range(256):
        for tier in range(m):
            for version in versions:
                word = layout.pack(lock, tier, version)
                for edge in all_edges(m):
                    got = transition(layout, word, edge)
                    want = oracle(layout, lock, tier, version, edge)
                    if want is None:
                        assert got is None, (lock, tier, version, edge)
                    else:
                        assert got is not None, (lock, tier, version, edge)
                        assert layout.unpack(got) == want, (lock, tier, version, edge)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_try_edge_matches_oracle_exhaustive(m):
    """`try_edge` applies exactly the oracle's edges, and stores the
    oracle's successor, on every word and edge of the `transition` test's
    space, which holds the version wrap (dirty unlock and evict from
    `version_mask`) and the SET_TIER/FAULT_IN edges to a tier that does
    not exist."""
    layout = StateLayout(m)
    table = StateTable(1, layout)
    versions = [0, 1, 7, layout.version_mask]
    for lock in range(256):
        for tier in range(m):
            for version in versions:
                word = layout.pack(lock, tier, version)
                for edge in all_edges(m):
                    table.set_raw(0, word)
                    want = oracle(layout, lock, tier, version, edge)
                    assert table.try_edge(0, edge) is (want is not None), \
                        (lock, tier, version, edge)
                    stored = word if want is None else layout.pack(*want)
                    assert table.load(0) == stored, (lock, tier, version, edge)


def test_word_naming_no_tier_is_applied_like_try_edge():
    """Tier bits 3 in a 3-tier layout name no tier; `transition` applies an
    edge to such a word exactly as `try_edge` does."""
    layout = StateLayout(3)
    word = (sw.LOCKED << 56) | (3 << layout.tier_shift) | 5
    edge = Edge.unlock_exclusive(dirty=True)
    assert layout.unpack(transition(layout, word, edge)) == (sw.UNLOCKED, 3, 6)
    table = StateTable(1, layout)
    table.set_raw(0, word)
    assert table.try_edge(0, edge)
    assert table.load(0) == transition(layout, word, edge)


def test_one_edge_object_under_two_layouts():
    """An edge's cached rules follow the table that applies it."""
    edge = Edge.fault_in(2)
    small, big = StateTable(1, StateLayout(2)), StateTable(1, StateLayout(3))
    for _ in range(2):
        assert not small.try_edge(0, edge)
        assert big.try_edge(0, edge)
        assert big.layout.unpack(big.load(0)) == (sw.LOCKED, 2, 0)
        big.set_raw(0, big.layout.pack(sw.EVICTED, 0, 0))


def test_pack_unpack_round_trip_random():
    layout = StateLayout(3)
    rnd = random.Random(7)
    for _ in range(20000):
        s = rnd.randrange(256)
        t = rnd.randrange(3)
        v = rnd.randrange(layout.version_mask + 1)
        assert layout.unpack(layout.pack(s, t, v)) == (s, t, v)
    # boundary versions
    for v in (0, 1, layout.version_mask):
        assert layout.unpack(layout.pack(sw.LOCKED, 2, v)) == (sw.LOCKED, 2, v)


def test_pack_rejects_out_of_range():
    layout = StateLayout(2)
    with pytest.raises(ValueError):
        layout.pack(256, 0, 0)
    with pytest.raises(ValueError):
        layout.pack(0, 2, 0)
    with pytest.raises(ValueError):
        layout.pack(0, 0, layout.version_mask + 1)


def test_layout_bit_budget():
    # tier bits shrink to zero for m=1 and the version gets the rest
    assert StateLayout(1).tier_bits == 0
    assert StateLayout(1).version_bits == 56
    assert StateLayout(2).tier_bits == 1
    assert StateLayout(3).tier_bits == 2
    assert StateLayout(4).tier_bits == 2
    assert StateLayout(5).tier_bits == 3
    for m in (1, 2, 3, 8):
        lay = StateLayout(m)
        assert 8 + lay.tier_bits + lay.version_bits == 64


def test_pack_array_matches_scalar():
    layout = StateLayout(4)
    rnd = np.random.default_rng(11)
    n = 4096
    locks = rnd.integers(0, 256, n)
    tiers = rnd.integers(0, 4, n)
    vers = rnd.integers(0, layout.version_mask + 1, n, dtype=np.uint64)
    words = layout.pack_array(locks, tiers, vers)
    ls, ts, vs = layout.unpack_array(words)
    assert np.array_equal(ls, locks) and np.array_equal(ts, tiers)
    assert np.array_equal(vs, vers)
    for i in range(0, n, 257):
        assert int(words[i]) == layout.pack(int(locks[i]), int(tiers[i]), int(vers[i]))


def test_version_bump_rules():
    layout = StateLayout(2)
    w = layout.pack(sw.LOCKED, 1, 5)
    assert layout.unpack(transition(layout, w, Edge.unlock_exclusive(dirty=True))) == (0, 1, 6)
    assert layout.unpack(transition(layout, w, Edge.unlock_exclusive(dirty=False))) == (0, 1, 5)
    # evict bumps and clears the tier bits
    assert layout.unpack(transition(layout, w, Edge.evict())) == (sw.EVICTED, 0, 6)
    # migration bumps the version; fault-in, which follows an evict, keeps it
    assert layout.unpack(transition(layout, w, Edge.set_tier(0))) == (sw.LOCKED, 0, 6)
    ev = layout.pack(sw.EVICTED, 0, 5)
    assert layout.unpack(transition(layout, ev, Edge.fault_in(1))) == (sw.LOCKED, 1, 5)


def test_version_wraparound():
    layout = StateLayout(2)
    w = layout.pack(sw.LOCKED, 0, layout.version_mask)
    out = transition(layout, w, Edge.unlock_exclusive(dirty=True))
    assert layout.version(out) == 0


def test_shared_count_saturates():
    layout = StateLayout(1)
    w = layout.pack(sw.SHARED_MAX, 0, 0)
    assert transition(layout, w, Edge.lock_shared()) is None
    w = layout.pack(sw.SHARED_MAX - 1, 0, 0)
    assert layout.lock_byte(transition(layout, w, Edge.lock_shared())) == sw.SHARED_MAX


def test_marked_refuses_shared():
    layout = StateLayout(2)
    w = layout.pack(sw.MARKED, 1, 3)
    assert transition(layout, w, Edge.lock_shared()) is None
    # ...but an exclusive grab clears the mark
    assert layout.lock_byte(transition(layout, w, Edge.lock_exclusive())) == sw.LOCKED
    # ...and so does UNMARK, which is refused from every other state
    assert layout.unpack(transition(layout, w, Edge.unmark())) == (sw.UNLOCKED, 1, 3)
    assert transition(layout, layout.pack(sw.UNLOCKED, 1, 3), Edge.unmark()) is None


def test_try_edge_semantics():
    layout = StateLayout(2)
    table = StateTable(4, layout)
    evicted = layout.pack(sw.EVICTED, 0, 0)
    assert all(table.load(s) == evicted for s in range(4))  # slots start Evicted
    assert table.try_edge(0, Edge.fault_in(1)) is True
    assert layout.unpack(table.load(0)) == (sw.LOCKED, 1, 0)
    # refused edge leaves the word alone
    assert table.try_edge(0, Edge.mark()) is False
    assert layout.unpack(table.load(0)) == (sw.LOCKED, 1, 0)
    # a stale word is refused even where the edge is legal from it
    assert table.try_edge(0, Edge.fault_in(0), evicted) is False
    assert layout.unpack(table.load(0)) == (sw.LOCKED, 1, 0)
    # the word the slot holds is applied
    assert table.try_edge(0, Edge.unlock_exclusive(True), table.load(0)) is True
    assert layout.unpack(table.load(0)) == (sw.UNLOCKED, 1, 1)


def test_cas_rejects_stale_expected():
    layout = StateLayout(1)
    table = StateTable(1, layout)
    w0 = table.load(0)
    w1 = layout.pack(sw.LOCKED, 0, 0)
    assert table.compare_and_swap(0, w0, w1)
    assert not table.compare_and_swap(0, w0, w1)
    assert table.load(0) == w1


def test_trace_replay_is_a_linearization():
    """Per-slot trace subsequences chain exactly from init to final word."""
    layout = StateLayout(2)
    slots = 8
    table = StateTable(slots, layout, trace=True)
    init = layout.pack(sw.EVICTED, 0, 0)
    for s in range(slots):
        table.set_raw(s, init)
    start = len(table.trace_log)

    def worker(seed):
        rnd = random.Random(seed)
        for _ in range(2000):
            slot = rnd.randrange(slots)
            word = table.load(slot)
            lock = layout.lock_byte(word)
            if lock == sw.EVICTED:
                table.try_edge(slot, Edge.fault_in(rnd.randrange(2)))
            elif lock == sw.LOCKED:
                edge = rnd.choice([Edge.unlock_exclusive(rnd.random() < 0.5),
                                   Edge.evict(), Edge.set_tier(rnd.randrange(2))])
                table.try_edge(slot, edge)
            elif lock == sw.UNLOCKED:
                table.try_edge(slot, rnd.choice(
                    [Edge.lock_exclusive(), Edge.lock_shared(), Edge.mark()]))
            elif lock == sw.MARKED:
                table.try_edge(slot, Edge.lock_exclusive())
            else:
                table.try_edge(slot, rnd.choice(
                    [Edge.lock_shared(), Edge.unlock_shared()]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    cur = {s: init for s in range(slots)}
    for slot, old, new in table.trace_log[start:]:
        assert cur[slot] == old, "trace gap: CAS applied against unseen word"
        cur[slot] = new
    for s in range(slots):
        assert cur[s] == table.load(s)


def test_describe_lock():
    assert sw.describe_lock(0) == "Unlocked"
    assert sw.describe_lock(17) == "LockedShared(17)"
    assert sw.describe_lock(sw.EVICTED) == "Evicted"
