"""Migration engine vs a straight-line reference interpreter.

The reference below replays a request against a tiny model of placements
and free frames, with explicit chunk boundaries. Round and shootdown
counts are additionally cross-checked against the closed form
sum(ceil(n_i / cap)) over queued segments.
"""

import math
import random

import pytest

from conftest import topo
from tierpool.backend import DISK, TierBackend
from tierpool.errors import ConfigError
from tierpool.migration import (ERR_ACCESS, ERR_BUSY, ERR_INVALID_TARGET,
                                ERR_SKIPPED, ERR_TIER_FULL, FailureInjector,
                                InjectRule, MigrationEngine, MigrationMode,
                                MigrationRequest)

SYNC = MigrationMode.SYNC
ASYNC = MigrationMode.ASYNC
LIGHT = MigrationMode.SYNC_LIGHT


# -- reference model -----------------------------------------------------

class RefWorld:
    """pid -> tier placements plus per-tier free-frame counts."""

    def __init__(self, placement: dict, free: list):
        self.placement = dict(placement)
        self.free = list(free)


def _fire(rule) -> bool:
    if rule["times"] is None:
        return True
    if rule["times"] > 0:
        rule["times"] -= 1
        return True
    return False


def ref_queue_error(pid, target, n_tiers, rules) -> int:
    if not 0 <= target < n_tiers:
        return ERR_INVALID_TARGET
    rule = rules.get(pid)
    if rule and rule["kind"] in ("access", "invalid_target") and _fire(rule):
        return ERR_ACCESS if rule["kind"] == "access" else ERR_INVALID_TARGET
    return 0


def ref_attempt(world, pid, target, mode, rules, retry_limit=3) -> int:
    rule = rules.get(pid)
    attempts = 0
    while rule and rule["kind"] in ("busy", "writeback") and _fire(rule):
        attempts += 1
        if (mode is ASYNC
                or (mode is LIGHT and rule["kind"] == "writeback")
                or attempts >= retry_limit):
            return ERR_BUSY
    src = world.placement.get(pid, DISK)
    if src == DISK:
        return ERR_ACCESS
    if src == target:
        return target
    if world.free[target] == 0:
        return ERR_TIER_FULL
    world.free[target] -= 1
    world.free[src] += 1
    world.placement[pid] = target
    return target


def ref_scan(world, pages, targets, mode, cap, rules, n_tiers, abort):
    n = len(pages)
    status = [None] * n
    rounds = shootdowns = 0
    chunk = []          # indices queued for the current chunk
    queued_in_round = 0
    cur_target = None
    aborted = False

    def flush() -> bool:
        nonlocal shootdowns
        if not chunk:
            return False
        shootdowns += 1
        bad = False
        for j in chunk:
            status[j] = ref_attempt(world, pages[j], targets[j], mode, rules)
            if status[j] < 0:
                bad = True
                if abort:
                    break  # legacy stops the batch at the first bad page
        chunk.clear()
        return bad

    def end_round() -> bool:
        nonlocal rounds, queued_in_round, cur_target
        bad = flush()
        if queued_in_round:
            rounds += 1
        queued_in_round = 0
        cur_target = None
        return bad

    for i in range(n):
        qerr = ref_queue_error(pages[i], targets[i], n_tiers, rules)
        if qerr:
            status[i] = qerr
            end_round()
            if abort:
                aborted = True
                break
            continue
        if cur_target is None:
            cur_target = targets[i]
        elif targets[i] != cur_target:
            if end_round() and abort:
                aborted = True
                break
            cur_target = targets[i]
        chunk.append(i)
        queued_in_round += 1
        if len(chunk) >= cap:
            if flush() and abort:
                aborted = True
                break
    if not aborted:
        end_round()
    status = [ERR_SKIPPED if s is None else s for s in status]
    return status, rounds, shootdowns


def closed_form(pages, targets, qerr_flags, cap, n_tiers):
    """rounds and shootdowns from segment structure alone (no-abort case)."""
    segs = []
    run = 0
    cur = None
    for i in range(len(pages)):
        if qerr_flags[i]:
            if run:
                segs.append(run)
            run, cur = 0, None
            continue
        if cur is None or targets[i] != cur:
            if run:
                segs.append(run)
            run, cur = 0, targets[i]
        run += 1
    if run:
        segs.append(run)
    return len(segs), sum(math.ceil(s / cap) for s in segs)


# -- harness -------------------------------------------------------------

def make_world(seed=0, tiers=(8, 8, 8), disk=64, n_resident=24):
    """Backend with pids 0..n_resident-1 bound round-robin over tiers."""
    disk = max(disk, 2 * n_resident + 16)
    be = TierBackend(topo(tiers[0], 0, disk) if len(tiers) == 1 else _multi(tiers, disk))
    placement = {}
    for pid in range(n_resident):
        for off in range(len(tiers)):
            t = (pid + off) % len(tiers)
            if be.free_frames(t):
                be.bind_and_read(pid, t)
                placement[pid] = t
                break
    free = [be.free_frames(t) for t in range(len(tiers))]
    return be, RefWorld(placement, free)


def _multi(tiers, disk):
    from tierpool.backend import TierSpec, TierTopology
    return TierTopology(tuple(TierSpec(c) for c in tiers), TierSpec(disk))


def run_both(be, world, pages, targets, mode, cap, rules, abort=False):
    eng = MigrationEngine(be)
    inj = FailureInjector({p: InjectRule(r["kind"], r["times"])
                           for p, r in rules.items()}) if rules else None
    ref_rules = {p: dict(r) for p, r in rules.items()}
    req = MigrationRequest(pages, targets, mode=mode, nr_max_batched_migration=cap)
    if abort:
        out = eng.move_pages_legacy(req, injector=inj)
    else:
        out = eng.move_pages2(req, injector=inj)
    n_tiers = len(be.pools)
    ref_cap = 512 if abort else cap
    want_status, want_rounds, want_shoot = ref_scan(
        world, pages, targets, SYNC if abort else mode, ref_cap, ref_rules,
        n_tiers, abort)
    assert out.status == want_status
    assert out.rounds == want_rounds
    assert out.shootdowns == want_shoot
    assert out.migrated == sum(1 for s in out.status if s >= 0)
    assert out.failed == sum(1 for s in out.status if s < 0)
    assert out.migrated + out.failed == len(pages)
    # backend placements must agree with the model afterwards
    for pid in set(pages):
        got = be.placement_of(pid).tier
        assert got == world.placement.get(pid, DISK)
    for t in range(n_tiers):
        assert be.free_frames(t) == world.free[t]
    return out


# -- pinned worked examples ---------------------------------------------

def test_rounds_follow_target_runs():
    be, world = make_world(tiers=(16, 16, 16), n_resident=5)
    pages = [0, 1, 2, 3, 4]
    out = run_both(be, world, pages, [1, 1, 2, 2, 1], SYNC, 512, {})
    assert (out.rounds, out.shootdowns, out.migrated) == (3, 3, 5)


@pytest.mark.parametrize("cap,want", [(128, 8), (512, 2), (1024, 1)])
def test_cap_sweep_shootdowns(cap, want):
    be, world = make_world(tiers=(2048, 2048), n_resident=1024)
    pages = list(range(1024))
    out = run_both(be, world, pages, [1] * 1024, SYNC, cap, {})
    assert out.rounds == 1 and out.shootdowns == want
    assert out.migrated == 1024


def test_partial_failure_is_not_fatal():
    be, world = make_world(tiers=(16, 16), n_resident=5)
    rules = {2: {"kind": "busy", "times": None}}
    out = run_both(be, world, [0, 1, 2, 3, 4], [1] * 5, SYNC, 512, rules)
    assert out.status == [1, 1, ERR_BUSY, 1, 1]
    assert out.migrated == 4 and out.rounds == 1


def test_legacy_aborts_and_skips_tail():
    be, world = make_world(tiers=(16, 16), n_resident=5)
    rules = {2: {"kind": "busy", "times": None}}
    out = run_both(be, world, [0, 1, 2, 3, 4], [1] * 5, SYNC, 512, rules,
                   abort=True)
    assert out.status == [1, 1, ERR_BUSY, ERR_SKIPPED, ERR_SKIPPED]
    assert out.migrated == 2 and out.failed == 3


# -- mode semantics ------------------------------------------------------

def test_sync_retries_transient_busy():
    be, world = make_world(tiers=(16, 16), n_resident=2)
    rules = {0: {"kind": "busy", "times": 2}}
    out = run_both(be, world, [0, 1], [1, 1], SYNC, 512, rules)
    assert out.status == [1, 1]


def test_sync_retry_budget_is_three_attempts():
    be, world = make_world(tiers=(16, 16), n_resident=2)
    rules = {0: {"kind": "busy", "times": 3}}
    out = run_both(be, world, [0, 1], [1, 1], SYNC, 512, rules)
    assert out.status == [ERR_BUSY, 1]


def test_async_fails_busy_immediately():
    be, world = make_world(tiers=(16, 16), n_resident=2)
    rules = {0: {"kind": "busy", "times": 1}}
    out = run_both(be, world, [0, 1], [1, 1], ASYNC, 512, rules)
    assert out.status == [ERR_BUSY, 1]


def test_synclight_waits_for_busy_but_not_writeback():
    be, world = make_world(tiers=(16, 16), n_resident=4)
    rules = {0: {"kind": "busy", "times": 1},
             1: {"kind": "writeback", "times": 1}}
    out = run_both(be, world, [0, 1, 2], [1, 1, 1], LIGHT, 512, rules)
    assert out.status == [1, ERR_BUSY, 1]


# -- queue errors --------------------------------------------------------

def test_out_of_range_target_splits_round():
    be, world = make_world(tiers=(16, 16), n_resident=6)
    out = run_both(be, world, [0, 1, 2, 3, 4], [1, 1, 9, 1, 1], SYNC, 512, {})
    assert out.status == [1, 1, ERR_INVALID_TARGET, 1, 1]
    assert out.rounds == 2 and out.shootdowns == 2


def test_injected_queue_access_error():
    be, world = make_world(tiers=(16, 16), n_resident=4)
    rules = {1: {"kind": "access", "times": 1}}
    out = run_both(be, world, [0, 1, 2], [1, 1, 1], SYNC, 512, rules)
    assert out.status == [1, ERR_ACCESS, 1]
    assert out.rounds == 2


def test_migrate_time_failure_keeps_round_structure():
    be, world = make_world(tiers=(16, 16), n_resident=6)
    rules = {2: {"kind": "busy", "times": None}}
    clean_rounds, _ = closed_form(list(range(5)), [1] * 5, [False] * 5, 2, 2)
    out = run_both(be, world, [0, 1, 2, 3, 4], [1] * 5, SYNC, 2, rules)
    assert out.rounds == clean_rounds  # busy failures never split rounds
    assert out.shootdowns == 3         # ceil(5/2)


def test_tier_full_and_disk_resident_statuses():
    be, world = make_world(tiers=(4, 2), n_resident=4)  # tier1 full at 2
    # pids 0,2 in tier0; 1,3 in tier1; pid 9 never bound (on disk)
    out = run_both(be, world, [0, 2, 9], [1, 1, 1], SYNC, 512, {})
    assert out.status == [ERR_TIER_FULL, ERR_TIER_FULL, ERR_ACCESS]


def test_same_tier_target_is_noop_success():
    be, world = make_world(tiers=(8, 8), n_resident=2)
    out = run_both(be, world, [0], [0], SYNC, 512, {})
    assert out.status == [0] and out.migrated == 1


# -- randomized differential fuzz ---------------------------------------

@pytest.mark.parametrize("mode", [SYNC, ASYNC, LIGHT])
def test_fuzz_against_reference(mode):
    rnd = random.Random(hash(mode.value) & 0xFFFF)
    for trial in range(60):
        n_tiers = rnd.choice([1, 2, 3])
        caps = tuple(rnd.randrange(4, 24) for _ in range(n_tiers))
        n_res = rnd.randrange(4, 2 * sum(caps) // 3 + 4)
        be, world = make_world(tiers=caps, disk=256, n_resident=n_res)
        n = rnd.randrange(1, 40)
        pool_pids = list(range(n_res + 6))  # includes some never-bound pids
        rnd.shuffle(pool_pids)
        pages = pool_pids[:n]
        targets = [rnd.randrange(-1, n_tiers + 1) for _ in pages]
        rules = {}
        for pid in pages:
            if rnd.random() < 0.3:
                kind = rnd.choice(["busy", "writeback", "access", "invalid_target"])
                times = rnd.choice([None, 1, 2, 3, 4])
                rules[pid] = {"kind": kind, "times": times}
        cap = rnd.choice([1, 2, 3, 7, 512])
        run_both(be, world, pages, targets, mode, cap, rules)


def test_fuzz_legacy_against_reference():
    rnd = random.Random(17)
    for trial in range(40):
        caps = (rnd.randrange(8, 20), rnd.randrange(8, 20))
        n_res = rnd.randrange(4, 20)
        be, world = make_world(tiers=caps, disk=128, n_resident=n_res)
        n = rnd.randrange(1, 30)
        pages = random.Random(trial).sample(range(n_res + 4), min(n, n_res + 4))
        targets = [rnd.randrange(0, 3) for _ in pages]
        rules = {}
        for pid in pages:
            if rnd.random() < 0.25:
                rules[pid] = {"kind": rnd.choice(["busy", "access"]),
                              "times": rnd.choice([None, 1, 3])}
        run_both(be, world, pages, targets, SYNC, 512, rules, abort=True)


def test_closed_form_agrees_on_clean_runs():
    rnd = random.Random(23)
    for _ in range(80):
        caps = (64, 64, 64)
        n_res = rnd.randrange(1, 48)
        be, world = make_world(tiers=caps, disk=256, n_resident=n_res)
        pages = list(range(n_res))
        rnd.shuffle(pages)
        targets = [rnd.randrange(3) for _ in pages]
        cap = rnd.choice([1, 2, 5, 16])
        out = run_both(be, world, pages, targets, SYNC, cap, {})
        rounds, shoot = closed_form(pages, targets, [False] * len(pages), cap, 3)
        assert (out.rounds, out.shootdowns) == (rounds, shoot)


# -- mbind and request validation ---------------------------------------

def test_mbind_pays_one_shootdown_per_call():
    be, world = make_world(tiers=(16, 16), n_resident=8)
    eng = MigrationEngine(be)
    for pid in range(8):
        code = eng.mbind_single(pid, 1)
        assert code == 1
    t = be.registry.total()
    assert t["shootdowns"] == 8
    assert t["mbind_calls"] == 8
    assert t["migrated_pages"] == 8


def test_mbind_charges_shootdown_even_on_failure():
    be, world = make_world(tiers=(16, 16), n_resident=2)
    eng = MigrationEngine(be)
    assert eng.mbind_single(0, 7) == ERR_INVALID_TARGET
    assert be.registry.total()["shootdowns"] == 1


def test_request_validation():
    with pytest.raises(ConfigError):
        MigrationRequest([1, 2], [0], mode=SYNC).validate()
    with pytest.raises(ConfigError):
        MigrationRequest([1, 1], [0, 0], mode=SYNC).validate()
    with pytest.raises(ConfigError):
        MigrationRequest([1], [0], nr_max_batched_migration=0).validate()


def test_stats_time_bucket_accumulates():
    be, world = make_world(tiers=(16, 16), n_resident=4)
    eng = MigrationEngine(be)
    req = MigrationRequest([0, 1, 2, 3], [1, 1, 1, 1])
    eng.move_pages2(req)
    t = be.registry.total()
    assert t["migration_calls"] == 1
    assert t["t_migration_ns"] > 0
