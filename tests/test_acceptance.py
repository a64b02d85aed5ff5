"""Acceptance gate: ten criteria, one printed PASS/FAIL line each.

Each test computes its verdict, prints the line (visible through pytest's
capture), then asserts. Criteria 1-7 and 10 are exact; 8 and 9 check
qualitative trends under the simulated cost model at desk scale.
"""

import math
import random
import threading
import time

import numpy as np
import pytest

import tierpool.state_word as sw
from conftest import assert_coherent, make_pool, topo
from test_migration import closed_form, make_world, ref_scan
from test_state_word import all_edges, oracle
from tierpool import bench
from tierpool.backend import DISK
from tierpool.btree import BTree
from tierpool.migration import (ERR_BUSY, ERR_SKIPPED, FailureInjector,
                                InjectRule, MigrationEngine, MigrationMode,
                                MigrationRequest)
from tierpool.pool import DRAM, MigrationPolicy
from tierpool.state_word import StateLayout, transition


def emit(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_state_machine_oracle(capsys):
    t0 = time.perf_counter()
    layout = StateLayout(3)
    checked = disagreements = 0
    for lock in range(256):
        for tier in range(3):
            for version in (0, 3, layout.version_mask):
                word = layout.pack(lock, tier, version)
                for edge in all_edges(3):
                    got = transition(layout, word, edge)
                    want = oracle(layout, lock, tier, version, edge)
                    checked += 1
                    if (got is None) != (want is None):
                        disagreements += 1
                    elif got is not None and layout.unpack(got) != want:
                        disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and dt < 1.0
    emit(capsys, 1, ok,
         f"{checked} transitions, {disagreements} disagreements, {dt:.2f}s")
    assert disagreements == 0
    assert dt < 1.0


def test_criterion_2_round_trip_million(capsys):
    t0 = time.perf_counter()
    layout = StateLayout(3)
    n = 1_000_000
    rng = np.random.default_rng(12)
    locks = rng.integers(0, 256, n)
    tiers = rng.integers(0, 3, n)
    vers = rng.integers(0, layout.version_mask + 1, n, dtype=np.uint64)
    words = layout.pack_array(locks, tiers, vers)
    ls, ts, vs = layout.unpack_array(words)
    exact = (np.array_equal(ls, locks) and np.array_equal(ts, tiers)
             and np.array_equal(vs, vers))
    # scalar spot checks, including boundary versions
    for i in range(0, n, 9973):
        s, t, v = int(locks[i]), int(tiers[i]), int(vers[i])
        exact = exact and layout.unpack(layout.pack(s, t, v)) == (s, t, v)
    for v in (0, layout.version_mask):
        exact = exact and layout.unpack(layout.pack(sw.LOCKED, 2, v)) \
            == (sw.LOCKED, 2, v)
    dt = time.perf_counter() - t0
    ok = exact and dt < 1.0
    emit(capsys, 2, ok, f"{n} round-trips exact={exact}, {dt:.2f}s")
    assert exact
    assert dt < 1.0


def test_criterion_3_shootdown_arithmetic(capsys):
    # pinned sweep: 1024 same-target pages
    sweep = {}
    for cap in (128, 512, 1024):
        be, world = make_world(tiers=(2048, 2048), n_resident=1024)
        eng = MigrationEngine(be)
        out = eng.move_pages2(MigrationRequest(
            list(range(1024)), [1] * 1024, nr_max_batched_migration=cap))
        sweep[cap] = out.shootdowns
    pinned_ok = sweep == {128: 8, 512: 2, 1024: 1}
    # fuzz: engine count must equal the closed form sum(ceil(|run|/cap))
    rnd = random.Random(31)
    fuzz_bad = 0
    for _ in range(300):
        n_res = rnd.randrange(1, 60)
        be, world = make_world(tiers=(96, 96, 96), n_resident=n_res)
        pages = list(range(n_res))
        rnd.shuffle(pages)
        targets = [rnd.randrange(3) for _ in pages]
        cap = rnd.choice([1, 2, 3, 7, 64, 512])
        out = MigrationEngine(be).move_pages2(MigrationRequest(
            pages, targets, nr_max_batched_migration=cap))
        rounds, shoot = closed_form(pages, targets, [False] * n_res, cap, 3)
        if (out.rounds, out.shootdowns) != (rounds, shoot):
            fuzz_bad += 1
    ok = pinned_ok and fuzz_bad == 0
    emit(capsys, 3, ok, f"cap sweep {sweep}, fuzz mismatches {fuzz_bad}/300")
    assert pinned_ok
    assert fuzz_bad == 0


def test_criterion_4_optimistic_vs_abort(capsys):
    N, cap = 2000, 512
    failures = []
    for k in (0, 1, N // 2, N - 1):
        for legacy in (False, True):
            be, _ = make_world(tiers=(2048, 2048), n_resident=N)
            eng = MigrationEngine(be)
            inj = FailureInjector({k: InjectRule("busy", None)})
            req = MigrationRequest(list(range(N)), [1] * N,
                                   nr_max_batched_migration=cap)
            out = (eng.move_pages_legacy(req, injector=inj) if legacy
                   else eng.move_pages2(req, injector=inj))
            if legacy:
                want = (k // cap) * cap + k % cap
                if out.migrated != want or out.status[k] != ERR_BUSY:
                    failures.append((k, "legacy", out.migrated))
                if any(s != ERR_SKIPPED for s in out.status[k + 1:]):
                    failures.append((k, "legacy-tail", None))
            else:
                if out.migrated != N - 1 or out.status[k] != ERR_BUSY:
                    failures.append((k, "mp2", out.migrated))
    ok = not failures
    emit(capsys, 4, ok,
         f"N={N} cap={cap} k in {{0,1,{N//2},{N-1}}}, failures {failures}")
    assert not failures


def test_criterion_5_and_7_residency_fuzz(capsys):
    t0 = time.perf_counter()
    n_threads, cycles, per_cycle = 8, 1000, 125
    local_cap = 32
    pol = MigrationPolicy(dr=0.7, rr=0.15, rw=0.6, dw=0.9,
                          evict_batch=16, promote_batch=4)
    pool = make_pool(local_cap, 64, disk=4096, policy=pol, seed=5,
                     fix_timeout_s=120.0)
    universe = 600
    barrier = threading.Barrier(n_threads, timeout=120)
    errors = []
    violations = []
    thresh_bad = []

    def check(full: bool):
        try:
            if full:
                assert_coherent(pool, scan_all=True)
            else:
                assert_coherent(pool, scan_all=False)
        except AssertionError as e:
            violations.append(str(e))

    def worker(widx):
        rnd = random.Random(500 + widx)
        try:
            for cycle in range(cycles):
                for _ in range(per_cycle):
                    pid = rnd.randrange(universe)
                    r = rnd.random()
                    if r < 0.25:
                        pool.optimistic_read(pid, lambda v: int(v[0]))
                    else:
                        excl = r < 0.6
                        h = pool.fix(pid, exclusive=excl)
                        if excl and rnd.random() < 0.4:
                            h.data[1] = cycle & 0xFF
                            h.mark_dirty()
                        pool.unfix(h)
                barrier.wait()
                if widx == 0:
                    pool.maybe_evict(0)
                    pool.maybe_evict(1)
                    occ = pool.backend.occupancy(0)
                    if not occ < 0.95 * local_cap:
                        thresh_bad.append((cycle, occ))
                    check(full=cycle % 5 == 0)
                barrier.wait()
        except Exception as e:      # pragma: no cover - failure reporting
            errors.append(e)
            barrier.abort()

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    dt = time.perf_counter() - t0
    total_ops = n_threads * cycles * per_cycle
    ok5 = not errors and not violations and dt < 120.0
    emit(capsys, 5, ok5,
         f"{total_ops} ops, {cycles} barriers, {len(violations)} violations, "
         f"{dt:.1f}s")
    ok7 = not thresh_bad
    emit(capsys, 7, ok7,
         f"occupancy < 0.95*cap after every threshold eviction "
         f"({len(thresh_bad)} breaches)")
    assert not errors, errors[:3]
    assert not violations, violations[:3]
    assert dt < 120.0
    assert not thresh_bad


def test_criterion_6_no_lost_updates(capsys):
    t0 = time.perf_counter()
    pages = list(range(64))
    n_threads, per_thread = 8, 10_000
    check_mask = np.uint64(0xA5A5A5A5A5A5A5A5)
    pol = MigrationPolicy(dr=0.6, rr=0.2, rw=0.5, evict_batch=8,
                          promote_batch=4)
    pool = make_pool(16, 32, disk=256, policy=pol, seed=6,
                     fix_timeout_s=120.0)
    for pid in pages:           # seed the value/checksum pair
        with pool.fix(pid) as h:
            u = h.data[:16].view(np.uint64)
            u[0] = 0
            u[1] = np.uint64(0) ^ check_mask
            h.mark_dirty()
    stop = threading.Event()
    errors = []
    torn = []

    def churn():
        rnd = pool.rng()
        while not stop.is_set():
            try:
                pool.maybe_evict(0, rng=rnd)
                pool.evict_batch(0, 1, rng=rnd)
                pool.evict_batch(1, DISK, rng=rnd)
            except Exception:
                pass

    def read_pair(view):
        u = view[:16].view(np.uint64)
        return int(u[0]), int(u[1])

    def worker(widx):
        try:
            for i in range(per_thread):
                pid = pages[(widx + i) % len(pages)]
                with pool.fix(pid) as h:
                    u = h.data[:16].view(np.uint64)
                    v = int(u[0]) + 1
                    u[0] = v
                    u[1] = np.uint64(v) ^ check_mask
                    h.mark_dirty()
                if i % 16 == widx % 16:
                    v, c = pool.optimistic_read(pages[(widx * 31 + i) % 64],
                                                read_pair)
                    if np.uint64(v) ^ check_mask != np.uint64(c):
                        torn.append((v, c))
        except Exception as e:      # pragma: no cover
            errors.append(e)

    c = threading.Thread(target=churn)
    c.start()
    workers = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
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
    lost = []
    for pid in pages:
        with pool.fix(pid) as h:
            got = int(h.data[:16].view(np.uint64)[0])
        if got != expect[pid]:
            lost.append((pid, got, expect[pid]))
    dt = time.perf_counter() - t0
    ok = not errors and not lost and not torn and dt < 60.0
    emit(capsys, 6, ok,
         f"{n_threads}x{per_thread} increments, lost {len(lost)}, "
         f"torn {len(torn)}, {dt:.1f}s")
    assert not errors, errors[:3]
    assert not lost, lost[:3]
    assert not torn, torn[:3]
    assert dt < 60.0


def test_criterion_8_trend_batching_wins(capsys):
    t0 = time.perf_counter()
    base = dict(
        local_pages=16384, remote_pages=32768,       # 64 MB / 128 MB
        dataset_pages=65536,                         # 256 MB of leaves
        workload=bench.RANDOM_READ, total_ops=20000, threads=1, seed=11,
        cold_start=False, rr=0.05, promote_batch=16, evict_batch=512,
        batch_cap=512, cost_model_on=True, shootdown_ns=100_000,
    )
    summary = bench.compare(bench.BenchConfig(engine="mp2", **base),
                            bench.BenchConfig(engine="mbind", **base))
    dt = time.perf_counter() - t0
    ratio = summary.ops_per_s_a / summary.ops_per_s_b
    ok = (ratio >= 1.2
          and summary.migration_share_b > summary.migration_share_a
          and dt < 300.0)
    emit(capsys, 8, ok,
         f"mp2/mbind ops ratio {ratio:.2f} (need >= 1.2), migration share "
         f"mbind {summary.migration_share_b:.2f} > mp2 "
         f"{summary.migration_share_a:.2f}, {dt:.0f}s")
    assert ratio >= 1.2
    assert summary.migration_share_b > summary.migration_share_a
    assert dt < 300.0


def test_criterion_9_trend_remote_tier_helps(capsys):
    t0 = time.perf_counter()
    base = dict(
        local_pages=256, dataset_pages=1024,         # dataset = 4x local
        workload=bench.MIXED_TXN, total_ops=4000, threads=1, seed=7,
        evict_batch=64, promote_batch=8, rr=0.03, cost_model_on=True,
        remote_read_ns=100_000,                      # disk is 20x slower
        disk_read_ns=2_000_000, disk_write_ns=2_000_000,
    )
    summary = bench.compare(
        bench.BenchConfig(remote_pages=512, **base),  # remote = 2x local
        bench.BenchConfig(remote_pages=0, **base))
    dt = time.perf_counter() - t0
    ratio = summary.ops_per_s_a / summary.ops_per_s_b
    ok = ratio > 1.0 and dt < 300.0
    emit(capsys, 9, ok,
         f"3-tier/2-tier ops ratio {ratio:.2f} (need > 1.0), {dt:.0f}s")
    assert ratio > 1.0
    assert dt < 300.0


def test_criterion_10_btree_oracle(capsys):
    t0 = time.perf_counter()
    import bisect
    pol = MigrationPolicy(dr=0.8, rr=0.1, rw=0.7, evict_batch=16,
                          promote_batch=8)
    pool = make_pool(48, 96, disk=1 << 14, policy=pol, seed=10,
                     fix_timeout_s=120.0)
    tree = BTree(pool)
    model = {}
    ordered = []
    rnd = random.Random(10)
    n_ops = 100_000
    keyspace = 3000
    mismatches = 0
    for step in range(n_ops):
        r = rnd.random()
        k = b"key%07d" % rnd.randrange(keyspace)
        if r < 0.45:
            v = b"v%d" % step
            tree.insert(k, v)
            if k not in model:
                bisect.insort(ordered, k)
            model[k] = v
        elif r < 0.98:
            if tree.lookup(k) != model.get(k):
                mismatches += 1
        else:
            limit = rnd.randrange(1, 20)
            i = bisect.bisect_left(ordered, k)
            want = [(kk, model[kk]) for kk in ordered[i:i + limit]]
            if tree.scan(k, limit) != want:
                mismatches += 1
        if step % 2500 == 2499:
            pool.maybe_evict(0)
        if step % 10000 == 9999:
            snap = pool.resident[1].snapshot()
            if snap:
                pool.promote_batch(snap[0], 1)
        if step % 25000 == 24999:
            pool.evict_all()
    for k, v in model.items():
        if tree.lookup(k) != v:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 60.0
    emit(capsys, 10, ok,
         f"{n_ops} ops vs ordered map, {mismatches} mismatches, {dt:.1f}s")
    assert mismatches == 0
    assert dt < 60.0
