"""Fixed-page B+tree against an ordered-map oracle."""

import collections
import random
import sys
import threading

import numpy as np
import pytest

from conftest import assert_coherent, make_pool
from tierpool import bench, btree
from tierpool.backend import TierSpec, TierTopology
from tierpool.btree import (_HEAD, _LEAF_CELL, HDR, INNER, KEY_MAX,
                            LEAF_STRIDE, VAL_MAX, BTree, _child)
from tierpool.errors import ConfigError
from tierpool.pool import BufferPool, MigrationPolicy
from tierpool.state_word import LOCKED, SHARED_MAX, SHARED_MIN


def big_pool(**kw):
    kw.setdefault("disk", 1 << 13)
    return make_pool(64, **kw)


def keyf(i: int) -> bytes:
    return b"k%08d" % i


def oracle_scan(model: dict, from_key: bytes, limit: int):
    keys = sorted(k for k in model if k >= from_key)[:limit]
    return [(k, model[k]) for k in keys]


def test_insert_lookup_small():
    t = BTree(big_pool())
    t.insert(b"b", b"2")
    t.insert(b"a", b"1")
    t.insert(b"c", b"3")
    assert t.lookup(b"a") == b"1"
    assert t.lookup(b"b") == b"2"
    assert t.lookup(b"c") == b"3"
    assert t.lookup(b"d") is None
    assert t.scan(b"a", 10) == [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]


def test_overwrite_updates_without_allocating():
    t = BTree(big_pool())
    for i in range(t.leaf_cap):          # exactly one full leaf
        t.insert(keyf(i), b"old")
    before = t.pool._next_pid
    for i in range(t.leaf_cap):
        t.insert(keyf(i), b"new%d" % i)
    assert t.pool._next_pid == before, "overwrite of a full leaf must not split"
    for i in range(t.leaf_cap):
        assert t.lookup(keyf(i)) == b"new%d" % i


def test_overwrites_under_full_inner_nodes_allocate_nothing():
    """Bulk loading packs inner nodes full; overwriting keys beneath them
    must lock only the leaf, not split the nodes on the way down."""
    cfg = bench.BenchConfig(local_pages=256, remote_pages=0,
                            dataset_pages=1024, workload=bench.MIXED_TXN)
    pool, t, blob = bench.build(cfg)    # disk sized as the CLI sizes it
    with pool.fix(t.root_pid, exclusive=False) as h:
        root = h.data.tobytes()
    assert root[0] == INNER
    with pool.fix(_child(root, 0), exclusive=False) as h:
        assert _HEAD.unpack_from(h.data.tobytes())[1] == t.inner_cap
    before = t.pool._next_pid
    rnd = random.Random(5)
    picked = {rnd.randrange(cfg.n_keys) for _ in range(500)}
    for i in picked:
        t.insert(blob[8 * i:8 * i + 8], b"new%d" % i)
    assert t.pool._next_pid == before
    for i in picked:
        assert t.lookup(blob[8 * i:8 * i + 8]) == b"new%d" % i


def test_trees_sharing_a_pool_keep_their_own_keys():
    """Trees on one pool take their roots and split pages from the pool's
    one pid counter, so no tree writes into another's pages."""
    pool = big_pool()
    trees = [BTree(pool) for _ in range(3)]
    models = [{} for _ in trees]
    rnd = random.Random(11)
    for step in range(6000):
        i = rnd.randrange(len(trees))
        t, model = trees[i], models[i]
        k = keyf(rnd.randrange(2000))  # splits each root twice
        op = rnd.random()
        if op < 0.6:                     # a new key or an overwrite
            model[k] = b"t%d-%d" % (i, step)
            t.insert(k, model[k])
        elif op < 0.9:
            assert t.lookup(k) == model.get(k)
        else:
            assert t.scan(k, 30) == oracle_scan(model, k, 30)
    for t, model in zip(trees, models):
        assert t.scan(b"", len(model) + 1) == oracle_scan(model, b"", len(model))
    assert len({t.root_pid for t in trees}) == len(trees)
    assert_coherent(pool)


def test_empty_and_max_sized_values():
    t = BTree(big_pool())
    k = b"x" * KEY_MAX
    v = b"v" * VAL_MAX
    t.insert(k, v)
    t.insert(b"e", b"")
    assert t.lookup(k) == v
    assert t.lookup(b"e") == b""


def test_size_validation():
    t = BTree(big_pool())
    with pytest.raises(ConfigError):
        t.insert(b"", b"v")
    with pytest.raises(ConfigError):
        t.insert(b"k" * (KEY_MAX + 1), b"v")
    with pytest.raises(ConfigError):
        t.insert(b"k", b"v" * (VAL_MAX + 1))


@pytest.mark.parametrize("page_size,n_ops", [(4096, 10000), (512, 3000)])
def test_oracle_fuzz(page_size, n_ops):
    pool = make_pool(64, disk=1 << 14, page_size=page_size)
    t = BTree(pool)
    model = {}
    rnd = random.Random(page_size)
    keyspace = 1500
    for step in range(n_ops):
        op = rnd.random()
        k = keyf(rnd.randrange(keyspace))
        if op < 0.5:
            v = b"v%d-%d" % (step, rnd.randrange(10))
            t.insert(k, v)
            model[k] = v
        elif op < 0.85:
            assert t.lookup(k) == model.get(k)
        else:
            limit = rnd.randrange(1, 30)
            assert t.scan(k, limit) == oracle_scan(model, k, limit)
    for k, v in model.items():
        assert t.lookup(k) == v


def test_scan_edges():
    t = BTree(big_pool())
    assert t.scan(b"a", 5) == []             # only the empty root leaf
    for i in range(100):
        t.insert(keyf(i), b"v%d" % i)
    assert t.scan(keyf(0), 0) == []
    assert t.scan(keyf(42), 1) == [(keyf(42), b"v42")]
    assert t.scan(b"k00000098x", 10) == [(keyf(99), b"v99")]
    assert t.scan(b"z", 10) == []
    everything = t.scan(keyf(0), 1000)
    assert len(everything) == 100
    assert everything == sorted(everything)


def test_tree_survives_cold_storage():
    pool = make_pool(16, 16, disk=1 << 13,
                     policy=MigrationPolicy(rr=0.2, evict_batch=8))
    t = BTree(pool)
    model = {}
    for i in range(800):
        k, v = keyf(i * 7), b"val%d" % i
        t.insert(k, v)
        model[k] = v
    assert pool.evict_all() > 0
    for k, v in model.items():
        assert t.lookup(k) == v
    assert t.scan(keyf(0), 5) == oracle_scan(model, keyf(0), 5)


def test_bulk_load_matches_incremental():
    keys = [keyf(i * 3) for i in range(500)]
    vals = [b"v%d" % i for i in range(500)]
    bulk = BTree(big_pool())
    bulk.bulk_load(keys, vals)
    incr = BTree(big_pool())
    for k, v in zip(keys, vals):
        incr.insert(k, v)
    for k, v in zip(keys, vals):
        assert bulk.lookup(k) == v
    probe = keyf(123)
    assert bulk.scan(probe, 40) == incr.scan(probe, 40)
    assert bulk.lookup(b"nope") is None


def test_bulk_load_partial_fill_leaves_room():
    t = BTree(big_pool())
    keys = [keyf(i) for i in range(200)]
    t.bulk_load(keys, [b"v"] * 200, fill=t.leaf_cap - 1)
    before = t.pool._next_pid
    for i in range(200):
        t.insert(keyf(i), b"w")          # overwrites, still no splits
    assert t.pool._next_pid == before
    t.insert(b"k00000000x", b"fresh")    # one genuinely new key
    assert t.lookup(b"k00000000x") == b"fresh"


def test_bulk_load_validation():
    t = BTree(big_pool())
    with pytest.raises(ConfigError):
        t.bulk_load([b"a"], [])
    with pytest.raises(ConfigError):
        t.bulk_load([b"a"], [b"v"], fill=0)


def test_bulk_load_refuses_a_tree_that_is_not_empty():
    """Loading over existing keys would lose them, whether the root is the
    one leaf or an inner node; the load is refused before any allocation."""
    t = BTree(big_pool())
    t.insert(b"a", b"1")
    loaded = BTree(big_pool())
    loaded.bulk_load([keyf(i) for i in range(200)], [b"v"] * 200)
    for tree in (t, loaded):
        before = tree.pool._next_pid
        with pytest.raises(ConfigError):
            tree.bulk_load([b"b", b"c"], [b"2", b"3"])
        assert tree.pool._next_pid == before
    assert t.lookup(b"a") == b"1"
    assert loaded.lookup(keyf(0)) == b"v"


def test_bulk_load_checks_sizes_before_allocating():
    t = BTree(big_pool())
    before = t.pool._next_pid
    with pytest.raises(ConfigError):
        t.bulk_load([b"a", b"x" * 70, b"z"], [b"1", b"2", b"3"])
    with pytest.raises(ConfigError):
        t.bulk_load([b"a", b"b"], [b"1", b"v" * (VAL_MAX + 1)])
    with pytest.raises(ConfigError):
        t.bulk_load([b"", b"b"], [b"1", b"2"])
    assert t.pool._next_pid == before
    keys = [keyf(i) for i in range(100)]
    t.bulk_load(keys, [b"v%d" % i for i in range(100)])
    assert all(t.lookup(k) == b"v%d" % i for i, k in enumerate(keys))
    assert t.scan(keyf(98), 5) == [(keyf(98), b"v98"), (keyf(99), b"v99")]


def test_allocator_exhaustion_is_config_error():
    pool = make_pool(8, disk=6, page_size=512)  # 2 records per leaf
    t = BTree(pool)
    with pytest.raises(ConfigError):
        for i in range(200):
            t.insert(keyf(i), b"v")


def test_insert_out_of_slots_releases_its_locks():
    """A split that runs out of page slots must not leave the parent and
    child it holds locked: later operations would time out on them."""
    pool = make_pool(64, disk=8, fix_timeout_s=1.0)
    t = BTree(pool)
    inserted = []
    with pytest.raises(ConfigError, match="ran out of page slots"):
        for i in range(10_000):
            t.insert(keyf(i), b"v%d" % i)
            inserted.append(i)
    locks = [pool.page_state(pid)[0] for pid in range(pool.topology.slots)]
    held = [pid for pid, b in enumerate(locks)
            if b == LOCKED or SHARED_MIN <= b <= SHARED_MAX]
    assert held == []
    assert t.lookup(keyf(inserted[-1])) == b"v%d" % inserted[-1]


def test_concurrent_disjoint_inserts():
    pool = make_pool(48, disk=1 << 13, fix_timeout_s=60.0)
    t = BTree(pool)
    n_threads, per = 4, 400
    errors = []

    def writer(widx):
        try:
            for i in range(per):
                k = keyf(widx * 10000 + i)
                t.insert(k, b"w%d-%d" % (widx, i))
        except Exception as e:      # pragma: no cover - failure reporting
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors, errors
    for w in range(n_threads):
        for i in range(per):
            assert t.lookup(keyf(w * 10000 + i)) == b"w%d-%d" % (w, i)


def test_readers_during_writes_see_committed_values():
    """Lookups and scans over stable keys while a writer splits the leaves
    that hold them, by inserting new keys in between."""
    pool = make_pool(48, disk=1 << 13, fix_timeout_s=60.0)
    t = BTree(pool)
    stable = {keyf(i * 2): b"s%d" % i for i in range(300)}
    for k, v in stable.items():
        t.insert(k, v)
    stable_keys = list(stable)
    errors = []
    stop = threading.Event()

    def writer():
        try:
            rnd = random.Random(7)
            j = 0
            while not stop.is_set():
                t.insert(rnd.choice(stable_keys) + b".%d" % j, b"noise")
                j += 1
        except Exception as e:      # pragma: no cover
            errors.append(e)

    def check_lookup(k):
        assert t.lookup(k) == stable[k]

    def check_scan(k):
        got = t.scan(k, 16)
        keys = [x for x, _ in got]
        assert keys[0] == k and all(a < b for a, b in zip(keys, keys[1:])), keys
        assert [p for p in got if p[0] in stable] == [
            (s, stable[s]) for s in stable_keys if k <= s <= keys[-1]]
        assert all(v == b"noise" for x, v in got if x not in stable), got

    def reader(seed, check, n):
        rnd = random.Random(seed)
        try:
            for _ in range(n):
                check(rnd.choice(stable_keys))
        except Exception as e:      # pragma: no cover
            errors.append(e)

    w = threading.Thread(target=writer)
    readers = [threading.Thread(target=reader, args=(s, check_lookup, 1500))
               for s in range(3)]
    readers.append(threading.Thread(target=reader, args=(3, check_scan, 500)))
    w.start()
    for r in readers:
        r.start()
    for r in readers:
        r.join(120)
    stop.set()
    w.join(120)
    assert not any(th.is_alive() for th in readers + [w])
    assert not errors, errors


def test_clock_keeps_root_and_inner_nodes_under_optimistic_lookups():
    """Lookups read inner nodes only optimistically; those reads must count
    as accesses, or the clock evicts the pages every lookup needs."""
    pool = make_pool(256, disk=1 << 11,
                     policy=MigrationPolicy(evict_batch=128))
    t = BTree(pool)
    keys = [keyf(i) for i in range(512)]
    t.bulk_load(keys, [b"v%d" % i for i in range(512)], fill=1)
    with pool.fix(t.root_pid, exclusive=False) as h:
        page = h.data.tobytes()
    inner = [_child(page, i) for i in range(_HEAD.unpack_from(page)[1] + 1)]
    full = []
    for pid in inner:
        with pool.fix(pid, exclusive=False) as h:
            if _HEAD.unpack_from(h.data.tobytes())[1] == t.inner_cap:
                full.append(pid)
    assert len(full) == len(inner) - 1 == 9
    pool.evict_all()
    faults = collections.Counter()
    bind_and_read = pool.backend.bind_and_read

    def counting(pid, tier):
        faults[pid] += 1
        return bind_and_read(pid, tier)

    pool.backend.bind_and_read = counting
    rnd = random.Random(1)
    for _ in range(4000):
        i = rnd.randrange(512)
        assert t.lookup(keys[i]) == b"v%d" % i
    assert sum(faults.values()) > 1000       # the leaves do not fit
    assert faults[t.root_pid] == 1
    assert all(faults[pid] <= 1 for pid in full), [faults[pid] for pid in full]


def test_lookup_parses_only_validated_snapshots(monkeypatch):
    """A writer that scribbles over a leaf while an optimistic read copies
    it, then restores it, must not reach the parser: the read fails
    validation and the retry parses the restored leaf."""
    pool = big_pool()
    t = BTree(pool)
    keys = [keyf(i) for i in range(3 * t.leaf_cap)]
    t.bulk_load(keys, [b"v%d" % i for i in range(len(keys))])
    with pool.fix(t.root_pid, exclusive=False) as h:
        pid = _child(h.data.tobytes(), 1)
    with pool.fix(pid, exclusive=False) as h:
        good = h.data.tobytes()
    torn = bytearray(good)
    for i in range(_HEAD.unpack_from(good)[1]):
        klen, k, _, _ = _LEAF_CELL.unpack_from(good, HDR + i * LEAF_STRIDE)
        _LEAF_CELL.pack_into(torn, HDR + i * LEAF_STRIDE, klen, k, 4, b"torn")
    torn = bytes(torn)

    def write(page):
        with pool.fix(pid, exclusive=True) as h:
            h.data[:] = np.frombuffer(page, dtype=np.uint8)
            h.mark_dirty()

    read_token = pool.backend.read_token
    writes = []

    def scribbling(p):
        if p == pid and len(writes) < 2:
            writes.append(torn if not writes else good)
            write(writes[-1])
        return read_token(p)

    leaf_search = btree._leaf_search
    parsed = []

    def spy(page, *args):
        parsed.append(bytes(page))
        return leaf_search(page, *args)

    monkeypatch.setattr(pool.backend, "read_token", scribbling)
    monkeypatch.setattr(btree, "_leaf_search", spy)
    i = t.leaf_cap + 1
    assert t.lookup(keys[i]) == b"v%d" % i
    assert writes == [torn, good]
    assert good in parsed
    assert torn not in parsed


def _spy_decodes(monkeypatch) -> list[bytes]:
    """Record every inner page the descent decodes."""
    decode = btree._decode_inner
    decoded = []

    def spy(page):
        decoded.append(page)
        return decode(page)

    monkeypatch.setattr(btree, "_decode_inner", spy)
    return decoded


def test_split_inner_node_is_decoded_again(monkeypatch):
    """A cached decode is keyed by the page's tier and version, so a split
    of a cached inner node forces a new decode, and descents route by the
    new separators without hopping along the leaves."""
    pool = big_pool()
    t = BTree(pool)
    keys = [keyf(i * 10) for i in range(200 * t.leaf_cap)]
    t.bulk_load(keys, [b"v%d" % i for i in range(len(keys))])
    for k in keys[::7]:                  # warm the cache
        assert t.lookup(k) is not None
    with pool.fix(t.root_pid, exclusive=False) as h:
        root = h.data.tobytes()
    pid = _child(root, 1)
    assert pid in t._inner
    with pool.fix(pid, exclusive=False) as h:
        assert _HEAD.unpack_from(h.data.tobytes())[1] == t.inner_cap
    decoded = _spy_decodes(monkeypatch)
    lo = btree._inner_key(root, 0)       # the first key under `pid`
    new = [lo + b".%d" % j for j in range(3 * t.leaf_cap)]
    for k in new:
        t.insert(k, b"new")
    with pool.fix(pid, exclusive=False) as h:
        after = h.data.tobytes()
    assert _HEAD.unpack_from(after)[1] < t.inner_cap, "the node did not split"
    assert after in decoded
    reads = []
    read = pool.optimistic_read

    def counting(p, fn, *rest):
        reads.append(p)
        return read(p, fn, *rest)

    monkeypatch.setattr(pool, "optimistic_read", counting)
    depth = 3                            # root, inner node, leaf
    for k in new:
        reads.clear()
        assert t.lookup(k) == b"new"
        assert len(reads) == depth, (k, reads)
    for i, k in enumerate(keys):
        assert t.lookup(k) == b"v%d" % i


def test_warm_descent_decodes_and_copies_no_inner_page(monkeypatch):
    pool = make_pool(512, disk=1 << 13)  # holds the whole tree
    t = BTree(pool)
    keys = [keyf(i) for i in range(200 * t.leaf_cap)]
    t.bulk_load(keys, [b"v%d" % i for i in range(len(keys))])
    assert t.lookup(keys[0]) == b"v0"
    under_first_child = (t.inner_cap + 1) * t.leaf_cap
    decoded = _spy_decodes(monkeypatch)
    snapshot = btree._snapshot
    inner_copies = []

    def spy(view):
        page = snapshot(view)
        if page[0] == INNER:
            inner_copies.append(page)
        return page

    monkeypatch.setattr(btree, "_snapshot", spy)
    for i in range(1, under_first_child, 5):
        assert t.lookup(keys[i]) == b"v%d" % i
    assert decoded == [] and inner_copies == []


@pytest.mark.parametrize("frames", [(256, 512, 1024), (128, 256, 256, 512)])
def test_n_tier_fuzz_with_cached_inner_nodes(frames):
    """Mixed B-tree ops on three threads over three and four memory tiers,
    with policies that migrate and evict inner nodes while their decodes
    are cached.  Each thread owns every third key and checks it exactly;
    the end state must match the union of the threads' oracles."""
    topology = TierTopology(tuple(TierSpec(c) for c in frames),
                            TierSpec(1 << 13), page_size_bytes=1024)
    pool = BufferPool(topology, seed=3, fix_timeout_s=60.0,
                      policy=MigrationPolicy(dr=0.5, rr=0.3, evict_batch=32))
    t = BTree(pool)
    stamps = collections.defaultdict(set)

    class Recording(dict):
        def __setitem__(self, pid, entry):
            stamps[pid].add(entry[0])
            super().__setitem__(pid, entry)

    t._inner = Recording()
    n_threads, base = 3, 3 * sum(frames)
    keys = [keyf(i * 10) for i in range(base)]
    t.bulk_load(keys, [k + b"/0" for k in keys], fill=t.leaf_cap - 1)
    models = [{k: k + b"/0" for k in keys[tid::n_threads]}
              for tid in range(n_threads)]
    errors = []

    def client(tid):
        rnd = random.Random(tid)
        model = models[tid]
        mine = list(model)
        try:
            for step in range(2500):
                op = rnd.random()
                k = rnd.choice(mine)
                if op < 0.45:
                    assert t.lookup(k) == model[k], k
                elif op < 0.65:
                    v = k + b"/%d" % (step + 1)
                    t.insert(k, v)
                    model[k] = v
                elif op < 0.9:
                    k = keyf(rnd.randrange(base * 10)) + b".%d" % tid
                    t.insert(k, k + b"/0")
                    model[k] = k + b"/0"
                    mine.append(k)
                else:
                    got = t.scan(k, 20)
                    ks = [x for x, _ in got]
                    assert ks[0] == k and ks == sorted(set(ks)), ks
                    assert all(v.startswith(x + b"/") for x, v in got), got
                    assert [p for p in got if p[0] in model] == sorted(
                        (x, v) for x, v in model.items() if k <= x <= ks[-1])
        except Exception as e:           # pragma: no cover
            errors.append(e)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-5)          # interleave reads with writes
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads), "a client hung"
    assert not errors, errors
    assert_coherent(pool)
    oracle = {k: v for m in models for k, v in m.items()}
    assert t.scan(b"", len(oracle) + 1) == sorted(oracle.items())
    st = pool.stats()
    assert st.promotions and st.demotions and st.evictions_to_disk
    assert all(st.occupancy), st.occupancy
    # Inner nodes were decoded again after moving between tiers.
    tiers = {pid: {s >> pool.layout.tier_shift for s in ss}
             for pid, ss in stamps.items()}
    assert sum(len(ts) > 1 for ts in tiers.values()) >= 5, tiers
