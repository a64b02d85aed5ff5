"""Workload shapes, seeded inputs and pool set-up for the tierpool benchmark.

Everything the program receives is generated here from the run's seed: the
sorted key list, the absent keys, the values and each client's operation
stream.  Keys and values come from this file's own splitmix64 and value
rule, so the checks in `checks.py` never rely on code under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tierpool import BTree, BufferPool, MigrationPolicy, TierSpec, TierTopology

PAGE_SIZE = 4096
LEAF_KEYS = 20        # a 4 KiB page holds 20 leaf cells of 196 bytes
INNER_FANOUT = 55     # separators per 4 KiB inner node (74-byte cells)
VALUE_BYTES = 120

LOOKUP, UPDATE, SCAN = "lookup", "update", "scan"
OP_KINDS = (LOOKUP, UPDATE, SCAN)
SCAN_KEYS = 16

_M64 = (1 << 64) - 1

# GIL switch interval while several clients run.  Under CPython's default of
# 5 ms two clients mostly take turns and rarely overlap inside an operation,
# so the tail flips from seed to seed between "no overlap" and "waited out a
# whole slice".  At 200 us their operations interleave as on two cores.
SWITCH_INTERVAL_S = 0.0002


@dataclass(frozen=True)
class Workload:
    name: str
    memory_tiers: tuple[int, ...]   # frames per memory tier, DRAM first
    leaves: int
    clients: int
    update_share: float
    scan_share: float
    absent_share: float             # share of lookups for keys not loaded
    zipf_theta: float | None        # None draws keys uniformly
    episodes: int                   # measured trajectories per run, each on a fresh pool
    round_ops: int                  # ops per client between deadline checks
    warmup_ops: int                 # untimed ops per client before the clock starts
    window_ops: int                 # traced ops whose counts are reported

    @property
    def n_keys(self) -> int:
        return self.leaves * LEAF_KEYS

    @property
    def disk_pages(self) -> int:
        # The CLI's sizing rule: the leaves, their inner levels and 72 spare
        # slots for pages that splits allocate.
        return self.leaves + self.leaves // INNER_FANOUT + 8 + 64


WORKLOADS = {
    w.name: w for w in (
        Workload("hot-lookup", (8192,), 4096, clients=1, update_share=0.0,
                 scan_share=0.0, absent_share=0.10, zipf_theta=None,
                 episodes=10, round_ops=256, warmup_ops=1024, window_ops=2000),
        Workload("tiered-lookup", (1024, 2048), 4096, clients=1,
                 update_share=0.0, scan_share=0.0, absent_share=0.0,
                 zipf_theta=None, episodes=1, round_ops=4, warmup_ops=0,
                 window_ops=100),
        Workload("zipf-mixed", (1024,), 2048, clients=2, update_share=0.30,
                 scan_share=0.05, absent_share=0.0, zipf_theta=0.8,
                 episodes=10, round_ops=64, warmup_ops=1024, window_ops=2000),
    )
}


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser; a bijection on 64-bit integers."""
    x = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def make_value(key: bytes, version: int) -> bytes:
    """The value rule: key, version, then filler derived from both."""
    filler = _mix(int.from_bytes(key, "big") ^ _mix(version)).to_bytes(8, "big")
    return (key + version.to_bytes(8, "big") + filler * 13)[:VALUE_BYTES]


def value_version(key: bytes, value) -> int | None:
    """The version `value` was written with, or None if it is not a value
    the rule gives for `key`."""
    if value is None or len(value) != VALUE_BYTES or value[:8] != key:
        return None
    version = int.from_bytes(value[8:16], "big")
    return version if make_value(key, version) == value else None


class Dataset:
    """Sorted unique 8-byte keys, absent keys and initial values for a seed.

    Key i is splitmix64(seed << 32 | i) for i < n; absent keys use the
    inputs n..2n-1, so the bijection keeps them apart from the loaded set.
    """

    def __init__(self, n_keys: int, seed: int):
        base = np.uint64((seed & 0xFFFFFFFF) << 32)
        present = np.sort(splitmix64(np.arange(n_keys, dtype=np.uint64) + base))
        absent = splitmix64(np.arange(n_keys, 2 * n_keys, dtype=np.uint64) + base)
        self.keys = _split8(present)
        self.absent = _split8(absent)
        self.values = [make_value(k, 0) for k in self.keys]


def _split8(arr: np.ndarray) -> list[bytes]:
    blob = arr.astype(">u8").tobytes()
    return [blob[i:i + 8] for i in range(0, len(blob), 8)]


def build(workload: Workload, data: Dataset, seed: int) -> tuple[BufferPool, BTree]:
    """The set-up that `setup_s` times: pool, bulk load, flush."""
    topology = TierTopology(tuple(TierSpec(c) for c in workload.memory_tiers),
                            TierSpec(workload.disk_pages),
                            page_size_bytes=PAGE_SIZE)
    pool = BufferPool(topology, MigrationPolicy(), seed=seed)
    tree = BTree(pool)
    tree.bulk_load(data.keys, data.values)
    pool.flush_all()
    return pool, tree


class OpStream:
    """One client's operations, drawn a round at a time from (seed, episode, client).

    Each op is (kind, key index, absent).  In a Zipf workload the ranks are
    scattered over the key space by a permutation of (seed, episode) shared
    by all clients, so each episode has its own hot set, and an update is
    moved to the neighbouring key of the client's parity, so every key has
    exactly one updating client.
    """

    def __init__(self, workload: Workload, seed: int, client: int, episode: int):
        self.w = workload
        self.client = client
        self.client_seq = 0  # updates this client has written so far
        self.rng = np.random.default_rng([seed, episode, client, 0x7E57])
        n = workload.n_keys
        if workload.zipf_theta is not None:
            weights = np.arange(1, n + 1, dtype=np.float64) ** -workload.zipf_theta
            self.cum = np.cumsum(weights)
            self.cum /= self.cum[-1]
            self.perm = np.random.default_rng([seed, episode, 0x21F]).permutation(n)

    def next_round(self) -> list[tuple[str, int, bool]]:
        w, rng, m = self.w, self.rng, self.w.round_ops
        n = w.n_keys
        if w.zipf_theta is None:
            idx = rng.integers(0, n, m)
        else:
            ranks = np.searchsorted(self.cum, rng.random(m), side="right")
            idx = self.perm[np.minimum(ranks, n - 1)]
        draw = rng.random(m)
        absent = rng.random(m) < w.absent_share
        ops = []
        for i, d, a in zip(idx.tolist(), draw.tolist(), absent.tolist()):
            if d < w.update_share:
                ops.append((UPDATE, i - i % w.clients + self.client, False))
            elif d < w.update_share + w.scan_share:
                ops.append((SCAN, i, False))
            else:
                ops.append((LOOKUP, i, a))
        return ops
