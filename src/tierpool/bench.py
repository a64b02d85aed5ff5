"""Workload harness: builds a pool plus B+tree, loads a synthetic dataset,
runs RandomRead or MixedTxn workers, and reports per-interval metrics.

Keys are 8-byte big-endian outputs of a splitmix64 bijection (unique and
uniformly distributed); values tile the key bytes.  MixedTxn draws keys from
a Zipf distribution scattered over the key space and turns the write share
into read-modify-write operations on the tree.
"""

from __future__ import annotations

import csv
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .backend import TierSpec, TierTopology
from .btree import HDR, INNER_STRIDE, LEAF_STRIDE, BTree
from .cost_model import CostModel
from .errors import ConfigError
from .pool import BufferPool, MigrationPolicy, PoolStats

RANDOM_READ = "randomread"
MIXED_TXN = "mixedtxn"
VALUE_BYTES = 120  # every stored value's length

CSV_COLUMNS = ["elapsed_s", "ops", "tier0_hits", "tier1_hits", "disk_reads",
               "disk_writes", "migrations", "shootdowns", "time_disk_pct",
               "time_migration_pct", "time_other_pct"]


def splitmix64(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass
class BenchConfig:
    # topology (pages)
    local_pages: int = 4096
    remote_pages: int = 8192
    disk_pages: int | None = None
    page_size: int = 4096
    # workload
    workload: str = RANDOM_READ
    dataset_pages: int = 8192
    read_fraction: float = 0.7
    zipf_theta: float = 0.8
    threads: int = 1
    duration_s: float | None = None
    total_ops: int | None = 100_000
    seed: int = 1
    cold_start: bool = True
    # policy
    dr: float = 1.0
    dw: float = 1.0
    rr: float = 1.0
    rw: float = 1.0
    evict_batch: int = 512
    promote_batch: int | None = None
    batch_cap: int | None = None
    engine: str = "mp2"
    # cost model
    cost_model_on: bool = False
    shootdown_ns: int = 4_000
    remote_read_ns: int = 2_500
    disk_read_ns: int = 50_000
    disk_write_ns: int = 50_000
    # reporting
    interval_s: float = 1.0
    csv_path: str | None = None

    def __post_init__(self):
        if self.workload not in (RANDOM_READ, MIXED_TXN):
            raise ConfigError(f"unknown workload {self.workload!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.duration_s is None and self.total_ops is None:
            raise ConfigError("need a duration or an op budget")
        if self.dataset_pages < 1:
            raise ConfigError("dataset_pages must be >= 1")
        leaf_cap = (self.page_size - HDR) // LEAF_STRIDE
        inner_cap = (self.page_size - HDR) // INNER_STRIDE
        if leaf_cap < 2:
            raise ConfigError(f"page size {self.page_size} too small")
        # Leaves plus the inner fan-out overhead plus slack for splits.
        inners = self.dataset_pages // inner_cap + 8
        needed = self.dataset_pages + inners + 64
        if self.disk_pages is None:
            self.disk_pages = needed
        if self.disk_pages < needed:
            raise ConfigError(
                f"disk tier of {self.disk_pages} pages cannot hold the "
                f"{needed}-page dataset plus index")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be a probability")
        if self.zipf_theta < 0.0:
            raise ConfigError("zipf_theta must be >= 0")

    @property
    def n_keys(self) -> int:
        return self.dataset_pages * ((self.page_size - HDR) // LEAF_STRIDE)

    def label(self) -> str:
        return (f"{self.workload}/{self.engine}/"
                f"{self.local_pages}:{self.remote_pages}:{self.disk_pages}")

    def topology(self) -> TierTopology:
        tiers = [TierSpec(self.local_pages)]
        if self.remote_pages > 0:
            tiers.append(TierSpec(self.remote_pages,
                                  read_latency_ns=self.remote_read_ns,
                                  write_latency_ns=self.remote_read_ns))
        return TierTopology(
            memory_tiers=tuple(tiers),
            disk=TierSpec(self.disk_pages,
                          read_latency_ns=self.disk_read_ns,
                          write_latency_ns=self.disk_write_ns),
            page_size_bytes=self.page_size)

    def policy(self) -> MigrationPolicy:
        return MigrationPolicy(dr=self.dr, dw=self.dw, rr=self.rr, rw=self.rw,
                               evict_batch=self.evict_batch,
                               promote_batch=self.promote_batch,
                               nr_max_batched_migration=self.batch_cap,
                               engine=self.engine)


@dataclass
class RunReport:
    label: str
    rows: list[list]
    total_ops: int
    elapsed_s: float
    ops_per_s: float
    totals: dict
    stats: PoolStats
    threads: int

    def op_counters(self) -> dict:
        """Deterministic counters only (drops wall-clock time buckets)."""
        return {k: v for k, v in sorted(self.totals.items())
                if not k.startswith("t_")}

    def share(self, key: str) -> float:
        """Fraction of total thread-time spent in a time bucket."""
        budget = self.elapsed_s * 1e9 * self.threads
        return self.totals.get(key, 0) / budget if budget else 0.0

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(CSV_COLUMNS)
            w.writerows(self.rows)


# -- dataset ------------------------------------------------------------


def make_keys(n: int) -> np.ndarray:
    """n unique uniform 64-bit keys, sorted ascending."""
    return np.sort(splitmix64(np.arange(n, dtype=np.uint64)))


def value_for(key: bytes, value_bytes: int) -> bytes:
    reps = (value_bytes + len(key) - 1) // len(key)
    return (key * reps)[:value_bytes]


class ZipfSampler:
    """Bounded Zipf over n items, scattered across the key space."""

    def __init__(self, n: int, theta: float, seed: int):
        w = np.arange(1, n + 1, dtype=np.float64) ** -theta
        self.cum = np.cumsum(w)
        self.cum /= self.cum[-1]
        self.perm = np.random.default_rng(seed).permutation(n)

    def draw(self, rng) -> int:
        rank = int(np.searchsorted(self.cum, rng.random(), side="right"))
        return int(self.perm[min(rank, len(self.perm) - 1)])


# -- run ----------------------------------------------------------------


def build(config: BenchConfig) -> tuple[BufferPool, BTree, bytes]:
    """Pool + loaded tree + key blob (key i at bytes 8i..8i+8, sorted)."""
    cost = CostModel(enabled=False, shootdown_ns=config.shootdown_ns)
    pool = BufferPool(config.topology(), config.policy(),
                      seed=config.seed, cost_model=cost)
    tree = BTree(pool)
    blob = make_keys(config.n_keys).astype(">u8").tobytes()
    keys = [blob[i:i + 8] for i in range(0, len(blob), 8)]
    tree.bulk_load(keys, [value_for(k, VALUE_BYTES) for k in keys])
    if config.cold_start:
        pool.evict_all()
    cost.enabled = config.cost_model_on
    return pool, tree, blob


def _worker(widx: int, config: BenchConfig, tree: BTree, blob: bytes,
            zipf: ZipfSampler | None, barrier: threading.Barrier,
            deadline: float | None, ops_budget: int | None,
            errors: list, registry) -> None:
    import random
    rng = random.Random(config.seed * 0x9E3779B97F4A7C15 + 7919 * (widx + 1))
    n = config.n_keys
    is_mixed = config.workload == MIXED_TXN
    try:
        barrier.wait()
        done = 0
        while True:
            if ops_budget is not None and done >= ops_budget:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            if is_mixed:
                idx = zipf.draw(rng)
                key = blob[idx * 8:idx * 8 + 8]
                if rng.random() < config.read_fraction:
                    tree.lookup(key)
                else:
                    tree.lookup(key)
                    tree.insert(key, value_for(key, VALUE_BYTES))
            else:
                idx = rng.randrange(n)
                key = blob[idx * 8:idx * 8 + 8]
                tree.lookup(key)
            registry.bump("ops")
            done += 1
    except BaseException as e:  # surface worker failures to the caller
        errors.append(e)
        try:
            barrier.abort()
        except Exception:
            pass


def run(config: BenchConfig) -> RunReport:
    pool, tree, blob = build(config)
    zipf = (ZipfSampler(config.n_keys, config.zipf_theta, config.seed)
            if config.workload == MIXED_TXN else None)
    registry = pool.registry
    base = registry.total()
    if config.total_ops is not None:
        per = config.total_ops // config.threads
        budgets = [per + (1 if i < config.total_ops % config.threads else 0)
                   for i in range(config.threads)]
    else:
        budgets = [None] * config.threads
    barrier = threading.Barrier(config.threads + 1)
    errors: list = []
    t0 = time.monotonic()
    deadline = t0 + config.duration_s if config.duration_s is not None else None
    workers = [threading.Thread(target=_worker,
                                args=(i, config, tree, blob, zipf, barrier,
                                      deadline, budgets[i], errors, registry),
                                daemon=True)
               for i in range(config.threads)]
    for w in workers:
        w.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        for w in workers:
            w.join()
        raise errors[0]
    t0 = time.monotonic()
    rows: list[list] = []
    prev = dict(base)
    prev_t = t0
    while any(w.is_alive() for w in workers):
        time.sleep(min(config.interval_s, 0.2))
        now = time.monotonic()
        if now - prev_t >= config.interval_s:
            snap = registry.total()
            rows.append(_row(now - t0, now - prev_t, prev, snap, config))
            prev, prev_t = snap, now
    for w in workers:
        w.join()
    if errors:
        raise errors[0]
    end_t = time.monotonic()
    snap = registry.total()
    if snap.get("ops", 0) > prev.get("ops", 0) or not rows:
        rows.append(_row(end_t - t0, max(end_t - prev_t, 1e-9), prev, snap,
                         config))
    elapsed = max(end_t - t0, 1e-9)
    totals = {k: snap.get(k, 0) - base.get(k, 0)
              for k in set(snap) | set(base)}
    total_ops = totals.get("ops", 0)
    report = RunReport(label=config.label(), rows=rows, total_ops=total_ops,
                       elapsed_s=elapsed, ops_per_s=total_ops / elapsed,
                       totals=totals, stats=pool.stats(),
                       threads=config.threads)
    if config.csv_path:
        report.write_csv(config.csv_path)
    pool.backend.cost.enabled = False  # do not charge for the shutdown flush
    pool.close()
    return report


def _row(elapsed: float, dt: float, prev: dict, snap: dict,
         config: BenchConfig) -> list:
    def d(key: str) -> int:
        return snap.get(key, 0) - prev.get(key, 0)

    budget_ns = dt * 1e9 * config.threads
    disk_pct = 100.0 * d("t_disk_ns") / budget_ns
    mig_pct = 100.0 * d("t_migration_ns") / budget_ns
    # Clamp measurement jitter so the three shares always total 100.
    disk_pct = min(max(disk_pct, 0.0), 100.0)
    mig_pct = min(max(mig_pct, 0.0), 100.0 - disk_pct)
    other_pct = 100.0 - disk_pct - mig_pct
    return [round(elapsed, 3), d("ops"), d("hits_t0"), d("hits_t1"),
            d("disk_reads"), d("disk_writes"), d("migrated_pages"),
            d("shootdowns"), round(disk_pct, 2), round(mig_pct, 2),
            round(other_pct, 2)]


# -- compare ------------------------------------------------------------


@dataclass
class CompareSummary:
    label_a: str
    label_b: str
    ops_per_s_a: float
    ops_per_s_b: float
    ratio: float
    migration_share_a: float
    migration_share_b: float
    disk_share_a: float
    disk_share_b: float
    shootdowns_a: int
    shootdowns_b: int
    migrated_a: int
    migrated_b: int
    report_a: RunReport = field(repr=False, default=None)
    report_b: RunReport = field(repr=False, default=None)

    def table(self) -> str:
        w = max(14, len(self.label_a) + 2, len(self.label_b) + 2)
        lines = [f"{'metric':<22}{'A':>{w}}{'B':>{w}}{'A/B':>10}",
                 f"{'run':<22}{self.label_a:>{w}}{self.label_b:>{w}}"]

        def rel(a, b):
            return f"{a / b:.3f}" if b else "n/a"

        rows = [("ops_per_s", self.ops_per_s_a, self.ops_per_s_b),
                ("migration_share", self.migration_share_a, self.migration_share_b),
                ("disk_share", self.disk_share_a, self.disk_share_b),
                ("shootdowns", self.shootdowns_a, self.shootdowns_b),
                ("migrated_pages", self.migrated_a, self.migrated_b)]
        for name, a, b in rows:
            lines.append(f"{name:<22}{a:>{w}.3f}{b:>{w}.3f}{rel(a, b):>10}")
        return "\n".join(lines)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["metric", "a", "b", "ratio_a_over_b"])
            for name in ("ops_per_s", "migration_share", "disk_share",
                         "shootdowns", "migrated"):
                a = getattr(self, f"{name}_a")
                b = getattr(self, f"{name}_b")
                w.writerow([name, a, b, (a / b) if b else ""])


def compare(config_a: BenchConfig, config_b: BenchConfig,
            csv_path: str | None = None) -> CompareSummary:
    for attr in ("workload", "seed", "dataset_pages", "total_ops",
                 "duration_s", "threads"):
        if getattr(config_a, attr) != getattr(config_b, attr):
            raise ConfigError(f"compare requires matching {attr}")
    ra = run(config_a)
    rb = run(config_b)
    summary = CompareSummary(
        label_a=ra.label, label_b=rb.label,
        ops_per_s_a=ra.ops_per_s, ops_per_s_b=rb.ops_per_s,
        ratio=ra.ops_per_s / rb.ops_per_s if rb.ops_per_s else float("inf"),
        migration_share_a=ra.share("t_migration_ns"),
        migration_share_b=rb.share("t_migration_ns"),
        disk_share_a=ra.share("t_disk_ns"),
        disk_share_b=rb.share("t_disk_ns"),
        shootdowns_a=ra.totals.get("shootdowns", 0),
        shootdowns_b=rb.totals.get("shootdowns", 0),
        migrated_a=ra.totals.get("migrated_pages", 0),
        migrated_b=rb.totals.get("migrated_pages", 0),
        report_a=ra, report_b=rb)
    if csv_path:
        summary.write_csv(csv_path)
    return summary
