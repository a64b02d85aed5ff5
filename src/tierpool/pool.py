"""The n-tier buffer pool: fix/unfix, optimistic reads, clock eviction,
probabilistic tier policy, and batched demotion/promotion.

Concurrency design, in one place:

* Page safety is the state-word CAS protocol; there is no per-page mutex.
  Every change of a word is one `StateTable.try_edge` from the word the
  caller decided on, so a page that moved since then fails the CAS.
* Each tier's frame pool (backend.pools) records which page sits in which
  frame and drives that tier's clock; it has its own short-lived internal
  lock, which the clock's `visit` callbacks run under.
* One pool-wide reentrant migration lock serializes evict_batch and
  promote_batch.  Holders of that lock only ever *try* CAS edges on pages
  (never spin on them), so a thread stuck waiting for a page lock can never
  be holding the migration lock that its owner needs.
* fix() takes no locks besides CAS retries; its fault path may run evictions,
  which acquire the migration lock.
* The Marked lock byte is the clock's access bit: the clock marks, and any
  access clears it (an exclusive fix by locking, a shared fix or an
  optimistic read by the UNMARK edge).  Demoted pages land Marked.
* Each remote tier keeps a short list of its pages that were accessed but
  not promoted: a hit whose rr roll missed, or a fault the dr roll placed
  there.  A promotion batch is its trigger plus what it drains from that
  list, so no step of a promotion scans the tier.

Each page movement has one code path:

* Fault: `_fault_in` reads an Evicted page into the tier the dr roll picks
  and returns with it Locked.  An exclusive fix keeps that lock; a shared
  fix drops it and takes the shared lock in its own loop.
* Between memory tiers: `_move` migrates a locked batch with one engine
  call, retags and unlocks it.  `promote_batch` moves to DRAM and
  `evict_batch` moves down a tier.
* To disk: `_evict_to_disk` writes back or drops a locked set, for the
  clock (`evict_batch`, whose `visit` makes the dw roll) and `evict_all`.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import state_word as sw
from .backend import _FRAME_MASK, _FRAME_SHIFT, _TIER_MASK, DISK, TierBackend, TierTopology
from .cost_model import CostModel
from .errors import ConfigError, IllegalState, PoolTimeout, TierFull
from .migration import MigrationEngine, MigrationRequest
from .state_word import Edge, StateLayout, StateTable
from .stats import StatsRegistry

DRAM = 0

_ENGINES = ("mp2", "legacy", "mbind")

# A tier at or above this share of used frames runs eviction rounds.
UTILIZATION_THRESHOLD = 0.95

# Edges are frozen values, so every CAS shares these instead of building one.
_LOCK_EXCLUSIVE = Edge.lock_exclusive()
_LOCK_SHARED = Edge.lock_shared()
_UNLOCK_CLEAN = Edge.unlock_exclusive(False)
_UNLOCK_DIRTY = Edge.unlock_exclusive(True)
_UNLOCK_SHARED = Edge.unlock_shared()
_MARK = Edge.mark()
_UNMARK = Edge.unmark()
_EVICT = Edge.evict()


@dataclass
class MigrationPolicy:
    """Probabilistic tier-policy flags plus replacement batch sizes.

    dr: fault-in lands in DRAM with this probability, else in the next tier.
    rw: DRAM demotion targets the next memory tier with this probability,
        else goes straight to disk (rolled once per eviction batch).
    rr: a fix that finds its page in a remote tier promotes a batch toward
        DRAM with this probability.
    dw: a dirty page evicted from the last memory tier is written back with
        this probability, else the victim is skipped for another clock lap.
    promote_batch: the most pages one promotion moves: the trigger plus
        remote pages accessed since their last promotion chance (default
        evict_batch).
    """

    dr: float = 1.0
    dw: float = 1.0
    rr: float = 1.0
    rw: float = 1.0
    evict_batch: int = 512
    promote_batch: int | None = None
    nr_max_batched_migration: int | None = None
    engine: str = "mp2"

    def __post_init__(self):
        for name in ("dr", "dw", "rr", "rw"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {p}")
        if self.evict_batch < 1:
            raise ConfigError("evict_batch must be >= 1")
        if self.promote_batch is None:
            self.promote_batch = self.evict_batch
        if self.promote_batch < 1:
            raise ConfigError("promote_batch must be >= 1")
        if self.nr_max_batched_migration is None:
            self.nr_max_batched_migration = 2 * self.evict_batch
        if self.nr_max_batched_migration < 1:
            raise ConfigError("nr_max_batched_migration must be >= 1")
        if self.engine not in _ENGINES:
            raise ConfigError(f"engine must be one of {_ENGINES}")


@dataclass
class PoolStats:
    fixes: int
    hits: list[int]
    faults: int
    promotions: int
    demotions: int
    evictions_to_disk: int
    disk_reads: int
    disk_writes: int
    bytes_copied: int
    migration_calls: int
    mbind_calls: int
    migrated_pages: int
    shootdowns: int
    t_disk_ns: int
    t_migration_ns: int
    optimistic_reads: int
    optimistic_retries: int
    occupancy: list[int]


class PageHandle:
    """A held page lock.  Usable as a context manager; exiting unfixes."""

    __slots__ = ("pool", "pid", "exclusive", "_dirty", "_released")

    def __init__(self, pool: "BufferPool", pid: int, exclusive: bool):
        self.pool = pool
        self.pid = pid
        self.exclusive = exclusive
        self._dirty = False
        self._released = False

    @property
    def data(self) -> np.ndarray:
        """The page's frame bytes; valid only while the handle is held."""
        return self.pool.backend.page_view(self.pid)

    def mark_dirty(self) -> None:
        if not self.exclusive:
            raise IllegalState("cannot dirty a shared-locked page")
        self._dirty = True

    def __enter__(self) -> "PageHandle":
        return self

    def __exit__(self, *exc) -> None:
        if not self._released:
            self.pool.unfix(self)


class BufferPool:
    def __init__(self, topology: TierTopology, policy: MigrationPolicy | None = None,
                 seed: int = 0, cost_model: CostModel | None = None,
                 disk_path: str | None = None, trace: bool = False,
                 fix_timeout_s: float = 30.0):
        self.topology = topology
        self.policy = policy or MigrationPolicy()
        self.layout = StateLayout(topology.n_memory_tiers)
        self.registry = StatsRegistry()
        self.backend = TierBackend(topology, cost_model=cost_model,
                                   disk_path=disk_path, registry=self.registry)
        self.engine = MigrationEngine(self.backend, registry=self.registry)
        self.state = StateTable(topology.slots, self.layout, trace=trace)
        # Residency and the clock live in the backend's frame pools.
        self.resident = self.backend.pools
        m = topology.n_memory_tiers
        self._hit_keys = tuple(f"hits_t{t}" for t in range(m))
        self._read_ns = tuple(t.read_latency_ns for t in topology.memory_tiers)
        self._set_tier_edges = tuple(Edge.set_tier(t) for t in range(m))
        self._fault_in_edges = tuple(Edge.fault_in(t) for t in range(m))
        # Per memory tier, remote pages accessed but not promoted, which the
        # next promotion out of that tier drains (DRAM's stays empty).
        self._candidates = tuple(deque(maxlen=self.policy.promote_batch - 1)
                                 for _ in range(m))
        self.dirty = [False] * topology.slots
        self.seed = seed
        self.fix_timeout_s = fix_timeout_s
        self._mig_lock = threading.RLock()
        self._tls = threading.local()
        self._thread_seq = 0
        self._seq_lock = threading.Lock()

    # -- rng plumbing ----------------------------------------------------

    def rng(self) -> random.Random:
        """This thread's policy RNG, seeded from (pool seed, thread ordinal)."""
        r = getattr(self._tls, "rng", None)
        if r is None:
            with self._seq_lock:
                ordinal = self._thread_seq
                self._thread_seq += 1
            r = random.Random(self.seed * 0x9E3779B97F4A7C15 + ordinal)
            self._tls.rng = r
        return r

    # -- fix / unfix -----------------------------------------------------

    def fix(self, pid: int, exclusive: bool = True,
            rng: random.Random | None = None) -> PageHandle:
        if not 0 <= pid < self.topology.slots:
            raise ConfigError(f"pid {pid} out of range")
        rng = rng or self.rng()
        deadline = time.monotonic() + self.fix_timeout_s
        rolled_rr = False
        found = -1  # the tier a hit counts in, even if the fix promotes it
        faulted = False  # this fix read the page in and has not locked it yet
        spins = 0
        while True:
            word = self.state.load(pid)
            byte = self.layout.lock_byte(word)
            if byte == sw.EVICTED:
                faulted = self._fault_in(pid, rng, deadline)
                if not faulted:
                    continue  # lost the fault race; someone else is reading it in
                if exclusive:
                    return self._fixed(pid, True, "faults")
                # Shared: drop the fault's lock and take the shared one below,
                # which clears a mark or faults again as the page needs.
                a = self.state.try_edge(pid, _UNLOCK_CLEAN)
                assert a
                continue
            tier = self.layout.tier(word)
            if not faulted:
                if found < 0:
                    found = tier
                if tier != DRAM and not rolled_rr:
                    # Remote hit: at most one promotion roll per fix call.
                    rolled_rr = True
                    self._roll_rr(pid, tier, rng)
                    continue
            # Each lock edge CASes from `word`, so the tier a hit is charged
            # to is the tier of the word it locked.
            if exclusive:
                if self.state.try_edge(pid, _LOCK_EXCLUSIVE, word):
                    self._charge_access(tier)
                    return self._fixed(pid, True, self._hit_keys[found])
            elif self.state.try_edge(pid, _LOCK_SHARED, word):
                if faulted:
                    return self._fixed(pid, False, "faults")
                self._charge_access(tier)
                return self._fixed(pid, False, self._hit_keys[found])
            elif byte == sw.MARKED:
                # No Marked->Shared edge exists; clear the mark, retry shared.
                self.state.try_edge(pid, _UNMARK, word)
                continue
            spins = self._backoff(spins, deadline, pid)

    def _fixed(self, pid: int, exclusive: bool, outcome: str) -> PageHandle:
        # Counted on the path that returns the handle, so a page evicted
        # before its lock was taken counts as the fault it became.
        self.registry.bump("fixes")
        self.registry.bump(outcome)
        return PageHandle(self, pid, exclusive)

    def unfix(self, handle: PageHandle, dirty: bool | None = None) -> None:
        assert not handle._released, "handle unfixed twice"
        handle._released = True
        pid = handle.pid
        if handle.exclusive:
            is_dirty = handle._dirty if dirty is None else (dirty or handle._dirty)
            if is_dirty:
                self.dirty[pid] = True
            edge = _UNLOCK_DIRTY if is_dirty else _UNLOCK_CLEAN
            if not self.state.try_edge(pid, edge):
                byte = self.layout.lock_byte(self.state.load(pid))
                raise IllegalState(f"exclusive unfix of page {pid} in state "
                                   f"{sw.describe_lock(byte)}")
        else:
            while not self.state.try_edge(pid, _UNLOCK_SHARED):
                byte = self.layout.lock_byte(self.state.load(pid))
                if not sw.SHARED_MIN <= byte <= sw.SHARED_MAX:
                    raise IllegalState(f"shared unfix of page {pid} in state "
                                       f"{sw.describe_lock(byte)}")
                # lost a CAS race against another shared locker; retry

    def _fault_in(self, pid: int, rng: random.Random, deadline: float) -> bool:
        """Winner path for an Evicted page: read it into the tier the dr
        roll picks and return with it Locked; False if the CAS lost."""
        pol = self.policy
        m = self.topology.n_memory_tiers
        target = DRAM
        if m > 1 and rng.random() >= pol.dr:
            target = 1
        if not self.state.try_edge(pid, self._fault_in_edges[target]):
            return False
        try:
            while True:
                self._make_room(target, rng, deadline, need=1)
                try:
                    self.backend.bind_and_read(pid, target)
                    break
                except TierFull:
                    continue  # a concurrent fault took the frame; evict again
        except BaseException:
            # Roll the word back so the page is not left locked forever.
            a = self.state.try_edge(pid, _EVICT)
            assert a
            raise
        if target != DRAM:
            self._candidates[target].append(pid)
        return True

    def _roll_rr(self, pid: int, tier: int, rng: random.Random) -> None:
        """A hit on `pid` in remote `tier`: promote a batch toward DRAM with
        probability rr, else keep `pid` as a candidate for a later batch."""
        if rng.random() < self.policy.rr:
            self.promote_batch(pid, tier, rng=rng)
        else:
            self._candidates[tier].append(pid)

    def _charge_access(self, tier: int) -> None:
        # Simulated access latency of a memory-tier hit (zero for DRAM by
        # default, nonzero for remote tiers when the cost model is on).
        ns = self._read_ns[tier]
        if ns:
            self.backend.cost.charge(ns)

    def _backoff(self, spins: int, deadline: float, pid: int) -> int:
        if time.monotonic() > deadline:
            raise PoolTimeout(f"could not acquire page {pid}")
        if spins > 64:
            time.sleep(0.0001)
        else:
            time.sleep(0)
        return spins + 1

    # -- optimistic reads ------------------------------------------------

    def optimistic_read(self, pid: int, reader_fn,
                        rng: random.Random | None = None):
        """Run `reader_fn(bytes_view)` without locking, validate, retry.

        The view is live memory: reader_fn must be side-effect-free and must
        tolerate torn bytes, because a result is discarded (and retried)
        whenever a writer holds the page at validation, or its version, tier,
        placement, or frame generation moved while it ran; a mark or a shared
        lock in between does not count.  A reader that returns
        `view.tobytes()` gets a snapshot that is consistent once returned.
        A read clears the clock's mark.  Locked and Evicted pages fall back
        to a shared fix.  A validated read of a remote-tier page counts as a
        hit there and rolls the rr promotion policy, just like a pessimistic
        fix would.
        """
        if not 0 <= pid < self.topology.slots:
            raise ConfigError(f"pid {pid} out of range")
        state, backend = self.state, self.backend
        attempts = 0
        while True:
            word = state.load(pid)
            byte = self.layout.lock_byte(word)
            if byte == sw.LOCKED or byte == sw.EVICTED or attempts >= 64:
                h = self.fix(pid, exclusive=False, rng=rng)
                try:
                    return reader_fn(h.data)
                finally:
                    self.unfix(h)
            if byte == sw.MARKED:
                # Validation accepts the cleared mark; if the CAS lost, read anyway.
                state.try_edge(pid, _UNMARK, word)
            token = backend.read_token(pid)
            if token >= 0:
                tier = (token >> _FRAME_SHIFT) & _TIER_MASK
                value = reader_fn(backend.pools[tier].arena[token & _FRAME_MASK])
                token1 = backend.read_token(pid)
                w1 = state.load(pid)
                if token1 == token and (w1 == word or self._unwritten(pid, word, w1)):
                    sheet = self.registry.sheet()
                    sheet["optimistic_reads"] = sheet.get("optimistic_reads", 0) + 1
                    hits = self._hit_keys[tier]
                    sheet[hits] = sheet.get(hits, 0) + 1
                    self._charge_access(tier)
                    if tier != DRAM:
                        self._roll_rr(pid, tier, rng or self.rng())
                    return value
            attempts += 1
            self.registry.bump("optimistic_retries")
            time.sleep(0)

    def _unwritten(self, pid: int, word: int, now: int) -> bool:
        """Validation when the word moved from `word` to `now` during an
        optimistic read: the bytes stand unless a writer holds the page or
        the version or tier changed.  A mark set meanwhile is cleared again,
        since the read was an access."""
        byte = self.layout.lock_byte(now)
        if (byte == sw.LOCKED or byte == sw.EVICTED
                or (now ^ word) & (self.layout.tier_mask | self.layout.version_mask)):
            return False
        if byte == sw.MARKED:
            self.state.try_edge(pid, _UNMARK, now)
        return True

    # -- eviction --------------------------------------------------------

    def evict_batch(self, src_tier: int, dst: int,
                    rng: random.Random | None = None) -> int:
        """One clock pass over src: mark unlocked pages, take marked ones,
        and move the taken set down to `dst` (a lower memory tier or DISK).
        Returns the number of pages that actually moved."""
        rng = rng or self.rng()
        m = self.topology.n_memory_tiers
        if dst != DISK and not src_tier < dst < m:
            raise ConfigError(f"bad eviction destination {dst} from tier {src_tier}")
        layout = self.layout
        state = self.state
        # dw: a dirty page leaving the last memory tier for disk may be kept
        # for another lap; keeping it only clears its mark.
        dw_roll = dst == DISK and src_tier == m - 1

        def visit(pid: int) -> bool:
            word = state.load(pid)
            byte = layout.lock_byte(word)
            if byte == sw.UNLOCKED:
                state.try_edge(pid, _MARK, word)
                return False
            if byte == sw.MARKED:
                if dw_roll and self.dirty[pid] and rng.random() >= self.policy.dw:
                    state.try_edge(pid, _UNMARK, word)
                    return False
                return state.try_edge(pid, _LOCK_EXCLUSIVE, word)
            return False

        with self._mig_lock:
            taken = self.resident[src_tier].sweep(visit, self.policy.evict_batch)
            if not taken:
                return 0
            if dst == DISK:
                return self._evict_to_disk(taken)
            return self._move(taken, dst, rng)

    def _evict_to_disk(self, taken: list[int]) -> int:
        """Write back (if dirty) and drop every locked page in `taken`."""
        for pid in taken:
            if self.dirty[pid]:
                self.backend.write_back(pid)
                self.dirty[pid] = False
            else:
                self.backend.release_frame(pid)
            a = self.state.try_edge(pid, _EVICT)
            assert a
            self.registry.bump("evicted_to_disk")
        return len(taken)

    def _move(self, locked: list[int], dst: int, rng: random.Random) -> int:
        """Migrate the locked pages to memory tier `dst` with one call,
        retag and unlock them; returns the number that moved.  A move to
        DRAM is a promotion; any other is a demotion, whose pages land
        Marked: dst's clock takes them first, and promote_batch skips them
        until an access clears the mark."""
        # Make room at the destination first; otherwise a full tier turns
        # every move into a TierFull no-op and nothing drains.
        self._room_for_batch(dst, len(locked), rng)
        codes = self._migrate(locked, dst)
        to_dst = self._set_tier_edges[dst]
        demote = dst != DRAM
        counter = "demoted_pages" if demote else "promoted_pages"
        moved = 0
        for pid, code in zip(locked, codes):
            if code >= 0:
                a = self.state.try_edge(pid, to_dst)
                assert a
                self.registry.bump(counter)
                moved += 1
            a = self.state.try_edge(pid, _UNLOCK_CLEAN)
            assert a
            if code >= 0 and demote:
                self.state.try_edge(pid, _MARK)
        return moved

    def _migrate(self, pids: list[int], dst: int) -> list[int]:
        pol = self.policy
        if pol.engine == "mbind":
            return [self.engine.mbind_single(pid, dst) for pid in pids]
        req = MigrationRequest(pids, [dst] * len(pids),
                               nr_max_batched_migration=pol.nr_max_batched_migration)
        if pol.engine == "mp2":
            return self.engine.move_pages2(req).status
        return self.engine.move_pages_legacy(req).status

    def _evict_round(self, tier: int, rng: random.Random) -> int:
        """One threshold-driven eviction batch out of `tier`, with the
        DRAM destination drawn per batch from rw."""
        m = self.topology.n_memory_tiers
        if tier < m - 1:
            dst = tier + 1 if (tier != DRAM or rng.random() < self.policy.rw) else DISK
        else:
            dst = DISK
        return self.evict_batch(tier, dst, rng=rng)

    def maybe_evict(self, tier: int, rng: random.Random | None = None) -> int:
        """Run eviction rounds while `tier` sits at or above the threshold."""
        rng = rng or self.rng()
        deadline = time.monotonic() + self.fix_timeout_s
        return self._make_room(tier, rng, deadline, need=0)

    def _make_room(self, tier: int, rng: random.Random, deadline: float,
                   need: int) -> int:
        pol = self.policy
        pool = self.backend.pools[tier]
        zero_rounds = 0
        total = 0
        while True:
            util = (pool.capacity - pool.n_free) / pool.capacity
            if util < UTILIZATION_THRESHOLD and pool.n_free >= need:
                return total
            moved = self._evict_round(tier, rng)
            total += moved
            if moved:
                zero_rounds = 0
                continue
            zero_rounds += 1
            if zero_rounds >= 64:
                raise ConfigError(
                    f"tier {tier} cannot make room: capacity "
                    f"{pool.capacity} too small for the locked working set")
            if time.monotonic() > deadline:
                raise PoolTimeout(f"eviction on tier {tier} made no progress")
            time.sleep(0.0001 if zero_rounds > 8 else 0)

    def _room_for_batch(self, tier: int, need: int, rng: random.Random) -> None:
        """Best-effort: try to free `need` frames on `tier`; leftover
        shortfall surfaces as per-page TierFull in the migration call."""
        pool = self.backend.pools[tier]
        zero_rounds = 0
        while pool.n_free < need and zero_rounds < 16:
            if self._evict_round(tier, rng) == 0:
                zero_rounds += 1
            else:
                zero_rounds = 0

    # -- promotion -------------------------------------------------------

    def promote_batch(self, trigger_pid: int, src_tier: int,
                      rng: random.Random | None = None) -> int:
        """Pull `trigger_pid` plus up to promote_batch-1 pages drained from
        `src_tier`'s list of accessed-but-unpromoted pages into DRAM with one
        migration call.  A drained page joins only if it is still Unlocked
        in `src_tier` (neither moved, evicted, locked, nor marked by the
        clock since); the rest are dropped."""
        if not 0 <= trigger_pid < self.topology.slots:
            raise ConfigError(f"pid {trigger_pid} out of range")
        rng = rng or self.rng()
        if not 0 < src_tier < self.topology.n_memory_tiers:
            raise ConfigError(f"bad promotion source {src_tier}")
        layout = self.layout
        state = self.state

        with self._mig_lock:
            # The trigger may be Unlocked or Marked; it must still be in src.
            word = state.load(trigger_pid)
            if (layout.tier(word) != src_tier
                    or not state.try_edge(trigger_pid, _LOCK_EXCLUSIVE, word)):
                return 0
            locked = [trigger_pid]
            candidates = self._candidates[src_tier]
            for _ in range(len(candidates)):  # at most promote_batch - 1
                pid = candidates.popleft()
                if pid == trigger_pid:
                    continue
                word = state.load(pid)
                if (layout.tier(word) == src_tier
                        and layout.lock_byte(word) == sw.UNLOCKED
                        and state.try_edge(pid, _LOCK_EXCLUSIVE, word)):
                    locked.append(pid)
            return self._move(locked, DRAM, rng)

    # -- maintenance -----------------------------------------------------

    def flush_all(self) -> int:
        """Write every dirty cached page to disk; pages stay resident."""
        flushed = 0
        deadline = time.monotonic() + self.fix_timeout_s
        for tier in range(self.topology.n_memory_tiers):
            for pid in self.resident[tier].snapshot():
                if not self.dirty[pid]:
                    continue
                if not self._lock_blocking(pid, deadline):
                    continue  # page got evicted while we waited
                if self.dirty[pid]:
                    self.backend.flush_page(pid)
                    self.dirty[pid] = False
                    flushed += 1
                a = self.state.try_edge(pid, _UNLOCK_CLEAN)
                assert a
        return flushed

    def evict_all(self) -> int:
        """Force every cached page out to disk (cold-start helper)."""
        deadline = time.monotonic() + self.fix_timeout_s
        evicted = 0
        with self._mig_lock:
            for tier in range(self.topology.n_memory_tiers):
                for pid in self.resident[tier].snapshot():
                    if self._lock_blocking(pid, deadline):
                        evicted += self._evict_to_disk([pid])
        return evicted

    def _lock_blocking(self, pid: int, deadline: float) -> bool:
        spins = 0
        while True:
            word = self.state.load(pid)
            if self.layout.lock_byte(word) == sw.EVICTED:
                return False
            if self.state.try_edge(pid, _LOCK_EXCLUSIVE, word):
                return True
            spins = self._backoff(spins, deadline, pid)

    def close(self) -> None:
        self.flush_all()
        self.backend.close()

    # -- introspection ---------------------------------------------------

    def is_dirty(self, pid: int) -> bool:
        if not 0 <= pid < self.topology.slots:
            raise ConfigError(f"pid {pid} out of range")
        return self.dirty[pid]

    def page_state(self, pid: int) -> tuple[int, int, int]:
        if not 0 <= pid < self.topology.slots:
            raise ConfigError(f"pid {pid} out of range")
        return self.layout.unpack(self.state.load(pid))

    def stats(self) -> PoolStats:
        t = self.registry.total()
        m = self.topology.n_memory_tiers
        return PoolStats(
            fixes=t.get("fixes", 0),
            hits=[t.get(f"hits_t{i}", 0) for i in range(m)],
            faults=t.get("faults", 0),
            promotions=t.get("promoted_pages", 0),
            demotions=t.get("demoted_pages", 0),
            evictions_to_disk=t.get("evicted_to_disk", 0),
            disk_reads=t.get("disk_reads", 0),
            disk_writes=t.get("disk_writes", 0),
            bytes_copied=t.get("bytes_copied", 0),
            migration_calls=t.get("migration_calls", 0),
            mbind_calls=t.get("mbind_calls", 0),
            migrated_pages=t.get("migrated_pages", 0),
            shootdowns=t.get("shootdowns", 0),
            t_disk_ns=t.get("t_disk_ns", 0),
            t_migration_ns=t.get("t_migration_ns", 0),
            optimistic_reads=t.get("optimistic_reads", 0),
            optimistic_retries=t.get("optimistic_retries", 0),
            occupancy=[self.backend.occupancy(i) for i in range(m)],
        )
