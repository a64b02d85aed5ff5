"""Packed 64-bit page-state words and the tier-aware lock state machine.

Every page slot owns one 64-bit word:

    bits 63..56   lock state byte (unlocked / shared count / locked / marked / evicted)
    next bits     memory-tier index, ceil(log2(m)) bits for m memory tiers
    low bits      version counter (monotone, bumped on dirty unlock and on evict)

All mutation goes through compare-and-swap on the word, so a page can be
locked, marked, migrated, and evicted by racing threads without any page-level
mutex.  :meth:`StateTable.try_edge` is the one way to change a word, and it
applies only the edges modeled in :func:`transition`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Lock-state byte encodings.  Shared locks store their holder count directly.
UNLOCKED = 0
SHARED_MIN = 1
SHARED_MAX = 252
LOCKED = 253
MARKED = 254
EVICTED = 255

_U64 = (1 << 64) - 1


def describe_lock(byte: int) -> str:
    """Human-readable name for a lock-state byte."""
    if byte == UNLOCKED:
        return "Unlocked"
    if SHARED_MIN <= byte <= SHARED_MAX:
        return f"LockedShared({byte})"
    return {LOCKED: "Locked", MARKED: "Marked", EVICTED: "Evicted"}[byte]


class StateLayout:
    """Bit layout of the state word for a hierarchy with `memory_tiers` tiers."""

    __slots__ = ("memory_tiers", "tier_bits", "version_bits", "tier_shift",
                 "version_mask", "tier_mask")

    def __init__(self, memory_tiers: int):
        if memory_tiers < 1:
            raise ValueError("need at least one memory tier")
        self.memory_tiers = memory_tiers
        # ceil(log2(m)); a single-memory-tier pool needs no tier bits at all.
        self.tier_bits = (memory_tiers - 1).bit_length()
        self.version_bits = 64 - 8 - self.tier_bits
        self.tier_shift = self.version_bits
        self.version_mask = (1 << self.version_bits) - 1
        self.tier_mask = ((1 << self.tier_bits) - 1) << self.tier_shift

    def pack(self, lock: int, tier: int, version: int) -> int:
        """Encode (lock byte, tier, version) into a word; raises on out-of-range input."""
        if not 0 <= lock <= 255:
            raise ValueError(f"lock byte out of range: {lock}")
        if not 0 <= tier < self.memory_tiers:
            raise ValueError(f"tier {tier} not a memory tier (0..{self.memory_tiers - 1})")
        if not 0 <= version <= self.version_mask:
            raise ValueError(f"version {version} does not fit in {self.version_bits} bits")
        return (lock << 56) | (tier << self.tier_shift) | version

    def unpack(self, word: int) -> tuple[int, int, int]:
        """Decode a word into (lock byte, tier, version).  Total over all 2**64 words."""
        word &= _U64
        return (word >> 56,
                (word & self.tier_mask) >> self.tier_shift,
                word & self.version_mask)

    def lock_byte(self, word: int) -> int:
        return (word & _U64) >> 56

    def version(self, word: int) -> int:
        return word & self.version_mask

    def tier(self, word: int) -> int:
        return (word & self.tier_mask) >> self.tier_shift

    # Vectorized twins, used by bulk invariant checks and the round-trip suite.
    def pack_array(self, locks: np.ndarray, tiers: np.ndarray,
                   versions: np.ndarray) -> np.ndarray:
        locks = np.asarray(locks, dtype=np.uint64)
        tiers = np.asarray(tiers, dtype=np.uint64)
        versions = np.asarray(versions, dtype=np.uint64)
        if locks.size and int(locks.max()) > 255:
            raise ValueError("lock byte out of range")
        if tiers.size and int(tiers.max()) >= self.memory_tiers:
            raise ValueError("tier out of range")
        if versions.size and int(versions.max()) > self.version_mask:
            raise ValueError("version out of range")
        return (locks << np.uint64(56)) | (tiers << np.uint64(self.tier_shift)) | versions

    def unpack_array(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        words = np.asarray(words, dtype=np.uint64)
        locks = words >> np.uint64(56)
        tiers = (words & np.uint64(self.tier_mask)) >> np.uint64(self.tier_shift)
        versions = words & np.uint64(self.version_mask)
        return locks, tiers, versions


class EdgeKind(Enum):
    LOCK_EXCLUSIVE = "lock_exclusive"
    LOCK_SHARED = "lock_shared"
    UNLOCK_EXCLUSIVE = "unlock_exclusive"
    UNLOCK_SHARED = "unlock_shared"
    MARK = "mark"
    UNMARK = "unmark"
    EVICT = "evict"
    SET_TIER = "set_tier"
    FAULT_IN = "fault_in"


@dataclass(frozen=True)
class Edge:
    """One requested transition; `dirty` and `tier` only apply to some kinds."""

    kind: EdgeKind
    dirty: bool = False
    tier: int = 0

    @staticmethod
    def lock_exclusive() -> "Edge":
        return Edge(EdgeKind.LOCK_EXCLUSIVE)

    @staticmethod
    def lock_shared() -> "Edge":
        return Edge(EdgeKind.LOCK_SHARED)

    @staticmethod
    def unlock_exclusive(dirty: bool) -> "Edge":
        return Edge(EdgeKind.UNLOCK_EXCLUSIVE, dirty=dirty)

    @staticmethod
    def unlock_shared() -> "Edge":
        return Edge(EdgeKind.UNLOCK_SHARED)

    @staticmethod
    def mark() -> "Edge":
        return Edge(EdgeKind.MARK)

    @staticmethod
    def unmark() -> "Edge":
        return Edge(EdgeKind.UNMARK)

    @staticmethod
    def evict() -> "Edge":
        return Edge(EdgeKind.EVICT)

    @staticmethod
    def set_tier(tier: int) -> "Edge":
        return Edge(EdgeKind.SET_TIER, tier=tier)

    @staticmethod
    def fault_in(tier: int) -> "Edge":
        return Edge(EdgeKind.FAULT_IN, tier=tier)


def transition(layout: StateLayout, word: int, edge: Edge) -> int | None:
    """Pure single-step transition; returns the successor word or None if refused.

    Legal edges:
      Unlocked -> LockedShared(1), LockedShared(k) -> LockedShared(k +/- 1),
      Unlocked/Marked -> Locked, Locked -> Unlocked (version +1 iff dirty),
      Unlocked -> Marked, Marked -> Unlocked (an access clears the clock's
      mark; version and tier kept), Locked -> Evicted (version +1, tier bits
      cleared),
      Locked -> Locked with new tier bits (version kept),
      Evicted -> Locked in a target tier (fault-in).
    Everything else is refused.
    """
    lock, tier, version = layout.unpack(word)
    k = edge.kind
    if k is EdgeKind.LOCK_SHARED:
        if lock == UNLOCKED:
            return layout.pack(SHARED_MIN, tier, version)
        if SHARED_MIN <= lock < SHARED_MAX:
            return layout.pack(lock + 1, tier, version)
        return None
    if k is EdgeKind.LOCK_EXCLUSIVE:
        if lock == UNLOCKED or lock == MARKED:
            return layout.pack(LOCKED, tier, version)
        return None
    if k is EdgeKind.UNLOCK_SHARED:
        if SHARED_MIN < lock <= SHARED_MAX:
            return layout.pack(lock - 1, tier, version)
        if lock == SHARED_MIN:
            return layout.pack(UNLOCKED, tier, version)
        return None
    if k is EdgeKind.UNLOCK_EXCLUSIVE:
        if lock == LOCKED:
            v = (version + 1) & layout.version_mask if edge.dirty else version
            return layout.pack(UNLOCKED, tier, v)
        return None
    if k is EdgeKind.MARK:
        if lock == UNLOCKED:
            return layout.pack(MARKED, tier, version)
        return None
    if k is EdgeKind.UNMARK:
        if lock == MARKED:
            return layout.pack(UNLOCKED, tier, version)
        return None
    if k is EdgeKind.EVICT:
        if lock == LOCKED:
            return layout.pack(EVICTED, 0, (version + 1) & layout.version_mask)
        return None
    if k is EdgeKind.SET_TIER:
        if not 0 <= edge.tier < layout.memory_tiers:
            return None
        if lock == LOCKED:
            return layout.pack(LOCKED, edge.tier, version)
        return None
    if k is EdgeKind.FAULT_IN:
        if not 0 <= edge.tier < layout.memory_tiers:
            return None
        if lock == EVICTED:
            return layout.pack(LOCKED, edge.tier, version)
        return None
    raise ValueError(f"unknown edge kind {edge.kind!r}")


class StateTable:
    """Shared array of state words, one per page slot, mutated only via CAS.

    Every slot starts Evicted (on disk, version 0), and `try_edge` is the
    one entry point that changes a word.
    CAS atomicity is provided by striped locks; plain reads go straight to the
    numpy array and are safe under the GIL.  With `trace=True` every successful
    CAS is appended to `trace_log` inside the critical section, so the per-slot
    subsequence of the log is the true linearization order for that slot.
    """

    STRIPES = 1024

    def __init__(self, slots: int, layout: StateLayout, trace: bool = False):
        self.layout = layout
        self.slots = slots
        self.words = np.full(slots, np.uint64(layout.pack(EVICTED, 0, 0)),
                             dtype=np.uint64)
        self._stripe_mask = self.STRIPES - 1
        self._stripes = [threading.Lock() for _ in range(self.STRIPES)]
        self.trace_log: list[tuple[int, int, int]] | None = [] if trace else None

    def load(self, slot: int) -> int:
        return int(self.words[slot])

    def compare_and_swap(self, slot: int, expected: int, new: int) -> bool:
        lock = self._stripes[slot & self._stripe_mask]
        with lock:
            if int(self.words[slot]) != expected:
                return False
            self.words[slot] = new
            if self.trace_log is not None:
                self.trace_log.append((slot, expected, new))
            return True

    def try_edge(self, slot: int, edge: Edge, word: int | None = None) -> bool:
        """One CAS of `edge` from `word` (default: the word loaded now).

        False means the edge is illegal from `word` or the slot no longer
        holds it; callers retry or give up.
        """
        if word is None:
            word = self.load(slot)
        new = transition(self.layout, word, edge)
        return new is not None and self.compare_and_swap(slot, word, new)

    def set_raw(self, slot: int, word: int) -> None:
        """Unconditional store, for initialization only (not a state-machine edge)."""
        lock = self._stripes[slot & self._stripe_mask]
        with lock:
            old = int(self.words[slot])
            self.words[slot] = word
            if self.trace_log is not None:
                self.trace_log.append((slot, old, word))
