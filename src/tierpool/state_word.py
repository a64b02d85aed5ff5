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

import functools
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
    """One requested transition; `dirty` and `tier` only apply to some kinds.

    `_rule` caches the edge's integer rules (see `_compile`) for the tier
    count of the last `StateTable` that applied it; it is not part of the
    edge's value.
    """

    kind: EdgeKind
    dirty: bool = False
    tier: int = 0

    _rule = (0, (), 0, False, 0)  # memory_tiers 0 matches no layout

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


_LOW56 = (1 << 56) - 1


@functools.cache
def _compile(memory_tiers: int, edge: Edge) -> tuple:
    """`edge` as integer rules for `memory_tiers` tiers, derived from
    `transition`.

    Returns (memory_tiers, tops, keep, bump, put).  `tops[b]` is the
    successor lock byte of lock byte b shifted into place, or None where the
    edge is refused.  The successor of an accepted word is
    `tops[b] | (word & keep) | put`, plus the version +1 with wrap when
    `bump`.  That covers the four word updates the state machine makes: keep
    tier and version, version +1, evict (tier cleared, version +1), and set
    the tier bits.  Raises if `transition` does something else.
    """
    layout = StateLayout(memory_tiers)
    vmask = layout.version_mask
    forms = [(_LOW56, False, 0), (layout.tier_mask, True, 0), (0, True, 0)]
    if 0 <= edge.tier < memory_tiers:
        forms.append((vmask, False, edge.tier << layout.tier_shift))
    probes = [(t, v) for t in sorted({0, memory_tiers - 1}) for v in (0, 1, vmask)]
    tops: list[int | None] = []
    pairs = []  # (word, successor) for every accepted probe
    for b in range(256):
        results = [(w, transition(layout, w, edge))
                   for w in (layout.pack(b, t, v) for t, v in probes)]
        accepted = [r for r in results if r[1] is not None]
        if accepted and len(accepted) != len(results):
            raise ValueError(f"{edge} from lock byte {b} depends on tier or version")
        tops.append(accepted[0][1] & ~_LOW56 if accepted else None)
        pairs += accepted
    for keep, bump, put in forms:
        if all(new == tops[w >> 56] | (w & keep) | put
               | (((w + 1) & vmask) if bump else 0) for w, new in pairs):
            return memory_tiers, tuple(tops), keep, bump, put
    raise ValueError(f"{edge} makes a word update the rules cannot express")


def _rule(memory_tiers: int, edge: Edge) -> tuple:
    """The rules of `edge`, kept on the edge object for its next CAS."""
    rule = _compile(memory_tiers, edge)
    object.__setattr__(edge, "_rule", rule)
    return rule


class StateTable:
    """Shared list of state words, one per page slot, mutated only via CAS.

    Every slot starts Evicted (on disk, version 0), and `try_edge` is the
    one entry point that changes a word; it applies each edge's integer
    rules, which `transition` specifies.
    CAS atomicity is provided by striped locks; plain reads go straight to the
    list of ints and are safe under the GIL.  With `trace=True` every successful
    CAS is appended to `trace_log` inside the critical section, so the per-slot
    subsequence of the log is the true linearization order for that slot.
    """

    STRIPES = 1024

    def __init__(self, slots: int, layout: StateLayout, trace: bool = False):
        self.layout = layout
        self.slots = slots
        self.words = [layout.pack(EVICTED, 0, 0)] * slots
        self._m = layout.memory_tiers
        self._vmask = layout.version_mask
        self._stripe_mask = self.STRIPES - 1
        self._stripes = [threading.Lock() for _ in range(self.STRIPES)]
        self.trace_log: list[tuple[int, int, int]] | None = [] if trace else None

    def load(self, slot: int) -> int:
        return self.words[slot]

    def compare_and_swap(self, slot: int, expected: int, new: int) -> bool:
        lock = self._stripes[slot & self._stripe_mask]
        with lock:
            if self.words[slot] != expected:
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
            word = self.words[slot]
        m, tops, keep, bump, put = edge._rule
        if m != self._m:
            m, tops, keep, bump, put = _rule(self._m, edge)
        top = tops[(word >> 56) & 0xFF]
        if top is None:
            return False
        new = top | (word & keep) | put
        if bump:
            new |= (word + 1) & self._vmask
        return self.compare_and_swap(slot, word, new)

    def set_raw(self, slot: int, word: int) -> None:
        """Unconditional store, for initialization only (not a state-machine edge)."""
        lock = self._stripes[slot & self._stripe_mask]
        with lock:
            old = self.words[slot]
            self.words[slot] = word
            if self.trace_log is not None:
                self.trace_log.append((slot, old, word))
