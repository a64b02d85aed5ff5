"""Packed 64-bit page-state words and the tier-aware lock state machine.

Every page slot owns one 64-bit word:

    bits 63..56   lock state byte (unlocked / shared count / locked / marked / evicted)
    next bits     memory-tier index, ceil(log2(m)) bits for m memory tiers
    low bits      version counter (bumped on dirty unlock, migration and evict)

All mutation goes through compare-and-swap on the word, so a page can be
locked, marked, migrated, and evicted by racing threads without any page-level
mutex.  The legal edges are written once, in the rule table `_EDGES`;
:meth:`StateTable.try_edge` (the one way to change a word) and the pure
:func:`transition` both apply it.
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

    `_rule` caches the edge's integer rules (`_compile` of its `_EDGES`
    entry) for the tier count of the last `StateTable` that applied it; it
    is not part of the edge's value.
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


_LOW56 = (1 << 56) - 1

_EDGES = {
    EdgeKind.LOCK_SHARED: ({b: b + 1 for b in range(UNLOCKED, SHARED_MAX)}, "keep"),
    EdgeKind.UNLOCK_SHARED: ({b: b - 1 for b in range(SHARED_MIN, SHARED_MAX + 1)}, "keep"),
    EdgeKind.LOCK_EXCLUSIVE: ({UNLOCKED: LOCKED, MARKED: LOCKED}, "keep"),
    EdgeKind.UNLOCK_EXCLUSIVE: ({LOCKED: UNLOCKED}, "bump"),
    EdgeKind.MARK: ({UNLOCKED: MARKED}, "keep"),
    EdgeKind.UNMARK: ({MARKED: UNLOCKED}, "keep"),
    EdgeKind.EVICT: ({LOCKED: EVICTED}, "evict"),
    EdgeKind.SET_TIER: ({LOCKED: LOCKED}, "move"),
    EdgeKind.FAULT_IN: ({EVICTED: LOCKED}, "tier"),
}
"""The page state machine, per edge kind: {lock byte: successor lock byte}
and the update to the tier and version bits.  The legal edges are
Unlocked -> LockedShared(1), LockedShared(k) -> LockedShared(k +/- 1),
LockedShared(1) -> Unlocked, Unlocked/Marked -> Locked, Locked -> Unlocked,
Unlocked -> Marked, Marked -> Unlocked (an access clears the clock's mark),
Locked -> Evicted, Locked -> Locked in a new tier (migration) and
Evicted -> Locked in a target tier (fault-in); everything else is refused.
"keep" keeps tier and version, "bump" adds 1 to the version with wrap on a
dirty unlock only, "evict" clears the tier and adds 1 to the version,
"move" sets the tier bits to `edge.tier` and adds 1 to the version, and
"tier" sets the tier bits and keeps the version; "move" and "tier" refuse
a tier the layout lacks, from every word.

The version is the one witness of a page move.  A page's frame changes
only while its word is Locked, and each such change ends with an edge that
bumps the version: SET_TIER after a migration, EVICT after a drop to disk.
FAULT_IN may keep the version because it always follows an EVICT.  So a
word whose lock byte is neither Locked nor Evicted and whose version is
unchanged vouches for the placement read in between.
"""


@functools.cache
def _compile(memory_tiers: int, edge: Edge) -> tuple:
    """`edge` as integer rules for `memory_tiers` tiers, built from `_EDGES`.

    Returns (memory_tiers, tops, keep, bump, put).  `tops[b]` is the
    successor lock byte of lock byte b shifted into place, or None where the
    edge is refused.  The successor of an accepted word is
    `tops[b] | (word & keep) | put`, plus the version +1 with wrap when
    `bump`.
    """
    layout = StateLayout(memory_tiers)
    moves, update = _EDGES[edge.kind]
    if update in ("move", "tier") and not 0 <= edge.tier < memory_tiers:
        moves, update = {}, "keep"
    elif update == "bump" and not edge.dirty:
        update = "keep"
    keep, bump, put = {
        "keep": (_LOW56, False, 0),
        "bump": (layout.tier_mask, True, 0),
        "evict": (0, True, 0),
        "move": (0, True, edge.tier << layout.tier_shift),
        "tier": (layout.version_mask, False, edge.tier << layout.tier_shift),
    }[update]
    tops = tuple(moves[b] << 56 if b in moves else None for b in range(256))
    return memory_tiers, tops, keep, bump, put


def transition(layout: StateLayout, word: int, edge: Edge) -> int | None:
    """Pure single-step transition: the successor word, or None if refused.

    Applies the same rules as `StateTable.try_edge`, without the CAS.
    """
    _, tops, keep, bump, put = _compile(layout.memory_tiers, edge)
    top = tops[(word >> 56) & 0xFF]
    if top is None:
        return None
    new = top | (word & keep) | put
    if bump:
        new |= (word + 1) & layout.version_mask
    return new


def _rule(memory_tiers: int, edge: Edge) -> tuple:
    """The rules of `edge`, kept on the edge object for its next CAS."""
    rule = _compile(memory_tiers, edge)
    object.__setattr__(edge, "_rule", rule)
    return rule


class StateTable:
    """Shared list of state words, one per page slot, mutated only via CAS.

    Every slot starts Evicted (on disk, version 0), and `try_edge` is the
    one entry point that changes a word; it applies each edge's integer
    rules, compiled from `_EDGES`.
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
