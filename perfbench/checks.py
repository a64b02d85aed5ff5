"""Result checks against values computed apart from the program, and the
properties a quiescent pool must have after a run."""

from __future__ import annotations

from tierpool.state_word import EVICTED, LOCKED, SHARED_MAX, SHARED_MIN

from workloads import SCAN_KEYS, Dataset, Workload, make_value, value_version

_KEEP = 10  # problem messages kept for the report


def update_version(client: int, seq: int) -> int:
    """Versions a client writes carry its number; 0 is the loaded value."""
    return ((client + 1) << 40) | seq


class Checker:
    """Checks every result as it returns, and the tree after the run.

    In `zipf-mixed` each key has exactly one updating client (the one of
    its index's parity), so the per-client dictionaries of written versions
    are an exact oracle for that client's own reads and for the final scan.
    """

    def __init__(self, workload: Workload, data: Dataset):
        self.w = workload
        self.data = data
        self.written = [dict() for _ in range(workload.clients)]
        self.problems: list[str] = []
        self.n_problems = 0

    def fail(self, msg: str) -> None:
        self.n_problems += 1
        if len(self.problems) < _KEEP:
            self.problems.append(msg)

    def _value(self, client: int, idx: int, value, what: str) -> None:
        key = self.data.keys[idx]
        version = value_version(key, value)
        if version is None:
            self.fail(f"{what}: key {key.hex()} returned {value!r:.60}")
            return
        owner = idx % self.w.clients
        if version and (version >> 40) - 1 != owner:
            self.fail(f"{what}: key {key.hex()} holds version {version:#x} "
                      f"of a client that never updates it")
        elif owner == client and version != self.written[client].get(idx, 0):
            self.fail(f"{what}: key {key.hex()} holds version {version:#x}, "
                      f"expected {self.written[client].get(idx, 0):#x}")

    def lookup(self, client: int, idx: int, absent: bool, value) -> None:
        if absent:
            if value is not None:
                self.fail(f"lookup of absent key {self.data.absent[idx].hex()} "
                          f"returned {value!r:.60}")
            return
        self._value(client, idx, value, "lookup")

    def updated(self, client: int, idx: int, version: int) -> None:
        self.written[client][idx] = version

    def scan(self, client: int, idx: int, pairs) -> None:
        want = self.data.keys[idx:idx + SCAN_KEYS]
        keys = [k for k, _ in pairs]
        if keys != want:
            self.fail(f"scan from {want[0].hex()} returned {len(keys)} keys that "
                      f"are not the next {len(want)} generated keys")
            return
        for j, (_, v) in enumerate(pairs):
            self._value(client, idx + j, v, "scan")

    def final_scan(self, tree) -> None:
        """A full scan must equal the loaded values overlaid by every write."""
        keys = self.data.keys
        pairs = tree.scan(b"\x00", len(keys) + 1)
        if [k for k, _ in pairs] != keys:
            self.fail(f"full scan returned {len(pairs)} keys, not the "
                      f"{len(keys)} loaded ones")
            return
        latest: dict[int, int] = {}
        for written in self.written:
            latest.update(written)
        for idx, (key, value) in enumerate(pairs):
            if value != make_value(key, latest.get(idx, 0)):
                self.fail(f"full scan: key {key.hex()} holds {value!r:.60}")


def pool_problems(pool) -> list[str]:
    """Properties the pool's design must have once every client has returned."""
    out = []
    locks = [pool.page_state(pid)[0] for pid in range(pool.topology.slots)]
    held = [pid for pid, b in enumerate(locks)
            if b == LOCKED or SHARED_MIN <= b <= SHARED_MAX]
    if held:
        out.append(f"{len(held)} pages left Locked or LockedShared, e.g. {held[:5]}")
    for tier, spec in enumerate(pool.topology.memory_tiers):
        used = pool.backend.occupancy(tier)
        listed = len(pool.resident[tier])
        if max(used, listed) > spec.capacity_pages:
            out.append(f"tier {tier} holds {used} frames / {listed} resident "
                       f"pages, capacity {spec.capacity_pages}")
    stats = pool.stats()
    optimistic = pool.registry.total().get("optimistic_reads", 0)
    if sum(stats.hits) + stats.faults != stats.fixes + optimistic:
        out.append(f"hits {sum(stats.hits)} + faults {stats.faults} != fixes "
                   f"{stats.fixes} + optimistic reads {optimistic}")
    if stats.migrated_pages != stats.promotions + stats.demotions:
        out.append(f"migrated pages {stats.migrated_pages} != promotions "
                   f"{stats.promotions} + demotions {stats.demotions}")
    return out


def pages_in_use(pool) -> int:
    """Slots that ever held a page: every other slot is still Evicted at
    version 0, the state a fresh pool gives all of them."""
    return sum(1 for pid in range(pool.topology.slots)
               if pool.page_state(pid) != (EVICTED, 0, 0))
