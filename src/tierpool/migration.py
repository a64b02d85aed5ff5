"""Batched inter-tier page migration with selectable failure semantics.

Three entry points over the backend's single-page `retarget_frame`:

* `move_pages2`   -- optimistic batching: consecutive pages sharing a target
                     tier form a round; rounds are flushed in chunks of at most
                     `nr_max_batched_migration` pages, one TLB-shootdown charge
                     per chunk; per-page failures are recorded and scanning
                     continues with a fresh round.
* `move_pages_legacy` -- same grouping, but the first per-page error flushes
                     what was accumulated, marks every later page skipped, and
                     returns (abort-on-failure).
* `mbind_single`  -- one page per call, one shootdown charge per call.

Callers must already hold every involved page exclusively; the engine is
reentrant for disjoint page sets and takes no global lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .backend import TierBackend
from .errors import ConfigError, IllegalState, TierFull
from .stats import StatsRegistry

# Per-page status codes: the target tier id on success, else a small negative.
ERR_ACCESS = -1
ERR_INVALID_TARGET = -2
ERR_BUSY = -3
ERR_TIER_FULL = -4
ERR_SKIPPED = -5

DEFAULT_BATCH_CAP = 512
SYNC_RETRY_LIMIT = 3  # attempts a Sync migration makes on a busy page


class MigrationMode(Enum):
    ASYNC = "async"
    SYNC = "sync"
    SYNC_LIGHT = "synclight"


@dataclass
class MigrationRequest:
    pages: list[int]
    target_tiers: list[int]
    mode: MigrationMode = MigrationMode.SYNC
    nr_max_batched_migration: int = DEFAULT_BATCH_CAP

    def validate(self) -> None:
        if len(self.pages) != len(self.target_tiers):
            raise ConfigError("pages and target_tiers must have equal length")
        if len(set(self.pages)) != len(self.pages):
            raise ConfigError("duplicate page ids in migration request")
        if self.nr_max_batched_migration < 1:
            raise ConfigError("nr_max_batched_migration must be >= 1")


@dataclass
class MigrationOutcome:
    status: list[int]
    rounds: int
    shootdowns: int
    migrated: int
    failed: int


@dataclass
class InjectRule:
    """One injected fault.  kind: access | invalid_target | busy | writeback.

    `times=None` fires forever; an integer fires that many times then clears,
    which models transient page-busy conditions.
    """

    kind: str
    times: int | None = None


@dataclass
class FailureInjector:
    rules: dict[int, InjectRule] = field(default_factory=dict)

    _QUEUE_KINDS = ("access", "invalid_target")
    _MIGRATE_KINDS = ("busy", "writeback")

    def check(self, pid: int, phase: str) -> str | None:
        rule = self.rules.get(pid)
        if rule is None:
            return None
        phase_kinds = self._QUEUE_KINDS if phase == "queue" else self._MIGRATE_KINDS
        if rule.kind not in phase_kinds:
            return None
        if rule.times is not None:
            if rule.times <= 0:
                return None
            rule.times -= 1
        return rule.kind


class MigrationEngine:
    def __init__(self, backend: TierBackend, registry: StatsRegistry | None = None):
        self.backend = backend
        self.cost = backend.cost
        self.registry = registry or backend.registry

    # -- public entry points --------------------------------------------

    def move_pages2(self, req: MigrationRequest,
                    injector: FailureInjector | None = None) -> MigrationOutcome:
        req.validate()
        return self._scan(req.pages, req.target_tiers, req.mode,
                          req.nr_max_batched_migration, injector,
                          abort_on_failure=False)

    def move_pages_legacy(self, req: MigrationRequest,
                          injector: FailureInjector | None = None) -> MigrationOutcome:
        """Abort-on-failure semantics; batch cap pinned at 512, mode Sync."""
        req.validate()
        return self._scan(req.pages, req.target_tiers, MigrationMode.SYNC,
                          DEFAULT_BATCH_CAP, injector, abort_on_failure=True)

    def mbind_single(self, pid: int, target: int,
                     injector: FailureInjector | None = None) -> int:
        """Migrate one page; every call pays a full shootdown charge."""
        with self.registry.timed("t_migration_ns"):
            self.registry.bump("mbind_calls")
            self.registry.bump("shootdowns")
            self.cost.charge_shootdown()
            err = self._queue_error(pid, target, injector)
            if err:
                return err
            code = self._migrate_one(pid, target, MigrationMode.SYNC, injector)
            if code >= 0:
                self.registry.bump("migrated_pages")
            return code

    # -- scanner ---------------------------------------------------------

    def _scan(self, pages: list[int], targets: list[int], mode: MigrationMode,
              cap: int, injector: FailureInjector | None,
              abort_on_failure: bool) -> MigrationOutcome:
        n = len(pages)
        status: list[int | None] = [None] * n
        rounds = 0
        shootdowns = 0
        migrated = 0
        failed = 0
        chunk: list[int] = []
        current_target: int | None = None
        flushed_in_round = 0

        def flush_chunk() -> bool:
            """Migrate the accumulated chunk; True if any page in it failed.

            When aborting on failure the flush stops at the first bad page,
            so the legacy count comes out as floor(k/cap)*cap + k mod cap:
            exactly the pages accumulated ahead of the failure.
            """
            nonlocal shootdowns, migrated, failed, flushed_in_round
            if not chunk:
                return False
            shootdowns += 1
            self.registry.bump("shootdowns")
            self.cost.charge_shootdown()
            had_failure = False
            for i in chunk:
                code = self._migrate_one(pages[i], targets[i], mode, injector)
                status[i] = code
                flushed_in_round += 1
                if code >= 0:
                    migrated += 1
                else:
                    failed += 1
                    had_failure = True
                    if abort_on_failure:
                        break
            chunk.clear()
            return had_failure

        def end_round() -> bool:
            nonlocal rounds, flushed_in_round, current_target
            had_failure = flush_chunk()
            if flushed_in_round:
                rounds += 1
            flushed_in_round = 0
            current_target = None
            return had_failure

        with self.registry.timed("t_migration_ns"):
            self.registry.bump("migration_calls")
            aborted = False
            for i in range(n):
                qerr = self._queue_error(pages[i], targets[i], injector)
                if qerr:
                    # Error while queueing: record it, flush what we have,
                    # then either continue with a fresh round or abort.
                    status[i] = qerr
                    failed += 1
                    end_round()
                    if abort_on_failure:
                        aborted = True
                        break
                    continue
                if current_target is None:
                    current_target = targets[i]
                elif targets[i] != current_target:
                    if end_round() and abort_on_failure:
                        aborted = True
                        break
                    current_target = targets[i]
                chunk.append(i)
                if len(chunk) >= cap:
                    if flush_chunk() and abort_on_failure:
                        aborted = True
                        break
            if not aborted:
                end_round()
            for j in range(n):
                if status[j] is None:
                    status[j] = ERR_SKIPPED
                    failed += 1
        self.registry.bump("migrated_pages", migrated)
        return MigrationOutcome(status=status, rounds=rounds, shootdowns=shootdowns,
                                migrated=migrated, failed=failed)

    # -- per-page steps --------------------------------------------------

    def _queue_error(self, pid: int, target: int,
                     injector: FailureInjector | None) -> int:
        if not 0 <= target < len(self.backend.pools):
            return ERR_INVALID_TARGET
        kind = injector.check(pid, "queue") if injector else None
        if kind == "access":
            return ERR_ACCESS
        if kind == "invalid_target":
            return ERR_INVALID_TARGET
        return 0

    def _migrate_one(self, pid: int, target: int, mode: MigrationMode,
                     injector: FailureInjector | None) -> int:
        attempts = 0
        while True:
            kind = injector.check(pid, "migrate") if injector else None
            if kind is None:
                break
            attempts += 1
            if (mode is MigrationMode.ASYNC
                    or (mode is MigrationMode.SYNC_LIGHT and kind == "writeback")
                    or attempts >= SYNC_RETRY_LIMIT):
                return ERR_BUSY
            # Sync path: bounded retry, no backoff.
        try:
            src = self.backend.retarget_frame(pid, target)
            if src != target:
                self.cost.charge(self.cost.page_copy_ns(src, target, self.backend.page_size))
            return target
        except TierFull:
            return ERR_TIER_FULL
        except IllegalState:
            return ERR_ACCESS
