"""Run one tierpool benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hot-lookup --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the checkout this file sits in.  A
run builds a fresh pool and tree `SETUPS` times (the `setup_s` samples); the
last of them, as many as the workload has episodes, each run closed-loop
clients for their share of `--seconds`, timing and checking every
operation.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it installs spans on every layer and prints the per-layer
metrics instead.  The last line of standard output is one JSON
object; a record of the run goes to `perfbench/out/`.  The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 10


def _import_program() -> None:
    """Put the checkout's own sources first, and refuse to run without them."""
    src = ROOT / "src"
    if not (src / "tierpool" / "__init__.py").is_file():
        sys.exit(f"error: {src} holds no tierpool sources")
    sys.path.insert(0, str(src))
    import tierpool
    if Path(tierpool.__file__).resolve().parent != (src / "tierpool").resolve():
        sys.exit(f"error: imported tierpool from {tierpool.__file__}, not {src}")


def _percentile(sorted_ns, q: float) -> float:
    """Nearest-rank percentile in microseconds."""
    rank = max(1, -(-len(sorted_ns) * q // 100))
    return sorted_ns[int(rank) - 1] / 1000.0


class Window:
    """Snapshots the tracer once the first `ops` operations have returned,
    so a traced run's counts cover the same operations whatever its length."""

    def __init__(self, ops: int, tracer, registry):
        self.ops = ops
        self.done = itertools.count(1)  # next() is atomic under the GIL
        self.tracer = tracer
        self.registry = registry
        self.reg0 = registry.total()
        self.snap = None
        self.reg = None

    def tick(self) -> None:
        if next(self.done) == self.ops:
            self.take()

    def take(self, ops: int | None = None) -> None:
        """Snapshot now; `ops` is the number returned, when short of the window."""
        from spans import totals
        self.tracer.recording = False
        self.snap = totals([self.tracer])
        reg = self.registry.total()
        self.reg = {k: v - self.reg0.get(k, 0) for k, v in reg.items()}
        if ops is not None:
            self.ops = ops


class Tally:
    """Attempted and raised operations per type, and latencies of the timed ones."""

    def __init__(self):
        from workloads import OP_KINDS
        self.attempted = {k: 0 for k in OP_KINDS}
        self.raised = {k: 0 for k in OP_KINDS}
        self.errors: list[str] = []
        self.lat = {k: array("q") for k in OP_KINDS}


def run_clients(w, tree, data, checker, streams, tally, seconds=None, ops=None,
                window=None) -> float:
    """Run every client until `seconds` have passed (checked between rounds)
    or, when warming up, for `ops` operations each; returns the elapsed
    seconds.  Latencies are kept only for a timed run."""
    from checks import update_version
    from workloads import LOOKUP, SCAN, SCAN_KEYS, make_value

    errors = tally.errors
    lat = tally.lat if seconds is not None else None
    crashed: list[BaseException] = []
    ends: list[int] = []
    lock = threading.Lock()
    perf = time.perf_counter_ns
    start = perf()
    deadline = start + int(seconds * 1e9) if seconds is not None else None

    def client(c: int) -> None:
        stream = streams[c]
        tick = window.tick if window is not None else None
        seq = stream.client_seq
        done = 0
        attempted = dict.fromkeys(tally.attempted, 0)
        raised = dict.fromkeys(tally.raised, 0)
        try:
            while True:
                for kind, idx, absent in stream.next_round():
                    attempted[kind] += 1
                    if kind == LOOKUP:
                        key = data.absent[idx] if absent else data.keys[idx]
                    else:
                        key = data.keys[idx]
                        if kind != SCAN:
                            seq += 1
                            version = update_version(c, seq)
                            value = make_value(key, version)
                    t0 = perf()
                    try:
                        if kind == LOOKUP:
                            out = tree.lookup(key)
                        elif kind == SCAN:
                            out = tree.scan(key, SCAN_KEYS)
                        else:
                            tree.insert(key, value)
                    except Exception as e:  # counted per op type, run goes on
                        raised[kind] += 1
                        if len(errors) < 10:
                            errors.append(f"{kind}: {e!r}")
                        continue
                    if lat is not None:
                        lat[kind].append(perf() - t0)
                    if kind == LOOKUP:
                        checker.lookup(c, idx, absent, out)
                    elif kind == SCAN:
                        checker.scan(c, idx, out)
                    else:
                        checker.updated(c, idx, version)
                    if tick is not None:
                        tick()
                done += w.round_ops
                if deadline is not None and perf() >= deadline:
                    break
                if ops is not None and done >= ops:
                    break
        except BaseException as e:
            crashed.append(e)
        finally:
            stream.client_seq = seq
            ends.append(perf())
            with lock:
                for k in attempted:
                    tally.attempted[k] += attempted[k]
                    tally.raised[k] += raised[k]

    if w.clients == 1:
        client(0)  # the thread that loaded the tree, so pool RNG draws repeat
    else:
        from workloads import SWITCH_INTERVAL_S
        default = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(w.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(default)
    if crashed:
        raise crashed[0]
    return (max(ends) - start) / 1e9


def end_to_end(w, setup_times, lat, elapsed) -> dict:
    from workloads import LOOKUP, SCAN, UPDATE
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ops_per_s": (sum(len(v) for v in lat.values()) / elapsed, "ops/s"),
    }
    for kind in (LOOKUP, UPDATE, SCAN):
        ns = sorted(lat[kind])
        if ns:
            m[f"{kind}_p50_us"] = (_percentile(ns, 50), "us")
            m[f"{kind}_p99_us"] = (_percentile(ns, 99), "us")
    return m


def per_layer(tracers, window, ops: int, pages_allocated: float) -> dict:
    """Times cover every episode; counts cover the window of episode 0."""
    from spans import LAYERS, totals
    tracer = tracers[0]
    names = tracer.names
    end = totals(tracers)
    snap = window.snap
    c = snap["counts"]
    wops = window.ops
    reg = window.reg

    def calls(name, t=snap):
        return t["calls"][names.index(name)]

    def per_call_us(name):
        n = calls(name, end)
        return end["incl_ns"][names.index(name)] / n / 1000 if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for li, layer in enumerate(LAYERS):
        self_ns = sum(v for i, v in enumerate(end["self_ns"]) if tracer.layer_of[i] == li)
        m[f"{layer}.self_us_per_op"] = (self_ns / ops / 1000, "us/op")
    mig_names = ("migration.move_pages2", "migration.move_pages_legacy",
                 "migration.mbind_single")
    mig_ns = sum(end["incl_ns"][names.index(n)] for n in mig_names)
    mig_pages = sum(t.reg.get("migrated_pages", 0) for t in tracers)
    accesses = reg.get("fixes", 0) + reg.get("optimistic_reads", 0)
    m.update({
        "btree.pages_read_per_op": (c.get("btree_pages_read", 0) / wops, "count/op"),
        "btree.pages_allocated": (pages_allocated, "count"),
        "pool.faults_per_op": (reg.get("faults", 0) / wops, "count/op"),
        "pool.inner_faults_per_op": (c.get("inner_faults", 0) / wops, "count/op"),
        "pool.dram_hit_ratio": (ratio(reg.get("hits_t0", 0), accesses), "ratio"),
        "pool.optimistic_retries_per_op": (reg.get("optimistic_retries", 0) / wops, "count/op"),
        "pool.promoted_pages_per_op": (reg.get("promoted_pages", 0) / wops, "count/op"),
        "pool.demoted_pages_per_op": (reg.get("demoted_pages", 0) / wops, "count/op"),
        "pool.evicted_to_disk_per_op": (reg.get("evicted_to_disk", 0) / wops, "count/op"),
        "pool.evict_batch_us_per_call": (per_call_us("pool.evict_batch"), "us/call"),
        "pool.promote_batch_us_per_call": (per_call_us("pool.promote_batch"), "us/call"),
        "migration.calls_per_op": ((reg.get("migration_calls", 0) + reg.get("mbind_calls", 0))
                                   / wops, "count/op"),
        "migration.pages_per_op": (reg.get("migrated_pages", 0) / wops, "count/op"),
        "migration.shootdowns_per_op": (reg.get("shootdowns", 0) / wops, "count/op"),
        "migration.us_per_page": (ratio(mig_ns, mig_pages) / 1000, "us/page"),
        "resident_set.visits_per_op": (calls("pool.visit") / wops, "count/op"),
        "resident_set.take_ratio": (ratio(c.get("sweep_taken", 0), calls("pool.visit")), "ratio"),
        "resident_set.updates_per_op": (c.get("resident_updates", 0) / wops, "count/op"),
        "backend.disk_reads_per_op": (reg.get("disk_reads", 0) / wops, "count/op"),
        "backend.disk_writes_per_op": (reg.get("disk_writes", 0) / wops, "count/op"),
        "backend.frame_moves_per_op": (c.get("frame_moves", 0) / wops, "count/op"),
        "backend.bytes_copied_per_op": (reg.get("bytes_copied", 0) / wops, "bytes/op"),
        "state_word.cas_per_op": (c.get("cas", 0) / wops, "count/op"),
        "state_word.cas_applied_ratio": (ratio(c.get("cas_applied", 0), c.get("cas", 0)), "ratio"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import numpy
    from checks import Checker, pages_in_use, pool_problems
    from spans import Tracer
    from workloads import OP_KINDS, WORKLOADS, Dataset, OpStream, build

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    data = Dataset(w.n_keys, args.seed)

    # A run builds a fresh pool and tree SETUPS times (the `setup_s`
    # samples); the last `w.episodes` of them each run their own op streams
    # for seconds / w.episodes.  Several short trajectories keep one Zipf hot
    # set from deciding a zipf-mixed run.  tiered-lookup runs one trajectory
    # for the whole run, so its figures include how the pool drifts under
    # load (resident-set tombstones, growing migration per lookup).
    setup_times: list[float] = []
    tally = Tally()
    tracers = []
    window = None
    elapsed = 0.0
    problems: list[str] = []
    n_problems = 0
    allocated = []
    for i in range(SETUPS):
        pool = tree = None
        gc.collect()
        t0 = time.perf_counter()
        pool, tree = build(w, data, args.seed)
        setup_times.append(time.perf_counter() - t0)
        episode = i - (SETUPS - w.episodes)
        if episode < 0:
            continue  # a set-up sample only
        allocated0 = pages_in_use(pool)
        checker = Checker(w, data)
        streams = [OpStream(w, args.seed, c, episode) for c in range(w.clients)]
        if w.warmup_ops:
            run_clients(w, tree, data, checker, streams, tally, ops=w.warmup_ops)
        if args.trace:
            tracers.append(Tracer(pool, tree, record=episode == 0))
            if episode == 0:
                window = Window(w.window_ops, tracers[0], pool.registry)
        ops_before = sum(len(v) for v in tally.lat.values())
        elapsed += run_clients(w, tree, data, checker, streams, tally,
                               seconds=args.seconds / w.episodes,
                               window=window if episode == 0 else None)
        if tracers:
            if window.snap is None:
                window.take(sum(len(v) for v in tally.lat.values()) - ops_before)
            tracers[-1].uninstall()
        # A full scan against the oracle after every episode that wrote, and
        # once at the end of a read-only run whose tree fits in DRAM.  Under
        # the tiered default policy a full scan would migrate millions of
        # pages; nothing writes there and every lookup was checked.
        if w.update_share or (i == SETUPS - 1 and w.memory_tiers[0] >= w.leaves):
            checker.final_scan(tree)
        found = pool_problems(pool)
        problems += [f"episode {episode}: {p}" for p in checker.problems + found]
        n_problems += checker.n_problems + len(found)
        allocated.append(pages_in_use(pool) - allocated0)
    attempted, raised, errors, lat = tally.attempted, tally.raised, tally.errors, tally.lat
    ops = sum(len(v) for v in lat.values())

    e2e = end_to_end(w, setup_times, lat, elapsed)
    layers = per_layer(tracers, window, ops, statistics.mean(allocated)) if tracers else {}
    e2e_keys = ("setup_s", "peak_rss_mib", "ops_per_s", "lookup_p50_us", "lookup_p99_us")
    metrics = layers if tracers else {k: e2e[k] for k in e2e_keys}

    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "tiers": {"memory_frames": list(w.memory_tiers), "disk_pages": w.disk_pages,
                  "page_size": pool.topology.page_size_bytes},
        "policy": {k: v if isinstance(v, (int, float, str)) else str(v)
                   for k, v in vars(pool.policy).items()},
        "dataset": {"leaves": w.leaves, "keys": w.n_keys, "clients": w.clients,
                    "update_share": w.update_share, "scan_share": w.scan_share,
                    "absent_share": w.absent_share, "zipf_theta": w.zipf_theta},
        "machine": {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "ops": {k: {"attempted": attempted[k], "raised": raised[k],
                    "samples": len(lat[k])} for k in OP_KINDS},
        "setups": SETUPS, "episodes": w.episodes, "elapsed_s": elapsed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "errors": errors, "problems": problems,
    }
    if tracers:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["window_ops"] = window.ops
        record["spans_recorded"] = tracers[0].write_spans(str(OUT / f"{w.name}-seed{args.seed}-spans.npz"))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"clients {w.clients}  {elapsed:.1f} s")
    for k in OP_KINDS:
        if attempted[k]:
            print(f"ops {k:<7} attempted {attempted[k]:>9}  raised {raised[k]}")
    for k, (v, u) in (e2e | layers).items():
        print(f"{k:<34} {v:>14.4f} {u}")
    for p in problems + errors:
        print(f"problem: {p}", file=sys.stderr)
    correct = n_problems == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sum(attempted.values()),
        "failed": sum(raised.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
