"""Command-line entry point: `tierpool-bench run` and `tierpool-bench compare`.

Tier sizes accept either raw page counts ("16384") or byte sizes with a
K/M/G suffix ("64M"), converted using --page-size.  A remote size of 0
builds a two-tier pool (DRAM + disk) with no intermediate memory tier.
"""

from __future__ import annotations

import argparse
import sys

from .bench import CSV_COLUMNS, BenchConfig, compare, run
from .errors import ConfigError

_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size_pages(text: str, page_size: int) -> int:
    """'4096' -> 4096 pages; '64M' / '64MB' -> pages covering 64 MiB."""
    t = text.strip().lower().removesuffix("b")
    if t and t[-1] in _SUFFIX:
        try:
            nbytes = float(t[:-1]) * _SUFFIX[t[-1]]
        except ValueError:
            raise ConfigError(f"bad size {text!r}") from None
        return int(nbytes // page_size)
    try:
        return int(t)
    except ValueError:
        raise ConfigError(f"bad size {text!r}") from None


def parse_tiers(text: str, page_size: int) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--tiers wants LOCAL:REMOTE:DISK")
    local, remote, disk = (parse_size_pages(p, page_size) for p in parts)
    return local, remote, disk


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tiers", default="4096:8192:0",
                   help="LOCAL:REMOTE:DISK sizes, pages or K/M/G bytes "
                        "(DISK=0 sizes the disk to fit the dataset)")
    p.add_argument("--page-size", default="4096")
    p.add_argument("--workload", choices=["randomread", "mixedtxn"],
                   default="randomread")
    p.add_argument("--dataset", default="8192",
                   help="dataset size in leaf pages, or K/M/G bytes")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--duration", type=float, default=None,
                   help="run for this many seconds")
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many operations (deterministic)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--read-fraction", type=float, default=0.7)
    p.add_argument("--zipf", type=float, default=0.8)
    p.add_argument("--dr", type=float, default=1.0)
    p.add_argument("--dw", type=float, default=1.0)
    p.add_argument("--rr", type=float, default=1.0)
    p.add_argument("--rw", type=float, default=1.0)
    p.add_argument("--evict-batch", type=int, default=512)
    p.add_argument("--promote-batch", type=int, default=None)
    p.add_argument("--batch-cap", type=int, default=None,
                   help="nr_max_batched_migration (default 2x evict batch)")
    p.add_argument("--engine", choices=["mp2", "legacy", "mbind"],
                   default="mp2")
    p.add_argument("--cost-model", choices=["on", "off"], default="off")
    p.add_argument("--shootdown-ns", type=int, default=4_000)
    p.add_argument("--remote-read-ns", type=int, default=2_500)
    p.add_argument("--disk-read-ns", type=int, default=50_000)
    p.add_argument("--disk-write-ns", type=int, default=50_000)
    p.add_argument("--interval", type=float, default=1.0)
    p.add_argument("--csv", default=None, help="write metrics to this path")
    p.add_argument("--no-cold-start", action="store_true",
                   help="keep the freshly loaded dataset cached")


def _config_from(args: argparse.Namespace, suffix: str = "") -> BenchConfig:
    page_size = parse_size_pages(args.page_size, 1)

    def pick(name: str):
        if suffix and getattr(args, name + suffix, None) is not None:
            return getattr(args, name + suffix)
        return getattr(args, name)

    local, remote, disk = parse_tiers(pick("tiers"), page_size)
    ops = args.ops
    duration = args.duration
    if ops is None and duration is None:
        ops = 100_000
    return BenchConfig(
        local_pages=local, remote_pages=remote,
        disk_pages=disk if disk > 0 else None,
        page_size=page_size,
        workload=args.workload,
        dataset_pages=parse_size_pages(args.dataset, page_size),
        read_fraction=args.read_fraction, zipf_theta=args.zipf,
        threads=args.threads, duration_s=duration, total_ops=ops,
        seed=args.seed, cold_start=not args.no_cold_start,
        dr=args.dr, dw=args.dw, rr=args.rr, rw=args.rw,
        evict_batch=args.evict_batch, promote_batch=args.promote_batch,
        batch_cap=getattr(args, "batch_cap" + suffix, None) or args.batch_cap,
        engine=pick("engine"),
        cost_model_on=args.cost_model == "on",
        shootdown_ns=args.shootdown_ns,
        remote_read_ns=args.remote_read_ns,
        disk_read_ns=args.disk_read_ns, disk_write_ns=args.disk_write_ns,
        interval_s=args.interval,
        csv_path=args.csv if not suffix else None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tierpool-bench",
        description="n-tier buffer pool benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload")
    _add_run_flags(p_run)

    p_cmp = sub.add_parser("compare", help="run two configs, print ratios")
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--tiers-b", dest="tiers_b", default=None,
                       help="tier sizes for run B (default: same as A)")
    p_cmp.add_argument("--engine-b", dest="engine_b", default=None,
                       choices=["mp2", "legacy", "mbind"])
    p_cmp.add_argument("--batch-cap-b", dest="batch_cap_b", type=int,
                       default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run(_config_from(args))
            _print_report(report)
        else:
            summary = compare(_config_from(args), _config_from(args, "_b"),
                              csv_path=args.csv)
            print(summary.table())
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _print_report(report) -> None:
    print(",".join(CSV_COLUMNS))
    for row in report.rows:
        print(",".join(str(x) for x in row))
    print(f"# {report.label}: {report.total_ops} ops in "
          f"{report.elapsed_s:.2f}s = {report.ops_per_s:.0f} ops/s")


if __name__ == "__main__":
    raise SystemExit(main())
