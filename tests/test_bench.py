"""Benchmark harness: key generation, sampling, reports, CLI plumbing."""

import csv
import random

import numpy as np
import pytest

from tierpool import bench
from tierpool.bench import (CSV_COLUMNS, BenchConfig, ZipfSampler, compare,
                            make_keys, run, splitmix64, value_for)
from tierpool.cli import main, parse_size_pages, parse_tiers
from tierpool.errors import ConfigError


def small_config(**kw):
    kw.setdefault("local_pages", 64)
    kw.setdefault("remote_pages", 128)
    kw.setdefault("dataset_pages", 256)
    kw.setdefault("workload", bench.MIXED_TXN)
    kw.setdefault("total_ops", 1500)
    kw.setdefault("threads", 1)
    kw.setdefault("seed", 3)
    kw.setdefault("evict_batch", 32)
    return BenchConfig(**kw)


def test_splitmix64_is_injective_on_sample():
    xs = np.arange(200000, dtype=np.uint64)
    ys = splitmix64(xs)
    assert len(np.unique(ys)) == len(xs)


def test_make_keys_sorted_unique_8_bytes():
    keys = make_keys(5000)
    assert len(keys) == 5000
    mat = keys.astype(">u8").view(np.uint8).reshape(-1, 8)
    raw = [bytes(r) for r in mat]
    assert all(len(k) == 8 for k in raw)
    # big-endian byte order makes lexicographic == numeric order
    assert raw == sorted(raw) and len(set(raw)) == 5000


def test_value_for_shape():
    v = value_for(b"\x01\x02\x03\x04\x05\x06\x07\x08", 120)
    assert len(v) == 120
    assert v[:8] == b"\x01\x02\x03\x04\x05\x06\x07\x08"


def test_zipf_sampler_bounds_and_determinism():
    za = ZipfSampler(1000, 0.8, seed=5)
    zb = ZipfSampler(1000, 0.8, seed=5)
    ra, rb = random.Random(1), random.Random(1)
    draws_a = [za.draw(ra) for _ in range(3000)]
    draws_b = [zb.draw(rb) for _ in range(3000)]
    assert draws_a == draws_b
    assert 0 <= min(draws_a) and max(draws_a) < 1000


def test_zipf_theta_skews_mass():
    flat = ZipfSampler(1000, 0.0, seed=7)
    skew = ZipfSampler(1000, 1.2, seed=7)
    rnd = random.Random(2)
    top = lambda z: max(np.bincount([z.draw(rnd) for _ in range(4000)],
                                    minlength=1000))
    assert top(skew) > 3 * top(flat)


def test_config_validation_and_autosizing():
    cfg = small_config()
    assert cfg.disk_pages >= cfg.dataset_pages
    assert cfg.n_keys == cfg.dataset_pages * 20  # leaf capacity at 4 KiB
    with pytest.raises(ConfigError):
        small_config(workload="nope")
    with pytest.raises(ConfigError):
        small_config(zipf_theta=-1)
    with pytest.raises(ConfigError):
        small_config(disk_pages=10)  # smaller than the dataset needs


def test_run_deterministic_and_consistent():
    ra = run(small_config())
    rb = run(small_config())
    assert ra.total_ops == rb.total_ops == 1500
    ka, kb = ra.op_counters(), rb.op_counters()
    assert ka == kb, "same seed must reproduce identical op counters"
    t = ra.totals
    hits = sum(v for k, v in t.items() if k.startswith("hits_t"))
    assert hits + t.get("faults", 0) == \
        t.get("fixes", 0) + t.get("optimistic_reads", 0)
    assert t.get("ops") == 1500


def test_run_rows_and_csv(tmp_path):
    path = str(tmp_path / "out.csv")
    rep = run(small_config(interval_s=0.05, csv_path=path))
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == len(rep.rows) + 1
    for row in rows[1:]:
        assert len(row) == len(CSV_COLUMNS)
        shares = [float(x) for x in row[-3:]]
        assert sum(shares) == pytest.approx(100.0, abs=0.1)
    assert sum(int(r[1]) for r in rows[1:]) == 1500


def test_read_fraction_extremes():
    pure = run(small_config(read_fraction=1.0, total_ops=600))
    assert pure.totals.get("disk_writes", 0) == 0  # nothing ever dirtied
    wr = run(small_config(read_fraction=0.0, total_ops=600))
    assert wr.totals.get("disk_writes", 0) > 0


def test_multithreaded_run_completes():
    rep = run(small_config(threads=4, total_ops=2000))
    assert rep.totals["ops"] == 2000


def test_compare_requires_matching_workloads():
    a = small_config()
    b = small_config(workload=bench.RANDOM_READ)
    with pytest.raises(ConfigError):
        compare(a, b)


def test_compare_summary_and_csv(tmp_path):
    path = str(tmp_path / "cmp.csv")
    a = small_config(total_ops=800)
    b = small_config(total_ops=800, remote_pages=0)
    summary = compare(a, b, csv_path=path)
    assert summary.ops_per_s_a > 0 and summary.ops_per_s_b > 0
    text = summary.table()
    assert "ops_per_s" in text and "migration_share" in text
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["metric", "a", "b", "ratio_a_over_b"]
    assert len(rows) == 6


# -- CLI ----------------------------------------------------------------

def test_parse_size_pages():
    assert parse_size_pages("512", 4096) == 512
    assert parse_size_pages("64M", 4096) == 16384
    assert parse_size_pages("64MB", 4096) == 16384
    assert parse_size_pages("1G", 4096) == 262144
    assert parse_size_pages("8K", 512) == 16
    with pytest.raises(ConfigError):
        parse_size_pages("64Q", 4096)


def test_parse_tiers():
    assert parse_tiers("4096:8192:0", 4096) == (4096, 8192, 0)
    assert parse_tiers("64M:0:1G", 4096) == (16384, 0, 262144)
    with pytest.raises(ConfigError):
        parse_tiers("1:2", 4096)


def test_cli_run_writes_csv(tmp_path):
    path = str(tmp_path / "cli.csv")
    rc = main(["run", "--tiers", "64:128:0", "--dataset", "256",
               "--ops", "500", "--workload", "randomread",
               "--evict-batch", "32", "--seed", "1", "--csv", path])
    assert rc == 0
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_COLUMNS and len(rows) >= 2


def test_cli_mixedtxn_overwrites_complete(capsys):
    """Overwrites allocate no page, so the CLI's disk sizing suffices."""
    rc = main(["run", "--tiers", "1024:2048:0", "--dataset", "4096",
               "--workload", "mixedtxn", "--ops", "3000", "--threads", "2",
               "--zipf", "0.8", "--rr", "0.1"])
    assert rc == 0, capsys.readouterr().err
    assert "3000 ops" in capsys.readouterr().out


def test_cli_compare_two_engines(capsys):
    rc = main(["compare", "--tiers", "64:128:0", "--dataset", "256",
               "--ops", "400", "--workload", "randomread",
               "--engine", "mp2", "--engine-b", "mbind",
               "--evict-batch", "32", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ops_per_s" in out


def test_cli_rejects_bad_config(capsys):
    rc = main(["run", "--tiers", "64:128:40", "--dataset", "256",
               "--ops", "100"])
    assert rc == 2
    assert "error" in capsys.readouterr().err.lower()
