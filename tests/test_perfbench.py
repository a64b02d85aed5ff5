"""The benchmark's traced mode still runs against the library's API.

perfbench/spans.py wraps methods by name (each frame pool's `insert`,
`remove`, `sweep` and `snapshot` among them), so a rename in the library
would make a traced run fail or report zero for a layer.  The same run
guards against the default policy's promotion thrash returning.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_tiered_lookup_runs_and_counts_residency_updates():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiered-lookup",
         "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["resident_set.updates_per_op"]["value"] > 0
    # Promotion takes only remote pages accessed since their demotion; when
    # every remote page looked hot, this read about 300 pages per lookup.
    assert result["metrics"]["migration.pages_per_op"]["value"] < 50
