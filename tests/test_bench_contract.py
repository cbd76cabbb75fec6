"""The benchmark's per-layer metrics still see the explorer.

``bench/spans.py`` wraps the public calls of :mod:`strictlin.explorer` and
reads ``Exploration`` internals (``order``, ``scc_info()``, ``_scc``,
``_results``).  A refactor that renames one of them would leave the
benchmark answering correctly while reporting zeros for the layer it no
longer sees; this runs one tiny traced pass of each explore workload and
checks that the layer metrics are live.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
LIVE = ("explorer.build_s", "explorer.configs", "explorer.sccs", "explorer.scc_s")


@pytest.mark.parametrize("workload", ["explore-strict", "explore-compare"])
def test_traced_run_reports_explorer_layers(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for name in LIVE:
        assert metrics[name]["value"] > 0, name
