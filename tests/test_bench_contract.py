"""The benchmark's per-layer metrics still see the explorer and the checker.

``bench/spans.py`` wraps the public calls of :mod:`strictlin.explorer`,
:mod:`strictlin.checker` and :mod:`strictlin.history` by name and reads
``Exploration`` internals (``order``, ``scc_info()``, ``_scc``,
``_results``).  A refactor that renames one of them would leave the
benchmark answering correctly while reporting zeros for the layer it no
longer sees; this runs one tiny traced pass of each workload and checks
that the layer metrics are live.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
EXPLORER = ("explorer.build_s", "explorer.configs", "explorer.sccs", "explorer.scc_s")
CHECKER = ("checker.executions_checked", "checker.general_s", "checker.strict_s",
           "history.parse_s")


def _traced_metrics(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload,live,exact", [
    # the checks run every witness search through the module-level
    # find_linearization, whose spans the benchmark counts: one
    # find_linearization per recorded execution
    pytest.param("explore-strict", EXPLORER, {"checker.executions_checked": 397},
                 id="explore-strict"),
    # each compare query explores both sides once per report: two reports
    pytest.param("explore-compare", EXPLORER + ("explorer.atomic_build_s",),
                 {"explorer.explorations": 4}, id="explore-compare"),
])
def test_traced_run_reports_explorer_layers(workload, live, exact):
    metrics = _traced_metrics(workload)
    for name in live:
        assert metrics[name]["value"] > 0, name
    for name, value in exact.items():
        assert metrics[name]["value"] == value, name


def test_every_span_target_resolves(monkeypatch):
    # ``instrument`` skips a name it cannot find, so a renamed entry point
    # would silently drop its layer from the metrics
    monkeypatch.syspath_prepend(str(BENCH_RUN.parent))
    spans = importlib.import_module("spans")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_traced_run_reports_checker_layers():
    metrics = _traced_metrics("check-history")
    for name in CHECKER:
        assert metrics[name]["value"] > 0, name
