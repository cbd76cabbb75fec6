#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the last output line carries exactly the metrics ``BENCHMARK.json`` lists,
by name and unit, with every answer correct.  Then checks that a
deliberately wrong known answer is reported as a failure, that queries over
their time cap fail without stopping the run, that the history
generator's construction agrees with ``brute_force_linearizations``, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import run  # noqa: E402

run.import_strictlin()

import derive_answers  # noqa: E402
import workloads  # noqa: E402
from strictlin import specs  # noqa: E402
from strictlin.history import parse_history  # noqa: E402


def check_output(workload: str, trace: int, manifest: dict) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace), "--size", "tiny"])
    lines = buf.getvalue().splitlines()
    assert code == 0, code
    assert lines[-2].startswith("info: "), lines[-2]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = manifest["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}, (workload, trace, got)
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), (name, v)
    print(f"ok   {workload} --trace {trace}: {len(got)} metrics with units")


def flip(value):
    if isinstance(value, bool):
        return not value
    return {"pass": "fail", "fail": "pass"}.get(value, value)


def check_wrong_answer_fails(workload: str) -> None:
    def tamper(wl):
        q = wl.queries[0]
        key = "verdict" if "verdict" in q.expected else "general"
        q.expected = {**q.expected, key: flip(q.expected[key])}

    with contextlib.redirect_stdout(io.StringIO()):
        result, info = run.run(workload, 3, 0.2, False, "tiny", time.perf_counter(), 0.0,
                               tamper=tamper)
    assert result["correct"] is False and result["failed"] >= 1, result
    assert info["wrong_answers"], info
    assert result["metrics"]["ok_frac"]["value"] < 1
    print(f"ok   {workload}: a wrong known answer is reported as a failure")


def check_time_cap_fails() -> None:
    def tamper(wl):
        wl.cap_s = 1e-4

    with contextlib.redirect_stdout(io.StringIO()):
        result, info = run.run("explore-compare", 3, 0.2, False, "tiny", time.perf_counter(),
                               0.0, tamper=tamper)
    assert result["failed"] == result["attempted"] >= 2, result
    assert result["correct"] is True and info["failures"] == {"time-cap": result["failed"]}
    print("ok   queries over their time cap fail and the run goes on")


def check_construction_against_oracle() -> None:
    spec = specs.get_spec("adt-queue")
    rng = random.Random(11)
    n = 0
    for threads, ops in ((3, 1), (2, 2), (3, 2)):
        for i in range(40):
            pending, mutation = workloads._history_mix(i)
            text, final, ok = workloads.generate_history(rng, threads, ops, pending, mutation)
            h = parse_history(text)
            assert derive_answers.brute_strict_ok(h, False, None, spec) == ok, text
            if final is not None:
                assert derive_answers.brute_strict_ok(h, True, final, spec) == ok, text
            n += 1
    print(f"ok   {n} generated histories: construction agrees with brute force")


def check_refuses_without_sources() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "check-history", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "metrics" not in proc.stdout, proc
    print("ok   without the package sources the run fails and prints no result")


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace, manifest)
        check_wrong_answer_fails(workload)
    check_time_cap_fails()
    check_construction_against_oracle()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
