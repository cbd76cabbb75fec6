#!/usr/bin/env python3
"""Run the workload ladder of ROADMAP.md layer by layer and write BENCH_<sha>.json.

Run from the repository root:

    python scripts/ladder.py                      # measures this checkout
    python scripts/ladder.py --tree ../other      # measures another checkout

Each rung is one program on one model.  After the configuration graph is
built and its SCCs found, the rung is compared as ``compare`` compares it,
``explorer.compare`` against an exploration of the atomic version of the
model's spec, built in the same layer; then it is checked as ``explore
--mode strict`` checks it: enumerate ``results("history")``, record the
executions and run ``check_strict``.  The comparison comes before the
history layers, so a rung that runs out of memory or time there still
reports it.  The rungs run one after another, each in its own child process under an
address-space limit of ``MEM_CAP_MB`` (``RLIMIT_AS``) and a wall cap of
``WALL_CAP_S``, so a rung that needs more ends as ``oom`` or ``timeout``
instead of exhausting the host.  A rung runs each layer ``RUNS`` times one
after another, each run's output freed before the next starts, so the cap
sees one at a time; each ``*_s`` is the median of its layer's runs, and
the next layer runs on the last run's output.  The SCCs and the outcome
sets are cached on the exploration, so before each run of the SCC, compare
and results layers that cache is dropped, outside the timer, and every run
computes its layer afresh.  ``RUNS`` is a constant, so every file written
so is timed alike; ``BENCH_25f395c.json`` took the median of five builds
and one run of every later layer, and earlier files one run of every
layer.

For each rung the file records its status (``ok``, ``oom``, ``timeout``, or
``error`` with the child's exit status), the counters of every layer that
finished (configurations, transitions, truncated frontier, SCC count and
largest SCC, histories, recorded executions, distinct search problems the
check searched), the wall seconds of each finished layer, the comparison's
verdict as ``explorer.compare`` gives it (``compare_verdict``), the check's
verdict as ``checker.check_exploration`` rules it (``pass``, ``fail``, or
``inconclusive`` when the measured tree's ``explorer.incomplete`` finds the
exploration truncated or its outcome sets approximate, so ``--tree`` takes a
checkout that has it, ``CheckReport.verdict`` and ``explorer.compare``) and
the child's peak resident set; ``src_lines`` is the line count of
the measured tree's ``src/strictlin/*.py``, as ``wc -l`` counts it, so that
one file reads both the times and the size of the code.  The file is named
after the short commit id of the measured checkout, with ``-dirty`` when its
``src/`` differs from that commit, and is written to the root of this
repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEM_CAP_MB = 2000
WALL_CAP_S = 600.0
OOM_EXIT = 3  # the child's exit status after a MemoryError
RUNS = 5  # runs of each layer per rung; each *_s is their median

# (name, model, program): the ladder of ROADMAP.md, smallest first
RUNGS = (
    ("ms 2x(enq;deq), P=4", "ms-queue,P=4",
     "thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }\n"
     "thread { call Q.Enqueue('b') ; call y2 = Q.Dequeue() }"),
    ("hw 2 enq + 2 deq, N=4", "hw-queue,N=4",
     "thread { call Q.Enqueue('c') }\nthread { call Q.Enqueue('d') }\n"
     "thread { call y1 = Q.Dequeue() }\nthread { call y2 = Q.Dequeue() }"),
    ("ms 3 enq + 1 deq, P=5", "ms-queue,P=5",
     "thread { call Q.Enqueue('a') }\nthread { call Q.Enqueue('b') }\n"
     "thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }"),
    ("hw 3 enq + 2 deq, N=5", "hw-queue,N=5",
     "thread { call Q.Enqueue('c') }\nthread { call Q.Enqueue('d') }\n"
     "thread { call Q.Enqueue('e') }\nthread { call y1 = Q.Dequeue() }\n"
     "thread { call y2 = Q.Dequeue() }"),
)


def run_rung(index: int) -> None:
    """The child: measure rung ``index`` and print one JSON object per
    finished layer, so a rung cut short still reports what it finished."""
    from strictlin import checker, explorer, models
    from strictlin.programs import parse_program

    _, model_ref, text = RUNGS[index]

    def layer(name: str, run, counters, fresh=lambda: None) -> object:
        times = []
        for _ in range(RUNS):
            out = None  # the last run's output is freed before the next starts,
            fresh()  # and so is the exploration's cache of it
            t = time.perf_counter()
            out = run()
            times.append(time.perf_counter() - t)
        row = {f"{name}_s": round(statistics.median(times), 3), **counters(out)}
        print(json.dumps(row), flush=True)
        return out

    model = models.parse_model_ref(model_ref)
    prog = parse_program(text)
    try:
        ex = layer("build", lambda: explorer.explore(prog, model), lambda ex: {
            "configs": len(ex.order), "transitions": ex.transitions_explored,
            "truncated": len(ex.truncated)})
        layer("scc", ex.scc_info, lambda info: {
            "sccs": len(info["comps"]), "largest_scc": max(map(len, info["comps"]))},
            lambda: setattr(ex, "_scc", None))
        layer("compare", lambda: explorer.compare(ex, explorer.run_atomic(prog, model.seq_spec)),
              lambda got: {"compare_verdict": got[2]}, ex._results.clear)
        layer("results", lambda: ex.results("history"), lambda res: {
            "histories": len(res), "approximate": ex.approximate}, ex._results.clear)
        recs = layer("record", lambda: checker.recorded_executions(ex),
                     lambda recs: {"records": len(recs)})
        layer("check", lambda: checker.check_strict(recs, model.seq_spec), lambda rep: {
            "searches": rep.searches,
            "verdict": replace(rep, inconclusive=explorer.incomplete(ex)).verdict})
    except MemoryError:
        os._exit(OOM_EXIT)  # nothing more can be printed safely


def measure(tree: Path, index: int) -> dict:
    """Run rung ``index`` of ``tree`` in a child process under the caps."""
    cap = MEM_CAP_MB * 2**20
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out:
        child = subprocess.Popen(
            [sys.executable, __file__, "--rung", str(index)], stdout=out, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        start = time.monotonic()
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - start > WALL_CAP_S:
                child.kill()
                timed_out = True
                pid, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.1)
        child.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        rows = [json.loads(line) for line in out.read().decode().splitlines()]
    name, model_ref, _ = RUNGS[index]
    row: dict = {"rung": name, "model": model_ref}
    if timed_out:
        row["status"] = "timeout"
    elif code == 0:
        row["status"] = "ok"
    elif code == OOM_EXIT:
        row["status"] = "oom"
    else:
        row["status"] = f"error (exit {code})"
    for r in rows:
        row.update(r)
    row["wall_s"] = round(time.monotonic() - start, 1)
    row["peak_rss_mb"] = round(usage.ru_maxrss / 1024, 1)  # ru_maxrss is in KiB
    return row


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def src_lines(tree: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "strictlin").glob("*.py"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="the checkout whose src/ is measured (default: this one)")
    ap.add_argument("--rung", type=int, help=argparse.SUPPRESS)  # set in the child
    args = ap.parse_args()
    if args.rung is not None:
        run_rung(args.rung)
        return
    tree = args.tree.resolve()
    sha = _git(tree, "rev-parse", "--short", "HEAD")
    if _git(tree, "status", "--porcelain", "--untracked-files=no", "--", "src"):
        sha += "-dirty"
    rungs = []
    for i in range(len(RUNGS)):
        rungs.append(measure(tree, i))
        print(json.dumps(rungs[-1]), flush=True)
    doc = {
        "commit": sha,
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "mem_cap_mb": MEM_CAP_MB,
        "wall_cap_s": WALL_CAP_S,
        "src_lines": src_lines(tree),
        "rungs": rungs,
    }
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
