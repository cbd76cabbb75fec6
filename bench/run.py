#!/usr/bin/env python3
"""Run one strictlin benchmark workload and print its metrics.

    python3 bench/run.py --workload explore-strict --seed 1 --seconds 24 --trace 0

Load comes from this one process, in a closed loop: one query at a time, no
worker threads.  The run imports ``strictlin`` from ``src/`` next to this
directory, builds the workload's inputs from the seed (set up three times,
the median counts), runs one warm-up pass, then runs timed passes for
``--seconds`` seconds, give or take half a pass.  Every answer is checked
against its known answer; a query that raises, exceeds its time cap,
explores a truncated or approximate graph, or answers wrongly counts as
failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
starts with ``info:`` and states sample counts, the tail percentile used and
any failures.  A traced run alternates traced and untraced passes and also
writes every span to ``bench/out/``.

The four end-to-end times are in reference seconds: raw times scaled by the
host's speed during the run.  On a shared host the same code slows by up to
1.8 times while neighbours are busy, for seconds to minutes at a time, so
raw times of the same code spread by up to a third over ten runs.  While the
workload runs, every ``SAMPLE_EVERY_S`` of CPU time a signal handler times
a fixed arithmetic loop that calls nothing in ``strictlin``.  A time is
multiplied by ``REFERENCE_LOOP_S`` over the mean loop time while it was
measured: during the query when it saw ``LOCAL_LOOPS`` loops, else during
its pass; ``setup_s`` by the mean during set-up.  The handler's time is
left out of every measured interval.  The ``info`` line gives the raw
times and the run's mean scale.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 3
# a runaway query raises MemoryError (and fails) instead of exhausting the host
MEMORY_LIMIT = 4 << 30
# a run must print its result well inside three minutes
HARD_LIMIT_S = 150.0
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
SAMPLE_EVERY_S = 0.05
LOCAL_LOOPS = 5
# the loop's time on a quiet 2-vCPU Intel Xeon host with CPython 3.11
REFERENCE_LOOP_S = 0.0013

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "explorer.build_s": "s",
    "explorer.configs": "count",
    "explorer.transitions": "count",
    "explorer.configs_per_s": "1/s",
    "explorer.scc_s": "s",
    "explorer.sccs": "count",
    "explorer.largest_scc": "count",
    "explorer.cyclic_sccs": "count",
    "explorer.atomic_build_s": "s",
    "explorer.explorations": "count",
    "explorer.results_history_s": "s",
    "explorer.outcomes_history": "count",
    "explorer.results_client_s": "s",
    "explorer.outcomes_client": "count",
    "explorer.final_states_s": "s",
    "explorer.truncated": "count",
    "explorer.approximate": "count",
    "explorer.self_s": "s",
    "checker.record_s": "s",
    "checker.records": "count",
    "checker.useful_ratio": "ratio",
    "checker.strict_s": "s",
    "checker.general_s": "s",
    "checker.impl_s": "s",
    "checker.executions_checked": "count",
    "checker.self_s": "s",
    "history.parse_s": "s",
    "history.events": "count",
    "history.self_s": "s",
    "trace.spans": "count",
    "trace.verdict_s": "s",
    "trace.untraced_verdict_s": "s",
    "trace.overhead_frac": "ratio",
}


class QueryTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise QueryTimeout


def reference_loop() -> int:
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    return acc


@dataclass
class HostSpeed:
    """Times ``reference_loop`` from a SIGVTALRM handler while the run lasts."""

    loops: list[float] = field(default_factory=list)
    spent: float = 0.0  # seconds inside the handler, left out of measured times
    saved: object = None

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.loops.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.saved = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self.saved)

    def scale(self, since: int, least: int = 1) -> float | None:
        """The scale for the loops timed since index ``since``; None with
        fewer than ``least`` of them."""
        loops = self.loops[since:]
        return REFERENCE_LOOP_S / statistics.fmean(loops) if len(loops) >= least else None


@dataclass
class Pass:
    traced: bool
    wall: float
    times: dict[str, float]
    scale: float | None  # host-speed scale of the pass; None: no loop timed
    scales: dict[str, float | None]  # of each query; None: too few loops
    layers: dict | None = None
    spans: list = field(default_factory=list)


@dataclass
class Tally:
    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    drift: set[str] = field(default_factory=set)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, status: str) -> None:
        self.failures[status] = self.failures.get(status, 0) + 1


def run_query(q, rec, cap: float, tally: Tally, host: HostSpeed) -> tuple[float, int, int]:
    """Run one query under its time cap and check its answer.

    Returns its seconds and how many of its explorations were truncated and
    approximate."""
    rec.start_query(q.qid)
    tally.attempted += 1
    if cap <= 0:
        tally.fail("time-limit")
        return 0.0, 0, 0
    start, spent = time.perf_counter(), host.spent

    def elapsed() -> float:
        return time.perf_counter() - start - (host.spent - spent)

    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            got = q.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        tally.fail("time-cap")
        return elapsed(), 0, 0
    except Exception as exc:  # a failing query must not stop the run
        tally.fail(f"error: {type(exc).__name__}: {exc}"[:200])
        return elapsed(), 0, 0
    took = elapsed()
    truncated = sum(1 for ex in rec.explorations if ex.truncated)
    approximate = sum(1 for ex in rec.explorations if ex.approximate)
    rec.explorations.clear()  # drop the graphs before the next query
    if truncated:
        tally.fail("truncated")
    elif approximate:
        tally.fail("approximate")
    elif any(got.get(k) != v for k, v in q.expected.items()):
        tally.fail("wrong answer")
        tally.wrong.append(q.qid)
    tally.drift.update(f"{q.qid}:{k}" for k, v in q.work.items() if got.get(k) != v)
    return took, truncated, approximate


def run_pass(wl, traced: bool, deadline: float, tally: Tally, host: HostSpeed) -> Pass:
    import spans  # noqa: PLC0415 - imported after strictlin is on the path

    gc.collect()
    rec = spans.Recorder()
    times, local = {}, {}
    truncated = approximate = 0
    with spans.instrument(rec, traced):
        start, spent, first = time.perf_counter(), host.spent, len(host.loops)
        for q in wl.queries:
            cap = min(wl.cap_s, deadline - time.perf_counter())
            since = len(host.loops)
            times[q.qid], t, a = run_query(q, rec, cap, tally, host)
            local[q.qid] = host.scale(since, LOCAL_LOOPS)
            truncated += t
            approximate += a
        wall = time.perf_counter() - start - (host.spent - spent)
    scale = host.scale(first)
    if not traced:
        return Pass(False, wall, times, scale, local)
    layers = spans.layer_metrics(rec.spans, len(wl.queries), truncated, approximate)
    return Pass(True, wall, times, scale, local, layers, rec.spans)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p:g}"
    return xs[-1], "max"


def run(workload: str, seed: int, seconds: float, traced_run: bool, size: str,
        t_start: float, import_s: float, tamper=None) -> tuple[dict, dict]:
    import workloads  # noqa: PLC0415

    host = HostSpeed()
    host.start()
    old_handler = signal.signal(signal.SIGALRM, _alarm)
    try:
        answers = workloads.load_answers()
        preps = []
        for _ in range(SETUP_REPEATS):
            t, spent = time.perf_counter(), host.spent
            wl = workloads.WORKLOADS[workload](seed, size, answers)
            preps.append(time.perf_counter() - t - (host.spent - spent))
        if tamper:
            tamper(wl)
        deadline = t_start + HARD_LIMIT_S
        tally = Tally()
        warm = run_pass(wl, False, deadline, tally, host)
        setup_s = import_s + statistics.median(preps) + warm.wall
        setup_scale = host.scale(0)
        passes: list[Pass] = []
        window = time.perf_counter()
        # a traced run needs one traced and one untraced pass; past the
        # deadline a pass's queries fail at once, so the minimum stays cheap
        while True:
            passes.append(run_pass(wl, traced_run and len(passes) % 2 == 0, deadline, tally,
                                   host))
            if len(passes) < (2 if traced_run else 1):
                continue
            now = time.perf_counter()
            typical = statistics.median(p.wall for p in passes)
            # start a pass only when at least half of it fits in the window,
            # so a run measures --seconds give or take half a pass
            if now - window + typical / 2 >= seconds:
                break
            if now + typical > deadline:
                break
    finally:
        host.stop()
        signal.signal(signal.SIGALRM, old_handler)

    walls = [p.wall for p in passes if not p.traced]
    info = {
        "workload": workload,
        "seed": seed,
        "queries_per_pass": len(wl.queries),
        "timed_passes": len(passes),
        "pass_s": [round(p.wall, 4) for p in passes],
        "setup": {"import_s": round(import_s, 4), "prep_s": [round(x, 4) for x in preps],
                  "warmup_s": round(warm.wall, 4)},
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
        "wrong_answers": sorted(set(tally.wrong))[:20],
        "work_drift": sorted(tally.drift)[:20],
    }
    if traced_run:
        metrics = trace_metrics(passes, walls)
        info["trace_file"] = write_spans(workload, seed, passes, t_start)
        info["self_s"] = {k: round(metrics[k], 4) for k in metrics if k.endswith(".self_s")}
        units = PER_LAYER
    else:
        # a run too short for a single loop (the self-test's) stays unscaled
        run_scale = host.scale(0) or 1.0

        def end_to_end(scaled: bool) -> dict:
            def pass_scale(p: Pass) -> float:
                return (p.scale or run_scale) if scaled else 1

            def t(p: Pass, qid: str) -> float:
                return p.times[qid] * ((p.scales[qid] or pass_scale(p)) if scaled else 1)

            samples = [t(p, qid) for p in passes for qid in p.times]
            per_query = [statistics.median(t(p, q.qid) for p in passes) for q in wl.queries]
            tail_s, pct = tail(per_query)
            info["tail_percentile"] = pct
            return {
                "setup_s": setup_s * ((setup_scale or run_scale) if scaled else 1),
                "verdict_s": statistics.median(p.wall * pass_scale(p) for p in passes),
                "query_p50_ms": 1000 * statistics.median(samples),
                "query_tail_ms": 1000 * tail_s,
            }

        info["verdict_s_samples"] = len(walls)
        info["p50_samples"] = len(passes) * len(wl.queries)
        info["tail_samples"] = f"{len(wl.queries)} queries, each the median of {len(passes)} passes"
        raw = end_to_end(False)
        info["host_speed"] = {"loops": len(host.loops),
                              "scale": round(run_scale, 4),
                              "raw": {k: round(v, 4) for k, v in raw.items()}}
        metrics = {
            **end_to_end(True),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - tally.failed / tally.attempted,
        }
        units = END_TO_END
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, info


def trace_metrics(passes: list[Pass], untraced_walls: list[float]) -> dict:
    traced = [p for p in passes if p.traced]
    metrics = {k: statistics.median(p.layers[k] for p in traced) for k in traced[0].layers}
    metrics["trace.verdict_s"] = statistics.median(p.wall for p in traced)
    base = statistics.median(untraced_walls)
    metrics["trace.untraced_verdict_s"] = base
    metrics["trace.overhead_frac"] = metrics["trace.verdict_s"] / base - 1
    return metrics


def write_spans(workload: str, seed: int, passes: list[Pass], t_start: float) -> str:
    doc = {"workload": workload, "seed": seed, "clock": "seconds since run start",
           "passes": []}
    for i, p in enumerate(passes):
        if not p.traced:
            continue
        doc["passes"].append({"pass": i, "spans": [
            {"id": s.sid, "name": s.name, "start": round(s.start - t_start, 6),
             "end": round(s.end - t_start, 6), "parent": s.parent, "query": s.query,
             **({"attrs": s.attrs} if s.attrs else {})}
            for s in p.spans]})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc) + "\n")
    return str(path.relative_to(BENCH.parent))


def import_strictlin() -> None:
    """Put ``src/`` first on the path and import the package from there."""
    if not (SRC / "strictlin" / "__init__.py").is_file():
        raise SystemExit(f"error: no strictlin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import strictlin  # noqa: PLC0415

    if Path(strictlin.__file__).resolve().parent != SRC / "strictlin":
        raise SystemExit(f"error: strictlin imported from {strictlin.__file__}, not {SRC}")
    import spans, workloads  # noqa: E401, F401, PLC0415


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["explore-strict", "explore-compare", "check-history"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: a few small queries, for the self-test")
    args = ap.parse_args(argv)
    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    import_strictlin()
    import_s = time.perf_counter() - t_start
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace),
                       args.size, t_start, import_s)
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
