"""The benchmark's three workloads: inputs, queries and their known answers.

A query is one CLI-equivalent request; it makes the same public calls the
``strictlin`` command line makes for it and returns the observable answer as
a plain dict.  A pass runs a workload's fixed query list once.  The explore
workloads run the fixed ladder programs in a fixed order, so their seed
changes nothing (a seeded query order moved peak memory by 5 %); the seed
generates the check-history histories and their order.

* ``explore-strict``  -- ``explore --mode strict|impl`` on the ladder rungs
  that finish without truncation (outcome enumeration and witness search);
* ``explore-compare`` -- ``compare`` (graph build, SCCs, client outcomes,
  atomic side; no history enumeration, no checker);
* ``check-history``   -- ``check-history`` on generated queue histories
  (parser and witness search; the explorer is never called).

Explore queries are checked against ``known_answers.json``; generated
histories carry their answer from the construction (see
:func:`generate_history`).
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from strictlin import checker, explorer, models, specs
from strictlin.programs import parse_program

# the package re-exports a function named ``history`` over the module's name
history = importlib.import_module("strictlin.history")

ANSWERS_PATH = Path(__file__).with_name("known_answers.json")

# Program texts of the ladder rungs.  fig2 and MS_TWO_BY_TWO are the
# programs of the ``fig2`` and ``propH-msqueue-strict`` reproductions;
# THREE_PHASE is the ``sec52-divergence`` program.
PROGRAMS = {
    "fig2": """
        thread { call Q.Enqueue('c') }
        thread { call Q.Enqueue('d') }
        thread { call y = Q.Dequeue() }
    """,
    "ms-2x2": """
        thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }
        thread { call Q.Enqueue('b') ; call y2 = Q.Dequeue() }
    """,
    "hw-2+2": """
        thread { call Q.Enqueue('c') }
        thread { call Q.Enqueue('d') }
        thread { call y1 = Q.Dequeue() }
        thread { call y2 = Q.Dequeue() }
    """,
    "hw-3+1": """
        thread { call Q.Enqueue('c') }
        thread { call Q.Enqueue('d') }
        thread { call Q.Enqueue('e') }
        thread { call y = Q.Dequeue() }
    """,
    "ms-2+1": """
        thread { call Q.Enqueue('a') }
        thread { call Q.Enqueue('b') }
        thread { call y = Q.Dequeue() }
    """,
    "three-phase": """
        phase {
          thread { call Q.Enqueue('c') }
          thread { call Q.Enqueue('d') }
          thread { call y0 = Q.Dequeue() }
        }
        phase { thread { write Q.items[1] <- 'x' } }
        phase {
          thread { call y1 = Q.Dequeue() }
          thread { call y2 = Q.Dequeue() }
        }
    """,
    "three-phase+e": """
        phase {
          thread { call Q.Enqueue('c') }
          thread { call Q.Enqueue('d') }
          thread { call y0 = Q.Dequeue() }
        }
        phase { thread { write Q.items[1] <- 'x' } }
        phase {
          thread { call y1 = Q.Dequeue() }
          thread { call y2 = Q.Dequeue() }
          thread { call Q.Enqueue('e') }
        }
    """,
}

HW = "hw-queue,N=4"
MS = "ms-queue,P=4"

# (query id, program, model, mode, adt, af, renaming); impl queries mirror
# the two implementation routes of propH-msqueue-strict.  The short ms
# queries sit on both sides of the long hw 2+2 one, so the median query time
# samples the machine at several moments of a pass.
STRICT_QUERIES = [
    ("strict/ms-2x2", "ms-2x2", MS, "strict", None, None, None),
    ("strict/fig2", "fig2", HW, "strict", None, None, None),
    ("impl-pseudo/ms-2x2", "ms-2x2", MS, "impl", "adt-pseudo-queue", "af-pseudo", None),
    ("strict/hw-2+2", "hw-2+2", HW, "strict", None, None, None),
    ("impl-multiset/ms-2x2", "ms-2x2", MS, "impl", "adt-multiset", "af-multiset",
     {"Enqueue": "Add", "Dequeue": "Remove"}),
]
COMPARE_QUERIES = [
    ("compare/hw-3+1", "hw-3+1", HW),
    ("compare/ms-2+1", "ms-2+1", MS),
    ("compare/three-phase", "three-phase", HW),
    ("compare/three-phase+e", "three-phase+e", HW),
    ("compare/fig2", "fig2", HW),
]
TINY = {"strict/fig2", "impl-multiset/ms-2x2", "compare/fig2", "compare/three-phase"}

# Answer keys that measure work rather than state a result.  Partial-order
# reduction or graph interning may legitimately change them, so a mismatch
# is reported as drift, not as a wrong answer.
WORK_KEYS = ("configs", "transitions")


@dataclass
class Query:
    qid: str
    run: Callable[[], dict]
    expected: dict
    work: dict = field(default_factory=dict)


@dataclass
class Workload:
    queries: list[Query]
    cap_s: float  # per-query time cap


def load_answers(path: Path = ANSWERS_PATH) -> dict:
    doc = json.loads(path.read_text())
    return doc["queries"]


def _split_answers(entry: dict) -> tuple[dict, dict]:
    expected = {k: v["value"] for k, v in entry.items() if k not in WORK_KEYS}
    work = {k: v["value"] for k, v in entry.items() if k in WORK_KEYS}
    return expected, work


# ---------------------------------------------------------------------------
# explore-strict: explore --mode strict|impl
# ---------------------------------------------------------------------------


def _explore_check(prog, model, mode, spec, adt, af, rf, states) -> dict:
    ex = explorer.explore(prog, model)
    ex.scc_info()
    outcomes = ex.results("history")
    fs = explorer.final_states(ex)
    kinds = sorted(k.value for k in ex.divergence_kinds())
    recs = checker.recorded_executions(ex)
    if mode == "strict":
        report = checker.check_strict(recs, spec)
    else:
        report = checker.check_concurrent_implementation(recs, spec, adt, af, rf, states)
    return {
        "verdict": "pass" if report.passed else "fail",
        "configs": len(ex.order),
        "transitions": ex.transitions_explored,
        "outcomes_history": len(outcomes),
        "records": len(recs),
        "final_states": list(fs.renderings),
        "divergence": kinds,
    }


def explore_strict(seed: int, size: str, answers: dict) -> Workload:
    queries = []
    for qid, prog_name, ref, mode, adt_name, af_name, rename in STRICT_QUERIES:
        if size == "tiny" and qid not in TINY:
            continue
        prog = parse_program(PROGRAMS[prog_name])
        model = models.parse_model_ref(ref)
        spec = model.seq_spec
        adt = specs.get_spec(adt_name) if adt_name else None
        af = specs.get_af(af_name) if af_name else None
        rf = (specs.RenamingFunction.of(rename) if rename
              else specs.RenamingFunction.identity(model.method_names()))
        states = list(model.enumerate_states(("a", "b"))) if mode == "impl" else None
        args = (prog, model, mode, spec, adt, af, rf, states)
        queries.append(Query(qid, lambda a=args: _explore_check(*a),
                             *_split_answers(answers[qid])))
    return Workload(queries, cap_s=60.0)


# ---------------------------------------------------------------------------
# explore-compare: compare
# ---------------------------------------------------------------------------


def _compare(prog, model, spec) -> dict:
    obs = explorer.compare_observables(prog, model, spec)
    div = explorer.compare_divergence(prog, model, spec)
    agree = obs.equal and div.model_diverges == div.atomic_diverges
    return {
        "verdict": "pass" if agree else "fail",
        "traces_equal": obs.traces_equal,
        "states_equal": obs.states_equal,
        "only_fine_grained_traces": len(obs.trace_diff_model),
        "only_atomic_traces": len(obs.trace_diff_atomic),
        "final_states_fine_grained": list(obs.state_lines_model),
        "final_states_atomic": list(obs.state_lines_atomic),
        "divergence_fine_grained": list(div.model_kinds),
        "divergence_atomic": list(div.atomic_kinds),
    }


def explore_compare(seed: int, size: str, answers: dict) -> Workload:
    queries = []
    for qid, prog_name, ref in COMPARE_QUERIES:
        if size == "tiny" and qid not in TINY:
            continue
        prog = parse_program(PROGRAMS[prog_name])
        model = models.parse_model_ref(ref)
        args = (prog, model, model.seq_spec)
        queries.append(Query(qid, lambda a=args: _compare(*a),
                             *_split_answers(answers[qid])))
    return Workload(queries, cap_s=60.0)


# ---------------------------------------------------------------------------
# check-history: generated histories
# ---------------------------------------------------------------------------

NEVER_ENQUEUED = "zz"
# Mean operation length; the mean gap between a thread's operations is 1.
# Longer operations overlap more, and the witness search on a few mutated
# histories then grows so much (memory too) that peak memory and the tail
# depend on the seed.
DURATION = 0.1


def generate_history(rng: random.Random, threads: int, ops: int, pending: bool,
                     mutation: str) -> tuple[str, tuple | None, bool]:
    """One queue history, its final queue contents, and whether it linearizes.

    Each thread runs ``ops`` operations in sequence against one atomic FIFO
    queue.  An operation occupies a random interval of simulated time (gaps
    exponential of mean 1, durations uniform of mean ``DURATION``) and takes
    effect at a random instant inside it, so the effect order is a
    linearization: the history linearizes by construction, with the queue's
    final contents as the strict final state.  Enqueued values are distinct.
    With ``pending``, one or two threads stop after the invocation or after
    the effect of their last operation.  A mutation then makes the history
    non-linearizable: ``never`` gives a completed dequeue a value no thread
    enqueued; ``twice`` makes a second completed dequeue return the value of
    a single enqueue that another dequeue already returned.
    """
    while True:
        stops = {}
        if pending:
            for t in rng.sample(range(1, threads + 1), rng.randint(1, min(2, threads))):
                stops[t] = rng.choice(("inv", "effect"))
        steps = []  # (time, stage, thread, op id, method, value)
        next_val = 0
        for t in range(1, threads + 1):
            clock = 0.0
            for i in range(ops):
                start = clock + rng.expovariate(1.0)
                clock = start + rng.uniform(0, 2 * DURATION)
                if rng.random() < 0.5:
                    next_val += 1
                    method, value = "Enqueue", f"v{next_val}"
                else:
                    method, value = "Dequeue", None
                op = 100 * t + i + 1
                last = i == ops - 1 and t in stops
                steps.append((start, 0, t, op, method, value))
                if not last or stops[t] == "effect":
                    steps.append((rng.uniform(start, clock), 1, t, op, method, value))
                if not last:
                    steps.append((clock, 2, t, op, method, value))
        steps.sort()
        queue: list = []
        rets: dict[int, str] = {}
        for _, stage, t, op, method, value in steps:
            if stage == 1 and method == "Enqueue":
                queue.append(value)
                rets[op] = "unit"
            elif stage == 1:
                rets[op] = f"'{queue.pop(0)}'" if queue else "EMPTY"
        deqs = [op for (_, stage, _, op, method, _) in steps
                if stage == 2 and method == "Dequeue"]
        if mutation == "never" and deqs:
            rets[rng.choice(deqs)] = f"'{NEVER_ENQUEUED}'"
        elif mutation == "twice":
            got = [op for op in deqs if rets[op] != "EMPTY"]
            if not got or len(deqs) < 2:
                continue
            a = rng.choice(got)
            rets[rng.choice([op for op in deqs if op != a])] = rets[a]
        elif mutation != "none":
            continue
        lines = []
        for _, stage, t, op, method, value in steps:
            if stage == 0:
                arg = f"'{value}'" if value else "unit"
                lines.append(f"t={t} op={op} inv {method} {arg}")
            elif stage == 2:
                lines.append(f"t={t} op={op} ret {rets[op]}")
        final = None if stops else tuple(queue)
        return "\n".join(lines) + "\n", final, mutation == "none"


# Stratified mix: every (threads, ops) class gets the same number of
# histories, a fixed share with pending operations and a fixed share
# mutated, so seeds differ only in interleavings and operation kinds.
THREADS = (4, 5, 6)
OPS = (3, 4, 5)
PER_CLASS = 150
TINY_PER_CLASS = 12


def _history_mix(index: int) -> tuple[bool, str]:
    pending = index % 4 == 1
    mutation = {3: "never", 7: "twice"}.get(index % 10, "none")
    return pending, mutation


_IDENTITY_AF = specs.AbstractionFunction("identity", lambda s: s)


def _check_history(text: str, final: tuple | None, spec) -> dict:
    h = history.parse_history(text)
    methods = tuple(sorted({e.label.method for e in h if isinstance(e.label, history.Inv)}))
    # check-history --mode general --adt adt-queue
    rec = checker.RecordedExecution(spec.initial_state, h, False)
    general = checker.check_general(
        [rec], spec, _IDENTITY_AF, specs.RenamingFunction.identity(methods))
    # check-history --mode strict --spec adt-queue
    lin = checker.find_linearization(rec, spec)
    out = {"general": general.passed, "strict": lin is not None}
    if final is not None:
        # the strict check with the final state the generator recorded
        done = checker.RecordedExecution(spec.initial_state, h, True, final)
        out["strict_final"] = checker.check_strict([done], spec).passed
    return out


def check_history(seed: int, size: str, answers: dict) -> Workload:
    rng = random.Random(seed)
    spec = specs.get_spec("adt-queue")
    queries = []
    if size == "tiny":
        classes, per_class = [(3, 1), (2, 2), (3, 2)], TINY_PER_CLASS
    else:
        classes, per_class = [(t, k) for t in THREADS for k in OPS], PER_CLASS
    for threads, ops in classes:
        for i in range(per_class):
            pending, mutation = _history_mix(i)
            text, final, ok = generate_history(rng, threads, ops, pending, mutation)
            expected = {"general": ok, "strict": ok}
            if final is not None:
                expected["strict_final"] = ok
            qid = f"history/t{threads}-k{ops}-{i}-{mutation}"
            queries.append(Query(qid, lambda a=(text, final, spec): _check_history(*a),
                                 expected))
    rng.shuffle(queries)
    return Workload(queries, cap_s=5.0)


WORKLOADS: dict[str, Callable[[int, str, dict], Workload]] = {
    "explore-strict": explore_strict,
    "explore-compare": explore_compare,
    "check-history": check_history,
}
