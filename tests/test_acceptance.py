"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value here is either hand-derived in the comments, produced
by an independent in-test oracle, or frozen from a reviewed golden file.
Time limits are asserted as stated.
"""

import importlib
import itertools
import random
import time
from pathlib import Path

from strictlin import checker, explorer, models, reproductions, specs
from strictlin.checker import (
    RecordedExecution,
    check_concurrent_implementation,
    check_strict,
    find_linearization,
    find_strict_linearization,
    recorded_executions,
)
from strictlin.explorer import compare_observables, explore, explore_both, observables_report
from strictlin.history import history, inv, ret
from strictlin.models import HWQueueState
from strictlin.programs import parse_program
from strictlin.reproductions import (
    FIG3_FINAL,
    FIG3_LEGAL_FINAL,
    MS_TWO_BY_TWO,
    TWO_ENQUEUES_ONE_DEQUEUE,
    fig3_history,
    transitivity_fuzz,
)
from strictlin.specs import legal_seq_outcomes, queue_adt
from strictlin.values import EMPTY, NULL, UNIT

from oracles import queue_linearizable_by_brute_force

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


class _timer:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _verdict(n: int, ok: bool, text: str, elapsed: float, limit: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"{mark} criterion {n}: {text} ({elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {n}: {text}"


# hand-derived final states: both increments always run (back=3); the slot
# order and the dequeued value give four combinations
FIG2_EXPECTED_HW = {
    HWQueueState(3, ("c", NULL, NULL, NULL)),
    HWQueueState(3, ("d", NULL, NULL, NULL)),
    HWQueueState(3, (NULL, "c", NULL, NULL)),
    HWQueueState(3, (NULL, "d", NULL, NULL)),
}
FIG2_EXPECTED_ATOMIC = {
    HWQueueState(3, (NULL, "c", NULL, NULL)),
    HWQueueState(3, (NULL, "d", NULL, NULL)),
}


def test_criterion_1_final_state_gap(monkeypatch):
    # the golden file is compared with the text of the script that writes it
    monkeypatch.syspath_prepend(str(SCRIPTS))
    fig2_states = importlib.import_module("regenerate_goldens").fig2_states
    with _timer(10.0) as t:
        ex, ex_a = explore_both(TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
        got_hw = {ex.states[ex.config(i).sid] for i in ex.terminal_done}
        got_at = {ex_a.states[ex_a.config(i).sid] for i in ex_a.terminal_done}
        golden = (GOLDEN / "fig2-states.txt").read_text()
        regenerated = fig2_states(ex, ex_a)
        ok = (
            got_hw == FIG2_EXPECTED_HW
            and got_at == FIG2_EXPECTED_ATOMIC
            and got_at <= got_hw
            and golden == regenerated
        )
    _verdict(1, ok and t.elapsed < 10, "4 fine-grained vs 2 atomic final states",
             t.elapsed, 10)


def test_criterion_2_recorded_execution_contrast():
    with _timer(30.0) as t:
        m = models.hw_model(4)
        rec = RecordedExecution(m.seq_spec.initial_states[0], fig3_history(), True, FIG3_FINAL)
        rf = specs.RenamingFunction.identity(("Enqueue", "Dequeue"))
        general = checker.check_general(
            [rec], queue_adt(), models.af_hw_prefix(), rf
        )
        strict_witness = find_strict_linearization(rec, m.seq_spec)
        lin = find_linearization(rec, m.seq_spec)
        ok = (
            general.passed
            and strict_witness is None
            and lin is not None
            and legal_seq_outcomes(m.seq_spec, rec.initial_state, lin.witness)
            == frozenset({FIG3_LEGAL_FINAL})
            and rec.final_state == FIG3_FINAL
            and reproductions.fig3().ok  # the execution is explorer-reachable
        )
    _verdict(2, ok, "general passes, strict fails with the exact state gap",
             t.elapsed, 30)


def test_criterion_3_observational_difference():
    with _timer(5.0) as t:
        rep = reproductions.sec62_observation()
        ok = rep.ok
    _verdict(3, ok and t.elapsed < 5, "final y sets {'c'} vs {'c',EMPTY}",
             t.elapsed, 5)


def test_criterion_4_divergence_contrast():
    with _timer(60.0) as t:
        rep = reproductions.sec52_divergence()
        ok = rep.ok
    _verdict(4, ok and t.elapsed < 60,
             "three-phase program diverges fine-grained, terminates atomically",
             t.elapsed, 60)


def test_criterion_5_transitivity_fuzz():
    with _timer(10.0) as t:
        failures, checked = transitivity_fuzz(1000)
        ok = failures == 0 and checked == 1000
    _verdict(5, ok and t.elapsed < 10, "1000 transitivity triples, zero failures",
             t.elapsed, 10)


# ---------------------------------------------------------------------------
# criterion 6: search agrees with the brute-force oracle
# ---------------------------------------------------------------------------


def _exhaustive_one_op_pairs():
    ops = [("Enqueue", "a", UNIT), ("Enqueue", "b", UNIT),
           ("Dequeue", UNIT, "a"), ("Dequeue", UNIT, "b"),
           ("Dequeue", UNIT, EMPTY)]
    for (m1, a1, r1), (m2, a2, r2) in itertools.product(ops, repeat=2):
        pair1 = [inv(1, 1, m1, a1), ret(1, 1, r1)]
        pair2 = [inv(2, 2, m2, a2), ret(2, 2, r2)]
        for pattern in itertools.combinations(range(4), 2):
            ev, i1, i2 = [], 0, 0
            for pos in range(4):
                if pos in pattern:
                    ev.append(pair1[i1]); i1 += 1
                else:
                    ev.append(pair2[i2]); i2 += 1
            yield history(ev)


def test_criterion_6_oracle_equivalence():
    from test_checker import random_queue_history

    adt = queue_adt()
    with _timer(120.0) as t:
        disagreements = 0
        total = 0
        for h in _exhaustive_one_op_pairs():
            total += 1
            got = find_linearization(RecordedExecution((), h, False), adt)
            if (got is not None) != queue_linearizable_by_brute_force(h):
                disagreements += 1
        rng = random.Random(20260810)
        for _ in range(400):
            h = random_queue_history(rng, max_ops=5)
            total += 1
            got = find_linearization(RecordedExecution((), h, False), adt)
            if (got is not None) != queue_linearizable_by_brute_force(h):
                disagreements += 1
        ok = disagreements == 0
    _verdict(6, ok and t.elapsed < 120,
             f"search vs brute force on {total} histories, zero disagreements",
             t.elapsed, 120)


# ---------------------------------------------------------------------------
# criterion 7: lock-free queue instance checks
# ---------------------------------------------------------------------------


def test_criterion_7_lock_free_queue_instances():
    with _timer(300.0) as t:
        m = models.ms_model(4)
        ex = explore(MS_TWO_BY_TWO, m)
        recs = recorded_executions(ex)
        assert all(r.terminated for r in recs)  # no divergence, no aborts here

        strict = check_strict(recs, m.seq_spec)

        states = list(models.enumerate_ms_states(4, ("a", "b")))
        rf = specs.RenamingFunction.identity(("Enqueue", "Dequeue"))
        pseudo = check_concurrent_implementation(
            recs, m.seq_spec, specs.pseudo_queue_adt(),
            models.af_pseudo(), rf, states,
        )
        collisions = specs.injectivity_scan(
            models.af_pseudo(), states, models.ms_state_key
        )
        rf_ms = specs.RenamingFunction.of({"Enqueue": "Add", "Dequeue": "Remove"})
        mset = check_concurrent_implementation(
            recs, m.seq_spec, specs.multiset_adt(),
            models.af_multiset(), rf_ms, states,
        )
        ok = (
            strict.passed
            and pseudo.passed
            and not collisions
            and mset.passed
        )
    _verdict(7, ok and t.elapsed < 300,
             "strict + pseudo-queue route (injective) + multiset route",
             t.elapsed, 300)


# ---------------------------------------------------------------------------
# criterion 8: atomic-equivalence controls
# ---------------------------------------------------------------------------

CONTROL_PROGRAMS = [
    TWO_ENQUEUES_ONE_DEQUEUE,
    parse_program(
        "thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }\n"
        "thread { call y2 = Q.Dequeue() ; call Q.Enqueue('b') }"
    ),
    parse_program(
        "thread { call Q.Enqueue('a') ; call Q.Enqueue('b') }\n"
        "thread { call y = Q.Dequeue() ; if y == EMPTY { set z = 0 } else { set z = 1 } }"
    ),
    parse_program(
        "phase { thread { call Q.Enqueue('a') } thread { call y1 = Q.Dequeue() } }\n"
        "phase { thread { call y2 = Q.Dequeue() } thread { call Q.Enqueue('b') } }"
    ),
]


def test_criterion_8_atomic_equivalence_controls():
    with _timer(60.0) as t:
        coarse_ok = True
        for p in CONTROL_PROGRAMS:
            # every outcome explored: no truncation and no approximate set
            sides = explore_both(p, models.coarse_queue_model(4))
            rep = observables_report(*sides)
            coarse_ok &= rep.equal and not any(ex.truncated or ex.approximate for ex in sides)
        hw = compare_observables(TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
        ok = coarse_ok and not hw.states_equal
    _verdict(8, ok and t.elapsed < 60,
             "coarse queue observably atomic on 4 programs; array queue is not",
             t.elapsed, 60)
