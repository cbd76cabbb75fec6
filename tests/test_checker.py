"""Linearization search, strict/general checks, brute-force oracle."""

import collections
import dataclasses
import importlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strictlin import checker, explorer, models, specs
from strictlin.checker import (
    CheckReport,
    RecordedExecution,
    SpecTable,
    brute_force_linearizations,
    check_concurrent_implementation,
    check_general,
    check_strict,
    find_linearization,
    find_strict_linearization,
    recorded_executions,
)
from strictlin.history import (
    History,
    happened_before,
    history,
    inv,
    is_complete,
    is_sequential,
    is_well_formed,
    linearizes,
    parse_history,
    pending,
    ret,
    ret_abort,
    serialize_history,
)
from strictlin.programs import parse_program
from strictlin.reproductions import FIG3_FINAL, FIG3_LEGAL_FINAL, fig3_history
from strictlin.specs import (
    RenamingFunction,
    AbstractionFunction,
    Adt,
    legal_seq_outcomes,
    multiset_adt,
    queue_adt,
)
from strictlin.values import EMPTY, UNIT, value_key

from oracles import linearizes_by_bijection, queue_linearizable_by_brute_force


QUEUE = queue_adt()


def test_empty_history_linearizes_to_empty():
    rec = RecordedExecution((), history([]), True, ())
    lin = find_linearization(rec, QUEUE)
    assert lin.witness == history([]) and lin.strict == history([])
    assert legal_seq_outcomes(QUEUE, (), lin.witness) == {()}


def test_illegal_single_op_has_no_witness():
    h = history([inv(1, 1, "Dequeue", UNIT), ret(1, 1, "x")])
    rec = RecordedExecution((), h, True, ())
    assert find_linearization(rec, QUEUE) is None


def test_fig3_linearization_and_strict_gap():
    m = models.hw_model(4)
    rec = RecordedExecution(m.seq_spec.initial_states[0], fig3_history(), True, FIG3_FINAL)
    lin = find_linearization(rec, m.seq_spec)
    assert lin is not None
    assert legal_seq_outcomes(m.seq_spec, rec.initial_state, lin.witness) == {FIG3_LEGAL_FINAL}
    assert lin.strict is None
    assert find_strict_linearization(rec, m.seq_spec) is None


def test_sequential_execution_is_its_own_strict_witness():
    h = history(
        [inv(1, 1, "Enqueue", "a"), ret(1, 1, UNIT),
         inv(1, 2, "Dequeue", UNIT), ret(1, 2, "a")]
    )
    (final,) = legal_seq_outcomes(QUEUE, (), h)
    rec = RecordedExecution((), h, True, final)
    assert find_strict_linearization(rec, QUEUE) == h


def test_witness_validity_properties():
    m = models.hw_model(4)
    rec = RecordedExecution(m.seq_spec.initial_states[0], fig3_history(), True, FIG3_FINAL)
    lin = find_linearization(rec, m.seq_spec)
    assert is_sequential(lin.witness) and is_complete(lin.witness)
    assert linearizes(lin.completion, lin.witness)
    assert legal_seq_outcomes(m.seq_spec, rec.initial_state, lin.witness)


def test_pending_op_closed_with_spec_allowed_return():
    # a pending dequeue may be closed (returning the enqueued value or EMPTY)
    # or dropped entirely
    h = history(
        [inv(1, 1, "Enqueue", "a"), ret(1, 1, UNIT), inv(2, 2, "Dequeue", UNIT)]
    )
    rec = RecordedExecution((), h, False)
    lin = find_linearization(rec, QUEUE)
    assert lin is not None
    assert pending(lin.completion) == frozenset()


def test_aborted_operation_blocks_linearization():
    h = history([inv(1, 1, "Enqueue", "a"), ret_abort(1, 1)])
    rec = RecordedExecution((), h, False)
    assert find_linearization(rec, QUEUE) is None


def test_strict_requires_terminated():
    h = history([inv(1, 1, "Enqueue", "a")])
    rec = RecordedExecution((), h, False)
    with pytest.raises(ValueError):
        find_strict_linearization(rec, QUEUE)


def test_terminated_execution_refuses_a_pending_operation():
    h = history([inv(1, 1, "Enqueue", "a")])
    with pytest.raises(ValueError, match="^terminated execution with pending operations$"):
        RecordedExecution((), h, True)


def test_strict_requires_a_well_formed_history():
    # nothing is pending, but the response is on another thread
    h = history([inv(1, 1, "Enqueue", "a"), ret(2, 1, UNIT)])
    rec = RecordedExecution((), h, True, ())
    with pytest.raises(ValueError, match="^terminated execution must have a complete history$"):
        find_strict_linearization(rec, QUEUE)


# ---------------------------------------------------------------------------
# the exact witness: ties go to the lowest op id, then outcomes by repr
# ---------------------------------------------------------------------------

PINNED_WITNESSES = [
    pytest.param(
        # op 5 is invoked first, but the overlapping op 3 has the lower id
        QUEUE,
        """t=1 op=5 inv Enqueue 'a'
        t=2 op=3 inv Enqueue 'b'
        t=1 op=5 ret unit
        t=2 op=3 ret unit""",
        """t=2 op=3 inv Enqueue 'b'
        t=2 op=3 ret unit
        t=1 op=5 inv Enqueue 'a'
        t=1 op=5 ret unit""",
        """t=1 op=5 inv Enqueue 'a'
        t=2 op=3 inv Enqueue 'b'
        t=1 op=5 ret unit
        t=2 op=3 ret unit""",
        ["<'b','a'>"],
        id="lowest-op-id-first",
    ),
    pytest.param(
        # the pending dequeue op 1 overlaps everything and is tried first at
        # every level, so it is closed (with 'a') although dropping it works
        QUEUE,
        """t=1 op=1 inv Dequeue unit
        t=2 op=2 inv Enqueue 'a'
        t=2 op=2 ret unit
        t=2 op=3 inv Enqueue 'b'
        t=2 op=3 ret unit
        t=3 op=4 inv Dequeue unit
        t=3 op=4 ret 'b'""",
        """t=2 op=2 inv Enqueue 'a'
        t=2 op=2 ret unit
        t=1 op=1 inv Dequeue unit
        t=1 op=1 ret 'a'
        t=2 op=3 inv Enqueue 'b'
        t=2 op=3 ret unit
        t=3 op=4 inv Dequeue unit
        t=3 op=4 ret 'b'""",
        """t=1 op=1 inv Dequeue unit
        t=2 op=2 inv Enqueue 'a'
        t=2 op=2 ret unit
        t=2 op=3 inv Enqueue 'b'
        t=2 op=3 ret unit
        t=3 op=4 inv Dequeue unit
        t=3 op=4 ret 'b'
        t=1 op=1 ret 'a'""",
        ["<>"],
        id="pending-closed-when-tried-first",
    ),
    pytest.param(
        # the pending enqueue op 4 must take effect before op 6 returns 'c';
        # the pending dequeue op 7 is never needed and is dropped
        QUEUE,
        """t=1 op=1 inv Enqueue 'a'
        t=2 op=2 inv Enqueue 'b'
        t=1 op=1 ret unit
        t=3 op=3 inv Dequeue unit
        t=2 op=2 ret unit
        t=3 op=3 ret 'b'
        t=1 op=4 inv Enqueue 'c'
        t=3 op=5 inv Dequeue unit
        t=3 op=5 ret 'a'
        t=2 op=6 inv Dequeue unit
        t=2 op=6 ret 'c'
        t=3 op=7 inv Dequeue unit""",
        """t=2 op=2 inv Enqueue 'b'
        t=2 op=2 ret unit
        t=1 op=1 inv Enqueue 'a'
        t=1 op=1 ret unit
        t=3 op=3 inv Dequeue unit
        t=3 op=3 ret 'b'
        t=1 op=4 inv Enqueue 'c'
        t=1 op=4 ret unit
        t=3 op=5 inv Dequeue unit
        t=3 op=5 ret 'a'
        t=2 op=6 inv Dequeue unit
        t=2 op=6 ret 'c'""",
        """t=1 op=1 inv Enqueue 'a'
        t=2 op=2 inv Enqueue 'b'
        t=1 op=1 ret unit
        t=3 op=3 inv Dequeue unit
        t=2 op=2 ret unit
        t=3 op=3 ret 'b'
        t=1 op=4 inv Enqueue 'c'
        t=3 op=5 inv Dequeue unit
        t=3 op=5 ret 'a'
        t=2 op=6 inv Dequeue unit
        t=2 op=6 ret 'c'
        t=1 op=4 ret unit""",
        ["<>"],
        id="pending-closed-and-dropped",
    ),
    pytest.param(
        # the pending remove op 3 is tried before op 4 and may take 'a' or
        # 'b', and both lead to a witness; outcomes are tried in repr order,
        # which removes 'b' first
        multiset_adt(),
        """t=1 op=1 inv Add 'a'
        t=1 op=1 ret unit
        t=1 op=2 inv Add 'b'
        t=1 op=2 ret unit
        t=2 op=3 inv Remove unit
        t=1 op=4 inv Add 'a'
        t=1 op=4 ret unit""",
        """t=1 op=1 inv Add 'a'
        t=1 op=1 ret unit
        t=1 op=2 inv Add 'b'
        t=1 op=2 ret unit
        t=2 op=3 inv Remove unit
        t=2 op=3 ret 'b'
        t=1 op=4 inv Add 'a'
        t=1 op=4 ret unit""",
        """t=1 op=1 inv Add 'a'
        t=1 op=1 ret unit
        t=1 op=2 inv Add 'b'
        t=1 op=2 ret unit
        t=2 op=3 inv Remove unit
        t=1 op=4 inv Add 'a'
        t=1 op=4 ret unit
        t=2 op=3 ret 'b'""",
        ["{'a','a'}"],
        id="outcomes-in-repr-order",
    ),
]


def _text(block: str) -> str:
    return "".join(line.strip() + "\n" for line in block.splitlines())


@pytest.mark.parametrize("spec,hist,witness,completion,finals", PINNED_WITNESSES)
def test_witness_and_completion_are_pinned(spec, hist, witness, completion, finals):
    h = parse_history(_text(hist))
    lin = find_linearization(RecordedExecution(spec.initial_states[0], h, False), spec)
    assert serialize_history(lin.witness) == _text(witness)
    assert serialize_history(lin.completion) == _text(completion)
    legal = legal_seq_outcomes(spec, spec.initial_states[0], lin.witness)
    assert sorted(spec.render_state(s) for s in legal) == finals


def test_strict_witness_is_pinned():
    # both orders of the overlapping enqueues are legal; the recorded final
    # state <a,b> forces the one that is not tried first
    h = parse_history(_text(
        """t=1 op=1 inv Enqueue 'b'
        t=2 op=2 inv Enqueue 'a'
        t=1 op=1 ret unit
        t=2 op=2 ret unit"""
    ))
    for final, first in ((("b", "a"), 1), (("a", "b"), 2)):
        w = find_strict_linearization(RecordedExecution((), h, True, final), QUEUE)
        assert w.operations() == (first, 3 - first)
    assert find_strict_linearization(RecordedExecution((), h, True, ("a",)), QUEUE) is None


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def test_two_overlapping_ops_two_linearizations():
    h = history(
        [inv(1, 1, "Enqueue", "a"), inv(2, 2, "Enqueue", "b"),
         ret(1, 1, UNIT), ret(2, 2, UNIT)]
    )
    assert len(brute_force_linearizations(h)) == 2


def test_two_non_overlapping_ops_one_linearization():
    h = history(
        [inv(1, 1, "Enqueue", "a"), ret(1, 1, UNIT),
         inv(2, 2, "Enqueue", "b"), ret(2, 2, UNIT)]
    )
    assert len(brute_force_linearizations(h)) == 1


def test_fig3_has_three_order_consistent_permutations():
    perms = brute_force_linearizations(fig3_history())
    assert len(perms) == 3
    hb = happened_before(fig3_history())
    for p in perms:
        assert hb <= happened_before(p)


def test_bijection_check_agrees_with_canonical_on_samples():
    h = fig3_history()
    for cand in brute_force_linearizations(h):
        assert linearizes(h, cand) and linearizes_by_bijection(h, cand)
    # a history over another thread set is none of them
    one = history([inv(1, 1, "A", UNIT), ret(1, 1, UNIT)])
    assert not linearizes_by_bijection(one, history([inv(2, 1, "A", UNIT), ret(2, 1, UNIT)]))


def test_oracle_size_guard():
    ev = []
    for i in range(1, 9):
        ev += [inv(1, i, "Enqueue", "a"), ret(1, i, UNIT)]
    with pytest.raises(ValueError):
        brute_force_linearizations(history(ev))


def test_oracle_requires_a_complete_history():
    with pytest.raises(ValueError, match="^oracle requires a complete history$"):
        brute_force_linearizations(history([inv(1, 1, "Enqueue", "a")]))


# ---------------------------------------------------------------------------
# oracle agreement on random workloads
# ---------------------------------------------------------------------------


def random_queue_history(rng: random.Random, max_ops=4, pending_rate=0.35):
    streams = []
    opid = 0
    budget = max_ops
    for t in (1, 2):
        ops = []
        take = rng.randint(1, max(1, budget - (2 - t)))
        budget -= take
        for _ in range(take):
            opid += 1
            if rng.random() < 0.5:
                ops.append((inv(t, opid, "Enqueue", rng.choice("ab")), ret(t, opid, UNIT)))
            else:
                ops.append(
                    (inv(t, opid, "Dequeue", UNIT), ret(t, opid, rng.choice(["a", "b", EMPTY])))
                )
        flat = [e for p in ops for e in p]
        if rng.random() < pending_rate:
            flat = flat[:-1]
        streams.append(flat)
    merged = []
    while any(streams):
        s = rng.choice([s for s in streams if s])
        merged.append(s.pop(0))
    return history(merged)


def test_search_agrees_with_oracle_on_random_histories():
    rng = random.Random(7)
    for _ in range(150):
        h = random_queue_history(rng)
        got = find_linearization(RecordedExecution((), h, False), QUEUE)
        assert (got is not None) == queue_linearizable_by_brute_force(h), h


def test_strict_search_agrees_with_oracle_on_random_complete_histories():
    # the oracle's reachable finals: every legal final of every permutation
    # the history linearizes to; one state outside them must be refused
    rng = random.Random(11)
    states = [s for n in range(4) for s in itertools.product("ab", repeat=n)]
    reached = 0
    for _ in range(300):
        h = random_queue_history(rng, max_ops=5, pending_rate=0.0)
        witnesses: dict[tuple, set] = {}
        for perm in brute_force_linearizations(h):
            for final in legal_seq_outcomes(QUEUE, (), perm):
                witnesses.setdefault(final, set()).add(perm)
        unreachable = next(s for s in states if s not in witnesses)
        for final in [*witnesses, unreachable]:
            w = find_strict_linearization(RecordedExecution((), h, True, final), QUEUE)
            if final in witnesses:
                assert w in witnesses[final], (h, final)
                reached += 1
            else:
                assert w is None, (h, final)
    assert reached > 50


def test_witness_properties_on_random_pending_histories():
    rng = random.Random(13)
    with_pending = 0
    for _ in range(200):
        h = random_queue_history(rng, max_ops=5)
        lin = find_linearization(RecordedExecution((), h, False), QUEUE)
        if lin is None:
            continue
        with_pending += bool(pending(h))
        assert is_complete(lin.completion)
        assert is_sequential(lin.witness) and is_complete(lin.witness)
        assert linearizes(lin.completion, lin.witness)
        assert legal_seq_outcomes(QUEUE, (), lin.witness)
    assert with_pending > 20


# ---------------------------------------------------------------------------
# whole-execution-set checks
# ---------------------------------------------------------------------------


def _coarse_recs():
    p = parse_program(
        "thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }\n"
        "thread { call y2 = Q.Dequeue() }"
    )
    m = models.coarse_queue_model(4)
    return m, recorded_executions(explorer.explore(p, m))


def test_check_strict_coarse_queue_passes():
    m, recs = _coarse_recs()
    rep = check_strict(recs, m.seq_spec)
    assert rep.passed
    assert all(e.witness is not None for e in rep.entries)


def test_check_strict_empty_execution_set_passes():
    m = models.coarse_queue_model()
    assert check_strict([], m.seq_spec).passed


def test_monotonicity_strict_implies_general_with_identity_abstraction():
    m, recs = _coarse_recs()
    assert check_strict(recs, m.seq_spec).passed
    ident_adt = Adt(
        name="coarse-as-adt",
        methods=dict(m.seq_spec.methods),
        initial_states=m.seq_spec.initial_states,
        render_state=m.seq_spec.render_state,
    )
    af = AbstractionFunction("identity", lambda s: s)
    rf = RenamingFunction.identity(m.method_names())
    assert check_general(recs, ident_adt, af, rf).passed


def test_check_general_fails_on_lost_element():
    # a model that drops every second enqueue has histories no queue allows
    h = history(
        [inv(1, 1, "Enqueue", "a"), ret(1, 1, UNIT),
         inv(1, 2, "Enqueue", "b"), ret(1, 2, UNIT),
         inv(2, 3, "Dequeue", UNIT), ret(2, 3, "b")]
    )
    rec = RecordedExecution((), h, True, ())
    af = AbstractionFunction("identity", lambda s: s)
    rf = RenamingFunction.identity(("Enqueue", "Dequeue"))
    rep = check_general([rec], QUEUE, af, rf)
    assert not rep.passed and rep.failing()


def test_check_reports_are_deterministic():
    m, recs = _coarse_recs()
    a = check_strict(recs, m.seq_spec)
    b = check_strict(recs, m.seq_spec)
    assert a == b
    assert a.lines() == b.lines()


def test_recorded_executions_canonicalize_ms_node_names():
    p = parse_program(
        "thread { call Q.Enqueue('a') }\nthread { call Q.Enqueue('b') }"
    )
    m = models.ms_model(4)
    recs = recorded_executions(explorer.explore(p, m))
    keys = {
        (checker.serialize_history(r.history), models.ms_state_key(r.final_state))
        for r in recs
    }
    assert len(keys) == len(recs)


def test_concurrent_implementation_check_coarse_vs_queue():
    m, recs = _coarse_recs()
    af = AbstractionFunction("contents", lambda s: s[-1])
    rf = RenamingFunction.identity(("Enqueue", "Dequeue"))
    states = [(4, s) for s in [(), ("a",), ("b", "a")]]
    rep = check_concurrent_implementation(recs, m.seq_spec, QUEUE, af, rf, states)
    assert rep.passed and rep.impl.ok
    # one entry per execution
    assert [e.execution for e in rep.entries] == list(recs)


def test_concurrent_implementation_entry_needs_final_state_agreement():
    # reversed contents: every history linearizes, but two enqueues end in
    # a state no abstract execution reaches
    p = parse_program("thread { call Q.Enqueue('a') ; call Q.Enqueue('b') }")
    m = models.coarse_queue_model(4)
    (rec,) = recorded_executions(explorer.explore(p, m))
    af = AbstractionFunction("reversed", lambda s: s[-1][::-1])
    rf = RenamingFunction.identity(("Enqueue", "Dequeue"))
    assert check_general([rec], QUEUE, af, rf).passed
    rep = check_concurrent_implementation([rec], m.seq_spec, QUEUE, af, rf, [])
    (entry,) = rep.entries
    assert not rep.passed and not entry.ok
    assert entry.detail.startswith("no abstract linearization reaches the abstracted final state")
    assert rep.lines()[0] == "mode=impl verdict=fail executions=1"


def test_concurrent_implementation_entry_fails_outside_the_abstraction_domain():
    # a terminated execution whose final state the abstraction does not map
    # fails its entry; the general check never abstracts a final state
    p = parse_program("thread { call Q.Enqueue('a') }")
    m = models.coarse_queue_model(4)
    (rec,) = recorded_executions(explorer.explore(p, m))
    af = AbstractionFunction("empty-only", lambda s: s[-1], lambda s: not s[-1])
    rf = RenamingFunction.identity(("Enqueue", "Dequeue"))
    assert check_general([rec], QUEUE, af, rf).passed
    rep = check_concurrent_implementation([rec], m.seq_spec, QUEUE, af, rf, [])
    (entry,) = rep.entries
    assert not rep.passed and not entry.ok
    assert entry.detail == "final state outside the domain of empty-only"


# ---------------------------------------------------------------------------
# the array queue over its whole bounded execution set
# ---------------------------------------------------------------------------


def _hw_recs():
    from strictlin.reproductions import TWO_ENQUEUES_ONE_DEQUEUE

    m = models.hw_model(4)
    return m, recorded_executions(explorer.explore(TWO_ENQUEUES_ONE_DEQUEUE, m))


def test_hw_bounded_executions_fail_strict_with_contrast_witness():
    m, recs = _hw_recs()
    rep = check_strict(recs, m.seq_spec)
    assert not rep.passed
    # every failing execution exhibits the slot/value mismatch: the recorded
    # final state is never among the legal sequential finals
    for e in rep.failing():
        lin = find_linearization(e.execution, m.seq_spec)
        assert lin is not None  # linearizable in the classical sense
        finals = legal_seq_outcomes(m.seq_spec, e.execution.initial_state, lin.witness)
        assert e.execution.final_state not in finals
    assert any(e.execution.history == fig3_history() for e in rep.failing())


def test_hw_bounded_executions_pass_general_vs_queue_adt():
    m, recs = _hw_recs()
    rf = RenamingFunction.identity(("Enqueue", "Dequeue"))
    rep = check_general(recs, queue_adt(), models.af_hw_prefix(), rf)
    assert rep.passed


_IDENTITY_AF = AbstractionFunction("identity", lambda s: s)


@pytest.mark.parametrize("atomic,mode,args,message", [
    (False, "stritc", (), "unknown mode 'stritc': expected strict, general or impl"),
    (False, "general", (), "general mode needs an adt and an abstraction function"),
    (False, "general", (QUEUE,), "general mode needs an adt and an abstraction function"),
    (False, "impl", (None, _IDENTITY_AF), "impl mode needs an adt and an abstraction function"),
    (True, "impl", (QUEUE, _IDENTITY_AF), "impl mode needs a state sampler: adt-queue has none"),
], ids=["unknown-mode", "general-no-adt", "general-no-af", "impl-no-adt", "impl-atomic"])
def test_check_exploration_rejects_bad_input_before_recording(atomic, mode, args, message,
                                                              monkeypatch):
    prog = parse_program("thread { call Q.Enqueue('a') }")
    ex = (explorer.run_atomic(prog, QUEUE) if atomic
          else explorer.explore(prog, models.coarse_queue_model()))
    monkeypatch.setattr(checker, "recorded_executions", lambda ex: pytest.fail("recorded"))
    with pytest.raises(ValueError) as exc:
        checker.check_exploration(ex, mode, *args)
    assert str(exc.value) == message


def test_strict_witness_final_state_membership():
    # for every strict witness the recorded final state is a legal outcome
    p = parse_program(
        "thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }\n"
        "thread { call Q.Enqueue('b') ; call y2 = Q.Dequeue() }"
    )
    m = models.ms_model(4)
    recs = recorded_executions(explorer.explore(p, m))
    rep = check_strict(recs, m.seq_spec)
    assert rep.passed
    key = m.seq_spec.state_key
    for e in rep.entries:
        finals = legal_seq_outcomes(m.seq_spec, e.execution.initial_state, e.witness)
        assert key(e.execution.final_state) in {key(s) for s in finals}


# ---------------------------------------------------------------------------
# one spec table per check: sharing it never changes a result
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"
STRICT_QIDS = ["strict/ms-2x2", "strict/fig2", "impl-pseudo/ms-2x2", "strict/hw-2+2",
               "impl-multiset/ms-2x2"]


def _fields(e):
    return (e.ok, e.witness, e.completion, e.detail)


def _assert_shared_equals_fresh(check, execs, spec, *args):
    """One ``check`` call over ``execs`` equals one call per execution, each
    with its own fresh table, entry by entry and line by line."""
    whole = check(execs, spec, *args)
    singles = [check([ex], spec, *args) for ex in execs]
    expected = [e for s in singles for e in s.entries]
    assert len(whole.entries) == len(expected)
    for got, want in zip(whole.entries, expected):
        assert got.execution == want.execution
        assert _fields(got) == _fields(want), serialize_history(got.execution.history)
    rebuilt = CheckReport(whole.mode, whole.passed, tuple(expected), whole.impl)
    assert whole.passed == all(s.passed for s in singles)
    assert whole.lines() == rebuilt.lines()
    return whole


def _bench_query(monkeypatch, qid):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    (q,) = [q for q in workloads.STRICT_QUERIES if q[0] == qid]
    _, prog_name, ref, mode, adt_name, af_name, rename = q
    model = models.parse_model_ref(ref)
    recs = recorded_executions(
        explorer.explore(parse_program(workloads.PROGRAMS[prog_name]), model))
    if mode == "strict":
        return recs, check_strict, (model.seq_spec,)
    adt = specs.get_spec(adt_name)
    rf = (RenamingFunction.of(rename) if rename
          else RenamingFunction.identity(model.method_names()))
    states = list(model.enumerate_states(("a", "b")))
    args = (model.seq_spec, adt, specs.get_af(af_name), rf, states)
    return recs, check_concurrent_implementation, args


@pytest.mark.parametrize("qid", STRICT_QIDS)
def test_shared_table_equals_fresh_tables_on_benchmark_queries(qid, monkeypatch):
    recs, check, args = _bench_query(monkeypatch, qid)
    whole = _assert_shared_equals_fresh(check, recs, *args)
    assert whole.passed == (qid != "strict/fig2")
    # the same executions in reverse order fill the table in another order
    backward = _assert_shared_equals_fresh(check, recs[::-1], *args)
    if check is check_strict:
        assert backward.entries == whole.entries[::-1]


@pytest.mark.parametrize("qid", ["strict/ms-2x2", "impl-pseudo/ms-2x2",
                                 "impl-multiset/ms-2x2", "strict/hw-2+2"])
def test_passing_witnesses_replay_onto_their_final_states(qid, monkeypatch):
    """Every passing entry's witness is legal from the (abstracted) initial
    state, and an entry checked onto its final state, a terminated one,
    carries a witness that can end there and no completion."""
    recs, check, args = _bench_query(monkeypatch, qid)
    if check is check_strict:
        (spec,), af = args, (lambda s: s)
    else:
        _, spec, af, _, _ = args
    key = spec.state_key
    passing = [e for e in check(recs, *args).entries if e.ok]
    assert passing
    for e in passing:
        ex = e.execution
        finals = {key(s) for s in legal_seq_outcomes(spec, af(ex.initial_state), e.witness)}
        assert finals, serialize_history(e.witness)
        if ex.terminated:
            assert key(af(ex.final_state)) in finals, serialize_history(ex.history)
        assert (e.completion is None) == ex.terminated


def test_shared_table_equals_fresh_tables_on_ms_state_keys():
    # ms-queue states with different node names share a state key
    m = models.ms_model(4)
    p = parse_program(
        "thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }\n"
        "thread { call Q.Enqueue('b') }"
    )
    recs = recorded_executions(explorer.explore(p, m))
    key = m.seq_spec.state_key
    assert any(key(r.final_state) != r.final_state for r in recs if r.terminated)
    _assert_shared_equals_fresh(check_strict, recs, m.seq_spec)
    rf = RenamingFunction.identity(m.method_names())
    _assert_shared_equals_fresh(check_general, recs, QUEUE, models.af_queue(), rf)


def _silent_bag() -> Adt:
    """A multiset whose Remove takes any element and returns unit, so a
    witness may end in several legal final states."""
    base = multiset_adt()
    remove = base.methods["Remove"]
    return Adt(
        name="silent-bag",
        methods={"Add": base.methods["Add"],
                 "Remove": lambda s, _: [(s2, UNIT) for s2, _ in remove(s, UNIT)]},
        initial_states=base.initial_states,
        render_state=base.render_state,
    )


@pytest.mark.parametrize("spec", [multiset_adt(), _silent_bag()],
                         ids=["adt-multiset", "silent-bag"])
def test_shared_table_equals_fresh_tables_on_nondeterministic_adts(spec):
    p = parse_program(
        "thread { call Q.Add('a') ; call y = Q.Remove() }\n"
        "thread { call Q.Add('b') ; call Q.Add('a') }\n"
        "thread { call z = Q.Remove() }"
    )
    recs = recorded_executions(explorer.run_atomic(p, spec))
    rep = _assert_shared_equals_fresh(check_strict, recs, spec)
    assert rep.passed
    if spec.name == "silent-bag":
        assert max(len(legal_seq_outcomes(spec, e.execution.initial_state, e.witness))
                   for e in rep.entries) > 1
    rf = RenamingFunction.identity(("Add", "Remove"))
    af = AbstractionFunction("identity", lambda s: s)
    _assert_shared_equals_fresh(check_concurrent_implementation, recs, spec, spec, af, rf,
                                [(), ("a",), ("a", "b")])


_CALLS = st.sampled_from([
    "call Q.Enqueue('a')",
    "call Q.Enqueue('b')",
    "call Q.Enqueue(x)",  # aborts: x is never bound
    "call y = Q.Dequeue()",
])


# at most four calls: three threads of two calls give some 35,000 coarse-queue
# executions, each checked twice here
@given(st.lists(st.lists(_CALLS, min_size=1, max_size=2), min_size=1, max_size=3)
       .filter(lambda threads: sum(map(len, threads)) <= 4))
@settings(max_examples=25, deadline=None)
def test_shared_table_equals_fresh_tables_on_generated_programs(threads):
    p = parse_program("\n".join("thread { " + " ; ".join(t) + " }" for t in threads))
    coarse, hw = models.coarse_queue_model(), models.hw_model(2)
    sides = [
        (coarse, AbstractionFunction("contents", lambda s: s[-1]),
         [(4, s) for s in [(), ("a",), ("b", "a")]]),
        (hw, models.af_hw_prefix(), list(hw.enumerate_states(("a", "b")))),
    ]
    for m, af, states in sides:
        recs = recorded_executions(explorer.explore(p, m))
        spec = m.seq_spec
        _assert_shared_equals_fresh(check_strict, recs, spec)
        rf = RenamingFunction.identity(m.method_names())
        _assert_shared_equals_fresh(check_concurrent_implementation, recs, spec, QUEUE,
                                    af, rf, states)


def test_check_strict_applies_each_spec_step_once():
    p = parse_program(
        "thread { call Q.Enqueue('c') }\nthread { call Q.Enqueue('d') }\n"
        "thread { call y1 = Q.Dequeue() }\nthread { call y2 = Q.Dequeue() }"
    )
    m = models.hw_model(4)
    recs = recorded_executions(explorer.explore(p, m))
    assert len(recs) == 4528
    applied = collections.Counter()

    def counting(name, rel):
        def counted(state, arg):
            applied[name, arg, state] += 1
            return rel(state, arg)
        return counted

    spec = dataclasses.replace(
        m.seq_spec, methods={k: counting(k, r) for k, r in m.seq_spec.methods.items()})
    rep = check_strict(recs, spec)
    assert applied and max(applied.values()) == 1
    assert rep == check_strict(recs, m.seq_spec)


# ---------------------------------------------------------------------------
# one search per recorded execution
# ---------------------------------------------------------------------------


def _counting_searches(monkeypatch):
    calls = []
    search = checker.find_linearization

    def counted(exec, spec, **kw):
        calls.append(exec)
        return search(exec, spec, **kw)

    monkeypatch.setattr(checker, "find_linearization", counted)
    return calls


def test_each_check_searches_once_per_recorded_execution(monkeypatch):
    m, recs = _hw_recs()
    adt, af = queue_adt(), models.af_hw_prefix()
    rf = RenamingFunction.identity(m.method_names())
    states = list(m.enumerate_states(("a", "b")))
    checks = {
        "strict": lambda: check_strict(recs, m.seq_spec),
        "general": lambda: check_general(recs, adt, af, rf),
        "impl": lambda: check_concurrent_implementation(recs, m.seq_spec, adt, af, rf, states),
    }
    for mode, run in checks.items():
        calls = _counting_searches(monkeypatch)
        rep = run()
        assert len(calls) == len(rep.entries) == len(recs), mode
        # a strict or impl search carries the final state, a general one not
        assert [c.terminated for c in calls] == [r.terminated and mode != "general"
                                                 for r in recs], mode
    assert not check_strict(recs, m.seq_spec).passed


def _abstracted(ex, af, rf):
    """``ex`` as an implementation check searches it: states mapped by
    ``af``, methods renamed by ``rf``."""
    return RecordedExecution(
        af(ex.initial_state),
        checker._renamed(ex.history, rf),
        ex.terminated,
        af(ex.final_state) if ex.terminated else None,
    )


def _assert_valid(h):
    """``h`` passes the checks of the public constructor and is well-formed."""
    assert History(h.events) == h and is_well_formed(h), serialize_history(h)


def _assert_one_search_contract(execs, spec):
    """``find_linearization`` on each execution: its witness and completion
    are those of the search without a target (the same history marked not
    terminated), and a strict witness exists exactly when some sequential
    permutation the history linearizes to has a legal final state with the
    recorded final key.  Every history the checker builds unchecked, the
    (abstracted) execution's own and each search's, is valid."""
    key = spec.state_key
    perms = {}
    for ex in execs:
        lin = find_linearization(ex, spec)
        plain = find_linearization(RecordedExecution(ex.initial_state, ex.history, False), spec)
        assert (lin is None) == (plain is None)
        _assert_valid(ex.history)
        if lin is not None:
            assert (lin.witness, lin.completion) == (plain.witness, plain.completion)
            for h in (lin.witness, lin.completion, lin.strict):
                if h is not None:
                    _assert_valid(h)
        if not ex.terminated:
            assert lin is None or lin.strict is None
            continue
        if ex.history not in perms:
            perms[ex.history] = brute_force_linearizations(ex.history)
        want = key(ex.final_state)
        reach = {p for p in perms[ex.history]
                 if want in {key(s) for s in legal_seq_outcomes(spec, ex.initial_state, p)}}
        strict = lin and lin.strict
        assert (strict is not None) == bool(reach), serialize_history(ex.history)
        assert strict is None or strict in reach


@pytest.mark.parametrize("qid", STRICT_QIDS)
def test_one_search_matches_oracles_on_benchmark_queries(qid, monkeypatch):
    recs, check, args = _bench_query(monkeypatch, qid)
    assert max(len(r.history) for r in recs) <= 8  # at most 4 operations
    if check is check_strict:
        _assert_one_search_contract(recs, *args)
    else:
        _, adt, af, rf, _ = args
        _assert_one_search_contract([_abstracted(r, af, rf) for r in recs], adt)


@given(st.lists(st.lists(_CALLS, min_size=1, max_size=2), min_size=1, max_size=3)
       .filter(lambda threads: sum(map(len, threads)) <= 4))
@settings(max_examples=20, deadline=None)
def test_one_search_matches_oracles_on_generated_programs(threads):
    p = parse_program("\n".join("thread { " + " ; ".join(t) + " }" for t in threads))
    rf = RenamingFunction.identity(("Dequeue", "Enqueue"))
    for m, af in [(models.coarse_queue_model(), AbstractionFunction("contents", lambda s: s[-1])),
                  (models.hw_model(2), models.af_hw_prefix())]:
        recs = recorded_executions(explorer.explore(p, m))
        _assert_one_search_contract(recs, m.seq_spec)
        _assert_one_search_contract([_abstracted(r, af, rf) for r in recs], QUEUE)
    # renamed methods: every history is rebuilt, unchecked, by the abstraction
    bag = AbstractionFunction("bag", lambda s: tuple(sorted(s[-1], key=value_key)))
    to_bag = RenamingFunction.of({"Enqueue": "Add", "Dequeue": "Remove"})
    for r in recorded_executions(explorer.explore(p, models.coarse_queue_model())):
        a = _abstracted(r, bag, to_bag)
        _assert_valid(a.history)
        for ex in (a, RecordedExecution(a.initial_state, a.history, False)):
            lin = find_linearization(ex, multiset_adt())
            for h in () if lin is None else (lin.witness, lin.completion, lin.strict):
                if h is not None:
                    _assert_valid(h)


def test_table_of_another_spec_is_refused():
    rec = RecordedExecution((), history([]), True, ())
    with pytest.raises(ValueError):
        find_linearization(rec, QUEUE, table=SpecTable(multiset_adt()))


# ---------------------------------------------------------------------------
# one search per distinct problem: every entry is that of a fresh search
# ---------------------------------------------------------------------------


def _fresh_entry(ex, spec, abstraction=None, finals=True):
    """The verdict, witness, completion and detail of ``ex``'s entry, from
    its own ``find_linearization`` with a fresh table: the checker's witness
    rule restated."""
    onto_final = finals and ex.terminated
    a = ex if abstraction is None else _abstracted(ex, *abstraction)
    a = RecordedExecution(a.initial_state, a.history, onto_final,
                          a.final_state if onto_final else None)
    lin = find_linearization(a, spec)
    if lin is None:
        return (False, None, None, "no abstract linearization" if abstraction
                else "no linearization exists" if ex.terminated
                else "no completion linearizes")
    if not onto_final:
        return True, lin.witness, lin.completion, ""
    if lin.strict is None:
        missed = ("no linearization reaches the recorded final state" if abstraction is None
                  else "no abstract linearization reaches the abstracted final state")
        return False, None, None, f"{missed} {spec.render_state(a.final_state)}"
    return True, lin.strict, None, ""


def _assert_memo_equals_fresh(rep, execs, spec, abstraction=None, finals=True):
    assert [e.execution for e in rep.entries] == list(execs)
    for e in rep.entries:
        want = _fresh_entry(e.execution, spec, abstraction, finals)
        assert _fields(e) == want, serialize_history(e.execution.history)
    assert 0 < rep.searches <= len(execs) or rep.searches == len(execs) == 0


def _assert_checks_equal_fresh(execs, check, args):
    """``check`` over ``execs`` (a strict or implementation check, with the
    arguments ``_bench_query`` gives) equals one fresh search per execution;
    an implementation check's execution set also runs as a general check."""
    rep = check(execs, *args)
    if check is check_strict:
        _assert_memo_equals_fresh(rep, execs, *args)
        return
    _, adt, af, rf, _ = args
    _assert_memo_equals_fresh(rep, execs, adt, (af, rf))
    _assert_memo_equals_fresh(check_general(execs, adt, af, rf), execs, adt, (af, rf),
                              finals=False)


@pytest.mark.parametrize("qid", STRICT_QIDS)
def test_memoized_checks_equal_fresh_searches_on_benchmark_queries(qid, monkeypatch):
    recs, check, args = _bench_query(monkeypatch, qid)
    _assert_checks_equal_fresh(recs, check, args)


def test_memoized_checks_equal_fresh_searches_on_hw_2_plus_2(monkeypatch):
    recs, _, (spec,) = _bench_query(monkeypatch, "strict/hw-2+2")
    m = models.hw_model(4)
    states = list(m.enumerate_states(("a", "b")))
    rf = RenamingFunction.identity(m.method_names())
    args = (spec, queue_adt(), models.af_hw_prefix(), rf, states)
    _assert_checks_equal_fresh(recs, check_concurrent_implementation, args)


@given(st.lists(st.lists(_CALLS, min_size=1, max_size=2), min_size=1, max_size=3)
       .filter(lambda threads: sum(map(len, threads)) <= 4))
@settings(max_examples=20, deadline=None)
def test_memoized_checks_equal_fresh_searches_on_generated_programs(threads):
    p = parse_program("\n".join("thread { " + " ; ".join(t) + " }" for t in threads))
    for m, af in [(models.coarse_queue_model(), AbstractionFunction("contents", lambda s: s[-1])),
                  (models.hw_model(2), models.af_hw_prefix())]:
        recs = recorded_executions(explorer.explore(p, m))
        _assert_checks_equal_fresh(recs, check_strict, (m.seq_spec,))
        rf = RenamingFunction.identity(m.method_names())
        args = (m.seq_spec, QUEUE, af, rf, list(m.enumerate_states(("a", "b"))))
        _assert_checks_equal_fresh(recs, check_concurrent_implementation, args)


def _overlap(deq_end, enq_arg="a", deq_first=False):
    """An Enqueue(``enq_arg``) and a Dequeue that overlap, or with
    ``deq_first`` the Dequeue returning before the Enqueue starts; the
    Dequeue closed by ``deq_end``, an event or None for pending."""
    enq = [inv(1, 1, "Enqueue", enq_arg), ret(1, 1, UNIT)]
    deq = [inv(2, 2, "Dequeue", UNIT)] + ([] if deq_end is None else [deq_end])
    if deq_first:
        return history(deq + enq)
    return history([enq[0], deq[0], enq[1]] + deq[1:])


def test_memo_key_tells_apart_each_field_of_a_problem():
    """Executions whose problems differ in exactly one field, each right
    after the one it differs from, in one check: a key without that field
    hands the second the first's result."""
    back = ret(2, 2, "a")
    base = RecordedExecution((), _overlap(back), True, ())  # passes
    variants = [
        RecordedExecution(("b",), _overlap(back), True, ()),  # start state
        RecordedExecution((), _overlap(back), True, ("a",)),  # final-state key
        RecordedExecution((), _overlap(ret(2, 2, "b")), True, ()),  # a response
        RecordedExecution((), _overlap(back, enq_arg="b"), True, ()),  # an argument
        RecordedExecution((), _overlap(back, deq_first=True), True, ()),  # predecessors
    ]
    running = RecordedExecution((), _overlap(back), False)  # passes
    aborted = RecordedExecution((), _overlap(ret_abort(2, 2)), False)  # abort, not a return
    dropped = RecordedExecution((), _overlap(None), False)  # pending, passes
    execs = [e for v in variants for e in (base, v)] + [running, aborted, dropped, aborted]
    for order in (execs, execs[::-1]):
        rep = check_strict(order, QUEUE)
        _assert_memo_equals_fresh(rep, order, QUEUE)
        assert rep.searches == 9
    verdicts = [e.ok for e in check_strict(execs, QUEUE).entries]
    assert verdicts == [True, False] * len(variants) + [True, False, True, False]


def test_check_report_counts_distinct_searches(monkeypatch):
    recs, _, (spec,) = _bench_query(monkeypatch, "strict/hw-2+2")
    assert (len(recs), check_strict(recs, spec).searches) == (4528, 352)
    assert check_strict(recs[:1], spec).searches == 1
    assert check_strict(recs[:1] * 3, spec).searches == 1
    assert check_strict([], spec).searches == 0
