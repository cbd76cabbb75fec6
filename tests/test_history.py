"""Histories: projections, completions, happened-before, linearization."""

import copy
import itertools
import os
import pickle
import random
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import strictlin
from oracles import happened_before_by_scan
from strictlin.checker import RecordedExecution, find_linearization
from strictlin.history import (
    Act,
    Event,
    History,
    HistoryError,
    HistoryParseError,
    Inv,
    RetAbort,
    completions,
    happened_before,
    history,
    inv,
    is_complete,
    is_sequential,
    is_well_formed,
    linearizes,
    operation_table,
    parse_history,
    pending,
    project_thread,
    ret,
    ret_abort,
    serialize_history,
)
from strictlin.history import _EVENT_LINE, _parse_event
from strictlin.specs import SeqSpec, queue_adt
from strictlin.values import EMPTY, NULL, UNIT, VALUE_TEXT, parse_value, render_value


def fig3():
    return history(
        [
            inv(1, 101, "Enqueue", "c"),
            inv(2, 201, "Enqueue", "d"),
            ret(2, 201, UNIT),
            inv(3, 301, "Dequeue", UNIT),
            ret(3, 301, "d"),
            ret(1, 101, UNIT),
        ]
    )


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


def test_reserved_values_distinct():
    assert len({NULL, EMPTY, UNIT, 0, "null"}) == 5


@pytest.mark.parametrize("v", [0, -3, 17, "c", "x1", NULL, EMPTY, UNIT])
def test_value_round_trip(v):
    assert parse_value(render_value(v)) == v


@pytest.mark.parametrize("v", [True, object()], ids=["bool", "object"])
def test_render_value_refuses_a_non_value(v):
    with pytest.raises(TypeError, match=f"^{re.escape(f'not a history value: {v!r}')}$"):
        render_value(v)


# integer text that ``int`` reads but ``render_value`` never writes
NON_CANONICAL_INTS = ["1_000", "+5", " 5", "5 ", "\u0663", "05", "-0", "00", "-"]


@pytest.mark.parametrize("token", NON_CANONICAL_INTS)
def test_non_canonical_integer_text_is_rejected(token):
    with pytest.raises(ValueError):
        parse_value(token)


# tokens near the value syntax: quotes, whitespace, digits, signs, letters
VALUE_LIKE = st.one_of(
    st.from_regex(VALUE_TEXT, fullmatch=True),
    st.text(alphabet="'a1-0 \t\n\u00a0\u0663lnu", max_size=6),
    st.builds("'{}'".format, st.text(max_size=4)),
)


@given(VALUE_LIKE)
@example("'a b'")
@example("'a\tb'")
@example("' a'")
@settings(max_examples=300, deadline=None)
def test_parse_value_accepts_exactly_value_text(token):
    # the history parser, the program lexer and --init read the same tokens
    if re.fullmatch(VALUE_TEXT, token):
        assert render_value(parse_value(token)) == token
    else:
        with pytest.raises(ValueError):
            parse_value(token)


# ---------------------------------------------------------------------------
# projections and shape predicates
# ---------------------------------------------------------------------------


def test_project_empty():
    assert project_thread(history([]), 1) == history([])


def test_project_keeps_order():
    h = history([inv(1, 1, "Enqueue", "c"), inv(2, 2, "Dequeue", UNIT), ret(1, 1, UNIT)])
    assert project_thread(h, 1).events == (h[0], h[2])


def test_well_formed_empty():
    assert is_well_formed(history([]))


def test_two_pending_on_one_thread_not_well_formed():
    h = history([inv(1, 1, "Enqueue", "c"), inv(1, 2, "Enqueue", "d")])
    assert not is_well_formed(h)


def test_interleaved_two_threads_well_formed():
    h = history([inv(1, 1, "A", UNIT), inv(2, 2, "B", UNIT), ret(1, 1, UNIT), ret(2, 2, UNIT)])
    assert is_well_formed(h)
    assert not is_sequential(h)


def test_sequential():
    h = history([inv(1, 1, "A", UNIT), ret(1, 1, UNIT), inv(2, 2, "B", UNIT), ret(2, 2, UNIT)])
    assert is_sequential(h)


def test_sequential_trailing_invocation_ok():
    h = history([inv(1, 1, "A", UNIT), ret(1, 1, UNIT), inv(2, 2, "B", UNIT)])
    assert is_sequential(h)
    assert pending(h) == {2}


def test_pending():
    assert pending(fig3()) == frozenset()
    h = history([inv(1, 1, "A", UNIT), inv(2, 2, "B", UNIT), ret(1, 1, UNIT)])
    assert pending(h) == {2}
    # an abort closes its operation; a response counts wherever it stands
    h = history([inv(1, 1, "A", UNIT), ret_abort(1, 1), ret(2, 2, UNIT), inv(2, 2, "B", UNIT)])
    assert pending(h) == frozenset()


def test_duplicate_invocation_rejected():
    with pytest.raises(HistoryError):
        history([inv(1, 1, "A", UNIT), inv(2, 1, "A", UNIT)])


def test_interface_event_needs_an_operation_id():
    message = ("interface event without operation id: "
               "Event(thread=1, label=Inv(method='A', arg=unit), op=None)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Event(1, Inv("A", UNIT))


def test_history_refuses_an_action_event():
    message = "non-interface event in history: Event(thread=1, label=Act(action='x:=1'), op=None)"
    with pytest.raises(HistoryError, match=f"^{re.escape(message)}$"):
        History((Event(1, Act("x:=1")),))


# ---------------------------------------------------------------------------
# completions
# ---------------------------------------------------------------------------


def _count_completions_by_choice_tree(k: int) -> int:
    # independent derivation: choose the closed subset, then an append order
    return sum(
        len(list(itertools.permutations(range(len(s)))))
        for r in range(k + 1)
        for s in itertools.combinations(range(k), r)
    )


def test_completions_complete_history_is_identity():
    h = fig3()
    assert list(completions(h, {})) == [h]


def test_completions_single_pending():
    h = history([inv(1, 1, "A", UNIT)])
    got = list(completions(h, {1: (UNIT,)}))
    assert len(got) == 2  # drop it, or close it
    assert history([]) in got
    assert history([inv(1, 1, "A", UNIT), ret(1, 1, UNIT)]) in got


def test_completions_two_pending_counts():
    h = history([inv(1, 1, "A", UNIT), inv(2, 2, "B", UNIT)])
    got = list(completions(h, {1: (UNIT,), 2: (UNIT,)}))
    assert len(got) == _count_completions_by_choice_tree(2) == 5


def test_completions_all_complete_and_well_formed():
    h = history(
        [inv(1, 1, "A", UNIT), inv(2, 2, "B", UNIT), ret(1, 1, UNIT), inv(3, 3, "C", UNIT)]
    )
    cands = {2: (UNIT, EMPTY), 3: ("a",)}
    out = list(completions(h, cands))
    assert all(is_complete(c) for c in out)
    # closed aborts stay closed: they are not pending
    ha = history([inv(1, 1, "A", UNIT), ret_abort(1, 1)])
    assert list(completions(ha, {})) == [ha]


# ---------------------------------------------------------------------------
# happened-before
# ---------------------------------------------------------------------------


def test_happened_before_sequential_total():
    h = history(
        [inv(1, 1, "A", UNIT), ret(1, 1, UNIT), inv(1, 2, "B", UNIT), ret(1, 2, UNIT),
         inv(2, 3, "C", UNIT), ret(2, 3, UNIT)]
    )
    assert happened_before(h) == {(1, 2), (1, 3), (2, 3)}


def test_happened_before_overlap_empty():
    h = history([inv(1, 1, "A", UNIT), inv(2, 2, "B", UNIT), ret(1, 1, UNIT), ret(2, 2, UNIT)])
    assert happened_before(h) == frozenset()


def test_happened_before_fig3():
    # only the completed second enqueue precedes the dequeue
    assert happened_before(fig3()) == {(201, 301)}


@st.composite
def _histories(draw):
    threads = draw(st.integers(2, 3))
    events = []
    opid = 0
    for t in range(1, threads + 1):
        n = draw(st.integers(0, 3))
        for _ in range(n):
            opid += 1
            events.append([inv(t, opid, "M", UNIT), ret(t, opid, draw(st.sampled_from(["a", "b", EMPTY])))])
        if events and draw(st.booleans()):
            events[-1] = events[-1][:1]  # leave last op of this thread pending
    streams = {}
    for pair in events:
        streams.setdefault(pair[0].thread, []).extend(pair)
    merged = []
    idx = {t: 0 for t in streams}
    flat = [e for t in streams for e in streams[t]]
    while len(merged) < len(flat):
        t = draw(st.sampled_from([t for t in streams if idx[t] < len(streams[t])]))
        merged.append(streams[t][idx[t]])
        idx[t] += 1
    return history(merged)


@st.composite
def _event_soups(draw):
    """Interface events in any order, well-formed or not; only the structural
    invariant (one invocation and one response per op id) is kept."""
    raw = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 5), st.sampled_from(["inv", "ret", "abort"])),
        max_size=12,
    ))
    events, invoked, responded = [], set(), set()
    for t, op, kind in raw:
        if kind == "inv" and op not in invoked:
            invoked.add(op)
            events.append(inv(t, op, "M", UNIT))
        elif kind != "inv" and op not in responded:
            responded.add(op)
            events.append(ret(t, op, "a") if kind == "ret" else ret_abort(t, op))
    return history(events)


@given(st.one_of(_event_soups(), _histories()))
@settings(max_examples=300, deadline=None)
def test_well_formed_is_sequential_per_thread(h):
    assert is_well_formed(h) == all(
        is_sequential(project_thread(h, t)) for t in h.threads()
    )


# any return of "M", the method of the generated histories, at one state
ANY_M = SeqSpec("any-m", {"M": lambda s, x: {(s, "a"), (s, "b"), (s, EMPTY)}}, (0,))


@given(st.one_of(_event_soups(), _histories()))
@example(history([ret(1, 1, "a"), inv(1, 1, "M", UNIT)]))  # answered before its invocation
@example(history([inv(1, 1, "M", UNIT), ret(2, 2, "a"), inv(2, 3, "M", UNIT)]))  # never invoked
@settings(max_examples=300, deadline=None)
def test_operation_table_agrees_with_references(h):
    ops = operation_table(h)
    assert ops.ids == tuple(sorted({e.op for e in h}))
    assert ops.calls == tuple(next((e for e in h if e.op == o and isinstance(e.label, Inv)), None)
                              for o in ops.ids)
    assert ops.ends == tuple(next((e for e in h if e.op == o and not isinstance(e.label, Inv)),
                                  None) for o in ops.ids)
    assert happened_before(h) == happened_before_by_scan(h)
    well_formed = all(is_sequential(project_thread(h, t)) for t in h.threads())
    assert ops.well_formed == is_well_formed(h) == well_formed
    assert is_complete(h) == (well_formed and not pending(h))
    rec = RecordedExecution(0, h, False)
    if well_formed:
        lin = find_linearization(rec, ANY_M)
        assert lin is None or linearizes(lin.completion, lin.witness)
    else:
        with pytest.raises(ValueError, match="^history is not well-formed$"):
            find_linearization(rec, ANY_M)


def test_operation_table_of_a_long_history():
    # 2,000 operations, so that masks run far past 64 bits: ops 11..2000 on
    # threads of their own overlap one another, then ops 1..10 run one after
    # another on thread 11, each after all of the first ones
    rng = random.Random(5)
    block = list(range(11, 2001))
    returns = [ret(o - 10, o, UNIT) for o in block]
    rng.shuffle(returns)
    events = [inv(o - 10, o, "Enqueue", o) for o in block] + returns
    for o in range(1, 11):
        events += [inv(11, o, "Enqueue", o), ret(11, o, UNIT)]
    h = history(events)
    ops = operation_table(h)
    assert ops.well_formed and is_complete(h)
    assert ops.preds[0].bit_length() == 2000 and ops.preds[9].bit_length() == 2000
    hb = happened_before(h)
    assert hb == happened_before_by_scan(h)
    assert len(hb) == 1990 * 10 + 45
    order = tuple(block) + tuple(range(1, 11))
    lin = find_linearization(RecordedExecution((), h, True, order), queue_adt())
    assert lin.strict is not None and lin.strict.operations() == order


@given(_histories())
@settings(max_examples=200, deadline=None)
def test_happened_before_is_strict_partial_order(h):
    hb = happened_before(h)
    for (a, b) in hb:
        assert a != b
        for (c, d) in hb:
            if b == c:
                assert (a, d) in hb


@given(_histories())
@settings(max_examples=200, deadline=None)
def test_sequential_is_complete_or_one_trailing_invocation(h):
    if is_sequential(h):
        p = pending(h)
        assert len(p) <= 1
        if p:
            assert h.events[-1].op in p


@given(_histories())
@settings(max_examples=200, deadline=None)
def test_happened_before_totally_orders_each_thread(h):
    hb = happened_before(h)
    for t in h.threads():
        ops = project_thread(h, t).operations()
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                assert (a, b) in hb


# ---------------------------------------------------------------------------
# linearization relation
# ---------------------------------------------------------------------------


@given(_histories())
@settings(max_examples=200, deadline=None)
def test_linearizes_reflexive(h):
    assert linearizes(h, h)


def test_linearizes_fig3_positive():
    h = fig3()
    seq = history(
        [
            inv(2, 201, "Enqueue", "d"), ret(2, 201, UNIT),
            inv(1, 101, "Enqueue", "c"), ret(1, 101, UNIT),
            inv(3, 301, "Dequeue", UNIT), ret(3, 301, "d"),
        ]
    )
    assert linearizes(h, seq)


def test_linearizes_rejects_reordering_non_overlapping():
    h = history([inv(1, 1, "A", UNIT), ret(1, 1, UNIT), inv(2, 2, "B", UNIT), ret(2, 2, UNIT)])
    swapped = history([inv(2, 2, "B", UNIT), ret(2, 2, UNIT), inv(1, 1, "A", UNIT), ret(1, 1, UNIT)])
    assert not linearizes(h, swapped)
    assert not linearizes(swapped, h)


def test_linearizes_requires_equal_projections():
    h = history([inv(1, 1, "A", UNIT), ret(1, 1, UNIT)])
    other = history([inv(1, 1, "A", "x"), ret(1, 1, UNIT)])
    assert not linearizes(h, other)
    assert not linearizes(h, history([inv(2, 1, "A", UNIT), ret(2, 1, UNIT)]))


@given(_histories())
@settings(max_examples=100, deadline=None)
def test_thread_preservation(h):
    # any witness-shaped permutation with equal projections is a permutation
    # of the same events; verified via multiset equality on a shuffle that
    # keeps per-thread order
    by_thread = {t: list(project_thread(h, t)) for t in h.threads()}
    merged = []
    idx = {t: 0 for t in by_thread}
    for t in sorted(by_thread):
        merged.extend(by_thread[t])
    h2 = history(merged)
    if linearizes(h, h2):
        assert sorted(map(repr, h.events)) == sorted(map(repr, h2.events))


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------


def test_parse_example_line():
    h = parse_history("t=1 op=1 inv Enqueue 'c'\n")
    assert h[0] == inv(1, 1, "Enqueue", "c")


def test_round_trip_fig3():
    h = fig3()
    assert parse_history(serialize_history(h)) == h


@given(_histories())
@settings(max_examples=150, deadline=None)
def test_round_trip_random(h):
    assert parse_history(serialize_history(h)) == h


def test_parse_comments_and_blanks():
    text = "# a comment\n\nt=1 op=1 inv A unit\nt=1 op=1 ret 5\n"
    assert len(parse_history(text)) == 2


@pytest.mark.parametrize(
    "bad",
    [
        "t=1 ret unit",                # missing op field
        "t=1 op=1 ret unit",           # response with no prior invocation
        "t=1 op=1 inv A",              # missing argument
        "t=1 op=1 frob A unit",        # unknown kind
        "t=x op=1 inv A unit",         # bad thread id
        "t=1 op=1 inv A ''",           # bad symbol
    ],
)
def test_parse_errors_name_line(bad):
    with pytest.raises(HistoryParseError) as exc:
        parse_history(bad)
    assert "line 1" in str(exc.value)


@pytest.mark.parametrize("token", [t for t in NON_CANONICAL_INTS if t.strip() == t])
@pytest.mark.parametrize("line", ["t={} op=1 inv A unit", "t=1 op={} inv A unit",
                                  "t=1 op=1 inv A {}"])
def test_parse_rejects_non_canonical_integers(line, token):
    with pytest.raises(HistoryParseError) as exc:
        parse_history(line.format(token))
    assert "line 1" in str(exc.value)


def test_parse_duplicate_invocation_is_structural_error():
    text = "t=1 op=1 inv A unit\nt=2 op=1 inv A unit\n"
    with pytest.raises(HistoryParseError):
        parse_history(text)


def test_parse_accepts_runs_of_spaces_and_tabs():
    text = ("t=1\top=1  inv\t Enqueue   'c'\n"
            "  t=2 op=2\tinv Dequeue\t\tunit \n"
            "\tt=1 op=1 ret\tunit\t\n"
            "t=2  op=2   abort\n")
    assert parse_history(text) == history(
        [inv(1, 1, "Enqueue", "c"), inv(2, 2, "Dequeue", UNIT), ret(1, 1, UNIT),
         ret_abort(2, 2)])


_INVOKED = "t=1 op=1 inv A unit\n"


@pytest.mark.parametrize("text,message", [
    ("t=1 ret unit", "line 1: expected 't=<int> op=<int> ...'"),
    ("t=1 op=1", "line 1: expected 't=<int> op=<int> ...'"),
    ("x=1 op=1 inv A unit", "line 1: expected 't=<int> op=<int> ...'"),
    ("t=x op=1 inv A unit", "line 1: bad thread/op id"),
    ("t=1 op=05 inv A unit", "line 1: bad thread/op id"),
    ("t=1 op=1 inv A", "line 1: expected 'inv <method> <value>'"),
    ("t=1 op=1 inv A unit extra", "line 1: expected 'inv <method> <value>'"),
    ("t=1 op=1 inv A ''", "line 1: bad value token: \"''\""),
    ("t=1 op=1 inv A 05", "line 1: bad value token: '05'"),
    ("t=1 op=1 ret unit", "line 1: response for op 1 with no prior invocation"),
    (_INVOKED + "t=1 op=1 ret", "line 2: expected 'ret <value>'"),
    (_INVOKED + "t=1 op=1 ret 'a'b'", "line 2: bad symbol token: \"'a'b'\""),
    ("t=1 op=1 abort", "line 1: abort for op 1 with no prior invocation"),
    (_INVOKED + "t=1 op=1 abort now", "line 2: expected 'abort'"),
    ("t=1 op=1 frob A unit", "line 1: unknown event kind 'frob'"),
    (_INVOKED + "t=2 op=1 inv A unit", "duplicate invocation for op 1"),
    (_INVOKED + "t=1 op=1 ret unit\nt=1 op=1 abort", "duplicate response for op 1"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(HistoryParseError) as exc:
        parse_history(text)
    assert str(exc.value) == message


# candidates for each field of an event line: (valid there, invalid there)
_THREADS = (["t=1", "t=-3", "t=0"], ["t=05", "t=\u0663", "t=", "x=1", "op=1"])
_OPS = (["op=1", "op=0", "op=-3"], ["op=+5", "op=1_0", "op=-0", "t=1"])
_KINDS = (["inv", "ret", "abort"], ["invx", "frob", "Inv"])
_METHODS = (["A", "Enqueue", "unit", "t=1"], ["#"])
_VALUES = (["unit", "null", "EMPTY", "'c'", "'\u00e9'", "'#'", "5", "-7", "0"],
           ["nul", "''", "'a'b'", "'", "-0", "05", "\u0663", "#"])


@st.composite
def _event_lines(draw):
    def pick(pools):  # from the first pool four times in five
        return draw(st.sampled_from(pools[draw(st.integers(0, 4)) == 0]))

    kind = pick(_KINDS)
    rest = {"inv": [pick(_METHODS), pick(_VALUES)], "ret": [pick(_VALUES)]}.get(kind, [])
    fields = [pick(_THREADS), pick(_OPS), kind, *rest]
    if draw(st.integers(0, 4)) == 0:  # a field too many or too few
        if draw(st.booleans()):
            fields.append(pick(_VALUES))
        else:
            fields = fields[:draw(st.integers(1, len(fields) - 1))]
    space = ([" ", "\t", "  ", " \t"], ["\u00a0", "\u3000", "\x1f"])  # ASCII, other
    seps = [pick(space) for _ in fields[1:]]
    lead, trail = (draw(st.sampled_from(["", ""] + space[0] + space[1])) for _ in "ab")
    return lead + fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:])) + trail


@given(_event_lines())
@settings(max_examples=500, deadline=None)
def test_event_line_pattern_agrees_with_field_checks(line):
    # the pattern that reads each line accepts exactly the lines that the
    # field-by-field checks accept, and reads the same event from them
    try:
        want = _parse_event(line.strip(), 1, {-3, 0, 1})  # every valid op id here
    except HistoryParseError:
        want = None
    assert (_EVENT_LINE.fullmatch(line) is not None) == (want is not None), repr(line)
    if want is not None:
        prefix = "" if isinstance(want.label, Inv) else f"t=9 op={want.op} inv A unit\n"
        assert parse_history(prefix + line)[-1] == want


# ---------------------------------------------------------------------------
# Event hashes
# ---------------------------------------------------------------------------


def test_interned_and_parsed_events_hash_alike():
    from strictlin import explorer, models
    from strictlin.checker import recorded_executions
    from strictlin.programs import parse_program

    p = parse_program("thread { call Q.Enqueue('a') ; call y = Q.Dequeue() }\n"
                      "thread { call Q.Enqueue('b') }")  # one cell: an enqueue aborts
    recs = recorded_executions(explorer.explore(p, models.hw_model(1)))
    assert any(isinstance(e.label, RetAbort) for rec in recs for e in rec.history)
    for rec in recs:
        parsed = parse_history(serialize_history(rec.history))
        assert parsed == rec.history
        for a, b in zip(rec.history, parsed):
            assert a is not b and hash(a) == hash(b)
        assert set(parsed) == set(rec.history)
        assert hash(parsed.events) == hash(rec.history.events)


_PICKLE_EVENTS = """
import pickle, sys
from strictlin.history import inv, ret, ret_abort
from strictlin.values import EMPTY
events = [inv(1, 7, "Enqueue", "c"), ret(2, 8, EMPTY), ret_abort(3, 9)]
for e in events:
    hash(e)
sys.stdout.buffer.write(pickle.dumps((hash("Enqueue"), events)))
"""


def test_event_hash_does_not_travel_through_pickle_or_copy():
    """String hashes differ between processes, so an event pickled after its
    hash was taken must hash as the same event built here."""
    here = [inv(1, 7, "Enqueue", "c"), ret(2, 8, EMPTY), ret_abort(3, 9)]
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    src = os.path.dirname(os.path.dirname(strictlin.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _PICKLE_EVENTS], env=env,
                         capture_output=True, check=True).stdout
    their_str_hash, theirs = pickle.loads(out)
    assert their_str_hash != hash("Enqueue")  # the child hashed strings differently
    assert theirs == here
    assert [hash(e) for e in theirs] == [hash(e) for e in here]
    assert set(theirs) == set(here)
    for e in here:
        for c in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert c == e and hash(c) == hash(e)
