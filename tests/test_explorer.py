"""Interleaving exploration: schedules, divergence, observables."""

import collections
import functools
import gc
import hashlib
import importlib
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strictlin import explorer, models, reproductions
from strictlin.checker import check_strict, recorded_executions
from strictlin.cli import EXIT_OK, main
from strictlin.explorer import (
    Kind,
    canonical_lasso,
    client_traces,
    compare_divergence,
    compare_observables,
    explore,
    final_states,
    observables_report,
    run_atomic,
)
from strictlin.history import Act, Event, Inv, Ret, history
from strictlin.models import atomic_model
from strictlin.programs import parse_program
from strictlin.specs import get_spec, pseudo_queue_adt, queue_adt
from strictlin.values import EMPTY, NULL

from mutants import mutants
from oracles import config_successors, enumerate_executions_naive, naive_graph, run_single_thread

PROJECTIONS = ("interface", "history", "client")


def _assert_matches_naive(p, model):
    """The graph's outcomes against the naive enumerator's, over ``model``
    and over the atomic versions of its sequential spec and of the queue ADT."""
    ex = explore(p, model)
    for projection in PROJECTIONS:
        naive = enumerate_executions_naive(p, model, projection=projection)
        assert ex.results(projection) == naive, projection
    for spec in (model.seq_spec, queue_adt()):
        try:
            ex = run_atomic(p, spec)
        except ValueError as exc:  # the queue ADT has no cells to read or write
            assert spec.cells is None and "exposes no cells" in str(exc)
            continue
        for projection in PROJECTIONS:
            naive = enumerate_executions_naive(p, atomic_model(spec), projection=projection)
            assert ex.results(projection) == naive, (spec.name, projection)


def test_single_thread_single_step():
    p = parse_program("thread { set x = 1 }")
    rs = explore(p, models.coarse_queue_model()).results()
    assert len(rs) == 1
    (r,) = rs
    assert r.kind is Kind.TERMINATED and dict(r.final_client)["x"] == 1


def test_two_independent_steps_two_interleavings():
    p = parse_program("thread { set x = 1 }\nthread { set y = 2 }")
    rs = explore(p, models.coarse_queue_model()).results()
    assert len(rs) == 2


def test_op_ids_unique_and_stable():
    p = parse_program(
        "thread { call Q.Enqueue(1) ; call Q.Enqueue(2) }\nthread { call y = Q.Dequeue() }"
    )
    rs = explore(p, models.coarse_queue_model()).results()
    for r in rs:
        ops = history(e for e in r.trace if e.is_interface).operations()
        assert sorted(ops) == [101, 102, 201]


@pytest.mark.parametrize(
    "text,model",
    [
        ("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }",
         models.coarse_queue_model()),
        ("thread { call Q.Enqueue('c') }\nthread { call Q.Enqueue('d') }",
         models.hw_model(4)),
        ("thread { set x = 1 ; set x = 2 }\nthread { set z = 3 }",
         models.coarse_queue_model()),
        # the first thread aborts on an unbound variable, in every schedule
        ("thread { call Q.Enqueue(z) }\nthread { call Q.Enqueue('a') ; call y = Q.Dequeue() }",
         models.coarse_queue_model()),
        ("phase { thread { call Q.Enqueue('a') }\nthread { call Q.Enqueue('b') } }\n"
         "phase { thread { call y = Q.Dequeue() }\nthread { set x = 1 } }",
         models.coarse_queue_model()),
        ("phase { thread { call Q.Enqueue('c') }\nthread { write Q.items[1] <- 'x' } }\n"
         "phase { thread { read z <- Q.back ; call y = Q.Dequeue() } }",
         models.hw_model(4)),
    ],
    ids=["coarse", "hw", "client-only", "abort", "phases", "cell-write"],
)
def test_schedule_completeness_against_naive_enumeration(text, model):
    p = parse_program(text)
    assert not explore(p, model).divergence_kinds()
    _assert_matches_naive(p, model)


_STATEMENTS = st.sampled_from([
    "call Q.Enqueue('a')",
    "call Q.Enqueue(x)",  # aborts while x is unbound
    "call y = Q.Dequeue()",
    "set x = 1",
    "set x = y",  # aborts while y is unbound
])


def _small(threads: list) -> bool:
    # the naive oracle enumerates every schedule: keep them in the thousands
    stmts = [s for t in threads for s in t]
    return len(stmts) <= 4 and sum(s.startswith("call") for s in stmts) <= 2


@given(st.lists(st.lists(_STATEMENTS, min_size=1, max_size=2), min_size=1, max_size=3)
       .filter(_small))
@settings(max_examples=50, deadline=None)
def test_generated_programs_match_naive_enumeration(threads):
    p = parse_program("\n".join("thread { " + " ; ".join(t) + " }" for t in threads))
    _assert_matches_naive(p, models.coarse_queue_model())


def test_schedule_completeness_terminated_subset_with_divergence():
    # the spinning dequeue diverges; terminated outcomes must still agree
    p = parse_program("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }")
    m = models.hw_model(2)
    fast = {r for r in explore(p, m).results("interface") if r.kind is Kind.TERMINATED}
    naive = {
        r
        for r in enumerate_executions_naive(p, m, projection="interface")
        if r.kind is Kind.TERMINATED
    }
    assert fast == naive


def test_client_loop_divergence_lasso():
    p = parse_program("thread { while x != 1 { set y = 0 } }")
    p2 = parse_program("thread { set x = 0 ; while x != 1 { set y = 0 } }")
    ex = explore(p2, models.coarse_queue_model())
    assert ex.divergence_kinds() == {Kind.CLIENT_DIVERGENT}
    (r,) = [r for r in ex.results("client") if r.kind is Kind.CLIENT_DIVERGENT]
    assert r.cycle  # the repeating client events


# after either branch of an `if` the thread goes on with the next statement,
# also inside a loop body
FALL_THROUGH = [
    ("thread { set x = 0 ; if x == 0 { set y = 1 } ; set z = 2 }", "x=0 y=1 z=2"),
    ("thread { set x = 1 ; if x == 0 { set y = 1 } else { set y = 2 } ; set z = 3 ; set w = 4 }",
     "w=4 x=1 y=2 z=3"),
    ("thread { set x = 0 ; while x != 2 { if x == 0 { set y = 1 } ; set x = x + 1 } ;"
     " set z = 5 }", "x=2 y=1 z=5"),
]


@pytest.mark.parametrize("text,client", FALL_THROUGH, ids=["if", "if-else", "if-in-while"])
def test_statement_after_taken_if_runs(text, client, tmp_path, capsys):
    ex = explore(parse_program(text), models.coarse_queue_model())
    line = f"client: {client} | object: queue=<>"
    assert final_states(ex).renderings == (line,)
    assert ex.divergence_kinds() == set()
    f = tmp_path / "prog.txt"
    f.write_text(text)
    assert main(["explore", "--program", str(f), "--model", "coarse-queue"]) == EXIT_OK
    out = capsys.readouterr().out
    assert f"final states:\n  {line}\ndivergence: none\n" in out


@st.composite
def _single_thread_block(draw, depth: int = 0, spin: bool = False) -> str:
    """Statements over x, y, z: sets, atomics (some guarded), calls with and
    without a target, `if`s with statements after them, counter loops of at
    most three passes, and spin loops that run while a test holds.  A spin
    loop's body does no arithmetic and makes no call, so its states stay
    few; calls sit at most one block deep, so a thread makes few; `u` is
    never bound, so some programs abort."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        nested = ["if", "loop", "spin"] if depth < 2 else []
        calls = ["call"] if depth < 2 and not spin else []
        kind = draw(st.sampled_from(["set", "atomic"] + nested + calls))
        v, k = draw(st.sampled_from("xyz")), draw(st.integers(0, 2))
        if kind == "set":
            arithmetic = [] if spin else ["y + 1", "x - 1"]
            rhs = draw(st.sampled_from([str(k), "x", "z", "u"] + arithmetic))
            out.append(f"set {v} = {rhs}")
        elif kind == "atomic":
            guard = draw(st.sampled_from(["", " when x == 0", " when y != 1"]))
            out.append(f"atomic {v} = {k}, z = {v}{guard}")
        elif kind == "call":
            target = draw(st.sampled_from(["", f"{v} = "]))
            arg = draw(st.sampled_from([str(k), "x", "u"]))
            method = draw(st.sampled_from([f"Enqueue({arg})", "Dequeue()"]))
            out.append(f"call {target}Q.{method}")
        elif kind == "if":
            then = draw(_single_thread_block(depth + 1, spin))
            els = draw(st.one_of(st.just(""), _single_thread_block(depth + 1, spin)))
            out.append(f"if {v} == {k} {{ {then} }}" + (f" else {{ {els} }}" if els else ""))
        elif kind == "loop":
            c, body = f"c{depth}", draw(_single_thread_block(depth + 1, spin))
            out.append(f"set {c} = 0 ; while {c} != {k + 1} {{ {body} ; set {c} = {c} + 1 }}")
        else:
            out.append(f"while {v} == {k} {{ {draw(_single_thread_block(depth + 1, True))} }}")
    return " ; ".join(out)


@given(_single_thread_block())
@settings(max_examples=100, deadline=None)
def test_single_thread_programs_match_reference_interpreter(block):
    p = parse_program(f"thread {{ set x = 0 ; set y = 0 ; set z = 0 ; {block} }}")
    ex = explore(p, models.coarse_queue_model())
    assert not ex.truncated
    outcome = run_single_thread(p, max_steps=50_000)
    expected = {
        "terminated": ({outcome[1:]}, False, set()),
        "aborted": (set(), True, set()),
        "blocked": (set(), False, {Kind.OBJECT_DIVERGENT}),
        "diverges": (set(), False, {Kind.CLIENT_DIVERGENT}),
    }[outcome[0]]
    fs = final_states(ex)
    finals = {(client, queue) for client, (_, queue) in fs.states}
    assert (finals, fs.has_abort, ex.divergence_kinds()) == expected


@pytest.mark.parametrize(
    "prog,model,configs,transitions",
    [
        (reproductions.TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4), 315, 735),
        (reproductions.MS_TWO_BY_TWO, models.ms_model(4), 1543, 2868),
        # identical branches continue from one position, so one configuration
        (parse_program("thread { set x = 0 ; if x == 0 { set y = 1 } else { set y = 1 } }\n"
                       "thread { set x = 1 }"), models.coarse_queue_model(), 11, 12),
    ],
    ids=["fig2-hw", "ms-2x2", "identical-branches"],
)
def test_fine_grained_graph_shape_is_pinned(prog, model, configs, transitions):
    ex = explore(prog, model)
    assert (len(ex.order), ex.transitions_explored) == (configs, transitions)


@pytest.mark.parametrize(
    "prog,spec,configs,transitions",
    [
        (reproductions.TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4).seq_spec, 32, 54),
        (reproductions.MS_TWO_BY_TWO, models.ms_model(4).seq_spec, 60, 92),
    ],
    ids=["fig2-hw", "ms-2x2"],
)
def test_atomic_graph_shape_is_pinned(prog, spec, configs, transitions):
    # an atomic call split into separate Inv and Ret steps keeps client traces
    # but changes histories and the graph's size
    ex = run_atomic(prog, spec)
    assert (len(ex.order), ex.transitions_explored) == (configs, transitions)
    for trs in ex.edges:
        for events, _ in trs:
            if any(isinstance(e.label, Inv) for e in events):
                inv, ret = events
                assert isinstance(inv.label, Inv) and isinstance(ret.label, Ret)
                assert inv.op == ret.op and inv.thread == ret.thread


def test_all_blocked_is_livelock_divergence():
    # atomic pseudo-queue: dequeue blocks forever on the empty sequence
    p = parse_program("thread { call y = Q.Dequeue() }")
    ex = run_atomic(p, pseudo_queue_adt(), init_obj=())
    assert ex.terminal_livelock
    assert Kind.OBJECT_DIVERGENT in ex.divergence_kinds()
    assert not final_states(ex).states


def test_atomic_pseudo_queue_single_element_never_blocks():
    p = parse_program("thread { call y = Q.Dequeue() }")
    ex = run_atomic(p, pseudo_queue_adt(), init_obj=("x",))
    (r,) = [r for r in ex.results("interface") if r.kind is Kind.TERMINATED]
    assert dict(r.final_client)["y"] is EMPTY
    assert not ex.divergence_kinds()


def test_atomic_queue_dequeue_empty_is_total():
    p = parse_program("thread { call y = Q.Dequeue() }")
    ex = run_atomic(p, queue_adt())
    finals = {dict(ex.config(i).client)["y"] for i in ex.terminal_done}
    assert finals == {EMPTY}


def test_lone_dequeue_on_empty_array_is_object_divergence():
    p = parse_program("thread { call y = Q.Dequeue() }")
    ex = explore(p, models.hw_model(4))
    assert not ex.terminal_done
    assert ex.divergence_kinds() == {Kind.OBJECT_DIVERGENT}
    assert explorer.client_traces(ex.results("client")) == frozenset()


def test_budget_exhaustion_reports_unknown():
    p = parse_program("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }")
    ex = explore(p, models.hw_model(4), bound=5)
    rs = ex.results("interface")
    assert any(r.kind is Kind.UNKNOWN for r in rs)
    assert ex.truncated


def test_client_and_object_transitions_stay_disjoint():
    p = parse_program(
        "thread { call Q.Enqueue('a') ; set w = 1 }\nthread { call y = Q.Dequeue() }"
    )
    ex = explore(p, models.ms_model(3))
    for i, trs in enumerate(ex.edges):
        cfg = ex.config(i)
        for events, t in trs:
            if t is None or not events:
                continue
            target = ex.config(t)
            if all(e.is_client for e in events):
                assert target.sid == cfg.sid  # no declared writes here
            else:
                assert target.client == cfg.client


def test_direct_cell_write_is_the_declared_exception():
    p = parse_program("thread { write Q.items[1] <- 'x' }")
    ex = explore(p, models.hw_model(4))
    ((events, t),) = ex.edges[0]
    assert all(e.is_client for e in events)
    assert ex.config(t).sid != ex.config(0).sid


@pytest.mark.parametrize("text,event", [
    ("thread { set y = z + 1 }", "t=1 act error: unbound client variable 'z'"),
    ("thread { set z = 'a' ; set y = z + 1 }", "t=1 act error: arithmetic on non-integer 'z'"),
], ids=["unbound", "non-integer"])
def test_arithmetic_abort_names_its_cause(text, event):
    ex = explore(parse_program(text), models.coarse_queue_model())
    assert [e.render() for trs in ex.edges for events, t in trs if t is None
            for e in events] == [event]


def test_cell_write_out_of_range_aborts():
    p = parse_program("thread { write Q.items[9] <- 'x' }")
    ex = explore(p, models.hw_model(4))
    rs = ex.results("interface")
    assert {r.kind for r in rs} == {Kind.ABORTED}
    fs = final_states(ex)
    assert fs.has_abort and not fs.states


def test_client_trace_projection_drops_object_events():
    p = parse_program("thread { call y = Q.Dequeue() }")
    ex = explore(p, models.coarse_queue_model())
    (trace, cycle) = next(iter(client_traces(ex.results("client"))))
    assert cycle == ()
    assert [e.label.action for e in trace] == ["eval Dequeue()=unit", "y:=EMPTY"]


def test_canonical_lasso_normalization():
    assert canonical_lasso((1, 2, 3), (3, 3)) == ((1, 2), (3,))
    assert canonical_lasso((1,), (2, 3, 2, 3)) == ((1,), (2, 3))
    assert canonical_lasso((), (5,)) == ((), (5,))


def test_client_divergent_trace_renders_its_lasso_alone():
    # the loop spins from the start, so its lasso has an empty stem
    p = parse_program("thread { while 0 == 0 { set a = 1 } }")
    sides = explorer.explore_both(p, models.coarse_queue_model())
    for ex in sides:
        (trace,) = client_traces(ex.results("client"))
        assert explorer.render_client_trace(trace) == (
            "[loop: t=1 act test(0 == 0)=true; t=1 act a:=1]")
    assert observables_report(*sides).equal
    assert canonical_lasso((1, 2), ()) == ((1, 2), ())


_C = [Event(1, Act(f"c{i}")) for i in range(4)]  # client events
_O = Event(1, Act("step"), 101)  # an object event


@pytest.mark.parametrize("edges,lasso", [
    # 0 -> 1 ends in an object edge, so the search backs out of 1 and takes
    # 0's second edge into the cycle 2 -> 3 -> 2
    ([(((_C[0],), 1), ((_C[1],), 2)), (((_O,), 0),), (((_C[2],), 3),),
      (((_C[3],), 2), ((_O,), 0))], (2, (_C[2], _C[3]))),
    # no client-only edge leads from 0 or 1 to the cycle: the search from 0
    # ends with 1 done, skips 1 as a root and finds the cycle from 2
    ([(((_C[0],), 1),), (((_O,), 2),), (((_C[2],), 3),),
      (((_C[3],), 2), ((_O,), 0))], (2, (_C[2], _C[3]))),
    # an object edge closes the only cycle
    ([(((_C[0],), 1),), (((_O,), 0),)], None),
], ids=["dead-end", "done-root", "none"])
def test_client_lasso_search_backtracks(edges, lasso):
    members = list(range(len(edges)))
    assert explorer._client_lasso(edges, members, set(members)) == lasso


def test_compare_observables_positive_control():
    p = parse_program(
        "thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }"
    )
    sides = explorer.explore_both(p, models.coarse_queue_model())
    assert observables_report(*sides).equal
    assert not any(ex.truncated or ex.approximate for ex in sides)
    assert compare_observables(p, models.coarse_queue_model()) == observables_report(*sides)


def test_compare_divergence_straight_line_program():
    p = parse_program("thread { call Q.Enqueue('c') }")
    rep = compare_divergence(p, models.coarse_queue_model())
    assert not rep.model_diverges and not rep.atomic_diverges


def test_empty_program_trivially_equal():
    p = parse_program("thread { }")
    rep = compare_observables(p, models.coarse_queue_model())
    assert rep.equal


def test_initial_state_must_be_well_formed():
    m = models.ms_model(3)
    bad = models.MSQueueState(m.seq_spec.initial_states[0].nodes, 0, 2)
    with pytest.raises(ValueError):
        explore(parse_program("thread { }"), m, init_obj=bad)


@pytest.mark.parametrize("model,start", [
    (models.hw_model(4), (4, ())),  # a coarse-queue state
    (models.ms_model(3), models.HWQueueState(1, (NULL,) * 3)),
    (models.coarse_queue_model(4), (4, ("a",) * 5)),  # over capacity
    (models.coarse_queue_model(4), (4, "ab")),  # contents not a tuple
    (models.coarse_queue_model(4), ()),
    (models.coarse_queue_model(4), (4,)),
    (models.coarse_queue_model(4), ("a",)),
    # well-formed, but built for another size
    (models.coarse_queue_model(2), (4, ())),
    (models.hw_model(4), models.HWQueueState(1, (NULL,))),
    (models.ms_model(3), models.ms_model(4).seq_spec.initial_states[0]),
], ids=["hw", "ms", "coarse", "coarse-str", "coarse-empty", "coarse-cap-only", "coarse-str-only",
        "coarse-other-capacity", "hw-other-bound", "ms-other-pool"])
def test_start_state_outside_spec_domain_is_rejected(model, start):
    prog = parse_program("thread { }")
    with pytest.raises(ValueError, match=f"{model.name}: initial state not well-formed"):
        explore(prog, model, init_obj=start)
    with pytest.raises(ValueError, match=f"{model.name}: initial state not well-formed"):
        explorer.Exploration(prog, model, start, explorer.DEFAULT_BOUND)


def test_start_state_is_checked_against_the_spec_that_owns_it():
    # an array state is outside the queue ADT's domain, on either entry
    p = parse_program("thread { call y = Q.Dequeue() }")
    start = models.hw_model(4).seq_spec.seed_state(("a",))
    with pytest.raises(ValueError, match="adt-queue: initial state not well-formed"):
        run_atomic(p, queue_adt(), init_obj=start)
    with pytest.raises(ValueError, match="adt-queue: initial state not well-formed"):
        explorer.explore_both(p, models.hw_model(4), queue_adt(), init_obj=start)
    # each side seeded in its own domain runs
    ex_m, ex_a = explorer.explore_both(p, models.hw_model(4), queue_adt(), init_obj=start,
                                       init_obj_atomic=("a",))
    assert (ex_m.initial_object, ex_a.initial_object) == (start, ("a",))
    assert ex_a.spec.name == "adt-queue"


def test_foreign_spec_compares_what_the_client_observes():
    # the object states differ in domain, the client bindings agree
    p = parse_program("thread { call Q.Enqueue('c') ; call y = Q.Dequeue() }")
    rep = compare_observables(p, models.coarse_queue_model(), queue_adt())
    assert rep.client_only and rep.equal
    assert rep.state_lines_model == ("client: y='c' | object: queue=<>",)
    assert rep.state_lines_atomic == ("client: y='c' | object: <>",)
    own = compare_observables(p, models.coarse_queue_model())
    assert not own.client_only and own.equal
    # on the array queue the dequeue waits for the enqueue; atomically it may not
    rep = compare_observables(reproductions.ENQUEUE_VS_DEQUEUE, models.hw_model(4), queue_adt())
    assert rep.client_only and not rep.states_equal


def test_result_sets_identical_across_runs():
    p = parse_program(
        "thread { call Q.Enqueue('a') }\nthread { call y = Q.Dequeue() }"
    )
    a, b = (explore(p, models.ms_model(3)) for _ in range(2))
    assert a.results("interface") == b.results("interface")
    assert recorded_executions(a) == recorded_executions(b)
    assert final_states(a).renderings == final_states(b).renderings


@pytest.mark.parametrize(
    "text,model",
    [
        ("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }",
         models.coarse_queue_model()),
        # cyclic: the dequeue spins on the empty array
        ("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }", models.hw_model(2)),
        ("thread { set x = 0 ; while x != 1 { set y = 0 } }\nthread { call Q.Enqueue('a') }",
         models.coarse_queue_model()),
    ],
    ids=["acyclic", "object-cycle", "client-cycle"],
)
def test_results_calls_are_independent(text, model):
    # one exploration asked for several projections, in either order, gives
    # what fresh explorations give for each
    p = parse_program(text)
    projections = ("interface", "history", "client")
    fresh = {q: explore(p, model).results(q) for q in projections}
    for order in (projections, projections[::-1]):
        ex = explore(p, model)
        assert {q: ex.results(q) for q in order} == fresh


def test_hw_two_enqueues_two_dequeues_regression():
    p = parse_program(
        "thread { call Q.Enqueue('c') }\nthread { call Q.Enqueue('d') }\n"
        "thread { call y1 = Q.Dequeue() }\nthread { call y2 = Q.Dequeue() }"
    )
    m = models.hw_model(4)
    ex = explore(p, m)
    assert (len(ex.order), ex.transitions_explored) == (2241, 7068)
    assert len(ex.results("history")) == 4528
    assert not ex.truncated and not ex.approximate
    assert check_strict(recorded_executions(ex), m.seq_spec).passed


# ---------------------------------------------------------------------------
# The integer configuration graph
# ---------------------------------------------------------------------------


def _reachable(succ, src):
    """Ids reachable from ``src`` by one or more steps of ``succ``."""
    seen, todo = set(), [src]
    while todo:
        for t in succ(todo.pop()):
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _is_shortest_internal_path(edges, members, src, goal, events) -> bool:
    """Whether ``events`` are the events, in order, of a path from ``src``
    to ``goal`` inside ``members`` with no more edges than a shortest one,
    found by breadth-first search."""
    dist, frontier = {src: 0}, [src]
    while frontier:
        nxt = []
        for i in frontier:
            for _, t in edges[i]:
                if t in members and t not in dist:
                    dist[t] = dist[i] + 1
                    nxt.append(t)
        frontier = nxt
    # (configuration, events read) after each step of such a path
    walks = {(src, 0)}
    for _ in range(dist[goal]):
        walks = {(t, j + len(evs)) for i, j in walks for evs, t in edges[i]
                 if t in members and events[j:j + len(evs)] == evs}
    return (goal, len(events)) in walks


def _assert_sccs_brute_force(ex):
    """``scc_info()`` against mutual reachability and direct cycle checks,
    and each object lasso against a breadth-first search of its own."""
    n = len(ex.edges)
    succ = lambda i: [t for _, t in ex.edges[i] if t is not None]  # noqa: E731
    reach = [_reachable(succ, i) for i in range(n)]
    partition = {frozenset({i} | {j for j in reach[i] if i in reach[j]}) for i in range(n)}
    info = ex.scc_info()
    assert {frozenset(c) for c in info["comps"]} == partition
    assert sum(map(len, info["comps"])) == n
    for members in info["comps"]:
        assert members == sorted(members)
    cyclic, object_cyclic, client_cyclic, client_edges = set(), set(), set(), set()
    for k, members in enumerate(map(set, info["comps"])):
        internal = [(i, events, t) for i in sorted(members) for events, t in ex.edges[i]
                    if t in members]
        if internal:
            cyclic.add(k)
        if any(e.is_client for _, events, _ in internal for e in events):
            client_edges.add(k)
        objects = [(i, events, t) for i, events, t in internal
                   if any(not e.is_client for e in events)]
        if objects:
            object_cyclic.add(k)
            # the lasso starts with the first internal object edge, members
            # ascending and edges in stored order, and returns by a
            # shortest internal path
            i, events, t = objects[0]
            entry, cycle = info["lassos"][k][Kind.OBJECT_DIVERGENT]
            assert (entry, cycle[:len(events)]) == (i, events)
            assert _is_shortest_internal_path(ex.edges, members, t, i, cycle[len(events):])
        client = {}
        for i, events, t in internal:
            if all(e.is_client for e in events):
                client.setdefault(i, []).append(t)
        if any(i in _reachable(lambda j: client.get(j, ()), i) for i in client):
            client_cyclic.add(k)
    assert info["cyclic"] == cyclic
    assert info["object_cyclic"] == object_cyclic
    assert info["client_cyclic"] == client_cyclic
    assert info["client_edges"] == client_edges


def _assert_dense_ids(ex):
    assert ex.order[ex.initial] == 0 and ex.configs[0] == ex.initial
    assert sorted(ex.order.values()) == list(range(len(ex.configs)))
    assert len(ex.edges) == len(ex.configs)
    for c, i in ex.order.items():
        assert ex.configs[i] == c
    # a key is one int, and no two keys decode to one configuration
    assert all(type(c) is int for c in ex.configs)
    assert len(set(map(ex.config, range(len(ex.configs))))) == len(ex.configs)
    assert {i for i in range(len(ex.edges)) if not ex.edges[i]} == (
        ex.terminal_done | ex.terminal_livelock | ex.truncated
    )


SPIN_PROGRAMS = [
    ("thread { set x = 0 ; while x != 1 { set y = 0 } }\nthread { call Q.Enqueue('a') }",
     models.coarse_queue_model()),
    ("thread { set x = 0 ; while x != 2 { set y = 1 } }\nthread { set x = 2 }",
     models.coarse_queue_model()),
    ("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }", models.hw_model(2)),
    ("thread { while 0 == 0 { set a = 1 ; set a = 2 } }\n"
     "thread { while 0 == 0 { call Q.Enqueue('a') ; call b = Q.Dequeue() } }",
     models.ms_model(3)),
    ("phase { thread { set x = 0 } }\n"
     "phase { thread { while x != 1 { set y = 0 } }\nthread { call Q.Enqueue('a') ; set x = 1 } }",
     models.hw_model(2)),
    # a client spin beside a dequeue spinning on the empty queue: one
    # component is both object- and client-cyclic
    ("thread { set x = 0 ; while x != 1 { set y = 0 } }\nthread { call Q.Dequeue() }",
     models.hw_model(2)),
]


@pytest.mark.parametrize(
    "text,model", SPIN_PROGRAMS,
    ids=["client-spin", "lapped-spin", "object-spin", "both", "phases", "mixed"])
def test_scc_info_matches_brute_force_on_spin_loops(text, model):
    ex = explore(parse_program(text), model)
    _assert_dense_ids(ex)
    _assert_sccs_brute_force(ex)
    assert ex.scc_info()["cyclic"]


def test_scc_info_matches_brute_force_on_truncated_exploration():
    p = parse_program("thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }")
    ex = explore(p, models.hw_model(2), bound=20)
    assert ex.truncated
    _assert_dense_ids(ex)
    _assert_sccs_brute_force(ex)


@given(st.lists(st.lists(_STATEMENTS, min_size=1, max_size=2), min_size=1, max_size=3)
       .filter(_small))
@settings(max_examples=30, deadline=None)
def test_scc_info_matches_brute_force_on_generated_programs(threads):
    p = parse_program("\n".join("thread { " + " ; ".join(t) + " }" for t in threads))
    for model in (models.coarse_queue_model(), models.hw_model(2)):
        ex = explore(p, model)
        _assert_dense_ids(ex)
        _assert_sccs_brute_force(ex)


DIVERGENT = (Kind.CLIENT_DIVERGENT, Kind.OBJECT_DIVERGENT)


def _divergent_digest(results) -> tuple[int, str]:
    """How many divergent outcomes there are, and a sha256 prefix of their
    sorted ``kind | stem | cycle`` renderings."""
    lines = sorted(
        " | ".join([r.kind.value] + [" ; ".join(e.render() for e in t) for t in (r.trace, r.cycle)])
        for r in results if r.kind in DIVERGENT
    )
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "text,model,pins",
    [
        (*SPIN_PROGRAMS[0], [(91, "c2183bd1d1e3b4e4"), (3, "787f5f1af8b64645"),
                             (15, "da18ac21ce431aef")]),
        (*SPIN_PROGRAMS[1], [(2, "2fee51b32259c43f"), (1, "0d14983b652670a6"),
                             (2, "2fee51b32259c43f")]),
        (*SPIN_PROGRAMS[2], [(10, "ce57b3927956794a"), (3, "ff781db6d58940d0"),
                             (3, "ead00f9d75d8e836")]),
        # SPIN_PROGRAMS[3], on ms-queue, runs the naive enumerator out of memory
        (*SPIN_PROGRAMS[4], [(75, "35761e71308b5ba8"), (3, "b1492360b108f2fe"),
                             (13, "d4bf162b1ef3aad1")]),
        # terminates: no divergent outcome, so the sha256 of nothing
        (FALL_THROUGH[2][0], models.coarse_queue_model(), [(0, "e3b0c44298fc1c14")] * 3),
    ],
    ids=["client-spin", "lapped-spin", "object-spin", "phases", "if-in-while"],
)
def test_cyclic_components_match_naive_enumeration(text, model, pins):
    # the naive enumerator has no components: outside divergence the two
    # must agree.  It cannot tell which lasso the explorer picks, so the
    # divergent outcomes are pinned
    p = parse_program(text)
    ex = explore(p, model)
    for projection in PROJECTIONS:
        naive = enumerate_executions_naive(p, model, projection=projection)
        assert ({r for r in ex.results(projection) if r.kind not in DIVERGENT}
                == {r for r in naive if r.kind not in DIVERGENT}), projection
    assert [_divergent_digest(ex.results(q)) for q in PROJECTIONS] == pins


def test_finished_call_argument_is_forgotten():
    # after either enqueue returns, the thread's configurations no longer
    # differ by the argument, and two configurations merge into others
    p = parse_program(
        "phase { thread { set x = 0 } }\n"
        "phase { thread { set x = 1 }\n"
        "thread { if x == 0 { call Q.Enqueue(1) } else { call Q.Enqueue(2) } ; set d = 1 }\n"
        "thread { call Q.Dequeue() } }"
    )
    m = models.coarse_queue_model()
    ex = explore(p, m)
    # the setup phase adds two configurations, its start and its end, and
    # two transitions, its one step and the move to the next phase
    assert (len(ex.order), ex.transitions_explored) == (118, 228)
    assert final_states(ex).renderings == tuple(
        f"client: d=1 x=1 | object: queue=<{q}>" for q in ("1", "2", "")
    )
    assert not ex.divergence_kinds()
    for projection, n in zip(PROJECTIONS, (774, 20, 35)):
        res = ex.results(projection)
        assert len(res) == n
        assert res == enumerate_executions_naive(p, m, projection=projection)


def test_component_over_512_configurations_is_approximate():
    # three independent client spin loops: 9 positions each, one component
    body = lambda v: " ; ".join(f"set {v} = {k}" for k in range(1, 9))  # noqa: E731
    loops = " ".join(f"thread {{ while 0 == 0 {{ {body(v)} }} }}" for v in "abc")
    p = parse_program(f"phase {{ thread {{ set a = 8 ; set b = 8 ; set c = 8 }} }}\n"
                      f"phase {{ {loops} }}")
    ex = explore(p, models.coarse_queue_model())
    # the setup phase's four configurations are one component each, callers
    # of the loops' one
    assert len(ex.order) == 733
    assert [len(c) for c in ex.scc_info()["comps"]] == [729, 1, 1, 1, 1]
    (r,) = ex.results("client")
    assert r.kind is Kind.UNKNOWN and r.note == "scc too large"
    assert [e.label.action for e in r.trace] == ["a:=8", "b:=8", "c:=8"]
    assert ex.approximate


def test_terminating_schedule_lapping_an_observable_cycle_is_approximate():
    p = parse_program("thread { set x = 0 ; while x != 2 { set y = 1 } }\nthread { set x = 2 }")
    ex = explore(p, models.coarse_queue_model())
    assert len(ex.order) == 16
    kinds = {r.kind for r in ex.results("client")}
    assert ex.approximate
    assert kinds == {Kind.TERMINATED, Kind.CLIENT_DIVERGENT}


# ---------------------------------------------------------------------------
# Outcome tries
# ---------------------------------------------------------------------------


def _trie_table() -> "explorer._Outcomes":
    """An empty table of outcome tries; its sets hold any integer ids."""
    ex = explore(parse_program("thread { set x = 0 }"), models.coarse_queue_model())
    return explorer._Outcomes(ex, explorer._PROJECTIONS["history"])


def _chain(t, trace, leaf) -> int:
    return t.prepend(tuple(trace), t.single(leaf))


def _by_first_event(t, pairs) -> int:
    """The set of ``pairs`` built top-down: one prepend per first event."""
    out = 0
    for e in sorted({trace[0] for trace, _ in pairs if trace}, reverse=True):
        rest = {(trace[1:], leaf) for trace, leaf in pairs if trace and trace[0] == e}
        out = t.union(out, t.prepend((e,), _by_first_event(t, rest)))
    for leaf in {leaf for trace, leaf in pairs if not trace}:
        out = t.union(t.single(leaf), out)
    return out


_OUTCOME_SETS = st.sets(
    st.tuples(st.lists(st.integers(0, 3), max_size=4).map(tuple), st.integers(0, 2)),
    max_size=10,
)


@given(_OUTCOME_SETS, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_trie_node_is_the_same_however_the_set_is_built(pairs, rng):
    t = _trie_table()
    chains = [_chain(t, trace, leaf) for trace, leaf in sorted(pairs)]
    ids = []
    for _ in range(3):
        rng.shuffle(chains)
        ids.append(functools.reduce(t.union, chains, 0))
    # pairwise, in a balanced tree
    parts = list(chains)
    while len(parts) > 1:
        parts = [t.union(*parts[i:i + 2]) if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    ids.append(parts[0] if parts else 0)
    ids.append(_by_first_event(t, pairs))
    n = ids[0]
    assert set(ids) == {n}
    assert (n == 0) == (not pairs)
    walked = list(t.walk(n))
    assert len(walked) == len(pairs) and set(walked) == pairs
    assert t.union(n, n) == n
    for a in chains:
        assert t.union(n, a) == n == t.union(a, n)
        for b in chains:
            assert t.union(a, b) == t.union(b, a)


def test_trie_union_and_walk_keep_their_own_stack():
    t = _trie_table()
    prefix = tuple(range(4, 5004))
    a = t.prepend(prefix, t.prepend((1, 2), t.single(0)))
    b = t.prepend(prefix, t.prepend((1, 3), t.single(1)))
    n = t.union(a, b)
    assert set(t.walk(n)) == {(prefix + (1, 2), 0), (prefix + (1, 3), 1)}
    assert t.union(b, a) == n and t.union(n, a) == n


# ---------------------------------------------------------------------------
# The object-state table and the memo of the model's machines
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]


def _module(monkeypatch, directory: str, name: str):
    """Module ``name`` from ``directory`` of the repository."""
    monkeypatch.syspath_prepend(str(ROOT / directory))
    return importlib.import_module(name)


def _workloads(monkeypatch):
    return _module(monkeypatch, "bench", "workloads")


@pytest.mark.parametrize("qid,fine,atomic", [
    ("compare/hw-3+1", (4617, 13905, 52), (136, 290, 26)),
    ("compare/ms-2+1", (3645, 9314, 39), (52, 92, 9)),
    ("compare/three-phase", (543, 1123, 14), (76, 116, 11)),
    ("compare/three-phase+e", (2003, 4943, 26), (156, 308, 16)),
    ("compare/fig2", (315, 735, 11), (32, 54, 8)),
])
def test_compare_graph_shapes_are_pinned(qid, fine, atomic, monkeypatch):
    # (configurations, transitions, distinct object states) of each side
    workloads = _workloads(monkeypatch)
    ((_, name, ref),) = [q for q in workloads.COMPARE_QUERIES if q[0] == qid]
    sides = explorer.explore_both(parse_program(workloads.PROGRAMS[name]),
                                  models.parse_model_ref(ref))
    for ex, pins in zip(sides, (fine, atomic)):
        assert (len(ex.order), ex.transitions_explored, len(ex.states)) == pins
        # every interned state is some configuration's, and no two are equal
        assert {ex.config(i).sid for i in range(len(ex.configs))} == set(range(len(ex.states)))
        assert len(set(ex.states)) == len(ex.states)


def _ladder_cases(monkeypatch) -> list:
    """Every (program, model) of the benchmark's strict and compare queries."""
    workloads = _workloads(monkeypatch)
    ladder = sorted({(name, ref) for _, name, ref, *_ in
                     workloads.STRICT_QUERIES + workloads.COMPARE_QUERIES})
    return [(workloads.PROGRAMS[name], models.parse_model_ref(ref)) for name, ref in ladder]


# ---------------------------------------------------------------------------
# The move table: each thread's step once per (thread, its state, the part
# of the bindings and object state its rule reads)
# ---------------------------------------------------------------------------

# runtime errors of both kinds, stored as moves: an unbound variable, a cell
# address the model lacks, and a write of a value the cell cannot hold
ERROR_PROGRAMS = [
    ("thread { call Q.Enqueue(z) }\nthread { call Q.Enqueue('a') ; call y = Q.Dequeue() }",
     models.coarse_queue_model()),
    ("thread { read z <- Q.items[9] }\nthread { write Q.back <- 'x' }\n"
     "thread { call Q.Enqueue('c') ; read w <- Q.items[1] }",
     models.hw_model(2)),
]


def _delta_target(ex, tid, t, b, sid, delta):
    """The ids ``(thread state, bindings, object state)`` that a move of
    thread ``tid`` from thread-state id ``t``, bindings id ``b`` and state id
    ``sid`` leads to, decoded from its stored ``delta``: added to a key that
    holds the three source ids in their fields and nothing else, it must give
    a key that holds three target ids there and nothing else."""
    bits, shift = explorer._FIELD_BITS, ex.shift[tid]
    mask = (1 << bits) - 1
    target = (t << shift) + (b << bits) + (sid << 2 * bits) + delta
    ids = (target >> shift & mask, target >> bits & mask, target >> 2 * bits & mask)
    assert target == (ids[0] << shift) + (ids[1] << bits) + (ids[2] << 2 * bits)
    return ids


def test_move_table_entries_equal_fresh_rule_runs(monkeypatch):
    errors = set()
    for text, model in _ladder_cases(monkeypatch) + SPIN_PROGRAMS + ERROR_PROGRAMS:
        prog = parse_program(text)
        for ex in explorer.explore_both(prog, model):
            states = ex.states
            assert all(map(ex.model.invariant_ok, states))
            # a new exploration, its tables empty, runs each key's rule afresh
            fresh = explorer.Exploration(prog, ex.model, ex.initial_object, explorer.DEFAULT_BOUND)
            assert fresh.code == ex.code and not fresh.moves
            threads, bindings = ex.thread_states, ex.bindings
            for (tid, t, ctx), moves in ex.moves.items():
                # a key holds only the fields its rule reads; an unread one
                # is 0, the id of the empty bindings or of the start state
                assert ctx & ~ex.reads[t] == 0
                b, sid = ctx & (1 << explorer._FIELD_BITS) - 1, ctx >> explorer._FIELD_BITS
                got = fresh.thread_moves(tid, threads[t], bindings[b], fresh.state_id(states[sid]))
                # events compare by value, targets decoded from their deltas
                # and compared by the object state itself
                decoded = [(ev, delta if delta is None
                            else _delta_target(ex, tid, t, b, sid, delta))
                           for ev, delta in moves]
                assert [(ev, to and (threads[to[0]], bindings[to[1]], states[to[2]]))
                        for ev, to in decoded] == [
                    (ev, to and (to[0], to[1], fresh.states[to[2]])) for ev, to in got
                ]
                errors |= {e[0].label.action for e, to in moves if to is None and e[0].is_client}
            assert not fresh.moves
    # the error programs stored runtime errors of both kinds
    assert any("unbound" in e for e in errors) and any("bad cell" in e for e in errors)


def test_each_thread_move_input_runs_its_rule_once(monkeypatch):
    for text, model in _ladder_cases(monkeypatch) + SPIN_PROGRAMS + ERROR_PROGRAMS:
        calls = collections.Counter()

        def counted(rule, reads):
            # the input a rule reads: its footprint, from its code-table entry
            def wrapped(ex, tid, t, client, sid, *entry):
                calls[tid, t, client if reads & explorer._BINDINGS else None,
                      sid if reads & explorer._STATE else None] += 1
                return rule(ex, tid, t, client, sid, *entry)
            return wrapped

        ex = explorer.Exploration(parse_program(text), model, model.seq_spec.initial_states[0],
                                  explorer.DEFAULT_BOUND)
        ex.code = [(counted(rule, reads), *rest, reads) for rule, *rest, reads in ex.code]
        ex.build()
        assert set(calls.values()) == {1}
        assert len(calls) == len(ex.moves)


def test_move_table_entries_hold_under_every_unread_input(monkeypatch):
    # the footprint gate: an entry's rule, run again under every bindings id
    # the exploration numbered when it does not read the bindings, and under
    # every state id when it does not read the state, gives the same events
    # and delta, and numbers nothing new
    cases = _ladder_cases(monkeypatch) + SPIN_PROGRAMS + ERROR_PROGRAMS
    cases += [(m.program, model) for m in mutants() for model in (m.model, m.shipped)]
    bits, unread = explorer._FIELD_BITS, collections.Counter()
    for text, model in cases:
        for ex in explorer.explore_both(parse_program(text), model):
            sizes = (len(ex.states), len(ex.thread_states), len(ex.bindings), len(ex._events))
            for (tid, t, ctx), moves in ex.moves.items():
                reads = ex.code[ex.thread_states[t].pc][4]
                others = []
                if not reads & explorer._BINDINGS:
                    others += [ctx | b for b in range(1, len(ex.bindings))]
                    unread["bindings"] += 1
                if not reads & explorer._STATE:
                    others += [ctx | sid << bits for sid in range(1, len(ex.states))]
                    unread["state"] += 1
                for other in others:
                    assert ex._numbered_moves(tid, t, other) == moves
            assert (len(ex.states), len(ex.thread_states), len(ex.bindings),
                    len(ex._events)) == sizes
    # entries of both kinds, client and object rules, were re-run
    assert unread["bindings"] and unread["state"]


def test_end_facts_are_recorded_by_id_as_the_graph_is_built(monkeypatch):
    # how each configuration ends, recorded once by ``build``, against the
    # graph itself and the transition rules
    cases = _ladder_cases(monkeypatch) + SPIN_PROGRAMS + ERROR_PROGRAMS
    cases += [(m.program, model) for m in mutants() for model in (m.model, m.shipped)]
    explorations = [ex for text, model in cases
                    for ex in explorer.explore_both(parse_program(text), model)]
    # a dequeue blocked for good on the empty atomic pseudo-queue, and a cut
    dequeue = parse_program("thread { call y = Q.Dequeue() }")
    explorations.append(run_atomic(dequeue, pseudo_queue_adt(), init_obj=()))
    explorations.append(explore(parse_program(SPIN_PROGRAMS[2][0]), models.hw_model(2), bound=20))
    for ex in explorations:
        has_abort = any(t is None for trs in ex.edges for _, t in trs)
        assert ex.has_abort is has_abort
        assert final_states(ex).has_abort is has_abort
        ends = ex.terminal_done | ex.terminal_livelock | ex.truncated
        assert all(type(i) is int for i in ends)
        assert ends == {i for i, trs in enumerate(ex.edges) if not trs}
        for i in ex.terminal_done | ex.terminal_livelock:
            c = ex.config(i)
            assert config_successors(ex, c) == ()
            assert all(t.done for t in c.threads) is (i in ex.terminal_done)
    # every end fact occurs in some exploration, and an abort flag of each value
    assert all(any(getattr(ex, end) for ex in explorations)
               for end in ("terminal_done", "terminal_livelock", "truncated", "has_abort"))
    assert not all(ex.has_abort for ex in explorations)


def _assert_side_matches_naive(ex, prog, side, bound):
    """``ex``, built with numbered keys, against :func:`naive_graph` of
    ``prog`` over ``side`` built over whole configurations."""
    g = naive_graph(prog, side, bound=bound)
    assert (len(ex.configs), ex.transitions_explored) == (len(g.configs), g.transitions)
    assert ex.edges == g.edges
    assert [ex.config(i) for i in range(len(ex.configs))] == g.configs
    assert ex.states == g.states
    assert (ex.terminal_done, ex.terminal_livelock, ex.truncated, ex.has_abort) == (
        g.terminal_done, g.terminal_livelock, g.truncated, g.has_abort)


def _assert_graph_matches_naive(text, model, bound=explorer.DEFAULT_BOUND):
    """Both sides of ``text`` over ``model`` against the naive build; the two
    explorations."""
    prog = parse_program(text)
    sides = (model, atomic_model(model.seq_spec))
    explorations = explorer.explore_both(prog, model, bound=bound)
    for ex, side in zip(explorations, sides):
        _assert_side_matches_naive(ex, prog, side, bound)
    return explorations


def test_graph_matches_naive_build(monkeypatch):
    cases = _ladder_cases(monkeypatch) + SPIN_PROGRAMS + ERROR_PROGRAMS
    cases += [(m.program, model) for m in mutants() for model in (m.model, m.shipped)]
    for text, model in cases:
        _assert_graph_matches_naive(text, model)
    _assert_graph_matches_naive(SPIN_PROGRAMS[2][0], models.hw_model(2), bound=20)


# three phases of 1, 6 and 2 client-only threads: the middle phase's keys
# hold nine fields, and each phase edge changes how many a key holds
WIDE_PROGRAM = (
    "phase { thread { set a = 0 } }\n"
    "phase { " + " ".join(f"thread {{ set x{i} = a }}" for i in range(6)) + " }\n"
    "phase { thread { set a = x0 } thread { set b = x5 } }"
)


def test_wide_keys_match_naive_build():
    for ex in _assert_graph_matches_naive(WIDE_PROGRAM, models.coarse_queue_model()):
        assert max(ex.configs).bit_length() > 256
        assert (len(ex.configs), ex.transitions_explored) == (70, 199)


def test_key_field_overflow_is_an_error(monkeypatch):
    # a thread of five thread states and five bindings: 3-bit fields hold
    # them, and 2-bit fields cannot
    text = "thread { set x = 1 ; set x = 2 ; set x = 3 ; set x = 4 }"
    monkeypatch.setattr(explorer, "_FIELD_BITS", 3)
    _assert_graph_matches_naive(text, models.coarse_queue_model())
    monkeypatch.setattr(explorer, "_FIELD_BITS", 2)
    message = ("more than 4 distinct thread states: a configuration key holds each id "
               "in a 2-bit field")
    with pytest.raises(ValueError, match=f"^{message}$"):
        explore(parse_program(text), models.coarse_queue_model())


@given(st.lists(st.lists(_single_thread_block(), min_size=1, max_size=2), min_size=1,
                max_size=2),
       st.sampled_from([models.coarse_queue_model(), models.hw_model(2)]))
@settings(max_examples=100, deadline=None)
def test_generated_graphs_match_naive_build(phases, model):
    # a first phase binds x, y and z; threads share the loop counters, which
    # can then grow without end, so the bound cuts some runs
    text = "phase { thread { set x = 0 ; set y = 0 ; set z = 0 } }\n" + "\n".join(
        "phase { " + " ".join(f"thread {{ {block} }}" for block in threads) + " }"
        for threads in phases
    )
    # a call in such a loop can start more operations in one thread than the
    # explorer numbers before the bound cuts the run; the naive build moves
    # threads by the same rules, in the same order, so on a side that
    # stops it must stop on the same error, and each side is judged alone
    prog = parse_program(text)
    for side in (model, atomic_model(model.seq_spec)):
        try:
            ex = explore(prog, side, bound=2_000)
        except ValueError as exc:
            assert str(exc).startswith("operation-id space exhausted for thread "), exc
            with pytest.raises(ValueError) as naive:
                naive_graph(prog, side, bound=2_000)
            assert str(naive.value) == str(exc)
        else:
            _assert_side_matches_naive(ex, prog, side, 2_000)


def test_one_thread_renders_each_event_of_its_path():
    # client events with arithmetic in a call argument and in a predicate,
    # and a method-body step, which carries its operation id
    p = parse_program("thread { set x = 1 ; set y = 3 ; call Q.Enqueue(x + 1) ;"
                      " if x != y - 1 { set z = 0 } }")
    ex = explore(p, models.coarse_queue_model())
    lines, i = [], 0
    while ex.edges[i]:
        ((events, i),) = ex.edges[i]
        lines += [e.render() for e in events]
    assert lines == ["t=1 act x:=1", "t=1 act y:=3", "t=1 act eval Enqueue(x + 1)=2",
                     "t=1 op=101 inv Enqueue 2", "t=1 op=101 act enqueue(2)",
                     "t=1 op=101 ret unit", "t=1 act test(x != y - 1)=true", "t=1 act z:=0"]


def test_exploration_repr_is_a_summary():
    ex = explore(reproductions.TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
    assert repr(ex) == (
        f"Exploration(model='hw-queue', configs={len(ex.configs)}, "
        f"transitions={ex.transitions_explored})"
    )
    assert len(repr(ex)) < 100


def test_outcome_tables_are_freed_without_the_cycle_collector():
    # each spin program has a cyclic component, whose simple paths the
    # outcome dynamic program walks
    gc.collect()
    gc.disable()
    try:
        for text, model in SPIN_PROGRAMS[:3] + SPIN_PROGRAMS[4:]:
            explore(parse_program(text), model).results("client")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finished_exploration_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        ex = explore(reproductions.TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
        ex.scc_info()
        ref = weakref.ref(ex)
        del ex
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Client traces decided on the graphs against their enumeration
# ---------------------------------------------------------------------------

def _enumerated_trace_diffs(ex_m, ex_a, mt_m=None, mt_a=None) -> tuple:
    """The enumeration's answer: whether the trace sets ``mt_m`` and
    ``mt_a`` are equal, and the rendered traces each has that the other
    lacks, sorted.  By default the sets are each side's
    ``client_traces(results("client"))``."""
    if mt_m is None:
        mt_m, mt_a = (client_traces(ex.results("client")) for ex in (ex_m, ex_a))
    return (mt_m == mt_a, tuple(sorted(map(explorer.render_client_trace, mt_m - mt_a))),
            tuple(sorted(map(explorer.render_client_trace, mt_a - mt_m))))


def _assert_trace_diffs_match_enumeration(ex_m, ex_a) -> bool:
    """``client_trace_diffs`` against the enumeration, and whether it read
    the graphs as automata: then it enumerated no outcome, every edge
    emits one client event or object events only, as the automaton reads
    them, and the enumeration is exact."""
    got = explorer.client_trace_diffs(ex_m, ex_a)
    automata = not (ex_m.scc_info()["client_edges"] or ex_a.scc_info()["client_edges"])
    if automata:
        assert "client" not in ex_m._results and "client" not in ex_a._results
        for ex in (ex_m, ex_a):
            for trs in ex.edges:
                for evs, _ in trs:
                    assert (len(evs) == 1 and evs[0].is_client
                            or all(e.op is not None for e in evs))
    assert got == _enumerated_trace_diffs(ex_m, ex_a)
    assert not (automata and (ex_m.approximate or ex_a.approximate))
    return automata


def test_trace_diffs_match_enumeration_on_the_digest_corpus(monkeypatch):
    # every program the digest enumerates outcome sets of, the compares it
    # runs against a foreign spec, and the mutants on their own and the
    # shipped model
    digest = _module(monkeypatch, "scripts", "outcome_digest")
    sides = [explorer.explore_both(parse_program(text), model, init_obj=start, bound=bound)
             for _, text, model, bound, projections, start in digest.corpus() if projections]
    for _, text, ref, spec_name, contents in digest.FOREIGN_COMPARES:
        model, spec = models.parse_model_ref(ref), get_spec(spec_name)
        sides.append(explorer.explore_both(
            parse_program(text), model, spec, init_obj=model.seq_spec.seed_state(contents),
            init_obj_atomic=spec.seed_state(contents)))
    sides += [explorer.explore_both(parse_program(m.program), model)
              for m in mutants() for model in (m.model, m.shipped)]
    sides += [explorer.explore_both(parse_program(text), model) for text, model in ERROR_PROGRAMS]
    read = [_assert_trace_diffs_match_enumeration(*pair) for pair in sides]
    assert read.count(True) >= 100 and read.count(False) >= 5
    # the mutants' differences and the error programs' aborts are among them
    assert sum(not explorer.client_trace_diffs(*pair)[0] for pair in sides) >= 2
    assert all(ex.has_abort for pair in sides[-len(ERROR_PROGRAMS):] for ex in pair)


def test_trace_diffs_match_enumeration_on_ladders_and_cuts(monkeypatch):
    # the benchmark's programs whole and cut at 60 transitions, and the
    # rungs of ``scripts/ladder.py``, whose last one truncates
    cases = _ladder_cases(monkeypatch)
    sides = [explorer.explore_both(parse_program(text), model, bound=bound)
             for text, model in cases for bound in (explorer.DEFAULT_BOUND, 60)]
    ladder = _module(monkeypatch, "scripts", "ladder")
    sides += [explorer.explore_both(parse_program(text), models.parse_model_ref(ref))
              for _, ref, text in ladder.RUNGS]
    assert all(map(_assert_trace_diffs_match_enumeration, *zip(*sides)))
    assert sum(bool(ex_m.truncated) for ex_m, _ in sides) > len(cases)


def test_client_spin_loop_takes_the_enumeration_path():
    # its traces are infinite lassos, which only the enumeration gives
    text, model = SPIN_PROGRAMS[0]
    ex_m, ex_a = explorer.explore_both(parse_program(text), model)
    assert ex_m.scc_info()["client_edges"] and not _assert_trace_diffs_match_enumeration(ex_m, ex_a)
    assert "client" in ex_m._results and "client" in ex_a._results
    # an object spin loop emits no client event on its cycle
    text, model = SPIN_PROGRAMS[2]
    ex_m, ex_a = explorer.explore_both(parse_program(text), model)
    assert ex_m.scc_info()["cyclic"] and _assert_trace_diffs_match_enumeration(ex_m, ex_a)


@st.composite
def _trace_block(draw, depth: int = 0) -> str:
    """Statements over x and y for the trace gate: sets, cell reads and
    writes (some of a value or a cell the object lacks, which abort),
    calls, and `if`s with and without `else`.  No loop: a cycle of such a
    program is an object spin, so its graph is read as an automaton."""
    out = []
    for _ in range(draw(st.integers(1, 2))):
        kinds = ["set", "read", "write", "call", "call"] + ["if"] * (depth == 0)
        kind = draw(st.sampled_from(kinds))
        v, k = draw(st.sampled_from("xy")), draw(st.integers(0, 2))
        if kind == "set":
            out.append(f"set {v} = {draw(st.sampled_from([str(k), 'x', 'y']))}")
        elif kind == "read":
            out.append(f"read {v} <- Q.{draw(st.sampled_from(['back', 'items[1]', 'items[3]']))}")
        elif kind == "write":
            cell = draw(st.sampled_from(["back", "items[1]", "items[2]"]))
            out.append(f"write Q.{cell} <- " + draw(st.sampled_from([str(k), v, "'e'"])))
        elif kind == "call":
            target = draw(st.sampled_from(["", f"{v} = "]))
            out.append(f"call {target}Q." + draw(st.sampled_from([f"Enqueue({v})", "Dequeue()"])))
        else:
            then = draw(_trace_block(depth + 1))
            els = draw(st.one_of(st.just(""), _trace_block(depth + 1)))
            out.append(f"if {v} == {k} {{ {then} }}" + (f" else {{ {els} }}" if els else ""))
    return " ; ".join(out)


# hw-queue at N=2 and its split-increment mutant, whose two enqueues can
# take one slot; the atomic side starts empty or holding 'e'.  Either can
# make a trace differ from the atomic version's
_HW_MODELS = [models.hw_model(2)] + [
    replace(models.hw_model(2), methods=m.model.methods)
    for m in mutants() if m.name == "hw-split-increment"
]
_ATOMIC_CONTENTS = [(), ("e",)]


def _statements(threads: list) -> int:
    """The statements of a phase's thread blocks.  Its traces interleave
    theirs, so a few keep the enumeration in the thousands."""
    return sum(b.count(k) for b in threads for k in ("set ", "read ", "write ", "call ", "if "))


def _trace_sides(phases: list, model, contents: tuple, bound: int = explorer.DEFAULT_BOUND):
    """The program of a first phase that binds x and y, then ``phases``,
    each a list of thread blocks, and both sides of it over ``model``, the
    atomic one started from ``contents``."""
    prog = parse_program("phase { thread { set x = 0 ; set y = 1 } }\n" + "\n".join(
        "phase { " + " ".join(f"thread {{ {block} }}" for block in threads) + " }"
        for threads in phases
    ))
    start = model.seq_spec.seed_state(contents)
    return prog, start, explorer.explore_both(prog, model, bound=bound, init_obj_atomic=start)


@given(st.lists(st.lists(_trace_block(), min_size=1, max_size=3)
                .filter(lambda threads: _statements(threads) <= 5), min_size=1, max_size=2),
       st.sampled_from(_HW_MODELS), st.sampled_from(_ATOMIC_CONTENTS))
@settings(max_examples=120, deadline=None)
def test_generated_trace_diffs_match_enumeration(phases, model, contents):
    _, _, (ex_m, ex_a) = _trace_sides(phases, model, contents, bound=3_000)
    assert _assert_trace_diffs_match_enumeration(ex_m, ex_a)


@given(st.lists(_trace_block(), min_size=1, max_size=2)
       .filter(lambda t: _statements(t) <= 4 and "".join(t).count("call ") <= 1),
       st.sampled_from(_HW_MODELS), st.sampled_from(_ATOMIC_CONTENTS))
@settings(max_examples=40, deadline=None)
def test_generated_trace_diffs_match_naive_enumeration(threads, model, contents):
    # the naive schedule enumerator on both sides, so the programs are
    # small, with one call at most, as it walks every lap of a spin
    prog, start, (ex_m, ex_a) = _trace_sides([threads], model, contents)
    naive = [client_traces(enumerate_executions_naive(
                 prog, side, init_obj=init, projection="client"))
             for side, init in ((model, None), (atomic_model(model.seq_spec), start))]
    assert explorer.client_trace_diffs(ex_m, ex_a) == _enumerated_trace_diffs(
        ex_m, ex_a, *naive)


def test_naive_enumeration_judges_a_spin_on_its_unprojected_cycle():
    # the dequeue spins on the empty queue with object events only, which
    # the client projection drops: the spin is still object divergence,
    # and it gives no client trace
    prog = parse_program(
        "phase { thread { set x = 0 ; set y = 1 } } phase { thread { call Q.Dequeue() } }")
    model = models.hw_model(2)
    naive = enumerate_executions_naive(prog, model, projection="client")
    assert [r.kind for r in naive] == [Kind.OBJECT_DIVERGENT]
    assert client_traces(naive) == frozenset()
    assert naive == explore(prog, model).results("client")
