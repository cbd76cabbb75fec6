"""Slow reference implementations that the fast paths are tested against.

:func:`config_successors` takes one step from a whole
:class:`~strictlin.explorer.Config`, running each thread's rule
(``Exploration.thread_moves``) afresh on an unbuilt exploration, with none
of the move table, none of the numbering of thread states and bindings and
none of the integer keys and stored deltas that ``Exploration.build`` steps
by; it shares only the transition rules with the explorer.  The move table is guarded by
``tests/test_explorer.py``: every entry equals a fresh run of its rule, run
again under every input outside its footprint it gives the same moves, and
each entry's rule runs once.
:func:`enumerate_executions_naive` replaces the configuration graph by a walk
over every schedule, stepping with :func:`config_successors`.
:func:`naive_graph` builds the configuration graph in ``Exploration.build``'s
order, but over :class:`~strictlin.explorer.Config` named tuples hashed
whole, stepping with :func:`config_successors`.
:func:`run_single_thread` shares no code with the explorer: it runs a
one-thread program over a coarse-grained queue by direct recursion over its
syntax tree.
:func:`happened_before_by_scan` compares every response with every later
invocation, with none of the numbering or bitmasks of
``history.operation_table``.
:func:`linearizes_by_bijection` decides the linearization relation by
enumerating bijections, with none of the canonical correspondence of
``history.linearizes``.
:func:`queue_linearizable_by_brute_force` decides whether a queue history
linearizes by trying every completion and every permutation, with none of
the witness search of ``checker.find_linearization``.
"""

from typing import Any, NamedTuple

from strictlin.checker import _bijection_check, brute_force_linearizations
from strictlin.explorer import (
    _PROJECTIONS,
    DEFAULT_BOUND,
    Config,
    ExecutionResult,
    Exploration,
    Kind,
    ThreadState,
)
from strictlin.history import History, Inv, Ret, RetAbort, completions, pending
from strictlin.models import ObjectModel
from strictlin.programs import (
    Arith,
    AssignStmt,
    AtomicStmt,
    CallStmt,
    IfStmt,
    Lit,
    Program,
    Var,
    WhileStmt,
)
from strictlin.specs import legal_seq_outcomes, queue_adt
from strictlin.values import EMPTY, UNIT, Value


def _phase_start(ex: Exploration, phase: int, client: tuple, sid: int) -> Config:
    """Phase ``phase`` about to start under ``client`` and object state ``sid``."""
    return Config(phase, tuple(map(ThreadState, ex.entries[phase])), client, sid)


def config_successors(ex: Exploration, c: Config) -> tuple:
    """The transitions out of ``c`` as ``(events, target)`` pairs, the target
    a :class:`Config`, or None for a runtime error: each running thread's
    moves, in thread order, from a fresh ``ex.thread_moves`` call.  When
    every thread has finished, a phase before the last goes on to the next
    one."""
    threads = c.threads
    if all(t.done for t in threads):
        if c.phase + 1 < len(ex.entries):
            return (((), _phase_start(ex, c.phase + 1, c.client, c.sid)),)
        return ()
    out = []
    for i, t in enumerate(threads):
        if t.done:
            continue
        tid = ex.first_tid[c.phase] + i
        for events, to in ex.thread_moves(tid, t, c.client, c.sid):
            if to is not None:
                nt, client, sid = to
                to = Config(c.phase, threads[:i] + (nt,) + threads[i + 1 :], client, sid)
            out.append((events, to))
    return tuple(out)


def enumerate_executions_naive(
    prog: Program,
    model: ObjectModel,
    init_obj: Any = None,
    max_steps: int = 10_000,
    *,
    projection: str,
) -> frozenset[ExecutionResult]:
    """Schedule-by-schedule enumeration without configuration hashing.

    Exponential; a cross-check oracle for small programs.  Divergence is
    detected by a configuration repeat along the current schedule, and its
    kind judged on every event of the repeated stretch, before projection:
    client divergence when they are all client events.
    """
    obj = model.seq_spec.initial_states[0] if init_obj is None else init_obj
    ex = Exploration(prog, model, obj, DEFAULT_BOUND)
    keep = _PROJECTIONS[projection]
    results: set[ExecutionResult] = set()

    # ``trace`` holds the kept events of the schedule so far and ``raw`` all
    # of them; ``path`` maps each configuration on it to the lengths of both
    # when the schedule reached it
    def walk(c: Config, trace: tuple, raw: tuple, path: dict, depth: int) -> None:
        if depth > max_steps:
            results.add(ExecutionResult(trace, Kind.UNKNOWN, note="step budget exhausted"))
            return
        succ = config_successors(ex, c)
        if not succ:
            if all(t.done for t in c.threads) and c.phase + 1 >= len(prog.phases):
                results.add(
                    ExecutionResult(trace, Kind.TERMINATED, c.client, ex.states[c.sid])
                )
            else:
                results.add(
                    ExecutionResult(
                        trace, Kind.OBJECT_DIVERGENT, note="all pending threads blocked"
                    )
                )
            return
        for events, target in succ:
            ev = tuple(e for e in events if keep(e))
            if target is None:
                results.add(ExecutionResult(trace + ev, Kind.ABORTED, note="runtime error"))
                continue
            if target in path:
                cut, raw_cut = path[target]
                kind = (
                    Kind.CLIENT_DIVERGENT
                    if all(e.is_client for e in raw[raw_cut:] + events)
                    else Kind.OBJECT_DIVERGENT
                )
                results.add(ExecutionResult(trace[:cut], kind, cycle=trace[cut:] + ev))
                continue
            path[target] = (len(trace) + len(ev), len(raw) + len(events))
            walk(target, trace + ev, raw + events, path, depth + 1)
            del path[target]

    first = _phase_start(ex, 0, (), ex.state_id(obj))
    walk(first, (), (), {first: (0, 0)}, 0)
    return frozenset(results)


class NaiveGraph(NamedTuple):
    """A configuration graph as :func:`naive_graph` builds it, laid out as
    ``Exploration``'s: ``configs[i]`` is configuration ``i`` and
    ``edges[i]`` its ``(events, target id)`` pairs, the target None for a
    runtime error; ``states`` is the object-state table by id."""

    configs: list[Config]
    edges: list[tuple]
    terminal_done: set[int]
    terminal_livelock: set[int]
    truncated: set[int]
    has_abort: bool
    transitions: int
    states: list[Any]


def naive_graph(
    prog: Program, model: ObjectModel, init: Any = None, bound: int = DEFAULT_BOUND
) -> NaiveGraph:
    """The configuration graph of ``prog`` over ``model`` from ``init`` (the
    spec's first start state when None), in ``Exploration.build``'s order:
    depth first from the initial configuration, each configuration numbered
    on first sight, none expanded once ``bound`` transitions are explored.
    A configuration is a :class:`Config` of :class:`ThreadState` tuples and
    a bindings tuple, hashed whole, and :func:`config_successors` steps it,
    so neither the move table nor the integer keys of the build take
    part."""
    obj = model.seq_spec.initial_states[0] if init is None else init
    ex = Exploration(prog, model, obj, bound)
    first = _phase_start(ex, 0, (), ex.state_id(obj))
    order, configs, edges = {first: 0}, [first], [()]
    done, livelock, truncated = set(), set(), set()
    has_abort, transitions = False, 0
    todo = [0]
    while todo:
        i = todo.pop()
        if transitions >= bound:
            truncated.add(i)
            continue
        succ = config_successors(ex, configs[i])
        transitions += len(succ)
        if not succ:
            (done if all(t.done for t in configs[i].threads) else livelock).add(i)
        out = []
        for events, target in succ:
            if target is None:
                has_abort = True
            else:
                if target not in order:
                    order[target] = len(configs)
                    configs.append(target)
                    edges.append(())
                    todo.append(order[target])
                target = order[target]
            out.append((events, target))
        edges[i] = tuple(out)
    return NaiveGraph(configs, edges, done, livelock, truncated, has_abort, transitions,
                      ex.states)


class _Stop(Exception):
    """Ends a reference run early; ``args[0]`` is the outcome."""


def run_single_thread(prog: Program, max_steps: int = 10_000) -> tuple:
    """Outcome of a one-thread program of ``set``, ``atomic``, ``while``,
    ``if`` and ``call`` statements, run from no client bindings and an empty
    coarse-grained queue of capacity 4 (``coarse_queue_model()``'s) by
    direct recursion over its syntax tree.  ``Enqueue`` appends its argument
    and returns ``unit``, aborting on a full queue; ``Dequeue`` pops the
    front, or returns ``EMPTY`` on an empty queue.

    The outcome is ``("terminated", bindings, contents)`` with the bindings
    sorted by name and the queue's contents front first, ``("aborted",)`` on
    an unbound variable, arithmetic on a non-integer or an enqueue on a full
    queue, ``("blocked",)`` at an ``atomic`` whose guard fails (nothing else
    can make it hold), or ``("diverges",)`` once more than ``max_steps``
    statements and tests have run.
    """
    ((code,),) = prog.phases
    env: dict[str, Value] = {}
    queue: list[Value] = []
    steps = 0

    def tick() -> None:
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise _Stop(("diverges",))

    def value(e, scope: dict) -> Value:
        if isinstance(e, Lit):
            return e.value
        name = e.name if isinstance(e, Var) else e.var
        if name not in scope:
            raise _Stop(("aborted",))
        v = scope[name]
        if isinstance(e, Arith):
            if not isinstance(v, int):
                raise _Stop(("aborted",))
            return v + e.k if e.op == "+" else v - e.k
        return v

    def holds(pred) -> bool:
        equal = value(pred.lhs, env) == value(pred.rhs, env)
        return equal if pred.op == "==" else not equal

    def run(block: tuple) -> None:
        for s in block:
            tick()
            if isinstance(s, AssignStmt):
                env[s.target] = value(s.expr, env)
            elif isinstance(s, AtomicStmt):
                if s.guard is not None and not holds(s.guard):
                    raise _Stop(("blocked",))
                scope = dict(env)  # later assignments see earlier ones
                for name, e in s.assigns:
                    scope[name] = value(e, scope)
                env.update(scope)
            elif isinstance(s, WhileStmt):
                while holds(s.pred):
                    run(s.body)
                    tick()  # the next test
            elif isinstance(s, IfStmt):
                run(s.then if holds(s.pred) else s.els)
            elif isinstance(s, CallStmt) and s.method == "Enqueue":
                arg = value(s.arg, env)
                if len(queue) >= 4:
                    raise _Stop(("aborted",))
                queue.append(arg)
                if s.target is not None:
                    env[s.target] = UNIT
            elif isinstance(s, CallStmt) and s.method == "Dequeue":
                got = queue.pop(0) if queue else EMPTY
                if s.target is not None:
                    env[s.target] = got
            else:
                raise TypeError(f"not a single-thread client statement: {s!r}")

    try:
        run(code)
    except _Stop as stop:
        return stop.args[0]
    return ("terminated", tuple(sorted(env.items())), tuple(queue))


def happened_before_by_scan(h: History) -> frozenset[tuple[int, int]]:
    """The pairs ``(o, o')`` whose response of ``o`` precedes the invocation
    of ``o'`` in ``h`` (``o != o'``), by an O(n^2) scan over the events."""
    pairs = set()
    ret_at: dict[int, int] = {}
    for i, e in enumerate(h):
        if isinstance(e.label, (Ret, RetAbort)):
            ret_at[e.op] = i  # type: ignore[index]
    for j, e in enumerate(h):
        if isinstance(e.label, Inv):
            for o, i in ret_at.items():
                if i < j and o != e.op:
                    pairs.add((o, e.op))
    return frozenset(pairs)


def linearizes_by_bijection(h: History, h_seq: History) -> bool:
    """Whether ``h`` linearizes to ``h_seq``, by explicit bijection
    enumeration (``checker._bijection_check``, which
    ``brute_force_linearizations`` runs on every permutation)."""
    return _bijection_check(h)(h_seq)


def queue_linearizable_by_brute_force(h: History) -> bool:
    """Whether queue history ``h`` linearizes: some completion of it, each
    pending Enqueue returning ``UNIT`` and each pending Dequeue ``'a'``,
    ``'b'`` or ``EMPTY``, has a permutation (from
    ``brute_force_linearizations``) legal for the queue ADT from empty."""
    open_ops = pending(h)
    cands = {
        e.op: (UNIT,) if e.label.method == "Enqueue" else ("a", "b", EMPTY)
        for e in h if e.op in open_ops
    }
    adt = queue_adt()
    pool = completions(h, cands) if open_ops else [h]
    return any(
        legal_seq_outcomes(adt, (), perm)
        for hc in pool for perm in brute_force_linearizations(hc)
    )
