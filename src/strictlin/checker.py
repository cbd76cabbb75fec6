"""Linearizability checking of recorded executions.

Strict linearizability and linearizability through an abstraction are one
criterion in three settings, and one loop, :func:`_check`, runs all three
checks, bounded to the execution set supplied; :func:`check_exploration`
runs one on an exploration's records, as ``explore --mode`` does:

* ``check_strict``: every execution linearizes against the object's own
  sequential specification, and a terminated one onto a legal sequential
  final state equal to the recorded one.
* ``check_general``: every execution, with methods renamed and states
  abstracted, linearizes against an ADT from the abstracted initial state;
  final states are unconstrained.
* ``check_concurrent_implementation``: the sequential-implementation check
  over sampled states, and every execution, abstracted as in
  ``check_general``, linearizing against the ADT, a terminated one onto its
  abstracted final state.

The loop runs :func:`find_linearization` once per execution.  For
an execution checked onto its final state the search carries that state's
key as a target, and one depth-first walk returns both the first witness
and the first witness reaching that state.  One witness rule holds in
every mode: an entry checked onto its final state carries the witness that
reaches it and no completion; every other passing entry carries the first
witness and its completion.

The witness search (Wing & Gong style) is depth-first over (next operation
to linearize) among operations minimal in happened-before order, threading
specification state and matching recorded return values; pending operations
may be closed with any spec-allowed return or dropped.  It runs on integers:
``history.operation_table`` numbers the operations by ascending op id and
gives each a predecessor bitmask, the operations whose response precedes
its invocation, in the same walk over the history that tells whether it is
well-formed.  The set of linearized operations is a bitmask ``done``, and
operation ``i`` may come next when ``preds[i] & ~done == 0``.  The walk
keeps its open nodes on an explicit stack, so a history may hold more
operations than Python's recursion limit.

Each call of ``check_strict``, ``check_general`` and
``check_concurrent_implementation`` builds one :class:`SpecTable` for its
spec and shares it among all its searches.  The table numbers spec states
by ints on first sight, caches each state's ``state_key``, and caches the
spec's outcomes per (method, argument, state id), in the order
:func:`specs.apply` gives them, so a spec method runs once per distinct
(method, argument, state) in the whole check.  A search memoizes failed
(``done``, state id) pairs (Lowe's memoization) without hashing a raw
state.  Ties are broken by ascending operation id, then in ``apply``'s
order of the outcomes, which fixes the witness and makes reports
deterministic.  The table lives for one call only; ``find_linearization``
takes one as a keyword and otherwise makes a fresh one.

The table also keeps the result of each distinct search problem, which
``find_linearization`` looks up before it searches: the start state, the
target key, the predecessor masks, and each operation's (method, argument)
and recorded response, an abort told apart from a return.  The
executions of one exploration come from one program, so most of them pose a
problem another already posed (hw 2+2 records 4,528 executions and poses 352
problems), and each problem is searched once per check.  A result depends on
its problem alone: the search never sees an event, the order of operations
and of outcomes does not depend on how states are numbered, and the trail
names operations by index.  Each execution still builds its witness and
completion from its own events, so every entry is the one its own search
would give.  ``CheckReport.searches`` counts the problems searched.

Results come from the search's trail.  The witness reuses the input
history's own invocation events and the response events of its completed
operations; only a closed pending operation gets a new response, and a
complete history is its own completion.  An operation closed by an abort
response has no legal sequential counterpart, so histories containing one
never linearize.  Witnesses, completions and the renamed histories of
abstracted executions are built with ``History._trusted``, without the
checks of construction: their events come from a history that passed them.

``brute_force_linearizations`` is the independent oracle: it enumerates raw
permutations and checks the relation by explicit bijection search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .explorer import Exploration, Kind, incomplete
from .history import (
    Event,
    History,
    Inv,
    Ret,
    RetAbort,
    is_complete,
    operation_table,
    pending,
    project_thread,
    ret as ret_event,
    serialize_history,
)
from .specs import (
    DEFAULT_ALPHABET,
    AbstractionFunction,
    Adt,
    ImplVerdict,
    RenamingFunction,
    SeqSpec,
    apply,
    is_sequential_implementation,
)
from .values import Value, render_value


@dataclass(frozen=True)
class RecordedExecution:
    """One explored execution as the checkers consume it."""

    initial_state: Any
    history: History
    terminated: bool
    final_state: Any = None

    def __post_init__(self) -> None:
        if self.terminated and pending(self.history):
            raise ValueError("terminated execution with pending operations")


# a search's trail: the operations it linearized, in order, each with its
# return; and its result, see :func:`_solve`
Trail = tuple[tuple[int, Value], ...]
Found = Optional[tuple[tuple[Trail, int], Optional[Trail]]]


class SpecTable:
    """One check's table for one spec: spec states numbered by ints, the
    spec's outcomes per (method, argument, state id), and the result of each
    distinct search problem.

    ``states[sid]`` is the state numbered ``sid`` (the first of its equals
    seen) and ``keys[sid]`` its ``spec.state_key``.  ``calls[(method, arg)]``
    maps a state id to the method's outcomes there, as ``(state id, return)``
    pairs in :func:`specs.apply`'s order; it fills as searches ask, so a
    spec method runs once per distinct (method, argument, state) however
    many searches share the table.
    ``searches`` maps each search problem to its result (see
    :func:`find_linearization`), so a problem is searched once however many
    executions pose it.
    """

    def __init__(self, spec: SeqSpec) -> None:
        self.spec = spec
        self.ids: dict[Any, int] = {}
        self.states: list[Any] = []
        self.keys: list[Any] = []
        self.calls: dict[tuple[str, Value], dict[int, tuple[tuple[int, Value], ...]]] = {}
        self.searches: dict[tuple, Found] = {}

    def intern(self, state: Any) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            self.keys.append(self.spec.state_key(state))
        return sid

    def fill(self, cell: dict, call: tuple[str, Value], sid: int) -> tuple[tuple[int, Value], ...]:
        """Apply ``call`` at state ``sid`` and store its outcomes in ``cell``,
        the table's map for ``call``."""
        raw = apply(self.spec, call[0], self.states[sid], call[1])
        outs = cell[sid] = tuple((self.intern(s2), out) for s2, out in raw)
        return outs


@dataclass(frozen=True)
class Linearization:
    """A successful search: the completion used, its sequential witness, and,
    for a terminated execution, the first witness whose legal final state is
    the recorded one (None when no witness reaches it)."""

    completion: History
    witness: History
    strict: Optional[History]


_ABORTED = object()  # the recorded response of an operation closed by an abort
_UNSEEN = object()


def _solve(
    table: SpecTable,
    start: int,
    names: Sequence[tuple[str, Value]],
    rets: Sequence[Any],
    preds: Sequence[int],
    target_key: Optional[Any],
) -> Found:
    """The search itself, from spec state id ``start``.

    A node is complete when every completed operation is linearized.
    Returns None when no node is complete; otherwise the first complete
    node's trail (the linearized operations in order, each with its return)
    and mask of linearized operations, plus the trail of the first complete
    node whose state matches ``target_key`` under the spec's state key
    (None without a target or a match).

    The first complete node is the one a search without a target finds:
    until the search reaches it, every node it marks failed has no complete
    node below it, so searches with and without a target mark the same
    nodes failed and visit nodes in the same order.  Past it, the search
    goes on for the target alone.
    """
    if _ABORTED in rets:
        return None
    n = len(names)
    complete = sum(1 << i for i, r in enumerate(rets) if r is not None)
    all_ops = (1 << n) - 1
    cells = [table.calls.setdefault(name, {}) for name in names]
    keys = table.keys
    failed: set[int] = set()  # sid << n | done
    trail: list[tuple[int, Value]] = []
    first: list[tuple[Trail, int]] = []

    def moves(done: int, sid: int) -> Iterator[tuple[int, int, int, Value]]:
        """The moves out of node (``done``, ``sid``) in search order: each
        operation that may come next, lowest first, with each of its
        outcomes that agrees with its recorded return."""
        todo = ~done
        undone = all_ops & todo
        while undone:
            bit = undone & -undone  # the lowest undone operation
            undone ^= bit
            i = bit.bit_length() - 1
            if preds[i] & todo:
                continue
            outs = cells[i].get(sid)
            if outs is None:
                outs = table.fill(cells[i], names[i], sid)
            want = rets[i]
            for s2, out in outs:
                if want is None or out == want:
                    yield i, done | bit, s2, out

    def walk(done: int, sid: int) -> bool:
        """Depth first from the root (``done``, ``sid``) until a node hits
        the target; ``stack`` holds the open nodes, and ``trail[k]`` is the
        move from ``stack[k]`` to the node after it."""
        stack: list[tuple[int, Iterator]] = []
        while True:
            if done & complete == complete:
                if not first:
                    first.append((tuple(trail), done))
                if target_key is None or keys[sid] == target_key:
                    return True
                # keep searching: closing a pending op or another order may
                # reach the target state
            key = sid << n | done
            if key in failed:
                trail.pop()  # the root is never failed
            else:
                stack.append((key, moves(done, sid)))
            while True:
                if not stack:
                    return False
                key, it = stack[-1]
                move = next(it, None)
                if move is not None:
                    break
                failed.add(key)
                stack.pop()
                if stack:
                    trail.pop()
            i, done, sid, out = move
            trail.append((i, out))

    hit = walk(0, start)
    if not first:
        return None
    return first[0], tuple(trail) if hit and target_key is not None else None


def _witness(
    calls: Sequence[Event], ends: Sequence[Optional[Event]], trail: Sequence[tuple[int, Value]]
) -> tuple[History, tuple[Event, ...]]:
    """The sequential witness of a trail, from the history's own events, and
    the responses that close its pending operations."""
    events: list[Event] = []
    closures: list[Event] = []
    for i, out in trail:
        call, end = calls[i], ends[i]
        if end is None:
            end = ret_event(call.thread, call.op, out)  # type: ignore[arg-type]
            closures.append(end)
        events += (call, end)
    return History._trusted(tuple(events)), tuple(closures)


def find_linearization(
    exec: RecordedExecution, spec: SeqSpec, *, table: Optional[SpecTable] = None
) -> Optional[Linearization]:
    """Search completions of the history crossed with linearization orders.

    Pending operations closed along the way take any spec-allowed return at
    their linearization point; the rest are dropped.  Returns the first
    witness, and for a terminated execution the first witness reaching its
    recorded final state, from one search; or None.  ``table`` lets several
    searches against ``spec`` share one :class:`SpecTable`.
    """
    h = exec.history
    _, calls, ends, preds, well_formed = operation_table(h)
    if not well_formed:
        raise ValueError("history is not well-formed")
    target = spec.state_key(exec.final_state) if exec.terminated else None
    if table is None:
        table = SpecTable(spec)
    elif table.spec is not spec:
        raise ValueError("spec table belongs to another spec")
    # the search problem: start state, target, predecessor masks, and each
    # operation's (method, argument) and recorded response, an abort as
    # _ABORTED and None while pending; _solve reads nothing else, and its
    # trail names operations by index, so a problem is searched once
    names = tuple((c.label.method, c.label.arg) for c in calls)  # type: ignore[union-attr]
    rets = tuple(None if e is None else e.label.value if isinstance(e.label, Ret)  # type: ignore[union-attr]
                 else _ABORTED for e in ends)
    sid = table.intern(exec.initial_state)
    key = (sid, target, preds, names, rets)
    got = table.searches.get(key, _UNSEEN)
    if got is _UNSEEN:
        got = table.searches[key] = _solve(table, sid, names, rets, preds, target)
    if got is None:
        return None
    (trail, done), hit = got
    witness, closures = _witness(calls, ends, trail)
    if any(e is None for e in ends):
        dropped = {c.op for i, c in enumerate(calls) if not done >> i & 1}
        h = History._trusted(tuple(e for e in h if e.op not in dropped) + closures)
    # the strict witness is the plain one when the search stopped at its node
    strict = None if hit is None else witness if hit == trail else _witness(calls, ends, hit)[0]
    return Linearization(h, witness, strict)


def find_strict_linearization(exec: RecordedExecution, spec: SeqSpec) -> Optional[History]:
    """As :func:`find_linearization` for a terminated execution, additionally
    requiring a legal final state equal to the recorded one."""
    if not exec.terminated:
        raise ValueError("strict linearization requires a terminated execution")
    if not is_complete(exec.history):
        raise ValueError("terminated execution must have a complete history")
    lin = find_linearization(exec, spec)
    return None if lin is None else lin.strict


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionVerdict:
    execution: RecordedExecution
    ok: bool
    witness: Optional[History] = None
    completion: Optional[History] = None
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    """A check's verdict and one entry per execution; ``searches`` counts the
    distinct search problems the check searched, at most one per entry;
    ``inconclusive`` says why a pass is not established, or is ""."""

    mode: str
    passed: bool
    entries: tuple[ExecutionVerdict, ...]
    impl: Optional[ImplVerdict] = None
    searches: int = 0
    inconclusive: str = ""

    @property
    def verdict(self) -> str:
        # a fail stands on an incomplete exploration: the violation was explored
        return "fail" if not self.passed else "inconclusive" if self.inconclusive else "pass"

    def failing(self) -> tuple[ExecutionVerdict, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def lines(self) -> list[str]:
        """The report as text; the sequential-implementation counterexample
        and the entries' details carry their states already rendered."""
        out = [f"mode={self.mode} verdict={self.verdict} executions={len(self.entries)}"]
        if self.impl is not None and not self.impl.ok:
            ce = self.impl.counterexample
            out.append(
                f"  sequential-implementation counterexample: state="
                f"{ce.state} method={ce.method} "
                f"in={render_value(ce.inp)}: {ce.detail}"
            )
        for e in self.failing():
            out.append("  failing execution:")
            for line in serialize_history(e.execution.history).splitlines():
                out.append(f"    {line}")
            if e.detail:
                out.append(f"    {e.detail}")
        if self.inconclusive:
            out.append(f"  inconclusive: {self.inconclusive}")
        return out


def _renamed(h: History, rf: RenamingFunction) -> History:
    """``h`` with its methods renamed by ``rf``; ``h`` itself when ``rf``
    maps each of its methods to itself."""
    methods = dict.fromkeys(e.label.method for e in h if isinstance(e.label, Inv))
    names = {m: rf.forward(m) for m in methods}  # type: ignore[union-attr]
    if all(m == a for m, a in names.items()):
        return h
    return History._trusted(tuple(
        Event(e.thread, Inv(names[e.label.method], e.label.arg), e.op)
        if isinstance(e.label, Inv) else e
        for e in h
    ))


def _check(
    mode: str,
    execs: Iterable[RecordedExecution],
    spec: SeqSpec,
    abstraction: Optional[tuple[AbstractionFunction, RenamingFunction]] = None,
    finals: bool = True,
    impl: Optional[ImplVerdict] = None,
) -> CheckReport:
    """The check of every mode: one search per execution against ``spec``.

    With an ``abstraction`` each execution is searched with its states
    mapped by the abstraction function and its methods renamed; without one
    it is searched as recorded.  With ``finals`` a terminated execution must
    also linearize onto its (abstracted) final state.  An entry checked onto
    its final state carries the witness that reaches it and no completion;
    every other passing entry carries the first witness and its completion.
    ``impl``, the sequential-implementation verdict, must hold too.  A
    terminated execution whose final state lies outside the abstraction's
    domain fails, as no abstract state stands for it."""
    if abstraction is None:
        missed = "no linearization reaches the recorded final state"
    else:
        af, rf = abstraction
        missed = "no abstract linearization reaches the abstracted final state"
    table = SpecTable(spec)
    entries = []
    for ex in execs:
        onto_final = finals and ex.terminated
        if abstraction is not None and onto_final and not af.domain(ex.final_state):
            detail = f"final state outside the domain of {af.name}"
            entries.append(ExecutionVerdict(ex, False, detail=detail))
            continue
        a = ex if abstraction is None else RecordedExecution(
            af(ex.initial_state),
            _renamed(ex.history, rf),
            onto_final,
            af(ex.final_state) if onto_final else None,
        )
        lin = find_linearization(a, spec, table=table)
        if lin is None:
            detail = ("no abstract linearization" if abstraction
                      else "no linearization exists" if ex.terminated
                      else "no completion linearizes")
            entries.append(ExecutionVerdict(ex, False, detail=detail))
        elif not onto_final:
            entries.append(
                ExecutionVerdict(ex, True, witness=lin.witness, completion=lin.completion)
            )
        elif lin.strict is None:
            detail = f"{missed} {spec.render_state(a.final_state)}"
            entries.append(ExecutionVerdict(ex, False, detail=detail))
        else:
            entries.append(ExecutionVerdict(ex, True, witness=lin.strict))
    passed = all(e.ok for e in entries) and (impl is None or impl.ok)
    return CheckReport(mode, passed, tuple(entries), impl=impl, searches=len(table.searches))


def check_strict(
    execs: Iterable[RecordedExecution], spec: SeqSpec
) -> CheckReport:
    """Strict linearizability over the supplied executions: incomplete ones
    must linearize, terminated ones must linearize onto their final state."""
    return _check("strict", execs, spec)


def check_general(
    execs: Iterable[RecordedExecution],
    adt: Adt,
    af: AbstractionFunction,
    rf: RenamingFunction,
) -> CheckReport:
    """Classical linearizability against an ADT through an abstraction
    function: each execution's completion must linearize to a legal abstract
    execution from the abstracted initial state; final states unconstrained."""
    return _check("general", execs, adt, (af, rf), finals=False)


def check_concurrent_implementation(
    execs: Iterable[RecordedExecution],
    model_spec: SeqSpec,
    adt: Adt,
    af: AbstractionFunction,
    rf: RenamingFunction,
    states: Iterable[Any],
) -> CheckReport:
    """Concurrent implementation of an ADT: sequential implementation over
    the sampled states, and every execution linearizing against the ADT
    through the abstraction, terminated ones onto their abstracted final
    state."""
    impl = is_sequential_implementation(model_spec, adt, af, rf, states)
    return _check("impl", execs, adt, (af, rf), impl=impl)


def check_exploration(
    ex: Exploration,
    mode: str,
    adt: Optional[Adt] = None,
    af: Optional[AbstractionFunction] = None,
    rf: Optional[RenamingFunction] = None,
) -> CheckReport:
    """The check ``explore --mode`` runs on ``ex``'s recorded executions:
    ``strict`` against the model's own spec, ``general`` or ``impl`` against
    ``adt`` through ``af`` and ``rf`` (by default the identity), impl mode
    sampling the model's states over ``specs.DEFAULT_ALPHABET``.  A pass on
    an incomplete exploration is inconclusive, see :func:`explorer.incomplete`.
    An unknown mode, a missing ``adt`` or ``af``, or impl mode on a model
    without a state sampler raises :class:`ValueError` before any recording."""
    model = ex.model
    if mode not in ("strict", "general", "impl"):
        raise ValueError(f"unknown mode {mode!r}: expected strict, general or impl")
    if mode != "strict" and (adt is None or af is None):
        raise ValueError(f"{mode} mode needs an adt and an abstraction function")
    if mode == "impl" and model.enumerate_states is None:
        raise ValueError(f"impl mode needs a state sampler: {model.name} has none")
    recs = recorded_executions(ex)
    if mode == "strict":
        report = check_strict(recs, model.seq_spec)
    else:
        rf = rf or RenamingFunction.identity(model.method_names())
        if mode == "general":
            report = check_general(recs, adt, af, rf)
        else:
            states = model.enumerate_states(DEFAULT_ALPHABET)
            report = check_concurrent_implementation(recs, model.seq_spec, adt, af, rf, states)
    return replace(report, inconclusive=incomplete(ex)) if report.passed else report


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

MAX_ORACLE_OPS = 7


def _bijection_check(h: History) -> Callable[[History], bool]:
    """Whether a history ``h_seq`` is one ``h`` linearizes to, checked by
    explicit bijection enumeration: slower than the canonical-correspondence
    shortcut of :func:`~strictlin.history.linearizes` but independent of
    it.  What depends on ``h`` alone (its threads, their projections, its
    response-before-invocation pairs) is computed once."""
    threads = h.threads()
    projections = [project_thread(h, t) for t in threads]
    n = len(h.events)
    # positions (a, b) of h whose order a bijection must keep
    ordered = [
        (a, b) for a in range(n) for b in range(a + 1, n)
        if isinstance(h.events[a].label, (Ret, RetAbort)) and isinstance(h.events[b].label, Inv)
    ]

    def check(h_seq: History) -> bool:
        if h_seq.threads() != threads:
            return False
        for t, p in zip(threads, projections):
            if p != project_thread(h_seq, t):
                return False
        if n != len(h_seq.events):
            return False
        at: dict[Event, list[int]] = {}
        for j, e in enumerate(h_seq.events):
            at.setdefault(e, []).append(j)
        slots = [at.get(e, []) for e in h.events]

        def assign(i: int, used: set[int], nu: list[int]) -> bool:
            if i == n:
                return all(nu[a] < nu[b] for a, b in ordered)
            for j in slots[i]:
                if j not in used:
                    nu.append(j)
                    used.add(j)
                    if assign(i + 1, used, nu):
                        return True
                    used.discard(j)
                    nu.pop()
            return False

        return assign(0, set(), [])

    return check


def brute_force_linearizations(h: History) -> frozenset[History]:
    """All complete sequential permutations ``h'`` with ``h`` linearizing to
    ``h'``, by explicit bijection checking.  Guarded to tiny histories."""
    if not is_complete(h):
        raise ValueError("oracle requires a complete history")
    calls = {e.op: e for e in h if isinstance(e.label, Inv)}
    ends = {e.op: e for e in h if not isinstance(e.label, Inv)}
    if len(calls) > MAX_ORACLE_OPS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_OPS} operations")
    linearizes_to = _bijection_check(h)
    out = set()
    for perm in itertools.permutations(calls):
        cand = History(tuple(e for op in perm for e in (calls[op], ends[op])))
        if linearizes_to(cand):
            out.add(cand)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Adapter from explorations
# ---------------------------------------------------------------------------


def recorded_executions(exploration) -> tuple[RecordedExecution, ...]:
    """Distinct (history, classification, final state) triples of an
    exploration, as recorded executions for the checkers.

    Each history is a ``results("history")`` trace taken as it is, with
    ``History._trusted``: that projection keeps interface events only, and
    the explorer emits one invocation and at most one response per
    operation id, so filtering or validating the trace again would find
    nothing."""
    key = exploration.spec.state_key
    init = exploration.initial_object
    # the explorer interns events and object states, so each distinct event
    # is rendered once, and each final state keyed and rendered once
    lines: dict[int, str] = {}
    # a final state's key and its text, which orders the records; None
    # stands for an execution that did not terminate
    finals: dict[int, tuple[Any, str]] = {id(None): (None, "None")}

    def text(h: History) -> str:
        out = []
        for e in h.events:
            line = lines.get(id(e))
            if line is None:
                line = lines[id(e)] = e.render() + "\n"
            out.append(line)
        return "".join(out)

    seen: dict[tuple, tuple[str, RecordedExecution]] = {}
    for r in exploration.results("history"):
        h = History._trusted(r.trace)
        terminated = r.kind is Kind.TERMINATED
        final = r.final_object if terminated else None
        f = finals.get(id(final))
        if f is None:
            k = key(final)
            f = finals[id(final)] = (k, str(k))
        rec = RecordedExecution(init, h, terminated, final)
        seen.setdefault((text(h), terminated, f[0]), (f[1], rec))
    order = sorted(seen.items(), key=lambda item: (item[0][0], item[1][0]))
    return tuple(rec for _, (_, rec) in order)
