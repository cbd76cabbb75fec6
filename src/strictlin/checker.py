"""Linearizability checking of recorded executions.

Three checks, all bounded to the execution set supplied:

* ``check_strict``: every execution linearizes against the object's own
  sequential specification, and terminated executions additionally reach a
  legal sequential final state equal to the recorded one.
* ``check_general``: every execution, with methods renamed and states
  abstracted, linearizes against an ADT from the abstracted initial state;
  final states are unconstrained.
* ``check_concurrent_implementation``: the sequential-implementation check
  over sampled states, plus general linearizability, plus agreement of the
  abstracted final state with a legal abstract execution.

The witness search (Wing & Gong style) is depth-first over (next operation
to linearize) among operations minimal in happened-before order, threading
specification state and matching recorded return values; pending operations
may be closed with any spec-allowed return or dropped.  It runs on integers:
one walk over the history numbers the operations by ascending op id and
gives each a predecessor bitmask, the operations whose response precedes
its invocation.  The set of linearized operations is a bitmask ``done``, and
operation ``i`` may come next when ``preds[i] & ~done == 0``.  Each search
keeps its own table from (method, argument, spec state) to the spec's
outcomes sorted by ``repr``, so a spec method runs once per distinct state.
Failed (``done``, spec state) pairs are memoized, on the raw spec state
(Lowe's memoization).  Ties are broken by ascending operation id, then by
the ``repr`` of the outcome, which fixes the witness and makes reports
deterministic.  An operation closed by an abort response has no legal
sequential counterpart, so histories containing one never linearize.

``brute_force_linearizations`` is the independent oracle: it enumerates raw
permutations and checks the relation by explicit bijection search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from .history import (
    Event,
    History,
    Inv,
    Label,
    Ret,
    RetAbort,
    inv as inv_event,
    is_complete,
    is_well_formed,
    pending,
    project_thread,
    ret as ret_event,
    serialize_history,
)
from .specs import (
    AbstractionFunction,
    Adt,
    ImplVerdict,
    RenamingFunction,
    SeqSpec,
    apply,
    is_sequential_implementation,
    legal_seq_outcomes,
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


@dataclass(frozen=True)
class Operation:
    op: int
    thread: int
    method: str
    arg: Value
    ret: Optional[Value]  # None = pending
    aborted: bool = False


def _operations(h: History) -> tuple[tuple[Operation, ...], tuple[int, ...]]:
    """The operations of a well-formed ``h`` in ascending op-id order, with
    their predecessor masks.

    Bit ``i`` of a mask stands for ``ops[i]``; the mask of an operation holds
    the operations whose response precedes its invocation, its predecessors
    in happened-before order.  One walk over the events records, for each
    invocation, how many responses came before it.
    """
    invoked: dict[int, tuple[Event, int]] = {}
    closing: dict[int, Label] = {}
    responders: list[int] = []  # op ids in response order
    for e in h:
        if isinstance(e.label, Inv):
            invoked[e.op] = (e, len(responders))  # type: ignore[index]
        else:
            closing[e.op] = e.label  # type: ignore[index]
            responders.append(e.op)  # type: ignore[arg-type]
    index = {op: i for i, op in enumerate(sorted(invoked))}
    before = [0]  # before[k]: mask of the first k responders
    for op in responders:
        before.append(before[-1] | 1 << index[op])
    ops = []
    preds = []
    for op in index:
        e, seen = invoked[op]
        end = closing.get(op)
        ops.append(Operation(
            op, e.thread, e.label.method, e.label.arg,  # type: ignore[union-attr]
            end.value if isinstance(end, Ret) else None,
            isinstance(end, RetAbort),
        ))
        preds.append(before[seen])
    return tuple(ops), tuple(preds)


@dataclass(frozen=True)
class Linearization:
    """A successful witness: the completion used, the sequential witness, and
    the legal final states its threading allows."""

    completion: History
    witness: History
    final_states: frozenset


def _sequential_history(order: Sequence[tuple[Operation, Value]]) -> History:
    ev: list[Event] = []
    for op, retv in order:
        ev.append(inv_event(op.thread, op.op, op.method, op.arg))
        ev.append(ret_event(op.thread, op.op, retv))
    return History(tuple(ev))


def _completion_for(
    h: History, dropped: frozenset[int], closures: Sequence[tuple[Operation, Value]]
) -> History:
    base = tuple(e for e in h if e.op not in dropped)
    tail = tuple(ret_event(op.thread, op.op, v) for op, v in closures)
    return History(base + tail)


def _search(
    spec: SeqSpec,
    start: Any,
    ops: Sequence[Operation],
    preds: Sequence[int],
    target_key: Optional[Any],
) -> Optional[tuple[tuple[tuple[Operation, Value], ...], frozenset[int]]]:
    """Core witness search over the operations and predecessor masks of
    :func:`_operations`.

    Returns the linearization order with chosen returns plus the set of
    dropped pending ops, or None.  When ``target_key`` is given, the
    threaded state at the end must match it under the spec's state key.
    """
    if any(o.aborted for o in ops):
        return None
    n = len(ops)
    complete = sum(1 << i for i, o in enumerate(ops) if o.ret is not None)
    outcomes: dict[tuple[str, Value, Any], tuple] = {}
    failed: set[tuple[int, Any]] = set()
    acc: list[tuple[Operation, Value]] = []

    def rec(done: int, state: Any) -> Optional[int]:
        if done & complete == complete and (
            target_key is None or spec.state_key(state) == target_key
        ):
            return done
        # for strict checks keep searching: maybe closing a pending op or
        # another order reaches the target state
        key = (done, state)
        if key in failed:
            return None
        todo = ~done
        for i in range(n):
            bit = 1 << i
            if not todo & bit or preds[i] & todo:
                continue
            o = ops[i]
            cell = (o.method, o.arg, state)
            outs = outcomes.get(cell)
            if outs is None:
                outs = outcomes[cell] = tuple(
                    sorted(apply(spec, o.method, state, o.arg), key=repr)
                )
            for s2, out in outs:
                if o.ret is not None and out != o.ret:
                    continue
                acc.append((o, out))
                got = rec(done | bit, s2)
                if got is not None:
                    return got
                acc.pop()
        failed.add(key)
        return None

    done = rec(0, start)
    if done is None:
        return None
    dropped = frozenset(o.op for i, o in enumerate(ops) if not done >> i & 1)
    return tuple(acc), dropped


def find_linearization(
    exec: RecordedExecution, spec: SeqSpec
) -> Optional[Linearization]:
    """Search completions of the history crossed with linearization orders.

    Pending operations closed along the way take any spec-allowed return at
    their linearization point; the rest are dropped.  Returns the first
    witness with its legal final-state set, or None.
    """
    h = exec.history
    if not is_well_formed(h):
        raise ValueError("history is not well-formed")
    got = _search(spec, exec.initial_state, *_operations(h), None)
    if got is None:
        return None
    order, dropped = got
    closures = [(o, v) for (o, v) in order if o.ret is None]
    completion = _completion_for(h, dropped, closures)
    witness = _sequential_history(order)
    finals = legal_seq_outcomes(spec, exec.initial_state, witness)
    return Linearization(completion, witness, finals)


def find_strict_linearization(
    exec: RecordedExecution, spec: SeqSpec
) -> Optional[History]:
    """As :func:`find_linearization` for a terminated execution, additionally
    requiring a legal final state equal to the recorded one."""
    if not exec.terminated:
        raise ValueError("strict linearization requires a terminated execution")
    h = exec.history
    if not is_complete(h):
        raise ValueError("terminated execution must have a complete history")
    got = _search(
        spec, exec.initial_state, *_operations(h), spec.state_key(exec.final_state)
    )
    if got is None:
        return None
    order, _ = got
    return _sequential_history(order)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionVerdict:
    execution: RecordedExecution
    ok: bool
    witness: Optional[History] = None
    completion: Optional[History] = None
    witness_finals: Optional[frozenset] = None  # legal finals, strict checks
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    mode: str
    passed: bool
    entries: tuple[ExecutionVerdict, ...]
    impl: Optional[ImplVerdict] = None

    def failing(self) -> tuple[ExecutionVerdict, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def lines(self, render_state=repr) -> list[str]:
        out = [f"mode={self.mode} verdict={'pass' if self.passed else 'fail'} "
               f"executions={len(self.entries)}"]
        if self.impl is not None and not self.impl.ok:
            ce = self.impl.counterexample
            out.append(
                f"  sequential-implementation counterexample: state="
                f"{render_state(ce.state)} method={ce.method} "
                f"in={render_value(ce.inp)}: {ce.detail}"
            )
        for e in self.failing():
            out.append("  failing execution:")
            for line in serialize_history(e.execution.history).splitlines():
                out.append(f"    {line}")
            if e.detail:
                out.append(f"    {e.detail}")
        return out


def check_strict(
    execs: Iterable[RecordedExecution], spec: SeqSpec
) -> CheckReport:
    """Strict linearizability over the supplied executions: incomplete ones
    must linearize, terminated ones must linearize onto their final state."""
    entries = []
    for ex in execs:
        if ex.terminated:
            w = find_strict_linearization(ex, spec)
            if w is None:
                lin = find_linearization(ex, spec)
                detail = (
                    "no linearization reaches the recorded final state "
                    f"{spec.render_state(ex.final_state)}"
                    if lin is not None
                    else "no linearization exists"
                )
                entries.append(ExecutionVerdict(ex, False, detail=detail))
            else:
                finals = legal_seq_outcomes(spec, ex.initial_state, w)
                entries.append(ExecutionVerdict(ex, True, witness=w, witness_finals=finals))
        else:
            lin = find_linearization(ex, spec)
            if lin is None:
                entries.append(
                    ExecutionVerdict(ex, False, detail="no completion linearizes")
                )
            else:
                entries.append(
                    ExecutionVerdict(
                        ex, True, witness=lin.witness, completion=lin.completion,
                        witness_finals=lin.final_states,
                    )
                )
    entries_t = tuple(entries)
    return CheckReport("strict", all(e.ok for e in entries_t), entries_t)


def _abstracted(
    ex: RecordedExecution, af: AbstractionFunction, rf: RenamingFunction
) -> RecordedExecution:
    ev = []
    for e in ex.history:
        if isinstance(e.label, Inv):
            ev.append(Event(e.thread, Inv(rf.forward(e.label.method), e.label.arg), e.op))
        else:
            ev.append(e)
    return RecordedExecution(
        af(ex.initial_state),
        History(tuple(ev)),
        ex.terminated,
        af(ex.final_state) if ex.terminated else None,
    )


def check_general(
    execs: Iterable[RecordedExecution],
    adt: Adt,
    af: AbstractionFunction,
    rf: RenamingFunction,
) -> CheckReport:
    """Classical linearizability against an ADT through an abstraction
    function: each execution's completion must linearize to a legal abstract
    execution from the abstracted initial state; final states unconstrained."""
    entries = []
    for ex in execs:
        a = _abstracted(ex, af, rf)
        lin = find_linearization(
            RecordedExecution(a.initial_state, a.history, False), adt
        )
        if lin is None:
            entries.append(
                ExecutionVerdict(ex, False, detail="no abstract linearization")
            )
        else:
            entries.append(
                ExecutionVerdict(ex, True, witness=lin.witness, completion=lin.completion)
            )
    entries_t = tuple(entries)
    return CheckReport("general", all(e.ok for e in entries_t), entries_t)


def check_concurrent_implementation(
    execs: Iterable[RecordedExecution],
    model_spec: SeqSpec,
    adt: Adt,
    af: AbstractionFunction,
    rf: RenamingFunction,
    states: Iterable[Any],
) -> CheckReport:
    """Concurrent implementation of an ADT: sequential implementation over
    the sampled states, general linearizability, and abstract final-state
    agreement for terminated executions."""
    impl = is_sequential_implementation(model_spec, adt, af, rf, states)
    execs = tuple(execs)
    general = check_general(execs, adt, af, rf)
    entries = list(general.entries)
    for ex in execs:
        if not ex.terminated:
            continue
        a = _abstracted(ex, af, rf)
        w = find_strict_linearization(a, adt)
        if w is None:
            entries.append(
                ExecutionVerdict(
                    ex,
                    False,
                    detail=(
                        "no abstract linearization reaches the abstracted "
                        f"final state {adt.render_state(a.final_state)}"
                    ),
                )
            )
        else:
            entries.append(ExecutionVerdict(ex, True, witness=w))
    entries_t = tuple(entries)
    passed = impl.ok and all(e.ok for e in entries_t)
    return CheckReport("impl", passed, entries_t, impl=impl)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

MAX_ORACLE_OPS = 7


def linearizes_by_bijection(h: History, h_seq: History) -> bool:
    """The linearization relation checked by explicit bijection enumeration.

    Slower than the canonical-correspondence shortcut but independent of it;
    kept as a test oracle.
    """
    if h.threads() != h_seq.threads():
        return False
    for t in h.threads():
        if project_thread(h, t) != project_thread(h_seq, t):
            return False
    n = len(h.events)
    if n != len(h_seq.events):
        return False
    slots = [
        [j for j in range(n) if h_seq.events[j] == h.events[i]] for i in range(n)
    ]

    def assign(i: int, used: set[int], nu: list[int]) -> bool:
        if i == n:
            for a in range(n):
                for b in range(a + 1, n):
                    ea, eb = h.events[a], h.events[b]
                    if isinstance(ea.label, (Ret, RetAbort)) and isinstance(
                        eb.label, Inv
                    ):
                        if nu[a] > nu[b]:
                            return False
            return True
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


def brute_force_linearizations(h: History) -> frozenset[History]:
    """All complete sequential permutations ``h'`` with ``h`` linearizing to
    ``h'``, by explicit bijection checking.  Guarded to tiny histories."""
    if not is_complete(h):
        raise ValueError("oracle requires a complete history")
    ops, _ = _operations(h)
    if len(ops) > MAX_ORACLE_OPS:
        raise ValueError(f"oracle limited to {MAX_ORACLE_OPS} operations")
    out = set()
    for perm in itertools.permutations(ops):
        cand = _sequential_history([(o, o.ret) for o in perm])
        if linearizes_by_bijection(h, cand):
            out.add(cand)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Adapter from explorations
# ---------------------------------------------------------------------------


def recorded_executions(exploration) -> tuple[RecordedExecution, ...]:
    """Distinct (history, classification, final state) triples of an
    exploration, as recorded executions for the checkers."""
    from .explorer import Kind

    key = exploration.state_key()
    init = exploration.initial_object
    seen = {}
    for r in exploration.results("history"):
        if r.kind is Kind.TERMINATED:
            rec = RecordedExecution(init, r.history(), True, r.final_object)
            k = (serialize_history(rec.history), True, key(r.final_object))
        else:
            rec = RecordedExecution(init, r.history(), False)
            k = (serialize_history(rec.history), False, None)
        seen.setdefault(k, rec)
    return tuple(seen[k] for k in sorted(seen, key=lambda k: (k[0], str(k[2]))))
