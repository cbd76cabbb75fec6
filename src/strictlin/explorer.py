"""Exhaustive bounded exploration of client programs over object models.

The explorer interprets a :class:`~strictlin.programs.Program` against an
object model: a fine-grained one, whose method bodies advance by atomic steps,
or the atomic version of a sequential specification that
:func:`~strictlin.models.atomic_model` derives, whose calls take effect in one
transition.  It explores *all* schedules of enabled atomic transitions.

Before any step, every thread of every phase is compiled into one flat code
table whose entries are ``(rule, statement, next pc, taken pc,
footprint)``, so a thread is one integer program counter, one register and
its count of operations started.  Each pc is one kind of step, named by its rule: a
client statement takes one entry, and a call takes consecutive entries for
its argument, its invocation, its body steps and return, and the assignment
of its result when it has a target.  A ``while`` or ``if`` moves to its
taken pc when its test holds and to its next pc otherwise; every other
entry moves to its next pc.

One object per exploration, :class:`Exploration`, holds the code table, the
numbering tables, the move table and the graph.  It numbers object states,
thread states (``(pc, reg, ops)`` tuples) and client bindings by equality on
first sight, each in its own table, so a configuration key is one int of
32-bit fields: from the lowest, the phase, the bindings id, the state id,
and one thread-state id per thread of the phase.  Hashing a key never walks
a register, a binding or an object state (the recursive indexing of SPIN's
collapse compression).  The tables are shared with no other exploration,
and :meth:`Exploration.config` decodes a configuration's key into a
:class:`Config` named tuple for the few readers that need its fields.  A
thread's step reads only the thread and what its rule's footprint names of
the key's context, the client's bindings and the object state: the object
rules (a call's invocation and body steps, and so the model's machine) read
the state alone, the client rules the bindings alone, and only a direct
cell access reads both.  Each code-table entry carries that footprint, so
the one memo, a move table, runs each rule once per distinct ``(thread id,
thread-state id, context & footprint)``, and with it the model's machine
(the atomic version of a spec runs its spec relation in ``start``).  The
table stores each move's target as a delta, the target's fields minus the
source's; a thread's id fixes its field, and a rule passes a field it does
not read through, its delta 0 there, so the delta depends on the table key
alone, and in :meth:`Exploration.build`, the one successor loop, a
successor is a table lookup per running thread and one addition per move.
Events are interned too, one object per distinct event.  The code table
holds plain functions, not bound methods, so no reference cycle keeps an
exploration alive.

The state space is built once as a configuration graph.  Building it gives
each configuration a dense integer id on first sight (the initial one is 0),
with one dictionary lookup per transition.  An edge is an ``(events,
target)`` pair; every event names its thread.  How a configuration ends is
recorded as the build meets it: the terminated, livelocked and truncated
configurations are sets of ids, and one flag says whether any edge is a
runtime error.  From then on the edges, the strongly connected components
and the outcome tables are lists indexed by id, so no edge or component
lookup hashes a whole configuration again.  Divergence (reachable
configuration cycles) is read off the graph.
:meth:`Exploration.scc_info` is the one place cycles are found: as
Tarjan's algorithm pops a component, one scan of its edges finds its first
internal object edge and whether an internal edge emits a client event
(``client_edges``), which says whether it is cyclic, and a lasso is searched
only for the divergence kinds the component has.  Sets of execution
outcomes are computed per observation projection by one dynamic program
over the components, :meth:`_Outcomes.run`, which projects those lassos
rather than searching again.  It works on interned integers local to one
projection: an outcome is a trace of event ids and a leaf id, the leaf
holding the kind, final state, cycle and note, and each configuration's set
of outcomes is one node of a hash-consed trie whose children are keyed by
first event.  An edge puts one trie node per kept event before its target's
set, and a union merges children by event id, memoized per pair of nodes;
sets that share a sub-trie share its storage.  Only the initial
configuration's trie is walked to build :class:`ExecutionResult` objects.
The test suite checks them against a naive schedule-by-schedule enumerator.
:func:`compare` holds the ``compare`` command's verdict on a fine-grained
and an atomic exploration.  Its client traces come from
:func:`client_trace_diffs`, which enumerates no outcome unless a cycle
emits a client event: it reads each graph as an automaton over client
events and walks the product of their subset automata.

Conventions mirroring the trace model:

* argument evaluation is a client event preceding the invocation, and
  return-value assignment a client event following the response;
* invocation, response, and method-body actions are object events;
* direct cell reads/writes are client events (the only client events allowed
  to touch the object state);
* a component is object-divergent when one of its internal edges emits an
  object event, and client-divergent when its internal client-only edges
  close a cycle by themselves; one component can be both.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from .history import Act, Event, Inv, Ret, RetAbort
from .models import Done, ObjectModel, atomic_model
from .programs import (
    Arith,
    AssignStmt,
    AtomicStmt,
    CallStmt,
    Cmp,
    IfStmt,
    Lit,
    Program,
    ReadCellStmt,
    Var,
    WhileStmt,
    WriteCellStmt,
)
from .specs import CellError, SeqSpec, UnknownMethodError
from .values import UNIT, Value, render_value

MAX_OPS_PER_THREAD = 99
_FIELD_BITS = 32  # the width of each field of a configuration key
# a rule's footprint, the fields of a key's context it reads: a set of flags
_BINDINGS, _STATE = 1, 2


class Kind(enum.Enum):
    TERMINATED = "terminated"
    CLIENT_DIVERGENT = "client-divergent"
    OBJECT_DIVERGENT = "object-divergent"
    ABORTED = "aborted"
    UNKNOWN = "unknown-budget"


@dataclass(frozen=True)
class ExecutionResult:
    """One distinguishable execution outcome under the chosen projection."""

    trace: tuple[Event, ...]
    kind: Kind
    final_client: Optional[tuple[tuple[str, Value], ...]] = None
    final_object: Any = None
    cycle: tuple[Event, ...] = ()
    note: str = ""


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


DONE = -1  # the pc of a finished thread


class ThreadState(NamedTuple):
    """``pc`` indexes the exploration's code table, ``DONE`` once the thread
    has finished; ``reg`` holds what a call carries from one of its steps to
    the next (its argument, the method's local state, its return value) and
    is None between statements; ``ops`` counts the operations started.  The
    thread's id is its phase's first id plus its position, and its current
    operation's id ``100 * tid + ops``."""

    pc: int
    reg: Any = None
    ops: int = 0

    @property
    def done(self) -> bool:
        return self.pc == DONE


class Config(NamedTuple):
    """A configuration decoded from its key by :meth:`Exploration.config`:
    the phase, every thread of it, the client's bindings sorted by name, and
    ``sid``, the id of the object state in the exploration's state table:
    ``Exploration.states[c.sid]`` is the state itself.  The graph holds int
    keys, whose fields are the ids of these (see :class:`Exploration`)."""

    phase: int
    threads: tuple[ThreadState, ...]
    client: tuple[tuple[str, Value], ...]
    sid: int


def _bind(client: tuple, name: str, v: Value) -> tuple:
    d = dict(client)
    d[name] = v
    return tuple(sorted(d.items()))


class EvalError(ValueError):
    pass


def _eval(expr, env: dict[str, Value]) -> Value:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise EvalError(f"unbound client variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Arith):
        if expr.var not in env:
            raise EvalError(f"unbound client variable {expr.var!r}")
        base = env[expr.var]
        if not isinstance(base, int):
            raise EvalError(f"arithmetic on non-integer {expr.var!r}")
        return base + expr.k if expr.op == "+" else base - expr.k
    raise TypeError(f"not an expression: {expr!r}")


def _test(pred: Cmp, env: dict[str, Value]) -> bool:
    l, r = _eval(pred.lhs, env), _eval(pred.rhs, env)
    return (l == r) if pred.op == "==" else (l != r)


def _width(s) -> int:
    """The number of code-table entries statement ``s`` takes."""
    return (4 if s.target else 3) if isinstance(s, CallStmt) else 1


def _number(ids: dict, items: list, x: Any, what: str) -> int:
    """The id of ``x`` in the table ``items`` (``ids`` its inverse) of
    ``what``, adding ``x`` on first sight.  A key holds the id in a field of
    ``_FIELD_BITS`` bits, so a table that would outgrow it raises."""
    i = ids.setdefault(x, len(items))
    if i == len(items):
        if i >> _FIELD_BITS:
            raise ValueError(f"more than {1 << _FIELD_BITS} distinct {what}: a configuration "
                             f"key holds each id in a {_FIELD_BITS}-bit field")
        items.append(x)
    return i


def _context_mask(reads: int) -> int:
    """The mask of the fields of a context that footprint ``reads`` names:
    the bindings id in the lowest ``_FIELD_BITS`` bits, the state id above."""
    field = (1 << _FIELD_BITS) - 1
    return (field if reads & _BINDINGS else 0) | (field << _FIELD_BITS if reads & _STATE else 0)


def _cellname(cell: tuple) -> str:
    return cell[0] if len(cell) == 1 else f"{cell[0]}[{cell[1]}]"


# ---------------------------------------------------------------------------
# Exploration: the transition rules, their tables and the configuration graph
# ---------------------------------------------------------------------------


class Exploration:
    """One exploration of ``prog`` over ``model`` from ``init_obj``, cut
    after ``bound`` transitions: the transition rules and their tables and,
    once :meth:`build` has run, the reachable configuration graph and its
    outcome sets.  The constructor is the one place a start state is
    resolved, None meaning the first start state of ``model.seq_spec``, and
    checked to lie in that spec's state domain; a program that calls a
    method or touches a cell the model lacks is rejected before any step.
    Every exploration starts with no client bindings.

    Object states, thread states and client bindings are each numbered by
    equality on first sight: ``states[sid]`` is the object state with id
    ``sid``, the start state being 0, ``thread_states[t]`` the thread state
    with id ``t`` and ``bindings[b]`` the bindings with id ``b``.  A
    configuration is an int key of ``_FIELD_BITS``-bit fields: the phase in
    the lowest, then the bindings id, ``sid`` and one thread-state id per
    thread of the phase; its context is the bindings and state fields as
    one int, the bindings id lowest.  ``slots[phase]`` pairs each thread's
    id with the shift of its field (``shift`` maps a thread id to it),
    ``starts[phase]`` is the key of the phase's start with its bindings and
    state fields 0, and ``initial`` the initial key.  ``reads[t]`` is the
    footprint of thread state ``t``'s rule, fixed from its code-table entry
    (``_BINDINGS``, ``_STATE`` or both) as ``t`` is numbered: the mask of
    the context's fields the rule reads, or None for a finished thread.  A
    thread's rule, and the machine call it makes, runs once per distinct
    input it reads: ``moves`` maps ``(tid, thread-state id, context &
    reads[t])`` to the thread's moves in rule order, as ``(events, delta)``
    pairs, the delta being the target key minus the source key, or None
    for a runtime error or an abort.  Events are interned, so one graph
    holds one :class:`Event` per distinct ``(thread, operation, label)``.

    :meth:`build` numbers each configuration once, on first sight, so the
    initial configuration is 0 and ids are dense: ``order`` maps a key to
    its id, ``configs`` an id back to its key, and :meth:`config` decodes
    id ``i`` into a :class:`Config`.  ``edges[i]`` lists configuration
    ``i``'s outgoing transitions as ``(events, target id)`` pairs, the
    target being None for a runtime error, and ``has_abort`` says whether
    any edge is one.  A configuration without edges is in exactly one of
    three id sets: ``terminal_done`` when every thread of the last phase has
    finished, ``terminal_livelock`` when a pending thread is blocked with
    nothing else enabled, and ``truncated`` when it was left unexpanded as
    the step budget ran out.  Everything past :meth:`build` (SCCs, cycle
    marking, outcome tables, final states) works on the ids.  The tables
    are shared with no other exploration, and the code table holds plain
    functions, not bound methods, so no reference cycle keeps an
    exploration alive."""

    def __init__(self, prog: Program, model: ObjectModel, init_obj: Any, bound: int) -> None:
        spec = model.seq_spec
        obj = spec.initial_states[0] if init_obj is None else init_obj
        if not spec.is_state(obj):
            raise ValueError(f"{model.name}: initial state not well-formed")
        self.model, self.bound = model, bound
        self.states: list[Any] = []
        self._sids: dict[Any, int] = {}
        self.thread_states: list[ThreadState] = []
        self._tids: dict[ThreadState, int] = {}
        self.reads: list[Optional[int]] = []
        self.bindings: list[tuple] = []
        self._bids: dict[tuple, int] = {}
        self.moves: dict[tuple, tuple[tuple, ...]] = {}
        self._events: dict[tuple, Event] = {}
        self.code: list[tuple] = []  # (rule, statement, next pc, taken pc, footprint)
        self._pcs: dict[tuple, int] = {}
        # per phase, the entry pc of each thread and the id of its first thread
        self.entries = [
            tuple(self._compile(tuple(code), DONE) for code in ph) for ph in prog.phases
        ]
        self.first_tid = list(itertools.accumulate(map(len, prog.phases), initial=1))
        # per phase, each thread's id and the shift of its field in a key
        self.slots = [tuple((first + i, (3 + i) * _FIELD_BITS) for i in range(len(ph)))
                      for first, ph in zip(self.first_tid, self.entries)]
        self.shift = dict(itertools.chain.from_iterable(self.slots))
        # per phase, the key of its start, its bindings and state fields 0
        self.starts = [
            phase + sum(self.thread_id(ThreadState(pc)) << shift
                        for pc, (_, shift) in zip(ph, slots))
            for phase, (ph, slots) in enumerate(zip(self.entries, self.slots))
        ]
        self.initial = (self.starts[0] + (self.binding_id(()) << _FIELD_BITS)
                        + (self.state_id(obj) << 2 * _FIELD_BITS))
        # the graph, which build fills in
        self.order: dict[int, int] = {}
        self.configs: list[int] = []
        self.edges: list[tuple[tuple[tuple[Event, ...], Optional[int]], ...]] = []
        self.terminal_done: set[int] = set()
        self.terminal_livelock: set[int] = set()
        self.truncated: set[int] = set()
        self.has_abort = self.approximate = False
        self.transitions_explored = 0
        self._scc: Optional[dict] = None
        self._results: dict[str, frozenset] = {}

    def __repr__(self) -> str:
        # the graph itself runs to megabytes on the larger programs
        return (f"Exploration(model={self.model.name!r}, configs={len(self.configs)}, "
                f"transitions={self.transitions_explored})")

    @property
    def initial_object(self) -> Any:
        return self.states[0]  # the start state is numbered first

    @property
    def spec(self) -> SeqSpec:
        """The sequential spec that owns this exploration's object states."""
        return self.model.seq_spec

    def _compile(self, block: tuple, k: int) -> int:
        """Add ``block``, continuing at pc ``k``, to the code table and return
        its entry pc (``k`` for an empty block).  Statements are checked
        against the model here, in source order.

        A block's statements get consecutive pcs, a call one per step: its
        argument, its invocation, its body steps and return, and the
        assignment of its result when it has a target.  A ``while`` is taken
        into its body, which ends by jumping back to it, so an empty body
        spins in place; an ``if`` is taken into ``then`` and otherwise goes
        to ``else``, both continuing after it.  A block is keyed by its
        statements and ``k``, so identical ``if`` branches share their pcs."""
        if not block:
            return k
        base = self._pcs.get((block, k))
        if base is not None:
            return base
        starts = list(itertools.accumulate(map(_width, block), initial=len(self.code)))
        base = self._pcs[block, k] = starts[0]
        self.code.extend([()] * (starts[-1] - base))
        model = self.model
        for s, pc, nxt in zip(block, starts, starts[1:-1] + [k]):
            if isinstance(s, CallStmt):
                if s.method not in model.methods:
                    raise UnknownMethodError(f"{model.name}: unknown method {s.method!r}")
                # a returning call goes on to its assignment, if any
                after = pc + 3 if s.target else nxt
                self.code[pc : pc + _width(s)] = [
                    (Exploration._call_arg, s, pc + 1, None, _BINDINGS),
                    (Exploration._invoke, s, pc + 2, after, _STATE),
                    (Exploration._body, s, after, None, _STATE),
                ] + [(Exploration._assign_result, s, nxt, None, _BINDINGS)] * bool(s.target)
                continue
            if isinstance(s, (ReadCellStmt, WriteCellStmt)) and model.seq_spec.cells is None:
                raise ValueError(f"{model.name} exposes no cells; the program reads or writes one")
            taken = None
            if isinstance(s, WhileStmt):
                taken = self._compile(s.body, pc)
            elif isinstance(s, IfStmt):
                taken, nxt = self._compile(s.then, nxt), self._compile(s.els, nxt)
            rule, reads = _RULES[type(s)]
            self.code[pc] = (rule, s, nxt, taken, reads)
        return base

    # -- the numbering and event tables -------------------------------------

    def state_id(self, s: Any) -> int:
        """The id of object state ``s``, numbering it on first sight."""
        return _number(self._sids, self.states, s, "object states")

    def thread_id(self, t: ThreadState) -> int:
        """The id of thread state ``t``, numbering it on first sight, when
        its footprint is fixed from its code-table entry."""
        i = _number(self._tids, self.thread_states, t, "thread states")
        if i == len(self.reads):
            self.reads.append(None if t.pc == DONE else _context_mask(self.code[t.pc][4]))
        return i

    def binding_id(self, client: tuple) -> int:
        """The id of the client bindings ``client``, numbering them on first
        sight."""
        return _number(self._bids, self.bindings, client, "client bindings")

    def config(self, i: int) -> Config:
        """Configuration ``i``, decoded from its key."""
        key, mask, ts = self.configs[i], (1 << _FIELD_BITS) - 1, self.thread_states
        phase = key & mask
        return Config(phase, tuple([ts[key >> shift & mask] for _, shift in self.slots[phase]]),
                      self.bindings[key >> _FIELD_BITS & mask], key >> 2 * _FIELD_BITS & mask)

    def _event(self, tid: int, op: Optional[int], label: type, *args: Any) -> Event:
        """The one event of thread ``tid`` and operation ``op`` (None for a
        client event) labelled ``label(*args)``."""
        key = (tid, op, label, args)
        e = self._events.get(key)
        if e is None:
            e = self._events[key] = Event(tid, label(*args), op)
        return e

    # -- transitions --------------------------------------------------------

    def _numbered_moves(self, tid: int, t: int, ctx: int) -> tuple:
        """The moves of thread ``tid`` from thread-state id ``t`` in context
        ``ctx``, the bindings id in its lowest field and the state id above,
        as :meth:`thread_moves` gives them, each target numbered and stored
        as a delta: the target's thread-state id and context minus these,
        each at its field's shift, so that a source key plus the delta is
        the target's key.  A rule passes a field outside its footprint
        through, so the delta is 0 there."""
        bid, sid = ctx & (1 << _FIELD_BITS) - 1, ctx >> _FIELD_BITS
        shift, out = self.shift[tid], []
        for events, to in self.thread_moves(tid, self.thread_states[t], self.bindings[bid], sid):
            if to is not None:
                to = (((self.thread_id(to[0]) - t) << shift)
                      + (((self.binding_id(to[1]) | to[2] << _FIELD_BITS) - ctx) << _FIELD_BITS))
            out.append((events, to))
        return tuple(out)

    def thread_moves(self, tid: int, t: ThreadState, client: tuple, sid: int) -> tuple:
        """Thread ``tid``'s moves from ``t`` under ``client`` and object
        state ``sid``: the step of the rule its pc names, as ``(events,
        (thread state, client, sid))`` pairs; a client statement that cannot
        evaluate aborts, its target None."""
        rule, s, nxt, taken, _ = self.code[t.pc]
        try:
            return tuple(rule(self, tid, t, client, sid, s, nxt, taken))
        except (EvalError, CellError) as exc:
            return (((self._event(tid, None, Act, f"error: {exc}"),), None),)

    def _client(self, tid: int, t: ThreadState, client: tuple, sid: int, action: str,
                pc: int, reg: Any = None) -> list[tuple]:
        """Thread ``tid``'s client event ``action``, moving it to ``pc`` and
        ``reg``, the bindings to ``client`` and the object to ``sid``."""
        event = self._event(tid, None, Act, action)
        return [((event,), (ThreadState(pc, reg, t.ops), client, sid))]

    # Rules: each returns the moves of thread ``tid`` from ``t``, under
    # bindings ``client`` and object state ``sid``, at an entry ``(rule,
    # statement, next pc, taken pc, footprint)`` of the code table.  A rule
    # reads the bindings or the state only when its footprint holds that
    # field, and passes a field it does not read through unchanged.

    def _assign(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, _):
        v = _eval(s.expr, dict(client))
        action = f"{s.target}:={render_value(v)}"
        return self._client(tid, t, _bind(client, s.target, v), sid, action, nxt)

    def _read_cell(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, _):
        v = self.model.seq_spec.cells.read(self.states[sid], s.cell)
        action = f"{s.target}:=Q.{_cellname(s.cell)}={render_value(v)}"
        return self._client(tid, t, _bind(client, s.target, v), sid, action, nxt)

    def _write_cell(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, _):
        v = _eval(s.expr, dict(client))
        to = self.state_id(self.model.seq_spec.cells.write(self.states[sid], s.cell, v))
        return self._client(tid, t, client, to, f"Q.{_cellname(s.cell)}:={render_value(v)}", nxt)

    def _atomic(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, _):
        scratch = dict(client)
        if s.guard is not None and not _test(s.guard, scratch):
            return []  # blocked until the guard holds
        bound = client
        for name, e in s.assigns:
            scratch[name] = val = _eval(e, scratch)
            bound = _bind(bound, name, val)
        names = ",".join(n for n, _ in s.assigns)
        return self._client(tid, t, bound, sid, f"atomic[{names}]", nxt)

    def _branch(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, taken: int):
        b = _test(s.pred, dict(client))
        action = f"test({s.pred.render()})={str(b).lower()}"
        return self._client(tid, t, client, sid, action, taken if b else nxt)

    def _call_arg(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, _):
        arg = _eval(s.arg, dict(client)) if s.arg is not None else UNIT
        rendered = s.arg.render() if s.arg is not None else ""
        action = f"eval {s.method}({rendered})={render_value(arg)}"
        return self._client(tid, t, client, sid, action, nxt, reg=arg)

    def _invoke(self, tid: int, t: ThreadState, client: tuple, sid: int, s, body: int, after: int):
        if t.ops >= MAX_OPS_PER_THREAD:  # a program the explorer cannot represent
            raise ValueError(
                f"operation-id space exhausted for thread {tid}: a thread may "
                f"start at most {MAX_OPS_PER_THREAD} operations"
            )
        ops = t.ops + 1
        op = tid * 100 + ops
        inv = self._event(tid, op, Inv, s.method, t.reg)
        out = []
        # a call answered at once emits its response in the invoking step
        for local, shared in self.model.methods[s.method].start(t.reg, self.states[sid]):
            if isinstance(local, Done):
                events = (inv, self._event(tid, op, Ret, local.value))
                t2 = ThreadState(after, local.value if s.target else None, ops)
            else:
                events, t2 = (inv,), ThreadState(body, local, ops)
            out.append((events, (t2, client, self.state_id(shared))))
        return out

    def _body(self, tid: int, t: ThreadState, client: tuple, sid: int, s, after: int, _):
        op = tid * 100 + t.ops
        if isinstance(t.reg, Done):
            # the result stays in the register only for an assignment to take
            v = t.reg.value
            t2 = ThreadState(after, v if s.target else None, t.ops)
            return [((self._event(tid, op, Ret, v),), (t2, client, sid))]
        out = []
        for o in self.model.methods[s.method].step(t.reg, self.states[sid]):
            ev = self._event(tid, op, Act, o.action)
            if o.abort:
                out.append(((ev, self._event(tid, op, RetAbort)), None))
            else:
                out.append(((ev,), (ThreadState(t.pc, o.local, t.ops), client,
                                    self.state_id(o.shared))))
        return out

    def _assign_result(self, tid: int, t: ThreadState, client: tuple, sid: int, s, nxt: int, _):
        action = f"{s.target}:={render_value(t.reg)}"
        return self._client(tid, t, _bind(client, s.target, t.reg), sid, action, nxt)

    # -- graph construction -------------------------------------------------

    def build(self) -> "Exploration":
        """Number every reachable configuration and store its edges.  A
        running thread's moves come from the move table, keyed by the
        thread, its state and the part of the key's context its rule reads,
        each target being the source key plus the move's delta; when every
        thread has finished, a phase before the last goes on to the next one
        with the bindings and the object state kept."""
        order, configs, edges, todo = self.order, self.configs, self.edges, [0]
        table, reads, slots, starts = self.moves, self.reads, self.slots, self.starts
        bits = _FIELD_BITS
        mask = (1 << bits) - 1
        fields = (1 << 2 * bits) - 1  # a key's context, shifted down
        kept = fields << bits
        last = len(starts) - 1
        bound, explored, fresh = self.bound, 0, 1  # ``fresh``: the next id
        order[self.initial] = 0
        configs.append(self.initial)
        edges.append(())
        while todo:
            i = todo.pop()
            if explored >= bound:
                self.truncated.add(i)
                continue
            key = configs[i]
            phase, ctx = key & mask, key >> bits & fields
            out = []
            running = False
            for tid, shift in slots[phase]:
                t = key >> shift & mask
                r = reads[t]
                if r is None:  # a finished thread
                    continue
                running = True
                mk = (tid, t, ctx & r)
                moves = table.get(mk)
                if moves is None:
                    moves = table[mk] = self._numbered_moves(tid, t, ctx)
                for events, delta in moves:
                    if delta is None:
                        self.has_abort = True
                        out.append((events, None))
                        continue
                    target = key + delta
                    j = order.setdefault(target, fresh)  # the one hash of ``target``
                    if j == fresh:
                        fresh += 1
                        configs.append(target)
                        edges.append(())
                        todo.append(j)
                    out.append((events, j))
            if not running:
                if phase == last:
                    self.terminal_done.add(i)
                    continue
                target = key & kept | starts[phase + 1]
                j = order.setdefault(target, fresh)
                if j == fresh:
                    fresh += 1
                    configs.append(target)
                    edges.append(())
                    todo.append(j)
                out.append(((), j))
            elif not out:
                self.terminal_livelock.add(i)
            explored += len(out)
            edges[i] = tuple(out)
        self.transitions_explored = explored
        return self

    # -- strongly connected components --------------------------------------

    def scc_info(self) -> dict:
        """Tarjan's algorithm, iterative, over configuration ids, scanning
        each component's edges once as it pops it, members in ascending
        order and edges in stored order; this is the one place cycles are
        found.

        ``comps`` lists each component's ids in ascending order, callees
        before callers.  A component is ``cyclic`` when it has an internal
        edge, ``object_cyclic`` when an internal edge emits an object event,
        in ``client_edges`` when one emits a client event, and
        ``client_cyclic`` when its internal client-only edges close a cycle
        by themselves, which only a component of ``client_edges`` can: the
        one edge without events, a phase edge, lies on no cycle.
        ``lassos[k]`` maps each divergence kind of cyclic component ``k``
        to one cycle of that kind, as ``(configuration on the cycle,
        events once round)``: the first internal object edge closed by
        :func:`_bfs_path`, and :func:`_client_lasso`'s cycle, searched only
        in components of ``client_edges``.  :meth:`_Outcomes.run` only
        projects them.
        """
        if self._scc is not None:
            return self._scc
        edges = self.edges
        n = len(edges)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        comps: list[list[int]] = []
        # per cyclic component: its membership test, its first internal
        # object edge and whether an internal edge emits a client event
        scans: dict[int, tuple] = {}
        stack: list[int] = []
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(edges[root]))]
            while work:
                node, it = work[-1]
                for _, nxt in it:
                    if nxt is None:
                        continue
                    if index[nxt] < 0:
                        index[nxt] = low[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on_stack[nxt] = True
                        work.append((nxt, iter(edges[nxt])))
                        break
                    if on_stack[nxt] and index[nxt] < low[node]:
                        low[node] = index[nxt]
                else:
                    work.pop()
                    if low[node] == index[node]:
                        group = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            group.append(w)
                            if w == node:
                                break
                        group.sort()
                        comps.append(group)
                        # one scan of its edges finds the first internal
                        # object edge and whether an internal edge emits a
                        # client event; a singleton's one member is its own
                        # membership test
                        inside = group if len(group) == 1 else set(group)
                        first, client = None, False
                        for u in group:
                            for evs, t in edges[u]:
                                if t in inside:
                                    # a client event is the one event with no
                                    # operation id
                                    if evs[0].op is None:
                                        client = True
                                    elif first is None:
                                        first = (u, evs, t)
                        if first or client:
                            scans[len(comps) - 1] = (inside, first, client)
                    if work:
                        parent = work[-1][0]
                        if low[node] < low[parent]:
                            low[parent] = low[node]

        # the lassos of each kind a cyclic component has
        lassos: dict[int, dict[Kind, tuple[int, tuple[Event, ...]]]] = {}
        for k, (inside, first, client) in scans.items():
            found = lassos[k] = {}
            if first:
                u, evs, t = first
                found[Kind.OBJECT_DIVERGENT] = (u, evs + _bfs_path(edges, t, u, inside))
            lasso = _client_lasso(edges, comps[k], inside) if client else None
            if lasso:
                found[Kind.CLIENT_DIVERGENT] = lasso
        self._scc = {
            "comps": comps,
            "cyclic": set(scans),
            "object_cyclic": {k for k, ls in lassos.items() if Kind.OBJECT_DIVERGENT in ls},
            "client_cyclic": {k for k, ls in lassos.items() if Kind.CLIENT_DIVERGENT in ls},
            "client_edges": {k for k, (_, _, client) in scans.items() if client},
            "lassos": lassos,
        }
        return self._scc

    def divergence_kinds(self) -> set[Kind]:
        info = self.scc_info()
        out: set[Kind] = set()
        if info["object_cyclic"] or self.terminal_livelock:
            out.add(Kind.OBJECT_DIVERGENT)
        if info["client_cyclic"]:
            out.add(Kind.CLIENT_DIVERGENT)
        return out

    # -- outcome enumeration -------------------------------------------------

    def results(self, projection: str = "interface") -> frozenset[ExecutionResult]:
        """Execution outcomes, deduplicated under ``projection`` (a key of
        :data:`_PROJECTIONS`): ``interface``, client events plus
        invocations/responses (default); ``history``, invocations/responses
        only; ``client``, client events only.  Internal method-body steps
        never distinguish outcomes.  One :meth:`_Outcomes.run` computes each
        projection once; when it could not enumerate every outcome,
        :attr:`approximate` is set."""
        res = self._results.get(projection)
        if res is None:
            tables = _Outcomes(self, _PROJECTIONS[projection])
            res = self._results[projection] = tables.run(self.scc_info())
            self.approximate |= tables.approximate
        return res


# the rule of each one-entry statement, a plain function of the exploration,
# and its footprint
_RULES = {
    AssignStmt: (Exploration._assign, _BINDINGS), AtomicStmt: (Exploration._atomic, _BINDINGS),
    ReadCellStmt: (Exploration._read_cell, _BINDINGS | _STATE),
    WriteCellStmt: (Exploration._write_cell, _BINDINGS | _STATE),
    WhileStmt: (Exploration._branch, _BINDINGS), IfStmt: (Exploration._branch, _BINDINGS),
}


def _bfs_path(edges: list, src: int, goal: int, group: set[int]) -> tuple:
    """Events along a shortest in-component path from ``src`` to ``goal``,
    over ``(events, target)`` edges."""
    if src == goal:
        return ()
    prev: dict[int, tuple[int, tuple]] = {}
    frontier = [src]
    seen = {src}
    while frontier:
        nxt_frontier = []
        for i in frontier:
            for evs, t in edges[i]:
                if t not in group or t in seen:
                    continue
                seen.add(t)
                prev[t] = (i, evs)
                if t == goal:
                    path: tuple = ()
                    while t != src:
                        t, evs = prev[t]
                        path = evs + path
                    return path
                nxt_frontier.append(t)
        frontier = nxt_frontier
    raise AssertionError("a component is strongly connected")


def _client_lasso(
    edges: list, members: list[int], group: set[int]
) -> Optional[tuple[int, tuple[Event, ...]]]:
    """The first cycle of internal client-only edges that a depth-first
    search meets, from members in ascending order along edges in stored
    order: a configuration on it and the events once round from there.  The
    search keeps its own stack, so a long loop cannot exhaust Python's."""
    on_path: dict[int, int] = {}  # configuration -> edges on the path before it
    path_evs: list[tuple[Event, ...]] = []  # the events of each edge on the path
    done: set[int] = set()
    for root in members:
        if root in done:
            continue
        on_path[root] = 0
        stack = [(root, iter(edges[root]))]
        while stack:
            u, it = stack[-1]
            for evs, v in it:
                if v not in group or any(not e.is_client for e in evs):
                    continue
                if v in on_path:
                    return v, tuple(itertools.chain(*path_evs[on_path[v]:], evs))
                if v not in done:
                    path_evs.append(evs)
                    on_path[v] = len(path_evs)
                    stack.append((v, iter(edges[v])))
                    break
            else:
                stack.pop()
                del on_path[u]
                done.add(u)
                if stack:
                    path_evs.pop()
    return None


# the events each projection of :meth:`Exploration.results` keeps
_PROJECTIONS: dict[str, Callable[[Event], bool]] = {
    "interface": lambda e: e.is_client or e.is_interface,
    "history": lambda e: e.is_interface,
    "client": lambda e: e.is_client,
}


class _Outcomes:
    """The outcome dynamic program of one :meth:`Exploration.results` call:
    :meth:`run` is all of it, and ``approximate`` says whether it could not
    enumerate every outcome.  ``keep`` is the projection's predicate.

    An outcome is a trace of kept event ids and a leaf id.  A leaf id names
    the rest of an outcome, ``(kind, final_client, final_object, cycle,
    note)``.  A set of outcomes is a node of a trie: ``nodes[n]`` is
    ``(leaves, children)``, the frozenset of leaf ids of the outcomes whose
    trace is empty and a tuple of ``(event id, child node)`` pairs sorted by
    event id, the child holding the outcomes that start with that event,
    with the event cut off.  Nodes are interned by value, so each set has
    exactly one id and sets share every common sub-trie; node 0 is the empty
    set.  Prepending a trace to a set costs one node per event, and
    :meth:`union` merges children by event id, memoized per pair of ids.

    Events are interned by identity: the exploration holds one
    :class:`Event` object per distinct event, and ``events`` keeps each
    alive while its ``id`` keys ``event_ids``.  Leaves are interned by
    value.  So two outcomes are equal exactly when the
    :class:`ExecutionResult` objects they stand for are.  Configurations are
    the exploration's ids.
    """

    def __init__(self, ex: Exploration, keep: Callable[[Event], bool]) -> None:
        self.keep = keep
        self.events: list[Event] = []
        self.event_ids: dict[int, int] = {}  # id of an event -> its index
        self.nodes: list[tuple[frozenset, tuple]] = []
        self.node_ids: dict[tuple[frozenset, tuple], int] = {}
        self.unions: dict[tuple[int, int], int] = {}
        self._node(frozenset(), ())  # node 0, the empty set
        self.leaves: list[tuple] = []
        self.leaf_ids: dict[tuple, int] = {}
        self.aborted = self.single(self.leaf(Kind.ABORTED, note="runtime error"))
        # the exploration's edges with their events projected to kept ids
        self.edges: list[tuple] = [
            tuple((self.project(events), t) for events, t in trs)
            for trs in ex.edges
        ]
        # per configuration, once known: the node of its outcomes
        self.outcomes: list[Optional[int]] = [None] * len(self.edges)
        unknown = self.single(self.leaf(Kind.UNKNOWN, note="step budget exhausted"))
        for i in ex.truncated:
            self.outcomes[i] = unknown
        livelock = self.single(
            self.leaf(Kind.OBJECT_DIVERGENT, note="all pending threads blocked")
        )
        for i in ex.terminal_livelock:
            self.outcomes[i] = livelock
        for i in ex.terminal_done:
            c = ex.config(i)
            self.outcomes[i] = self.single(self.leaf(Kind.TERMINATED, c.client, ex.states[c.sid]))
        self.approximate = False

    def run(self, info: dict) -> frozenset[ExecutionResult]:
        """The outcomes of the initial configuration, computed for every
        configuration component by component in the order of ``info``
        (:meth:`Exploration.scc_info`), callees first.

        A configuration outside any cycle unions the outcomes of its edges.
        A cyclic component of more than 512 configurations gets one unknown
        outcome.  In a smaller one each configuration gets a shortest path
        to the cycle of each of the component's lassos, and every simple
        path inside the component followed by an edge out of it.  Two rules
        set :attr:`approximate`, as the sets then miss outcomes: the 512
        guard, and a component with an observable cycle and an exit, whose
        terminating schedules may lap the cycle any number of times."""
        outcomes, edges, union, follow = self.outcomes, self.edges, self.union, self.follow
        for k, members in enumerate(info["comps"]):
            if k not in info["cyclic"]:
                (i,) = members
                if outcomes[i] is None:  # not a terminal or truncated one
                    out = 0
                    for evs, t in edges[i]:
                        out = union(out, follow(evs, t))
                    outcomes[i] = out
                continue
            if len(members) > 512:
                self.approximate = True
                too_large = self.single(self.leaf(Kind.UNKNOWN, note="scc too large"))
                for i in members:
                    outcomes[i] = too_large
                continue
            group = set(members)
            # divergent continuations: one lasso per divergence kind.  Its
            # cycle does not depend on where the lasso starts; only the
            # stem, a shortest path to the cycle, does.
            entries = []  # (configuration entering the cycle, leaf id)
            observable_cycle = False
            for kind, (entry, cycle) in info["lassos"][k].items():
                cycle = tuple(filter(self.keep, cycle))
                observable_cycle |= bool(cycle)
                entries.append((entry, self.leaf(kind, cycle=cycle)))
            if observable_cycle and any(t not in group for i in members for _, t in edges[i]):
                self.approximate = True
            for start in members:
                out = 0
                for entry, leaf in entries:
                    path = _bfs_path(edges, start, entry, group)
                    out = union(out, self.prepend(path, self.single(leaf)))
                # terminating / exiting continuations: simple paths inside
                # the component, then whatever follows outside it.  A stack,
                # as a recursive closure would hold these tables in a cycle.
                seen, stack = {start}, [(start, (), iter(edges[start]))]
                while stack:
                    i, acc, it = stack[-1]
                    for evs, t in it:
                        evs = acc + evs
                        if t not in group:  # an exit or an abort
                            out = union(out, follow(evs, t))
                        elif t not in seen:
                            seen.add(t)
                            stack.append((t, evs, iter(edges[t])))
                            break
                    else:
                        stack.pop()
                        seen.discard(i)
                outcomes[start] = out
        return frozenset(map(self.result, self.walk(outcomes[0])))

    def project(self, events: Iterable[Event]) -> tuple[int, ...]:
        """Ids of the kept ``events``, in order."""
        out = []
        for e in events:
            if self.keep(e):
                i = self.event_ids.get(id(e))
                if i is None:
                    i = self.event_ids[id(e)] = len(self.events)
                    self.events.append(e)
                out.append(i)
        return tuple(out)

    def leaf(
        self, kind: Kind, final_client: Any = None, final_object: Any = None,
        cycle: tuple[Event, ...] = (), note: str = "",
    ) -> int:
        key = (kind, final_client, final_object, cycle, note)
        i = self.leaf_ids.get(key)
        if i is None:
            i = self.leaf_ids[key] = len(self.leaves)
            self.leaves.append(key)
        return i

    def _node(self, leaves: frozenset, children: tuple) -> int:
        key = (leaves, children)
        n = self.node_ids.get(key)
        if n is None:
            n = self.node_ids[key] = len(self.nodes)
            self.nodes.append(key)
        return n

    def single(self, leaf: int) -> int:
        """The set of one outcome, leaf ``leaf`` after the empty trace."""
        return self._node(frozenset((leaf,)), ())

    def prepend(self, evs: tuple[int, ...], n: int) -> int:
        """The set ``n`` with the trace ``evs`` put before each outcome."""
        if not n:
            return 0
        empty = self.nodes[0][0]
        for e in reversed(evs):
            n = self._node(empty, ((e, n),))
        return n

    def union(self, a: int, b: int) -> int:
        """The union of sets ``a`` and ``b``, memoized per pair of ids."""
        if a == b or not b:
            return a
        if not a:
            return b
        pair = (a, b) if a < b else (b, a)
        n = self.unions.get(pair)
        return self._merge(pair) if n is None else n

    def _merge(self, pair: tuple[int, int]) -> int:
        """The union of the two distinct non-empty sets of ``pair``, smaller
        id first.  Children are merged by event id; an event both sets have
        gets the union of its two children, computed first on an explicit
        stack."""
        memo, nodes = self.unions, self.nodes
        todo = [pair]
        while todo:
            a, b = todo[-1]
            if (a, b) in memo:
                todo.pop()
                continue
            (leaves, ca), (leaves_b, cb) = nodes[a], nodes[b]
            children = dict(ca)
            missing = []
            for e, c in cb:
                d = children.get(e)
                if d is None or d == c:
                    children[e] = c
                    continue
                sub = (d, c) if d < c else (c, d)
                u = memo.get(sub)
                if u is None:
                    missing.append(sub)
                else:
                    children[e] = u
            if missing:
                todo.extend(missing)
                continue
            todo.pop()
            memo[a, b] = self._node(leaves | leaves_b, tuple(sorted(children.items())))
        return memo[pair]

    def follow(self, evs: tuple[int, ...], target: Optional[int]) -> int:
        """Outcomes of an edge emitting ``evs`` into ``target`` (None: abort)."""
        n = self.aborted if target is None else self.outcomes[target]
        return self.prepend(evs, n) if evs else n

    def walk(self, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every outcome of set ``n`` as a ``(trace, leaf id)`` pair, the
        trace a tuple of event ids.  The walk keeps its own stack."""
        nodes, path = self.nodes, []
        stack: list[tuple[int, int, int]] = [(0, -1, n)]  # (depth, event, node)
        while stack:
            depth, e, n = stack.pop()
            del path[depth:]
            if e >= 0:
                path.append(e)
            leaves, children = nodes[n]
            if leaves:
                trace = tuple(path)
                for leaf in leaves:
                    yield trace, leaf
            depth = len(path)
            stack.extend([(depth, e, c) for e, c in children])

    def result(self, outcome: tuple[tuple[int, ...], int]) -> ExecutionResult:
        trace, leaf = outcome
        events = self.events
        return ExecutionResult(tuple([events[e] for e in trace]), *self.leaves[leaf])


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

DEFAULT_BOUND = 200_000


def explore(
    prog: Program, model: ObjectModel, init_obj: Any = None, bound: int = DEFAULT_BOUND
) -> Exploration:
    """Explore all schedules of ``prog`` over ``model`` from ``init_obj``,
    as :class:`Exploration` resolves and checks it."""
    return Exploration(prog, model, init_obj, bound).build()


def run_atomic(
    prog: Program, spec: SeqSpec, init_obj: Any = None, bound: int = DEFAULT_BOUND
) -> Exploration:
    """Explore ``prog`` over :func:`~strictlin.models.atomic_model` of ``spec``.

    Each call is one transition per spec outcome, emitting its invocation and
    response; where the spec relation is empty the call blocks.  A
    configuration with pending work and no enabled transition anywhere is a
    livelock and classified as object divergence.  The start state is
    resolved and checked against ``spec`` as by :class:`Exploration`.
    """
    # not ``explore``: the benchmark counts each call of either as one exploration
    return Exploration(prog, atomic_model(spec), init_obj, bound).build()


def incomplete(*explorations: Exploration) -> str:
    """Why the explored outcome sets are only lower bounds, or "" when they
    are exact.  A check that finds no violation on such sets is
    inconclusive, never a pass: unexplored executions may hold one."""
    if any(ex.truncated for ex in explorations):
        return "exploration truncated by the transition budget"
    if any(ex.approximate for ex in explorations):
        return "outcome sets approximate"
    return ""


# ---------------------------------------------------------------------------
# Observables: client traces and final states
# ---------------------------------------------------------------------------


def canonical_lasso(stem: tuple, cycle: tuple) -> tuple[tuple, tuple]:
    """Normalize an eventually-periodic trace: primitive cycle, shortest stem."""
    if not cycle:
        return stem, cycle
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            cycle = cycle[:d]
            break
    while stem and stem[-1] == cycle[-1]:
        stem = stem[:-1]
        cycle = (cycle[-1],) + cycle[:-1]
    return stem, cycle


def client_traces(results: Iterable[ExecutionResult]) -> frozenset:
    """Client-side trace set of client-projected outcomes, as
    ``results("client")`` gives them: the traces of terminated and aborted
    executions plus the lassos of client-divergent ones, as ``(stem,
    cycle)`` pairs.  Object divergence contributes nothing."""
    out = set()
    for r in results:
        if r.kind in (Kind.TERMINATED, Kind.ABORTED):
            out.add((r.trace, ()))
        elif r.kind is Kind.CLIENT_DIVERGENT:
            out.add(canonical_lasso(r.trace, r.cycle))
    return frozenset(out)


def client_trace_diffs(ex_m: Exploration, ex_a: Exploration) -> tuple[bool, tuple, tuple]:
    """``(equal, only_m, only_a)``: whether the client traces of two
    explorations are the same set, and the rendered traces
    (:func:`render_client_trace`) only ``ex_m`` and only ``ex_a`` has,
    sorted; this is the trace half of :func:`observables_report`.

    When no cycle of either graph emits a client event (``scc_info()``'s
    ``client_edges`` is empty on both), every client trace is finite, and
    each graph is read as an automaton over client events
    (:class:`_ClientAutomaton`).  The product of the two, walked once from
    the start pair and memoized per pair of states, decides equality, and
    only when the languages differ are the differences enumerated, along
    the pairs that lead to one.  Otherwise some traces are infinite lassos,
    and both sides' traces are enumerated with ``results("client")``."""
    if ex_m.scc_info()["client_edges"] or ex_a.scc_info()["client_edges"]:
        mt_m, mt_a = (client_traces(ex.results("client")) for ex in (ex_m, ex_a))
        return mt_m == mt_a, _rendered(mt_m - mt_a), _rendered(mt_a - mt_m)
    m, a = _ClientAutomaton(ex_m), _ClientAutomaton(ex_a)

    def frame(pair: tuple[int, int]) -> list:
        return [pair, _pair_moves(m, a, pair), m.accepts[pair[0]] != a.accepts[pair[1]]]

    # differs[pair]: whether some word from ``pair`` is accepted by one side
    # only, computed callees first on an explicit stack.  Every move reads
    # a letter and no cycle emits one, so the pairs form a DAG
    root = (m.start, a.start)
    differs: dict[tuple[int, int], bool] = {}
    stack = [frame(root)]
    while stack:
        top = stack[-1]
        for _, pair in top[1]:
            d = differs.get(pair)
            if d is None:
                stack.append(frame(pair))
                break
            top[2] |= d
        else:
            stack.pop()
            differs[top[0]] = top[2]
            if stack:
                stack[-1][2] |= top[2]
    if not differs[root]:
        return True, (), ()
    # the words that lead to a pair accepting on one side only, each
    # rendered as the walk goes (as :func:`render_client_trace` renders a
    # finite trace), every distinct event once
    only: tuple[list, list] = ([], [])
    names: dict[Event, str] = {}
    todo: list[tuple[str, tuple[int, int]]] = [("", root)]
    while todo:
        text, (i, j) = todo.pop()
        if m.accepts[i] != a.accepts[j]:
            only[not m.accepts[i]].append(text or "(empty)")
        for e, p in _pair_moves(m, a, (i, j)):
            if differs[p]:
                name = names.get(e)
                if name is None:
                    name = names[e] = e.render()
                todo.append((f"{text}; {name}" if text else name, p))
    return False, tuple(sorted(only[0])), tuple(sorted(only[1]))


def _rendered(traces: Iterable[tuple[tuple, tuple]]) -> tuple[str, ...]:
    """``traces`` rendered by :func:`render_client_trace`, sorted."""
    return tuple(sorted(map(render_client_trace, traces)))


_SINK = -1  # the accepting state every abort edge leads to


class _ClientAutomaton:
    """An exploration read as an automaton over client events, made
    deterministic by the subset construction as the product asks for states.

    An edge that emits no client event is an ε-move.  Any other is a client
    step, which emits exactly one event, the edge's letter; an object step
    emits object events only, each with its operation's id.  The
    ``terminal_done`` configurations accept, and every abort edge (target
    None) leads to one accepting sink, :data:`_SINK`.  A state is numbered
    by the set of configurations its letter reaches, its seeds, and stands
    for their ε-closure: ``accepts[s]`` says whether the closure holds an
    accepting configuration, and :meth:`step` maps each letter to the state
    it leads to.  State 0 is the empty set, which accepts nothing.  The
    exploration's edges are read in place; a closure is walked once per
    state, and only its seeds and letters are kept."""

    def __init__(self, ex: Exploration) -> None:
        self.edges, self.done = ex.edges, ex.terminal_done
        self.ids: dict[frozenset, int] = {}
        self.accepts: list[bool] = []
        # per state: the seeds of each letter, until step() numbers them
        self.seeds: list[Optional[dict]] = []
        self.steps: list[Optional[dict]] = []
        self.state(frozenset())
        self.start = self.state(frozenset((0,)))

    def state(self, seeds: frozenset) -> int:
        """The state of ``seeds``, numbered and closed on first sight."""
        s = self.ids.get(seeds)
        if s is not None:
            return s
        s = self.ids[seeds] = len(self.accepts)
        edges, seen, todo = self.edges, set(seeds), list(seeds)
        letters: dict[Event, set] = {}
        while todo:
            u = todo.pop()
            if u == _SINK:
                continue
            for evs, t in edges[u]:
                if t is None:
                    t = _SINK
                # a client event is the one event with no operation id
                if evs and evs[0].op is None:
                    ts = letters.get(evs[0])
                    if ts is None:
                        letters[evs[0]] = {t}
                    else:
                        ts.add(t)
                elif t not in seen:
                    seen.add(t)
                    todo.append(t)
        self.accepts.append(_SINK in seen or not self.done.isdisjoint(seen))
        self.seeds.append({e: frozenset(ts) for e, ts in letters.items()})
        self.steps.append(None)
        return s

    def step(self, s: int) -> dict:
        """State ``s``'s moves, each letter mapped to the state it reaches."""
        out = self.steps[s]
        if out is None:
            out = self.steps[s] = {e: self.state(ts) for e, ts in self.seeds[s].items()}
            self.seeds[s] = None
        return out


def _pair_moves(m: _ClientAutomaton, a: _ClientAutomaton,
                pair: tuple[int, int]) -> Iterator[tuple[Event, tuple[int, int]]]:
    """The moves of a pair of states of the product of ``m`` and ``a``, one
    per letter either side reads, the other side moving to the empty state
    when it lacks the letter."""
    sm, sa = m.step(pair[0]), a.step(pair[1])
    for e, s in sm.items():
        yield e, (s, sa.get(e, 0))
    for e, s in sa.items():
        if e not in sm:
            yield e, (0, s)


@dataclass(frozen=True)
class FinalStates:
    """Final-state set: the terminated configurations' ``(client bindings,
    object state key)`` pairs, whether some execution aborts, and whether
    some diverges on the client side (the bottom state)."""

    states: frozenset
    has_abort: bool
    has_bottom: bool
    renderings: tuple[str, ...]


def final_states(exploration: Exploration) -> FinalStates:
    spec, objs = exploration.spec, exploration.states
    render: dict = {}
    for i in exploration.terminal_done:
        c = exploration.config(i)
        k = (c.client, spec.state_key(objs[c.sid]))
        render[k] = (
            " ".join(f"{n}={render_value(v)}" for n, v in c.client) or "-",
            spec.render_state(objs[c.sid]),
        )
    has_abort = exploration.has_abort
    has_bottom = Kind.CLIENT_DIVERGENT in exploration.divergence_kinds()
    lines = sorted(f"client: {cl} | object: {ob}" for cl, ob in render.values())
    if has_abort:
        lines.append("abort")
    if has_bottom:
        lines.append("bottom (client divergence)")
    return FinalStates(frozenset(render), has_abort, has_bottom, tuple(lines))


# ---------------------------------------------------------------------------
# Observable-equivalence and divergence comparisons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservablesReport:
    """Client-trace and final-state comparison of a model against the atomic
    version of a sequential specification.  ``client_only``: the spec is
    not the model's own, so ``states_equal`` compares what the client
    observes of the final states (see :func:`observables_report`)."""

    traces_equal: bool
    states_equal: bool
    trace_diff_model: tuple
    trace_diff_atomic: tuple
    state_lines_model: tuple[str, ...]
    state_lines_atomic: tuple[str, ...]
    client_only: bool

    @property
    def equal(self) -> bool:
        return self.traces_equal and self.states_equal


def explore_both(
    prog: Program,
    model: ObjectModel,
    spec: Optional[SeqSpec] = None,
    init_obj: Any = None,
    bound: int = DEFAULT_BOUND,
    init_obj_atomic: Any = None,
) -> tuple[Exploration, Exploration]:
    """Explore ``prog`` over the model and over the atomic version of
    ``spec`` (``model.seq_spec`` by default): the one two-sided entry.

    The model side starts from ``init_obj`` and the atomic side from
    ``init_obj_atomic``, or from ``init_obj`` when that is None; each start
    is resolved and checked against the spec that owns its side, as by
    :class:`Exploration`."""
    ex_m = explore(prog, model, init_obj=init_obj, bound=bound)
    init_a = init_obj if init_obj_atomic is None else init_obj_atomic
    return ex_m, run_atomic(prog, spec or model.seq_spec, init_obj=init_a, bound=bound)


def observables_report(ex_m: Exploration, ex_a: Exploration) -> ObservablesReport:
    """Client traces and final states of a fine-grained exploration against
    an atomic one.  The client traces are compared by
    :func:`client_trace_diffs`.  Over the model's own spec the final states
    are compared whole.  A foreign spec's object states lie in another
    domain, so then only what the client observes is compared, the client
    bindings and whether some execution aborts or diverges on the client
    side: observational equivalence."""
    traces_equal, diff_m, diff_a = client_trace_diffs(ex_m, ex_a)
    fs_m, fs_a = final_states(ex_m), final_states(ex_a)
    client_only = ex_a.spec is not ex_m.spec
    seen_m, seen_a = (
        ({cl for cl, _ in fs.states} if client_only else fs.states, fs.has_abort, fs.has_bottom)
        for fs in (fs_m, fs_a)
    )
    return ObservablesReport(
        traces_equal=traces_equal,
        states_equal=seen_m == seen_a,
        trace_diff_model=diff_m,
        trace_diff_atomic=diff_a,
        state_lines_model=fs_m.renderings,
        state_lines_atomic=fs_a.renderings,
        client_only=client_only,
    )


def compare_observables(
    prog: Program, model: ObjectModel, spec: Optional[SeqSpec] = None
) -> ObservablesReport:
    """Compare client traces and final states of ``prog`` over the model
    against the atomic version of ``spec`` (as by :func:`explore_both`)."""
    return observables_report(*explore_both(prog, model, spec))


def render_client_trace(trace: tuple[tuple, tuple]) -> str:
    stem, cycle = trace
    parts = ["; ".join(e.render() for e in stem)] if stem else []
    if cycle:
        parts.append("[loop: " + "; ".join(e.render() for e in cycle) + "]")
    return " ".join(parts) or "(empty)"


@dataclass(frozen=True)
class DivergenceReport:
    model_diverges: bool
    atomic_diverges: bool
    model_kinds: tuple[str, ...]
    atomic_kinds: tuple[str, ...]


def divergence_report(ex_m: Exploration, ex_a: Exploration) -> DivergenceReport:
    """Whether each of a fine-grained and an atomic exploration diverges.
    Every cyclic component is object- or client-cyclic, so an exploration
    diverges exactly when it has a divergence kind."""
    kinds_m, kinds_a = (
        tuple(sorted(k.value for k in ex.divergence_kinds())) for ex in (ex_m, ex_a)
    )
    return DivergenceReport(bool(kinds_m), bool(kinds_a), kinds_m, kinds_a)


def compare(ex_m: Exploration, ex_a: Exploration) -> tuple:
    """``compare``'s decision: ``(observables report, divergence report,
    verdict, why)``.  The verdict is ``pass`` when the observables are equal
    and both sides diverge alike, else ``fail``, and ``inconclusive`` when
    ``why`` says an exploration is incomplete, as either answer may change."""
    obs, div = observables_report(ex_m, ex_a), divergence_report(ex_m, ex_a)
    why = incomplete(ex_m, ex_a)
    agree = obs.equal and div.model_diverges == div.atomic_diverges
    return obs, div, "inconclusive" if why else "pass" if agree else "fail", why


def compare_divergence(
    prog: Program, model: ObjectModel, spec: Optional[SeqSpec] = None
) -> DivergenceReport:
    """Report whether any divergent schedule exists on each side (both sides
    explored as by :func:`explore_both`)."""
    return divergence_report(*explore_both(prog, model, spec))
