"""Histories of invocation/response events and the linearization relation.

A history is the subsequence of an execution trace consisting of invocation
and response events.  Each method call (an *operation*) carries a unique
integer operation id; an invocation matches a response when their ids are
equal.  On top of histories this module provides the per-thread projection,
the sequentiality test, pending-operation completion enumeration, and the
linearization relation ``linearizes(h, h_seq)``.

:func:`operation_table` numbers a history's operations by ascending op id
and gives each its invocation, its response and the bitmask of operations
that precede it in happened-before order, and tells whether the history is
well-formed, all in one walk over the events.  Well-formedness,
completeness, happened-before, completions and the checker's witness
search read that table.

Everything here is immutable and purely functional.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .values import INT_TEXT, VALUE_TEXT, Value, parse_int, parse_value, render_value

# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inv:
    """Invocation of ``method`` with one argument value."""

    method: str
    arg: Value


@dataclass(frozen=True)
class Ret:
    """Normal response carrying the return value."""

    value: Value


@dataclass(frozen=True)
class RetAbort:
    """Response closing an operation that hit a runtime error."""


@dataclass(frozen=True)
class Act:
    """An atomic action; ``action`` is a human-readable descriptor.

    Client actions carry no operation id on their event; actions inside a
    method body carry the operation's id.
    """

    action: str


Label = Union[Inv, Ret, RetAbort, Act]


@dataclass(frozen=True)
class Event:
    """One step of a trace: thread id, label, optional operation id."""

    thread: int
    label: Label
    op: Optional[int] = None

    _hash = None  # not a field: the hash, once computed

    def __post_init__(self) -> None:
        if isinstance(self.label, (Inv, Ret, RetAbort)) and self.op is None:
            raise ValueError(f"interface event without operation id: {self}")

    def __hash__(self) -> int:
        # computed on first use and kept: the explorer interns events, so
        # the traces, result sets and keys that hold one hash it once
        h = self._hash
        if h is None:
            h = hash((self.thread, self.label, self.op))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self) -> tuple:
        # rebuilt from its fields alone: string hashes differ between
        # processes, so a pickled or copied event must not carry its hash
        return Event, (self.thread, self.label, self.op)

    @property
    def is_client(self) -> bool:
        return isinstance(self.label, Act) and self.op is None

    @property
    def is_interface(self) -> bool:
        return isinstance(self.label, (Inv, Ret, RetAbort))

    def render(self) -> str:
        lab = self.label
        if isinstance(lab, Inv):
            return f"t={self.thread} op={self.op} inv {lab.method} {render_value(lab.arg)}"
        if isinstance(lab, Ret):
            return f"t={self.thread} op={self.op} ret {render_value(lab.value)}"
        if isinstance(lab, RetAbort):
            return f"t={self.thread} op={self.op} abort"
        if self.op is None:
            return f"t={self.thread} act {lab.action}"
        return f"t={self.thread} op={self.op} act {lab.action}"


def inv(thread: int, op: int, method: str, arg: Value) -> Event:
    return Event(thread, Inv(method, arg), op)


def ret(thread: int, op: int, value: Value) -> Event:
    return Event(thread, Ret(value), op)


def ret_abort(thread: int, op: int) -> Event:
    return Event(thread, RetAbort(), op)


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


class HistoryError(ValueError):
    """Structurally invalid history (duplicate ids, stray events...)."""


@dataclass(frozen=True)
class History:
    """A finite sequence of invocation/response events.

    Structural invariants enforced at construction: only interface events,
    and each operation id has at most one ``Inv`` and at most one
    ``Ret``/``RetAbort``.  Per-thread well-formedness is a separate property
    of valid histories: see :func:`is_well_formed`.
    """

    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        invs: set[int] = set()
        rets: set[int] = set()
        for e in self.events:
            if isinstance(e.label, Inv):
                if e.op in invs:
                    raise HistoryError(f"duplicate invocation for op {e.op}")
                invs.add(e.op)  # type: ignore[arg-type]
            elif isinstance(e.label, (Ret, RetAbort)):
                if e.op in rets:
                    raise HistoryError(f"duplicate response for op {e.op}")
                rets.add(e.op)  # type: ignore[arg-type]
            else:
                raise HistoryError(f"non-interface event in history: {e}")

    @classmethod
    def _trusted(cls, events: tuple[Event, ...]) -> "History":
        """A history of ``events`` without the checks of construction.

        For histories built from the events of one history that passed them,
        in any order, with some operations left out, invocations renamed,
        and at most one new response for each operation pending there; and
        for an exploration's traces under the ``history`` projection, which
        keeps interface events only of an explorer that emits one invocation
        and at most one response per operation id.  Each event is an
        interface event, and each operation id keeps at most one invocation
        and at most one response, so the checks would pass.
        """
        h = object.__new__(cls)
        object.__setattr__(h, "events", events)
        return h

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, i: int) -> Event:
        return self.events[i]

    def threads(self) -> tuple[int, ...]:
        return tuple(sorted({e.thread for e in self.events}))

    def operations(self) -> tuple[int, ...]:
        """Operation ids in order of invocation (un-invoked responses ignored)."""
        return tuple(e.op for e in self.events if isinstance(e.label, Inv))  # type: ignore[misc]


def history(events: Iterable[Event]) -> History:
    return History(tuple(events))


def project_thread(h: History, thread: int) -> History:
    """Maximal subsequence of ``h`` with the given thread id, order preserved."""
    return History(tuple(e for e in h if e.thread == thread))


def is_sequential(h: History) -> bool:
    """True iff the history alternates pairs of an invocation and its
    response (a Ret or abort of the same op id), possibly ending in one
    trailing invocation."""
    calls, resps = h.events[0::2], h.events[1::2]
    return all(isinstance(c.label, Inv) for c in calls) and all(
        isinstance(r.label, (Ret, RetAbort)) and r.op == c.op for c, r in zip(calls, resps))


class OperationTable(NamedTuple):
    """The operations of a history, numbered by ascending op id: see
    :func:`operation_table`."""

    ids: tuple[int, ...]
    calls: tuple[Optional[Event], ...]
    ends: tuple[Optional[Event], ...]
    preds: tuple[int, ...]
    well_formed: bool


def operation_table(h: History) -> OperationTable:
    """The operations of ``h`` and their order, from one walk over its events.

    ``ids`` lists every op id that appears, invoked or answered, in
    ascending order; operation ``i`` is ``ids[i]``.  ``calls[i]`` and
    ``ends[i]`` are its invocation and response events, None when absent.
    Bit ``j`` of ``preds[i]`` is set when operation ``j`` (``j != i``)
    responded before operation ``i`` was invoked: its predecessors in
    happened-before order; an operation never invoked has mask 0.
    ``well_formed`` tells whether every per-thread projection is
    sequential: ``open_op[t]`` is the operation whose invocation is thread
    ``t``'s latest event, a response must close it, and an invocation may
    not follow another.

    In a well-formed history every response closes an invoked operation,
    so only an ill-formed one can answer an operation not yet invoked.
    """
    invoked: dict[int, tuple[Event, int]] = {}  # op id: (invocation, responses before it)
    closing: dict[int, Event] = {}
    responders: list[int] = []  # op ids in response order
    open_op: dict[int, int] = {}
    well_formed = True
    for e in h.events:
        if isinstance(e.label, Inv):
            invoked[e.op] = (e, len(responders))  # type: ignore[index]
            if e.thread in open_op:
                well_formed = False
            open_op[e.thread] = e.op  # type: ignore[assignment]
        else:
            closing[e.op] = e  # type: ignore[index]
            responders.append(e.op)  # type: ignore[arg-type]
            if open_op.pop(e.thread, None) != e.op:
                well_formed = False
    ids = sorted(invoked if well_formed else invoked.keys() | closing.keys())
    index = {op: i for i, op in enumerate(ids)}
    before = [0]  # before[k]: mask of the first k responders
    for op in responders:
        before.append(before[-1] | 1 << index[op])
    calls = []
    preds = []
    for op in ids:
        e, seen = invoked.get(op, (None, 0))
        calls.append(e)
        preds.append(before[seen])
    if not well_formed:  # an operation answered before its own invocation
        preds = [mask & ~(1 << i) for i, mask in enumerate(preds)]
    return OperationTable(tuple(ids), tuple(calls), tuple(closing.get(op) for op in ids),
                          tuple(preds), well_formed)


def is_well_formed(h: History) -> bool:
    """True iff every per-thread projection is sequential."""
    return operation_table(h).well_formed


def is_complete(h: History) -> bool:
    """True iff well-formed and every invocation has a matching response."""
    ops = operation_table(h)
    return ops.well_formed and all(e is not None for e in ops.ends)


def pending(h: History) -> frozenset[int]:
    """Operation ids with an invocation but no response, in one walk."""
    invs: list[int] = []
    rets: list[int] = []
    for e in h.events:
        (invs if isinstance(e.label, Inv) else rets).append(e.op)  # type: ignore[arg-type]
    return frozenset(invs).difference(rets)


def completions(
    h: History, candidates: Mapping[int, Sequence[Value]]
) -> Iterator[History]:
    """Enumerate every completion of ``h``.

    Operations already closed by ``RetAbort`` stay closed as they are.  Each
    remaining pending operation is either dropped (its invocation removed) or
    closed by a response appended at the end, with the return value drawn
    from ``candidates[op]``; every append order of the added responses is
    produced.  For a complete history the stream contains exactly ``h``.
    """
    ops = operation_table(h)
    # the invocations of the pending operations, by ascending op id
    pend = [c for c, e in zip(ops.calls, ops.ends) if c is not None and e is None]
    for r in range(len(pend) + 1):
        for closed in itertools.combinations(pend, r):
            dropped = {c.op for c in pend} - {c.op for c in closed}
            base = tuple(e for e in h if not (e.op in dropped))
            for order in itertools.permutations(closed):
                pools = [tuple(candidates.get(c.op, ())) for c in order]
                for vals in itertools.product(*pools):
                    tail = tuple(ret(c.thread, c.op, v) for c, v in zip(order, vals))
                    yield History(base + tail)


# ---------------------------------------------------------------------------
# Happened-before and the linearization relation
# ---------------------------------------------------------------------------


def happened_before(h: History) -> frozenset[tuple[int, int]]:
    """The strict partial order on operation ids, as the pairs ``(o, o')``
    where the response of ``o`` precedes the invocation of ``o'`` in ``h``."""
    ids, _, _, preds, _ = operation_table(h)
    return frozenset((ids[j], o) for o, mask in zip(ids, preds)
                     for j in range(mask.bit_length()) if mask >> j & 1)


def linearizes(h: History, h_seq: History) -> bool:
    """The linearization relation on histories.

    ``h_seq`` must be a permutation of ``h`` with identical per-thread
    projections, and the order of non-overlapping operations in ``h`` must
    be preserved.  Because operation ids are unique, the only candidate
    event bijection is the identity on events, so the order condition
    reduces to containment of happened-before orders.
    """
    if h.threads() != h_seq.threads():
        return False
    for t in h.threads():
        if project_thread(h, t) != project_thread(h_seq, t):
            return False
    return happened_before(h) <= happened_before(h_seq)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


class HistoryParseError(ValueError):
    """Malformed history file; message names the offending line."""


def serialize_history(h: History) -> str:
    """One event per line, in the format accepted by :func:`parse_history`."""
    return "".join(e.render() + "\n" for e in h)


def _parse_fields(parts: list[str], lineno: int) -> tuple[int, int]:
    if len(parts) < 3 or not parts[0].startswith("t=") or not parts[1].startswith("op="):
        raise HistoryParseError(f"line {lineno}: expected 't=<int> op=<int> ...'")
    try:
        return parse_int(parts[0][2:]), parse_int(parts[1][3:])
    except ValueError:
        raise HistoryParseError(f"line {lineno}: bad thread/op id") from None


def _parse_event(line: str, lineno: int, seen_inv: set[int]) -> Event:
    """One stripped event line, field by field; ``seen_inv`` holds the
    operations invoked on earlier lines.  Raises the line's
    :class:`HistoryParseError`, or returns the event of a valid line, the
    one ``_EVENT_LINE`` reads from it."""
    parts = line.split()
    t, op = _parse_fields(parts, lineno)
    kind = parts[2]
    if kind == "inv":
        if len(parts) != 5:
            raise HistoryParseError(
                f"line {lineno}: expected 'inv <method> <value>'"
            )
        try:
            arg = parse_value(parts[4])
        except ValueError as exc:
            raise HistoryParseError(f"line {lineno}: {exc}") from None
        return inv(t, op, parts[3], arg)
    if kind == "ret":
        if len(parts) != 4:
            raise HistoryParseError(f"line {lineno}: expected 'ret <value>'")
        if op not in seen_inv:
            raise HistoryParseError(
                f"line {lineno}: response for op {op} with no prior invocation"
            )
        try:
            val = parse_value(parts[3])
        except ValueError as exc:
            raise HistoryParseError(f"line {lineno}: {exc}") from None
        return ret(t, op, val)
    if kind == "abort":
        if len(parts) != 3:
            raise HistoryParseError(f"line {lineno}: expected 'abort'")
        if op not in seen_inv:
            raise HistoryParseError(
                f"line {lineno}: abort for op {op} with no prior invocation"
            )
        return ret_abort(t, op)
    raise HistoryParseError(f"line {lineno}: unknown event kind {kind!r}")


# An event line that _parse_event accepts, surrounding whitespace included
# (``\s`` is ``str.isspace``, what ``strip`` and ``split`` cut at); the
# groups are the thread, the operation, an invocation's method and argument,
# and a response's value.  Neither of the last two matches an abort.
_EVENT_LINE = re.compile(
    rf"\s*t=({INT_TEXT})\s+op=({INT_TEXT})\s+"
    rf"(?:inv\s+(\S+)\s+({VALUE_TEXT})|ret\s+({VALUE_TEXT})|abort)\s*"
)


def parse_history(text: str) -> History:
    """Parse the line format; ``#`` starts a comment, blank lines are skipped.

    Round-trip law: ``parse_history(serialize_history(h)) == h``.

    Each event line is read with one pattern match.  Comments, blank lines,
    malformed lines and responses to operations not yet invoked fall through
    to :func:`_parse_event`, which names the fault.
    """
    events: list[Event] = []
    seen_inv: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _EVENT_LINE.fullmatch(raw)
        if m is not None:
            t, op, method, arg, val = m.groups()
            t, op = int(t), int(op)
            if method is not None:
                events.append(Event(t, Inv(method, parse_value(arg)), op))
                seen_inv.add(op)
                continue
            if op in seen_inv:
                label = RetAbort() if val is None else Ret(parse_value(val))
                events.append(Event(t, label, op))
                continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        events.append(_parse_event(line, lineno, seen_inv))
    try:
        return History(tuple(events))
    except HistoryError as exc:
        raise HistoryParseError(str(exc)) from None
