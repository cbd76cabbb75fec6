"""Sequential specifications, abstract data types, and refinement checks.

A sequential specification describes an object in the absence of
concurrency.  Methods are *relations*: applying a method to a state and an
input yields a finite, possibly empty set of (state', output) pairs.  An
empty outcome set means the pair is outside the method's domain (the method
blocks there); deterministic methods yield singletons.

An ADT is a sequential specification over abstract states with one
distinguished initial state.  Abstraction functions map well-formed concrete
states to abstract states; renaming functions map concrete method names to
abstract ones.  The refinement checks here are bounded: they sample a finite
enumeration of states and inputs and report a verdict over that sample,
never a proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .history import History, Ret, is_sequential
from .values import EMPTY, UNIT, Value, render_value, value_key

State = Hashable
Outcome = tuple[State, Value]
MethodRelation = Callable[[State, Value], Iterable[Outcome]]


class UnknownMethodError(ValueError):
    pass


@dataclass
class SeqSpec:
    """A sequential specification: state domain plus per-method relations.

    ``methods`` maps method names to relations; ``initial_states`` lists the
    designated start states for checks; ``is_state`` is the state-domain
    membership predicate; ``method_inputs`` gives the finite input sample
    used by refinement checks (methods that take no argument use ``UNIT``).
    ``state_key`` canonicalizes states for equality of observable state sets;
    ``render_state`` produces the canonical text rendering.
    """

    name: str
    methods: Mapping[str, MethodRelation]
    initial_states: tuple[State, ...]
    is_state: Callable[[State], bool] = lambda s: True
    method_inputs: Mapping[str, tuple[Value, ...]] = field(default_factory=dict)
    state_key: Callable[[State], Hashable] = lambda s: s
    render_state: Callable[[State], str] = repr
    cells: Optional["CellAccess"] = None
    from_contents: Optional[Callable[[tuple[Value, ...]], State]] = None

    def method_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.methods))

    def seed_state(self, contents: Sequence[Value]) -> State:
        """Build a start state holding ``contents``, front first."""
        if self.from_contents is None:
            raise ValueError(f"{self.name}: no contents-based initial state")
        return self.from_contents(tuple(contents))


@dataclass
class Adt(SeqSpec):
    """A sequential specification with a distinguished initial state."""

    @property
    def initial_state(self) -> State:
        return self.initial_states[0]


@dataclass(frozen=True)
class CellAccess:
    """Direct-access hooks for object cells exposed to client programs."""

    read: Callable[[State, tuple], Value]
    write: Callable[[State, tuple, Value], State]


class CellError(ValueError):
    """Raised by cell accessors on a bad address or value (a runtime error)."""


def apply(spec: SeqSpec, method: str, state: State, inp: Value) -> tuple[Outcome, ...]:
    """The distinct outcomes of ``method`` at ``(state, inp)``, sorted by the
    ``repr`` of the (state, return) pair; empty = out of domain.  This is the
    one order in which the checks, the witness search and the atomic model
    read a spec's outcomes, so their reports do not depend on hashing."""
    try:
        rel = spec.methods[method]
    except KeyError:
        raise UnknownMethodError(f"{spec.name}: unknown method {method!r}") from None
    outs = frozenset(rel(state, inp))
    return tuple(sorted(outs, key=repr)) if len(outs) > 1 else tuple(outs)


def legal_seq_outcomes(spec: SeqSpec, start: State, h_seq: History) -> frozenset[State]:
    """Final states of legal sequential executions of ``h_seq`` from ``start``.

    The history must be complete and sequential.  State is threaded through
    each (method, argument, return) triple, keeping only spec outcomes whose
    output equals the recorded return.  An empty result means the history is
    not legal from ``start``.
    """
    if not is_sequential(h_seq):
        raise ValueError("history is not sequential")
    states: set[State] = {start}
    ev = h_seq.events
    for call, resp in zip(ev[0::2], ev[1::2]):
        if not isinstance(resp.label, Ret):
            return frozenset()
        nxt: set[State] = set()
        for s in states:
            for s2, out in apply(spec, call.label.method, s, call.label.arg):
                if out == resp.label.value:
                    nxt.add(s2)
        states = nxt
        if not states:
            return frozenset()
    if len(ev) % 2:
        raise ValueError("history is not complete")
    return frozenset(states)


# ---------------------------------------------------------------------------
# Abstraction and renaming
# ---------------------------------------------------------------------------


@dataclass
class AbstractionFunction:
    """Total map from well-formed concrete states to abstract states.

    ``domain`` guards application (well-formedness of the concrete state);
    applying outside it raises.
    """

    name: str
    fn: Callable[[State], State]
    domain: Callable[[State], bool] = lambda s: True

    def __call__(self, state: State) -> State:
        if not self.domain(state):
            raise ValueError(f"{self.name}: state outside abstraction domain")
        return self.fn(state)


@dataclass(frozen=True)
class RenamingFunction:
    """Bijection from concrete method names to abstract method names."""

    mapping: tuple[tuple[str, str], ...]

    @staticmethod
    def of(d: Mapping[str, str]) -> "RenamingFunction":
        if len(set(d.values())) != len(d):
            raise ValueError("renaming is not injective")
        return RenamingFunction(tuple(sorted(d.items())))

    @staticmethod
    def identity(names: Iterable[str]) -> "RenamingFunction":
        return RenamingFunction.of({n: n for n in names})

    def forward(self, name: str) -> str:
        for a, b in self.mapping:
            if a == name:
                return b
        raise UnknownMethodError(f"renaming: unknown concrete method {name!r}")

    def backward(self, name: str) -> str:
        for a, b in self.mapping:
            if b == name:
                return a
        raise UnknownMethodError(f"renaming: unknown abstract method {name!r}")

    def concrete_names(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.mapping)


def injectivity_scan(
    af: AbstractionFunction, states: Iterable[State], key: Callable[[State], Hashable]
) -> list[tuple[State, State]]:
    """Scan ``states`` for abstraction-image collisions.

    Returns the list of colliding state pairs (empty iff injective on the
    sample).  States equal under ``key`` are the same state and never
    collide.
    """
    seen: dict[Hashable, State] = {}
    collisions: list[tuple[State, State]] = []
    for s in states:
        img = af(s)
        k = key(s)
        if img in seen and seen[img] != k:
            collisions.append((s, img))
        else:
            seen[img] = k
    return collisions


# ---------------------------------------------------------------------------
# Refinement checks (bounded, over sampled states)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImplCounterexample:
    state: str  # the concrete state, as the model spec's render_state writes it
    method: str  # abstract method name
    inp: Value
    detail: str


@dataclass(frozen=True)
class ImplVerdict:
    ok: bool
    states_checked: int
    counterexample: Optional[ImplCounterexample] = None


def is_sequential_implementation(
    model_spec: SeqSpec,
    adt: Adt,
    af: AbstractionFunction,
    rf: RenamingFunction,
    states: Iterable[State],
) -> ImplVerdict:
    """Check that ``model_spec`` implements ``adt`` through ``af``/``rf``.

    For every sampled concrete state, abstract method and input whose
    abstract application is in-domain, every concrete outcome of the renamed
    method must be matched by an abstract outcome with the same return value
    and an abstraction-consistent next state.  Where the abstract method is
    out of its domain the concrete one is unconstrained.  Deterministic
    specs degenerate to outcome-for-outcome equality modulo abstraction.
    """
    n = 0
    for sz in states:
        n += 1
        sa = af(sz)
        for aop in adt.method_names():
            zop = rf.backward(aop)
            for inp in adt.method_inputs.get(aop, (UNIT,)):
                abstract = apply(adt, aop, sa, inp)
                if not abstract:
                    continue
                for sz2, out in apply(model_spec, zop, sz, inp):
                    hits = [
                        (sa2, aout)
                        for sa2, aout in abstract
                        if aout == out and sa2 == af(sz2)
                    ]
                    if not hits:
                        return ImplVerdict(
                            False,
                            n,
                            ImplCounterexample(
                                model_spec.render_state(sz),
                                aop,
                                inp,
                                f"concrete outcome ({model_spec.render_state(sz2)}, "
                                f"{render_value(out)}) has no abstract match",
                            ),
                        )
    return ImplVerdict(True, n)


# ---------------------------------------------------------------------------
# Built-in abstract data types
# ---------------------------------------------------------------------------


def _seq_render(seq: tuple) -> str:
    return "<" + ",".join(render_value(v) for v in seq) + ">"


def _queue_enqueue(state: State, x: Value) -> Iterable[Outcome]:
    assert isinstance(state, tuple)
    return [(state + (x,), UNIT)]


def _queue_dequeue(state: State, _: Value) -> Iterable[Outcome]:
    assert isinstance(state, tuple)
    if state:
        return [(state[1:], state[0])]
    return [(state, EMPTY)]


def _pseudo_dequeue(state: State, _: Value) -> Iterable[Outcome]:
    # Not allowed on an empty sequence; with one element returns EMPTY and
    # keeps the element; otherwise discards the front and returns the new
    # front, which stays in place as the new held element.
    assert isinstance(state, tuple)
    if len(state) == 0:
        return []
    if len(state) == 1:
        return [(state, EMPTY)]
    return [(state[1:], state[1])]


def _mset_add(state: State, x: Value) -> Iterable[Outcome]:
    assert isinstance(state, tuple)
    return [(tuple(sorted(state + (x,), key=value_key)), UNIT)]


def _mset_remove(state: State, _: Value) -> Iterable[Outcome]:
    assert isinstance(state, tuple)
    outs = []
    for e in sorted(set(state), key=value_key):
        rest = list(state)
        rest.remove(e)
        outs.append((tuple(rest), e))
    return outs


def _mset_render(state: tuple) -> str:
    return "{" + ",".join(render_value(v) for v in state) + "}"


# The one sample of the bounded implementation check: the built-in ADTs take
# their arguments from it, and ``explore --mode impl`` samples concrete states
# through ``ObjectModel.enumerate_states(DEFAULT_ALPHABET)``.
DEFAULT_ALPHABET: tuple[Value, ...] = ("a", "b")


def _fifo_adt(name: str, dequeue: MethodRelation) -> Adt:
    """A FIFO sequence from the empty one: the queue and the pseudo-queue
    differ only in ``Dequeue``."""
    return Adt(
        name=name,
        methods={"Enqueue": _queue_enqueue, "Dequeue": dequeue},
        initial_states=((),),
        is_state=lambda s: isinstance(s, tuple),
        method_inputs={"Enqueue": DEFAULT_ALPHABET, "Dequeue": (UNIT,)},
        render_state=_seq_render,
        from_contents=lambda vs: vs,
    )


def queue_adt() -> Adt:
    return _fifo_adt("adt-queue", _queue_dequeue)


def pseudo_queue_adt() -> Adt:
    return _fifo_adt("adt-pseudo-queue", _pseudo_dequeue)


def multiset_adt() -> Adt:
    return Adt(
        name="adt-multiset",
        methods={"Add": _mset_add, "Remove": _mset_remove},
        initial_states=((),),
        is_state=lambda s: isinstance(s, tuple) and list(s) == sorted(s, key=value_key),
        method_inputs={"Add": DEFAULT_ALPHABET, "Remove": (UNIT,)},
        render_state=_mset_render,
        from_contents=lambda vs: tuple(sorted(vs, key=value_key)),
    )


def enumerate_sequences(
    alphabet: Sequence[Value], max_len: int
) -> Iterable[tuple[Value, ...]]:
    """All tuples over ``alphabet`` up to ``max_len``, shortest first."""
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SPEC_REGISTRY: dict[str, Callable[[], SeqSpec]] = {
    "adt-queue": queue_adt,
    "adt-pseudo-queue": pseudo_queue_adt,
    "adt-multiset": multiset_adt,
}

_AF_REGISTRY: dict[str, Callable[[], AbstractionFunction]] = {}


def register_spec(name: str, factory: Callable[[], SeqSpec]) -> None:
    _SPEC_REGISTRY[name] = factory


def register_af(name: str, factory: Callable[[], AbstractionFunction]) -> None:
    _AF_REGISTRY[name] = factory


def get_spec(name: str) -> SeqSpec:
    try:
        return _SPEC_REGISTRY[name]()
    except KeyError:
        raise UnknownMethodError(f"unknown spec {name!r}") from None


def get_af(name: str) -> AbstractionFunction:
    try:
        return _AF_REGISTRY[name]()
    except KeyError:
        raise UnknownMethodError(f"unknown abstraction function {name!r}") from None


def spec_names() -> tuple[str, ...]:
    return tuple(sorted(_SPEC_REGISTRY))


def af_names() -> tuple[str, ...]:
    return tuple(sorted(_AF_REGISTRY))
