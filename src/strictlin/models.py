"""Executable object models: a sequential spec plus fine-grained step machines.

Three models ship with the package:

* ``hw-queue``   -- the array-based queue whose Enqueue reserves a slot with
  an atomic fetch-and-increment and stores later, and whose Dequeue sweeps
  the array with atomic swaps, retrying forever when it finds nothing.
* ``ms-queue``   -- the lock-free linked queue with a dummy head node,
  compare-and-swap linking and a tail-helping step.
* ``coarse-queue`` -- a control model whose methods are single atomic steps.

Each is built by one factory of its one size, which checks the size, then
builds the model's sequential specification and the model: per-method step
machines over (local state, shared state), the spec, an execution
invariant and a state sampler.  The spec's relations are not written down:
:func:`sequential_relation` derives each from its machine run alone.  The
spec alone describes the object's states: start state, domain, key,
canonical rendering for golden-file reports and cells.  One step is one
atomic action at the granularity of one source line; composite tests such
as "read pointer and branch" are a single atomic read-and-branch, and
initialization of a node that no other thread can reach yet is folded into
its allocation.

The array model is bounded by a parameter ``N``; enqueueing past the bound
is a runtime error.  The linked model draws nodes from a bounded pool of
``P`` nodes, lowest free index first, and never reclaims memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from . import specs
from .specs import AbstractionFunction, CellAccess, CellError, SeqSpec
from .values import EMPTY, NULL, UNIT, Value, parse_int, render_value, value_key

# ---------------------------------------------------------------------------
# Step-machine plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Done:
    """Terminal local state: the operation returns ``value``."""

    value: Value


@dataclass(frozen=True)
class StepOutcome:
    """One atomic transition of a method body."""

    action: str
    local: Any
    shared: Any
    abort: bool = False


@dataclass(frozen=True)
class MethodMachine:
    """``start(arg, shared)`` lists the ``(local, shared)`` pairs a call can
    move to on invocation (none: it blocks); a ``Done`` local returns in that
    same transition, any other runs the body by ``step(local, shared)``."""

    start: Callable[[Value, Any], tuple[tuple[Any, Any], ...]]
    step: Callable[[Any, Any], tuple[StepOutcome, ...]]


def _body(first: str, step: Callable, takes_arg: bool = False) -> MethodMachine:
    """A fine-grained method: a call enters its body at step ``first``, its
    local state holding the argument when the method takes one, and runs it
    by ``step``."""
    return MethodMachine(lambda arg, s: (((first, arg) if takes_arg else (first,), s),), step)


@dataclass
class ObjectModel:
    """An executable object, fine-grained or a spec's :func:`atomic_model`:
    step machines, its spec ``seq_spec``, which owns every fact about object
    states (a fine-grained model's spec relations are its machines run
    alone, see :func:`sequential_relation`), an invariant of every reachable
    state and a sampler of states over an alphabet for refinement checks."""

    name: str
    methods: dict[str, MethodMachine]
    seq_spec: SeqSpec
    invariant_ok: Callable[[Any], bool]
    enumerate_states: Optional[Callable[[Sequence[Value]], Iterable[Any]]] = None

    def method_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.methods))


def sequential_relation(machine: MethodMachine) -> specs.MethodRelation:
    """The spec relation of ``machine`` run with no other thread: from each
    invocation move, follow every step and collect the ``(state, return)``
    of each ``Done`` reached.  An abort or a revisited ``(local, state)``
    pair adds nothing, so a call that cannot finish alone is out of the
    domain."""

    def rel(s: Any, arg: Value) -> list[tuple[Any, Value]]:
        out, seen = [], set()
        todo = list(machine.start(arg, s))
        while todo:
            local, shared = todo.pop()
            if isinstance(local, Done):
                out.append((shared, local.value))
            elif (local, shared) not in seen:
                seen.add((local, shared))
                todo += [(o.local, o.shared) for o in machine.step(local, shared) if not o.abort]
        return out

    return rel


def atomic_model(spec: SeqSpec) -> ObjectModel:
    """The atomic version of ``spec``: a call returns in its invoking
    transition, one per spec outcome in :func:`specs.apply`'s order, and
    blocks where the spec relation is empty, retrying whenever the state
    changes."""

    def machine(method: str) -> MethodMachine:
        def start(arg: Value, s: Any) -> tuple:
            return tuple((Done(ret), s2) for s2, ret in specs.apply(spec, method, s, arg))

        return MethodMachine(start, lambda local, s: ())  # no body to step

    return ObjectModel(spec.name, {m: machine(m) for m in spec.methods}, spec, spec.is_state)


def _cell_render(v: Value) -> str:
    if v is NULL:
        return "·"
    if isinstance(v, str):
        return v
    return render_value(v)


# ---------------------------------------------------------------------------
# HW array queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HWQueueState:
    back: int
    items: tuple[Value, ...]


def hw_is_state(s: Any) -> bool:
    return (
        isinstance(s, HWQueueState)
        and 1 <= s.back <= len(s.items) + 1
        and all(not isinstance(v, bool) for v in s.items)
    )


def hw_render(s: HWQueueState) -> str:
    cells = ",".join(_cell_render(v) for v in s.items)
    return f"back={s.back} items=[{cells}]"


def _hw_get(s: HWQueueState, i: int) -> Value:
    return s.items[i - 1]


def _hw_set(s: HWQueueState, i: int, v: Value) -> HWQueueState:
    items = list(s.items)
    items[i - 1] = v
    return replace(s, items=tuple(items))


def _hw_enq_step(local: Any, s: HWQueueState) -> tuple[StepOutcome, ...]:
    tag = local[0]
    if tag == "inc":
        _, v = local
        if s.back > len(s.items):
            return (StepOutcome("t:=inc(back): no free slot", local, s, abort=True),)
        t = s.back
        return (
            StepOutcome(f"t:=inc(back)={t}", ("store", v, t), replace(s, back=t + 1)),
        )
    _, v, t = local
    return (StepOutcome(f"items[{t}]:={render_value(v)}", Done(UNIT), _hw_set(s, t, v)),)


def _hw_deq_step(local: Any, s: HWQueueState) -> tuple[StepOutcome, ...]:
    tag = local[0]
    if tag == "snap":
        rng = s.back - 1
        nxt = ("scan", rng, 1) if rng >= 1 else ("snap",)
        return (StepOutcome(f"range:=back-1={rng}", nxt, s),)
    _, rng, i = local
    temp = _hw_get(s, i)
    s2 = _hw_set(s, i, NULL)
    action = f"temp:=swap(items[{i}],null)={render_value(temp)}"
    if temp is not NULL:
        return (StepOutcome(action, Done(temp), s2),)
    nxt = ("scan", rng, i + 1) if i < rng else ("snap",)
    return (StepOutcome(action, nxt, s2),)


def _hw_cell_read(s: HWQueueState, addr: tuple) -> Value:
    if addr == ("back",):
        return s.back
    if len(addr) == 2 and addr[0] == "items" and 1 <= addr[1] <= len(s.items):
        return _hw_get(s, addr[1])
    raise CellError(f"bad cell address {addr!r}")


def _hw_cell_write(s: HWQueueState, addr: tuple, v: Value) -> HWQueueState:
    if addr == ("back",):
        if not isinstance(v, int) or not (1 <= v <= len(s.items) + 1):
            raise CellError(f"bad value for back: {v!r}")
        return replace(s, back=v)
    if len(addr) == 2 and addr[0] == "items" and 1 <= addr[1] <= len(s.items):
        return _hw_set(s, addr[1], v)
    raise CellError(f"bad cell address {addr!r}")


HW_CELLS = CellAccess(_hw_cell_read, _hw_cell_write)

HW_MACHINES = {
    "Enqueue": _body("inc", _hw_enq_step, takes_arg=True),
    "Dequeue": _body("snap", _hw_deq_step),
}


def hw_model(n: int = 4) -> ObjectModel:
    if n < 1:
        raise ValueError("array bound must be >= 1")

    def from_contents(vs: tuple[Value, ...]) -> HWQueueState:
        if len(vs) > n:
            raise ValueError(f"array bound {n} cannot hold {len(vs)} values")
        return HWQueueState(len(vs) + 1, vs + (NULL,) * (n - len(vs)))

    return ObjectModel(
        name="hw-queue",
        methods=dict(HW_MACHINES),
        seq_spec=SeqSpec(
            name="hw-queue-seq",
            methods={m: sequential_relation(mm) for m, mm in HW_MACHINES.items()},
            initial_states=(from_contents(()),),
            # the model's size is part of its state domain; ``hw_is_state`` is not
            is_state=lambda s: hw_is_state(s) and len(s.items) == n,
            render_state=hw_render,
            cells=HW_CELLS,
            from_contents=from_contents,
        ),
        invariant_ok=hw_is_state,
        # contents over the alphabet and null: every cell at or past ``back``
        # is null, an invariant of the algorithm's own executions (slots are
        # reserved before they are written)
        enumerate_states=lambda alpha: map(
            from_contents, specs.enumerate_sequences((NULL,) + tuple(alpha), n)),
    )


# ---------------------------------------------------------------------------
# MS linked queue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    value: Value
    next: Optional[int]
    allocated: bool


FREE_NODE = Node(NULL, None, False)


@dataclass(frozen=True)
class MSQueueState:
    nodes: tuple[Node, ...]
    head: int
    tail: int


def ms_list_indices(s: MSQueueState) -> Optional[list[int]]:
    """Node indices from head, or None when the chain cycles or escapes."""
    out: list[int] = []
    seen: set[int] = set()
    i: Optional[int] = s.head
    while i is not None:
        if i in seen or not (0 <= i < len(s.nodes)) or not s.nodes[i].allocated:
            return None
        seen.add(i)
        out.append(i)
        i = s.nodes[i].next
    return out

def ms_well_formed(s: Any) -> bool:
    """Quiescent well-formedness: an acyclic linked-queue list ending at the tail."""
    idx = ms_list_indices(s) if isinstance(s, MSQueueState) else None
    return idx is not None and s.tail == idx[-1]


def ms_invariant_ok(s: MSQueueState) -> bool:
    """Structural invariant along executions: acyclic list, tail on the list
    and lagging the end by at most one node (mid-enqueue states)."""
    idx = ms_list_indices(s)
    return idx is not None and s.tail in idx and idx.index(s.tail) >= len(idx) - 2


def ms_state_key(s: MSQueueState) -> Hashable:
    """Canonical identity: node names are renamed away.

    Two states are the same observable state when they have the same value
    sequence along the list, the same tail position, the same multiset of
    values in unreachable allocated nodes, and the same free-node count.
    A state whose list cycles or escapes, or whose tail is off the list, is
    keyed by its raw fields.
    """
    idx = ms_list_indices(s)
    if idx is None or s.tail not in idx:
        return ("ms-malformed", s.nodes, s.head, s.tail)
    values = tuple(s.nodes[i].value for i in idx)
    garbage = tuple(
        sorted(
            (n.value for j, n in enumerate(s.nodes) if n.allocated and j not in idx),
            key=value_key,
        )
    )
    free = sum(1 for n in s.nodes if not n.allocated)
    return (values, idx.index(s.tail), garbage, free)


def ms_render(s: MSQueueState) -> str:
    """The list from the head with nodes renamed by position, rendered from
    :func:`ms_state_key`; a malformed state is rendered with every node by
    its index, so two malformed keys never render alike."""
    key = ms_state_key(s)
    if key[0] == "ms-malformed":
        nodes = ",".join(
            f"n{i}:" + ("" if n.allocated else "free:") + render_value(n.value)
            + ("" if n.next is None else f"->n{n.next}")
            for i, n in enumerate(s.nodes)
        )
        return f"malformed head=n{s.head} tail=n{s.tail} nodes=[{nodes}]"
    values, tail, garbage, _ = key
    parts = ",".join(f"n{k}:{_cell_render(v)}" for k, v in enumerate(values))
    out = f"head=n0 list=[{parts}] tail=n{tail}"
    if garbage:
        out += " garbage=[" + ",".join(map(_cell_render, garbage)) + "]"
    return out


def _ms_set_node(s: MSQueueState, i: int, node: Node) -> MSQueueState:
    nodes = list(s.nodes)
    nodes[i] = node
    return replace(s, nodes=tuple(nodes))


def _ms_alloc(s: MSQueueState, v: Value) -> Optional[tuple[MSQueueState, int]]:
    for i, node in enumerate(s.nodes):
        if not node.allocated:
            return _ms_set_node(s, i, Node(v, None, True)), i
    return None


def _ms_enq_step(local: Any, s: MSQueueState) -> tuple[StepOutcome, ...]:
    tag = local[0]
    if tag == "alloc":
        # value/next stores folded in: the node is private until linked
        _, v = local
        got = _ms_alloc(s, v)
        if got is None:
            return (StepOutcome("n:=new_node(): pool exhausted", local, s, abort=True),)
        s2, n = got
        return (StepOutcome(f"n:=new_node({render_value(v)})=n{n}", ("read_tail", n), s2),)
    if tag == "read_tail":
        _, n = local
        return (StepOutcome(f"t:=Tail=n{s.tail}", ("read_next", n, s.tail), s),)
    if tag == "read_next":
        _, n, t = local
        tn = s.nodes[t].next
        return (StepOutcome(f"tn:=t.next={_opt_node(tn)}", ("check_tail", n, t, tn), s),)
    if tag == "check_tail":
        _, n, t, tn = local
        if t != s.tail:
            return (StepOutcome("t=Tail? no", ("read_tail", n), s),)
        if tn is None:
            return (StepOutcome("t=Tail? yes; tn=null", ("cas_next", n, t), s),)
        return (StepOutcome("t=Tail? yes; tn!=null", ("help_tail", n, t, tn), s),)
    if tag == "cas_next":
        _, n, t = local
        if s.nodes[t].next is None:
            s2 = _ms_set_node(s, t, replace(s.nodes[t], next=n))
            return (StepOutcome(f"cas(t.next,null,n{n})=true", ("swing_tail", n, t), s2),)
        return (StepOutcome(f"cas(t.next,null,n{n})=false", ("read_tail", n), s),)
    if tag == "help_tail":
        _, n, t, tn = local
        ok = s.tail == t
        s2 = replace(s, tail=tn) if ok else s
        return (StepOutcome(f"cas(Tail,t,tn)={str(ok).lower()}", ("read_tail", n), s2),)
    _, n, t = local  # swing_tail
    ok = s.tail == t
    s2 = replace(s, tail=n) if ok else s
    return (StepOutcome(f"cas(Tail,t,n{n})={str(ok).lower()}", Done(UNIT), s2),)


def _opt_node(i: Optional[int]) -> str:
    return "null" if i is None else f"n{i}"


def _ms_deq_step(local: Any, s: MSQueueState) -> tuple[StepOutcome, ...]:
    tag = local[0]
    if tag == "read_head":
        return (StepOutcome(f"h:=Head=n{s.head}", ("read_tail", s.head), s),)
    if tag == "read_tail":
        _, h = local
        return (StepOutcome(f"t:=Tail=n{s.tail}", ("read_next", h, s.tail), s),)
    if tag == "read_next":
        _, h, t = local
        hn = s.nodes[h].next
        return (StepOutcome(f"hn:=h.next={_opt_node(hn)}", ("check_head", h, t, hn), s),)
    if tag == "check_head":
        _, h, t, hn = local
        if h != s.head:
            return (StepOutcome("h=Head? no", ("read_head",), s),)
        if h == t:
            if hn is None:
                return (StepOutcome("h=Head? yes; h=t; hn=null", Done(EMPTY), s),)
            return (StepOutcome("h=Head? yes; h=t; hn!=null", ("help_tail", h, t, hn), s),)
        return (StepOutcome("h=Head? yes; h!=t", ("read_value", h, hn), s),)
    if tag == "help_tail":
        _, h, t, hn = local
        ok = s.tail == t
        s2 = replace(s, tail=hn) if ok else s
        return (StepOutcome(f"cas(Tail,t,hn)={str(ok).lower()}", ("read_head",), s2),)
    if tag == "read_value":
        _, h, hn = local
        if hn is None:  # h!=t but h is last, so Tail is off the list: no shipped step gets here
            return (StepOutcome("ret:=hn.value: hn=null", local, s, abort=True),)
        v = s.nodes[hn].value
        return (StepOutcome(f"ret:=hn.value={render_value(v)}", ("cas_head", h, hn, v), s),)
    _, h, hn, v = local  # cas_head
    ok = s.head == h
    s2 = replace(s, head=hn) if ok else s
    if ok:
        return (StepOutcome("cas(Head,h,hn)=true", Done(v), s2),)
    return (StepOutcome("cas(Head,h,hn)=false", ("read_head",), s),)


MS_MACHINES = {
    "Enqueue": _body("alloc", _ms_enq_step, takes_arg=True),
    "Dequeue": _body("read_head", _ms_deq_step),
}


def _ms_list(values: tuple[Value, ...], p: int) -> MSQueueState:
    """The canonical well-formed state of a pool of ``p`` nodes whose list
    holds ``values``, dummy first: node ``i`` holds ``values[i]``, the tail
    is the last of them and the rest of the pool is free."""
    nodes = [
        Node(v, i + 1 if i + 1 < len(values) else None, True)
        for i, v in enumerate(values)
    ]
    nodes += [FREE_NODE] * (p - len(values))
    return MSQueueState(tuple(nodes), 0, len(values) - 1)


def enumerate_ms_states(
    p: int, alphabet: Sequence[Value]
) -> Iterable[MSQueueState]:
    """Canonical well-formed states: every allocated node on the list.

    The head (dummy) value is null or any symbol seen so far; later values
    range over the alphabet.  Node identity carries no information, so one
    representative per value sequence suffices.
    """
    dummy_pool: tuple[Value, ...] = (NULL,) + tuple(alphabet)
    for length in range(1, p + 1):
        for values in itertools.product(dummy_pool, *[tuple(alphabet)] * (length - 1)):
            yield _ms_list(values, p)


def ms_model(p: int = 4) -> ObjectModel:
    if p < 2:
        raise ValueError("node pool must hold the dummy plus one node")

    def from_contents(vs: tuple[Value, ...]) -> MSQueueState:
        if len(vs) + 1 > p:
            raise ValueError(f"pool of {p} nodes cannot hold {len(vs)} values")
        return _ms_list((NULL,) + vs, p)

    return ObjectModel(
        name="ms-queue",
        methods=dict(MS_MACHINES),
        seq_spec=SeqSpec(
            name="ms-queue-seq",
            methods={m: sequential_relation(mm) for m, mm in MS_MACHINES.items()},
            initial_states=(from_contents(()),),
            is_state=lambda s: ms_well_formed(s) and len(s.nodes) == p,
            state_key=ms_state_key,
            render_state=ms_render,
            from_contents=from_contents,
        ),
        invariant_ok=ms_invariant_ok,
        enumerate_states=lambda alpha: enumerate_ms_states(p, alpha),
    )


# ---------------------------------------------------------------------------
# Coarse-grained control queue
# ---------------------------------------------------------------------------


# coarse state: (capacity, contents-tuple); capacity rides along because the
# machines are shared by every capacity
def _coarse_enq_step(local: Any, s: tuple) -> tuple[StepOutcome, ...]:
    _, v = local
    if len(s[-1]) >= s[0]:
        return (StepOutcome("enqueue: full", local, s, abort=True),)
    return (StepOutcome(f"enqueue({render_value(v)})", Done(UNIT), s[:-1] + (s[-1] + (v,),)),)


def _coarse_deq_step(local: Any, s: tuple) -> tuple[StepOutcome, ...]:
    q = s[-1]
    if not q:
        return (StepOutcome("dequeue: empty", Done(EMPTY), s),)
    return (StepOutcome(f"dequeue={render_value(q[0])}", Done(q[0]), s[:-1] + (q[1:],)),)


COARSE_MACHINES = {
    "Enqueue": _body("do", _coarse_enq_step, takes_arg=True),
    "Dequeue": _body("do", _coarse_deq_step),
}


def _coarse_render(s: tuple) -> str:
    return "queue=<" + ",".join(render_value(v) for v in s[-1]) + ">"


def coarse_queue_model(cap: int = 4) -> ObjectModel:
    if cap < 0:
        raise ValueError("queue capacity C must be >= 0")

    def from_contents(vs: tuple[Value, ...]) -> tuple:
        if len(vs) > cap:
            raise ValueError(f"queue capacity {cap} cannot hold {len(vs)} values")
        return (cap, vs)

    return ObjectModel(
        name="coarse-queue",
        methods=dict(COARSE_MACHINES),
        seq_spec=SeqSpec(
            name="coarse-queue-seq",
            methods={m: sequential_relation(mm) for m, mm in COARSE_MACHINES.items()},
            initial_states=((cap, ()),),
            is_state=lambda s: (isinstance(s, tuple) and len(s) == 2 and isinstance(s[0], int)
                                and s[0] == cap and isinstance(s[1], tuple) and len(s[1]) <= cap),
            render_state=_coarse_render,
            from_contents=from_contents,
        ),
        invariant_ok=lambda s: len(s[-1]) <= cap,
        enumerate_states=lambda alpha: map(
            from_contents, specs.enumerate_sequences(tuple(alpha), cap)),
    )


# ---------------------------------------------------------------------------
# Abstraction functions
# ---------------------------------------------------------------------------


def _ms_values(s: MSQueueState) -> tuple[Value, ...]:
    idx = ms_list_indices(s)
    assert idx is not None
    return tuple(s.nodes[i].value for i in idx)


def af_queue() -> AbstractionFunction:
    """List values after the dummy, as a sequence; the dummy value is hidden."""
    return AbstractionFunction("af-queue", lambda s: _ms_values(s)[1:], ms_well_formed)


def af_multiset() -> AbstractionFunction:
    """List values after the dummy, as a multiset."""
    return AbstractionFunction(
        "af-multiset",
        lambda s: tuple(sorted(_ms_values(s)[1:], key=value_key)),
        ms_well_formed,
    )


def af_pseudo() -> AbstractionFunction:
    """The full value sequence including the dummy; injective on canonical
    well-formed states."""
    return AbstractionFunction("af-pseudo", _ms_values, ms_well_formed)


def af_hw_prefix() -> AbstractionFunction:
    """Array queue seen as the sequence of non-null cells in index order."""
    return AbstractionFunction(
        "af-hw-prefix",
        lambda s: tuple(v for v in s.items if v is not NULL),
        hw_is_state,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# model name -> (its one size parameter, factory taking that size)
_MODEL_REGISTRY: dict[str, tuple[str, Callable[[int], ObjectModel]]] = {
    "hw-queue": ("N", hw_model),
    "ms-queue": ("P", ms_model),
    "coarse-queue": ("C", coarse_queue_model),
}


def model_names() -> tuple[str, ...]:
    return tuple(sorted(_MODEL_REGISTRY))


def parse_model_ref(ref: str) -> ObjectModel:
    """Parse ``name[,param=val,...]`` into a model instance."""
    name, *parts = ref.split(",")
    name = name.strip()
    params: dict[str, str] = {}
    for p in parts:
        if "=" not in p:
            raise ValueError(f"bad model parameter {p!r}")
        k, v = (x.strip() for x in p.split("=", 1))
        if k in params:
            raise ValueError(f"{name}: parameter {k} given twice")
        params[k] = v
    try:
        param, factory = _MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None
    size = None
    for key, value in params.items():
        if key != param:
            raise ValueError(f"{name} takes parameter {param!r}, not {key!r}")
        try:
            size = parse_int(value)
        except ValueError:
            raise ValueError(
                f"{name}: parameter {key} must be an integer, not {value!r}") from None
    return factory() if size is None else factory(size)


# each model's spec, at the model's default size
specs.register_spec("hw-queue-seq", lambda: hw_model().seq_spec)
specs.register_spec("ms-queue-seq", lambda: ms_model().seq_spec)
specs.register_spec("coarse-queue-seq", lambda: coarse_queue_model().seq_spec)
specs.register_af("af-queue", af_queue)
specs.register_af("af-multiset", af_multiset)
specs.register_af("af-pseudo", af_pseudo)
specs.register_af("af-hw-prefix", af_hw_prefix)
