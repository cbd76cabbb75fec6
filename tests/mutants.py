"""Mutant object models: shipped models with one seeded fault each.

A mutant is ``dataclasses.replace(<shipped model>, methods=...)``.  It keeps
the shipped model's ``seq_spec``: a model's spec is derived from its own
machines, so a mutant that derived its own could break its sequential
behaviour and still pass a strict check against itself.  Its strict check
and its ``compare`` therefore run against the object it should implement,
and its general and impl checks against the registry's ``adt-queue``.

Each :class:`Mutant` pins a small program that exposes its fault, the
checks that catch it there, and one failing history of at most four
operations.  ``tests/test_mutants.py`` checks the pins, and
``scripts/outcome_digest.py`` digests every mutant, so each equivalence
gate sees failing inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from strictlin import models
from strictlin.models import (
    COARSE_MACHINES,
    HW_MACHINES,
    MS_MACHINES,
    Done,
    MethodMachine,
    StepOutcome,
)
from strictlin.specs import AbstractionFunction
from strictlin.values import EMPTY, NULL, render_value

# the queue contents of a coarse-queue state, for general and impl checks
AF_COARSE = AbstractionFunction("af-coarse-contents", lambda s: s[-1])


def _read_then_remove_step(local: Any, s: tuple) -> tuple[StepOutcome, ...]:
    # reads the head in one step and removes the first element in the next,
    # so two dequeues can both read the same head
    q = s[-1]
    if local[0] == "read":
        if not q:
            return (StepOutcome("dequeue: empty", Done(EMPTY), s),)
        return (StepOutcome(f"head={render_value(q[0])}", ("remove", q[0]), s),)
    return (StepOutcome("remove head", Done(local[1]), s[:-1] + (q[1:],)),)


def _may_miss_step(local: Any, s: tuple) -> tuple[StepOutcome, ...]:
    # may report an empty queue although it holds values
    q = s[-1]
    if not q:
        return (StepOutcome("dequeue: empty", Done(EMPTY), s),)
    return (StepOutcome(f"dequeue={render_value(q[0])}", Done(q[0]), s[:-1] + (q[1:],)),
            StepOutcome("dequeue: missed", Done(EMPTY), s))


def _split_increment_step(local: Any, s: models.HWQueueState) -> tuple[StepOutcome, ...]:
    # reads back, then writes back + 1 in a second step, so two enqueues can
    # reserve the same slot; the store is the shipped machine's
    if local[0] == "read":
        if s.back > len(s.items):
            return (StepOutcome("t:=back: no free slot", local, s, abort=True),)
        return (StepOutcome(f"t:=back={s.back}", ("write", local[1], s.back), s),)
    if local[0] == "write":
        _, v, t = local
        return (StepOutcome(f"back:={t + 1}", ("store", v, t), replace(s, back=t + 1)),)
    return HW_MACHINES["Enqueue"].step(local, s)


def _plain_link_step(local: Any, s: models.MSQueueState) -> tuple[StepOutcome, ...]:
    # links the new node with a plain write where the shipped enqueue CASes
    # it, so a second enqueue that read the same tail overwrites the first
    # link and loses its node
    if local[0] == "cas_next":
        _, n, t = local
        s2 = replace(s, nodes=s.nodes[:t] + (replace(s.nodes[t], next=n),) + s.nodes[t + 1:])
        return (StepOutcome(f"t.next:=n{n}", ("swing_tail", n, t), s2),)
    return MS_MACHINES["Enqueue"].step(local, s)


@dataclass(frozen=True)
class Mutant:
    """A mutant of ``shipped``, a program that exposes its fault, and what
    is pinned there: ``caught`` names the checks among strict, general, impl
    and compare that fail; ``failing`` counts the failing records of each
    failing check against all records; ``history`` is the first history
    the strict check fails."""

    name: str
    shipped: models.ObjectModel
    model: models.ObjectModel
    program: str
    af: AbstractionFunction
    caught: frozenset[str]
    failing: tuple[int, int]
    history: str
    final: Any  # the final state recorded with ``history``


def mutants() -> tuple[Mutant, ...]:
    coarse, hw, ms = models.coarse_queue_model(), models.hw_model(4), models.ms_model(4)
    enq_deq = "thread {{ call Q.Enqueue('{0}') ; call {1} = Q.Dequeue() }}"
    return (
        Mutant(
            "coarse-read-then-remove",
            coarse,
            replace(coarse, methods=dict(COARSE_MACHINES, Dequeue=MethodMachine(
                lambda _, s: ((("read",), s),), _read_then_remove_step))),
            enq_deq.format("a", "y") + "\n" + enq_deq.format("b", "z"),
            AF_COARSE,
            frozenset({"strict", "general", "impl", "compare"}),
            (64, 190),
            "t=1 op=101 inv Enqueue 'a'\nt=1 op=101 ret unit\nt=1 op=102 inv Dequeue unit\n"
            "t=2 op=201 inv Enqueue 'b'\nt=2 op=201 ret unit\nt=2 op=202 inv Dequeue unit\n"
            "t=1 op=102 ret 'a'\nt=2 op=202 ret 'a'\n",
            (4, ()),
        ),
        Mutant(
            "hw-split-increment",
            hw,
            replace(hw, methods=dict(HW_MACHINES, Enqueue=MethodMachine(
                lambda arg, s: ((("read", arg), s),), _split_increment_step))),
            "thread { call Q.Enqueue('a') }\nthread { call Q.Enqueue('b') }",
            models.af_hw_prefix(),
            frozenset({"strict", "impl", "compare"}),
            (8, 18),
            "t=1 op=101 inv Enqueue 'a'\nt=2 op=201 inv Enqueue 'b'\nt=1 op=101 ret unit\n"
            "t=2 op=201 ret unit\n",
            hw.seq_spec.seed_state(("a",)),
        ),
        Mutant(
            "coarse-may-miss",
            coarse,
            replace(coarse, methods=dict(COARSE_MACHINES, Dequeue=MethodMachine(
                lambda _, s: ((("do",), s),), _may_miss_step))),
            enq_deq.format("a", "y"),
            AF_COARSE,
            frozenset({"strict", "general", "impl", "compare"}),
            (1, 2),
            "t=1 op=101 inv Enqueue 'a'\nt=1 op=101 ret unit\nt=1 op=102 inv Dequeue unit\n"
            "t=1 op=102 ret EMPTY\n",
            (4, ("a",)),
        ),
        Mutant(
            "ms-plain-link",
            ms,
            replace(ms, methods=dict(MS_MACHINES, Enqueue=MethodMachine(
                MS_MACHINES["Enqueue"].start, _plain_link_step))),
            "thread { call Q.Enqueue('a') }\nthread { call Q.Enqueue('b') }",
            models.af_queue(),
            frozenset({"strict", "impl", "compare"}),
            (24, 34),
            "t=1 op=101 inv Enqueue 'a'\nt=2 op=201 inv Enqueue 'b'\nt=1 op=101 ret unit\n"
            "t=2 op=201 ret unit\n",
            # 'b' was linked and Tail swung to it, then 'a' was linked over
            # it: 'b' is lost and Tail is off the list
            models.MSQueueState((models.Node(NULL, 1, True), models.Node("a", None, True),
                                 models.Node("b", None, True), models.FREE_NODE), 0, 2),
        ),
    )
