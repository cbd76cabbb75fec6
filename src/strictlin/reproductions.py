"""Named end-to-end reproductions, shared by the CLI and the test suite.

Each reproduction builds its own inputs, runs the toolkit, and returns a
deterministic report.  The catalog names are the stable external interface:

* ``fig2``                 -- final-state gap: the fine-grained array queue
  reaches four final states where its atomic version reaches two.
* ``fig3``                 -- one recorded execution that linearizes against
  the queue ADT but admits no linearization onto its recorded final state.
* ``sec52-divergence``     -- a three-phase program with a direct cell write
  that can diverge on the array queue but always terminates atomically.
* ``sec62-observation``    -- client-observable trace gap between the array
  queue and the queue ADT.
* ``propH-msqueue-strict`` -- lock-free queue instance checks: strict
  linearizability, the pseudo-queue implementation route with an injective
  abstraction, and the multiset implementation route.
* ``prop2-fuzz``           -- randomized transitivity check of the
  linearization relation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import checker, explorer, models, specs
from .history import (
    Event,
    History,
    Inv,
    Ret,
    RetAbort,
    history,
    inv,
    is_well_formed,
    linearizes,
    ret,
    serialize_history,
)
from .programs import parse_program
from .values import EMPTY, NULL, UNIT, Value, render_value


@dataclass(frozen=True)
class Report:
    name: str
    ok: bool
    lines: tuple[str, ...]

    def text(self) -> str:
        head = f"[{'ok' if self.ok else 'FAIL'}] {self.name}"
        return "\n".join([head, *("  " + l for l in self.lines)])


# ---------------------------------------------------------------------------
# Shared inputs
# ---------------------------------------------------------------------------

TWO_ENQUEUES_ONE_DEQUEUE = parse_program(
    """
    thread { call Q.Enqueue('c') }
    thread { call Q.Enqueue('d') }
    thread { call y = Q.Dequeue() }
    """
)

ENQUEUE_VS_DEQUEUE = parse_program(
    """
    thread { call Q.Enqueue('c') }
    thread { call y = Q.Dequeue() }
    """
)

THREE_PHASE_DIVERGENCE = parse_program(
    """
    phase {
      thread { call Q.Enqueue('c') }
      thread { call Q.Enqueue('d') }
      thread { call y0 = Q.Dequeue() }
    }
    phase {
      thread { write Q.items[1] <- 'x' }
    }
    phase {
      thread { call y1 = Q.Dequeue() }
      thread { call y2 = Q.Dequeue() }
    }
    """
)

MS_TWO_BY_TWO = parse_program(
    """
    thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }
    thread { call Q.Enqueue('b') ; call y2 = Q.Dequeue() }
    """
)


def fig3_history() -> History:
    """The recorded interleaving: the second enqueue completes, the dequeue
    then runs to completion returning its value, and the first enqueue's
    store lands last."""
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


FIG3_FINAL = models.HWQueueState(3, ("c", NULL, NULL, NULL))
FIG3_LEGAL_FINAL = models.HWQueueState(3, (NULL, "c", NULL, NULL))


# ---------------------------------------------------------------------------
# Reproductions
# ---------------------------------------------------------------------------


def fig2() -> Report:
    sides = explorer.explore_both(TWO_ENQUEUES_ONE_DEQUEUE, models.hw_model(4))
    fs, fs_a = map(explorer.final_states, sides)
    keys, keys_a = ({k for _, k in f.states} for f in (fs, fs_a))
    n, n_a = len(keys), len(keys_a)
    subset = keys_a <= keys
    ok = n == 4 and n_a == 2 and subset
    lines = [
        f"fine-grained final object states: {n}",
        *("  " + l for l in fs.renderings),
        f"atomic final object states: {n_a}",
        *("  " + l for l in fs_a.renderings),
        f"atomic states among fine-grained states: {'yes' if subset else 'NO'}",
    ]
    return Report("fig2", ok, tuple(lines))


def _find_fig3_execution() -> Optional[checker.RecordedExecution]:
    m = models.hw_model(4)
    ex = explorer.explore(TWO_ENQUEUES_ONE_DEQUEUE, m)
    want = fig3_history()
    for rec in checker.recorded_executions(ex):
        if rec.terminated and rec.history == want and rec.final_state == FIG3_FINAL:
            return rec
    return None


def fig3() -> Report:
    m = models.hw_model(4)
    rec = _find_fig3_execution()
    lines = []
    if rec is None:
        return Report("fig3", False, ("recorded execution not reachable",))
    lines.append("recorded execution (found by exhaustive exploration):")
    lines.extend("  " + l for l in serialize_history(rec.history).splitlines())
    lines.append(f"recorded final state: {m.seq_spec.render_state(rec.final_state)}")

    adt = specs.queue_adt()
    rf = specs.RenamingFunction.identity(("Enqueue", "Dequeue"))
    general = checker.check_general([rec], adt, models.af_hw_prefix(), rf)
    lines.append(f"general linearizability vs queue ADT: "
                 f"{'pass' if general.passed else 'fail'}")

    lin = checker.find_linearization(rec, m.seq_spec)
    finals = (specs.legal_seq_outcomes(m.seq_spec, rec.initial_state, lin.witness)
              if lin else frozenset())
    lines.append(
        "strict linearization vs own sequential spec: "
        + ("none (as expected)" if lin is None or lin.strict is None else "FOUND (unexpected)")
    )
    lines.append(f"legal sequential final states: "
                 f"{sorted({m.seq_spec.render_state(s) for s in finals})}")
    ok = (
        general.passed
        and lin is not None
        and lin.strict is None
        and finals == frozenset({FIG3_LEGAL_FINAL})
    )
    return Report("fig3", ok, tuple(lines))


def sec52_divergence() -> Report:
    rep = explorer.divergence_report(
        *explorer.explore_both(THREE_PHASE_DIVERGENCE, models.hw_model(4))
    )
    ok = rep.model_diverges and not rep.atomic_diverges
    lines = [
        "P(fine-grained): "
        + ("divergent schedule found" if rep.model_diverges else "no divergence"),
        "P(atomic): "
        + ("all schedules terminate" if not rep.atomic_diverges else "DIVERGES"),
    ]
    return Report("sec52-divergence", ok, tuple(lines))


def sec62_observation() -> Report:
    sides = explorer.explore_both(ENQUEUE_VS_DEQUEUE, models.hw_model(4), specs.queue_adt())
    ys, ys_a = ({dict(cl).get("y") for cl, _ in explorer.final_states(ex).states}
                for ex in sides)
    ok = ys == {"c"} and ys_a == {"c", EMPTY} and ys != ys_a
    fmt = lambda s: "{" + ",".join(sorted(render_value(v) for v in s)) + "}"
    lines = [
        f"final y over fine-grained queue: {fmt(ys)}",
        f"final y over queue ADT: {fmt(ys_a)}",
        f"observably different: {'yes' if ys != ys_a else 'no'}",
    ]
    return Report("sec62-observation", ok, tuple(lines))


def proph_msqueue_strict() -> Report:
    m = models.ms_model(4)
    ex = explorer.explore(MS_TWO_BY_TWO, m)
    strict = checker.check_exploration(ex, "strict")
    lines = [f"bounded executions: {len(strict.entries)} distinct (history, final) records",
             f"strict linearizability: {strict.verdict}"]
    pseudo = checker.check_exploration(ex, "impl", specs.pseudo_queue_adt(), models.af_pseudo())
    lines.append(f"concurrent implementation of pseudo-queue: {pseudo.verdict}")
    states = list(m.enumerate_states(specs.DEFAULT_ALPHABET))
    collisions = specs.injectivity_scan(models.af_pseudo(), states, models.ms_state_key)
    lines.append(
        f"pseudo abstraction injectivity over {len(states)} states: "
        f"{len(collisions)} collisions"
    )
    rf_ms = specs.RenamingFunction.of({"Enqueue": "Add", "Dequeue": "Remove"})
    mset = checker.check_exploration(ex, "impl", specs.multiset_adt(), models.af_multiset(), rf_ms)
    lines.append(f"concurrent implementation of multiset: {mset.verdict}")
    ok = not collisions and all(r.verdict == "pass" for r in (strict, pseudo, mset))
    return Report("propH-msqueue-strict", ok, tuple(lines))


# ---------------------------------------------------------------------------
# Transitivity fuzz
# ---------------------------------------------------------------------------


def _random_history(rng: random.Random, alphabet: Sequence[Value]) -> History:
    threads = rng.randint(2, 3)
    streams = []
    opid = 0
    for t in range(1, threads + 1):
        ops = []
        for _ in range(rng.randint(1, 3)):
            opid += 1
            if rng.random() < 0.5:
                v = rng.choice(list(alphabet))
                ops.append((inv(t, opid, "Enqueue", v), ret(t, opid, UNIT)))
            else:
                rv = rng.choice(list(alphabet) + [EMPTY])
                ops.append((inv(t, opid, "Dequeue", UNIT), ret(t, opid, rv)))
        flat = [e for pair in ops for e in pair]
        if rng.random() < 0.3:
            flat = flat[: -rng.randint(1, 2)]  # leave a pending suffix
        streams.append(flat)
    merged: list[Event] = []
    while any(streams):
        pick = rng.choice([s for s in streams if s])
        merged.append(pick.pop(0))
    h = history(merged)
    assert is_well_formed(h)
    return h


def _is_response(e: Event) -> bool:
    return isinstance(e.label, (Ret, RetAbort))


def _perturb(
    rng: random.Random, h: History, weaken: bool, swaps: int
) -> History:
    """Adjacent different-thread swaps that keep the relation by construction:
    weakening swaps never create a response-before-invocation pair (the result
    linearizes to the input); strengthening swaps never destroy one (the
    input linearizes to the result)."""
    ev = list(h.events)
    for _ in range(swaps):
        cands = []
        for i in range(len(ev) - 1):
            a, b = ev[i], ev[i + 1]
            if a.thread == b.thread:
                continue
            if weaken and not (isinstance(a.label, Inv) and _is_response(b)):
                cands.append(i)
            if not weaken and not (_is_response(a) and isinstance(b.label, Inv)):
                cands.append(i)
        if not cands:
            break
        i = rng.choice(cands)
        ev[i], ev[i + 1] = ev[i + 1], ev[i]
    return history(ev)


def transitivity_fuzz(n: int = 1000, seed: int = 20260810) -> tuple[int, int]:
    """Generate ``n`` triples with h1 <= h2 and h2 <= h3 by construction and
    count failures of h1 <= h3.  Returns (failures, checked)."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(n):
        h2 = _random_history(rng, ("a", "b"))
        h1 = _perturb(rng, h2, weaken=True, swaps=rng.randint(0, 4))
        h3 = _perturb(rng, h2, weaken=False, swaps=rng.randint(0, 4))
        assert linearizes(h1, h2), "generator broke the first premise"
        assert linearizes(h2, h3), "generator broke the second premise"
        if not linearizes(h1, h3):
            failures += 1
    return failures, n


def prop2_fuzz(n: int = 1000, seed: int = 20260810) -> Report:
    failures, checked = transitivity_fuzz(n, seed)
    lines = [
        f"triples checked: {checked} (seed {seed})",
        f"transitivity failures: {failures}",
    ]
    return Report("prop2-fuzz", failures == 0, tuple(lines))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

CATALOG: dict[str, Callable[[], Report]] = {
    "fig2": fig2,
    "fig3": fig3,
    "sec52-divergence": sec52_divergence,
    "sec62-observation": sec62_observation,
    "propH-msqueue-strict": proph_msqueue_strict,
    "prop2-fuzz": prop2_fuzz,
}


def run(name: str) -> Report:
    try:
        fn = CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown reproduction {name!r}; known: {', '.join(sorted(CATALOG))}"
        ) from None
    return fn()
