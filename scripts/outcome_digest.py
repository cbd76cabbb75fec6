#!/usr/bin/env python3
"""Print a digest of what the explorer observes on a fixed program corpus.

Run from the repository root:

    PYTHONPATH=src python scripts/outcome_digest.py > digest.txt

For each program it prints a sha256 of the syntax tree the parser builds
(``repr(parse_program(text))``).  For each (program, model, fine-grained
or atomic) exploration it prints the configuration, transition and
truncation counts, a sha256 of the graph (every configuration in id order
with its edges and rendered events, and the object-state table), the SCC
classification (size and divergence kinds of each cyclic component), the
final-state renderings and divergence kinds, and for each projection the
outcome count, an order-free sha256 of the outcomes and whether the sets
are approximate.
Then, for each rung of the benchmark's ``STRICT_QUERIES`` and each row
that ``check_rows`` adds, it runs the check on the recorded executions and
prints the verdict, the execution count, a sha256 of the report's lines and
a sha256 of every entry's verdict, witness, completion and detail.
Last, for each of the benchmark's ``COMPARE_QUERIES``, for two programs
compared against a spec other than the model's own (``FOREIGN_COMPARES``)
and for each mutant's program, it prints every field of the
``observables_report`` and ``divergence_report`` that ``compare`` prints,
with the trace differences as counts and sha256s.
Then the ``history`` section: for ``HISTORIES`` queue histories from
``bench.workloads.generate_history`` (some pending, some mutated so that
they do not linearize) and ill-formed variants of a few of them, and for the
triples of the ``prop2-fuzz`` reproduction, it prints whether each history
is well-formed and complete and sha256s of ``linearizes``, of every witness,
completion and strict witness ``find_linearization`` returns, and of the
error text an ill-formed history raises.
Last, the ``cli`` section runs ``cli.main`` itself: ``explore --mode`` on
each ``STRICT_QUERIES`` row, ``compare`` on each ``COMPARE_QUERIES`` row,
and both on hw 2+2 cut at ``--bound 500``, printing each run's exit status
and sha256s of its standard output and of its ``--json`` report.
Diff the output of two commits to see which observables a change moved.

The corpus: the benchmark's ladder programs on their models, the spin-loop
and fall-through programs of ``tests/test_explorer.py``, 40 seeded
two-thread programs with loops, ``if``s and calls inside branches, each on
``coarse-queue`` and ``hw-queue,N=2``, and a dequeue racing an enqueue on
each model from start states that already hold values (built by the spec's
``seed_state``), the mutant models of ``tests/mutants.py`` on their pinned
programs, and the two largest rungs of the ladder in ``ROADMAP.md``,
digested without their outcome sets.  An exploration that runs past
``CAP_S`` seconds prints ``timeout`` in place of the rest of its digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import sys
import tempfile
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from bench.workloads import COMPARE_QUERIES, PROGRAMS, STRICT_QUERIES  # noqa: E402
from bench.workloads import generate_history  # noqa: E402
from strictlin import checker, cli, explorer, models, reproductions, specs  # noqa: E402
from strictlin.history import (  # noqa: E402
    Event,
    History,
    Inv,
    is_complete,
    is_well_formed,
    linearizes,
    parse_history,
    serialize_history,
)
from strictlin.models import ObjectModel  # noqa: E402
from strictlin.programs import parse_program  # noqa: E402
from mutants import mutants  # noqa: E402
from test_explorer import FALL_THROUGH, SPIN_PROGRAMS  # noqa: E402

PROJECTIONS = ("interface", "history", "client")
RANDOM_PROGRAMS = 40
RANDOM_BOUND = 20_000  # random programs are cut here, the same on every commit
CAP_S = 30.0  # per exploration; the whole corpus takes about 20 s on 2 vCPUs
SEEDED_PROGRAM = "thread { call y = Q.Dequeue() }\nthread { call Q.Enqueue('b') }"
SEEDED_CONTENTS = (("a",), ("a", "b"))
# (label, program, model, foreign spec, contents each side starts from)
FOREIGN_COMPARES = (
    ("foreign/deq-enq hw-queue adt-queue", SEEDED_PROGRAM, "hw-queue", "adt-queue", ("a",)),
    ("foreign/enq-deq coarse-queue adt-queue",
     "thread { call Q.Enqueue('c') ; call y = Q.Dequeue() }", "coarse-queue", "adt-queue", ()),
)
HISTORIES = 200
HISTORY_SEED = 44
ILL_FORMED_EVERY = 20  # every 20th generated history also gets ill-formed variants
# (label, program, model) of the ladder's big rungs: their graphs are built
# and classified, but enumerating their outcomes takes minutes
BIG_RUNGS = (
    ("big/hw-3+2 hw-queue,N=5", "thread { call Q.Enqueue('c') }\nthread { call Q.Enqueue('d') }\n"
     "thread { call Q.Enqueue('e') }\nthread { call y1 = Q.Dequeue() }\n"
     "thread { call y2 = Q.Dequeue() }", "hw-queue,N=5"),
    ("big/ms-3+1 ms-queue,P=5", "thread { call Q.Enqueue('a') }\nthread { call Q.Enqueue('b') }\n"
     "thread { call Q.Enqueue('c') }\nthread { call y = Q.Dequeue() }", "ms-queue,P=5"),
)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _random_block(rng: random.Random, counter: str, depth: int = 0) -> tuple[str, int]:
    """One or two statements at the top, one inside a loop or branch, and
    the most calls one run of them makes."""
    out, calls = [], 0
    for _ in range(rng.randint(1, 2) if depth == 0 else 1):
        kind = rng.choice(["set", "enq", "deq"] + (["if", "loop", "spin"] if depth == 0 else []))
        v, k = rng.choice("xy"), rng.randint(0, 2)
        if kind == "set":
            out.append(f"set {v} = {k}")
        elif kind == "enq":
            out.append(f"call Q.Enqueue({rng.choice([str(k), 'x'])})")
            calls += 1
        elif kind == "deq":
            out.append(f"call {v} = Q.Dequeue()")
            calls += 1
        elif kind == "if":
            (then, a), (els, b) = _random_block(rng, counter, 1), _random_block(rng, counter, 1)
            out.append(f"if {v} == {k} {{ {then} }} else {{ {els} }}")
            calls += max(a, b)
        elif kind == "loop":
            (body, a), passes = _random_block(rng, counter, 1), k % 2 + 1
            out.append(f"set {counter} = 0 ; while {counter} != {passes} "
                       f"{{ {body} ; set {counter} = {counter} + 1 }}")
            calls += a * passes
        else:  # a client spin loop, left once the other thread moves the variable
            out.append(f"while {v} == {k} {{ set z = {rng.randint(0, 1)} }}")
    return " ; ".join(out), calls


def _random_program(rng: random.Random) -> str:
    """Two threads making at most three calls in all, so that every
    outcome set fits in memory."""
    while True:
        (a, m), (b, n) = _random_block(rng, "c"), _random_block(rng, "d")
        if m + n <= 3:
            return f"thread {{ set x = 0 ; {a} }}\nthread {{ {b} }}"


def corpus() -> list[tuple[str, str, ObjectModel, int, tuple[str, ...], Any]]:
    """(label, program text, model, bound, projections, start state or None
    for the model's own) of every program.  A ladder program is digested in
    the projections its benchmark queries ask for; its interface outcome
    sets run into gigabytes."""
    ladder: dict[tuple[str, str], tuple[str, ...]] = {}
    for queries, projection in ((STRICT_QUERIES, "history"), (COMPARE_QUERIES, "client")):
        for _, name, ref, *_ in queries:
            ladder[name, ref] = tuple(dict.fromkeys(ladder.get((name, ref), ()) + (projection,)))
    out = [(f"ladder/{name} {ref}", PROGRAMS[name], models.parse_model_ref(ref),
            explorer.DEFAULT_BOUND, projections, None)
           for (name, ref), projections in ladder.items()]
    for k, (text, model) in enumerate(SPIN_PROGRAMS):
        # the outcome sets of the ms-queue spin program exhaust memory
        projections = () if model.name == "ms-queue" else PROJECTIONS
        out.append((f"spin/{k} {model.name}", text, model, explorer.DEFAULT_BOUND, projections,
                    None))
    coarse = models.coarse_queue_model()
    for k, (text, _) in enumerate(FALL_THROUGH):
        out.append((f"fall-through/{k} coarse-queue", text, coarse, explorer.DEFAULT_BOUND,
                    PROJECTIONS, None))
    rng = random.Random(8)
    for k in range(RANDOM_PROGRAMS):
        text = _random_program(rng)
        for ref in ("coarse-queue", "hw-queue,N=2"):
            out.append((f"random/{k} {ref}", text, models.parse_model_ref(ref), RANDOM_BOUND,
                        PROJECTIONS, None))
    for ref in ("hw-queue,N=2", "ms-queue,P=3", "coarse-queue"):
        model = models.parse_model_ref(ref)
        for contents in SEEDED_CONTENTS:
            start = model.seq_spec.seed_state(contents)
            out.append((f"seeded/{','.join(contents)} {ref}", SEEDED_PROGRAM, model,
                        explorer.DEFAULT_BOUND, PROJECTIONS, start))
    out += [(f"mutant/{m.name}", m.program, m.model, explorer.DEFAULT_BOUND, PROJECTIONS, None)
            for m in mutants()]
    out += [(label, text, models.parse_model_ref(ref), explorer.DEFAULT_BOUND, (), None)
            for label, text, ref in BIG_RUNGS]
    return out


def _text_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sha(results) -> str:
    return _text_sha("\n".join(sorted(map(repr, results))))


def _graph_sha(ex: explorer.Exploration) -> str:
    """A sha256 of the graph itself: every configuration in id order with
    its edges, each event rendered, then the object-state table by id."""
    h = hashlib.sha256()
    for i, trs in enumerate(ex.edges):
        h.update(f"{ex.config(i)!r}\n".encode())
        for events, target in trs:
            h.update(f"  {' ; '.join(e.render() for e in events)} -> {target}\n".encode())
    for s in ex.states:
        h.update(f"{s!r}\n".encode())
    return h.hexdigest()[:16]


def digest(ex: explorer.Exploration, projections: tuple[str, ...]) -> list[str]:
    lines = [f"configs={len(ex.order)} transitions={ex.transitions_explored} "
             f"truncated={len(ex.truncated)}", f"graph_sha256={_graph_sha(ex)}"]
    info = ex.scc_info()
    cyclic = sorted(
        (len(info["comps"][k]),
         "+".join(name for name, key in (("object", "object_cyclic"), ("client", "client_cyclic"))
                  if k in info[key]))
        for k in info["cyclic"]
    )
    lines.append(f"sccs={len(info['comps'])} cyclic=" +
                 (" ".join(f"{size}:{kinds}" for size, kinds in cyclic) or "none"))
    fs = explorer.final_states(ex)
    lines += [f"final: {line}" for line in fs.renderings]
    kinds = sorted(k.value for k in ex.divergence_kinds())
    lines.append("divergence: " + (", ".join(kinds) or "none"))
    for projection in projections:
        res = ex.results(projection)
        lines.append(f"{projection}: outcomes={len(res)} sha256={_sha(res)} "
                     f"approximate={ex.approximate}")
    return lines


def check_digest(text: str, model: ObjectModel, mode: str, adt_name, af, rename,
                 states=None) -> str:
    """One check on a program's recorded executions, as ``explore --mode``
    runs it (``checker.check_exploration``): the verdict, the execution
    count, a sha256 of the report's lines and one of every entry's verdict,
    witness, completion and detail as ``--json`` carries them.  Given
    ``states``, an implementation check samples those states instead."""
    ex = explorer.explore(parse_program(text), model)
    adt = adt_name and specs.get_spec(adt_name)
    rf = rename and specs.RenamingFunction.of(rename)
    if states is None:
        report = checker.check_exploration(ex, mode, adt, af, rf)
    else:
        report = checker.check_concurrent_implementation(
            checker.recorded_executions(ex), model.seq_spec, adt, af,
            specs.RenamingFunction.identity(model.method_names()), states)
    lines = "\n".join(report.lines())
    entries = [[e.ok, serialize_history(e.witness) if e.witness else None,
                serialize_history(e.completion) if e.completion else None, e.detail]
               for e in report.entries]
    return (f"verdict={report.verdict} "
            f"executions={len(report.entries)} lines_sha256={_text_sha(lines)} "
            f"entries_sha256={_text_sha(json.dumps(entries))}")


def check_rows() -> list[tuple]:
    """``check_digest`` arguments, labelled: the benchmark's
    ``STRICT_QUERIES``, the general checks of fig2 and of the three-phase
    program, whose cell write leaves histories that no completion
    linearizes, its strict check, and an implementation check whose
    abstraction reverses coarse-queue contents, so that every two enqueues
    end in a state no abstract execution reaches (checked on no sampled
    state, as ``tests/test_checker.py`` checks it), and each mode on each
    mutant's program.  Between them the rows meet every detail the checks
    write."""
    rows = [(qid, PROGRAMS[prog], models.parse_model_ref(ref), mode, adt,
             af and specs.get_af(af), rename)
            for qid, prog, ref, mode, adt, af, rename in STRICT_QUERIES]
    hw = models.hw_model(4)
    for prog in ("fig2", "three-phase"):
        rows.append((f"general/{prog}", PROGRAMS[prog], hw, "general", "adt-queue",
                     specs.get_af("af-hw-prefix"), None))
    rows.append(("strict/three-phase", PROGRAMS["three-phase"], hw, "strict", None, None, None))
    rows.append(("impl-reversed/coarse", "thread { call Q.Enqueue('a') ; call Q.Enqueue('b') }",
                 models.coarse_queue_model(4), "impl", "adt-queue",
                 specs.AbstractionFunction("reversed", lambda s: s[-1][::-1]), None, []))
    for m in mutants():
        rows.append((f"strict/mutant/{m.name}", m.program, m.model, "strict", None, None, None))
        rows += [(f"{mode}/mutant/{m.name}", m.program, m.model, mode, "adt-queue", m.af, None)
                 for mode in ("general", "impl")]
    return rows


def compare_digest(text: str, model: ObjectModel, spec_name=None, contents=()) -> list[str]:
    """The observables and divergence reports of ``compare`` on one program,
    each side started from ``contents`` in its own spec's domain."""
    spec = specs.get_spec(spec_name) if spec_name else model.seq_spec
    ex_m, ex_a = explorer.explore_both(
        parse_program(text), model, spec, init_obj=model.seq_spec.seed_state(contents),
        init_obj_atomic=spec.seed_state(contents))
    obs, div, _, _ = explorer.compare(ex_m, ex_a)
    lines = [f"traces_equal={obs.traces_equal} states_equal={obs.states_equal} "
             f"divergence={','.join(div.model_kinds) or 'none'}/"
             f"{','.join(div.atomic_kinds) or 'none'}"]
    for side, diff in (("fine-grained", obs.trace_diff_model), ("atomic", obs.trace_diff_atomic)):
        lines.append(f"only {side}: traces={len(diff)} sha256={_text_sha(chr(10).join(diff))}")
    lines += [f"final fine-grained: {line}" for line in obs.state_lines_model]
    lines += [f"final atomic: {line}" for line in obs.state_lines_atomic]
    return lines


def _ill_formed(h: History) -> list[tuple[str, History]]:
    """Variants of ``h`` that break well-formedness: its first response
    moved to the front, answering an operation before its invocation; that
    response given to a thread with no operation open; every event on one
    thread, which opens a second invocation on it when operations overlap."""
    events = list(h.events)
    first = next((k for k, e in enumerate(events) if not isinstance(e.label, Inv)), None)
    out = [("all-on-one-thread", [Event(1, e.label, e.op) for e in events])]
    if first is not None:
        e = events[first]
        out.append(("response-first", [e] + events[:first] + events[first + 1:]))
        out.append(("response-on-idle-thread", events[:first]
                    + [Event(e.thread + 100, e.label, e.op)] + events[first + 1:]))
    return [(label, History(tuple(evs))) for label, evs in out]


def history_rows() -> list[tuple[str, History, object]]:
    """(label, history, final queue contents or None) of the section."""
    rng = random.Random(HISTORY_SEED)
    rows = []
    for k in range(HISTORIES):
        threads, ops = rng.randint(3, 6), rng.randint(2, 5)
        pending = k % 4 == 1
        mutation = ("none", "none", "never", "twice")[k % 8 // 2]
        text, final, _ = generate_history(rng, threads, ops, pending, mutation)
        label = f"gen/{k} threads={threads} ops={ops} pending={pending} mutation={mutation}"
        h = parse_history(text)
        rows.append((label, h, final))
        if k % ILL_FORMED_EVERY == 0:
            rows += [(f"{label} {kind}", bad, final) for kind, bad in _ill_formed(h)]
    return rows


def history_digest(h: History, final) -> str:
    """Well-formedness and completeness of ``h``, and a sha256 of what
    ``find_linearization`` returns against the queue ADT (its witness,
    completion, strict witness, and whether the completion linearizes to
    the witness) or of the error it raises."""
    rec = checker.RecordedExecution((), h, final is not None, final)
    try:
        lin = checker.find_linearization(rec, specs.queue_adt())
    except ValueError as exc:
        got = ["error", str(exc)]
    else:
        got = None if lin is None else [
            serialize_history(lin.witness), serialize_history(lin.completion),
            lin.strict and serialize_history(lin.strict), linearizes(lin.completion, lin.witness)]
    return (f"well_formed={is_well_formed(h)} complete={is_complete(h)} "
            f"sha256={_text_sha(json.dumps(got))}")


def fuzz_digest() -> str:
    """The ``prop2-fuzz`` triples regenerated as the reproduction draws them
    (``transitivity_fuzz``'s default count and seed), with ``linearizes``
    between every two of each triple."""
    rng = random.Random(20260810)
    got = []
    for _ in range(1000):
        h2 = reproductions._random_history(rng, ("a", "b"))
        h1 = reproductions._perturb(rng, h2, weaken=True, swaps=rng.randint(0, 4))
        h3 = reproductions._perturb(rng, h2, weaken=False, swaps=rng.randint(0, 4))
        triple = (h1, h2, h3)
        got.append([[is_well_formed(h), is_complete(h)] for h in triple]
                   + [linearizes(a, b) for a in triple for b in triple])
    return f"triples={len(got)} sha256={_text_sha(json.dumps(got))}"


def cli_rows() -> list[tuple[str, str, list[str]]]:
    """(label, program name, ``cli.main`` arguments after ``--program``) of
    the ``cli`` section: ``explore --mode`` on every ``STRICT_QUERIES`` row,
    ``compare`` on every ``COMPARE_QUERIES`` row, and both on hw 2+2 cut at
    ``--bound 500``, where the check and the comparison are inconclusive."""
    rows = []
    for qid, prog, ref, mode, adt, af, rename in STRICT_QUERIES:
        argv = ["--model", ref, "--mode", mode] + (["--adt", adt, "--af", af] if adt else [])
        if rename:
            argv += ["--rename", ",".join(f"{a}={b}" for a, b in rename.items())]
        rows.append((qid, prog, ["explore"] + argv))
    rows += [(qid, prog, ["compare", "--model", ref]) for qid, prog, ref in COMPARE_QUERIES]
    hw = ["--model", "hw-queue,N=4", "--bound", "500"]
    rows.append(("strict/hw-2+2 --bound 500", "hw-2+2", ["explore", *hw, "--mode", "strict"]))
    rows.append(("compare/hw-2+2 --bound 500", "hw-2+2", ["compare", *hw]))
    return rows


def cli_digest(argv: list[str], report: Path) -> str:
    """``cli.main``'s exit status on ``argv`` and sha256s of what it prints
    on standard output and of the ``--json`` report it writes to ``report``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv + ["--json", str(report)])
    return (f"exit={status} stdout_sha256={_text_sha(out.getvalue())} "
            f"json_sha256={_text_sha(report.read_text())}")


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    for label, text, model, bound, projections, start in corpus():
        prog = parse_program(text)
        print(f"== {label} ast_sha256={_text_sha(repr(prog))}")
        for side in ("fine-grained", "atomic"):
            print(f"== {label} {side}: " + " | ".join(map(str.strip, text.strip().splitlines())))
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                ex = (explorer.explore(prog, model, init_obj=start, bound=bound)
                      if side == "fine-grained"
                      else explorer.run_atomic(prog, model.seq_spec, init_obj=start, bound=bound))
                lines = digest(ex, projections)
            except _Timeout:
                lines = ["timeout"]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            for line in lines:
                print(f"  {line}")
            sys.stdout.flush()
    for label, *query in check_rows():
        print(f"== check {label}: {check_digest(*query)}")
        sys.stdout.flush()
    rows = [(qid, PROGRAMS[prog], models.parse_model_ref(ref))
            for qid, prog, ref in COMPARE_QUERIES]
    rows += [(label, text, models.parse_model_ref(ref), *rest)
             for label, text, ref, *rest in FOREIGN_COMPARES]
    rows += [(f"mutant/{m.name}", m.program, m.model) for m in mutants()]
    for label, *query in rows:
        print(f"== compare {label}")
        for line in compare_digest(*query):
            print(f"  {line}")
        sys.stdout.flush()
    for label, h, final in history_rows():
        print(f"== history {label}: {history_digest(h, final)}")
    print(f"== history prop2-fuzz: {fuzz_digest()}")
    with tempfile.TemporaryDirectory() as tmp:
        for label, prog, argv in cli_rows():
            program = Path(tmp, f"{prog}.txt")
            program.write_text(PROGRAMS[prog])
            argv = [argv[0], "--program", str(program), *argv[1:]]
            print(f"== cli {label}: {cli_digest(argv, Path(tmp, 'report.json'))}")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
