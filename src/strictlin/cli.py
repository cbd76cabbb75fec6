"""Command-line front end.

Subcommands::

    strictlin list
    strictlin reproduce NAME [--json FILE]
    strictlin explore --program FILE --model NAME[,P=4] [--bound N]
                      [--mode strict|general|impl] [--adt NAME]
                      [--af NAME] [--rename A=B,...] [--json FILE]
                      [--histories DIR]
    strictlin compare --program FILE --model NAME [--spec NAME] [--bound N]
    strictlin check-history --file FILE --mode strict|general
                      (--spec NAME | --adt NAME) [--rename A=B,...]
                      [--json FILE]

``--model`` takes a model name and at most its one size parameter (``N``
for ``hw-queue``, ``P`` for ``ms-queue``, ``C`` for ``coarse-queue``), given
once as an integer; any other parameter is an input error.  ``explore
--mode strict|impl`` checks against the model's own sequential spec.

An option the mode does not read is an input error: ``explore`` reads
``--adt``, ``--af`` and ``--rename`` only in general and impl mode, and
``check-history`` ``--spec`` only in strict mode, ``--adt`` and ``--rename``
only in general mode.

``explore --histories DIR`` writes one ``exec-NNNN.txt`` file per recorded
execution; it refuses, before exploring, a DIR that already holds
``exec-*.txt`` files, so the files of two runs never mix, and a DIR it
cannot create (an existing file, say).

Exit status: 0 all checks passed, 1 a check failed (counterexample printed),
2 usage or input error (also an option the mode does not read, an ``--af``
whose domain misses the start state, an unusable input or output path, a
``--histories`` directory holding files of an earlier run, a ``--bound``
below 1, a thread that starts more operations than the explorer can number,
or running out of memory, reported as ``error: out of memory`` with no
partial verdict), 3 inconclusive, 141 the reader closed standard output
early (as in ``strictlin explore ... | head``; the rest of the report is
dropped quietly).  0, 1 and 3 are the verdicts of
:func:`checker.check_exploration` (``explore --mode``) and
:func:`explorer.compare`, which hold the one rule: a pass, or any
``compare`` answer, on an exploration truncated by ``--bound`` or with
approximate outcome sets is inconclusive, while a failed check exits 1 even
then, as the violating execution was explored.  Reports are deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional

from . import checker, explorer, models, reproductions, specs
from .history import parse_history, serialize_history
from .programs import parse_program
from .values import parse_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process killed by it


_STATUS = {"pass": EXIT_OK, "fail": EXIT_CHECK_FAILED, "inconclusive": EXIT_INCONCLUSIVE}


class UsageError(ValueError):
    pass


def _load_program(path: str):
    try:
        return parse_program(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"program file not found: {path}") from None


def _resolve_adt(name: str) -> specs.Adt:
    spec = specs.get_spec(name)
    if not isinstance(spec, specs.Adt):
        raise UsageError(f"{name!r} is not an abstract data type")
    return spec


def _seq_spec(name: Optional[str], model) -> specs.SeqSpec:
    """The spec ``--spec`` names: the model's own, sized as the model is,
    when it names none or the model's."""
    if not name or name == model.seq_spec.name:
        return model.seq_spec
    return specs.get_spec(name)


def _parse_init(arg: str, spec: specs.SeqSpec) -> object:
    """The start state of ``spec`` holding ``--init``'s contents:
    comma-separated value tokens, front first; a comma followed by an odd
    number of quotes lies inside a symbol and separates nothing."""
    if not arg.strip():
        return spec.initial_states[0]
    try:
        toks = re.split(r",(?=[^']*(?:'[^']*'[^']*)*$)", arg)
        values = tuple(parse_value(tok.strip()) for tok in toks)
        return spec.seed_state(values)
    except ValueError as exc:
        raise UsageError(f"bad --init: {exc}") from None


def _parse_rename(arg: Optional[str], concrete: tuple[str, ...]) -> specs.RenamingFunction:
    if not arg:
        return specs.RenamingFunction.identity(concrete)
    pairs = {}
    for part in arg.split(","):
        if "=" not in part:
            raise UsageError(f"bad rename entry {part!r}")
        a, b = part.split("=", 1)
        if a.strip() in pairs:
            raise UsageError(f"--rename renames {a.strip()} twice")
        pairs[a.strip()] = b.strip()
    return specs.RenamingFunction.of(pairs)


def _refuse_unread(args: argparse.Namespace, reads: dict[str, tuple[str, ...]]) -> None:
    """Refuse each option of ``reads``, which maps it to the modes that
    read it, when it is given and ``args.mode`` is not one of them."""
    for opt, modes in reads.items():
        if getattr(args, opt) is not None and args.mode not in modes:
            mode = f"--mode {args.mode}" if args.mode else "without --mode"
            raise UsageError(f"--{opt} is not read by {args.command} {mode}")


def _bound(text: str) -> int:
    """The ``--bound`` value: a transition budget of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _write_json(path: Optional[str], payload) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report_payload(report: checker.CheckReport) -> dict:
    records = []
    for e in report.entries:
        records.append(
            {
                "verdict": "pass" if e.ok else "fail",
                "terminated": e.execution.terminated,
                "history": serialize_history(e.execution.history),
                "witness": serialize_history(e.witness) if e.witness else None,
                "completion": serialize_history(e.completion) if e.completion else None,
                "detail": e.detail,
            }
        )
    return {"mode": report.mode, "passed": report.passed, "executions": records}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_list(_: argparse.Namespace) -> int:
    for name in sorted(reproductions.CATALOG):
        print(name)
    print(f"models: {', '.join(models.model_names())}")
    print(f"specs: {', '.join(specs.spec_names())}")
    print(f"abstraction functions: {', '.join(specs.af_names())}")
    return EXIT_OK


def _cmd_reproduce(args: argparse.Namespace) -> int:
    rep = reproductions.run(args.name)
    print(rep.text())
    _write_json(args.json, {"name": rep.name, "ok": rep.ok, "lines": list(rep.lines)})
    return EXIT_OK if rep.ok else EXIT_CHECK_FAILED


def _abstraction(args: argparse.Namespace, model, init) -> tuple:
    """The ADT, abstraction and renaming that ``--mode general|impl`` checks
    against, resolved and tried on the start state ``init`` before anything
    is explored; empty for other modes."""
    if args.mode not in ("general", "impl"):
        return ()
    if not args.adt:
        raise UsageError(f"--mode {args.mode} requires --adt")
    adt = _resolve_adt(args.adt)
    if not args.af:
        raise UsageError(f"--mode {args.mode} requires --af for model states")
    rf = _parse_rename(args.rename, model.method_names())
    if rf.concrete_names() != model.method_names():
        raise UsageError(f"--rename must name each method of {model.name} once: "
                         f"{', '.join(model.method_names())}")
    for a, b in rf.mapping:
        if b not in adt.methods:
            raise UsageError(f"--rename maps {a} to {b}, which is not a method of {adt.name}")
    missing = sorted(set(adt.methods) - {b for _, b in rf.mapping})
    if args.mode == "impl" and missing:
        raise UsageError(f"--rename maps no method to {missing[0]} of {adt.name}")
    af = specs.get_af(args.af)
    af(init)  # raises when the start state lies outside af's domain
    return adt, af, rf


def _cmd_explore(args: argparse.Namespace) -> int:
    _refuse_unread(args, dict.fromkeys(("adt", "af", "rename"), ("general", "impl")))
    # files of an earlier run would mix with this run's under the same names
    if args.histories and any(Path(args.histories).glob("exec-*.txt")):
        raise UsageError(f"--histories: {args.histories} already holds exec-*.txt files")
    prog = _load_program(args.program)
    model = models.parse_model_ref(args.model)
    init = _parse_init(args.init, model.seq_spec)
    abstraction = _abstraction(args, model, init)
    if args.histories:
        try:
            Path(args.histories).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"--histories: {exc}") from None
    ex = explorer.explore(prog, model, init_obj=init, bound=args.bound)
    fs = explorer.final_states(ex)
    print(f"configurations: {len(ex.order)}  transitions: {ex.transitions_explored}")
    if ex.truncated:
        print(f"budget exhausted at {len(ex.truncated)} frontier configurations "
              f"(unknown entries reported)")
    print("final states:")
    for line in fs.renderings:
        print(f"  {line}")
    kinds = sorted(k.value for k in ex.divergence_kinds())
    print("divergence: " + (", ".join(kinds) if kinds else "none"))
    payload: dict = {
        "final_states": list(fs.renderings),
        "divergence": kinds,
        "truncated": bool(ex.truncated),
    }
    report = checker.check_exploration(ex, args.mode, *abstraction) if args.mode else None
    if args.histories:
        # the records the check read, or, without a check, recorded here
        recs = ([e.execution for e in report.entries] if report
                else checker.recorded_executions(ex))
        outdir = Path(args.histories)
        for i, rec in enumerate(recs):
            kind = "terminated" if rec.terminated else "incomplete"
            (outdir / f"exec-{i:04d}.txt").write_text(
                f"# execution {i}: {kind}\n" + serialize_history(rec.history))
        print(f"wrote {len(recs)} history files to {outdir}")
    if report:
        for line in report.lines():
            print(line)
        payload["check"] = _report_payload(report)
        payload["verdict"] = report.verdict
    payload["approximate"] = ex.approximate
    _write_json(args.json, payload)
    return _STATUS[report.verdict] if report else EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    prog = _load_program(args.program)
    model = models.parse_model_ref(args.model)
    spec = _seq_spec(args.spec, model)
    # a foreign spec has its own state domain: each side is seeded in its own
    ex_m, ex_a = explorer.explore_both(
        prog, model, spec, init_obj=_parse_init(args.init, model.seq_spec), bound=args.bound,
        init_obj_atomic=_parse_init(args.init, spec),
    )
    obs, div, verdict, why = explorer.compare(ex_m, ex_a)
    print(f"client traces equal: {'yes' if obs.traces_equal else 'no'}")
    if not obs.traces_equal:
        for t in obs.trace_diff_model[:5]:
            print(f"  only fine-grained: {t}")
        for t in obs.trace_diff_atomic[:5]:
            print(f"  only atomic: {t}")
    # a foreign spec's object states are printed, but not compared
    print(f"final states equal: {'yes' if obs.states_equal else 'no'}"
          + (" (client bindings, abort and bottom only)" if obs.client_only else ""))
    print("  fine-grained:")
    for line in obs.state_lines_model:
        print(f"    {line}")
    print("  atomic:")
    for line in obs.state_lines_atomic:
        print(f"    {line}")
    print(
        "divergence: fine-grained="
        + (", ".join(div.model_kinds) or "none")
        + " atomic="
        + (", ".join(div.atomic_kinds) or "none")
    )
    if why:
        print(f"verdict=inconclusive: {why}")
    _write_json(args.json, {
        "traces_equal": obs.traces_equal,
        "states_equal": obs.states_equal,
        "model_divergence": list(div.model_kinds),
        "atomic_divergence": list(div.atomic_kinds),
        "approximate": ex_m.approximate or ex_a.approximate,
        "truncated": bool(ex_m.truncated or ex_a.truncated),
        "verdict": verdict,
    })
    return _STATUS[verdict]


def _cmd_check_history(args: argparse.Namespace) -> int:
    _refuse_unread(args, {"spec": ("strict",), "adt": ("general",), "rename": ("general",)})
    try:
        text = Path(args.file).read_text()
    except FileNotFoundError:
        raise UsageError(f"history file not found: {args.file}") from None
    h = parse_history(text)
    if args.mode == "strict":
        if not args.spec:
            raise UsageError("--mode strict requires --spec")
        spec = specs.get_spec(args.spec)
        # a history file carries no final state: check linearizability from
        # the spec's initial state and report the witness's legal finals
        rec = checker.RecordedExecution(spec.initial_states[0], h, False)
        report = checker.check_strict([rec], spec)
        (entry,) = report.entries
        if entry.ok:
            finals = specs.legal_seq_outcomes(spec, rec.initial_state, entry.witness)
            print(f"legal final states of the witness: "
                  f"{sorted(spec.render_state(s) for s in finals)}")
    else:
        if not args.adt:
            raise UsageError("--mode general requires --adt")
        adt = _resolve_adt(args.adt)
        rf = _parse_rename(args.rename, _history_methods(h))
        rec = checker.RecordedExecution(adt.initial_state, h, False)
        af = specs.AbstractionFunction("identity", lambda s: s)
        report = checker.check_general([rec], adt, af, rf)
    for line in report.lines():
        print(line)
    for e in report.entries:
        if e.ok and e.witness is not None:
            print("witness:")
            for line in serialize_history(e.witness).splitlines():
                print(f"  {line}")
    _write_json(args.json, _report_payload(report))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _history_methods(h) -> tuple[str, ...]:
    from .history import Inv

    return tuple(sorted({e.label.method for e in h if isinstance(e.label, Inv)}))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="strictlin",
        description="bounded interleaving exploration and linearizability checking",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproductions, models, specs")

    rp = sub.add_parser("reproduce", help="run a named reproduction")
    rp.add_argument("name")
    rp.add_argument("--json", help="write a machine-readable report")

    def common(p):
        p.add_argument("--program", required=True, help="program file")
        p.add_argument("--model", required=True, help="model NAME[,param=val]")
        p.add_argument("--bound", type=_bound, default=explorer.DEFAULT_BOUND,
                       help="transition budget (default %(default)s)")
        p.add_argument("--init", default="",
                       help="initial object contents, e.g. \"'a','b'\"")
        p.add_argument("--json", help="write a machine-readable report")

    ep = sub.add_parser("explore", help="explore a program over a model")
    common(ep)
    ep.add_argument("--mode", choices=["strict", "general", "impl"],
                    help="also check the explored executions")
    ep.add_argument("--adt", help="abstract data type name")
    ep.add_argument("--af", help="abstraction function name")
    ep.add_argument("--rename", help="method renaming A=B,C=D")
    ep.add_argument("--histories", help="directory for emitted history files")

    cp = sub.add_parser("compare", help="compare a model against its atomic version")
    common(cp)
    cp.add_argument("--spec", help="sequential spec name")

    hp = sub.add_parser("check-history", help="check a recorded history file")
    hp.add_argument("--file", required=True, help="history file")
    hp.add_argument("--mode", choices=["strict", "general"], required=True)
    hp.add_argument("--spec", help="sequential spec name")
    hp.add_argument("--adt", help="abstract data type name")
    hp.add_argument("--rename", help="method renaming A=B,C=D")
    hp.add_argument("--json", help="write a machine-readable report")
    return ap


_COMMANDS = {
    "list": _cmd_list,
    "reproduce": _cmd_reproduce,
    "explore": _cmd_explore,
    "compare": _cmd_compare,
    "check-history": _cmd_check_history,
}


def main(argv: Optional[list[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # point stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (UsageError, ValueError, OSError) as exc:
        # OSError: unreadable inputs and unwritable outputs (a directory as a
        # file, a missing directory); BrokenPipeError is handled above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # nothing was established, so no inconclusive report follows
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
