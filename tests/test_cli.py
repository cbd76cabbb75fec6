"""Command-line interface: exit codes, determinism, file handling."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from strictlin import checker, cli, explorer, models, reproductions, specs
from strictlin.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from strictlin.history import parse_history
from strictlin.programs import parse_program


FIG2_PROGRAM = """
thread { call Q.Enqueue('c') }
thread { call Q.Enqueue('d') }
thread { call y = Q.Dequeue() }
"""

GOOD_HISTORY = """# concurrent enqueue/dequeue
t=1 op=1 inv Enqueue 'c'
t=2 op=2 inv Dequeue unit
t=1 op=1 ret unit
t=2 op=2 ret 'c'
"""


def _explored(text, ref, **kwargs):
    return explorer.explore(parse_program(text), models.parse_model_ref(ref), **kwargs)


@pytest.fixture
def program_file(tmp_path):
    f = tmp_path / "prog.txt"
    f.write_text(FIG2_PROGRAM)
    return str(f)


@pytest.fixture
def history_file(tmp_path):
    f = tmp_path / "hist.txt"
    f.write_text(GOOD_HISTORY)
    return str(f)


def test_list_names_every_reproduction(capsys):
    assert main(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in reproductions.CATALOG:
        assert name in out


def test_every_listed_reproduction_runs(capsys):
    for name in reproductions.CATALOG:
        assert main(["reproduce", name]) == EXIT_OK, name
    capsys.readouterr()


def test_every_reproduction_explores_completely(monkeypatch):
    # ``reproduce`` prints ok without asking ``explorer.incomplete``, so every
    # exploration a reproduction makes must be neither truncated nor approximate
    made = []

    def collecting(entry):
        def wrapped(*args, **kwargs):
            made.append(entry(*args, **kwargs))
            return made[-1]
        return wrapped

    for name in ("explore", "run_atomic"):
        monkeypatch.setattr(explorer, name, collecting(getattr(explorer, name)))
    for name, run in reproductions.CATALOG.items():
        before = len(made)
        assert run().ok, name
        assert explorer.incomplete(*made[before:]) == "", name
    assert made


def test_reproduce_unknown_name_is_usage_error(capsys):
    assert main(["reproduce", "nope"]) == EXIT_USAGE


def test_explore_with_strict_check(program_file, capsys):
    assert main(
        ["explore", "--program", program_file, "--model", "coarse-queue",
         "--mode", "strict"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict=pass" in out


def test_explore_reports_are_byte_stable(program_file, capsys):
    main(["explore", "--program", program_file, "--model", "hw-queue,N=4"])
    first = capsys.readouterr().out
    main(["explore", "--program", program_file, "--model", "hw-queue,N=4"])
    second = capsys.readouterr().out
    assert first == second


def test_explore_emits_history_files(program_file, tmp_path, capsys):
    outdir = tmp_path / "hists"
    assert main(
        ["explore", "--program", program_file, "--model", "coarse-queue",
         "--histories", str(outdir)]
    ) == EXIT_OK
    files = sorted(outdir.glob("exec-*.txt"))
    assert files
    parse_history(files[0].read_text())


def test_explore_records_executions_once(program_file, tmp_path, capsys, monkeypatch):
    # with a check, the history files are the records the check read, recorded once
    argv = ["explore", "--program", program_file, "--model", "coarse-queue", "--histories"]
    assert main(argv + [str(tmp_path / "alone")]) == EXIT_OK
    calls = []
    record = checker.recorded_executions
    monkeypatch.setattr(checker, "recorded_executions", lambda ex: calls.append(ex) or record(ex))
    assert main(argv + [str(tmp_path / "checked"), "--mode", "strict"]) == EXIT_OK
    assert len(calls) == 1
    assert "wrote " in capsys.readouterr().out
    written = [{f.name: f.read_text() for f in (tmp_path / d).iterdir()}
               for d in ("alone", "checked")]
    assert written[0] == written[1]


def test_histories_directory_of_an_earlier_run_is_usage_error(program_file, tmp_path, capsys):
    outdir = tmp_path / "hists"
    assert main(["explore", "--program", program_file, "--model", "hw-queue,N=4",
                 "--histories", str(outdir)]) == EXIT_OK
    assert f"wrote 223 history files to {outdir}" in capsys.readouterr().out
    before = {f.name: f.read_text() for f in outdir.iterdir()}
    one = tmp_path / "one.txt"
    one.write_text("thread { call Q.Enqueue('c') }\n")
    assert main(["explore", "--program", str(one), "--model", "hw-queue,N=4",
                 "--histories", str(outdir)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --histories: {outdir} already holds exec-*.txt files\n"
    assert {f.name: f.read_text() for f in outdir.iterdir()} == before
    # an existing directory without history files is used as before
    (tmp_path / "empty").mkdir()
    assert main(["explore", "--program", str(one), "--model", "hw-queue,N=4",
                 "--histories", str(tmp_path / "empty")]) == EXIT_OK
    assert "wrote 1 history files" in capsys.readouterr().out


def test_explore_json_report(program_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(
        ["explore", "--program", program_file, "--model", "hw-queue,N=4",
         "--json", str(out)]
    )
    data = json.loads(out.read_text())
    assert len(data["final_states"]) == 4
    assert data["divergence"] == ["object-divergent"]


def test_truncated_strict_pass_is_inconclusive(program_file, tmp_path, capsys):
    # at bound 60 the explored prefix holds no violation; the full graph does
    report = tmp_path / "r.json"
    argv = ["explore", "--program", program_file, "--model", "hw-queue,N=4",
            "--mode", "strict", "--json", str(report)]
    assert main(argv + ["--bound", "60"]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "verdict=inconclusive" in out and "verdict=pass" not in out
    data = json.loads(report.read_text())
    assert data["truncated"] and data["check"]["passed"]
    assert data["verdict"] == "inconclusive" and data["approximate"] is False
    # the library decides as the CLI does
    checked = checker.check_exploration(_explored(FIG2_PROGRAM, "hw-queue,N=4", bound=60),
                                        "strict")
    assert (checked.verdict, checked.inconclusive) == (
        "inconclusive", "exploration truncated by the transition budget")
    assert f"  inconclusive: {checked.inconclusive}\n" in out
    assert main(argv) == EXIT_CHECK_FAILED
    assert "verdict=fail" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert not data["truncated"] and data["verdict"] == "fail"
    checked = checker.check_exploration(_explored(FIG2_PROGRAM, "hw-queue,N=4"), "strict")
    assert (checked.verdict, checked.inconclusive) == ("fail", "")


def test_approximate_strict_pass_is_inconclusive(tmp_path, capsys):
    # two client spin loops of 23 positions each share one component of 529
    # configurations, over the 512 that outcome enumeration takes apart
    body = lambda v: " ; ".join(f"set {v} = {k}" for k in range(1, 23))  # noqa: E731
    f = tmp_path / "spin.txt"
    f.write_text("\n".join(f"thread {{ while 0 == 0 {{ {body(v)} }} }}" for v in "ab"))
    report = tmp_path / "r.json"
    assert main(["explore", "--program", str(f), "--model", "coarse-queue",
                 "--mode", "strict", "--json", str(report)]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "inconclusive: outcome sets approximate" in out
    data = json.loads(report.read_text())
    assert data["approximate"] and not data["truncated"]
    assert data["verdict"] == "inconclusive"
    checked = checker.check_exploration(_explored(f.read_text(), "coarse-queue"), "strict")
    assert (checked.verdict, checked.inconclusive) == ("inconclusive", "outcome sets approximate")
    assert f"  inconclusive: {checked.inconclusive}\n" in out


def test_long_client_loop_is_searched_without_recursion(tmp_path, capsys):
    # one component of about 1,200 configurations: deeper than Python's
    # recursion limit, and over the 512 that outcome enumeration takes apart
    body = " ; ".join(f"set a = {k}" for k in range(1, 1200))
    f = tmp_path / "loop.txt"
    f.write_text(f"thread {{ while 0 == 0 {{ {body} }} }}")
    argv = ["--program", str(f), "--model", "coarse-queue"]
    assert main(["explore"] + argv) == EXIT_OK
    assert "  bottom (client divergence)\n" in capsys.readouterr().out
    assert main(["compare"] + argv) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert out.endswith("verdict=inconclusive: outcome sets approximate\n")
    assert "warning" not in out


def test_impl_check_reports_each_execution_once(tmp_path, capsys):
    f = tmp_path / "ms-2x2.txt"
    f.write_text("thread { call Q.Enqueue('a') ; call y1 = Q.Dequeue() }\n"
                 "thread { call Q.Enqueue('b') ; call y2 = Q.Dequeue() }\n")
    report, outdir = tmp_path / "r.json", tmp_path / "h"
    assert main(["explore", "--program", str(f), "--model", "ms-queue,P=4", "--mode", "impl",
                 "--adt", "adt-pseudo-queue", "--af", "af-pseudo", "--histories", str(outdir),
                 "--json", str(report)]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(list(outdir.glob("exec-*.txt"))) == 174
    assert f"wrote 174 history files to {outdir}\nmode=impl verdict=pass executions=174\n" in out
    assert len(json.loads(report.read_text())["check"]["executions"]) == 174


def test_failed_sequential_implementation_check_renders_model_state(tmp_path, capsys):
    # the counterexample state is a model state: the ADT cannot render it
    f = tmp_path / "enq-deq.txt"
    f.write_text("thread { call Q.Enqueue('a') }\nthread { call y = Q.Dequeue() }\n")
    assert main(["explore", "--program", str(f), "--model", "ms-queue,P=3", "--mode", "impl",
                 "--adt", "adt-queue", "--af", "af-pseudo"]) == EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert err == ""
    report = out[out.index("mode=impl"):].splitlines()
    assert report[:2] == [
        "mode=impl verdict=fail executions=10",
        "  sequential-implementation counterexample: state=head=n0 list=[n0:·] tail=n0 "
        "method=Dequeue in=unit: concrete outcome (head=n0 list=[n0:·] tail=n0, EMPTY) "
        "has no abstract match",
    ]
    assert report.count("  failing execution:") == 10
    assert report.count("    no abstract linearization") == 10


def test_truncated_compare_is_inconclusive(program_file, tmp_path, capsys):
    report = tmp_path / "c.json"
    argv = ["compare", "--program", program_file, "--model", "hw-queue,N=4",
            "--json", str(report)]
    assert main(argv + ["--bound", "60"]) == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "verdict=inconclusive: exploration truncated" in out
    assert "warning" not in out
    data = json.loads(report.read_text())
    # the report names the cause: a cut, not approximate outcome sets
    assert (data["verdict"], data["truncated"], data["approximate"]) == (
        "inconclusive", True, False)
    # the library decides as the CLI does
    prog, model = parse_program(FIG2_PROGRAM), models.hw_model(4)
    _, _, verdict, why = explorer.compare(*explorer.explore_both(prog, model, bound=60))
    assert (verdict, why) == ("inconclusive", "exploration truncated by the transition budget")
    assert out.endswith(f"verdict=inconclusive: {why}\n")
    assert main(argv) == EXIT_CHECK_FAILED
    data = json.loads(report.read_text())
    assert (data["verdict"], data["truncated"]) == ("fail", False)
    assert explorer.compare(*explorer.explore_both(prog, model))[2:] == ("fail", "")


def test_compare_of_a_long_straight_line_program(tmp_path, capsys):
    # 1,199 client steps and no cycle: deeper than Python's recursion
    # limit, so every walk of the graphs and of their product keeps its own
    # stack
    f = tmp_path / "chain.txt"
    f.write_text("thread { " + " ; ".join(f"set a = {k}" for k in range(1, 1200)) + " }\n")
    assert main(["compare", "--program", str(f), "--model", "coarse-queue"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("client traces equal: yes\n")


def test_compare_exit_reflects_equality(program_file, capsys):
    assert main(["compare", "--program", program_file, "--model", "coarse-queue"]) == EXIT_OK
    assert (
        main(["compare", "--program", program_file, "--model", "hw-queue,N=4"])
        == EXIT_CHECK_FAILED
    )
    capsys.readouterr()


def test_check_history_general(history_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        ["check-history", "--file", history_file, "--mode", "general",
         "--adt", "adt-queue", "--json", str(out)]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["passed"] and data["executions"][0]["witness"]


def test_check_history_strict_prints_witness_finals(history_file, capsys):
    code = main(
        ["check-history", "--file", history_file, "--mode", "strict",
         "--spec", "coarse-queue-seq"]
    )
    assert code == EXIT_OK
    assert "legal final states" in capsys.readouterr().out


def test_check_history_failing_history(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("t=1 op=1 inv Dequeue unit\nt=1 op=1 ret 'z'\n")
    code = main(
        ["check-history", "--file", str(f), "--mode", "general", "--adt", "adt-queue"]
    )
    assert code == EXIT_CHECK_FAILED
    assert "fail" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-history", "--file", "/no/such/file", "--mode", "general",
         "--adt", "adt-queue"],
        ["explore", "--program", "/no/such/file", "--model", "coarse-queue"],
        ["check-history", "--file", "x", "--mode", "impl"],
    ],
)
def test_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE


def test_check_history_rejects_af(history_file, capsys):
    # a history check runs on the ADT's own states: an abstraction function
    # has nothing to map, so the flag does not exist
    code = main(
        ["check-history", "--file", history_file, "--mode", "general",
         "--adt", "adt-queue", "--af", "no-such-af"]
    )
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --af" in capsys.readouterr().err


def test_malformed_history_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("t=1 op=1 frob\n")
    code = main(
        ["check-history", "--file", str(f), "--mode", "general", "--adt", "adt-queue"]
    )
    assert code == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


_MS_IMPL = ["--model", "ms-queue,P=3", "--adt", "adt-multiset", "--af", "af-multiset"]


@pytest.mark.parametrize("args,message", [
    (["--mode", "impl", "--rename", "Foo=Add,Dequeue=Remove"],
     "--rename must name each method of ms-queue once: Dequeue, Enqueue"),
    (["--mode", "impl", "--rename", "Enqueue=Add,Dequeue=Remove,Foo=Bar"],
     "--rename must name each method of ms-queue once: Dequeue, Enqueue"),
    (["--mode", "general", "--rename", "Enqueue=Add"],
     "--rename must name each method of ms-queue once: Dequeue, Enqueue"),
    (["--mode", "impl", "--rename", "Enqueue=Add,Dequeue=Foo"],
     "--rename maps Dequeue to Foo, which is not a method of adt-multiset"),
    (["--mode", "general"],
     "--rename maps Dequeue to Dequeue, which is not a method of adt-multiset"),
    (["--mode", "general", "--rename", "Enqueue=Add,Enqueue=Remove"],
     "--rename renames Enqueue twice"),
], ids=["unknown-concrete", "extra-concrete", "missing-concrete", "unknown-abstract",
        "default-identity", "repeated-concrete"])
def test_bad_renaming_is_rejected_before_exploring(args, message, program_file, capsys):
    assert main(["explore", "--program", program_file, *_MS_IMPL, *args]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_impl_renaming_must_reach_every_adt_method(program_file, capsys, monkeypatch):
    queue = specs.queue_adt()
    wide = dataclasses.replace(queue, name="adt-wide",
                               methods={**queue.methods, "Peek": queue.methods["Dequeue"]})
    monkeypatch.setattr(cli, "_resolve_adt", lambda name: wide)
    argv = ["explore", "--program", program_file, "--model", "ms-queue,P=3",
            "--adt", "adt-wide", "--af", "af-queue", "--mode"]
    assert main([*argv, "impl"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --rename maps no method to Peek of adt-wide\n")
    # general linearizability needs only the methods the model has
    assert main([*argv, "general"]) == EXIT_OK


def test_check_history_rejects_repeated_renaming(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("t=1 op=1 inv Enqueue 'a'\nt=1 op=1 ret unit\n")
    argv = ["check-history", "--file", str(f), "--mode", "general", "--adt", "adt-queue",
            "--rename", "Enqueue=Enqueue,Enqueue=Dequeue"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --rename renames Enqueue twice\n")


def test_unknown_model_is_usage_error(program_file, capsys):
    assert (
        main(["explore", "--program", program_file, "--model", "wobbly-queue"])
        == EXIT_USAGE
    )


@pytest.mark.parametrize("ref,message", [
    ("hw-queue,P=2", "hw-queue takes parameter 'N', not 'P'"),
    ("ms-queue,P=2,N=9", "ms-queue takes parameter 'P', not 'N'"),
    ("hw-queue,N=2,N=3", "hw-queue: parameter N given twice"),
    ("hw-queue,N=x", "hw-queue: parameter N must be an integer, not 'x'"),
    ("hw-queue,N=\u0662", "hw-queue: parameter N must be an integer, not '\u0662'"),
    ("coarse-queue,C=-1", "queue capacity C must be >= 0"),
    ("hw-queue,N=0", "array bound must be >= 1"),
    ("ms-queue,P=1", "node pool must hold the dummy plus one node"),
])
def test_unknown_model_parameter_is_usage_error(ref, message, program_file, capsys):
    assert main(["explore", "--program", program_file, "--model", ref]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["general", "impl"])
@pytest.mark.parametrize("model", ["hw-queue", "coarse-queue"])
@pytest.mark.parametrize("af", ["af-queue", "af-multiset", "af-pseudo"])
def test_linked_queue_af_on_other_model_is_usage_error(af, model, mode, program_file, capsys):
    # these functions read linked-queue states; any other state is outside their domain
    argv = ["explore", "--program", program_file, "--model", model, "--mode", mode,
            "--adt", "adt-queue", "--af", af]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {af}: state outside abstraction domain\n")


def test_af_outside_the_start_state_fails_before_exploring(tmp_path, capsys):
    # af-queue reads linked-queue states: the array queue's start state is
    # refused before anything is explored, printed or written
    f = tmp_path / "enq-deq.txt"
    f.write_text("thread { call Q.Enqueue('a') }\nthread { call y = Q.Dequeue() }\n")
    outdir = tmp_path / "h"
    argv = ["explore", "--program", str(f), "--model", "hw-queue,N=4", "--mode", "general",
            "--adt", "adt-queue", "--af", "af-queue", "--histories", str(outdir)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: af-queue: state outside abstraction domain\n")
    assert not outdir.exists()


@pytest.mark.parametrize("command", ["explore", "compare"])
@pytest.mark.parametrize("text", ["", "# only a comment\n"])
def test_program_without_thread_is_usage_error(command, text, tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text(text)
    assert main([command, "--program", str(f), "--model", "coarse-queue"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: program has no thread\n"


@pytest.mark.parametrize("command", ["explore", "compare"])
def test_stray_program_character_is_usage_error(command, tmp_path, capsys):
    f = tmp_path / "stray.txt"
    f.write_text("thread { set x = 1 }\nthread { set y = 2 ! }\n")
    assert main([command, "--program", str(f), "--model", "coarse-queue"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: line 2: unexpected character '!'\n")


@pytest.mark.parametrize("text, message", [
    pytest.param("thread { " + "if 0 == 0 { " * 1000 + "set x = 1" + " }" * 1000 + " }",
                 "error: line 1: blocks nested more than 100 deep\n", id="deep-nesting"),
    pytest.param("thread { set unit = 5 ; set y = unit }",
                 "error: line 1: expected identifier, got 'unit'\n", id="reserved-name"),
    pytest.param("thread { set x = 05 }",
                 "error: line 1: bad value token: '05'\n", id="integer-shaped-literal"),
    pytest.param("thread { set x = while }",
                 "error: line 1: expected expression, got 'while'\n", id="keyword-expression"),
])
def test_unparsable_program_is_usage_error(text, message, tmp_path, capsys):
    f = tmp_path / "prog.txt"
    f.write_text(text)
    assert main(["explore", "--program", str(f), "--model", "coarse-queue"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("mode", [["--mode", "general", "--adt", "adt-queue"],
                                  ["--mode", "strict", "--spec", "adt-queue"]],
                         ids=["general", "strict"])
def test_long_history_is_checked_without_recursion(mode, tmp_path, capsys):
    # 500 enqueues, then 500 dequeues, by one thread: the witness search
    # goes 1,000 operations deep, past Python's recursion limit
    values = ["'a'", "'b'"] * 250
    ops = [("Enqueue " + v, "unit") for v in values] + [("Dequeue unit", v) for v in values]
    f = tmp_path / "long.txt"
    f.write_text("".join(f"t=1 op={k} inv {call}\nt=1 op={k} ret {out}\n"
                         for k, (call, out) in enumerate(ops, start=1)))
    assert main(["check-history", "--file", str(f)] + mode) == EXIT_OK
    out = capsys.readouterr().out
    assert f"mode={mode[1]} verdict=pass executions=1\n" in out
    assert out.count("\n  t=1 op=") == 2000  # the witness is the history itself


def test_explore_takes_no_spec(program_file, capsys):
    # strict and impl checks use the model's own sequential spec
    argv = ["explore", "--program", program_file, "--model", "ms-queue", "--mode", "strict",
            "--spec", "adt-queue"]
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments: --spec adt-queue" in capsys.readouterr().err


def test_out_of_memory_is_usage_error(program_file, tmp_path, capsys, monkeypatch):
    # no trace set was established, so no report of lower bounds can follow
    def exhausted(*_):
        raise MemoryError

    argv = ["compare", "--model", "coarse-queue", "--program"]
    # fig2's client traces are finite: compare decides them on the graphs
    monkeypatch.setattr(explorer, "client_trace_diffs", exhausted)
    assert main(argv + [program_file]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]
    monkeypatch.undo()
    # a client spin loop's traces are lassos, which compare enumerates with
    # results(); fig2's never call it
    spin = tmp_path / "spin.txt"
    spin.write_text("thread { set x = 0 ; while x != 1 { set y = 0 } }\n"
                    "thread { call Q.Enqueue('a') }\n")
    monkeypatch.setattr(explorer.Exploration, "results", exhausted)
    assert main(argv + [program_file]) == EXIT_OK
    capsys.readouterr()
    assert main(argv + [str(spin)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


def test_compare_seeds_foreign_spec_from_init(tmp_path, capsys):
    # the atomic side starts from the queue ADT's own state holding 'a'; its
    # object states lie in another domain, so only the client's are compared
    f = tmp_path / "deq-enq.txt"
    f.write_text("thread { call y = Q.Dequeue() }\nthread { call Q.Enqueue('b') }\n")
    assert main(["compare", "--program", str(f), "--model", "hw-queue", "--spec", "adt-queue",
                 "--init", "'a'"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "client traces equal: yes\n"
        "final states equal: yes (client bindings, abort and bottom only)\n"
        "  fine-grained:\n"
        "    client: y='a' | object: back=3 items=[·,b,·,·]\n"
        "  atomic:\n"
        "    client: y='a' | object: <'b'>\n"
        "divergence: fine-grained=none atomic=none\n"
    )


@pytest.mark.parametrize("argv,message", [
    pytest.param(["explore", "--model", "coarse-queue", "--init", "'a b'"],
                 "bad --init: bad symbol token: \"'a b'\"", id="symbol-with-space"),
    pytest.param(["explore", "--model", "coarse-queue,C=2", "--init", "'a','b','c'"],
                 "bad --init: queue capacity 2 cannot hold 3 values", id="over-full-coarse"),
    pytest.param(["compare", "--model", "ms-queue,P=9", "--spec", "coarse-queue-seq",
                  "--init", "'a','b','c','d','e'"],
                 "bad --init: queue capacity 4 cannot hold 5 values", id="over-full-foreign"),
    pytest.param(["explore", "--model", "hw-queue,N=4", "--init", "'a','b','c','d','e'"],
                 "bad --init: array bound 4 cannot hold 5 values", id="over-full-array"),
    pytest.param(["explore", "--model", "ms-queue,P=4", "--init", "'a','b','c','d'"],
                 "bad --init: pool of 4 nodes cannot hold 4 values", id="over-full-pool"),
])
def test_init_outside_the_spec_is_usage_error(argv, message, tmp_path, capsys):
    f = tmp_path / "deq.txt"
    f.write_text("thread { call y = Q.Dequeue() }\n")
    assert main(argv[:1] + ["--program", str(f)] + argv[1:]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compare_against_own_spec_keeps_model_size(tmp_path, capsys):
    # naming the model's spec picks it at the model's size, not the registered one
    f = tmp_path / "three-enq.txt"
    f.write_text("thread { call Q.Enqueue('a') ; call Q.Enqueue('b') ; call y = Q.Dequeue() ;"
                 " call Q.Enqueue('a') }\n")
    argv = ["compare", "--program", str(f), "--model", "hw-queue,N=2"]
    assert main(argv) == EXIT_CHECK_FAILED
    implicit = capsys.readouterr()
    assert main(argv + ["--spec", "hw-queue-seq"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr() == implicit


def test_unknown_flag_rejected(program_file, capsys):
    assert (
        main(["explore", "--program", program_file, "--model", "coarse-queue",
              "--frobnicate"])
        == EXIT_USAGE
    )


def test_general_mode_requires_adt_and_af(program_file, capsys):
    # the names are resolved before anything is explored: no report is printed
    for mode in ("general", "impl"):
        for extra in (
            [],
            ["--adt", "adt-queue"],
            ["--adt", "adt-queue", "--af", "no-such-af"],
            ["--adt", "no-such-adt", "--af", "af-hw-prefix"],
            ["--adt", "hw-queue-seq", "--af", "af-hw-prefix"],  # a spec, not an ADT
        ):
            argv = ["explore", "--program", program_file, "--model", "hw-queue",
                    "--mode", mode] + extra
            assert main(argv) == EXIT_USAGE, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: "), argv


@pytest.mark.parametrize("argv,message", [
    pytest.param(["explore", "--program", "{prog}", "--model", "coarse-queue",
                  "--mode", "strict", "--adt", "adt-queue", "--af", "nosuch"],
                 "--adt is not read by explore --mode strict", id="explore-strict-adt"),
    pytest.param(["explore", "--program", "{prog}", "--model", "coarse-queue",
                  "--adt", "nosuch", "--rename", "X=Y"],
                 "--adt is not read by explore without --mode", id="explore-no-mode-adt"),
    pytest.param(["explore", "--program", "{prog}", "--model", "coarse-queue",
                  "--mode", "strict", "--af", "af-pseudo"],
                 "--af is not read by explore --mode strict", id="explore-strict-af"),
    pytest.param(["check-history", "--file", "{hist}", "--mode", "strict",
                  "--spec", "adt-queue", "--adt", "nosuch", "--rename", "Q=Z"],
                 "--adt is not read by check-history --mode strict", id="check-strict-adt"),
    pytest.param(["check-history", "--file", "{hist}", "--mode", "strict",
                  "--spec", "adt-queue", "--rename", "Q=Z"],
                 "--rename is not read by check-history --mode strict", id="check-strict-rename"),
    pytest.param(["check-history", "--file", "{hist}", "--mode", "general",
                  "--adt", "adt-queue", "--spec", "nosuch"],
                 "--spec is not read by check-history --mode general", id="check-general-spec"),
    pytest.param(["explore", "--program", "{prog}", "--model", "coarse-queue",
                  "--histories", "{prog}"],
                 "--histories: [Errno 17] File exists: '{prog}'", id="histories-is-a-file"),
])
def test_option_the_mode_cannot_use_is_refused_before_exploring(
    argv, message, program_file, history_file, capsys
):
    names = {"prog": program_file, "hist": history_file}
    assert main([a.format(**names) for a in argv]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message.format(**names)}\n")


@pytest.mark.parametrize("extra,message", [
    (["--mode", "strict"], "--mode strict requires --spec"),
    (["--mode", "general"], "--mode general requires --adt"),
    (["--mode", "general", "--adt", "adt-queue", "--rename", "Enqueue"],
     "bad rename entry 'Enqueue'"),
    # the history's Dequeue is outside the renaming
    (["--mode", "general", "--adt", "adt-queue", "--rename", "Enqueue=Enqueue"],
     "renaming: unknown concrete method 'Dequeue'"),
])
def test_check_history_option_errors(extra, message, history_file, capsys):
    assert main(["check-history", "--file", history_file] + extra) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_compare_prints_a_differing_client_lasso(tmp_path, capsys):
    # the atomic queue answers EMPTY and the client spins on it; the array
    # queue's dequeue spins inside the object instead
    f = tmp_path / "spin.txt"
    f.write_text("thread { call y = Q.Dequeue() ; while y == EMPTY { set a = 1 } }\n")
    assert main(["compare", "--program", str(f), "--model", "hw-queue,N=2",
                 "--spec", "adt-queue"]) == EXIT_CHECK_FAILED
    assert capsys.readouterr().out == (
        "client traces equal: no\n"
        "  only atomic: t=1 act eval Dequeue()=unit; t=1 act y:=EMPTY"
        " [loop: t=1 act test(y == EMPTY)=true; t=1 act a:=1]\n"
        "final states equal: no (client bindings, abort and bottom only)\n"
        "  fine-grained:\n"
        "  atomic:\n"
        "    bottom (client divergence)\n"
        "divergence: fine-grained=object-divergent atomic=client-divergent\n"
    )


def test_explore_with_seeded_contents(program_file, tmp_path, capsys):
    f = tmp_path / "deq.txt"
    f.write_text("thread { call y = Q.Dequeue() }\n")
    assert main(
        ["explore", "--program", str(f), "--model", "ms-queue,P=4",
         "--init", "'a'", "--mode", "strict"]
    ) == EXIT_OK
    assert "y='a'" in capsys.readouterr().out
    # a comma between a symbol's quotes is part of the symbol
    assert main(["explore", "--program", str(f), "--model", "coarse-queue",
                 "--init", "'a,b' , 'c'"]) == EXIT_OK
    assert "  client: y='a,b' | object: queue=<'c'>\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["explore", "compare"])
def test_cell_access_on_model_without_cells_is_usage_error(command, tmp_path, capsys):
    f = tmp_path / "cell.txt"
    f.write_text("thread { write Q.items[1] <- 'x' }\n")
    assert main([command, "--program", str(f), "--model", "ms-queue,P=4"]) == EXIT_USAGE
    assert "exposes no cells" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explore", "compare"])
def test_call_to_unknown_method_is_usage_error(command, tmp_path, capsys):
    f = tmp_path / "push.txt"
    f.write_text("thread { call Q.Push('a') }\n")
    assert main([command, "--program", str(f), "--model", "hw-queue,N=4"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: hw-queue: unknown method 'Push'\n"


def test_closed_output_pipe_exits_quietly(program_file):
    # the reader is gone before the report is written, as in `... | head`
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "strictlin.cli", "explore", "--program", program_file,
         "--model", "hw-queue,N=4", "--mode", "strict"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert err == b""


# `check-history --mode strict` output, pinned byte for byte: a history whose
# witness reorders overlapping enqueues and closes a pending one, and one with
# an aborted operation
STRICT_PASSING_HISTORY = """\
t=1 op=1 inv Enqueue 'a'
t=2 op=2 inv Enqueue 'b'
t=1 op=1 ret unit
t=3 op=3 inv Dequeue unit
t=2 op=2 ret unit
t=3 op=3 ret 'b'
t=1 op=4 inv Enqueue 'c'
t=3 op=5 inv Dequeue unit
t=3 op=5 ret 'a'
t=2 op=6 inv Dequeue unit
t=2 op=6 ret 'c'
"""
STRICT_PASSING_OUT = """\
legal final states of the witness: ['<>']
mode=strict verdict=pass executions=1
witness:
  t=2 op=2 inv Enqueue 'b'
  t=2 op=2 ret unit
  t=1 op=1 inv Enqueue 'a'
  t=1 op=1 ret unit
  t=3 op=3 inv Dequeue unit
  t=3 op=3 ret 'b'
  t=1 op=4 inv Enqueue 'c'
  t=1 op=4 ret unit
  t=3 op=5 inv Dequeue unit
  t=3 op=5 ret 'a'
  t=2 op=6 inv Dequeue unit
  t=2 op=6 ret 'c'
"""
STRICT_PASSING_JSON = r"""{
  "executions": [
    {
      "completion": "t=1 op=1 inv Enqueue 'a'\nt=2 op=2 inv Enqueue 'b'\nt=1 op=1 ret unit\nt=3 op=3 inv Dequeue unit\nt=2 op=2 ret unit\nt=3 op=3 ret 'b'\nt=1 op=4 inv Enqueue 'c'\nt=3 op=5 inv Dequeue unit\nt=3 op=5 ret 'a'\nt=2 op=6 inv Dequeue unit\nt=2 op=6 ret 'c'\nt=1 op=4 ret unit\n",
      "detail": "",
      "history": "t=1 op=1 inv Enqueue 'a'\nt=2 op=2 inv Enqueue 'b'\nt=1 op=1 ret unit\nt=3 op=3 inv Dequeue unit\nt=2 op=2 ret unit\nt=3 op=3 ret 'b'\nt=1 op=4 inv Enqueue 'c'\nt=3 op=5 inv Dequeue unit\nt=3 op=5 ret 'a'\nt=2 op=6 inv Dequeue unit\nt=2 op=6 ret 'c'\n",
      "terminated": false,
      "verdict": "pass",
      "witness": "t=2 op=2 inv Enqueue 'b'\nt=2 op=2 ret unit\nt=1 op=1 inv Enqueue 'a'\nt=1 op=1 ret unit\nt=3 op=3 inv Dequeue unit\nt=3 op=3 ret 'b'\nt=1 op=4 inv Enqueue 'c'\nt=1 op=4 ret unit\nt=3 op=5 inv Dequeue unit\nt=3 op=5 ret 'a'\nt=2 op=6 inv Dequeue unit\nt=2 op=6 ret 'c'\n"
    }
  ],
  "mode": "strict",
  "passed": true
}
"""
STRICT_ABORTED_HISTORY = """\
t=1 op=1 inv Enqueue 'a'
t=2 op=2 inv Dequeue unit
t=1 op=1 abort
t=2 op=2 ret 'a'
"""
STRICT_ABORTED_OUT = """\
mode=strict verdict=fail executions=1
  failing execution:
    t=1 op=1 inv Enqueue 'a'
    t=2 op=2 inv Dequeue unit
    t=1 op=1 abort
    t=2 op=2 ret 'a'
    no completion linearizes
"""
STRICT_ABORTED_JSON = r"""{
  "executions": [
    {
      "completion": null,
      "detail": "no completion linearizes",
      "history": "t=1 op=1 inv Enqueue 'a'\nt=2 op=2 inv Dequeue unit\nt=1 op=1 abort\nt=2 op=2 ret 'a'\n",
      "terminated": false,
      "verdict": "fail",
      "witness": null
    }
  ],
  "mode": "strict",
  "passed": false
}
"""


@pytest.mark.parametrize(
    "text,status,out,payload",
    [
        (STRICT_PASSING_HISTORY, EXIT_OK, STRICT_PASSING_OUT, STRICT_PASSING_JSON),
        (STRICT_ABORTED_HISTORY, EXIT_CHECK_FAILED, STRICT_ABORTED_OUT, STRICT_ABORTED_JSON),
    ],
    ids=["passing", "aborted"],
)
def test_check_history_strict_output_is_pinned(text, status, out, payload, tmp_path, capsys):
    f = tmp_path / "h.txt"
    f.write_text(text)
    report = tmp_path / "r.json"
    assert main(
        ["check-history", "--file", str(f), "--mode", "strict", "--spec", "adt-queue",
         "--json", str(report)]
    ) == status
    assert capsys.readouterr().out == out
    assert report.read_text() == payload


@pytest.mark.parametrize("command", ["explore", "compare"])
def test_thread_with_too_many_operations_is_usage_error(command, tmp_path, capsys):
    # each lap of the loop starts two operations and the loop never exits
    f = tmp_path / "loop.txt"
    f.write_text(
        "thread { set x = 0 ; while x != 2 { call Q.Enqueue('a') ; call y = Q.Dequeue() } }\n"
    )
    assert main([command, "--program", str(f), "--model", "coarse-queue"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: operation-id space exhausted for thread 1")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["explore", "--program", "{dir}", "--model", "coarse-queue"],
                 "Is a directory", id="program-is-directory"),
    pytest.param(["check-history", "--file", "{dir}", "--mode", "general",
                  "--adt", "adt-queue"], "Is a directory", id="history-is-directory"),
    pytest.param(["explore", "--program", "{prog}", "--model", "coarse-queue",
                  "--json", "{dir}/missing/r.json"], "No such file or directory",
                 id="json-into-missing-directory"),
    pytest.param(["explore", "--program", "{prog}", "--model", "coarse-queue",
                  "--histories", "{prog}"], "File exists", id="histories-is-a-file"),
])
def test_unusable_path_is_usage_error(argv, message, program_file, tmp_path, capsys):
    argv = [a.format(dir=tmp_path, prog=program_file) for a in argv]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["explore", "compare"])
@pytest.mark.parametrize("bound,message", [
    pytest.param(b, m, id=b) for b, m in (
        ("-5", "must be at least 1, got -5"),
        ("0", "must be at least 1, got 0"),
        ("abc", "invalid int value: 'abc'"))])
def test_bound_below_one_is_usage_error(command, bound, message, program_file, capsys):
    assert main([command, "--program", program_file, "--model", "coarse-queue",
                 "--bound", bound]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: strictlin {command} ")
    assert err.splitlines()[-1] == f"strictlin {command}: error: argument --bound: {message}"


# ---------------------------------------------------------------------------
# Mutated inputs
# ---------------------------------------------------------------------------

# seeds: every statement kind, phases and a cell access; a pending and an
# aborted operation
FUZZ_PROGRAMS = (FIG2_PROGRAM, """\
phase { thread { call Q.Enqueue('c') } thread { call y0 = Q.Dequeue() } }
phase { thread { write Q.items[1] <- 'x' ; read z <- Q.back } }
phase { thread { set n = 1 ; while n != 0 { set n = n - 1 } ;
  if n == 0 { call y1 = Q.Dequeue() } else { atomic u = 1, v = u when n == 0 } } }
""")
FUZZ_HISTORIES = (STRICT_PASSING_HISTORY + "t=5 op=8 inv Dequeue unit\n# a comment\n",
                  STRICT_ABORTED_HISTORY)
FUZZ_COMMANDS = {
    "explore": (FUZZ_PROGRAMS, ["explore", "--model", "hw-queue,N=2", "--bound", "300",
                                "--mode", "strict", "--program"]),
    "compare": (FUZZ_PROGRAMS, ["compare", "--model", "hw-queue,N=2", "--bound", "300",
                                "--program"]),
    "check-strict": (FUZZ_HISTORIES, ["check-history", "--mode", "strict", "--spec",
                                      "adt-queue", "--file"]),
    "check-general": (FUZZ_HISTORIES, ["check-history", "--mode", "general", "--adt",
                                       "adt-queue", "--file"]),
}
# (kind, position, byte or text): flip one bit of the byte there, insert, or delete
EDITS = st.lists(st.tuples(
    st.sampled_from(["flip", "insert", "delete"]),
    st.integers(0, 1_000),
    st.sampled_from(["'", " ", "{", "}", ";", "\n", "0", "-", "x", "\u00e9", "\u0663",
                     "\u00a0", "\u2192"]),
), min_size=1, max_size=4)


def _mutate(text: str, edits) -> bytes:
    data = bytearray(text.encode())
    for kind, pos, ch in edits:
        i = pos % (len(data) + 1)
        if kind == "insert":
            data[i:i] = ch.encode()
        elif i < len(data):
            if kind == "delete":
                del data[i]
            else:
                data[i] ^= 1 << (ord(ch) % 8)
    return bytes(data)


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@given(seed=st.integers(0, 1), edits=EDITS)
@settings(max_examples=100, deadline=None)
def test_mutated_input_exits_with_a_status(command, seed, edits):
    # a mutated program or history is read, rejected or checked, never a crash
    seeds, argv = FUZZ_COMMANDS[command]
    text = seeds[seed]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / "input.txt"
        f.write_bytes(_mutate(text, edits))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv + [str(f)])
    assert status in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_INCONCLUSIVE)
    assert "Traceback" not in err.getvalue()
