"""Program parsing."""

import pytest

from strictlin import explorer, models
from strictlin.programs import (
    AssignStmt,
    AtomicStmt,
    CallStmt,
    Cmp,
    IfStmt,
    Lit,
    Program,
    ProgramParseError,
    ReadCellStmt,
    Var,
    WhileStmt,
    WriteCellStmt,
    parse_program,
)

def test_call_with_and_without_target():
    p = parse_program("thread { call Q.Enqueue('c') ; call y = Q.Dequeue() }")
    (th,) = p.phases[0]
    assert th[0] == CallStmt(None, "Enqueue", Lit("c"))
    assert th[1] == CallStmt("y", "Dequeue", None)


def test_cells_and_assignments():
    p = parse_program(
        "thread { read x <- Q.items[1] ; write Q.back <- 2 ; set z = x }"
    )
    (th,) = p.phases[0]
    assert th[0] == ReadCellStmt("x", ("items", 1))
    assert isinstance(th[1], WriteCellStmt) and th[1].cell == ("back",)
    assert isinstance(th[2], AssignStmt)


def test_phases_and_implicit_phase():
    p = parse_program(
        """
        phase { thread { set a = 1 } thread { set b = 2 } }
        phase { thread { set c = 3 } }
        """
    )
    assert [len(ph) for ph in p.phases] == [2, 1]
    q = parse_program("thread { set a = 1 }\nthread { set b = 2 }")
    assert [len(ph) for ph in q.phases] == [2]


def test_control_flow_and_atomic():
    p = parse_program(
        """
        thread {
          set n = 2
          while n != 0 { set n = n - 1 }
          if n == 0 { set done = 1 } else { set done = 0 }
          atomic u = 1, v = u when done == 1
        }
        """
    )
    (th,) = p.phases[0]
    assert isinstance(th[1], WhileStmt)
    assert isinstance(th[2], IfStmt) and th[2].els
    assert isinstance(th[3], AtomicStmt) and th[3].guard is not None


def test_comments_and_semicolons():
    p = parse_program("# top\nthread { set a = 1 ; ; set b = unit # tail\n }")
    assert len(p.phases[0][0]) == 2


def test_phases_threads_and_statements_parse_to_their_trees():
    text = """
    phase {
      thread { call Q.Enqueue('c') ; call y = Q.Dequeue() }
      thread { read x <- Q.items[2] ; write Q.items[1] <- 'x' }
    }
    phase {
      thread { while y != 'c' { set y = 'c' } ; if y == 'c' { set ok = 1 } }
    }
    """
    assert parse_program(text) == Program((
        (
            (CallStmt(None, "Enqueue", Lit("c")), CallStmt("y", "Dequeue", None)),
            (ReadCellStmt("x", ("items", 2)), WriteCellStmt(("items", 1), Lit("x"))),
        ),
        (
            (
                WhileStmt(Cmp(Var("y"), "!=", Lit("c")), (AssignStmt("y", Lit("c")),)),
                IfStmt(Cmp(Var("y"), "==", Lit("c")), (AssignStmt("ok", Lit(1)),), ()),
            ),
        ),
    ))


def test_symbol_may_hold_a_hash():
    p = parse_program("thread { set x = 'a#b' # a comment\n}")
    assert p == Program((((AssignStmt("x", Lit("a#b")),),),))
    (line,) = explorer.final_states(explorer.explore(p, models.coarse_queue_model())).renderings
    assert line.startswith("client: x='a#b' |")


@pytest.mark.parametrize(
    "bad, message",
    [
        ("thread { set x = y + \u0663 }", "line 1: unexpected character '\u0663'"),
        ("thread { write Q.items[\u0661] <- 'q' }", "line 1: unexpected character '\u0661'"),
        ("thread { set y = x + 05 }", "line 1: expected integer after '+', got '05'"),
        ("thread {\n set x = 1 $ ; set y = 2 ! }", "line 2: unexpected character '$'"),
        ("thread { set x = 'abc }", "line 1: unexpected character \"'\""),
    ],
)
def test_misread_programs_are_rejected(bad, message):
    with pytest.raises(ProgramParseError) as exc:
        parse_program(bad)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "bad",
    [
        "thread { call Q.Enqueue('c') ",         # unterminated block
        "thread { frob x }",                     # unknown statement
        "phase { }",                             # empty phase
        "thread { set x }",                      # missing initializer
        "thread { read x <- items }",            # cell without object prefix
        "set x = 1",                             # statement outside thread
        "thread { while x { set x = 1 } }",      # predicate must compare
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ProgramParseError):
        parse_program(bad)
