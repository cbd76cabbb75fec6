"""Program parsing."""

import pytest

from strictlin import explorer, models
from strictlin.programs import (
    MAX_NESTING,
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


def test_bare_threads_before_a_phase_are_a_phase_of_their_own():
    p = parse_program("thread { set a = 1 }\nthread { set b = 2 }\n"
                      "phase { thread { set c = 3 } }\nthread { set d = 4 }")
    assert p.phases == (
        ((AssignStmt("a", Lit(1)),), (AssignStmt("b", Lit(2)),)),
        ((AssignStmt("c", Lit(3)),),),
        ((AssignStmt("d", Lit(4)),),),
    )


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


def _nested_ifs(k):
    """A thread whose body nests ``k`` ``if`` blocks, each on a line of its own."""
    return "thread {\n" + "if 0 == 0 {\n" * k + "set x = 1" + " }" * k + " }"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("thread { set x = y + \u0663 }", "line 1: unexpected character '\u0663'"),
        ("thread { write Q.items[\u0661] <- 'q' }", "line 1: unexpected character '\u0661'"),
        ("thread { set y = x + 05 }", "line 1: expected integer after '+', got '05'"),
        ("thread {\n set x = 1 $ ; set y = 2 ! }", "line 2: unexpected character '$'"),
        ("thread { set x = 'abc }", "line 1: unexpected character \"'\""),
        # a variable named after a constant could be written, never read
        ("thread { set unit = 5 ; set y = unit }", "line 1: expected identifier, got 'unit'"),
        ("thread { atomic x = 1, null = 2 }", "line 1: expected identifier, got 'null'"),
        ("thread { read EMPTY <- Q.back }", "line 1: expected identifier, got 'EMPTY'"),
        ("thread { call unit = Q.Dequeue() }", "line 1: expected identifier, got 'unit'"),
        # the block that opens one too many is the MAX_NESTING-th if's
        pytest.param(_nested_ifs(MAX_NESTING),
                     f"line {MAX_NESTING + 1}: blocks nested more than {MAX_NESTING} deep",
                     id="nested-past-the-limit"),
    ],
)
def test_misread_programs_are_rejected(bad, message):
    with pytest.raises(ProgramParseError) as exc:
        parse_program(bad)
    assert str(exc.value) == message


def test_blocks_nest_up_to_the_limit():
    p = parse_program(_nested_ifs(MAX_NESTING - 1))  # and the thread's body
    (line,) = explorer.final_states(explorer.explore(p, models.coarse_queue_model())).renderings
    assert line.startswith("client: x=1 |")


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
