"""Client programs: a tiny structured language of parallel threads.

A program is a sequence of *phases*; each phase is a set of threads run in
parallel, and a phase starts only after the previous one has fully
terminated.  Threads execute statements over client variables, call object
methods, and may read or write object cells directly through model-exposed
addresses.

Text format (``#`` starts a comment; ``;`` may separate statements)::

    phase {
      thread { call Q.Enqueue('c') }
      thread { call y = Q.Dequeue() }
    }
    phase {
      thread { write Q.items[1] <- 'x' ; read z <- Q.back }
    }

Bare ``thread { ... }`` blocks outside a ``phase`` form one implicit phase.
Statements::

    call [x =] Q.Method([expr])
    read x <- Q.cell            # cell: back | items[3] | ...
    write Q.cell <- expr
    set x = expr
    atomic x = e1, y = e2 [when pred]
    while pred { ... }
    if pred { ... } [else { ... }]

Expressions are literals (``5``, ``'c'``, ``null``, ``EMPTY``, ``unit``),
client variables, or ``var + int`` / ``var - int``.  Predicates compare two
expressions with ``==`` or ``!=``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .values import Value, parse_value, render_value

# ---------------------------------------------------------------------------
# Syntax trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: Value

    def render(self) -> str:
        return render_value(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def render(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arith:
    var: str
    op: str  # '+' | '-'
    k: int

    def render(self) -> str:
        return f"{self.var} {self.op} {self.k}"


Expr = Union[Lit, Var, Arith]


@dataclass(frozen=True)
class Cmp:
    lhs: Expr
    op: str  # '==' | '!='
    rhs: Expr

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} {self.rhs.render()}"


@dataclass(frozen=True)
class CallStmt:
    target: Optional[str]
    method: str
    arg: Optional[Expr]


@dataclass(frozen=True)
class ReadCellStmt:
    target: str
    cell: tuple


@dataclass(frozen=True)
class WriteCellStmt:
    cell: tuple
    expr: Expr


@dataclass(frozen=True)
class AssignStmt:
    target: str
    expr: Expr


@dataclass(frozen=True)
class AtomicStmt:
    assigns: tuple[tuple[str, Expr], ...]
    guard: Optional[Cmp] = None


@dataclass(frozen=True)
class WhileStmt:
    pred: Cmp
    body: tuple


@dataclass(frozen=True)
class IfStmt:
    pred: Cmp
    then: tuple
    els: tuple


Stmt = Union[CallStmt, ReadCellStmt, WriteCellStmt, AssignStmt, AtomicStmt, WhileStmt, IfStmt]
ThreadCode = tuple  # tuple[Stmt, ...]
Phase = tuple  # tuple[ThreadCode, ...]


@dataclass(frozen=True)
class Program:
    phases: tuple  # tuple[Phase, ...]


def program(*threads: tuple) -> Program:
    """One-phase program from thread statement tuples."""
    return Program((tuple(threads),))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ProgramParseError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"'[^'\s]+'|-?\d+|[A-Za-z_][A-Za-z_0-9]*|==|!=|<-|[{}()\[\].,;=+\-]"
)

_KEYWORDS = {"phase", "thread", "call", "read", "write", "set", "atomic",
             "while", "if", "else", "when"}


class _Tokens:
    def __init__(self, text: str) -> None:
        self.toks: list[str] = []
        for line in text.splitlines():
            line = line.split("#", 1)[0]
            self.toks.extend(_TOKEN_RE.findall(line))
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ProgramParseError("unexpected end of program")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ProgramParseError(f"expected {tok!r}, got {got!r}")

    def ident(self) -> str:
        tok = self.next()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok) or tok in _KEYWORDS:
            raise ProgramParseError(f"expected identifier, got {tok!r}")
        return tok


def _parse_expr(ts: _Tokens) -> Expr:
    tok = ts.next()
    if re.fullmatch(r"-?\d+", tok) or tok.startswith("'") or tok in ("null", "EMPTY", "unit"):
        return Lit(parse_value(tok))
    if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok) or tok in _KEYWORDS:
        raise ProgramParseError(f"expected expression, got {tok!r}")
    if ts.peek() in ("+", "-"):
        op = ts.next()
        k = ts.next()
        if not re.fullmatch(r"-?\d+", k):
            raise ProgramParseError(f"expected integer after {op!r}, got {k!r}")
        return Arith(tok, op, int(k))
    return Var(tok)


def _parse_pred(ts: _Tokens) -> Cmp:
    lhs = _parse_expr(ts)
    op = ts.next()
    if op not in ("==", "!="):
        raise ProgramParseError(f"expected comparison, got {op!r}")
    return Cmp(lhs, op, _parse_expr(ts))


def _parse_cell(ts: _Tokens) -> tuple:
    ts.ident()  # object name, single object per program
    ts.expect(".")
    field = ts.ident()
    if ts.peek() == "[":
        ts.next()
        idx = ts.next()
        if not re.fullmatch(r"-?\d+", idx):
            raise ProgramParseError(f"expected cell index, got {idx!r}")
        ts.expect("]")
        return (field, int(idx))
    return (field,)


def _parse_stmt(ts: _Tokens) -> Stmt:
    kw = ts.next()
    if kw == "call":
        first = ts.ident()
        if ts.peek() == "=":
            ts.next()
            target: Optional[str] = first
            ts.ident()  # object name
        else:
            target = None
            # `first` was the object name
        ts.expect(".")
        method = ts.ident()
        ts.expect("(")
        arg = None if ts.peek() == ")" else _parse_expr(ts)
        ts.expect(")")
        return CallStmt(target, method, arg)
    if kw == "read":
        target = ts.ident()
        ts.expect("<-")
        return ReadCellStmt(target, _parse_cell(ts))
    if kw == "write":
        cell = _parse_cell(ts)
        ts.expect("<-")
        return WriteCellStmt(cell, _parse_expr(ts))
    if kw == "set":
        target = ts.ident()
        ts.expect("=")
        return AssignStmt(target, _parse_expr(ts))
    if kw == "atomic":
        assigns = []
        while True:
            name = ts.ident()
            ts.expect("=")
            assigns.append((name, _parse_expr(ts)))
            if ts.peek() == ",":
                ts.next()
                continue
            break
        guard = None
        if ts.peek() == "when":
            ts.next()
            guard = _parse_pred(ts)
        return AtomicStmt(tuple(assigns), guard)
    if kw == "while":
        pred = _parse_pred(ts)
        return WhileStmt(pred, _parse_block(ts))
    if kw == "if":
        pred = _parse_pred(ts)
        then = _parse_block(ts)
        els: tuple = ()
        if ts.peek() == "else":
            ts.next()
            els = _parse_block(ts)
        return IfStmt(pred, then, els)
    raise ProgramParseError(f"unknown statement keyword {kw!r}")


def _parse_block(ts: _Tokens) -> tuple:
    ts.expect("{")
    stmts: list[Stmt] = []
    while True:
        tok = ts.peek()
        if tok is None:
            raise ProgramParseError("unterminated block")
        if tok == "}":
            ts.next()
            return tuple(stmts)
        if tok == ";":
            ts.next()
            continue
        stmts.append(_parse_stmt(ts))


def parse_program(text: str) -> Program:
    ts = _Tokens(text)
    phases: list[tuple] = []
    loose: list[tuple] = []  # bare threads collect into one implicit phase
    while ts.peek() is not None:
        kw = ts.next()
        if kw == "phase":
            if loose:
                phases.append(tuple(loose))
                loose = []
            ts.expect("{")
            threads: list[tuple] = []
            while ts.peek() != "}":
                if ts.peek() is None:
                    raise ProgramParseError("unterminated phase block")
                ts.expect("thread")
                threads.append(_parse_block(ts))
            ts.next()
            if not threads:
                raise ProgramParseError("empty phase")
            phases.append(tuple(threads))
        elif kw == "thread":
            loose.append(_parse_block(ts))
        else:
            raise ProgramParseError(f"expected 'phase' or 'thread', got {kw!r}")
    if loose:
        phases.append(tuple(loose))
    if not phases:
        raise ProgramParseError("program has no thread")
    return Program(tuple(phases))


# ---------------------------------------------------------------------------
# Rendering (round-trips through the parser)
# ---------------------------------------------------------------------------


def _render_cell(cell: tuple) -> str:
    if len(cell) == 1:
        return f"Q.{cell[0]}"
    return f"Q.{cell[0]}[{cell[1]}]"


def render_stmt(s: Stmt) -> str:
    if isinstance(s, CallStmt):
        arg = s.arg.render() if s.arg is not None else ""
        head = f"call {s.target} = Q." if s.target else "call Q."
        return f"{head}{s.method}({arg})"
    if isinstance(s, ReadCellStmt):
        return f"read {s.target} <- {_render_cell(s.cell)}"
    if isinstance(s, WriteCellStmt):
        return f"write {_render_cell(s.cell)} <- {s.expr.render()}"
    if isinstance(s, AssignStmt):
        return f"set {s.target} = {s.expr.render()}"
    if isinstance(s, AtomicStmt):
        body = ", ".join(f"{n} = {e.render()}" for n, e in s.assigns)
        return f"atomic {body}" + (f" when {s.guard.render()}" if s.guard else "")
    if isinstance(s, WhileStmt):
        inner = " ; ".join(render_stmt(x) for x in s.body)
        return f"while {s.pred.render()} {{ {inner} }}"
    if isinstance(s, IfStmt):
        inner = " ; ".join(render_stmt(x) for x in s.then)
        out = f"if {s.pred.render()} {{ {inner} }}"
        if s.els:
            out += " else { " + " ; ".join(render_stmt(x) for x in s.els) + " }"
        return out
    raise TypeError(f"not a statement: {s!r}")


def render_program(p: Program) -> str:
    lines: list[str] = []
    for phase in p.phases:
        lines.append("phase {")
        for thread in phase:
            lines.append("  thread { " + " ; ".join(render_stmt(s) for s in thread) + " }")
        lines.append("}")
    return "\n".join(lines) + "\n"
