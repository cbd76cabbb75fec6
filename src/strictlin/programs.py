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

Lexical rules: a token is a literal, a name, or an operator, and runs of
whitespace separate tokens.  Integers (literals, offsets, cell indices) are
read as in history files: ``0``, or ASCII digits with no leading zero after
an optional ``-``, so ``05`` is an error.  Integer-shaped text keeps its
sign: ``x -1`` is ``x`` then ``-1``.  A symbol may contain ``#``; anywhere
else ``#`` starts a comment that runs to the end of the line.  Any other
character that is not part of a token is an error.  The literals ``null``,
``EMPTY`` and ``unit`` and the keywords are no names.  Blocks nest at most
``MAX_NESTING`` deep in one thread, its own body included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

from .values import SPECIALS, Value, parse_int, parse_value, render_value

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


@dataclass(frozen=True)
class Program:
    phases: tuple  # of phases, each a tuple of threads, each a tuple of Stmt


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ProgramParseError(ValueError):
    pass


# Every character of a program falls in exactly one group, tried in order,
# so the group that matched is the token's kind and nothing is skipped.
_TOKEN = re.compile(r"""
    (?P<lit>'[^'\s]+'|-?[0-9]+)        # symbol, or integer-shaped text
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>==|!=|<-|[{}()\[\].,;=+\-])
  | (?P<skip>\s+|\#[^\r\n]*)         # whitespace or a comment
  | (?P<bad>.)
""", re.VERBOSE)

_KEYWORDS = {"phase", "thread", "call", "read", "write", "set", "atomic",
             "while", "if", "else", "when"}

# blocks open at once in one thread, its own body included; parsing and
# compiling a block recurse into the blocks inside it
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text: str) -> None:
        self.toks: list[tuple[str, str, int]] = []  # (kind, text, line)
        self.line = 1
        for m in _TOKEN.finditer(text):
            kind, tok = m.lastgroup, m.group()
            if kind == "skip":
                self.line += tok.count("\n")
            elif kind == "bad":
                self.fail(f"unexpected character {tok!r}")
            else:
                self.toks.append((kind, tok, self.line))
        self.i = 0
        self.depth = 0  # blocks open

    def fail(self, msg: str) -> NoReturn:
        raise ProgramParseError(f"line {self.line}: {msg}")

    def peek(self) -> Optional[str]:
        return self.toks[self.i][1] if self.i < len(self.toks) else None

    def take(self) -> tuple[str, str]:
        if self.i == len(self.toks):
            self.fail("unexpected end of program")
        kind, tok, self.line = self.toks[self.i]
        self.i += 1
        return kind, tok

    def next(self) -> str:
        return self.take()[1]

    def accept(self, tok: str) -> bool:
        """Consume the next token if it is ``tok``."""
        if self.peek() != tok:
            return False
        self.take()
        return True

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            self.fail(f"expected {tok!r}, got {got!r}")

    def ident(self) -> str:
        kind, tok = self.take()
        if kind != "name" or tok in _KEYWORDS or tok in SPECIALS:
            self.fail(f"expected identifier, got {tok!r}")
        return tok

    def integer(self, what: str) -> int:
        tok = self.next()
        try:
            return parse_int(tok)
        except ValueError:
            self.fail(f"expected {what}, got {tok!r}")


def _parse_expr(ts: _Tokens) -> Expr:
    kind, tok = ts.take()
    if kind == "lit" or tok in SPECIALS:
        try:
            return Lit(parse_value(tok))
        except ValueError as exc:  # integer-shaped text that is no integer
            ts.fail(str(exc))
    if kind != "name" or tok in _KEYWORDS:
        ts.fail(f"expected expression, got {tok!r}")
    if ts.peek() in ("+", "-"):
        op = ts.next()
        return Arith(tok, op, ts.integer(f"integer after {op!r}"))
    return Var(tok)


def _parse_pred(ts: _Tokens) -> Cmp:
    lhs = _parse_expr(ts)
    op = ts.next()
    if op not in ("==", "!="):
        ts.fail(f"expected comparison, got {op!r}")
    return Cmp(lhs, op, _parse_expr(ts))


def _parse_assign(ts: _Tokens) -> tuple[str, Expr]:
    target = ts.ident()
    ts.expect("=")
    return target, _parse_expr(ts)


def _parse_cell(ts: _Tokens) -> tuple:
    ts.ident()  # object name, single object per program
    ts.expect(".")
    field = ts.ident()
    if not ts.accept("["):
        return (field,)
    idx = ts.integer("cell index")
    ts.expect("]")
    return (field, idx)


def _parse_stmt(ts: _Tokens) -> Stmt:
    kw = ts.next()
    if kw == "call":
        target: Optional[str] = ts.ident()
        if ts.accept("="):
            ts.ident()  # object name
        else:
            target = None  # it was the object name
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
        return AssignStmt(*_parse_assign(ts))
    if kw == "atomic":
        assigns = [_parse_assign(ts)]
        while ts.accept(","):
            assigns.append(_parse_assign(ts))
        return AtomicStmt(tuple(assigns), _parse_pred(ts) if ts.accept("when") else None)
    if kw == "while":
        pred = _parse_pred(ts)
        return WhileStmt(pred, _parse_block(ts))
    if kw == "if":
        pred = _parse_pred(ts)
        then = _parse_block(ts)
        return IfStmt(pred, then, _parse_block(ts) if ts.accept("else") else ())
    ts.fail(f"unknown statement keyword {kw!r}")


def _parse_block(ts: _Tokens) -> tuple:
    ts.expect("{")
    ts.depth += 1
    if ts.depth > MAX_NESTING:
        ts.fail(f"blocks nested more than {MAX_NESTING} deep")
    stmts: list[Stmt] = []
    while not ts.accept("}"):  # at the end of the text, take() fails
        if not ts.accept(";"):
            stmts.append(_parse_stmt(ts))
    ts.depth -= 1
    return tuple(stmts)


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
            while not ts.accept("}"):
                ts.expect("thread")
                threads.append(_parse_block(ts))
            if not threads:
                ts.fail("empty phase")
            phases.append(tuple(threads))
        elif kw == "thread":
            loose.append(_parse_block(ts))
        else:
            ts.fail(f"expected 'phase' or 'thread', got {kw!r}")
    if loose:
        phases.append(tuple(loose))
    if not phases:
        raise ProgramParseError("program has no thread")
    return Program(tuple(phases))
