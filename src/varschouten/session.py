"""Plain-text session files: a geometry line, named densities, slot aliases.

Format, one declaration per line, `#` starts a comment:

    geometry 1 1 4
    let xi = b*b_x
    let eta = b*x^3*q_xx
    slot first = 1

The geometry line must appear exactly once and before any let/slot line;
every name must be declared before use.  Names that would shadow a variable
token (q2, b_x, p1, x, ...) are rejected.  The `let` lines of one file share
one budget of term pairs (10000, as for one expression), so a file of many large
`let`s is refused as early as one large expression would be.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .algebra import DiffPolynomial, EngineError, Geometry
from .parser import ParseError, _Budget, _ExprParser, parse_polynomial


@dataclass
class Session:
    geometry: Geometry
    names: dict[str, DiffPolynomial] = field(default_factory=dict)
    slots: dict[str, int] = field(default_factory=dict)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _shadows_builtin(name: str, g: Geometry) -> bool:
    try:
        _ExprParser(name, g).parse()
        return True
    except ParseError as pe:
        # bounds errors still mean the token has variable shape
        return "unknown name" not in pe.message


def load_session(text: str) -> Session:
    session = None
    budget = _Budget("session file")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head = line.split(None, 1)[0]
        if head == "geometry":
            if session is not None:
                raise ParseError("geometry declared twice", lineno, 1)
            parts = line.split()
            if len(parts) != 4:
                raise ParseError("expected: geometry <n> <m> <s>", lineno, 1)
            try:
                n, m, s = (int(p) for p in parts[1:])
                session = Session(Geometry(n, m, s))
            except (ValueError, EngineError) as exc:
                raise ParseError(f"bad geometry: {exc}", lineno, 1) from None
            continue
        if session is None:
            raise ParseError("geometry must be declared before other lines", lineno, 1)
        if head == "let":
            _load_let(session, line, lineno, budget)
        elif head == "slot":
            _load_slot(session, line, lineno)
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, 1)
    if session is None:
        raise ParseError("session file declares no geometry", 1, 1)
    return session


def _binding(session: Session, line: str, lineno: int, what: str) -> tuple[str, str, int]:
    """Split `what <name> = <rest>` and check the name: (name, rest, column of rest)."""
    m = re.match(rf"{what}\s+([^=\s]+)\s*=\s*", line)
    if m is None:
        raise ParseError(f"expected: {what} <name> = <...>", lineno, 1)
    name, col = m.group(1), m.start(1) + 1
    if not _NAME_RE.match(name):
        raise ParseError(f"bad name {name!r}", lineno, col)
    if name in session.names or name in session.slots:
        raise ParseError(f"name {name!r} already declared", lineno, col)
    if _shadows_builtin(name, session.geometry):
        raise ParseError(f"name {name!r} shadows a variable token", lineno, col)
    return name, line[m.end() :], m.end() + 1


def _load_let(session: Session, line: str, lineno: int, budget: _Budget):
    name, expr, col0 = _binding(session, line, lineno, "let")
    try:
        session.names[name] = parse_polynomial(expr, session.geometry, session.names, budget)
    except ParseError as pe:
        raise ParseError(pe.message, lineno, col0 + pe.col - 1) from None


def _load_slot(session: Session, line: str, lineno: int):
    name, rest, col0 = _binding(session, line, lineno, "slot")
    rest = rest.strip()
    if not rest.isdecimal():
        raise ParseError("slot alias needs an integer slot number", lineno, col0)
    j = int(rest)
    if not 1 <= j <= session.geometry.s:
        raise ParseError(
            f"slot {j} out of range 1..{session.geometry.s}", lineno, col0
        )
    session.slots[name] = j
