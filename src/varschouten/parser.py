"""Expression parser for jet-space differential polynomials.

Grammar, in words: an expression is a signed sum of terms; a term is a
product of factors joined by `*` (juxtaposition is rejected so derivative
suffixes like `b_x1x2` stay unambiguous); a factor is a rational literal,
a variable token, a bound name, or a parenthesized expression, optionally
raised to a nonnegative integer power with `^`.  Exponents above 64,
parentheses nested more than 100 deep, more than 63 derivatives in one base
dimension of a jet token, a product whose terms could carry more than 1024
factors, counted with multiplicity, and products that together multiply
more than 10000 term pairs in one expression (each `*`, and each step of a
`^`, spends the product of its operands' term counts) are parse errors.

Variable tokens:
    x           the base variable (n = 1), or x1..xn for n > 1
    q, q2       fiber coordinates; the bare alias is only valid when m = 1
    b, b2       odd covector coordinates, same fiber convention
    p1, p1.2    covector slot variables, slot first, then .fiber when m > 1
    _xx, _x1x2  derivative suffix on any jet token

Powers on jet variables are accepted (q_x^2 means q_x*q_x); an odd square
canonicalizes to zero rather than erroring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    BKIND,
    PKIND,
    QKIND,
    DiffPolynomial,
    Geometry,
    JetVariable,
    midx,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # "num", "name", "op", "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>[-+*^()])"
)

_JET_RE = re.compile(r"(?:([qb])([0-9]*)|p([0-9]+)(?:\.([0-9]+))?)(?:_([A-Za-z0-9]*))?$")
_BASE_RE = re.compile(r"x([0-9]+)$")

_KINDS = {"q": QKIND, "b": BKIND}

# Fixed limits on hostile input.  Each level of parentheses costs four
# interpreter frames, so 100 levels stay far below the recursion limit; the
# exponent cap keeps `q^99999999999` from multiplying without end; the budget
# of term pairs per expression (a few tens of milliseconds of work) keeps a
# small exponent on a long sum, or a long chain of products, from doing so; a
# jet order per base dimension of 63 stays eight times below the 511 of the
# jet-variable layout, room for the total derivatives the engine takes itself.
# A monomial stores one entry per factor, so nested powers such as
# ((q^64)^64)^64 are capped by the number of factors in one term.
_MAX_NESTING = 100
_MAX_EXPONENT = 64
_MAX_PARSE_PAIRS = 10_000
_MAX_JET_ORDER = 63
_MAX_FACTORS = 1024


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line, col = _line_col(text, pos)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def _factors(p: DiffPolynomial) -> int:
    """The most factors, counted with multiplicity, in one term of p."""
    return max([len(b) + len(e) + len(o) for b, e, o in p.terms]) if p.terms else 0


@dataclass
class _Budget:
    """Term pairs still to multiply, and whose budget they are: one expression's,
    or a whole session file's, shared by its `let` lines."""

    owner: str = "expression"
    pairs_left: int = _MAX_PARSE_PAIRS


class _ExprParser:
    def __init__(self, text: str, geometry: Geometry, names=None, budget: _Budget | None = None):
        self.text = text
        self.g = geometry
        self.names = names or {}
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0
        self.budget = budget or _Budget()

    def _err(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.tokens[self.i].pos
        line, col = _line_col(self.text, pos)
        raise ParseError(message, line, col)

    def _peek(self) -> Token:
        return self.tokens[self.i]

    def _take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> DiffPolynomial:
        value = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            self._err(f"unexpected {tok.text!r} after expression")
        return value

    def _expr(self) -> DiffPolynomial:
        sign = 1
        if self._peek().kind == "op" and self._peek().text in "+-":
            if self._take().text == "-":
                sign = -1
        value = self._term()
        if sign < 0:
            value = -value
        while self._peek().kind == "op" and self._peek().text in "+-":
            op = self._take().text
            term = self._term()
            value = value + term if op == "+" else value - term
        return value

    def _product(self, a: DiffPolynomial, b: DiffPolynomial, op: Token) -> DiffPolynomial:
        self.budget.pairs_left -= len(a.terms) * len(b.terms)
        if self.budget.pairs_left < 0:
            self._err(
                f"product of {len(a.terms)} by {len(b.terms)} terms exceeds the "
                f"{self.budget.owner}'s budget of {_MAX_PARSE_PAIRS} term pairs",
                op.pos,
            )
        fa, fb = _factors(a), _factors(b)
        if fa + fb > _MAX_FACTORS:
            self._err(
                f"product of terms with {fa} and {fb} factors exceeds the limit of "
                f"{_MAX_FACTORS} factors in one term",
                op.pos,
            )
        return a * b

    def _term(self) -> DiffPolynomial:
        value = self._power()
        while self._peek().kind == "op" and self._peek().text == "*":
            op = self._take()
            value = self._product(value, self._power(), op)
        # adjacent factors without an operator read as juxtaposition
        nxt = self._peek()
        if nxt.kind in ("num", "name") or (nxt.kind == "op" and nxt.text == "("):
            self._err("missing operator before this factor (use explicit '*')")
        return value

    def _power(self) -> DiffPolynomial:
        value = self._atom()
        if self._peek().kind == "op" and self._peek().text == "^":
            op = self._take()
            tok = self._peek()
            if tok.kind != "num" or "/" in tok.text:
                self._err("exponent must be a nonnegative integer")
            self._take()
            exp = int(tok.text)
            if exp > _MAX_EXPONENT:
                self._err(f"exponent {exp} exceeds the limit {_MAX_EXPONENT}", tok.pos)
            result = DiffPolynomial.const(self.g, 1)
            for _ in range(exp):
                result = self._product(result, value, op)
            return result
        return value

    def _atom(self) -> DiffPolynomial:
        tok = self._peek()
        if tok.kind == "num":
            self._take()
            try:
                value = Fraction(tok.text)
            except ZeroDivisionError:
                self._err("zero denominator in rational literal", tok.pos)
            return DiffPolynomial.const(self.g, value)
        if tok.kind == "name":
            self._take()
            return self._variable(tok)
        if tok.kind == "op" and tok.text == "(":
            if self.depth == _MAX_NESTING:
                self._err(f"parentheses nested deeper than {_MAX_NESTING} levels", tok.pos)
            self.depth += 1
            self._take()
            value = self._expr()
            closer = self._peek()
            if closer.kind != "op" or closer.text != ")":
                self._err("expected ')'", closer.pos)
            self._take()
            self.depth -= 1
            return value
        if tok.kind == "end":
            self._err("unexpected end of input")
        self._err(f"unexpected {tok.text!r}")

    def _variable(self, tok: Token) -> DiffPolynomial:
        name, g = tok.text, self.g
        if name in self.names:
            bound = self.names[name]
            if bound.geometry != g:
                self._err(f"name {name!r} was bound over a different geometry", tok.pos)
            return bound

        if name == "x":
            if g.n != 1:
                self._err("bare 'x' needs n = 1; use x1..x{n}".format(n=g.n), tok.pos)
            return DiffPolynomial.base(g, 1)
        m = _BASE_RE.match(name)
        if m and g.n > 1:
            dim = int(m.group(1))
            if not 1 <= dim <= g.n:
                self._err(f"base index {dim} out of range 1..{g.n}", tok.pos)
            return DiffPolynomial.base(g, dim)

        m = _JET_RE.match(name)
        if not m:
            self._err(f"unknown name {name!r}", tok.pos)
        letter, fiber_s, slot_s, slot_fiber_s, suffix = m.groups()
        if letter:
            kind, slot = _KINDS[letter], 0
        else:
            kind, slot, fiber_s = PKIND, int(slot_s), slot_fiber_s
            if not 1 <= slot <= g.s:
                self._err(f"covector slot {slot} out of range 1..{g.s}", tok.pos)
        fiber = self._fiber(fiber_s, tok, slot)
        dims = self._dims(suffix, tok)
        return DiffPolynomial.variable(g, JetVariable(kind, fiber, midx(*dims), slot))

    def _fiber(self, fiber_s: str | None, tok: Token, slot: int) -> int:
        """The fiber of a q or b token (slot 0) or of the slot variable p<slot>."""
        g = self.g
        if not fiber_s:
            if g.m != 1:
                self._err(
                    f"p{slot} needs a fiber with m = {g.m}: p{slot}.<fiber>"
                    if slot else f"fiber index required when m = {g.m}",
                    tok.pos,
                )
            return 1
        fiber = int(fiber_s)
        if not 1 <= fiber <= g.m:
            self._err(f"fiber index {fiber} out of range 1..{g.m}", tok.pos)
        return fiber

    def _dims(self, suffix: str | None, tok: Token) -> tuple[int, ...]:
        """Derivative letters to a dim sequence: 'x' letters when n = 1, x1..xn pairs otherwise."""
        if suffix is None:
            return ()
        g = self.g
        if g.n == 1:
            dims = (1,) * len(suffix)
            valid = set(suffix) == {"x"}
        else:
            dims = tuple(int(d) for d in re.findall(r"x([0-9]+)", suffix))
            valid = re.fullmatch(r"(?:x[0-9]+)+", suffix) and 1 <= min(dims) and max(dims) <= g.n
        if not valid:
            expected = "'x' letters" if g.n == 1 else "pairs like x1x1x2"
            self._err(f"bad derivative suffix {suffix!r}; expected {expected}", tok.pos)
        if any(dims.count(d) > _MAX_JET_ORDER for d in set(dims)):
            self._err(f"more than {_MAX_JET_ORDER} derivatives in one base dimension", tok.pos)
        return dims


def parse_polynomial(
    text: str,
    geometry: Geometry,
    names: dict[str, DiffPolynomial] | None = None,
    budget: _Budget | None = None,
) -> DiffPolynomial:
    """Parse one expression; budget defaults to a fresh one for this expression."""
    return _ExprParser(text, geometry, names, budget).parse()
