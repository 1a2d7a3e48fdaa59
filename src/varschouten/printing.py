"""Deterministic pretty-printing, plain text and LaTeX.

Terms are sorted by b-degree, then odd word, even powers and base powers,
with variables compared as the ints they are: int order of JetVariable is
the canonical variable order (kind, slot, fiber, |sigma|, count row), the
same order the algebra stores words and factors in, and so the printed order.
The algebra stores a power as a run of equal factors; each run prints as one
power (q*q*q_x as q^2*q_x), and the sort key compares (factor, exponent)
pairs, so q*q_x*b sorts before q^2*b.
Derivative suffixes read the counts with algebra._count.  Odd factors are
stored ascending with the reordering sign folded into the coefficient; for
display, a term whose coefficient is negative is shown with its odd word
reversed whenever the reversal is an odd permutation, so e.g. the canonical
-2*x^3*b*b_xxx prints as 2*x^3*b_xxx*b.  parse(print(f)) returns f either way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .algebra import BKIND, QKIND, DiffPolynomial, JetVariable, Monomial, _count


def _suffix_plain(v: JetVariable, n: int) -> str:
    if n == 1:
        suffix = "x" * _count(v, 1)
    else:
        suffix = "".join(f"x{dim}" * _count(v, dim) for dim in range(1, n + 1))
    return "_" + suffix if suffix else ""


def _var_plain(v: JetVariable, g) -> str:
    suffix = _suffix_plain(v, g.n)
    if v.kind == QKIND:
        return ("q" if g.m == 1 else f"q{v.fiber}") + suffix
    if v.kind == BKIND:
        return ("b" if g.m == 1 else f"b{v.fiber}") + suffix
    head = f"p{v.slot}" if g.m == 1 else f"p{v.slot}.{v.fiber}"
    return head + suffix


def _suffix_latex(v: JetVariable, n: int) -> str:
    if n == 1:
        return "x" * _count(v, 1)
    return "".join(f"x_{{{dim}}}" * _count(v, dim) for dim in range(1, n + 1))


def _var_latex(v: JetVariable, g) -> str:
    deriv = _suffix_latex(v, g.n)
    if v.kind == QKIND:
        head = "q" if g.m == 1 else f"q^{{{v.fiber}}}"
        return head + (f"_{{{deriv}}}" if deriv else "")
    if v.kind == BKIND:
        if g.m == 1:
            return "b" + (f"_{{{deriv}}}" if deriv else "")
        sub = f"{v.fiber},{deriv}" if deriv else f"{v.fiber}"
        return f"b_{{{sub}}}"
    head = f"p^{{{v.slot}}}"
    if g.m == 1:
        return head + (f"_{{{deriv}}}" if deriv else "")
    sub = f"{v.fiber},{deriv}" if deriv else f"{v.fiber}"
    return head + f"_{{{sub}}}"


def _coeff_plain(c: Fraction) -> str:
    return str(c)


def _coeff_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return rf"\frac{{{c.numerator}}}{{{c.denominator}}}"


def _display_word(coeff: Fraction, odd: tuple) -> tuple[Fraction, tuple]:
    """Reverse the odd word when doing so makes the shown coefficient positive."""
    k = len(odd)
    if coeff < 0 and (k * (k - 1) // 2) % 2 == 1:
        return -coeff, tuple(reversed(odd))
    return coeff, odd


def _powers(factors: tuple) -> tuple:
    """A sorted factor tuple as (factor, exponent) pairs, one per run."""
    return tuple([(v, len(list(run))) for v, run in groupby(factors)]) if factors else ()


def _term_pieces(base: tuple, even: tuple, g, latex: bool) -> list[str]:
    """Base and even factors of a term, from their (factor, exponent) pairs."""
    pieces = []
    for dim, power in base:
        name = "x" if g.n == 1 else (f"x_{{{dim}}}" if latex else f"x{dim}")
        if power == 1:
            pieces.append(name)
        else:
            pieces.append(f"{name}^{{{power}}}" if latex else f"{name}^{power}")
    fmt = _var_latex if latex else _var_plain
    for v, count in even:
        name = fmt(v, g)
        if count == 1:
            pieces.append(name)
        else:
            pieces.append(f"{name}^{{{count}}}" if latex else f"{name}^{count}")
    return pieces


def _mono_key(m: Monomial):
    return (m.b_degree, m.odd, _powers(m.even), _powers(m.base))


def format_polynomial(f: DiffPolynomial, latex: bool = False) -> str:
    if f.is_zero:
        return "0"
    g = f.geometry
    sep = r"\," if latex else "*"
    fmt_var = _var_latex if latex else _var_plain
    fmt_coeff = _coeff_latex if latex else _coeff_plain
    out = []
    for (_, _, even, base), m in sorted([(_mono_key(m), m) for m in f.terms]):
        coeff, odd = _display_word(f.terms[m], m.odd)
        pieces = _term_pieces(base, even, g, latex) + [fmt_var(v, g) for v in odd]
        mag = fmt_coeff(abs(coeff))
        if not pieces:
            body = mag
        elif mag == "1":
            body = sep.join(pieces)
        else:
            body = sep.join([mag] + pieces)
        if not out:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)
