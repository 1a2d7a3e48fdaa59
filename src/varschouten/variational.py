"""Variational derivatives, exactness of densities, and functionals.

The Euler operator used throughout is

    delta f / delta u^alpha = sum_sigma (-1)^|sigma| D_sigma ( d f / d u^alpha_sigma )

with the partial taken on the requested side for odd families.  It annihilates
total divergences; over R^n with polynomial coefficients the converse holds as
well (the homotopy of the variational complex preserves polynomiality, and a
pure base-variable polynomial is always a divergence), so a density is exact
iff every fiber Euler operator vanishes.  That is the equality test on
functionals.

The criterion is linear and respects a grading that D_i preserves.  Give a
monomial x^a * prod u_sigma its family word (the families of its factors)
and its weight sum(sigma) - a in Z^n.  D_i keeps the word and adds e_i to
the weight; the Euler operator of u removes u from the word and keeps the
weight.  So a density is exact iff each of its graded pieces is, and
is_exact decides one piece at a time, smallest first.  algebra._pieces keys
the pieces by one int that packs the word's family codes and the weight; D_i
adds a fixed step to that key, so the coarser pieces keep the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BKIND,
    LEFT,
    PKIND,
    QKIND,
    DiffPolynomial,
    DomainError,
    Geometry,
    GeometryMismatch,
    Monomial,
    _add_term,
    _euler,
    _family,
    _gradient,
    _integral,
    _jet,
    _pieces,
    _split_jet,
)


def var_derivative(
    f: DiffPolynomial, kind: int, fiber: int, slot: int = 0, side: str = LEFT
) -> DiffPolynomial:
    """Euler operator of one variable family, read from f's gradient."""
    parts = _gradient(f.terms, side).get(_family(kind, fiber, slot), {})
    return DiffPolynomial(f.geometry, _euler(parts))


def _euler_fibers(grad: dict, g: Geometry, kind: int) -> tuple[DiffPolynomial, ...]:
    """delta/delta u^a for a = 1..m, u the q or b family of kind, from (and consuming) one gradient."""
    return tuple(DiffPolynomial(g, _euler(grad.get(_family(kind, a), {}))) for a in range(1, g.m + 1))


def var_q(f: DiffPolynomial, fiber: int) -> DiffPolynomial:
    """delta f / delta q^fiber; left and right coincide for even variables."""
    return var_derivative(f, QKIND, fiber)


def var_b(f: DiffPolynomial, fiber: int, side: str = LEFT) -> DiffPolynomial:
    return var_derivative(f, BKIND, fiber, side=side)


def var_p(f: DiffPolynomial, slot: int, fiber: int) -> DiffPolynomial:
    return var_derivative(f, PKIND, fiber, slot=slot)


def is_exact(f: DiffPolynomial) -> bool:
    """True iff f is a total divergence (plus a pure base-variable part).

    Decided on f with its denominators cleared, which keeps the verdict, one
    graded piece at a time, smallest first (algebra._pieces: a piece is keyed
    by its family word and its weight sum(sigma) - a, packed into one int).
    D_i keeps the word and adds e_i to the weight; the Euler operator of u
    removes u from the word and keeps the weight.  So f = sum_i D_i(P^i) holds
    iff it holds piece by piece, and f is exact iff every piece is: the first
    Euler operator of a piece that survives decides False.
    """
    for piece in _pieces(_integral(f)[0].terms):
        grad = _gradient(piece, LEFT)  # the right Euler operator is +-(left)
        if any(_euler(grad[family]) for family in sorted(grad)):
            return False
    return True


@dataclass(frozen=True, eq=False)
class Functional:
    """A density modulo total divergences.  Equality is equivalence of classes."""

    density: DiffPolynomial

    @property
    def geometry(self) -> Geometry:
        return self.density.geometry

    def __eq__(self, other) -> bool:
        if not isinstance(other, Functional):
            return NotImplemented
        return equivalent(self, other)

    @property
    def is_zero(self) -> bool:
        return is_exact(self.density)

    def __add__(self, other: "Functional") -> "Functional":
        return Functional(self.density + other.density)

    def __sub__(self, other: "Functional") -> "Functional":
        return Functional(self.density - other.density)

    def __neg__(self) -> "Functional":
        return Functional(-self.density)

    def scaled(self, c) -> "Functional":
        return Functional(self.density.scaled(c))


def equivalent(a: Functional | DiffPolynomial, b: Functional | DiffPolynomial) -> bool:
    da = a.density if isinstance(a, Functional) else a
    db = b.density if isinstance(b, Functional) else b
    if da.geometry != db.geometry:
        raise GeometryMismatch("cannot compare functionals over different geometries")
    return is_exact(da - db)


def normalize_to_bA_form(f: Functional | DiffPolynomial) -> DiffPolynomial:
    """An equivalent density whose every monomial's minimal odd factor is underived.

    Integration by parts in closed form: int D_sigma(b_a)*R = (-1)^|sigma| int b_a*D_sigma(R).
    Monomials are grouped by their leading (minimal) odd factor w = D_sigma(b_a), and the
    rests R of one group take one _jet call.  Derivatives only raise factors, so b_a stays
    the strict minimum of every word it is prepended to.  The map is linear, so it runs on
    the cleared int coefficients and divides once at the end.
    """
    work = f.density if isinstance(f, Functional) else f
    g = work.geometry
    deg = work.homogeneous_degree()
    if deg is None:
        return work
    if deg < 1:
        raise DomainError("bA-form normalization needs b-degree at least 1")
    work, den = _integral(work)
    groups: dict = {}
    for m, c in work.terms.items():
        groups.setdefault(m.odd[0], {})[m._replace(odd=m.odd[1:])] = c
    out: dict[Monomial, int] = {}
    for w, rests in groups.items():
        b, ix, order = _split_jet(w)
        for r, c in _jet({0: rests}, ix).items():
            _add_term(out, Monomial(r.base, r.even, (b, *r.odd)), -c if order % 2 else c)
    return DiffPolynomial(g, out).scaled(Fraction(1, den))
