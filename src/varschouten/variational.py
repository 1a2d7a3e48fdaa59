"""Variational derivatives, exactness of densities, and functionals.

The Euler operator used throughout is

    delta f / delta u^alpha = sum_sigma (-1)^|sigma| D_sigma ( d f / d u^alpha_sigma )

with the partial taken on the requested side for odd families.  It annihilates
total divergences; over R^n with polynomial coefficients the converse holds as
well (the homotopy of the variational complex preserves polynomiality, and a
pure base-variable polynomial is always a divergence), so a density is exact
iff every fiber Euler operator vanishes.  That is the equality test on
functionals.
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
    _by_family,
    _derive_into,
    _euler,
    _family,
    _gradient,
    _integral,
    _lower_first,
)


def var_derivative(
    f: DiffPolynomial, kind: int, fiber: int, slot: int = 0, side: str = LEFT
) -> DiffPolynomial:
    """Euler operator of one variable family, read from f's gradient."""
    parts = _by_family(_gradient(f.terms, side)).get(_family(kind, fiber, slot), {})
    return DiffPolynomial(f.geometry, _euler(parts))


def _euler_fibers(grad: dict, g: Geometry, kind: int) -> tuple[DiffPolynomial, ...]:
    """delta/delta u^a for a = 1..m, u the q or b family of kind, all read from one gradient."""
    parts = _by_family(grad)
    return tuple(DiffPolynomial(g, _euler(parts.get(_family(kind, a), {}))) for a in range(1, g.m + 1))


def var_q(f: DiffPolynomial, fiber: int) -> DiffPolynomial:
    """delta f / delta q^fiber; left and right coincide for even variables."""
    return var_derivative(f, QKIND, fiber)


def var_b(f: DiffPolynomial, fiber: int, side: str = LEFT) -> DiffPolynomial:
    return var_derivative(f, BKIND, fiber, side=side)


def var_p(f: DiffPolynomial, slot: int, fiber: int) -> DiffPolynomial:
    return var_derivative(f, PKIND, fiber, slot=slot)


def is_exact(f: DiffPolynomial) -> bool:
    """True iff f is a total divergence (plus a pure base-variable part);
    decided on f with its denominators cleared, which keeps the verdict."""
    f = _integral(f)[0]
    parts = _by_family(_gradient(f.terms, LEFT))  # the right Euler operator is +-(left)
    return not any(_euler(parts[family]) for family in sorted(parts))


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
    """Integrate by parts until every monomial's minimal odd factor is underived.

    Each step rewrites one monomial c*M whose leading (minimal) odd factor w
    carries a derivative: with w = D_i(w'), subtract the total derivative of
    the monomial with w replaced by w'.  Since w is the strict minimum of the
    word, w' is fresh, and every surviving monomial's leading-factor order
    drops by one, so the loop terminates.  The loop is linear, so it runs on
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
    terms, done = work.terms, {}
    guard = work.max_order() + 2
    while terms:
        guard -= 1
        if guard < 0:
            raise DomainError("bA-form normalization failed to terminate")
        nxt: dict[Monomial, int] = {}
        for m, c in terms.items():
            low = _lower_first(m.odd[0])
            if low is None:
                _add_term(done, m, c)
                continue
            dim, w = low
            lowered = m._replace(odd=(w,) + m.odd[1:])
            _add_term(nxt, m, c)
            _derive_into(nxt, {lowered: c}, dim, -1)
        terms = nxt
    return DiffPolynomial(g, done).scaled(Fraction(1, den))
