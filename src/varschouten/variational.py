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
    MultiIndex,
    _add_term,
    _derive_into,
    _gradient,
    _integral,
)


def var_derivative(
    f: DiffPolynomial, kind: int, fiber: int, slot: int = 0, side: str = LEFT
) -> DiffPolynomial:
    """Euler operator of one variable family, read from f's gradient."""
    return DiffPolynomial(f.geometry, _euler(_gradient(f.terms, side), kind, fiber, slot))


def _euler(grad: dict, kind: int, fiber: int, slot: int) -> dict:
    """sum_sigma (-D)_sigma grad[u_sigma] over the family u = (kind, fiber, slot):
    down the prefix tree of the jet memo, highest order first, the part at sigma
    moves to sigma - e_d (d the last dimension of sigma) as -D_d of itself.
    Horner's scheme in every dimension.  Consumes grad's dicts of the family.
    """
    family = (kind, slot, fiber)
    parts = {v.index: part for v, part in grad.items() if v[:3] == family}
    for order in range(max((ix.order for ix in parts), default=0), 0, -1):
        for ix in [ix for ix in parts if ix.order == order]:
            d = len(ix.row)
            _derive_into(parts.setdefault(ix.minus(d), {}), parts.pop(ix), d, -1)
    return parts.get(MultiIndex(), {})


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
    grad = _gradient(f.terms, LEFT)  # for odd families the right Euler operator is +-(left)
    families = sorted({(v.kind, v.fiber, v.slot) for v in grad})
    return not any(_euler(grad, *family) for family in families)


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
            w = m.odd[0]
            if not w.index.order:
                _add_term(done, m, c)
                continue
            dim = w.index.counts[0][0]
            lowered = m._replace(odd=(w._replace(index=w.index.minus(dim)),) + m.odd[1:])
            _add_term(nxt, m, c)
            _derive_into(nxt, {lowered: c}, dim, -1)
        terms = nxt
    return DiffPolynomial(g, done).scaled(Fraction(1, den))
