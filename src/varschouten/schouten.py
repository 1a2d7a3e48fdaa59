"""The variational Schouten bracket, computed three independent ways.

Density formula (the odd Poisson bracket):

    [[xi, eta]] = int sum_alpha [ (rdelta xi / delta q^alpha) (ldelta eta / delta b_alpha)
                                - (rdelta xi / delta b_alpha) (ldelta eta / delta q^alpha) ]

Evolutionary-field route: Q^xi = d_q with sections -rdelta xi/delta b plus
d_b with sections +rdelta xi/delta q, and [[xi, eta]] = int Q^xi(eta).

Recursive route: the bracket is pinned down by its fully inserted values,

    [[xi,eta]](p) = l/(k+l-1) [[xi, eta(p)]] + (-1)^(l-1) k/(k+l-1) [[xi(p), eta]],

bottoming out at [[H, phi]] = int d_phi(H) and [[phi, H]] = -int d_phi(H).
With eta(p) = (1/l) * (unscaled insertion sum), every step weighs
+-1/(k+l-1), so every leaf weighs +-1/(k+l-1)!.  Every leaf has one of two
shapes, (k, l) -> (0, 1) or (1, 0), and leaves of one shape differ only in
which slots went to xi and which to eta.  Renaming slots commutes with
insertion, D_i, partials and products, and from_slots turns a renaming pi of
the slots into its sign: from_slots(pi L) = sgn(pi) from_slots(L).  So each
shape's leaf is built once, on fixed chains of slots, and each path to it
adds sign * sgn(rename).  Swapping an adjacent xi-step and eta-step of a path
flips both its step sign (the parity of eta's degree) and sgn(rename) (one
transposition), so every path of a shape adds the same sign, that of the path
that inserts all of eta first.  The shapes' weights are therefore

    (0, 1):  (-1)^(C(l-1,2) + k(l-1)) C(k+l-1, k),
    (1, 0):  (-1)^(C(l,2) + (k-1)(l+1)) C(k+l-1, k-1), on -int d_phi(H).

A fully inserted chain is alternating in its slots, and field application
commutes with renaming them, so a leaf is the leaf of its arguments' orbit
representatives (multivector._chain_representatives) times the orbits'
sizes, k!(l-1)! for shape (0, 1) and (k-1)! l! for shape (1, 0).  Times the
binomials, both are (k+l-1)!, which cancels the leaves' 1/(k+l-1)!: each
shape's leaf of representatives enters the density with a plain sign, folded
into its H.  Every leaf term carries every slot once and from_slots is
linear, so the two leaves add into one term dict and from_slots runs once,
on the sum.  The route's inserted value is the evaluation of the published density on the
slots (multivector._evaluate_terms): the same polynomial, term for term, as
inserting along every path.

One application loop, _apply_into, serves the field route, the base case and
the recursion's leaves.

Every route is multilinear, so it clears its arguments' denominators once
(algebra._integral), computes and decides exactness in ints, and divides once.

SIGN CONVENTION (load-bearing): applying an evolutionary field multiplies the
transported section on the LEFT of the left partial derivative,

    d_phi(f) = sum_{alpha,sigma} D_sigma(phi^alpha) * (d^l f / d q^alpha_sigma),

and likewise for the b-directional part.  Right-multiplication would flip the
sign of every odd-section application and break the agreement between the
density formula and the field route.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    BKIND,
    QKIND,
    RIGHT,
    DiffPolynomial,
    DomainError,
    Geometry,
    _add_term,
    _family,
    _gradient,
    _integral,
    _jet,
    _mul_into,
)
from .multivector import Multivector, _chain_representatives, _check_slots, _evaluate_terms, from_slots
from .variational import Functional, _euler_fibers, is_exact


@dataclass(frozen=True)
class EvolutionaryField:
    """Graded evolutionary vector field with one section per fiber component.

    parity 0 acts evenly, parity 1 oddly; nonzero q-sections must have
    b-degree of that parity and nonzero b-sections the complementary one.
    """

    q_sections: tuple[DiffPolynomial, ...]
    b_sections: tuple[DiffPolynomial, ...]
    parity: int

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise DomainError("field parity must be 0 or 1")
        for sec in self.q_sections:
            for deg in {m.b_degree for m in sec.terms}:
                if deg % 2 != self.parity:
                    raise DomainError("q-section parity disagrees with field parity")
        for sec in self.b_sections:
            for deg in {m.b_degree for m in sec.terms}:
                if deg % 2 != (self.parity + 1) % 2:
                    raise DomainError("b-section parity disagrees with field parity")

    def apply(self, f: DiffPolynomial) -> DiffPolynomial:
        """Transported sections, multiplied on the left of the left partials."""
        out: dict = {}
        _apply_into(out, f, self.q_sections, self.b_sections)
        return DiffPolynomial(f.geometry, out)


def _apply_into(out: dict, f: DiffPolynomial, q_sections, b_sections) -> None:
    """Add sum_{kind,alpha,sigma} D_sigma(sections[alpha-1]) * d^l f / d kind^alpha_sigma
    into the term dict out, for both kinds from one gradient of f; each jet
    D_sigma(sec) is built once, from a shorter one.
    """
    parts = _gradient(f.terms)
    for kind, sections in ((QKIND, q_sections), (BKIND, b_sections)):
        for alpha, sec in enumerate(sections, 1):
            if sec.is_zero:
                continue
            f._same_geometry(sec)
            jets = {0: sec.terms}
            for ix, part in parts.get(_family(kind, alpha), {}).items():
                _mul_into(out, _jet(jets, ix), part)


def evolutionary_field(
    g: Geometry,
    q_sections=None,
    b_sections=None,
    parity: int = 0,
) -> EvolutionaryField:
    zero = DiffPolynomial.zero(g)
    qs = tuple(q_sections) if q_sections else (zero,) * g.m
    bs = tuple(b_sections) if b_sections else (zero,) * g.m
    if len(qs) != g.m or len(bs) != g.m:
        raise DomainError(f"expected {g.m} sections per direction")
    return EvolutionaryField(qs, bs, parity)


def q_field(xi: Multivector) -> EvolutionaryField:
    """The field Q^xi with q-sections -rdelta xi/delta b and b-sections rdelta xi/delta q."""
    g = xi.geometry
    grad = _gradient(xi.density.terms, RIGHT)  # q-partials do not depend on the side
    qs = tuple(-sec for sec in _euler_fibers(grad, g, BKIND))
    return EvolutionaryField(qs, _euler_fibers(grad, g, QKIND), (xi.degree - 1) % 2)


def graded_commutator(
    x: EvolutionaryField, y: EvolutionaryField, f: DiffPolynomial
) -> DiffPolynomial:
    """[X, Y](f) = X(Y(f)) - (-1)^(parity X * parity Y) Y(X(f))."""
    first = x.apply(y.apply(f))
    second = y.apply(x.apply(f))
    if (x.parity * y.parity) % 2:
        return first + second
    return first - second


@dataclass(frozen=True)
class BracketReport:
    """Outcome of a bracket computation.

    representative always holds the computed density; zero-class results are
    reported with zero=True and no degree, never as a degree-(k+l-1) object.
    inserted/slots are populated by the recursive route only.
    """

    representative: Functional
    method: str
    zero: bool
    degree: int | None
    result: Multivector | None
    inserted: Functional | None = None
    slots: tuple[int, ...] = ()


def schouten_density(f: DiffPolynomial, g: DiffPolynomial) -> DiffPolynomial:
    """The density formula; the factor order inside each product matters.
    Each argument is differentiated once, f on the right and g on the left;
    q-partials do not depend on the side."""
    if f.geometry != g.geometry:
        raise DomainError("bracket arguments live over different geometries")
    geo = f.geometry
    right, left = _gradient(f.terms, RIGHT), _gradient(g.terms)
    rq, rb = _euler_fibers(right, geo, QKIND), _euler_fibers(right, geo, BKIND)
    lq, lb = _euler_fibers(left, geo, QKIND), _euler_fibers(left, geo, BKIND)
    out: dict = {}
    for a in range(geo.m):
        _mul_into(out, rq[a].terms, lb[a].terms)
        _mul_into(out, {m: -c for m, c in rb[a].terms.items()}, lq[a].terms)
    return DiffPolynomial(geo, out)


def _report(density: DiffPolynomial, scale: Fraction, method: str, k: int, l: int) -> BracketReport:
    """Decide the class of a cleared density and publish density * scale."""
    zero = is_exact(density)
    density = density.scaled(scale)
    deg = None if zero else k + l - 1
    result = None if zero else Multivector(Functional(density), k + l - 1)
    return BracketReport(
        representative=Functional(density),
        method=method,
        zero=zero,
        degree=deg,
        result=result,
    )


def bracket_poisson(xi: Multivector, eta: Multivector) -> BracketReport:
    (f, df), (g, dg) = _integral(xi.density), _integral(eta.density)
    return _report(schouten_density(f, g), Fraction(1, df * dg), "poisson", xi.degree, eta.degree)


def bracket_via_q(xi: Multivector, eta: Multivector) -> BracketReport:
    (f, df), (g, dg) = _integral(xi.density), _integral(eta.density)
    d = q_field(Multivector(Functional(f), xi.degree)).apply(g)
    return _report(d, Fraction(1, df * dg), "qfield", xi.degree, eta.degree)


def _section_of(onevec: DiffPolynomial) -> tuple[DiffPolynomial, ...]:
    return _euler_fibers(_gradient(onevec.terms), onevec.geometry, BKIND)


def bracket_base_case(h: Multivector, phi: Multivector) -> Multivector:
    """[[H, phi]] = int d_phi(H) for a 0-vector H and a 1-vector phi."""
    if h.degree != 0 or phi.degree != 1:
        raise DomainError("base case takes a 0-vector and a 1-vector, in that order")
    out: dict = {}
    _apply_into(out, h.density, _section_of(phi.density), ())
    return Multivector(Functional(DiffPolynomial(h.geometry, out)), 0)


def _recursive_density(
    f: DiffPolynomial, k: int, g: DiffPolynomial, l: int, slots: tuple[int, ...]
) -> dict:
    """The density of [[f, g]], rebuilt from its values on slots, as a term
    dict.  Int coefficients stay int.

    f is inserted along slots[-1], slots[-2], ... and g along slots[0],
    slots[1], ..., two chains whose slots are disjoint at either leaf shape.
    Each shape's leaf is built once, from its arguments' orbit representatives
    on those chains, with the sign of its closed-form weight folded into H:
    the weight's binomial times the orbits' sizes is the (k+l-1)! that the
    leaves' 1/(k+l-1)! cancels (module docstring).  Both leaves carry every
    slot once, and from_slots is linear, so it runs once, on their sum.
    """
    terms: dict = {}

    def leaf(h: DiffPolynomial, h_chain, phi: DiffPolynomial, phi_chain, sign: int) -> None:
        """Add sign * int d_phi(H) into terms, H and phi inserted along their chains."""
        h = _chain_representatives(h, h_chain, sign)
        _apply_into(terms, h, _section_of(_chain_representatives(phi, phi_chain, 1)), ())

    if l:  # [[H, phi]] = int d_phi(H), weight (-1)^(C(l-1,2) + k(l-1)) C(k+l-1, k)
        leaf(f, slots[l - 1 :][::-1], g, slots[: l - 1], (-1) ** ((l - 1) * (l - 2) // 2 + k * (l - 1)))
    if k:  # [[phi, H]] = -int d_phi(H), weight (-1)^(C(l,2) + (k-1)(l+1)) C(k+l-1, k-1)
        leaf(g, slots[:l], f, slots[l:][::-1], -((-1) ** (l * (l - 1) // 2 + (k - 1) * (l + 1))))
    return from_slots(DiffPolynomial(f.geometry, terms), slots).density.terms


def bracket_recursive(
    xi: Multivector, eta: Multivector, slots: tuple[int, ...] | None = None
) -> BracketReport:
    """Fully insert the bracket via the recursion, then rebuild the b-form.

    Slots default to the lowest free slot numbers; reconstruction reads the
    slot-j variable of each monomial as the j-th odd letter.  The inserted
    value is the evaluation of the published density on the slots.
    """
    k, l = xi.degree, eta.degree
    geo = xi.geometry
    total = max(k + l - 1, 0)
    used = xi.density.slots_used() | eta.density.slots_used()
    if slots is None:
        free = [j for j in range(1, geo.s + 1) if j not in used]
        if len(free) < total:
            raise DomainError(
                f"recursion needs {total} free covector slots, geometry offers {len(free)}"
            )
        slots = tuple(free[:total])
    elif len(slots) != total:
        raise DomainError(f"recursion needs exactly {total} slots")
    _check_slots(slots, geo, used)
    (f, df), (g, dg) = _integral(xi.density), _integral(eta.density)
    density = DiffPolynomial(geo, _recursive_density(f, k, g, l, slots))
    report = _report(density, Fraction(1, df * dg), "recursive", k, l)
    inserted = _evaluate_terms(report.representative.density.terms, slots)
    return replace(report, inserted=Functional(DiffPolynomial(geo, inserted)), slots=slots)


def jacobi_defect(
    xi: Multivector, eta: Multivector, zeta: Multivector
) -> Functional:
    """The graded Jacobi combination; its class vanishes identically.

    With degrees (r, s, t):
        (-1)^((r-1)(t-1)) [[xi,[[eta,zeta]]]] + (-1)^((r-1)(s-1)) [[eta,[[zeta,xi]]]]
      + (-1)^((s-1)(t-1)) [[zeta,[[xi,eta]]]]
    """
    r, s, t = xi.degree, eta.degree, zeta.degree
    (f, df), (g, dg), (h, dh) = (_integral(x.density) for x in (xi, eta, zeta))
    out: dict = {}
    for e, a, b, c in (((r - 1) * (t - 1), f, g, h), ((r - 1) * (s - 1), g, h, f),
                       ((s - 1) * (t - 1), h, f, g)):
        for m, v in schouten_density(a, schouten_density(b, c)).terms.items():
            _add_term(out, m, -v if e % 2 else v)
    return Functional(DiffPolynomial(f.geometry, out).scaled(Fraction(1, df * dg * dh)))


def is_poisson(p: Multivector) -> tuple[bool, Multivector | None]:
    """Certify [[P, P]] = 0 for a bivector; on failure return the witness 3-vector."""
    if p.degree != 2:
        raise DomainError("Poisson certification applies to bivectors")
    r = bracket_poisson(p, p)
    return r.zero, r.result


def _default_probes(g: Geometry) -> list[DiffPolynomial]:
    """Probe densities of b-degree 0..2, jet order <= 3, over fiber 1."""
    from .algebra import bvar, monomial, qvar

    q0, qx, qxx = qvar(1), qvar(1, 1), qvar(1, 1, 1)
    b0, bx, bxx = bvar(1), bvar(1, 1), bvar(1, 1, 1)
    bxxx = bvar(1, 1, 1, 1)
    return [
        monomial(g, 1, even=[q0]),
        monomial(g, Fraction(1, 2), even=[q0, q0]),
        monomial(g, 1, even=[qxx]),
        monomial(g, 1, base=[(1, 1)], even=[qx]),
        monomial(g, 1, even=[q0], odd=[b0]),
        monomial(g, 1, even=[qx], odd=[b0]),
        monomial(g, 1, even=[q0], odd=[bx]),
        monomial(g, 1, odd=[bxxx]),
        monomial(g, 1, odd=[b0, bx]),
        monomial(g, 1, odd=[b0, bxx]),
        monomial(g, 1, even=[q0], odd=[b0, bx]),
    ]


def q_differential_check(p: Multivector) -> bool:
    """For a certified Poisson bivector, int (Q^P)^2(f) must vanish on every probe."""
    ok, _ = is_poisson(p)
    if not ok:
        raise DomainError("the bivector is not Poisson; its field does not square to zero")
    field = q_field(p)
    for f in _default_probes(p.geometry):
        if not is_exact(field.apply(field.apply(f))):
            return False
    return True
