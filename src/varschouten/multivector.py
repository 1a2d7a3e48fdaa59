"""Variational multivectors: homogeneous functionals of odd covectors.

A k-vector is (the class of) a density of b-degree k.  Covector arguments are
handled through numbered slot variables: inserting slot p into the rightmost
argument of a k-vector is

    iota_p(xi) = (1/k) * sum_{j=1..k} (-1)^(k-j) [j-th odd factor -> p]

and full evaluation on the ordered slot list (p^1, ..., p^k) is

    (1/k!) * sum_{s in S_k} sign(s) [i-th odd factor -> slots[s(i)]].

Both substitutions are positional on the canonical odd word; the replaced
factor keeps its fiber and multi-index and becomes even, so no extra signs
appear beyond the explicit ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from operator import itemgetter

from .algebra import (
    BKIND,
    PKIND,
    DiffPolynomial,
    DomainError,
    Geometry,
    Monomial,
    _add_term,
    _gradient,
    _slot_positions,
    _sort_word,
    _unslot,
    _with_slot,
)
from .variational import Functional, _euler_fibers, equivalent, is_exact


@dataclass(frozen=True, eq=False)
class Multivector:
    """One homogeneous component; the zero density is allowed at any degree."""

    functional: Functional
    degree: int

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError("multivector degree cannot be negative")
        d = self.functional.density.homogeneous_degree()
        if d is not None and d != self.degree:
            raise DomainError(
                f"density has b-degree {d}, declared degree {self.degree}"
            )

    @property
    def density(self) -> DiffPolynomial:
        return self.functional.density

    @property
    def geometry(self) -> Geometry:
        return self.functional.geometry

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.degree == other.degree and equivalent(
            self.functional, other.functional
        )


def multivector(f: Functional | DiffPolynomial) -> Multivector:
    """Wrap a homogeneous density, inferring its degree (zero density refused)."""
    func = f if isinstance(f, Functional) else Functional(f)
    d = func.density.homogeneous_degree()
    if d is None:
        raise DomainError("cannot infer the degree of the zero density")
    return Multivector(func, d)


def decompose(f: Functional | DiffPolynomial) -> list[Multivector]:
    """Split by b-degree and drop the components that are total divergences."""
    func = f if isinstance(f, Functional) else Functional(f)
    out = []
    for deg, comp in func.density.b_components().items():
        if not is_exact(comp):
            out.append(Multivector(Functional(comp), deg))
    return out


def iota(f: DiffPolynomial, slot: int) -> DiffPolynomial:
    """Insertion at the density level; f must be b-homogeneous of degree >= 1."""
    k = f.homogeneous_degree()
    if k is None:
        return f
    if k < 1:
        raise DomainError("cannot insert a covector into a degree-0 density")
    _check_slots((slot,), f.geometry, f.slots_used())
    out: dict = {}
    for (base, even, odd), c in f.terms.items():
        for j, v in enumerate(odd, 1):
            even_j = tuple(sorted((*even, _with_slot(v, PKIND, slot))))
            _add_term(out, Monomial(base, even_j, odd[: j - 1] + odd[j:]), c if (k - j) % 2 == 0 else -c)
    return DiffPolynomial(f.geometry, out).scaled(Fraction(1, k))


def _chain_representatives(f: DiffPolynomial, chain: tuple[int, ...], sign: int) -> DiffPolynomial:
    """sign times one representative per orbit of f inserted along chain by the
    unscaled insertion sums (k * iota at b-degree k), f of b-degree len(chain), or
    one more to keep one letter odd: the inserted odd letters, in ascending order,
    go to the chain's slots in ascending order; sign * f if chain or f is empty.

    The step that gives a letter away signs it (-1)^(number of letters after
    it in the word).  Summed over the chain, that counts the pairs of slots the
    chain inserts in ascending order, the sign of sorting the chain reversed,
    and (-1)^(r-1) more when the letter at position r stays odd.  Every other
    term of the chain is a renaming of the slots of one of these, signed by it.
    """
    if not chain or f.is_zero:
        return f if sign > 0 else -f
    degree = f.homogeneous_degree()
    sign *= _sort_word(list(reversed(chain)))[0]
    slots = sorted(chain)
    out: dict = {}
    for (base, even, odd), c in f.terms.items():
        c = c if sign > 0 else -c
        for r in range(degree) if degree > len(chain) else (degree,):  # keeps odd[r:r + 1]
            inserted = tuple(_with_slot(v, PKIND, p) for v, p in zip(odd[:r] + odd[r + 1 :], slots))
            _add_term(out, Monomial(base, tuple(sorted(even + inserted)), odd[r : r + 1]), c)
            c = -c  # one more inserted letter precedes the next letter kept odd
    return DiffPolynomial(f.geometry, out)


def insert(xi: Multivector, slot: int) -> Multivector:
    """Fill the rightmost covector argument of xi with slot variables."""
    if xi.degree < 1:
        raise DomainError("cannot insert a covector into a 0-vector")
    return Multivector(Functional(iota(xi.density, slot)), xi.degree - 1)


def evaluate(xi: Multivector, slots: list[int] | tuple[int, ...]) -> Functional:
    """Evaluate xi on the ordered covector slot list, one slot per argument."""
    k = xi.degree
    if len(slots) != k:
        raise DomainError(f"degree-{k} multivector takes {k} covector arguments")
    _check_slots(slots, xi.geometry, xi.density.slots_used())
    if k == 0:
        return xi.functional
    return Functional(DiffPolynomial(xi.geometry, _evaluate_terms(xi.density.terms, tuple(slots))))


def _check_slots(slots, g: Geometry, used: set[int]) -> None:
    """Covector slots to evaluate on must be distinct, in 1..s and not used by an argument."""
    if len(set(slots)) != len(slots):
        raise DomainError("covector slots must be distinct")
    for slot in slots:
        if not 1 <= slot <= g.s:
            raise DomainError(f"covector slot {slot} outside geometry bounds (s={g.s})")
        if slot in used:
            raise DomainError(f"slot {slot} already used in the multivector")


@cache
def _signed_permutations(k: int) -> tuple:
    """(sign(s), pick) for every permutation s of range(k): pick takes the
    entries i*k + s(i) of a flat k-by-k table, as a tuple."""
    out = []
    for perm in permutations(range(k)):
        pick = itemgetter(*(i * k + s for i, s in enumerate(perm)))
        out.append((_sort_word(list(perm))[0], pick if k > 1 else lambda table: (table[0],)))
    return tuple(out)


def _evaluate_terms(terms: dict, slots: tuple[int, ...]) -> dict:
    """The evaluation of a density of b-degree k = len(slots) on the slots, as a
    term dict: monomial c*M gives sign(s) * c/k! * [i-th odd factor ->
    slots[s(i)]] for every s in S_k.

    The odd letters of M are distinct and the slots are new to the density, so
    no two (monomial, s) give the same term: each is set once, and c/k! is
    worked out once per monomial.
    """
    k = len(slots)
    if k == 0:
        return terms
    perms = _signed_permutations(k)
    out: dict = {}
    for (base, even, odd), c in terms.items():
        table = [_with_slot(v, PKIND, slot) for v in odd for slot in slots]
        plus = Fraction(c, len(perms))  # len(perms) = k!
        minus = -plus
        for sign, pick in perms:
            out[Monomial(base, tuple(sorted(even + pick(table))), ())] = plus if sign > 0 else minus
    return out


def evaluate_by_insertion(xi: Multivector, slots) -> Functional:
    """Same value as evaluate(), computed by inserting the last slot first."""
    cur = xi
    for slot in reversed(list(slots)):
        cur = insert(cur, slot)
    if cur.degree != 0:
        raise DomainError("slot list did not exhaust the multivector arguments")
    return cur.functional


def extract_operator(xi: Multivector) -> tuple[DiffPolynomial, ...]:
    """The m-tuple A^alpha = (1/k) delta^l xi / delta b_alpha.

    Pairing back, sum_alpha b_alpha * A^alpha is equivalent to xi's density.
    """
    if xi.degree < 1:
        raise DomainError("a 0-vector carries no operator")
    k = Fraction(1, xi.degree)
    return tuple(op.scaled(k) for op in _euler_fibers(_gradient(xi.density.terms), xi.geometry, BKIND))


def from_slots(f: Functional | DiffPolynomial, slots) -> Multivector:
    """Invert evaluation: slot-j covector variables become the j-th odd letter.

    Each monomial must carry exactly one variable of every listed slot (a
    square counts as two).  The odd word is built in slot order and
    canonicalized; this map commutes with total derivatives, so classes go to
    classes.
    """
    density = f.density if isinstance(f, Functional) else f
    positions = _slot_positions(slots)
    if len(positions) != len(slots):
        raise DomainError("covector slots must be distinct")
    out: dict[Monomial, Fraction] = {}
    for m, c in density.terms.items():
        kept, letters = _unslot(m.even, positions)
        if None in letters:
            raise DomainError("monomial missing a covector slot; not an evaluation image")
        if m.odd:
            raise DomainError("density still contains odd factors; not fully evaluated")
        sign, sorted_word = _sort_word(letters)
        if sign:
            _add_term(out, Monomial(m.base, tuple(kept), sorted_word), c if sign > 0 else -c)
    return Multivector(Functional(DiffPolynomial(density.geometry, out)), len(slots))
