"""Graded differential-polynomial ring over a jet-space fiber geometry.

Everything downstream leans on the conventions fixed here:

* Three families of jet variables: even fiber jets q^alpha_sigma, odd fiber
  jets b_{alpha,sigma} (anticommuting, squares vanish), and even covector-slot
  jets p^(j)_{alpha,sigma}.  Slot variables have zero partial derivative with
  respect to every q-jet; total derivatives shift all three families alike.
* Monomials are kept canonical: a rational coefficient and three sorted
  tuples, one entry per factor, so a power repeats its factor (x1^2*x2 is
  base (1, 1, 2), q^2*q_x is even (q, q, q_x)).  The odd word is strictly
  sorted: the sign of the sorting permutation is absorbed into the
  coefficient, and a repeated odd factor kills the monomial.  _sort_word is
  the one home of that sign: products, D_i and the monomial builder use it.
* Each jet variable is one int (JetVariable, an int subclass) with fixed bit
  fields, from the top down: kind, covector slot, fiber, |sigma|, then one
  _B-bit count per base dimension for _NMAX dimensions, dimension 1 most
  significant.  Plain int order is therefore the canonical variable order
  (kind, slot, fiber, |sigma|, count row of sigma), independent of n, and
  D_i is code + _STEP[i].  Engine code reads the fields by shift and mask;
  the decoded .index exists for the public API.  Limits: n <= 8, m and
  s <= 4095, and at most 511 derivatives in one base dimension.  The top bit
  of every count is a carry guard: a total derivative that would push a
  count past 511 raises DomainError instead of wrapping into its neighbour.
* Left partial with respect to an odd factor at 1-based position r of a
  length-k word carries (-1)^(r-1); the right partial carries (-1)^(k-r).
  _gradient is the one home of these signs: it is the only code that
  differentiates a monomial by a jet variable, and partial, the Euler
  operator and the field action all read their partials from it, keyed by
  family as {family code: {index bits: term dict}}, the layout they walk.
* _derive_into, which adds +-D_i of a term dict into another, is the one
  Leibniz loop: total_derivative, the jet memo _jet (upward from sigma - e_last)
  and the Euler operator _euler (downward along the same prefixes) all use it.
  _jet is the one D_sigma: slot substitution and the bA form read theirs from it.
* _pieces splits a term dict into graded pieces, smallest first, keyed by
  one int: the factors' codes summed, minus _STEP[d] per base factor x_d,
  which packs the family word's codes and the weight sum(sigma) - a.  D_i
  adds _STEP[i] to every key, so is_exact decides one piece at a time.

Coefficients are exact rationals and base-variable dependence is polynomial.
Public results carry Fraction coefficients; ints live only inside one cleared
computation (_integral multiplies by the lcm of the denominators, the ring
operations keep ints int, and scaled divides once and returns Fractions).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, NamedTuple, Sequence

QKIND, PKIND, BKIND = 0, 1, 2
LEFT, RIGHT = "left", "right"

_KIND_TAG = {QKIND: "q", PKIND: "p", BKIND: "b"}

# JetVariable bits (module docstring): _B per count, its top bit the carry guard; _W per field.
_B, _NMAX, _W = 10, 8, 12
_COUNT_MAX, _FIELD_MAX = (1 << _B - 1) - 1, (1 << _W) - 1
_ORDER = _B * _NMAX
_FIBER = _ORDER + _W  # v >> _FIBER is v's family (kind, slot, fiber)
_SLOT, _KIND = _FIBER + _W, _FIBER + 2 * _W
_INDEX = (1 << _FIBER) - 1  # |sigma| and the counts: the index bits
_CARRY = sum(1 << _B * i + _B - 1 for i in range(_NMAX))
_STEP = (0,) + tuple((1 << _ORDER) + (1 << _B * (_NMAX - d)) for d in range(1, _NMAX + 1))


class EngineError(Exception):
    """Base error for the engine."""


class GeometryMismatch(EngineError):
    """Operands built over different geometries."""


class DomainError(EngineError):
    """Operation applied outside its stated domain."""


@dataclass(frozen=True)
class Geometry:
    """Shape of the jet space: n base dimensions, m fiber components, s covector slots."""

    n: int
    m: int
    s: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("geometry needs at least one base dimension")
        if self.m < 1:
            raise DomainError("geometry needs at least one fiber component")
        if self.s < 0:
            raise DomainError("covector slot count cannot be negative")
        if self.n > _NMAX:
            raise DomainError(f"geometry allows at most {_NMAX} base dimensions")
        if self.m > _FIELD_MAX or self.s > _FIELD_MAX:
            raise DomainError(f"geometry allows at most {_FIELD_MAX} fibers and slots")


class MultiIndex(NamedTuple):
    """Multi-index sigma as (|sigma|, row): row[i] counts derivatives in dimension i+1.

    Trailing zeros of the row are trimmed.  A trimmed row compares
    lexicographically exactly like the zero-padded one, so the tuple order
    (order first, then the row) does not change when base dimensions are added.
    """

    order: int = 0
    row: tuple[int, ...] = ()

    @staticmethod
    def from_row(row: Sequence[int]) -> "MultiIndex":
        row = list(row)
        while row and not row[-1]:
            row.pop()
        return MultiIndex(sum(row), tuple(row))

    @property
    def counts(self) -> tuple[tuple[int, int], ...]:
        """Sparse form ((dim, count), ...) with dims ascending, counts >= 1."""
        return tuple((d, c) for d, c in enumerate(self.row, 1) if c)


def midx(*dims: int) -> MultiIndex:
    """Multi-index from repeated dimension numbers: midx(1,1,2) = d/dx1 d/dx1 d/dx2."""
    row = [0] * max(dims, default=0)
    for d in dims:
        if d < 1:
            raise DomainError(f"base dimension {d} is not positive")
        row[d - 1] += 1
    return MultiIndex(len(dims), tuple(row))


class JetVariable(int):
    """A jet coordinate, built as JetVariable(kind, fiber, index, slot=0).

    It is one int in the bit layout of the module docstring, so plain int
    order is the canonical variable order that every sorted word and even
    factor list uses.  The fields decode as .kind, .slot, .fiber and .index.
    """

    __slots__ = ()

    def __new__(cls, kind: int, fiber: int, index: MultiIndex, slot: int = 0):
        row = index.row
        if kind not in _KIND_TAG or not (0 <= fiber <= _FIELD_MAX and 0 <= slot <= _FIELD_MAX):
            raise DomainError(f"jet variable (kind {kind}, fiber {fiber}, slot {slot}) out of range")
        if len(row) > _NMAX or row and not 0 <= min(row) <= max(row) <= _COUNT_MAX:
            raise DomainError(f"multi-index {row} exceeds {_NMAX} dimensions or {_COUNT_MAX} per dimension")
        code = ((kind << _W | slot) << _W | fiber) << _W | sum(row)
        for c in row:
            code = code << _B | c
        return int.__new__(cls, code << _B * (_NMAX - len(row)))

    def __getnewargs__(self):
        return self.kind, self.fiber, self.index, self.slot

    def __repr__(self) -> str:
        return f"JetVariable{self.__getnewargs__()}"

    kind = property(lambda v: v >> _KIND)
    slot = property(lambda v: v >> _SLOT & _FIELD_MAX)
    fiber = property(lambda v: v >> _FIBER & _FIELD_MAX)
    index = property(lambda v: MultiIndex.from_row([_count(v, d) for d in range(1, _NMAX + 1)]))


def _count(v: int, dim: int) -> int:
    """The derivative count of a variable or index bits in base dimension dim."""
    return v >> _B * (_NMAX - dim) & _COUNT_MAX


def _last_dim(ix: int) -> int:
    """The last base dimension with a derivative: the lowest nonzero count."""
    return _NMAX - ((ix & -ix).bit_length() - 1) // _B


def _family(kind: int, fiber: int, slot: int = 0) -> int:
    """The code v >> _FIBER shared by every variable of one family."""
    return (kind << _W | slot) << _W | fiber


def _with_slot(v: int, kind: int, slot: int = 0) -> JetVariable:
    """v with its kind and covector slot replaced; fiber and index are kept."""
    return int.__new__(JetVariable, v & (1 << _SLOT) - 1 | kind << _KIND | slot << _SLOT)


def _slot_positions(slots: Sequence[int]) -> dict:
    """{v >> _SLOT: i} for the i-th listed covector slot: the key that every
    variable of that slot carries, so one shift tells a variable's position."""
    return {PKIND << _W | s: i for i, s in enumerate(slots)}


def _unslot(even: tuple, positions: dict) -> tuple[list, list]:
    """(kept, letters) of an even tuple: letters[i] is the variable of the slot
    at position i turned into the odd letter of the same fiber and index, None
    where that slot is missing; every other variable is kept, in order."""
    letters: list = [None] * len(positions)
    kept = []
    for v in even:
        pos = positions.get(v >> _SLOT)
        if pos is None:
            kept.append(v)
        elif letters[pos] is None:
            letters[pos] = _with_slot(v, BKIND)
        else:
            raise DomainError("slot appears twice in one monomial")
    return kept, letters


def _shift(v: int, step: int) -> JetVariable:
    """v moved by step = +-_STEP[i]: the total derivative D_i of one variable, or its inverse."""
    w = v + step
    if w & _CARRY:
        raise DomainError(f"jet order exceeds {_COUNT_MAX} derivatives in one base dimension")
    return int.__new__(JetVariable, w)


def qvar(fiber: int = 1, *dims: int) -> JetVariable:
    return JetVariable(QKIND, fiber, midx(*dims))


def bvar(fiber: int = 1, *dims: int) -> JetVariable:
    return JetVariable(BKIND, fiber, midx(*dims))


def pvar(slot: int, fiber: int = 1, *dims: int) -> JetVariable:
    return JetVariable(PKIND, fiber, midx(*dims), slot)


def _add_term(out: dict, mono, c) -> None:
    """Accumulate c into out[mono], dropping the entry when it cancels."""
    acc = out.get(mono)
    if acc is None:
        out[mono] = c
    else:
        acc = acc + c
        if acc:
            out[mono] = acc
        else:
            del out[mono]


def _sort_word(word: list) -> tuple[int, tuple]:
    """Insertion-sort a list, returning (sign of the sort, sorted tuple); sign 0 on a repeat."""
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j] < word[j - 1]:
            word[j], word[j - 1] = word[j - 1], word[j]
            sign = -sign
            j -= 1
    for i in range(1, len(word)):
        if word[i] == word[i - 1]:
            return 0, ()
    return sign, tuple(word)


class Monomial(NamedTuple):
    base: tuple[int, ...]  # base dimensions, ascending, one entry per power
    even: tuple[JetVariable, ...]  # even variables, ascending, one entry per power
    odd: tuple[JetVariable, ...]  # odd variables, strictly ascending

    @property
    def b_degree(self) -> int:
        return len(self.odd)


_ONE_MONO = Monomial((), (), ())


def _mul_monomials(a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
    sign, odd = _sort_word([*a.odd, *b.odd]) if a.odd and b.odd else (1, a.odd or b.odd)
    if sign == 0:
        return None
    return sign, Monomial(tuple(sorted(a.base + b.base)), tuple(sorted(a.even + b.even)), odd)


def _mul_into(out: dict, left: dict, right: dict) -> None:
    """Accumulate the graded product of two term dicts into out."""
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            r = _mul_monomials(m1, m2)
            if r is not None:
                sign, mono = r
                _add_term(out, mono, c1 * c2 if sign > 0 else -(c1 * c2))


def _gradient(terms: dict, side: str = LEFT) -> dict:
    """Every nonzero partial derivative of a term dict, as {family: {index bits: term dict}}.

    One scan differentiates each monomial by each of its factors: an even
    power v^e, a run of e equal entries, is differentiated once at its first
    entry, with e*c (the power rule), and odd factors take the left or right
    sign of the module docstring.  A monomial is fixed by its partial and the
    variable, so nothing cancels.
    """
    grad: dict = {}
    for m, c in terms.items():
        base, even, odd = m
        for t, v in enumerate(even):
            if t and v == even[t - 1]:
                continue
            e = bisect_right(even, v, t) - t
            part = grad.setdefault(v >> _FIBER, {}).setdefault(v & _INDEX, {})
            part[Monomial(base, even[:t] + even[t + 1 :], odd)] = c if e == 1 else e * c
        for i, v in enumerate(odd):
            flips = i if side == LEFT else len(odd) - 1 - i
            part = grad.setdefault(v >> _FIBER, {}).setdefault(v & _INDEX, {})
            part[Monomial(base, even, odd[:i] + odd[i + 1 :])] = -c if flips % 2 else c
    return grad


def _derive_into(out: dict, terms: dict, dim: int, sign: int = 1) -> None:
    """Add sign * D_dim(terms) into the term dict out, by the Leibniz rule.

    A power (a run of e equal base or even entries) is derived once, with e*c.
    """
    step = _STEP[dim]
    for m, c in terms.items():
        c = c if sign > 0 else -c
        base, even, odd = m
        t = bisect_left(base, dim)
        e = bisect_right(base, dim, t) - t
        if e:
            _add_term(out, Monomial(base[:t] + base[t + 1 :], even, odd), c if e == 1 else e * c)
        for t, v in enumerate(even):
            if t and v == even[t - 1]:
                continue
            e = bisect_right(even, v, t) - t
            shifted = tuple(sorted((*even[:t], _shift(v, step), *even[t + 1 :])))
            _add_term(out, Monomial(base, shifted, odd), c if e == 1 else e * c)
        for t, v in enumerate(odd):
            flip, word = _sort_word([*odd[:t], _shift(v, step), *odd[t + 1 :]])
            if flip:
                _add_term(out, Monomial(base, even, word), c if flip > 0 else -c)


def _check_var(v: JetVariable, g: Geometry) -> None:
    fiber, slot = v >> _FIBER & _FIELD_MAX, v >> _SLOT & _FIELD_MAX
    if not 1 <= fiber <= g.m:
        raise DomainError(f"fiber index {fiber} outside geometry bounds (m={g.m})")
    if v >> _KIND == PKIND:
        if not 1 <= slot <= g.s:
            raise DomainError(f"covector slot {slot} outside geometry bounds (s={g.s})")
    elif slot != 0:
        raise DomainError("fiber variables carry no covector slot")
    if v & (1 << _B * (_NMAX - g.n)) - 1:
        raise DomainError(f"base dimension {_last_dim(v)} outside geometry bounds (n={g.n})")


@dataclass(frozen=True, eq=False)
class DiffPolynomial:
    """Graded differential polynomial: canonical monomials with Fraction coefficients."""

    geometry: Geometry
    terms: dict  # Monomial -> Fraction (int only inside a cleared computation), no zero values

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(g: Geometry) -> "DiffPolynomial":
        return DiffPolynomial(g, {})

    @staticmethod
    def const(g: Geometry, c) -> "DiffPolynomial":
        c = Fraction(c)
        return DiffPolynomial(g, {} if c == 0 else {_ONE_MONO: c})

    @staticmethod
    def variable(g: Geometry, v: JetVariable) -> "DiffPolynomial":
        _check_var(v, g)
        if v >> _KIND == BKIND:
            return DiffPolynomial(g, {Monomial((), (), (v,)): Fraction(1)})
        return DiffPolynomial(g, {Monomial((), (v,), ()): Fraction(1)})

    @staticmethod
    def base(g: Geometry, dim: int, exponent: int = 1) -> "DiffPolynomial":
        if not 1 <= dim <= g.n:
            raise DomainError(f"base dimension {dim} outside geometry bounds (n={g.n})")
        if exponent < 0:
            raise DomainError("negative base exponent")
        if exponent == 0:
            return DiffPolynomial.const(g, 1)
        return DiffPolynomial(g, {Monomial((dim,) * exponent, (), ()): Fraction(1)})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffPolynomial)
            and self.geometry == other.geometry
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- ring operations ----------------------------------------------------

    def _same_geometry(self, other: "DiffPolynomial") -> None:
        if self.geometry != other.geometry:
            raise GeometryMismatch(
                f"mixed geometries: {self.geometry} vs {other.geometry}"
            )

    def __add__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        self._same_geometry(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return DiffPolynomial(self.geometry, out)

    def __neg__(self) -> "DiffPolynomial":
        return DiffPolynomial(self.geometry, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "DiffPolynomial") -> "DiffPolynomial":
        return self + (-other)

    def scaled(self, c) -> "DiffPolynomial":
        c = Fraction(c)
        if c == 0:
            return DiffPolynomial.zero(self.geometry)
        return DiffPolynomial(self.geometry, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._same_geometry(other)
        out: dict[Monomial, Fraction] = {}
        _mul_into(out, self.terms, other.terms)
        return DiffPolynomial(self.geometry, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    # -- grading ------------------------------------------------------------

    def b_components(self) -> dict[int, "DiffPolynomial"]:
        out: dict[int, dict] = {}
        for m, c in self.terms.items():
            out.setdefault(m.b_degree, {})[m] = c
        return {
            k: DiffPolynomial(self.geometry, t) for k, t in sorted(out.items())
        }

    def homogeneous_degree(self) -> int | None:
        """The common b-degree, None for the zero polynomial; raises if mixed."""
        degs = {m.b_degree for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise DomainError(f"polynomial mixes b-degrees {sorted(degs)}")
        return degs.pop()

    # -- derivatives ---------------------------------------------------------

    def partial(self, v: JetVariable, side: str = LEFT) -> "DiffPolynomial":
        """Graded partial derivative with respect to a jet variable; left and right
        coincide for even variables, odd ones take the signs of the module docstring."""
        _check_var(v, self.geometry)
        parts = _gradient(self.terms, side).get(v >> _FIBER, {})
        return DiffPolynomial(self.geometry, parts.get(v & _INDEX, {}))

    def total_derivative(self, dim: int) -> "DiffPolynomial":
        """Total derivative D_dim: Leibniz over base powers and all jet factors."""
        g = self.geometry
        if not 1 <= dim <= g.n:
            raise DomainError(f"base dimension {dim} outside geometry bounds (n={g.n})")
        out: dict[Monomial, Fraction] = {}
        _derive_into(out, self.terms, dim)
        return DiffPolynomial(g, out)

    # -- queries used by the variational layer --------------------------------

    def jet_variables(self) -> Iterator[JetVariable]:
        seen: set[JetVariable] = set()
        for m in self.terms:
            for v in m.even:
                if v not in seen:
                    seen.add(v)
                    yield v
            for v in m.odd:
                if v not in seen:
                    seen.add(v)
                    yield v

    def families(self) -> set[tuple[int, int, int]]:
        """(kind, fiber, slot) triples present in the polynomial."""
        return {(v.kind, v.fiber, v.slot) for v in self.jet_variables()}

    def slots_used(self) -> set[int]:
        return {v.slot for v in self.jet_variables() if v.kind == PKIND}

    def max_order(self) -> int:
        return max((v >> _ORDER & _FIELD_MAX for v in self.jet_variables()), default=0)

    # -- substitutions --------------------------------------------------------

    def substitute_slot(
        self, slot: int, sections: Sequence["DiffPolynomial"]
    ) -> "DiffPolynomial":
        """Substitute p^(slot)_{alpha,sigma} -> D_sigma(sections[alpha-1]) everywhere.

        Sections must be even (every term of even b-degree): replacing an even
        variable by an odd expression has no consistent sign.
        """
        g = self.geometry
        if not 1 <= slot <= g.s:
            raise DomainError(f"covector slot {slot} outside geometry bounds (s={g.s})")
        if len(sections) != g.m:
            raise DomainError(f"expected {g.m} sections, got {len(sections)}")
        for sec in sections:
            self._same_geometry(sec)
            if any(m.b_degree % 2 for m in sec.terms):
                raise DomainError("slot substitution needs even sections")
        jets = [{0: sec.terms} for sec in sections]
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            kept: list = []
            reps: list[dict] = []
            for v in m.even:
                if v >> _SLOT == PKIND << _W | slot:
                    reps.append(_jet(jets[(v >> _FIBER & _FIELD_MAX) - 1], v & _INDEX))
                else:
                    kept.append(v)
            piece = {Monomial(m.base, tuple(kept), m.odd): c}
            for rep in reps:
                product: dict = {}
                _mul_into(product, piece, rep)
                piece = product
            for mono, d in piece.items():
                _add_term(out, mono, d)
        return DiffPolynomial(g, out)


def _integral(p: DiffPolynomial) -> tuple[DiffPolynomial, int]:
    """(den * p, den) with den the lcm of p's denominators; den * p has int coefficients."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    terms = {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
    return DiffPolynomial(p.geometry, terms), den


def _jet(jets: dict, ix: int) -> dict:
    """D_sigma of the term dict at jets[0], for sigma given by its index bits ix,
    memoized by prefixes: D_sigma = D_d D_{sigma - d}, d the last dimension of sigma."""
    got = jets.get(ix)
    if got is None:
        d = _last_dim(ix)
        jets[ix] = got = {}
        _derive_into(got, _jet(jets, ix - _STEP[d]), d)
    return got


def _euler(parts: dict) -> dict:
    """sum_sigma (-D)_sigma parts[sigma] for one family's parts {index bits: term dict}:
    down the prefix tree of _jet, highest order first, the part at sigma moves to
    sigma - e_last as -D_last of itself (Horner's scheme).  Consumes parts and its dicts."""
    for order in range(max((ix >> _ORDER for ix in parts), default=0), 0, -1):
        for ix in [ix for ix in parts if ix >> _ORDER == order]:
            d = _last_dim(ix)
            _derive_into(parts.setdefault(ix - _STEP[d], {}), parts.pop(ix), d, -1)
    return parts.get(0, {})


def _pieces(terms: dict) -> list[dict]:
    """The graded pieces of a term dict, smallest first.

    A monomial x^a * prod u_sigma is keyed by the sum of its factors' codes
    minus _STEP[d] for each base factor x_d.  In the layout's fields that int
    holds the sum of the factors' family codes and, in the index bits, the
    weight sum(sigma) - a in Z^n: a coarsening of the grading by family word
    and weight, since carries between packed fields only merge pieces.  Every
    monomial of D_i(m) has the key of m plus _STEP[i] (one factor's code moved
    by _STEP[i], or one x_i dropped), so a divergence splits into one per piece.
    """
    pieces: dict = {}
    for m, c in terms.items():
        base, even, odd = m
        key = sum(even, sum(odd))
        for d in base:
            key -= _STEP[d]
        pieces.setdefault(key, {})[m] = c
    return sorted(pieces.values(), key=len)


def _split_jet(v: int) -> tuple[JetVariable, int, int]:
    """(u, ix, |sigma|) with v = D_sigma(u): u underived, ix the index bits of sigma (_jet's key)."""
    ix = v & _INDEX
    return int.__new__(JetVariable, v - ix), ix, ix >> _ORDER


def monomial(
    g: Geometry,
    coeff=1,
    *,
    base: Sequence[tuple[int, int]] = (),
    even: Sequence[JetVariable] = (),
    odd: Sequence[JetVariable] = (),
) -> DiffPolynomial:
    """Convenience builder: coeff * x-powers * even jets * odd word (any order)."""
    c = Fraction(coeff)
    if c == 0:
        return DiffPolynomial.zero(g)
    powers: list[int] = []
    for d, e in base:
        if not 1 <= d <= g.n:
            raise DomainError(f"base dimension {d} outside geometry bounds (n={g.n})")
        if e < 1:
            raise DomainError("base exponents must be positive")
        powers += [d] * e
    for v in even:
        _check_var(v, g)
        if v >> _KIND == BKIND:
            raise DomainError("odd variable passed as even factor")
    for v in odd:
        _check_var(v, g)
        if v >> _KIND != BKIND:
            raise DomainError("even variable passed as odd factor")
    sign, word = _sort_word(list(odd))
    if sign == 0:
        return DiffPolynomial.zero(g)
    mono = Monomial(tuple(sorted(powers)), tuple(sorted(even)), word)
    return DiffPolynomial(g, {mono: c if sign > 0 else -c})
