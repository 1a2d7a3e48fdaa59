"""Cross-check models and shared hypothesis strategies.

BladeModel is a from-scratch implementation of the graded product and the
one-sided partials: odd words become bitmask blades over a registry that
orders variables by first appearance (deliberately not the engine's
canonical order), and every sign comes from explicit inversion counting.
Agreement between the model and the engine is therefore evidence that the
engine's merge-sign bookkeeping is right, not just self-consistent.

naive_apply and reference_inserted are the evolutionary-field action and
the bracket's insertion recursion written the plain way: every jet of a
section transported from scratch, and every recursion node building its
polynomial with scaled and +.

naive_bA_form reaches the bA form by rounds of one-step integration by
parts, the plain way, through the public API only.

with_alarm runs a callable under a wall-clock alarm, so that a hang or a
slow path fails its test instead of stalling the suite.
"""

from __future__ import annotations

import signal
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from varschouten import (
    BKIND,
    LEFT,
    DiffPolynomial,
    DomainError,
    Geometry,
    JetVariable,
    MultiIndex,
    QKIND,
    iota,
    midx,
    monomial,
    var_b,
)


def with_alarm(run, seconds: int):
    """run(), failing with TimeoutError once it has taken `seconds` of wall time.

    The alarm's error is raised again here, naming the function it stopped:
    the stopped frame can sit at an instruction with no line number, whose
    traceback pytest fails to render.
    """
    stopped = []

    def on_alarm(signum, frame):
        stopped.append(f"{frame.f_code.co_name} ({frame.f_code.co_filename})")
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        return run()
    except TimeoutError:
        if not stopped:
            raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    raise TimeoutError(f"ran past {seconds} s, stopped in {stopped[0]}")


class BladeModel:
    def __init__(self):
        self.registry: dict[JetVariable, int] = {}

    def _bit(self, v: JetVariable) -> int:
        if v not in self.registry:
            self.registry[v] = len(self.registry)
        return self.registry[v]

    def word_sign_mask(self, word) -> tuple[int, int]:
        """Sign of sorting the word into registration order, and its mask."""
        idx = [self._bit(v) for v in word]
        mask = 0
        for i in idx:
            mask |= 1 << i
        sign = 1
        arr = list(idx)
        for i in range(len(arr)):
            for j in range(len(arr) - 1 - i):
                if arr[j] > arr[j + 1]:
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
                    sign = -sign
        return sign, mask

    def from_poly(self, f: DiffPolynomial) -> dict:
        out: dict = {}
        for m, c in f.terms.items():
            sign, mask = self.word_sign_mask(m.odd)
            key = (frozenset(Counter(m.base).items()), frozenset(Counter(m.even).items()), mask)
            val = out.get(key, Fraction(0)) + sign * c
            if val:
                out[key] = val
            elif key in out:
                del out[key]
        return out

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for (base1, even1, m1), c1 in a.items():
            for (base2, even2, m2), c2 in b.items():
                if m1 & m2:
                    continue
                swaps = 0
                m2_rest = m2
                while m2_rest:
                    low = m2_rest & -m2_rest
                    j = low.bit_length() - 1
                    swaps += bin(m1 >> (j + 1)).count("1")
                    m2_rest ^= low
                sign = -1 if swaps % 2 else 1
                base = frozenset((Counter(dict(base1)) + Counter(dict(base2))).items())
                even = frozenset((Counter(dict(even1)) + Counter(dict(even2))).items())
                key = (base, even, m1 | m2)
                val = out.get(key, Fraction(0)) + sign * c1 * c2
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
        return out

    def partial_odd(self, a: dict, v: JetVariable, side: str) -> dict:
        bit = self._bit(v)
        out: dict = {}
        for (base, even, mask), c in a.items():
            if not (mask >> bit) & 1:
                continue
            below = bin(mask & ((1 << bit) - 1)).count("1")
            total = bin(mask).count("1")
            exp = below if side == "left" else total - 1 - below
            sign = -1 if exp % 2 else 1
            key = (base, even, mask ^ (1 << bit))
            val = out.get(key, Fraction(0)) + sign * c
            if val:
                out[key] = val
            elif key in out:
                del out[key]
        return out


# ---------------------------------------------------------------- strategies

G11 = Geometry(1, 1, 2)
G22 = Geometry(2, 2, 2)
G31 = Geometry(3, 1, 2)

_COEFFS = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
).filter(bool)

# denominators 7, 11 and 13, pairwise coprime and above _COEFFS' 3, so that
# clearing a product of arguments needs a denominator no argument has alone;
# 1 keeps some arguments integral
COPRIME_COEFFS = st.builds(
    Fraction, st.integers(-20, 20).filter(bool), st.sampled_from([1, 7, 11, 13])
)


def _index_pool(g: Geometry, max_order: int):
    if g.n == 1:
        return [midx(*([1] * k)) for k in range(max_order + 1)]
    pool = [midx()]
    for k in range(1, max_order + 1):
        pool.extend(midx(*([d] * k)) for d in range(1, g.n + 1))
    pool.append(midx(1, 2))
    if g.n >= 3:
        pool.extend([midx(2, 3), midx(1, 2, 3)])
    return pool


def variables(g: Geometry, kind: int, max_order: int = 2):
    pool = [
        JetVariable(kind, fiber, ix)
        for fiber in range(1, g.m + 1)
        for ix in _index_pool(g, max_order)
    ]
    return st.sampled_from(pool)


@st.composite
def polynomials(draw, g: Geometry = G11, degree=None, max_terms: int = 3, coeffs=_COEFFS):
    """Small random density; fixed b-degree when degree is given."""
    out = DiffPolynomial.zero(g)
    for _ in range(draw(st.integers(1, max_terms))):
        deg = degree if degree is not None else draw(st.integers(0, 2))
        base = []
        if draw(st.booleans()):
            base.append((draw(st.integers(1, g.n)), draw(st.integers(1, 2))))
        even = draw(st.lists(variables(g, QKIND), max_size=2))
        odd = draw(
            st.lists(variables(g, BKIND), min_size=deg, max_size=deg, unique=True)
        )
        out = out + monomial(g, draw(coeffs), base=base, even=even, odd=odd)
    return out


def reference_order(n: int):
    """Sort key of the canonical variable order, written out independently:
    (kind, slot, fiber, |sigma|, count row of sigma zero-padded to n dims)."""

    def key(v: JetVariable) -> tuple:
        row = [0] * n
        for dim, count in v.index.counts:
            row[dim - 1] = count
        return (v.kind, v.slot, v.fiber, sum(row), tuple(row))

    return key


def assert_models_agree(f: DiffPolynomial, model: BladeModel, expected: dict):
    assert model.from_poly(f) == expected


# ------------------------------------------------------- reference recursion


def dims(sigma: MultiIndex):
    """Each dimension of sigma repeated by its count, ascending."""
    for d, c in enumerate(sigma.row, 1):
        for _ in range(c):
            yield d


def total_derivative_multi(f: DiffPolynomial, sigma: MultiIndex) -> DiffPolynomial:
    """D_sigma(f), one total derivative at a time, from scratch."""
    for d in dims(sigma):
        f = f.total_derivative(d)
    return f


def naive_apply(q_sections, b_sections, f: DiffPolynomial) -> DiffPolynomial:
    """sum over kind, alpha, sigma of D_sigma(section) * (left partial of f)."""
    out = DiffPolynomial.zero(f.geometry)
    for kind, sections in ((QKIND, q_sections), (BKIND, b_sections)):
        for alpha, sec in enumerate(sections, 1):
            indices = {v.index for v in f.jet_variables() if (v.kind, v.fiber) == (kind, alpha)}
            for ix in sorted(indices):
                part = f.partial(JetVariable(kind, alpha, ix), LEFT)
                out = out + total_derivative_multi(sec, ix) * part
    return out


def _reference_density(f, k, h, l, slots):
    geo = f.geometry
    if k == 0 and l == 0:
        return DiffPolynomial.zero(geo)
    if k + l == 1:
        phi, hamiltonian = (h, f) if k == 0 else (f, h)
        sections = [var_b(phi, a, LEFT) for a in range(1, geo.m + 1)]
        leaf = naive_apply(sections, [], hamiltonian)
        return leaf if k == 0 else -leaf
    total = k + l - 1
    p, rest = slots[-1], slots[:-1]
    out = DiffPolynomial.zero(geo)
    if l >= 1:
        out = out + _reference_density(f, k, iota(h, p), l - 1, rest).scaled(
            Fraction(l, total)
        )
    if k >= 1:
        piece = _reference_density(iota(f, p), k - 1, h, l, rest).scaled(
            Fraction(k, total)
        )
        out = out + (piece if (l - 1) % 2 == 0 else -piece)
    return out


def reference_inserted(xi, eta, slots) -> DiffPolynomial:
    """[[xi, eta]] fully inserted on slots by the recursion
    [[xi,eta]](p) = l/(k+l-1) [[xi, eta(p)]] + (-1)^(l-1) k/(k+l-1) [[xi(p), eta]],
    each node building its value eagerly, each leaf [[H, phi]] = d_phi(H)
    summed naively."""
    return _reference_density(xi.density, xi.degree, eta.density, eta.degree, tuple(slots))


# ------------------------------------------------------- reference bA form


def naive_bA_form(f: DiffPolynomial) -> DiffPolynomial:
    """The bA form by rounds of one-step integration by parts.

    Each round rewrites every monomial c*M whose leading (minimal) odd factor
    w is derived: with w = D_d(w'), d the first base dimension w is derived
    in, it subtracts D_d of c*M with w replaced by w'.  Each round lowers
    every surviving leading factor by one derivative, so max_order() + 1
    rounds finish.
    """
    g = f.geometry
    if f.is_zero:
        return f
    if f.homogeneous_degree() < 1:
        raise DomainError("bA-form normalization needs b-degree at least 1")
    done = DiffPolynomial.zero(g)
    work = f
    for _ in range(f.max_order() + 1):
        rest = DiffPolynomial.zero(g)
        for m, c in work.terms.items():
            term = monomial(g, c, base=Counter(m.base).items(), even=m.even, odd=m.odd)
            w = m.odd[0]
            if w.index.order == 0:
                done = done + term
                continue
            d = w.index.counts[0][0]
            row = list(w.index.row)
            row[d - 1] -= 1
            lowered = JetVariable(w.kind, w.fiber, MultiIndex.from_row(row))
            primitive = monomial(
                g, c, base=Counter(m.base).items(), even=m.even, odd=(lowered, *m.odd[1:])
            )
            rest = rest + term - primitive.total_derivative(d)
        work = rest
    assert work.is_zero
    return done
