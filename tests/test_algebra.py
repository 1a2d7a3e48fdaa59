"""Graded core: canonical form, products, partials, total derivatives.

Signs are checked two ways: small hand-derived cases are frozen literally,
and hypothesis cases are replayed against the independent blade model from
helpers, which counts inversions from scratch over a different variable
order.
"""

import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varschouten import (
    DiffPolynomial,
    DomainError,
    Geometry,
    JetVariable,
    MultiIndex,
    BKIND,
    LEFT,
    PKIND,
    QKIND,
    RIGHT,
    bvar,
    iota,
    is_exact,
    midx,
    monomial,
    parse_polynomial,
    pvar,
    qvar,
)
from varschouten.algebra import Monomial, _pieces

from helpers import (
    G11,
    G22,
    G31,
    BladeModel,
    polynomials,
    reference_order,
    total_derivative_multi,
    variables,
    with_alarm,
)

g = Geometry(1, 1, 2)


def poly(*pieces):
    out = DiffPolynomial.zero(g)
    for coeff, base, even, odd in pieces:
        out = out + monomial(g, coeff, base=base, even=even, odd=odd)
    return out


def test_repeated_odd_factor_vanishes():
    b = DiffPolynomial.variable(g, bvar(1))
    assert (b * b).is_zero


def test_canonical_sign_for_swapped_letters():
    b, bx = DiffPolynomial.variable(g, bvar(1)), DiffPolynomial.variable(g, bvar(1, 1))
    assert bx * b == -(b * bx)
    assert (b * bx) * (b * bx) == DiffPolynomial.zero(g)


def test_odd_order_is_fiber_major():
    gg = Geometry(1, 2, 2)
    b1x = DiffPolynomial.variable(gg, bvar(1, 1))
    b2 = DiffPolynomial.variable(gg, bvar(2))
    prod = b2 * b1x
    ((mono, coeff),) = prod.terms.items()
    assert mono.odd == (bvar(1, 1), bvar(2))
    assert coeff == -1


def test_jet_variable_survives_pickle_and_deepcopy():
    v = JetVariable(PKIND, 1, midx(1), 2)
    copies = [pickle.loads(pickle.dumps(v, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for w in copies + [copy.deepcopy(v)]:
        assert type(w) is JetVariable
        assert w == v
        assert (w.kind, w.fiber, w.index, w.slot) == (PKIND, 1, midx(1), 2)


def _slot_variables(geo):
    return st.builds(
        lambda v, slot: JetVariable(PKIND, v.fiber, v.index, slot),
        variables(geo, PKIND),
        st.integers(1, geo.s),
    )


def _any_variable(geo):
    return st.one_of(variables(geo, QKIND), variables(geo, BKIND), _slot_variables(geo))


@st.composite
def _with_slots(draw, geo):
    """A random density plus a random density times up to three slot factors."""
    f, h = draw(polynomials(geo)), draw(polynomials(geo))
    return f + h * monomial(geo, 1, even=draw(st.lists(_slot_variables(geo), max_size=3)))


@pytest.mark.parametrize("geo", [G11, G22, G31], ids=["1d", "2d", "3d"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tuple_order_is_the_reference_order(geo, data):
    n = geo.n
    vs = data.draw(st.lists(_any_variable(geo), max_size=8))
    assert sorted(vs) == sorted(vs, key=reference_order(n))
    assert sorted(vs) == sorted(vs, key=reference_order(n + 1))
    # stored words and factor lists are ascending in the reference order,
    # so the signs folded into coefficients are the reference signs
    f, h = data.draw(polynomials(geo)), data.draw(polynomials(geo))
    key = reference_order(n)
    results = [f * h]
    results += [iota(comp, 1) for deg, comp in f.b_components().items() if deg >= 1]
    results += [f.total_derivative(dim) for dim in range(1, n + 1)]
    for r in results:
        for m in r.terms:
            odd = [key(v) for v in m.odd]
            even = [key(v) for v in m.even]
            assert odd == sorted(set(odd))
            assert even == sorted(even)


def test_left_and_right_partials_differ_by_position():
    f = poly((1, [], [], [bvar(1), bvar(1, 1)]))  # b*b_x
    b, bx = bvar(1), bvar(1, 1)
    assert f.partial(b, LEFT) == poly((1, [], [], [bx]))
    assert f.partial(bx, LEFT) == poly((-1, [], [], [b]))
    assert f.partial(b, RIGHT) == poly((-1, [], [], [bx]))
    assert f.partial(bx, RIGHT) == poly((1, [], [], [b]))


def test_partial_of_even_power():
    f = poly((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    assert f.partial(qvar(1), LEFT) == poly((1, [], [qvar(1)], []))


def test_partial_base_variable_is_zero():
    f = poly((3, [(1, 2)], [], []))
    assert f.partial(qvar(1), LEFT).is_zero


def test_total_derivative_frozen_case():
    f = poly((1, [(1, 3)], [], [bvar(1)]))  # x^3*b
    d2 = f.total_derivative(1).total_derivative(1)
    expected = poly(
        (6, [(1, 1)], [], [bvar(1)]),
        (6, [(1, 2)], [], [bvar(1, 1)]),
        (1, [(1, 3)], [], [bvar(1, 1, 1)]),
    )
    assert d2 == expected


def test_total_derivative_kills_nothing_silently():
    # constants have zero derivative, everything else shifts
    assert DiffPolynomial.const(g, 5).total_derivative(1).is_zero
    v = DiffPolynomial.variable(g, qvar(1))
    assert v.total_derivative(1) == DiffPolynomial.variable(g, qvar(1, 1))


def test_slot_variables_shift_but_do_not_couple_to_q():
    f = DiffPolynomial.variable(g, pvar(1, 1))
    assert f.total_derivative(1) == DiffPolynomial.variable(g, pvar(1, 1, 1))
    assert f.partial(qvar(1), LEFT).is_zero


def test_substitute_slot_transports_sections():
    f = DiffPolynomial.variable(g, pvar(1, 1, 1))  # p1_x
    qx = DiffPolynomial.variable(g, qvar(1, 1))
    assert f.substitute_slot(1, (qx,)) == DiffPolynomial.variable(g, qvar(1, 1, 1))


def test_substitute_slot_rejects_odd_sections():
    f = DiffPolynomial.variable(g, pvar(1, 1))
    b = DiffPolynomial.variable(g, bvar(1))
    with pytest.raises(DomainError):
        f.substitute_slot(1, (b,))


def test_geometry_bounds_enforced():
    with pytest.raises(DomainError):
        monomial(g, 1, even=[qvar(2)])  # fiber 2 with m=1
    with pytest.raises(DomainError):
        monomial(g, 1, even=[pvar(3, 1)])  # slot 3 with s=2
    with pytest.raises(DomainError):
        Geometry(0, 1, 1)


def test_layout_limits_are_domain_errors():
    Geometry(8, 4095, 4095)
    for n, m, s in ((9, 1, 1), (1, 4096, 1), (1, 1, 4096)):
        with pytest.raises(DomainError):
            Geometry(n, m, s)
    JetVariable(PKIND, 4095, midx(*[8] * 511), 4095)
    for args in (
        (3, 1, midx()),  # no such kind
        (QKIND, 4096, midx()),
        (QKIND, -1, midx()),
        (PKIND, 1, midx(), 4096),
        (QKIND, 1, midx(*[2] * 512)),  # count past 511
        (QKIND, 1, midx(9)),  # a ninth base dimension
        (QKIND, 1, MultiIndex(-1, (-1,))),
    ):
        with pytest.raises(DomainError):
            JetVariable(*args)


@pytest.mark.parametrize("dim", [1, 8])
def test_total_derivative_past_the_count_limit_raises(dim):
    g8 = Geometry(8, 1, 1)
    other = 9 - dim
    for v in (qvar(1, *[dim] * 511), bvar(1, *[dim] * 511), pvar(1, 1, *[dim] * 511)):
        f = DiffPolynomial.variable(g8, v)
        with pytest.raises(DomainError, match="511"):
            f.total_derivative(dim)
        lifted = f.total_derivative(other)  # the other counts still have room
        ((mono, _),) = lifted.terms.items()
        (w,) = mono.odd or mono.even
        assert w.index == midx(*[dim] * 511, other)


def test_orders_up_to_the_count_limit_work():
    g8 = Geometry(8, 1, 1)
    dims = [d for d in range(1, 9) for _ in range(510)]
    f = DiffPolynomial.variable(g8, bvar(1, *dims))
    for d in range(1, 9):
        f = f.total_derivative(d)
    ((mono, c),) = f.terms.items()
    (top,) = mono.odd
    assert c == 1
    assert top.index == midx(*dims, *range(1, 9))
    assert top.index.order == 8 * 511
    assert top.kind == BKIND and top.fiber == 1 and top.slot == 0
    assert f.partial(top, LEFT) == DiffPolynomial.const(g8, 1)
    # the order of the layout still holds at the limit
    vs = [top, bvar(1, *[1] * 511), bvar(1, *[8] * 511), bvar(1, 1, *[8] * 510)]
    vs += [qvar(1, 8), pvar(1, 1)]
    assert sorted(vs) == sorted(vs, key=reference_order(8))


def test_repeated_base_dimensions_merge():
    built = monomial(g, 1, base=[(1, 1), (1, 1)])
    assert built == DiffPolynomial.base(g, 1, 2)
    assert built == parse_polynomial("x*x", g)


def test_powers_differentiate_in_linear_time():
    """A power v^e is e equal entries; it is derived once, not once per entry."""
    e = 20000
    q, q_x, q_xx = qvar(1), qvar(1, 1), qvar(1, 1, 1)
    x_power = DiffPolynomial.base(g, 1, e) * DiffPolynomial.variable(g, q)
    q_x_power = monomial(g, even=[q_x] * e)
    results = with_alarm(
        lambda: (x_power.total_derivative(1), q_x_power.total_derivative(1), q_x_power.partial(q_x)), 2
    )
    assert results == (
        monomial(g, e, base=[(1, e - 1)], even=[q]) + monomial(g, base=[(1, e)], even=[q_x]),
        monomial(g, e, even=[q_x] * (e - 1) + [q_xx]),
        monomial(g, e, even=[q_x] * (e - 1)),
    )
    # each run of a mixed monomial keeps its own weight
    mixed = monomial(g, even=[q, q, q_x, q_x, q_x])
    assert mixed.total_derivative(1) == poly(
        (2, (), [q] + [q_x] * 4, ()), (3, (), [q, q, q_x, q_x, q_xx], ())
    )
    assert mixed.partial(q_x) == monomial(g, 3, even=[q, q, q_x, q_x])


def test_mixed_geometry_arithmetic_rejected():
    a = DiffPolynomial.variable(Geometry(1, 1, 2), qvar(1))
    b = DiffPolynomial.variable(Geometry(2, 1, 2), qvar(1))
    with pytest.raises(Exception):
        a + b


def test_homogeneous_degree():
    assert poly((1, [], [], [bvar(1), bvar(1, 1)])).homogeneous_degree() == 2
    assert DiffPolynomial.zero(g).homogeneous_degree() is None
    mixed = poly((1, [], [], [bvar(1)]), (1, [], [qvar(1)], []))
    with pytest.raises(DomainError):
        mixed.homogeneous_degree()


# ------------------------------------------------------------- model replay


@given(polynomials(G11), polynomials(G11))
@settings(max_examples=150, deadline=None)
def test_product_matches_blade_model_1d(f, h):
    model = BladeModel()
    a, b = model.from_poly(f), model.from_poly(h)
    assert model.from_poly(f * h) == model.mul(a, b)


@given(polynomials(G22), polynomials(G22))
@settings(max_examples=100, deadline=None)
def test_product_matches_blade_model_2d(f, h):
    model = BladeModel()
    a, b = model.from_poly(f), model.from_poly(h)
    assert model.from_poly(f * h) == model.mul(a, b)


@given(polynomials(G11))
@settings(max_examples=100, deadline=None)
def test_partials_match_blade_model(f):
    model = BladeModel()
    a = model.from_poly(f)
    for k in range(4):
        v = bvar(1, *([1] * k))
        assert model.from_poly(f.partial(v, LEFT)) == model.partial_odd(a, v, "left")
        assert model.from_poly(f.partial(v, RIGHT)) == model.partial_odd(a, v, "right")


@given(polynomials(G22))
@settings(max_examples=100, deadline=None)
def test_partials_match_blade_model_2d(f):
    model = BladeModel()
    a = model.from_poly(f)
    for v in {v for m in f.terms for v in m.odd}:
        assert model.from_poly(f.partial(v, LEFT)) == model.partial_odd(a, v, "left")
        assert model.from_poly(f.partial(v, RIGHT)) == model.partial_odd(a, v, "right")


@pytest.mark.parametrize("geo", [G11, G22], ids=["1d", "2d"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_euler_identity_counts_jet_factors(geo, data):
    """sum_v v * (left d/dv) f = sum_v (right d/dv) f * v = f with each monomial
    weighted by its number of jet factors, counted with multiplicity."""
    f = data.draw(_with_slots(geo))
    weighted = {
        m: c * (len(m.even) + len(m.odd))
        for m, c in f.terms.items()
        if m.even or m.odd
    }
    left = right = DiffPolynomial.zero(geo)
    for v in f.jet_variables():
        x = DiffPolynomial.variable(geo, v)
        left = left + x * f.partial(v, LEFT)
        right = right + f.partial(v, RIGHT) * x
    assert left == DiffPolynomial(geo, weighted)
    assert right == DiffPolynomial(geo, weighted)


def _naive_substitute_slot(f, slot, sections):
    """Each monomial rebuilt factor by factor with variable, * and +, every
    slot factor replaced by its section's jet computed from scratch."""
    geo = f.geometry
    out = DiffPolynomial.zero(geo)
    for m, c in f.terms.items():
        piece = monomial(geo, c, base=Counter(m.base).items())
        for v, e in Counter(m.even).items():
            if v.kind == PKIND and v.slot == slot:
                factor = total_derivative_multi(sections[v.fiber - 1], v.index)
            else:
                factor = DiffPolynomial.variable(geo, v)
            for _ in range(e):
                piece = piece * factor
        for v in m.odd:
            piece = piece * DiffPolynomial.variable(geo, v)
        out = out + piece
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_substitute_slot_matches_naive_composition(data):
    f = data.draw(_with_slots(G22))
    # a squared slot factor and a slot factor with a two-dimensional row
    f = f + data.draw(polynomials(G22)) * monomial(
        G22, 1, even=[pvar(1, 1), pvar(1, 1), pvar(1, 2, 1, 2)]
    )
    degrees = data.draw(st.lists(st.sampled_from([0, 2]), min_size=2, max_size=2))
    sections = [data.draw(polynomials(G22, degree=d)) for d in degrees]
    for slot in (1, 2):
        assert f.substitute_slot(slot, sections) == _naive_substitute_slot(f, slot, sections)


@given(polynomials(G11, degree=1), polynomials(G11, degree=1), polynomials(G11, degree=2))
@settings(max_examples=80, deadline=None)
def test_graded_commutativity(f, h, k2):
    assert f * h == -(h * f)
    assert f * k2 == k2 * f
    assert (f * f).is_zero


@given(polynomials(G22), polynomials(G22))
@settings(max_examples=80, deadline=None)
def test_total_derivative_leibniz(f, h):
    for dim in (1, 2):
        lhs = (f * h).total_derivative(dim)
        rhs = f.total_derivative(dim) * h + f * h.total_derivative(dim)
        assert lhs == rhs


@given(polynomials(G22))
@settings(max_examples=80, deadline=None)
def test_total_derivatives_commute(f):
    d12 = f.total_derivative(1).total_derivative(2)
    d21 = f.total_derivative(2).total_derivative(1)
    assert d12 == d21


@given(polynomials(G11), polynomials(G11), polynomials(G11))
@settings(max_examples=60, deadline=None)
def test_associativity(f, h, k):
    assert (f * h) * k == f * (h * k)


@given(polynomials(G11))
@settings(max_examples=60, deadline=None)
def test_scalar_ring_axioms(f):
    assert f + (-f) == DiffPolynomial.zero(G11)
    assert f.scaled(Fraction(3, 2)).scaled(Fraction(2, 3)) == f
    assert (f - f).is_zero


# -- graded pieces of a density -------------------------------------------


@pytest.mark.parametrize("geo", [G11, G22, G31], ids=["G11", "G22", "G31"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pieces_partition_the_terms_and_keep_divergences_whole(geo, data):
    """_pieces splits a term dict into disjoint nonempty parts, smallest
    first, and D_i of one piece lands in one piece."""
    f = data.draw(polynomials(geo, max_terms=5))
    pieces = _pieces(f.terms)
    assert all(pieces) and [len(p) for p in pieces] == sorted(len(p) for p in pieces)
    assert sum(len(p) for p in pieces) == len(f.terms)
    assert {m: c for p in pieces for m, c in p.items()} == f.terms
    for piece in pieces:
        for dim in range(1, geo.n + 1):
            assert len(_pieces(DiffPolynomial(geo, piece).total_derivative(dim).terms)) <= 1


def _graded_example():
    """D_x(x^2*q) + D_x(q*b) + q_x^2: three pieces of 2, 2 and 1 terms."""
    q, qx = DiffPolynomial.variable(g, qvar(1)), DiffPolynomial.variable(g, qvar(1, 1))
    b = DiffPolynomial.variable(g, bvar(1))
    divergence = (DiffPolynomial.base(g, 1, 2) * q).total_derivative(1) + (q * b).total_derivative(1)
    return divergence, qx * qx


def test_graded_example_is_decided_piece_by_piece():
    divergence, square = _graded_example()
    f = divergence + square
    assert [len(p) for p in _pieces(f.terms)] == [1, 2, 2]
    assert _pieces(f.terms)[0] == square.terms
    assert not is_exact(f)
    assert is_exact(f - square)


def test_smallest_deciding_piece_runs_only_its_own_euler_operators(monkeypatch):
    """q_x^2 is the one-term piece and decides: the Euler operators see
    only its q-partial, not the families of the two divergence pieces."""
    from varschouten import variational

    seen, euler = [], variational._euler

    def recording(parts):
        seen.append({m for terms in parts.values() for m in terms})
        return euler(parts)

    monkeypatch.setattr(variational, "_euler", recording)
    divergence, square = _graded_example()
    assert not is_exact(divergence + square)
    assert seen == [{Monomial((), (qvar(1, 1),), ())}]
