"""Multivectors: insertion, evaluation, slot inversion, operator extraction.

Evaluation is defined twice in the package (symmetrized substitution and
iterated insertion); the two are compared on the nose.  from_slots must be
an exact left inverse of evaluate, which is the property the recursive
bracket construction leans on.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varschouten import (
    DiffPolynomial,
    DomainError,
    Functional,
    Geometry,
    Multivector,
    bvar,
    decompose,
    equivalent,
    evaluate,
    evaluate_by_insertion,
    extract_operator,
    from_slots,
    insert,
    iota,
    monomial,
    multivector,
    pvar,
    qvar,
)

from helpers import G22, G31, polynomials

g = Geometry(1, 1, 4)


def poly(*pieces, geo=g):
    out = DiffPolynomial.zero(geo)
    for coeff, base, even, odd in pieces:
        out = out + monomial(geo, coeff, base=base, even=even, odd=odd)
    return out


def mv(*pieces):
    return multivector(poly(*pieces))


homogeneous = st.integers(1, 3).flatmap(lambda k: polynomials(g, degree=k))


# -- insertion -------------------------------------------------------------


def test_insertion_halves_translation_bivector():
    xi = poly((1, [], [], [bvar(1), bvar(1, 1)]))  # b*b_x
    half = Fraction(1, 2)
    assert iota(xi, 1) == poly(
        (half, [], [pvar(1, 1, 1)], [bvar(1)]),
        (-half, [], [pvar(1, 1)], [bvar(1, 1)]),
    )


def test_insertion_of_a_trivector_and_beside_another_slot():
    third = Fraction(1, 3)
    xi = poly((1, [], [], [bvar(1), bvar(1, 1), bvar(1, 1, 1)]))  # b*b_x*b_xx
    assert iota(xi, 1) == poly(
        (third, [], [pvar(1, 1)], [bvar(1, 1), bvar(1, 1, 1)]),
        (-third, [], [pvar(1, 1, 1)], [bvar(1), bvar(1, 1, 1)]),
        (third, [], [pvar(1, 1, 1, 1)], [bvar(1), bvar(1, 1)]),
    )
    half = Fraction(1, 2)
    slotted = poly((1, [], [pvar(2, 1)], [bvar(1), bvar(1, 1)]))  # p2*b*b_x
    assert iota(slotted, 1) == poly(
        (-half, [], [pvar(1, 1), pvar(2, 1)], [bvar(1, 1)]),
        (half, [], [pvar(1, 1, 1), pvar(2, 1)], [bvar(1)]),
    )


def test_insert_drops_degree_and_guards_slots():
    xi = mv((1, [], [], [bvar(1), bvar(1, 1)]))
    out = insert(xi, 2)
    assert out.degree == 1
    assert out.density == iota(xi.density, 2)
    with pytest.raises(DomainError):
        insert(insert(out, 1), 1)
    with pytest.raises(DomainError):
        insert(evaluate_and_wrap_zero(), 1)
    for outside in (0, 5):
        with pytest.raises(DomainError, match="outside geometry bounds"):
            iota(xi.density, outside)
    carried = poly((1, [], [pvar(2, 1)], [bvar(1), bvar(1, 1)]))
    for refuse in (lambda: iota(carried, 2), lambda: insert(multivector(carried), 2)):
        with pytest.raises(DomainError, match="slot 2 already used in the multivector"):
            refuse()


def evaluate_and_wrap_zero():
    return Multivector(Functional(poly((1, [], [qvar(1)], []))), 0)


def test_iota_needs_one_homogeneous_positive_degree():
    assert iota(DiffPolynomial.zero(g), 1).is_zero
    mixed = poly((1, [], [qvar(1)], []), (1, [], [], [bvar(1)]))
    with pytest.raises(DomainError):
        iota(mixed, 1)
    with pytest.raises(DomainError):
        iota(poly((1, [], [qvar(1)], [])), 1)


@settings(max_examples=40, deadline=None)
@given(homogeneous)
def test_insertion_commutes_with_total_derivative(f):
    if f.homogeneous_degree() is None:
        return
    assert iota(f.total_derivative(1), 1) == iota(f, 1).total_derivative(1)


# -- evaluation ------------------------------------------------------------


def test_evaluation_of_third_order_bivector():
    xi = mv((-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]))  # 2*x^3*b_xxx*b
    target = poly(
        (1, [(1, 3)], [pvar(1, 1, 1, 1, 1), pvar(2, 1)], []),
        (-1, [(1, 3)], [pvar(1, 1), pvar(2, 1, 1, 1, 1)], []),
    )
    assert evaluate(xi, (1, 2)).density == target
    assert evaluate(xi, (2, 1)).density == -target


def test_evaluation_of_zero_vector_is_identity():
    h = Multivector(Functional(poly((1, [], [qvar(1), qvar(1)], []))), 0)
    assert evaluate(h, ()).density == h.density


def test_evaluation_validates_slot_lists():
    xi = mv((1, [], [], [bvar(1), bvar(1, 1)]))
    with pytest.raises(DomainError):
        evaluate(xi, (1,))
    with pytest.raises(DomainError):
        evaluate(xi, (1, 1))
    for outside in ((1, 5), (0, 1)):
        with pytest.raises(DomainError, match="outside geometry bounds"):
            evaluate(xi, outside)
    seeded = multivector(poly((1, [], [pvar(1, 1)], [bvar(1), bvar(1, 1)])))
    with pytest.raises(DomainError):
        evaluate(seeded, (1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([g, G22, G31]).flatmap(
        lambda geo: st.integers(1, min(3, geo.s)).flatmap(lambda k: polynomials(geo, degree=k))
    )
)
def test_evaluate_agrees_with_iterated_insertion(f):
    k = f.homogeneous_degree()
    if k is None:
        return
    xi = multivector(f)
    slots = tuple(range(1, k + 1))
    assert evaluate(xi, slots).density == evaluate_by_insertion(xi, slots).density


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: polynomials(g, degree=k)))
def test_evaluation_is_alternating(f):
    k = f.homogeneous_degree()
    if k is None:
        return
    xi = multivector(f)
    slots = list(range(1, k + 1))
    swapped = [slots[1], slots[0]] + slots[2:]
    assert evaluate(xi, swapped).density == -evaluate(xi, slots).density


# -- slot inversion --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(homogeneous)
def test_from_slots_inverts_evaluate(f):
    k = f.homogeneous_degree()
    if k is None:
        return
    xi = multivector(f)
    slots = tuple(range(1, k + 1))
    assert from_slots(evaluate(xi, slots), slots).density == xi.density


def test_from_slots_on_shuffled_slot_order():
    xi = mv((-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]))
    val = evaluate(xi, (3, 1))
    assert from_slots(val, (3, 1)).density == xi.density
    assert from_slots(val, (1, 3)).density == -xi.density


def test_from_slots_rejects_non_evaluation_images():
    with pytest.raises(DomainError):
        from_slots(poly((1, [], [pvar(1, 1), pvar(1, 1)], [])), (1,))
    with pytest.raises(DomainError):
        from_slots(poly((1, [], [pvar(1, 1), pvar(1, 1, 1)], [])), (1,))
    with pytest.raises(DomainError):
        from_slots(poly((1, [], [pvar(1, 1)], [])), (1, 2))
    with pytest.raises(DomainError):
        from_slots(poly((1, [], [pvar(1, 1)], [bvar(1)])), (1,))
    with pytest.raises(DomainError):
        from_slots(poly((1, [], [pvar(1, 1)], [])), (1, 1))


# -- wrapping and decomposition ---------------------------------------------


def test_multivector_inference_and_validation():
    assert mv((1, [], [], [bvar(1), bvar(1, 1)])).degree == 2
    with pytest.raises(DomainError):
        multivector(DiffPolynomial.zero(g))
    with pytest.raises(DomainError):
        multivector(poly((1, [], [qvar(1)], []), (1, [], [], [bvar(1)])))
    with pytest.raises(DomainError):
        Multivector(Functional(poly((1, [], [], [bvar(1)]))), 2)
    with pytest.raises(DomainError):
        Multivector(Functional(DiffPolynomial.zero(g)), -1)


def test_classes_distinguish_coefficient_shifts():
    # no amount of integration by parts turns q*b into (q + q_x)*b
    a = mv((1, [], [qvar(1)], [bvar(1)]))
    b = multivector(poly((1, [], [qvar(1)], [bvar(1)]), (1, [], [qvar(1, 1)], [bvar(1)])))
    assert a != b


def test_decompose_splits_degrees_and_drops_divergences():
    exact3 = poly((1, [], [], [bvar(1), bvar(1, 1), bvar(1, 1, 1)])).total_derivative(1)
    f = poly((1, [], [], [bvar(1), bvar(1, 1)]), (1, [], [qvar(1)], [bvar(1)])) + exact3
    parts = decompose(f)
    assert sorted(p.degree for p in parts) == [1, 2]
    for p in parts:
        assert p.density == f.b_components()[p.degree]


# -- operator extraction ----------------------------------------------------


def test_extract_operator_of_kdv_structure():
    xi = mv(
        (1, [], [], [bvar(1), bvar(1, 1, 1, 1)]),
        (1, [], [qvar(1)], [bvar(1), bvar(1, 1)]),
    )
    (a,) = extract_operator(xi)
    assert a == poly(
        (1, [], [], [bvar(1, 1, 1, 1)]),
        (1, [], [qvar(1)], [bvar(1, 1)]),
        (Fraction(1, 2), [], [qvar(1, 1)], [bvar(1)]),
    )
    paired = DiffPolynomial.variable(g, bvar(1)) * a
    assert equivalent(paired, xi.density)


def test_extract_operator_needs_positive_degree():
    with pytest.raises(DomainError):
        extract_operator(Multivector(Functional(poly((1, [], [qvar(1)], []))), 0))
