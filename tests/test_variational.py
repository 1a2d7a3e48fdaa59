"""Euler operators, exactness, functional classes, bA-form normalization.

The production Euler operator is Horner-style; a naive reimplementation of
the textbook sum over multi-indices lives in this file and the two are
compared on random densities.  Interaction laws between insertion and the
variational derivatives are checked at the exactness level they actually
hold at: on the nose for the covector insertion laws, modulo divergences
for the degree pairing.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varschouten import (
    LEFT,
    RIGHT,
    DiffPolynomial,
    DomainError,
    Functional,
    Geometry,
    GeometryMismatch,
    JetVariable,
    bvar,
    equivalent,
    iota,
    is_exact,
    midx,
    monomial,
    normalize_to_bA_form,
    pvar,
    qvar,
    var_b,
    var_derivative,
    var_p,
    var_q,
)

from varschouten.randgen import GeneratorConfig, random_density

from helpers import COPRIME_COEFFS, G11, G22, G31, naive_bA_form, polynomials

g = Geometry(1, 1, 2)


def poly(*pieces, geo=g):
    out = DiffPolynomial.zero(geo)
    for coeff, base, even, odd in pieces:
        out = out + monomial(geo, coeff, base=base, even=even, odd=odd)
    return out


def naive_var(f: DiffPolynomial, kind: int, fiber: int, slot: int = 0, side: str = LEFT):
    """Textbook Euler operator: sum over all multi-indices present in f."""
    seen = {midx()}
    for v in f.jet_variables():
        if v.kind == kind and v.fiber == fiber and v.slot == slot:
            seen.add(v.index)
    out = DiffPolynomial.zero(f.geometry)
    for ix in seen:
        piece = f.partial(JetVariable(kind, fiber, ix, slot), side)
        for dim, count in ix.counts:
            for _ in range(count):
                piece = piece.total_derivative(dim)
        out = out + (piece if ix.order % 2 == 0 else -piece)
    return out


# -- frozen variational derivatives --------------------------------------


def test_var_b_of_translation_density_both_sides():
    f = poly((1, [], [], [bvar(1), bvar(1, 1)]))  # b*b_x
    assert var_b(f, 1, LEFT) == poly((2, [], [], [bvar(1, 1)]))
    assert var_b(f, 1, RIGHT) == poly((-2, [], [], [bvar(1, 1)]))


def test_var_q_of_quadratic_hamiltonians():
    half = Fraction(1, 2)
    assert var_q(poly((half, [], [qvar(1), qvar(1)], [])), 1) == poly((1, [], [qvar(1)], []))
    assert var_q(poly((half, [], [qvar(1, 1), qvar(1, 1)], [])), 1) == poly(
        (-1, [], [qvar(1, 1, 1)], [])
    )
    # x^3 * q_xx integrates by parts onto the coefficient: D_x^2(x^3) = 6x
    assert var_q(poly((1, [(1, 3)], [qvar(1, 1, 1)], [])), 1) == poly((6, [(1, 1)], [], []))


def test_var_q_across_fibers_and_dimensions():
    f = poly((1, [], [qvar(1), qvar(2, 2)], []), geo=G22)  # q1 * d(q2)/dx2
    assert var_q(f, 2) == poly((-1, [], [qvar(1, 2)], []), geo=G22)
    assert var_q(f, 1) == poly((1, [], [qvar(2, 2)], []), geo=G22)


def test_var_p_sees_slot_variables():
    f = poly((1, [], [qvar(1), pvar(1, 1, 1)], []))  # q * p1_x
    assert var_p(f, 1, 1) == poly((-1, [], [qvar(1, 1)], []))


def test_right_euler_operator_of_odd_family():
    f = poly((1, [], [qvar(1)], [bvar(1), bvar(1, 1)]))  # q*b*b_x
    left = var_b(f, 1, LEFT)
    right = var_b(f, 1, RIGHT)
    # both arguments of the pairing are odd here, so the sides differ by sign
    assert right == -left


@settings(max_examples=60, deadline=None)
@given(polynomials(G11))
def test_horner_euler_matches_naive_sum(f):
    for kind, fiber, slot in sorted(f.families()):
        for side in (LEFT, RIGHT):
            assert var_derivative(f, kind, fiber, slot, side) == naive_var(
                f, kind, fiber, slot, side
            )


@pytest.mark.parametrize("geo", [G22, G31], ids=["G22", "G31"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_horner_euler_matches_naive_sum_2d(geo, data):
    f = data.draw(polynomials(geo))
    for kind, fiber, slot in sorted(f.families()):
        assert var_derivative(f, kind, fiber, slot) == naive_var(f, kind, fiber, slot)


# -- exactness ------------------------------------------------------------


def test_divergence_of_known_density_is_exact():
    f = poly((1, [], [qvar(1)], [bvar(1)]))
    assert is_exact(f.total_derivative(1))
    assert not is_exact(f)


def test_nonexact_witnesses():
    assert not is_exact(poly((1, [], [qvar(1)], [])))
    assert not is_exact(poly((1, [], [], [bvar(1), bvar(1, 1)])))


def test_pure_base_polynomials_are_exact():
    # over R^n a density without jet variables is always a divergence
    assert is_exact(poly((3, [(1, 2)], [], [])))
    assert is_exact(poly((1, [], [], [])))


@settings(max_examples=60, deadline=None)
@given(polynomials(G11))
def test_euler_annihilates_divergences(f):
    assert is_exact(f.total_derivative(1))


@pytest.mark.parametrize("geo", [G22, G31], ids=["G22", "G31"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_euler_annihilates_divergences_2d(geo, data):
    f, h = data.draw(polynomials(geo)), data.draw(polynomials(geo))
    divergence = f.total_derivative(1) + h.total_derivative(geo.n)
    if geo.n >= 3:
        divergence = divergence + data.draw(polynomials(geo)).total_derivative(2)
    assert is_exact(divergence)


@settings(max_examples=40, deadline=None)
@given(polynomials(G11), polynomials(G11))
def test_equivalence_ignores_divergence_shifts(f, h):
    assert equivalent(f, f + h.total_derivative(1))


def test_functional_arithmetic_respects_classes():
    f = Functional(poly((1, [], [], [bvar(1), bvar(1, 1)])))
    shift = poly((1, [], [qvar(1)], [bvar(1)])).total_derivative(1)
    assert f == Functional(f.density + shift)
    assert f != Functional(f.density + poly((1, [], [qvar(1)], [bvar(1)])))
    assert (f + f.scaled(-1)).is_zero
    assert (-f).density == f.density.scaled(-1)


def test_equivalence_rejects_mixed_geometries():
    with pytest.raises(GeometryMismatch):
        equivalent(poly((1, [], [qvar(1)], [])), poly((1, [], [qvar(1)], []), geo=G22))


# -- bA-form normalization ------------------------------------------------


def test_normalization_moves_derivatives_off_leading_factor():
    f = poly((1, [], [], [bvar(1, 1), bvar(1, 1, 1)]))  # b_x*b_xx
    assert normalize_to_bA_form(f) == poly((-1, [], [], [bvar(1), bvar(1, 1, 1, 1)]))


def test_normalization_of_inhomogeneous_coefficient():
    f = poly((2, [(1, 3)], [], [bvar(1, 1), bvar(1, 1, 1)]))  # 2x^3*b_x*b_xx
    out = normalize_to_bA_form(f)
    assert out == poly(
        (-6, [(1, 2)], [], [bvar(1), bvar(1, 1, 1)]),
        (-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]),
    )
    assert equivalent(out, f)


def test_normalization_requires_positive_degree():
    with pytest.raises(DomainError):
        normalize_to_bA_form(poly((1, [], [qvar(1)], [])))
    assert normalize_to_bA_form(DiffPolynomial.zero(g)).is_zero


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([G11, G22]).flatmap(
        lambda geo: st.integers(1, 3).flatmap(lambda k: polynomials(geo, degree=k))
    )
)
def test_normalization_preserves_class_and_strips_leading_orders(f):
    out = normalize_to_bA_form(f)
    assert equivalent(out, f)
    for m in out.terms:
        assert m.odd[0].index.order == 0


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([G11, G22]).flatmap(
        lambda geo: st.integers(1, 3).flatmap(lambda k: polynomials(geo, degree=k))
    ),
    st.booleans(),
)
def test_normalization_matches_round_by_round_rewrite(f, derive):
    """The closed form equals the one-step rewrite exactly, on divergences too."""
    if derive:
        f = f.total_derivative(f.geometry.n)
    assert normalize_to_bA_form(f) == naive_bA_form(f)


@pytest.mark.parametrize("geo", [(3, 1, 3), (1, 2, 4)], ids=["G313", "G124"])
def test_normalization_matches_rewrite_on_seeded_densities(geo):
    cfg = GeneratorConfig(geometry=Geometry(*geo), seed=11, max_order=3)
    rng = random.Random(f"bA:{geo}")
    for case in range(40):
        f = random_density(cfg, 1 + case % 3, rng)
        for h in (f, f.total_derivative(1 + case % geo[0])):
            assert normalize_to_bA_form(h) == naive_bA_form(h)


@pytest.mark.parametrize("geo", [G11, G22], ids=["G11", "G22"])
def test_normalization_commutes_with_scaling(geo):
    """The closed form runs on cleared ints and divides once: the result scales
    exactly with the input and publishes Fractions only."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), COPRIME_COEFFS, st.data())
    def run(k, c, data):
        f = data.draw(polynomials(geo, degree=k, coeffs=COPRIME_COEFFS))
        out = normalize_to_bA_form(f)
        assert normalize_to_bA_form(f.scaled(c)) == out.scaled(c)
        assert all(type(v) is Fraction for v in out.terms.values())

    run()


@pytest.mark.parametrize("geo", [G11, G22, G31], ids=["G11", "G22", "G31"])
def test_exactness_of_cleared_densities(geo):
    """is_exact clears denominators and decides piece by piece: the verdict
    must match the naive operator of every family on the whole uncleared
    density and must not change under scaling, on exact and non-exact
    densities alike, nor under a further divergence in x2 at n >= 2."""

    @settings(max_examples=30, deadline=None)
    @given(
        polynomials(geo, coeffs=COPRIME_COEFFS),
        polynomials(geo, coeffs=COPRIME_COEFFS),
        polynomials(geo, coeffs=COPRIME_COEFFS),
        COPRIME_COEFFS,
        st.integers(1, geo.n),
    )
    def run(f, h, h2, c, dim):
        for density in (f, f + h.total_derivative(dim), h.total_derivative(dim)):
            exact = is_exact(density)
            assert exact == is_exact(density.scaled(c))
            assert exact == all(
                naive_var(density, kind, fiber, slot).is_zero
                for kind, fiber, slot in density.families()
            )
            if geo.n >= 2:
                assert is_exact(density + h2.total_derivative(2)) == exact
        assert is_exact(h.total_derivative(dim).scaled(c))

    run()


# -- interaction of insertion with the variational derivatives -----------


def lemma_pair(xi, k):
    lhs = var_b(iota(xi, 1), 1, LEFT)
    rhs = iota(var_b(xi, 1, LEFT), 1).scaled(Fraction(k - 1, k))
    return lhs, rhs


def test_insertion_euler_interaction_frozen():
    xi = poly((1, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]))  # x^3*b*b_xxx
    lhs, rhs = lemma_pair(xi, 2)
    assert lhs == rhs
    assert not lhs.is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: polynomials(G11, degree=k)))
def test_insertion_scales_euler_operator(f):
    k = f.homogeneous_degree()
    if k is None:
        return
    lhs, rhs = lemma_pair(f, k)
    assert lhs == rhs
    # the right derivative picks up one extra sign
    assert var_b(iota(f, 1), 1, RIGHT) == iota(var_b(f, 1, RIGHT), 1).scaled(
        Fraction(-(k - 1), k)
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: polynomials(G11, degree=k)))
def test_insertion_commutes_with_q_derivative(f):
    if f.homogeneous_degree() is None:
        return
    assert var_q(iota(f, 1), 1) == iota(var_q(f, 1), 1)


def test_degree_one_insertion_leaves_no_odd_variables():
    xi = poly((1, [], [qvar(1, 1)], [bvar(1)]))
    assert var_b(iota(xi, 1), 1, LEFT).is_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: polynomials(G11, degree=k)))
def test_pairing_recovers_degree_modulo_divergences(f):
    k = f.homogeneous_degree()
    if k is None:
        return
    pair = DiffPolynomial.variable(G11, bvar(1)) * var_b(f, 1, LEFT)
    assert equivalent(pair, f.scaled(k))


def test_pairing_across_fibers():
    f = poly((1, [], [qvar(1)], [bvar(1), bvar(2, 2)]), geo=G22)
    pair = DiffPolynomial.zero(G22)
    for alpha in (1, 2):
        pair = pair + DiffPolynomial.variable(G22, bvar(alpha)) * var_b(f, alpha, LEFT)
    assert equivalent(pair, f.scaled(2))


# -- skew-adjoint pairing densities ---------------------------------------


@settings(max_examples=30, deadline=None)
@given(polynomials(G11, degree=0))
def test_skew_operator_pairing_has_operator_as_half_gradient(a):
    # S = a*D_x - (a*D_x)^* applied to b, paired back against b
    b, bx = (DiffPolynomial.variable(G11, v) for v in (bvar(1), bvar(1, 1)))
    s_of_b = (a * bx).scaled(2) + a.total_derivative(1) * b
    xi = b * s_of_b
    assert var_b(xi, 1, LEFT) == s_of_b.scaled(2)
