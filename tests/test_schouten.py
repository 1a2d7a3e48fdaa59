"""The bracket itself: all three routes, structure checks, and the two
remark-level subtleties (the pairing factor and the genuine-jet insertion
counterexample).

Frozen cases were worked by hand at the density level; the hypothesis
blocks then push the same identities through random densities in one and
two dimensions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varschouten import (
    LEFT,
    RIGHT,
    DiffPolynomial,
    DomainError,
    EvolutionaryField,
    Functional,
    GeneratorConfig,
    Geometry,
    Multivector,
    bracket_base_case,
    bracket_poisson,
    bracket_recursive,
    bracket_via_q,
    bvar,
    equivalent,
    evaluate,
    evolutionary_field,
    from_slots,
    graded_commutator,
    iota,
    is_exact,
    is_poisson,
    jacobi_defect,
    monomial,
    multivector,
    pvar,
    q_differential_check,
    q_field,
    qvar,
    random_multivector,
    schouten_density,
    var_b,
    var_q,
)

from varschouten.batteries import _DEGREE_PAIRS

from helpers import COPRIME_COEFFS, G11, G22, naive_apply, polynomials, reference_inserted

g = Geometry(1, 1, 4)


def poly(*pieces, geo=g):
    out = DiffPolynomial.zero(geo)
    for coeff, base, even, odd in pieces:
        out = out + monomial(geo, coeff, base=base, even=even, odd=odd)
    return out


def mv(*pieces, geo=g):
    return multivector(poly(*pieces, geo=geo))


TRANSLATION = ((1, [], [], [bvar(1), bvar(1, 1)]),)  # int b*b_x
THIRD_ORDER = ((1, [(1, 3)], [qvar(1, 1, 1)], [bvar(1)]),)  # int x^3*q_xx*b
KDV = (
    (1, [], [], [bvar(1), bvar(1, 1, 1, 1)]),
    (1, [], [qvar(1)], [bvar(1), bvar(1, 1)]),
)


def degree_pair(k, l):
    return st.tuples(polynomials(g, degree=k), polynomials(g, degree=l))


# -- density route ----------------------------------------------------------


def test_commuting_translation_flows_bracket_to_zero():
    v1 = poly((1, [], [qvar(1, 1)], [bvar(1)]))
    v2 = poly((1, [], [qvar(1), qvar(1, 1)], [bvar(1)]))
    assert is_exact(schouten_density(v1, v2))


def test_vector_field_commutator_value():
    w1 = poly((1, [(1, 1)], [qvar(1)], [bvar(1)]))  # x*q*b
    w2 = poly((1, [], [qvar(1, 1)], [bvar(1)]))  # q_x*b
    assert equivalent(schouten_density(w1, w2), poly((-1, [], [qvar(1)], [bvar(1)])))


def test_third_order_bracket_representative_and_witness():
    raw = schouten_density(poly(*TRANSLATION), poly(*THIRD_ORDER))
    assert raw == poly(
        (-12, [(1, 1)], [], [bvar(1), bvar(1, 1)]),
        (2, [(1, 3)], [], [bvar(1, 1), bvar(1, 1, 1)]),
    )
    target = poly((2, [(1, 3)], [], [bvar(1, 1, 1, 1), bvar(1)]))
    divergence = (
        poly((2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1)]))
        - poly((6, [(1, 2)], [], [bvar(1), bvar(1, 1)]))
    ).total_derivative(1)
    assert raw - target == divergence


def test_quadratic_bracket_is_exactly_reproduced():
    report = bracket_poisson(mv(*TRANSLATION), mv((1, [], [qvar(1, 1)], [bvar(1), bvar(1, 1)])))
    assert report.representative.density == poly(
        (2, [], [], [bvar(1), bvar(1, 1), bvar(1, 1, 1)])
    )


def test_report_metadata_for_nonzero_and_zero_results():
    r = bracket_poisson(mv(*TRANSLATION), mv(*THIRD_ORDER))
    assert (r.method, r.zero, r.degree, r.result.degree) == ("poisson", False, 2, 2)
    z = bracket_poisson(mv(*TRANSLATION), mv(*TRANSLATION))
    assert (z.zero, z.degree, z.result) == (True, None, None)
    assert z.representative.is_zero


def test_bracket_rejects_mixed_geometries():
    with pytest.raises(DomainError):
        schouten_density(poly((1, [], [], [bvar(1)])), poly((1, [], [], [bvar(1)]), geo=Geometry(2, 2, 3)))


# -- evolutionary field route ------------------------------------------------


def test_q_field_sections_of_translation_and_kdv():
    f1 = q_field(mv(*TRANSLATION))
    assert f1.q_sections == (poly((2, [], [], [bvar(1, 1)])),)
    assert f1.b_sections == (DiffPolynomial.zero(g),)
    assert f1.parity == 1
    f2 = q_field(mv(*KDV))
    assert f2.q_sections == (
        poly(
            (2, [], [], [bvar(1, 1, 1, 1)]),
            (2, [], [qvar(1)], [bvar(1, 1)]),
            (1, [], [qvar(1, 1)], [bvar(1)]),
        ),
    )
    assert f2.b_sections == (poly((1, [], [], [bvar(1), bvar(1, 1)])),)


def test_field_route_reproduces_third_order_bracket_exactly():
    r = bracket_via_q(mv(*TRANSLATION), mv(*THIRD_ORDER))
    assert r.method == "qfield"
    assert r.representative.density == poly((2, [(1, 3)], [], [bvar(1, 1, 1, 1), bvar(1)]))


def test_field_parity_validation():
    with pytest.raises(DomainError):
        evolutionary_field(g, (poly((1, [], [qvar(1)], [])),), (DiffPolynomial.zero(g),), 1)


def test_vector_field_commutator_matches_bracket_field():
    w1 = mv((1, [(1, 1)], [qvar(1)], [bvar(1)]))
    w2 = mv((1, [], [qvar(1, 1)], [bvar(1)]))
    probe = poly((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    lhs = q_field(bracket_poisson(w1, w2).result).apply(probe)
    rhs = graded_commutator(q_field(w1), q_field(w2), probe)
    assert equivalent(lhs, rhs)


@settings(max_examples=20, deadline=None)
@given(degree_pair(1, 2), polynomials(g, degree=0))
def test_commutator_of_odd_and_even_fields(pair, probe):
    f, h = pair
    if f.homogeneous_degree() is None or h.homogeneous_degree() is None:
        return
    xi, eta = multivector(f), multivector(h)
    d = schouten_density(f, h)
    lhs = EvolutionaryField(
        (-var_b(d, 1, RIGHT),), (var_q(d, 1),), (xi.degree + eta.degree) % 2
    ).apply(probe)
    rhs = graded_commutator(q_field(xi), q_field(eta), probe)
    assert equivalent(lhs, rhs)


# -- recursive route ----------------------------------------------------------


def test_recursion_inserted_form_and_reconstruction():
    r = bracket_recursive(mv(*TRANSLATION), mv(*THIRD_ORDER), slots=(1, 2))
    assert (r.method, r.slots) == ("recursive", (1, 2))
    assert r.inserted.density == poly(
        (1, [(1, 3)], [pvar(1, 1, 1, 1, 1), pvar(2, 1)], []),
        (-1, [(1, 3)], [pvar(1, 1), pvar(2, 1, 1, 1, 1)], []),
    )
    assert r.representative.density == poly((2, [(1, 3)], [], [bvar(1, 1, 1, 1), bvar(1)]))
    assert equivalent(
        r.representative,
        bracket_poisson(mv(*TRANSLATION), mv(*THIRD_ORDER)).representative,
    )


def test_recursion_allocates_lowest_free_slots():
    r = bracket_recursive(mv(*TRANSLATION), mv(*THIRD_ORDER))
    assert r.slots == (1, 2)
    seeded = mv((1, [(1, 3)], [qvar(1, 1, 1), pvar(1, 1)], [bvar(1)]))
    r2 = bracket_recursive(mv(*TRANSLATION), seeded)
    assert r2.slots == (2, 3)


def test_recursion_slot_validation():
    xi, eta = mv(*TRANSLATION), mv(*THIRD_ORDER)
    for bad in [(1,), (1, 1), (0, 1), (1, 5)]:
        with pytest.raises(DomainError):
            bracket_recursive(xi, eta, slots=bad)
    seeded = mv((1, [(1, 3)], [qvar(1, 1, 1), pvar(1, 1)], [bvar(1)]))
    with pytest.raises(DomainError):
        bracket_recursive(xi, seeded, slots=(1, 2))
    tight = Geometry(1, 1, 1)
    with pytest.raises(DomainError):
        bracket_recursive(
            mv((1, [], [], [bvar(1), bvar(1, 1)]), geo=tight),
            mv((1, [], [qvar(1)], [bvar(1)]), geo=tight),
        )


def test_base_cases_carry_opposite_signs():
    h = mv((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    phi = mv((1, [], [qvar(1)], [bvar(1)]))
    q_squared = poly((1, [], [(qvar(1))], [])) * poly((1, [], [(qvar(1))], []))
    assert bracket_recursive(h, phi).representative.density == q_squared
    assert bracket_recursive(phi, h).representative.density == -q_squared
    assert bracket_base_case(h, phi).density == q_squared
    with pytest.raises(DomainError):
        bracket_base_case(phi, h)


def test_empty_base_case_is_zero():
    h = mv((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    r = bracket_recursive(h, h)
    assert r.zero and r.representative.is_zero and r.slots == ()


def test_two_zero_vectors_check_their_slots():
    h, k = mv((1, [], [qvar(1), qvar(1)], [])), mv((1, [(1, 1)], [qvar(1, 1)], []))
    with pytest.raises(DomainError):
        bracket_recursive(h, k, slots=(1, 2, 9))
    for r in (bracket_recursive(h, k), bracket_recursive(h, k, slots=())):
        assert r.zero and r.degree is None and r.slots == ()
        assert r.representative.density.is_zero and r.inserted.density.is_zero


@settings(max_examples=12, deadline=None)
@given(degree_pair(2, 1))
def test_recursion_agrees_with_density_route(pair):
    f, h = pair
    if f.homogeneous_degree() is None or h.homogeneous_degree() is None:
        return
    xi, eta = multivector(f), multivector(h)
    r = bracket_recursive(xi, eta)
    assert equivalent(r.representative, bracket_poisson(xi, eta).representative)


@pytest.mark.parametrize("geo", [G11, G22], ids=["G11", "G22"])
def test_recursion_matches_eager_reference(geo):
    """The path-weighted recursion against the node-by-node one, term for term."""

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1)]), st.data())
    def run(pair, data):
        k, l = pair
        xi = Multivector(Functional(data.draw(polynomials(geo, degree=k))), k)
        eta = Multivector(Functional(data.draw(polynomials(geo, degree=l))), l)
        r = bracket_recursive(xi, eta)
        assert r.inserted.density == reference_inserted(xi, eta, r.slots)

    run()


@pytest.mark.parametrize("k,l", _DEGREE_PAIRS)
def test_recursion_matches_eager_reference_on_battery_pairs(k, l):
    cfg = GeneratorConfig(seed=4, max_order=2)
    for case in range(2):
        xi = random_multivector(cfg, k, salt=f"ref:{case}:xi")
        eta = random_multivector(cfg, l, salt=f"ref:{case}:eta")
        r = bracket_recursive(xi, eta)
        assert r.inserted.density == reference_inserted(xi, eta, r.slots)


def assert_matches_reference(xi, eta, slots):
    r = bracket_recursive(xi, eta, slots=slots)
    expected = reference_inserted(xi, eta, slots)
    assert r.slots == slots and not expected.is_zero
    assert r.inserted.density == expected
    assert r.representative.density == from_slots(expected, slots).density
    return r


@pytest.mark.parametrize(
    "geo,k,l,slots",
    [(Geometry(1, 1, 4), 2, 2, (4, 1, 3)), (Geometry(2, 2, 3), 3, 1, (3, 1, 2)),
     (Geometry(1, 1, 4), 3, 2, (2, 4, 1, 3)), (Geometry(1, 2, 5), 3, 3, (5, 2, 4, 1, 3)),
     (Geometry(1, 2, 5), 4, 1, (3, 1, 4, 2)), (Geometry(1, 2, 5), 1, 4, (2, 4, 1, 3)),
     (Geometry(2, 2, 5), 2, 3, (5, 3, 1, 4))],
    ids=["G114-2-2", "G223-3-1", "G114-3-2", "G125-3-3", "G125-4-1", "G125-1-4", "G225-2-3"],
)
def test_recursion_renames_unsorted_user_slots(geo, k, l, slots):
    """Each leaf's orbit representatives send the inserted letters, in
    ascending order, to its chains' slots in ascending order, and the sorting
    signs of the chains and the closed-form signs of the two shapes must hold
    on user slots out of order and with gaps, up to degree pairs (3, 3), (4, 1)
    and (1, 4)."""
    cfg = GeneratorConfig(geometry=geo, seed=4, max_order=2, max_degree=4)
    for case in range(2):
        xi = random_multivector(cfg, k, salt=f"rename:{case}:xi")
        eta = random_multivector(cfg, l, salt=f"rename:{case}:eta")
        assert_matches_reference(xi, eta, slots)


@pytest.mark.parametrize("geo", [Geometry(1, 1, 4), Geometry(2, 2, 4)], ids=["G11", "G22"])
def test_recursion_matches_reference_on_shuffled_slots(geo):
    """The density rebuilt from the two leaves' orbit representatives, and the
    inserted value evaluated from it, against the eager recursion term for
    term, on explicit slots in any order (G11 and G22 with four slots)."""

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3)]),
           st.permutations(range(1, geo.s + 1)), st.data())
    def run(pair, order, data):
        k, l = pair
        xi = Multivector(Functional(data.draw(polynomials(geo, degree=k))), k)
        eta = Multivector(Functional(data.draw(polynomials(geo, degree=l))), l)
        slots = tuple(order[: k + l - 1])
        r = bracket_recursive(xi, eta, slots=slots)
        expected = reference_inserted(xi, eta, slots)
        assert r.inserted.density == expected
        assert r.representative.density == from_slots(expected, slots).density

    run()


def test_recursion_leaves_argument_slots_alone():
    """A slot variable an argument already carries is not a renamed slot."""
    p4 = pvar(4, 1, 1)
    xi = mv(*TRANSLATION, (1, [], [p4], [bvar(1), bvar(1, 1, 1)]))
    eta = mv((1, [(1, 3)], [qvar(1, 1, 1), pvar(4, 1)], [bvar(1)]), (2, [], [qvar(1)], [bvar(1, 1)]))
    for slots in ((1, 2), (2, 1), (3, 1)):
        r = assert_matches_reference(xi, eta, slots)
        assert all(any(v.slot == 4 for v in m.even) for m in r.inserted.density.terms)


def test_recursion_computes_each_leaf_shape_once(monkeypatch):
    from varschouten import schouten

    calls = []
    apply_into = schouten._apply_into
    monkeypatch.setattr(schouten, "_apply_into", lambda *a: calls.append(1) or apply_into(*a))
    cfg = GeneratorConfig(seed=4, max_order=2)
    xi, eta = random_multivector(cfg, 3, salt="shapes:xi"), random_multivector(cfg, 2, salt="shapes:eta")
    r = bracket_recursive(xi, eta)
    assert len(calls) <= 2 and not r.inserted.is_zero


@pytest.mark.parametrize("parity", [0, 1])
def test_field_apply_matches_naive_sum(parity):
    """Jets built from their prefixes equal jets transported from scratch (n = 2)."""
    mixed = monomial(
        G22, 1, even=[qvar(1, 1, 2), qvar(2, 2, 2)], odd=[bvar(1, 2, 2), bvar(2, 1, 2)]
    )

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def run(data):
        qs = tuple(data.draw(polynomials(G22, degree=parity)) for _ in range(G22.m))
        bs = tuple(data.draw(polynomials(G22, degree=1 - parity)) for _ in range(G22.m))
        f = data.draw(polynomials(G22)) + mixed
        assert EvolutionaryField(qs, bs, parity).apply(f) == naive_apply(qs, bs, f)

    run()


@pytest.mark.parametrize("geo", [G11, G22], ids=["G11", "G22"])
def test_schouten_density_matches_per_fiber_formula(geo):
    """Term for term against the density formula written with *, + and -."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(1, 2), (2, 1), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2)]), st.data())
    def run(pair, data):
        k, l = pair
        f = data.draw(polynomials(geo, degree=k))
        h = data.draw(polynomials(geo, degree=l))
        expected = DiffPolynomial.zero(geo)
        for a in range(1, geo.m + 1):
            expected = expected + var_q(f, a) * var_b(h, a, LEFT)
            expected = expected - var_b(f, a, RIGHT) * var_q(h, a)
        assert schouten_density(f, h) == expected

    run()


def test_base_case_matches_naive_field_on_two_fibers():
    @settings(max_examples=20, deadline=None)
    @given(polynomials(G22, degree=0), polynomials(G22, degree=1))
    def run(h, phi):
        sections = [var_b(phi, a, LEFT) for a in range(1, G22.m + 1)]
        zeros = [DiffPolynomial.zero(G22)] * G22.m
        base = bracket_base_case(Multivector(Functional(h), 0), Multivector(Functional(phi), 1))
        assert base.density == naive_apply(sections, zeros, h)

    run()


# -- cleared integer coefficients ---------------------------------------------


def fraction_coefficients(*polys) -> bool:
    """An int coefficient leaking out would turn a user's c / 3 into a float."""
    return all(type(c) is Fraction for p in polys for c in p.terms.values())


def public_densities(report) -> list:
    out = [report.representative.density]
    if report.inserted is not None:
        out.append(report.inserted.density)
    if report.result is not None:
        out.append(report.result.density)
    return out


@pytest.mark.parametrize("geo", [G11, G22], ids=["G11", "G22"])
def test_cleared_routes_match_uncleared_formulas(geo):
    """Arguments with denominators 7, 11 and 13: each route computes on
    cleared ints and must divide back to the uncleared formula exactly."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (1, 2)]), st.data())
    def run(pair, data):
        k, l = pair
        f = data.draw(polynomials(geo, degree=k, coeffs=COPRIME_COEFFS))
        h = data.draw(polynomials(geo, degree=l, coeffs=COPRIME_COEFFS))
        xi, eta = Multivector(Functional(f), k), Multivector(Functional(h), l)
        density = schouten_density(f, h)
        poisson = bracket_poisson(xi, eta)
        assert poisson.representative.density == density
        assert poisson.zero == is_exact(density)
        field = bracket_via_q(xi, eta)
        assert field.representative.density == q_field(xi).apply(h)
        rec = bracket_recursive(xi, eta)
        inserted = reference_inserted(xi, eta, rec.slots)
        assert rec.inserted.density == inserted
        rebuilt = from_slots(inserted, rec.slots).density if rec.slots else inserted
        assert rec.representative.density == rebuilt
        assert rec.zero == poisson.zero == field.zero
        for report in (poisson, field, rec):
            assert fraction_coefficients(*public_densities(report))
        if k:
            assert fraction_coefficients(iota(f, 1))

    run()


def test_integer_arguments_still_publish_fractions():
    """Arguments that need no clearing: the division by one must still happen."""
    xi, eta = mv(*TRANSLATION), mv(*THIRD_ORDER)
    for report in (
        bracket_poisson(xi, eta), bracket_via_q(xi, eta), bracket_recursive(xi, eta),
        bracket_recursive(mv((1, [], [qvar(1)], [])), mv((1, [], [qvar(1, 1)], [bvar(1)]))),
    ):
        assert report.representative.density
        assert fraction_coefficients(*public_densities(report))
    ok, witness = is_poisson(mv((1, [], [qvar(1, 1)], [bvar(1), bvar(1, 1)])))
    assert not ok and fraction_coefficients(witness.density)
    defect = jacobi_defect(mv(*KDV), xi, eta)
    assert defect.density and fraction_coefficients(defect.density)


def jacobi_composition(f, r, g, s, h, t) -> DiffPolynomial:
    out = DiffPolynomial.zero(f.geometry)
    for e, a, b, c in (((r - 1) * (t - 1), f, g, h), ((r - 1) * (s - 1), g, h, f),
                       ((s - 1) * (t - 1), h, f, g)):
        piece = schouten_density(a, schouten_density(b, c))
        out = out + (-piece if e % 2 else piece)
    return out


@pytest.mark.parametrize("geo", [G11, G22], ids=["G11", "G22"])
def test_cleared_poisson_witness_and_jacobi_match_compositions(geo):
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(2, 1, 1), (1, 2, 1), (1, 1, 2)]), st.data())
    def run(degrees, data):
        f, g, h = (
            data.draw(polynomials(geo, degree=d, max_terms=2, coeffs=COPRIME_COEFFS))
            for d in degrees
        )
        r, s, t = degrees
        defect = jacobi_defect(
            Multivector(Functional(f), r), Multivector(Functional(g), s), Multivector(Functional(h), t)
        )
        assert defect.density == jacobi_composition(f, r, g, s, h, t)
        assert fraction_coefficients(defect.density)
        bivector = next(p for p, d in zip((f, g, h), degrees) if d == 2)
        square = schouten_density(bivector, bivector)
        ok, witness = is_poisson(Multivector(Functional(bivector), 2))
        assert ok == is_exact(square)
        if not ok:
            assert witness.density == square
            assert fraction_coefficients(witness.density)

    run()


# -- structure of the bracket -------------------------------------------------


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2)])
def test_graded_antisymmetry(k, l):
    @settings(max_examples=15, deadline=None)
    @given(degree_pair(k, l))
    def run(pair):
        f, h = pair
        if f.homogeneous_degree() is None or h.homogeneous_degree() is None:
            return
        forward = schouten_density(f, h)
        backward = schouten_density(h, f)
        sign = (-1) ** ((k - 1) * (l - 1))
        assert is_exact(forward + backward.scaled(sign))

    run()


def test_jacobi_defect_on_fixed_triples():
    p1 = mv(*TRANSLATION)
    p2 = mv(*KDV)
    h = mv((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    assert jacobi_defect(p1, p1, p1).is_zero
    assert jacobi_defect(p1, p2, h).is_zero
    assert jacobi_defect(p2, p2, h).is_zero


@settings(max_examples=10, deadline=None)
@given(degree_pair(1, 2), polynomials(g, degree=1))
def test_jacobi_on_random_triples(pair, z):
    f, h = pair
    degs = (f.homogeneous_degree(), h.homogeneous_degree(), z.homogeneous_degree())
    if None in degs:
        return
    assert jacobi_defect(multivector(f), multivector(h), multivector(z)).is_zero


def test_agreement_across_fibers_and_dimensions():
    g2 = Geometry(2, 2, 3)
    xi = mv((1, [], [], [bvar(1), bvar(2, 2)]), geo=g2)
    eta = mv((1, [], [qvar(2)], [bvar(1)]), (1, [], [qvar(1, 1)], [bvar(2)]), geo=g2)
    a = bracket_poisson(xi, eta)
    assert not a.zero
    assert equivalent(a.representative, bracket_via_q(xi, eta).representative)
    assert equivalent(a.representative, bracket_recursive(xi, eta).representative)
    back = bracket_poisson(eta, xi)
    assert is_exact(a.representative.density + back.representative.density)


# -- remarks -------------------------------------------------------------------


def test_pairing_factor_two_on_fixed_hamiltonian():
    h = mv((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    xi = mv(*TRANSLATION)
    lhs = iota(bracket_poisson(h, xi).representative.density, 1)
    value = bracket_recursive(h, xi, slots=(1,)).inserted.density
    assert equivalent(lhs, value)
    grad = (var_q(h.density, 1),)
    pairing = evaluate(xi, (2, 1)).density.substitute_slot(2, grad)
    assert equivalent(lhs, pairing.scaled(2))
    assert not equivalent(lhs, pairing)


def test_genuine_jet_insertion_breaks_the_recursion_identity():
    # substituting the jet w = q_x for the slot before bracketing produces
    # a directional-derivative term the recursion identity does not see
    xi = poly((1, [], [qvar(1)], [bvar(1)]))
    eta = poly((1, [], [qvar(1, 1)], [bvar(1)]))
    w = poly((1, [], [qvar(1, 1)], []))
    lhs = iota(schouten_density(xi, eta), 1).substitute_slot(1, (w,))
    assert lhs == poly(
        (1, [], [qvar(1, 1), qvar(1, 1)], []),
        (1, [], [qvar(1), qvar(1, 1, 1)], []),
    )
    assert is_exact(lhs)
    xi_w = iota(xi, 1).substitute_slot(1, (w,))
    eta_w = iota(eta, 1).substitute_slot(1, (w,))
    rhs = schouten_density(xi, eta_w) + schouten_density(xi_w, eta)
    assert rhs == poly((2, [], [qvar(1), qvar(1, 1, 1)], []))
    assert not is_exact(rhs)
    assert not equivalent(lhs, rhs)


# -- poisson certification ------------------------------------------------------


def test_poisson_family():
    assert is_poisson(mv(*TRANSLATION)) == (True, None)
    assert is_poisson(mv(*KDV)) == (True, None)
    # self-bracket of int q*b*b_x is identically zero: the pairing
    # b*b_x*(q_x*b + 2*q*b_x) vanishes term by term since b*b = b_x*b_x = 0
    ok, witness = is_poisson(mv((1, [], [qvar(1)], [bvar(1), bvar(1, 1)])))
    assert ok and witness is None


def test_non_poisson_witness():
    ok, witness = is_poisson(mv((1, [], [qvar(1, 1)], [bvar(1), bvar(1, 1)])))
    assert not ok
    assert witness.degree == 3
    assert equivalent(
        witness.density,
        poly((4, [], [qvar(1, 1)], [bvar(1), bvar(1, 1), bvar(1, 1, 1)])),
    )
    assert not witness.functional.is_zero


def test_poisson_check_requires_degree_two():
    with pytest.raises(DomainError):
        is_poisson(mv((1, [], [qvar(1)], [bvar(1)])))


def test_differential_squares_to_zero_on_probes():
    assert q_differential_check(mv(*KDV))
    assert q_differential_check(mv(*TRANSLATION))
    with pytest.raises(DomainError):
        q_differential_check(mv((1, [], [qvar(1, 1)], [bvar(1), bvar(1, 1)])))
