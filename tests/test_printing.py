"""Plain and LaTeX renderings, frozen byte for byte.

Negative coefficients on odd words of swap-odd length are displayed with
the word reversed and the sign absorbed; storage stays in canonical
ascending order, and the parser tests confirm the display round-trips.
"""

from fractions import Fraction

from varschouten import (
    DiffPolynomial,
    Geometry,
    bvar,
    format_polynomial,
    monomial,
    parse_polynomial,
    pvar,
    qvar,
)

g = Geometry(1, 1, 4)


def poly(*pieces, geo=g):
    out = DiffPolynomial.zero(geo)
    for coeff, base, even, odd in pieces:
        out = out + monomial(geo, coeff, base=base, even=even, odd=odd)
    return out


def test_negative_odd_words_reverse_instead_of_carrying_signs():
    assert format_polynomial(poly((-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]))) == "2*x^3*b_xxx*b"
    assert format_polynomial(poly((-1, [], [], [bvar(1), bvar(1, 1)]))) == "b_x*b"
    assert (
        format_polynomial(poly((-1, [], [], [bvar(1), bvar(1, 1), bvar(1, 1, 1)])))
        == "b_xx*b_x*b"
    )
    # a one-letter word has no reversal to absorb the sign into
    assert format_polynomial(poly((-1, [], [], [bvar(1)]))) == "-b"


def test_term_order_and_separators():
    f = poly(
        (1, [], [qvar(1)], [bvar(1)]),
        (-1, [], [qvar(1, 1)], []),
        (Fraction(1, 2), [], [], []),
    )
    assert format_polynomial(f) == "1/2 - q_x + q*b"
    assert format_polynomial(f, latex=True) == r"\frac{1}{2} - q_{x} + q\,b"


def test_fractions_and_powers():
    assert format_polynomial(poly((Fraction(-3, 4), [], [qvar(1), qvar(1)], []))) == "-3/4*q^2"
    assert (
        format_polynomial(poly((Fraction(-3, 4), [], [qvar(1), qvar(1)], [])), latex=True)
        == r"-\frac{3}{4}\,q^{2}"
    )


def test_slot_variables_render_with_superscript_slots():
    f = poly((1, [], [pvar(1, 1, 1)], [bvar(1)]), (Fraction(1, 2), [], [pvar(2, 1)], []))
    assert format_polynomial(f) == "1/2*p2 + p1_x*b"
    assert format_polynomial(f, latex=True) == r"\frac{1}{2}\,p^{2} + p^{1}_{x}\,b"


def test_zero_prints_as_zero():
    assert format_polynomial(DiffPolynomial.zero(g)) == "0"
    assert format_polynomial(DiffPolynomial.zero(g), latex=True) == "0"


def test_two_dimensional_rendering():
    g2 = Geometry(2, 2, 3)
    f = poly((1, [(1, 2)], [qvar(2, 1, 2)], [bvar(1, 2)]), geo=g2) + poly(
        (Fraction(1, 3), [], [pvar(1, 2, 1)], []), geo=g2
    )
    assert format_polynomial(f) == "1/3*p1.2_x1 + x1^2*q2_x1x2*b1_x2"
    assert (
        format_polynomial(f, latex=True)
        == r"\frac{1}{3}\,p^{1}_{2,x_{1}} + x_{1}^{2}\,q^{2}_{x_{1}x_{2}}\,b_{1,x_{2}}"
    )


def test_latex_of_third_order_bracket_value():
    f = poly(
        (-12, [(1, 1)], [], [bvar(1), bvar(1, 1)]),
        (-6, [(1, 2)], [], [bvar(1), bvar(1, 1, 1)]),
        (-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]),
    )
    assert format_polynomial(f) == "12*x*b_x*b + 6*x^2*b_xx*b + 2*x^3*b_xxx*b"
    assert (
        format_polynomial(f, latex=True)
        == r"12\,x\,b_{x}\,b + 6\,x^{2}\,b_{xx}\,b + 2\,x^{3}\,b_{xxx}\,b"
    )


def test_powers_sort_by_exponent_pairs_not_by_repeated_factors():
    # a run of equal factors prints as a power and sorts as a (factor, exponent)
    # pair, so q*q_x1*b comes before q^2*b, and x1*x2*b before x1^2*b
    g212 = Geometry(2, 1, 2)
    f = parse_polynomial("q_x1*q*b + q^2*b + x1^2*b + x1*x2*b + q^2*q_x2 + q*q_x1^2", g212)
    assert format_polynomial(f) == "q*q_x1^2 + q^2*q_x2 + x1*x2*b + x1^2*b + q*q_x1*b + q^2*b"
