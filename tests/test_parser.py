"""Expression parser: frozen canonical forms, error positions, round trips.

Round-tripping print -> parse must reproduce the polynomial on the nose,
including the sign-normalized display of negative odd words.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from varschouten import (
    DiffPolynomial,
    Geometry,
    ParseError,
    bvar,
    evaluate,
    format_polynomial,
    monomial,
    multivector,
    parse_polynomial,
    pvar,
    qvar,
)

from helpers import G22, polynomials

g = Geometry(1, 1, 4)


def poly(*pieces, geo=g):
    out = DiffPolynomial.zero(geo)
    for coeff, base, even, odd in pieces:
        out = out + monomial(geo, coeff, base=base, even=even, odd=odd)
    return out


def err(text, geo=g, names=None):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, geo, names)
    return info.value


# -- frozen parses -----------------------------------------------------------


def test_simple_words():
    assert parse_polynomial("b*b_x", g) == poly((1, [], [], [bvar(1), bvar(1, 1)]))
    assert parse_polynomial("b_x*b", g) == poly((-1, [], [], [bvar(1), bvar(1, 1)]))
    assert parse_polynomial("b*x^3*q_xx", g) == poly(
        (1, [(1, 3)], [qvar(1, 1, 1)], [bvar(1)])
    )
    assert parse_polynomial("2*x^3*b_xxx*b", g) == poly(
        (-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)])
    )


def test_rationals_powers_and_signs():
    assert parse_polynomial("1/2*q^2", g) == poly((Fraction(1, 2), [], [qvar(1), qvar(1)], []))
    assert parse_polynomial("q_x^2", g) == poly((1, [], [qvar(1, 1), qvar(1, 1)], []))
    assert parse_polynomial("b^2", g).is_zero
    assert parse_polynomial("q^0", g) == DiffPolynomial.const(g, 1)
    assert parse_polynomial("-q + q", g).is_zero
    assert parse_polynomial("+q - 2*q", g) == poly((-1, [], [qvar(1)], []))
    assert parse_polynomial("0", g).is_zero


def test_parentheses_distribute():
    assert parse_polynomial("(q + q_x)*b", g) == poly(
        (1, [], [qvar(1)], [bvar(1)]), (1, [], [qvar(1, 1)], [bvar(1)])
    )
    assert parse_polynomial("(q - q)*b", g).is_zero


def test_slot_variables():
    assert parse_polynomial("p1_x*b", g) == poly((1, [], [pvar(1, 1, 1)], [bvar(1)]))
    assert parse_polynomial("p2.1", g) == poly((1, [], [pvar(2, 1)], []))


def test_two_dimensional_tokens():
    assert parse_polynomial("q2_x1x2", G22) == poly(
        (1, [], [qvar(2, 1, 2)], []), geo=G22
    )
    assert parse_polynomial("x1^2*x2*b1_x2x2", G22) == poly(
        (1, [(1, 2), (2, 1)], [], [bvar(1, 2, 2)]), geo=G22
    )
    assert parse_polynomial("p2.1_x1", G22) == poly(
        (1, [], [pvar(2, 1, 1)], []), geo=G22
    )


def test_bound_names_substitute_polynomials():
    names = {"H": poly((Fraction(1, 2), [], [qvar(1), qvar(1)], []))}
    assert parse_polynomial("H + q", g, names) == names["H"] + poly((1, [], [qvar(1)], []))
    pe = err("H", geo=G22, names=names)
    assert "different geometry" in pe.message


# -- error reporting -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,fragment,line,col",
    [
        ("foo", "unknown name 'foo'", 1, 1),
        ("q3", "fiber index 3 out of range 1..1", 1, 1),
        ("b_xz", "bad derivative suffix 'xz'", 1, 1),
        ("q^-2", "exponent must be a nonnegative integer", 1, 3),
        ("q^1/2", "exponent must be a nonnegative integer", 1, 3),
        ("3/0", "zero denominator in rational literal", 1, 1),
        ("q q", "missing operator", 1, 3),
        ("2(q)", "missing operator", 1, 2),
        ("(q", "expected ')'", 1, 3),
        ("", "unexpected end of input", 1, 1),
        ("x2", "unknown name 'x2'", 1, 1),
        ("p9_x", "covector slot 9 out of range 1..4", 1, 1),
        ("p1.2", "fiber index 2 out of range 1..1", 1, 1),
        ("q0", "fiber index 0 out of range 1..1", 1, 1),
        ("p1.0", "fiber index 0 out of range 1..1", 1, 1),
        ("p0", "covector slot 0 out of range 1..4", 1, 1),
        ("p5.1", "covector slot 5 out of range 1..4", 1, 1),
        ("q_", "bad derivative suffix ''; expected 'x' letters", 1, 1),
        ("p1_", "bad derivative suffix ''; expected 'x' letters", 1, 1),
        ("p1_xz", "bad derivative suffix 'xz'; expected 'x' letters", 1, 1),
        ("q@", "unexpected character '@'", 1, 2),
        ("q +\n* b", "unexpected '*'", 2, 1),
        ("1/2*q +\nq*b_xy", "bad derivative suffix 'xy'", 2, 3),
        pytest.param(
            "(" * 3000 + "q" + ")" * 3000, "nested deeper than 100", 1, 101, id="deep-nesting"
        ),
        ("q^99999999999", "exponent 99999999999 exceeds the limit 64", 1, 3),
        pytest.param(
            "q_" + "x" * 63 + "*b_" + "x" * 64,
            "more than 63 derivatives in one base dimension", 1, 67, id="jet-order",
        ),
        pytest.param(
            "q*p1_" + "x" * 64, "more than 63 derivatives in one base dimension", 1, 3,
            id="jet-order-slot",
        ),
        pytest.param(
            "(q+q_x+q_xx+q_xxx+q_xxxx+b)^40*b",
            "product of 825 by 6 terms exceeds the expression's budget of 10000 term pairs", 1, 28,
            id="power-terms",
        ),
        pytest.param(
            "(q+q_x+q_xx+q_xxx)^7*(q+q_x+q_xx+q_xxx)^7",
            "product of 120 by 120 terms exceeds the expression's budget of 10000 term pairs", 1, 21,
            id="product-terms",
        ),
    ],
)
def test_error_positions(text, fragment, line, col):
    pe = err(text)
    assert fragment in pe.message
    assert (pe.line, pe.col) == (line, col)
    assert str(pe) == f"line {line}, col {col}: {pe.message}"


def test_two_dimensional_error_messages():
    assert "fiber index required" in err("q", geo=G22).message
    assert "needs a fiber" in err("p1", geo=G22).message
    assert "bare 'x' needs n = 1" in err("x", geo=G22).message
    assert "pairs like x1x1x2" in err("b1_xx", geo=G22).message
    assert err("b1_x3", geo=G22).message == "bad derivative suffix 'x3'; expected pairs like x1x1x2"
    assert err("b1_x0", geo=G22).message == "bad derivative suffix 'x0'; expected pairs like x1x1x2"
    assert err("p2_x1", geo=G22).message == "p2 needs a fiber with m = 2: p2.<fiber>"
    assert err("b_x1", geo=G22).message == "fiber index required when m = 2"
    assert err("p1.3", geo=G22).message == "fiber index 3 out of range 1..2"
    assert "base index 3 out of range" in err("x3", geo=G22).message


# -- round trips -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(polynomials(g))
def test_print_parse_round_trip(f):
    assert parse_polynomial(format_polynomial(f), g) == f


@settings(max_examples=40, deadline=None)
@given(polynomials(G22))
def test_print_parse_round_trip_2d(f):
    assert parse_polynomial(format_polynomial(f), G22) == f


@settings(max_examples=25, deadline=None)
@given(polynomials(g, degree=2))
def test_round_trip_through_slot_variables(f):
    if f.homogeneous_degree() is None:
        return
    value = evaluate(multivector(f), (1, 2)).density
    assert parse_polynomial(format_polynomial(value), g) == value


def test_round_trip_of_negative_odd_display():
    f = poly((-2, [(1, 3)], [], [bvar(1), bvar(1, 1, 1, 1)]))
    shown = format_polynomial(f)
    assert shown == "2*x^3*b_xxx*b"
    assert parse_polynomial(shown, g) == f
