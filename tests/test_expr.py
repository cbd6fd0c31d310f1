"""Tests for element expression parsing and path literals."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blowup.expr import (
    INF,
    MAX_NESTING,
    MAX_POWER_TERMS,
    ExprSyntaxError,
    _power_terms,
    _product_terms,
    _sum_terms,
    format_path,
    format_step,
    parse_element,
    parse_path,
    parse_step,
)
from blowup.poly import A, Poly, RatFunc, X, Y

x = Poly.variable(X)
y = Poly.variable(Y)
a = Poly.variable(A)


def test_parse_simple_polynomial():
    assert parse_element("y^2 + x^3") == RatFunc(y ** 2 + x ** 3)


def test_parse_quotient():
    r = parse_element("x*y/(y^2 + x^3)")
    assert r == RatFunc(x * y, y ** 2 + x ** 3)


def test_parse_rational_constant():
    assert parse_element("3/4") == RatFunc.from_const(Fraction(3, 4))


def test_parse_parameter():
    assert parse_element("x + a*y") == RatFunc(x + a * y)


def test_unary_minus_and_precedence():
    assert parse_element("-x + y") == RatFunc(y - x)
    assert parse_element("-(x + y)^2") == -(RatFunc(x + y) ** 2)
    assert parse_element("2*x^2") == RatFunc(Poly.const(2) * x ** 2)
    assert parse_element("x - y - y") == RatFunc(x - Poly.const(2) * y)


def test_nesting_up_to_the_bound_parses():
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    # a closed group does not count toward a later one
    assert parse_element(nested + "*" + nested) == RatFunc(x ** 2)


def test_negative_exponent_forms_fraction():
    assert parse_element("x^-1") == RatFunc(Poly.const(1), x)
    assert parse_element("x*y^-2") == RatFunc(x, y ** 2)


def test_whitespace_is_free():
    assert parse_element(" x +\ty ") == parse_element("x+y")


@pytest.mark.parametrize("bad", [
    "", "  ", "x +", "(x", "x)", "z + 1", "x ^ y", "x & y", "1/0", "x/(y - y)", "t",
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExprSyntaxError):
        parse_element(bad)


def test_parse_step_values():
    assert parse_step("inf") is INF
    assert parse_step("-1/2") == Fraction(-1, 2)
    assert parse_step(" 3 ") == Fraction(3)
    with pytest.raises(ExprSyntaxError):
        parse_step("x")


def test_path_round_trip():
    literal = "[0, inf, -1/2]"
    steps = parse_path(literal)
    assert steps == (Fraction(0), INF, Fraction(-1, 2))
    assert format_path(steps) == literal


def test_empty_path():
    assert parse_path("[]") == ()
    assert format_path(()) == "[]"


@pytest.mark.parametrize("bad", ["", "0, 1", "[0, ]", "[x]", "[1/0]"])
def test_parse_path_rejects_malformed(bad):
    with pytest.raises(ExprSyntaxError):
        parse_path(bad)


def test_format_step():
    assert format_step(INF) == "inf"
    assert format_step(Fraction(-7, 3)) == "-7/3"


@given(st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                       st.integers(min_value=-3, max_value=3).filter(bool), max_size=5),
       st.integers(min_value=0, max_value=5))
def test_power_term_bound_holds(terms, n):
    p = Poly({(i, j, k, 0): Fraction(c) for (i, j, k), c in terms.items()})
    assert len((p ** n).terms) <= _power_terms(p, n)


@given(*[st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                         st.integers(min_value=-3, max_value=3).filter(bool), max_size=5)] * 2)
def test_product_term_bound_holds(p_terms, q_terms):
    p, q = (Poly({(i, j, k, 0): Fraction(c) for (i, j, k), c in terms.items()})
            for terms in (p_terms, q_terms))
    assert len((p * q).terms) <= _product_terms(p, q)


def test_product_term_bound_is_exact_for_dense_products():
    dense = parse_element("(1+x+y)^30").num
    assert _product_terms(dense, dense) == 1891  # C(62, 2)
    assert _product_terms(dense, x) == 496
    assert _product_terms(x + y, x - y) == 4


fraction_terms = st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
                                 st.integers(min_value=-3, max_value=3).filter(bool),
                                 min_size=1, max_size=4)


@given(*[fraction_terms] * 4)
@settings(deadline=None)
def test_sum_term_bound_holds(p_terms, q_terms, r_terms, s_terms):
    p, q, r, s = (Poly({(i, j, k, 0): Fraction(c) for (i, j, k), c in terms.items()})
                  for terms in (p_terms, q_terms, r_terms, s_terms))
    f, g = RatFunc(p, q), RatFunc(r, s)
    bound = _sum_terms(f, g)
    for num in (f.num * g.den + g.num * f.den, f.num * g.den - g.num * f.den,
                f.den * g.den):
        assert len(num.terms) <= bound


def test_sum_term_bound_does_not_bound_the_reduced_value():
    f, g = parse_element("x^5/(x-1)"), parse_element("1/(x-1)")
    assert _sum_terms(f, g) == 4
    assert len((f - g).num.terms) == 5 and (f - g).den == Poly.const(1)


def test_sum_term_bound_is_exact_for_dense_sums():
    f = parse_element("1/(1+x+y)^30")
    g = parse_element("1/(1+x-y)^30")
    assert _sum_terms(f, g) == 1891  # C(62, 2) for the denominator
    assert _sum_terms(RatFunc(x), RatFunc(y)) == 2
    assert _sum_terms(f, RatFunc(x)) == 497  # 1 + x * (1+x+y)^30


@pytest.mark.parametrize("n, seconds", [(10, 0.5), (30, 2)])
def test_large_coprime_quotient_parses_quickly(n, seconds):
    # one modular image proves the two powers coprime; no remainder sequence
    start = time.perf_counter()
    f = parse_element(f"(1+x+y)^{n}/(1-x+y)^{n}")
    assert time.perf_counter() - start < seconds
    one = Poly.const(1)
    assert f.num == (one + x + y) ** n and f.den == (one - x + y) ** n


def test_power_term_bound_is_exact_for_dense_powers():
    assert _power_terms(x + y + Poly.const(1), 100) == 5151  # C(102, 2)
    assert _power_terms(x, 10 ** 6) == 1
    assert _power_terms(x + Poly.const(1), 10 ** 6) == 10 ** 6 + 1
    assert len(parse_element("(1+x+y)^30").num.terms) == 496 <= MAX_POWER_TERMS
