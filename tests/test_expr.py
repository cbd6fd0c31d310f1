"""Tests for element expression parsing and path literals."""

import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from blowup import poly
from blowup.errors import BlowupError, InputError
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

from helpers import _cofactors, reference_parse_element, variable

x = variable(X)
y = variable(Y)
a = variable(A)


def test_parse_simple_polynomial():
    assert parse_element("y^2 + x^3") == RatFunc(y ** 2 + x ** 3)


def test_parse_quotient():
    r = parse_element("x*y/(y^2 + x^3)")
    assert r == RatFunc(x * y, y ** 2 + x ** 3)


def test_parse_rational_constant():
    assert parse_element("3/4") == RatFunc(Poly.const(Fraction(3, 4)))


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
    "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), "x^\u00b2", "x^\u0663",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ExprSyntaxError):
        parse_element(bad)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_only_ascii_digits_are_digits(digit):
    with pytest.raises(ExprSyntaxError) as info:
        parse_element("x^" + digit)
    assert str(info.value) == f"unexpected character {digit!r} at position 2"


def test_parse_step_values():
    assert parse_step("inf") is INF
    assert parse_step("-1/2") == Fraction(-1, 2)
    assert parse_step(" 3 ") == Fraction(3)
    # every form Fraction reads, within the bound
    assert [parse_step(t) for t in ("1e3", "1_000", "0.5", "-2.5E-1", "0e100000000")] == \
        [1000, 1000, Fraction(1, 2), Fraction(-1, 4), 0]
    assert parse_step("1e3913") == 10 ** 3913
    assert parse_step("-3e-3913") == Fraction(-3, 10 ** 3913)
    with pytest.raises(ExprSyntaxError):
        parse_step("x")
    with pytest.raises(ExprSyntaxError):
        parse_step("1/2e100000000")


@pytest.mark.parametrize("text", ["1e3914", "-1e-3914", "1" + "0" * 3914, "1/" + "9" * 3914,
                                  "7e100000000", "0.001e-100000000", "12345e-100000000",
                                  "1" * 4301, "0." + "1_1" * 2500, "1e" + "1" * 5000])
def test_parse_step_refuses_past_the_bit_bound(text):
    # 10^3914 has 13,003 bits; the exponent alone refuses the last three
    start = time.perf_counter()
    with pytest.raises(InputError, match="at most 13000 bits"):
        parse_step(text)
    assert time.perf_counter() - start < 1


def test_bad_step_is_echoed_short():
    with pytest.raises(ExprSyntaxError) as info:
        parse_path("[0, " + "x" * 5000 + "]")
    assert str(info.value) == ("bad path step '" + "x" * 40 + "'... (5000 characters): "
                               "expected a rational or inf")


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
    assert len((p ** n).terms) <= _power_terms(p.terms, n)


@given(*[st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                         st.integers(min_value=-3, max_value=3).filter(bool), max_size=5)] * 2)
def test_product_term_bound_holds(p_terms, q_terms):
    p, q = (Poly({(i, j, k, 0): Fraction(c) for (i, j, k), c in terms.items()})
            for terms in (p_terms, q_terms))
    assert len((p * q).terms) <= _product_terms(p.terms, q.terms)


def test_product_term_bound_is_exact_for_dense_products():
    dense = parse_element("(1+x+y)^30").num
    assert _product_terms(dense.terms, dense.terms) == 1891  # C(62, 2)
    assert _product_terms(dense.terms, x.terms) == 496
    assert _product_terms((x + y).terms, (x - y).terms) == 4


fraction_terms = st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
                                 st.integers(min_value=-3, max_value=3).filter(bool),
                                 min_size=1, max_size=4)


def _bound(f: RatFunc, g: RatFunc) -> int:
    _, f_cof, g_cof = _cofactors(f.den, g.den)
    return _sum_terms((f.num.terms, f.den.terms), (g.num.terms, g.den.terms),
                      f_cof.terms, g_cof.terms)


@given(*[fraction_terms] * 4)
@settings(deadline=None)
def test_sum_term_bound_holds(p_terms, q_terms, r_terms, s_terms):
    p, q, r, s = (Poly({(i, j, k, 0): Fraction(c) for (i, j, k), c in terms.items()})
                  for terms in (p_terms, q_terms, r_terms, s_terms))
    f, g = RatFunc(p, q), RatFunc(r, s)
    bound = _bound(f, g)
    # the forms the sum builds over the cofactors of the shared denominator
    h = poly.poly_gcd(f.den, g.den)
    f_cof, g_cof = f.den.divmod_exact(h), g.den.divmod_exact(h)
    for num in (f.num * g_cof + g.num * f_cof, f.num * g_cof - g.num * f_cof,
                f_cof * g.den):
        assert len(num.terms) <= bound


def test_sum_term_bound_does_not_bound_the_reduced_value():
    f, g = parse_element("x^5/(x-1)"), parse_element("1/(x-1)")
    assert _bound(f, g) == 2
    assert len((f - g).num.terms) == 5 and (f - g).den == Poly.const(1)


def test_sum_term_bound_is_exact_for_dense_sums():
    f = parse_element("1/(1+x+y)^30")
    g = parse_element("1/(1+x-y)^30")
    assert _bound(f, g) == 1891  # C(62, 2) for the denominator
    assert _bound(RatFunc(x), RatFunc(y)) == 2
    assert _bound(f, RatFunc(x)) == 497  # 1 + x * (1+x+y)^30


def test_sum_over_a_shared_denominator_is_bounded_on_its_cofactors():
    # (f.den/h) * g.den is the shared power itself, 496 terms; the full
    # product of the two denominators would have 1,891
    text = "x/(1+x+y)^30 + y/(1+x+y)^30"
    f, g = parse_element("x/(1+x+y)^30"), parse_element("y/(1+x+y)^30")
    assert _bound(f, g) == 496 <= MAX_POWER_TERMS
    value = parse_element(text)
    assert value == f + g
    assert value.num == x + y
    assert value.den == (Poly.const(1) + x + y) ** 30
    assert reference_parse_element(text) == value


def count_gcds(monkeypatch):
    """A list that grows by the arguments of each `poly._gcd_core` call from
    now on: every gcd, the element reader's included, that is not read off
    the exponents."""
    calls, real = [], poly._gcd_core

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(poly, "_gcd_core", counting)
    return calls


def test_sum_reads_the_denominators_gcd_once(monkeypatch):
    calls = count_gcds(monkeypatch)
    f, g = parse_element("x/(1+x+y)^3"), parse_element("y/((1+x+y)^2*(1-y))")
    calls.clear()
    # the bound and the sum share one gcd of the denominators; the other
    # gcd of the sum is of the new numerator and that common factor.  The
    # gcd holds the denominators as int term maps, so they match f.den and
    # g.den up to a constant factor
    value = parse_element("x/(1+x+y)^3 + y/((1+x+y)^2*(1-y))")
    dens = [(p, q) for p, q in calls
            if {Poly(p).normalized(), Poly(q).normalized()} == {f.den, g.den}]
    assert len(dens) == 1
    assert value == f + g


@pytest.mark.parametrize("n, seconds", [(10, 0.5), (30, 2)])
def test_large_coprime_quotient_parses_quickly(n, seconds):
    # one modular image proves the two powers coprime; no remainder sequence
    start = time.perf_counter()
    f = parse_element(f"(1+x+y)^{n}/(1-x+y)^{n}")
    assert time.perf_counter() - start < seconds
    one = Poly.const(1)
    assert f.num == (one + x + y) ** n and f.den == (one - x + y) ** n


def test_power_term_bound_is_exact_for_dense_powers():
    assert _power_terms((x + y + Poly.const(1)).terms, 100) == 5151  # C(102, 2)
    assert _power_terms(x.terms, 10 ** 6) == 1
    assert _power_terms((x + Poly.const(1)).terms, 10 ** 6) == 10 ** 6 + 1
    assert len(parse_element("(1+x+y)^30").num.terms) == 496 <= MAX_POWER_TERMS


# Leaves of random element texts: light ones; constant, monomial and
# non-monomial divisors that share factors with each other; parts in a; and
# ones that push products, sums and numbers toward or over their budgets.
LEAVES = ["x", "y", "a", "0", "1", "2", "3", "12", "x - x"] * 3 + [
    "2*x^2*y", "x + y", "x - y", "2*x + 2", "x^2 - y^2", "x + a*y", "a - 1",
    "(1 + x + y)^20", "(x - a)^12", "7^5000"]


def _nested_left(texts):
    """((t0)/(t1))/(t2)...: quotients nested len(texts) - 1 deep."""
    return reduce(lambda inner, t: f"({inner})/({t})", texts)


def _nested_right(texts):
    """(t0)/((t1)/((t2)/...)): quotients nested len(texts) - 1 deep."""
    return reduce(lambda inner, t: f"({t})/({inner})", reversed(texts))


def _grow(children):
    pairs = st.tuples(children, children)
    chains = st.lists(children, min_size=4, max_size=5)
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join),
        st.tuples(children, st.integers(min_value=-3, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["-", "+", "- -", "-+"]), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        # repeated groups: the second read of a group comes from the memo
        pairs.map(lambda t: f"({t[0]})*({t[1]}) - ({t[0]})"),
        pairs.map(lambda t: f"({t[0]})/({t[1]}) + ({t[1]})^-1*({t[0]})"),
        # quotients nested three or more deep, and negative powers of quotients
        chains.map(_nested_left),
        chains.map(_nested_right),
        st.tuples(children, children, st.integers(min_value=-3, max_value=-1)).map(
            lambda t: f"(({t[0]})/({t[1]}))^{t[2]}"),
    )


def _outcome(read, text):
    try:
        value = read(text)
    except BlowupError as exc:
        return type(exc), str(exc)
    assert all(type(c) is Fraction for p in (value.num, value.den) for c in p.terms.values())
    return value, str(value)


@given(st.recursive(st.sampled_from(LEAVES), _grow, max_leaves=8))
@settings(deadline=None, max_examples=200)
def test_reader_matches_the_reference_reader(text):
    assert _outcome(parse_element, text) == _outcome(reference_parse_element, text)


@pytest.mark.parametrize("text", [
    "(1 + x + y)^20 * (x - a)^12", "1/(1 + x + y)^20 + 1/(1 - x + y)^20",
    "(1 + x + y)^20 + a*(1 + x + y)^20 + a^2*(1 + x + y)^20",
    "(7^5000)^2", "7^5000 * 7^5000", "(x - x)^-1", "x/((x + y)^2 - (x + y)^2)",
    "(1 + x + y)^40", "((x + y)^2)^-1 * (x + y)^2 - 1",
    "((x)) * ((x)",  # the unclosed group's tail looks like the inside of a read one
])
def test_refusals_match_the_reference_reader(text):
    assert _outcome(parse_element, text) == _outcome(reference_parse_element, text)


def test_division_free_element_is_read_without_reduction(monkeypatch):
    text = "(x + y)^3*(x - 2*a) - (x + y)^3 + 5*y^2 - -(x + y)^3"
    want = reference_parse_element(text)
    gcds, inits = count_gcds(monkeypatch), []
    real_init = RatFunc.__init__

    def counted_init(self, *args):
        inits.append(args)
        real_init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counted_init)
    assert parse_element(text) == want
    assert gcds == [] and inits == []
    # a quotient with a common factor is reduced, and the counters see it
    assert parse_element("(x + y)/(x^2 - y^2)") == RatFunc(Poly.const(1), x - y)
    assert gcds


def test_finite_step_parameter_pair_is_read_without_a_gcd(monkeypatch):
    # a parameter along finite steps, written as the deep-charts benchmark
    # writes it: every divisor is x, so each gcd is read off the exponents
    text = "(((y)/(x) - (2))/(x) - (1))/(x)"
    want = reference_parse_element(text)
    calls = count_gcds(monkeypatch)
    assert parse_element(text) == want
    assert calls == []
