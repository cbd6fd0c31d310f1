"""Tests for the exact polynomial / rational function kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blowup.errors import ComputationError
from blowup.poly import (
    ROOT_PAIR_LIMIT,
    ROOT_SEARCH_LIMIT,
    A,
    Poly,
    RatFunc,
    T,
    X,
    Y,
    _content,
    _image_coprime,
    coefficient_gcd,
    factor_multiplicity,
    format_poly,
    format_ratfunc,
    poly_gcd,
    rational_roots,
    root_pass,
    sylvester_resultant,
)
from blowup.position import lowest_form

from helpers import (reduced, reference_arithmetic, reference_gcd,
                     reference_has_irrational_factor, subst_poly)

x = Poly.variable(X)
y = Poly.variable(Y)
a = Poly.variable(A)
t = Poly.variable(T)
one = Poly.const(1)


def C(v):
    return Poly.const(v)


# -- strategies -------------------------------------------------------------

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def polys(draw, max_terms=5, max_exp=3, slots=(X, Y, A)):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = [0, 0, 0, 0]
        for s in slots:
            exps[s] = draw(st.integers(min_value=0, max_value=max_exp))
        coeff = draw(small_fractions)
        if coeff:
            terms[tuple(exps)] = coeff
    return Poly(terms)


nonzero_polys = polys().filter(lambda p: not p.is_zero)


# -- basic arithmetic -------------------------------------------------------

def test_addition_with_zero():
    p = y ** 2 + x ** 3
    assert p + Poly.zero() == p
    assert Poly.zero() + p == p


def test_product_difference_of_squares():
    lhs = (x + a * y) * (x - a * y)
    assert lhs == x ** 2 - a ** 2 * y ** 2


def test_scalar_arithmetic_stays_exact():
    p = C(Fraction(1, 3)) * x + C(Fraction(1, 6)) * x
    assert p == C(Fraction(1, 2)) * x
    assert p.terms[(1, 0, 0, 0)] == Fraction(1, 2)


def test_subtraction_cancels_terms():
    p = x * y + y ** 2
    q = x * y - y ** 2
    assert (p - q) == C(2) * y ** 2
    assert (p - p).is_zero


def test_pow_matches_repeated_product():
    p = x + y + one
    assert p ** 3 == p * p * p
    assert p ** 0 == one


@given(polys(), polys(), polys())
def test_mul_distributes_over_add(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
def test_mul_commutes(p, q):
    assert p * q == q * p


# -- orders and lowest forms ------------------------------------------------

def test_xy_order_counts_only_plane_variables():
    p = a * x ** 2 * y + t * x ** 4
    assert p.xy_order() == 3
    assert (a * t).xy_order() == 0


def test_lowest_xy_form_picks_minimal_degree_slice():
    # coefficients c_j of x^(d-j) y^j in the lowest form
    p = y ** 2 + x ** 3 + x * y ** 3
    assert lowest_form(p) == [0, 0, 1]
    q = x * y + y ** 2 + x ** 3
    assert lowest_form(q) == [0, 1, 1]


def test_xy_constant_part():
    p = a ** 2 + t - a * x + y ** 5
    assert p.xy_constant_part() == a ** 2 + t
    assert (x + y).xy_constant_part().is_zero


def test_order_of_zero_raises():
    with pytest.raises(ValueError):
        Poly.zero().xy_order()


# -- exact division ---------------------------------------------------------

def test_divmod_exact_round_trip():
    p = (x + y) * (x ** 2 + a * y)
    q = p.divmod_exact(x + y)
    assert q == x ** 2 + a * y


def test_divmod_exact_rejects_non_divisor():
    assert (x ** 2 + y).divmod_exact(x + y) is None


def test_divmod_exact_constant_divisor():
    p = C(6) * x + C(4)
    assert p.divmod_exact(C(2)) == C(3) * x + C(2)


@given(nonzero_polys, nonzero_polys)
def test_divmod_exact_inverts_multiplication(p, q):
    r = (p * q).divmod_exact(q)
    assert r == p


def test_shift_down_strips_monomial_factor():
    p = x ** 2 * y + x ** 3
    assert p.shift_down(X, 2) == y + x
    with pytest.raises(ValueError):
        (x + y).shift_down(X, 1)


# -- substitution -----------------------------------------------------------

def test_subst_xy_blowup_chart():
    # x -> x, y -> x*y sends y^2 + x^3 to x^2*(y^2 + x)
    p = y ** 2 + x ** 3
    q = p.subst_xy(x, x * y)
    assert q == x ** 2 * y ** 2 + x ** 3
    assert q.shift_down(X, 2) == y ** 2 + x


def test_subst_const_in_parameter_slot():
    p = x + a * y
    assert p.subst_const(A, 2) == x + C(2) * y
    assert p.subst_const(A, 0) == x


def test_subst_poly_replaces_symbol():
    p = a ** 2 + a * x
    q = subst_poly(p, A, y + one)
    assert q == (y + one) ** 2 + (y + one) * x


def test_derivative_basic():
    p = x ** 3 + C(2) * x * y + C(5)
    assert p.derivative(X) == C(3) * x ** 2 + C(2) * y
    assert p.derivative(Y) == C(2) * x
    assert C(7).derivative(X).is_zero


# -- gcd --------------------------------------------------------------------

def test_gcd_of_coprime_pair_is_one():
    assert poly_gcd(x * y, y ** 2 + x ** 3) == one


def test_gcd_recovers_common_factor():
    h = y ** 2 + x ** 3
    p = (x + y) * h
    q = (x - y) * h
    g = poly_gcd(p, q)
    assert g == h  # h already has leading coefficient 1
    # a common factor free of the main slot y is the gcd of the contents
    h = x ** 2 + one
    assert poly_gcd(h * (y + one), h * (y + C(2))) == h


def test_gcd_handles_monomial_content():
    p = x ** 2 * y ** 3
    q = x ** 4 * y
    assert poly_gcd(p, q) == x ** 2 * y


def test_coefficient_gcd_stops_at_the_first_constant():
    assert coefficient_gcd([C(2) * x * y]) == C(2) * x * y  # one poly is its own gcd
    assert coefficient_gcd([C(2) * x * (y + one), C(3) * x ** 2]) == x
    assert coefficient_gcd(iter([C(3), x, y])) == C(3)
    # the content in a slot maps a constant gcd to 1
    assert _content((C(2) * x + C(4)) * y + (x + C(2)) * y ** 2, Y) == x + C(2)
    assert _content(C(2) * x * y + C(4) * y ** 2, Y) == one


def test_gcd_with_parameter_slot():
    h = x + a * y
    g = poly_gcd(h * (x + y), h * (y ** 2))
    assert g == h


def test_gcd_of_equal_inputs():
    p = C(3) * x * y + C(3) * y ** 2
    assert poly_gcd(p, p) == x * y + y ** 2


def test_gcd_with_zero_argument():
    p = C(2) * x + C(2) * y
    assert poly_gcd(p, Poly.zero()) == x + y
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(), Poly.zero())


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both_inputs(p, q):
    g = poly_gcd(p, q)
    assert p.divmod_exact(g) is not None
    assert q.divmod_exact(g) is not None


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=30, deadline=None)
def test_gcd_detects_planted_factor(p, q, h):
    g = poly_gcd(p * h, q * h)
    assert g.divmod_exact(h) is not None
    assert (p * h).divmod_exact(g) is not None
    assert (q * h).divmod_exact(g) is not None


def _sympy_poly(p: Poly):
    """p as a sympy polynomial over QQ in x, y, a, t."""
    sympy = pytest.importorskip("sympy")
    terms = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0, 0, 0, 0): 0}, sympy.symbols("x y a t"),
                                domain="QQ")


small_polys = polys(max_terms=3, max_exp=2)
nonzero_small_polys = small_polys.filter(lambda p: not p.is_zero)


@given(nonzero_small_polys, nonzero_small_polys, nonzero_small_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_matches_the_remainder_sequence_and_sympy(p, q, h):
    g = poly_gcd(p * h, q * h)
    assert g == reference_gcd(p * h, q * h)
    expected = _sympy_poly(p * h).gcd(_sympy_poly(q * h))
    assert expected.monic() == _sympy_poly(g).monic()


def test_unlucky_image_falls_back_to_the_remainder_sequence():
    # x = 3 is the image point of x: there both polynomials become y - 5
    p = y - C(5) + (x - C(3)) * y
    q = y - C(5)
    assert not _image_coprime(p, q, Y)
    assert poly_gcd(p, q) == one
    assert RatFunc(p, q).den == q


def test_lost_leading_coefficients_prove_nothing():
    # at x = 3 the common factor (x - 3)*y + 1 maps to 1 and the images of
    # p and q are coprime, but both leading coefficients in y vanish there
    common = (x - C(3)) * y + one
    p, q = common * (y + one), common * (y + C(2))
    assert not _image_coprime(p, q, Y)
    assert poly_gcd(p, q) == common.normalized()


def test_image_proves_dense_coprime_powers():
    p, q = (one + x + y) ** 10, (one - x + y) ** 10
    assert _image_coprime(p, q, X) and _image_coprime(p, q, Y)
    assert not _image_coprime(p * (y + a), q * (y + a), Y)


def test_denominator_divisible_by_the_image_prime():
    prime = 2 ** 31 - 1
    p = x * y + C(Fraction(1, prime))
    assert not _image_coprime(p, x + y, Y)
    assert poly_gcd(p, x + y) == one
    assert poly_gcd(p * (x - a), (x + y) * (x - a)) == x - a


xy_polys = polys(max_terms=3, max_exp=2, slots=(X, Y))
nonzero_xy_polys = xy_polys.filter(lambda p: not p.is_zero)


@st.composite
def fraction_pairs(draw):
    """Two reduced fractions in x, y whose denominators may share a factor;
    the reference's remainder sequences stay short at these sizes."""
    shared = draw(nonzero_xy_polys)
    f = reduced(draw(xy_polys), draw(nonzero_xy_polys) * shared)
    g = reduced(draw(xy_polys), draw(nonzero_xy_polys) * shared)
    return f, g


@given(fraction_pairs())
@settings(max_examples=40, deadline=None)
def test_fraction_arithmetic_matches_cross_multiplication_and_sympy(pair):
    f, g = pair
    fn, fd, gn, gd = map(_sympy_poly, (f.num, f.den, g.num, g.den))
    results = {"+": f + g, "-": f - g, "*": f * g}
    expected = {"+": (fn * gd + gn * fd, fd * gd), "-": (fn * gd - gn * fd, fd * gd),
                "*": (fn * gn, fd * gd)}
    if not g.is_zero:
        results["/"] = f / g
        expected["/"] = (fn * gd, fd * gn)
    for n in (-2, -1, 0, 1, 2):
        if n >= 0 or not f.is_zero:
            results[n] = f ** n
            expected[n] = (fn ** n, fd ** n) if n >= 0 else (fd ** -n, fn ** -n)
    for op, got in results.items():
        if isinstance(op, int):
            assert got == reference_arithmetic("^", f, op)
        else:
            assert got == reference_arithmetic(op, f, g)
        assert got.den.leading()[1] == 1
        num, den = _sympy_poly(got.num), _sympy_poly(got.den)
        assert num.gcd(den).is_ground
        cancelled_num, cancelled_den = expected[op][0].cancel(expected[op][1], include=True)
        assert num * cancelled_den == cancelled_num * den


@given(small_polys, st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_power_is_repeated_multiplication(p, n):
    product = one
    for _ in range(n):
        product = product * p
    assert p ** n == product


def test_factor_multiplicity():
    p = (x + y) ** 3 * (y ** 2 + x ** 3)
    assert factor_multiplicity(p, x + y) == 3
    assert factor_multiplicity(p, y ** 2 + x ** 3) == 1
    assert factor_multiplicity(p, x - y) == 0


# -- resultant --------------------------------------------------------------

def test_resultant_of_coprime_lines_is_nonzero():
    f = x + a * y
    g = x - a * y
    r = sylvester_resultant(f, g, X)
    assert r == C(-2) * a * y


def test_resultant_vanishes_on_common_factor():
    h = x + y
    f = h * (x + one)
    g = h * (y + one)
    r = sylvester_resultant(f, g, X)
    assert r.is_zero


def test_resultant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    sx, sy, sa = sympy.symbols("x y a")
    f = x ** 2 + a * y
    g = x * y + C(3)
    r = sylvester_resultant(f, g, X)
    expected = sympy.resultant(sx ** 2 + sa * sy, sx * sy + 3, sx)
    got = sum(
        c * sy ** e[Y] * sa ** e[A] for e, c in r.terms.items()
    )
    assert sympy.simplify(got - expected) == 0


# -- univariate helpers -----------------------------------------------------

def test_rational_roots_basic():
    p = (t - C(2)) * (t + C(Fraction(1, 3))) * t
    assert rational_roots(p, T) == [Fraction(-1, 3), Fraction(0), Fraction(2)]


def test_rational_roots_none_found():
    p = t ** 2 + one
    assert rational_roots(p, T) == []


def test_rational_roots_rejects_multivariate():
    with pytest.raises(ValueError):
        rational_roots(x + t, T)


def test_rational_roots_of_a_linear_polynomial_with_huge_coefficients():
    n = 1000000000000000003
    assert rational_roots(t - C(n), T) == [Fraction(n)]
    assert rational_roots(C(n) * t ** 3 + C(2) * t ** 2, T) == [Fraction(-2, n), Fraction(0)]


def test_rational_roots_refuses_too_many_divisor_pairs():
    # 963761198400 < 2^40 has 6720 divisors, so 6720^2 pairs
    with pytest.raises(ComputationError, match="45158400 divisor pairs"):
        rational_roots(C(963761198400) * t ** 2 + t + C(963761198400), T)
    # 245044800 has 1008 divisors: 1008^2 pairs stay under the limit
    assert 1008 ** 2 <= ROOT_PAIR_LIMIT
    assert rational_roots(C(245044800) * t ** 2 + t + C(245044800), T) == []
    assert rational_roots(C(245044800) * t ** 2 - C(245044801) * t + one, T) == \
        [Fraction(1, 245044800), Fraction(1)]


def test_rational_roots_refuses_a_huge_divisor_search():
    with pytest.raises(ComputationError, match="t\\^2 - 1000000000000000003"):
        rational_roots(t ** 2 - C(1000000000000000003), T)
    assert rational_roots(t ** 2 - C(ROOT_SEARCH_LIMIT), T) == [Fraction(-2 ** 20), Fraction(2 ** 20)]
    with pytest.raises(ComputationError):
        rational_roots(t ** 2 - C(ROOT_SEARCH_LIMIT + 1), T)
    # the common content of the coefficients does not count
    assert rational_roots(C(2 ** 50) * (t ** 2 - one), T) == [Fraction(-1), Fraction(1)]


root_coefficients = st.one_of(st.integers(-12, 12), st.integers(-2 ** 64, 2 ** 64))


@st.composite
def dense_polys(draw, max_size):
    coeffs = draw(st.lists(root_coefficients, max_size=max_size))
    p = Poly()
    for k, c in enumerate(coeffs):
        p = p + C(Fraction(c, draw(st.integers(1, 5)))) * t ** k
    return p if not p.is_zero else one


@st.composite
def planted_polys(draw):
    """Planted rational roots times a factor with random coefficients, some
    of them far above the divisor search limit."""
    p = C(draw(st.integers(1, 6)))
    for _ in range(draw(st.integers(0, 3))):
        p = p * (C(draw(st.integers(1, 12))) * t - C(draw(st.integers(-12, 12))))
    return p * draw(dense_polys(4))


@given(st.one_of(planted_polys(), dense_polys(2).map(lambda p: p * t ** 2)))
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    sym_t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * sym_t ** e[T]
               for e, c in p.terms.items())
    expected = sorted(Fraction(int(r.p), int(r.q))
                      for r in sympy.roots(sympy.Poly(expr, sym_t), filter="Q"))
    coeffs = p.as_univariate(T)
    while coeffs[0] == 0:
        coeffs.pop(0)
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    content = math.gcd(*ints)
    if len(ints) > 2 and _search_refused(abs(ints[0]) // content, abs(ints[-1]) // content):
        with pytest.raises(ComputationError):
            rational_roots(p, T)
    else:
        assert rational_roots(p, T) == expected


def _search_refused(trail, lead):
    if max(trail, lead) > ROOT_SEARCH_LIMIT:
        return True
    sympy = pytest.importorskip("sympy")
    return sympy.divisor_count(trail) * sympy.divisor_count(lead) > ROOT_PAIR_LIMIT


@st.composite
def factored_polys(draw):
    """A rational multiple of planted linear factors, some repeated, and of
    factors of degree 2 or 3 with integer coefficients up to 2^40."""
    p = C(Fraction(draw(st.integers(1, 2 ** 40)), draw(st.integers(1, 2 ** 40))))
    for _ in range(draw(st.integers(0, 3))):
        linear = C(draw(st.integers(1, 2 ** 12))) * t - C(draw(st.integers(-2 ** 12, 2 ** 12)))
        p = p * linear ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        coeffs = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=3, max_size=4))
        factor = sum((C(c) * t ** k for k, c in enumerate(coeffs)), Poly())
        if not factor.is_zero:
            p = p * factor
    return p


@given(factored_polys())
@settings(max_examples=100, deadline=None)
def test_root_pass_matches_sympy_factor_list(p):
    sympy = pytest.importorskip("sympy")
    sym_t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * sym_t ** e[T]
               for e, c in p.terms.items())
    roots, irrational = [], False
    for factor, _ in sympy.Poly(expr, sym_t).factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            roots.append(Fraction(int(-c0), int(c1)))
        elif factor.degree() > 1:
            irrational = True
    coeffs = p.as_univariate(T)
    while coeffs[0] == 0:
        coeffs.pop(0)
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    content = math.gcd(*ints)
    if len(ints) > 2 and _search_refused(abs(ints[0]) // content, abs(ints[-1]) // content):
        with pytest.raises(ComputationError):
            root_pass(p.as_univariate(T), T)
    else:
        assert root_pass(p.as_univariate(T), T) == (sorted(roots), irrational)


def test_has_irrational_factor():
    cases = ((t ** 2 - C(2), True), ((t - one) ** 2, False),
             ((t - one) * (t ** 2 + one), True), (C(5), False),
             (t ** 3 * (C(3) * t - C(2)) ** 2, False), (t * (t ** 4 + C(4)), True))
    for p, irrational in cases:
        assert root_pass(p.as_univariate(T), T)[1] is irrational
        assert reference_has_irrational_factor(p, T) is irrational


# -- rational functions -----------------------------------------------------

def test_ratfunc_cancels_common_factor():
    r = RatFunc(x * y, x)
    assert r.num == y
    assert r.den == one


def test_ratfunc_monomial_times_inverse():
    # x * y * (y / x) reduces to y^2
    r = RatFunc(x * y) * RatFunc(y, x)
    assert r == RatFunc(y ** 2)
    assert r.den.is_constant
    assert RatFunc(y, x + y) * RatFunc(x + y, x) == RatFunc(y, x)


def test_ratfunc_normalizes_denominator_leading_coeff():
    r = RatFunc(y, C(2) * x)
    assert r.den == x
    assert r.num == C(Fraction(1, 2)) * y


def test_ratfunc_addition():
    r = RatFunc(one, x) + RatFunc(one, y)
    assert r == RatFunc(x + y, x * y)
    # a factor of the shared denominator cancels from the sum
    assert RatFunc(x, x ** 2 - y ** 2) - RatFunc(y, x ** 2 - y ** 2) == RatFunc(one, x + y)
    assert RatFunc(one, x * (x + y)) + RatFunc(one, y * (x + y)) == RatFunc(one, x * y)


def test_ratfunc_division_and_powers():
    r = RatFunc(x, y)
    assert r / r == RatFunc.from_const(1)
    assert r ** -2 == RatFunc(y ** 2, x ** 2)
    with pytest.raises(ZeroDivisionError):
        r / RatFunc.from_const(0)


def test_ratfunc_zero_canonical():
    r = RatFunc(Poly.zero(), x ** 5)
    assert r.is_zero
    assert r.den == one


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_ratfunc_reduction_is_sound(p, q, h):
    lhs = RatFunc(p * h, q * h)
    rhs = RatFunc(p, q)
    assert lhs == rhs


def test_ratfunc_subst_ratfunc():
    # substitute y -> y/x inside y^2/x: get y^2/x^3
    r = RatFunc(y ** 2, x)
    s = r.subst_ratfunc(Y, RatFunc(y, x))
    assert s == RatFunc(y ** 2, x ** 3)


def test_ratfunc_subst_const_detects_zero_denominator():
    r = RatFunc(one, a * x)
    with pytest.raises(ZeroDivisionError):
        r.subst_const(A, 0)


# -- printing ---------------------------------------------------------------

def test_format_descending_graded_order():
    p = x ** 3 + y ** 2 + x * y
    assert format_poly(p) == "x^3 + x*y + y^2"


def test_format_signs_and_coefficients():
    p = -x ** 2 + C(Fraction(1, 2)) * y - C(3)
    assert format_poly(p) == "-x^2 + 1/2*y - 3"
    assert format_poly(Poly.zero()) == "0"
    assert format_poly(one) == "1"


def test_format_ratfunc_shapes():
    assert format_ratfunc(RatFunc(y ** 2 + x ** 3)) == "x^3 + y^2"
    assert format_ratfunc(RatFunc(y, x + y)) == "(y)/(x + y)"


def test_format_custom_names():
    p = x * y ** 2
    assert format_poly(p, names=("u", "v", "a", "t")) == "u*v^2"
