"""Tests for tree points, charts, and strict transforms."""

import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from blowup.errors import InputError
from blowup.expr import INF, parse_element, parse_path
from blowup.oracle import in_point
from blowup.poly import Poly, RatFunc, T, X, Y, format_poly
from blowup.families import Fiber
from blowup.tree import (Point, TSYM, express_step, is_prefix, strict_step,
                         transform_step)
from blowup.valuations import MinimalEventuallyPeriodic

from helpers import params, reference_express, residue_of

x = Poly.variable(X)
y = Poly.variable(Y)


def P(literal):
    return Point.from_path(parse_path(literal))


def E(text):
    return parse_element(text)


# -- construction and identity ---------------------------------------------

def test_root_chart_is_identity():
    d = Point.root()
    assert d.express(E("x/y")) == RatFunc(x, y)
    assert d.level == 0 and d.steps == ()


def test_path_strings():
    assert str(P("[]")) == "D"
    assert str(P("[0, inf, -1/2]")) == "D<0><inf><-1/2>"


def test_equality_is_by_path():
    assert P("[0, inf]") == P("[0, inf]")
    assert P("[0]") != P("[1]")
    assert hash(P("[2]")) == hash(P("[2]"))


def test_parent_and_ancestor():
    p = P("[0, inf, 3]")
    assert p.ancestor(2) == P("[0, inf]")
    assert p.ancestor(1) == P("[0]")
    assert p.ancestor(3) == p
    assert p.ancestor(0) == Point.root()
    with pytest.raises(ValueError):
        p.ancestor(4)


def test_symbolic_step_is_not_a_point():
    # TSYM is a step of the chart kernel only; every point is concrete
    with pytest.raises(InputError, match="expected a rational or inf"):
        Point.root().child(TSYM)
    with pytest.raises(InputError):
        Point.from_path([TSYM])
    with pytest.raises(InputError):
        Fiber(Point.root(), tail=(TSYM,))
    with pytest.raises(InputError):
        MinimalEventuallyPeriodic([TSYM], [0])


def test_step_validation():
    with pytest.raises(InputError):
        Point.root().child("sideways")


@pytest.mark.parametrize("step", [0.1, 2.0, True, False, None])
def test_binary_fraction_and_bool_steps_are_refused(step):
    # 0.1 is not 1/10, and a bool is no direction
    with pytest.raises(InputError, match="expected a rational or inf"):
        Point.root().child(step)
    with pytest.raises(InputError, match="expected a rational or inf"):
        MinimalEventuallyPeriodic([step], [0])


def test_zero_denominator_step_is_an_input_error():
    message = "bad step '1/0': expected a rational or inf"
    with pytest.raises(InputError, match=message):
        Point.root().child("1/0")
    with pytest.raises(InputError, match=message):
        Point.from_path(["1/0"])


def test_rational_int_and_text_steps_are_kept():
    steps = [Fraction(1, 3), 2, "-1/2", "1.5", INF]
    assert Point.from_path(steps).steps == (
        Fraction(1, 3), Fraction(2), Fraction(-1, 2), Fraction(3, 2), INF)


# -- expressing elements in local charts -----------------------------------

def test_express_along_zero_step():
    # x -> x, y -> x*y
    p = P("[0]")
    f = E("x*y/(y^2 + x^3)")
    assert str(p.express(f)) == "(y)/(y^2 + x)"


def test_express_along_deeper_paths():
    f = E("x*y/(y^2 + x^3)")
    assert str(P("[0, 0]").express(f)) == "(y)/(x*y^2 + 1)"
    assert str(P("[inf]").express(f)) == "(y)/(x*y^3 + 1)"
    assert str(P("[0, inf]").express(f)) == "(1)/(x + y)"
    # y - x becomes x*y after the 1 step; only the common power of x cancels
    assert str(P("[1]").express(E("(y - x)/x"))) == "y"
    assert str(P("[1]").express(E("x^2/(y - x)^3"))) == "(1)/(x*y^3)"


def test_express_keeps_exactness():
    p = P("[1/2]")
    f = E("y/x - 1/2")
    # y/x - 1/2 becomes the second parameter itself
    assert p.express(f) == RatFunc(y)


def test_param_elements_track_steps():
    p = P("[0, inf]")
    assert params(p) == (E("y/x"), E("x^2/y"))
    d = P("[-1/2, inf]")
    assert params(d)[0] == E("y/x + 1/2")


def test_down_and_param_are_inverse():
    for literal in ("[0]", "[inf]", "[2, -1/3]", "[0, inf, 5]"):
        p = P(literal)
        # expressing the parameter elements lands back on the plain variables
        assert tuple(map(p.express, params(p))) == (RatFunc(x), RatFunc(y))


@st.composite
def paths(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    steps = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=4))
        if kind == 0:
            steps.append(INF)
        else:
            steps.append(Fraction(draw(st.integers(min_value=-3, max_value=3)),
                                  draw(st.integers(min_value=1, max_value=3))))
    return tuple(steps)


@given(paths())
@settings(max_examples=40, deadline=None)
def test_param_inversion_property(steps):
    p = Point.from_path(steps)
    assert tuple(map(p.express, params(p))) == (RatFunc(x), RatFunc(y))


# -- membership and orders --------------------------------------------------

def test_in_ring_basic():
    d = Point.root()
    assert in_point(E("x + y"), d)
    assert in_point(E("x/(1 + y)"), d)
    assert not in_point(E("x/y"), d)


def test_in_ring_after_steps():
    # y/x is regular at every point over the 0 direction
    f = E("y/x")
    assert not in_point(f, Point.root())
    assert in_point(f, P("[0]"))
    assert in_point(E("x/y"), P("[inf]"))


def test_ord_at_root_is_lowest_degree():
    d = Point.root()
    assert d.ord_at(E("x")) == 1
    assert d.ord_at(E("y^2 + x^3")) == 2
    assert d.ord_at(E("x/y")) == 0
    assert d.ord_at(E("1/x")) == -1


def test_ord_at_deeper_point():
    p = P("[0, inf]")
    # x = p*q and y = p^2*q at this point
    assert p.express(E("x")) == RatFunc(x * y)
    assert p.express(E("y")) == RatFunc(x ** 2 * y)
    assert p.ord_at(E("x")) == 2
    assert p.ord_at(E("y")) == 3


def test_ord_of_zero_raises():
    with pytest.raises(ValueError):
        Point.root().ord_at(RatFunc.from_const(0))


def test_residue_values():
    assert residue_of((), E("2 + x")) == Poly.const(2)
    assert residue_of((), E("(1 + x)/(2 + y)")) == Poly.const(Fraction(1, 2))
    with pytest.raises(ValueError):
        residue_of((), E("x/y"))


def test_residue_at_symbolic_point():
    t = Poly.variable(T)
    # y/x takes the value t at the generic first-neighborhood point
    assert residue_of((TSYM,), E("y/x")) == t


# -- strict transforms ------------------------------------------------------

def test_strict_transform_of_cusp():
    # the cusp x^2 = y^3 has vertical tangent, so it follows the inf direction
    h = x ** 2 - y ** 3
    p = P("[inf]")
    assert format_poly(p.strict_transform(h)) == "y^2 - x"
    q = P("[inf, inf]")
    assert format_poly(q.strict_transform(h)) == "x - y"


def test_strict_transform_drops_exceptional_factor():
    h = x ** 2 - y ** 3
    # multiplicity sequence of the cusp is 2, 1, 1, ...
    assert Point.root().strict_transform(h).xy_order() == 2
    assert Point.root().child(INF).strict_transform(h).xy_order() == 1


def test_strict_transform_of_node_splits_directions():
    h = y ** 2 - x ** 2 * (x + Poly.const(1))
    # at direction 1 and -1 the node separates into smooth branches
    for b in (1, -1):
        branch = Point.from_path((Fraction(b),)).strict_transform(h)
        assert branch.xy_order() == 1


def test_strict_transform_line_leaves_chart():
    h = x + y
    p = P("[-1]")
    assert p.strict_transform(h) == y
    # any other direction misses the line
    assert P("[3]").strict_transform(h).constant_term() != 0


any_steps = st.one_of(
    st.just(INF), st.just(TSYM), st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3))

polys_xya = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.just(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    min_size=1, max_size=6).map(Poly)


@given(polys_xya, any_steps)
@settings(max_examples=60, deadline=None)
def test_one_step_matches_sympy_substitution(h, step):
    sympy = pytest.importorskip("sympy")
    sx, sy, sa, sym_t = sympy.symbols("x y a t")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * sx ** e[0] * sy ** e[1]
                   * sa ** e[2] * sym_t ** e[3] for e, c in p.terms.items())

    if step is INF:
        image = {sx: sx * sy, sy: sx}
    else:
        shift = sym_t if step is TSYM else sympy.Rational(step.numerator, step.denominator)
        image = {sx: sx, sy: sx * (sy + shift)}
    expected = sympy.expand(to_sympy(h).subs(image, simultaneous=True))
    assert sympy.expand(to_sympy(transform_step(h, step)) - expected) == 0
    power = min(m[0] for m in sympy.Poly(expected, sx, sy, sa, sym_t).monoms())
    stripped = sympy.expand(expected / sx ** power)
    assert sympy.expand(to_sympy(strict_step(h, step)) - stripped) == 0


@st.composite
def express_paths(draw):
    """Paths of depth up to 6 over 0, +-1, +-1/2, 2, inf, with at most one
    symbolic step inserted anywhere: the step sequences a fiber's chart
    route folds, base path then t then tail."""
    steps = draw(st.lists(st.sampled_from(
        (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
         Fraction(2), INF)), max_size=6))
    if draw(st.booleans()):
        steps.insert(draw(st.integers(0, len(steps))), TSYM)
    return tuple(steps[:6])


small_polys_xya = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1), st.just(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    min_size=1, max_size=4).map(Poly)


@given(small_polys_xya, small_polys_xya, express_paths())
@settings(max_examples=120, deadline=None)
def test_express_matches_substitution_and_gcd(num, den, steps):
    f = RatFunc(num, den)
    # the route of the fiber oracle: express at the concrete base, then fold
    # the step kernel over the symbolic step and the tail
    split = steps.index(TSYM) if TSYM in steps else len(steps)
    expressed = reduce(express_step, steps[split:],
                       Point.from_path(steps[:split]).express(f))
    assert expressed == reference_express(steps, f)


def test_reference_express_with_a_is_quick():
    # the fraction the chart oracle reduces here took 18.8 s to prove
    # coprime by the remainder sequence alone
    f = parse_element("(x*y*a - 1/2*y^2*a - 2*x*a)/(x^2 - 16/3*y*a + 1)")
    steps = parse_path("[1/2, 1, inf, -1, inf, 1/2]")
    start = time.perf_counter()
    expected = reference_express(steps, f)
    assert time.perf_counter() - start < 1
    assert Point.from_path(steps).express(f) == expected


def test_multiplicity_at_symbolic_point():
    h = y ** 2 - x ** 3
    # a generic direction is not on the cusp
    assert strict_step(h, TSYM).xy_order() == 0


# -- path comparison --------------------------------------------------------

def test_compare_prefix_order():
    assert is_prefix(P("[]"), P("[0]")) and not is_prefix(P("[0]"), P("[]"))
    assert is_prefix(P("[0]"), P("[0]"))
    assert not is_prefix(P("[0]"), P("[1]")) and not is_prefix(P("[1]"), P("[0]"))
    assert not is_prefix(P("[0, inf]"), P("[0, 1]"))
    assert not is_prefix(P("[0, 1]"), P("[0, inf]"))
    # steps compare with ==: rationals by value, inf and t only with themselves
    half = Fraction(1, 2)
    assert half == Fraction(2, 4) and Fraction(0) == 0
    for step in (Fraction(0), half):
        assert step != INF and INF != step
    assert INF == INF
    deeper = Point.from_path([Fraction(2, 4), INF, 0])
    assert is_prefix(P("[1/2, inf]"), deeper) and not is_prefix(deeper, P("[1/2, inf]"))


def test_is_prefix_matches_ring_containment():
    small = P("[]")
    big = P("[0, inf]")
    assert is_prefix(small, big)
    assert not is_prefix(big, small)
    # containment of rings goes the same way: everything in D stays in O_big
    for text in ("x", "y", "x*y - 3"):
        assert in_point(E(text), big)
