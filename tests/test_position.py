"""Tests for position classification, resolve, and locate."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blowup.errors import (ComputationError, DepthCapError, InputError, LocateError,
                           ResolveError)
from blowup.expr import INF, parse_element, parse_path
from blowup.poly import Poly, RatFunc, X, Y
from blowup.position import (
    ParametricPosition,
    Position,
    _candidate_steps,
    locate,
    position,
    position_parametric,
    resolve,
    settle,
)
from blowup.oracle import in_point
from blowup.tree import Point
from blowup.valuations import SecondKind

from helpers import params, reference_candidate_steps, reference_resolve, subst_poly


def P(literal):
    return Point.from_path(parse_path(literal))


def E(text):
    return parse_element(text)


def paths(points):
    return {p.steps for p in points}


# -- position ----------------------------------------------------------------

def test_position_at_root():
    d = Point.root()
    assert position(d, E("x")) is Position.ZERO
    assert position(d, E("1 + x")) is Position.UNIT
    assert position(d, E("1/x")) is Position.POLE
    assert position(d, E("x/y")) is Position.UNDETERMINED


def test_position_of_zero_element():
    assert position(Point.root(), E("x - x")) is Position.ZERO


def test_position_resolves_after_one_step():
    f = E("x/y")
    assert position(P("[inf]"), f) is Position.ZERO
    assert position(P("[0]"), f) is Position.POLE
    assert position(P("[1]"), f) is Position.UNIT


def test_position_rejects_parametric_element():
    with pytest.raises(InputError):
        position(Point.root(), E("x + a*y"))


def test_position_with_unit_shift():
    f = E("y^2/(x + 2*y)")
    # the denominator picks up the exceptional factor once per step, and two
    # steps in the quotient is a plain multiple of (x - 1/2)^2 * y
    assert position(P("[-1/2]"), f) is Position.UNDETERMINED
    assert position(P("[-1/2, inf]"), f) is Position.ZERO


# -- settling at the first decided point -------------------------------------

def test_settle_stops_at_the_first_decided_point():
    # x/y is undetermined at the root and a pole at [0], so the step after
    # it is never read
    steps = iter([Fraction(0), INF])
    pos, chart = settle(E("x/y"), steps)
    assert pos is Position.POLE
    assert str(chart) == "(1)/(y)"
    assert next(steps) is INF
    assert settle(E("x/y"), ())[0] is Position.UNDETERMINED
    assert settle(E("1 + x"), [INF, Fraction(2)]) == (Position.UNIT, E("1 + x"))


settle_steps = st.sampled_from(
    (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), INF))
# constant terms allowed, so some elements settle at the root
settle_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0), st.just(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
    min_size=1, max_size=4).map(Poly)


@given(settle_polys, settle_polys, st.lists(settle_steps, max_size=7))
@settings(max_examples=150, deadline=None)
def test_settled_answers_match_the_whole_path(num, den, steps):
    f = RatFunc(num, den)
    point = Point.from_path(steps)
    assert settle(f, point.steps)[0] is position(point, f)
    assert SecondKind(point).contains_element(f) == (point.ord_at(f) >= 0)
    assert in_point(f, point) == (position(point, f) in (Position.ZERO, Position.UNIT))


@pytest.mark.parametrize("literal, text, member", [
    # a pole at the ancestor [0] already: (1 + a*y)/y
    ("[0, inf]", "(x + a*y)/y", False),
    # still undetermined at the point, y/(x*(y - a + 1)): orders 1 and 1
    ("[1]", "(y - x)/(x*(y - a*x))", True),
])
def test_second_kind_generic_answers_carry_a(literal, text, member):
    point, f = P(literal), E(text)
    assert SecondKind(point).contains_element(f) is member
    assert member == (point.ord_at(f) >= 0)


# -- resolve -----------------------------------------------------------------

def test_resolve_monomial_quotient():
    r = resolve(E("x/y"))
    assert paths(r.zeros) == {(INF,)}
    assert paths(r.poles) == {(Fraction(0),)}
    assert r.depth_used == 1
    assert not r.diagnostics


def test_resolve_zero_at_start_stops_there():
    r = resolve(E("x"))
    assert paths(r.zeros) == {()}
    assert not r.poles


def test_resolve_unit_everywhere():
    r = resolve(E("(1 + x)/(1 - y)"))
    assert not r.zeros and not r.poles
    assert r.depth_used == 0


def test_resolve_cusp_quotient():
    r = resolve(E("x*y/(y^2 + x^3)"), max_depth=8)
    assert paths(r.zeros) == {(Fraction(0), Fraction(0)), (INF,)}
    assert paths(r.poles) == {(Fraction(0), INF)}
    assert r.depth_used == 2


def test_resolve_from_inner_start():
    r = resolve(E("x*y/(y^2 + x^3)"), start=P("[0]"))
    assert paths(r.zeros) == {(Fraction(0), Fraction(0))}
    assert paths(r.poles) == {(Fraction(0), INF)}


def test_resolve_unbalanced_orders_is_infinite():
    with pytest.raises(ResolveError):
        resolve(E("x^2/y"))
    with pytest.raises(ResolveError):
        resolve(E("y/x^2"))


def test_resolve_reports_irrational_directions():
    r = resolve(E("(x^2 - 2*y^2)/(x*y)"))
    assert paths(r.poles) == {(Fraction(0),), (INF,)}
    assert not r.zeros
    assert any("irrational" in d for d in r.diagnostics)


def test_resolve_depth_cap():
    # x - y vanishes along the 1-direction chain forever; the zero point
    # exists ([1]), but an artificial cap of zero leaves the root open
    with pytest.raises(DepthCapError) as info:
        resolve(E("(x - y)/x"), max_depth=0)
    assert info.value.open_points == (Point.root(),)


def test_resolve_rejects_parametric_and_zero():
    with pytest.raises(InputError):
        resolve(E("x + a*y"))
    with pytest.raises(InputError):
        resolve(E("0"))


_px = Poly.variable(X)
_py = Poly.variable(Y)
small_rationals = st.sampled_from(
    (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def branch_factors(draw):
    """A factor y - p(x) with p(0) = 0, or a small singular or tangent curve."""
    if draw(st.booleans()):
        p = Poly()
        for k in range(1, draw(st.integers(1, 3)) + 1):
            p = p + Poly.const(draw(small_rationals)) * _px ** k
        return _py - p if draw(st.booleans()) else _px - subst_poly(p, X, _py)
    return draw(st.sampled_from((
        _px, _py, _py ** 2 - _px ** 3, _px ** 2 - _py ** 3, _py ** 2 - _px ** 2 * (_px + _py),
        (_py - _px) ** 2 - _px ** 5, Poly.const(1) + _px)))


@st.composite
def branch_elements(draw):
    """A quotient of such factors, mostly of equal order at the root, so
    that the descent goes past the first neighborhood."""
    num, den = Poly.const(1), Poly.const(1)
    for _ in range(draw(st.integers(1, 3))):
        num = num * draw(branch_factors())
    for _ in range(draw(st.integers(0, 3))):
        den = den * draw(branch_factors())
    if draw(st.integers(0, 3)):
        while num.xy_order() != den.xy_order():
            line = _py - Poly.const(draw(small_rationals)) * _px
            if num.xy_order() < den.xy_order():
                num = num * line
            else:
                den = den * line
    return RatFunc(num, den)


def _outcome(search, f, max_depth):
    try:
        return search(f, max_depth)
    except DepthCapError as exc:
        return type(exc), str(exc), exc.open_points
    except ResolveError as exc:
        return type(exc), str(exc)


@st.composite
def lowest_form_factors(draw):
    """A direction y - r*x with r a fraction whose denominator may be large,
    the direction inf (x), or a quadratic with no rational direction."""
    kind = draw(st.sampled_from(("line", "line", "inf", "real", "complex")))
    if kind == "line":
        r = Fraction(draw(st.integers(-2 ** 8, 2 ** 8)),
                     draw(st.sampled_from((1, 2, 3, 8, 12, 1024, 65537))))
        return _py - Poly.const(r) * _px
    if kind == "inf":
        return _px
    if kind == "real":
        return _py ** 2 - Poly.const(draw(st.sampled_from((2, 3, Fraction(1, 2))))) * _px ** 2
    b = draw(small_rationals)
    c = b * b / 4 + Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return _py ** 2 + Poly.const(b) * _px * _py + Poly.const(c) * _px ** 2


@st.composite
def chart_polys(draw):
    """A rational multiple of a product of such factors, repeats allowed,
    plus terms of higher order."""
    p = Poly.const(Fraction(draw(st.integers(1, 2 ** 30)), draw(st.integers(1, 2 ** 30))))
    for _ in range(draw(st.integers(0, 3))):
        p = p * draw(lowest_form_factors())
    order = p.xy_order()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, order + 2))
        j = draw(st.integers(max(0, order + 1 - i), order + 2))
        p = p + Poly.const(draw(small_rationals)) * _px ** i * _py ** j
    return p


def _steps_outcome(candidate_steps, f):
    try:
        return candidate_steps(f)
    except ComputationError as exc:
        return type(exc)


@given(chart_polys(), chart_polys())
@settings(max_examples=100, deadline=None)
def test_candidate_steps_match_substitution_and_divisor_search(num, den):
    f = RatFunc(num, den)
    assert _steps_outcome(_candidate_steps, f) == \
        _steps_outcome(reference_candidate_steps, f)


@given(branch_elements(), st.integers(0, 5))
@settings(max_examples=80, deadline=None)
def test_resolve_matches_expressing_from_the_root(f, max_depth):
    assert _outcome(resolve, f, max_depth) == _outcome(reference_resolve, f, max_depth)


# -- locate ------------------------------------------------------------------

def test_locate_plain_parameters():
    assert locate(E("x"), E("y")) == Point.root()


def test_locate_after_one_step():
    assert locate(E("x"), E("y/x")) == P("[0]")
    assert locate(E("y"), E("x/y")) == P("[inf]")


def test_locate_shifted_direction():
    assert locate(E("(x + 2*y)/y"), E("y^2/(x + 2*y)")) == P("[-1/2, inf]")


def test_locate_deeper_pairs():
    assert locate(E("y/x"), E("x^2/y")) == P("[0, inf]")
    assert locate(E("x/y"), E("y^2/x")) == P("[inf, inf]")


def test_locate_order_insensitive():
    assert locate(E("x^2/y"), E("y/x")) == P("[0, inf]")


@given(st.lists(st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
                                 Fraction(-1, 2), Fraction(2), INF)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_locate_finds_the_point_of_its_parameters(steps):
    point = Point.from_path(steps)
    assert locate(*params(point)) == point


def test_locate_rejects_non_pairs():
    with pytest.raises(LocateError):
        locate(E("x"), E("x"))
    with pytest.raises(LocateError):
        locate(E("1 + x"), E("y"))
    with pytest.raises(LocateError):
        locate(E("x"), E("x*y"))


def test_locate_rejects_bad_input():
    with pytest.raises(InputError):
        locate(E("x + a*y"), E("y"))
    with pytest.raises(InputError):
        locate(E("x - x"), E("y"))


# -- parametric position -----------------------------------------------------

def test_parametric_generic_zero_with_exception():
    pp = position_parametric(P("[-1/2]"), E("y^2/(x + a*y)"))
    assert pp.generic is Position.ZERO
    assert pp.exceptional == {Fraction(2): Position.UNDETERMINED}


def test_parametric_unit_with_zero_exception():
    pp = position_parametric(P("[0]"), E("y/x - a"))
    assert pp.generic is Position.UNIT
    assert pp.exceptional == {Fraction(0): Position.ZERO}


def test_parametric_no_exceptions():
    pp = position_parametric(Point.root(), E("x + a*y"))
    assert pp.generic is Position.ZERO
    assert not pp.exceptional and not pp.undefined


def test_parametric_undetermined_everywhere():
    pp = position_parametric(Point.root(), E("y^2/(x + a*y)"))
    assert pp.generic is Position.UNDETERMINED
    assert not pp.exceptional


def test_parametric_detects_cancellation():
    # generically undetermined, but at a = 0 the fraction collapses to a unit
    pp = position_parametric(Point.root(), E("(y + a*x)/(y + 2*a*x)"))
    assert pp.generic is Position.UNDETERMINED
    assert pp.exceptional == {Fraction(0): Position.UNIT}


def test_parametric_undefined_values():
    pp = position_parametric(Point.root(), E("x/(a*y)"))
    assert pp.generic is Position.UNDETERMINED
    assert pp.undefined == (Fraction(0),)


def test_parametric_element_without_parameter():
    pp = position_parametric(Point.root(), E("x/y"))
    assert pp.generic is Position.UNDETERMINED
    assert not pp.exceptional and not pp.undefined


def test_parametric_concrete_element_is_its_position(monkeypatch):
    # undetermined at the root: the parametric analysis would run resultants
    def refuse(*args):
        raise AssertionError("sylvester_resultant ran for an element without a")
    # the package re-exports the function `position` under the module's name
    monkeypatch.setattr(sys.modules["blowup.position"], "sylvester_resultant", refuse)
    f = E("(x + y)/(x - y)")
    assert position_parametric(Point.root(), f) == \
        ParametricPosition(position(Point.root(), f))


def test_parametric_rejects_symbolic_point():
    from blowup.tree import TSYM
    # every point is concrete: the symbolic one cannot even be built
    with pytest.raises(InputError):
        position_parametric(Point.root().child(TSYM), E("x + a*y"))
