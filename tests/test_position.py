"""Tests for position classification, resolve, and locate."""

from fractions import Fraction

import pytest

from blowup.errors import DepthCapError, InputError, LocateError, ResolveError
from blowup.expr import INF, parse_element, parse_path
from blowup.position import (
    Position,
    locate,
    position,
    position_parametric,
    resolve,
)
from blowup.tree import Point


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
    assert pp.at(3) is Position.ZERO
    assert pp.at(2) is Position.UNDETERMINED


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
    with pytest.raises(InputError):
        pp.at(0)


def test_parametric_element_without_parameter():
    pp = position_parametric(Point.root(), E("x/y"))
    assert pp.generic is Position.UNDETERMINED
    assert not pp.exceptional and not pp.undefined


def test_parametric_rejects_symbolic_point():
    from blowup.tree import TSYM
    with pytest.raises(InputError):
        position_parametric(Point.root().child(TSYM), E("x + a*y"))
