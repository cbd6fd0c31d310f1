"""Tests for the proximity relation and order-valuation containment."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from blowup.expr import INF, parse_path
from blowup.proximity import (
    is_proximate,
    proximate_ancestors,
    proximate_points,
    second_kind_contains,
)
from blowup.tree import Point

from helpers import params


def P(literal):
    return Point.from_path(parse_path(literal))


def test_child_is_proximate_to_parent():
    assert is_proximate(P("[0]"), P("[]"))
    assert is_proximate(P("[0, 5]"), P("[0]"))
    assert is_proximate(P("[0, inf]"), P("[0]"))


def test_ray_reaches_grandparent():
    # the exceptional curve of the root survives along <s><inf><0>*
    assert is_proximate(P("[0, inf]"), P("[]"))
    assert is_proximate(P("[0, inf, 0]"), P("[]"))
    assert is_proximate(P("[0, inf, 0, 0]"), P("[]"))
    assert not is_proximate(P("[0, inf, 1]"), P("[]"))
    assert not is_proximate(P("[0, 5]"), P("[]"))
    assert not is_proximate(P("[0, inf, 0, inf]"), P("[]"))


def test_proximity_needs_descent():
    assert not is_proximate(P("[]"), P("[0]"))
    assert not is_proximate(P("[0]"), P("[0]"))
    assert not is_proximate(P("[1]"), P("[0]"))


def test_proximate_ancestors_examples():
    assert proximate_ancestors(P("[0, inf]")) == (P("[0]"), P("[]"))
    assert proximate_ancestors(P("[0, 5]")) == (P("[0]"),)
    assert proximate_ancestors(P("[0, inf, 0]")) == (P("[0, inf]"), P("[]"))
    assert proximate_ancestors(P("[]")) == ()


@st.composite
def deep_paths(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    steps = []
    for _ in range(n):
        pick = draw(st.integers(min_value=-2, max_value=3))
        steps.append(INF if pick == 3 else Fraction(pick))
    return tuple(steps)


@given(deep_paths())
@settings(max_examples=80, deadline=None)
def test_at_most_two_proximate_ancestors(steps):
    beta = Point.from_path(steps)
    anc = proximate_ancestors(beta)
    assert 1 <= len(anc) <= 2
    assert anc[0] == beta.ancestor(beta.level - 1)


def test_second_kind_contains_above_and_proximate():
    alpha = P("[0]")
    assert second_kind_contains(alpha, P("[]"))
    assert second_kind_contains(alpha, P("[0]"))
    assert second_kind_contains(alpha, P("[0, 7]"))
    assert second_kind_contains(alpha, P("[0, 2, inf]"))
    assert second_kind_contains(alpha, P("[0, 2, inf, 0]"))
    assert not second_kind_contains(alpha, P("[0, 2, 3]"))
    assert not second_kind_contains(alpha, P("[1]"))


def test_second_kind_contains_matches_parameter_orders():
    # at D<0><1> the second parameter is y/x^2 - 1, which the root order
    # valuation values negatively: the root does not contain that ring
    beta = P("[0, 1]")
    root = P("[]")
    beta_y = params(beta)[1]
    assert beta.ord_at(beta_y) >= 0
    assert Point.root().ord_at(beta_y) == -1
    assert not second_kind_contains(root, beta)
    # while the proximate sibling D<0><inf> is contained
    gamma = P("[0, inf]")
    assert all(Point.root().ord_at(p) >= 0 for p in params(gamma))
    assert second_kind_contains(root, gamma)


def test_proximate_points_enumeration():
    pts = proximate_points(Point.root(), 2, [Fraction(0), Fraction(1), INF])
    assert len(pts) == 6
    as_paths = {p.steps for p in pts}
    assert (Fraction(0),) in as_paths
    assert (Fraction(0), INF) in as_paths
    assert (INF, INF) in as_paths
    for p in pts:
        assert is_proximate(p, Point.root())


def test_proximate_points_depth_three_extends_rays():
    pts = proximate_points(P("[2]"), 3, [Fraction(0)])
    assert [p.steps[-1] for p in pts] == [Fraction(0), INF, Fraction(0)]
    for p in pts:
        assert is_proximate(p, P("[2]"))


def test_proximate_points_zero_depth():
    assert proximate_points(Point.root(), 0, [Fraction(0)]) == []
