"""Tests for the valuation ring classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from blowup.errors import BranchError, ComputationError, DepthCapError, InputError
from blowup.expr import INF, parse_element, parse_path
from blowup.poly import Poly, RatFunc, X, Y
from blowup.position import Position, classify_expressed
from blowup.tree import Point
from blowup.valuations import (
    WALK_CAP,
    FirstKind,
    MinimalCurveBranch,
    MinimalEventuallyPeriodic,
    SecondKind,
    branch_step,
    monomial_path,
    monomial_valuation,
)

from helpers import curve_along, reference_same_path

x = Poly.variable(X)
y = Poly.variable(Y)


def P(literal):
    return Point.from_path(parse_path(literal))


def E(text):
    return parse_element(text)


# -- first kind --------------------------------------------------------------

def test_first_kind_values():
    v = FirstKind(y ** 2 - x ** 3)
    assert v.value(E("y^2 - x^3")) == 1
    assert v.value(E("(y^2 - x^3)^2 * x")) == 2
    assert v.value(E("x/(y^2 - x^3)")) == -1
    assert v.value(E("x*y + 1")) == 0


def test_first_kind_membership():
    v = FirstKind(x + y)
    assert v.contains_element(E("x/(1 + x)"))
    assert v.contains_element(E("(x + y)/x"))
    assert v.contains_element(E("x/(x + y)")) is False


def test_first_kind_ring_containment_follows_the_curve():
    v = FirstKind(x ** 2 - y ** 3)
    assert v.ring_contains(P("[]"))
    assert v.ring_contains(P("[inf]"))
    assert v.ring_contains(P("[inf, inf]"))
    assert not v.ring_contains(P("[0]"))
    assert not v.ring_contains(P("[inf, 0]"))


def test_first_kind_away_from_origin_contains_no_point():
    v = FirstKind(x + Poly.const(1))
    assert not v.ring_contains(P("[]"))
    assert v.value(E("x + 1")) == 1


def test_first_kind_rejects_bad_curves():
    with pytest.raises(InputError):
        FirstKind(Poly.const(3))
    with pytest.raises(InputError):
        FirstKind(x * y)
    with pytest.raises(InputError):
        FirstKind((x + y) ** 2)
    with pytest.raises(InputError):
        FirstKind(x + Poly.variable(2))  # parameter slot


# -- second kind -------------------------------------------------------------

def test_second_kind_value_is_parameter_order():
    v = SecondKind(P("[0, inf]"))
    assert v.value(E("x")) == 2
    assert v.value(E("y")) == 3
    assert v.value(E("y/x")) == 1
    assert v.value(E("x^3/y")) == 3


def test_second_kind_membership():
    v = SecondKind(P("[0]"))
    assert v.contains_element(E("y/x"))
    assert v.contains_element(E("x/y")) is False


def test_second_kind_ring_containment():
    v = SecondKind(P("[0]"))
    assert v.ring_contains(P("[]"))
    assert v.ring_contains(P("[0, 4]"))
    assert v.ring_contains(P("[0, 1, inf, 0]"))
    assert not v.ring_contains(P("[0, 1, 2]"))
    assert not v.ring_contains(P("[2]"))


def test_second_kind_rejects_symbolic_point():
    from blowup.tree import TSYM
    # every point is concrete: the symbolic one cannot even be built
    with pytest.raises(InputError):
        SecondKind(Point.root().child(TSYM))


# -- monomial ----------------------------------------------------------------

def test_monomial_path_examples():
    assert monomial_path(5, 2) == (INF, Fraction(0), INF)
    assert monomial_path(1, 1) == ()
    assert monomial_path(1, 2) == (Fraction(0),)
    assert monomial_path(2, 1) == (INF,)


def test_monomial_valuation_reaches_stated_weights():
    v = monomial_valuation(5, 2)
    assert v.value(E("x")) == 5
    assert v.value(E("y")) == 2
    assert v.value(E("x*y^2")) == 9


def test_monomial_valuation_scales_with_gcd():
    v = monomial_valuation(4, 2)
    assert v.point == P("[inf]")
    assert v.value(E("x")) == 4
    assert v.value(E("y")) == 2
    # as rings, the scaled valuation and the plain order valuation agree
    assert v == SecondKind(P("[inf]"))


def test_monomial_valuation_rational_weights():
    v = monomial_valuation(Fraction(5, 2), 1)
    assert v.point == P(("[inf, 0, inf]"))
    assert v.value(E("x")) == 5
    assert v.value(E("y")) == 2


def test_monomial_rejects_nonpositive():
    with pytest.raises(InputError):
        monomial_path(0, 1)
    with pytest.raises(InputError):
        monomial_path(3, -2)


# -- minimal valuations ------------------------------------------------------

def test_periodic_canonical_form():
    v = MinimalEventuallyPeriodic([1, 0], [0])
    assert v.prefix == (Fraction(1),)
    assert v.period == (Fraction(0),)
    w = MinimalEventuallyPeriodic([], [0, 1, 0, 1])
    assert w.period == (Fraction(0), Fraction(1))
    assert MinimalEventuallyPeriodic([1], [0]) == v


def test_periodic_points_and_steps():
    v = MinimalEventuallyPeriodic([], [0, INF])
    assert v.step_at(0) == Fraction(0)
    assert v.step_at(1) is INF
    assert v.step_at(2) == Fraction(0)
    assert v.point_at(2) == P("[0, inf]")


def test_periodic_requires_period():
    with pytest.raises(InputError):
        MinimalEventuallyPeriodic([0], [])


def test_periodic_ring_containment_is_path_prefix():
    v = MinimalEventuallyPeriodic([], [0])
    assert v.ring_contains(P("[]"))
    assert v.ring_contains(P("[0, 0, 0]"))
    assert not v.ring_contains(P("[0, 1]"))
    assert not v.ring_contains(P("[inf]"))


def test_periodic_membership_by_stabilization():
    # along the all-zero path, y/x^k eventually stabilizes to a unit or zero
    v = MinimalEventuallyPeriodic([], [0])
    assert v.contains_element(E("y/x"))
    assert v.contains_element(E("y/x^3"))
    assert not v.contains_element(E("x^2/y"))
    assert v.contains_element(E("x + y"))
    assert not v.contains_element(E("1/x"))
    assert v.contains_element(E("0"))


def test_branch_follows_the_cusp():
    v = MinimalCurveBranch(x ** 2 - y ** 3)
    assert [v.step_at(i) for i in range(5)] == [INF, INF, Fraction(1),
                                               Fraction(0), Fraction(0)]
    assert v.point_at(2) == P("[inf, inf]")
    # the curve element itself lies in the union ring
    assert v.contains_element(E("x^2 - y^3"))
    assert not v.contains_element(E("1/(x^2 - y^3)"))
    assert v.contains_element(E("x^2/y^2"))


def test_branch_membership_distinguishes_sides():
    v = MinimalCurveBranch(x ** 2 - y ** 3)
    # x^2/y^3 tends to 1 along the branch; its inverse is also there
    assert v.contains_element(E("x^2/y^3"))
    assert v.contains_element(E("y^3/x^2"))


def test_branch_of_smooth_curve():
    v = MinimalCurveBranch(y - x ** 2)
    assert [v.step_at(i) for i in range(4)] == [Fraction(0), Fraction(1),
                                               Fraction(0), Fraction(0)]


def test_branch_step_errors():
    with pytest.raises(BranchError):
        branch_step(Poly.const(1) + x)
    # a node has two rational branches
    with pytest.raises(BranchError):
        MinimalCurveBranch(y ** 2 - x ** 2 * (x + Poly.const(1))).step_at(0)
    # tangent cone irreducible over the rationals
    with pytest.raises(BranchError):
        MinimalCurveBranch(y ** 2 - Poly.const(2) * x ** 2 - x ** 3).step_at(0)


def test_branch_requires_origin():
    with pytest.raises(InputError):
        MinimalCurveBranch(x + Poly.const(1))


def test_branch_coherence_cusp():
    # the strict transform vanishes at the origin of every expanded level
    v = MinimalCurveBranch(x ** 2 - y ** 3)
    for level in range(11):
        assert v.point_at(level).strict_transform(v.h).xy_order() >= 1
    # the one strict transform the branch keeps is the one after its last step
    assert v._strict == v.point_at(len(v._steps)).strict_transform(v.h)


def test_branch_coherence_tacnode():
    v = MinimalCurveBranch((y - x) ** 2 - x ** 5)
    orders = [v.point_at(level).strict_transform(v.h).xy_order() for level in range(11)]
    assert all(o >= 1 for o in orders)
    # the double point survives one blow-up, then the branch is smooth
    assert orders[:3] == [2, 2, 1]
    assert v.step_at(0) == Fraction(1)
    assert v._strict == v.point_at(len(v._steps)).strict_transform(v.h)


def test_monomial_value_is_min_term_weight():
    rng = random.Random(20240817)
    for _ in range(10):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        v = monomial_valuation(a, b)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = (rng.randint(0, 5), rng.randint(0, 5), 0, 0)
            terms[exps] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        p = Poly(terms)
        # positive coefficients rule out cancellation of minimizing terms:
        # monomial charts substitute monomials, so no signs ever mix
        expected = min(a * e[X] + b * e[Y] for e in terms)
        assert v.value(RatFunc(p)) == expected


def test_same_path_across_constructors():
    v = MinimalCurveBranch(x ** 2 - y ** 3)
    w = MinimalEventuallyPeriodic([INF, INF, 1], [0])
    assert v.same_path(w) and w.same_path(v)
    assert v.agreement(map(w.step_at, range(64))) == 64
    assert not v.same_path(MinimalEventuallyPeriodic([], [0]))
    u = MinimalEventuallyPeriodic([INF, INF, 1, 1], [0])
    assert v.agreement(map(u.step_at, range(64))) == 3


# -- exact path identity against a walk of the strict transform --------------

PATH_STEPS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), INF)
path_prefixes = st.lists(st.sampled_from(PATH_STEPS), max_size=3)
finite_periods = st.lists(st.sampled_from(PATH_STEPS[:-1]), min_size=1, max_size=2)
periodic_paths = st.builds(MinimalEventuallyPeriodic, path_prefixes,
                           st.lists(st.sampled_from(PATH_STEPS), min_size=1, max_size=2))
BRANCH_CURVES = (x ** 2 - y ** 3, y ** 2 - x ** 3, (y - x) ** 2 - x ** 5, y - x ** 2,
                 y ** 3 - x ** 5, y - x - x ** 3)


@st.composite
def paths_and_curves(draw):
    """A periodic path with a finite period, a curve that follows it (or
    follows it for a while: x^n or x^n y added in the chart where the
    period starts, n <= 40) or a single-branch curve, and a path that is
    either the first one or any periodic path, inf steps included."""
    prefix, period = draw(path_prefixes), draw(finite_periods)
    follower = st.builds(curve_along, st.just(prefix), st.just(period))
    perturbed = st.builds(curve_along, st.just(prefix), st.just(period),
                          st.integers(1, 40), st.booleans())
    h = draw(st.one_of(follower, perturbed, st.sampled_from(BRANCH_CURVES)))
    v = draw(st.one_of(st.just(MinimalEventuallyPeriodic(prefix, period)), periodic_paths))
    return v, h


def _branch(h):
    """The curve branch of h, or None: h may have several branches at the
    origin, a monomial factor, or a tangent cone past the root search."""
    try:
        return MinimalCurveBranch(h)
    except (ComputationError, InputError):
        return None


@given(paths_and_curves(), st.sampled_from(BRANCH_CURVES))
@settings(max_examples=150, deadline=None)
# a strict transform past the chart budget (10,443 products at the second
# step 1): a single transform is formed, not refused
@example((MinimalEventuallyPeriodic([INF, 1, 1], [0]),
          curve_along([Fraction(0), Fraction(1), INF], [Fraction(0)], 21)), x ** 2 - y ** 3)
def test_exact_path_identity_matches_the_strict_transform_walk(drawn, other):
    v, h = drawn
    assert v.on_curve(h) == reference_same_path(v, h)
    w = _branch(h)
    if w is None:
        return
    assert v.same_path(w) == w.same_path(v) == reference_same_path(v, w)
    u = MinimalCurveBranch(other)
    assert w.same_path(u) == reference_same_path(u, w)
    assert u.on_curve(h) == reference_same_path(u, h)


@given(periodic_paths, periodic_paths)
@settings(max_examples=100, deadline=None)
def test_periodic_paths_are_the_same_when_their_steps_are(v, w):
    assert v.same_path(w) == reference_same_path(v, w)


def test_curve_branch_follows_only_the_component_through_the_origin():
    one = Poly.const(1)
    v = MinimalCurveBranch((y - x ** 2) * (one + x))
    # the shared factor 1 + x misses the origin; y - x^2 carries the branch
    for h, follows in (((one + x) * y, False), ((y - x ** 2) * (x + y), True),
                       (y - x ** 2 + x ** 9, False)):
        assert v.on_curve(h) == reference_same_path(v, h) == follows


def test_curve_branch_checks_its_branch_when_built():
    with pytest.raises(BranchError):
        MinimalCurveBranch(y ** 2 - x ** 2 - x ** 3)
    with pytest.raises(BranchError):
        MinimalCurveBranch(y ** 2 - x ** 4)
    with pytest.raises(DepthCapError):
        MinimalCurveBranch(y ** 2 - x ** 131)
    v = MinimalCurveBranch(y ** 2 - x ** 129)
    assert v.point_at(64).strict_transform(v.h).xy_order() == 1
    assert v.step_at(200) == Fraction(0)


def test_cross_kind_rings_agree_on_samples():
    v = MinimalCurveBranch(y - x)
    w = MinimalEventuallyPeriodic([1], [0])
    assert v.same_path(w)
    for text in ("y/x", "y - x", "x + y", "1/x", "1/(y - x)"):
        assert v.contains_element(E(text)) == w.contains_element(E(text))


# -- the membership walk against expressing from the root ---------------------

def _walk_from_root(v, f):
    """`contains_element` with every path point expressing f from the root."""
    if f.is_zero:
        return True
    for level in range(WALK_CAP + 1):
        pos = classify_expressed(v.point_at(level).express(f))
        if pos is not Position.UNDETERMINED:
            return pos is not Position.POLE
    return DepthCapError


def _walk(v, f):
    try:
        return v.contains_element(f)
    except DepthCapError:
        return DepthCapError


walk_steps = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), INF))
# no constant terms, so no walk settles at the root
plane_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0), st.just(0)).filter(
        lambda e: e[0] + e[1]),
    st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
    min_size=1, max_size=4).map(Poly)
minimal_valuations = st.one_of(
    st.builds(MinimalEventuallyPeriodic, st.lists(walk_steps, max_size=3),
              st.lists(walk_steps, min_size=1, max_size=2)),
    st.sampled_from([MinimalCurveBranch(h) for h in (
        x ** 2 - y ** 3, y ** 2 - x ** 3, (y - x) ** 2 - x ** 5, y - x ** 2,
        y ** 3 - x ** 5, y - x - x ** 3)]))


@given(minimal_valuations, st.integers(0, 6), st.lists(walk_steps, max_size=3))
@settings(max_examples=100, deadline=None)
def test_agreement_counts_the_leading_steps_on_the_path(v, shared, rest):
    steps = [v.step_at(i) for i in range(shared)] + rest
    brute = max(n for n in range(len(steps) + 1)
                if Point.from_path(steps[:n]) == v.point_at(n))
    assert v.agreement(steps) == brute
    assert v.agreement(iter(steps)) == brute


@given(minimal_valuations, plane_polys, plane_polys)
@settings(max_examples=80, deadline=None)
def test_membership_walk_matches_expressing_from_the_root(v, num, den):
    f = RatFunc(num, den)
    assert _walk(v, f) == _walk_from_root(v, f)
