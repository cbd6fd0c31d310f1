"""Membership oracles, irredundance certificates, semigroup reduction."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from blowup.errors import CertificateError, ComputationError, InputError
from blowup.expr import INF, parse_element
from blowup.families import Chain, Fiber, Siblings, Singleton
from blowup.oracle import (MembershipAnswer, _sibling_competitor, in_family, in_point,
                           irredundance_certificate, semigroup_member)
from blowup.poly import A, Poly, RatFunc, T
from blowup.tree import Point, transform_step
from blowup.valuations import FirstKind, MinimalCurveBranch, MinimalEventuallyPeriodic

from helpers import count_charges, curve_along, first_members, params, variable

e = parse_element
D = Point.root()
V0 = MinimalEventuallyPeriodic([], [0])
WALK_PATHS = (V0, MinimalEventuallyPeriodic([], [1]),
              MinimalEventuallyPeriodic([1], [-1]),
              MinimalEventuallyPeriodic([INF], [0]),
              MinimalEventuallyPeriodic([], [INF, 0]))


def c_family():
    """All of base D's grandchildren through the infinity step."""
    return Fiber(D, frozenset(), (INF,))


def b_family():
    return Fiber(D, frozenset([Fraction(0)]), (INF,))


class TestInPoint:
    def test_shifted_square(self):
        assert in_point(e("y^2/(x+2*y)"), Point.from_path([Fraction(-1, 2), INF]))

    def test_pole_up_the_infinity_ray(self):
        assert not in_point(e("y/x"), Point.from_path([INF, INF]))

    def test_base_elements_everywhere(self):
        for path in ([], [0], [3, 0, INF], [INF, INF]):
            assert in_point(e("x"), Point.from_path(path))
            assert in_point(e("y"), Point.from_path(path))

    def test_rejects_the_parameter(self):
        with pytest.raises(InputError):
            in_point(e("x+a*y"), D)

    def test_membership_grows_down_the_tree(self):
        pool = [e(s) for s in (
            "x", "y", "x/y", "y/x", "y^2/(x+2*y)", "x^2/y",
            "(x+y)/(x-y)", "1/(1+x)", "x^3/y^2")]
        steps = [Fraction(0), Fraction(1), INF]
        points = [Point.from_path(combo)
                  for level in range(4) for combo in product(steps, repeat=level)]
        for f in pool:
            for alpha in points:
                if not in_point(f, alpha):
                    continue
                for beta in points:
                    if len(beta.steps) > len(alpha.steps) and \
                            beta.steps[:len(alpha.steps)] == alpha.steps:
                        assert in_point(f, beta), (str(f), str(alpha), str(beta))


class TestInFamilyConcrete:
    def test_quotient_on_the_punctured_family(self):
        answer = in_family(e("x/y"), b_family())
        assert answer.verdict == "yes"
        assert not answer.flags

    def test_quotient_fails_with_the_far_witness(self):
        answer = in_family(e("y/x"), c_family())
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([INF, INF])

    def test_vertical_parabola(self):
        assert in_family(e("x^2/y"), c_family()).verdict == "yes"

    def test_rescued_at_the_suspicious_member(self):
        # the denominator constant vanishes at the step -1/2, but the
        # specialized fraction cancels and stays a member there
        assert in_family(e("y^2/(x+2*y)"), c_family()).verdict == "yes"

    def test_singleton_families(self):
        answer = in_family(e("y/x"), Singleton(Point.from_path([0])))
        assert answer.verdict == "yes"
        answer = in_family(e("x/y"), Singleton(Point.from_path([0])))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0])

    def test_zero_element(self):
        assert in_family(e("0"), c_family()).verdict == "yes"

    def test_reserved_symbol_rejected(self):
        with pytest.raises(InputError):
            in_family(RatFunc(variable(T)), c_family())
        with pytest.raises(InputError):
            in_point(RatFunc(variable(T)), D)


class TestInFamilyWalks:
    def test_chain_stabilizes(self):
        answer = in_family(e("y/x"), Chain(V0, 1))
        assert answer.verdict == "yes"
        assert not answer.flags

    def test_chain_pole_at_the_first_member(self):
        answer = in_family(e("x/y"), Chain(V0, 1))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0])

    def test_chain_answers_are_exact(self):
        for v in (V0, MinimalEventuallyPeriodic([], [1]),
                  MinimalEventuallyPeriodic([Fraction(1, 2), INF], [1, INF])):
            answer = in_family(e("1/(1+y)"), Chain(v, 1))
            assert answer.verdict == "yes", v
            assert answer.flags == (), v

    def test_sibling_pole_past_depth_twelve(self):
        answer = in_family(e("x^13/(y - x^14)"), Siblings(V0, Fraction(1)))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0] * 13 + [1])
        assert answer.flags == ()

    def test_sibling_member_catches_the_pole(self):
        answer = in_family(e("x/(y-x^5)"), Siblings(V0, Fraction(1)))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0, 1])

    def test_sibling_fails_before_the_path_settles(self):
        # a unit from P_2 on, yet a pole at member 1
        answer = in_family(e("x^2/(y - x^2)"), Siblings(V0, Fraction(1)))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0, 1])

    def test_siblings_of_units(self):
        answer = in_family(e("1/(1+x)"), Siblings(V0, Fraction(1)))
        assert answer.verdict == "yes"

    def test_inf_period_siblings_agree_with_brute_force(self):
        # the charts along [inf, 0] repeated grow fast; members 1-12 stay cheap
        f = e("x^3*y^2/(1 + y + x)")
        part = Siblings(MinimalEventuallyPeriodic([], [INF, 0]), Fraction(1))
        assert all(in_point(f, beta) for beta in first_members(part, 12))
        assert in_family(f, part).verdict == "yes"


PATH_PARTS = st.one_of(
    st.builds(Chain, st.sampled_from(WALK_PATHS), st.integers(0, 2)),
    st.builds(Siblings, st.sampled_from(WALK_PATHS),
              st.sampled_from([Fraction(1), Fraction(-1), Fraction(2)])))


# Elements whose walks reach past the first decided point of some member:
# concrete ones, and ones with a whose exceptional values are rechecked.
COUNTED = ("y^2/x^3", "x^5/(y^2 - x^3)", "x*y/(x^2 + y^3)", "(x + y)/(x - y)",
           "y^3/(x^4 + a*y^2)", "y^2/(x + a*y)", "a*x/(y - x)")


@pytest.mark.parametrize("family, texts, bound", [
    # siblings of the cusp's branch: 21 steps, 32 when each member took a
    # step of its own off the path chart, 111 when the walk expressed f from
    # the root at every level; the four concrete elements read their members
    # off the lowest forms, the three with a still step to theirs
    pytest.param(Siblings(MinimalCurveBranch(e("y^2 - x^3").num), Fraction(1)),
                 COUNTED, 21, id="cusp-siblings"),
    # the members 1<s><inf><0>: 46 steps, 58 when each member classified
    # f along its whole path and rechecked each value of a there
    pytest.param(Fiber(Point.from_path([1]), frozenset([Fraction(-1)]), (INF, Fraction(0))),
                 COUNTED, 46, id="fiber"),
    # siblings along [] + [0]: 14 steps, 18 with a step per member, 37 from
    # the root; the members of the concrete elements take no step
    pytest.param(Siblings(V0, Fraction(1)), COUNTED, 14, id="zero-path-siblings"),
    # settled at levels 30 and 20: one path step a level for the concrete
    # element (58 with a step per member); for the element with a, its
    # values of a rechecked concretely no longer step to members (79
    # before); walks from the root took 870 and 1,131
    pytest.param(Siblings(V0, Fraction(1)), ("x*y/(y - x^30)",), 29, id="settles-at-30"),
    pytest.param(Siblings(V0, Fraction(1)), ("y^2/(x^20 + a*y)",), 59, id="settles-at-20"),
])
def test_member_positions_stop_at_the_first_decided_point(monkeypatch, family,
                                                          texts, bound):
    calls = count_charges(monkeypatch)
    for text in texts:
        in_family(e(text), family)
    assert len(calls) <= bound


@st.composite
def curve_quotients(draw, coefficients=st.sampled_from(["-1", "1", "2"])):
    """x^i y^j over a curve that follows one of the paths for a while."""
    c = draw(coefficients)
    k = draw(st.integers(1, 5))
    curve = draw(st.sampled_from(
        [f"y - ({c})*x^{k}", f"x - ({c})*y^{k}", f"y + x - ({c})*x^{k}",
         f"1 + y - ({c})*x^{k}"]))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    return e(f"x^{i}*y^{j}/({curve})")


@given(PATH_PARTS, curve_quotients())
@settings(max_examples=40, deadline=None)
def test_walk_witness_is_the_first_failing_member(part, f):
    # chain members from `from_level` on, siblings 1-12
    failing = [beta for beta in first_members(part, 12) if not in_point(f, beta)]
    answer = in_family(f, part)
    if failing:
        assert answer.verdict == "no"
        assert answer.witness == failing[0]
    if answer.verdict == "no":
        assert not in_point(f, answer.witness)
    assert answer.flags == ()


@given(PATH_PARTS, curve_quotients(st.sampled_from(["a", "a - 1", "2*a"])))
@example(Siblings(V0, Fraction(1)), e("x^2/(y - a*x^2)"))
@settings(max_examples=60, deadline=None)
def test_parametric_walk_matches_the_concrete_walks(part, f):
    # the walk at each value of a is the oracle; a value that fails only
    # at a member, one step off an undetermined path point, must be found
    answer = in_family(f, part)
    if answer.verdict not in ("yes", "yes_except"):
        return
    for a0 in map(Fraction, range(-3, 4)):
        if f.den.subst_const(A, a0).is_zero:
            continue
        concrete = in_family(f.subst_const(A, a0), part)
        assert (concrete.verdict == "no") == (a0 in answer.exceptions), a0


class TestInFamilyParametric:
    def test_tilted_square_member_for_every_a(self):
        answer = in_family(e("y^2/(x+a*y)"), c_family())
        assert answer.verdict == "yes"
        assert answer.exceptions == {}
        assert not answer.flags

    def test_unit_shift_on_the_punctured_family(self):
        answer = in_family(e("(x+a*y)/y"), b_family())
        assert answer.verdict == "yes"

    def test_unit_shift_fails_at_the_zero_step_member(self):
        answer = in_family(e("(x+a*y)/y"), c_family())
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0, INF])

    def test_exceptional_value_on_a_singleton(self):
        answer = in_family(e("x/(y-a*x)"), Singleton(Point.from_path([2])))
        assert answer.verdict == "yes_except"
        assert answer.exceptions == {Fraction(2): "no"}
        assert answer.witness == Point.from_path([2])

    def test_exceptional_value_through_a_fiber(self):
        answer = in_family(e("y/(x+a-2)"), c_family())
        assert answer.verdict == "yes_except"
        assert answer.exceptions == {Fraction(2): "no"}
        assert answer.witness == Point.from_path([INF, INF])

    def test_moving_pole_tracks_the_parameter(self):
        # x/(y-ax) has its pole on the member at step a, whatever a is
        answer = in_family(e("x/(y-a*x)"), Fiber(D))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0])
        assert any("matched to each parameter value" in flag
                   for flag in answer.flags)

    def test_moving_pole_skips_the_excluded_step(self):
        answer = in_family(e("x/(y-a*x)"), Fiber(D, frozenset([Fraction(0)])))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([1])

    @pytest.mark.parametrize("text", ["1/x", "x/(y-a*x)"])
    def test_generic_failure_scans_past_every_excluded_step(self, text):
        # the first step the fiber allows is 16: the scans have no fixed count
        excluded = frozenset(map(Fraction, range(16)))
        answer = in_family(e(text), Fiber(D, excluded))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([16])

    def test_sibling_exceptions_without_flags(self):
        answer = in_family(e("x^2/(y - a*x^2)"), Siblings(V0, Fraction(1)))
        assert answer.verdict == "yes_except"
        assert answer.exceptions == {Fraction(0): "no", Fraction(1): "no"}
        assert answer.witness == Point.from_path([0, 0, 1])
        assert answer.flags == ()

    def test_undefined_values_are_flagged_not_excepted(self):
        answer = in_family(e("y/((a-1)*x)"), Singleton(Point.from_path([0])))
        assert answer.verdict == "yes"
        assert answer.exceptions == {}
        assert any("undefined at a = 1" in flag for flag in answer.flags)

    def test_undefined_sample_is_skipped_by_the_witness_scan(self):
        # at a = 0 the element is undefined; the scan goes on to a = 1
        answer = in_family(e("x/(a*(y - a*x))"), Fiber(D))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([1])

    def test_pole_along_a_curve_in_a_and_t_is_flagged_generic(self):
        # x^2/(y^2 - a*x^2) has a pole at the member [t] when t^2 = a: the
        # values of a that fail are infinitely many but not cofinite, which
        # is the a-linear branch of the fiber analysis
        answer = in_family(e("x^2/(y^2 - a*x^2)"), Fiber(D))
        assert answer.verdict == "yes"
        assert answer.exceptions == {}
        assert answer.witness is None
        assert answer.flags == ("infinitely many parameter values fail along t^2 - a; "
                                "they are not a cofinite set, the verdict is generic only",)

    def test_repeated_moving_pole_fails_for_every_a(self):
        # (y - a*x)^2 puts a double pole on the member at step a
        answer = in_family(e("x^2/(y - a*x)^2"), Fiber(D))
        assert answer.verdict == "no"
        assert answer.witness == Point.from_path([0])
        assert all("matched to each parameter value" in flag
                   for flag in answer.flags)


# -- fibers against brute force ----------------------------------------------

SLOPES = [Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1", "2")]
# every direction a line y = c*x or x = c*y through the origin, or the
# exceptional curve, takes at a point of the tree: the slopes, their
# inverses, 0 and inf
LINE_STEPS = sorted({*SLOPES, *(1 / c for c in SLOPES if c)}) + [INF]
GENERIC_A = Fraction(1, 7)


@st.composite
def line_fibers(draw):
    steps = st.lists(st.sampled_from(LINE_STEPS), max_size=2)
    return Fiber(Point.from_path(draw(steps)), frozenset(draw(steps)),
                 tuple(draw(steps)))


@st.composite
def line_quotients(draw):
    """Powers of lines y - c*x and x - c*y, times at most one power of the
    moving line y - (c + a)*x; returns the element and the moving slope."""
    powers = st.sampled_from([-2, -1, 1, 2])
    lines = draw(st.lists(st.tuples(st.sampled_from(["y - ({})*x", "x - ({})*y"]),
                                    st.sampled_from(SLOPES), powers),
                          min_size=1, max_size=3))
    text = "*".join(f"({form.format(c)})^{k}" for form, c, k in lines)
    moving = draw(st.none() | st.tuples(st.sampled_from(SLOPES), powers))
    if moving is None:
        return e(text), None
    c, k = moving
    return e(f"{text}*(y - ({c} + a)*x)^{k}"), c


def _failing_members(f, fiber, moving, a0):
    """Members at the steps where lines can pass at which f(a0) fails."""
    g = f.subst_const(A, a0)
    steps = LINE_STEPS if moving is None else LINE_STEPS + [moving + a0]
    members = [fiber.allowed_member(s) for s in steps if s not in fiber.excluded]
    return [beta for beta in members if not in_point(g, beta)]


@given(line_fibers(), line_quotients())
@settings(max_examples=60, deadline=None)
def test_fiber_verdict_agrees_with_brute_force(fiber, drawn):
    f, moving = drawn
    answer = in_family(f, fiber)
    generic = _failing_members(f, fiber, moving, GENERIC_A)
    assert (answer.verdict == "no") == bool(generic)
    matched = [flag for flag in answer.flags
               if "matched to each parameter value" in flag]
    assert len(matched) == len(answer.flags)
    if answer.verdict == "no":
        assert answer.exceptions == {}
        assert fiber.is_member(answer.witness)
        # a moving failure is witnessed at a sampled value of a
        tried = map(Fraction, range(16)) if matched else [GENERIC_A]
        assert any(not in_point(f.subst_const(A, a0), answer.witness)
                   for a0 in tried if not f.den.subst_const(A, a0).is_zero)
        return
    assert not matched
    values = set(SLOPES)
    if moving is not None:
        values |= {s - moving for s in LINE_STEPS if s is not INF}
    expected = {a0: "no" for a0 in sorted(values)
                if _failing_members(f, fiber, moving, a0)}
    assert answer.exceptions == expected
    assert answer.verdict == ("yes_except" if expected else "yes")
    if expected:
        assert fiber.is_member(answer.witness)
        assert not in_point(f.subst_const(A, min(expected)), answer.witness)


class TestIrredundance:
    def u_set(self):
        return (Fiber(D, frozenset([INF])), Fiber(Point.from_path([INF])))

    def test_first_neighborhood_members(self):
        for b in (0, 1, -1, 2, 7):
            delta = Point.from_path([b])
            cert = irredundance_certificate(
                self.u_set(), delta, [e(f"y-({b})*x").num])
            assert cert.member == delta
            assert cert.valuation.ring_contains(delta)

    def test_second_level_members(self):
        for b in (0, 1, -1, 2, 7):
            delta = Point.from_path([INF, b])
            cert = irredundance_certificate(
                self.u_set(), delta, [e(f"x-({b})*y^2").num])
            assert cert.member == delta

    def test_cusp_certifies_the_far_corner(self):
        gamma = Point.from_path([INF, INF])
        cusp = e("x^2-y^3").num
        cert = irredundance_certificate(self.u_set(), gamma, [cusp])
        assert cert.member == gamma
        assert str(Point.from_path([INF]).strict_transform(cusp)) == "y^2 - x"
        assert str(gamma.strict_transform(cusp)) == "x - y"

    def test_certificate_excludes_sampled_competitors(self):
        delta = Point.from_path([2])
        cert = irredundance_certificate(self.u_set(), delta, [e("y-2*x").num])
        competitors = [Point.from_path([t]) for t in range(-10, 11) if t != 2]
        competitors += [Point.from_path([INF, t]) for t in range(-2, 2)]
        competitors.append(Point.from_path([INF, INF]))
        assert len(competitors) >= 25
        for other in competitors:
            assert not cert.valuation.ring_contains(other), str(other)

    def test_failure_lists_an_obstruction_per_candidate(self):
        delta = Point.from_path([0])
        with pytest.raises(CertificateError) as exc:
            irredundance_certificate(
                self.u_set(), delta, [e("y-x").num, e("x+y^2").num])
        assert len(exc.value.obstructions) == 2
        for note in exc.value.obstructions:
            assert "does not contain" in note

    def test_competitor_inside_a_chain(self):
        family = Chain(V0, 1)
        delta = Point.from_path([0])
        with pytest.raises(CertificateError) as exc:
            irredundance_certificate(family, delta, [e("y").num])
        assert any("also contains" in note for note in exc.value.obstructions)

    def test_chain_walk_stops_once_containment_fails(self):
        family = (Singleton(Point.from_path([1])), Chain(V0, 1))
        delta = Point.from_path([1])
        cert = irredundance_certificate(family, delta, [e("y-x").num])
        assert cert.member == delta
        assert cert.uniqueness_domain == (
            "the point D<1>; every member of the chain along "
            "MinimalEventuallyPeriodic([], [0]) from level 1")

    def test_non_members_are_rejected(self):
        with pytest.raises(InputError):
            irredundance_certificate(self.u_set(), Point.from_path([0, 0]),
                                     [e("y").num])

    def test_sibling_competitor_below_level_twelve(self):
        # the branch y ~ x^21 stays on the path of zeros for 20 levels and
        # then passes through the sibling there
        family = (Singleton(Point.from_path([1])), Siblings(V0, 1))
        delta = Point.from_path([1])
        with pytest.raises(CertificateError) as exc:
            irredundance_certificate(family, delta, [e("(y - x)*(y - x^21) + x^50").num])
        competitor = Point.from_path([0] * 20 + [1])
        assert exc.value.obstructions == (
            f"x^50 + x^22 - x^21*y - x*y + y^2: also contains {competitor}",)

    def test_sibling_walk_stops_on_a_branch_that_follows_the_path(self):
        # (1 - x)y - x follows the path of ones for good, so after the
        # branch y = 2x leaves, no sibling of the path lies on the curve
        along_ones = MinimalEventuallyPeriodic([], [1])
        family = (Singleton(Point.from_path([2])), Siblings(along_ones, 1))
        delta = Point.from_path([2])
        h = e("(y - 2*x)*((1 - x)*y - x)").num
        assert along_ones.on_curve(h)
        cert = irredundance_certificate(family, delta, [h])
        assert cert.member == delta
        assert cert.uniqueness_domain == (
            "the point D<2>; every member of the level-wise siblings of "
            "MinimalEventuallyPeriodic([], [1]) at offset 1")


def _brute_sibling_competitor(h: Poly, part: Siblings, delta: Point, depth: int = 12):
    """The first sibling member other than delta, to `depth`, that the
    strict transform of h passes through, by a strict step to every
    sibling; None once h has left the path, and "undecided" past depth."""
    for level in range(depth + 1):
        if h.xy_order() < 1:
            return None
        if level and part.member(level) != delta:
            sibling = transform_step(h, part.sibling_step(level), h.xy_order())
            if sibling.xy_order() >= 1:
                return str(part.member(level))
        h = transform_step(h, part.valuation.step_at(level), h.xy_order())
    return "undecided"


@st.composite
def sibling_curves(draw):
    """Siblings along a walk path, a member delta, and a curve: the second
    parameter of a member, a curve that follows the path for a while or
    for good, or the product of one of each kind."""
    part = draw(PATH_PARTS.filter(lambda p: isinstance(p, Siblings)))
    path = part.valuation
    h = params(part.member(draw(st.integers(1, 8))))[1].num
    if INF not in path.period and draw(st.booleans()):
        along = curve_along(path.prefix, path.period, draw(st.sampled_from([0, 4, 8, 12])))
        h = along * h if draw(st.booleans()) else along
    return part, part.member(draw(st.integers(1, 4))), h


@given(sibling_curves())
@settings(max_examples=60, deadline=None)
def test_sibling_competitor_read_off_lowest_forms_matches_a_step_per_sibling(drawn):
    part, delta, h = drawn
    try:
        valuation = FirstKind(h)
    except InputError:
        assume(False)
    expected = _brute_sibling_competitor(valuation.h, part, delta)
    try:
        found = _sibling_competitor(valuation, part, delta)
    except ComputationError:
        # past the cap or the chart budget: the walk went on past depth 12
        assert expected == "undecided"
        return
    if expected == "undecided":
        assert found not in {str(part.member(level)) for level in range(1, 13)}
    else:
        assert found == expected


class TestSemigroup:
    def ladder(self, n):
        return [(1, 0), (0, 1)] + [(-k, k + 1) for k in range(1, n)]

    def test_square_over_line(self):
        assert semigroup_member((-2, 3), [(1, 0), (0, 1), (-1, 2), (-2, 3)])

    def test_simple_quotient_never_appears(self):
        for n in range(1, 11):
            assert not semigroup_member((-1, 1), self.ladder(n))

    def test_top_generator_is_reachable(self):
        for n in range(1, 11):
            assert semigroup_member((-n, n + 1), self.ladder(n + 1))

    def test_zero_target(self):
        assert semigroup_member((0, 0), [(5, 5)])

    def test_empty_generators_rejected(self):
        with pytest.raises(InputError):
            semigroup_member((1, 1), [])

    def test_opposite_pair_needs_the_box_search(self):
        gens = [(1, -1), (-1, 1)]
        assert semigroup_member((2, -2), gens)
        assert not semigroup_member((1, 0), gens)

    def test_axis_pair(self):
        gens = [(1, 0), (-1, 0)]
        assert semigroup_member((-3, 0), gens)
        assert not semigroup_member((0, 1), gens)

    @staticmethod
    def check_against_brute_force(seed, space, draws):
        # the functional p + q is at least 1 on every generator in the
        # space, so a target with coordinate sum at most 8 can only be
        # reached with coefficients at most 8: the brute cap is complete
        rng = random.Random(seed)
        for _ in range(draws):
            gens = rng.sample(space, rng.randint(1, 3))
            target = (rng.randint(-4, 4), rng.randint(-4, 4))
            expected = any(
                sum(c * g[0] for c, g in zip(combo, gens)) == target[0] and
                sum(c * g[1] for c, g in zip(combo, gens)) == target[1]
                for combo in product(range(9), repeat=len(gens)))
            assert semigroup_member(target, gens) == expected, (target, gens)

    def test_agrees_with_brute_force(self):
        self.check_against_brute_force(
            20240817, [(1, 0), (0, 1), (-1, 2), (-2, 3), (2, -1), (1, 1), (3, -2)], 30)

    def test_parallel_generators_agree_with_brute_force(self):
        # the last two generators are decided in closed form; parallel ones
        # reduce to a sum of two multiples along their common line
        self.check_against_brute_force(
            20261019, [(1, 0), (2, 0), (3, 0), (1, 1), (2, 2), (3, 3), (-1, 2), (-2, 4)], 60)

    @pytest.mark.parametrize("gens", [[(1, 0), (0, 1)], [(1, 0), (0, 1), (-1, 2)]])
    def test_large_target_is_decided_quickly(self, gens):
        start = time.perf_counter()
        assert semigroup_member((20000, 20000), gens)
        assert time.perf_counter() - start < 1


class TestAnswerShape:
    def test_truthiness(self):
        assert MembershipAnswer("yes")
        assert not MembershipAnswer("no")
        assert not MembershipAnswer("yes_except", {Fraction(1): "no"})
