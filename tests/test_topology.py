"""Limit points, closures, components, Noetherian certificates."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from blowup.errors import ComponentError, ComputationError, InputError
from blowup.expr import INF
from blowup.families import Chain, Fiber, INFINITE, Siblings, Singleton
from blowup.poly import Poly, X, Y
from blowup.proximity import is_proximate, second_kind_contains
from blowup.topology import (_ray_below, closure_member, divisor_limit_counts,
                             irreducible_components, is_irreducible,
                             is_noetherian, patch_limit_points,
                             zariski_closure)
from blowup.tree import Point
from blowup.valuations import (MinimalCurveBranch, MinimalEventuallyPeriodic,
                               SecondKind)

from helpers import (curve_along, first_members, params, reference_patch_limit_points,
                     reference_same_path, variable)


D = Point.root()
V0 = MinimalEventuallyPeriodic([], [0])
CUSP = (variable(X) ** 2 - variable(Y) ** 3)


def first_neighborhood_with_root():
    return (Fiber(D), Singleton(D))


class TestPatchLimits:
    def test_first_neighborhood(self):
        assert patch_limit_points(first_neighborhood_with_root()) == \
            (SecondKind(D),)

    def test_siblings_limit_to_their_valuation(self):
        assert patch_limit_points(Siblings(V0, Fraction(1))) == (V0,)

    def test_siblings_of_curve_branch(self):
        branch = MinimalCurveBranch(CUSP)
        assert patch_limit_points(Siblings(branch, Fraction(1))) == (branch,)

    def test_finite_family_has_no_limits(self):
        assert patch_limit_points(Singleton(Point.from_path([0]))) == ()

    def test_fiber_with_ray_tail(self):
        fam = Fiber(D, frozenset(), (INF,))
        assert patch_limit_points(fam) == (SecondKind(D),)

    def test_fiber_with_sideways_tail_still_has_the_divisor(self):
        # The members hang below every child of the base even though none
        # of them enters the order valuation itself.
        fam = Fiber(D, frozenset(), (Fraction(1),))
        assert patch_limit_points(fam) == (SecondKind(D),)

    def test_deeper_fiber(self):
        fam = Fiber(Point.from_path([0]))
        assert patch_limit_points(fam) == (SecondKind(Point.from_path([0])),)

    def test_chain_limit(self):
        assert patch_limit_points(Chain(V0, 1)) == (V0,)

    def test_duplicate_paths_merge(self):
        assert patch_limit_points(
            (Chain(V0, 1), Siblings(V0, Fraction(1)))) == (V0,)

    def test_paths_that_agree_for_69_steps_stay_apart(self):
        curve = MinimalCurveBranch(variable(Y) - variable(X) ** 70)
        assert curve.agreement(map(V0.step_at, range(100))) == 69
        assert patch_limit_points((Chain(curve, 1), Chain(V0, 1))) == (curve, V0)


STEPS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), INF)
paths = st.lists(st.sampled_from(STEPS), max_size=3)
# curves with a single branch at the origin: the path of any other curve
# is not a valuation
minimal_valuations = st.one_of(
    st.builds(MinimalEventuallyPeriodic, paths,
              st.lists(st.sampled_from(STEPS), min_size=1, max_size=2)),
    st.sampled_from([MinimalCurveBranch(variable(X) ** i - variable(Y) ** j)
                     for i, j in ((2, 3), (3, 2), (1, 2), (2, 1), (3, 5))]))
family_parts = st.one_of(
    st.builds(Singleton, paths.map(Point.from_path)),
    st.builds(Fiber, paths.map(Point.from_path), paths.map(frozenset),
              paths.map(tuple)),
    st.builds(Chain, minimal_valuations, st.integers(0, 3)),
    st.builds(Siblings, minimal_valuations,
              st.sampled_from((Fraction(1), Fraction(-1), Fraction(1, 2)))))


@given(st.lists(family_parts, min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_limit_points_match_the_prefix_enumeration(parts):
    assert patch_limit_points(parts) == reference_patch_limit_points(parts)


ray_shaped = st.builds(lambda base, free: MinimalEventuallyPeriodic(base + [free, INF], [0]),
                      paths, st.sampled_from(STEPS))
finite_steps = st.sampled_from(STEPS[:-1])
followed_curves = st.builds(curve_along, paths, st.lists(finite_steps, min_size=1, max_size=2),
                            st.integers(0, 40), st.booleans())


@given(st.one_of(ray_shaped, minimal_valuations), paths)
@settings(max_examples=100, deadline=None)
def test_ray_below_matches_the_step_walk(v, detour):
    # points on the path, and a detour from it
    on_path = [v.point_at(level) for level in range(6)]
    for alpha in on_path + [Point.from_path([*on_path[2].steps, *detour])]:
        ray = MinimalEventuallyPeriodic([*alpha.steps, v.step_at(alpha.level), INF], [0])
        assert _ray_below(v, alpha) == (v.ring_contains(alpha)
                                        and reference_same_path(ray, v))


@given(followed_curves, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_no_curve_branch_climbs_a_ray(h, level):
    try:
        v = MinimalCurveBranch(h)
    except (ComputationError, InputError):
        return
    alpha = v.point_at(level)
    ray = MinimalEventuallyPeriodic([*alpha.steps, v.step_at(level), INF], [0])
    assert not _ray_below(v, alpha)
    assert not reference_same_path(ray, v)


class TestDivisorCounts:
    def test_ray_tail_agrees(self):
        counts = divisor_limit_counts(Fiber(D, frozenset(), (INF,)), D)
        assert counts.child_count is INFINITE
        assert counts.contained_members

    def test_sideways_tail_diverges(self):
        counts = divisor_limit_counts(Fiber(D, frozenset(), (Fraction(1),)), D)
        assert counts.child_count is INFINITE
        assert not counts.contained_members

    def test_chain_is_thin(self):
        counts = divisor_limit_counts(Chain(V0, 1), D)
        assert counts.child_count == 1
        assert not counts.contained_members


class TestClosure:
    def test_first_neighborhood_closure_is_the_proximity_set(self):
        closed = zariski_closure(first_neighborhood_with_root())
        assert closure_member(closed, Point.from_path([3, INF, 0]))
        assert not closure_member(closed, Point.from_path([3, 1]))
        steps = [Fraction(0), Fraction(1), INF]
        for level in range(4):
            for combo in product(steps, repeat=level):
                beta = Point.from_path(combo)
                expected = beta == D or is_proximate(beta, D)
                assert closure_member(closed, beta) == expected

    def test_singleton_closure_is_the_prefix_set(self):
        closed = zariski_closure(Singleton(Point.from_path([0, INF])))
        assert closure_member(closed, D)
        assert closure_member(closed, Point.from_path([0]))
        assert closure_member(closed, Point.from_path([0, INF]))
        assert not closure_member(closed, Point.from_path([0, 0]))
        assert not closure_member(closed, Point.from_path([0, INF, 0]))

    def test_chain_closure_is_the_path(self):
        closed = zariski_closure(Chain(V0, 1))
        assert closed.minimal_downsets == (V0,)
        assert closed.divisor_downsets == ()
        assert closure_member(closed, Point.from_path([0, 0, 0]))
        assert not closure_member(closed, Point.from_path([0, 1]))

    def test_monotone_in_the_family(self):
        small = zariski_closure(Fiber(D, frozenset(), (INF,)))
        extra = Singleton(Point.from_path([5, 1]))
        large = zariski_closure((Fiber(D, frozenset(), (INF,)), extra))
        steps = [Fraction(0), Fraction(5), INF]
        for level in range(4):
            for combo in product(steps, repeat=level):
                beta = Point.from_path(combo)
                if closure_member(small, beta):
                    assert closure_member(large, beta)

    def test_sideways_fiber_closure_includes_the_divisor_downset(self):
        closed = zariski_closure(Fiber(D, frozenset(), (Fraction(1),)))
        assert closure_member(closed, Point.from_path([4, 1]))
        assert closure_member(closed, Point.from_path([4, INF]))
        assert closure_member(closed, Point.from_path([4, INF, 0]))
        assert not closure_member(closed, Point.from_path([4, 2]))
        assert not closure_member(closed, Point.from_path([4, 1, 0]))


class TestComponents:
    def test_proximity_set_is_irreducible(self):
        closed = zariski_closure(first_neighborhood_with_root())
        assert irreducible_components(closed) == (SecondKind(D),)
        assert is_irreducible(closed) == SecondKind(D)

    def test_two_incomparable_points(self):
        closed = zariski_closure(
            (Singleton(Point.from_path([0])), Singleton(Point.from_path([INF]))))
        comps = irreducible_components(closed)
        assert set(comps) == {Point.from_path([0]), Point.from_path([INF])}
        assert is_irreducible(closed) is None

    def test_nested_points_collapse(self):
        closed = zariski_closure(
            (Singleton(Point.from_path([0])), Singleton(Point.from_path([0, 0]))))
        assert irreducible_components(closed) == (Point.from_path([0, 0]),)

    def test_chain_generic_point(self):
        assert is_irreducible(zariski_closure(Chain(V0, 0))) == V0

    def test_siblings_scatter(self):
        sib = Siblings(V0, Fraction(1))
        with pytest.raises(ComponentError) as exc:
            irreducible_components(zariski_closure(sib))
        assert exc.value.witness == sib
        assert is_irreducible(zariski_closure(sib)) is None

    def test_sideways_fiber_scatters(self):
        fam = Fiber(D, frozenset(), (Fraction(1),))
        with pytest.raises(ComponentError):
            irreducible_components(zariski_closure(fam))

    def test_ray_path_absorbed_by_divisor(self):
        ray = MinimalEventuallyPeriodic([Fraction(3), INF], [0])
        parts = (Chain(ray, 1), Fiber(D))
        assert irreducible_components(zariski_closure(parts)) == \
            (SecondKind(D),)

    def test_point_absorbed_by_divisor(self):
        parts = (Fiber(D), Singleton(Point.from_path([2, INF, 0])))
        assert irreducible_components(zariski_closure(parts)) == \
            (SecondKind(D),)

    def test_curve_that_leaves_the_ray_keeps_its_component(self):
        # the branch climbs the ray of the root for 70 steps, then leaves it
        curve = MinimalCurveBranch(variable(X) ** 71 - variable(Y) ** 70)
        ray = MinimalEventuallyPeriodic([0, INF], [0])
        assert curve.agreement(map(ray.step_at, range(100))) == 70
        parts = (Fiber(D, frozenset(), (INF,)), Chain(curve, 1))
        assert irreducible_components(zariski_closure(parts)) == \
            (SecondKind(D), curve)


class TestNoetherian:
    def test_first_neighborhood(self):
        cert = is_noetherian(first_neighborhood_with_root())
        assert cert.verdict
        assert cert.covering == (SecondKind(D),)

    def test_ray_tail_fiber(self):
        cert = is_noetherian(Fiber(D, frozenset(), (INF,)))
        assert cert.verdict
        assert cert.covering == (SecondKind(D),)

    def test_bare_fiber(self):
        assert is_noetherian(Fiber(D)).verdict

    def test_siblings_fail(self):
        sib = Siblings(V0, Fraction(1))
        cert = is_noetherian(sib)
        assert not cert.verdict
        assert cert.witness == sib

    def test_sideways_fiber_fails(self):
        fam = Fiber(D, frozenset(), (Fraction(1),))
        cert = is_noetherian(fam)
        assert not cert.verdict
        assert cert.witness == fam

    def test_sideways_members_really_escape_the_divisor(self):
        # The order-function justification for the failure: the second
        # parameter at D<t><1> is (y - tx - x^2)/x^2, of order -1 at the
        # root, so the member's ring cannot sit inside ord_D.
        fam = Fiber(D, frozenset(), (Fraction(1),))
        for t in (0, 1, 2):
            beta = fam.allowed_member(Fraction(t))
            assert D.ord_at(params(beta)[1]) == -1
            assert not second_kind_contains(D, beta)

    def test_chain_covered_by_its_valuation(self):
        cert = is_noetherian(Chain(V0, 1))
        assert cert.verdict
        assert cert.covering == (V0,)

    def test_covering_soundness_on_samples(self):
        parts = (Fiber(D, frozenset(), (INF,)), Chain(V0, 1), Singleton(D))
        cert = is_noetherian(parts)
        assert cert.verdict
        for part in parts:
            for beta in first_members(part, 5):
                assert any(
                    v.ring_contains(beta) for v in cert.covering), str(beta)
