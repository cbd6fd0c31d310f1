"""Family shapes: membership, downsets, child counts, incomparability."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from blowup.errors import InputError
from blowup.expr import INF, parse_element
from blowup.families import (Chain, Fiber, INFINITE, MoebiusMap, Siblings,
                             Singleton, downset_member, member,
                             pairwise_incomparable, q1_downset_count)
from blowup.poly import Poly, T, X, Y
from blowup.proximity import is_proximate
from blowup.tree import TSYM, Point, express_step, is_prefix
from blowup.valuations import MinimalCurveBranch, MinimalEventuallyPeriodic

from helpers import first_members


D = Point.root()
V0 = MinimalEventuallyPeriodic([], [0])

# Step coordinate -1/a for the families indexed by a curve parameter a.
NEG_RECIP = MoebiusMap(0, -1, 1, 0)


def fiber_b():
    return Fiber(D, frozenset([Fraction(0)]), (INF,), NEG_RECIP)


def fiber_c():
    return Fiber(D, frozenset(), (INF,))


class TestMoebius:
    def test_neg_recip_values(self):
        assert NEG_RECIP.to_step(Fraction(2)) == Fraction(-1, 2)
        assert NEG_RECIP.to_step(Fraction(0)) is INF
        assert NEG_RECIP.to_step(INF) == 0

    def test_round_trip(self):
        assert NEG_RECIP.to_step(NEG_RECIP.inverse().to_step(Fraction(-1, 2))) == Fraction(-1, 2)
        assert NEG_RECIP.inverse().to_step(Fraction(-1, 2)) == 2

    def test_identity(self):
        ident = MoebiusMap.identity()
        assert ident.is_identity()
        assert ident.to_step(Fraction(7)) == 7

    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            MoebiusMap(1, 2, 2, 4)


class TestFiber:
    def test_members_of_parameter_family(self):
        fam = fiber_b()
        # Parameter a = 2 lands on the step -1/2, parameter 0 on infinity.
        assert fam.allowed_member(NEG_RECIP.to_step(Fraction(2))) == \
            Point.from_path([Fraction(-1, 2), INF])
        assert fam.allowed_member(INF) == Point.from_path([INF, INF])
        assert fam.allowed_member(0) is None

    def test_member_and_pattern(self):
        fam = fiber_c()
        assert member(fam, Point.from_path([Fraction(-1, 2), INF]))
        assert not member(fam, Point.from_path([0, 0]))
        assert member(fam, Point.from_path([0, INF]))

    def test_excluded_step_rejected(self):
        fam = fiber_b()
        assert fam.allowed_member(0) is None
        assert not member(fam, Point.from_path([0, INF]))

    def test_downset(self):
        fam = fiber_c()
        assert downset_member(fam, Point.from_path([7]))
        assert downset_member(fam, D)
        assert not downset_member(fam, Point.from_path([7, 0]))
        assert not downset_member(fam, Point.from_path([7, INF, 0]))

    def test_symbolic_member_shape(self):
        # the generic member is the chart fold base, t, tail; setting t to a
        # step gives that member's chart
        fam = fiber_c()
        f = parse_element("(y - x^2)/(x + y^3)")
        generic = reduce(express_step, (TSYM, *fam.tail), fam.base.express(f))
        for s in (Fraction(0), Fraction(-1, 2), Fraction(3)):
            assert generic.subst_const(T, s) == fam.allowed_member(s).express(f)

    def test_ray_tails(self):
        assert Fiber(D).has_ray_tail()
        assert Fiber(D, tail=(INF,)).has_ray_tail()
        assert Fiber(D, tail=(INF, 0, 0)).has_ray_tail()
        assert not Fiber(D, tail=(Fraction(1),)).has_ray_tail()
        assert not Fiber(D, tail=(INF, 1)).has_ray_tail()
        assert not Fiber(D, tail=(Fraction(0), INF)).has_ray_tail()

    def test_sample_respects_exclusions(self):
        fam = fiber_b()
        for pt in fam.sample_members(4):
            assert member(fam, pt)
            assert pt.steps[0] != 0

    def test_symbolic_tail_rejected(self):
        with pytest.raises(InputError):
            Fiber(D, tail=(TSYM,))


class TestChain:
    def test_member_points(self):
        chain = Chain(V0, 1)
        assert chain.member(2) == Point.from_path([0, 0])
        assert member(chain, Point.from_path([0, 0]))
        assert not member(chain, D)
        assert not member(chain, Point.from_path([0, 1]))

    def test_downset_ignores_start_level(self):
        chain = Chain(V0, 3)
        assert downset_member(chain, Point.from_path([0]))
        assert downset_member(chain, D)

    def test_start_level_enforced(self):
        chain = Chain(V0, 2)
        with pytest.raises(InputError):
            chain.member(1)
        with pytest.raises(InputError):
            Chain(V0, -1)


class TestSiblings:
    def test_members_deviate_at_the_top(self):
        sib = Siblings(V0, Fraction(1))
        assert sib.member(1) == Point.from_path([0, 1])
        assert sib.member(3) == Point.from_path([0, 0, 0, 1])
        assert member(sib, Point.from_path([0, 0, 1]))
        assert not member(sib, Point.from_path([0, 1, 1]))
        assert not member(sib, Point.from_path([1]))

    def test_infinity_steps_map_to_offset(self):
        branch = MinimalEventuallyPeriodic([INF], [0])
        sib = Siblings(branch, Fraction(5))
        # The path starts with an infinity step, so the level-1 sibling
        # replaces the following zero step by the offset itself.
        assert sib.member(1) == Point.from_path([INF, 5])

    def test_downset_includes_path(self):
        sib = Siblings(V0, Fraction(1))
        assert downset_member(sib, Point.from_path([0, 0]))
        assert downset_member(sib, Point.from_path([0, 0, 1]))
        assert not downset_member(sib, Point.from_path([1]))

    def test_offset_validation(self):
        with pytest.raises(InputError):
            Siblings(V0, Fraction(0))
        with pytest.raises(InputError):
            Siblings(V0, Fraction(1)).member(0)


class TestChildCounts:
    def test_fiber_base_is_infinite(self):
        assert q1_downset_count(fiber_c(), D) is INFINITE
        assert q1_downset_count(fiber_b(), D) is INFINITE

    def test_chain_contributes_one(self):
        assert q1_downset_count(Chain(V0, 1), D) == 1
        assert q1_downset_count(Chain(V0, 1), Point.from_path([0])) == 1
        assert q1_downset_count(Chain(V0, 1), Point.from_path([1])) == 0

    def test_singleton(self):
        part = Singleton(Point.from_path([0, INF]))
        assert q1_downset_count(part, Point.from_path([0])) == 1
        assert q1_downset_count(part, D) == 1
        assert q1_downset_count(part, Point.from_path([0, INF])) == 0

    def test_siblings_give_two_on_the_path(self):
        sib = Siblings(V0, Fraction(1))
        assert q1_downset_count(sib, Point.from_path([0])) == 2
        assert q1_downset_count(sib, D) == 1

    def test_union_children_are_deduplicated(self):
        parts = (Chain(V0, 1), Siblings(V0, Fraction(1)))
        assert q1_downset_count(parts, D) == 1
        assert q1_downset_count(parts, Point.from_path([0])) == 2

    def test_deeper_fiber_seen_from_above(self):
        fam = Fiber(Point.from_path([0]), frozenset(), ())
        assert q1_downset_count(fam, D) == 1
        assert q1_downset_count(fam, Point.from_path([0])) is INFINITE
        assert q1_downset_count(fam, Point.from_path([1])) == 0

    def test_fiber_tail_child(self):
        fam = fiber_c()
        assert q1_downset_count(fam, Point.from_path([5])) == 1


class TestIncomparability:
    def test_single_parts(self):
        assert pairwise_incomparable(fiber_c())
        assert pairwise_incomparable(Siblings(V0, Fraction(1)))
        assert not pairwise_incomparable(Chain(V0, 1))
        assert pairwise_incomparable(Singleton(D))

    def test_singleton_below_fiber(self):
        parts = (Singleton(Point.from_path([0])), fiber_c())
        assert not pairwise_incomparable(parts)

    def test_singleton_beside_fiber(self):
        parts = (Singleton(Point.from_path([5, 3])), fiber_c())
        assert pairwise_incomparable(parts)

    def test_nested_fibers(self):
        assert not pairwise_incomparable((Fiber(D), fiber_c()))
        assert not pairwise_incomparable((Fiber(D), Fiber(Point.from_path([0]))))

    def test_exclusion_separates_fibers(self):
        shielded = Fiber(D, frozenset([Fraction(0)]), ())
        inner = Fiber(Point.from_path([0]))
        assert pairwise_incomparable((shielded, inner))

    def test_first_neighborhood_cover(self):
        # The two-part cover used by the irredundance example: finite
        # first steps, and the fiber over the infinity direction.
        parts = (Fiber(D, frozenset([INF]), ()), Fiber(Point.from_path([INF])))
        assert pairwise_incomparable(parts)

    def test_sibling_landing_on_chain(self):
        detour = MinimalEventuallyPeriodic([0, 1], [0])
        sib = Siblings(detour, Fraction(-1))
        # The level-1 sibling of the detour path is [0, 0], which lies on
        # the straight path.
        assert sib.member(1) == Point.from_path([0, 0])
        assert not pairwise_incomparable((Chain(V0, 1), sib))

    def test_parallel_siblings_are_fine(self):
        assert pairwise_incomparable(
            (Siblings(V0, Fraction(1)), Siblings(V0, Fraction(2))))

    def test_siblings_of_paths_that_agree_for_69_steps_nest(self):
        curve = MinimalCurveBranch(Poly.variable(Y) - Poly.variable(X) ** 70)
        near, straight = Siblings(curve, Fraction(1)), Siblings(V0, Fraction(1))
        # member 69 of the straight part turns onto the curve's path
        assert is_prefix(straight.member(69), near.member(70))
        assert not pairwise_incomparable((near, straight))


class TestEnumerationConsistency:
    def test_members_match_pattern(self):
        parts = [
            fiber_b(),
            fiber_c(),
            Chain(V0, 2),
            Siblings(V0, Fraction(1)),
            Singleton(Point.from_path([0, INF])),
        ]
        for part in parts:
            for pt in first_members(part, 4):
                assert part.is_member(pt)
                assert part.downset_member(pt)
                if pt.level:
                    assert part.downset_member(pt.ancestor(pt.level - 1))

    def test_near_misses_rejected(self):
        fam = fiber_c()
        for pt in fam.sample_members(3):
            twisted = pt.ancestor(pt.level - 1).child(Fraction(9, 7))
            assert not fam.is_member(twisted)


@given(st.integers(-30, 30).filter(lambda n: n != 0))
def test_infinite_child_count_means_dense_downset(n):
    fam = fiber_b()
    assert q1_downset_count(fam, D) is INFINITE
    assert downset_member(fam, D.child(Fraction(n)))


RAY_STEPS = (INF, Fraction(0), Fraction(1), Fraction(-1))


@given(st.lists(st.sampled_from(RAY_STEPS), max_size=3),
       st.lists(st.sampled_from(RAY_STEPS), max_size=4),
       st.lists(st.sampled_from(RAY_STEPS), max_size=2))
@settings(max_examples=150, deadline=None)
def test_ray_tail_means_members_are_proximate_to_the_base(base, tail, excluded):
    fiber = Fiber(Point.from_path(base), frozenset(excluded), tuple(tail))
    members = fiber.sample_members(3)
    assert [is_proximate(beta, fiber.base) for beta in members] == \
        [fiber.has_ray_tail()] * len(members)
