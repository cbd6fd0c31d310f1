"""Valuation rings attached to the tree.

Four flavors appear:

  * first kind: the h-adic valuation of an irreducible curve h through the
    origin.  Its ring contains a tree point's ring exactly when the strict
    transform of h still vanishes at that point, and an element exactly
    when h does not divide its reduced denominator.
  * second kind: the order valuation of a tree point.  Its ring contains
    the rings at or above the point, and the rings of proximate points.
  * minimal valuations: unions of the local rings along an infinite path.
    Two constructors are provided, an eventually periodic step sequence and
    curve following (step after step along the branch of a curve).  Each
    step of a branch is the one direction `position.directions` reads off
    the lowest form of the strict transform; a second direction, rational
    or irrational, means several branches and raises `BranchError`.
  * monomial valuations v(x) = a, v(y) = b.  The value of a polynomial is
    the least weight a*i + b*j over the terms x^i y^j of its support, so
    v(N/D) is the least weight of N less that of D, with no chart work.
    Their rings are those of second kind: subtracting the smaller weight
    from the larger walks a path to a tree point, whose order valuation,
    scaled, is the monomial one.

Membership of an element f rests on one rule, the domination order of the
tree.  If P lies below Q, then O_Q is inside O_P and m_P meets O_Q in m_Q.
So once f is a zero, a unit or a pole at Q, it is the same at P and at
every point further down.  A zero or a unit at Q puts f in O_P; a pole
puts 1/f in m_P.  For a ring V that contains O_P and whose maximal ideal
contains m_P, f is then in V exactly when it is not a pole at Q.  The
order valuation ring of P and the union ring along a path are such rings.
So `position.settle` walks the path only down to the first point where f
is decided.  A second-kind test compares orders only when f is still
undetermined at P itself.  A minimal valuation's walk always ends in
theory, since two coprime curves separate after finitely many steps, but
the walk stops at `WALK_CAP`, and that cap can cut off a finite answer:
along the path [] + [0], x^64/y is decided as no at P_64, while x^65/y,
a pole only at P_65, raises `DepthCapError`.  Every walk down a path, here
and in `oracle`, takes its steps from one walker, `_MinimalBase.walk`,
which raises that error; exact stops (ROADMAP items 12 and 14) and a
trace of the walk (item 5) plug in there.

Paths are compared exactly by one test, `on_curve(h)`: whether some branch
of the curve h follows the path at every level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterable, Iterator, List, Mapping, Tuple

from .errors import BranchError, ComputationError, DepthCapError, InputError
from .expr import INF, Step, format_path, format_step
from .poly import (A, Poly, RatFunc, T, X, Y, _integer_scale, _integer_terms,
                   _subst_slot_frac, poly_gcd, xy_order)
from .position import Position, directions, settle
from .proximity import second_kind_contains
from .tree import Point, normalize_step, strict_step, strict_walk

# Cap on walks down a minimal valuation's path.  Every element settles
# after finitely many steps, but possibly past the cap, so reaching it can
# cut off a finite answer until the walks get exact stops.  It also caps
# the path of a monomial valuation's weights.
WALK_CAP = 64


def _check_curve(h: Poly, through_origin: bool) -> Poly:
    """Validate a polynomial standing for an irreducible curve.

    Full irreducibility over the rationals is not tested; the cheap and
    decisive failure modes are: constants, extra symbols, monomial factors
    next to other terms, and repeated factors.
    """
    if h.is_zero or h.is_constant:
        raise InputError("a curve needs a nonconstant polynomial")
    if h.has_slot(A) or h.has_slot(T):
        raise InputError("a curve must be a polynomial in x and y only")
    content = h.monomial_content()
    if content != (0, 0, 0, 0):
        if len(h.terms) > 1 or sum(content) > 1:
            raise InputError(f"{h} is divisible by a monomial, so it is not irreducible")
        return h
    for slot in (X, Y):
        d = h.derivative(slot)
        if not d.is_zero:
            if not poly_gcd(h, d).is_constant:
                raise InputError(f"{h} has a repeated factor")
            break
    if through_origin and h.constant_term() != 0:
        raise InputError(f"{h} does not pass through the origin")
    return h


class FirstKind:
    """The h-adic valuation of an irreducible curve h."""

    def __init__(self, h: Poly):
        self.h = _check_curve(h, through_origin=False).normalized()

    def contains_element(self, f: RatFunc) -> bool:
        """Whether v_h(f) >= 0.  f's numerator is prime to its denominator,
        and h is squarefree, so that is when h does not divide the
        denominator."""
        return f.den.divmod_exact(self.h) is None

    def ring_contains(self, beta: Point) -> bool:
        """Whether the strict transform of h passes through beta.  The walk
        stops at the first point where it has order 0: a unit there stays
        a unit at every point below."""
        if self.h.constant_term() != 0:
            return False
        return all(xy_order(terms) for terms, _ in strict_walk(self.h, beta.steps))

    def __eq__(self, other) -> bool:
        return isinstance(other, FirstKind) and self.h == other.h

    def __hash__(self) -> int:
        return hash(("first", self.h))

    def __repr__(self) -> str:
        return f"FirstKind({self.h})"


class SecondKind:
    """The order valuation of the ring at a tree point."""

    scale = 1

    def __init__(self, point: Point):
        self.point = point

    def value(self, f: RatFunc) -> int:
        return self.scale * self.point.ord_at(f)

    def contains_element(self, f: RatFunc) -> bool:
        """Whether f lies in the valuation ring V_P of the point P.

        O_P lies in V_P, and m_P in its maximal ideal.  A zero or a unit
        of f at P or above is in O_P, so in V_P; a pole there puts 1/f in
        m_P, so f is not in V_P.  `settle` stops at the first such point.
        Only an f undetermined at P itself needs its order there.
        """
        pos, expressed = settle(f, self.point.steps)
        if pos is Position.UNDETERMINED:
            return expressed.num.xy_order() >= expressed.den.xy_order()
        return pos is not Position.POLE

    def ring_contains(self, beta: Point) -> bool:
        return second_kind_contains(self.point, beta)

    def __eq__(self, other) -> bool:
        return isinstance(other, SecondKind) and self.point == other.point

    def __hash__(self) -> int:
        return hash(("second", self.point))

    def __repr__(self) -> str:
        return f"SecondKind({self.point})"


class MonomialValuation(SecondKind):
    """The monomial valuation v(x) = a, v(y) = b, on weights scaled to
    integers by the lcm of their denominators.

    Down the path of the weights (`monomial_path`) x and y become
    monomials in the local parameters, by an invertible exponent map, so
    distinct terms stay distinct and none cancel.  The value of a
    polynomial is therefore the least weight a*i + b*j over its support,
    and that of N/D the least weight of N less that of D (Zariski and
    Samuel, Commutative Algebra II, Appendix 3).  The symbol a is a
    scalar: a coefficient may be any nonzero polynomial in it.

    As a ring this is the order valuation at the end of the path, scaled
    by the gcd of the weights.  That point is derived only when a ring
    question, equality, hashing or JSON reads it.
    """

    def __init__(self, a, b):
        self.weights = _integer_weights(a, b)

    @cached_property
    def point(self) -> Point:
        return Point(monomial_path(*self.weights))

    @property
    def scale(self) -> int:
        return math.gcd(*self.weights)

    def value(self, f: RatFunc) -> int:
        if f.is_zero:
            raise ValueError("order of zero undefined")
        a, b = self.weights
        return _least_weight(f.num, a, b) - _least_weight(f.den, a, b)

    def contains_element(self, f: RatFunc) -> bool:
        return f.is_zero or self.value(f) >= 0

    def __repr__(self) -> str:
        return "MonomialValuation({}, {})".format(*self.weights)


class _MinimalBase:
    """Common machinery for valuations given by an infinite path."""

    def step_at(self, index: int) -> Step:
        raise NotImplementedError

    def point_at(self, level: int) -> Point:
        raise NotImplementedError

    def contains_element(self, f: RatFunc) -> bool:
        """Walk the path until f settles into or out of the union ring.

        The union of the rings O_{P_i} along the path is a valuation ring,
        so f or 1/f lies in some O_{P_L}: f is then a zero or a unit at
        P_L (a member) or a pole there (not a member: every deeper ring
        dominates O_{P_L}, so 1/f stays in its maximal ideal).  The first
        settled level decides (`settle`); past `WALK_CAP` steps the walk
        raises `DepthCapError`.
        """
        if f.has_slot(A):
            raise InputError("membership needs a concrete element")
        pos, _ = settle(f, self.walk(f"position of {f} along the path did not settle"))
        return pos is not Position.POLE

    def walk(self, what: str) -> Iterator[Step]:
        """The path's steps, read lazily; asked for one past `WALK_CAP`, a
        `DepthCapError` "`what` within 64 steps" with P_64 as open point."""
        yield from map(self.step_at, range(WALK_CAP))
        raise DepthCapError(f"{what} within {WALK_CAP} steps",
                            open_points=[self.point_at(WALK_CAP)])

    def ring_contains(self, beta: Point) -> bool:
        return self.agreement(beta.steps) == beta.level

    def agreement(self, steps: Iterable[Step]) -> int:
        """Number of leading `steps` that follow this path.

        The steps are read one at a time, each before the path step it is
        compared with, and no further than the first disagreement.  To
        measure two paths known to differ, pass
        `map(other.step_at, itertools.count())`.
        """
        agreed = 0
        for step in steps:
            if step != self.step_at(agreed):
                break
            agreed += 1
        return agreed

    def on_curve(self, h: Poly) -> bool:
        """Whether the strict transform of h passes through every point of
        the path, that is, whether some branch of h follows it."""
        raise NotImplementedError

    def same_path(self, other: "_MinimalBase") -> bool:
        """Whether the two valuations follow one path: the curve of either
        one follows the other, or the two canonical periodic forms agree."""
        for v, w in ((self, other), (other, self)):
            if isinstance(w, MinimalCurveBranch):
                return v.on_curve(w.h)
        return self == other


class MinimalEventuallyPeriodic(_MinimalBase):
    """The union ring along prefix + period, period repeated forever."""

    def __init__(self, prefix, period):
        prefix = tuple(map(normalize_step, prefix))
        period = tuple(map(normalize_step, period))
        if not period:
            raise InputError("the period must not be empty")
        self.prefix, self.period = _canonical_path_form(prefix, period)

    def step_at(self, index: int) -> Step:
        if index < len(self.prefix):
            return self.prefix[index]
        return self.period[(index - len(self.prefix)) % len(self.period)]

    def point_at(self, level: int) -> Point:
        return Point(tuple([self.step_at(i) for i in range(level)]))

    def on_curve(self, h: Poly) -> bool:
        """A smooth branch meets each new exceptional curve transversally,
        so a period holding inf is on no curve.  Past the prefix a finite
        period b_1 .. b_p is the branch y = B(x) / (1 - x^p) with
        B = b_1 x + ... + b_p x^p: h is on it when the numerator of its
        strict transform there at y = B / (1 - x^p) is zero.  The prefix
        walk stops at the first point where the transform has order 0: h
        has left the path there."""
        if INF in self.period:
            return False
        for terms, _ in strict_walk(h, self.prefix):
            if not xy_order(terms):
                return False
        strict = Poly(terms)
        branch = Poly({(i, 0, 0, 0): b for i, b in enumerate(self.period, 1)})
        clear = Poly({(0, 0, 0, 0): 1, (len(self.period), 0, 0, 0): -1})
        return _subst_slot_frac(strict, Y, branch, clear, strict.degree(Y)).is_zero

    def __eq__(self, other) -> bool:
        return (isinstance(other, MinimalEventuallyPeriodic)
                and self.prefix == other.prefix and self.period == other.period)

    def __hash__(self) -> int:
        return hash(("periodic", self.prefix, self.period))

    def __repr__(self) -> str:
        return (f"MinimalEventuallyPeriodic({format_path(self.prefix)}, "
                f"{format_path(self.period)})")


class MinimalCurveBranch(_MinimalBase):
    """The union ring along the branch of an irreducible curve.

    Each step is the unique direction in which the strict transform keeps
    vanishing.  The constructor walks until the strict transform is smooth,
    so the curve has one branch at the origin: a tangent cone with more
    than one direction, rational or not, raises `BranchError`, and a
    branch singular after `WALK_CAP` steps `DepthCapError`.  Later steps
    are forced and rational; they are found lazily, and `step_at` never
    raises.
    """

    def __init__(self, h: Poly):
        self.h = _check_curve(h, through_origin=True).normalized()
        self._steps: List[Step] = []
        # the strict transform after the last step: an int term map over
        # the positive denominator self._den
        self._den = _integer_scale(self.h)
        (self._strict,) = _integer_terms(self.h, scale=self._den)
        steps = self.walk(f"the branch of {self.h} is not smooth")
        while xy_order(self._strict) > 1:
            next(steps)

    def _extend_to(self, level: int) -> None:
        while len(self._steps) < level:
            step = _branch_step(self._strict)
            self._strict, scale = strict_step(self._strict, step)
            self._den *= scale
            self._steps.append(step)

    def step_at(self, index: int) -> Step:
        self._extend_to(index + 1)
        return self._steps[index]

    def point_at(self, level: int) -> Point:
        self._extend_to(level)
        return Point(tuple(self._steps[:level]))

    def on_curve(self, h: Poly) -> bool:
        # self.h has one branch at the origin: h follows it exactly when the
        # two curves share the component through the origin
        return poly_gcd(self.h, h).constant_term() == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, MinimalCurveBranch) and self.h == other.h

    def __hash__(self) -> int:
        return hash(("branch", self.h))

    def __repr__(self) -> str:
        return f"MinimalCurveBranch({self.h})"


# -- path steps from curves and monomials -----------------------------------


def branch_step(strict: Poly) -> Step:
    """The unique direction in which a curve germ continues, or an error."""
    return _branch_step(strict.terms)


def _branch_step(strict: Mapping) -> Step:
    """`branch_step` on the term map of a curve germ, any exact
    coefficients."""
    if not xy_order(strict):
        raise BranchError("the curve does not pass through this point")
    steps, irrational = directions(strict)
    if len(steps) == 1 and not irrational:
        return steps[0]
    if not steps:
        # an irrational tangent comes with its conjugates over Q
        raise BranchError("the curve has several branches here, all in irrational directions")
    raise BranchError(
        "the curve has several branches here; directions " +
        ", ".join(format_step(s) for s in steps) +
        (" and irrational ones" if irrational else ""))


# The 0 step of every monomial path: one shared object, as steps are immutable.
_ZERO_STEP = Fraction(0)


def monomial_path(a, b) -> Tuple[Step, ...]:
    """The path of the monomial valuation v(x) = a, v(y) = b.

    The weights are first scaled to integers (`_integer_weights`).  While
    they differ, the smaller one is subtracted from the larger: a 0 step
    when x carries the smaller weight, an inf step (which swaps the
    parameters) otherwise.  The walk ends when the weights agree, on their
    gcd.  Each partial quotient of a/b counts the subtractions of one run,
    and the last run stops one short, so the length is known before the
    walk: past `WALK_CAP` steps it raises `ComputationError`.
    """
    ia, ib = _integer_weights(a, b)
    length, p, q = -1, ia, ib
    while q:
        quotient, rest = divmod(p, q)
        length, p, q = length + quotient, q, rest
    if length > WALK_CAP:
        raise ComputationError(
            f"the path of the weights ({ia}, {ib}) has {length} steps, "
            f"past the cap of {WALK_CAP}")
    steps: List[Step] = []
    while ia != ib:
        if ia < ib:
            steps.append(_ZERO_STEP)
            ib -= ia
        else:
            steps.append(INF)
            ia, ib = ib, ia - ib
    return tuple(steps)


def monomial_valuation(a, b) -> MonomialValuation:
    """The monomial valuation v(x) = a, v(y) = b."""
    return MonomialValuation(a, b)


def _least_weight(p: Poly, a: int, b: int) -> int:
    return min(a * e[X] + b * e[Y] for e in p.terms)


def _integer_weights(a, b) -> Tuple[int, int]:
    """The weights scaled to integers by the lcm of their denominators.

    A bool is no weight, and a binary fraction is not the exact weight it
    rounds.
    """
    if type(a) is int and type(b) is int:
        ia, ib = a, b
    else:
        for w in (a, b):
            if isinstance(w, bool) or not isinstance(w, Rational):
                raise InputError(f"bad weight {w!r}: expected a rational")
        a, b = Fraction(a), Fraction(b)
        scale = math.lcm(a.denominator, b.denominator)
        ia, ib = int(a * scale), int(b * scale)
    if ia <= 0 or ib <= 0:
        raise InputError("monomial weights must be positive")
    return ia, ib


# -- helpers ----------------------------------------------------------------


def _canonical_path_form(prefix: Tuple[Step, ...], period: Tuple[Step, ...]):
    # shortest repeating block
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    # absorb a prefix tail that already lies on the cycle
    while prefix and prefix[-1] == period[-1]:
        prefix, period = prefix[:-1], period[-1:] + period[:-1]
    return prefix, period
