"""Valuation rings attached to the tree.

Four flavors appear:

  * first kind: the h-adic valuation of an irreducible curve h through the
    origin.  Its ring contains a tree point's ring exactly when the strict
    transform of h still vanishes at that point.
  * second kind: the order valuation of a tree point.  Its ring contains
    the rings at or above the point, and the rings of proximate points.
  * minimal valuations: unions of the local rings along an infinite path.
    Two constructors are provided, an eventually periodic step sequence and
    curve following (step after step along the branch of a curve).
  * monomial valuations v(x) = a, v(y) = b.  Subtracting exponents walks
    the path to a tree point, so these normalize to a scaled order
    valuation and bring nothing new.

Membership of an element f rests on one rule, the domination order of the
tree.  If P lies below Q, then O_Q is inside O_P and m_P meets O_Q in m_Q.
So once f is a zero, a unit or a pole at Q, it is the same at P and at
every point further down.  A zero or a unit at Q puts f in O_P; a pole
puts 1/f in m_P.  For a ring V that contains O_P and whose maximal ideal
contains m_P, f is then in V exactly when it is not a pole at Q.  The
order valuation ring of P and the union ring along a path are such rings.
So `position.settle` walks the path only down to the first point where f
is decided.  A second-kind test compares orders only when f is still
undetermined at P itself.  A minimal valuation's walk always ends: two
coprime curves separate after finitely many steps, and the cap is a
safety net.

Paths are compared exactly by one test, `on_curve(h)`: whether some branch
of the curve h follows the path at every level.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import BranchError, DepthCapError, InputError
from .expr import INF, Step, format_path, is_inf
from .poly import (A, Poly, RatFunc, T, X, Y, _subst_slot_frac, factor_multiplicity,
                   poly_gcd, root_pass)
from .position import Position, lowest_form, settle
from .proximity import second_kind_contains
from .tree import Point, normalize_step, strict_step

# Cap on walks down a minimal valuation's path; every element settles
# after finitely many steps, so reaching it means a runaway computation.
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

    kind = "first"

    def __init__(self, h: Poly):
        self.h = _check_curve(h, through_origin=False).normalized()

    def value(self, f: RatFunc) -> int:
        if f.is_zero:
            raise ValueError("value of zero undefined")
        return factor_multiplicity(f.num, self.h) - factor_multiplicity(f.den, self.h)

    def contains_element(self, f: RatFunc) -> bool:
        return f.is_zero or self.value(f) >= 0

    def ring_contains(self, beta: Point) -> bool:
        if self.h.constant_term() != 0:
            return False
        return beta.strict_transform(self.h).xy_order() >= 1

    def __eq__(self, other) -> bool:
        return isinstance(other, FirstKind) and self.h == other.h

    def __hash__(self) -> int:
        return hash(("first", self.h))

    def __repr__(self) -> str:
        return f"FirstKind({self.h})"


class SecondKind:
    """The order valuation of the ring at a tree point, possibly scaled."""

    kind = "second"

    def __init__(self, point: Point, scale: int = 1):
        if scale < 1:
            raise InputError("scale must be a positive integer")
        self.point = point
        self.scale = scale

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


class _MinimalBase:
    """Common machinery for valuations given by an infinite path."""

    kind = "minimal"

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
        pos, _ = settle(f, map(self.step_at, range(WALK_CAP)))
        if pos is Position.UNDETERMINED:
            raise DepthCapError(
                f"position of {f} along the path did not settle within {WALK_CAP} steps")
        return pos is not Position.POLE

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
        strict transform there at y = B / (1 - x^p) is zero."""
        if INF in self.period:
            return False
        strict = self.point_at(len(self.prefix)).strict_transform(h)
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
    so the curve has one branch at the origin: a split tangent cone or a
    non-rational direction raises `BranchError`, and a branch singular
    after `WALK_CAP` steps `DepthCapError`.  Later steps are forced and
    rational; they are found lazily, and `step_at` never raises.
    """

    def __init__(self, h: Poly):
        self.h = _check_curve(h, through_origin=True).normalized()
        self._steps: List[Step] = []
        self._strict = self.h  # the strict transform after the last step
        while self._strict.xy_order() > 1:
            if len(self._steps) >= WALK_CAP:
                raise DepthCapError(
                    f"the branch of {self.h} is not smooth within {WALK_CAP} steps")
            self._extend_to(len(self._steps) + 1)

    def _extend_to(self, level: int) -> None:
        while len(self._steps) < level:
            step = branch_step(self._strict)
            self._strict = strict_step(self._strict, step)
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
    coeffs = lowest_form(strict)
    if len(coeffs) < 2:
        raise BranchError("the curve does not pass through this point")
    candidates: List[Step] = list(root_pass(coeffs, T)[0])
    if not coeffs[-1]:
        candidates.append(INF)
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise BranchError("the branch continues in a non-rational direction")
    raise BranchError(
        "the curve has several branches here; directions " +
        ", ".join("inf" if is_inf(c) else str(c) for c in candidates))


def monomial_path(a, b) -> Tuple[Step, ...]:
    """The path of the monomial valuation v(x) = a, v(y) = b.

    While the weights differ, the smaller one is subtracted from the larger:
    a 0 step when x carries the smaller weight, an inf step (which swaps the
    parameters) otherwise.  The walk ends when the weights agree.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise InputError("monomial weights must be positive")
    scale = math.lcm(a.denominator, b.denominator)
    ia, ib = int(a * scale), int(b * scale)
    steps: List[Step] = []
    while ia != ib:
        if ia < ib:
            steps.append(Fraction(0))
            ib -= ia
        else:
            steps.append(INF)
            ia, ib = ib, ia - ib
    return tuple(steps)


def monomial_valuation(a, b) -> SecondKind:
    """The monomial valuation, normalized to a scaled order valuation."""
    path = monomial_path(a, b)
    a, b = Fraction(a), Fraction(b)
    denom_lcm = math.lcm(a.denominator, b.denominator)
    g = math.gcd(int(a * denom_lcm), int(b * denom_lcm))
    point = Point.from_path(path)
    return SecondKind(point, scale=g)


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
