"""Zero/pole analysis of field elements at tree points.

The position of an element f at a point is read off the reduced expressed
fraction F/G in the local parameters:

    G(0) != 0 and F(0) == 0   ZERO    (f is in the maximal ideal)
    G(0) != 0 and F(0) != 0   UNIT
    G(0) == 0 and F(0) != 0   POLE    (1/f is in the maximal ideal)
    both constant terms zero  UNDETERMINED

An undetermined position always resolves in the first neighborhood: the
children where f stays non-unit are cut out by the lowest-degree forms of
F and G.  `directions` lists the rational directions in which a lowest
form vanishes and flags an irrational one, for the curve branches of
`valuations`.  `FirstNeighborhood` reads both forms of a concrete F/G
once: it lists their directions the same way for `resolve` and
`locate`, and gives the class of the child in any direction with no
chart step.  A zero, a unit or a pole stays one at every point below, so
`settle` reads a path's class at its first decided point.  `resolve`
chases the undetermined ones to the finite sets of minimal zero and pole
points, `locate` uses the same descent to find the point presented by a
candidate parameter pair, and both take a chart step only to a child
where the search goes on.  `position_parametric` classifies elements
carrying the scalar parameter a for every value at once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from numbers import Rational
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import DepthCapError, InputError, LocateError, ResolveError
from .expr import INF, Step
from .poly import (
    A,
    Poly,
    RatFunc,
    T,
    X,
    Y,
    _homogeneous_value,
    poly_gcd,
    rational_roots,
    root_pass,
    sylvester_resultant,
)
from .tree import AnyStep, Point, express_step


class Position(Enum):
    ZERO = "zero"
    POLE = "pole"
    UNIT = "unit"
    UNDETERMINED = "undetermined"


def position(point: Point, f: RatFunc) -> Position:
    """Position of f at a point.

    Elements carrying the parameter a must go through
    `position_parametric` instead.
    """
    if f.has_slot(A):
        raise InputError("element carries the parameter a; use the parametric form")
    expressed = point.express(f)
    return classify_expressed(expressed)


def settle(f: RatFunc, steps: Iterable[AnyStep]) -> Tuple[Position, RatFunc]:
    """Position of f at the end of a path, read at its first decided point.

    Let P lie below Q.  Then O_Q is inside O_P and m_P meets O_Q in m_Q,
    so a zero, a unit or a pole of f at Q is the same at P.  The fold
    expresses f one step at a time and stops at the first point where
    its class is not UNDETERMINED.  It returns that class with the chart
    it stopped in: the chart at the end of `steps` only when f is still
    undetermined there.  `steps` may be a lazy iterator; it is read no
    further than the point that decides.
    """
    pos = classify_expressed(f)
    if pos is not Position.UNDETERMINED:
        return pos, f
    for step in steps:
        f = express_step(f, step)
        pos = classify_expressed(f)
        if pos is not Position.UNDETERMINED:
            break
    return pos, f


def classify_expressed(expressed: RatFunc) -> Position:
    if expressed.is_zero:
        return Position.ZERO
    if _vanishes(expressed.den):
        return Position.UNDETERMINED if _vanishes(expressed.num) else Position.POLE
    return Position.ZERO if _vanishes(expressed.num) else Position.UNIT


def _vanishes(p: Poly) -> bool:
    """Whether p is zero at the origin: every term carries x or y."""
    terms = p.terms
    return (0, 0, 0, 0) not in terms and all(e[X] or e[Y] for e in terms)


# -- candidate directions at an undetermined point ---------------------------


def _lowest(terms: Mapping) -> Tuple[Dict[int, Rational], int]:
    """The nonzero c_j of the lowest form of a term map and its order d,
    read in one pass over the terms."""
    form: Dict[int, Rational] = {}
    order, symbolic = -1, False
    for (i, j, a, t), c in terms.items():
        d = i + j
        if d < order or order < 0:
            form, order, symbolic = {j: c}, d, bool(a or t)
        elif d == order:
            form[j] = c
            symbolic = symbolic or bool(a or t)
    if order < 0:
        raise ValueError("order of zero undefined")
    if symbolic:
        raise ValueError("the lowest form carries the symbols a or t")
    return form, order


def directions(terms: Mapping) -> Tuple[Tuple[Step, ...], bool]:
    """The rational directions in which the lowest form of a term map p,
    with `Fraction` or `int` coefficients, vanishes: the finite steps in
    increasing order and then inf, and whether an irrational direction is
    left.  They are the children that the strict transform of p passes
    through (Fulton, *Algebraic Curves*, ch. 7)."""
    return _form_directions(_integer_form(terms)[0])


def _form_directions(coeffs: List[int]) -> Tuple[Tuple[Step, ...], bool]:
    roots, irrational = root_pass(coeffs, T)
    return tuple(roots) + (() if coeffs[-1] else (INF,)), irrational


class FirstNeighborhood:
    """The first neighborhood of a point as a concrete chart N/D there sees
    it: the orders d and e and the lowest forms N_d and D_e, read once for
    the candidate steps, the order gap and the class of every child.

    One step s down, the images of N and D share the factor x^min(d, e)
    and no other (`express_step`).  What is left of N has the constant term
    N_d(1, s), or for inf the coefficient of y^d (`transform_step`).  So N
    keeps vanishing at the child iff d > min(d, e) or N_d vanishes at s,
    and D likewise (Fulton, *Algebraic Curves*, ch. 3 and 7).  `child`
    evaluates the forms at s over the integers: no chart step, and no root
    search.
    """

    __slots__ = ("num_order", "den_order", "_num_form", "_den_form")

    def __init__(self, chart: RatFunc):
        self._num_form, self.num_order = _integer_form(chart.num.terms)
        self._den_form, self.den_order = _integer_form(chart.den.terms)

    def steps(self) -> Tuple[Tuple[Step, ...], bool]:
        """The directions in which N/D can stay non-unit: those of N and of
        D, in order, and whether an irrational one is left."""
        num_steps, num_irrational = _form_directions(self._num_form)
        den_steps, den_irrational = _form_directions(self._den_form)
        steps = sorted(set(num_steps).union(den_steps), key=_inf_last)
        return tuple(steps), num_irrational or den_irrational

    def child(self, step: Step) -> Position:
        """The class of the chart at the child reached by `step`."""
        drop = min(self.num_order, self.den_order)
        num = self.num_order > drop or _form_vanishes(self._num_form, step)
        den = self.den_order > drop or _form_vanishes(self._den_form, step)
        if den:
            return Position.UNDETERMINED if num else Position.POLE
        return Position.ZERO if num else Position.UNIT


def _integer_form(terms: Mapping) -> Tuple[List[int], int]:
    """Coefficients c_0 .. c_d of the lowest form sum c_j x^(d-j) y^j of a
    term map, times the lcm of their denominators, and its order d.

    On the exceptional line (x = 1, y = t) the form becomes the direction
    polynomial sum c_j t^j, whose roots are the finite steps where it
    vanishes; it vanishes in the direction inf exactly when c_d = 0.
    """
    form, order = _lowest(terms)
    scale = math.lcm(*[c.denominator for c in form.values()])
    coeffs = [0] * (order + 1)
    for j, c in form.items():
        coeffs[j] = c.numerator * (scale // c.denominator)
    return coeffs, order


def _form_vanishes(coeffs: List[int], step: Step) -> bool:
    """Whether sum c_j x^(d-j) y^j vanishes in the direction `step`."""
    if step is INF:
        return not coeffs[-1]
    return not _homogeneous_value(coeffs, step.numerator, step.denominator)


def _inf_last(step: Step) -> Tuple[bool, Fraction]:
    return (True, 0) if step is INF else (False, step)


# -- resolve -----------------------------------------------------------------


@dataclass
class Resolution:
    """Minimal zero and pole points of an element, found by tree descent."""

    zeros: Tuple[Point, ...]
    poles: Tuple[Point, ...]
    depth_used: int
    diagnostics: Tuple[str, ...] = ()


def resolve(f: RatFunc, max_depth: int = 16, start: Optional[Point] = None) -> Resolution:
    """Find every minimal point where f is a zero or a pole, below `start`.

    Raises `ResolveError` when f vanishes (or blows up) along a whole
    exceptional curve, which spreads zeros or poles over infinitely many
    points of a first neighborhood.  Non-rational directions cannot be
    represented as tree points; they are reported in the diagnostics.
    """
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    if f.has_slot(A):
        raise InputError("element carries the parameter a; resolve needs a concrete element")
    if f.is_zero:
        raise InputError("the zero element vanishes everywhere")
    root = start if start is not None else Point.root()
    zeros: List[Point] = []
    poles: List[Point] = []
    diagnostics: List[str] = []
    open_points: List[Point] = []
    depth_used = root.level
    # each child's class is read off its parent's lowest forms, and only an
    # undetermined child's chart is taken, one step from its parent's
    expressed = root.express(f)
    queue = deque([(root, classify_expressed(expressed), expressed)])
    while queue:
        point, pos, expressed = queue.popleft()
        depth_used = max(depth_used, point.level)
        if pos is Position.ZERO:
            zeros.append(point)
            continue
        if pos is Position.POLE:
            poles.append(point)
            continue
        if pos is Position.UNIT:
            continue
        near = FirstNeighborhood(expressed)
        steps, irrational = near.steps()
        gap = near.num_order - near.den_order
        if gap:
            side = "vanishes" if gap > 0 else "has a pole"
            raise ResolveError(
                f"{f} {side} along the exceptional curve of {point}: "
                "every direction there is affected, so the zeros and poles "
                "do not form a finite set of points")
        if irrational:
            diagnostics.append(
                f"some zero or pole directions at {point} are irrational "
                "and have no tree point over the rationals")
        if point.level - root.level >= max_depth:
            open_points.append(point)
            continue
        for s in steps:
            pos = near.child(s)
            queue.append((point.child(s), pos, express_step(expressed, s)
                          if pos is Position.UNDETERMINED else None))
    if open_points:
        raise DepthCapError(
            f"resolution of {f} still undetermined at depth {max_depth} "
            f"below {root}", open_points=open_points)
    return Resolution(tuple(zeros), tuple(poles), depth_used, tuple(diagnostics))


# -- locate ------------------------------------------------------------------

# Deepest level `locate` searches before it reports its open points.
LOCATE_DEPTH = 24

# A branch of the search dies where either element is a unit or a pole.
_DEAD = (Position.UNIT, Position.POLE)


def locate(f: RatFunc, g: RatFunc) -> Point:
    """Find the point whose local ring has (f, g) as a parameter pair.

    The search walks the tree from the root.  A branch dies as soon as one
    element becomes a unit or a pole, or both vanish without forming a
    parameter pair there: from such a point the pair generates an ideal
    inside a principal one at every deeper point, and the maximal ideal of
    a two-dimensional regular local ring is never principal.
    """
    for e in (f, g):
        if e.has_slot(A):
            raise InputError("parameter pairs must be concrete elements")
        if e.is_zero:
            raise InputError("the zero element is never a parameter")
    matches: List[Point] = []
    open_points: List[Point] = []
    # each child's classes are read off its parent's lowest forms, and only
    # a child where neither element is dead takes its chart step
    queue = deque([(Point.root(), f, g, classify_expressed(f), classify_expressed(g))])
    while queue:
        point, ef, eg, pf, pg = queue.popleft()
        if pf in _DEAD or pg in _DEAD:
            continue
        if pf is Position.ZERO and pg is Position.ZERO:
            if _is_parameter_pair(ef, eg):
                matches.append(point)
            continue
        near_f, near_g = FirstNeighborhood(ef), FirstNeighborhood(eg)
        # an element already vanishing to order two or more never recovers:
        # its order can only grow down the tree
        if (pf is Position.ZERO and near_f.num_order >= 2
                or pg is Position.ZERO and near_g.num_order >= 2):
            continue
        binding: List[set] = []
        soft: List[set] = []
        for pos, near in ((pf, near_f), (pg, near_g)):
            if pos is Position.UNDETERMINED:
                # an element whose numerator has the higher order vanishes
                # in every direction, so its listed steps bound nothing
                bound = near.num_order <= near.den_order
                (binding if bound else soft).append(set(near.steps()[0]))
        steps = set.intersection(*binding) if binding else set().union(*soft)
        if not steps:
            continue
        if point.level >= LOCATE_DEPTH:
            open_points.append(point)
            continue
        for s in sorted(steps, key=_inf_last):
            cf, cg = near_f.child(s), near_g.child(s)
            if cf not in _DEAD and cg not in _DEAD:
                queue.append((point.child(s), express_step(ef, s), express_step(eg, s), cf, cg))
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise LocateError(
            f"{len(matches)} points claim the pair ({f}, {g}): " +
            ", ".join(str(m) for m in matches))
    if open_points:
        raise DepthCapError(
            f"no point found for the pair ({f}, {g}) within depth {LOCATE_DEPTH}",
            open_points=open_points)
    raise LocateError(f"({f}, {g}) is not a parameter pair of any tree point")


def _is_parameter_pair(ef: RatFunc, eg: RatFunc) -> bool:
    """Both elements vanish here; do they cut distinct tangent lines?"""
    return (ef.num.xy_order() == 1 and eg.num.xy_order() == 1
            and directions(ef.num.terms) != directions(eg.num.terms))


# -- parametric position -----------------------------------------------------


@dataclass
class ParametricPosition:
    """Position of a one-parameter element for every value of a at once.

    `generic` holds for all but finitely many rational values; the
    exceptions are listed with their own positions.  Values of a that make
    the element itself collapse (denominator identically zero) are
    `undefined`.
    """

    generic: Position
    exceptional: Dict[Fraction, Position] = field(default_factory=dict)
    undefined: Tuple[Fraction, ...] = ()


def position_parametric(point: Point, f: RatFunc) -> ParametricPosition:
    """Classify f(a) at a point, uniformly in the parameter a: f, and f at
    each value of a that `a_candidates` finds in the chart where f settles,
    are classified at their first decided points on the path (`settle`)."""
    generic, chart = settle(f, point.steps)
    exceptional: Dict[Fraction, Position] = {}
    undefined: List[Fraction] = []
    for a0 in a_candidates(f, chart):
        den0 = f.den.subst_const(A, a0)
        if den0.is_zero:
            undefined.append(a0)
            continue
        pos = settle(RatFunc(f.num.subst_const(A, a0), den0), point.steps)[0]
        if pos is not generic:
            exceptional[a0] = pos
    return ParametricPosition(generic, exceptional, tuple(undefined))


def a_candidates(f: RatFunc, chart: RatFunc) -> List[Fraction]:
    """Values of a, in order, where f may leave its class in `chart`, f
    expressed at a point: roots of the chart's constant parts, values that
    kill f's numerator or denominator, and, in an undetermined chart, roots
    of the resultants of its two parts.  None for a concrete f."""
    if not f.has_slot(A):
        return []
    cf = chart.num.xy_constant_part()
    cg = chart.den.xy_constant_part()
    candidates: set = set()
    for c in (cf, cg):
        if not c.is_zero and c.has_slot(A):
            candidates.update(rational_roots(c, A))
    candidates.update(_a_collapse_roots(f.num))
    candidates.update(_a_collapse_roots(f.den))
    if cf.is_zero and cg.is_zero:
        for v in (X, Y):
            if chart.num.degree(v) > 0 and chart.den.degree(v) > 0:
                res = sylvester_resultant(chart.num, chart.den, v)
                if not res.is_zero:
                    candidates.update(_a_collapse_roots(res))
    return sorted(candidates)


def _a_collapse_roots(p: Poly) -> List[Fraction]:
    """Values of a that kill the whole polynomial."""
    if p.is_zero or not p.has_slot(A):
        return []
    by_monomial: Dict[tuple, Dict[tuple, Fraction]] = {}
    for exps, coeff in p.terms.items():
        rest = (exps[X], exps[Y], 0, exps[T])
        key = (0, 0, exps[A], 0)
        by_monomial.setdefault(rest, {})[key] = coeff
    # not `coefficient_gcd`: the perfbench tracer test reads this module's
    # own `poly_gcd`, so the fold calls it here
    shared = reduce(poly_gcd, (Poly(terms) for terms in by_monomial.values()))
    if shared.is_constant:
        return []
    return rational_roots(shared, A)

