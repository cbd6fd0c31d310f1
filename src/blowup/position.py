"""Zero/pole analysis of field elements at tree points.

The position of an element f at a point is read off the reduced expressed
fraction F/G in the local parameters:

    G(0) != 0 and F(0) == 0   ZERO    (f is in the maximal ideal)
    G(0) != 0 and F(0) != 0   UNIT
    G(0) == 0 and F(0) != 0   POLE    (1/f is in the maximal ideal)
    both constant terms zero  UNDETERMINED

An undetermined position always resolves in the first neighborhood: the
children where f stays non-unit are cut out by the lowest-degree forms of
F and G.  A zero, a unit or a pole stays one at every point below, so
`settle` reads a path's class at its first decided point.  `resolve`
chases the undetermined ones to the finite sets of minimal zero and pole
points, `locate` uses the same descent to find the point presented by a
candidate parameter pair, and `position_parametric` classifies elements
carrying the scalar parameter a for every value at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import DepthCapError, InputError, LocateError, ResolveError
from .expr import INF
from .poly import (
    A,
    Poly,
    RatFunc,
    T,
    X,
    Y,
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
    num_const = expressed.num.xy_constant_part()
    den_const = expressed.den.xy_constant_part()
    if den_const.is_zero:
        return Position.UNDETERMINED if num_const.is_zero else Position.POLE
    return Position.ZERO if num_const.is_zero else Position.UNIT


# -- candidate directions at an undetermined point ---------------------------


@dataclass(frozen=True)
class _StepSet:
    """Directions (steps) in which an element can stay non-unit.

    `binding` means the set is exhaustive: outside it the element becomes a
    unit or a pole at the child, so a search may intersect with it.  An
    element whose numerator order exceeds its denominator order vanishes in
    every direction; the listed steps are then only the degenerate ones and
    the set is not binding.
    """

    steps: Tuple[object, ...]
    binding: bool
    order_gap: int
    irrational: bool


def lowest_form(p: Poly) -> List[Fraction]:
    """Coefficients c_0 .. c_d of the lowest form sum c_j x^(d-j) y^j of p.

    On the exceptional line (x = 1, y = t) the form becomes the direction
    polynomial sum c_j t^j, whose roots are the finite steps where it
    vanishes; it vanishes in the direction inf exactly when c_d = 0.
    """
    order = p.xy_order()
    coeffs: List[Fraction] = [0] * (order + 1)
    for (i, j, a, t), c in p.terms.items():
        if i + j == order:
            if a or t:
                raise ValueError("the lowest form carries the symbols a or t")
            coeffs[j] = c
    return coeffs


def _candidate_steps(expressed: RatFunc) -> _StepSet:
    cf = lowest_form(expressed.num)
    cg = lowest_form(expressed.den)
    steps: set = set()
    irrational = False
    for coeffs in (cf, cg):
        roots, rest = root_pass(coeffs, T)
        steps.update(roots)
        irrational = irrational or rest
    ordered = tuple(sorted(steps))
    if not cf[-1] or not cg[-1]:
        ordered += (INF,)
    gap = len(cf) - len(cg)
    return _StepSet(ordered, binding=gap <= 0, order_gap=gap, irrational=irrational)


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
    # each child's chart is one step from its parent's, so the queue
    # carries the expressed form down instead of re-folding the path
    queue = deque([(root, root.express(f))])
    while queue:
        point, expressed = queue.popleft()
        depth_used = max(depth_used, point.level)
        pos = classify_expressed(expressed)
        if pos is Position.ZERO:
            zeros.append(point)
            continue
        if pos is Position.POLE:
            poles.append(point)
            continue
        if pos is Position.UNIT:
            continue
        step_set = _candidate_steps(expressed)
        if step_set.order_gap != 0:
            side = "vanishes" if step_set.order_gap > 0 else "has a pole"
            raise ResolveError(
                f"{f} {side} along the exceptional curve of {point}: "
                "every direction there is affected, so the zeros and poles "
                "do not form a finite set of points")
        if step_set.irrational:
            diagnostics.append(
                f"some zero or pole directions at {point} are irrational "
                "and have no tree point over the rationals")
        if point.level - root.level >= max_depth:
            open_points.append(point)
            continue
        for s in step_set.steps:
            queue.append((point.child(s), express_step(expressed, s)))
    if open_points:
        raise DepthCapError(
            f"resolution of {f} still undetermined at depth {max_depth} "
            f"below {root}", open_points=open_points)
    return Resolution(tuple(zeros), tuple(poles), depth_used, tuple(diagnostics))


# -- locate ------------------------------------------------------------------

# Deepest level `locate` searches before it reports its open points.
LOCATE_DEPTH = 24


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
    queue = deque([(Point.root(), f, g)])
    while queue:
        point, ef, eg = queue.popleft()
        pf = classify_expressed(ef)
        pg = classify_expressed(eg)
        if pf in (Position.UNIT, Position.POLE) or pg in (Position.UNIT, Position.POLE):
            continue
        if pf is Position.ZERO and pg is Position.ZERO:
            if _is_parameter_pair(ef, eg):
                matches.append(point)
            continue
        # an element already vanishing to order two or more never recovers:
        # its order can only grow down the tree
        if pf is Position.ZERO and ef.num.xy_order() >= 2:
            continue
        if pg is Position.ZERO and eg.num.xy_order() >= 2:
            continue
        binding: List[_StepSet] = []
        soft: List[_StepSet] = []
        for pos, expressed in ((pf, ef), (pg, eg)):
            if pos is Position.UNDETERMINED:
                ss = _candidate_steps(expressed)
                (binding if ss.binding else soft).append(ss)
        if binding:
            steps = set(binding[0].steps)
            for ss in binding[1:]:
                steps &= set(ss.steps)
        else:
            steps = set()
            for ss in soft:
                steps |= set(ss.steps)
        if not steps:
            continue
        if point.level >= LOCATE_DEPTH:
            open_points.append(point)
            continue
        for s in sorted(steps, key=lambda v: (v is INF, v if v is not INF else 0)):
            queue.append((point.child(s), express_step(ef, s), express_step(eg, s)))
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
    """Both elements vanish here; do they cut independent tangent lines?"""
    if ef.num.xy_order() != 1 or eg.num.xy_order() != 1:
        return False
    lf = lowest_form(ef.num)
    lg = lowest_form(eg.num)
    return lf[0] * lg[1] - lf[1] * lg[0] != 0


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
    """Classify f(a) at a point, uniformly in the parameter a."""
    if not f.has_slot(A):
        return ParametricPosition(position(point, f))
    expressed = point.express(f)
    num, den = expressed.num, expressed.den
    cf = num.xy_constant_part()
    cg = den.xy_constant_part()
    generic = classify_expressed(expressed)
    candidates: set = set()
    for c in (cf, cg):
        if not c.is_zero and c.has_slot(A):
            candidates.update(rational_roots(c, A))
    candidates.update(_a_collapse_roots(f.num))
    candidates.update(_a_collapse_roots(f.den))
    if cf.is_zero and cg.is_zero:
        for v in (X, Y):
            if num.degree(v) > 0 and den.degree(v) > 0:
                res = sylvester_resultant(num, den, v)
                if not res.is_zero:
                    candidates.update(_a_collapse_roots(res))
    exceptional: Dict[Fraction, Position] = {}
    undefined: List[Fraction] = []
    for a0 in sorted(candidates):
        den0 = f.den.subst_const(A, a0)
        if den0.is_zero:
            undefined.append(a0)
            continue
        special = RatFunc(f.num.subst_const(A, a0), den0)
        pos = position(point, special)
        if pos is not generic:
            exceptional[a0] = pos
    return ParametricPosition(generic, exceptional, tuple(undefined))


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

