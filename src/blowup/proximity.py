"""Proximity between tree points.

A point q in some neighborhood of p is proximate to p when q lies on the
exceptional curve created at p.  In path terms the curve survives along a
single ray: the first step away from p is free, after that the curve is
followed by one inf step and then 0 steps only.  So q is proximate to p
exactly when

    path(q) = path(p) + (s,)                       any first step s, or
    path(q) = path(p) + (s, inf, 0, 0, ..., 0)

Every point is proximate to its parent; at most one earlier ancestor can
be proximate as well.  `is_ray_tail` is the one statement of the ray rule;
fibers use it for their tails and the topology for paths of valuations.

The valuation ring of the order valuation at p contains the local ring at
q exactly when q is at or above p, or q is proximate to p.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

from .expr import INF, Step
from .tree import Point, is_prefix

_ZERO = Fraction(0)


def is_ray_tail(tail: Iterable[Step]) -> bool:
    """Whether the steps after a free step stay on the exceptional curve
    of the point that the free step leaves: no steps at all, or one inf
    step followed by 0 steps only."""
    steps = iter(tail)
    return next(steps, INF) is INF and all(s == _ZERO for s in steps)


def is_proximate(beta: Point, alpha: Point) -> bool:
    """True when beta is proximate to alpha (beta below, on alpha's
    exceptional ray)."""
    return (alpha.level < beta.level and is_prefix(alpha, beta)
            and is_ray_tail(beta.steps[alpha.level + 1:]))


def proximate_ancestors(beta: Point) -> Tuple[Point, ...]:
    """The points beta is proximate to, nearest first.  At most two."""
    return tuple([beta.ancestor(level) for level in reversed(range(beta.level))
                  if is_ray_tail(beta.steps[level + 1:])])


def second_kind_contains(alpha: Point, beta: Point) -> bool:
    """Whether the order valuation ring at alpha contains the ring at beta."""
    return is_prefix(beta, alpha) or is_proximate(beta, alpha)


def proximate_points(alpha: Point, depth: int, steps: Iterable[Step]) -> List[Point]:
    """All points proximate to alpha within `depth` levels below it, using
    the given first-step alphabet.  The deeper part of each ray is forced,
    so only the first step varies."""
    if depth < 1:
        return []
    result: List[Point] = []
    for s in steps:
        ray = alpha.child(s)
        result.append(ray)
        remaining = depth - 1
        if remaining >= 1:
            ray = ray.child(INF)
            result.append(ray)
            for _ in range(remaining - 1):
                ray = ray.child(_ZERO)
                result.append(ray)
    return result
