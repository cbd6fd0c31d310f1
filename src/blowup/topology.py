"""Limit points, closures, components, and Noetherian certificates.

Treats a family set as a subspace of the tree sitting inside the larger
space that also holds the valuation overrings.  Limit analysis is entirely
symbolic: each family shape admits or rules out limits by its form, so no
enumeration is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ComponentError
from .families import (Chain, Family, FamilySet, Fiber, Siblings, Singleton,
                       downset_member, family_parts, q1_downset_count)
from .proximity import is_ray_tail
from .tree import Point, is_prefix
from .valuations import MinimalCurveBranch, SecondKind, _MinimalBase

Descriptor = SecondKind | _MinimalBase
Generator = Point | SecondKind | _MinimalBase


def patch_limit_points(family) -> Tuple[Descriptor, ...]:
    """The valuations every neighborhood of which holds infinitely many members.

    Two kinds can occur.  The order valuation at alpha is a limit exactly
    when infinitely many children of alpha lie in the family's downset;
    only a fiber based at alpha can arrange that (`q1_downset_count`), so
    the divisor limits are the order valuations at the fiber bases.  A
    minimal valuation is a limit exactly when members appear cofinally
    along its path, which is the defining shape of the chain and sibling
    parts.  Finite families have no limits at all.
    """
    parts = family_parts(family)
    bases = {part.base for part in parts if isinstance(part, Fiber)}
    divisors = [SecondKind(alpha) for alpha in sorted(bases, key=str)]
    minimals: List[_MinimalBase] = []
    for part in parts:
        if isinstance(part, (Chain, Siblings)):
            v = part.valuation
            if not any(v.same_path(seen) for seen in minimals):
                minimals.append(v)
    return tuple(divisors) + tuple(minimals)


@dataclass(frozen=True)
class ClosedSetRepr:
    """A closed set: the downset of the residual family parts, the full
    downsets of finitely many order valuations (prefixes plus proximate
    points), and the path prefixes of finitely many minimal valuations."""

    divisor_downsets: Tuple[SecondKind, ...]
    minimal_downsets: Tuple[_MinimalBase, ...]
    residual: FamilySet


def zariski_closure(family) -> ClosedSetRepr:
    """Close a family set: its downset plus the downsets of its limits.

    The divisor limits contribute their whole containment sets, which is
    what makes the closure of a fiber strictly larger than its downset;
    minimal limits only re-add path prefixes, already present for chains,
    but are kept so the closure reports the full generic-point data."""
    parts = family_parts(family)
    limits = patch_limit_points(parts)
    divisors = tuple(v for v in limits if isinstance(v, SecondKind))
    minimals = tuple(v for v in limits if isinstance(v, _MinimalBase))
    return ClosedSetRepr(divisors, minimals, parts)


def closure_member(closed: ClosedSetRepr, beta: Point) -> bool:
    if downset_member(closed.residual, beta):
        return True
    return any(v.ring_contains(beta)
               for v in closed.divisor_downsets + closed.minimal_downsets)


def _ray_below(v: _MinimalBase, alpha: Point) -> bool:
    """Whether the path of v climbs the exceptional ray of alpha, so that
    every point of the path sits inside the order valuation there.

    The ray follows the exceptional curve of alpha, which no plane curve
    branch does.  A periodic path is on the ray when its steps after the
    free one are a ray tail up to one full period past both the prefix and
    the ray's first two steps; from there on they repeat.
    """
    if isinstance(v, MinimalCurveBranch) or not v.ring_contains(alpha):
        return False
    end = max(len(v.prefix), alpha.level + 2) + len(v.period)
    return is_ray_tail(map(v.step_at, range(alpha.level + 1, end)))


def irreducible_components(closed: ClosedSetRepr) -> Tuple[Generator, ...]:
    """The maximal generators of the closed set, when finitely many.

    Each divisor and minimal descriptor generates its own downset; a
    residual part either hides below one of those or below a single point,
    or else it scatters into one maximal point per member and the
    decomposition is infinite, which is reported as an error carrying the
    offending part."""
    generators: List[Descriptor] = list(closed.divisor_downsets)
    for v in closed.minimal_downsets:
        if not any(isinstance(g, SecondKind) and _ray_below(v, g.point)
                   for g in generators):
            generators.append(v)
    points: List[Point] = []
    for part in family_parts(closed.residual):
        if isinstance(part, Singleton):
            points.append(part.point)
        elif isinstance(part, Fiber):
            if not part.has_ray_tail():
                raise ComponentError(
                    "infinitely many irreducible components: members of "
                    f"{part.describe()} are pairwise incomparable and none "
                    "sits inside a limit valuation", witness=part)
            # Ray-tailed members live inside the order valuation of the
            # base, which is always among the divisor limits.
        elif isinstance(part, Chain):
            pass  # inside its own minimal valuation's path
        elif isinstance(part, Siblings):
            raise ComponentError(
                "infinitely many irreducible components: each sibling is "
                "proximate only to its own parent, so no finite set of "
                "valuation downsets absorbs " + part.describe(),
                witness=part)
    maximal: List[Point] = []
    for gamma in points:
        if any(g.ring_contains(gamma) for g in generators):
            continue
        if any(other != gamma and is_prefix(gamma, other) for other in points):
            continue
        if gamma not in maximal:
            maximal.append(gamma)
    return tuple(generators) + tuple(maximal)


def is_irreducible(closed: ClosedSetRepr) -> Optional[Generator]:
    """The generic point when the closed set is a single downset."""
    try:
        components = irreducible_components(closed)
    except ComponentError:
        return None
    if len(components) == 1:
        return components[0]
    return None


@dataclass(frozen=True)
class NoetherianCertificate:
    """Verdict with either a finite covering set of valuations (true) or
    the family part that no finite covering can absorb (false)."""

    verdict: bool
    covering: Tuple[Descriptor, ...] = ()
    witness: Optional[Family] = None

    def __bool__(self) -> bool:
        return self.verdict


def is_noetherian(family) -> NoetherianCertificate:
    """Decide whether the family's subspace topology is Noetherian.

    Equivalent to covering all members by finitely many valuation
    downsets.  Singletons and chains are trivially covered; a fiber is
    covered by its base's order valuation exactly when its members stay
    proximate to the base (ray tails); siblings can never be covered, as
    each member is proximate only to its own parent on the path."""
    covering: List[Descriptor] = []

    def add(v: Descriptor) -> None:
        if not any(v == seen for seen in covering):
            covering.append(v)

    for part in family_parts(family):
        if isinstance(part, Singleton):
            add(SecondKind(part.point))
        elif isinstance(part, Fiber):
            if not part.has_ray_tail():
                return NoetherianCertificate(False, (), part)
            add(SecondKind(part.base))
        elif isinstance(part, Chain):
            add(part.valuation)
        elif isinstance(part, Siblings):
            return NoetherianCertificate(False, (), part)
    return NoetherianCertificate(True, tuple(covering), None)


@dataclass(frozen=True)
class DivisorLimitCounts:
    """The two readings of "the order valuation at alpha is a limit".

    `child_count` counts children of alpha below members (the downset
    reading, which drives the closure formula); `contained_members` says
    whether infinitely many pairwise incomparable members lie inside the
    order valuation itself (the literal containment reading).  The two
    agree on ray-tailed fibers and differ on any other tail, where members
    hang below infinitely many children without entering the valuation."""

    child_count: object
    contained_members: bool


def divisor_limit_counts(family, alpha: Point) -> DivisorLimitCounts:
    parts = family_parts(family)
    contained = any(
        isinstance(part, Fiber) and part.base == alpha and part.has_ray_tail()
        for part in parts)
    return DivisorLimitCounts(q1_downset_count(parts, alpha), contained)
