"""Finite descriptions of possibly infinite sets of tree points.

A family is one of four shapes: a single point, a fiber (one free step over
a fixed base point, followed by a fixed tail), an ascending chain along the
path of a minimal valuation, or the off-path siblings of such a path.  A
family set is a finite union of these.  All queries here are symbolic; no
family is ever enumerated beyond what a concrete answer needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .errors import InputError
from .expr import INF, Step, format_step, is_inf
from .proximity import is_ray_tail
from .tree import Point, is_prefix, normalize_step
from .valuations import _MinimalBase


class _Infinite:
    """Cardinality marker for counts that are not finite."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "infinite"


INFINITE = _Infinite()

Count = int | _Infinite


@dataclass(frozen=True)
class MoebiusMap:
    """Fractional-linear change of coordinate between a display parameter
    and the step coordinate of a fiber: step = (a*v + b) / (c*v + d).

    Used when a family is naturally indexed by a parameter that is not the
    step itself, so membership answers can be reported in the caller's
    coordinate.  The map must be invertible (ad - bc nonzero)."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise InputError("coordinate map must be invertible")

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(Fraction(1), Fraction(0), Fraction(0), Fraction(1))

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def to_step(self, value: Step) -> Step:
        if is_inf(value):
            return INF if self.c == 0 else self.a / self.c
        den = self.c * value + self.d
        if den == 0:
            return INF
        return (self.a * value + self.b) / den

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class Singleton:
    """The one-point family."""

    point: Point

    kind = "singleton"

    def is_member(self, beta: Point) -> bool:
        return beta == self.point

    def downset_member(self, beta: Point) -> bool:
        return is_prefix(beta, self.point)

    def describe(self) -> str:
        return f"the point {self.point}"


@dataclass(frozen=True)
class Fiber:
    """All points base<s>·tail with s ranging over the steps not excluded.

    The free step is the first one after the base; the tail is a fixed
    continuation shared by every member.  Infinitely many members always
    remain because only finitely many steps can be excluded.  Every member
    is a concrete point; a question about all members at once folds the
    step kernel over the base's chart with the free step kept as the
    symbol t."""

    base: Point
    excluded: FrozenSet[Step] = frozenset()
    tail: Tuple[Step, ...] = ()
    param_map: MoebiusMap = field(default_factory=MoebiusMap.identity)

    kind = "fiber"

    def __post_init__(self):
        object.__setattr__(
            self, "tail", tuple(normalize_step(s) for s in self.tail))
        object.__setattr__(
            self, "excluded",
            frozenset(normalize_step(s) for s in self.excluded))

    @property
    def member_level(self) -> int:
        return self.base.level + 1 + len(self.tail)

    def allowed_member(self, step: Step) -> Optional[Point]:
        """The member at `step`, or None when the step is excluded."""
        step = normalize_step(step)
        if not self._fits(self.base.level, step):
            return None
        return Point(self.base.steps + (step, *self.tail))

    def is_member(self, beta: Point) -> bool:
        if beta.level != self.member_level:
            return False
        return self._pattern_match(beta.steps)

    def downset_member(self, beta: Point) -> bool:
        if beta.level <= self.base.level:
            return is_prefix(beta, self.base)
        if beta.level > self.member_level:
            return False
        return self._pattern_match(beta.steps)

    def _pattern_match(self, steps: Sequence[Step]) -> bool:
        """Whether a path of at most member length starts a member's path."""
        return len(steps) > self.base.level and all(
            self._fits(index, step) for index, step in enumerate(steps))

    def _fits(self, index: int, step: Step) -> bool:
        """Whether some member's path may have `step` at `index`: the base
        or tail step there, or at the free index any step not excluded."""
        expected = _fiber_pattern(self, index)
        if expected is _FREE:
            return step not in self.excluded
        return step == expected

    def has_ray_tail(self) -> bool:
        """Whether members sit inside the order valuation of the base,
        that is, whether they are proximate to it."""
        return is_ray_tail(self.tail)

    def sample_members(self, limit: int = 5) -> List[Point]:
        out: List[Point] = []
        value = Fraction(0)
        while len(out) < limit:
            point = self.allowed_member(value)
            if point is not None:
                out.append(point)
            value += 1
        point = self.allowed_member(INF)
        if point is not None:
            out.append(point)
        return out

    def describe(self) -> str:
        text = f"the fiber over {self.base}"
        if self.tail:
            text += " with tail [" + ", ".join(
                format_step(s) for s in self.tail) + "]"
        if self.excluded:
            names = sorted(format_step(s) for s in self.excluded)
            text += " excluding {" + ", ".join(names) + "}"
        return text


@dataclass(frozen=True)
class Chain:
    """The prefix points of a minimal valuation's path from a level on."""

    valuation: _MinimalBase
    from_level: int = 1

    kind = "chain"

    def __post_init__(self):
        if not isinstance(self.valuation, _MinimalBase):
            raise InputError("chains follow a minimal valuation's path")
        if self.from_level < 0:
            raise InputError("from_level must be nonnegative")

    def member(self, level: int) -> Point:
        if level < self.from_level:
            raise InputError(f"chain members start at level {self.from_level}")
        return self.valuation.point_at(level)

    def is_member(self, beta: Point) -> bool:
        if beta.level < self.from_level:
            return False
        return self.valuation.ring_contains(beta)

    def downset_member(self, beta: Point) -> bool:
        # Members are cofinal in the path, so every path prefix qualifies.
        return self.valuation.ring_contains(beta)

    def describe(self) -> str:
        return (f"the chain along {self.valuation!r} "
                f"from level {self.from_level}")


@dataclass(frozen=True)
class Siblings:
    """One off-path child at every level of a minimal valuation's path.

    At level i >= 1 the path continues with some step s; the member here is
    the sibling child at step s + offset instead (an infinity step is
    replaced by the offset itself).  A nonzero offset guarantees that every
    member leaves the path at its last step."""

    valuation: _MinimalBase
    offset: Fraction = Fraction(1)

    kind = "siblings"

    def __post_init__(self):
        if not isinstance(self.valuation, _MinimalBase):
            raise InputError("siblings deviate from a minimal valuation's path")
        object.__setattr__(self, "offset", Fraction(self.offset))
        if self.offset == 0:
            raise InputError("offset must be nonzero")

    def sibling_step(self, level: int) -> Step:
        step = self.valuation.step_at(level)
        return self.offset if is_inf(step) else step + self.offset

    def member(self, index: int) -> Point:
        if index < 1:
            raise InputError("sibling members are indexed from 1")
        return self.valuation.point_at(index).child(self.sibling_step(index))

    def is_member(self, beta: Point) -> bool:
        deviation = beta.level - 1
        if deviation < 1:
            return False
        return (self.valuation.agreement(beta.steps[:-1]) == deviation
                and beta.steps[deviation] == self.sibling_step(deviation))

    def downset_member(self, beta: Point) -> bool:
        return self.valuation.ring_contains(beta) or self.is_member(beta)

    def describe(self) -> str:
        return (f"the level-wise siblings of {self.valuation!r} "
                f"at offset {self.offset}")


Family = Singleton | Fiber | Chain | Siblings
FamilySet = tuple[Family, ...]


def family_parts(family) -> FamilySet:
    """Accept a single family or any iterable of them."""
    if isinstance(family, (Singleton, Fiber, Chain, Siblings)):
        return (family,)
    parts = tuple(family)
    for part in parts:
        if not isinstance(part, (Singleton, Fiber, Chain, Siblings)):
            raise InputError(f"not a family: {part!r}")
    return parts


def member(family, beta: Point) -> bool:
    return any(part.is_member(beta) for part in family_parts(family))


def downset_member(family, beta: Point) -> bool:
    """Whether beta lies below (or at) some member of the family."""
    return any(part.downset_member(beta) for part in family_parts(family))


def q1_downset_count(family, alpha: Point) -> Count:
    """How many children of alpha lie in the family's downset.

    The count is infinite exactly when some fiber part is based at alpha:
    all but finitely many of its members pass through distinct children.
    Every other part meets the first neighborhood of alpha in at most two
    points, so the total is otherwise a small integer."""
    children: Set[Point] = set()
    for part in family_parts(family):
        contribution = _q1_children(part, alpha)
        if contribution is INFINITE:
            return INFINITE
        children.update(contribution)
    return len(children)


def _q1_children(part: Family, alpha: Point):
    if isinstance(part, Singleton):
        gamma = part.point
        if gamma.level > alpha.level and is_prefix(alpha, gamma):
            return {gamma.ancestor(alpha.level + 1)}
        return set()
    if isinstance(part, Fiber):
        if alpha == part.base:
            return INFINITE
        if alpha.level < part.base.level:
            if is_prefix(alpha, part.base):
                return {part.base.ancestor(alpha.level + 1)}
            return set()
        if alpha.level + 1 <= part.member_level and part.downset_member(alpha):
            offset = alpha.level - part.base.level - 1
            return {alpha.child(part.tail[offset])}
        return set()
    if isinstance(part, Chain):
        if part.downset_member(alpha):
            return {alpha.child(part.valuation.step_at(alpha.level))}
        return set()
    if isinstance(part, Siblings):
        if not part.valuation.ring_contains(alpha):
            return set()
        out = {alpha.child(part.valuation.step_at(alpha.level))}
        if alpha.level >= 1:
            out.add(alpha.child(part.sibling_step(alpha.level)))
        return out
    raise InputError(f"not a family: {part!r}")


def pairwise_incomparable(family) -> bool:
    """Whether no member of the set is a proper prefix of another.

    Decided symbolically from the four shapes: fibers and siblings are
    internally incomparable, chains never are, and cross-part pairs reduce
    to finite pattern matching.  Two paths are compared exactly
    (`_MinimalBase.same_path`); distinct paths are walked only to their
    first difference."""
    parts = family_parts(family)
    for part in parts:
        if isinstance(part, Chain):
            return False
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if _parts_comparable(parts[i], parts[j]):
                return False
    return True


def _parts_comparable(a: Family, b: Family) -> bool:
    if isinstance(a, Singleton):
        return _point_comparable(b, a.point)
    if isinstance(b, Singleton):
        return _point_comparable(a, b.point)
    if isinstance(a, Fiber) and isinstance(b, Fiber):
        return _fibers_comparable(a, b)
    if isinstance(a, Fiber):
        return _fiber_path_comparable(a, b)
    if isinstance(b, Fiber):
        return _fiber_path_comparable(b, a)
    return _path_parts_comparable(a, b)


def _point_comparable(part: Family, gamma: Point) -> bool:
    """Whether some member of the part is strictly above or below gamma."""
    if isinstance(part, Singleton):
        other = part.point
        return other != gamma and (is_prefix(other, gamma)
                                   or is_prefix(gamma, other))
    if isinstance(part, Fiber):
        if gamma.level < part.member_level:
            return part.downset_member(gamma)
        if gamma.level > part.member_level:
            return part._pattern_match(gamma.steps[:part.member_level])
        return False
    if isinstance(part, Chain):
        agreement = part.valuation.agreement(gamma.steps)
        if agreement == gamma.level:
            # On the path: strictly below the deeper members.
            return True
        return part.from_level <= agreement
    if isinstance(part, Siblings):
        agreement = part.valuation.agreement(gamma.steps)
        if agreement == gamma.level:
            return True  # on the path, hence below every deep member
        # gamma leaves the path at index `agreement`; the only member
        # comparable with it is the one deviating at that same index, and
        # gamma is strictly below it when it extends it.
        deviation = agreement
        return (deviation >= 1 and gamma.steps[deviation] == part.sibling_step(deviation)
                and gamma.level > deviation + 1)
    raise InputError(f"not a family: {part!r}")


_FREE = object()


def _fiber_pattern(fiber: Fiber, index: int):
    """Step at a pattern position: a constant or the free-slot marker."""
    base_len = fiber.base.level
    if index < base_len:
        return fiber.base.steps[index]
    if index == base_len:
        return _FREE
    return fiber.tail[index - base_len - 1]


def _fibers_comparable(a: Fiber, b: Fiber) -> bool:
    la, lb = a.member_level, b.member_level
    if la == lb:
        return False
    short, long_ = (a, b) if la < lb else (b, a)
    for index in range(short.member_level):
        s, t = _fiber_pattern(short, index), _fiber_pattern(long_, index)
        if s is _FREE and t is _FREE:
            continue  # cofinitely many shared values remain
        if not (long_._fits(index, s) if t is _FREE else short._fits(index, t)):
            return False
    return True


def _path_pattern_agreement(fiber: Fiber, v: _MinimalBase) -> int:
    """Longest pattern prefix the path satisfies (up to member length)."""
    for index in range(fiber.member_level):
        if not fiber._fits(index, v.step_at(index)):
            return index
    return fiber.member_level


def _fiber_path_comparable(fiber: Fiber, part: Family) -> bool:
    v = part.valuation
    lf = fiber.member_level
    if isinstance(part, Chain):
        agreement = _path_pattern_agreement(fiber, v)
        if agreement == lf:
            # The fiber member on the path is a proper prefix of deep
            # chain members.
            return True
        # A chain member strictly inside a fiber member:
        return part.from_level <= min(agreement, lf - 1)
    if isinstance(part, Siblings):
        agreement = _path_pattern_agreement(fiber, v)
        if agreement == lf:
            return True  # on-path fiber member sits below deep siblings
        # A sibling strictly inside a fiber member: deviation at index
        # i <= lf - 2 (a deviation at lf - 1 would give equal levels,
        # which is at worst coincidence, not proper containment).
        return any(fiber._fits(i, part.sibling_step(i))
                   for i in range(1, min(agreement, lf - 2) + 1))
    raise InputError(f"not a family: {part!r}")


def _path_parts_comparable(a: Family, b: Family) -> bool:
    va, vb = a.valuation, b.valuation
    a_chain = isinstance(a, Chain)
    b_chain = isinstance(b, Chain)
    if va.same_path(vb):
        # Chain members are nested across the parts and sit below the deep
        # siblings.  Two sibling parts on one path never nest: the offsets
        # move every deviating step off the shared path.
        return a_chain or b_chain
    # the paths differ, so this walk ends at their first difference
    agreement = vb.agreement(map(va.step_at, itertools.count()))
    if a_chain and b_chain:
        return a.from_level <= agreement or b.from_level <= agreement
    if a_chain or b_chain:
        chain, sib = (a, b) if a_chain else (b, a)
        if chain.from_level <= agreement:
            return True
        # A sibling member lying on the chain's path:
        return any(sib.sibling_step(i) == chain.valuation.step_at(i)
                   for i in range(1, agreement + 1))
    # Siblings against siblings: a member of one is a proper prefix of a
    # member of the other only when its deviating step coincides with the
    # other path's own step there.
    return any(a.sibling_step(i) == vb.step_at(i) or b.sibling_step(i) == va.step_at(i)
               for i in range(1, agreement + 1))
