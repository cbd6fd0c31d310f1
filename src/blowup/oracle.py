"""Membership oracles for intersection rings of point families.

A family U of tree points determines the ring O_U of elements lying in
every member's local ring.  O_U is usually not finitely generated, so it
exists here only through questions:

  * is a given element of k(x, y) in O_U?  (`in_family`, with the scalar
    parameter a handled uniformly: the verdict is generic in a with the
    finitely many exceptional values decided one by one)
  * is a given member the only one inside some curve valuation?
    (`irredundance_certificate`, the tool for showing a representation
    O_U = cap of members has no redundant member)
  * for the monomial subrings D[y^2/x, ..., y^n/x^(n-1)]: is a monomial
    in the subring?  (`semigroup_member` on exponent vectors)

Membership of f in the ring at a point is read off the reduced expressed
fraction: the point's ring is a localization of a polynomial ring in its
two parameters at the origin, so f belongs to it exactly when the reduced
denominator does not vanish there, i.e. the position is Zero or Unit.

For a fiber the free step is the symbol t, and the zero set of the
expressed denominator's constant part c(a, t) carries every possible
membership failure: away from it the specialized denominator keeps a unit
constant term.  The analysis splits c into factors in t alone (suspicious
members, checked for all a at once), factors in a alone (candidate
parameter values, rechecked concretely), and mixed factors, which are
followed along their rational parameterization when one variable appears
linearly.  Specializing can cancel further common factors, so candidates
are always rechecked with the specialized element; the symbolic pass only
decides the generic verdict and enumerates the places to look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import CertificateError, DepthCapError, InputError
from .families import (Chain, Family, Fiber, Siblings, Singleton,
                       family_parts)
from .families import member as family_member
from .poly import A, Poly, RatFunc, T, poly_gcd, rational_roots
from .position import (Position, _a_collapse_roots, position,
                       position_parametric)
from .tree import Point
from .valuations import WALK_CAP, FirstKind

_MEMBER = (Position.ZERO, Position.UNIT)

ExponentVector = Tuple[int, int]


def in_point(f: RatFunc, point: Point) -> bool:
    """Whether f lies in the local ring at the point."""
    if f.has_slot(T):
        raise InputError("the symbol t is reserved for fiber steps")
    return position(point, f) in _MEMBER


@dataclass
class MembershipAnswer:
    """Verdict of `in_family`, uniform in the parameter a.

    `yes` and `no` hold for every value of a (for all but finitely many
    when the exceptions or flags say so); `yes_except` lists the values
    of a whose verdict differs from the generic yes.  A no always carries
    a member point where the element fails: for a chain its first member,
    for siblings the first failing member in index order.  Chain and sibling
    parts are decided exactly, so the flags only qualify fiber analyses
    and values of a where the element is undefined.
    """

    verdict: str
    exceptions: Dict[Fraction, str] = field(default_factory=dict)
    witness: Optional[Point] = None
    flags: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.verdict == "yes"


def in_family(f: RatFunc, family) -> MembershipAnswer:
    """Membership of f in the intersection ring of the family.

    Every part is decided exactly:

      * a chain's rings grow along the path, so its intersection is the
        ring at its first member;
      * sibling member i is a child of the path point P_i, so its ring
        contains O_{P_i}.  The walk goes down the path and checks member
        i before classifying f at P_i.  Once f is a zero or a unit at
        some P_L, every later member contains it; once f is a pole at P_L,
        member max(L, 1) dominates P_L and is the witness.  f settles on
        every path (the union is a valuation ring); the walk stops with
        `DepthCapError` past level `WALK_CAP` (64) all the same;
      * fibers are decided symbolically for every member at once.

    For f carrying a, the same rules decide the generic value, and the
    finitely many values of a where some visited position differs are
    rechecked with the specialized element.
    """
    if f.has_slot(T):
        raise InputError("the symbol t is reserved for fiber steps")
    parts = family_parts(family)
    if f.is_zero:
        return MembershipAnswer("yes")
    candidates: Set[Fraction] = set()
    flags: List[str] = []
    ok, witness = _check(f, parts, candidates, flags)
    if not ok:
        return MembershipAnswer("no", {}, witness, tuple(flags))

    exceptions: Dict[Fraction, str] = {}
    first_witness: Optional[Point] = None
    undefined = set(_a_collapse_roots(f.den))
    for a0 in sorted(candidates - undefined):
        special = RatFunc(f.num.subst_const(A, a0), f.den.subst_const(A, a0))
        ok, witness = _check(special, parts, set(), flags)
        if not ok:
            exceptions[a0] = "no"
            if first_witness is None:
                first_witness = witness
    if undefined:
        flags.append("element undefined at a = " +
                     ", ".join(str(v) for v in sorted(undefined)))
    if exceptions:
        return MembershipAnswer("yes_except", exceptions, first_witness,
                                tuple(flags))
    return MembershipAnswer("yes", {}, None, tuple(flags))


def _check(f: RatFunc, parts: Sequence[Family], candidates: Set[Fraction],
           flags: List[str]) -> Tuple[bool, Optional[Point]]:
    """The (generic) verdict over every part, with the first failing member."""
    for part in parts:
        if isinstance(part, Fiber):
            if f.has_slot(A):
                ok, witness = _fiber_parametric(f, part, candidates, flags)
            else:
                ok, witness = _fiber_concrete(f, part)
        elif isinstance(part, Siblings):
            ok, witness = _sibling_walk(f, part, candidates)
        else:
            # a chain's rings grow along its path: the first member decides
            witness = (part.point if isinstance(part, Singleton)
                       else part.member(part.from_level))
            ok = _position(witness, f, candidates) in _MEMBER
        if not ok:
            return False, witness
    return True, None


def _position(point: Point, f: RatFunc, candidates: Set[Fraction]) -> Position:
    """Position of f at the point; for f carrying a the generic one, with
    the values of a where f is not in the ring added to `candidates`."""
    if not f.has_slot(A):
        return position(point, f)
    pp = position_parametric(point, f)
    _collect_exceptions(pp, candidates)
    return pp.generic


def _sibling_walk(f: RatFunc, part: Siblings, candidates: Set[Fraction],
                  ) -> Tuple[bool, Optional[Point]]:
    for level in range(WALK_CAP + 1):
        # member i before P_i: the first failing member is the witness
        if level >= 1:
            beta = part.member(level)
            if _position(beta, f, candidates) not in _MEMBER:
                return False, beta
        pos = _position(part.valuation.point_at(level), f, candidates)
        if pos in _MEMBER:
            return True, None
        if pos is Position.POLE:
            return False, part.member(max(level, 1))
    raise DepthCapError(
        f"position of {f} along the path of {part.describe()} did not "
        f"settle within {WALK_CAP} steps")


# -- fibers ------------------------------------------------------------------


def _fiber_concrete(f: RatFunc, fiber: Fiber) -> Tuple[bool, Optional[Point]]:
    expressed = fiber.symbolic_member().express(f)
    den_const = expressed.den.xy_constant_part()
    if den_const.is_zero:
        return False, _failing_member(fiber, f)
    if den_const.has_slot(T):
        for t0 in rational_roots(den_const, T):
            beta = _allowed_member(fiber, t0)
            if beta is not None and not in_point(f, beta):
                return False, beta
    inf_member = fiber.inf_member()
    if inf_member is not None and not in_point(f, inf_member):
        return False, inf_member
    return True, None


def _allowed_member(fiber: Fiber, step: Fraction) -> Optional[Point]:
    try:
        return fiber.member(step)
    except InputError:
        return None


def _failing_member(fiber: Fiber, f: RatFunc) -> Point:
    """A concrete member where a generically failing element fails.

    Generic failure means failure at all but finitely many steps, so a
    short scan cannot miss."""
    parametric = f.has_slot(A)
    value = Fraction(0)
    for _ in range(16):
        beta = _allowed_member(fiber, value)
        value += 1
        if beta is None:
            continue
        if parametric:
            if position_parametric(beta, f).generic not in _MEMBER:
                return beta
        elif not in_point(f, beta):
            return beta
    raise AssertionError("generic failure without a failing member")


def _collect_exceptions(pp, candidates: Set[Fraction]) -> None:
    for a0, pos in pp.exceptional.items():
        if pos not in _MEMBER:
            candidates.add(a0)


def _fiber_parametric(f: RatFunc, fiber: Fiber, candidates: Set[Fraction],
                      flags: List[str]) -> Tuple[bool, Optional[Point]]:
    expressed = fiber.symbolic_member().express(f)
    den_const = expressed.den.xy_constant_part()
    if den_const.is_zero:
        return False, _failing_member(fiber, f)

    t_suspects: Set[Fraction] = set()
    for factor in _split_locus(den_const, candidates, t_suspects):
        ok, witness = _mixed_factor(factor, expressed, fiber, candidates,
                                    flags, f)
        if not ok:
            return False, witness

    for t0 in sorted(t_suspects):
        beta = _allowed_member(fiber, t0)
        if beta is None:
            continue
        pp = position_parametric(beta, f)
        if pp.generic not in _MEMBER:
            return False, beta
        _collect_exceptions(pp, candidates)

    inf_member = fiber.inf_member()
    if inf_member is not None:
        pp = position_parametric(inf_member, f)
        if pp.generic not in _MEMBER:
            return False, inf_member
        _collect_exceptions(pp, candidates)
    return True, None


def _split_locus(locus: Poly, candidates: Set[Fraction],
                 t_suspects: Set[Fraction]) -> List[Poly]:
    """Split the zero locus of a nonzero poly in (a, t) into handlers.

    Roots in t alone land in `t_suspects`, roots in a alone in
    `candidates`; genuinely mixed parts are returned for the curve
    analysis."""
    if not locus.has_slot(A):
        if locus.has_slot(T):
            t_suspects.update(rational_roots(locus, T))
        return []
    if not locus.has_slot(T):
        candidates.update(rational_roots(locus, A))
        return []
    t_content = _coefficient_gcd(locus.coeffs_in(A).values())
    if t_content.has_slot(T):
        t_suspects.update(rational_roots(t_content, T))
    primitive = locus.divmod_exact(t_content)
    assert primitive is not None
    a_content = _coefficient_gcd(primitive.coeffs_in(T).values())
    if a_content.has_slot(A):
        candidates.update(rational_roots(a_content, A))
    core = primitive.divmod_exact(a_content)
    assert core is not None
    if core.is_constant:
        return []
    return [core]


def _coefficient_gcd(polys: Iterable[Poly]) -> Poly:
    acc: Optional[Poly] = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.is_constant:
            break
    assert acc is not None
    return acc


def _mixed_factor(factor: Poly, expressed: RatFunc, fiber: Fiber,
                  candidates: Set[Fraction], flags: List[str], f: RatFunc,
                  ) -> Tuple[bool, Optional[Point]]:
    """Handle a denominator-constant factor involving both a and t.

    Solving the linear variable turns the factor into a rational curve
    t -> (rho(t), t) or a -> (a, sigma(a)); substituting the solved
    variable into the expressed form classifies the element along the
    whole curve at once."""
    if factor.degree(T) == 1:
        parts = factor.coeffs_in(T)
        u = parts[1]
        v = parts.get(0, Poly.zero())
        if u.has_slot(A):
            candidates.update(rational_roots(u, A))
        diagonal = expressed.subst_ratfunc(T, RatFunc(-v, u))
        const = diagonal.den.xy_constant_part()
        if const.is_zero:
            # for all but finitely many a the element fails at the member
            # step matched to a by this factor
            witness = _diagonal_witness(fiber, u, v, f)
            flags.append(
                "failure occurs at the member step matched to each "
                "parameter value by " + str(factor))
            return False, witness
        if const.has_slot(A):
            candidates.update(rational_roots(const, A))
        return True, None

    if factor.degree(A) == 1:
        parts = factor.coeffs_in(A)
        u = parts[1]
        w = parts.get(0, Poly.zero())
        shared = poly_gcd(u, w)
        if shared.has_slot(T):
            # steps killing the whole factor: suspicious for every a
            for t0 in rational_roots(shared, T):
                beta = _allowed_member(fiber, t0)
                if beta is not None:
                    pp = position_parametric(beta, f)
                    if pp.generic not in _MEMBER:
                        return False, beta
                    _collect_exceptions(pp, candidates)
        curve = expressed.subst_ratfunc(A, RatFunc(-w, u))
        const = curve.den.xy_constant_part()
        if const.is_zero:
            if u.is_constant and w.degree(T) <= 1:
                # a = rho(t) is an affine bijection, so the failing values
                # of a are all but finitely many
                witness = _linear_curve_witness(fiber, u, w, f)
                flags.append(
                    "failure occurs at the member step matched to each "
                    "parameter value by " + str(factor))
                return False, witness
            flags.append(
                "infinitely many parameter values fail along " + str(factor) +
                "; they are not a cofinite set, the verdict is generic only")
            return True, None
        if const.has_slot(T):
            for t0 in rational_roots(const, T):
                u0 = u.subst_const(T, t0)
                if u0.is_zero:
                    continue
                a0 = -w.subst_const(T, t0).constant_value() / u0.constant_value()
                candidates.add(a0)
        return True, None

    flags.append(
        "coincidence locus " + str(factor) + " is nonlinear in both symbols; "
        "generic answer with sampled extra checks only")
    for sample in (Fraction(0), Fraction(1), Fraction(2)):
        beta = _allowed_member(fiber, sample)
        if beta is None:
            continue
        pp = position_parametric(beta, f)
        if pp.generic not in _MEMBER:
            return False, beta
        _collect_exceptions(pp, candidates)
    return True, None


def _diagonal_witness(fiber: Fiber, u: Poly, v: Poly, f: RatFunc) -> Point:
    """Failing member for a factor u(a)t + v(a), sampling the parameter."""
    for k in range(16):
        a0 = Fraction(k)
        un = u.subst_const(A, a0)
        if un.is_zero:
            continue
        t0 = -v.subst_const(A, a0).constant_value() / un.constant_value()
        beta = _allowed_member(fiber, t0)
        if beta is None:
            continue
        special = RatFunc(f.num.subst_const(A, a0), f.den.subst_const(A, a0))
        if not in_point(special, beta):
            return beta
    raise AssertionError("generic failure without a failing member")


def _linear_curve_witness(fiber: Fiber, u: Poly, w: Poly, f: RatFunc) -> Point:
    """Failing member for a factor u·a + w(t) with u constant, w linear."""
    for k in range(16):
        t0 = Fraction(k)
        beta = _allowed_member(fiber, t0)
        if beta is None:
            continue
        a0 = -w.subst_const(T, t0).constant_value() / u.constant_value()
        special = RatFunc(f.num.subst_const(A, a0), f.den.subst_const(A, a0))
        if not in_point(special, beta):
            return beta
    raise AssertionError("generic failure without a failing member")


# -- irredundance ------------------------------------------------------------


@dataclass
class IrredundanceCertificate:
    """Proof object: the valuation contains the member and nothing else.

    `uniqueness_domain` records how far the competitor check reached.
    Fibers are covered in full (the vanishing condition is polynomial in
    the free step).  Chains are covered in full: their rings grow along
    the path, so the first two members decide.  Sibling walks stop where
    the valuation leaves the path, or else at their stated depth.
    """

    member: Point
    valuation: FirstKind
    uniqueness_domain: str


def irredundance_certificate(family, delta: Point,
                             candidates: Sequence[Poly],
                             depth: int = 12) -> IrredundanceCertificate:
    """Certify that delta is the only family member inside a curve valuation.

    Tries the candidate curves in order; the first one whose valuation
    contains delta's ring and provably no other member's wins.  With no
    winner a CertificateError lists what went wrong per candidate.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    parts = family_parts(family)
    if not family_member(parts, delta):
        raise InputError(f"{delta} is not a member of the family")
    obstructions: List[str] = []
    for h in candidates:
        if isinstance(h, RatFunc):
            if not h.is_polynomial:
                obstructions.append(f"{h}: not a polynomial")
                continue
            h = h.num
        if h.constant_term() != 0:
            obstructions.append(f"{h}: does not pass through the origin")
            continue
        valuation = FirstKind(h)
        if not valuation.ring_contains(delta):
            obstructions.append(f"{h}: its valuation does not contain {delta}")
            continue
        competitor = None
        for part in parts:
            competitor = _find_competitor(valuation, part, delta, depth)
            if competitor is not None:
                break
        if competitor is not None:
            obstructions.append(f"{h}: also contains {competitor}")
            continue
        return IrredundanceCertificate(delta, valuation,
                                       _uniqueness_domain(parts, depth))
    raise CertificateError("no candidate certifies uniqueness",
                           obstructions=tuple(obstructions))


def _find_competitor(valuation: FirstKind, part, delta: Point,
                     depth: int) -> Optional[str]:
    if isinstance(part, Singleton):
        if part.point != delta and valuation.ring_contains(part.point):
            return str(part.point)
        return None
    if isinstance(part, Fiber):
        return _fiber_competitor(valuation, part, delta)
    if isinstance(part, Chain):
        beta = part.member(part.from_level)
        if beta == delta:
            beta = part.member(part.from_level + 1)
        # the rings only grow down the path, so when this one does not fit
        # in the valuation, no deeper one does either
        return str(beta) if valuation.ring_contains(beta) else None
    for k in range(depth):
        index = 1 + k
        if not valuation.ring_contains(part.valuation.point_at(index)):
            # each sibling ring contains the path ring it branches from
            return None
        beta = part.member(index)
        if beta != delta and valuation.ring_contains(beta):
            return str(beta)
    return None


def _fiber_competitor(valuation: FirstKind, fiber: Fiber,
                      delta: Point) -> Optional[str]:
    transform = fiber.symbolic_member().strict_transform(valuation.h)
    condition = transform.xy_constant_part()
    if condition.is_zero:
        for beta in fiber.sample_members(3):
            if beta != delta and valuation.ring_contains(beta):
                return str(beta)
        return "every member (the vanishing condition is identically zero)"
    if condition.has_slot(T):
        for t0 in rational_roots(condition, T):
            beta = _allowed_member(fiber, t0)
            if beta is None or beta == delta:
                continue
            if valuation.ring_contains(beta):
                return str(beta)
    inf_member = fiber.inf_member()
    if inf_member is not None and inf_member != delta and \
            valuation.ring_contains(inf_member):
        return str(inf_member)
    return None


def _uniqueness_domain(parts: Sequence[Family], depth: int) -> str:
    pieces: List[str] = []
    for part in parts:
        if isinstance(part, Siblings):
            pieces.append(f"{part.describe()} to depth {depth}")
        elif isinstance(part, (Chain, Fiber)):
            pieces.append(f"every member of {part.describe()}")
        else:
            pieces.append(part.describe())
    return "; ".join(pieces)


# -- monomial subrings -------------------------------------------------------


def semigroup_member(target: ExponentVector,
                     generators: Sequence[ExponentVector]) -> bool:
    """Whether target is a nonnegative integer combination of generators.

    This decides membership of a monomial x^i y^j in the localization of
    the monomial subring k[x^g1 y^g2 : g in generators] at the ideal of
    its nonconstant monomials: if m·q lies in the subring for some q with
    nonzero constant term, the product of m with q's constant term is one
    of its monomials, so m is already in the semigroup.

    The search is exact.  When a linear functional is positive on every
    generator it bounds the coefficients directly; otherwise the walk is
    confined to a box around the target and the origin, with coordinates
    bounded by the coordinate sums involved.
    """
    if not generators:
        raise InputError("generator list must not be empty")
    gens = [(int(g[0]), int(g[1])) for g in generators]
    goal = (int(target[0]), int(target[1]))
    if goal == (0, 0):
        return True
    gens = [g for g in gens if g != (0, 0)]
    if not gens:
        return False
    functional = _positive_functional(gens)
    if functional is not None:
        return _budget_search(goal, gens, functional)
    return _box_search(goal, gens)


def _positive_functional(gens: Sequence[ExponentVector],
                         ) -> Optional[Tuple[int, int]]:
    for p in range(-4, 5):
        for q in range(-4, 5):
            if (p or q) and all(p * g1 + q * g2 >= 1 for g1, g2 in gens):
                return (p, q)
    return None


def _budget_search(goal: ExponentVector, gens: List[ExponentVector],
                   functional: Tuple[int, int]) -> bool:
    p, q = functional
    weights = [p * g1 + q * g2 for g1, g2 in gens]
    budget = p * goal[0] + q * goal[1]
    if budget < 0:
        return False
    memo: Dict[Tuple[int, int, int], bool] = {}

    def reachable(index: int, v1: int, v2: int) -> bool:
        if v1 == 0 and v2 == 0:
            return True
        if index == len(gens):
            return False
        key = (index, v1, v2)
        known = memo.get(key)
        if known is not None:
            return known
        g1, g2 = gens[index]
        w = weights[index]
        count = 0
        result = False
        while count * w <= p * v1 + q * v2:
            if reachable(index + 1, v1 - count * g1, v2 - count * g2):
                result = True
                break
            count += 1
        memo[key] = result
        return result

    return reachable(0, goal[0], goal[1])


def _box_search(goal: ExponentVector, gens: List[ExponentVector]) -> bool:
    reach = max(abs(g1) + abs(g2) for g1, g2 in gens)
    bound = (abs(goal[0]) + abs(goal[1]) + 1) * (reach + 1)
    seen = {goal}
    frontier = [goal]
    while frontier:
        v1, v2 = frontier.pop()
        for g1, g2 in gens:
            nxt = (v1 - g1, v2 - g2)
            if nxt == (0, 0):
                return True
            if abs(nxt[0]) > bound or abs(nxt[1]) > bound or nxt in seen:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return False
