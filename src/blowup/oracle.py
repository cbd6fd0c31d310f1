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

One route serves elements with and without a: without it, an element is
the parametric case with no exceptional values.  A point is classified
in one chart, where f settles or where a walk carries it; `a_candidates`
reads the values of a where that class may differ off the same chart.
For a fiber the free step is the symbol t, and the zero set of the
expressed denominator's constant part c(a, t) carries every possible
membership failure: away from it the specialized denominator keeps a
unit constant term.  The analysis splits c into factors in t alone
(suspicious members, checked for all a at once), factors in a alone
(candidate parameter values), and the square-free rest, whose factors
are followed along their rational parameterization when one variable
appears linearly.  Specializing can cancel further common factors, so
`in_family` alone decides each candidate with the specialized element;
the symbolic pass only decides the generic verdict and enumerates the
places to look.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import count
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import CertificateError, InputError
from .expr import INF, Step
from .families import (Chain, Family, Fiber, Siblings, Singleton,
                       family_parts)
from .families import member as family_member
from .poly import A, Poly, RatFunc, T, coefficient_gcd, poly_gcd, rational_roots, xy_order
from .position import (FirstNeighborhood, Position, _a_collapse_roots, _form_vanishes,
                       _integer_form, a_candidates, classify_expressed, settle)
from .tree import TSYM, Point, express_step, strict_walk
from .valuations import FirstKind

_MEMBER = (Position.ZERO, Position.UNIT)

ExponentVector = Tuple[int, int]


def in_point(f: RatFunc, point: Point) -> bool:
    """Whether f lies in the local ring at the point: a zero or a unit at
    its first decided point on the way there (`settle`)."""
    if f.has_slot(T):
        raise InputError("the symbol t is reserved for fiber steps")
    if f.has_slot(A):
        raise InputError("element carries the parameter a; use the parametric form")
    return settle(f, point.steps)[0] in _MEMBER


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
        contains O_{P_i}.  The walk carries f's chart down the path one
        step a level.  Once f is a zero or a unit at some P_L, every later
        member contains it; once f is a pole at P_L, member max(L, 1)
        dominates P_L and is the witness; while f is undetermined at P_L,
        member L is classified off the lowest forms of its chart, or one
        step off it for f with a.  f settles on every path (the union is a
        valuation ring); the walk stops with `DepthCapError` at P_64
        (`WALK_CAP`), its open point, all the same;
      * fibers are decided symbolically for every member at once.

    For f carrying a, the same rules decide the generic value, and here
    alone each value of a where some visited chart's class may differ is
    decided again with the specialized element.
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
        ok, witness = _check(f.subst_const(A, a0), parts, set(), flags)
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
            ok, witness = _fiber(f, part, candidates, flags)
        elif isinstance(part, Siblings):
            ok, witness = _sibling_walk(f, part, candidates)
        else:
            # a chain's rings grow along its path: the first member decides
            witness = (part.point if isinstance(part, Singleton)
                       else part.member(part.from_level))
            ok = _position(f, settle(f, witness.steps)[1], candidates) in _MEMBER
        if not ok:
            return False, witness
    return True, None


def _position(f: RatFunc, chart: RatFunc, candidates: Set[Fraction]) -> Position:
    """Generic class of f in a chart, f expressed at some point, with the
    values of a where it may differ added to `candidates`."""
    candidates.update(a_candidates(f, chart))
    return classify_expressed(chart)


def _sibling_walk(f: RatFunc, part: Siblings, candidates: Set[Fraction],
                  ) -> Tuple[bool, Optional[Point]]:
    chart, concrete = f, not f.has_slot(A)
    steps = part.valuation.walk(
        f"position of {f} along the path of {part.describe()} did not settle")
    for level in count():
        if level:
            chart = express_step(chart, next(steps))
        pos = _position(f, chart, candidates)
        if pos in _MEMBER:
            return True, None
        if pos is Position.POLE:
            return False, part.member(max(level, 1))
        if not level:
            continue
        # member L is one more step off P_L, where f is still undetermined:
        # a concrete f's class there is read off the lowest forms, while the
        # forms of an f with a have coefficients in a and take the step
        step = part.sibling_step(level)
        if concrete:
            pos = FirstNeighborhood(chart).child(step)
        else:
            pos = _position(f, express_step(chart, step), candidates)
        if pos not in _MEMBER:
            return False, part.member(level)


# -- fibers ------------------------------------------------------------------


def _failing_member(fiber: Fiber, pairs: Iterable[Tuple[Step, RatFunc]],
                    candidates: Set[Fraction]) -> Optional[Point]:
    """The first member base<s>·tail, over (s, g) pairs in order, where the
    generic position of g is not a member; excluded steps are skipped.

    A generic failure fails at all but finitely many steps, so a caller
    scanning for one may pass endless pairs: the scan ends."""
    for step, g in pairs:
        beta = fiber.allowed_member(step)
        if beta is not None and _position(g, settle(g, beta.steps)[1],
                                          candidates) not in _MEMBER:
            return beta
    return None


def _fiber(f: RatFunc, fiber: Fiber, candidates: Set[Fraction],
           flags: List[str]) -> Tuple[bool, Optional[Point]]:
    # every member at once: the free step is the symbol t
    expressed = reduce(express_step, (TSYM, *fiber.tail), fiber.base.express(f))
    den_const = expressed.den.xy_constant_part()
    if den_const.is_zero:
        return False, _failing_member(fiber, ((Fraction(k), f) for k in count()), candidates)

    t_suspects: Set[Fraction] = set()
    for factor in _split_locus(den_const, candidates, t_suspects):
        ok, witness = _mixed_factor(factor, expressed, fiber, candidates,
                                    flags, f)
        if not ok:
            return False, witness

    steps = [*sorted(t_suspects), INF]
    witness = _failing_member(fiber, ((s, f) for s in steps), candidates)
    return witness is None, witness


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
    t_content = coefficient_gcd(locus.coeffs_in(A).values())
    if t_content.has_slot(T):
        t_suspects.update(rational_roots(t_content, T))
    primitive = locus.divmod_exact(t_content)
    assert primitive is not None
    a_content = coefficient_gcd(primitive.coeffs_in(T).values())
    if a_content.has_slot(A):
        candidates.update(rational_roots(a_content, A))
    core = primitive.divmod_exact(a_content)
    assert core is not None
    if core.is_constant:
        return []
    # a repeated factor cuts out the same curve: keep each factor once
    square_free = core.divmod_exact(poly_gcd(core, core.derivative(T)))
    assert square_free is not None
    return [square_free]


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
        step = RatFunc(-v, u)
        diagonal = expressed.subst_ratfunc(T, step)
        const = diagonal.den.xy_constant_part()
        if const.is_zero:
            # for all but finitely many a the element fails at the member
            # step matched to a by this factor; scan a = 0, 1, 2, ... where
            # the step and the element are both defined
            dens = u * f.den
            witness = _failing_member(
                fiber, ((step.subst_const(A, a0).num.constant_term(),
                         f.subst_const(A, a0))
                        for a0 in map(Fraction, count())
                        if not dens.subst_const(A, a0).is_zero), candidates)
            flags.append(
                "failure occurs at the member step matched to each "
                "parameter value by " + str(factor))
            return False, witness
        if const.has_slot(A):
            candidates.update(rational_roots(const, A))
        return True, None

    if factor.degree(A) == 1:
        # the factor has degree at least 2 in t here, so a = rho(t) is never
        # a bijection of the steps
        parts = factor.coeffs_in(A)
        u = parts[1]
        w = parts.get(0, Poly.zero())
        shared = poly_gcd(u, w)
        if shared.has_slot(T):
            # steps killing the whole factor: suspicious for every a
            witness = _failing_member(
                fiber, ((t0, f) for t0 in rational_roots(shared, T)), candidates)
            if witness is not None:
                return False, witness
        curve = expressed.subst_ratfunc(A, RatFunc(-w, u))
        const = curve.den.xy_constant_part()
        if const.is_zero:
            flags.append(
                "infinitely many parameter values fail along " + str(factor) +
                "; they are not a cofinite set, the verdict is generic only")
            return True, None
        if const.has_slot(T):
            for t0 in rational_roots(const, T):
                u0 = u.subst_const(T, t0).constant_term()
                if u0:
                    candidates.add(-w.subst_const(T, t0).constant_term() / u0)
        return True, None

    flags.append(
        "coincidence locus " + str(factor) + " is nonlinear in both symbols; "
        "generic answer with sampled extra checks only")
    witness = _failing_member(
        fiber, ((Fraction(s), f) for s in range(3)), candidates)
    return witness is None, witness


# -- irredundance ------------------------------------------------------------


@dataclass
class IrredundanceCertificate:
    """Proof object: the valuation contains the member and nothing else.

    `uniqueness_domain` names the members the competitor check covered:
    all of them.  Fibers: the vanishing condition is polynomial in the
    free step.  Chains: their rings grow along the path, so the first two
    members decide.  Siblings: the walk down the path ends where the curve
    leaves it, or where its one branch left there follows it for good.
    """

    member: Point
    valuation: FirstKind
    uniqueness_domain: str


def irredundance_certificate(family, delta: Point,
                             candidates: Sequence[Poly]) -> IrredundanceCertificate:
    """Certify that delta is the only family member inside a curve valuation.

    Tries the candidate curves in order; the first one whose valuation
    contains delta's ring and provably no other member's wins.  With no
    winner a CertificateError lists what went wrong per candidate.
    """
    parts = family_parts(family)
    if not family_member(parts, delta):
        raise InputError(f"{delta} is not a member of the family")
    obstructions: List[str] = []
    for h in candidates:
        if h.constant_term() != 0:
            obstructions.append(f"{h}: does not pass through the origin")
            continue
        valuation = FirstKind(h)
        if not valuation.ring_contains(delta):
            obstructions.append(f"{h}: its valuation does not contain {delta}")
            continue
        competitor = None
        for part in parts:
            competitor = _find_competitor(valuation, part, delta)
            if competitor is not None:
                break
        if competitor is not None:
            obstructions.append(f"{h}: also contains {competitor}")
            continue
        return IrredundanceCertificate(delta, valuation, _uniqueness_domain(parts))
    raise CertificateError("no candidate certifies uniqueness",
                           obstructions=tuple(obstructions))


def _find_competitor(valuation: FirstKind, part, delta: Point) -> Optional[str]:
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
    return _sibling_competitor(valuation, part, delta)


def _sibling_competitor(valuation: FirstKind, part: Siblings,
                        delta: Point) -> Optional[str]:
    """The first sibling member other than delta on the curve h, carrying
    h's strict transform down the path one step per level.  Once the
    transform leaves the path no later sibling lies on h; once it is
    smooth, one branch is left, and if that branch follows the path for
    good (`on_curve`) it meets no sibling either.  The transform can grow
    at every level, so `strict_walk` charges each path step to the chart
    budget.  Member L lies on h when the lowest form of the transform at
    P_L vanishes in its direction, as in `FirstNeighborhood.child`: no
    step is taken to a sibling."""
    path, h = part.valuation, valuation.h
    smooth = False
    transforms = strict_walk(h, path.walk(
        f"the strict transform of {h} did not leave the path of {part.describe()}"))
    for level, (strict, _) in enumerate(transforms):
        order = xy_order(strict)
        if order < 1:
            return None
        if order == 1 and not smooth:
            smooth = True
            if path.on_curve(h):
                return None
        if level and part.member(level) != delta:
            if _form_vanishes(_integer_form(strict)[0], part.sibling_step(level)):
                return str(part.member(level))


def _fiber_competitor(valuation: FirstKind, fiber: Fiber,
                      delta: Point) -> Optional[str]:
    # every member at once, on a transform charged step by step
    for transform, _ in strict_walk(valuation.h, (*fiber.base.steps, TSYM, *fiber.tail)):
        pass
    condition = Poly(transform).xy_constant_part()
    if condition.is_zero:
        for beta in fiber.sample_members(3):
            if beta != delta and valuation.ring_contains(beta):
                return str(beta)
        return "every member (the vanishing condition is identically zero)"
    steps = rational_roots(condition, T) if condition.has_slot(T) else []
    for beta in map(fiber.allowed_member, [*steps, INF]):
        if beta is not None and beta != delta and valuation.ring_contains(beta):
            return str(beta)
    return None


def _uniqueness_domain(parts: Sequence[Family]) -> str:
    return "; ".join(part.describe() if isinstance(part, Singleton)
                     else f"every member of {part.describe()}" for part in parts)


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
        if len(gens) - index <= 2:
            # the last one or two generators are decided exactly
            return _pair_member((v1, v2), gens[index], gens[-1])
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


def _pair_member(v: ExponentVector, g: ExponentVector, h: ExponentVector) -> bool:
    """Whether v = c*g + e*h for integers c, e >= 0, where g and h (which may
    be equal) are positive under one functional.

    Independent g and h: c and e by Cramer's rule.  Parallel ones point the
    same way, g = m*d and h = n*d for the primitive d; then v must be k*d,
    and k = c*m + e*n has a solution iff the least c >= 0 with c*m = k mod n
    leaves e >= 0.
    """
    det = g[0] * h[1] - g[1] * h[0]
    if det:
        c = v[0] * h[1] - v[1] * h[0]
        e = g[0] * v[1] - g[1] * v[0]
        return not c % det and not e % det and c // det >= 0 and e // det >= 0
    m, n = gcd(*g), gcd(*h)
    d = (g[0] // m, g[1] // m)
    if v[0] * d[1] != v[1] * d[0]:
        return False
    k = v[0] // d[0] if d[0] else v[1] // d[1]
    r = gcd(m, n)
    if k < 0 or k % r:
        return False
    c = k // r * pow(m // r, -1, n // r) % (n // r)
    return c * m <= k


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
