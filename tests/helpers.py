"""Independent oracles used by the acceptance and property suites.

These deliberately avoid the package's own proximity formula: containment
of a tree ring inside an order valuation is decided here from first
principles, by scanning parameter monomials for a negative order and then
searching for a unit 1 + (combination of parameter monomials) whose order
is positive, via an exact linear system on expressed coefficients.  The
inverse of such a unit is an element of the smaller ring with negative
order, so finding one refutes containment; finding neither is evidence of
containment at the searched degree.
"""

import math
import random
from collections import deque
from fractions import Fraction
from functools import reduce
from typing import List, Optional, Tuple

from blowup.errors import ComputationError, DepthCapError, ResolveError
from blowup.expr import INF, is_inf
from blowup.families import (INFINITE, Chain, Fiber, Siblings, Singleton,
                             family_parts, q1_downset_count)
from blowup.poly import ROOT_SEARCH_LIMIT, Poly, RatFunc, T, X, Y, _pseudo_rem, poly_gcd
from blowup.position import (Position, Resolution, _candidate_steps, _StepSet,
                             classify_expressed)
from blowup.tree import Point, express_step, strict_step, transform_step
from blowup.valuations import MinimalCurveBranch, SecondKind


# -- chart data that only the tests read -------------------------------------


def params(point: Point) -> Tuple[RatFunc, RatFunc]:
    """The local parameters at `point`, as fractions in x, y."""
    px, py = RatFunc(Poly.variable(X)), RatFunc(Poly.variable(Y))
    for step in point.steps:
        if is_inf(step):
            px, py = py, px / py
        else:
            py = py / px - RatFunc(Poly.const(step))
    return px, py


def residue_of(steps, f: RatFunc) -> Poly:
    """Image of a ring element in the residue field at the end of `steps`.

    A constant polynomial along concrete steps; the symbolic step `TSYM`
    may give a polynomial in t.  Raises ValueError if f is not in the local
    ring, or lands outside the polynomial part of the residue field.
    """
    expressed = reduce(express_step, steps, f)
    num = expressed.num.xy_constant_part()
    den = expressed.den.xy_constant_part()
    if den.is_zero:
        raise ValueError("element is not in the local ring at this point")
    value = num.divmod_exact(den)
    if value is None:
        raise ValueError("residue is not polynomial in the symbolic direction")
    return value


def first_members(part, count: int) -> List[Point]:
    """The first `count` members of a family part: a chain's from its
    first level on, siblings 1 to `count`, a fiber's sample."""
    if isinstance(part, Singleton):
        return [part.point]
    if isinstance(part, Fiber):
        return part.sample_members(count)
    if isinstance(part, Chain):
        return [part.member(part.from_level + i) for i in range(count)]
    return [part.member(i) for i in range(1, count + 1)]


# Levels the path oracle walks; the curves and paths the tests draw part
# within 100 levels when they part at all.
REFERENCE_LEVELS = 120


def reference_same_path(v, other, levels: int = REFERENCE_LEVELS) -> bool:
    """Whether `other` follows the path of the minimal valuation v for
    `levels` levels, by brute force.

    A curve h (a `Poly`, or the curve of a curve branch) follows it when
    its strict transform, carried down the path one step at a time, still
    passes through the point at every level.  Two periodic paths follow
    each other when their first `levels` steps are equal.
    """
    if isinstance(v, MinimalCurveBranch) and not isinstance(other, Poly):
        v, other = other, v
    if isinstance(other, MinimalCurveBranch):
        other = other.h
    if not isinstance(other, Poly):
        return all(v.step_at(i) == other.step_at(i) for i in range(levels))
    strict = other
    for level in range(levels):
        if strict.xy_order() < 1:
            return False
        strict = strict_step(strict, v.step_at(level))
    return strict.xy_order() >= 1


def curve_along(prefix, period, n: int = 0, times_y: bool = False) -> Poly:
    """A curve through the periodic path prefix + period (finite steps).

    At the prefix point the path is the branch y = B(x) / (1 - x^p) of
    (1 - x^p) y - B(x), B = b_1 x + ... + b_p x^p, in that point's chart;
    with n > 0 the chart curve gains x^n, or x^n y with `times_y`, and
    follows the path only so far.  The chart curve is pulled back to the
    root as the numerator of its value at the chart's parameters.
    """
    px, py = params(Point.from_path(prefix))
    one = RatFunc(Poly.const(1))
    curve = (one - px ** len(period)) * py
    for i, b in enumerate(period, 1):
        curve = curve - RatFunc(Poly.const(b)) * px ** i
    if n:
        curve = curve + px ** n * (py if times_y else one)
    return curve.num


def _poly_lcm(a: Poly, b: Poly) -> Poly:
    quotient = b.divmod_exact(poly_gcd(a, b))
    assert quotient is not None
    return a * quotient


def _solve_affine(rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """One solution of rows * c = rhs over the rationals, or None."""
    m = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = m[r][col]
        m[r] = [v / scale for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(m)):
        if m[i][-1] != 0:
            return None
    solution = [Fraction(0)] * cols
    for row_index, col in enumerate(pivots):
        solution[col] = m[row_index][-1]
    return solution


def ord_contained(alpha: Point, beta: Point,
                  degree: int = 4) -> Tuple[bool, Optional[RatFunc]]:
    """Does the ring at beta sit inside the order valuation at alpha?

    Returns (verdict, witness): a witness is an element of the ring at
    beta with negative order at alpha.  The verdict True means no witness
    exists among parameter monomials of total degree <= degree and
    inverses of units built from them, which refutes every escape a
    bounded-degree element could provide.  Orders are additive on
    products, so a monomial in the parameters has negative order exactly
    when one of the parameters does.
    """
    px, py = params(beta)
    if alpha.ord_at(px) < 0:
        return False, px
    if alpha.ord_at(py) < 0:
        return False, py
    # no monomial in the parameters escapes; look for a unit
    # 1 + sum c*u^i*v^j with positive order, whose inverse then escapes.
    # Work with parameters already expressed in the chart at alpha, where
    # the order is plain order of vanishing at the origin.
    u = alpha.express(px)
    v = alpha.express(py)
    monomials = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if i == j == 0:
                continue
            if i == 0 and j == 1:
                g = v
            elif j == 0 and i == 1:
                g = u
            elif j == 0:
                g = monomials[(i - 1, 0)] * u
            else:
                g = monomials[(i, j - 1)] * v
            monomials[(i, j)] = g
    keys = sorted(monomials)
    common = Poly.const(1)
    for key in keys:
        common = _poly_lcm(common, monomials[key].den)
    numerators = []
    for key in keys:
        g = monomials[key]
        factor = common.divmod_exact(g.den)
        assert factor is not None
        numerators.append(g.num * factor)
    cut = common.xy_order()
    wanted = set()
    for p in numerators + [common]:
        for exps in p.terms:
            if exps[0] + exps[1] <= cut:
                wanted.add(exps)
    ordered = sorted(wanted)
    rows = [[p.terms.get(exps, Fraction(0)) for p in numerators]
            for exps in ordered]
    rhs = [-common.terms.get(exps, Fraction(0)) for exps in ordered]
    if not rows:
        return True, None
    solution = _solve_affine(rows, rhs)
    if solution is None:
        return True, None
    unit = RatFunc(Poly.const(1))
    for value, key in zip(solution, keys):
        if value:
            unit = unit + RatFunc(Poly.const(value)) * (_power(px, key[0]) * _power(py, key[1]))
    witness = RatFunc(unit.den, unit.num)
    assert alpha.ord_at(witness) < 0
    return False, witness


def _power(f: RatFunc, n: int) -> RatFunc:
    out = RatFunc(Poly.const(1))
    for _ in range(n):
        out = out * f
    return out


def proximate_by_containment(beta: Point, alpha: Point) -> bool:
    """Independent proximity decision: beta proximate to alpha means the
    ring at beta lies inside the order valuation at alpha."""
    return ord_contained(alpha, beta)[0]


def reference_express(steps, f: RatFunc) -> RatFunc:
    """f in the chart at the end of `steps`, the slow canonical way.

    The root coordinates x, y are written in that chart by folding
    `transform_step` over the steps, substituted into f, and the quotient
    is reduced by the gcd in the `RatFunc` constructor.  The steps may
    include the symbolic step `TSYM`.
    """
    down_x, down_y = Poly.variable(X), Poly.variable(Y)
    for step in steps:
        down_x, down_y = transform_step(down_x, step), transform_step(down_y, step)
    return RatFunc(f.num.subst_xy(down_x, down_y), f.den.subst_xy(down_x, down_y))


# -- gcds and fraction arithmetic without shortcuts -------------------------


def reference_gcd(p: Poly, q: Poly) -> Poly:
    """gcd(p, q) normalized to leading coefficient 1, with no modular image.

    The monomial content is split off; then, in the shared slot of least
    combined degree, the contents (gcds of the slot coefficients, by this
    same function) and a subresultant remainder sequence on the primitive
    parts.
    """
    if p.is_zero or q.is_zero:
        return (p + q).normalized()
    mp, mq = p.monomial_content(), q.monomial_content()
    common = Poly.monomial(tuple(map(min, mp, mq)))
    p = p.divmod_exact(Poly.monomial(mp))
    q = q.divmod_exact(Poly.monomial(mq))
    shared = set(p.slots_present()) & set(q.slots_present())
    if not shared:
        return common
    main = min(shared, key=lambda s: p.degree(s) + q.degree(s))
    cont_p = reduce(reference_gcd, p.coeffs_in(main).values())
    cont_q = reduce(reference_gcd, q.coeffs_in(main).values())
    pp_p, pp_q = p.divmod_exact(cont_p), q.divmod_exact(cont_q)
    if pp_p.degree(main) < pp_q.degree(main):
        pp_p, pp_q = pp_q, pp_p
    core = _reference_prs(pp_p, pp_q, main)
    return (reference_gcd(cont_p, cont_q) * core * common).normalized()


def _reference_prs(f: Poly, g: Poly, slot: int) -> Poly:
    """The primitive gcd of slot-primitive f and g, deg f >= deg g >= 1, by
    the subresultant remainder sequence (Brown and Traub, 1971)."""
    beta = psi = Poly.const(1)
    while True:
        delta = f.degree(slot) - g.degree(slot)
        rem = _pseudo_rem(f, g, slot)
        if rem.is_zero:
            return g.divmod_exact(reduce(reference_gcd, g.coeffs_in(slot).values()))
        if rem.degree(slot) == 0:
            return Poly.const(1)
        f, g = g, rem.divmod_exact(beta * _poly_power(psi, delta))
        beta = f.coeffs_in(slot)[f.degree(slot)]
        if delta == 1:
            psi = beta
        elif delta > 1:
            psi = _poly_power(beta, delta).divmod_exact(_poly_power(psi, delta - 1))


def _poly_power(p: Poly, n: int) -> Poly:
    return reduce(Poly.__mul__, [p] * n, Poly.const(1))


def reduced(num: Poly, den: Poly) -> RatFunc:
    """num/den divided by `reference_gcd`, with a monic denominator."""
    if num.is_zero:
        return RatFunc(num)
    g = reference_gcd(num, den)
    return RatFunc.coprime(num.divmod_exact(g), den.divmod_exact(g))


def reference_arithmetic(op: str, f: RatFunc, g) -> RatFunc:
    """f + g, f - g, f * g, f / g by cross-multiplying and reducing the
    result with `reference_gcd`; for op "^", f to the integer power g."""
    if op == "+":
        return reduced(f.num * g.den + g.num * f.den, f.den * g.den)
    if op == "-":
        return reduced(f.num * g.den - g.num * f.den, f.den * g.den)
    if op == "*":
        return reduced(f.num * g.num, f.den * g.den)
    if op == "/":
        return reduced(f.num * g.den, f.den * g.num)
    num, den = (f.num, f.den) if g >= 0 else (f.den, f.num)
    return reduced(_poly_power(num, abs(g)), _poly_power(den, abs(g)))


def subst_poly(p: Poly, slot: int, value: Poly) -> Poly:
    """Substitute an arbitrary polynomial for one slot."""
    powers = [Poly.const(1)]
    result = Poly()
    for exps, coeff in p.terms.items():
        lst = list(exps)
        k = lst[slot]
        lst[slot] = 0
        while len(powers) <= k:
            powers.append(powers[-1] * value)
        result = result + Poly.monomial(tuple(lst), coeff) * powers[k]
    return result


def _divisors(n: int) -> List[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _eval_univar(coeffs: List[Fraction], point: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


def reference_rational_roots(p: Poly, slot: int) -> List[Fraction]:
    """Rational roots, sorted, by the divisor search over Fractions: every
    ±n/d with n dividing the trailing and d the leading coefficient of the
    primitive integer polynomial is evaluated by Horner's rule."""
    coeffs = p.as_univariate(slot)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial has every root")
    roots: List[Fraction] = []
    low = 0
    while coeffs[low] == 0:
        low += 1
    if low:
        roots.append(Fraction(0))
        coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots
    if len(coeffs) == 2:
        return sorted(roots + [-coeffs[0] / coeffs[1]])
    denom_lcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    content = math.gcd(*ints)
    lead = abs(ints[-1]) // content
    trail = abs(ints[0]) // content
    if max(lead, trail) > ROOT_SEARCH_LIMIT:
        raise ComputationError(f"rational roots of {p}: divisor search too large")
    for num in _divisors(trail):
        for den in _divisors(lead):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand not in roots and _eval_univar(coeffs, cand) == 0:
                    roots.append(cand)
    return sorted(roots)


def reference_has_irrational_factor(p: Poly, slot: int) -> bool:
    """True when a univariate polynomial keeps positive degree after all
    rational roots, with multiplicity, are divided out one at a time by
    synthetic division."""
    coeffs = p.as_univariate(slot)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return False
    for root in reference_rational_roots(p, slot):
        while len(coeffs) > 1 and _eval_univar(coeffs, root) == 0:
            quotient = [coeffs[-1]]
            for c in reversed(coeffs[1:-1]):
                quotient.append(quotient[-1] * root + c)
            coeffs = quotient[::-1]
    return len(coeffs) > 1


def _lowest_slice(p: Poly) -> Poly:
    """The terms of p of minimal total degree in x and y."""
    order = p.xy_order()
    return Poly({e: c for e, c in p.terms.items() if e[X] + e[Y] == order})


def reference_candidate_steps(expressed: RatFunc) -> _StepSet:
    """`_candidate_steps` the slow canonical way: each lowest form becomes a
    polynomial in t by substitution (x -> 1, y -> t), its roots come from
    the Fraction divisor search, and a second search decides whether an
    irrational factor remains."""
    steps: set = set()
    irrational = False
    lowests = (_lowest_slice(expressed.num), _lowest_slice(expressed.den))
    for lowest in lowests:
        phi = subst_poly(lowest.subst_const(X, 1), Y, Poly.variable(T))
        if not phi.is_constant:
            steps.update(reference_rational_roots(phi, T))
        irrational = irrational or reference_has_irrational_factor(phi, T)
    ordered = tuple(sorted(steps))
    if any(lowest.min_exponent(X) > 0 for lowest in lowests):
        ordered += (INF,)
    gap = expressed.num.xy_order() - expressed.den.xy_order()
    return _StepSet(ordered, binding=gap <= 0, order_gap=gap, irrational=irrational)


def reference_resolve(f: RatFunc, max_depth: int = 16) -> Resolution:
    """`resolve` from the root the slow canonical way.

    The same breadth-first descent, but every visited point expresses f
    from the root instead of taking one step from its parent's chart.
    """
    zeros: List[Point] = []
    poles: List[Point] = []
    diagnostics: List[str] = []
    open_points: List[Point] = []
    depth_used = 0
    queue = deque([Point.root()])
    while queue:
        point = queue.popleft()
        depth_used = max(depth_used, point.level)
        expressed = point.express(f)
        pos = classify_expressed(expressed)
        if pos is Position.ZERO:
            zeros.append(point)
        elif pos is Position.POLE:
            poles.append(point)
        if pos is not Position.UNDETERMINED:
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
        if point.level >= max_depth:
            open_points.append(point)
            continue
        queue.extend(point.child(s) for s in step_set.steps)
    if open_points:
        raise DepthCapError(
            f"resolution of {f} still undetermined at depth {max_depth} "
            f"below {Point.root()}", open_points=open_points)
    return Resolution(tuple(zeros), tuple(poles), depth_used, tuple(diagnostics))


# -- seeded enumeration ------------------------------------------------------


DEFAULT_SEED = 20240817
STEP_ALPHABET = (Fraction(-1), Fraction(0), Fraction(1), INF)


def random_point(rng: random.Random, max_level: int = 6,
                 alphabet=STEP_ALPHABET) -> Point:
    level = rng.randint(1, max_level)
    return Point.from_path(rng.choice(alphabet) for _ in range(level))


def random_comparable_pair(rng: random.Random, max_level: int = 6,
                           alphabet=STEP_ALPHABET) -> Tuple[Point, Point]:
    """A point and one of its proper ancestors."""
    beta = random_point(rng, max_level, alphabet)
    alpha = beta.ancestor(rng.randint(0, beta.level - 1))
    return beta, alpha


def reference_patch_limit_points(family) -> tuple:
    """`topology.patch_limit_points` by enumeration: every prefix of every
    fiber base is a candidate, and it is a divisor limit when infinitely
    many of its children lie in the family's downset."""
    parts = family_parts(family)
    candidates = {part.base.ancestor(level) for part in parts
                  if isinstance(part, Fiber)
                  for level in range(part.base.level + 1)}
    divisors = [SecondKind(alpha) for alpha in sorted(candidates, key=str)
                if q1_downset_count(parts, alpha) is INFINITE]
    minimals: list = []
    for part in parts:
        if isinstance(part, (Chain, Siblings)):
            v = part.valuation
            if not any(v.same_path(seen) for seen in minimals):
                minimals.append(v)
    return tuple(divisors) + tuple(minimals)
