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

import pytest

from blowup import tree
from blowup.errors import ComputationError, DepthCapError, InputError, ResolveError
from blowup.expr import (INF, MAX_POWER_TERMS, ExprSyntaxError, _check_bits, _constant_bits,
                         _int_literal, _number_bits, _power_terms, _product_terms, _shown,
                         _sum_terms, _Tokenizer, is_inf)
from blowup.families import (INFINITE, Chain, Fiber, Siblings, Singleton,
                             family_parts, q1_downset_count)
from blowup.poly import (ROOT_SEARCH_LIMIT, A, Poly, RatFunc, T, X, Y, rational_roots,
                         sylvester_resultant)
from blowup.position import (FirstNeighborhood, ParametricPosition, Position, Resolution,
                             _a_collapse_roots, classify_expressed, position)
from blowup.tree import TSYM, Point, express_step, transform_step
from blowup.valuations import (MinimalCurveBranch, SecondKind, _integer_weights,
                               monomial_path)


def variable(slot: int) -> Poly:
    """The polynomial of one slot's variable: x, y, a or t."""
    exps = [0, 0, 0, 0]
    exps[slot] = 1
    return Poly({tuple(exps): 1})


# -- chart data that only the tests read -------------------------------------


def params(point: Point) -> Tuple[RatFunc, RatFunc]:
    """The local parameters at `point`, as fractions in x, y."""
    px, py = RatFunc(variable(X)), RatFunc(variable(Y))
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
    value = reference_divmod_exact(num, den)
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


# Bounds of `reference_comparable`: the free steps hold every step of a
# drawn path or sibling, and the levels reach every level at which drawn
# parts nest.
REFERENCE_FREE_STEPS = (*map(Fraction, range(-5, 6)), Fraction(1, 2), Fraction(-1, 2), INF)
MEMBER_LEVELS = 9


def _bounded_members(part) -> List[Point]:
    if isinstance(part, Singleton):
        return [part.point]
    if isinstance(part, Fiber):
        return [point for point in map(part.allowed_member, REFERENCE_FREE_STEPS)
                if point is not None]
    if isinstance(part, Chain):
        return [part.member(level) for level in range(part.from_level, MEMBER_LEVELS + 1)]
    return [part.member(i) for i in range(1, MEMBER_LEVELS + 1)]


def reference_comparable(a, b) -> bool:
    """Whether some member of the parts a and b is a proper prefix of
    another, by enumeration: fiber members over `REFERENCE_FREE_STEPS`,
    chain levels and sibling indices up to `MEMBER_LEVELS`."""
    members = {point.steps for part in (a, b) for point in _bounded_members(part)}
    proper_prefixes = {path[:level] for path in members for level in range(len(path))}
    return not members.isdisjoint(proper_prefixes)


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
        strict = transform_step(strict, v.step_at(level), strict.xy_order())
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
    quotient = reference_divmod_exact(b, sympy_gcd(a, b))
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
        factor = reference_divmod_exact(common, g.den)
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
    is reduced by `sympy_gcd` and the reference division.  The steps may
    include the symbolic step `TSYM`.
    """
    down_x, down_y = variable(X), variable(Y)
    for step in steps:
        down_x, down_y = transform_step(down_x, step), transform_step(down_y, step)
    return reduced(f.num.subst_xy(down_x, down_y), f.den.subst_xy(down_x, down_y), sympy_gcd)


def sympy_gcd(p: Poly, q: Poly) -> Poly:
    """A gcd of two nonzero Polys by sympy over Q: a route that shares no
    code with `poly_gcd`, and settles the coprime pairs of x, y, a and t
    that the subresultant sequence takes seconds over in milliseconds."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x y a t")

    def to_sympy(r: Poly):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in r.terms.items()},
            *gens, domain=sympy.QQ)

    g = sympy.gcd(to_sympy(p), to_sympy(q))
    return Poly({e: Fraction(int(c.p), int(c.q)) for e, c in g.terms()})


def reference_strict_transform(steps, h: Poly) -> Poly:
    """The strict transform of a nonzero h at the end of `steps`, by
    sympy's polynomial ring over Q: each step composes with (x, x(y + b)),
    or (xy, x) for inf, and divides out the largest power of x that divides
    the image.  The steps may include the symbolic step `TSYM`, the symbol
    t.  It shares no code with the package's step kernel or its integer
    walks."""
    sympy = pytest.importorskip("sympy")
    ring, sx, sy, _, st = sympy.ring("x y a t", sympy.QQ)
    curve = ring({e: sympy.Rational(c.numerator, c.denominator) for e, c in h.terms.items()})
    for step in steps:
        if is_inf(step):
            curve = curve.compose([(sx, sx * sy), (sy, sx)])
        else:
            shift = st if step is TSYM else sympy.Rational(step.numerator, step.denominator)
            curve = curve.compose(sy, sx * (sy + shift))
        power = min(e[0] for e in curve.keys())
        curve = ring({(i - power, *rest): c for (i, *rest), c in curve.items()})
    return Poly({e: Fraction(int(c.numerator), int(c.denominator)) for e, c in curve.items()})


def reference_monomial_valuation(a, b) -> SecondKind:
    """The monomial valuation v(x) = a, v(y) = b by the chart walk: the
    order valuation at the end of the weights' path, scaled by the weight
    the subtractive walk ends on.  Its value expresses f down the path."""
    path = monomial_path(a, b)
    weight_x, weight_y = _integer_weights(a, b)
    for step in path:
        if is_inf(step):
            weight_x, weight_y = weight_y, weight_x - weight_y
        else:
            weight_y -= weight_x
    assert weight_x == weight_y
    reference = SecondKind(Point(path))
    reference.scale = weight_x
    return reference


# -- gcds and fraction arithmetic without shortcuts -------------------------


def reference_divmod_exact(p: Poly, divisor: Poly) -> Optional[Poly]:
    """p/divisor when the division is exact, else None.

    Greedy leading-term division over Fractions under the fixed monomial
    order; for an exact division this always succeeds.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("zero divisor")
    if p.is_zero:
        return Poly()
    if divisor.is_constant:
        return p.scale(Fraction(1) / divisor.constant_term())
    lead_exp, lead_coeff = divisor.leading()
    quotient = {}
    rem = dict(p.terms)
    while rem:
        exps = max(rem, key=lambda e: (sum(e), e))
        coeff = rem[exps]
        delta = tuple(exps[i] - lead_exp[i] for i in range(4))
        if any(d < 0 for d in delta):
            return None
        q = coeff / lead_coeff
        quotient[delta] = quotient.get(delta, Fraction(0)) + q
        for dexp, dcoeff in divisor.terms.items():
            tgt = (delta[0] + dexp[0], delta[1] + dexp[1],
                   delta[2] + dexp[2], delta[3] + dexp[3])
            acc = rem.get(tgt, Fraction(0)) - q * dcoeff
            if acc:
                rem[tgt] = acc
            else:
                rem.pop(tgt, None)
    return Poly(quotient)


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
    p = reference_divmod_exact(p, Poly.monomial(mp))
    q = reference_divmod_exact(q, Poly.monomial(mq))
    shared = [s for s in (X, Y, A, T) if p.has_slot(s) and q.has_slot(s)]
    if not shared:
        return common
    main = min(shared, key=lambda s: p.degree(s) + q.degree(s))
    cont_p = reduce(reference_gcd, p.coeffs_in(main).values())
    cont_q = reduce(reference_gcd, q.coeffs_in(main).values())
    pp_p, pp_q = reference_divmod_exact(p, cont_p), reference_divmod_exact(q, cont_q)
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
        rem = _reference_pseudo_rem(f, g, slot)
        if rem.is_zero:
            return reference_divmod_exact(g, reduce(reference_gcd, g.coeffs_in(slot).values()))
        if rem.degree(slot) == 0:
            return Poly.const(1)
        f, g = g, reference_divmod_exact(rem, beta * _poly_power(psi, delta))
        beta = f.coeffs_in(slot)[f.degree(slot)]
        if delta == 1:
            psi = beta
        elif delta > 1:
            psi = reference_divmod_exact(_poly_power(beta, delta), _poly_power(psi, delta - 1))


def _reference_pseudo_rem(f: Poly, g: Poly, slot: int) -> Poly:
    """lc(g)^(deg f - deg g + 1) times f, modulo g in one slot."""
    dg = g.degree(slot)
    lc_g = g.coeffs_in(slot)[dg]
    rem, steps = f, f.degree(slot) - dg + 1
    while not rem.is_zero and rem.degree(slot) >= dg:
        dr = rem.degree(slot)
        rem = rem * lc_g - g * rem.coeffs_in(slot)[dr] * variable(slot) ** (dr - dg)
        steps -= 1
    return rem * _poly_power(lc_g, steps)


def _poly_power(p: Poly, n: int) -> Poly:
    return reduce(Poly.__mul__, [p] * n, Poly.const(1))


def reduced(num: Poly, den: Poly, gcd=reference_gcd) -> RatFunc:
    """num/den divided by `gcd`, with a monic denominator."""
    if num.is_zero:
        return RatFunc(num)
    g = gcd(num, den)
    return RatFunc.coprime(reference_divmod_exact(num, g), reference_divmod_exact(den, g))


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


def reference_candidate_steps(expressed: RatFunc) -> Tuple[tuple, bool]:
    """`FirstNeighborhood.steps` the slow canonical way: each lowest form
    becomes a polynomial in t by substitution (x -> 1, y -> t), its roots
    come from the Fraction divisor search, and a second search decides
    whether an irrational factor remains."""
    steps: set = set()
    irrational = False
    lowests = (_lowest_slice(expressed.num), _lowest_slice(expressed.den))
    for lowest in lowests:
        phi = subst_poly(lowest.subst_const(X, 1), Y, variable(T))
        if not phi.is_constant:
            steps.update(reference_rational_roots(phi, T))
        irrational = irrational or reference_has_irrational_factor(phi, T)
    ordered = tuple(sorted(steps))
    if any(all(e[X] for e in lowest.terms) for lowest in lowests):
        ordered += (INF,)
    return ordered, irrational


def reference_position_parametric(point: Point, f: RatFunc) -> ParametricPosition:
    """`position_parametric` with every class read at the end of the whole
    path (`position`), the concrete element and each candidate value of a
    alike."""
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
    exceptional = {}
    undefined = []
    for a0 in sorted(candidates):
        den0 = f.den.subst_const(A, a0)
        if den0.is_zero:
            undefined.append(a0)
            continue
        pos = position(point, RatFunc(f.num.subst_const(A, a0), den0))
        if pos is not generic:
            exceptional[a0] = pos
    return ParametricPosition(generic, exceptional, tuple(undefined))


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
        steps, irrational = FirstNeighborhood(expressed).steps()
        gap = expressed.num.xy_order() - expressed.den.xy_order()
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
        if point.level >= max_depth:
            open_points.append(point)
            continue
        queue.extend(point.child(s) for s in steps)
    if open_points:
        raise DepthCapError(
            f"resolution of {f} still undetermined at depth {max_depth} "
            f"below {Point.root()}", open_points=open_points)
    return Resolution(tuple(zeros), tuple(poles), depth_used, tuple(diagnostics))


# -- element reading on RatFuncs at every node -------------------------------


# Arithmetic on reduced operands (Henrici; Knuth, TAOCP vol. 2, 4.5.1): the
# only common factors a result can have are known in advance, so the gcds
# run on those alone.  A constant denominator of a reduced operand is 1.
# This is the reference reader's own copy, on Polys of Fractions and reduced
# by `sympy_gcd`, so that it runs neither the integer pair arithmetic nor the
# gcd it checks.


def _cofactors(b: Poly, d: Poly) -> Tuple[Poly, Poly, Poly]:
    """(g, b/g, d/g) for g = gcd(b, d) of two monic denominators; g is the
    constant 1 when b or d is constant and then costs no gcd."""
    if b.is_constant or d.is_constant:
        return Poly.const(1), b, d
    g = sympy_gcd(b, d)
    if g.is_constant:
        return g, b, d
    return g, reference_divmod_exact(b, g), reference_divmod_exact(d, g)


def _sum(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """a/b + c/d for reduced a/b and c/d with monic b and d.

    With g = gcd(b, d), b = g b' and d = g d', the sum is t / (b' d' g)
    with t = a d' + c b'; t is prime to b' and to d', so gcd(t, g) is the
    whole common factor.
    """
    if d.is_constant:
        return RatFunc.coprime(a + (c if b.is_constant else c * b), b)
    if b.is_constant:
        return RatFunc.coprime(a * d + c, d)
    g, b1, d1 = _cofactors(b, d)
    if g.is_constant:
        return RatFunc.coprime(a * d + c * b, b * d)
    t = a * d1 + c * b1
    if t.is_zero:
        return RatFunc(t)
    g2 = sympy_gcd(t, g)
    if not g2.is_constant:
        t = reference_divmod_exact(t, g2)
        d = reference_divmod_exact(d, g2)
    return RatFunc.coprime(t, b1 * d)


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> RatFunc:
    """(a/b)(c/d) for reduced a/b and c/d: only gcd(a, d) and gcd(c, b)
    can cancel."""
    if a.is_zero or c.is_zero:
        return RatFunc(Poly())
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return RatFunc.coprime(a * c, b * d)


def _cancel(num: Poly, den: Poly) -> Tuple[Poly, Poly]:
    """num and den divided by their gcd."""
    if den.is_constant or num.is_constant:
        return num, den
    g = sympy_gcd(num, den)
    if g.is_constant:
        return num, den
    return reference_divmod_exact(num, g), reference_divmod_exact(den, g)


def reference_parse_element(text: str) -> RatFunc:
    """`parse_element` as a RatFunc at every node of the expression, with no
    integer term maps and no group memo; the same budgets and messages."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression")
    toks = _Tokenizer(text)
    value = _ref_sum(toks)
    if toks.peek()[0] != "end":
        raise ExprSyntaxError(
            f"trailing input {_shown(toks.peek()[1])} in {_shown(text)}")
    _check_bits(_number_bits(value))
    return value


def _ref_sum(toks: _Tokenizer) -> RatFunc:
    first = toks.index
    value = _ref_product(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        rhs = _ref_product(toks)
        _, f_cof, g_cof = _cofactors(value.den, rhs.den)
        terms = _sum_terms((value.num.terms, value.den.terms), (rhs.num.terms, rhs.den.terms),
                           f_cof.terms, g_cof.terms)
        if terms > MAX_POWER_TERMS:
            total = "".join(text for _, text in toks.tokens[first:toks.index])
            raise InputError(f"sum too large: {total} may have up to {terms} "
                             f"terms, and a sum may have at most {MAX_POWER_TERMS}")
        value = _sum(value.num, value.den, rhs.num if op == "+" else -rhs.num, rhs.den)
    return value


def _ref_product(toks: _Tokenizer) -> RatFunc:
    first = toks.index
    value = _ref_factor(toks)
    while toks.peek()[0] in ("*", "/"):
        op = toks.next()[0]
        rhs = _ref_factor(toks)
        if op == "/" and rhs.is_zero:
            raise ExprSyntaxError("division by zero")
        num, den = (rhs.num, rhs.den) if op == "*" else (rhs.den, rhs.num)
        terms = max(_product_terms(value.num.terms, num.terms),
                    _product_terms(value.den.terms, den.terms))
        if terms > MAX_POWER_TERMS:
            product = "".join(text for _, text in toks.tokens[first:toks.index])
            raise InputError(f"product too large: {product} may have up to {terms} "
                             f"terms, and a product may have at most {MAX_POWER_TERMS}")
        value = _product(value.num, value.den, num, den)
    return value


def _ref_factor(toks: _Tokenizer) -> RatFunc:
    negate = False
    while toks.peek()[0] in ("+", "-"):
        if toks.next()[0] == "-":
            negate = not negate
    value = _ref_power(toks)
    return RatFunc.coprime(-value.num, value.den) if negate else value


def _ref_power(toks: _Tokenizer) -> RatFunc:
    first = toks.index
    base = _ref_atom(toks)
    if toks.peek()[0] != "^":
        return base
    toks.next()
    sign = 1
    while toks.peek()[0] in ("+", "-"):
        if toks.next()[0] == "-":
            sign = -sign
    tok = toks.expect("num")
    exponent = sign * _int_literal(tok[1])
    if exponent < 0 and base.is_zero:
        raise ExprSyntaxError("division by zero")
    n = abs(exponent)
    _check_bits((_constant_bits(base.num.terms, base.den.terms) - 1) * n)
    terms = max(_power_terms(base.num.terms, n), _power_terms(base.den.terms, n))
    if terms > MAX_POWER_TERMS:
        power = "".join(text for _, text in toks.tokens[first:toks.index])
        raise InputError(f"power too large: {power} may have up to {terms} "
                         f"terms, and a power may have at most {MAX_POWER_TERMS}")
    return base ** exponent


_REF_VARIABLES = {"x": X, "y": Y, "a": A}


def _ref_atom(toks: _Tokenizer) -> RatFunc:
    kind, text = toks.next()
    if kind == "num":
        return RatFunc(Poly.const(_int_literal(text)))
    if kind == "name":
        slot = _REF_VARIABLES.get(text)
        if slot is None:
            raise ExprSyntaxError(f"unknown symbol {_shown(text)}: only x, y, a are allowed")
        return RatFunc(variable(slot))
    if kind == "(":
        value = _ref_sum(toks)
        toks.expect(")")
        return value
    if kind == "end":
        raise ExprSyntaxError("unexpected end of expression")
    raise ExprSyntaxError(f"unexpected token {_shown(text)}")


# -- seeded enumeration ------------------------------------------------------


DEFAULT_SEED = 20240817
def count_charges(monkeypatch) -> List[int]:
    """A list that grows by one entry per `tree.charge` call from now on.

    Every `express_step` charges its step first, so its length counts
    the chart steps a computation takes."""
    real, calls = tree.charge, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tree, "charge", counting)
    return calls


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
