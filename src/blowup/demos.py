"""Scripted walkthroughs of the workbench's headline computations.

Each demo is a self-contained run of one story the package can tell: a
resolution with two distinguished zeros, a two-ring covering of the
monomial valuations, irredundance certificates for a first neighborhood,
a sibling family with a unique patch limit, a strictly ascending union of
monomial subrings, and the two infinite-intersection membership suites.

A demo returns a plain report dict::

    {"name": str, "ok": bool, "checks": [{"label", "ok", "detail"}, ...]}

Reports are deterministic: sub-checks run in a fixed order and carry
their evidence in the detail string, so the same invocation always
produces byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List

from .errors import CertificateError, InputError
from .expr import INF, format_path, parse_element, parse_path
from .families import Fiber, Siblings
from .oracle import in_family, in_point, irredundance_certificate, semigroup_member
from .position import Position, position, position_parametric, resolve
from .topology import is_noetherian, patch_limit_points
from .tree import Point
from .valuations import MinimalEventuallyPeriodic, monomial_valuation

_e = parse_element


def _check(label: str, ok: bool, detail: str = "") -> Dict[str, object]:
    return {"label": label, "ok": bool(ok), "detail": detail}


def _report(name: str, checks: List[Dict[str, object]]) -> Dict[str, object]:
    return {"name": name, "ok": all(c["ok"] for c in checks), "checks": checks}


def _paths(points) -> str:
    return "{" + ", ".join(sorted(format_path(p.steps) for p in points)) + "}"


# -- the element with two distinguished zeros --------------------------------


def demo_distinguished_zeros() -> Dict[str, object]:
    """Resolve x*y/(y^2 + x^3): one pole but two minimal zero points.

    The element is undetermined at the root and again at D<0>; the search
    below splits it into a zero at D<0><0>, a zero at D<inf>, and a pole
    at D<0><inf>.  The intermediate expressed forms are pinned so the
    walkthrough shows the actual chart arithmetic, not just the verdict.
    """
    f = _e("x*y/(y^2 + x^3)")
    r = resolve(f)
    checks = [
        _check("zero points", _paths(r.zeros) == "{[0, 0], [inf]}",
               f"minimal zeros at {_paths(r.zeros)}"),
        _check("pole points", _paths(r.poles) == "{[0, inf]}",
               f"minimal poles at {_paths(r.poles)}"),
    ]
    expressed = [
        ("[0]", "(y)/(y^2 + x)"),
        ("[0, 0]", "(y)/(x*y^2 + 1)"),
        ("[inf]", "(y)/(x*y^3 + 1)"),
        ("[0, inf]", "(1)/(x + y)"),
    ]
    for literal, want in expressed:
        point = Point.from_path(parse_path(literal))
        got = str(point.express(f))
        checks.append(_check(f"expressed form at {literal}", got == want,
                             f"{got} (expected {want})"))
    verdicts = [
        ("[]", Position.UNDETERMINED),
        ("[0]", Position.UNDETERMINED),
        ("[0, 0]", Position.ZERO),
        ("[inf]", Position.ZERO),
        ("[0, inf]", Position.POLE),
    ]
    for literal, want in verdicts:
        point = Point.from_path(parse_path(literal))
        got = position(point, f)
        checks.append(_check(f"position at {literal}", got is want, got.value))
    return _report("distinguished-zeros", checks)


# -- two rings cover every monomial valuation --------------------------------


def demo_two_ring_cover() -> Dict[str, object]:
    """Every monomial valuation contains y^2/x or x^2/y.

    For weights v(x) = a, v(y) = b the values are 2b - a and 2a - b, and
    both cannot be negative: a > 2b forces 2a > 4b > b.  The grid check
    runs all 1 <= a, b <= 40 by the support-minimum rule: v(N/D) is the
    least a*i + b*j over the terms x^i y^j of N less the same over D.
    """
    r_gen = _e("y^2/x")
    s_gen = _e("x^2/y")
    holes = []
    both = 0
    for a in range(1, 41):
        for b in range(1, 41):
            v = monomial_valuation(a, b)
            in_r = v.contains_element(r_gen)
            in_s = v.contains_element(s_gen)
            if not (in_r or in_s):
                holes.append((a, b))
            if in_r and in_s:
                both += 1
    checks = [
        _check("grid covered", not holes,
               f"1600 weight pairs, uncovered: {holes or 'none'}"),
        _check("overlap exists", both > 0,
               f"{both} pairs lie in both rings (the band a/2 <= b <= 2a)"),
        _check("value identity", all(
            monomial_valuation(a, b).value(r_gen) == 2 * b - a
            and monomial_valuation(a, b).value(s_gen) == 2 * a - b
            for a, b in ((1, 1), (3, 7), (40, 1), (17, 40))),
               "v(y^2/x) = 2b - a and v(x^2/y) = 2a - b on spot checks"),
    ]
    return _report("two-ring-cover", checks)


# -- irredundance certificates in the first neighborhood ---------------------


def demo_first_neighborhood_irredundance() -> Dict[str, object]:
    """Each member of the first-neighborhood family is certified necessary.

    The family is every child of the root except D<inf>, together with
    every child of D<inf>.  For sample points a curve through that member
    alone witnesses that dropping it changes the intersection: y - b*x
    for D<b>, x - b*y^2 for D<inf><b>, and the cusp x^2 - y^3 for the far
    corner D<inf><inf>, whose strict transform chain is pinned verbatim.
    """
    u_set = (Fiber(Point.root(), frozenset([INF])),
             Fiber(Point.from_path([INF])))
    checks = []
    for b in (0, 1, -1, 2, 7):
        delta = Point.from_path([Fraction(b)])
        try:
            cert = irredundance_certificate(u_set, delta, [_e(f"y - ({b})*x").num])
            ok = cert.member == delta
            detail = f"certified by {cert.valuation.h}"
        except CertificateError as exc:
            ok, detail = False, str(exc)
        checks.append(_check(f"first row member [{b}]", ok, detail))
    for b in (0, 1, -1, 2, 7):
        delta = Point.from_path([INF, Fraction(b)])
        try:
            cert = irredundance_certificate(u_set, delta, [_e(f"x - ({b})*y^2").num])
            ok = cert.member == delta
            detail = f"certified by {cert.valuation.h}"
        except CertificateError as exc:
            ok, detail = False, str(exc)
        checks.append(_check(f"second row member [inf, {b}]", ok, detail))
    gamma = Point.from_path([INF, INF])
    cusp = _e("x^2 - y^3").num
    try:
        cert = irredundance_certificate(u_set, gamma, [cusp])
        ok = cert.member == gamma
        detail = f"certified by {cert.valuation.h}"
    except CertificateError as exc:
        ok, detail = False, str(exc)
    checks.append(_check("far corner [inf, inf]", ok, detail))
    first = str(Point.from_path([INF]).strict_transform(cusp))
    second = str(gamma.strict_transform(cusp))
    checks.append(_check("cusp strict transform, one step", first == "y^2 - x", first))
    checks.append(_check("cusp strict transform, two steps", second == "x - y", second))
    return _report("first-neighborhood-irredundance", checks)


# -- sibling family with a unique patch limit --------------------------------


def demo_sibling_chain_limit() -> Dict[str, object]:
    """Siblings of the [0, 0, ...] path accumulate only at the path valuation.

    The family's members D<0>^i<1> never enter any single order valuation,
    so the subspace is not Noetherian, yet its one patch limit point is
    the minimal valuation V along the path.  The truncated intersections
    C_n are separated by the elements y/x^(n-1): such an element has a
    pole at member n-3 and lies in every member from n-2 on.
    """
    v = MinimalEventuallyPeriodic([], [0])
    family = Siblings(v, 1)
    limits = patch_limit_points(family)
    cert = is_noetherian(family)
    checks = [
        _check("unique patch limit", limits == (v,),
               f"limit points: {limits}"),
        _check("not Noetherian", not cert.verdict,
               f"witness part: {cert.witness.describe() if cert.witness else 'none'}"),
    ]
    for n in (2, 3, 4, 5, 6):
        f = _e(f"y/x^{n - 1}")
        lo = max(1, n - 2)
        inside = all(in_point(f, family.member(i)) for i in range(lo, n + 2))
        detail = f"member in family from index {lo}"
        if n >= 4:
            outside = not in_point(f, family.member(n - 3))
            detail += f", pole at index {n - 3}"
        else:
            outside = True
        checks.append(_check(f"separating element y/x^{n - 1}", inside and outside,
                             detail))
    return _report("sibling-chain-limit", checks)


# -- strictly ascending union of monomial subrings ---------------------------


def demo_ascending_union_semigroup() -> Dict[str, object]:
    """The ladder of rings R_n = D[y*(y/x), ..., y*(y/x)^(n-1)] never stops.

    Exponent vectors: R_n is generated by (1,0), (0,1) and (-k, k+1) for
    k < n.  Each new rung y*(y/x)^n is outside the previous ring, and the
    element y/x stays outside every rung, so the union is a strictly
    ascending chain whose limit loses the finite-generation property.
    """

    def ladder(n: int):
        gens = [(1, 0), (0, 1)]
        gens.extend((-k, k + 1) for k in range(1, n))
        return gens

    checks = [
        _check("y*(y/x)^2 enters at rung 3",
               semigroup_member((-2, 3), ladder(3)),
               "(-2, 3) is a combination of the rung-3 generators"),
        _check("y*(y/x)^2 is new at rung 3",
               not semigroup_member((-2, 3), ladder(2)),
               "(-2, 3) is not reachable from (1,0), (0,1), (-1,2)"),
    ]
    ascent = all(
        semigroup_member((-n, n + 1), ladder(n + 1))
        and not semigroup_member((-n, n + 1), ladder(n))
        for n in range(1, 11))
    checks.append(_check("strict ascent through rung 11", ascent,
                         "each y*(y/x)^n joins exactly at rung n+1, for n <= 10"))
    outside = all(not semigroup_member((-1, 1), ladder(n)) for n in range(1, 11))
    checks.append(_check("y/x stays outside", outside,
                         "(-1, 1) is in no rung up to 10"))
    return _report("ascending-union-semigroup", checks)


# -- irredundant intersection over a punctured fiber -------------------------


def demo_fiber_intersection_irredundance() -> Dict[str, object]:
    """The rings beta_b = O at D<-1/b><inf> intersect irredundantly.

    x/y lies in every member of the punctured fiber, while the element
    (x + a*y)/y is a unit at beta_b for every parameter value except
    a = b, where it is the local first parameter and vanishes.  That
    pins each member as the unique one rejecting its own element.
    """
    family = Fiber(Point.root(), frozenset([Fraction(0)]), (INF,))
    answer = in_family(_e("x/y"), family)
    checks = [
        _check("x/y in every member", answer.verdict == "yes" and not answer.flags,
               f"verdict {answer.verdict!r}"),
    ]
    f = _e("(x + a*y)/y")
    for b in (1, -1, 2, 3):
        beta = Point.from_path([Fraction(-1, b), INF])
        pp = position_parametric(beta, f)
        ok = (pp.generic is Position.UNIT
              and pp.exceptional == {Fraction(b): Position.ZERO}
              and not pp.undefined)
        checks.append(_check(f"(x + a*y)/y at the b = {b} member", ok,
                             f"unit for a != {b}, zero at a = {b}"))
    return _report("fiber-intersection-irredundance", checks)


# -- membership suite for the local fiber intersection -----------------------


def demo_local_fiber_intersection() -> Dict[str, object]:
    """Generators of the full-fiber intersection, and the case analysis.

    Over the family of all D<t><inf>, the elements x, y, x^2/y and the
    parametric y^2/(x + a*y) pass membership with no exceptional values,
    while y/x fails with the concrete witness D<inf><inf>.  The converse
    containment argument is sampled: every monomial valuation with
    weights up to 20 contains the generator its case calls for, its value
    read by the support-minimum rule (the least a*i + b*j over the terms
    x^i y^j of the numerator, less the same over the denominator), and
    the branch valuations along sample fiber directions contain theirs.
    """
    family = Fiber(Point.root(), frozenset(), (INF,))
    checks = []
    for text in ("x", "y", "x^2/y", "y^2/(x + a*y)"):
        answer = in_family(_e(text), family)
        ok = answer.verdict == "yes" and not answer.exceptions and not answer.flags
        checks.append(_check(f"{text} in every member", ok,
                             f"verdict {answer.verdict!r}"))
    refuted = in_family(_e("y/x"), family)
    witness = format_path(refuted.witness.steps) if refuted.witness else "none"
    checks.append(_check("y/x fails with witness",
                         refuted.verdict == "no" and witness == "[inf, inf]",
                         f"witness {witness}"))
    r_gen, s_gen = _e("y^2/(x + 1*y)"), _e("x^2/y")
    misses = []
    for a in range(1, 21):
        for b in range(1, 21):
            v = monomial_valuation(a, b)
            if a > b:
                ok = v.value(s_gen) > 0
            elif b > a:
                ok = v.value(r_gen) > 0
            else:
                ok = v.value(s_gen) > 0 and v.value(r_gen) > 0
            if not ok:
                misses.append((a, b))
    checks.append(_check("monomial valuation cases", not misses,
                         f"400 weight pairs, misses: {misses or 'none'}"))
    branch_ok = all(
        MinimalEventuallyPeriodic([Fraction(-1, a0), INF], [0])
        .contains_element(_e(f"y^2/(x + ({a0})*y)"))
        for a0 in (1, -1, 2))
    checks.append(_check("branch valuation cases", branch_ok,
                         "the a-direction branch contains y^2/(x + a*y) for a in {1, -1, 2}"))
    return _report("local-fiber-intersection", checks)


# -- registry ----------------------------------------------------------------


DEMOS: Dict[str, Callable[[], Dict[str, object]]] = {
    "distinguished-zeros": demo_distinguished_zeros,
    "two-ring-cover": demo_two_ring_cover,
    "first-neighborhood-irredundance": demo_first_neighborhood_irredundance,
    "sibling-chain-limit": demo_sibling_chain_limit,
    "ascending-union-semigroup": demo_ascending_union_semigroup,
    "fiber-intersection-irredundance": demo_fiber_intersection_irredundance,
    "local-fiber-intersection": demo_local_fiber_intersection,
}


def demo_names():
    return tuple(DEMOS)


def run_demo(name: str) -> Dict[str, object]:
    """Run one named demo and return its report dict."""
    try:
        runner = DEMOS[name]
    except KeyError:
        known = ", ".join(DEMOS)
        raise InputError(f"unknown demo {name!r}; known demos: {known}") from None
    return runner()
