"""Reference answers that do not come from `blowup`.

Everything here is computed with sympy's sparse polynomial rings, with
closed forms from the theory, or with plain search; the package under test
is never called.  Charts follow the README's step rule:

    step b (a rational):  (x, y) -> (x, x*(y + b))
    step inf:             (x, y) -> (x*y, x)

so the root coordinates written in a point's chart are obtained by
composing these maps along the path.  An element is expressed there by
substituting, cancelling with sympy's gcd, and reading the constant terms.

Paths are tuples of step strings ("0", "-1/2", "inf"), the same spelling
the workloads and the package's JSON use.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import sympy
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

R, RX, RY, RA = ring("x,y,a", QQ)
RT, T = ring("t", QQ)
_SYMBOLS = {name: sympy.Symbol(name) for name in "xya"}

INF = "inf"
Path = Tuple[str, ...]


# -- elements and charts ------------------------------------------------------

_elements: Dict[str, Tuple[object, object]] = {}


def element(text: str):
    """(numerator, denominator) of an element written in the package grammar."""
    cached = _elements.get(text)
    if cached is None:
        expr = sympy.sympify(text.replace("^", "**"), locals=_SYMBOLS)
        num, den = sympy.fraction(sympy.together(expr))
        cached = R.from_expr(sympy.expand(num)), R.from_expr(sympy.expand(den))
        _elements[text] = cached
    return cached


def step_value(step: str):
    return None if step == INF else QQ(Fraction(step).numerator, Fraction(step).denominator)


def _step_map(step: str):
    if step == INF:
        return [(RX, RX * RY), (RY, RX)]
    return [(RX, RX), (RY, RX * (RY + step_value(step)))]


_charts: Dict[Path, Tuple[object, object]] = {(): (RX, RY)}


def chart(path: Path):
    """The root coordinates x, y written in the local parameters at path."""
    path = tuple(path)
    cached = _charts.get(path)
    if cached is None:
        px, py = chart(path[:-1])
        m = _step_map(path[-1])
        cached = px.compose(m), py.compose(m)
        _charts[path] = cached
    return cached


def express(num, den, path: Path):
    """The reduced fraction of num/den in the chart at path."""
    px, py = chart(path)
    m = [(RX, px), (RY, py)]
    return num.compose(m).cancel(den.compose(m))


def xy_constant(p):
    """The part of p free of x and y (a polynomial in a)."""
    return R({mon: c for mon, c in p.terms() if mon[0] == 0 and mon[1] == 0})


def classify(p, q) -> str:
    if not p:
        return "zero"
    cf, cg = xy_constant(p), xy_constant(q)
    if not cg:
        return "undetermined" if not cf else "pole"
    return "zero" if not cf else "unit"


def position(text: str, path: Path) -> str:
    num, den = element(text)
    return classify(*express(num, den, path))


def specialize(text: str, a_value: Fraction) -> Optional[str]:
    """The element with the parameter a set to a value, or None if undefined."""
    expr = sympy.sympify(text.replace("^", "**"), locals=_SYMBOLS)
    num, den = sympy.fraction(sympy.together(expr))
    value = sympy.Rational(a_value.numerator, a_value.denominator)
    den = sympy.expand(den.subs(_SYMBOLS["a"], value))
    if den == 0:
        return None
    num = sympy.expand(num.subs(_SYMBOLS["a"], value))
    return str(num / den).replace("**", "^")


def has_parameter(text: str) -> bool:
    num, den = element(text)
    return any(mon[2] for mon, _ in num.terms()) or any(mon[2] for mon, _ in den.terms())


def order(p) -> int:
    return min(mon[0] + mon[1] for mon, _ in p.terms())


def lowest_form(p):
    d = order(p)
    return R({mon: c for mon, c in p.terms() if mon[0] + mon[1] == d})


def terms_json(p) -> List[List[object]]:
    """Sorted [i, j, k, "coeff"] entries, the spelling workloads use."""
    return sorted([mon[0], mon[1], mon[2], str(Fraction(int(c.numerator), int(c.denominator)))]
                  for mon, c in p.terms())


def from_terms_json(entries) -> object:
    return R({(i, j, k): QQ(Fraction(c).numerator, Fraction(c).denominator)
              for i, j, k, c in entries})


# -- directions and descents -----------------------------------------------------


def _direction(lowest) -> object:
    """The lowest form on the exceptional line x = 1, as a polynomial in t."""
    return RT({(mon[1],): c for mon, c in lowest.terms()})


def _rational_roots(phi) -> Tuple[List[Fraction], bool]:
    """Rational roots of phi and whether an irrational factor remains."""
    roots: List[Fraction] = []
    irrational = False
    if phi.degree() < 1:
        return roots, irrational
    _, factors = phi.factor_list()
    for factor, _ in factors:
        if factor.degree() == 1:
            c1 = factor.coeff(T)
            c0 = factor.coeff(1)
            root = -c0 / c1
            roots.append(Fraction(int(root.numerator), int(root.denominator)))
        elif factor.degree() > 1:
            irrational = True
    return roots, irrational


def format_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def candidate_steps(p, q) -> Tuple[List[str], bool]:
    """Directions in which p/q can stay non-unit, and whether some are irrational."""
    steps: List[str] = []
    irrational = False
    lowests = (lowest_form(p), lowest_form(q))
    for lowest in lowests:
        roots, irr = _rational_roots(_direction(lowest))
        irrational |= irr
        for r in roots:
            s = format_fraction(r)
            if s not in steps:
                steps.append(s)
    if any(all(mon[0] > 0 for mon, _ in lowest.terms()) for lowest in lowests):
        steps.append(INF)
    return steps, irrational


def path_literal(path: Path) -> str:
    return "[" + ", ".join(path) + "]"


@lru_cache(maxsize=None)
def resolve(text: str, max_depth: int = 16) -> Dict[str, object]:
    """Minimal zero and pole points of an element, by breadth-first descent.
    The returned dict is shared between callers and must not be changed."""
    num, den = element(text)
    zeros: List[str] = []
    poles: List[str] = []
    irrational = False
    capped = False
    depth_used = 0
    queue = deque([()])
    while queue:
        path = queue.popleft()
        depth_used = max(depth_used, len(path))
        p, q = express(num, den, path)
        pos = classify(p, q)
        if pos == "zero":
            zeros.append(path_literal(path))
            continue
        if pos == "pole":
            poles.append(path_literal(path))
            continue
        if pos == "unit":
            continue
        if order(p) != order(q):
            return {"error": "ResolveError", "depth_used": depth_used}
        steps, irr = candidate_steps(p, q)
        irrational |= irr
        if len(path) >= max_depth:
            capped = True
            continue
        queue.extend(path + (s,) for s in steps)
    if capped:
        return {"error": "DepthCapError", "depth_used": depth_used}
    return {"zeros": sorted(zeros), "poles": sorted(poles),
            "depth_used": depth_used, "irrational": irrational}


def _strict_step(h, step: str):
    """One step of a strict transform: substitute, then strip the power of
    the exceptional parameter x."""
    h = h.compose(_step_map(step))
    strip = min(mon[0] for mon, _ in h.terms())
    return R({(mon[0] - strip,) + mon[1:]: c for mon, c in h.terms()})


def strict_transform(curve: str, path: Path):
    """Strict transform of a polynomial curve along path."""
    h, _ = element(curve)
    for step in path:
        h = _strict_step(h, step)
    return h


def branch_path(curve: str, length: int) -> Path:
    """The first steps of the branch of an irreducible curve germ."""
    h, _ = element(curve)
    path: List[str] = []
    for _ in range(length):
        steps, _irr = candidate_steps(h, R(1))
        if len(steps) != 1:
            raise ValueError(f"{curve} has no unique direction after {path}")
        path.append(steps[0])
        h = strict_transform(curve, tuple(path))
    return tuple(path)


# -- proximity -------------------------------------------------------------------

_exceptional: Dict[Path, Tuple[object, ...]] = {(): ()}


def _exceptional_curves(path: Path) -> Tuple[object, ...]:
    """Local equations at path of the strict transforms of every exceptional
    curve created along it, indexed by the level where it was created."""
    cached = _exceptional.get(path)
    if cached is None:
        parent = _exceptional_curves(path[:-1])
        cached = tuple(_strict_step(e, path[-1]) for e in parent) + (RX,)
        _exceptional[path] = cached
    return cached


def proximate_levels(path: Path) -> List[int]:
    """Levels of the ancestors a point is proximate to, nearest first: the
    point lies on the strict transform of the exceptional curve created at
    that ancestor."""
    curves = _exceptional_curves(tuple(path))
    return [level for level in range(len(curves) - 1, -1, -1)
            if not xy_constant(curves[level])]


# -- families --------------------------------------------------------------------


def minimal_path(valuation: Dict[str, object], length: int) -> Path:
    if valuation["kind"] == "minimal":
        prefix, period = tuple(valuation["prefix"]), tuple(valuation["period"])
        out = list(prefix)
        while len(out) < length:
            out.extend(period)
        return tuple(out[:length])
    return branch_path(valuation["h"], length)


def _sibling_step(step: str, offset: str) -> str:
    if step == INF:
        return format_fraction(Fraction(offset))
    return format_fraction(Fraction(step) + Fraction(offset))


def sample_members(part: Dict[str, object], count: int = 5) -> List[Path]:
    """Members of a family part: all of a singleton, a spread of fiber steps
    plus the inf member, and the first `count` chain or sibling members."""
    kind = part["kind"]
    if kind == "singleton":
        return [tuple(part["point"])]
    if kind == "fiber":
        excluded = {_canonical(s) for s in part.get("excluded", [])}
        out = []
        for s in ("-2", "-1", "-1/2", "0", "1/2", "1", "2", "3", INF):
            if _canonical(s) not in excluded:
                out.append(tuple(part["base"]) + (s,) + tuple(part.get("tail", [])))
        return out
    path = minimal_path(part["valuation"], count + part.get("from", 1) + 1)
    if kind == "chain":
        start = part["from"]
        return [path[:level] for level in range(start, start + count)]
    return [path[:i] + (_sibling_step(path[i], part["offset"]),)
            for i in range(1, count + 1)]


def _canonical(step: str) -> str:
    return step if step == INF else format_fraction(Fraction(step))


def is_member(part: Dict[str, object], path: Path) -> bool:
    path = tuple(_canonical(s) for s in path)
    kind = part["kind"]
    if kind == "singleton":
        return path == tuple(_canonical(s) for s in part["point"])
    if kind == "fiber":
        base = tuple(_canonical(s) for s in part["base"])
        tail = tuple(_canonical(s) for s in part.get("tail", []))
        excluded = {_canonical(s) for s in part.get("excluded", [])}
        return (len(path) == len(base) + 1 + len(tail) and path[:len(base)] == base
                and path[len(base)] not in excluded and path[len(base) + 1:] == tail)
    walk = minimal_path(part["valuation"], len(path) + 1)
    if kind == "chain":
        return len(path) >= part["from"] and path == walk[:len(path)]
    i = len(path) - 1
    return i >= 1 and path[:i] == walk[:i] and path[i] == _sibling_step(walk[i], part["offset"])


def closure_member(part: Dict[str, object], path: Path) -> bool:
    """Membership in the Zariski closure of a one-part family: its downset,
    plus the prefixes and proximate points of a fiber's base, plus the path
    of a chain's or siblings' limit valuation."""
    path = tuple(_canonical(s) for s in path)
    kind = part["kind"]
    if kind == "singleton":
        point = tuple(_canonical(s) for s in part["point"])
        return path == point[:len(path)]
    if kind == "fiber":
        base = tuple(_canonical(s) for s in part["base"])
        if path == base[:len(path)]:
            return True
        if path[:len(base)] == base and len(base) in proximate_levels(path):
            return True
        tail = tuple(_canonical(s) for s in part.get("tail", []))
        excluded = {_canonical(s) for s in part.get("excluded", [])}
        return (len(base) < len(path) <= len(base) + 1 + len(tail)
                and path[:len(base)] == base and path[len(base)] not in excluded
                and path[len(base) + 1:] == tail[:len(path) - len(base) - 1])
    walk = minimal_path(part["valuation"], len(path))
    if path == walk:
        return True
    return kind == "siblings" and is_member(part, path)


def _has_ray_tail(part: Dict[str, object]) -> bool:
    tail = [_canonical(s) for s in part.get("tail", [])]
    return not tail or (tail[0] == INF and all(s == "0" for s in tail[1:]))


def _minimal_json(valuation: Dict[str, object]) -> Dict[str, object]:
    """An eventually periodic path in its shortest spelling: the shortest
    repeating block, with every prefix step that already lies on the cycle
    rotated into it."""
    if valuation["kind"] != "minimal":
        return valuation
    prefix = [_canonical(s) for s in valuation["prefix"]]
    period = [_canonical(s) for s in valuation["period"]]
    n = len(period)
    block = next(d for d in range(1, n + 1) if n % d == 0 and period == period[:d] * (n // d))
    period = period[:block]
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = [period[-1]] + period[:-1]
    return {"kind": "minimal", "prefix": prefix, "period": period}


def topology(command: str, part: Dict[str, object]) -> Dict[str, object]:
    """Expected `limits`, `noetherian` and `components` verdicts of one part,
    from the shape rules stated in the README and the acceptance gate."""
    kind = part["kind"]
    base = [_canonical(s) for s in part.get("base", part.get("point", []))]
    if command == "limits":
        if kind == "singleton":
            return {"limit_points": []}
        if kind == "fiber":
            return {"limit_points": [{"kind": "second", "point": base}]}
        return {"limit_points": [_minimal_json(part["valuation"])]}
    if command == "noetherian":
        if kind == "siblings" or (kind == "fiber" and not _has_ray_tail(part)):
            return {"noetherian": False}
        if kind == "chain":
            return {"noetherian": True, "covering": [_minimal_json(part["valuation"])]}
        return {"noetherian": True, "covering": [{"kind": "second", "point": base}]}
    if command == "components":
        if kind == "siblings" or (kind == "fiber" and not _has_ray_tail(part)):
            return {"error": "ComponentError"}
        if kind == "singleton":
            return {"components": [{"kind": "point", "point": base}]}
        if kind == "chain":
            return {"components": [_minimal_json(part["valuation"])]}
        return {"components": [{"kind": "second", "point": base}]}
    raise ValueError(command)


def semigroup_member(target: Sequence[int], generators: Sequence[Sequence[int]]) -> bool:
    """Whether target is a nonnegative integer combination of generators,
    for generators that a weight (1, 1) makes all positive: a combination
    then uses at most weight(target) generators, so a layered search over
    reachable vectors by weight is exhaustive."""
    weights = [g[0] + g[1] for g in generators]
    if min(weights) < 1:
        raise ValueError("generators must have positive weight")
    goal = (target[0], target[1])
    budget = goal[0] + goal[1]
    if budget < 0:
        return False
    layers: List[set] = [{(0, 0)}]
    for w in range(1, budget + 1):
        layer = set()
        for g, gw in zip(generators, weights):
            if gw <= w:
                layer.update((v[0] + g[0], v[1] + g[1]) for v in layers[w - gw])
        layers.append(layer)
    return goal in layers[budget]
