"""The acceptance gate: one test per numbered behavior the package promises.

Run with `pytest -s tests/test_acceptance.py` to get one verdict line per
criterion; a plain `pytest` run shows the same ten tests pass or fail by
name.  The tenth criterion holds the whole-gate runtime budget and the
no-floating-point scan, so it must run last and does, since pytest keeps
file order.
"""

import ast
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from blowup.expr import INF, format_path, parse_element, parse_path
from blowup.families import Fiber, Siblings, Singleton
from blowup.oracle import (in_family, irredundance_certificate,
                           semigroup_member)
from blowup.position import Position, position_parametric, resolve
from blowup.proximity import is_proximate, proximate_ancestors
from blowup.topology import (closure_member, is_noetherian,
                             patch_limit_points, zariski_closure)
from blowup.tree import Point
from blowup.valuations import (MinimalCurveBranch, MinimalEventuallyPeriodic,
                               SecondKind, monomial_path, monomial_valuation)

from helpers import DEFAULT_SEED, ord_contained, proximate_by_containment

_e = parse_element

ELAPSED = {}


def _verdict(number: int, label: str, start: float) -> float:
    elapsed = time.perf_counter() - start
    ELAPSED[number] = elapsed
    print(f"criterion {number}: PASS - {label} ({elapsed:.2f} s)")
    return elapsed


def test_criterion_01_two_zero_resolution():
    start = time.perf_counter()
    f = _e("x*y/(y^2 + x^3)")
    r = resolve(f)
    assert sorted(format_path(p.steps) for p in r.zeros) == ["[0, 0]", "[inf]"]
    assert [format_path(p.steps) for p in r.poles] == ["[0, inf]"]
    expressed = {
        "[0]": "(y)/(y^2 + x)",
        "[0, 0]": "(y)/(x*y^2 + 1)",
        "[inf]": "(y)/(x*y^3 + 1)",
        "[0, inf]": "(1)/(x + y)",
    }
    for literal, want in expressed.items():
        point = Point.from_path(parse_path(literal))
        assert str(point.express(f)) == want
    elapsed = _verdict(1, "resolution of x*y/(y^2 + x^3) with pinned charts", start)
    assert elapsed < 1.0


def test_criterion_02_first_neighborhood_certificates():
    start = time.perf_counter()
    u_set = (Fiber(Point.root(), frozenset([INF])),
             Fiber(Point.from_path([INF])))
    for b in (0, 1, -1, 2, 7):
        cert = irredundance_certificate(
            u_set, Point.from_path([Fraction(b)]), [_e(f"y - ({b})*x").num])
        assert cert.member.steps == (Fraction(b),)
        assert "every member of" in cert.uniqueness_domain
        cert = irredundance_certificate(
            u_set, Point.from_path([INF, Fraction(b)]), [_e(f"x - ({b})*y^2").num])
        assert cert.member.steps == (INF, Fraction(b))
    cusp = _e("x^2 - y^3").num
    gamma = Point.from_path([INF, INF])
    cert = irredundance_certificate(u_set, gamma, [cusp])
    assert cert.member == gamma
    assert str(Point.from_path([INF]).strict_transform(cusp)) == "y^2 - x"
    assert str(gamma.strict_transform(cusp)) == "x - y"
    elapsed = _verdict(2, "irredundance certificates across the first neighborhood", start)
    assert elapsed < 2.0


def test_criterion_03_closure_matches_ray_rule():
    start = time.perf_counter()
    root = Point.root()
    closed = zariski_closure((Fiber(root), Singleton(root)))
    alphabet = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1),
                Fraction(2), INF]
    checked = 0
    for level in range(0, 5):
        for steps in itertools.product(alphabet, repeat=level):
            beta = Point.from_path(steps)
            by_closure = closure_member(closed, beta)
            by_rays = beta.level == 0 or is_proximate(beta, root)
            assert by_closure == by_rays, steps
            checked += 1
    assert checked == 1555
    _verdict(3, "closure of the first neighborhood equals the ray rule "
                f"on {checked} points", start)


def test_criterion_04_patch_limit_points():
    start = time.perf_counter()
    along_axis = MinimalEventuallyPeriodic([], [0])
    assert patch_limit_points(Siblings(along_axis, 1)) == (along_axis,)
    along_cusp = MinimalCurveBranch(_e("x^2 - y^3").num)
    assert patch_limit_points(Siblings(along_cusp, 1)) == (along_cusp,)
    root = Point.root()
    assert patch_limit_points((Fiber(root), Singleton(root))) == (SecondKind(root),)
    _verdict(4, "patch limit points of sibling and fiber families", start)


def test_criterion_05_noetherian_certificates():
    start = time.perf_counter()
    root = Point.root()
    for family in (Fiber(root, frozenset(), (INF,)), Fiber(root)):
        cert = is_noetherian(family)
        assert cert.verdict
        assert cert.covering == (SecondKind(root),)
    cert = is_noetherian(Siblings(MinimalEventuallyPeriodic([], [0]), 1))
    assert not cert.verdict
    assert cert.witness is not None
    sideways = Fiber(root, frozenset(), (Fraction(1),))
    cert = is_noetherian(sideways)
    assert not cert.verdict
    # the failure is real: sampled members escape the only candidate
    # covering valuation, by the independent containment oracle
    for t in (0, 1, 2):
        beta = sideways.allowed_member(Fraction(t))
        contained, witness = ord_contained(root, beta)
        assert not contained
        assert root.ord_at(witness) < 0
    # and the oracle is calibrated: ray-tail members stay inside
    for t in (0, 1, 2):
        beta = Fiber(root, frozenset(), (INF,)).allowed_member(Fraction(t))
        assert ord_contained(root, beta) == (True, None)
    _verdict(5, "Noetherian verdicts, the sideways fiber refuted by the "
                "containment oracle", start)


def test_criterion_06_membership_suite():
    start = time.perf_counter()
    punctured = Fiber(Point.root(), frozenset([Fraction(0)]), (INF,))
    answer = in_family(_e("x/y"), punctured)
    assert answer.verdict == "yes" and not answer.flags
    full = Fiber(Point.root(), frozenset(), (INF,))
    for text in ("y^2/(x + a*y)", "x^2/y"):
        answer = in_family(_e(text), full)
        assert answer.verdict == "yes"
        assert not answer.exceptions and not answer.flags
    refuted = in_family(_e("y/x"), full)
    assert refuted.verdict == "no"
    assert format_path(refuted.witness.steps) == "[inf, inf]"
    f = _e("(x + a*y)/y")
    for b in (1, -1, 2, 3):
        pp = position_parametric(Point.from_path([Fraction(-1, b), INF]), f)
        assert pp.generic is Position.UNIT
        assert pp.exceptional == {Fraction(b): Position.ZERO}
        assert not pp.undefined
    r_gen, s_gen = _e("y^2/(x + 1*y)"), _e("x^2/y")
    for a in range(1, 21):
        for b in range(1, 21):
            v = monomial_valuation(a, b)
            if a >= b:
                assert v.value(s_gen) > 0, (a, b)
            if b >= a:
                assert v.value(r_gen) > 0, (a, b)
    for a0 in (1, -1, 2):
        branch = MinimalEventuallyPeriodic([Fraction(-1, a0), INF], [0])
        assert branch.contains_element(_e(f"y^2/(x + ({a0})*y)"))
    _verdict(6, "membership suite and the generator case analysis", start)


def test_criterion_07_proximity_properties():
    start = time.perf_counter()
    alphabet = (Fraction(-1), Fraction(0), Fraction(1), INF)
    layer = [Point.root()]
    seen = 0
    for level in range(7):
        grown = []
        for point in layer:
            assert len(proximate_ancestors(point)) <= 2, point.steps
            seen += 1
            if level < 6:
                grown.extend(point.child(s) for s in alphabet)
        layer = grown
    assert seen == 5461
    rng = random.Random(DEFAULT_SEED)
    disagreements = []
    for _ in range(500):
        beta = Point.from_path(rng.choice(alphabet)
                               for _ in range(rng.randint(1, 6)))
        alpha = beta.ancestor(rng.randint(0, beta.level - 1))
        if is_proximate(beta, alpha) != proximate_by_containment(beta, alpha):
            disagreements.append((beta.steps, alpha.steps))
    assert disagreements == []
    _verdict(7, f"proximity bound on {seen} points and 500 oracle "
                "comparisons", start)


def test_criterion_08_monomial_weights():
    start = time.perf_counter()
    rng = random.Random(DEFAULT_SEED)
    x, y = _e("x"), _e("y")
    done = 0
    while done < 30:
        a, b = rng.randint(1, 50), rng.randint(1, 50)
        if math.gcd(a, b) != 1:
            continue
        tau = Point.from_path(monomial_path(a, b))
        assert tau.ord_at(x) == a
        assert tau.ord_at(y) == b
        done += 1
    _verdict(8, "30 random coprime monomial weight pairs", start)


def test_criterion_09_semigroup_ladder():
    start = time.perf_counter()

    def rung(n):
        return [(1, 0), (0, 1)] + [(-k, k + 1) for k in range(1, n)]

    for n in range(1, 11):
        assert semigroup_member((-n, n + 1), rung(n + 1))
        assert not semigroup_member((-1, 1), rung(n))
    _verdict(9, "semigroup ladder membership up to rung 11", start)


def test_criterion_10_budget_and_exactness():
    start = time.perf_counter()
    package = Path(__file__).resolve().parent.parent / "src" / "blowup"
    offending = []
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             (float, complex)):
                offending.append((source.name, node.lineno, repr(node.value)))
            if isinstance(node, ast.Name) and node.id in ("float", "complex"):
                offending.append((source.name, node.lineno, node.id))
    assert offending == [], offending
    total = sum(ELAPSED.values()) + (time.perf_counter() - start)
    assert total < 60.0, f"acceptance gate took {total:.1f} s"
    ELAPSED[10] = time.perf_counter() - start
    print(f"criterion 10: PASS - no floating point in the package, "
          f"gate total {total:.1f} s ({ELAPSED[10]:.2f} s)")
