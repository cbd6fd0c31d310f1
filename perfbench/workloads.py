"""The three query workloads: seeded inputs, and how each query is run.

A workload turns a seed into a round: a list of JSON-able query specs, the
same list for the same seed.  `prepare` turns the specs into the objects a
user would hand to `blowup` (parsed elements, family files) during set-up,
and `execute` runs one query and returns its answer as plain data.  The
package only ever sees the generated inputs; the references that check the
answers live in `checks.py`.

Steps are written as strings ("0", "-1/2", "inf") throughout.

Why these three:

  tree-sweep      thousands of tiny charts: every point to depth 6 over
                  {-1, 0, 1, inf} plus seeded points over a wider alphabet.
                  The fixed cost of `Point.child` dominates; proximity,
                  topology and families do all their work here.  A change
                  aimed at deep charts should not move it.
  deep-charts     descents from depth 1 to 11 along curves with zero, one
                  and two inf/finite alternation groups, and expressions on
                  prefixes of the scaling path.  `poly` arithmetic on
                  charts of tens to hundreds of terms dominates.  Most
                  queries are shallow and a few are deep, so the median
                  falls on shallow queries and the 90th percentile on deep
                  ones.
  family-queries  the command line run in process with --json: membership
                  on every family shape, the topology commands, the
                  certificate and semigroup commands and two demos.  The
                  membership and valuation walks and the front end
                  dominate.  Chain and sibling families whose period holds
                  inf exceed the time limit and count as failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from fractions import Fraction
from typing import Dict, List, Optional

INF = "inf"

# Per-query time limits in seconds, each far from the time of any query at
# the seed: routine queries take milliseconds, the slowest deep descent and
# the slower demo a few seconds.
LIMIT_S = {"tree-sweep": 2.0, "deep-charts": 20.0, "family-queries": 1.0}
DEMO_LIMIT_S = 20.0


def _fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- tree-sweep ----------------------------------------------------------------

TREE_ALPHABET = ("-1", "0", "1", INF)
WIDE_ALPHABET = ("-2", "-1", "-1/2", "0", "1/2", "1", "2", INF)
TREE_DEPTH = 6
TREE_SEEDED = 500
# x is in every maximal ideal and 1/(1+y) is a unit of D, so their positions
# are known everywhere; y/x changes with the path.
TREE_ELEMENTS = ("x", "y/x", "1/(1+y)")


def tree_sweep(seed: int) -> List[Dict]:
    rng = _rng("tree-sweep", seed)
    fixed = [()]
    frontier = [()]
    for _ in range(TREE_DEPTH):
        frontier = [p + (s,) for p in frontier for s in TREE_ALPHABET]
        fixed.extend(frontier)
    seeded = [tuple(rng.choice(WIDE_ALPHABET) for _ in range(rng.randint(1, TREE_DEPTH)))
              for _ in range(TREE_SEEDED)]
    every = len(fixed) // TREE_SEEDED
    queries = []
    for i, path in enumerate(fixed):
        queries.append(_tree_query(rng, path, "root" if not path else "child"))
        if i % every == every - 1 and seeded:
            queries.append(_tree_query(rng, seeded.pop(), "path"))
    for path in seeded:
        queries.append(_tree_query(rng, path, "path"))
    return queries


def _tree_query(rng: random.Random, path, build: str) -> Dict:
    return {"kind": "point", "path": list(path), "build": build,
            "ancestor": rng.randint(0, len(path) - 1) if path else None,
            "depth": len(path), "limit_s": LIMIT_S["tree-sweep"]}


# -- deep-charts -------------------------------------------------------------------

SCALING_PATH = ("1", INF, "-1", "0", "1/2", INF, "2", "0", "-1", INF, "1", "0")
SCALING_DEPTH = 8
SMALL = (1, -1, 2, -2, 3)
SINGLE_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (2, 7), (4, 7), (5, 7))
# Alternation templates for locate and strict: lengths of finite and inf
# groups in turn.  Nonzero finite steps keep the cost of one template about
# the same across seeds.
TEMPLATES = ((3,), (6,), (9,), (11,), (2, 2), (3, 3), (4, 3), (1, 1, 1, 1),
             (2, 1, 2), (3, 1, 2))
CURVES = ("y^3 - x^5 + x^4*y", "y^2 - x^3", "x^2 - y^5 + x*y^3", "(y^2 - x^3)^2 - x^5*y",
          "y^4 - x^7 + x^5*y")
EXPRESS_ELEMENTS = ("(y^2 - x^3)/(x + 2*y)", "x*y/(y^2 + x^3)", "(x - y)/(x + y^2)",
                    "y/(x + y)", "(x^2 + y)/(y^2 - x)")


def deep_charts(seed: int) -> List[Dict]:
    rng = _rng("deep-charts", seed)
    limit = LIMIT_S["deep-charts"]
    queries: List[Dict] = []
    for _ in range(3):
        # zero alternations: y = p(x) and a second curve leaving it at order k
        for k in range(2, 12):
            p = " + ".join(f"({rng.choice(SMALL)})*x^{i}" for i in range(1, k))
            c = rng.choice(SMALL)
            queries.append({"kind": "resolve", "limit_s": limit,
                            "element": f"(y - ({p}))/(y - ({p}) - ({c})*x^{k})"})
        for template in TEMPLATES:
            path = _template_path(rng, template)
            u, v = _parameter_pair(path)
            queries.append({"kind": "locate", "f": u, "g": v, "path": list(path),
                            "depth": len(path), "limit_s": limit})
        for template in TEMPLATES[::2]:
            path = _template_path(rng, template)
            queries.append({"kind": "strict", "curve": rng.choice(CURVES), "path": list(path),
                            "depth": len(path), "limit_s": limit})
    # one alternation group: a single characteristic pair, in both orientations
    for p, q in SINGLE_PAIRS:
        for u, v in (("y", "x"), ("x", "y")) * 2:
            h = f"({u}^{p} - {v}^{q})"
            queries.append({"kind": "resolve", "limit_s": limit,
                            "element": f"{h}/({h} + ({rng.choice(SMALL)})*{v}^{q + 1})"})
    # two alternation groups, fixed because their cost dominates a round: h
    # has two characteristic pairs, and k = 5 makes the quotient vanish along
    # a whole exceptional curve (a ResolveError)
    h = "((y^2 - x^3)^2 - x^5*y)"
    for k in (5, 6, 7):
        queries.append({"kind": "resolve", "element": f"{h}/({h} + x^{k})", "limit_s": limit})
    for depth in range(1, SCALING_DEPTH + 1):
        for text in EXPRESS_ELEMENTS:
            queries.append({"kind": "express", "element": text,
                            "path": list(SCALING_PATH[:depth]), "depth": depth,
                            "limit_s": limit})
    rng.shuffle(queries)
    return queries


def _template_path(rng: random.Random, template) -> List[str]:
    path: List[str] = []
    for i, length in enumerate(template):
        path.extend(rng.choice(("1", "-1", "2", "-2")) if i % 2 == 0 else INF
                    for _ in range(length))
    return path


def _parameter_pair(path) -> tuple:
    """A regular parameter pair of the point at path, as element texts.

    Inverting one step: after step b the parameters are (u, v/u - b), after
    inf they are (v, u/v)."""
    u, v = "x", "y"
    for s in path:
        if s == INF:
            u, v = v, f"({u})/({v})"
        else:
            v = f"({v})/({u}) - ({s})"
    return u, v


# -- family-queries ------------------------------------------------------------------

CONCRETE = ("x", "y", "y/x", "x/y", "x^2/y", "y^2/x", "1/(1+y)", "(x + y)/(x - y)",
            "x*y/(x^2 + y^3)", "1/(1 - x - y)")
PARAMETRIC = ("y^2/(x + a*y)", "(x + a*y)/y", "(y + a*x)/x", "x^2/(y + a*x^2)",
              "a*x/(y - x)", "(y - a*x)/(x^2 + y)")
FIRST_STEPS = ("-1", "0", "1", "2", "1/2", INF)


# Fixed families covering every shape, so that the membership walks (the
# costliest queries here) are the same for every seed; the seed moves the
# closure probes, the certificates and the semigroup questions.
FAMILIES = {
    "singleton": {"kind": "singleton", "point": ["0", INF]},
    "fiber-tail": {"kind": "fiber", "base": [], "excluded": ["0"], "tail": [INF]},
    "fiber-based": {"kind": "fiber", "base": ["1"], "excluded": ["-1"], "tail": [INF, "0"]},
    "fiber-sideways": {"kind": "fiber", "base": [], "tail": ["1"]},
    "fiber-map": {"kind": "fiber", "base": ["1"],
                  "map": {"a": "0", "b": "-1", "c": "1", "d": "0"}},
    "chain-periodic": {"kind": "chain", "from": 1,
                       "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]}},
    "chain-curve": {"kind": "chain", "from": 2, "valuation": {"kind": "curve", "h": "x^2 - y^3"}},
    "siblings-periodic": {"kind": "siblings", "offset": "1",
                          "valuation": {"kind": "minimal", "prefix": ["1"], "period": ["-1"]}},
    "siblings-curve": {"kind": "siblings", "offset": "1",
                       "valuation": {"kind": "curve", "h": "y^2 - x^3"}},
}


# Families whose period holds inf: the membership walk grows its charts
# without bound and does not end within the limit at the default depth.
RUNAWAY = {
    "siblings-runaway": {"kind": "siblings", "offset": "1",
                         "valuation": {"kind": "minimal", "prefix": ["1/2", INF],
                                       "period": ["1", INF]}},
    "chain-runaway": {"kind": "chain", "from": 1,
                      "valuation": {"kind": "minimal", "prefix": ["1/2", INF],
                                    "period": ["1", INF]}},
}
TWO_FIBERS = [{"kind": "fiber", "base": [], "excluded": [INF]}, {"kind": "fiber", "base": [INF]}]
LADDER = [[1, 0], [0, 1]]


def family_queries(seed: int) -> List[Dict]:
    rng = _rng("family-queries", seed)
    limit = LIMIT_S["family-queries"]
    queries: List[Dict] = []

    def cli(argv, family=None, **extra):
        q = {"kind": "cli", "argv": argv, "family": family, "limit_s": limit}
        if family is not None:
            q["part"] = FAMILIES.get(family) or RUNAWAY.get(family)
        q.update(extra)
        queries.append(q)

    for name in FAMILIES:
        for text in CONCRETE + PARAMETRIC:
            cli(["member", "--elt", text], name)
        for command in ("limits", "noetherian", "components"):
            cli([command], name)
        for _ in range(6):
            probe = [rng.choice(FIRST_STEPS) for _ in range(rng.randint(1, 4))]
            cli(["closure", "--point", "[" + ", ".join(probe) + "]"], name, probe=probe)
    for _ in range(3):
        b = rng.choice((1, -1, 2, 3, 7))
        c = b + rng.choice((1, 2, -3))
        cli(["irredundant", "--member", f"[{b}]", "--candidates", f"y - ({b})*x"],
            "two-fibers", member=[str(b)], curve=f"y - ({b})*x")
        cli(["irredundant", "--member", f"[inf, {c}]", "--candidates", f"x - ({c})*y^2"],
            "two-fibers", member=[INF, str(c)], curve=f"x - ({c})*y^2")
        cli(["irredundant", "--member", f"[{b}]", "--candidates", f"y - ({c})*x"],
            "two-fibers", member=[str(b)], curve=None)
    cli(["semigroup", "--target", "-2,3", "--gens", "1,0;0,1;-1,2;-2,3"])
    for _ in range(16):
        rung = rng.randint(1, 6)
        gens = LADDER + [[-k, k + 1] for k in range(1, rung)]
        target = [rng.randint(-4, 3), rng.randint(0, 6)]
        cli(["semigroup", "--target", f"{target[0]},{target[1]}",
             "--gens", ";".join(f"{g[0]},{g[1]}" for g in gens)])
    for name in ("local-fiber-intersection", "two-ring-cover"):
        queries.append({"kind": "cli", "argv": ["demo", name], "family": None,
                        "limit_s": DEMO_LIMIT_S})
    for name in RUNAWAY:
        cli(["member", "--elt", "1/(1+y)"], name)
    rng.shuffle(queries)
    return queries


GENERATORS = {"tree-sweep": tree_sweep, "deep-charts": deep_charts,
              "family-queries": family_queries}


def family_files(queries: List[Dict]) -> Dict[str, object]:
    """Family name -> JSON document, for every family the queries name."""
    out: Dict[str, object] = {}
    for q in queries:
        name = q.get("family")
        if name is not None:
            out[name] = TWO_FIBERS if name == "two-fibers" else [q["part"]]
    return out


# -- running queries -----------------------------------------------------------------


class Context:
    """What set-up hands to the timed phase: the imported package and the
    inputs already in the form a user would pass them."""

    def __init__(self, bl, workload: str):
        self.bl = bl
        # the module, not the function: a traced run patches the attribute
        self.position_module = importlib.import_module("blowup.position")
        self.workload = workload
        self.points: Dict[tuple, object] = {}
        self.elements: Dict[str, object] = {}
        self.closures: tuple = ()
        self.family_dir: Optional[str] = None

    def step(self, s: str):
        return self.bl.INF if s == INF else Fraction(s)

    def element(self, text: str):
        value = self.elements.get(text)
        if value is None:
            value = self.elements[text] = self.bl.parse_element(text)
        return value


def prepare(bl, workload: str, queries: List[Dict], out_dir: str) -> Context:
    ctx = Context(bl, workload)
    if workload == "tree-sweep":
        root = bl.Point.root()
        ctx.closures = (bl.zariski_closure((bl.Fiber(root), bl.Singleton(root))),
                        bl.zariski_closure(bl.Siblings(
                            bl.MinimalEventuallyPeriodic([], [0]), 1)))
        for text in TREE_ELEMENTS:
            ctx.element(text)
    elif workload == "deep-charts":
        for q in queries:
            for key in ("element", "f", "g"):
                if key in q:
                    ctx.element(q[key])
            if q["kind"] == "strict":
                ctx.element(q["curve"])
    else:
        ctx.family_dir = os.path.join(out_dir, "families")
        os.makedirs(ctx.family_dir, exist_ok=True)
        for name, doc in family_files(queries).items():
            with open(os.path.join(ctx.family_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
    return ctx


def warm_up(ctx: Context) -> None:
    """A few small queries outside the round, so that first-call costs do
    not land on the round's first queries."""
    bl = ctx.bl
    if ctx.workload == "family-queries":
        _run_cli(ctx, {"argv": ["semigroup", "--target", "1,1", "--gens", "1,0;0,1"],
                       "family": None})
    else:
        point = bl.Point.root().child(Fraction(0))
        bl.position(point, bl.parse_element("y/x"))
        bl.resolve(bl.parse_element("x*y/(y^2 + x^3)"))


def execute(ctx: Context, q: Dict):
    kind = q["kind"]
    if kind == "point":
        return _run_point(ctx, q)
    if kind == "cli":
        return _run_cli(ctx, q)
    bl = ctx.bl
    try:
        if kind == "resolve":
            r = bl.resolve(ctx.element(q["element"]))
            return {"zeros": sorted(_lit(p) for p in r.zeros),
                    "poles": sorted(_lit(p) for p in r.poles),
                    "depth_used": r.depth_used, "irrational": bool(r.diagnostics)}
        if kind == "locate":
            return {"point": _lit(bl.locate(ctx.element(q["f"]), ctx.element(q["g"])))}
        point = bl.Point.from_path(ctx.step(s) for s in q["path"])
        if kind == "strict":
            h = point.strict_transform(ctx.element(q["curve"]).num)
            return {"strict": poly_terms(h), "multiplicity": h.xy_order()}
        expressed = point.express(ctx.element(q["element"]))
        return {"position": ctx.position_module.classify_expressed(expressed).value,
                "num": poly_terms(expressed.num), "den": poly_terms(expressed.den)}
    except bl.BlowupError as exc:
        return {"error": type(exc).__name__}


def _lit(point) -> str:
    return "[" + ", ".join(_fmt(s) if isinstance(s, Fraction) else INF
                           for s in point.steps) + "]"


def poly_terms(p) -> List[List[object]]:
    """Sorted [i, j, k, "coeff"] entries of a package polynomial in x, y, a."""
    return sorted([e[0], e[1], e[2], _fmt(c)] for e, c in p.terms.items())


def _run_point(ctx: Context, q: Dict):
    bl = ctx.bl
    path = tuple(q["path"])
    if q["build"] == "root":
        ctx.points.clear()  # a new round builds its own tree
        point = bl.Point.root()
    elif q["build"] == "child":
        point = ctx.points[path[:-1]].child(ctx.step(path[-1]))
    else:
        point = bl.Point.from_path(ctx.step(s) for s in path)
    if q["build"] != "path":
        ctx.points[path] = point
    return {
        "prox": [p.level for p in bl.proximate_ancestors(point)],
        "is_prox": (bl.is_proximate(point, point.ancestor(q["ancestor"]))
                    if q["ancestor"] is not None else None),
        "closure": [bl.closure_member(c, point) for c in ctx.closures],
        "pos": [bl.position(point, ctx.elements[t]).value for t in TREE_ELEMENTS],
    }


def _run_cli(ctx: Context, q: Dict):
    argv = list(q["argv"])
    if q.get("family"):
        argv += ["--family", os.path.join(ctx.family_dir, f"{q['family']}.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.bl.cli.main(argv + ["--json"])
    text = out.getvalue()
    return {"exit": code, "report": json.loads(text) if text else None,
            "error": json.loads(err.getvalue())["error"] if err.getvalue() else None}
