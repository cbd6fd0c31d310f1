"""Write the golden CLI corpus and its cost corpus: one JSON line per
in-process CLI run in each.

    PYTHONPATH=src python3 tests/golden/generate.py

Each line of `cli.jsonl` holds {"argv", "files", "stdout", "stderr",
"exit"}: the arguments, the input files the run reads (name -> text,
written into an empty working directory first), and what
`blowup.cli.main` printed and returned.  The line of `cost.jsonl` in the
same place holds {"argv", "charges"}: the number of chart steps the run
charged to the chart budget (`tree.charge`).  `tests/test_golden.py`
replays every run and compares the output byte for byte and the count
exactly.

The corpus covers `member` in text and `--json` over nine family shapes
and sixteen elements, the seven demos in text and `--json`, `position`
on a fixed set of paths, a sum whose two terms share a large
denominator, elements decided at the root of a path whose end chart is
over the budget, walks that settle deep along a path or not within its
cap, and chains and siblings refused for following a monomial
valuation, small or with a weight path of 10^14 steps, or for a float
weight.

It also runs every other subcommand in text and `--json`: `resolve`
over the sixteen elements and with a depth bound or a start point,
`prox`, `ancestors` and `strict` over the position paths, the four
topology commands over the nine family shapes (`closure` also with
probe points), `irredundant` on two fibers, `semigroup`, `dot`, the
README's examples with every exit-2 and exit-3 case it names, and
malformed family and curve inputs: path steps past the bit bound of a
number and the zero curve under `strict` among them, and steps of more
digits than Python reads into an int.  A curve with one rational and two
irrational tangents is refused by `limits` and `member`, an element
refused for trailing input is echoed whole when short and cut when long,
and so are malformed family values of thousands of characters.  A
sibling member where a monomial of degree 3,524,578 is a pole is found
without the chart step to it, which would pass the budget, and a
certificate over those siblings whose candidate stays on their path past
the walk's cap names the point it reached.

Last, `position` at the root reads quotients: regular parameter pairs of
points with inf steps, as the deep-charts benchmark builds them, constant,
monomial and nested divisors, negative powers, quotients in `a`, a large
coprime quotient, and a sum, a product and a power of quotients over
their budgets.  `member` over the fiber at the root takes the two
branches of the parametric fiber analysis for poles that move with a
along a curve, and over a fiber that excludes the steps 0-15 it finds
the failing member past them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from blowup import cli, tree
from blowup.demos import demo_names

INF = "inf"

# One family of every shape: singleton, fibers with and without a tail,
# excluded steps or a step map, chains and siblings along a periodic path
# and along a curve branch.
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

CONCRETE = ("x", "y", "y/x", "x/y", "x^2/y", "y^2/x", "1/(1+y)", "(x + y)/(x - y)",
            "x*y/(x^2 + y^3)", "1/(1 - x - y)")
PARAMETRIC = ("y^2/(x + a*y)", "(x + a*y)/y", "(y + a*x)/x", "x^2/(y + a*x^2)",
              "a*x/(y - x)", "(y - a*x)/(x^2 + y)")
ELEMENTS = CONCRETE + PARAMETRIC

POSITION_PATHS = ("[]", "[0]", "[1, inf]", "[inf, 0]", "[-1/2, inf]", "[inf, inf, 0, 1]",
                  "[1/2, 2, inf, -1]", "[1, -1, 1, -1, 1]")

# The two terms share the denominator (1 + x + y)^30 of 496 terms.
SUM_BUDGET = "x/(1+x+y)^30 + y/(1+x+y)^30"

# Units at the root whose chart at the end of the path is over the budget.
ROOT_UNITS = ("a/(1+x+y)^30", "1/(1+x+y)^30")
ROOT_UNIT_PATH = "[1, 1, 1, 1, 1, 1]"

# Siblings along [] + [0]: the first two elements settle at levels 30 and
# 20, the last at level 70, past the walk's cap.
DEEP_SIBLINGS = {"kind": "siblings", "offset": "1",
                 "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]}}
DEEP_ELEMENTS = ("x*y/(y - x^30)", "y^2/(x^20 + a*y)", "x^70/y")

# Chains and siblings follow a minimal valuation, so every one of these
# is refused with exit 2, the weight (10^14, 1) too, whose path is never
# built.
MONOMIAL_FAMILIES = {
    f"{kind}-monomial-{a}-{b}": dict(part, valuation={"kind": "monomial", "a": a, "b": b})
    for kind, part in (("chain", {"kind": "chain", "from": 1}),
                       ("siblings", {"kind": "siblings", "offset": "1"}))
    for a, b in ((2, 3), (10 ** 14, 1))
}
MONOMIAL_FAMILIES["chain-float-weight"] = {
    "kind": "chain", "from": 1, "valuation": {"kind": "monomial", "a": 0.5, "b": 1}}


def cases() -> Iterator[Tuple[List[str], Dict[str, str]]]:
    """(argv, input files) of every run, in corpus order."""
    for name, part in FAMILIES.items():
        files = {f"{name}.json": json.dumps([part])}
        for text in ELEMENTS:
            argv = ["member", "--elt", text, "--family", f"{name}.json"]
            yield argv, files
            yield argv + ["--json"], files
    for name in demo_names():
        yield ["demo", name], {}
        yield ["demo", name, "--json"], {}
    for path in POSITION_PATHS:
        for text in ELEMENTS:
            argv = ["position", "--elt", text, "--point", path]
            yield argv, {}
            yield argv + ["--json"], {}
    for extra in ([], ["--json"]):
        yield ["position", "--elt", SUM_BUDGET, "--point", "[]"] + extra, {}
    for name, part in MONOMIAL_FAMILIES.items():
        files = {f"{name}.json": json.dumps([part])}
        argv = ["member", "--elt", "x", "--family", f"{name}.json"]
        yield argv, files
        yield argv + ["--json"], files
    for text in ROOT_UNITS:
        argv = ["position", "--elt", text, "--point", ROOT_UNIT_PATH]
        yield argv, {}
        yield argv + ["--json"], {}
    files = {"deep-siblings.json": json.dumps([DEEP_SIBLINGS])}
    for text in DEEP_ELEMENTS:
        argv = ["member", "--elt", text, "--family", "deep-siblings.json"]
        yield argv, files
        yield argv + ["--json"], files
    for argv, files in _subcommand_cases():
        yield argv, files
        yield argv + ["--json"], files


# The README's element, and the start point of a `resolve` below it.
README_ELEMENT = "x*y/(y^2 + x^3)"
CURVES = ("y^2 - x^3", "y - x^2", "x^2 - y^3")
CLOSURE_PROBES = ("[0, inf]", "[0, 0, 0]", "[1, -1, 0]")
# The family-queries workload's certificate family: two fibers that share
# no member.
TWO_FIBERS = [{"kind": "fiber", "base": [], "excluded": [INF]}, {"kind": "fiber", "base": [INF]}]
IRREDUNDANT = (("[2]", "y - (2)*x"), ("[inf, 3]", "x - (3)*y^2"), ("[2]", "y - (3)*x"))
SIBLINGS_OFF_INF = {"kind": "siblings", "offset": "1",
                    "valuation": {"kind": "minimal", "prefix": [INF], "period": ["-1"]}}

# The exit-2 and exit-3 elements the README names.
README_REFUSED = ("2^100000", "(1+x+y)^100", "(1+x)^30*(1+y)^30", "1/(1+x)^30 + 1/(1+y)^30",
                  "x^\u00b2", "(" * 101 + "x" + ")" * 101)
README_RESOLVE = ("(y^2 - 1000000000000000003*x^2)/x^2",
                  "(963761198400*y^2 + x*y + 963761198400*x^2)/x^2",
                  "(y - 1000000000000000003*x)/x",
                  "((y^2 - x^3)^2 - x^5*y)/((y^2 - x^3)^2 - x^5*y + x^90)")
# Curve descriptors refused when read: a split tangent cone, an irrational
# direction, and a branch still singular after the walk's cap.
REFUSED_CURVES = ("y^2 - x^2", "y^2 - 2*x^2", "y^2 - x^131")
# A curve with the rational tangent 0 beside the irrational +-sqrt(2): three
# branches, which `limits` and `member` refuse when they read the family.
MIXED_TANGENTS = "y^3 - 2*x^2*y + x^4"

# Family inputs that the readers refuse or accept at their edges.
EDGE_FAMILIES = {
    "chain-from-negative": {"kind": "chain", "from": -1,
                            "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]}},
    "chain-from-true": {"kind": "chain", "from": True,
                        "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]}},
    "chain-second": {"kind": "chain", "from": 1,
                     "valuation": {"kind": "second", "point": ["0"]}},
    "siblings-first": {"kind": "siblings", "offset": "1",
                       "valuation": {"kind": "first", "h": "y - x"}},
    "chain-unknown-kind": {"kind": "chain", "from": 1, "valuation": {"kind": "cusp"}},
}
BAD_CURVES = ("y - 1/x", "y - a*x")
# Elements refused for trailing input: echoed whole when short, and by
# their first 40 characters and their length when long.
ECHOED_ELEMENTS = ("x y", "x " + "y " * 100)

# Regular parameter pairs (u, v) of [1, -2, inf, inf], [2, inf, -1, inf] and
# [1, 2, -1, inf, -2, 1]: after a step b the pair is (u, v/u - b), after inf
# it is (v, u/v).
PARAMETER_PAIRS = (
    ("(x)/(((y)/(x) - (1))/(x) - (-2))",
     "(((y)/(x) - (1))/(x) - (-2))/((x)/(((y)/(x) - (1))/(x) - (-2)))"),
    ("((x)/((y)/(x) - (2)))/((y)/(x) - (2)) - (-1)",
     "((y)/(x) - (2))/(((x)/((y)/(x) - (2)))/((y)/(x) - (2)) - (-1))"),
    ("(((y)/(x) - (1))/(x) - (2))/(x) - (-1)",
     "(((x)/((((y)/(x) - (1))/(x) - (2))/(x) - (-1)))/((((y)/(x) - (1))/(x) - (2))/(x)"
     " - (-1)) - (-2))/((((y)/(x) - (1))/(x) - (2))/(x) - (-1)) - (1)"),
)
# Coincidence loci in a and t of fiber poles: t^2 - a is linear in a, and
# (t - a)(t - a - 1) is nonlinear in both symbols.
MIXED_FACTOR = ("x^2/(y^2 - a*x^2)", "x^2/((y - a*x)*(y - (a + 1)*x))")
# Steps past the bit bound of a number: by its size, by its exponent
# alone, refused before the power of ten is formed, and in a family as
# text and as a JSON integer.
HUGE_STEP_PATHS = ("[1e5000]", "[1e100000000]")
HUGE_STEP_BASES = ("1e100000", 10 ** 4200)
# A fiber that allows no step below 16: a generic failure of either element
# is found at the step 16, by the same scan that finds it at 0 elsewhere.
FIBER_EXCLUDING = {"kind": "fiber", "base": [], "excluded": [str(k) for k in range(16)]}
FIBER_EXCLUDING_ELEMENTS = ("1/x", "x/(y - a*x)")
# Steps of 4,000 and of 5,000 digits, under and past the digits Python reads
# into an int: both are past the bit bound.
LONG_STEP_PATHS = tuple(f"[{'1' * n}]" for n in (4000, 5000))
# Malformed family values of thousands of characters, each refused with a
# message that quotes only the value's first 40 characters and its length.
LONG_VALUES = {
    "long-kind": {"kind": "k" * 5000},
    "long-family": [1] * 3000,
    "long-chain-level": {"kind": "chain", "from": [1] * 3000,
                         "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]}},
    "long-step": {"kind": "singleton", "point": [[1] * 3000]},
    "long-missing-base": {"kind": "fiber", "pad": "p" * 4000},
    "long-path": {"kind": "singleton", "point": "0" * 4000},
    "long-valuation": {"kind": "chain", "from": 1, "valuation": [1] * 3000},
    "long-map": {"kind": "fiber", "base": [], "map": [1] * 3000},
}
# A monomial seen across a unit direction: along [] + [0] the member at
# level 1 is a pole of it, read off the lowest forms, where a chart step to
# the member would form 1,346,271 products, over the chart budget.
SIBLING_MONOMIAL = "x^2178309/y^1346269"
# A candidate whose strict transform stays on [] + [0] past the walk's cap:
# the sibling walk names the point it reached as open.
SIBLING_CURVE = "(y - x^2)*(y^2 - x^131)"
QUOTIENTS = (
    "x - x/2", "3/4", "(2*x+2)/(4*y+4)", "-x/(-y)", "(x/y)^-2",
    "((x+y)/(x-y))^3/((x+y)^2/(x*y))", "1/(x+a*y) - 1/(x-a*y)",
    "(1+x+y)^30/(1-x+y)^30",
    # over the budget: a sum, a product and a power of quotients
    "x/(1+x+y)^20 + 1/(1-x+y)^20", "(1+x+y)^20/x*(1-x+y)^20", "((1+x+y)/(x-y))^40",
)


def _subcommand_cases() -> Iterator[Tuple[List[str], Dict[str, str]]]:
    """(argv, input files) of the runs past `member`, `demo` and `position`,
    each recorded in text and in `--json`."""
    for text in ELEMENTS:
        yield ["resolve", "--elt", text], {}
    yield ["resolve", "--elt", README_ELEMENT, "--max-depth", "2"], {}
    yield ["resolve", "--elt", README_ELEMENT, "--point", "[0]"], {}
    yield ["resolve", "--f", "x*y", "--g", "y^2 + x^3"], {}
    for path in POSITION_PATHS:
        yield ["prox", "--point", path], {}
        yield ["ancestors", "--point", path], {}
        for curve in CURVES:
            yield ["strict", "--f", curve, "--point", path], {}
    for name, part in FAMILIES.items():
        files = {f"{name}.json": json.dumps([part])}
        for command in ("limits", "noetherian", "components", "closure"):
            yield [command, "--family", f"{name}.json"], files
        for probe in CLOSURE_PROBES:
            yield ["closure", "--family", f"{name}.json", "--point", probe], files
        yield ["dot", "--family", f"{name}.json", "--max-depth", "2"], files
    files = {"two-fibers.json": json.dumps(TWO_FIBERS)}
    for member, curve in IRREDUNDANT:
        yield (["irredundant", "--family", "two-fibers.json", "--member", member,
                "--candidates", curve], files)
    yield ["semigroup", "--target", "-2,3", "--gens", "1,0;0,1;-1,2;-2,3"], {}
    yield ["semigroup", "--target", "-3,1", "--gens", "1,0;0,1;-1,2"], {}
    yield ["dot"], {}
    files = {"fiber-tail.json": json.dumps([FAMILIES["fiber-tail"]])}
    yield ["dot", "--family", "fiber-tail.json", "--steps", "-1/2,2,inf"], files
    yield ["dot", "--family", "fiber-tail.json", "--node-cap", "3"], files
    yield from _readme_cases()
    yield from _edge_cases()


def _readme_cases() -> Iterator[Tuple[List[str], Dict[str, str]]]:
    yield ["resolve", "--elt", README_ELEMENT], {}
    yield ["position", "--elt", "(x + a*y)/y", "--point", "[-1/2, inf]"], {}
    yield ["prox", "--point", "[0, inf, 0]"], {}
    yield ["noetherian", "--family", "sib.json"], {"sib.json": json.dumps([DEEP_SIBLINGS])}
    files = {"fam.json": json.dumps([{"kind": "fiber", "base": []}])}
    yield ["irredundant", "--family", "fam.json", "--member", "[2]",
           "--candidates", "y - 2*x"], files
    yield ["dot", "--family", "fam.json"], files
    for text in README_REFUSED:
        yield ["position", "--elt", text, "--point", "[]"], {}
    for text in README_RESOLVE:
        yield ["resolve", "--elt", text], {}
    files = {"budget.json": json.dumps([{"kind": "singleton", "point": ["1"]},
                                        SIBLINGS_OFF_INF])}
    yield ["irredundant", "--family", "budget.json", "--member", "[1]",
           "--candidates", "(y - x)*(y^2 - x*y + x + x^29)"], files
    for curve in REFUSED_CURVES:
        files = {"branch.json": json.dumps(
            [{"kind": "chain", "from": 1, "valuation": {"kind": "curve", "h": curve}}])}
        yield ["limits", "--family", "branch.json"], files
    files = {"branch.json": json.dumps(
        [{"kind": "chain", "from": 1, "valuation": {"kind": "curve", "h": MIXED_TANGENTS}}])}
    yield ["limits", "--family", "branch.json"], files
    yield ["member", "--elt", "y/x", "--family", "branch.json"], files
    yield ["limits", "--family", "nested.json"], {"nested.json": "[" * 5000 + "]" * 5000}


def _edge_cases() -> Iterator[Tuple[List[str], Dict[str, str]]]:
    for name, part in EDGE_FAMILIES.items():
        files = {f"{name}.json": json.dumps([part])}
        yield ["member", "--elt", "x", "--family", f"{name}.json"], files
        yield ["limits", "--family", f"{name}.json"], files
    files = {"two-fibers.json": json.dumps(TWO_FIBERS)}
    for curve in BAD_CURVES:
        yield ["strict", "--f", curve, "--point", "[0]"], {}
        yield (["irredundant", "--family", "two-fibers.json", "--member", "[2]",
                "--candidates", curve], files)
    yield ["strict", "--f", "y - x^2", "--g", "x", "--point", "[0]"], {}
    for text in ECHOED_ELEMENTS:
        yield ["position", "--point", "[]", "--elt", text], {}
    for text in [e for pair in PARAMETER_PAIRS for e in pair] + list(QUOTIENTS):
        yield ["position", "--point", "[]", "--elt", text], {}
    files = {"fiber.json": json.dumps([{"kind": "fiber", "base": []}])}
    for text in MIXED_FACTOR:
        yield ["member", "--elt", text, "--family", "fiber.json"], files
    for path in HUGE_STEP_PATHS:
        yield ["prox", "--point", path], {}
    for base in HUGE_STEP_BASES:
        files = {"huge-step.json": json.dumps([{"kind": "fiber", "base": [base]}])}
        yield ["member", "--elt", "x", "--family", "huge-step.json"], files
    yield ["strict", "--f", "0", "--point", "[]"], {}
    files = {"fiber-excluding.json": json.dumps([FIBER_EXCLUDING])}
    for text in FIBER_EXCLUDING_ELEMENTS:
        yield ["member", "--elt", text, "--family", "fiber-excluding.json"], files
    for path in LONG_STEP_PATHS:
        yield ["prox", "--point", path], {}
    for name, part in LONG_VALUES.items():
        yield ["limits", "--family", f"{name}.json"], {f"{name}.json": json.dumps([part])}
    yield (["member", "--elt", SIBLING_MONOMIAL, "--family", "deep-siblings.json"],
           {"deep-siblings.json": json.dumps([DEEP_SIBLINGS])})
    yield (["irredundant", "--family", "deep-siblings.json", "--member", "[0, 1]",
            "--candidates", SIBLING_CURVE], {"deep-siblings.json": json.dumps([DEEP_SIBLINGS])})


@contextlib.contextmanager
def counting_charges() -> Iterator[List[int]]:
    """A list that grows by one entry per `tree.charge` call in the block."""
    real, calls = tree.charge, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    tree.charge = counting
    try:
        yield calls
    finally:
        tree.charge = real


def run(argv: List[str], files: Dict[str, str]) -> Dict[str, object]:
    """One in-process CLI run in the current directory, with its files."""
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as handle:
            handle.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "files": files, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "exit": code}


def main() -> int:
    outputs, costs = [], []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for argv, files in cases():
                with counting_charges() as calls:
                    outputs.append(run(argv, files))
                costs.append({"argv": argv, "charges": len(calls)})
        finally:
            os.chdir(cwd)
    here = Path(__file__).resolve().parent
    for name, records in (("cli.jsonl", outputs), ("cost.jsonl", costs)):
        (here / name).write_text("".join(json.dumps(r) + "\n" for r in records),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
