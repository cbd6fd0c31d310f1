"""Write the golden CLI corpus: one JSON line per in-process CLI run.

    PYTHONPATH=src python3 tests/golden/generate.py > tests/golden/cli.jsonl

Each line holds {"argv", "files", "stdout", "stderr", "exit"}: the
arguments, the input files the run reads (name -> text, written into an
empty working directory first), and what `blowup.cli.main` printed and
returned.  `tests/test_golden.py` replays every line and compares the
output byte for byte.

The corpus covers `member` in text and `--json` over nine family shapes
and sixteen elements, the seven demos in text and `--json`, `position`
on a fixed set of paths, a sum whose two terms share a large
denominator, elements decided at the root of a path whose end chart is
over the budget, walks that settle deep along a path or not within its
cap, and chains and siblings refused for following a monomial
valuation, small or with a weight path of 10^14 steps, or for a float
weight.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Dict, Iterator, List, Tuple

from blowup import cli
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
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            lines = [json.dumps(run(argv, files)) for argv, files in cases()]
        finally:
            os.chdir(cwd)
    sys.stdout.write("".join(line + "\n" for line in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
