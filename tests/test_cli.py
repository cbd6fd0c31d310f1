"""Command line behavior: dispatch, exit codes, and the print/parse round trips."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from blowup import cli
from blowup.cli import main
from blowup.errors import InputError
from blowup.expr import INF, format_path, parse_element, parse_path
from blowup.families import Chain, Fiber, MoebiusMap, Siblings, Singleton
from blowup.jsonio import (family_set_from_json, family_set_to_json,
                           valuation_from_json, valuation_to_json)
from blowup.poly import A, Poly, RatFunc, X, Y
from blowup.tree import Point
from blowup.valuations import (FirstKind, MinimalCurveBranch,
                               MinimalEventuallyPeriodic, SecondKind)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, (json.loads(out) if out else None), err


@pytest.fixture
def family_file(tmp_path):
    def write(data, name="family.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


C_FIBER = {"kind": "fiber", "base": [], "tail": ["inf"]}
SIBLINGS = {"kind": "siblings",
            "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]},
            "offset": "1"}
CHAIN = {"kind": "chain", "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]},
         "from": 1}
CURVE_CHAIN = {"kind": "chain", "valuation": {"kind": "curve", "h": "x^2 - y^3"}, "from": 2}

# One part of each shape, and the values that replace each of its fields.
EXAMPLE_PARTS = ({"kind": "singleton", "point": ["0", "inf"]},
                 {"kind": "fiber", "base": [], "excluded": ["0"], "tail": ["inf"]},
                 CHAIN, CURVE_CHAIN, SIBLINGS)
MALFORMED = ("1", None, 1.5, True, -1, 10 ** 20, [], {})
# (field, replacement) pairs that still make a family: an empty path or
# exclusion list, and a nonzero offset.
WELL_FORMED = [("point", []), ("base", []), ("excluded", []), ("tail", []),
               ("offset", "1"), ("offset", -1), ("offset", 10 ** 20)]


def malformed_parts():
    """(part, field, value) for each field of each example part replaced by
    each of the malformed values."""
    for part in EXAMPLE_PARTS:
        for field in part:
            for value in MALFORMED:
                yield dict(part, **{field: value}), field, value


# -- command dispatch --------------------------------------------------------


class TestCommands:
    def test_resolve(self, capsys):
        code, report, err = run_json(capsys, "resolve", "--elt", "x*y/(y^2+x^3)")
        assert code == 0 and not err
        assert report["zeros"] == ["[0, 0]", "[inf]"]
        assert report["poles"] == ["[0, inf]"]
        assert report["depth_used"] == 2

    def test_resolve_huge_linear_direction(self, capsys):
        # a linear direction polynomial is solved in closed form, with no
        # divisor search on its coefficients
        code, report, err = run_json(capsys, "resolve", "--elt",
                                     "(y - 1000000000000000003*x)/x")
        assert code == 0 and not err
        assert report["zeros"] == ["[1000000000000000003]"]
        assert report["poles"] == ["[inf]"]

    def test_resolve_pair_flags(self, capsys):
        code, report, _ = run_json(capsys, "resolve", "--f", "x*y", "--g", "y^2+x^3")
        assert code == 0
        assert report["zeros"] == ["[0, 0]", "[inf]"]

    def test_elt_and_pair_conflict(self, capsys):
        code, _, err = run(capsys, "resolve", "--elt", "x", "--f", "x")
        assert code == 2
        assert "not both" in json.loads(err)["error"]["message"]

    def test_position_concrete(self, capsys):
        code, report, _ = run_json(capsys, "position", "--elt", "y^2/(x+2*y)",
                                   "--point", "[-1/2, inf]")
        assert code == 0
        assert report["position"] == "zero"

    def test_position_parametric(self, capsys):
        code, report, _ = run_json(capsys, "position", "--elt", "(x+a*y)/y",
                                   "--point", "[-1/2, inf]")
        assert code == 0
        assert report["generic"] == "unit"
        assert report["exceptional"] == {"2": "zero"}

    def test_prox(self, capsys):
        code, report, _ = run_json(capsys, "prox", "--point", "[0, inf, 0]")
        assert code == 0
        assert report["proximate_ancestors"] == ["[0, inf]", "[]"]

    def test_ancestors(self, capsys):
        code, report, _ = run_json(capsys, "ancestors", "--point", "[0, inf]")
        assert code == 0
        assert report["ancestors"] == ["[]", "[0]"]

    def test_strict(self, capsys):
        code, report, _ = run_json(capsys, "strict", "--f", "x^2-y^3",
                                   "--point", "[inf, inf]")
        assert code == 0
        assert report["strict_transform"] == "x - y"
        assert report["multiplicity"] == 1

    def test_limits(self, capsys, family_file):
        code, report, _ = run_json(capsys, "limits", "--family",
                                   family_file(SIBLINGS))
        assert code == 0
        assert report["limit_points"] == [
            {"kind": "minimal", "prefix": [], "period": ["0"]}]

    def test_closure_with_point(self, capsys, family_file):
        path = family_file(C_FIBER)
        code, report, _ = run_json(capsys, "closure", "--family", path,
                                   "--point", "[3, inf, 0]")
        assert code == 0
        assert report["member"] is True
        assert report["closure"]["divisor_downsets"] == [
            {"kind": "second", "point": []}]

    def test_noetherian_both_ways(self, capsys, family_file):
        code, report, _ = run_json(capsys, "noetherian", "--family",
                                   family_file(C_FIBER))
        assert code == 0 and report["noetherian"] is True
        assert report["covering"] == [{"kind": "second", "point": []}]
        code, report, _ = run_json(capsys, "noetherian", "--family",
                                   family_file(SIBLINGS, "s.json"))
        assert code == 0 and report["noetherian"] is False
        assert "siblings" in report["witness"]

    def test_components(self, capsys, family_file):
        code, report, _ = run_json(capsys, "components", "--family",
                                   family_file(C_FIBER))
        assert code == 0
        assert report["components"] == [{"kind": "second", "point": []}]

    def test_components_infinite_exits_3(self, capsys, family_file):
        code, out, err = run(capsys, "components", "--family",
                             family_file(SIBLINGS))
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "ComponentError" and error["exit"] == 3
        assert "siblings" in error["witness"]

    def test_member(self, capsys, family_file):
        path = family_file(C_FIBER)
        code, report, _ = run_json(capsys, "member", "--elt", "y^2/(x+a*y)",
                                   "--family", path)
        assert code == 0
        assert report["verdict"] == "yes"
        assert report["exceptions"] == {} and report["flags"] == []
        code, report, _ = run_json(capsys, "member", "--elt", "y/x",
                                   "--family", path)
        assert code == 0
        assert report["verdict"] == "no"
        assert report["witness"] == "[inf, inf]"

    def test_irredundant(self, capsys, family_file):
        path = family_file([
            {"kind": "fiber", "base": [], "excluded": ["inf"]},
            {"kind": "fiber", "base": ["inf"]},
        ])
        code, report, _ = run_json(capsys, "irredundant", "--family", path,
                                   "--member", "[2]", "--candidates", "y-2*x")
        assert code == 0
        assert report["member"] == "[2]"
        assert report["valuation"] == {"kind": "first", "h": "x - 1/2*y"}

    def test_irredundant_obstructions_exit_3(self, capsys, family_file):
        path = family_file([
            {"kind": "fiber", "base": [], "excluded": ["inf"]},
            {"kind": "fiber", "base": ["inf"]},
        ])
        code, out, err = run(capsys, "irredundant", "--family", path,
                             "--member", "[2]", "--candidates", "y-3*x")
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "CertificateError"
        assert error["obstructions"]

    def test_semigroup(self, capsys):
        code, report, _ = run_json(capsys, "semigroup", "--target", "-2,3",
                                   "--gens", "1,0;0,1;-1,2;-2,3")
        assert code == 0 and report["member"] is True
        code, report, _ = run_json(capsys, "semigroup", "--target", "-1,1",
                                   "--gens", "1,0;0,1;-1,2")
        assert code == 0 and report["member"] is False

    def test_demo_listing_and_run(self, capsys):
        code, report, _ = run_json(capsys, "demo")
        assert code == 0
        assert "distinguished-zeros" in report["available"]
        code, report, _ = run_json(capsys, "demo", "ascending-union-semigroup")
        assert code == 0 and report["ok"] is True
        assert all(c["ok"] for c in report["checks"])

    def test_demo_unknown_exits_2(self, capsys):
        code, _, err = run(capsys, "demo", "no-such-walkthrough")
        assert code == 2
        assert json.loads(err)["error"]["exit"] == 2

    def test_dot_stdout_and_file(self, capsys, family_file, tmp_path):
        path = family_file(C_FIBER)
        code, report, _ = run_json(capsys, "dot", "--family", path,
                                   "--steps", "-1,0,1,inf", "--max-depth", "2")
        assert code == 0 and report["nodes"] == 9
        assert report["text"].startswith("digraph quadratic_tree {")
        out_file = tmp_path / "window.gv"
        code, report, _ = run_json(capsys, "dot", "--family", path,
                                   "--dot", str(out_file))
        assert code == 0 and report["written"] == str(out_file)
        assert out_file.read_text().startswith("digraph quadratic_tree {")

    def test_dot_without_family_is_root(self, capsys):
        code, report, _ = run_json(capsys, "dot", "--max-depth", "0")
        assert code == 0 and report["nodes"] == 1


# -- one parser per process -------------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_env():
    extra = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + extra),
                PYTHONIOENCODING="utf-8")


def run_fresh(*argv):
    result = subprocess.run([sys.executable, "-m", "blowup.cli", *argv], env=fresh_env(),
                            capture_output=True, encoding="utf-8", timeout=60)
    return result.returncode, result.stdout, result.stderr


def test_reused_parser_answers_like_a_fresh_process(capsys, family_file):
    # main builds its parser once per process; a flag given in one call
    # must not leak into the next, and a usage error must not stick
    assert cli._build_parser() is cli._build_parser()
    path = family_file(C_FIBER)
    elt = "(y - x^2)/(y - x^2 + x^5)"
    sequence = [
        ("resolve", "--elt", elt, "--max-depth", "2"),
        ("resolve", "--elt", elt),
        ("dot", "--family", path, "--node-cap", "5", "--steps", "0,inf"),
        ("dot", "--family", path),
        ("demo", "two-ring-cover"),
        ("demo",),
        ("position", "--elt", "x"),
        ("position", "--elt", "x", "--point", "[0]"),
    ]
    for argv in sequence:
        assert run(capsys, *argv) == run_fresh(*argv), argv


def test_value_flags_are_every_option_that_takes_a_value():
    # read from argparse internals: an option added to a subcommand but not
    # to the list would stop taking values that start with "-"
    subcommands = next(action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    flags = {flag for parser in subcommands.values() for action in parser._actions
             if action.nargs != 0 for flag in action.option_strings}
    assert cli._VALUE_FLAGS == flags


# -- exit codes and error JSON -----------------------------------------------


class TestErrors:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "position", "--elt", "x")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "UsageError" and error["exit"] == 2

    def test_seed_flag_is_rejected(self, capsys):
        code, _, err = run(capsys, "prox", "--point", "[0]", "--seed", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_member_has_no_depth_flag(self, capsys, family_file):
        code, _, err = run(capsys, "member", "--elt", "x", "--family",
                           family_file(C_FIBER), "--max-depth", "3")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UsageError"

    def test_member_walk_cap_exits_3(self, capsys, family_file):
        # still undetermined at P_64 of the path, every member so far a member
        code, _, err = run(capsys, "member", "--elt", "x^70/(y - x^71)",
                           "--family", family_file(SIBLINGS))
        assert code == 3
        error = json.loads(err)["error"]
        assert error["type"] == "DepthCapError"
        assert "within 64 steps" in error["message"]

    def test_member_walk_cap_names_its_open_point(self, capsys, family_file):
        # x^70/y settles at level 70 of [] + [0], past the cap: P_64 is open
        code, out, err = run(capsys, "member", "--elt", "x^70/y",
                             "--family", family_file(SIBLINGS))
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "DepthCapError"
        assert error["open_points"] == ["[" + ", ".join(["0"] * 64) + "]"]

    def test_sibling_competitor_cap_names_its_open_point(self, capsys, family_file):
        # the strict transform of y^2 - x^131 stays on [] + [0] past the cap
        code, out, err = run(capsys, "irredundant", "--family", family_file(SIBLINGS),
                             "--member", "[0, 1]", "--candidates", "(y - x^2)*(y^2 - x^131)")
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "DepthCapError"
        assert error["open_points"] == ["[" + ", ".join(["0"] * 64) + "]"]

    def test_syntax_error(self, capsys):
        code, _, err = run(capsys, "position", "--elt", "x+", "--point", "[0]")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ExprSyntaxError"

    def test_computation_error(self, capsys):
        code, _, err = run(capsys, "resolve", "--elt", "x^2/y")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ResolveError"

    def test_huge_root_search_exits_3(self, capsys):
        code, out, err = run(capsys, "resolve", "--elt",
                             "(y^2 - 1000000000000000003*x^2)/x^2")
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "ComputationError"
        assert "t^2 - 1000000000000000003" in error["message"]

    @pytest.mark.parametrize("elt, direction", [
        ("(963761198400*y^2 + x*y + 963761198400*x^2)/x^2",
         "963761198400*t^2 + t + 963761198400"),
        ("(963761198400*y^3 + x*y^2 + 2*x^2*y + 963761198400*x^3)/x^3",
         "963761198400*t^3 + t^2 + 2*t + 963761198400"),
    ])
    def test_too_many_divisor_pairs_exit_3(self, capsys, elt, direction):
        # 963761198400 < 2^40 has 6720 divisors: the search would test
        # 6720^2 pairs, so it is refused instead of running for minutes
        code, out, err = run(capsys, "resolve", "--elt", elt)
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "ComputationError"
        assert direction in error["message"]
        assert "45158400 divisor pairs" in error["message"]

    def test_chart_over_budget_exits_3(self, capsys):
        # the denominator reaches 14,708 terms at level 5; without the
        # budget, the search runs for minutes before its depth cap
        start = time.perf_counter()
        code, out, err = run(capsys, "resolve", "--elt",
                             "((y^2 - x^3)^2 - x^5*y)/((y^2 - x^3)^2 - x^5*y + x^90)")
        assert time.perf_counter() - start < 2
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "ComputationError"
        assert error["message"] == ("the step 1 would form 14717 products, "
                                    "over the chart budget of 10000")

    def test_strict_transform_over_budget_exits_3(self, capsys, family_file):
        # the sibling walk's strict transforms grow level by level; without
        # the budget, naming a competitor took about a minute
        path = family_file([
            {"kind": "singleton", "point": ["1"]},
            {"kind": "siblings", "offset": "1",
             "valuation": {"kind": "minimal", "prefix": ["inf"], "period": ["-1"]}},
        ])
        start = time.perf_counter()
        code, out, err = run(capsys, "irredundant", "--family", path, "--member", "[1]",
                             "--candidates", "(y - x)*(y^2 - x*y + x + x^29)")
        assert time.perf_counter() - start < 2
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "ComputationError"
        assert error["message"] == ("the step -1 would form 10895 products, "
                                    "over the chart budget of 10000")

    def test_depth_cap_reports_open_points(self, capsys):
        code, _, err = run(capsys, "resolve", "--elt", "(x-y)/x",
                           "--max-depth", "0")
        assert code == 3
        error = json.loads(err)["error"]
        assert error["type"] == "DepthCapError"
        assert error["open_points"] == ["[]"]

    @pytest.mark.parametrize("argv, named", [
        (("strict", "--f", "y - x^2", "--g", "x", "--point", "[0]"), "--g x"),
        (("strict", "--f", "y - x^2", "--point", "[0]", "--g=x", "extra"), "--g=x extra"),
        (("prox", "--point", "[0]", "--elt", "-x"), "--elt -x"),
    ])
    def test_unknown_flag_is_named_as_typed(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert json.loads(err)["error"] == {
            "type": "UsageError", "message": f"unrecognized arguments: {named}", "exit": 2}

    @pytest.mark.parametrize("args", [("--elt", "y/x"), ("--f", "x", "--g", "y")])
    def test_negative_depth_exits_2(self, capsys, args):
        code, out, err = run(capsys, "resolve", *args, "--max-depth", "-1")
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert "nonnegative" in error["message"]

    def test_curve_with_several_branches_exits_3(self, capsys, family_file):
        path = family_file([{"kind": "siblings", "offset": "1/2",
                             "valuation": {"kind": "curve", "h": "y^2 - x^2 - x^3"}}])
        code, out, err = run(capsys, "limits", "--family", path)
        assert code == 3 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "BranchError"
        assert "several branches" in error["message"]
        # tangents 0 and +-sqrt(2): the irrational two are branches as well
        path = family_file([{"kind": "chain", "from": 1,
                             "valuation": {"kind": "curve", "h": "y^3 - 2*x^2*y + x^4"}}])
        for argv in (["member", "--elt", "y/x"],
                     ["irredundant", "--member", "[0]", "--candidates", "y"]):
            code, out, err = run(capsys, *argv, "--family", path)
            assert code == 3 and not out
            error = json.loads(err)["error"]
            assert error["type"] == "BranchError"
            assert "directions 0 and irrational ones" in error["message"]

    def test_irredundant_has_no_depth_flag(self, capsys, family_file):
        path = family_file([{"kind": "fiber", "base": [], "excluded": ["inf"]},
                            {"kind": "fiber", "base": ["inf"]}])
        code, out, err = run(capsys, "irredundant", "--family", path, "--member", "[2]",
                             "--candidates", "y-2*x", "--max-depth", "12")
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "UsageError"
        assert "--max-depth" in error["message"]

    @pytest.mark.parametrize("elt", ["2^100000", "(2*x)^20000", "1/3^9000",
                                     "2^8000*2^8000", "9" * 5000, "7" * 4000,
                                     "x^" + "9" * 5000, f"(x^{'9' * 2500})^{'9' * 2500}"])
    def test_huge_number_exits_2(self, capsys, elt):
        code, out, err = run(capsys, "position", "--elt", elt, "--point", "[0]")
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert "too large" in error["message"]

    @pytest.mark.parametrize("site, argv", [
        ("expect", ("position", "--point", "[]", "--elt", "(x " + "y " * 3000)),
        ("expect, a long token", ("position", "--point", "[]", "--elt", "x^" + "y" * 6000)),
        ("trailing input", ("position", "--point", "[]", "--elt", "x " + "y " * 3000)),
        ("trailing input, a long token", ("position", "--point", "[]",
                                          "--elt", "x " + "y" * 6000)),
        ("unknown symbol", ("position", "--point", "[]", "--elt", "z" * 6000)),
        ("unexpected token", ("position", "--point", "[]", "--elt", "x + " + "y + " * 1500 + ")")),
        ("curve text", ("strict", "--point", "[]", "--f", "y - 1/x" + " + x" * 1500)),
        ("curve value", ("limits", "--family", None)),
        ("vector pieces", ("semigroup", "--gens", "1,0", "--target", "1," * 3000)),
        ("vector entries", ("semigroup", "--gens", "1,0", "--target", "1," + "z" * 6000)),
    ])
    def test_long_input_is_echoed_in_short(self, capsys, family_file, site, argv):
        path = family_file([{"kind": "chain", "from": 1,
                             "valuation": {"kind": "curve", "h": [1] * 3000}}])
        code, out, err = run(capsys, *(path if a is None else a for a in argv))
        assert code == 2 and not out
        assert len(json.loads(err)["error"]["message"].encode()) < 200, site

    @pytest.mark.parametrize("argv, base", [
        (("prox", "--point", "[1e5000]"), None),
        (("prox", "--point", "[1e100000000]"), None),
        (("dot", "--steps", "1e-100000000"), None),
        (("member", "--elt", "x", "--family", "FAMILY"), "1e100000"),
        (("member", "--elt", "x", "--family", "FAMILY"), 10 ** 4200),
        (("prox", "--point", "[" + "1" * 4000 + "]"), None),
        (("prox", "--point", "[" + "1" * 5000 + "]"), None),
    ], ids=["point", "point-exponent", "steps-exponent", "family-text", "family-integer",
            "point-digits", "point-digits-past-python"])
    def test_huge_step_exits_2(self, capsys, family_file, argv, base):
        # refused before the power of ten is formed: the second text used
        # to run for minutes, the first and the family's text to end in a
        # traceback; a JSON integer step is held to the same bound, and so
        # is a step of more digits than Python reads into an int
        if base is not None:
            path = family_file([{"kind": "fiber", "base": [base]}])
            argv = [path if arg == "FAMILY" else arg for arg in argv]
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"] == ("number too large: the numerator and denominator "
                                    "of a path step may have at most 13000 bits")

    def test_strict_of_zero_curve_exits_2(self, capsys):
        code, out, err = run(capsys, "strict", "--f", "x - x", "--point", "[]")
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert "--f must not be zero" in error["message"]
        # a nonzero constant is no zero curve: its multiplicity is 0
        code, report, _ = run_json(capsys, "strict", "--f", "1", "--point", "[0]")
        assert code == 0 and report["multiplicity"] == 0

    @pytest.mark.parametrize("elt, power", [
        ("(1+x+y)^100", "(1+x+y)^100"),
        ("1/(1+x+y)^100", "(1+x+y)^100"),
        ("x*(1/(1 + x + y))^-100", "(1/(1+x+y))^-100"),
    ])
    def test_power_over_term_budget_exits_2(self, capsys, elt, power):
        # expanding would take half a minute; the term bound refuses it first
        start = time.perf_counter()
        code, out, err = run(capsys, "position", "--elt", elt, "--point", "[]")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert f"{power} may have up to 5151 terms" in error["message"]

    @pytest.mark.parametrize("elt, product", [
        ("(1+x)^30*(1+y)^30", "(1+x)^30*(1+y)^30"),
        ("x + 1/(1+x)^30/(1-y)^30", "1/(1+x)^30/(1-y)^30"),
    ])
    def test_product_over_term_budget_exits_2(self, capsys, elt, product):
        # each power is within the budget; their product is refused unexpanded
        start = time.perf_counter()
        code, out, err = run(capsys, "position", "--elt", elt, "--point", "[]")
        assert time.perf_counter() - start < 1
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert f"{product} may have up to 961 terms" in error["message"]

    @pytest.mark.parametrize("elt, total, terms", [
        ("1/(1+x)^30 + 1/(1+y)^30", "1/(1+x)^30+1/(1+y)^30", 961),
        ("x - (1/(1+x+y)^30 - 1/(1+x-y)^30)", "1/(1+x+y)^30-1/(1+x-y)^30", 1891),
    ])
    def test_sum_over_term_budget_exits_2(self, capsys, elt, total, terms):
        # each term is within the budget; their sum is refused unexpanded
        start = time.perf_counter()
        code, out, err = run(capsys, "position", "--elt", elt, "--point", "[]")
        assert time.perf_counter() - start < 2
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"] == (f"sum too large: {total} may have up to {terms} "
                                    f"terms, and a sum may have at most 500")

    def test_closed_pipe_ends_quietly(self, family_file):
        # about 1 MB of text: the writer is still going when the reader stops
        path = family_file({"kind": "chain", "from": 1, "valuation": {
            "kind": "minimal", "prefix": [], "period": ["0"]}})
        with subprocess.Popen([sys.executable, "-m", "blowup.cli", "dot", "--family", path,
                               "--max-depth", "399"], env=fresh_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"command: dot\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_large_exponent_of_a_variable_is_fine(self, capsys):
        code, report, _ = run_json(capsys, "position", "--elt", "x^100000", "--point", "[0]")
        assert code == 0 and report["position"] == "zero"

    def test_missing_family_file(self, capsys):
        code, _, err = run(capsys, "limits", "--family", "/no/such/file.json")
        assert code == 2
        assert "cannot read" in json.loads(err)["error"]["message"]

    def test_bad_family_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "limits", "--family", str(path))
        assert code == 2
        assert "bad JSON" in json.loads(err)["error"]["message"]

    def test_deep_parentheses_exit_2(self, capsys):
        elt = "(" * 300 + "x" + ")" * 300
        code, out, err = run(capsys, "position", "--elt", elt, "--point", "[]")
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "ExprSyntaxError"
        assert error["message"] == "parentheses nested more than 100 deep at position 100"

    def test_many_unary_signs_parse(self, capsys):
        for signs, element in ((2000, "x"), (2001, "-x")):
            code, report, err = run_json(capsys, "position", "--elt", "-" * signs + "x",
                                         "--point", "[]")
            assert code == 0 and not err
            assert report["element"] == element and report["position"] == "zero"

    def test_deep_json_array_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "limits", "--family", str(path))
        assert code == 2 and not out
        error = json.loads(err)["error"]
        assert error["type"] == "InputError"
        assert error["message"].startswith(f"bad JSON in family file {str(path)!r}")

    def test_dot_cap_exits_2(self, capsys, family_file):
        path = family_file(SIBLINGS)
        code, _, err = run(capsys, "dot", "--family", path,
                           "--max-depth", "50", "--node-cap", "20")
        assert code == 2
        assert "enumeration too large" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("part", [CHAIN, SIBLINGS], ids=["chain", "siblings"])
    def test_dot_stops_at_its_cap(self, capsys, family_file, part):
        # members are built one at a time, so the walk ends past 400 nodes
        # and not at the depth bound
        path = family_file(part)
        start = time.perf_counter()
        code, out, err = run(capsys, "dot", "--family", path, "--max-depth", "100000")
        assert time.perf_counter() - start < 2
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"] == (
            "enumeration too large: over the cap of 400 nodes")

    def test_malformed_family_fields_exit_2(self, capsys, family_file):
        # each field of each example part replaced in turn; a replacement
        # that is itself well formed answers
        for part, field, value in malformed_parts():
            path = family_file([part])
            commands = [["limits"]]
            if field == "from":
                commands += [["dot"]] + ([] if value == 10 ** 20 else [["member", "--elt", "x"]])
            for command in commands:
                code, out, err = run(capsys, *command, "--family", path)
                if (field, value) in WELL_FORMED:
                    assert code == 0 and not err
                else:
                    assert code == 2 and not out, (command, part)
                    assert json.loads(err)["error"]["exit"] == 2

    @pytest.mark.parametrize("part", [CHAIN, CURVE_CHAIN], ids=["periodic", "curve"])
    def test_huge_chain_level_exits_2(self, family_file, part):
        # a fresh process with a timeout: the first member of a chain is a
        # walk down the path to its level
        path = family_file(dict(part, **{"from": 10 ** 20}))
        code, out, err = run_fresh("member", "--elt", "x", "--family", path)
        assert code == 2 and not out
        assert json.loads(err)["error"]["message"] == (
            "bad chain level 100000000000000000000: expected an integer from 0 to 64")


# -- round trips -------------------------------------------------------------


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def polys(draw, max_terms=4, max_exp=3, slots=(X, Y, A)):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exps = [0, 0, 0, 0]
        for s in slots:
            exps[s] = draw(st.integers(min_value=0, max_value=max_exp))
        coeff = draw(small_fractions)
        if coeff:
            terms[tuple(exps)] = coeff
    return Poly(terms)


steps = st.one_of(small_fractions, st.just(INF))


class TestRoundTrips:
    @given(polys(), polys().filter(lambda p: not p.is_zero))
    def test_expression_print_parse(self, num, den):
        f = RatFunc(num, den)
        assert parse_element(str(f)) == f

    def test_expression_samples(self):
        for text in ("x*y/(y^2+x^3)", "y^2/(x+a*y)", "((x))", "3", "0",
                     "x - 1/2*y", "1/(1+x)"):
            f = parse_element(text)
            assert parse_element(str(f)) == f

    @given(st.lists(steps, max_size=6))
    def test_path_print_parse(self, path):
        literal = format_path(path)
        assert parse_path(literal) == tuple(path)

    def test_path_literal_fixed_point(self):
        for literal in ("[]", "[0]", "[0, inf]", "[-1/2, 3, inf]"):
            assert format_path(parse_path(literal)) == literal

    def test_family_json_round_trip(self):
        e = parse_element
        families = (
            Singleton(Point.from_path([Fraction(0), INF])),
            Fiber(Point.root(), frozenset([Fraction(0)]), (INF,)),
            Fiber(Point.root(), frozenset(), (), MoebiusMap(0, -1, 1, 0)),
            Chain(MinimalEventuallyPeriodic([], [0]), 1),
            Siblings(MinimalEventuallyPeriodic([Fraction(1, 2)], [0, INF]),
                     Fraction(1, 3)),
            Chain(MinimalCurveBranch(e("x^2-y^3").num), 2),
        )
        data = family_set_to_json(families)
        assert family_set_from_json(json.loads(json.dumps(data))) == families

    def test_valuation_json_round_trip(self):
        for v in (MinimalCurveBranch(parse_element("x^2-y^3").num),
                  MinimalEventuallyPeriodic([1], [0])):
            data = valuation_to_json(v)
            assert valuation_from_json(json.loads(json.dumps(data))) == v

    def test_only_minimal_valuations_are_read(self):
        # reports print the second and first kinds, but no chain or siblings
        # part follows one, nor a monomial valuation
        printed = [valuation_to_json(SecondKind(Point.from_path([INF]))),
                   valuation_to_json(FirstKind(parse_element("y-x^2").num))]
        for data in printed + [{"kind": "monomial", "a": 2, "b": 3}, {"kind": "cusp"}]:
            with pytest.raises(InputError, match="^chains and siblings follow a minimal"):
                valuation_from_json(data)

    def test_cli_json_is_loadable_for_every_command(self, capsys, family_file,
                                                    tmp_path):
        path = family_file(C_FIBER)
        invocations = [
            ("position", "--elt", "x", "--point", "[0]"),
            ("resolve", "--elt", "x*y/(y^2+x^3)"),
            ("prox", "--point", "[0, inf]"),
            ("ancestors", "--point", "[0, inf]"),
            ("strict", "--f", "x^2-y^3", "--point", "[inf]"),
            ("limits", "--family", path),
            ("closure", "--family", path),
            ("noetherian", "--family", path),
            ("components", "--family", path),
            ("member", "--elt", "x", "--family", path),
            ("semigroup", "--target", "0,0", "--gens", "1,0"),
            ("demo",),
            ("dot", "--max-depth", "1"),
        ]
        for argv in invocations:
            code, report, err = run_json(capsys, *argv)
            assert code == 0, (argv, err)
            assert report["command"] == argv[0]
