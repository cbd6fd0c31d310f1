"""Command line front end.

Every command builds one JSON-safe report dict; `--json` prints it as
JSON, otherwise it is rendered as indented key/value text.  Errors leave
on the diagnostic stream as one JSON object: malformed input exits 2,
a computation that cannot complete exits 3.  A reader that closes the
output pipe early ends the command quietly with exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .demos import demo_names, run_demo
from .dot import DEFAULT_STEPS, export_dot
from .errors import (BlowupError, CertificateError, ComponentError,
                     DepthCapError, InputError)
from .expr import _shown, format_path, parse_curve, parse_element, parse_path, parse_step
from .jsonio import (family_set_from_json, family_set_to_json, steps_to_json,
                     valuation_to_json)
from .oracle import in_family, irredundance_certificate, semigroup_member
from .poly import A, RatFunc
from .position import position_parametric, resolve
from .proximity import proximate_ancestors
from .topology import (closure_member, irreducible_components, is_noetherian,
                       patch_limit_points, zariski_closure)
from .tree import Point


class _Parser(argparse.ArgumentParser):
    """Argparse with JSON usage errors on the diagnostic stream."""

    def error(self, message):
        _emit_error("UsageError", message, 2)
        raise SystemExit(2)


def _emit_error(kind: str, message: str, exit_code: int, **extra) -> None:
    payload = {"error": dict(type=kind, message=message, exit=exit_code, **extra)}
    print(json.dumps(payload), file=sys.stderr)


def _evidence(exc: BlowupError) -> Dict:
    """The structured evidence an error carries into its report."""
    if isinstance(exc, CertificateError):
        return {"obstructions": list(exc.obstructions)}
    if isinstance(exc, ComponentError):
        return {"witness": exc.witness.describe() if exc.witness is not None else None}
    if isinstance(exc, DepthCapError):
        return {"open_points": _sorted_literals(exc.open_points)}
    return {}


def _literal(point: Point) -> str:
    return format_path(point.steps)


def _sorted_literals(points) -> List[str]:
    return sorted(_literal(p) for p in points)


def _descriptor_json(v) -> Dict:
    if isinstance(v, Point):
        return {"kind": "point", "point": steps_to_json(v.steps)}
    return valuation_to_json(v)


def _sorted_descriptors(items) -> List[Dict]:
    return sorted((_descriptor_json(v) for v in items),
                  key=lambda d: json.dumps(d, sort_keys=True))


# -- argument helpers --------------------------------------------------------


def _element_from(args) -> RatFunc:
    if args.elt is not None:
        if args.f is not None or args.g is not None:
            raise InputError("give either --elt or the --f/--g pair, not both")
        return parse_element(args.elt)
    if args.f is not None:
        f = parse_element(args.f)
        if args.g is not None:
            g = parse_element(args.g)
            if g.is_zero:
                raise InputError("--g must not be zero")
            return f / g
        return f
    raise InputError("an element is required: --elt EXPR, or --f EXPR with optional --g EXPR")


def _point_from(text: str) -> Point:
    return Point.from_path(parse_path(text))


def _family_from(path: Optional[str]):
    if path is None:
        raise InputError("a family is required: --family FILE.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read family file {path!r}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"bad JSON in family file {path!r}: {exc}") from None
    return family_set_from_json(data)


def _steps_from(text: Optional[str]):
    if text is None:
        return DEFAULT_STEPS
    pieces = [p for p in text.split(",") if p.strip()]
    if not pieces:
        raise InputError("--steps must list at least one step")
    return tuple(parse_step(p) for p in pieces)


# -- command handlers --------------------------------------------------------


def _cmd_position(args) -> Dict:
    f = _element_from(args)
    point = _point_from(args.point)
    report = {"command": "position", "element": str(f), "point": _literal(point)}
    pp = position_parametric(point, f)
    if f.has_slot(A):
        report["generic"] = pp.generic.value
        report["exceptional"] = {str(k): v.value for k, v in sorted(pp.exceptional.items())}
        report["undefined"] = [str(v) for v in pp.undefined]
    else:
        report["position"] = pp.generic.value
    return report


def _cmd_resolve(args) -> Dict:
    f = _element_from(args)
    start = _point_from(args.point) if args.point else None
    r = resolve(f, max_depth=args.max_depth, start=start)
    return {
        "command": "resolve",
        "element": str(f),
        "zeros": _sorted_literals(r.zeros),
        "poles": _sorted_literals(r.poles),
        "depth_used": r.depth_used,
        "diagnostics": list(r.diagnostics),
    }


def _cmd_prox(args) -> Dict:
    point = _point_from(args.point)
    return {
        "command": "prox",
        "point": _literal(point),
        "proximate_ancestors": [_literal(p) for p in proximate_ancestors(point)],
    }


def _cmd_ancestors(args) -> Dict:
    point = _point_from(args.point)
    return {
        "command": "ancestors",
        "point": _literal(point),
        "ancestors": [_literal(point.ancestor(i)) for i in range(point.level)],
    }


def _cmd_strict(args) -> Dict:
    if args.f is None:
        raise InputError("a curve is required: --f POLY")
    curve = parse_curve(args.f)
    if curve.is_zero:
        raise InputError("--f must not be zero: the zero curve has no strict transform")
    point = _point_from(args.point)
    transformed = point.strict_transform(curve)
    return {
        "command": "strict",
        "curve": str(curve),
        "point": _literal(point),
        "strict_transform": str(transformed),
        "multiplicity": transformed.xy_order(),
    }


def _cmd_limits(args) -> Dict:
    family = _family_from(args.family)
    return {
        "command": "limits",
        "family": family_set_to_json(family),
        "limit_points": _sorted_descriptors(patch_limit_points(family)),
    }


def _cmd_closure(args) -> Dict:
    family = _family_from(args.family)
    closed = zariski_closure(family)
    report = {
        "command": "closure",
        "family": family_set_to_json(family),
        "closure": {
            "divisor_downsets": _sorted_descriptors(closed.divisor_downsets),
            "minimal_downsets": _sorted_descriptors(closed.minimal_downsets),
            "residual": family_set_to_json(closed.residual),
        },
    }
    if args.point:
        point = _point_from(args.point)
        report["point"] = _literal(point)
        report["member"] = closure_member(closed, point)
    return report


def _cmd_noetherian(args) -> Dict:
    family = _family_from(args.family)
    cert = is_noetherian(family)
    report = {
        "command": "noetherian",
        "family": family_set_to_json(family),
        "noetherian": cert.verdict,
    }
    if cert.verdict:
        report["covering"] = _sorted_descriptors(cert.covering)
    else:
        report["witness"] = cert.witness.describe()
    return report


def _cmd_components(args) -> Dict:
    family = _family_from(args.family)
    components = irreducible_components(zariski_closure(family))
    return {
        "command": "components",
        "family": family_set_to_json(family),
        "components": _sorted_descriptors(components),
    }


def _cmd_member(args) -> Dict:
    f = _element_from(args)
    family = _family_from(args.family)
    answer = in_family(f, family)
    return {
        "command": "member",
        "element": str(f),
        "family": family_set_to_json(family),
        "verdict": answer.verdict,
        "exceptions": {str(k): v for k, v in sorted(answer.exceptions.items())},
        "witness": _literal(answer.witness) if answer.witness else None,
        "flags": list(answer.flags),
    }


def _cmd_irredundant(args) -> Dict:
    family = _family_from(args.family)
    delta = _point_from(args.member)
    if not args.candidates:
        raise InputError("candidate curves are required: --candidates \"p1,p2\"")
    candidates = [parse_curve(piece) for piece in args.candidates.split(",")]
    cert = irredundance_certificate(family, delta, candidates)
    return {
        "command": "irredundant",
        "family": family_set_to_json(family),
        "member": _literal(cert.member),
        "valuation": valuation_to_json(cert.valuation),
        "uniqueness_domain": cert.uniqueness_domain,
    }


def _parse_vector(text: str):
    pieces = text.split(",")
    if len(pieces) != 2:
        raise InputError(f"bad exponent vector {_shown(text)}: expected \"m,n\"")
    try:
        return (int(pieces[0]), int(pieces[1]))
    except ValueError:
        raise InputError(
            f"bad exponent vector {_shown(text)}: entries must be integers") from None


def _cmd_semigroup(args) -> Dict:
    if not args.target:
        raise InputError("a target is required: --target \"m,n\"")
    if not args.gens:
        raise InputError("generators are required: --gens \"m,n;m,n;...\"")
    target = _parse_vector(args.target)
    generators = [_parse_vector(piece) for piece in args.gens.split(";") if piece.strip()]
    return {
        "command": "semigroup",
        "target": list(target),
        "generators": [list(g) for g in generators],
        "member": semigroup_member(target, generators),
    }


def _cmd_demo(args) -> Dict:
    if not args.name:
        return {"command": "demo", "available": list(demo_names())}
    report = dict(run_demo(args.name))
    report["command"] = "demo"
    return report


def _cmd_dot(args) -> Dict:
    family = _family_from(args.family) if args.family else ()
    text = export_dot(family, steps=_steps_from(args.steps),
                      max_depth=args.max_depth, node_cap=args.node_cap)
    report = {
        "command": "dot",
        "nodes": sum(1 for line in text.splitlines() if "label=" in line),
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(text)
        report["written"] = args.dot
    else:
        report["text"] = text
    return report


# -- plumbing ----------------------------------------------------------------


def _render_text(data, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        entries = [(f"{key}:", value) for key, value in data.items()]
    else:
        entries = [("-", value) for value in data]
    for label, value in entries:
        inline = _inline_ints(value)
        if inline is not None:
            print(f"{pad}{label} {inline}")
        elif isinstance(value, (dict, list)) and value:
            print(f"{pad}{label}")
            _render_text(value, indent + 1)
        else:
            rendered = _scalar(value)
            sep = "" if rendered.startswith("\n") else " "
            print(f"{pad}{label}{sep}{rendered}")


def _inline_ints(value) -> Optional[str]:
    if (isinstance(value, list) and value
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        return ", ".join(str(v) for v in value)
    return None


def _scalar(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, dict):
        return "{}"
    if isinstance(value, list):
        return "[]"
    if isinstance(value, str) and "\n" in value:
        return "\n" + value
    return str(value)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it.

    Building the subcommand parsers costs more than answering most
    commands, so in-process callers of `main` share one parser.  Sharing is
    safe: `parse_args` starts each call from a fresh namespace, and the help
    formatter reads the terminal width when it formats.
    """
    parser = _Parser(prog="blowup",
                     description="Exact workbench for the quadratic tree of a "
                                 "two-dimensional regular local ring")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, elt=False, point=None,
            family=False, depth=None, steps=False, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if elt:
            p.add_argument("--elt", help="element of k(x, y), may carry the parameter a")
            p.add_argument("--f", help="numerator element (alternative to --elt)")
            p.add_argument("--g", help="denominator element, used with --f")
        if point is not None:
            p.add_argument("--point", required=(point == "required"),
                           help="path literal like \"[0, inf]\"")
        if family:
            p.add_argument("--family", help="JSON file holding a family or an array of them")
        if depth is not None:
            p.add_argument("--max-depth", type=int, default=depth, dest="max_depth",
                           help=f"search depth bound (default {depth})")
        if steps:
            p.add_argument("--steps", help="comma-separated step alphabet, e.g. \"-1,0,1,inf\"")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON instead of text")
        for args_, kwargs in (extra or ()):
            p.add_argument(*args_, **kwargs)

    add("position", _cmd_position, "classify an element at a point", elt=True, point="required")
    add("resolve", _cmd_resolve, "find minimal zero and pole points", elt=True,
        point="optional", depth=16)
    add("prox", _cmd_prox, "list the proximate ancestors of a point", point="required")
    add("ancestors", _cmd_ancestors, "list the tree ancestors of a point", point="required")
    add("strict", _cmd_strict, "strict transform of a plane curve at a point",
        point="required",
        extra=((("--f",), dict(help="the curve, a polynomial in x and y")),))
    add("limits", _cmd_limits, "patch limit points of a family", family=True)
    add("closure", _cmd_closure, "Zariski closure of a family, optionally test a point",
        family=True, point="optional")
    add("noetherian", _cmd_noetherian, "Noetherian certificate for a family's subspace",
        family=True)
    add("components", _cmd_components, "irreducible components of a family's closure",
        family=True)
    add("member", _cmd_member, "membership of an element in every ring of a family",
        elt=True, family=True)
    add("irredundant", _cmd_irredundant, "certify one member as non-redundant", family=True,
        extra=((("--member",), dict(required=True, help="path literal of the member")),
               (("--candidates",), dict(help="comma-separated candidate curves"))))
    add("semigroup", _cmd_semigroup, "exponent-vector membership in a monomial semigroup",
        extra=((("--target",), dict(help="target vector \"m,n\"")),
               (("--gens",), dict(help="generator vectors \"m,n;m,n;...\""))))
    add("demo", _cmd_demo, "run a scripted walkthrough, or list them",
        extra=((("name",), dict(nargs="?", help="demo name")),))
    add("dot", _cmd_dot, "DOT graph of a finite tree window", family=True, steps=True,
        depth=2, extra=((("--dot",), dict(dest="dot", help="output file (default stdout)")),
                        (("--node-cap",), dict(type=int, default=400, dest="node_cap",
                                               help="maximum nodes drawn (default 400)"))))
    return parser


_VALUE_FLAGS = frozenset([
    "--elt", "--f", "--g", "--point", "--family", "--max-depth", "--steps",
    "--dot", "--node-cap", "--member", "--candidates", "--target",
    "--gens",
])


def _absorb_values(argv: Sequence[str]) -> Tuple[List[str], Dict[str, str]]:
    """Join "--flag value" into "--flag=value" so values may start with "-";
    also each joined token -> the "--flag value" it was typed as."""
    merged: List[str] = []
    typed: Dict[str, str] = {}
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            joined = f"{token}={argv[i + 1]}"
            typed[joined] = f"{token} {argv[i + 1]}"
            merged.append(joined)
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged, typed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    merged, typed = _absorb_values(list(argv))
    try:
        args, unknown = parser.parse_known_args(merged)
        if unknown:
            parser.error("unrecognized arguments: "
                         + " ".join(typed.get(token, token) for token in unknown))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except BlowupError as exc:
        code = 2 if isinstance(exc, InputError) else 3
        _emit_error(type(exc).__name__, str(exc), code, **_evidence(exc))
        return code
    try:
        if args.as_json:
            print(json.dumps(report, indent=2, sort_keys=False))
        else:
            _render_text(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; what is still buffered goes to devnull
        # so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
