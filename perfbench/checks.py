"""Checks every answer of a round against a reference `blowup` did not produce.

`check` returns one (query index, reason) pair per wrong answer.  The
references are in `reference.py` (sympy charts, closed forms, search) plus,
for proximity, the independent containment oracle of the test suite on a
seeded sample, where it can refute a proximity claim.  An expected structured error (a ResolveError, exit code 3)
is an answer like any other when the reference expects it.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import reference as ref

# The second closure of the tree sweep; the first, of the first neighborhood
# and the root, holds the root and the points proximate to it.
SIBLINGS_ALONG_X_AXIS = {"kind": "siblings", "offset": "1",
                         "valuation": {"kind": "minimal", "prefix": [], "period": ["0"]}}
ORACLE_SAMPLE = 20
A_VALUES = tuple(Fraction(v) for v in ("-3", "5", "1/3", "7/2"))

Mismatch = Tuple[int, str]


def check(workload: str, queries: List[Dict], answers: Dict[int, object],
          seed: int = 0, repo_root: Optional[str] = None) -> List[Mismatch]:
    bad: List[Mismatch] = []
    for qid, answer in sorted(answers.items()):
        try:
            reason = check_one(queries[qid], answer)
        except (KeyError, TypeError, AttributeError, IndexError) as exc:
            reason = f"malformed answer {answer!r}: {type(exc).__name__} {exc}"
        if reason:
            bad.append((qid, reason))
    if workload == "tree-sweep" and repo_root is not None:
        bad.extend(_containment_sample(queries, answers, seed, repo_root))
    return bad


def check_one(q: Dict, answer) -> Optional[str]:
    kind = q["kind"]
    if kind == "point":
        return _diff(answer, expected_point(q))
    if kind == "resolve":
        want = ref.resolve(q["element"])
        if "error" in want:
            return _diff(answer, {"error": want["error"]})
        return _diff(answer, want)
    if kind == "locate":
        return _diff(answer, {"point": ref.path_literal(tuple(q["path"]))})
    if kind == "strict":
        h = ref.strict_transform(q["curve"], tuple(q["path"]))
        return _diff(answer, {"strict": ref.terms_json(h), "multiplicity": ref.order(h)})
    if kind == "express":
        return _check_express(q, answer)
    return _check_cli(q, answer)


def descent_depth(q: Dict) -> Optional[int]:
    """How deep a deep-charts query descends: the reference's depth for
    resolve, the path length otherwise."""
    if q["kind"] == "resolve":
        return ref.resolve(q["element"]).get("depth_used")
    return q.get("depth")


def _diff(answer, want) -> Optional[str]:
    return None if answer == want else f"got {answer!r}, expected {want!r}"


def expected_point(q: Dict) -> Dict:
    path = tuple(q["path"])
    prox = ref.proximate_levels(path)
    return {
        "prox": prox,
        "is_prox": q["ancestor"] in prox if q["ancestor"] is not None else None,
        "closure": [not path or 0 in prox, ref.closure_member(SIBLINGS_ALONG_X_AXIS, path)],
        # x lies in every maximal ideal over D and 1 + y is a unit of D
        "pos": ["zero", ref.position("y/x", path), "unit"],
    }


def _check_express(q: Dict, answer) -> Optional[str]:
    num, den = ref.element(q["element"])
    p, r = ref.express(num, den, tuple(q["path"]))
    want = ref.classify(p, r)
    if answer.get("position") != want:
        return f"position {answer.get('position')!r}, expected {want!r}"
    got_num, got_den = ref.from_terms_json(answer["num"]), ref.from_terms_json(answer["den"])
    if got_num * r != got_den * p:
        return "expressed fraction differs from the composed substitution"
    if got_num and not got_num.gcd(got_den).is_ground:
        return "expressed fraction is not reduced"
    return None


# -- command line ---------------------------------------------------------------------


def _check_cli(q: Dict, answer) -> Optional[str]:
    command = q["argv"][0]
    report, error = answer["report"], answer["error"]
    if command == "member":
        if answer["exit"] != 0:
            return f"exit {answer['exit']}: {error}"
        return _check_member(q["part"], q["argv"][2], report)
    if command in ("limits", "noetherian", "components"):
        want = ref.topology(command, q["part"])
        if "error" in want:
            if answer["exit"] != 3 or (error or {}).get("type") != want["error"]:
                return f"exit {answer['exit']} {error}, expected {want['error']}"
            return None
        if answer["exit"] != 0:
            return f"exit {answer['exit']}: {error}"
        got = {k: report.get(k) for k in want}
        if command == "noetherian" and not want["noetherian"]:
            got = {"noetherian": report["noetherian"]}
        return _diff(_canonical_descriptors(got), _canonical_descriptors(want))
    if command == "closure":
        want = ref.closure_member(q["part"], tuple(q["probe"]))
        return None if answer["exit"] == 0 and report["member"] == want else \
            f"closure member {report and report.get('member')!r}, expected {want!r}"
    if command == "irredundant":
        return _check_irredundant(q, answer)
    if command == "semigroup":
        target = [int(v) for v in q["argv"][2].split(",")]
        gens = [[int(v) for v in g.split(",")] for g in q["argv"][4].split(";")]
        want = ref.semigroup_member(target, gens)
        return None if answer["exit"] == 0 and report["member"] == want else \
            f"semigroup member {report and report.get('member')!r}, expected {want!r}"
    if command == "demo":
        return _check_demo(q["argv"][1], answer)
    return f"no reference for command {command!r}"


def _canonical_descriptors(data):
    """Curve descriptors compare by the monic form of their equation."""
    if isinstance(data, list):
        return [_canonical_descriptors(v) for v in data]
    if isinstance(data, dict):
        out = {k: _canonical_descriptors(v) for k, v in data.items()}
        if out.get("kind") == "curve":
            out["h"] = str(ref.element(out["h"])[0].monic())
        return out
    return data


def _literal_path(literal: str) -> Tuple[str, ...]:
    inner = literal.strip()[1:-1]
    return tuple(s.strip() for s in inner.split(",")) if inner.strip() else ()


def _fails(text: str, path) -> bool:
    return ref.position(text, tuple(path)) in ("pole", "undetermined")


def _check_member(part: Dict, text: str, report: Dict) -> Optional[str]:
    """Membership in every ring of a family, checked on sampled members.

    A yes is refuted by any sampled member whose ring misses the element; a
    no must name a real member whose ring misses it.  Elements carrying a
    are checked at sample values of a, and each exceptional value must fail
    somewhere."""
    verdict = report["verdict"]
    members = ref.sample_members(part)
    witness = _literal_path(report["witness"]) if report.get("witness") else None
    if witness is not None and not ref.is_member(part, witness):
        return f"witness {report['witness']} is not a member"
    if not ref.has_parameter(text):
        if verdict == "yes":
            missing = [m for m in members if _fails(text, m)]
            return f"yes, but {ref.path_literal(missing[0])} misses it" if missing else None
        if verdict == "no":
            return None if witness and _fails(text, witness) else "no without a failing witness"
        return f"verdict {verdict!r} for a concrete element"
    extra = [witness] if witness else []
    exceptions = {Fraction(k): v for k, v in report["exceptions"].items()}
    generic = [(a0, ref.specialize(text, a0)) for a0 in A_VALUES if a0 not in exceptions]
    generic = [(a0, t) for a0, t in generic if t is not None]
    if verdict == "no":
        # the failing member may move with a (a fiber step tied to a), so
        # each sample value is refuted on the members it singles out
        for a0, t in generic:
            if not any(_fails(t, m) for m in members + _members_near(part, a0) + extra):
                return f"no, but a = {a0} holds on the sampled members"
        return None
    if verdict not in ("yes", "yes_except"):
        return f"unknown verdict {verdict!r}"
    for a0, t in generic:
        missing = [m for m in members + _members_near(part, a0) if _fails(t, m)]
        if missing:
            return f"{verdict} but a = {a0} misses {ref.path_literal(missing[0])}"
    for a0, v in exceptions.items():
        t = ref.specialize(text, a0)
        if v == "no" and t is not None and not any(
                _fails(t, m) for m in members + _members_near(part, a0) + extra):
            return f"exception a = {a0} not confirmed on sampled members"
    return None


def _members_near(part: Dict, a0: Fraction) -> List[Tuple[str, ...]]:
    """Fiber members at the steps a value of the parameter can single out."""
    if part["kind"] != "fiber":
        return []
    steps = {a0, -a0} | ({1 / a0, -1 / a0} if a0 else set())
    out = []
    for s in sorted(steps):
        path = tuple(part["base"]) + (ref.format_fraction(s),) + tuple(part.get("tail", []))
        if ref.is_member(part, path):
            out.append(path)
    return out


def _check_irredundant(q: Dict, answer) -> Optional[str]:
    if q["curve"] is None:
        if answer["exit"] == 3 and answer["error"]["type"] == "CertificateError":
            return None
        return f"exit {answer['exit']}, expected a CertificateError"
    report = answer["report"]
    if answer["exit"] != 0:
        return f"exit {answer['exit']}: {answer['error']}"
    if report["member"] != ref.path_literal(tuple(q["member"])):
        return f"member {report['member']}"
    valuation = report["valuation"]
    got = ref.element(valuation["h"])[0]
    want = ref.element(q["curve"])[0]
    if valuation["kind"] != "first" or got.monic() != want.monic():
        return f"valuation {valuation}, expected the curve {q['curve']}"
    return None


def _check_demo(name: str, answer) -> Optional[str]:
    report = answer["report"]
    if answer["exit"] != 0 or not report["ok"] or not all(c["ok"] for c in report["checks"]):
        return f"demo {name} did not pass"
    details = {c["label"]: c["detail"] for c in report["checks"]}
    if name == "two-ring-cover":
        # v(y^2/x) = 2b - a and v(x^2/y) = 2a - b are both >= 0 exactly on
        # the band a/2 <= b <= 2a
        both = sum(1 for a in range(1, 41) for b in range(1, 41) if a <= 2 * b and b <= 2 * a)
        if details.get("overlap exists", "").split(" ")[0] != str(both):
            return f"overlap detail {details.get('overlap exists')!r}, expected {both} pairs"
    if name == "local-fiber-intersection":
        if details.get("y/x fails with witness") != "witness [inf, inf]":
            return "y/x witness is not [inf, inf]"
    return None


# -- the test suite's containment oracle, on a seeded sample ----------------------------


def _containment_sample(queries, answers, seed: int, repo_root: str) -> List[Mismatch]:
    """The oracle searches escaping elements up to a bounded degree: an
    escape it finds proves the point is not proximate, while finding none
    is only evidence.  So only a found escape can contradict an answer."""
    sys.path.insert(0, os.path.join(repo_root, "tests"))
    try:
        from helpers import ord_contained
    finally:
        sys.path.pop(0)
    from blowup import INF, Point

    rng = random.Random(f"containment:{seed}")
    pool = [qid for qid in answers if queries[qid]["path"]
            and all(s in ("-1", "0", "1", "inf") for s in queries[qid]["path"])]
    bad = []
    for qid in rng.sample(pool, min(ORACLE_SAMPLE, len(pool))):
        q = queries[qid]
        beta = Point.from_path(INF if s == "inf" else Fraction(s) for s in q["path"])
        alpha = beta.ancestor(q["ancestor"])
        _, witness = ord_contained(alpha, beta)
        if witness is not None and answers[qid]["is_prox"]:
            bad.append((qid, f"proximate, but the containment oracle found {witness} "
                             "with negative order"))
    return bad
