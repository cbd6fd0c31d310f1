"""Spans around the calls into each layer of `blowup`, taken from outside.

The tracer replaces the public functions listed in LAYERS with wrappers
that record a span: name, start, end, parent span and query id.  Module
functions are replaced at every binding site (a module that did
`from .poly import poly_gcd` holds its own reference), methods on their
class.  `Poly.__mul__` and `Poly.__add__` are deliberately left alone: they
run millions of times, and their cost shows in the self time of the poly
spans that call them.

Spans stay in memory; `write` saves them when the run ends.  A span's self
time is its duration minus the time its child spans cover.  Each query runs
inside a root span opened by the harness, and each calibration kernel in a
span of its own, so the self times of all spans add up to the traced wall
time less the harness's own time between them, and no layer is charged for
the kernel.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix, module, attribute ("function" or "Class.method")
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("poly.subst_xy", "blowup.poly", "Poly.subst_xy"),
    ("poly.poly_gcd", "blowup.poly", "poly_gcd"),
    ("poly.RatFunc", "blowup.poly", "RatFunc.__init__"),
    ("poly.rational_roots", "blowup.poly", "rational_roots"),
    ("poly.sylvester_resultant", "blowup.poly", "sylvester_resultant"),
    ("tree.Point.child", "blowup.tree", "Point.child"),
    ("tree.Point.express", "blowup.tree", "Point.express"),
    ("tree.Point.strict_transform", "blowup.tree", "Point.strict_transform"),
    ("position.resolve", "blowup.position", "resolve"),
    ("position.locate", "blowup.position", "locate"),
    ("position.position", "blowup.position", "position"),
    ("position.position_parametric", "blowup.position", "position_parametric"),
    ("position.classify_expressed", "blowup.position", "classify_expressed"),
    ("proximity.proximate_ancestors", "blowup.proximity", "proximate_ancestors"),
    ("proximity.is_proximate", "blowup.proximity", "is_proximate"),
    ("valuations.FirstKind.contains_element", "blowup.valuations", "FirstKind.contains_element"),
    ("valuations.SecondKind.contains_element", "blowup.valuations",
     "SecondKind.contains_element"),
    ("valuations.Minimal.contains_element", "blowup.valuations",
     "_MinimalBase.contains_element"),
    ("valuations.MinimalEventuallyPeriodic.point_at", "blowup.valuations",
     "MinimalEventuallyPeriodic.point_at"),
    ("valuations.MinimalCurveBranch.point_at", "blowup.valuations", "MinimalCurveBranch.point_at"),
    ("valuations.monomial_valuation", "blowup.valuations", "monomial_valuation"),
    ("families.downset_member", "blowup.families", "downset_member"),
    ("families.q1_downset_count", "blowup.families", "q1_downset_count"),
    ("oracle.in_family", "blowup.oracle", "in_family"),
    ("oracle.irredundance_certificate", "blowup.oracle", "irredundance_certificate"),
    ("oracle.semigroup_member", "blowup.oracle", "semigroup_member"),
    ("topology.patch_limit_points", "blowup.topology", "patch_limit_points"),
    ("topology.zariski_closure", "blowup.topology", "zariski_closure"),
    ("topology.closure_member", "blowup.topology", "closure_member"),
    ("topology.is_noetherian", "blowup.topology", "is_noetherian"),
    ("topology.irreducible_components", "blowup.topology", "irreducible_components"),
    ("expr.parse_element", "blowup.expr", "parse_element"),
    ("jsonio.family_set_from_json", "blowup.jsonio", "family_set_from_json"),
    ("cli.main", "blowup.cli", "main"),
    ("demos.run_demo", "blowup.demos", "run_demo"),
)

RATIOS = ("tree.Point.child.repeat_share", "tree.Point.express.repeat_share",
          "poly.poly_gcd.nontrivial_share", "oracle.in_family.flagged_share")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.spans: List[list] = []  # [name id, start, end, parent index, query id]
        self._stack: List[int] = []
        self.qid = -1
        self._restore: List[Tuple[object, str, object]] = []
        # waste counters: [hits, total] per ratio, and the peak term count
        self.counts: Dict[str, List[int]] = {name: [0, 0] for name in RATIOS}
        self.terms_peak = 0
        self._seen_child: set = set()
        self._seen_express: set = set()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans -------------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), perf_counter(), 0.0, parent, self.qid])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def begin_query(self, qid: int, kind: str) -> int:
        self.qid = qid
        self._seen_child.clear()
        self._seen_express.clear()
        return self.open(f"query.{kind}")

    def end_query(self, root: int, stopped: bool) -> None:
        now = perf_counter()
        if stopped:
            # a query stopped by its time limit can leave spans without an end
            for span in self.spans[root:]:
                if span[2] == 0.0:
                    span[2] = now
        self.spans[root][2] = now
        self._stack.clear()

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([nid, perf_counter(), 0.0, stack[-1] if stack else -1, self.qid])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                stack.pop()
                spans[index][2] = perf_counter()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- waste hooks -------------------------------------------------------------

    def _hook_child(self, args, point) -> None:
        self._count("tree.Point.child.repeat_share", point.steps in self._seen_child)
        self._seen_child.add(point.steps)

    def _hook_express(self, args, expressed) -> None:
        key = (args[0].steps, args[1])
        self._count("tree.Point.express.repeat_share", key in self._seen_express)
        self._seen_express.add(key)

    def _hook_gcd(self, args, g) -> None:
        self._count("poly.poly_gcd.nontrivial_share", not g.is_constant)

    def _hook_in_family(self, args, answer) -> None:
        self._count("oracle.in_family.flagged_share",
                    any("verified to depth" in flag for flag in answer.flags))

    def _hook_subst(self, args, p) -> None:
        if len(p.terms) > self.terms_peak:
            self.terms_peak = len(p.terms)

    def _count(self, name: str, hit: bool) -> None:
        entry = self.counts[name]
        entry[0] += hit
        entry[1] += 1

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        hooks = {"tree.Point.child": self._hook_child, "tree.Point.express": self._hook_express,
                 "poly.poly_gcd": self._hook_gcd, "oracle.in_family": self._hook_in_family,
                 "poly.subst_xy": self._hook_subst}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "blowup" or n.startswith("blowup."))]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s for every listed function, the waste ratios,
        the peak term count and the root-span accounting."""
        selfs = self.self_times()
        calls: Dict[str, int] = {}
        self_s: Dict[str, float] = {}
        roots = 0.0
        query_self = 0.0
        for (name_id, start, end, parent, _), own in zip(self.spans, selfs):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if parent < 0:
                roots += end - start
                if name.startswith("query."):
                    query_self += own
        out: Dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in RATIOS:
            hits, total = self.counts[name]
            out[name] = hits / total if total else 0.0
        out["poly.terms_peak"] = self.terms_peak
        out["query.self_s"] = query_self
        out["trace.root_spans_s"] = roots
        out["trace.self_sum_s"] = sum(selfs)
        out["trace.calibration_s"] = self_s.get("calibration.kernel", 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str, header: Dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**header, "names": self.names,
                       "fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)
