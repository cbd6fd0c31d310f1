"""JSON encodings for paths, valuations, and families.

Steps travel as strings ("0", "-1/2", "inf") so that exact rationals
survive the trip; integers are accepted on input for convenience.  A
family is a tagged object; a family set is a JSON array of them.  Every
kind of valuation is written, as the reports print them, but only the
two that a chain or siblings part can follow, `minimal` and `curve`, are
read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .errors import InputError
from .expr import Step, _shown, format_step, parse_curve
from .families import (Chain, Family, Fiber, MoebiusMap, Siblings, Singleton,
                       family_parts)
from .tree import Point, normalize_step
from .valuations import (FirstKind, MinimalCurveBranch,
                         MinimalEventuallyPeriodic, SecondKind, _MinimalBase)

JsonValue = Union[dict, list, str, int]


def steps_from_json(data) -> Tuple[Step, ...]:
    if not isinstance(data, list):
        raise InputError(f"bad path {_shown(data)}: expected an array of steps")
    return tuple(map(normalize_step, data))


def steps_to_json(steps: Sequence[Step]) -> List[str]:
    return [format_step(s) for s in steps]


def _expect(data: dict, key: str):
    try:
        return data[key]
    except KeyError:
        raise InputError(f"missing key {key!r} in {_shown(data)}") from None


# -- valuations --------------------------------------------------------------


def valuation_from_json(data) -> _MinimalBase:
    """The valuation a chain or siblings part follows."""
    if not isinstance(data, dict):
        raise InputError(f"bad valuation {_shown(data)}: expected an object")
    kind = _expect(data, "kind")
    if kind == "minimal":
        return MinimalEventuallyPeriodic(
            steps_from_json(_expect(data, "prefix")),
            steps_from_json(_expect(data, "period")))
    if kind == "curve":
        return MinimalCurveBranch(parse_curve(_expect(data, "h")))
    raise InputError("chains and siblings follow a minimal valuation")


def valuation_to_json(v) -> Dict[str, JsonValue]:
    if isinstance(v, SecondKind):
        data: Dict[str, JsonValue] = {
            "kind": "second", "point": steps_to_json(v.point.steps)}
        if v.scale != 1:
            data["scale"] = v.scale
        return data
    if isinstance(v, FirstKind):
        return {"kind": "first", "h": str(v.h)}
    if isinstance(v, MinimalEventuallyPeriodic):
        return {"kind": "minimal", "prefix": steps_to_json(v.prefix),
                "period": steps_to_json(v.period)}
    if isinstance(v, MinimalCurveBranch):
        return {"kind": "curve", "h": str(v.h)}
    raise InputError(f"not a valuation: {_shown(v)}")


# -- families ----------------------------------------------------------------


def _fraction_from_json(value, what: str) -> Fraction:
    step = normalize_step(value)
    if not isinstance(step, Fraction):
        raise InputError(f"bad {what} {_shown(value)}: expected a finite rational")
    return step


def family_from_json(data) -> Family:
    if not isinstance(data, dict):
        raise InputError(f"bad family {_shown(data)}: expected an object")
    kind = _expect(data, "kind")
    if kind == "singleton":
        return Singleton(Point.from_path(steps_from_json(_expect(data, "point"))))
    if kind == "fiber":
        base = Point.from_path(steps_from_json(_expect(data, "base")))
        excluded = frozenset(steps_from_json(data.get("excluded", [])))
        tail = steps_from_json(data.get("tail", []))
        if "map" in data:
            m = data["map"]
            if not isinstance(m, dict):
                raise InputError(f"bad map {_shown(m)}: expected an object")
            coeffs = [_fraction_from_json(_expect(m, k), "map entry")
                      for k in ("a", "b", "c", "d")]
            return Fiber(base, excluded, tail, MoebiusMap(*coeffs))
        return Fiber(base, excluded, tail)
    if kind == "chain":
        return Chain(valuation_from_json(_expect(data, "valuation")),
                     _expect(data, "from"))
    if kind == "siblings":
        return Siblings(valuation_from_json(_expect(data, "valuation")),
                        _fraction_from_json(_expect(data, "offset"), "offset"))
    raise InputError(f"unknown family kind {_shown(kind)}")


def family_to_json(part) -> Dict[str, JsonValue]:
    if isinstance(part, Singleton):
        return {"kind": "singleton", "point": steps_to_json(part.point.steps)}
    if isinstance(part, Fiber):
        data: Dict[str, JsonValue] = {
            "kind": "fiber", "base": steps_to_json(part.base.steps)}
        if part.excluded:
            data["excluded"] = sorted(steps_to_json(part.excluded))
        if part.tail:
            data["tail"] = steps_to_json(part.tail)
        if not part.param_map.is_identity():
            m = part.param_map
            data["map"] = {k: format_step(getattr(m, k)) for k in "abcd"}
        return data
    if isinstance(part, Chain):
        return {"kind": "chain",
                "valuation": valuation_to_json(part.valuation),
                "from": part.from_level}
    if isinstance(part, Siblings):
        return {"kind": "siblings",
                "valuation": valuation_to_json(part.valuation),
                "offset": format_step(part.offset)}
    raise InputError(f"not a family: {_shown(part)}")


def family_set_from_json(data):
    """A single tagged object or an array of them, as parts."""
    if isinstance(data, list):
        return tuple(family_from_json(item) for item in data)
    return (family_from_json(data),)


def family_set_to_json(family) -> List[Dict[str, JsonValue]]:
    return [family_to_json(part) for part in family_parts(family)]
