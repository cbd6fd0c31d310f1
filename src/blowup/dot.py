"""DOT text export of finite tree fragments.

The graph shows a finite window of the quadratic tree: the members of a
family instantiated over supplied bounds, all their ancestors up to the
root, the parent edges between them, and dashed proximity rays for the
second proximate ancestor where both ends are drawn.  Node identity is
the path literal, so output is deterministic and diffable.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .errors import InputError
from .expr import INF, Step, format_path
from .families import Chain, Fiber, Siblings, Singleton, family_parts
from .proximity import proximate_ancestors
from .tree import Point

DEFAULT_STEPS: Tuple[Step, ...] = (-1, 0, 1, INF)


def _instantiate(part, steps: Sequence[Step], max_depth: int) -> List[Point]:
    """The finitely many members of one family part within the bounds."""
    if isinstance(part, Singleton):
        return [part.point]
    if isinstance(part, Fiber):
        members = map(part.allowed_member, steps)
        return [point for point in members
                if point is not None and point.level <= max_depth]
    if isinstance(part, Chain):
        return [part.member(level)
                for level in range(max(part.from_level, 1), max_depth + 1)]
    if isinstance(part, Siblings):
        return [part.member(i) for i in range(1, max_depth + 1)]
    raise InputError(f"not a family: {part!r}")


def export_dot(family=(), steps: Sequence[Step] = DEFAULT_STEPS,
               max_depth: int = 2, node_cap: int = 400) -> str:
    """Render a family's members and their ancestors as DOT text.

    `steps` instantiates the free step of fiber parts; `max_depth` bounds
    member levels for fibers and chains and the member count for sibling
    parts, whose members sit one step off their path point.  The root is
    always drawn.  Exceeding `node_cap` raises rather than truncating.
    """
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    if node_cap < 1:
        raise InputError("node_cap must be positive")
    members: Dict[Tuple, Point] = {}
    for part in family_parts(family):
        for point in _instantiate(part, steps, max_depth):
            members[point.steps] = point
    nodes: Dict[Tuple, Point] = {(): Point.root()}
    for point in members.values():
        walk = point
        while walk.steps not in nodes:
            nodes[walk.steps] = walk
            walk = walk.parent
    if len(nodes) > node_cap:
        raise InputError(
            f"enumeration too large: {len(nodes)} nodes exceed the cap of {node_cap}")

    def literal(point: Point) -> str:
        return format_path(point.steps)

    ordered = sorted(nodes.values(), key=lambda p: (p.level, literal(p)))
    lines = [
        "digraph quadratic_tree {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="Courier"];',
    ]
    for point in ordered:
        attrs = f'label="{literal(point)}\\nlevel {point.level}"'
        if point.steps in members:
            attrs += ", style=filled, fillcolor=lightblue"
        lines.append(f'  "{literal(point)}" [{attrs}];')
    edges = sorted(
        (literal(point.parent), literal(point))
        for point in ordered if not point.is_root)
    for parent, child in edges:
        lines.append(f'  "{parent}" -> "{child}";')
    rays = []
    for point in ordered:
        for alpha in proximate_ancestors(point)[1:]:
            if alpha.steps in nodes:
                rays.append((literal(alpha), literal(point)))
    for alpha, beta in sorted(rays):
        lines.append(
            f'  "{alpha}" -> "{beta}" [style=dashed, color=gray50, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"
