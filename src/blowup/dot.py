"""DOT text export of finite tree fragments.

The graph shows a finite window of the quadratic tree: the members of a
family instantiated over supplied bounds, all their ancestors up to the
root, the parent edges between them, and dashed proximity rays for the
second proximate ancestor where both ends are drawn.  Node identity is
the path literal, so output is deterministic and diffable.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Set, Tuple

from .errors import InputError
from .expr import INF, Step, format_path
from .families import Chain, Fiber, Singleton, family_parts
from .proximity import proximate_ancestors
from .tree import Point

DEFAULT_STEPS: Tuple[Step, ...] = (-1, 0, 1, INF)


def _instantiate(part, steps: Sequence[Step], max_depth: int) -> Iterator[Point]:
    """The members of one family part within the bounds, one at a time."""
    if isinstance(part, Singleton):
        yield part.point
    elif isinstance(part, Fiber):
        for point in map(part.allowed_member, steps):
            if point is not None and point.level <= max_depth:
                yield point
    elif isinstance(part, Chain):
        yield from map(part.member, range(max(part.from_level, 1), max_depth + 1))
    else:
        yield from map(part.member, range(1, max_depth + 1))


def export_dot(family=(), steps: Sequence[Step] = DEFAULT_STEPS,
               max_depth: int = 2, node_cap: int = 400) -> str:
    """Render a family's members and their ancestors as DOT text.

    `steps` instantiates the free step of fiber parts; `max_depth` bounds
    member levels for fibers and chains and the member count for sibling
    parts, whose members sit one step off their path point.  The root is
    always drawn.  Exceeding `node_cap` raises rather than truncating, as
    soon as a member takes the count past it.
    """
    if max_depth < 0:
        raise InputError("max_depth must be nonnegative")
    if node_cap < 1:
        raise InputError("node_cap must be positive")
    members: Set[Tuple[Step, ...]] = set()
    nodes: Set[Tuple[Step, ...]] = {()}
    for part in family_parts(family):
        for point in _instantiate(part, steps, max_depth):
            path = point.steps
            members.add(path)
            for level in range(len(path), 0, -1):
                if path[:level] in nodes:
                    break
                nodes.add(path[:level])
            if len(nodes) > node_cap:
                raise InputError(
                    f"enumeration too large: over the cap of {node_cap} nodes")

    ordered = sorted(nodes, key=lambda path: (len(path), format_path(path)))
    lines = [
        "digraph quadratic_tree {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="Courier"];',
    ]
    for path in ordered:
        attrs = f'label="{format_path(path)}\\nlevel {len(path)}"'
        if path in members:
            attrs += ", style=filled, fillcolor=lightblue"
        lines.append(f'  "{format_path(path)}" [{attrs}];')
    edges = sorted((format_path(path[:-1]), format_path(path)) for path in ordered if path)
    for parent, child in edges:
        lines.append(f'  "{parent}" -> "{child}";')
    rays = []
    for path in ordered:
        for alpha in proximate_ancestors(Point(path))[1:]:
            if alpha.steps in nodes:
                rays.append((format_path(alpha.steps), format_path(path)))
    for alpha, beta in sorted(rays):
        lines.append(
            f'  "{alpha}" -> "{beta}" [style=dashed, color=gray50, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"
