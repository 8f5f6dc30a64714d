"""Bipartite graph family realized by the chain construction.

The family starts from the path-plus-pendant graph on parts of size two
and doubles: each doubling takes two disjoint copies, swaps the parts of
the second copy, and adds a perfect matching between the first-part
vertices of both copies.  Vertex names record the copy choices made on
the way down ("0:" for the plain copy, "1:" for the swapped one), so
equality of names is equality of recursion paths.

Part lists and the edge list are kept in construction order on purpose:
vertex t of a part corresponds to point t of the matching chain of a
built level, and edge t corresponds to witness pair t.  A
`BipartiteDrawing` places vertices on the plane; `verify_drawing`
re-checks, by exact predicates only, that both parts and the edge
midpoints form south-east chains, and `drawing_defect` says where they
do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .geometry import Point, chain_defect, midpoint, sort_key

if TYPE_CHECKING:  # only for type annotations; no runtime cycle
    from .construction import Level

Edge = tuple[str, str]


@dataclass(frozen=True, slots=True)
class BipartiteGraph:
    """Bipartite graph with ordered parts and an ordered edge list."""

    u: tuple[str, ...]
    v: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        u_set, v_set = set(self.u), set(self.v)
        if len(u_set) != len(self.u) or len(v_set) != len(self.v):
            raise ValueError("duplicate vertex name inside a part")
        if u_set & v_set:
            raise ValueError("parts must be disjoint")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edge")
        for a, b in self.edges:
            if a not in u_set or b not in v_set:
                raise ValueError(f"edge ({a}, {b}) does not match the parts")

    @property
    def vertex_count(self) -> int:
        return len(self.u) + len(self.v)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        """Breadth-first reachability over the union of both parts."""
        if self.vertex_count == 0:
            return True
        adjacency: dict[str, list[str]] = {x: [] for x in self.u + self.v}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        start = (self.u + self.v)[0]
        seen = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == self.vertex_count


def g1() -> BipartiteGraph:
    """The seed graph: parts {u1, u2} and {v1, v2}, three edges."""
    return BipartiteGraph(
        u=("u1", "u2"),
        v=("v1", "v2"),
        edges=(("u1", "v1"), ("u2", "v1"), ("u2", "v2")),
    )


def double(graph: BipartiteGraph) -> BipartiteGraph:
    """Two disjoint copies, second one with swapped parts, plus a matching.

    The new first part is copy-0's first part followed by copy-1's
    second part; the new second part is copy-0's second part followed by
    copy-1's first part.  Edges come in three blocks: copy-0 edges, the
    matching between the two images of the old first part, and copy-1
    edges (endpoints swapped to respect the new parts).
    """
    c0 = "0:{}".format
    c1 = "1:{}".format
    return BipartiteGraph(
        u=tuple(c0(x) for x in graph.u) + tuple(c1(x) for x in graph.v),
        v=tuple(c0(x) for x in graph.v) + tuple(c1(x) for x in graph.u),
        edges=(
            tuple((c0(a), c0(b)) for a, b in graph.edges)
            + tuple((c0(x), c1(x)) for x in graph.u)
            + tuple((c1(b), c1(a)) for a, b in graph.edges)
        ),
    )


def family(k: int) -> BipartiteGraph:
    """k-th member: k - 1 doublings of the seed graph."""
    if k < 1:
        raise ValueError("family index must be at least 1")
    graph = g1()
    for _ in range(k - 1):
        graph = double(graph)
    return graph


@dataclass(frozen=True, slots=True)
class BipartiteDrawing:
    """A graph together with exact vertex positions."""

    graph: BipartiteGraph
    placement: Mapping[str, Point] = field(hash=False)

    def __post_init__(self) -> None:
        missing = (set(self.graph.u) | set(self.graph.v)) - set(self.placement)
        if missing:
            raise ValueError(f"placement missing vertices: {sorted(missing)}")

    def edge_midpoints(self) -> list[Point]:
        place = self.placement
        return [midpoint(place[a], place[b]) for a, b in self.graph.edges]


def drawing_defect(drawing: BipartiteDrawing) -> str:
    """Where a drawing first breaks its chain conditions; "" if nowhere.

    Each part's placements and the edge midpoints, each sorted by (x, y),
    must form a south-east chain; the detail names the sequence and counts
    indices in that sorted order.  Coincident midpoints (or coincident
    part vertices) fail: strict x increase rules them out.
    """
    place = drawing.placement
    sequences = (
        ("part u", [place[x] for x in drawing.graph.u]),
        ("part v", [place[x] for x in drawing.graph.v]),
        ("edge midpoints", drawing.edge_midpoints()),
    )
    for name, points in sequences:
        # Fewer than two points pass: there is no segment to test.
        defect = len(points) >= 2 and chain_defect(sorted(points, key=sort_key))
        if defect:
            return f"{name}, sorted by (x, y): {defect}"
    return ""


def verify_drawing(drawing: BipartiteDrawing) -> bool:
    """True iff all three chain conditions of `drawing_defect` hold."""
    return not drawing_defect(drawing)


def drawing_from_level(level: Level) -> BipartiteDrawing:
    """Place the family graph on a built level's chains.

    Vertex t of the first (second) part goes to point t of chain a (b).
    The edge list must agree, position by position, with the level's
    witness pairs; both recursions were set up to keep that alignment,
    and it is re-checked here rather than trusted.
    """
    graph = family(level.k)
    if len(graph.u) != len(level.a) or len(graph.v) != len(level.b):
        raise ValueError("level chains do not match the family part sizes")
    u_pos = {name: t for t, name in enumerate(graph.u)}
    v_pos = {name: t for t, name in enumerate(graph.v)}
    for t, (a_name, b_name) in enumerate(graph.edges):
        if (u_pos[a_name], v_pos[b_name]) != level.witness[t]:
            raise ValueError(
                f"edge {t} disagrees with witness pair {level.witness[t]}"
            )
    placement: dict[str, Point] = {}
    for name, point in zip(graph.u, level.a):
        placement[name] = point
    for name, point in zip(graph.v, level.b):
        placement[name] = point
    return BipartiteDrawing(graph=graph, placement=placement)


def edge_list_text(graph: BipartiteGraph) -> str:
    """Positional edge list, one `u<i> v<j>` line per edge (0-based)."""
    u_pos = {name: t for t, name in enumerate(graph.u)}
    v_pos = {name: t for t, name in enumerate(graph.v)}
    lines = [f"u{u_pos[a]} v{v_pos[b]}" for a, b in graph.edges]
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str, u_size: int, v_size: int) -> list[tuple[int, int]]:
    """Inverse of `edge_list_text` for given part sizes."""
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if (
            len(parts) != 2
            or not parts[0].startswith("u")
            or not parts[1].startswith("v")
        ):
            raise ValueError(f"line {lineno}: expected 'u<i> v<j>'")
        try:
            i, j = int(parts[0][1:]), int(parts[1][1:])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad index") from exc
        if not (0 <= i < u_size and 0 <= j < v_size):
            raise ValueError(f"line {lineno}: index out of range")
        pairs.append((i, j))
    return pairs
