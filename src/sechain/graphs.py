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
do not.  Both parts' placements go into one `geometry.Scaled`, and the
edge midpoints are its row sums over `BipartiteGraph.index_pairs()`.
`level_graph` checks the family graph against a built level, whose
chains then place `graph.u + graph.v` in order: `graph --placements`
encodes those rows as they are, and `drawing_from_level` makes them
`Point`s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .geometry import Point, Scaled, chain_defect
from .numbers import Record

if TYPE_CHECKING:  # only for type annotations; no runtime cycle
    from .construction import Level

Edge = tuple[str, str]


class BipartiteGraph(Record):
    """Bipartite graph with ordered parts and an ordered edge list."""

    __slots__ = ("u", "v", "edges")
    u: tuple[str, ...]
    v: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __init__(self, u: tuple[str, ...], v: tuple[str, ...],
                 edges: tuple[Edge, ...]) -> None:
        self._set(u, v, edges)
        u_set, v_set = set(u), set(v)
        if len(u_set) != len(u) or len(v_set) != len(v):
            raise ValueError("duplicate vertex name inside a part")
        if u_set & v_set:
            raise ValueError("parts must be disjoint")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edge")
        for a, b in edges:
            if a not in u_set or b not in v_set:
                raise ValueError(f"edge ({a}, {b}) does not match the parts")

    def index_pairs(self) -> list[tuple[int, int]]:
        """Each edge as (position in u, position in v), in edge order."""
        u_pos = {name: t for t, name in enumerate(self.u)}
        v_pos = {name: t for t, name in enumerate(self.v)}
        return [(u_pos[a], v_pos[b]) for a, b in self.edges]

    @property
    def vertex_count(self) -> int:
        return len(self.u) + len(self.v)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


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


class BipartiteDrawing(Record):
    """A graph together with exact vertex positions.

    `==` compares the placement too; `hash` covers only the graph, as a
    placement mapping need not be hashable.
    """

    __slots__ = ("graph", "placement")
    graph: BipartiteGraph
    placement: Mapping[str, Point]

    def __init__(self, graph: BipartiteGraph, placement: Mapping[str, Point]) -> None:
        self._set(graph, placement)
        missing = (set(graph.u) | set(graph.v)) - set(placement)
        if missing:
            raise ValueError(f"placement missing vertices: {sorted(missing)}")

    def __hash__(self) -> int:
        return hash((self.graph,))

    def _scaled(self) -> Scaled:
        """Part u's placements, then part v's, over one scale."""
        return Scaled([self.placement[x] for x in self.graph.u + self.graph.v])

    def edge_midpoints(self) -> list[Point]:
        graph = self.graph
        return self._scaled().midpoints(len(graph.u), graph.index_pairs()).points()


def drawing_defect(drawing: BipartiteDrawing) -> str:
    """Where a drawing first breaks its chain conditions; "" if nowhere.

    Each part's placements and the edge midpoints, each sorted by (x, y),
    must form a south-east chain; the detail names the sequence and counts
    indices in that sorted order.  Coincident midpoints (or coincident
    part vertices) fail: strict x increase rules them out.
    """
    graph, k = drawing.graph, drawing._scaled()
    n = len(graph.u)
    sequences = (
        ("part u", k.take(range(n))),
        ("part v", k.take(range(n, len(k)))),
        ("edge midpoints", k.midpoints(n, graph.index_pairs())),
    )
    for name, points in sequences:
        # Fewer than two points pass: there is no segment to test.
        defect = len(points) >= 2 and chain_defect(points.sorted())
        if defect:
            return f"{name}, sorted by (x, y): {defect}"
    return ""


def verify_drawing(drawing: BipartiteDrawing) -> bool:
    """True iff all three chain conditions of `drawing_defect` hold."""
    return not drawing_defect(drawing)


def level_graph(level: Level) -> BipartiteGraph:
    """The family graph of a built level, checked against it.

    Vertex t of the first (second) part is point t of chain a (b), so
    `level.chains` places `graph.u + graph.v` in order.  The edge list
    must agree, position by position, with the level's witness pairs;
    both recursions were set up to keep that alignment, and it is
    re-checked here rather than trusted.
    """
    graph = family(level.k)
    if len(graph.u) != level.n or len(graph.v) != len(level.chains) - level.n:
        raise ValueError("level chains do not match the family part sizes")
    for t, pair in enumerate(graph.index_pairs()):
        if pair != level.witness[t]:
            raise ValueError(
                f"edge {t} disagrees with witness pair {level.witness[t]}"
            )
    return graph


def drawing_from_level(level: Level) -> BipartiteDrawing:
    """Place the family graph on a built level's chains (`level_graph`)."""
    graph = level_graph(level)
    placement = dict(zip(graph.u + graph.v, level.chains.points()))
    return BipartiteDrawing(graph=graph, placement=placement)


def edge_list_text(graph: BipartiteGraph) -> str:
    """Positional edge list, one `u<i> v<j>` line per edge (0-based)."""
    lines = [f"u{i} v{j}" for i, j in graph.index_pairs()]
    return "\n".join(lines) + "\n"
