import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sechain.construction import base_case, build, expected_witness_size
from sechain.geometry import Point, pt
from sechain.graphs import (
    BipartiteDrawing,
    BipartiteGraph,
    double,
    drawing_from_level,
    edge_list_text,
    family,
    g1,
    verify_drawing,
)

from .helpers import drawing_midpoints, drawing_oracle, midpoint, points_level, points_st


def _is_connected(graph: BipartiteGraph) -> bool:
    """Breadth-first reachability over both parts."""
    vertices = graph.u + graph.v
    adjacency: dict[str, list[str]] = {x: [] for x in vertices}
    for a, b in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = set(vertices[:1])
    queue = list(seen)
    while queue:
        for y in adjacency[queue.pop()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(vertices)


class TestBipartiteGraph:
    def test_counts(self):
        g = g1()
        assert g.vertex_count == 4
        assert g.edge_count == 3

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(ValueError):
            BipartiteGraph(u=("a", "a"), v=("b",), edges=(("a", "b"),))

    def test_rejects_overlapping_parts(self):
        with pytest.raises(ValueError):
            BipartiteGraph(u=("a",), v=("a",), edges=())

    def test_rejects_stray_endpoints(self):
        with pytest.raises(ValueError):
            BipartiteGraph(u=("a",), v=("b",), edges=(("a", "c"),))
        with pytest.raises(ValueError):
            BipartiteGraph(u=("a",), v=("b",), edges=(("b", "a"),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            BipartiteGraph(u=("a",), v=("b",), edges=(("a", "b"), ("a", "b")))


class TestSeedGraph:
    def test_structure(self):
        g = g1()
        assert g.u == ("u1", "u2")
        assert g.v == ("v1", "v2")
        assert g.edges == (("u1", "v1"), ("u2", "v1"), ("u2", "v2"))


class TestDouble:
    def test_counts(self):
        g = double(g1())
        assert g.vertex_count == 8
        assert g.edge_count == 8

    def test_parts_swap_in_second_copy(self):
        g = double(g1())
        assert g.u == ("0:u1", "0:u2", "1:v1", "1:v2")
        assert g.v == ("0:v1", "0:v2", "1:u1", "1:u2")

    def test_edge_blocks(self):
        g = double(g1())
        assert g.edges[:3] == (
            ("0:u1", "0:v1"), ("0:u2", "0:v1"), ("0:u2", "0:v2")
        )
        assert g.edges[3:5] == (("0:u1", "1:u1"), ("0:u2", "1:u2"))
        assert g.edges[5:] == (
            ("1:v1", "1:u1"), ("1:v1", "1:u2"), ("1:v2", "1:u2")
        )

    def test_preserves_connectivity(self):
        g = g1()
        assert _is_connected(g)
        for _ in range(5):
            g = double(g)
            assert _is_connected(g)
        # The check itself can fail: two disjoint edges are not connected.
        split = BipartiteGraph(
            u=("a", "c"), v=("b", "d"), edges=(("a", "b"), ("c", "d"))
        )
        assert not _is_connected(split)


class TestFamily:
    def test_first_member_is_seed(self):
        assert family(1) == g1()

    def test_counts_up_to_ten(self):
        for k in range(1, 11):
            g = family(k)
            assert g.vertex_count == 2 ** (k + 1)
            assert g.edge_count == expected_witness_size(k)
            assert len(g.u) == len(g.v) == 2**k

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            family(0)


def base_drawing():
    lv = base_case()
    g = family(1)
    placement = {
        "u1": lv.a[0], "u2": lv.a[1],
        "v1": lv.b[0], "v2": lv.b[1],
    }
    return BipartiteDrawing(graph=g, placement=placement)


class TestVerifyDrawing:
    def test_base_drawing_passes(self):
        assert verify_drawing(base_drawing())

    def test_single_edge_is_trivially_valid(self):
        g = BipartiteGraph(u=("a",), v=("b",), edges=(("a", "b"),))
        d = BipartiteDrawing(graph=g, placement={"a": pt(0, 0), "b": pt(1, 1)})
        assert verify_drawing(d)

    def test_unit_drop_breaks_base_drawing(self):
        # Lowering the second left vertex to (2, 0) stops the left part
        # from increasing in y.
        d = base_drawing()
        placement = dict(d.placement)
        placement["u2"] = pt(2, 0)
        assert not verify_drawing(BipartiteDrawing(graph=d.graph, placement=placement))

    def test_equal_x_in_part_fails(self):
        g = BipartiteGraph(u=("a", "c"), v=("b",), edges=(("a", "b"), ("c", "b")))
        d = BipartiteDrawing(
            graph=g, placement={"a": pt(0, 0), "c": pt(0, 1), "b": pt(1, 2)}
        )
        assert not verify_drawing(d)

    def test_collinear_midpoints_fail(self):
        g = BipartiteGraph(
            u=("a", "c", "e"),
            v=("b",),
            edges=(("a", "b"), ("c", "b"), ("e", "b")),
        )
        d = BipartiteDrawing(
            graph=g,
            placement={
                "a": pt(0, 0),
                "c": pt(1, 1),
                "e": pt(2, 2),
                "b": pt(3, 4),
            },
        )
        assert not verify_drawing(d)

    def test_missing_placement_raises(self):
        with pytest.raises(ValueError):
            BipartiteDrawing(graph=g1(), placement={"u1": pt(0, 0)})


class TestDrawingFromLevel:
    def test_base_level(self):
        lv = base_case()
        d = drawing_from_level(lv)
        assert d.graph == family(1)
        assert [d.placement[name] for name in d.graph.u] == list(lv.a)
        assert [d.placement[name] for name in d.graph.v] == list(lv.b)
        assert drawing_midpoints(d) == list(lv.witness_midpoints())
        assert verify_drawing(d)

    def test_levels_up_to_eight(self, levels):
        for lv in levels.values():
            d = drawing_from_level(lv)
            assert d.graph.edge_count == len(lv.witness)
            assert drawing_midpoints(d) == list(lv.witness_midpoints())
            assert verify_drawing(d)

    def test_misaligned_witness_rejected(self):
        lv = base_case()
        shuffled = points_level(
            k=lv.k,
            a=lv.a,
            b=lv.b,
            witness=(lv.witness[1], lv.witness[0], lv.witness[2]),
            eps_history=lv.eps_history,
        )
        with pytest.raises(ValueError):
            drawing_from_level(shuffled)

    def test_edge_midpoints_match_pairs(self, levels):
        lv = levels[3]
        d = drawing_from_level(lv)
        for (i, j), mid in zip(lv.witness, drawing_midpoints(d)):
            assert mid == midpoint(lv.a[i], lv.b[j])


class TestDrawingOracle:
    """The independent oracle that criterion 6 checks every verdict with."""

    def test_accepts_built_drawings(self, levels):
        for k in (1, 2, 3):
            assert drawing_oracle(drawing_from_level(levels[k]))

    @given(
        k=st.integers(min_value=1, max_value=3),
        vertex=st.integers(min_value=0, max_value=15),
        other=st.integers(min_value=0, max_value=15),
        onto_other=st.booleans(),
        offset=st.one_of(
            st.builds(pt, st.integers(-1, 1), st.integers(-1, 1)), points_st
        ),
    )
    def test_agrees_with_verify_drawing(
        self, levels, k, vertex, other, onto_other, offset
    ):
        # Move one vertex by offset, either from its own place or from
        # another vertex's place (offset 0 then makes them coincide).
        d = drawing_from_level(levels[k])
        names = d.graph.u + d.graph.v
        name = names[vertex % len(names)]
        start = names[other % len(names)] if onto_other else name
        at = d.placement[start]
        placement = {**d.placement, name: Point(at.x + offset.x, at.y + offset.y)}
        moved = BipartiteDrawing(graph=d.graph, placement=placement)
        assert drawing_oracle(moved) == verify_drawing(moved)


class TestEdgeListText:
    def test_format(self):
        text = edge_list_text(g1())
        assert text == "u0 v0\nu1 v0\nu1 v1\n"

    def test_round_trip(self):
        g = family(3)
        lines = edge_list_text(g).splitlines()
        matches = [re.fullmatch(r"u([0-9]+) v([0-9]+)", line) for line in lines]
        pairs = [(int(m[1]), int(m[2])) for m in matches]
        u_pos = {name: t for t, name in enumerate(g.u)}
        v_pos = {name: t for t, name in enumerate(g.v)}
        assert pairs == [(u_pos[a], v_pos[b]) for a, b in g.edges]

    def test_family_edges_follow_witness_order(self, levels):
        lv = levels[2]
        g = family(2)
        u_pos = {name: t for t, name in enumerate(g.u)}
        v_pos = {name: t for t, name in enumerate(g.v)}
        assert [(u_pos[a], v_pos[b]) for a, b in g.edges] == list(lv.witness)
