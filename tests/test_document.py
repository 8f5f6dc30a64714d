import contextlib
import functools
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechain.cli import main
from sechain.construction import base_case, build
from sechain.convex_subsets import ci_bruteforce, ci_dp
from sechain.document import (
    FORMAT_VERSION,
    DocumentError,
    construction_to_document,
    dumps,
    encode_points,
    graph_to_document,
    load_path,
    loads,
    points_to_document,
)
from sechain.geometry import Point, Scaled, pt
from sechain.graphs import BipartiteGraph, drawing_from_level, family, g1
from sechain.numbers import QSqrt3
from sechain.writer import Items

from .helpers import plain, points_level, reference_level


def _unplaced(document: dict) -> dict:
    """A placed graph document with its placements popped: the graph
    document without placements, which the reader still reads."""
    del document["objects"]["placements"]
    return document


def _load_eps(fraction: dict) -> Fraction:
    """The first factor of a level-2 document whose eps_history[0] is `fraction`."""
    document = plain(construction_to_document(build(2)))
    document["metadata"]["eps_history"][0] = fraction
    return loads(json.dumps(document))[1].eps_history[0]


class TestFractionCodec:
    def test_encode(self):
        lv = build(2)
        level = points_level(lv.k, lv.a, lv.b, lv.witness, (Fraction(-3, 7),))
        assert construction_to_document(level)["metadata"]["eps_history"] == [
            {"num": "-3", "den": "7"}
        ]

    def test_decode_normalizes(self):
        assert _load_eps({"num": "2", "den": "4"}) == Fraction(1, 2)

    def test_decoded_pairs_are_reduced(self):
        # 2/4 and 1/2 give one level: equal, of one hash, written alike.
        levels = []
        for num, den in (("2", "4"), ("1", "2")):
            document = plain(construction_to_document(build(2)))
            document["metadata"]["eps_history"][0] = {"num": num, "den": den}
            levels.append(loads(json.dumps(document))[1])
        assert levels[0] == levels[1] and hash(levels[0]) == hash(levels[1])
        assert levels[0].eps_pairs == ((1, 2),)
        assert plain(construction_to_document(levels[0])) == plain(
            construction_to_document(levels[1]))
        assert _load_eps({"num": "0", "den": "5"}) == 0
        assert _load_eps({"num": "-6", "den": "4"}) == Fraction(-3, 2)

    def test_decode_rejects_bad_strings(self):
        for num in ("1.5", "0x3", "", "two", "1/2"):
            with pytest.raises(DocumentError):
                _load_eps({"num": num, "den": "1"})

    def test_decode_rejects_bad_denominator(self):
        for den in ("0", "-2"):
            with pytest.raises(DocumentError):
                _load_eps({"num": "1", "den": den})

    def test_decode_rejects_non_strings(self):
        with pytest.raises(DocumentError):
            _load_eps({"num": 1, "den": "2"})

    def test_error_carries_context(self):
        with pytest.raises(DocumentError) as err:
            _load_eps({"num": "1"})
        assert "metadata.eps_history[0]" in str(err.value)


class TestConstructionRoundTrip:
    def test_base_level(self):
        level = base_case()
        kind, parsed = loads(dumps(construction_to_document(level)))
        assert kind == "construction"
        assert parsed == level

    def test_level_three(self):
        level = build(3)
        kind, parsed = loads(dumps(construction_to_document(level)))
        assert kind == "construction"
        assert parsed == level

    def test_serialization_is_canonical(self):
        level = build(2)
        text = dumps(construction_to_document(level))
        assert text == dumps(construction_to_document(level))
        assert text.endswith("\n")
        # Keys are sorted at every level.
        top = json.loads(text)
        assert list(top) == sorted(top)

    def test_coordinates_are_strings(self):
        text = dumps(construction_to_document(base_case()))
        payload = json.loads(text)
        point = payload["objects"]["a_chain"]["points"][0]
        assert point["x"]["p"] == {"num": "0", "den": "1"}
        assert isinstance(point["x"]["q"]["num"], str)

    def test_non_canonical_fractions_normalize(self):
        document = plain(construction_to_document(base_case()))
        point = document["objects"]["a_chain"]["points"][0]
        point["x"]["p"] = {"num": "2", "den": "4"}
        _, parsed = loads(dumps(document))
        assert parsed.a[0].x == QSqrt3(Fraction(1, 2))


class TestConstructionValidation:
    def _document(self):
        return plain(construction_to_document(base_case()))

    def _expect_error(self, document, fragment):
        with pytest.raises(DocumentError) as err:
            loads(dumps(document))
        assert fragment in str(err.value)

    def test_bad_version(self):
        document = self._document()
        document["version"] = "sechain/0"
        self._expect_error(document, "version")

    def test_missing_version(self):
        document = self._document()
        del document["version"]
        self._expect_error(document, "version")

    def test_unknown_kind(self):
        document = self._document()
        document["kind"] = "mystery"
        self._expect_error(document, "kind")

    def test_missing_objects(self):
        document = self._document()
        del document["objects"]
        self._expect_error(document, "objects")

    def test_bad_k(self):
        for bad in (0, -1, True, "2"):
            document = self._document()
            document["metadata"]["k"] = bad
            self._expect_error(document, "metadata.k")

    def test_witness_pair_out_of_range(self):
        document = self._document()
        document["objects"]["witness_pairs"]["pairs"][0] = [0, 9]
        self._expect_error(document, "witness_pairs")

    def test_witness_pair_not_a_pair(self):
        document = self._document()
        document["objects"]["witness_pairs"]["pairs"][0] = [0]
        self._expect_error(document, "witness_pairs")

    def test_witness_pair_boolean(self):
        document = self._document()
        document["objects"]["witness_pairs"]["pairs"][0] = [True, 0]
        self._expect_error(document, "witness_pairs")

    def test_geometry_not_checked_at_parse_time(self):
        # A structurally sound but geometrically broken chain must parse;
        # rejecting it is verification's job.
        document = self._document()
        pts = document["objects"]["a_chain"]["points"]
        pts[0], pts[1] = pts[1], pts[0]
        kind, parsed = loads(dumps(document))
        assert kind == "construction"
        assert parsed.a[0] == pt(2, 1)

    def test_invalid_json_reports_position(self):
        with pytest.raises(DocumentError) as err:
            loads("{\n  broken\n")
        assert "line 2" in str(err.value)

    def test_top_level_not_object(self):
        with pytest.raises(DocumentError):
            loads("[1, 2, 3]\n")


@functools.lru_cache(maxsize=None)
def _level_text(k):
    return dumps(construction_to_document(build(k)))


def _fractions(node):
    """Every {"num", "den"} entry of a document, in a fixed order."""
    if isinstance(node, dict):
        if set(node) == {"num", "den"}:
            yield node
        for key in sorted(node):
            yield from _fractions(node[key])
    elif isinstance(node, list):
        for child in node:
            yield from _fractions(child)


class TestRowDecoder:
    @given(k=st.integers(min_value=1, max_value=5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_non_canonical_fractions_decode_to_the_reference_level(self, k, seed):
        # Each fraction's num and den times its own factor, up to 60 bits.
        rng, document = random.Random(seed), json.loads(_level_text(k))
        for entry in _fractions(document):
            factor = rng.randint(1, 2 ** rng.randint(1, 60))
            entry.update(num=str(int(entry["num"]) * factor),
                         den=str(int(entry["den"]) * factor))
        kind, level = loads(json.dumps(document))
        assert kind == "construction"
        assert level == reference_level(document) == build(k)
        assert dumps(construction_to_document(level)) == _level_text(k)


class TestPointsDocuments:
    def test_round_trip(self):
        pts = [pt(0, 0), Point(QSqrt3(1, Fraction(1, 3)), QSqrt3(2))]
        kind, parsed = loads(dumps(points_to_document(Scaled(pts))))
        assert kind == "points"
        assert parsed.points() == pts

    def test_empty_list_round_trips(self):
        kind, parsed = loads(dumps(points_to_document(Scaled([]))))
        assert kind == "points"
        assert parsed.points() == []

    def test_bad_point_entry(self):
        document = plain(points_to_document(Scaled([pt(0, 0)])))
        document["objects"]["points"]["points"][0] = {"x": {}}
        with pytest.raises(DocumentError):
            loads(dumps(document))


class TestGraphDocuments:
    def test_round_trip_without_placements(self):
        g = family(3)
        document = _unplaced(graph_to_document(g, build(3).chains, 3))
        kind, (parsed, placements) = loads(dumps(document))
        assert kind == "graph"
        assert parsed == g
        assert placements is None

    def test_round_trip_with_placements(self):
        lv = build(2)
        d = drawing_from_level(lv)
        document = graph_to_document(d.graph, placements=lv.chains, k=lv.k)
        _, (parsed, (names, rows)) = loads(dumps(document))
        assert parsed == d.graph
        assert dict(zip(names, rows.points())) == dict(d.placement)

    def test_placements_must_cover_the_parts(self):
        with pytest.raises(ValueError):
            graph_to_document(family(2), placements=build(1).chains, k=2)

    def test_invalid_graph_structure(self):
        document = _unplaced(plain(graph_to_document(g1(), build(1).chains, 1)))
        document["objects"]["graph"]["edges"].append(["u1", "v1"])
        with pytest.raises(DocumentError) as err:
            loads(dumps(document))
        assert "objects.graph" in str(err.value)

    def test_placed_names_are_checked_before_the_type_tags(self):
        # As every other field is: the tags are what a document states
        # about itself, checked last.
        document = plain(graph_to_document(g1(), build(1).chains, 1))
        placements = document["objects"]["placements"]
        placements["points"]["ghost"] = placements["points"]["u1"]
        placements["type"] = "bogus"
        with pytest.raises(DocumentError) as err:
            loads(dumps(document))
        assert (err.value.context, str(err.value)) == (
            "objects.placements.points[ghost]",
            "objects.placements.points[ghost]: not a vertex of the graph")

    def test_edge_must_be_pair_of_strings(self):
        document = _unplaced(plain(graph_to_document(g1(), build(1).chains, 1)))
        document["objects"]["graph"]["edges"][0] = ["u1", 3]
        with pytest.raises(DocumentError):
            loads(dumps(document))


class TestLoadPath:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        level = base_case()
        path.write_text(dumps(construction_to_document(level)))
        kind, parsed = load_path(str(path))
        assert kind == "construction" and parsed == level

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            load_path(str(tmp_path / "absent.json"))


# The writer against its oracle, `json.dumps(..., sort_keys=True, indent=2)`:
# strings with quotes, backslashes, control, non-ASCII, astral and lone
# surrogate characters, ints of thousands of digits of either sign, and
# empty containers.
_text = st.one_of(
    st.text(),
    st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\x80 aZ\u00e9\u2028\ud800\uffff\U0001f600')),
)
_big_ints = st.builds(lambda digits, sign: sign * (10**digits - 7),
                      st.integers(1, 4000), st.sampled_from((1, -1)))
_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | _big_ints | _text,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_text, inner, max_size=5),
    max_leaves=30,
)
_unwritable = st.sampled_from((1.5, 0.0, float("nan"), (), ("a",), {1: "a"},
                               {None: 1}, {True: 1}, {("a",): 1}, b"x", {"a"}))


class TestCanonicalWriter:
    @given(_trees)
    def test_matches_json_dumps(self, tree):
        assert dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"

    @given(_trees, _unwritable)
    def test_refuses_what_json_has_no_canonical_form_for(self, tree, bad):
        for document in (bad, [tree, bad], {"a": tree, "b": [bad]}):
            with pytest.raises(TypeError):
                dumps(document)


# The templates against the plain form they stand for: `dumps` of a
# builder's document, its `Items` written by template, must equal
# `json.dumps` of the document's `plain` form.  Components are negative, zero or thousands of digits
# long, over scales that are mostly not powers of two; names carry
# quotes, backslashes, control, non-ASCII and lone surrogate characters.
_components = st.one_of(st.integers(-(10**12), 10**12), _big_ints)
_scales = st.one_of(st.integers(1, 10**12), st.builds(lambda d: 10**d + 3, st.integers(1, 4000)))


def _rows(n):
    return st.builds(Scaled.from_rows,
                     st.lists(st.tuples(*[_components] * 4), min_size=n, max_size=n), _scales)


def _same_text(make):
    """`dumps` of `make()`, required equal to `json.dumps` of the `plain`
    form of `make()`; `make` is called afresh each time, as `Items` are
    read once."""
    text = dumps(make())
    assert text == json.dumps(plain(make()), sort_keys=True, indent=2) + "\n"
    return text


class TestTemplates:
    @given(st.integers(0, 6).flatmap(_rows), st.integers(0, 6).flatmap(_rows))
    def test_points_at_several_indents(self, a, b):
        # a twice at one indent, so through one template; b deeper; empty lists.
        _same_text(lambda: {
            "a": encode_points(a), "b": [encode_points(b), {}],
            "c": {"d": encode_points(b), "e": encode_points(a)},
            "f": encode_points(Scaled.from_rows([], 3)),
        })

    @given(st.lists(st.tuples(_components, _components), max_size=6))
    def test_int_pairs(self, pairs):
        _same_text(lambda: {"a": Items(list, pairs), "b": [Items(list, pairs[::-1])]})

    @given(st.lists(_text, unique=True, max_size=8), st.data())
    def test_graphs_with_placements(self, names, data):
        n = data.draw(st.integers(0, len(names)))
        u, v = tuple(names[:n]), tuple(names[n:])
        edges = st.lists(st.tuples(st.sampled_from(u), st.sampled_from(v)), unique=True,
                         max_size=8) if u and v else st.just([])
        graph = BipartiteGraph(u, v, tuple(data.draw(edges)))
        placements = data.draw(_rows(len(names)))
        _same_text(lambda: _unplaced(graph_to_document(graph, placements, 3)))
        _same_text(lambda: graph_to_document(graph, placements, 3))

    @given(st.lists(st.tuples(*[st.fractions(-9, 9, max_denominator=6)] * 3), max_size=9),
           st.sampled_from(("dp", "brute")))
    @settings(max_examples=40, deadline=None)
    def test_points_documents_and_ci_witnesses(self, coords, algo):
        points = [Point(QSqrt3(x, q), QSqrt3(y)) for x, q, y in coords]
        text = _same_text(lambda: points_to_document(Scaled(points)))
        if not points:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/points.json"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["ci", "--algo", algo, "--json", path]) == 0
        result = (ci_dp if algo == "dp" else ci_bruteforce)(Scaled(points).distinct())
        witness = plain(encode_points(result.witness_rows))
        report = {"algo": algo, "size": result.size, "witness": witness}
        assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_templates_are_written_by_the_same_call(self, monkeypatch):
        # perfbench counts the bytes that each `dumps` call returns.
        calls = []

        def counted(document):
            calls.append(document)
            return dumps(document)

        monkeypatch.setattr("sechain.document.dumps", counted)
        counted(construction_to_document(build(3)))
        assert len(calls) == 1

    def test_a_document_is_written_once(self):
        # Its points are read once, so a second write would lose them.
        document = construction_to_document(build(2))
        assert loads(dumps(document))[1] == build(2)
        for node in (document, document["objects"]["witness_pairs"]["pairs"]):
            with pytest.raises(TypeError, match="written once"):
                dumps(node)

    def test_levels(self):
        for k in range(1, 6):
            level = build(k)
            graph = drawing_from_level(level).graph
            _same_text(lambda: construction_to_document(level))
            _same_text(lambda: graph_to_document(graph, level.chains, k))


# -- decoder message sweep ------------------------------------------------
#
# Every field path of four documents (a level-2 construction, a points
# document, and a level-2 graph with and without placements) is deleted
# and, in turn, replaced by each value of _RETYPED.  The outcome of each
# `loads` is one line: the parsed payload's digest, or the error class,
# context and message.  The sorted lines are pinned by sha256, so any
# change to a decoder message, its context or the order in which its
# checks fire fails here.

_RETYPED = (
    None, True, False, 0, 1, -1, 2**40, 1.5, "", "x", "12", "-3", "0",
    [], [0], [0, 0], ["u1", "v1"], {},
)


def _sweep_documents():
    level = build(2)
    drawing = drawing_from_level(level)
    pts = [pt(0, 0), Point(QSqrt3(1, Fraction(1, 3)), QSqrt3(2))]
    return {
        "construction": plain(construction_to_document(level)),
        "points": plain(points_to_document(Scaled(pts))),
        "graph": _unplaced(plain(graph_to_document(drawing.graph, placements=level.chains, k=2))),
        "placed-graph": plain(graph_to_document(drawing.graph, placements=level.chains, k=2)),
    }


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for t, child in enumerate(node):
            yield from _paths(child, path + (t,))


_DELETE = object()


def _mutated(document, path, value):
    """A copy of `document` with `path` deleted (`_DELETE`) or set to `value`."""
    copy = json.loads(json.dumps(document))
    if not path:
        return value
    parent = copy
    for step in path[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def _outcome(text):
    try:
        kind, payload = loads(text)
    except DocumentError as exc:
        return f"DocumentError {exc.context!r} {str(exc)!r}"
    except Exception as exc:  # a crash is an outcome too; it must not change
        return f"{type(exc).__name__} {exc!r}"
    digest = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]
    return f"ok {kind} {digest}"


def _sweep_lines():
    lines = []
    for name, document in _sweep_documents().items():
        for path in _paths(document):
            where = "/".join(map(str, path))
            values = ((_DELETE, "delete"),) if path else ()
            values += tuple((v, json.dumps(v)) for v in _RETYPED)
            for value, label in values:
                text = json.dumps(_mutated(document, path, value))
                lines.append(f"{name}\t{where}\t{label}\t{_outcome(text)}")
    return sorted(lines)


# Recorded after `loads` kept every payload on rows and read the counts
# and `type` tags.
_SWEEP_COUNT = 7843
_SWEEP_SHA256 = (
    "abc8d17808ae3d5c23b1195f268d9d92900998617d14b39c649f2feee7c1f3ea"
)


def _error(document):
    with pytest.raises(DocumentError) as err:
        loads(json.dumps(document))
    context, text = err.value.context, str(err.value)
    return context, text.removeprefix(f"{context}: ")


class TestDecoderMessages:
    def test_sweep_outcomes_are_pinned(self):
        lines = _sweep_lines()
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert (len(lines), digest) == (_SWEEP_COUNT, _SWEEP_SHA256)

    def test_representative_messages(self):
        docs = _sweep_documents()
        level, graph = docs["construction"], docs["placed-graph"]
        point = ("objects", "a_chain", "points", 0)
        pair = ("objects", "witness_pairs", "pairs", 0)
        edges = ("objects", "graph", "edges")
        placed = ("objects", "placements", "points", "0:u1")
        p0 = "objects.a_chain.points[0]"
        pairs0 = "objects.witness_pairs.pairs[0]"
        table = [
            ([], (), ["x"], "document", "expected dict"),
            (level, ("version",), _DELETE, "document", "missing field 'version'"),
            (level, ("version",), "sechain/0", "version",
             "unsupported version 'sechain/0' (expected 'sechain/1')"),
            (level, ("kind",), "mystery", "kind", "unknown kind 'mystery'"),
            (level, ("metadata",), _DELETE, "document", "missing field 'metadata'"),
            (level, ("metadata", "k"), _DELETE, "metadata", "missing field 'k'"),
            (level, ("metadata", "k"), "2", "metadata.k", "expected int"),
            (level, ("metadata", "k"), True, "metadata.k",
             "k must be an integer >= 1"),
            (level, ("metadata", "eps_history", 0), 1, "metadata.eps_history[0]",
             "expected dict"),
            (level, point + ("x", "p", "den"), _DELETE, f"{p0}.x.p",
             "missing field 'den'"),
            (level, point + ("y",), [], f"{p0}.y", "expected dict"),
            (level, point + ("x", "p", "num"), "1.5", f"{p0}.x.p.num",
             "not a decimal integer"),
            (level, point + ("x", "p", "den"), "1\n", f"{p0}.x.p.den",
             "not a decimal integer"),
            (level, point + ("x", "p", "num"), "7" * 5000, f"{p0}.x.p.num",
             "5000 digits, more than this interpreter parses"),
            (level, point + ("x", "p", "den"), "0", f"{p0}.x.p.den",
             "denominator must be positive"),
            (level, pair[:-1], _DELETE, "objects.witness_pairs",
             "missing field 'pairs'"),
            (level, pair, [0], pairs0, "expected a pair"),
            (level, pair, [True, "x"], pairs0, "expected integers"),
            (level, pair, [0, "1"], f"{pairs0}[1]", "expected int"),
            (level, pair, [0, 9], pairs0, "index out of range"),
            (docs["points"], ("objects", "points"), [], "objects.points",
             "expected dict"),
            (graph, edges + (0,), ["0:u1", 3], "objects.graph.edges[0][1]",
             "expected str"),
            (graph, edges + (1,), ["0:u1", "0:v1"], "objects.graph",
             "duplicate edge"),
            (graph, placed + ("x", "q"), _DELETE,
             "objects.placements.points[0:u1].x", "missing field 'q'"),
        ]
        for document, path, value, context, message in table:
            assert _error(_mutated(document, path, value)) == (context, message)

    def test_checks_fire_in_field_order(self):
        # p is decoded in full before q is looked up.
        document = _sweep_documents()["construction"]
        coord = document["objects"]["a_chain"]["points"][0]["x"]
        coord["p"]["num"] = "x"
        del coord["q"]
        assert _error(document) == (
            "objects.a_chain.points[0].x.p.num", "not a decimal integer"
        )


# What a document states about itself, which the decoder checks after
# every other field: each count of a construction, and each object's
# `type` tag.  (document, path to the field, a false value, its message)
_STATED = [
    ("construction", ("metadata", "counts", "a"), 99, "says 99, but the document has 4"),
    ("construction", ("metadata", "counts", "b"), 3, "says 3, but the document has 4"),
    ("construction", ("metadata", "counts", "witness"), True,
     "says True, but the document has 8"),
    ("construction", ("objects", "a_chain", "type"), "bogus",
     "expected type 'chain', not 'bogus'"),
    ("construction", ("objects", "b_chain", "type"), "point_set",
     "expected type 'chain', not 'point_set'"),
    ("construction", ("objects", "witness_pairs", "type"), "chain",
     "expected type 'index_pairs', not 'chain'"),
    ("points", ("objects", "points", "type"), "chain",
     "expected type 'point_set', not 'chain'"),
    ("graph", ("objects", "graph", "type"), None,
     "expected type 'bipartite_graph', not None"),
    ("placed-graph", ("objects", "placements", "type"), "placements",
     "expected type 'placement', not 'placements'"),
]


@pytest.mark.parametrize("name, path, value, message", _STATED,
                         ids=[f"{case[0]}:{'.'.join(case[1])}" for case in _STATED])
def test_stated_field_is_checked(name, path, value, message, tmp_path, capsys):
    document = _sweep_documents()[name]
    assert _error(_mutated(document, path, value)) == (".".join(path), message)
    assert _error(_mutated(document, path, _DELETE)) == (
        ".".join(path[:-1]), f"missing field '{path[-1]}'")
    # `verify` refuses the file that states it: exit 2 and one error line.
    doc = tmp_path / "stated.json"
    doc.write_text(json.dumps(_mutated(document, path, value)), encoding="utf-8")
    assert main(["verify", str(doc)]) == 2
    assert capsys.readouterr().err == f"error: {'.'.join(path)}: {message}\n"


class TestTwoDefects:
    # The sweep changes one field at a time; these pin which of two
    # defects is reported.

    def test_placement_before_graph_structure(self):
        # Every field is read before `graphs` checks the structure.
        document = _sweep_documents()["placed-graph"]
        edges = document["objects"]["graph"]["edges"]
        edges.append(list(edges[0]))
        document["objects"]["placements"]["points"]["0:u1"]["x"]["p"]["den"] = "0"
        assert _error(document) == (
            "objects.placements.points[0:u1].x.p.den", "denominator must be positive"
        )

    def test_earlier_witness_pair_first(self):
        document = _sweep_documents()["construction"]
        document["objects"]["witness_pairs"]["pairs"][:2] = [[0, 99], [0]]
        assert _error(document) == ("objects.witness_pairs.pairs[0]", "index out of range")

    def test_fields_before_counts_and_tags(self):
        document = _sweep_documents()["construction"]
        document["metadata"]["counts"]["a"] = 99
        document["objects"]["a_chain"]["type"] = "bogus"
        document["objects"]["witness_pairs"]["pairs"][-1] = [0, 99]
        assert _error(document) == ("objects.witness_pairs.pairs[7]", "index out of range")
        document["objects"]["witness_pairs"]["pairs"][-1] = [3, 3]
        assert _error(document) == ("metadata.counts.a", "says 99, but the document has 4")

    def test_k_before_eps_history(self):
        document = _sweep_documents()["construction"]
        document["metadata"]["k"] = 0
        document["metadata"]["eps_history"][0] = {"num": "1"}
        assert _error(document) == ("metadata.k", "k must be an integer >= 1")
