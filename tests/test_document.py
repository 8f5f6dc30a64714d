import json
from fractions import Fraction

import pytest

from sechain.construction import base_case, build
from sechain.document import (
    FORMAT_VERSION,
    DocumentError,
    construction_to_document,
    decode_fraction,
    dumps,
    encode_fraction,
    graph_to_document,
    load_path,
    loads,
    points_to_document,
)
from sechain.geometry import Point, pt
from sechain.graphs import drawing_from_level, family, g1
from sechain.numbers import QSqrt3


class TestFractionCodec:
    def test_encode(self):
        assert encode_fraction(Fraction(-3, 7)) == {"num": "-3", "den": "7"}

    def test_decode_normalizes(self):
        assert decode_fraction({"num": "2", "den": "4"}, "x") == Fraction(1, 2)

    def test_decode_rejects_bad_strings(self):
        for num in ("1.5", "0x3", "", "two", "1/2"):
            with pytest.raises(DocumentError):
                decode_fraction({"num": num, "den": "1"}, "x")

    def test_decode_rejects_bad_denominator(self):
        for den in ("0", "-2"):
            with pytest.raises(DocumentError):
                decode_fraction({"num": "1", "den": den}, "x")

    def test_decode_rejects_non_strings(self):
        with pytest.raises(DocumentError):
            decode_fraction({"num": 1, "den": "2"}, "x")

    def test_error_carries_context(self):
        with pytest.raises(DocumentError) as err:
            decode_fraction({"num": "1"}, "metadata.eps_history[0]")
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
        document = construction_to_document(base_case())
        point = document["objects"]["a_chain"]["points"][0]
        point["x"]["p"] = {"num": "2", "den": "4"}
        _, parsed = loads(dumps(document))
        assert parsed.a[0].x == QSqrt3(Fraction(1, 2))


class TestConstructionValidation:
    def _document(self):
        return construction_to_document(base_case())

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


class TestPointsDocuments:
    def test_round_trip(self):
        pts = [pt(0, 0), Point(QSqrt3(1, Fraction(1, 3)), QSqrt3(2))]
        kind, parsed = loads(dumps(points_to_document(pts)))
        assert kind == "points"
        assert parsed == pts

    def test_empty_list_round_trips(self):
        kind, parsed = loads(dumps(points_to_document([])))
        assert kind == "points"
        assert parsed == []

    def test_bad_point_entry(self):
        document = points_to_document([pt(0, 0)])
        document["objects"]["points"]["points"][0] = {"x": {}}
        with pytest.raises(DocumentError):
            loads(dumps(document))


class TestGraphDocuments:
    def test_round_trip_without_placements(self):
        g = family(3)
        kind, (parsed, placements) = loads(dumps(graph_to_document(g, k=3)))
        assert kind == "graph"
        assert parsed == g
        assert placements is None

    def test_round_trip_with_placements(self):
        lv = build(2)
        d = drawing_from_level(lv)
        document = graph_to_document(d.graph, placements=dict(d.placement), k=lv.k)
        _, (parsed, placements) = loads(dumps(document))
        assert parsed == d.graph
        assert placements == dict(d.placement)

    def test_invalid_graph_structure(self):
        document = graph_to_document(g1())
        document["objects"]["graph"]["edges"].append(["u1", "v1"])
        with pytest.raises(DocumentError) as err:
            loads(dumps(document))
        assert "objects.graph" in str(err.value)

    def test_edge_must_be_pair_of_strings(self):
        document = graph_to_document(g1())
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
