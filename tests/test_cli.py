import codecs
import contextlib
import copy
import errno
import functools
import hashlib
import importlib.metadata
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechain import InputError, cli, construction, convex_subsets, geometry, render
from sechain.cli import main
from sechain.document import (
    construction_to_document,
    dumps,
    encode_points,
    graph_to_document,
    loads,
    points_to_document,
)
from sechain.geometry import Point, Scaled, pt
from sechain.graphs import drawing_from_level, edge_list_text, family
from sechain.numbers import QSqrt3

from .helpers import build_parser, plain, xy_key


@pytest.fixture
def construction_file(tmp_path):
    path = tmp_path / "level2.json"
    assert main(["construct", "-k", "2", "-o", str(path)]) == 0
    return path


def _run_cli(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so a crash shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "sechain.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        **kwargs,
    )


def _limit_address_space(mib: int = 2048) -> None:
    import resource  # POSIX only, like preexec_fn itself

    limit = mib * 1024**2
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _hostile(name: str, text: str) -> str:
    """A level-2 document edited to hit one interpreter limit."""
    document = json.loads(text)
    coord = document["objects"]["a_chain"]["points"][1]["x"]["p"]
    long_digits = "7" * 5000  # beyond the default 4300-digit int() limit
    if name == "num-digits":
        coord["num"] = long_digits
    elif name == "den-digits":
        coord["den"] = long_digits
    elif name == "json-int-digits":
        return text.replace('"k": 2', '"k": ' + long_digits)
    elif name == "json-depth":
        return "[" * 100_000 + "]" * 100_000 + "\n"
    elif name == "float-overflow":
        coord["num"] = "7" * 4000  # parses, but overflows a float
    elif name == "extent-overflow":  # each x fits a float, their distance does not
        objects = document["objects"]
        wide = Scaled([pt(-(10**308), 0), pt(10**308, 1)])
        objects["a_chain"]["points"] = plain(encode_points(wide))
        objects["witness_pairs"]["pairs"] = []
    elif name == "empty-chains":  # well-formed, but there is nothing to draw
        objects = document["objects"]
        objects["a_chain"]["points"] = objects["b_chain"]["points"] = []
        objects["witness_pairs"]["pairs"] = []
    elif name == "oversized":  # well-formed, one midpoint row past level 9
        objects = document["objects"]
        for chain, size in (("a_chain", 513), ("b_chain", 512)):
            parabola = Scaled([pt(i, i * i) for i in range(size)])
            objects[chain]["points"] = plain(encode_points(parabola))
        objects["witness_pairs"]["pairs"] = []
    elif name == "witness-digits":  # reads and verifies, but ci's witness does not write
        # Each rational part p becomes p + 1/D, D odd and about 2200 digits,
        # so a midpoint's reduced denominator has about 4400.
        rng = random.Random("witness-digits")
        for chain in ("a_chain", "b_chain"):
            for point in document["objects"][chain]["points"]:
                for ratio in (point["x"]["p"], point["y"]["p"]):
                    d = rng.randrange(10**2199, 10**2200) | 1
                    num, den = int(ratio["num"]), int(ratio["den"])
                    ratio["num"], ratio["den"] = str(num * d + den), str(den * d)
    objects = document["objects"]  # the counts state what the edited objects hold
    document["metadata"]["counts"] = {"a": len(objects["a_chain"]["points"]),
                                      "b": len(objects["b_chain"]["points"]),
                                      "witness": len(objects["witness_pairs"]["pairs"])}
    return json.dumps(document)


def _assert_rejected(proc: subprocess.CompletedProcess) -> None:
    """Exit 2 with exactly one stderr line, an `error:` line."""
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestConstruct:
    def test_writes_document(self, construction_file):
        payload = json.loads(construction_file.read_text())
        assert payload["kind"] == "construction"
        assert payload["metadata"]["k"] == 2
        assert payload["metadata"]["counts"]["witness"] == 8

    def test_stdout_when_no_output(self, capsys):
        assert main(["construct", "-k", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["k"] == 1

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["construct", "-k", "3", "-o", str(a)]) == 0
        assert main(["construct", "-k", "3", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_out_of_range(self, capsys):
        assert main(["construct", "-k", "0"]) == 2
        assert main(["construct", "-k", "99"]) == 2
        assert "between 1 and 12" in capsys.readouterr().err

    def test_max_k_override(self, tmp_path):
        out = tmp_path / "x.json"
        assert main(["construct", "-k", "3", "--max-k", "3", "-o", str(out)]) == 0
        assert main(["construct", "-k", "4", "--max-k", "3"]) == 2

    def test_eps_exponent_cap(self, monkeypatch, capsys):
        # A search that reaches find_epsilon's cap is refused with exit 2:
        # level 2 needs 2**-5.
        monkeypatch.setattr(construction, "MAX_EPS_EXPONENT", 4)
        assert main(["construct", "-k", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: no flattening factor down to 2**-4 was accepted at level 1\n")

    def test_missing_k(self, capsys):
        assert main(["construct"]) == 2


class TestVerify:
    def test_valid_construction(self, construction_file, capsys):
        assert main(["verify", str(construction_file)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_json_report(self, construction_file, capsys):
        assert main(["verify", "--json", str(construction_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "witness-midpoint-chain" in names

    def test_corrupted_coordinate_fails(self, construction_file, tmp_path, capsys):
        payload = json.loads(construction_file.read_text())
        point = payload["objects"]["a_chain"]["points"][-1]
        point["y"]["p"]["num"] = str(-int(point["y"]["p"]["num"]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "verification failed" in out

    def test_wrong_counts_fail(self, construction_file, tmp_path, capsys):
        payload = json.loads(construction_file.read_text())
        payload["objects"]["witness_pairs"]["pairs"].pop()
        payload["metadata"]["counts"]["witness"] -= 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", str(bad)]) == 1
        assert "FAIL  counts" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == 2

    def test_points_document(self, tmp_path, capsys):
        doc = tmp_path / "pts.json"
        doc.write_text(dumps(points_to_document(Scaled([pt(0, 0), pt(1, 1)]))))
        assert main(["verify", str(doc)]) == 0
        assert "parsed" in capsys.readouterr().out

    def test_graph_document_with_placements(self, tmp_path, capsys):
        doc = tmp_path / "g2.json"
        assert main(["graph", "-k", "2", "--placements", "-o", str(doc)]) == 0
        assert main(["verify", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "drawing-chains" in out and "all checks passed" in out

    def test_huge_k_fails_counts_without_sizing_memory(self, tmp_path):
        # metadata.k comes from the file; 2**k must never be computed
        # from it.  The address-space limit and the timeout make a
        # regression fail fast instead of exhausting the machine.
        doc = tmp_path / "level3.json"
        assert main(["construct", "-k", "3", "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        payload["metadata"]["k"] = 10**12
        doc.write_text(json.dumps(payload))
        proc = _run_cli("verify", str(doc), preexec_fn=_limit_address_space)
        assert proc.returncode == 1
        assert "FAIL  counts" in proc.stdout
        assert proc.stderr == ""

    def test_failed_check_detail_locates_failure(
        self, construction_file, tmp_path, capsys
    ):
        payload = json.loads(construction_file.read_text())
        points = payload["objects"]["b_chain"]["points"]
        points[1], points[2] = points[2], points[1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", str(bad)]) == 1
        assert (
            "FAIL  chain-b  (x does not strictly increase at indices 1,2)"
            in capsys.readouterr().out
        )

    def test_empty_placements_are_incomplete(self, tmp_path, capsys):
        # `{}` is placements that place nothing, not a graph without them.
        doc = tmp_path / "g2.json"
        assert main(["graph", "-k", "2", "--placements", "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        payload["objects"]["placements"]["points"] = {}
        doc.write_text(json.dumps(payload))
        names, rows = loads(doc.read_text())[1][1]
        assert names == [] and rows.rows == []
        assert main(["verify", str(doc)]) == 1
        assert "FAIL  placements-complete  (8 missing)" in capsys.readouterr().out

    def test_placement_of_a_non_vertex_is_refused(self, tmp_path, capsys):
        # Every vertex is still placed.  Of two extra names, the first in
        # the document is named, not the first in sorted or set order.
        doc = tmp_path / "g2.json"
        assert main(["graph", "-k", "2", "--placements", "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        points = payload["objects"]["placements"]["points"]
        points["ghost"] = points["a-ghost"] = next(iter(points.values()))
        doc.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(doc)]) == 2
        assert capsys.readouterr().err == (
            "error: objects.placements.points[ghost]: not a vertex of the graph\n")

    def test_repeated_key_is_refused(self, tmp_path, capsys):
        # `json` alone keeps the last value of a repeated key, so a bogus
        # placement written before the real one passed unseen.
        doc = tmp_path / "g2.json"
        assert main(["graph", "-k", "2", "--placements", "-o", str(doc)]) == 0
        text = doc.read_text()
        bogus = copy.deepcopy(json.loads(text)["objects"]["placements"]["points"]["0:u1"])
        bogus["x"]["p"]["num"] = bogus["y"]["p"]["num"] = "999"
        at = text.index('"0:u1": {')
        doc.write_text(f'{text[:at]}"0:u1": {json.dumps(bogus)},\n{text[at:]}')
        capsys.readouterr()
        assert main(["verify", str(doc)]) == 2
        assert capsys.readouterr().err == "error: repeated key '0:u1'\n"

    def test_corrupted_placement_fails(self, tmp_path, capsys):
        doc = tmp_path / "g2.json"
        assert main(["graph", "-k", "2", "--placements", "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        name = payload["objects"]["graph"]["u"][0]
        placed = payload["objects"]["placements"]["points"][name]
        placed["x"]["p"]["num"] = "1000"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", str(bad)]) == 1
        assert (
            "FAIL  drawing-chains  (part u, sorted by (x, y): "
            "y does not strictly increase at indices 2,3)"
        ) in capsys.readouterr().out

    @pytest.mark.parametrize("case, detail", [
        ("part-v", "part v, sorted by (x, y): turn at indices 1,2,3 is not strictly left"),
        ("coincident-midpoints",
         "edge midpoints, sorted by (x, y): x does not strictly increase at indices 4,5"),
    ])
    def test_drawing_failure_detail(self, tmp_path, capsys, case, detail):
        level = construction.build(2)
        graph, a, b = family(2), level.a, level.b
        placement = dict(drawing_from_level(level).placement)
        if case == "part-v":  # v3 moved right, to x = 1000
            placement[graph.v[3]] = Point(QSqrt3(1000), b[3].y)
        else:  # v2 moved so that edge (u0, v2) has the midpoint of edge (u2, v3)
            placement[graph.v[2]] = Point(a[2].x + b[3].x - a[0].x, a[2].y + b[3].y - a[0].y)
        bad = tmp_path / "bad.json"
        placed = Scaled([placement[name] for name in graph.u + graph.v])
        bad.write_text(dumps(graph_to_document(graph, placements=placed, k=2)))
        assert main(["verify", str(bad)]) == 1
        assert f"FAIL  drawing-chains  ({detail})" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "ci"])
@pytest.mark.parametrize(
    "case",
    ["num-digits", "den-digits", "json-int-digits", "json-depth", "non-utf8"],
)
def test_hostile_document_is_rejected(construction_file, tmp_path, command, case):
    doc = tmp_path / f"{case}.json"
    if case == "non-utf8":  # UTF-16 with its byte-order mark: ff fe 7b 00 ...
        doc.write_bytes(
            codecs.BOM_UTF16_LE + construction_file.read_text().encode("utf-16-le")
        )
    else:
        doc.write_text(_hostile(case, construction_file.read_text()))
    proc = _run_cli(command, str(doc))
    _assert_rejected(proc)
    if case in ("num-digits", "den-digits"):
        assert f"x.p.{case[:3]}: 5000 digits" in proc.stderr
    if case == "non-utf8":
        assert f"error: cannot read {doc}: not UTF-8" in proc.stderr


@pytest.mark.parametrize("case", ["float-overflow", "extent-overflow"])
def test_render_rejects_coordinate_beyond_float(construction_file, tmp_path, case):
    doc = tmp_path / f"{case}.json"
    doc.write_text(_hostile(case, construction_file.read_text()))
    proc = _run_cli("render", str(doc), "-o", str(tmp_path / "out.svg"))
    _assert_rejected(proc)
    assert proc.stderr.startswith("error: cannot render: ")


def test_empty_chains_keep_the_exit_contract(construction_file, tmp_path):
    doc = tmp_path / "empty-chains.json"
    doc.write_text(_hostile("empty-chains", construction_file.read_text()))
    proc = _run_cli("render", str(doc), "-o", str(tmp_path / "out.svg"))
    _assert_rejected(proc)
    assert "both chains are empty" in proc.stderr
    _assert_rejected(_run_cli("ci", str(doc)))
    proc = _run_cli("verify", str(doc))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_witness_past_the_digit_limit_is_refused(construction_file, tmp_path):
    doc = tmp_path / "witness-digits.json"
    doc.write_text(_hostile("witness-digits", construction_file.read_text()))
    digits = [len(text) for text in re.findall(r'"-?([0-9]+)"', doc.read_text())]
    assert 2200 < max(digits) < 4300
    proc = _run_cli("verify", str(doc))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all checks passed"
    for algo in ("dp", "brute"):
        proc = _run_cli("ci", "--json", "--algo", algo, str(doc))
        _assert_rejected(proc)
        assert proc.stdout == ""
        assert f"more than {sys.get_int_max_str_digits()} digits" in proc.stderr


@pytest.mark.parametrize("command", ["ci", "render"])
def test_value_error_in_an_op_propagates(construction_file, tmp_path, monkeypatch, command):
    # Only an InputError is unusable input; any other ValueError is a fault.
    def boom(*args):
        raise ValueError("boom")

    if command == "ci":
        monkeypatch.setattr(convex_subsets, "ci_dp", boom)
        argv = ["ci", str(construction_file)]
    else:
        monkeypatch.setattr(render, "render_construction", boom)
        argv = ["render", str(construction_file), "-o", str(tmp_path / "out.svg")]
    with pytest.raises(ValueError, match="^boom$"):
        main(argv)


@pytest.mark.parametrize("command", ["construct", "ci"])
def test_memory_error_in_an_op_is_reported(construction_file, tmp_path, monkeypatch, capsys,
                                           command):
    # Running out of memory keeps the exit contract: one `error:` line, exit 2.
    def exhausted(*args, **kwargs):
        raise MemoryError

    out = tmp_path / "out.json"
    if command == "construct":
        monkeypatch.setattr(construction, "build", exhausted)
        argv = ["construct", "-k", "2", "-o", str(out)]
    else:
        monkeypatch.setattr(convex_subsets, "ci_dp", exhausted)
        argv = ["ci", str(construction_file)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not out.exists()


def test_render_refuses_oversized_construction(construction_file, tmp_path):
    doc = tmp_path / "oversized.json"
    doc.write_text(_hostile("oversized", construction_file.read_text()))
    out = tmp_path / "out.svg"
    proc = _run_cli("render", str(doc), "-o", str(out))
    _assert_rejected(proc)
    assert "error: cannot render: 513 x 512 > 262144 midpoints" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "render"])
def test_unwritable_output_is_rejected(construction_file, tmp_path, command):
    out = tmp_path / "missing-dir" / "out"
    if command == "construct":
        proc = _run_cli("construct", "-k", "2", "-o", str(out))
    else:
        proc = _run_cli("render", str(construction_file), "-o", str(out))
    _assert_rejected(proc)
    assert f"error: cannot write {out}: " in proc.stderr


@pytest.mark.parametrize("argv", [["construct", "-k", "8"],
                                  ["graph", "-k", "7", "--placements"]])
def test_unwritable_output_fails_before_building(tmp_path, monkeypatch, capsys, argv):
    builds = []
    monkeypatch.setattr(construction, "build", lambda *a, **kw: builds.append(a))
    out = tmp_path / "missing-dir" / "out.json"
    assert main([*argv, "-o", str(out)]) == 2
    assert builds == []
    assert f"error: cannot write {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["construct", "graph"])
def test_failed_search_leaves_no_new_file(tmp_path, monkeypatch, capsys, command):
    def failed_search(k):
        raise construction.EpsilonSearchError(
            "no flattening factor down to 2**-3 was accepted at level 2")

    monkeypatch.setattr(construction, "build", failed_search)
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("earlier output")
    for out in (fresh, kept):
        argv = [command, "-k", "3", "-o", str(out)]
        if command == "graph":
            argv.append("--placements")
        assert main(argv) == 2
        assert "error: no flattening factor down to 2**-3" in capsys.readouterr().err
    assert not fresh.exists()
    assert kept.read_text() == "earlier output"


def test_failed_write_leaves_no_new_file(tmp_path, monkeypatch, capsys):
    # The output is made before the build; a write that then fails (here
    # on a full disk) removes it again.
    def open_on_full_disk(path, mode="r", **kwargs):
        handle = open(path, mode, **kwargs)
        if mode == "wb":
            def write(data):  # as write() raises it: naming no file
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            handle.write = write
        return handle

    monkeypatch.setattr(cli, "open", open_on_full_disk, raising=False)
    out = tmp_path / "out.json"
    assert main(["construct", "-k", "2", "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
    assert not out.exists()


@pytest.mark.parametrize("mib", [46, 48])
def test_out_of_memory_keeps_the_earlier_file(tmp_path, mib):
    # Level 12 in a fresh interpreter, with an address space in which its
    # text is made but the write may not fit: either the pinned document
    # is written, or the op runs out of memory and the earlier bytes stay.
    doc = tmp_path / "kept.json"
    doc.write_bytes(b"earlier output\n")
    proc = _run_cli("construct", "-k", "12", "-o", str(doc),
                    preexec_fn=functools.partial(_limit_address_space, mib))
    if proc.returncode == 0:
        assert _sha256(doc.read_bytes()) == _PINNED_CONSTRUCTIONS[12]
    else:
        assert (proc.returncode, proc.stderr) == (2, "error: out of memory\n")
        assert doc.read_bytes() == b"earlier output\n"


def _paths(node, path=()):
    """Every path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


_BIG = "9" * 4000  # under the 4300-digit limit, far beyond a float
_INT_RE = re.compile(r"-?[0-9]+")


def _at(document, path):
    return functools.reduce(lambda node, k: node[k], path, document)


def _shiftable(value) -> bool:
    if isinstance(value, str):
        return _INT_RE.fullmatch(value) is not None
    return isinstance(value, int) and not isinstance(value, bool)


@st.composite
def _mutated(draw, documents):
    """A valid document with one to three structured edits."""
    document = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop", "retype", "duplicate", "number", "swap", "shift"]))
        paths = list(_paths(document))
        if edit == "shift":  # only integers and integer strings shift
            paths = [path for path in paths if _shiftable(_at(document, path))]
            if not paths:
                continue
        *parents, key = draw(st.sampled_from(paths))
        holder = _at(document, parents)
        if edit == "shift":  # a wrong-by-one k, count, index or coordinate
            delta, value = draw(st.sampled_from([-1, 1])), holder[key]
            holder[key] = value + delta if isinstance(value, int) else str(int(value) + delta)
        elif edit == "swap":  # exchange the values of two siblings
            siblings = list(holder) if isinstance(holder, dict) else range(len(holder))
            other = draw(st.sampled_from(siblings))
            holder[key], holder[other] = holder[other], holder[key]
        elif edit == "drop":
            del holder[key]
        elif edit == "retype":
            holder[key] = draw(st.sampled_from([None, True, 7, -1.5, "x", [], {}]))
        elif edit == "duplicate":  # a sibling's value, or a list item twice
            siblings = list(holder) if isinstance(holder, dict) else range(len(holder))
            other = holder[draw(st.sampled_from(siblings))]
            if isinstance(holder, list):
                holder.insert(key, copy.deepcopy(other))
            else:
                holder[key] = copy.deepcopy(other)
        else:
            number = draw(st.sampled_from([0, -1, -(10**30), 10**30, 2**64]))
            as_text = draw(st.sampled_from([str(number), _BIG, "-" + _BIG]))
            holder[key] = as_text if isinstance(holder[key], str) else number
    return document


# Six points with negative, zero and irrational components; the points
# document of `_valid_documents`.
_SIX_POINTS = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2), pt(1, 1),
               Point(QSqrt3(1, 1), QSqrt3(Fraction(-1, 3), 2))]


def _valid_documents() -> list[dict]:
    level = construction.build(2)
    return [
        plain(construction_to_document(level)),
        plain(graph_to_document(family(2), placements=level.chains, k=2)),
        plain(points_to_document(Scaled(_SIX_POINTS))),
    ]


@settings(max_examples=40, deadline=2000)
@given(document=_mutated(_valid_documents()))
def test_mutated_documents_keep_the_exit_contract(document, tmp_path_factory):
    # Each mutation goes through every reading op in process: an escaping
    # exception is a traceback, and the exit code must be 0, 1 or 2.
    folder = tmp_path_factory.getbasetemp()
    doc = folder / "mutated.json"
    doc.write_text(json.dumps(document))
    for argv in (["verify", str(doc)], ["verify", "--json", str(doc)], ["ci", str(doc)],
                 ["ci", "--algo", "brute", "--json", str(doc)],
                 ["render", str(doc), "-o", str(folder / "mutated.svg")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()


class TestCi:
    def test_construction_input(self, construction_file, capsys):
        assert main(["ci", str(construction_file)]) == 0
        out = capsys.readouterr().out
        assert out == "largest convexly independent subset: 10 (algo=dp, input=16 points)\n"

    def test_algorithms_agree(self, construction_file, capsys):
        assert main(["ci", "--algo", "dp", "--json", str(construction_file)]) == 0
        dp = json.loads(capsys.readouterr().out)
        assert main(["ci", "--algo", "brute", "--json", str(construction_file)]) == 0
        brute = json.loads(capsys.readouterr().out)
        assert dp["size"] == brute["size"] == 10
        assert len(dp["witness"]) == 10

    def test_points_input(self, tmp_path, capsys):
        doc = tmp_path / "pts.json"
        doc.write_text(
            dumps(points_to_document(Scaled([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])))
        )
        assert main(["ci", str(doc)]) == 0
        assert "subset: 4" in capsys.readouterr().out

    def test_bruteforce_cap(self, tmp_path, capsys):
        doc = tmp_path / "many.json"
        doc.write_text(
            dumps(points_to_document(Scaled([pt(i, i * i) for i in range(25)])))
        )
        assert main(["ci", "--algo", "brute", str(doc)]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["ci", "--algo", "dp", str(doc)]) == 0

    def test_oversized_midpoint_set_is_refused_early(
        self, levels, tmp_path, monkeypatch, capsys
    ):
        doc = tmp_path / "level6.json"
        doc.write_text(dumps(construction_to_document(levels[6])))
        built = 0
        real_midpoint_set = geometry.Scaled.midpoint_set

        def counting_midpoint_set(self, n, limit):
            nonlocal built
            mids = real_midpoint_set(self, n, limit)
            built += len(mids)
            return mids

        monkeypatch.setattr(geometry.Scaled, "midpoint_set", counting_midpoint_set)
        assert main(["ci", str(doc)]) == 2
        assert "ci_dp refuses more than 2500 points" in capsys.readouterr().err
        # 64 x 64 = 4096 midpoints exist, all distinct, so the rows
        # returned count the rows built: at most one row of 64 past the
        # limit.
        assert 2500 < built <= 2500 + 64

    def test_points_input_builds_no_point(self, tmp_path, monkeypatch, capsys):
        # A point set is decoded, solved and encoded on its integer rows.
        doc = tmp_path / "six.json"
        doc.write_text(dumps(points_to_document(Scaled(_SIX_POINTS))), encoding="utf-8")

        def refuse(*args):
            raise AssertionError("ci of a points document built a Point")

        monkeypatch.setattr(geometry.Scaled, "points", refuse)
        monkeypatch.setattr(QSqrt3, "__init__", refuse)
        for algo, digest in (("dp", _PINNED_SIX_POINTS_CI),
                             ("brute", _PINNED_SIX_POINTS_BRUTE)):
            assert main(["ci", "--algo", algo, "--json", str(doc)]) == 0
            assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest, algo

    def test_graph_input_rejected(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        assert main(["graph", "-k", "1", "--placements", "-o", str(doc)]) == 0
        assert main(["ci", str(doc)]) == 2
        assert "construction or points" in capsys.readouterr().err


class TestGraph:
    def test_edge_list_output(self, capsys):
        assert main(["graph", "-k", "2"]) == 0
        assert capsys.readouterr().out == edge_list_text(family(2))

    def test_k_out_of_range(self, capsys):
        assert main(["graph", "-k", "0"]) == 2
        assert main(["graph", "-k", "13"]) == 2

    def test_placements_build_no_point(self, tmp_path, monkeypatch):
        # The placements are encoded from the level's rows.
        def refuse(self):
            raise AssertionError("graph --placements built Points")

        monkeypatch.setattr(geometry.Scaled, "points", refuse)
        doc = tmp_path / "g4.json"
        assert main(["graph", "-k", "4", "--placements", "-o", str(doc)]) == 0
        assert _sha256(doc.read_bytes()) == _PINNED_GRAPHS[4]

    def test_placements_document(self, tmp_path):
        doc = tmp_path / "g1.json"
        assert main(["graph", "-k", "1", "--placements", "-o", str(doc)]) == 0
        payload = json.loads(doc.read_text())
        assert payload["kind"] == "graph"
        assert set(payload["objects"]["placements"]["points"]) == {
            "u1", "u2", "v1", "v2"
        }


class TestRender:
    def test_svg_marks(self, tmp_path):
        doc = tmp_path / "level1.json"
        assert main(["construct", "-k", "1", "-o", str(doc)]) == 0
        svg = tmp_path / "out.svg"
        assert main(["render", str(doc), "-o", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert text.count('<circle class="chain-a"') == 2
        assert text.count('<circle class="chain-b"') == 2
        assert text.count('<circle class="witness"') == 3
        assert text.count('<circle class="mid"') == 4
        # The SVG is written as text, so check that it parses as XML.
        root = ET.fromstring(svg.read_bytes())
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert len(root) == 2 + 11 + 3  # style, rect, circles, polylines

    def test_single_witness_pair_draws_no_witness_line(self, construction_file, tmp_path):
        document = json.loads(construction_file.read_text())
        del document["objects"]["witness_pairs"]["pairs"][1:]
        document["metadata"]["counts"]["witness"] = 1
        doc, svg = tmp_path / "one-pair.json", tmp_path / "out.svg"
        doc.write_text(json.dumps(document))
        assert main(["render", str(doc), "-o", str(svg)]) == 0
        text = svg.read_text()
        assert text.count('<circle class="witness"') == 1
        assert '<polyline class="witness"' not in text
        assert text.count('<polyline class="chain-') == 2

    def test_rejects_non_construction(self, tmp_path, capsys):
        doc = tmp_path / "pts.json"
        doc.write_text(dumps(points_to_document(Scaled([pt(0, 0)]))))
        svg = tmp_path / "out.svg"
        assert main(["render", str(doc), "-o", str(svg)]) == 2
        assert "construction" in capsys.readouterr().err


# sha256 of the construction documents for k = 1..12, of
# `graph -k 3 --placements`, `-k 4` and `-k 7` (the benchmark's graph op)
# and of `render` on levels 3, 7, 8 and 9.  Any
# change to the encoding, the construction or the renderer shows up here.
_PINNED_CONSTRUCTIONS = {
    1: "83dedbd55db69635baf5a789cc744dd62b970257082072a09a9fa4b1cd678c81",
    2: "ee802b869c5e1847f455919a811d616017ab8c2c95cb29e1d989c58248237316",
    3: "278042a5832a54f30a7c1bfc980ee6d381a4946c46b3efa1f0660032e688d118",
    4: "87aaea3f4135e66245d99c19c216ee926f52cd9bad8f5a01719eff82517bc50c",
    5: "a8b5bd6d24401d6ffce8a2e2c6316fd0fcbf74d33030c854b2824cfbee8c129a",
    6: "ceccd84451aebd7318738d9cf7741fc60c728743a1f3b87ce2f400c485dfb75e",
    7: "c625fb4678ca68613aa11f3b4d33867985fdc0c6b4fdec6c9b580455c80f3e2f",
    8: "475e3321ecdd5042586ddced30cae2396a2d1ec9825598f0ce8538df3d8e97c1",
    9: "3c09e60283adcc6c3b875531d5bdec108567ce49b3b98ea874f01e376f0208df",
    10: "49a756154fd75faf073357811fbb562905657a4b562515166b58e6f07810501e",
    11: "e7befe447f293f3ec1ffcd9739119d454fceb127798076b53caf067c7f58a5d3",
    12: "1707b485419ebfe251bc384e9be0061f0e1bef36cf76001caea233b68f4e0b83",
}
_PINNED_GRAPHS = {
    3: "6fdf30b11f28c5426d50ec8896c6a06d9a3d9983686d53dd2b10ed0e3bf9a9ec",
    4: "ac94267d85faf34effbce50ea8d8aadf6b72b91743215d8c59ba7147a050b7e5",
    7: "31f472a16a7f26a3e940e437821bf8d9700b006ed133a0be6fc28da3e0ea524f",
}
_PINNED_SVGS = {
    3: "a7205d48796ac2c170618b4ee613af6e5fd351d96f7ecbf0eb52d12e909bb928",
    7: "084a87a24b95e923841f2802649a53cf2d7c49d0e596a3fb63de83180b29847b",
    8: "f2f3c9fe07d2ee593bfbed3ffbf470470055acdde1963b3277ec694d7d27bf7b",
    9: "ad0d0dcf15346144b26e6e23092a0dfca9a13e315de5be69ad2b1a8f3407c7c4",
}
# sha256 of `ci --json` on levels 2 to 5: the size and the witness.  The
# level-5 digest was taken from the full anchor loop, before the tail
# bound could end it early.
_PINNED_CI = {
    2: "74880e4e169566c55ef774a6493f7fd4aefe95bdbd124f53caee1a6ba9250e17",
    3: "3bd47ea5820234968f6d85713405484c9a535e4b419e2f7e6d2724ff8e53677e",
    4: "fa38150b29399ee659956273ac58b0e127929ac8fe188f89c3ab2d08dad116f1",
    5: "88e033ce619b60267d1df582ddc738398893ee7a1b67178ec45fa89442772a4e",
}
# sha256 of the `_SIX_POINTS` points document and of `ci --json` on it,
# taken from the per-`Point` encoder: the row encoder must write the same
# bytes for negative, zero and irrational components.
_PINNED_SIX_POINTS = "3feed0e349bde107cdab5fd235b9a1d4542993c15aea9ecee2197b6745f5e0ee"
_PINNED_SIX_POINTS_CI = "3f80bf1a3152f2d5d04f39ef214d50a1d3ed086773f7ba2b6de051f1bbfa95f3"
# sha256 of `ci --algo brute --json` on it, taken while `ci` still read
# the document through `Point`s.
_PINNED_SIX_POINTS_BRUTE = "030037687fc90f06531c2e3bdcad174fec7c036a191cd7b2d18164569dd30978"

# sha256 of two points documents and of `ci --json` on each, taken before
# `ci_dp` pruned edges or keyed them without a square root: 120 distinct
# random points (a/8 + (b/2)*sqrt(3) per coordinate, so most keys have
# both parts), and the 10 x 10 integer lattice, full of parallel edges.
_PINNED_POINTS_CI = {
    "random120": ("51de6df264fcfd69cf16e954cc5152ff8da5aaf79c6d825ab08f816e149d32d4",
                  "39f324291485c480ef192407096964cfdd093e1736a4ffe637b0ac9a0cb621b0"),
    "lattice10": ("1c028e6fe7becacec244705eb025a4b261dd3c8a753cf2ce89c0bcd9ef15eef9",
                  "10912a91d253f131a9ea5698ddd752e176f10b1eb8a2965cf200e7ae9555f1e8"),
}


def _random120() -> list[Point]:
    rng, points = random.Random("ci-random120"), set()

    def coord() -> QSqrt3:
        return QSqrt3(Fraction(rng.randint(-64, 64), 8), Fraction(rng.randint(-16, 16), 2))

    while len(points) < 120:
        points.add(Point(coord(), coord()))
    return sorted(points, key=xy_key)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedBytes:
    def test_construction_documents(self, levels):
        digests = {
            k: _sha256(dumps(construction_to_document(lv)).encode("utf-8"))
            for k, lv in levels.items()
        }
        assert digests == {k: _PINNED_CONSTRUCTIONS[k] for k in range(1, 9)}

    def test_construct_beyond_the_default_cap(self, tmp_path):
        for k in range(9, 13):
            doc = tmp_path / f"level{k}.json"
            assert main(["construct", "-k", str(k), "--max-k", "12", "-o", str(doc)]) == 0
            assert _sha256(doc.read_bytes()) == _PINNED_CONSTRUCTIONS[k], k

    def test_default_cap_level_in_80_mib(self, tmp_path):
        # The default --max-k is 12: that level (about 46 MiB peak RSS)
        # must build in a fresh interpreter under an 80 MiB address space.
        doc = tmp_path / "level12.json"
        proc = _run_cli("construct", "-k", "12", "-o", str(doc),
                        preexec_fn=functools.partial(_limit_address_space, 80))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert _sha256(doc.read_bytes()) == _PINNED_CONSTRUCTIONS[12]

    def test_graph_placements(self, tmp_path):
        for k, digest in _PINNED_GRAPHS.items():
            doc = tmp_path / f"graph{k}.json"
            assert main(["graph", "-k", str(k), "--placements", "-o", str(doc)]) == 0
            assert _sha256(doc.read_bytes()) == digest, k
            assert main(["verify", str(doc)]) == 0, k  # every check passed

    def test_render(self, tmp_path):
        doc, svg = tmp_path / "level3.json", tmp_path / "level3.svg"
        assert main(["construct", "-k", "3", "-o", str(doc)]) == 0
        assert _sha256(doc.read_bytes()) == _PINNED_CONSTRUCTIONS[3]
        assert main(["render", str(doc), "-o", str(svg)]) == 0
        assert _sha256(svg.read_bytes()) == _PINNED_SVGS[3]

    def test_render_large_levels(self, levels, tmp_path):
        for k in (7, 8):
            doc, svg = tmp_path / f"level{k}.json", tmp_path / f"level{k}.svg"
            doc.write_text(dumps(construction_to_document(levels[k])), encoding="utf-8")
            assert main(["render", str(doc), "-o", str(svg)]) == 0
            assert _sha256(svg.read_bytes()) == _PINNED_SVGS[k], k

    def test_render_at_the_cap_in_192_mib(self, tmp_path):
        # Level 9 has 2**18 midpoints, render's cap, and renders at about
        # 160 MB peak RSS: it must do so in a fresh interpreter under a
        # 192 MiB address space.
        doc, svg = tmp_path / "level9.json", tmp_path / "level9.svg"
        assert main(["construct", "-k", "9", "-o", str(doc)]) == 0
        proc = _run_cli("render", str(doc), "-o", str(svg),
                        preexec_fn=functools.partial(_limit_address_space, 192))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert _sha256(svg.read_bytes()) == _PINNED_SVGS[9]

    def test_ci_json(self, levels, tmp_path, capsys):
        for k in (2, 3, 4):
            doc = tmp_path / f"level{k}.json"
            doc.write_text(dumps(construction_to_document(levels[k])), encoding="utf-8")
            assert main(["ci", "--json", str(doc)]) == 0
            assert _sha256(capsys.readouterr().out.encode("utf-8")) == _PINNED_CI[k], k

    def test_ci_json_level5(self, levels, tmp_path):
        # 1024 midpoints; the exact optimum is 117 against the witness 112.
        # It must be found in a fresh interpreter under a 96 MiB address space.
        doc = tmp_path / "level5.json"
        doc.write_text(dumps(construction_to_document(levels[5])), encoding="utf-8")
        proc = _run_cli("ci", "--json", str(doc),
                        preexec_fn=functools.partial(_limit_address_space, 96))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["size"] == 117
        assert _sha256(proc.stdout.encode("utf-8")) == _PINNED_CI[5]

    def test_ci_json_random_and_lattice(self, tmp_path, capsys):
        lattice = [pt(x, y) for x in range(10) for y in range(10)]
        for name, points in (("random120", _random120()), ("lattice10", lattice)):
            doc = tmp_path / f"{name}.json"
            doc.write_text(dumps(points_to_document(Scaled(points))), encoding="utf-8")
            assert main(["ci", "--json", str(doc)]) == 0
            pinned_doc, pinned_ci = _PINNED_POINTS_CI[name]
            assert _sha256(doc.read_bytes()) == pinned_doc, name
            assert _sha256(capsys.readouterr().out.encode("utf-8")) == pinned_ci, name

    def test_points_document_and_ci_json(self, tmp_path, capsys):
        doc = tmp_path / "six.json"
        doc.write_text(dumps(points_to_document(Scaled(_SIX_POINTS))), encoding="utf-8")
        assert _sha256(doc.read_bytes()) == _PINNED_SIX_POINTS
        assert main(["ci", "--json", str(doc)]) == 0
        assert _sha256(capsys.readouterr().out.encode("utf-8")) == _PINNED_SIX_POINTS_CI


# The argv grammar of the parser oracle: each verb's options, each
# with the values it takes (None for a flag), and values drawn to be
# good, bad, negative, option-like or empty.  Left out: forms whose
# argparse reading differs between Python 3.10 and 3.13 (negative
# numbers with "_", values holding "=", a space in a joined -kVALUE, an
# empty inline value, "--" anywhere but before a last positional, or
# after an option that lacks its value), and forms that `cli._parse`
# reads otherwise on purpose ("--" on a verb without a positional, or
# before the verb; -h bundled with more letters; a token starting "--=";
# a negative number with a trailing newline).
_ARGV_OPTIONS = {
    "construct": {"-k": int, "-o": str, "--output": str, "--max-k": int},
    "verify": {"--json": None},
    "ci": {"--algo": "choice", "--json": None},
    "graph": {"-k": int, "-o": str, "--output": str, "--max-k": int, "--placements": None},
    "render": {"-o": str, "--output": str},
}
_ARGV_VALUES = {
    int: ["1", "3", "12", "0", "-1", "-7", "007", " 4", "1_0", "x", "1.5", "-1.5", "-.5", "",
          "9" * 5000, "-x", "-k", "--json"],
    str: ["doc.json", "-", "-1", "-.5", "", "a b", "-x", "-k", "--json", "--bogus"],
    "choice": ["dp", "brute", "fast", "DP", "", "-1", "-x"],
}


@st.composite
def _argv_piece(draw, options: dict) -> list[str]:
    """One option with its value in one of its spellings, or a help
    option, an unknown option or a bare value."""
    kind = draw(st.sampled_from(["option"] * 4 + ["help", "unknown", "value"]))
    if kind == "help":
        return [draw(st.sampled_from(["-h", "--help", "--he"]))]
    if kind == "unknown":
        return [draw(st.sampled_from(["--bogus", "-x", "--bogus=1", "-q5"]))]
    if kind == "value" or not options:
        return [draw(st.sampled_from([*_ARGV_VALUES[str], "extra"]))]
    name = draw(st.sampled_from(sorted(options)))
    # Every unique prefix of a long option names it.
    spelled = draw(st.sampled_from([name[:n] for n in range(3 if name[1] == "-" else 2,
                                                            len(name) + 1)]))
    if options[name] is None:
        return [draw(st.sampled_from([spelled, spelled + "=x"]))]
    value = draw(st.sampled_from(_ARGV_VALUES[options[name]]))
    forms = [[spelled, value]]
    if value:
        forms.append([f"{spelled}={value}"])
    if value and len(spelled) == 2 and " " not in value:
        forms.append([spelled + value])
    return draw(st.sampled_from(forms))


@st.composite
def _argv(draw) -> list[str]:
    argv = draw(st.sampled_from([[], [], [], ["-h"], ["--he"], ["--bogus"]]))
    verb = draw(st.sampled_from([*_ARGV_OPTIONS, "bogus", None]))
    if verb is None:
        return argv
    options = _ARGV_OPTIONS.get(verb, {})
    argv.append(verb)
    for _ in range(draw(st.integers(0, 5))):
        argv += draw(_argv_piece(options))
    ending = draw(st.sampled_from(["none", "input", "bare"]))
    if ending == "input" and verb in ("verify", "ci", "render"):
        argv += ["--", draw(st.sampled_from(_ARGV_VALUES[str]))]
    elif ending == "bare" and options:  # an option that lacks its value
        argv.append(draw(st.sampled_from(sorted(options))))
    return argv


def _read_by_argparse(argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code == 0 else "refused"
    del values["command"]
    return values.pop("func"), values


def _read_by_table(argv: list[str]):
    try:
        handler, args = cli._parse(argv)
    except InputError:
        return "refused"
    return "help" if handler is print else (handler, vars(args))


class TestArgv:
    @settings(max_examples=400, deadline=None)
    @given(_argv())
    def test_reads_argv_as_argparse(self, argv):
        # The same handler and values, or both refuse, or both show help.
        assert _read_by_table(argv) == _read_by_argparse(argv)

    @pytest.mark.parametrize("argv, values", [
        (["construct", "-o", "x", "-k", "3"], {"k": 3, "output": "x", "max_k": 12}),
        (["construct", "-k3", "--output=x", "--max-k=4"], {"k": 3, "output": "x", "max_k": 4}),
        (["construct", "-k=3", "--out", "-", "--m", "-1"], {"k": 3, "output": "-", "max_k": -1}),
        (["construct", "-k", "-1"], {"k": -1, "output": None, "max_k": 12}),
        (["ci", "--j", "--algo=brute", "--", "-x"], {"input": "-x", "algo": "brute", "json": True}),
        (["verify", "-", "--json"], {"input": "-", "json": True}),
        (["render", "-o-", "-1"], {"input": "-1", "output": "-"}),
    ])
    def test_forms(self, argv, values):
        assert _read_by_table(argv) == (cli._VERBS[argv[0]][0], values)
        assert _read_by_argparse(argv) == (cli._VERBS[argv[0]][0], values)

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: VERB"),
        (["bogus"], "invalid verb 'bogus' (choose from construct, verify, ci, graph, render)"),
        (["construct"], "the following arguments are required: -k"),
        (["construct", "-k", "x"], "argument -k: invalid value 'x'"),
        (["construct", "-k", "9" * 5000], f"argument -k: invalid value '{'9' * 5000}'"),
        (["construct", "-k"], "argument -k: expected one argument"),
        (["construct", "-k", "1", "-o", "--max-k", "2"], "argument --output: expected one argument"),
        (["construct", "-k", "1", "extra", "--bogus"], "unrecognized arguments: extra --bogus"),
        (["verify", "--json=yes", "doc"], "argument --json: ignored explicit argument 'yes'"),
        (["ci", "--algo", "fast", "doc"], "argument --algo: invalid value 'fast'"),
        (["render", "doc"], "the following arguments are required: --output"),
    ])
    def test_refusals(self, capsys, argv, message):
        # One `error:` line on stderr, exit 2, and nothing on stdout.
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_help_wins_over_a_later_refusal_only(self, capsys):
        assert main(["construct", "--bogus", "--help", "-k", "x"]) == 0
        assert capsys.readouterr().out.startswith("usage: sechain construct ")
        assert main(["construct", "-k", "x", "--help"]) == 2


def _run_buffered(argv: list[str], stdout) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter whose stdout is block-buffered, as it
    is without PYTHONUNBUFFERED, so its last write happens at a flush."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "sechain.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, env=env)


@pytest.mark.parametrize("argv", [["construct", "-k", "1"], ["--help"], ["graph", "-k", "8"]])
def test_closed_stdout_pipe_exits_zero(argv):
    # A reader that went away is not an error, and exit's own flush must
    # not fail after `main` has returned.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_buffered(argv, write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv, name", [(["construct", "-k", "1"], "stdout"),
                                        (["--help"], "stdout"),
                                        (["construct", "-k", "1", "-o", "/dev/full"], "/dev/full"),
                                        (["construct", "-k", "8", "-o", "/dev/full"], "/dev/full")])
def test_full_device_is_reported(argv, name):
    # A write that fails for want of space names the -o path, or stdout.
    with open("/dev/full", "w") as full:
        proc = _run_buffered(argv, full)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {name}: {os.strerror(errno.ENOSPC)}\n"


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.skipif(
        not _distribution_installed("sechain"),
        reason="the 'sechain' distribution is not installed, so no console "
        "script was generated from [project.scripts]",
    )
    def test_console_script_installed(self, tmp_path):
        # The scripts directory of this interpreter comes first, so an
        # installed but unactivated virtualenv counts too.
        script = shutil.which(
            "sechain", path=sysconfig.get_path("scripts")
        ) or shutil.which("sechain")
        assert script is not None, "console script not installed"
        out = tmp_path / "doc.json"
        proc = subprocess.run(
            [script, "construct", "-k", "1", "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["metadata"]["k"] == 1

    def test_console_script_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"sechain": "sechain.cli:main"}
        entry = importlib.metadata.EntryPoint(
            name="sechain", value=scripts["sechain"], group="console_scripts"
        )
        assert entry.load() is main
        # The same wrapper that installers write into the script file.
        wrapper = (
            f"import sys\nfrom {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())"
        )
        out = tmp_path / "doc.json"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "construct", "-k", "1", "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["metadata"]["k"] == 1

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sechain.cli", "graph", "-k", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == edge_list_text(family(1))
