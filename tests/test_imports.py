"""What `import sechain` and each CLI op load.

Every op runs in a fresh interpreter, so the modules it imports (and,
without a bytecode cache, compiles) are part of its time.  Each check
runs in a subprocess that records the modules new since its start.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from sechain.cli import main
from sechain.document import dumps, points_to_document
from sechain.geometry import Scaled, pt

_CHILD = """
import json, runpy, sys
before, code = set(sys.modules), None
sys.argv = ["sechain", *json.loads(sys.argv[1])]
try:
    runpy.run_module("sechain.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _loaded(argv: list[str]) -> tuple[int, set[str], str]:
    """Exit code of `python -m sechain.cli ARGV`, the modules it loaded
    and its stderr."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          capture_output=True, text=True, timeout=60)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules), proc.stderr


def test_import_sechain_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sechain; print(sorted(m for m in sys.modules if m.startswith('sechain.')))"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_import_document_loads_no_writer():
    # Nor the reader: `import sechain.document` loads neither side.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sechain.document; "
         "print(sorted(m for m in sys.modules if m.startswith('sechain')))"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "['sechain', 'sechain.document']\n")


def test_document_serves_the_writer_names():
    # perfbench's tracer wraps a name only where a module namespace holds it,
    # so a served name is kept in `document` after its first access.  The
    # reader's two public names are served the same way; no private name is.
    import sechain.document as document
    import sechain.reader as reader
    import sechain.writer as writer

    for module, names in ((writer, ("construction_to_document", "dumps", "encode_points",
                                    "graph_to_document", "points_to_document")),
                          (reader, ("loads", "load_path"))):
        for name in names:
            assert getattr(document, name) is getattr(module, name)
            assert vars(document)[name] is getattr(module, name)
    for name in ("no_such_name", "_point", "_Slot", "Items", "plain", "_ratios", "_points",
                 "_scaled", "_decode_construction", "_decode_graph", "_fail", "_INT_RE",
                 "ParsedDocument"):
        with pytest.raises(AttributeError):
            getattr(document, name)


def test_traced_spans_reach_document(tmp_path):
    # As `perfbench/run.py --trace 1` does: only `sechain.cli` is imported
    # when the tracer installs, and the ops run through `cli.main`.  Every
    # span the document metrics read must still be recorded.
    root = Path(__file__).resolve().parents[1]
    child = """
import json, sys
sys.path.insert(0, sys.argv[1])
import sechain.cli as cli
from layers import Tracer
tracer = Tracer()
tracer.install()
out = sys.argv[2]
codes = [cli.main(argv) for argv in (["construct", "-k", "2", "-o", out], ["verify", out],
                                     ["verify", "--json", out])]
tracer.remove()
print(json.dumps([codes, tracer.calls()]))
"""
    proc = subprocess.run([sys.executable, "-c", child, str(root / "perfbench"),
                           str(tmp_path / "level.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, calls = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    for name in ("document.construction_to_document", "document.dumps", "document.load_path",
                 "document.loads", "construction.step"):
        assert calls.get(name, 0) > 0, name


def test_perfbench_targets_resolve():
    # Each traced target must resolve on the module `perfbench/layers.py`
    # names, a function in that module's own namespace, so `--trace 1`
    # wraps it; and the reference pass, which reads `QSqrt3` arithmetic,
    # `cross`, `Level.a`, `.b`, `.eps_history` and `witness_midpoints()`,
    # must run at its smallest levels.  Run in a child, which imports
    # perfbench's modules.
    root = Path(__file__).resolve().parents[1]
    child = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from layers import TARGETS, reference_metrics
reference_metrics(1, 2)
bad = []
for name, (module_name, attr, _) in TARGETS.items():
    owner = importlib.import_module(module_name)
    try:
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        value = getattr(owner, attr)
    except AttributeError:
        bad.append(name)
        continue
    if vars(owner).get(attr) is not value or not callable(value):
        bad.append(name)
print(len(TARGETS), bad)
"""
    proc = subprocess.run([sys.executable, "-c", child, str(root / "perfbench")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, bad = proc.stdout.split(" ", 1)
    assert int(count) > 0 and bad == "[]\n"


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    base = tmp_path_factory.mktemp("docs")
    names = ("level", "graph", "points", "bad", "zero_den", "bad_pair", "graph_zero_den",
             "bad_edge", "dup_edge", "ghost")
    paths = {name: base / f"{name}.json" for name in names}
    assert main(["construct", "-k", "2", "-o", str(paths["level"])]) == 0
    assert main(["graph", "-k", "2", "--placements", "-o", str(paths["graph"])]) == 0
    points = [pt(0, 0), pt(1, 3), pt(2, 1), pt(3, 4)]
    paths["points"].write_text(dumps(points_to_document(Scaled(points))), encoding="utf-8")
    paths["bad"].write_text('{"version": "sechain/1"}', encoding="utf-8")
    # Malformed only past both chains: the last coordinate of chain b, and
    # the last witness pair; in a graph, the last placement, and an edge
    # of three names, read before the structure is checked.  A repeated
    # edge is well-formed, and its structure is refused on names alone, as
    # is a placement of a name that is not a vertex.
    for name, source, edit in (
        ("zero_den", "level", lambda o: o["b_chain"]["points"][-1]["y"]["q"].update(den="0")),
        ("bad_pair", "level", lambda o: o["witness_pairs"]["pairs"][-1].__setitem__(1, 4)),
        ("graph_zero_den", "graph",
         lambda o: [*o["placements"]["points"].values()][-1]["y"]["q"].update(den="0")),
        ("bad_edge", "graph", lambda o: o["graph"]["edges"][-1].append(o["graph"]["v"][0])),
        ("dup_edge", "graph", lambda o: o["graph"]["edges"].append(o["graph"]["edges"][0])),
        ("ghost", "graph", lambda o: o["placements"]["points"].__setitem__(
            "ghost", o["placements"]["points"][o["graph"]["u"][0]])),
    ):
        document = json.loads(paths[source].read_text(encoding="utf-8"))
        edit(document["objects"])
        paths[name].write_text(json.dumps(document), encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def test_loads_builds_no_point(docs):
    # `loads` gives every document kind on rows, as `load_path` does: a
    # level, a point set and a graph's placements build no `Point`.
    child = """
import sys
from sechain.document import loads
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        loads(handle.read())
print(sorted(m for m in ("fractions", "sechain.numbers") if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", child, docs["level"], docs["points"],
                           docs["graph"]], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# The benchmarked ops, their exit code and exactly the package modules
# each loads.  Among them: every op stays on integer rows, a level's
# flattening factors and a graph's placements included, so none loads
# the value layer (`numbers`, `fractions` or `decimal`); an op that reads
# a level loads the record, `level`, and not the builder, `construction`,
# which only `construct` and `graph --placements` load; only an op that
# writes a document or `--json` loads `writer`; `ci` of a points document
# loads neither the construction, the graphs nor the renderer; `verify`
# never loads convex_subsets or render; `construct` loads none of
# convex_subsets, graphs and render; and a malformed document of any
# kind, a graph with a bad placement or edge too, is refused before the
# decoder imports another package module, and so is a well-formed graph
# whose structure is invalid or that places a name that is not a vertex.  Only an op that reads a document loads the
# reader, `reader`: `construct` and `graph --placements` load exactly
# `_BUILD`.  A refused argv loads no package module but `sechain`, and
# no op, `--help` included, loads argparse, gettext or locale.  Every
# refusal writes exactly one stderr line, an `error:` line.
_ROWS = {"sechain", "sechain.document", "sechain.geometry"}
_LEVEL = _ROWS | {"sechain.level"}
_BUILD = _LEVEL | {"sechain.construction", "sechain.writer"}
_READ = _ROWS | {"sechain.reader"}
_READ_LEVEL = _LEVEL | {"sechain.reader"}
_REFUSED = {"sechain", "sechain.document", "sechain.reader"}
_OPS = [
    (["--help"], 0, {"sechain"}),
    ([], 2, {"sechain"}),
    (["bogus"], 2, {"sechain"}),
    (["construct"], 2, {"sechain"}),
    (["construct", "-k", "x"], 2, {"sechain"}),
    (["verify"], 2, {"sechain"}),
    (["render", "{level}"], 2, {"sechain"}),
    (["ci", "--algo", "fast", "{points}"], 2, {"sechain"}),
    (["construct", "-k", "3", "-o", "{out}"], 0, _BUILD),
    (["graph", "-k", "2", "--placements", "-o", "{out}"], 0, _BUILD | {"sechain.graphs"}),
    (["verify", "{level}"], 0, _READ_LEVEL),
    (["verify", "--json", "{graph}"], 0, _READ | {"sechain.graphs", "sechain.writer"}),
    (["verify", "{bad}"], 2, _REFUSED),
    (["verify", "{zero_den}"], 2, _REFUSED),
    (["verify", "--json", "{bad_pair}"], 2, _REFUSED),
    (["verify", "{graph_zero_den}"], 2, _REFUSED),
    (["verify", "{bad_edge}"], 2, _REFUSED),
    (["verify", "{dup_edge}"], 2, _REFUSED),
    (["verify", "{ghost}"], 2, _REFUSED),
    (["render", "{level}", "-o", "{out}"], 0, _READ_LEVEL | {"sechain.render"}),
    (["ci", "{level}"], 0, _READ_LEVEL | {"sechain.convex_subsets"}),
    (["ci", "--json", "{points}"], 0, _READ | {"sechain.convex_subsets", "sechain.writer"}),
    (["ci", "--algo", "brute", "--json", "{points}"], 0,
     _READ | {"sechain.convex_subsets", "sechain.writer"}),
]


@pytest.mark.parametrize("argv, code, package", _OPS,
                         ids=[" ".join(op[0]) or "(no arguments)" for op in _OPS])
def test_op_loads_only_what_it_runs(docs, tmp_path, argv, code, package):
    got_code, loaded, err = _loaded([arg.format(out=tmp_path / "out", **docs) for arg in argv])
    assert got_code == code
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    if argv == ["verify", "{dup_edge}"]:
        assert err == "error: objects.graph: duplicate edge\n"
    assert {m for m in loaded if m.split(".")[0] == "sechain"} == package
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "sechain.numbers",
                         "argparse", "gettext", "locale"}
