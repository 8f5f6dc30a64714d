import contextlib
import copy
import importlib
import inspect
import io
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sechain
from sechain import (
    BipartiteDrawing,
    BipartiteGraph,
    CiResult,
    Level,
    Point,
    QSqrt3,
    base_case,
    cli,
    g1,
    pt,
)
from sechain.geometry import Scaled

_README = Path(__file__).resolve().parents[1] / "README.md"

# The public surface: each exported name and the submodule defining it.
_SURFACE = {
    "construction": ("EpsilonSearchError", "Level", "base_case", "build",
                     "expected_witness_size", "find_epsilon", "step"),
    "convex_subsets": ("CiResult", "ci_bruteforce", "ci_dp"),
    "document": ("DocumentError",),
    "geometry": ("Point", "chain_defect", "convex_hull", "cross", "is_convexly_independent",
                 "is_south_east_chain", "midpoint_set", "pt", "transform_chains"),
    "graphs": ("BipartiteDrawing", "BipartiteGraph", "double", "drawing_from_level",
               "edge_list_text", "family", "g1", "verify_drawing"),
    "numbers": ("QSqrt3",),
}


# The command line: each verb's option strings, and a positional argument
# by its name, in the order `cli._VERBS` declares them.
_CLI_SURFACE = {
    "construct": ("-h", "--help", "-k", "-o", "--output", "--max-k"),
    "verify": ("-h", "--help", "input", "--json"),
    "ci": ("-h", "--help", "input", "--algo", "--json"),
    "graph": ("-h", "--help", "-k", "-o", "--output", "--max-k", "--placements"),
    "render": ("-h", "--help", "input", "-o", "--output"),
}


def test_cli_surface():
    # An option added, renamed or removed anywhere fails here.  Every verb
    # takes -h/--help besides the arguments in its table entry.
    surface = {verb: ("-h", "--help", *(s for names, dest, *_ in arguments
                                        for s in names or (dest,)))
               for verb, (_, _, arguments) in cli._VERBS.items()}
    assert surface == _CLI_SURFACE


def test_help_lists_the_surface(capsys):
    # `--help` lists every verb, and each verb's -h and --help every one of
    # its option strings and its positional, on stdout with exit 0.
    def words(argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return set(re.findall(r"[-\w]+", captured.out))

    assert set(_CLI_SURFACE) <= words(["--help"]) == words(["-h"])
    for verb, names in _CLI_SURFACE.items():
        assert set(names) <= words([verb, "--help"]) == words([verb, "-h"])


# The public signatures: `str(inspect.signature(...))` of each name in
# `__all__`, None for an exception class that keeps the built-in
# `__init__`, and of each name that `sechain.document` serves.
_SIGNATURES = {
    'BipartiteDrawing': "(graph: 'BipartiteGraph', placement: 'Mapping[str, Point]') -> 'None'",
    'BipartiteGraph':
        "(u: 'tuple[str, ...]', v: 'tuple[str, ...]', edges: 'tuple[Edge, ...]') -> 'None'",
    'CiResult': "(size: 'int', witness_rows: 'Scaled') -> 'None'",
    'DocumentError': "(message: 'str', context: 'str' = '') -> 'None'",
    'EpsilonSearchError': None,
    'Level':
        "(k: 'int', chains: 'Scaled', n: 'int', witness: 'tuple[IndexPair, ...]', "
        "eps_pairs: 'tuple[tuple[int, int], ...]') -> 'None'",
    'Point': "(x: 'QSqrt3', y: 'QSqrt3') -> 'None'",
    'QSqrt3': "(p: 'RationalLike' = 0, q: 'RationalLike' = 0) -> 'None'",
    'base_case': "() -> 'Level'",
    'build': "(k: 'int') -> 'Level'",
    'chain_defect': "(points: 'Sequence[Point] | Scaled') -> 'str'",
    'ci_bruteforce': "(points: 'Iterable[Point] | Scaled') -> 'CiResult'",
    'ci_dp': "(points: 'Iterable[Point] | Scaled') -> 'CiResult'",
    'convex_hull': "(points: 'Iterable[Point]') -> 'list[Point]'",
    'cross': "(o: 'Point', a: 'Point', b: 'Point') -> 'QSqrt3'",
    'double': "(graph: 'BipartiteGraph') -> 'BipartiteGraph'",
    'drawing_from_level': "(level: 'Level') -> 'BipartiteDrawing'",
    'edge_list_text': "(graph: 'BipartiteGraph') -> 'str'",
    'expected_witness_size': "(k: 'int') -> 'int'",
    'family': "(k: 'int') -> 'BipartiteGraph'",
    'find_epsilon': "(level: 'Level') -> 'Level'",
    'g1': "() -> 'BipartiteGraph'",
    'is_convexly_independent': "(points: 'Iterable[Point] | Scaled') -> 'bool'",
    'is_south_east_chain': "(points: 'Sequence[Point] | Scaled') -> 'bool'",
    'midpoint_set': "(ps: 'Iterable[Point]', qs: 'Iterable[Point]') -> 'frozenset[Point]'",
    'pt': "(x: 'QSqrt3Like', y: 'QSqrt3Like') -> 'Point'",
    'step': "(level: 'Level', eps: 'tuple[int, int]') -> 'Optional[Level]'",
    'transform_chains':
        "(chain: 'Sequence[Point]', eps: 'Fraction') -> 'tuple[list[Point], list[Point]]'",
    'verify_drawing': "(drawing: 'BipartiteDrawing') -> 'bool'",
    'document.construction_to_document': "(level: 'Level') -> 'dict[str, Any]'",
    'document.dumps': "(document: 'Any') -> 'str'",
    'document.encode_points': "(points: 'Scaled', keys: 'Any' = None) -> 'Items'",
    'document.graph_to_document':
        "(graph: 'BipartiteGraph', placements: 'Scaled', k: 'int') -> 'dict[str, Any]'",
    'document.load_path': "(path: 'str') -> 'ParsedDocument'",
    'document.loads': "(text: 'str') -> 'ParsedDocument'",
    'document.points_to_document': "(points: 'Scaled') -> 'dict[str, Any]'",
    'Scaled.cross_sign': "(self, p: 'int', q: 'int', r: 'int', s: 'int') -> 'int'",
    'Scaled.distinct': "(self) -> 'Scaled'",
    'Scaled.flattened': "(self, p: 'int', q: 'int') -> 'tuple[Scaled, Scaled]'",
    'Scaled.floats': "(self) -> 'list[tuple[float, float]]'",
    'Scaled.from_rows': "(rows: 'list[Row]', s: 'int') -> 'Scaled'",
    'Scaled.lifted': "(self) -> 'tuple[list[int], list[int]]'",
    'Scaled.midpoint_set': "(self, n: 'int', limit: 'int') -> 'Scaled'",
    'Scaled.midpoints': "(self, n: 'int', pairs: 'Iterable[tuple[int, int]]') -> 'Scaled'",
    'Scaled.points': "(self) -> 'list[Point]'",
    'Scaled.reduced': "(self) -> 'Scaled'",
    'Scaled.sorted': "(self, y_first: 'bool' = False) -> 'Scaled'",
    'Scaled.take': "(self, indices: 'Iterable[int]') -> 'Scaled'",
    'Scaled.turn': "(self, p: 'int', q: 'int', r: 'int') -> 'int'",
}


def test_public_signatures():
    # A parameter added, removed or given a default anywhere fails here,
    # and so does a public method of the kernel `Scaled` added or removed.
    import sechain.document as document
    from sechain.geometry import Scaled

    def signature(obj):
        try:
            return str(inspect.signature(obj))
        except ValueError:  # no signature: the built-in exception `__init__`
            return None

    got = {name: signature(getattr(sechain, name)) for name in sechain.__all__}
    got.update({f"document.{name}": signature(getattr(document, name))
                for name in document._READER | document._WRITER})
    got.update({f"Scaled.{name}": signature(getattr(Scaled, name)) for name in vars(Scaled)
                if not name.startswith("_") and callable(getattr(Scaled, name))})
    assert got == _SIGNATURES


def test_public_surface_and_readme_session():
    # A name left in __all__ after its definition is deleted fails here.
    missing = [name for name in sechain.__all__ if not hasattr(sechain, name)]
    assert missing == []
    assert len(set(sechain.__all__)) == len(sechain.__all__)
    assert sorted(sechain.__all__) == sorted(n for names in _SURFACE.values() for n in names)
    assert set(sechain.__all__) <= set(dir(sechain))
    for module, names in _SURFACE.items():
        owner = importlib.import_module(f"sechain.{module}")
        for name in names:
            assert getattr(sechain, name) is getattr(owner, name), name
    star: dict = {}
    exec("from sechain import *", star)
    assert {name: star[name] for name in sechain.__all__} == {
        name: getattr(sechain, name) for name in sechain.__all__
    }
    with pytest.raises(AttributeError):
        sechain.no_such_name  # noqa: B018
    # In a fresh interpreter, the submodules resolve as package attributes.
    modules = ", ".join(repr(m) for m in _SURFACE)
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sechain; print([getattr(sechain, m).__name__ for m in ({modules})])"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout == f"{[f'sechain.{m}' for m in _SURFACE]}\n", proc.stderr

    # The README "quick session" runs, and prints what its comments say.
    text = _README.read_text(encoding="utf-8")
    session = re.search(r"A quick session:\n\n```python\n(.*?)```", text, re.S)
    assert session is not None
    code = session.group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(_README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, comment in zip(printed, expected):
        if comment.startswith(">= "):
            assert int(got) >= int(comment[3:])
        else:
            assert got == comment
    level = namespace["level"]
    assert len(level.a) == len(level.b) == 8 and len(level.witness) == 20


def _records():
    """(class, fields, invalid fields or None) for each value record."""
    graph = g1()
    place = {name: pt(t, t * t) for t, name in enumerate(graph.u + graph.v)}
    level = base_case()
    return [
        (Point, {"x": QSqrt3(1), "y": QSqrt3(Fraction(1, 2), 3)}, None),
        (Level, {"k": level.k, "chains": level.chains, "n": level.n, "witness": level.witness,
                 "eps_pairs": level.eps_pairs}, None),
        (BipartiteGraph, {"u": graph.u, "v": graph.v, "edges": graph.edges},
         {"u": ("a", "a"), "v": ("b",), "edges": ()}),
        (BipartiteDrawing, {"graph": graph, "placement": place},
         {"graph": graph, "placement": {"u1": pt(0, 0)}}),
        (CiResult, {"size": 2, "witness_rows": Scaled([pt(0, 0), pt(1, 1)])}, None),
    ]


_RECORDS = _records()


@pytest.mark.parametrize("cls, fields, invalid", _RECORDS,
                         ids=[case[0].__name__ for case in _RECORDS])
def test_record_behaviour(cls, fields, invalid):
    values = tuple(fields.values())
    record = cls(*values)
    assert record == cls(**fields) and hash(record) == hash(cls(**fields))
    assert record != values and record != object()
    assert repr(record) == f"{cls.__qualname__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.__dict__  # noqa: B018
    assert getattr(record, name) is values[0]

    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record and hash(clone) == hash(record)

    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**fields, extra=1)
    if invalid is not None:
        with pytest.raises(ValueError):
            cls(**invalid)


def test_records_of_different_classes_never_equal():
    a, b = pt(0, 0), pt(1, 1)
    rows = Scaled([a, b])
    assert Point(2, rows) != CiResult(2, rows)  # the same field values
    assert CiResult(2, rows) != BipartiteGraph(("u",), ("v",), (("u", "v"),))
    with pytest.raises(TypeError):
        iter(Point(a.x, a.y))


def test_drawing_hash_ignores_the_placement():
    graph = g1()
    names = graph.u + graph.v
    first = BipartiteDrawing(graph, {name: pt(t, t) for t, name in enumerate(names)})
    second = BipartiteDrawing(graph, {name: pt(t, 2 * t) for t, name in enumerate(names)})
    assert first != second and hash(first) == hash(second) == hash((graph,))
