"""Exact JSON documents for constructions, point sets, and graphs.

Every coordinate travels as four decimal strings (numerator and
denominator of the rational part and of the sqrt(3) coefficient), so
files are loss-free and reruns are byte-identical.  All documents carry
the format tag "sechain/1".  `reader` reads them and `writer` writes
them; this module holds only what those two and `graphs` share: the
tag, `DocumentError` and `structure_defect`.  The public names of the
reader and the writer resolve here too, each module imported on first
access and each name kept here, so an op that only writes never compiles
the reader and one that only reads never compiles the writer.
"""

from __future__ import annotations

from typing import Any

from . import InputError

FORMAT_VERSION = "sechain/1"

_READER = frozenset(("load_path", "loads"))
_WRITER = frozenset(("construction_to_document", "dumps", "encode_points",
                     "graph_to_document", "points_to_document"))


def __getattr__(name: str) -> Any:  # a `reader` or `writer` name, imported once and kept here
    if name in _READER:
        from . import reader as module
    elif name in _WRITER:
        from . import writer as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(module, name))


class DocumentError(InputError):
    """Malformed document; `context` points at the offending field."""

    def __init__(self, message: str, context: str = "") -> None:
        self.context = context
        super().__init__(f"{context}: {message}" if context else message)


def structure_defect(u: tuple[str, ...], v: tuple[str, ...],
                     edges: tuple[tuple[str, str], ...]) -> str:
    """The first structure defect of a bipartite graph, "" if none: the
    three checks need only sets of names, so a document's graph is
    refused before `graphs` loads, and `BipartiteGraph` runs them too."""
    u_set, v_set = set(u), set(v)
    if len(u_set) != len(u) or len(v_set) != len(v):
        return "duplicate vertex name inside a part"
    if u_set & v_set:
        return "parts must be disjoint"
    if len(set(edges)) != len(edges):
        return "duplicate edge"
    for a, b in edges:
        if a not in u_set or b not in v_set:
            return f"edge ({a}, {b}) does not match the parts"
    return ""
