"""Exact JSON documents for constructions, point sets, and graphs: the writer.

One builder per document kind lays it out, its points and pairs as
`Items`: a node that keeps the fields of each item and the function
making the item's JSON value from them.  `dumps` writes the canonical
text (sorted keys, two-space indent) itself, each item as one fill of a
`%` template made from its layout.  So one point template, filled from
`geometry.Scaled` rows with one gcd per component, writes every point of
every document and of `ci --json`'s witness.  The format tag comes from
`document`, which serves these names, so an op that only writes
compiles no decoder.
"""

from __future__ import annotations

import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import TYPE_CHECKING, Any, Callable, Iterable

from . import InputError
from .document import FORMAT_VERSION

if TYPE_CHECKING:
    from .geometry import Scaled
    from .graphs import BipartiteGraph
    from .level import Level


class _Slot(str):
    """A sample item's field, "%s": `dumps` writes it bare, its `str` in quotes."""


def _point(parts: tuple) -> dict[str, Any]:
    """A point's layout from its eight components in sorted-key order: den
    and num of x.p, x.q, y.p and y.q, each written as a string."""
    xpd, xpn, xqd, xqn, ypd, ypn, yqd, yqn = map(str, parts)
    return {"x": {"p": {"den": xpd, "num": xpn}, "q": {"den": xqd, "num": xqn}},
            "y": {"p": {"den": ypd, "num": ypn}, "q": {"den": yqd, "num": yqn}}}


class Items:
    """Items of one layout, which `dumps` writes by template, one `%` fill
    per item: each is the JSON value `make(fields)`, in a list, or in a
    dict under `keys` if given.  `items` is read once, by the one `dumps`
    that may write the node."""

    __slots__ = ("make", "items", "keys")

    def __init__(self, make: Callable[[tuple], Any], items: Iterable[tuple], keys: Any = None):
        self.make, self.items, self.keys = make, items, keys


def encode_points(points: Scaled, keys: Any = None) -> Items:
    """The points as `Items`, each a `_point` whose fractions are reduced
    by one gcd with the scale each."""
    s = points.s
    return Items(_point, ((s // (g := gcd(xa, s)), xa // g, s // (h := gcd(xb, s)), xb // h,
                           s // (i := gcd(ya, s)), ya // i, s // (j := gcd(yb, s)), yb // j)
                          for xa, xb, ya, yb in points.rows), keys)


def dumps(document: Any) -> str:
    """Canonical text form: sorted keys, two-space indent, newline end.

    The bytes of `json.dumps(document, sort_keys=True, indent=2) + "\\n"`,
    whose indented encode CPython runs in pure Python, with each `Items`
    node written as the list or dict of its items' values.  Only
    str-keyed dicts, lists, strs, ints, bools and None are written;
    anything else, an `Items` node written before too, raises TypeError,
    and an int past the interpreter's int-to-str limit InputError.
    """
    chunks: list[str] = []
    put = chunks.append
    templates: dict[tuple, str] = {}

    def write(value: Any, indent: str) -> None:
        kind = type(value)
        if kind is str:
            put(encode_basestring_ascii(value))
        elif kind is dict or kind is list:
            if not value:
                put("{}" if kind is dict else "[]")
                return
            inner, sep = indent + "  ", "{" if kind is dict else "["
            for key in sorted(value) if kind is dict else range(len(value)):
                if kind is list:
                    put(sep + inner)
                elif type(key) is str:
                    put(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
                else:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                write(value[key], inner)
                sep = ","
            put(indent + ("}" if kind is dict else "]"))
        elif value is None or kind is bool:
            put("null" if value is None else "true" if value else "false")
        elif kind is int:
            put(str(value))
        elif kind is Items:
            if value.items is None:  # written already: its generator may be spent
                raise TypeError("an Items node is written once; lay the document out again")
            items, inner, keyed = iter(value.items), indent + "  ", value.keys is not None
            value.items = None
            first = next(items, None)
            if first is None:
                put("{}" if keyed else "[]")
                return
            template = templates.get((value.make, inner))
            if template is None:  # an item's text at this indent, `%s` per field
                mark = len(chunks)
                write(value.make((_Slot("%s"),) * len(first)), inner)
                template = templates[value.make, inner] = "".join(chunks[mark:])
                del chunks[mark:]
            items = chain((first,), items)
            if type(first[0]) is str:  # names, escaped as a str is written
                items = [tuple(map(encode_basestring_ascii, fields)) for fields in items]
            texts = [template % fields for fields in items]
            if keyed:
                texts = [f"{encode_basestring_ascii(key)}: {text}"
                         for key, text in sorted(zip(value.keys, texts))]
            put(("{" if keyed else "[") + inner)
            put(f",{inner}".join(texts))
            put(indent + ("}" if keyed else "]"))
        elif kind is _Slot:
            put("%s")
        else:
            raise TypeError(f"cannot write a {kind.__name__}")

    try:
        write(document, "\n")
    except ValueError as exc:  # str() of an int: the one ValueError writing raises
        raise InputError(f"an integer to write has more than {sys.get_int_max_str_digits()} "
                         "digits, this interpreter's int-to-str limit") from exc
    put("\n")
    return "".join(chunks)


def construction_to_document(level: Level) -> dict[str, Any]:
    """The level's document, its points and pairs as `Items`."""
    chains, n, witness = level.chains, level.n, level.witness
    a, b = (encode_points(chains.take(r)) for r in (range(n), range(n, len(chains))))
    return {
        "version": FORMAT_VERSION,
        "kind": "construction",
        "metadata": {
            "k": level.k,
            "eps_history": [{"num": str(p), "den": str(q)} for p, q in level.eps_pairs],
            "counts": {"a": n, "b": len(chains) - n, "witness": len(witness)},
        },
        "objects": {
            "a_chain": {"type": "chain", "points": a},
            "b_chain": {"type": "chain", "points": b},
            "witness_pairs": {"type": "index_pairs", "pairs": Items(list, witness)},
        },
    }


def points_to_document(points: Scaled) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "points",
        "objects": {"points": {"type": "point_set", "points": encode_points(points)}},
    }


def graph_to_document(graph: BipartiteGraph, placements: Scaled, k: int) -> dict[str, Any]:
    """The graph of level k with the placements of its vertices in
    `graph.u + graph.v` order, edges and placements as `Items`; placements
    that do not match the vertices in number raise ValueError."""
    names = graph.u + graph.v
    if len(placements) != len(names):
        raise ValueError(f"{len(placements)} placements for {len(names)} vertices")
    return {
        "version": FORMAT_VERSION,
        "kind": "graph",
        "metadata": {"k": k},
        "objects": {
            "graph": {
                "type": "bipartite_graph",
                "u": list(graph.u),
                "v": list(graph.v),
                "edges": Items(list, graph.edges),
            },
            "placements": {
                "type": "placement",
                "points": encode_points(placements, names),
            },
        },
    }
