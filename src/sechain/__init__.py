"""Exact south-east chains, midpoint-set witnesses, and their graphs.

Every public name is listed once in `_EXPORTS`, with the submodule that
defines it, and `__all__` is that table's keys.  A name is imported on
first access (PEP 562 `__getattr__`), so `import sechain` loads no
submodule and a CLI op loads only the modules it runs.  The submodules
themselves (`sechain.geometry`, ...) resolve the same way.

`InputError` is defined here, not exported lazily: every refusal of
unusable input raises it, and the CLI reports it as exit 2 without
importing the module that raised it.
"""

from importlib import import_module

__version__ = "0.1.0"


class InputError(ValueError):
    """Unusable input: a malformed document, a size past a cap, a failed
    epsilon search, a number past the interpreter's digit limit."""


_EXPORTS = {
    name: module
    for module, names in (
        ("construction", ("EpsilonSearchError", "base_case", "build", "find_epsilon", "step")),
        ("convex_subsets", ("CiResult", "ci_bruteforce", "ci_dp")),
        ("document", ("DocumentError",)),
        ("geometry", ("Point", "chain_defect", "convex_hull", "cross",
                      "is_convexly_independent", "is_south_east_chain", "midpoint_set",
                      "pt", "transform_chains")),
        ("graphs", ("BipartiteDrawing", "BipartiteGraph", "double", "drawing_from_level",
                    "edge_list_text", "family", "g1", "verify_drawing")),
        ("level", ("Level", "expected_witness_size")),
        ("numbers", ("QSqrt3",)),
    )
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
