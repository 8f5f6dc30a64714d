"""SVG rendering of a construction document.

Output is display-only: exact coordinates are rounded to a fixed number
of decimals at the last moment, and the y axis is flipped so larger y
is drawn higher.  Styling is carried by CSS classes (chain-a, chain-b,
mid, witness), which also makes the marks countable in tests.  The
same document always renders to the same bytes.
"""

from __future__ import annotations

import math

from . import InputError
from .level import Level

_WIDTH = 800.0
_MARGIN = 40.0
_NUMBER = "%.6f"  # every written number: fixed, six decimals
# |a|*|b| at level 9, which renders in about 2.7 s at 160 MB peak RSS
# (2 cores, Python 3.11) and runs to exit 0 under a 192 MiB RLIMIT_AS;
# level 10, four times the midpoints, takes about 10 s and 550 MB for a
# 70 MB SVG.
_MIDPOINT_CAP = 2**18

_STYLE = """
    circle.chain-a { fill: #1f6fb4; }
    circle.chain-b { fill: #c23b22; }
    circle.mid { fill: #b0b0b0; }
    circle.witness { fill: #2e8540; }
    polyline { fill: none; }
    polyline.chain-a { stroke: #1f6fb4; stroke-width: 1; }
    polyline.chain-b { stroke: #c23b22; stroke-width: 1; }
    polyline.witness { stroke: #2e8540; stroke-width: 1.5; }
"""


def render_construction(level: Level) -> str:
    """Render both chains, the full midpoint set, and the witness chain."""
    k, n = level.chains, level.n
    if not len(k):
        raise InputError("both chains are empty")
    if n * (len(k) - n) > _MIDPOINT_CAP:
        raise InputError(f"{n} x {len(k) - n} > {_MIDPOINT_CAP} midpoints")
    # Exact integer rows: one scale for both chains, twice it for every
    # midpoint, so equal midpoints have equal rows.  Floats are display only.
    mids = sorted(k.midpoint_set(n, _MIDPOINT_CAP).floats())
    chain_xy = k.floats()
    a_xy, b_xy = chain_xy[:n], chain_xy[n:]
    witness_xy = k.midpoints(n, level.witness).floats()
    everything = chain_xy + mids

    xs = [x for x, _ in everything]
    ys = [y for _, y in everything]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    extent_x, extent_y = max_x - min_x, max_y - min_y
    if not (math.isfinite(extent_x) and math.isfinite(extent_y)):
        raise OverflowError("the drawing's extent is beyond a float")
    span = max(extent_x, extent_y, 1e-9)
    scale = (_WIDTH - 2 * _MARGIN) / span
    height = extent_y * scale + 2 * _MARGIN

    def placed(points, template: str) -> list[str]:
        # Each point, y flipped because SVG grows downward, in one format.
        return [template % ((x - min_x) * scale + _MARGIN, (max_y - y) * scale + _MARGIN)
                for x, y in points]

    # Every interpolated value is a constant class name or a `_NUMBER`
    # number, so the text needs no XML escaping.
    def polyline(points, cls: str) -> str:
        coords = " ".join(placed(points, f"{_NUMBER},{_NUMBER}"))
        return f'<polyline class="{cls}" points="{coords}" />'

    def dots(points, cls: str, radius: float) -> list[str]:
        return placed(points, f'<circle class="{cls}" cx="{_NUMBER}" cy="{_NUMBER}"'
                              f' r="{_NUMBER % radius}" />')

    marks = dots(mids, "mid", 2.0)
    marks.append(polyline(a_xy, "chain-a"))
    marks.append(polyline(b_xy, "chain-b"))
    if len(witness_xy) >= 2:
        marks.append(polyline(witness_xy, "witness"))
    marks += dots(a_xy, "chain-a", 4.0)
    marks += dots(b_xy, "chain-b", 4.0)
    marks += dots(witness_xy, "witness", 3.0)

    w, h = _NUMBER % _WIDTH, _NUMBER % height
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}"><style>{_STYLE}</style>'
        '<rect width="100%" height="100%" fill="#ffffff" />'
        + "".join(marks)
        + "</svg>\n"
    )
