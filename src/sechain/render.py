"""SVG rendering of a construction document.

Output is display-only: exact coordinates are rounded to a fixed number
of decimals at the last moment, and the y axis is flipped so larger y
is drawn higher.  Styling is carried by CSS classes (chain-a, chain-b,
mid, witness), which also makes the marks countable in tests.  The
same document always renders to the same bytes.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .construction import Level
from .geometry import midpoint_set

_WIDTH = 800.0
_MARGIN = 40.0
_PRECISION = 6

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


def _fmt(value: float) -> str:
    return f"{value:.{_PRECISION}f}"


def render_construction(level: Level) -> str:
    """Render both chains, the full midpoint set, and the witness chain."""
    if not (level.a or level.b):
        raise ValueError("both chains are empty")
    mids = sorted(
        midpoint_set(level.a, level.b), key=lambda p: (float(p.x), float(p.y))
    )
    witness_pts = level.witness_midpoints()
    everything = list(level.a) + list(level.b) + list(mids)

    xs = [float(p.x) for p in everything]
    ys = [float(p.y) for p in everything]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-9)
    scale = (_WIDTH - 2 * _MARGIN) / span
    height = (max_y - min_y) * scale + 2 * _MARGIN

    def place(p) -> tuple[float, float]:
        # Flip y: SVG grows downward.
        return (
            (float(p.x) - min_x) * scale + _MARGIN,
            (max_y - float(p.y)) * scale + _MARGIN,
        )

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": _fmt(_WIDTH),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(_WIDTH)} {_fmt(height)}",
        },
    )
    ET.SubElement(svg, "style").text = _STYLE
    ET.SubElement(
        svg,
        "rect",
        {"width": "100%", "height": "100%", "fill": "#ffffff"},
    )

    def polyline(points, cls: str) -> None:
        coords = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (place(p) for p in points)
        )
        ET.SubElement(svg, "polyline", {"class": cls, "points": coords})

    def dots(points, cls: str, radius: float) -> None:
        for p in points:
            x, y = place(p)
            ET.SubElement(
                svg,
                "circle",
                {"class": cls, "cx": _fmt(x), "cy": _fmt(y), "r": _fmt(radius)},
            )

    dots(mids, "mid", 2.0)
    polyline(level.a, "chain-a")
    polyline(level.b, "chain-b")
    if len(witness_pts) >= 2:
        polyline(witness_pts, "witness")
    dots(level.a, "chain-a", 4.0)
    dots(level.b, "chain-b", 4.0)
    dots(witness_pts, "witness", 3.0)

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        + ET.tostring(svg, encoding="unicode")
        + "\n"
    )
