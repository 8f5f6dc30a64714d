"""Shared oracles and generators for the test suite.

The sign oracles (`interval_sign`, and `exact_sign` on the `Fraction`
parts, with the exact order keys `xy_key` and `yx_key` on it), the
point-in-triangle oracle, the chain defect locator and the
drawing oracle are written directly against the definitions,
independently of the library internals, so the exact-arithmetic code has
something external to agree with.  So is the value reference for the construction's maps: exact
division, `slope`, `midpoint`, `rotate60` and `flatten`, on `QSqrt3`
arithmetic alone and never through `geometry.Scaled` or its sign, and
`reference_level`, a construction document read into `Fraction` and
`QSqrt3` points.  `plain` gives a written document as the JSON values
it stands for, and `build_parser` is the argparse reference for the
command line that `sechain.cli` reads from its own table.
"""

import argparse
import functools
import random
from fractions import Fraction

from hypothesis import strategies as st
from mpmath import iv

from sechain import cli
from sechain.construction import Level
from sechain.geometry import Point, Scaled, pt
from sechain.numbers import QSqrt3
from sechain.writer import Items

iv.prec = 128

HALF = Fraction(1, 2)
SQRT3 = QSqrt3(0, 1)


def div(a: QSqrt3, b: QSqrt3) -> QSqrt3:
    """Exact quotient a / b: 1 / (p + q*sqrt(3)) is (p - q*sqrt(3)) / (p**2 - 3*q**2),
    and that norm vanishes only for zero because sqrt(3) is irrational."""
    norm = b.p * b.p - 3 * b.q * b.q
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt(3))")
    return a * QSqrt3(b.p / norm, -b.q / norm)


def slope(a: Point, b: Point) -> QSqrt3:
    """Exact slope of the segment from a to b; requires a.x < b.x."""
    dx = b.x - a.x
    if exact_sign(dx) <= 0:
        raise ValueError("slope requires strictly increasing x")
    return div(b.y - a.y, dx)


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) * HALF, (a.y + b.y) * HALF)


def rotate60(p: Point) -> Point:
    """Rotate a point by 60 degrees counterclockwise about the origin:
    (x, y) maps to ((x - sqrt(3)*y) / 2, (sqrt(3)*x + y) / 2)."""
    return Point((p.x - SQRT3 * p.y) * HALF, (SQRT3 * p.x + p.y) * HALF)


def flatten(p: Point, eps: Fraction) -> Point:
    """The flattening map (x, y) -> (eps*x, eps**2*y), eps > 0; it scales
    every slope by exactly eps."""
    if eps <= 0:
        raise ValueError("flattening factor must be positive")
    return Point(p.x * eps, p.y * (eps * eps))


def plain(node):
    """A document with each writer `Items` node expanded into the JSON
    values it stands for: a list, or a dict in `keys` order."""
    if isinstance(node, Items):
        made = [node.make(fields) for fields in node.items]
        return made if node.keys is None else dict(zip(node.keys, made))
    if isinstance(node, dict):
        return {key: plain(value) for key, value in node.items()}
    if isinstance(node, list):
        return [plain(value) for value in node]
    return node


def points_level(k: int, a, b, witness, eps_history) -> Level:
    """The `Level` of chains a and b given as `Point`s and of factors given
    as `Fraction`s: a's rows, then b's, and each factor as its pair."""
    return Level(k, Scaled([*a, *b]), len(a), tuple(witness),
                 tuple((e.numerator, e.denominator) for e in eps_history))


def reference_level(document: dict) -> Level:
    """The `Level` of a construction document, built from `Fraction` and
    `QSqrt3` points; the reference for the decoder, which builds none."""

    def fraction(entry: dict) -> Fraction:
        return Fraction(int(entry["num"]), int(entry["den"]))

    def point(entry: dict) -> Point:
        return Point(*(QSqrt3(fraction(entry[c]["p"]), fraction(entry[c]["q"])) for c in "xy"))

    meta, objects = document["metadata"], document["objects"]
    a, b = ([point(p) for p in objects[f"{c}_chain"]["points"]] for c in "ab")
    witness = tuple(tuple(pair) for pair in objects["witness_pairs"]["pairs"])
    return points_level(meta["k"], a, b, witness, tuple(map(fraction, meta["eps_history"])))


def interval_sign(value: QSqrt3):
    """Sign of p + q*sqrt(3) by 128-bit interval arithmetic.

    Returns +1/-1 when the interval excludes zero, None when it is
    inconclusive (which for exact zero it always is).
    """
    p, q = value.p, value.q
    box = (
        iv.mpf(p.numerator) / p.denominator
        + iv.mpf(q.numerator) / q.denominator * iv.sqrt(3)
    )
    if box.a > 0:
        return 1
    if box.b < 0:
        return -1
    return None


def exact_sign(value: QSqrt3) -> int:
    """Sign of p + q*sqrt(3) from the definition, on the `Fraction` parts:
    the sign both parts share (a zero part shares the other's), else the
    sign of p if p**2 > 3*q**2 and of q if p**2 < 3*q**2; the two are
    never equal for nonzero p and q, because sqrt(3) is irrational."""
    p, q = value.p, value.q
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > 3 * q * q else sq


# Sort keys for exact (x, y) and (y, x) order, by `exact_sign` of the
# coordinate differences: 128-bit intervals cannot order every test set.
xy_key = functools.cmp_to_key(lambda a, b: exact_sign(a.x - b.x) or exact_sign(a.y - b.y))
yx_key = functools.cmp_to_key(lambda a, b: exact_sign(a.y - b.y) or exact_sign(a.x - b.x))


def _orient(a: Point, b: Point, c: Point) -> int:
    return exact_sign((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))


def in_closed_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Membership in the closed triangle abc, degenerate triangles allowed."""
    d1 = _orient(a, b, p)
    d2 = _orient(b, c, p)
    d3 = _orient(c, a, p)
    has_neg = -1 in (d1, d2, d3)
    has_pos = 1 in (d1, d2, d3)
    return not (has_neg and has_pos)


def convex_position_oracle(points) -> bool:
    """Quartic-time check: no point inside the triangle of three others."""
    pts = list(points)
    n = len(pts)
    if n <= 2:
        return len(set(pts)) == n
    if len(set(pts)) != n:
        return False
    if n == 3:
        return _orient(*pts) != 0
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                for l in range(k + 1, n):
                    if i in (j, k, l):
                        continue
                    if in_closed_triangle(pts[i], pts[j], pts[k], pts[l]):
                        return False
    return True


def south_east_chain_oracle(points) -> bool:
    """Chain definition checked on the points sorted by `xy_key`.

    Both coordinates must strictly increase between neighbours and every
    turn of three neighbours must be strictly left.  Fewer than two
    points pass trivially, as in `verify_drawing`.
    """
    pts = sorted(points, key=xy_key)
    for a, b in zip(pts, pts[1:]):
        if exact_sign(b.x - a.x) <= 0 or exact_sign(b.y - a.y) <= 0:
            return False
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        turn = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        if exact_sign(turn) <= 0:
            return False
    return True


def chain_defect_locator(points) -> str:
    """Where `points` first fails the chain definition, "" for a chain, in
    `geometry.chain_defect`'s words and order: fewer than 2 points, then
    x and y of each neighbour pair along the whole sequence, then each turn
    of three neighbours.  Written on `Point` differences and signed by
    `exact_sign`, never through `geometry.Scaled` or `sign2`."""
    pts = list(points)
    if len(pts) < 2:
        return "fewer than 2 points"
    for t, (a, b) in enumerate(zip(pts, pts[1:])):
        if exact_sign(b.x - a.x) <= 0:
            return f"x does not strictly increase at indices {t},{t + 1}"
        if exact_sign(b.y - a.y) <= 0:
            return f"y does not strictly increase at indices {t},{t + 1}"
    for t, (a, b, c) in enumerate(zip(pts, pts[1:], pts[2:])):
        if exact_sign((b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)) <= 0:
            return f"turn at indices {t},{t + 1},{t + 2} is not strictly left"
    return ""


def drawing_midpoints(drawing) -> list[Point]:
    """The `midpoint` of each edge's placements, in edge order."""
    place = drawing.placement
    return [midpoint(place[a], place[b]) for a, b in drawing.graph.edges]


def drawing_oracle(drawing) -> bool:
    """Independent verdict on a `BipartiteDrawing`.

    Both parts' placements and the edge midpoints must each satisfy
    `south_east_chain_oracle`.  Midpoints are computed here
    (`drawing_midpoints`), not taken from the drawing.
    """
    place = drawing.placement
    midpoints = drawing_midpoints(drawing)
    return all(
        south_east_chain_oracle(points)
        for points in (
            [place[x] for x in drawing.graph.u],
            [place[x] for x in drawing.graph.v],
            midpoints,
        )
    )


def rand_fraction(rng: random.Random, span: int = 30, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_value(rng: random.Random, irrational: bool) -> QSqrt3:
    q = rand_fraction(rng, span=6, den=6) if irrational and rng.random() < 0.5 else 0
    return QSqrt3(rand_fraction(rng), q)


def rand_point(rng: random.Random, irrational: bool = False) -> Point:
    return Point(rand_value(rng, irrational), rand_value(rng, irrational))


def rand_chain(
    rng: random.Random,
    length: int,
    irrational: bool = False,
    max_slope: Fraction | None = None,
) -> tuple[Point, ...]:
    """Random chain built from increasing x and strictly increasing slopes."""
    slopes: list[QSqrt3] = []
    s = QSqrt3(Fraction(rng.randint(1, 4), rng.randint(5, 40)))
    while len(slopes) < length - 1:
        slopes.append(s)
        bump = Fraction(rng.randint(1, 5), rng.randint(1, 9))
        if irrational and rng.random() < 0.3:
            s = s + QSqrt3(0, bump / 4)
        else:
            s = s + QSqrt3(bump)
    if max_slope is not None and slopes and exact_sign(slopes[-1] - max_slope) >= 0:
        scale = div(QSqrt3(max_slope), slopes[-1] * 2)
        slopes = [t * scale for t in slopes]
    cur = rand_point(rng, irrational)
    points = [cur]
    for s in slopes:
        dx = QSqrt3(Fraction(rng.randint(1, 8), rng.randint(1, 4)))
        cur = Point(cur.x + dx, cur.y + s * dx)
        points.append(cur)
    return tuple(points)


def rand_dyadic(rng: random.Random, lo: int = 1, hi: int = 10) -> Fraction:
    return Fraction(1, 2 ** rng.randint(lo, hi))


fractions_st = st.fractions(min_value=-40, max_value=40, max_denominator=16)
qsqrt3_st = st.builds(
    QSqrt3,
    fractions_st,
    st.fractions(min_value=-8, max_value=8, max_denominator=8),
)
nonzero_qsqrt3_st = qsqrt3_st.filter(bool)
points_st = st.builds(Point, qsqrt3_st, qsqrt3_st)
dyadic_st = st.integers(min_value=1, max_value=12).map(lambda m: Fraction(1, 2**m))


@st.composite
def chains_st(draw, min_len: int = 2, max_len: int = 7):
    length = draw(st.integers(min_value=min_len, max_value=max_len))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    irrational = draw(st.booleans())
    return rand_chain(random.Random(seed), length, irrational=irrational)


def assert_points_equal(got, expected) -> None:
    got = list(got)
    expected = [p if isinstance(p, Point) else pt(*p) for p in expected]
    assert got == expected, f"{got} != {expected}"


def build_parser() -> argparse.ArgumentParser:
    """The command line as argparse declared it before `sechain.cli` read
    it from its own table; each parse gives `func`, the handler, beside
    the values."""
    parser = argparse.ArgumentParser(
        prog="sechain",
        description="Exact south-east chain constructions and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -k, -o and the level cap, shared by construct and graph.
    level_options = argparse.ArgumentParser(add_help=False)
    level_options.add_argument("-k", type=int, required=True, help="level index")
    level_options.add_argument("-o", "--output", default=None, help="output path")
    level_options.add_argument("--max-k", type=int, default=12)

    p_construct = sub.add_parser(
        "construct", parents=[level_options],
        help="build a level and write it as a document",
    )
    p_construct.set_defaults(func=cli._cmd_construct)

    p_verify = sub.add_parser("verify", help="re-check a document's invariants")
    p_verify.add_argument("input")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cli._cmd_verify)

    p_ci = sub.add_parser("ci", help="largest convexly independent subset of a document")
    p_ci.add_argument("input")
    p_ci.add_argument("--algo", choices=("dp", "brute"), default="dp")
    p_ci.add_argument("--json", action="store_true")
    p_ci.set_defaults(func=cli._cmd_ci)

    p_graph = sub.add_parser(
        "graph", parents=[level_options], help="emit a family graph"
    )
    p_graph.add_argument(
        "--placements",
        action="store_true",
        help="JSON document with exact vertex placements (builds level k)",
    )
    p_graph.set_defaults(func=cli._cmd_graph)

    p_render = sub.add_parser("render", help="render a construction as SVG")
    p_render.add_argument("input")
    p_render.add_argument("-o", "--output", required=True, help="output path")
    p_render.set_defaults(func=cli._cmd_render)

    return parser
