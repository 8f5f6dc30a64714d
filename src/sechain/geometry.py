"""Exact planar geometry over Q(sqrt(3)).

The central predicate is `is_south_east_chain`: a point sequence whose x
and y coordinates both strictly increase and whose consecutive slopes
strictly increase.  Such a sequence is in convex position (every point
is a corner of the hull), which is what the whole construction pipeline
relies on.  All predicates here decide by exact sign computations; there
is no epsilon anywhere.

`Scaled` is the one orientation kernel: it rescales a point sequence to
integers over a shared denominator, and `chain_defect`, `convex_hull`
and `convex_subsets.ci_dp` take every coordinate and turn sign from it.
Slope monotonicity is tested with cross products rather than divisions:
for segments with positive dx, slope(a,b) < slope(b,c) holds exactly
when the turn a -> b -> c is counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Iterable, Iterator, Sequence

from .numbers import HALF, QSqrt3, QSqrt3Like, sign2


def _coord(value: QSqrt3Like) -> QSqrt3:
    return value if isinstance(value, QSqrt3) else QSqrt3(value)


@dataclass(frozen=True, slots=True)
class Point:
    """An exact point of the plane."""

    x: QSqrt3
    y: QSqrt3

    def __add__(self, other: Point) -> Point:
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


def pt(x: QSqrt3Like, y: QSqrt3Like) -> Point:
    """Point constructor that coerces ints and Fractions."""
    return Point(_coord(x), _coord(y))


def midpoint(a: Point, b: Point) -> Point:
    return Point((a.x + b.x) * HALF, (a.y + b.y) * HALF)


def sort_key(p: Point) -> tuple[QSqrt3, QSqrt3]:
    """Lexicographic (x, y) key; QSqrt3 ordering is exact."""
    return (p.x, p.y)


def cross(o: Point, a: Point, b: Point) -> QSqrt3:
    """2x2 determinant of (a - o, b - o); positive means a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def slope(a: Point, b: Point) -> QSqrt3:
    """Exact slope of the segment from a to b; requires a.x < b.x."""
    dx = b.x - a.x
    if dx.sign() <= 0:
        raise ValueError("slope requires strictly increasing x")
    return (b.y - a.y) / dx


class Scaled:
    """The orientation kernel: points as integers over one shared scale.

    Point i has x = (xa[i] + xb[i]*sqrt(3)) / s and y = (ya[i] +
    yb[i]*sqrt(3)) / s, where s is the lcm of every denominator.  A
    positive common scale changes no sign, so each sign below is one
    `sign2` on integers.  Methods take indices into the given sequence.
    """

    __slots__ = ("xa", "xb", "ya", "yb")

    def __init__(self, points: Sequence[Point]) -> None:
        parts = [(p.x.p, p.x.q, p.y.p, p.y.q) for p in points]
        s = lcm(*{c.denominator for row in parts for c in row})
        self.xa, self.xb, self.ya, self.yb = (
            [row[c].numerator * (s // row[c].denominator) for row in parts]
            for c in range(4)
        )

    def dx_sign(self, i: int, j: int) -> int:
        """Sign of x[j] - x[i]."""
        return sign2(self.xa[j] - self.xa[i], self.xb[j] - self.xb[i])

    def dy_sign(self, i: int, j: int) -> int:
        """Sign of y[j] - y[i]."""
        return sign2(self.ya[j] - self.ya[i], self.yb[j] - self.yb[i])

    def cross_sign(self, p: int, q: int, r: int, s: int) -> int:
        """Sign of (q - p) x (s - r); positive means a left turn."""
        xa, xb, ya, yb = self.xa, self.xb, self.ya, self.yb
        uxa, uxb, uya, uyb = xa[q] - xa[p], xb[q] - xb[p], ya[q] - ya[p], yb[q] - yb[p]
        vxa, vxb, vya, vyb = xa[s] - xa[r], xb[s] - xb[r], ya[s] - ya[r], yb[s] - yb[r]
        return sign2(
            uxa * vya + 3 * uxb * vyb - uya * vxa - 3 * uyb * vxb,
            uxa * vyb + uxb * vya - uya * vxb - uyb * vxa,
        )


def chain_defect(points: Sequence[Point]) -> str:
    """Where `points` first fails to be a south-east chain; "" for a chain.

    A chain has both coordinates strictly increasing and consecutive
    slopes strictly increasing.  Coordinates are checked along the whole
    sequence before any turn.  Fewer than 2 points is a defect: the
    predicate is about segments.
    """
    if len(points) < 2:
        return "fewer than 2 points"
    k = Scaled(points)
    for t in range(len(points) - 1):
        if k.dx_sign(t, t + 1) <= 0:
            return f"x does not strictly increase at indices {t},{t + 1}"
        if k.dy_sign(t, t + 1) <= 0:
            return f"y does not strictly increase at indices {t},{t + 1}"
    for t in range(len(points) - 2):
        if k.cross_sign(t, t + 1, t + 1, t + 2) <= 0:
            return f"turn at indices {t},{t + 1},{t + 2} is not strictly left"
    return ""


def is_south_east_chain(points: Sequence[Point]) -> bool:
    """Decide the chain predicate exactly; fewer than 2 points raise."""
    if len(points) < 2:
        raise ValueError("a chain needs at least 2 points")
    return not chain_defect(points)


@dataclass(frozen=True, slots=True)
class Chain:
    """A validated south-east chain; construction fails otherwise."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not is_south_east_chain(self.points):
            raise ValueError("points do not form a south-east chain")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __getitem__(self, index: int) -> Point:
        return self.points[index]


# -- linear transforms ----------------------------------------------------

# Rotation by 60 degrees counterclockwise: (x, y) maps to
# ((x - sqrt(3) y) / 2, (sqrt(3) x + y) / 2).
_ROT_XX = QSqrt3(Fraction(1, 2))
_ROT_XY = QSqrt3(0, Fraction(-1, 2))
_ROT_YX = QSqrt3(0, Fraction(1, 2))
_ROT_YY = QSqrt3(Fraction(1, 2))


def rotate60(p: Point) -> Point:
    """Rotate a point by 60 degrees counterclockwise about the origin."""
    return Point(
        _ROT_XX * p.x + _ROT_XY * p.y,
        _ROT_YX * p.x + _ROT_YY * p.y,
    )


def flatten(p: Point, eps: Fraction) -> Point:
    """Apply the flattening map (x, y) -> (eps*x, eps**2*y), eps > 0.

    Flattening scales every slope by exactly eps, so it shrinks all
    slopes of a chain toward zero while preserving their strict order.
    """
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("flattening factor must be positive")
    return Point(p.x * eps, p.y * (eps * eps))


def transform_chains(
    chain: Sequence[Point], eps: Fraction
) -> tuple[list[Point], list[Point]]:
    """Flattened and rotated-flattened copies of a sequence.

    Returns raw point lists (flat, rotated) where rotated[i] is
    flat[i] turned by 60 degrees.  No validation happens here; callers
    decide which of the copies must satisfy the chain predicate.
    """
    flat = [flatten(p, eps) for p in chain]
    return flat, [rotate60(p) for p in flat]


# -- point sets ------------------------------------------------------------


def midpoint_set(ps: Iterable[Point], qs: Iterable[Point]) -> frozenset[Point]:
    """All pairwise midpoints, i.e. the Minkowski sum scaled by one half."""
    qs = tuple(qs)
    return frozenset(midpoint(p, q) for p in ps for q in qs)


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, via the monotone chain scan.

    Only corner points are kept: a point lying in the interior of a hull
    edge is not reported.  Input order and multiplicity are irrelevant.
    """
    pts = list(set(points))
    if len(pts) < 2:
        return pts
    k = Scaled(pts)
    xy = cmp_to_key(lambda i, j: -(k.dx_sign(i, j) or k.dy_sign(i, j)))
    order = sorted(range(len(pts)), key=xy)

    def half_hull(indices: Iterable[int]) -> list[int]:
        h: list[int] = []
        for i in indices:
            while len(h) >= 2 and k.cross_sign(h[-2], h[-1], h[-2], i) <= 0:
                h.pop()
            h.append(i)
        return h[:-1]

    return [pts[i] for i in half_hull(order) + half_hull(reversed(order))]


def is_convexly_independent(points: Iterable[Point]) -> bool:
    """True iff the points are pairwise distinct and every one of them is
    a corner of their convex hull.

    Zero, one, or two distinct points count as convexly independent; a
    repeated point never does.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        return False
    return len(convex_hull(pts)) == len(pts)
