"""Exact planar geometry over Q(sqrt(3)).

The central predicate is `is_south_east_chain`: a point sequence whose x
and y coordinates both strictly increase and whose consecutive slopes
strictly increase.  Such a sequence is in convex position (every point
is a corner of the hull), which is what the whole construction pipeline
relies on.  All predicates here decide by exact sign computations; there
is no epsilon anywhere.

Slope monotonicity is tested with cross products rather than divisions:
for segments with positive dx, slope(a,b) < slope(b,c) holds exactly
when the turn a -> b -> c is counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .numbers import HALF, QSqrt3, QSqrt3Like


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


def chain_defect(points: Sequence[Point]) -> str:
    """Where `points` first fails to be a south-east chain; "" for a chain.

    A chain has both coordinates strictly increasing and consecutive
    slopes strictly increasing.  Coordinates are checked along the whole
    sequence before any turn.  Fewer than 2 points is a defect: the
    predicate is about segments.
    """
    if len(points) < 2:
        return "fewer than 2 points"
    for t, (a, b) in enumerate(zip(points, points[1:])):
        if (b.x - a.x).sign() <= 0:
            return f"x does not strictly increase at indices {t},{t + 1}"
        if (b.y - a.y).sign() <= 0:
            return f"y does not strictly increase at indices {t},{t + 1}"
    for t, (a, b, c) in enumerate(zip(points, points[1:], points[2:])):
        if cross(a, b, c).sign() <= 0:
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


def translate(chain: Chain, offset: Point) -> Chain:
    """Translate a chain; translation preserves the chain predicate."""
    return Chain(tuple(p + offset for p in chain))


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


def minkowski_sum(ps: Iterable[Point], qs: Iterable[Point]) -> frozenset[Point]:
    """All pairwise sums; coincident sums merge into one point."""
    qs = tuple(qs)
    return frozenset(p + q for p in ps for q in qs)


def midpoint_set(ps: Iterable[Point], qs: Iterable[Point]) -> frozenset[Point]:
    """All pairwise midpoints, i.e. the Minkowski sum scaled by one half."""
    qs = tuple(qs)
    return frozenset(midpoint(p, q) for p in ps for q in qs)


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, via the monotone chain scan.

    Only corner points are kept: a point lying in the interior of a hull
    edge is not reported.  Input order and multiplicity are irrelevant.
    """
    pts = sorted(set(points), key=sort_key)
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p).sign() <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p).sign() <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def is_convexly_independent(points: Iterable[Point]) -> bool:
    """True iff the points are pairwise distinct and every one of them is
    a corner of their convex hull.

    Zero, one, or two distinct points count as convexly independent; a
    repeated point never does.
    """
    pts = list(points)
    distinct = set(pts)
    if len(distinct) != len(pts):
        return False
    if len(pts) <= 2:
        return True
    return len(convex_hull(pts)) == len(pts)
