"""Exact planar geometry over Q(sqrt(3)).

The central predicate is `is_south_east_chain`: a point sequence whose x
and y coordinates both strictly increase and whose consecutive slopes
strictly increase.  Such a sequence is in convex position (every point
is a corner of the hull), which is what the whole construction pipeline
relies on.  All predicates here decide by exact sign computations; there
is no epsilon anywhere.

`Scaled` is the one orientation kernel: it holds a point sequence as
integers over one shared scale.  `chain_defect`, `convex_hull`,
`is_convexly_independent` and `convex_subsets.ci_dp` take every
coordinate and turn sign from it, and `construction.step`,
`Level.witness_midpoints`, `Level.checks` and `render` compute in it.
The `Point` functions `flatten`, `rotate60`, `midpoint`,
`transform_chains` and `midpoint_set` are the value forms those integer
paths are tested against.
Slope monotonicity is tested with cross products rather than divisions:
for segments with positive dx, slope(a,b) < slope(b,c) holds exactly
when the turn a -> b -> c is counterclockwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Iterable, Iterator, Sequence

from .numbers import _SQRT3_FLOAT, HALF, QSqrt3, QSqrt3Like, Record, sign2

Row = tuple[int, int, int, int]


def _coord(value: QSqrt3Like) -> QSqrt3:
    return value if isinstance(value, QSqrt3) else QSqrt3(value)


class Point(Record):
    """An exact point of the plane."""

    __slots__ = ("x", "y")
    x: QSqrt3
    y: QSqrt3

    def __init__(self, x: QSqrt3, y: QSqrt3) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    # Points are built, hashed and compared in bulk: no generic field loop.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

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
    yb[i]*sqrt(3)) / s for one positive integer s.  `Scaled(points)`
    takes s as the lcm of every denominator; `from_rows` takes integer
    rows (xa, xb, ya, yb) as they are, which is how the construction
    carries a level.  A positive common scale changes no sign, so each
    sign below is one `sign2` on integers.  Methods take indices into
    the sequence.
    """

    __slots__ = ("xa", "xb", "ya", "yb", "s")

    def __init__(self, points: Sequence[Point]) -> None:
        parts = [(p.x.p, p.x.q, p.y.p, p.y.q) for p in points]
        self.s = s = lcm(*{c.denominator for row in parts for c in row})
        self.xa, self.xb, self.ya, self.yb = (
            [row[c].numerator * (s // row[c].denominator) for row in parts]
            for c in range(4)
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Row], s: int) -> Scaled:
        """Integer rows (xa, xb, ya, yb) over the positive scale s."""
        new = cls.__new__(cls)
        new.xa, new.xb, new.ya, new.yb = ([row[c] for row in rows] for c in range(4))
        new.s = s
        return new

    def __len__(self) -> int:
        return len(self.xa)

    def rows(self) -> list[Row]:
        """Point i as the row (xa[i], xb[i], ya[i], yb[i])."""
        return list(zip(self.xa, self.xb, self.ya, self.yb))

    def points(self) -> list[Point]:
        """The exact points, each component reduced."""
        s = self.s
        return [
            Point(QSqrt3(Fraction(xa, s), Fraction(xb, s)),
                  QSqrt3(Fraction(ya, s), Fraction(yb, s)))
            for xa, xb, ya, yb in zip(self.xa, self.xb, self.ya, self.yb)
        ]

    def floats(self) -> list[tuple[float, float]]:
        """Approximate (x, y) of each point; for display only.

        Each value rounds as `float(QSqrt3)` does on the reduced point:
        integer true division is correctly rounded at any scale.
        """
        s, r3 = self.s, _SQRT3_FLOAT
        return [
            (xa / s + xb / s * r3, ya / s + yb / s * r3)
            for xa, xb, ya, yb in zip(self.xa, self.xb, self.ya, self.yb)
        ]

    def midpoints(self, n: int, pairs: Iterable[tuple[int, int]]) -> Scaled:
        """Midpoints of a[i] and b[j] for each pair (i, j), in order, where
        a is the first n points and b the rest: row sums over twice the
        scale."""
        pairs = list(pairs)
        new = Scaled.__new__(Scaled)
        new.xa, new.xb, new.ya, new.yb = (
            [a[i] + b[j] for i, j in pairs]
            for a, b in ((c[:n], c[n:]) for c in (self.xa, self.xb, self.ya, self.yb))
        )
        new.s = 2 * self.s
        return new

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


def chain_defect(points: Sequence[Point] | Scaled) -> str:
    """Where `points` first fails to be a south-east chain; "" for a chain.

    A chain has both coordinates strictly increasing and consecutive
    slopes strictly increasing.  Coordinates are checked along the whole
    sequence before any turn.  Fewer than 2 points is a defect: the
    predicate is about segments.  A `Scaled` sequence is used as it is.
    """
    if len(points) < 2:
        return "fewer than 2 points"
    k = points if isinstance(points, Scaled) else Scaled(points)
    for t in range(len(points) - 1):
        if k.dx_sign(t, t + 1) <= 0:
            return f"x does not strictly increase at indices {t},{t + 1}"
        if k.dy_sign(t, t + 1) <= 0:
            return f"y does not strictly increase at indices {t},{t + 1}"
    for t in range(len(points) - 2):
        if k.cross_sign(t, t + 1, t + 1, t + 2) <= 0:
            return f"turn at indices {t},{t + 1},{t + 2} is not strictly left"
    return ""


def is_south_east_chain(points: Sequence[Point] | Scaled) -> bool:
    """Decide the chain predicate exactly; fewer than 2 points raise."""
    if len(points) < 2:
        raise ValueError("a chain needs at least 2 points")
    return not chain_defect(points)


class Chain(Record):
    """A validated south-east chain; construction fails otherwise."""

    __slots__ = ("points",)
    points: tuple[Point, ...]

    def __init__(self, points: Iterable[Point]) -> None:
        object.__setattr__(self, "points", tuple(points))
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


def _hull(k: Scaled) -> list[int]:
    """Indices of the strict hull corners of distinct points, counterclockwise."""
    if len(k) < 2:
        return list(range(len(k)))
    xy = cmp_to_key(lambda i, j: -(k.dx_sign(i, j) or k.dy_sign(i, j)))
    order = sorted(range(len(k)), key=xy)

    def half_hull(indices: Iterable[int]) -> list[int]:
        h: list[int] = []
        for i in indices:
            while len(h) >= 2 and k.cross_sign(h[-2], h[-1], h[-2], i) <= 0:
                h.pop()
            h.append(i)
        return h[:-1]

    return half_hull(order) + half_hull(reversed(order))


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, via the monotone chain scan.

    Only corner points are kept: a point lying in the interior of a hull
    edge is not reported.  Input order and multiplicity are irrelevant.
    """
    pts = list(set(points))
    return [pts[i] for i in _hull(Scaled(pts))]


def is_convexly_independent(points: Iterable[Point] | Scaled) -> bool:
    """True iff the points are pairwise distinct and every one of them is
    a corner of their convex hull.

    Zero, one, or two distinct points count as convexly independent; a
    repeated point never does.  A `Scaled` sequence is used as it is.
    """
    k = points if isinstance(points, Scaled) else Scaled(list(points))
    return len(set(k.rows())) == len(k) == len(_hull(k))
