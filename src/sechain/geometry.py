"""Exact planar geometry over Q(sqrt(3)).

The central predicate is `is_south_east_chain`: a point sequence whose x
and y coordinates both strictly increase and whose consecutive slopes
strictly increase.  Such a sequence is in convex position (every point
is a corner of the hull), which is what the whole construction pipeline
relies on.  All predicates here decide by exact sign computations; there
is no epsilon anywhere.

`Scaled` is the one integer point-set kernel: a point sequence as
integers over one shared scale.  It gives every coordinate and turn
sign, and subsets (`take`), dedupes (`distinct`), orders (`sorted`),
forms midpoints (`midpoints`, `midpoint_set`) and flattens and rotates
(`flattened`, which `construction.step` and `transform_chains` share)
on integer rows.  The predicates here, both `convex_subsets` solvers,
the construction, `Level.checks`, the drawing checks, `render` and `ci`
compute in it.  The `Point` value forms these paths are tested against
(flattening, rotation, midpoints, slopes) live in `tests/helpers.py`.
Slope monotonicity is tested with cross products rather than divisions:
for segments with positive dx, slope(a,b) < slope(b,c) holds exactly
when the turn a -> b -> c is counterclockwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Callable, Iterable, Sequence

from .numbers import _SQRT3_FLOAT, QSqrt3, QSqrt3Like, Record, sign2

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


def cross(o: Point, a: Point, b: Point) -> QSqrt3:
    """2x2 determinant of (a - o, b - o); positive means a left turn."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


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

    def take(self, indices: Iterable[int]) -> Scaled:
        """The points at `indices`, in that order, over the same scale."""
        rows = self.rows()
        return Scaled.from_rows([rows[i] for i in indices], self.s)

    def distinct(self) -> Scaled:
        """Each point once, compared on integer rows, in first-seen order."""
        return Scaled.from_rows(list(dict.fromkeys(self.rows())), self.s)

    def sorted(self, y_first: bool = False) -> Scaled:
        """The points in exact (x, y) order, or (y, x) order; equal points
        keep their order."""
        first, second = (self.dy_sign, self.dx_sign) if y_first else (self.dx_sign, self.dy_sign)
        order = cmp_to_key(lambda i, j: -(first(i, j) or second(i, j)))
        return self.take(sorted(range(len(self)), key=order))

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

    def midpoint_set(self, n: int, limit: int) -> Scaled:
        """The distinct midpoints of all pairs a[i], b[j] as in `midpoints`, in no
        fixed order, formed one a[i] at a time until there are more than `limit`."""
        b, rows = range(len(self) - n), set()
        for i in range(n):
            rows.update(self.midpoints(n, ((i, j) for j in b)).rows())
            if len(rows) > limit:
                break
        return Scaled.from_rows(list(rows), 2 * self.s)

    def flattened(self, eps: Fraction) -> tuple[Scaled, Scaled]:
        """The points flattened, (x, y) -> (eps*x, eps**2*y), and those turned
        60 degrees counterclockwise, both over t = 2*s*q**2 for eps = p/q > 0.

        Flattening multiplies x by p*q and y by p**2 (over s*q**2) and scales
        every slope by eps.  Rotation, ((x - sqrt(3)*y) / 2, (sqrt(3)*x + y) / 2),
        is then exact over t, and the flat copy is doubled to meet it.
        """
        if eps <= 0:
            raise ValueError("flattening factor must be positive")
        p, q = eps.numerator, eps.denominator
        fx, fy = p * q, p * p
        flat, rot = [], []
        for xa, xb, ya, yb in zip(self.xa, self.xb, self.ya, self.yb):
            xa, xb, ya, yb = fx * xa, fx * xb, fy * ya, fy * yb
            flat.append((2 * xa, 2 * xb, 2 * ya, 2 * yb))
            rot.append((xa - 3 * yb, xb - ya, 3 * xb + ya, xa + yb))
        t = 2 * q * q * self.s
        return Scaled.from_rows(flat, t), Scaled.from_rows(rot, t)

    def dx_sign(self, i: int, j: int) -> int:
        """Sign of x[j] - x[i]."""
        return sign2(self.xa[j] - self.xa[i], self.xb[j] - self.xb[i])

    def dy_sign(self, i: int, j: int) -> int:
        """Sign of y[j] - y[i]."""
        return sign2(self.ya[j] - self.ya[i], self.yb[j] - self.yb[i])

    def turn(self, p: int, q: int, r: int) -> int:
        """Sign of the turn p -> q -> r; positive means left."""
        return self.cross_sign(p, q, p, r)

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


def transform_chains(
    chain: Sequence[Point], eps: Fraction
) -> tuple[list[Point], list[Point]]:
    """Flattened and rotated-flattened copies of a sequence.

    Returns raw point lists (flat, rotated) where rotated[i] is
    flat[i] turned by 60 degrees; eps <= 0 raises ValueError.  No
    validation happens here; callers decide which of the copies must
    satisfy the chain predicate.
    """
    flat, rotated = Scaled(chain).flattened(eps)
    return flat.points(), rotated.points()


# -- point sets ------------------------------------------------------------


def midpoint_set(ps: Iterable[Point], qs: Iterable[Point]) -> frozenset[Point]:
    """All pairwise midpoints, i.e. the Minkowski sum scaled by one half."""
    ps, qs = list(ps), list(qs)
    return frozenset(Scaled(ps + qs).midpoint_set(len(ps), len(ps) * len(qs)).points())


def _hull(indices: Sequence[int], turn: Callable[[int, int, int], int]) -> list[int]:
    """The strict hull corners among `indices`, counterclockwise, of distinct
    points indexed in (x, y) order; turn(p, q, r) signs the turn p -> q -> r."""
    if len(indices) < 2:
        return list(indices)

    def half_hull(order: Iterable[int]) -> list[int]:
        h: list[int] = []
        for i in order:
            while len(h) >= 2 and turn(h[-2], h[-1], i) <= 0:
                h.pop()
            h.append(i)
        return h[:-1]

    return half_hull(indices) + half_hull(reversed(indices))


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Strict convex hull, counterclockwise, via the monotone chain scan.

    Only corner points are kept: a point lying in the interior of a hull
    edge is not reported.  Input order and multiplicity are irrelevant.
    """
    k = Scaled(list(points)).distinct().sorted()
    return k.take(_hull(range(len(k)), k.turn)).points()


def is_convexly_independent(points: Iterable[Point] | Scaled) -> bool:
    """True iff the points are pairwise distinct and every one of them is
    a corner of their convex hull.

    Zero, one, or two distinct points count as convexly independent; a
    repeated point never does.  A `Scaled` sequence is used as it is.
    """
    k = points if isinstance(points, Scaled) else Scaled(list(points))
    return len(k.distinct()) == len(k) == len(_hull(range(len(k)), k.sorted().turn))
