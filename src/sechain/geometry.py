"""Exact planar geometry over Q(sqrt(3)), on integers.

The central predicate is `is_south_east_chain`: a point sequence whose x
and y coordinates both strictly increase and whose consecutive slopes
strictly increase.  Such a sequence is in convex position (every point
is a corner of the hull), which is what the whole construction pipeline
relies on.  All predicates here decide by exact sign computations; there
is no epsilon anywhere.

The integer kernel lives here: `sign2`, the exact sign of a + b*sqrt(3)
for integers a and b, and `Record`, the base of the package's value
records.  `Scaled` is the one point-set kernel on it: a point
sequence as one list of integer rows (xa, xb, ya, yb) over one shared
scale, read and built as rows by every method.  It gives every
coordinate and turn sign, and subsets (`take`), dedupes (`distinct`),
orders (`sorted`), forms midpoints (`midpoints`, `midpoint_set`) and
flattens and rotates (`flattened`, which `construction.step` and
`transform_chains` share).  A `construction.Level` holds its chains as
one `Scaled` over the least scale (`reduced`), and `document` encodes
and decodes every coordinate through one.  The predicates here, both
`convex_subsets` solvers, the construction, `Level.checks`, the drawing
checks, `render` and `ci` compute in it.

`Point`s, over `numbers.QSqrt3` and `fractions.Fraction`, are built only
at the public boundary (`pt`, `Scaled.points`), and only those two
import them: this module imports neither at load, so an op that stays
on rows, such as `ci` of a point set, never loads the value layer.  The
`Point` value forms these paths are tested against (flattening,
rotation, midpoints, slopes) live in `tests/helpers.py`.
Slope monotonicity is tested with cross products rather than divisions:
for segments with positive dx, slope(a,b) < slope(b,c) holds exactly
when the turn a -> b -> c is counterclockwise.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd, lcm, sqrt
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # a `Point` is built only at the public boundary
    from fractions import Fraction

    from .numbers import QSqrt3, QSqrt3Like

Row = tuple[int, int, int, int]

_SQRT3_FLOAT = sqrt(3.0)


def sign2(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(3) for integers a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    # Mixed signs: |a| vs |b|*sqrt(3).  With la and lb the bit lengths,
    # 2**(la-1) <= |a| < 2**la and 2**(lb-1) <= |b| < 2**lb, so:
    #   la >= lb + 2 gives |a| >= 2**(lb+1) = 2 * 2**lb > sqrt(3)*|b|;
    #   lb >= la + 1 gives sqrt(3)*|b| >= sqrt(3) * 2**la > 2**la > |a|.
    # Otherwise compare a**2 with 3*b**2: equality is impossible for
    # nonzero integers, so the larger square wins.
    la, lb = a.bit_length(), b.bit_length()
    if la >= lb + 2:
        return sa
    if lb > la:
        return sb
    return sa if a * a > 3 * b * b else sb


class Record:
    """An immutable value record over `__slots__`; subclasses are final.

    `==` holds between records of one class with equal fields, `hash` is
    the hash of the field tuple, and copy and pickle rebuild a record by
    calling its class with its fields, so its validation runs again.
    Setting or deleting an attribute raises AttributeError.  A record
    names its fields in `__slots__` and sets each once in its own
    `__init__`, which also validates.  Records are plain classes rather
    than dataclasses, whose import (with `inspect`) and per-class code
    generation cost every CLI process several milliseconds, and rather
    than named tuples, which are iterable and equal any tuple of the
    same values.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Set the fields in `__slots__` order; for `__init__`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _fields(self) -> dict[str, object]:
        """The arguments the class is called with, by name."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(self._fields().values())


def _coord(value: QSqrt3Like) -> QSqrt3:
    from .numbers import QSqrt3

    return value if isinstance(value, QSqrt3) else QSqrt3(value)


class Point(Record):
    """An exact point of the plane."""

    __slots__ = ("x", "y")
    x: QSqrt3
    y: QSqrt3

    def __init__(self, x: QSqrt3, y: QSqrt3) -> None:
        self._set(x, y)

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
    """The orientation kernel: points as integer rows over one shared scale.

    Row i, (xa, xb, ya, yb), is the point x = (xa + xb*sqrt(3)) / s,
    y = (ya + yb*sqrt(3)) / s for one positive integer s.  `Scaled(points)`
    takes s as the lcm of every reduced denominator, the least scale;
    `from_rows` keeps the rows it is given, and `reduced` brings them to
    the least scale, where equal rows are equal points.  A positive
    common scale changes no sign, so each sign below is one `sign2` on
    integers.  Methods take indices into `rows`.
    """

    __slots__ = ("rows", "s")
    rows: list[Row]
    s: int

    def __init__(self, points: Sequence[Point]) -> None:
        parts = [(p.x.p, p.x.q, p.y.p, p.y.q) for p in points]
        self.s = s = lcm(*{c.denominator for row in parts for c in row})
        self.rows = [tuple([c.numerator * (s // c.denominator) for c in row]) for row in parts]

    @classmethod
    def from_rows(cls, rows: list[Row], s: int) -> Scaled:
        """Integer rows (xa, xb, ya, yb) over the positive scale s; the
        list is kept, not copied."""
        new = cls.__new__(cls)
        new.rows, new.s = rows, s
        return new

    def __len__(self) -> int:
        return len(self.rows)

    def points(self) -> list[Point]:
        """The exact points, each component reduced."""
        from fractions import Fraction

        from .numbers import QSqrt3

        s = self.s
        return [
            Point(QSqrt3(Fraction(xa, s), Fraction(xb, s)),
                  QSqrt3(Fraction(ya, s), Fraction(yb, s)))
            for xa, xb, ya, yb in self.rows
        ]

    def floats(self) -> list[tuple[float, float]]:
        """Approximate (x, y) of each point; for display only.

        Each value rounds as `float(QSqrt3)` does on the reduced point:
        integer true division is correctly rounded at any scale.
        """
        s, r3 = self.s, _SQRT3_FLOAT
        return [(xa / s + xb / s * r3, ya / s + yb / s * r3) for xa, xb, ya, yb in self.rows]

    def reduced(self) -> Scaled:
        """The same points over the least scale: all divided by their gcd."""
        g = gcd(self.s, *[c for row in self.rows for c in row])
        if g == 1:
            return self
        return Scaled.from_rows([(xa // g, xb // g, ya // g, yb // g)
                                 for xa, xb, ya, yb in self.rows], self.s // g)

    def take(self, indices: Iterable[int]) -> Scaled:
        """The points at `indices`, in that order, over the same scale."""
        rows = self.rows
        return Scaled.from_rows([rows[i] for i in indices], self.s)

    def distinct(self) -> Scaled:
        """Each point once, compared on integer rows, in first-seen order."""
        return Scaled.from_rows(list(dict.fromkeys(self.rows)), self.s)

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
        a, b, sums = self.rows[:n], self.rows[n:], []
        for i, j in pairs:
            (xa, xb, ya, yb), (pa, pb, qa, qb) = a[i], b[j]
            sums.append((xa + pa, xb + pb, ya + qa, yb + qb))
        return Scaled.from_rows(sums, 2 * self.s)

    def midpoint_set(self, n: int, limit: int) -> Scaled:
        """The distinct midpoints of all pairs a[i], b[j] as in `midpoints`, in no
        fixed order, formed one a[i] at a time until there are more than `limit`."""
        b, rows = self.rows[n:], set()
        for xa, xb, ya, yb in self.rows[:n]:
            rows.update([(xa + pa, xb + pb, ya + qa, yb + qb) for pa, pb, qa, qb in b])
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
        for xa, xb, ya, yb in self.rows:
            xa, xb, ya, yb = fx * xa, fx * xb, fy * ya, fy * yb
            flat.append((2 * xa, 2 * xb, 2 * ya, 2 * yb))
            rot.append((xa - 3 * yb, xb - ya, 3 * xb + ya, xa + yb))
        t = 2 * q * q * self.s
        return Scaled.from_rows(flat, t), Scaled.from_rows(rot, t)

    def dx_sign(self, i: int, j: int) -> int:
        """Sign of x[j] - x[i]."""
        p, q = self.rows[i], self.rows[j]
        return sign2(q[0] - p[0], q[1] - p[1])

    def dy_sign(self, i: int, j: int) -> int:
        """Sign of y[j] - y[i]."""
        p, q = self.rows[i], self.rows[j]
        return sign2(q[2] - p[2], q[3] - p[3])

    def turn(self, p: int, q: int, r: int) -> int:
        """Sign of the turn p -> q -> r; positive means left."""
        return self.cross_sign(p, q, p, r)

    def cross_sign(self, p: int, q: int, r: int, s: int) -> int:
        """Sign of (q - p) x (s - r); positive means a left turn."""
        rows = self.rows
        (pxa, pxb, pya, pyb), (qxa, qxb, qya, qyb) = rows[p], rows[q]
        (rxa, rxb, rya, ryb), (sxa, sxb, sya, syb) = rows[r], rows[s]
        uxa, uxb, uya, uyb = qxa - pxa, qxb - pxb, qya - pya, qyb - pyb
        vxa, vxb, vya, vyb = sxa - rxa, sxb - rxb, sya - rya, syb - ryb
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


def transform_chains(chain: Sequence[Point], eps: Fraction) -> tuple[list[Point], list[Point]]:
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
