"""Largest convexly independent subset of a planar point set.

Two different algorithms compute the same number:

* `ci_bruteforce` enumerates subsets by decreasing size and returns the
  first one that is convexly independent.  Exponential, only meant for
  small inputs, and used to cross-check the DP.

* `ci_dp` runs the edge-sorted dynamic program (Eppstein, Overmars,
  Rote and Woeginger, "Finding minimum area k-gons", 1992; Chvatal and
  Klincsek, 1980).  The directed edges are sorted by angle once, in an
  exact O(n^2 log n) sort; a convex polygon is then a path whose edge
  angles strictly increase from its bottom-most vertex back to it.  One
  integer-only relaxation over the sorted edges per anchor gives the
  longest such path, O(n^3) in all.  Memory is O(n^2): the sorted
  edges as two lists of vertex labels, one entry per directed edge.

  The sort is native: each edge gets one exact integer key, the floor
  of 2**64 * cot(angle), which never decreases as the angle grows, and
  only edges whose keys are equal (exactly parallel edges, or angles
  closer than the key resolves) are ordered by the orientation sign.

  The anchor loop ends once a bound proves its answer.  Cut the sorted
  edges, as a cycle, in two halves: a polygon's edges in each form one
  path, so with L the points on a half's longest path among those ranked
  a on, a polygon anchored from a on has at most L1 + L2 - 2 points.

Both take the points as `Point`s or as a `Scaled`, remove duplicates on
integer rows and check their cap before any sort.  Both are exact and
take every sign from the one kernel, `geometry.Scaled` (integers over a
shared denominator), so they differ in algorithm, not in arithmetic.
The oracles independent of that kernel are in `tests/helpers.py` and
`perfbench/exact.py`.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import chain, combinations, compress
from typing import Iterable

from .geometry import Point, Scaled, convex_hull, is_convexly_independent
from .numbers import Record, floor2


class CiResult(Record):
    """Size of a largest convexly independent subset, plus one witness.

    The witness lists the subset in counterclockwise convex position.
    """

    __slots__ = ("size", "witness")
    size: int
    witness: tuple[Point, ...]

    def __init__(self, size: int, witness: tuple[Point, ...]) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "witness", witness)


DP_MAX_POINTS = 2500  # ci_dp's default cap, the larger of the two
_KEY_BITS = 64  # edge keys resolve cot(angle) to 2**-64
_CUTS = 1  # cuts per bound: each more costs random sets ~5 % of ci_dp


def _prepare(points: Iterable[Point] | Scaled, max_points: int, what: str) -> Scaled:
    """The distinct points, refused past `max_points` before any sort."""
    if isinstance(points, Scaled):
        k = Scaled.from_rows(list(set(points.rows())), points.s)
    else:
        k = Scaled(list(set(points)))
    if not len(k):
        raise ValueError("need at least one point")
    if len(k) > max_points:
        raise ValueError(f"{what} refuses more than {max_points} points")
    return k


def _sorted(k: Scaled, y_first: bool) -> Scaled:
    """The points of k in exact (y, x) order, or (x, y) order."""
    first, second = (k.dy_sign, k.dx_sign) if y_first else (k.dx_sign, k.dy_sign)
    order = sorted(range(len(k)), key=cmp_to_key(lambda i, j: -(first(i, j) or second(i, j))))
    rows = k.rows()
    return Scaled.from_rows([rows[i] for i in order], k.s)


def _points(k: Scaled, indices: Iterable[int]) -> tuple[Point, ...]:
    rows = k.rows()
    return tuple(Scaled.from_rows([rows[i] for i in indices], k.s).points())


def ci_bruteforce(points: Iterable[Point] | Scaled, max_points: int = 20) -> CiResult:
    """Exact maximum by exhaustive search; the cross-check for `ci_dp`.

    Among maximum-size subsets the lexicographically smallest one (by
    sorted point order) is returned, which makes results reproducible.
    """
    pts = _sorted(_prepare(points, max_points, "ci_bruteforce"), y_first=False).points()
    n = len(pts)
    if n <= 2:
        return CiResult(n, tuple(pts))
    for size in range(n, 2, -1):
        for combo in combinations(pts, size):
            if is_convexly_independent(combo):
                return CiResult(size, tuple(convex_hull(combo)))
    return CiResult(2, (pts[0], pts[1]))


def _angle_sorted_edges(k: Scaled) -> tuple[list[int], list[int]]:
    """Sources and targets of the directed edges of k, whose points are
    ranked by (y, x), in order of angle.

    Edge u -> v has its angle in [0, pi) exactly when u < v, and its
    reverse v -> u the angle plus pi, so the edges u -> v with u < v
    come first, then their reverses.  Parallel edges go with the source
    of higher rank first, or of lower rank for the reverses: on one line
    that is the source furthest along the direction, so a path never
    takes two collinear edges in a row and its turns stay strict.
    """
    n = len(k)
    xa, xb, ya, yb, cross_sign = k.xa, k.xb, k.ya, k.yb, k.cross_sign

    # Horizontal edges (angle 0) come first.  Every other edge u -> v
    # has dy > 0 and the key floor(2**64 * -dx/dy), with -dx/dy = (p +
    # q*sqrt(3)) / d after multiplying by the conjugate of dy; it is
    # packed above the edge code u*n + v, which is the input order, so
    # one native sort of the packed ints is a stable sort by key.
    shift = (n * n).bit_length()
    flat, packed = [], []
    for u in range(n):
        for v in range(u + 1, n):
            dya, dyb = ya[v] - ya[u], yb[v] - yb[u]
            if not (dya or dyb):
                flat.append(u * n + v)
                continue
            dxa, dxb = xa[v] - xa[u], xb[v] - xb[u]
            p, q, d = 3 * dxb * dyb - dxa * dya, dxa * dyb - dxb * dya, dya * dya - 3 * dyb * dyb
            packed.append(floor2(p << _KEY_BITS, q << _KEY_BITS, d) << shift | (u * n + v))
    packed.sort()
    edges, m, mask = flat + packed, len(flat), (1 << shift) - 1
    del flat, packed

    # Runs [i, j) of more than one edge with one key, the horizontal
    # edges included, are sorted by the exact comparator, stably, so the
    # whole order is that of one comparator sort of the edge codes.
    runs = [[0, m]] if m > 1 else []
    for i in range(m + 1, len(edges)):
        if edges[i] >> shift == edges[i - 1] >> shift:
            if runs and runs[-1][1] == i:
                runs[-1][1] = i + 1
            else:
                runs.append([i - 1, i + 1])

    def by_angle(reverses: bool) -> None:
        def cmp(c1: int, c2: int) -> int:
            u1, v1 = divmod(c1 & mask, n)
            u2, v2 = divmod(c2 & mask, n)
            return -cross_sign(u1, v1, u2, v2) or (v1 - v2 if reverses else u2 - u1)
        for i, j in runs:
            edges[i:j] = sorted(edges[i:j], key=cmp_to_key(cmp))

    label = list(range(n))  # shared int objects: ints past 256 are not cached
    by_angle(False)
    up_src, up_dst = [label[(c & mask) // n] for c in edges], [label[(c & mask) % n] for c in edges]
    by_angle(True)
    down_src, down_dst = [label[(c & mask) % n] for c in edges], [label[(c & mask) // n] for c in edges]
    del edges
    return up_src + down_src, up_dst + down_dst


def _relax(edges: Iterable[tuple[int, int]], n: int, a: int) -> int:
    """Points on the longest path over `edges`, in order, among those ranked a on."""
    length = [1] * n
    for u, v in edges:
        if u >= a and v >= a and length[u] >= length[v]:
            length[v] = length[u] + 1
    return max(length)


def _tail_bound(src: list[int], dst: list[int], n: int, a: int) -> int:
    """At least the size of each convex polygon of 2+ points ranked a on, over `_CUTS` cuts."""
    half, bounds = len(src) // 2, []
    for i in (c * half // _CUTS for c in range(_CUTS)):
        j = i + half
        first = _relax(zip(src[i:j], dst[i:j]), n, a)
        second = _relax(chain(zip(src[j:], dst[j:]), zip(src[:i], dst[:i])), n, a)
        bounds.append(first + second - 2)
    return min(bounds)


def ci_dp(points: Iterable[Point] | Scaled, max_points: int = DP_MAX_POINTS) -> CiResult:
    """Largest convexly independent subset via the edge-sorted DP."""
    k = _prepare(points, max_points, "ci_dp")
    n = len(k)
    ranked = _sorted(k, y_first=True)
    src, dst = _angle_sorted_edges(ranked)

    # For anchor a, the bottom-most then leftmost vertex of the polygon,
    # length[v] is the longest path a -> v over the edges so far, in
    # angle order, through points ranked from a on: no edge may enter a
    # point ranked below a, so none leaves one either, and edges that
    # touch one are dropped once they are half the list.  Every edge out
    # of a comes before every edge into a, so length[a] - 1 ends as the
    # largest polygon with anchor a.  path[v] holds the path to v as
    # persistent (vertex, rest) tuples: a parent array would let a later,
    # longer path to u rewrite a path already extended through u.  The
    # tail bound only ends the loop, so `best` is the full loop's result.
    best: list[int] = []  # the largest polygon so far, once it has 3 points
    for a in range(n):
        if n - a <= max(len(best), 2):
            break
        compact = 2 * (n - a) ** 2 < len(src)
        if compact:
            keep = [u >= a and v >= a for u, v in zip(src, dst)]
            src, dst = list(compress(src, keep)), list(compress(dst, keep))
        if best and (compact or not a & (a - 1)) and _tail_bound(src, dst, n, a) <= len(best):
            break
        length = [0] * n
        length[a] = 1
        path: list = [None] * n
        path[a] = (a, None)
        for u, v in zip(src, dst):
            lu = length[u]
            if lu and lu >= length[v] and v >= a:
                length[v] = lu + 1
                path[v] = (v, path[u])
        if length[a] - 1 > max(len(best), 2):
            ring, node = [], path[a][1]
            while node:
                v, node = node
                ring.append(v)
            best = ring[::-1]
    if not best:  # at most two points, or all on one line: the first two by (x, y)
        return CiResult(min(n, 2), _points(_sorted(k, y_first=False), range(min(n, 2))))
    return CiResult(len(best), _points(ranked, best))
