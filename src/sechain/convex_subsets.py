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

Both are exact and take every orientation sign from the one kernel,
`geometry.Scaled` (integers over a shared denominator), so they differ
in algorithm, not in arithmetic.  The oracles independent of that
kernel are in `tests/helpers.py` and `perfbench/exact.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations, compress
from typing import Iterable

from .geometry import Point, Scaled, convex_hull, is_convexly_independent, sort_key


@dataclass(frozen=True, slots=True)
class CiResult:
    """Size of a largest convexly independent subset, plus one witness.

    The witness lists the subset in counterclockwise convex position.
    """

    size: int
    witness: tuple[Point, ...]


DP_MAX_POINTS = 2500  # ci_dp's default cap, the larger of the two


def _prepare(points: Iterable[Point], max_points: int, what: str) -> list[Point]:
    pts = sorted(set(points), key=sort_key)
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) > max_points:
        raise ValueError(f"{what} refuses more than {max_points} points")
    return pts


def ci_bruteforce(points: Iterable[Point], max_points: int = 20) -> CiResult:
    """Exact maximum by exhaustive search; the cross-check for `ci_dp`.

    Among maximum-size subsets the lexicographically smallest one (by
    sorted point order) is returned, which makes results reproducible.
    """
    pts = _prepare(points, max_points, "ci_bruteforce")
    n = len(pts)
    if n <= 2:
        return CiResult(n, tuple(pts))
    for size in range(n, 2, -1):
        for combo in combinations(pts, size):
            if is_convexly_independent(combo):
                return CiResult(size, tuple(convex_hull(combo)))
    return CiResult(2, (pts[0], pts[1]))


def ci_dp(points: Iterable[Point], max_points: int = DP_MAX_POINTS) -> CiResult:
    """Largest convexly independent subset via the edge-sorted DP."""
    pts = _prepare(points, max_points, "ci_dp")
    n = len(pts)
    if n <= 2:
        return CiResult(n, tuple(pts))

    # Label the points by (y, x) rank: edge u -> v then has its angle in
    # [0, pi) exactly when u < v, and its reverse v -> u the angle plus pi.
    ranked = sorted(pts, key=lambda p: (p.y, p.x))
    cross_sign = Scaled(ranked).cross_sign

    # Sort the edges u -> v with u < v (code u*n + v) by angle, then
    # again for their reverses.  Parallel edges go with the source of
    # higher rank first, or of lower rank for the reverses: on one line
    # that is the source furthest along the direction, so a path never
    # takes two collinear edges in a row and its turns stay strict.
    def by_angle(codes: list[int], reverses: bool) -> list[int]:
        def cmp(c1: int, c2: int) -> int:
            u1, v1 = divmod(c1, n)
            u2, v2 = divmod(c2, n)
            return -cross_sign(u1, v1, u2, v2) or (v1 - v2 if reverses else u2 - u1)
        return sorted(codes, key=cmp_to_key(cmp))

    up = by_angle([u * n + v for u in range(n) for v in range(u + 1, n)], False)
    down = by_angle(up, True)
    label = list(range(n))  # shared int objects: ints past 256 are not cached
    src = [label[c // n] for c in up] + [label[c % n] for c in down]
    dst = [label[c % n] for c in up] + [label[c // n] for c in down]
    del up, down

    # For anchor a, the bottom-most then leftmost vertex of the polygon,
    # length[v] is the longest path a -> v over the edges so far, in
    # angle order, through points ranked from a on: no edge may enter a
    # point ranked below a, so none leaves one either, and edges that
    # touch one are dropped once they are half the list.  Every edge out
    # of a comes before every edge into a, so length[a] - 1 ends as the
    # largest polygon with anchor a.  path[v] holds the path to v as
    # persistent (vertex, rest) tuples: a parent array would let a later,
    # longer path to u rewrite a path already extended through u.
    best = [pts[0], pts[1]]
    for a in range(n):
        if n - a <= len(best):
            break
        if 2 * (n - a) ** 2 < len(src):
            keep = [u >= a and v >= a for u, v in zip(src, dst)]
            src, dst = list(compress(src, keep)), list(compress(dst, keep))
        length = [0] * n
        length[a] = 1
        path: list = [None] * n
        path[a] = (a, None)
        for u, v in zip(src, dst):
            lu = length[u]
            if lu and lu >= length[v] and v >= a:
                length[v] = lu + 1
                path[v] = (v, path[u])
        if length[a] - 1 > len(best):
            ring, node = [], path[a][1]
            while node:
                v, node = node
                ring.append(ranked[v])
            best = ring[::-1]
    return CiResult(len(best), tuple(best))
