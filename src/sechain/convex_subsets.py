"""Largest convexly independent subset of a planar point set.

Two different algorithms compute the same number:

* `ci_bruteforce` enumerates subsets by decreasing size and returns the
  first one that is convexly independent.  Exponential, only meant for
  small inputs, and used to cross-check the DP.

* `ci_dp` runs the classical anchored dynamic program: for every point
  taken as the bottom-most vertex of a candidate polygon, the remaining
  points are sorted by angle around the anchor and the longest chain of
  strict left turns that closes back to the anchor is computed.  O(n^3)
  transitions overall thanks to a monotone pointer over pre-sorted
  direction lists.

Both are exact and take every orientation sign from the one kernel,
`geometry.Scaled` (integers over a shared denominator), so they differ
in algorithm, not in arithmetic.  The oracles independent of that
kernel are in `tests/helpers.py` and `perfbench/exact.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Iterable

from .geometry import Point, Scaled, convex_hull, is_convexly_independent, sort_key
from .numbers import sign2


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
    """Largest convexly independent subset via the anchored DP."""
    pts = _prepare(points, max_points, "ci_dp")
    n = len(pts)
    if n <= 2:
        return CiResult(n, tuple(pts))

    # Every orientation sign comes from the shared kernel; its integer
    # coordinates also give the exact squared-length comparison below.
    kernel = Scaled(pts)
    cross_sign = kernel.cross_sign
    xa, xb, ya, yb = kernel.xa, kernel.xb, kernel.ya, kernel.yb

    def len2_cmp(p: int, q1: int, q2: int) -> int:
        """Compare |q1 - p|^2 with |q2 - p|^2."""

        def parts(q: int) -> tuple[int, int]:
            dxa = xa[q] - xa[p]
            dxb = xb[q] - xb[p]
            dya = ya[q] - ya[p]
            dyb = yb[q] - yb[p]
            return (
                dxa * dxa + 3 * dxb * dxb + dya * dya + 3 * dyb * dyb,
                2 * (dxa * dxb + dya * dyb),
            )

        a1, b1 = parts(q1)
        a2, b2 = parts(q2)
        return sign2(a1 - a2, b1 - b2)

    # half[i][j]: 0 when dir(i->j) has angle in [0, pi) or i == j, else 1.
    half = [
        [int((kernel.dy_sign(i, j) or kernel.dx_sign(i, j)) < 0) for j in range(n)]
        for i in range(n)
    ]

    # Sort keys: half-plane, then turn, then distance or index.
    def out_cmp(i: int):
        hrow = half[i]
        return lambda j1, j2: (
            hrow[j1] - hrow[j2] or -cross_sign(i, j1, i, j2) or len2_cmp(i, j1, j2)
        )

    def in_cmp(j: int):
        return lambda h1, h2: (
            half[h1][j] - half[h2][j] or -cross_sign(h1, j, h2, j) or h1 - h2
        )

    others = [[j for j in range(n) if j != i] for i in range(n)]
    out_sorted = [sorted(others[i], key=cmp_to_key(out_cmp(i))) for i in range(n)]
    in_sorted = [sorted(others[j], key=cmp_to_key(in_cmp(j))) for j in range(n)]

    # Anchors in (y, x) order; a polygon is counted at its bottom-most,
    # then leftmost, vertex, so candidates are the points after the
    # anchor in this order.
    yx = cmp_to_key(lambda i, j: -(kernel.dy_sign(i, j) or kernel.dx_sign(i, j)))
    order = sorted(range(n), key=yx)
    rank = [0] * n
    for r, t in enumerate(order):
        rank[t] = r

    best_size = 2
    best_poly = [pts[0], pts[1]]

    pos_arr = [-1] * n
    for a in order:
        rank_a = rank[a]
        cand = [j for j in out_sorted[a] if rank[j] > rank_a]
        big = len(cand)
        if big < 2:
            continue
        for t, j in enumerate(cand):
            pos_arr[j] = t
        # Points sharing a ray from the anchor get one group id; a valid
        # polygon uses at most one point per group, which the strict
        # turn conditions enforce on their own, but group ids give the
        # O(1) test for the two-leg base chains.
        group = [0] * big
        for t in range(1, big):
            group[t] = group[t - 1] + (cross_sign(a, cand[t - 1], a, cand[t]) != 0)
        g = [[0] * big for _ in range(big)]
        par = [[-2] * big for _ in range(big)]
        for ipos in range(big):
            i = cand[ipos]
            out_el = [j for j in out_sorted[i] if pos_arr[j] > ipos]
            if not out_el:
                continue
            in_el = [h for h in in_sorted[i] if -1 < pos_arr[h] < ipos]
            n_in = len(in_el)
            ptr = 0
            run_best = 0
            run_arg = -2
            gi = g[ipos]
            pi = par[ipos]
            gival = group[ipos]
            for j in out_el:
                jpos = pos_arr[j]
                while ptr < n_in:
                    h = in_el[ptr]
                    if cross_sign(h, i, i, j) > 0:
                        val = g[pos_arr[h]][ipos]
                        if val > run_best:
                            run_best = val
                            run_arg = pos_arr[h]
                        ptr += 1
                    else:
                        break
                if group[jpos] != gival:
                    length = 3
                    parent = -1
                else:
                    length = 0
                    parent = -2
                if run_best and run_best + 1 > length:
                    length = run_best + 1
                    parent = run_arg
                if not length:
                    continue
                gi[jpos] = length
                pi[jpos] = parent
                if length > best_size and cross_sign(i, j, j, a) > 0:
                    best_size = length
                    seq = [jpos, ipos]
                    wi, wj = ipos, jpos
                    while par[wi][wj] >= 0:
                        wh = par[wi][wj]
                        seq.append(wh)
                        wi, wj = wh, wi
                    best_poly = [pts[a]]
                    best_poly += [pts[cand[t]] for t in reversed(seq)]
        for j in cand:
            pos_arr[j] = -1

    return CiResult(best_size, tuple(best_poly))
