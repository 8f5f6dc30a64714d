"""Largest convexly independent subset of a planar point set.

Two different algorithms compute the same number:

* `ci_bruteforce` searches the subsets that are convexly independent,
  growing each only while it can still beat the largest so far.
  Exponential, only meant for small inputs, and used to cross-check the DP.

* `ci_dp` runs the edge-sorted dynamic program (Eppstein, Overmars,
  Rote and Woeginger, "Finding minimum area k-gons", 1992; Chvatal and
  Klincsek, 1980).  The directed edges are sorted by angle once, in an
  exact O(n^2 log n) sort; a convex polygon is then a path whose edge
  angles strictly increase from its bottom-most vertex back to it.  One
  integer-only relaxation over the sorted edges per anchor gives the
  longest such path, O(n^3) in all.  Memory is O(n^2): the sorted
  edges as two lists of vertex labels, one entry per directed edge.

  The sort is native, behind an exact integer filter (Fortune and Van
  Wyk, 1993; Shewchuk, 1997): one floor division per edge u -> v, u < v,
  on the integers `Scaled.lifted` makes of the coordinates, gives 2**64
  times its pseudo-angle -dx / (|dx| + dy) within a proven 1/16, so only
  runs of keys at most 1 apart, exactly parallel edges among them, are
  ordered by the orientation sign.  The reverses follow in the same
  order, except that within each group of exactly parallel edges their
  own tie-break orders them; the groups end where two adjacent edges of
  a run turn.

  Each anchor gets its own bound from two integer passes: a polygon
  anchored at a is one path from a over the up half of the sorted edges
  (u -> v, u < v) and one back to a over the down half, so with U and D
  the points on the longest such paths it has at most U + D - 2 points.
  An anchor whose bound cannot beat the best polygon so far is skipped.
  Each edge gets a bound the same way, from the longest paths over the
  sorted edges that end with it and that start with it, and once a
  polygon is found the edges whose bound cannot beat it are dropped
  before the remaining anchors run.

Each solver is one implementation on integer rows, `geometry.Scaled`.
Both take the points as rows or as `Point`s, which the public boundary
turns into rows once, keep each point once (`Scaled.distinct`) and check
their cap, `BRUTE_MAX_POINTS` or `DP_MAX_POINTS` as read at each call,
before any sort.  Then `ci_bruteforce` works on the points in (x, y)
order and `ci_dp` on them in (y, x) order, both from `Scaled.sorted`,
and each returns its witness as rows: a `CiResult` keeps rows only, and
`ci --json` encodes `witness_rows` as they are.  Both are exact and take
every sign from the one kernel (integers over a shared denominator), so
they differ in algorithm, not in arithmetic.  The oracles independent
of that kernel are in `tests/helpers.py` and `perfbench/exact.py`.
"""

from __future__ import annotations

from functools import cache, cmp_to_key
from itertools import compress, count, islice
from typing import Iterable

from . import InputError
from .geometry import _LIFT_BITS, Point, Record, Scaled, _hull


class CiResult(Record):
    """Size of a largest convexly independent subset, plus one witness.

    The witness lists the subset in counterclockwise convex position, as
    rows over their least scale (`witness_rows`), so equal rows are equal
    points.
    """

    __slots__ = ("size", "witness_rows")
    size: int
    witness_rows: Scaled

    def __init__(self, size: int, witness_rows: Scaled) -> None:
        self._set(size, witness_rows.reduced())

    def _values(self) -> tuple:
        return self.size, self.witness_rows.s, *self.witness_rows.rows


# ci of level 5 (1024 points) takes about 1.3-1.7 s at 50 MB peak RSS (2
# cores, Python 3.11) and runs under a 56 MiB RLIMIT_AS; at 4096 points (level
# 6) ci_dp takes about 25 s at 742 MB in process.
DP_MAX_POINTS = 2500  # ci_dp's cap
BRUTE_MAX_POINTS = 20  # ci_bruteforce's cap
_MARGIN = 1  # keys at most this far apart may be out of angle order
_BLOCK = 4096  # edges relabelled in place per step
_PRUNE_ANCHORS = 4  # pruning the edges costs about four relaxations of them


def _prepare(points: Iterable[Point] | Scaled, max_points: int, what: str) -> Scaled:
    """The distinct points, refused past `max_points` before any sort."""
    k = (points if isinstance(points, Scaled) else Scaled(list(points))).distinct()
    if not len(k):
        raise InputError("need at least one point")
    if len(k) > max_points:
        raise InputError(f"{what} refuses more than {max_points} points")
    return k


def ci_bruteforce(points: Iterable[Point] | Scaled) -> CiResult:
    """Exact maximum by exhaustive search; the cross-check for `ci_dp`.

    It returns the lexicographically smallest largest subset of the points
    in (x, y) order, growing index subsets in that order only while convex
    (so is every subset of a convex set) and able to beat the best so far.
    Each turn's sign is computed once: on big coordinates it is most of the time."""
    k = _prepare(points, BRUTE_MAX_POINTS, "ci_bruteforce").sorted()
    n, best, turn = len(k), (), cache(k.turn)

    def grow(combo: tuple[int, ...]) -> None:
        nonlocal best
        best = max(best, combo, key=len)
        for i in range(combo[-1] + 1 if combo else 0, n):
            if len(combo) + n - i <= len(best):
                break
            if len(_hull(combo + (i,), turn)) == len(combo) + 1:
                grow(combo + (i,))

    grow(())
    return CiResult(len(best), k.take(_hull(best, turn)))


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
    cross_sign = k.cross_sign

    # An integer filter orders the up edges by the pseudo-angle g(a, y) =
    # -a / (|a| + y) of (a, y) = (dx, dy), which rises strictly with the
    # angle over [0, pi), from -1 (dy = 0) to 1.  X and Y are `k.lifted()`,
    # with headroom K = _LIFT_BITS: by the lift's bound (dX, dY) has the
    # signs of (dx, dy), so an edge is horizontal exactly when dY == 0 and
    # |dX| + dY > 0, and it is within 2**b of 2**f * (dx, dy) in each part,
    # where |a| + y stays above 2**(f-b-2) - 2**(b+1) = 2**(b+1) *
    # (2**(K+5) - 1).  Both partial derivatives of g are at most 1 / (|a| +
    # y) in size, so t = 2**K * g(dx, dy) is within 2**(K+b+1) over that,
    # below 1/16, of 2**K * g(dX, dY), whose floor is the key k: k - 1/16 <
    # t < k + 1 + 1/16.  So edges whose keys are more than _MARGIN = 1
    # apart are in angle order, and edges of one angle have keys at most 1
    # apart.  Each key is packed above the edge code u << w | v, and one
    # native sort of the packed ints orders the edges by (key, u, v).
    xs, ys = k.lifted()
    shifted = [x << _LIFT_BITS for x in xs]
    w = (n - 1).bit_length()
    low, shift = (1 << w) - 1, 2 * w
    edges = []
    for u in range(n):
        ux, uy, ul, code = xs[u], ys[u], shifted[u], u << w
        edges += [(ul - vl) // (abs(vx - ux) + vy - uy) << shift | c
                  for c, vx, vy, vl in zip(range(code + u + 1, code + n), xs[u + 1:], ys[u + 1:], shifted[u + 1:])]
    edges.sort()

    # Runs [i, j): maximal stretches of edges whose adjacent keys are at
    # most _MARGIN apart, and so pack to ints under (_MARGIN + 1) << shift
    # apart, the cheaper test.  Sorting each run by the exact comparator,
    # codes last, gives the order of one stable comparator sort.
    near = (_MARGIN + 1) << shift
    joined = [i for i, a, b in zip(count(1), edges, islice(edges, 1, None))
              if b - a < near and (b >> shift) - (a >> shift) <= _MARGIN]
    runs = []
    for i in joined:  # edge i joins edge i - 1
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i - 1, i + 1])

    def turn(c1: int, c2: int) -> int:
        """Sign of edge c1 x edge c2."""
        return cross_sign(c1 >> w & low, c1 & low, c2 >> w & low, c2 & low)

    def cmp(c1: int, c2: int) -> int:
        return -turn(c1, c2) or (c2 >> w & low) - (c1 >> w & low) or (c1 & low) - (c2 & low)

    def reverses(codes: list[int]) -> list[int]:
        """A run in up order, as the order of its reverses: the same, but
        in each group of exactly parallel edges, which the up order keeps
        together, by the reverse's source (the up target) rising, stably.
        A group ends where two adjacent edges turn: one sign per pair."""
        cuts = [t for t in range(1, len(codes)) if turn(codes[t - 1], codes[t])]
        return [c for a, b in zip([0, *cuts], [*cuts, len(codes)])
                for c in sorted(codes[a:b], key=low.__and__)]

    for i, j in runs:
        edges[i:j] = sorted(edges[i:j], key=cmp_to_key(cmp))
    label = list(range(n))  # shared int objects: ints past 256 are not cached

    def labels(codes: list[int]) -> tuple[list[int], list[int]]:
        return [label[c >> w & low] for c in codes], [label[c & low] for c in codes]

    # The down half is the up half with each edge reversed, in the same
    # order: reversing both edges keeps every turn sign, so only the
    # tie-break, inside the runs, moves an edge.  Then `edges` and a copy
    # become the up labels in place, freeing each packed int in turn.
    down_runs = [(i, j, *labels(reverses(edges[i:j]))) for i, j in runs]
    half, dst = len(edges), edges.copy()
    for i in range(0, half, _BLOCK):
        edges[i:i + _BLOCK], dst[i:i + _BLOCK] = labels(edges[i:i + _BLOCK])
    src = edges
    src += dst
    dst += src[:half]
    for i, j, run_dst, run_src in down_runs:
        src[half + i:half + j], dst[half + i:half + j] = run_src, run_dst
    return src, dst


def _anchor_bounds(src: list[int], dst: list[int], n: int) -> list[int]:
    """For each rank a, at least the size of each convex polygon anchored
    at a: the points on the longest path from a over the up half of the
    edges, in order, plus those on the longest path back to a over the
    down half, less 2.  Up edges climb in rank and down edges descend, so
    both paths keep to the points ranked a on."""
    half = len(src) // 2
    up, down = [1] * n, [1] * n
    for u, v in zip(reversed(src[:half]), reversed(dst[:half])):
        if up[u] <= up[v]:
            up[u] = up[v] + 1
    for u, v in zip(src[half:], dst[half:]):
        if down[v] <= down[u]:
            down[v] = down[u] + 1
    return [x + y - 2 for x, y in zip(up, down)]


def _edge_bounds(src: list[int], dst: list[int], n: int) -> list[int]:
    """For each edge e, at least the size of each convex polygon that has
    e as a side: the points on the longest path over the edges, in order,
    that ends with e, plus those on the longest that starts with e, less
    3.  Such a polygon is one path over the edges in order, back to its
    first point, so it runs through e on two such paths that share e."""
    into, length = [], [1] * n
    for u, v in zip(src, dst):
        lu = length[u] + 1
        into.append(lu)
        if length[v] < lu:
            length[v] = lu
    bound, length = [], [1] * n
    for u, v, lu in zip(reversed(src), reversed(dst), reversed(into)):
        lv = length[v] + 1
        bound.append(lu + lv - 3)
        if length[u] < lv:
            length[u] = lv
    bound.reverse()
    return bound


def ci_dp(points: Iterable[Point] | Scaled) -> CiResult:
    """Largest convexly independent subset via the edge-sorted DP."""
    k = _prepare(points, DP_MAX_POINTS, "ci_dp")
    n = len(k)
    ranked = k.sorted(y_first=True)
    src, dst = _angle_sorted_edges(ranked)

    # For anchor a, the bottom-most then leftmost vertex of the polygon,
    # length[v] is the longest path a -> v over the edges so far, in
    # angle order, through points ranked from a on: no edge may enter a
    # point ranked below a, so none leaves one either.  Every edge out
    # of a comes before every edge into a, so length[a] - 1 ends as the
    # largest polygon with anchor a.  path[v] holds the path to v as
    # persistent (vertex, rest) tuples: a parent array would let a later,
    # longer path to u rewrite a path already extended through u.  An
    # anchor whose bound cannot beat `best` is skipped, and `best` changes
    # only on a strict gain, so it is the full loop's result.  When `best`
    # grows and enough anchors could still beat it, the edges whose own
    # bound cannot are dropped.  A polygon that beats `best` keeps all its
    # edges, and dropping edges never lengthens a path, so each of its
    # edges still relaxes where it did and no kept edge newly overwrites
    # it: the witness is the one the whole list gives.
    bound = _anchor_bounds(src, dst, n)
    best: list[int] = []  # the largest polygon so far, once it has 3 points
    pruned = 0  # the size of `best` when the edges were last pruned
    for a in range(n):
        if bound[a] <= max(len(best), 2):
            continue
        length, path = [0] * n, [None] * n
        length[a], path[a] = 1, (a, None)
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
        if len(best) > pruned and sum(b > len(best) for b in bound[a + 1:]) >= _PRUNE_ANCHORS:
            keep = list(map(len(best).__lt__, _edge_bounds(src, dst, n)))
            src, dst = list(compress(src, keep)), list(compress(dst, keep))
            pruned = len(best)
    if not best:  # at most two points, or all on one line: the first two by (x, y)
        return CiResult(min(n, 2), k.sorted().take(range(min(n, 2))))
    return CiResult(len(best), ranked.take(best))
