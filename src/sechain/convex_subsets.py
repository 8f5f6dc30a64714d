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

  The sort is native: each edge u -> v with u < v gets one exact
  integer key, the floor of 2**64 * cot(angle), which never decreases as
  the angle grows, and only edges whose keys are equal (exactly parallel
  edges, or angles closer than the key resolves) are ordered by the
  orientation sign.  A key takes sqrt(3) to 128 bits, fixed once, and
  `floor2` (a square root) only where that leaves two floors open.  The
  reverses follow in the same order, except that within each group of
  exactly parallel edges their own tie-break orders them; the groups end
  where two adjacent edges of a run turn.

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
their cap before any sort.  Then `ci_bruteforce` works on the points in
(x, y) order and `ci_dp` on them in (y, x) order, both from
`Scaled.sorted`, and each returns its witness as rows: a `CiResult`
builds the witness `Point`s only when `witness` is read, and `ci --json`
encodes `witness_rows` as they are.  Both are exact and take every sign
from the one kernel (integers over a shared denominator), so they differ
in algorithm, not in arithmetic.
The oracles independent of that kernel are in `tests/helpers.py` and
`perfbench/exact.py`.
"""

from __future__ import annotations

from functools import cache, cmp_to_key
from itertools import compress
from math import isqrt
from typing import Iterable

from .geometry import Point, Record, Scaled, _hull, floor2


class CiResult(Record):
    """Size of a largest convexly independent subset, plus one witness.

    The witness lists the subset in counterclockwise convex position.  It
    is kept as given: a solver gives it as rows (`witness_rows`), whose
    `Point`s are built when `witness` is read.
    """

    __slots__ = ("size", "_witness")
    size: int
    _witness: tuple[Point, ...] | Scaled

    def __init__(self, size: int, witness: tuple[Point, ...] | Scaled) -> None:
        self._set(size, witness)

    @property
    def witness(self) -> tuple[Point, ...]:
        w = self._witness
        return tuple(w.points()) if isinstance(w, Scaled) else w

    @property
    def witness_rows(self) -> Scaled:
        """The witness as integer rows, in its order."""
        w = self._witness
        return w if isinstance(w, Scaled) else Scaled(list(w))

    def _fields(self) -> dict[str, object]:
        return {"size": self.size, "witness": self.witness}

    def _values(self) -> tuple:
        return self.size, self.witness


DP_MAX_POINTS = 2500  # ci_dp's default cap, the larger of the two
_KEY_BITS = 64  # edge keys resolve cot(angle) to 2**-64
_ROOT_BITS = 128  # sqrt(3) to 2**-128 decides nearly every key
_SQRT3_BELOW = isqrt(3 << 2 * _ROOT_BITS)  # < 2**128 * sqrt(3) < itself + 1
_PRUNE_ANCHORS = 4  # pruning the edges costs about four relaxations of them


def _prepare(points: Iterable[Point] | Scaled, max_points: int, what: str) -> Scaled:
    """The distinct points, refused past `max_points` before any sort."""
    k = (points if isinstance(points, Scaled) else Scaled(list(points))).distinct()
    if not len(k):
        raise ValueError("need at least one point")
    if len(k) > max_points:
        raise ValueError(f"{what} refuses more than {max_points} points")
    return k


def ci_bruteforce(points: Iterable[Point] | Scaled, max_points: int = 20) -> CiResult:
    """Exact maximum by exhaustive search; the cross-check for `ci_dp`.

    It returns the lexicographically smallest largest subset of the points
    in (x, y) order, growing index subsets in that order only while convex
    (so is every subset of a convex set) and able to beat the best so far.
    Each turn's sign is computed once: on big coordinates it is most of the time."""
    k = _prepare(points, max_points, "ci_bruteforce").sorted()
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
    rows, cross_sign = k.rows, k.cross_sign

    # Horizontal edges (angle 0) come first.  Every other edge u -> v
    # has dy > 0 and the key floor(2**64 * -dx/dy), with -dx/dy = (p +
    # q*sqrt(3)) / d after multiplying by the conjugate of dy; it is
    # packed above the edge code u*n + v, which is the input order, so
    # one native sort of the packed ints is a stable sort by key.  The
    # key is floor2(p << 64, q << 64, d) without its square root: with r
    # < 2**128 * sqrt(3) < r + 1, (p + q*sqrt(3)) * 2**128 lies between
    # (p << 128) + q*r and that plus q, so where their floors over d << 64
    # agree, that floor is the key.
    shift = (n * n).bit_length()
    r, lift = _SQRT3_BELOW, _ROOT_BITS - _KEY_BITS
    flat, packed = [], []
    for u in range(n):
        uxa, uxb, uya, uyb = rows[u]
        for v in range(u + 1, n):
            vxa, vxb, vya, vyb = rows[v]
            dya, dyb = vya - uya, vyb - uyb
            if not (dya or dyb):
                flat.append(u * n + v)
                continue
            dxa, dxb = vxa - uxa, vxb - uxb
            p, q, d = 3 * dxb * dyb - dxa * dya, dxa * dyb - dxb * dya, dya * dya - 3 * dyb * dyb
            low, den = (p << _ROOT_BITS) + q * r, d << lift
            key = low // den
            if (low + q) // den != key:
                key = floor2(p << _KEY_BITS, q << _KEY_BITS, d)
            packed.append(key << shift | (u * n + v))
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

    def turn(c1: int, c2: int) -> int:
        """Sign of edge c1 x edge c2."""
        u1, v1 = divmod(c1 & mask, n)
        u2, v2 = divmod(c2 & mask, n)
        return cross_sign(u1, v1, u2, v2)

    def cmp(c1: int, c2: int) -> int:
        return -turn(c1, c2) or (c2 & mask) // n - (c1 & mask) // n

    def reverses(codes: list[int]) -> list[int]:
        """A run in up order, as the order of its reverses: the same, but
        in each group of exactly parallel edges, which the up order keeps
        together, by the reverse's source (the up target) rising, stably.
        A group ends where two adjacent edges turn: one sign per pair."""
        cuts = [t for t in range(1, len(codes)) if turn(codes[t - 1], codes[t])]
        return [c for a, b in zip([0, *cuts], [*cuts, len(codes)])
                for c in sorted(codes[a:b], key=lambda c: (c & mask) % n)]

    for i, j in runs:
        edges[i:j] = sorted(edges[i:j], key=cmp_to_key(cmp))
    label = list(range(n))  # shared int objects: ints past 256 are not cached

    def labels(codes: list[int]) -> tuple[list[int], list[int]]:
        return [label[(c & mask) // n] for c in codes], [label[(c & mask) % n] for c in codes]

    # The down half is the up half with each edge reversed, in the same
    # order: reversing both edges keeps every turn sign, so only the
    # tie-break, inside the runs, moves an edge.  The runs' labels are
    # taken first, so that deleting `edges` frees every packed int before
    # the two full label lists are built.
    up_src, up_dst = labels(edges)
    down_runs = [(i, j, *labels(reverses(edges[i:j]))) for i, j in runs]
    del edges
    src, dst, half = up_src + up_dst, up_dst + up_src, len(up_src)
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


def ci_dp(points: Iterable[Point] | Scaled, max_points: int = DP_MAX_POINTS) -> CiResult:
    """Largest convexly independent subset via the edge-sorted DP."""
    k = _prepare(points, max_points, "ci_dp")
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
