"""Independent exact geometry for benchmark inputs on the grid (a + b*sqrt(3)) / 8.

The benchmark checks the program's convex-subset answers against this
module, so it shares no code with `sechain`: a coordinate is an integer
pair (a, b) standing for (a + b*sqrt(3)) / 8, and every sign is decided
in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

GRID = 8  # coordinates are multiples of 1/GRID in both components


def sign2(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(3)."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > 3 * b * b else sb


def _cmp_xy(p, q) -> int:
    s = sign2(p[0] - q[0], p[1] - q[1])
    return s or sign2(p[2] - q[2], p[3] - q[3])


def sort_points(points):
    """Points (xa, xb, ya, yb) in exact lexicographic (x, y) order."""
    return sorted(points, key=cmp_to_key(_cmp_xy))


def turn(o, p, q) -> int:
    """Sign of the cross product (p - o) x (q - o)."""
    uxa, uxb, uya, uyb = p[0] - o[0], p[1] - o[1], p[2] - o[2], p[3] - o[3]
    vxa, vxb, vya, vyb = q[0] - o[0], q[1] - o[1], q[2] - o[2], q[3] - o[3]
    return sign2(
        uxa * vya + 3 * uxb * vyb - uya * vxa - 3 * uyb * vxb,
        uxa * vyb + uxb * vya - uya * vxb - uyb * vxa,
    )


def hull_size(sorted_points) -> int:
    """Number of strict convex hull corners of distinct, (x, y)-sorted points."""
    if len(sorted_points) <= 2:
        return len(sorted_points)
    size = 0
    for seq in (sorted_points, sorted_points[::-1]):
        chain: list = []
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        size += len(chain) - 1
    return size


def largest_convex_subset(points) -> tuple[int, int]:
    """(size, subsets tested) of an exhaustive search by decreasing size.

    Subsets are visited in the same order as an exhaustive search over the
    (x, y)-sorted points, so the second number is the work such a search does.
    """
    pts = sort_points(set(points))
    n = len(pts)
    tested = 0
    for size in range(n, 2, -1):
        for combo in combinations(pts, size):
            tested += 1
            if hull_size(combo) == size:
                return size, tested
    return min(n, 2), tested


def to_grid(value: Fraction) -> int:
    """Integer numerator of a grid coordinate component; raises if off-grid."""
    scaled = value * GRID
    if scaled.denominator != 1:
        raise ValueError(f"{value} is not on the 1/{GRID} grid")
    return scaled.numerator
