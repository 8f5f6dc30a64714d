import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechain import convex_subsets
from sechain.construction import base_case
from sechain.convex_subsets import DP_MAX_POINTS, CiResult, ci_bruteforce, ci_dp
from sechain.geometry import (
    Point,
    Scaled,
    _hull,
    convex_hull,
    is_convexly_independent,
    midpoint_set,
    pt,
)
from sechain.numbers import QSqrt3

from .helpers import convex_position_oracle, points_st, rand_point


def both(points):
    return ci_bruteforce(points), ci_dp(points)


def assert_sound(result: CiResult, points) -> None:
    pool = set(points)
    assert len(result.witness) == result.size
    assert set(result.witness) <= pool
    assert is_convexly_independent(result.witness)
    assert set(convex_hull(result.witness)) == set(result.witness)
    assert_strictly_ccw(result.witness)


def assert_strictly_ccw(witness) -> None:
    """Every cyclic triple of the witness is a strict left turn."""
    m = len(witness)
    if m < 3:
        return
    k = Scaled(list(witness))
    for t in range(m):
        u, v = (t + 1) % m, (t + 2) % m
        assert k.cross_sign(t, u, u, v) > 0, (t, witness)


class TestExamples:
    def test_single_point(self):
        for solver in (ci_bruteforce, ci_dp):
            res = solver([pt(3, 4)])
            assert res.size == 1 and res.witness == (pt(3, 4),)

    def test_collinear_points_give_two(self):
        pts = [pt(0, 0), pt(1, 1), pt(2, 2), pt(3, 3)]
        for solver in (ci_bruteforce, ci_dp):
            res = solver(pts)
            assert res.size == 2
            assert_sound(res, pts)

    def test_duplicates_collapse(self):
        pts = [pt(0, 0), pt(0, 0), pt(1, 0), pt(0, 1)]
        for solver in (ci_bruteforce, ci_dp):
            assert solver(pts).size == 3
            assert solver(Scaled(pts)) == solver(pts)

    def test_base_midpoint_set(self):
        lv = base_case()
        pts = midpoint_set(lv.a, lv.b)
        brute, dp = both(pts)
        assert brute.size == dp.size == 4
        assert_sound(brute, pts)
        assert_sound(dp, pts)

    def test_square_with_center(self):
        pts = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2), pt(1, 1)]
        brute, dp = both(pts)
        assert brute.size == dp.size == 4
        assert pt(1, 1) not in brute.witness
        assert pt(1, 1) not in dp.witness

    def test_bruteforce_prefers_lexicographically_smallest(self):
        # Every pair of collinear points is optimal; the combination scan
        # runs over sorted points, so the first two must be reported.
        pts = [pt(3, 0), pt(1, 0), pt(2, 0), pt(0, 0)]
        res = ci_bruteforce(pts)
        assert res.size == 2
        assert res.witness == (pt(0, 0), pt(1, 0))

    def test_hexagon_in_grid(self):
        grid = [pt(x, y) for x in range(3) for y in range(3)]
        brute, dp = both(grid)
        assert brute.size == dp.size == 6
        assert_sound(dp, grid)

    def test_level_midpoint_set_sizes(self, levels):
        # The exact maxima for levels 1..4; criterion 2 only checks the
        # lower bound (k + 2) * 2**(k - 1).
        for k, size in {1: 4, 2: 10, 3: 22, 4: 51}.items():
            pts = midpoint_set(levels[k].a, levels[k].b)
            res = ci_dp(pts)
            assert res.size == size
            assert_sound(res, pts)

    def test_irrational_coordinates(self):
        s = QSqrt3(0, 1)
        pts = [
            Point(QSqrt3(0), QSqrt3(0)),
            Point(QSqrt3(1), s),
            Point(QSqrt3(2), s + 1),
            Point(QSqrt3(1), QSqrt3(0, -1)),
            Point(QSqrt3(0), s * 2),
        ]
        brute, dp = both(pts)
        assert brute.size == dp.size
        assert_sound(dp, pts)


class TestGuards:
    def test_empty_input(self):
        for solver in (ci_bruteforce, ci_dp):
            with pytest.raises(ValueError):
                solver([])

    def test_bruteforce_cap(self):
        pts = [pt(i, i * i) for i in range(21)]
        with pytest.raises(ValueError):
            ci_bruteforce(pts)
        assert ci_bruteforce(pts, max_points=21).size == 21

    def test_bruteforce_signs_each_turn_once(self, monkeypatch):
        # A sign on 4000-digit coordinates is costly, so the search, however
        # many subsets it grows, signs each ordered turn of the points once.
        rng, big = random.Random("turns"), 10**4000
        pts = [pt(rng.randint(-9, 9) * (big if i % 5 == 0 else 1), rng.randint(-9, 9))
               for i in range(16)]
        calls, cross_sign = [], Scaled.cross_sign

        def counting(self, *args):
            calls.append(args)
            return cross_sign(self, *args)

        monkeypatch.setattr(Scaled, "cross_sign", counting)
        ci_bruteforce(pts)
        n = len(set(pts))
        assert len(calls) == len(set(calls)) <= n * (n - 1) * (n - 2) // 3

    def test_dp_cap(self):
        pts = [pt(i, 0) for i in range(2501)]
        with pytest.raises(ValueError):
            ci_dp(pts)

    def test_one_point_over_the_cap_is_refused_before_any_sort(self, monkeypatch):
        def no_sort(cmp):
            raise AssertionError("sorted a point set over the cap")

        monkeypatch.setattr(convex_subsets, "cmp_to_key", no_sort)
        for solver, cap in ((ci_dp, DP_MAX_POINTS), (ci_bruteforce, 20)):
            pts = [pt(i, i * i) for i in range(cap + 1)] + [pt(0, 0)]
            for given in (pts, Scaled(pts)):
                with pytest.raises(ValueError, match=f"refuses more than {cap} points"):
                    solver(given)


class TestAgreement:
    def _instance(self, rng: random.Random, flavor: str):
        if flavor == "random":
            return [rand_point(rng) for _ in range(rng.randint(1, 12))]
        if flavor == "irrational":
            return [rand_point(rng, irrational=True) for _ in range(rng.randint(3, 10))]
        if flavor == "collinear":
            base = rand_point(rng)
            d = pt(1, rng.randint(-2, 2))
            line = [base + Point(d.x * i, d.y * i) for i in range(rng.randint(3, 6))]
            extra = [rand_point(rng) for _ in range(rng.randint(0, 4))]
            return line + extra
        if flavor == "duplicates":
            pool = [rand_point(rng) for _ in range(rng.randint(2, 6))]
            return [rng.choice(pool) for _ in range(rng.randint(4, 12))]
        if flavor == "grid":
            w, h = rng.randint(2, 3), rng.randint(2, 4)
            return [pt(x, y) for x in range(w) for y in range(h)]
        if flavor == "lattice":
            # Parallel edges on distinct lines, and collinear runs.
            w, h = rng.randint(2, 5), rng.randint(2, 4)
            cells = [pt(x, y) for x in range(w) for y in range(h)]
            return rng.sample(cells, min(len(cells), rng.randint(5, 12)))
        raise AssertionError(flavor)

    @pytest.mark.parametrize(
        "flavor", ["random", "irrational", "collinear", "duplicates", "grid", "lattice"]
    )
    def test_dp_matches_bruteforce(self, flavor):
        rng = random.Random(f"agree-{flavor}")
        for _ in range(25):
            pts = self._instance(rng, flavor)
            brute, dp = both(pts)
            assert brute.size == dp.size, pts
            assert_sound(brute, pts)
            assert_sound(dp, pts)
            # An oracle independent of the `Scaled` kernel both solvers share.
            assert convex_position_oracle(brute.witness)
            assert convex_position_oracle(dp.witness)


class TestInvariances:
    def test_translation_and_scaling(self):
        rng = random.Random("inv")
        pts = [rand_point(rng) for _ in range(10)]
        base = ci_dp(pts).size
        off = pt(17, Fraction(-5, 3))
        scale = QSqrt3(Fraction(3, 7))
        moved = [p + off for p in pts]
        scaled = [Point(p.x * scale, p.y * scale) for p in pts]
        assert ci_dp(moved).size == base
        assert ci_dp(scaled).size == base

    def test_adding_a_point_never_hurts(self):
        rng = random.Random("mono")
        pts = [rand_point(rng) for _ in range(8)]
        size = ci_dp(pts).size
        for _ in range(5):
            pts.append(rand_point(rng))
            new_size = ci_dp(pts).size
            assert new_size >= size
            size = new_size

    def test_deterministic_and_order_independent(self):
        rng = random.Random("det")
        pts = [rand_point(rng) for _ in range(12)]
        first = ci_dp(pts)
        again = ci_dp(pts)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        third = ci_dp(shuffled)
        assert first == again == third


_lattice_st = st.builds(pt, st.integers(0, 4), st.integers(0, 3))


@st.composite
def _collinear_st(draw):
    base = draw(points_st)
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1), (1, -2)]))
    line = [base + pt(dx * i, dy * i) for i in range(draw(st.integers(3, 6)))]
    return line + draw(st.lists(points_st, max_size=4))


# The point sets of `TestAnchorBound`, `TestEdgeBound` and `TestEdgeOrder`.
_small_sets_st = st.one_of(
    st.lists(points_st, min_size=2, max_size=9),
    st.lists(_lattice_st, min_size=2, max_size=9),
    _collinear_st(),
)


def unit_power(m: int) -> tuple[int, int]:
    """(A, B) with (2 + sqrt(3))**m = A + B*sqrt(3); then A**2 - 3*B**2 = 1
    and (2 - sqrt(3))**m = A - B*sqrt(3) is below 2**-m."""
    a, b = 1, 0
    for _ in range(m):
        a, b = 2 * a + 3 * b, a + 2 * b
    return a, b


def key_edge(m: int, e: tuple[int, int]) -> tuple[int, int, int, int]:
    """A row difference (dxa, dxb, dya, dyb) with (2**64 + m)*dx + m*dy = e,
    componentwise, for an odd m in (-2**64, 0) and dx = dxa + dxb*sqrt(3).

    With dx > 0, its pseudo-angle -dx / (dx + dy) is then m / 2**64 less
    e over 2**64 * (dx + dy), so for a tiny e, 2**64 times the pseudo-angle
    lies within a hair of the integer m, far closer than the filter's
    error, which alone then decides on which side of m the key lands."""
    lift = (1 << 64) + m
    dx = [c * pow(lift, -1, -m) % -m for c in e]
    dy = [(c - lift * x) // m for c, x in zip(e, dx)]
    assert all(lift * x + m * y == c for c, x, y in zip(e, dx, dy))
    return dx[0], dx[1], dy[0], dy[1]


def by_angle(k: Scaled) -> tuple[list[int], list[int]]:
    """The edge order `ci_dp` must reproduce: one stable comparator sort
    of the upward edge codes u*n + v by angle, then of their reverses,
    parallel edges ordered by source rank."""
    n, cross_sign = len(k), k.cross_sign

    def sort(codes: list[int], reverses: bool) -> list[int]:
        def cmp(c1: int, c2: int) -> int:
            u1, v1 = divmod(c1, n)
            u2, v2 = divmod(c2, n)
            return -cross_sign(u1, v1, u2, v2) or (v1 - v2 if reverses else u2 - u1)
        return sorted(codes, key=cmp_to_key(cmp))

    up = sort([u * n + v for u in range(n) for v in range(u + 1, n)], False)
    down = sort(up, True)
    return ([c // n for c in up] + [c % n for c in down],
            [c % n for c in up] + [c // n for c in down])


class TestEdgeOrder:
    """The keyed edge sort gives exactly the comparator order."""

    @staticmethod
    def assert_comparator_order(points) -> None:
        ranked = sorted(set(points), key=lambda p: (p.y, p.x))
        k = Scaled(ranked)
        assert Scaled(list(points)).sorted(y_first=True).points() == ranked
        assert convex_subsets._angle_sorted_edges(k) == by_angle(k)

    def test_lattice_with_parallel_and_horizontal_edges(self):
        grid = [pt(x, y) for x in range(6) for y in range(5)]
        self.assert_comparator_order(grid)
        rng = random.Random("lattice-order")
        for _ in range(10):
            self.assert_comparator_order(rng.sample(grid, rng.randint(3, 20)))

    def test_negative_sqrt3_parts(self):
        rng = random.Random("sqrt3-order")
        for _ in range(10):
            pts = [
                Point(QSqrt3(rng.randint(-9, 9), -rng.randint(0, 4)),
                      QSqrt3(Fraction(rng.randint(-9, 9), 4), rng.randint(-4, 4)))
                for _ in range(rng.randint(3, 25))
            ]
            self.assert_comparator_order(pts)

    def test_level_midpoint_sets(self, levels):
        for k in (2, 3):
            self.assert_comparator_order(midpoint_set(levels[k].a, levels[k].b))

    def test_directions_closer_than_the_key_resolves(self):
        # From (0, 0), the edges to (1, 2**70) and (2, 2**70) have cot
        # 2**-70 and 2**-69: one key, floor(2**64 * -cot) = -1, but not
        # parallel; (-1, 2**70) and the vertical (0, 2**70) share key 0.
        tall = 2**70
        assert floor(2**64 * Fraction(-1, tall)) == floor(2**64 * Fraction(-2, tall)) == -1
        assert floor(2**64 * Fraction(1, tall)) == floor(2**64 * Fraction(0, tall)) == 0
        pts = [pt(0, 0), pt(1, tall), pt(2, tall), pt(-1, tall), pt(0, tall),
               pt(3, 2 * tall), pt(-2, 2 * tall + 1), Point(QSqrt3(1), QSqrt3(0, tall))]
        self.assert_comparator_order(pts)
        brute, dp = both(pts)
        assert brute.size == dp.size

    def test_coordinates_near_the_digit_limit(self):
        big = 10**4200
        rng = random.Random("digits-order")
        pts = [
            pt(big + rng.randint(-5, 5), Fraction(rng.randint(-5, 5), big + 1))
            for _ in range(6)
        ] + [pt(Fraction(big - i, 7), big * i) for i in range(3)]
        self.assert_comparator_order(pts)
        brute, dp = ci_bruteforce(pts), ci_dp(pts)
        assert brute.size == dp.size
        assert_sound(dp, pts)

    def test_rises_of_a_unit_power(self):
        # dy = (2 + sqrt(3))**40 = A + B*sqrt(3) has A**2 - 3*B**2 = 1, and
        # from (3, 1) the conjugate's sign is < 0.
        A, B = unit_power(40)
        assert A * A - 3 * B * B == 1 and B > 2**64
        tall = QSqrt3(A, B)
        pts = [pt(0, 0), pt(3, 1)] + [Point(QSqrt3(x), tall) for x in (-1, 0, 1, 2)]
        pts += [Point(QSqrt3(1), tall + 1), Point(QSqrt3(-2), tall * 2)]
        self.assert_comparator_order(pts)
        brute, dp = both(pts)
        assert brute.size == dp.size

    def test_near_horizontal_edges(self):
        # Rises of j * (2 - sqrt(3))**37, below 2**-70, over runs of up to
        # 10**6: pseudo-angles within 2**-64 of a horizontal edge's -1, mixed
        # with horizontal edges (one rise) and rises of either sign.
        A, B = unit_power(37)
        pts = [Point(QSqrt3(x), QSqrt3(j * A, -j * B))
               for x in (-3, 0, 1, 10**6) for j in (-1, 0, 1, 2)]
        pts += [Point(QSqrt3(0, 1), QSqrt3(A, -B)), Point(QSqrt3(2, -1), QSqrt3(-A, B))]
        self.assert_comparator_order(pts)
        brute, dp = ci_bruteforce(pts), ci_dp(pts)
        assert brute.size == dp.size

    def test_keys_one_apart(self, monkeypatch):
        # Edges whose exact keys lie within a hair of one integer, so that
        # the filter's error decides on which side each key lands: edges
        # along d and sqrt(3) * d, whose errors have opposite signs, from
        # two points and from one (where the codes break the tie), and
        # edges of two directions on either side of that integer.  Each set
        # has two edges whose keys are 1 apart and out of the comparator's
        # order, which a margin of 0 would keep.
        m = -(1 << 63) + 12345
        A, B = unit_power(100)
        A2, B2 = unit_power(96)
        d, e = key_edge(m, (A, -B)), key_edge(m, (-A, B))
        near = [key_edge(m, (-3 * B2, A2)), key_edge(m, (3 * B2, -A2))]
        o, c = (0, 0, 0, 0), (-1, 0, 5, 0)

        def sqrt3(r):
            return 3 * r[1], r[0], 3 * r[3], r[2]

        def plus(r, t):
            return tuple(map(sum, zip(r, t)))

        for rows in ([o, d, c, plus(c, sqrt3(d))], [o, e, sqrt3(e)],
                     [o, near[0], c, plus(c, near[1])]):
            pts = [Point(QSqrt3(xa, xb), QSqrt3(ya, yb)) for xa, xb, ya, yb in rows]
            self.assert_comparator_order(pts)
            k = Scaled(sorted(pts, key=lambda p: (p.y, p.x)))
            with monkeypatch.context() as patch:
                patch.setattr(convex_subsets, "_MARGIN", 0)
                assert convex_subsets._angle_sorted_edges(k) != by_angle(k)

    def test_short_edges_of_wide_rows(self):
        # Coordinates i*e + j*e', e = (2 - sqrt(3))**20 and e' = e * (2 -
        # sqrt(3)): rows of up to 41 bits for differences of about 2**-36,
        # where the combined coordinates are least precise for an edge.
        A, B = unit_power(20)
        A2, B2 = unit_power(21)
        rng = random.Random("short-edges")
        for _ in range(6):
            pts = [Point(QSqrt3(i * A + j * A2, -i * B - j * B2), QSqrt3(k * A + l * A2, -k * B - l * B2))
                   for i, j, k, l in (tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(14))]
            self.assert_comparator_order(pts)

    def test_one_wide_row_sets_the_width(self):
        # One point of 4000 digits sets the bit bound, and so the filter's
        # precision, for every edge between the small points too.
        rng = random.Random("one-wide-row")
        pts = [Point(QSqrt3(rng.randint(-6, 6), rng.randint(-2, 2)),
                     QSqrt3(Fraction(rng.randint(-6, 6), 2), rng.randint(-2, 2)))
               for _ in range(12)]
        pts.append(pt(10**4000 + 1, Fraction(-(10**4000), 3)))
        self.assert_comparator_order(pts)
        brute, dp = both(pts)
        assert brute.size == dp.size

    @given(_small_sets_st)
    def test_matches_the_comparator(self, points):
        ranked = convex_subsets._prepare(points, 10**4, "test").sorted(y_first=True)
        assert convex_subsets._angle_sorted_edges(ranked) == by_angle(ranked)


def anchor_bounds(points) -> tuple[Scaled, list[int]]:
    """The points ranked by (y, x), and `ci_dp`'s bound for each rank."""
    ranked = convex_subsets._prepare(points, 10**4, "test").sorted(y_first=True)
    src, dst = convex_subsets._angle_sorted_edges(ranked)
    return ranked, convex_subsets._anchor_bounds(src, dst, len(ranked))


def largest_by_anchor(ranked: Scaled) -> list[int]:
    """For each rank, the largest convex subset of 2+ points whose lowest
    point by (y, x) it is, by brute force over index subsets."""
    n, best = len(ranked), [0] * len(ranked)
    for size in range(2, n + 1):
        for combo in combinations(range(n), size):
            if len(_hull(range(size), ranked.take(combo).sorted().turn)) == size:
                best[combo[0]] = size
    return best


class TestAnchorBound:
    """The per-anchor bound that lets `ci_dp` skip an anchor is never below
    the largest convex polygon anchored there."""

    @given(_small_sets_st)
    def test_at_least_bruteforce_per_anchor(self, points):
        ranked, bounds = anchor_bounds(points)
        for a, size in enumerate(largest_by_anchor(ranked)):
            assert bounds[a] >= size, (points, a)

    @settings(max_examples=12)
    @given(st.integers(30, 120), st.booleans(), st.integers(0, 2**32 - 1))
    def test_at_least_dp(self, size, lattice, seed):
        rng = random.Random(seed)
        if lattice:
            cells = [pt(x, y) for x in range(12) for y in range(12)]
            points = rng.sample(cells, size)
        else:
            points = [rand_point(rng, irrational=rng.random() < 0.5) for _ in range(size)]
        assert max(anchor_bounds(points)[1]) >= ci_dp(points).size, points

    def test_level4_runs_two_anchors(self, levels):
        # The first anchor already finds the optimum, 51, of 256 points,
        # and only ranks 0 and 1 have a bound that could beat it.
        _, bounds = anchor_bounds(midpoint_set(levels[4].a, levels[4].b))
        assert [a for a, bound in enumerate(bounds) if bound > 51] == [0, 1]

    def test_whole_set_bound_by_level(self, levels):
        # The README's research table: k, then the largest bound.
        for k, bound in {1: 4, 2: 10, 3: 23, 4: 52}.items():
            assert max(anchor_bounds(midpoint_set(levels[k].a, levels[k].b))[1]) == bound


def edge_bounds(points) -> tuple[Scaled, dict[tuple[int, int], int]]:
    """The points ranked by (y, x), and `ci_dp`'s bound for each directed
    edge between ranks."""
    ranked = convex_subsets._prepare(points, 10**4, "test").sorted(y_first=True)
    src, dst = convex_subsets._angle_sorted_edges(ranked)
    return ranked, dict(zip(zip(src, dst), convex_subsets._edge_bounds(src, dst, len(ranked))))


def largest_by_edge(ranked: Scaled) -> dict[tuple[int, int], int]:
    """For each directed edge between ranks, the largest convex subset of
    3+ points that has it as a counterclockwise side, by brute force over
    index subsets; edges on no such subset are left out."""
    xy = ranked.sorted()
    rank = {row: i for i, row in enumerate(ranked.rows)}
    to_rank = [rank[row] for row in xy.rows]
    best: dict[tuple[int, int], int] = {}
    for size in range(3, len(ranked) + 1):
        for combo in combinations(range(len(ranked)), size):
            ring = [to_rank[i] for i in _hull(combo, xy.turn)]
            if len(ring) == size:
                for u, v in zip(ring, ring[1:] + ring[:1]):
                    best[u, v] = size
    return best


class TestEdgeBound:
    """The per-edge bound that lets `ci_dp` drop an edge is never below the
    largest convex polygon that has that edge as a side, and dropping the
    edges leaves the witness as the whole edge list gives it."""

    @given(_small_sets_st)
    def test_at_least_bruteforce_per_edge(self, points):
        ranked, bounds = edge_bounds(points)
        n = len(ranked)
        assert len(bounds) == n * (n - 1)
        assert min(bounds.values(), default=2) >= 2
        for edge, size in largest_by_edge(ranked).items():
            assert bounds[edge] >= size, (points, edge)

    @pytest.mark.parametrize("lattice", [False, True])
    def test_pruning_keeps_the_witness(self, lattice, monkeypatch):
        rng = random.Random(f"prune-{lattice}")
        cells = [pt(x, y) for x in range(9) for y in range(9)]
        pruned, edge_bounds = [], convex_subsets._edge_bounds

        def counting(src, dst, n):
            pruned.append(len(src))
            return edge_bounds(src, dst, n)

        monkeypatch.setattr(convex_subsets, "_edge_bounds", counting)
        for _ in range(6):
            if lattice:
                points = rng.sample(cells, rng.randint(20, 60))
            else:
                points = [rand_point(rng, irrational=rng.random() < 0.5)
                          for _ in range(rng.randint(20, 60))]
            monkeypatch.setattr(convex_subsets, "_PRUNE_ANCHORS", 10**9)
            whole = ci_dp(points)
            monkeypatch.setattr(convex_subsets, "_PRUNE_ANCHORS", 1)
            assert ci_dp(points) == whole, points
        assert len(pruned) >= 6
