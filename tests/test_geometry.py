import random
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sechain.geometry import (
    Point,
    Scaled,
    chain_defect,
    convex_hull,
    cross,
    is_convexly_independent,
    is_south_east_chain,
    midpoint_set,
    pt,
    transform_chains,
)
from sechain.numbers import QSqrt3

from .helpers import (
    SQRT3,
    chain_defect_locator,
    chains_st,
    convex_position_oracle,
    div,
    dyadic_st,
    flatten,
    interval_sign,
    midpoint,
    points_st,
    qsqrt3_st,
    rand_chain,
    rand_point,
    rotate60,
    slope,
    south_east_chain_oracle,
    xy_key,
    yx_key,
)


# `TestSlope`, `TestRotate60` and `TestFlatten` check the value reference
# in tests/helpers.py that the shipped integer maps are tested against.
class TestSlope:
    def test_examples(self):
        assert slope(pt(0, 0), pt(2, 1)) == QSqrt3(Fraction(1, 2))
        assert slope(pt(0, 2), pt(2, 4)) == QSqrt3(1)
        assert slope(pt(0, 0), Point(QSqrt3(1), SQRT3)) == SQRT3

    def test_requires_increasing_x(self):
        with pytest.raises(ValueError):
            slope(pt(1, 0), pt(1, 5))
        with pytest.raises(ValueError):
            slope(pt(2, 0), pt(1, 5))

    @given(points_st, points_st)
    def test_antisymmetry_is_ruled_out(self, a, b):
        if (b.x - a.x).sign() == 1:
            assert slope(a, b) * (b.x - a.x) == b.y - a.y


class TestCross:
    def test_orientation_examples(self):
        assert cross(pt(0, 0), pt(1, 0), pt(0, 1)).sign() == 1
        assert cross(pt(0, 0), pt(0, 1), pt(1, 0)).sign() == -1
        assert cross(pt(0, 0), pt(1, 1), pt(2, 2)).sign() == 0

    @given(points_st, points_st, points_st)
    def test_alternating(self, a, b, c):
        assert cross(a, b, c) == -cross(a, c, b)
        assert cross(a, b, c) == cross(b, c, a)


class TestSouthEastChain:
    def test_accepts_increasing_slopes(self):
        assert is_south_east_chain([pt(0, 0), pt(2, 1), pt(3, 3)])

    def test_two_points_need_only_monotone_coordinates(self):
        assert is_south_east_chain([pt(0, 0), pt(1, 5)])
        assert not is_south_east_chain([pt(0, 0), pt(1, 0)])
        assert not is_south_east_chain([pt(0, 0), pt(0, 1)])

    def test_rejects_collinear(self):
        assert not is_south_east_chain([pt(0, 0), pt(2, 1), pt(4, 2)])

    def test_rejects_decreasing_slopes(self):
        assert not is_south_east_chain([pt(0, 0), pt(1, 2), pt(2, 3)])

    def test_too_short(self):
        with pytest.raises(ValueError):
            is_south_east_chain([pt(0, 0)])

    @given(chains_st())
    def test_generated_chains_pass(self, chain):
        assert is_south_east_chain(chain)

    @given(chains_st(min_len=3))
    def test_reversal_fails(self, chain):
        assert not is_south_east_chain(tuple(reversed(chain)))


# Components over unrelated denominators, so `Scaled` has to bring every
# coordinate to one shared scale.
_dens = st.integers(min_value=1, max_value=60)
_nums = st.integers(min_value=-1000, max_value=1000)
_mixed_coord = st.builds(
    lambda a, da, b, db: QSqrt3(Fraction(a, da), Fraction(b, db)),
    _nums, _dens, _nums, _dens,
)
_mixed_points = st.builds(Point, _mixed_coord, _mixed_coord)


@st.composite
def _near_zero(draw):
    """(a - b*sqrt(3)) / d, or its negative, with |a| within 2 of b*sqrt(3)."""
    b = draw(st.integers(min_value=1, max_value=10**12))
    a = isqrt(3 * b * b) + draw(st.integers(min_value=-2, max_value=2))
    s, d = draw(st.sampled_from((1, -1))), draw(_dens)
    return QSqrt3(Fraction(s * a, d), Fraction(-s * b, d))


@st.composite
def _near_chains(draw):
    """2 to 8 points: mixed-sign points, or a chain as drawn, with one point
    moved (by mixed-sign or nearly cancelling offsets, or onto the midpoint
    of its neighbours), or with two neighbours swapped."""
    kind = draw(st.sampled_from(("mixed", "chain", "moved", "midpoint", "swapped")))
    if kind == "mixed":
        return draw(st.lists(_mixed_points, min_size=2, max_size=8))
    points = list(draw(chains_st(max_len=8)))
    i = draw(st.integers(min_value=0, max_value=len(points) - 1))
    if kind == "moved":
        offset = st.one_of(st.just(QSqrt3(0)), _mixed_coord, _near_zero())
        points[i] = Point(points[i].x + draw(offset), points[i].y + draw(offset))
    elif kind == "midpoint" and 0 < i < len(points) - 1:
        points[i] = midpoint(points[i - 1], points[i + 1])
    elif kind == "swapped":
        i = min(i, len(points) - 2)
        points[i], points[i + 1] = points[i + 1], points[i]
    return points


class TestChainDefect:
    def test_chain_has_no_defect(self):
        assert chain_defect([pt(0, 0), pt(2, 1), pt(3, 3)]) == ""

    def test_locates_coordinate_failures(self):
        assert chain_defect([pt(0, 0), pt(0, 1)]) == (
            "x does not strictly increase at indices 0,1"
        )
        assert chain_defect([pt(0, 0), pt(1, 2), pt(2, 2)]) == (
            "y does not strictly increase at indices 1,2"
        )

    def test_locates_turn_failure(self):
        points = [pt(0, 0), pt(1, 1), pt(2, 3), pt(3, 4)]
        assert chain_defect(points) == "turn at indices 1,2,3 is not strictly left"

    def test_coordinates_are_checked_before_turns(self):
        # The turn at 0,1,2 fails too, but y stalls between 2 and 3.
        points = [pt(0, 0), pt(1, 2), pt(2, 3), pt(3, 3)]
        assert chain_defect(points) == "y does not strictly increase at indices 2,3"

    def test_short_sequences_are_defects(self):
        assert chain_defect([]) == "fewer than 2 points"
        assert chain_defect([pt(0, 0)]) == "fewer than 2 points"

    @given(st.lists(points_st, min_size=2, max_size=6))
    def test_agrees_with_predicate(self, points):
        assert (chain_defect(points) == "") == is_south_east_chain(points)

    @given(_near_chains())
    @settings(max_examples=300)
    def test_agrees_with_independent_locator(self, points):
        expected = chain_defect_locator(points)
        assert chain_defect(points) == expected
        assert chain_defect(Scaled(points)) == expected

    @pytest.mark.parametrize("heights, is_chain", [
        ((0, 1, 3, 6, 10), True), ((0, 2, 3, 5), False), ((0, 1, 2, 3), False),
    ])
    def test_oracle_decides_near_horizontal_pell_chains(self, heights, is_chain):
        # e = p - q*sqrt(3), p**2 - 3q**2 = 1, is about 2**-70: 128-bit
        # intervals can neither sign e nor order points e apart in x.
        p, q = _pell_pairs(70)[-1]
        e = QSqrt3(p, -q)
        points = [Point(i * e, c * e * e) for i, c in enumerate(heights)]
        assert interval_sign(e) is None
        assert south_east_chain_oracle(points) == is_chain
        assert (chain_defect(points) == "") == is_chain


@st.composite
def _kernel_points(draw):
    """Four points: random, or p, p + (c, 0), r, r + (x, z) with z near 0.

    In the second form dy between r and s, maybe dx too, and the turn
    (q - p) x (s - r) = c*z have parts up to about 1e12 that cancel to
    a few units: the case in which `sign2` has to compare squares.
    """
    if draw(st.booleans()):
        return draw(st.lists(_mixed_points, min_size=4, max_size=4))
    p, r, z = draw(_mixed_points), draw(_mixed_points), draw(_near_zero())
    c = QSqrt3(Fraction(draw(st.integers(min_value=1, max_value=9)), draw(_dens)))
    x = draw(st.one_of(_mixed_coord, _near_zero()))
    return [p, Point(p.x + c, p.y), r, Point(r.x + x, r.y + z)]


@st.composite
def _points_with_ties(draw):
    """Mixed-sign points that repeat and share x or y values."""
    xs = draw(st.lists(_mixed_coord, min_size=1, max_size=4))
    ys = draw(st.lists(_mixed_coord, min_size=1, max_size=4))
    return draw(st.lists(st.builds(Point, st.sampled_from(xs), st.sampled_from(ys)), max_size=14))


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _pell_pairs(bits: int) -> list[tuple[int, int]]:
    """The solutions (p, q) of p**2 - 3q**2 = 1 from (2, 1) up to the first
    p of at least `bits` bits."""
    pairs = [(2, 1)]
    while pairs[-1][0].bit_length() < bits:
        p, q = pairs[-1]
        pairs.append((2 * p + 3 * q, p + 2 * q))
    return pairs


class TestScaled:
    """The orientation kernel against field arithmetic and interval signs."""

    @staticmethod
    def _agree(kernel_sign, value):
        # At these sizes 128-bit intervals are inconclusive only at 0.
        expected = interval_sign(value)
        assert kernel_sign == value.sign() == (expected or 0)

    @given(_kernel_points())
    @settings(max_examples=200)
    def test_signs_match_oracles(self, pts):
        k = Scaled(pts)
        xs, ys = k.lifted()
        for i, j in permutations(range(4), 2):
            self._agree(_sign(xs[j] - xs[i]), pts[j].x - pts[i].x)
            self._agree(_sign(ys[j] - ys[i]), pts[j].y - pts[i].y)
        for p, q, r, s in permutations(range(4)):
            a, b, c, d = pts[p], pts[q], pts[r], pts[s]
            turn = (b.x - a.x) * (d.y - c.y) - (b.y - a.y) * (d.x - c.x)
            self._agree(k.cross_sign(p, q, r, s), turn)
            self._agree(k.cross_sign(p, q, p, s), cross(a, b, d))

    @given(_points_with_ties())
    def test_order_and_subsets_match_the_point_forms(self, pts):
        k = Scaled(pts)
        assert k.sorted().points() == sorted(pts, key=xy_key)
        assert k.sorted(y_first=True).points() == sorted(pts, key=yx_key)
        assert k.distinct().points() == list(dict.fromkeys(pts))
        assert k.take(range(len(pts) - 1, -1, -1)).points() == pts[::-1]
        # Over a multiple of the least scale, `reduced` finds that scale again.
        tripled = Scaled.from_rows([tuple(3 * c for c in row) for row in k.rows], 3 * k.s)
        again = tripled.reduced()
        assert (again.rows, again.s) == (k.rows, k.s) and again.points() == pts
        n = len(pts) // 2
        pairs = [(i, j) for i in range(n) for j in range(len(pts) - n)][::-1]
        assert k.midpoints(n, pairs).points() == [midpoint(pts[i], pts[n + j]) for i, j in pairs]

    @given(_points_with_ties(), _points_with_ties(), st.integers(0, 60))
    def test_midpoint_set_matches_the_value_form(self, a, b, limit):
        # Rows of a are added whole, until the set holds more than limit.
        def reference(ps):
            return {midpoint(p, q) for p in ps for q in b}

        last = next((i for i in range(len(a)) if len(reference(a[:i + 1])) > limit), len(a))
        got = Scaled(a + b).midpoint_set(len(a), limit).points()
        assert len(got) == len(set(got))
        assert set(got) == reference(a[:last + 1])

    def test_near_zero_pair_examples(self):
        # Convergents of sqrt(3): 18817 - 10864*sqrt(3) is about 2.7e-5.
        x = QSqrt3(Fraction(18817, 7), Fraction(-10864, 7)) + Fraction(1, 3)
        y = QSqrt3(0, Fraction(1, 5))
        k = Scaled([pt(Fraction(1, 3), 0), Point(x, y), pt(Fraction(1, 3), y)])
        xs, ys = k.lifted()
        assert _sign(xs[1] - xs[0]) == 1 and _sign(xs[0] - xs[1]) == -1
        assert _sign(ys[1] - ys[0]) == 1
        assert xs[2] == xs[0] and ys[2] == ys[1]  # equal coordinates, equal integers

    @pytest.mark.parametrize("bits", [8, 40, 72, 136, 200, 13300])  # 13300 bits: 4000 digits
    def test_orders_of_pell_near_ties_match_the_exact_keys(self, bits):
        # With p**2 - 3q**2 = 1, p - q*sqrt(3) = 1 / (p + q*sqrt(3)): values
        # within 2**-bits of 0 and of 1, whose differences cancel in both
        # parts.  A lift with f = _LIFT_BITS + b + 8 misorders them.
        pairs = _pell_pairs(bits)[-4:]
        tiny = [QSqrt3(p, -q) for p, q in pairs]
        pool = [QSqrt3(0), QSqrt3(1), tiny[-1] * Fraction(1, 3)]
        pool += [v for e in tiny for v in (e, -e, 1 + e, 1 - e)]
        rng = random.Random(bits)
        pts = [Point(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
        k = Scaled(pts)
        assert k.sorted().points() == sorted(pts, key=xy_key)
        assert k.sorted(y_first=True).points() == sorted(pts, key=yx_key)


class TestRotate60:
    def test_unit_x(self):
        assert rotate60(pt(1, 0)) == Point(
            QSqrt3(Fraction(1, 2)), QSqrt3(0, Fraction(1, 2))
        )

    def test_origin_fixed(self):
        assert rotate60(pt(0, 0)) == pt(0, 0)

    @given(points_st)
    def test_six_turns_are_identity(self, p):
        q = p
        for _ in range(6):
            q = rotate60(q)
        assert q == p

    @given(points_st)
    def test_preserves_squared_norm(self, p):
        q = rotate60(p)
        assert p.x * p.x + p.y * p.y == q.x * q.x + q.y * q.y

    @given(points_st, points_st)
    def test_linear(self, a, b):
        ra, rb = rotate60(a), rotate60(b)
        assert rotate60(Point(a.x + b.x, a.y + b.y)) == Point(ra.x + rb.x, ra.y + rb.y)

    @given(points_st, points_st)
    def test_rotated_slope_formula(self, a, b):
        """For segments with slope in (0, 1/sqrt(3)) the image slope is
        (sqrt(3)*dx + dy) / (dx - sqrt(3)*dy)."""
        dx, dy = b.x - a.x, b.y - a.y
        if dx.sign() != 1 or dy.sign() != 1:
            return
        if (dx - SQRT3 * dy).sign() != 1:  # slope >= 1/sqrt(3)
            return
        lhs = slope(rotate60(a), rotate60(b))
        assert lhs == div(SQRT3 * dx + dy, dx - SQRT3 * dy)

    @given(points_st, points_st)
    def test_midpoint_with_image_slope_formula(self, a, b):
        """Averaging a segment with its rotated image gives slope
        (dx + sqrt(3)*dy) / (sqrt(3)*dx - dy), for slopes in (0, 1/sqrt(3))."""
        dx, dy = b.x - a.x, b.y - a.y
        if dx.sign() != 1 or dy.sign() != 1:
            return
        if (dx - SQRT3 * dy).sign() != 1:
            return
        ma = midpoint(a, rotate60(a))
        mb = midpoint(b, rotate60(b))
        assert slope(ma, mb) == div(dx + SQRT3 * dy, SQRT3 * dx - dy)


class TestFlatten:
    def test_example(self):
        assert flatten(pt(2, 4), Fraction(1, 2)) == pt(1, 1)

    def test_identity_at_one(self):
        assert flatten(pt(3, 5), Fraction(1)) == pt(3, 5)

    def test_rejects_nonpositive(self):
        for eps in (Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                flatten(pt(1, 1), eps)

    @given(points_st, points_st, dyadic_st)
    def test_scales_slopes(self, a, b, eps):
        if (b.x - a.x).sign() != 1:
            return
        fa, fb = flatten(a, eps), flatten(b, eps)
        assert slope(fa, fb) == QSqrt3(eps) * slope(a, b)


class TestTransformChains:
    def test_component_relations(self):
        chain = (pt(0, 0), pt(2, 1))
        eps = Fraction(1, 4)
        flat, rot = transform_chains(chain, eps)
        assert len(flat) == len(rot) == 2
        for f, r, orig in zip(flat, rot, chain):
            assert f == flatten(orig, eps)
            assert r == rotate60(f)
        for eps in (Fraction(0), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                transform_chains(chain, eps)

    @given(chains_st(), dyadic_st)
    def test_flat_sequence_is_chain(self, chain, eps):
        flat, _ = transform_chains(chain, eps)
        assert is_south_east_chain(flat)

    @given(chains_st(), dyadic_st)
    def test_shipped_maps_match_the_reference(self, chain, eps):
        flat = [flatten(p, eps) for p in chain]
        rot = [rotate60(p) for p in flat]
        assert transform_chains(chain, eps) == (flat, rot)
        assert midpoint_set(chain, rot) == {midpoint(p, q) for p in chain for q in rot}


class TestMinkowski:
    def test_midpoint_set_example(self):
        a = [pt(0, 0), pt(2, 1)]
        b = [pt(0, 2), pt(2, 4)]
        assert midpoint_set(a, b) == {
            pt(0, 1),
            pt(1, Fraction(3, 2)),
            pt(1, 2),
            pt(2, Fraction(5, 2)),
        }

    def test_midpoint_collisions_collapse(self):
        pts = [pt(0, 0), pt(1, 1)]
        assert len(midpoint_set(pts, pts)) == 3

    @given(st.lists(points_st, min_size=1, max_size=5),
           st.lists(points_st, min_size=1, max_size=5))
    def test_midpoint_set_is_half_the_sum(self, a, b):
        half = QSqrt3(Fraction(1, 2))
        sums = {Point(u.x + v.x, u.y + v.y) for u in a for v in b}
        scaled = {Point(p.x * half, p.y * half) for p in sums}
        assert midpoint_set(a, b) == scaled


class TestConvexHull:
    def test_square(self):
        square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
        assert convex_hull(square) == [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]

    def test_interior_point_dropped(self):
        square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
        assert convex_hull(square + [pt(1, 1)]) == convex_hull(square)

    def test_edge_midpoint_dropped(self):
        square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
        assert convex_hull(square + [pt(1, 0)]) == convex_hull(square)

    def test_collinear_keeps_endpoints(self):
        assert convex_hull([pt(0, 0), pt(1, 1), pt(2, 2)]) == [pt(0, 0), pt(2, 2)]

    def test_small_inputs(self):
        assert convex_hull([pt(3, 4)]) == [pt(3, 4)]
        assert convex_hull([pt(3, 4), pt(3, 4)]) == [pt(3, 4)]
        assert convex_hull([pt(1, 1), pt(0, 0)]) == [pt(0, 0), pt(1, 1)]

    @given(st.lists(points_st, min_size=1, max_size=10))
    def test_permutation_invariant(self, pts):
        rng = random.Random(0)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert convex_hull(pts) == convex_hull(shuffled)

    @given(st.lists(points_st, min_size=3, max_size=9))
    @settings(max_examples=80)
    def test_hull_contains_and_classifies_every_point(self, pts):
        """Every input point is a hull vertex, on a hull edge, or strictly
        inside; none falls outside any hull edge."""
        hull = convex_hull(pts)
        if len(hull) <= 2:
            # Degenerate hull: all points on one segment.
            lo, hi = hull[0], hull[-1]
            for p in pts:
                assert cross(lo, hi, p).sign() == 0
            return
        for p in pts:
            signs = [
                cross(hull[i], hull[(i + 1) % len(hull)], p).sign()
                for i in range(len(hull))
            ]
            assert -1 not in signs, f"{p} outside hull {hull}"

    @given(st.lists(points_st, min_size=3, max_size=9))
    def test_hull_vertices_are_strict_corners(self, pts):
        hull = convex_hull(pts)
        n = len(hull)
        if n < 3:
            return
        for i in range(n):
            turn = cross(hull[i - 1], hull[i], hull[(i + 1) % n])
            assert turn.sign() == 1


class TestConvexIndependence:
    def test_small_sets(self):
        assert is_convexly_independent([])
        assert is_convexly_independent([pt(0, 0)])
        assert is_convexly_independent([pt(0, 0), pt(1, 0)])

    def test_collinear_triple(self):
        assert not is_convexly_independent([pt(0, 0), pt(1, 1), pt(2, 2)])

    def test_base_midpoint_set(self):
        pts = [pt(0, 1), pt(1, Fraction(3, 2)), pt(1, 2), pt(2, Fraction(5, 2))]
        assert is_convexly_independent(pts)
        assert convex_position_oracle(pts)

    def test_duplicate_breaks_independence(self):
        pts = [pt(0, 0), pt(1, 0), pt(1, 0), pt(0, 1)]
        assert not is_convexly_independent(pts)
        assert not is_convexly_independent(Scaled(pts))

    @given(st.lists(points_st, min_size=1, max_size=7))
    @settings(max_examples=80)
    def test_matches_quartic_oracle(self, pts):
        assert is_convexly_independent(pts) == convex_position_oracle(pts)

    @given(st.lists(points_st, min_size=1, max_size=7))
    @settings(max_examples=80)
    def test_scaled_input_matches_quartic_oracle(self, pts):
        assert is_convexly_independent(Scaled(pts)) == convex_position_oracle(pts)

    @given(chains_st(min_len=2, max_len=7))
    def test_chains_are_convexly_independent(self, chain):
        assert is_convexly_independent(chain)


class TestRandomChainHelpers:
    def test_rand_chain_respects_max_slope(self):
        rng = random.Random(7)
        for _ in range(20):
            chain = rand_chain(rng, 5, max_slope=Fraction(1, 2))
            last = slope(chain[-2], chain[-1])
            assert (last - QSqrt3(Fraction(1, 2))).sign() == -1

    def test_rand_point_irrational_parts(self):
        rng = random.Random(3)
        pts = [rand_point(rng, irrational=True) for _ in range(50)]
        assert any(p.x.q != 0 or p.y.q != 0 for p in pts)


@given(qsqrt3_st, qsqrt3_st)
def test_point_arithmetic(x, y):
    p = Point(x, y)
    assert midpoint(p, p) == p
