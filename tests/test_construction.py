import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sechain.construction as construction
from sechain.construction import (
    EpsilonSearchError,
    Level,
    base_case,
    build,
    expected_witness_size,
    find_epsilon,
    step,
)
from sechain.document import construction_to_document, dumps, loads
from sechain.geometry import Point, chain_defect, is_south_east_chain, pt
from sechain.numbers import QSqrt3

from .helpers import chain_defect_locator, flatten, midpoint, points_level, rotate60

# The paper's translations of the glued blocks: rot(flat(b)) in new_a,
# flat(b) in new_b and rot(flat(a)) in new_b.
ROT_B_IN_A, FLAT_B_IN_B, ROT_A_IN_B = pt(1, 1), pt(0, 2), pt(1, Fraction(5, 2))


def _shifted(points, offset: Point) -> list[Point]:
    """Each point translated by `offset`, on `QSqrt3` sums."""
    return [Point(p.x + offset.x, p.y + offset.y) for p in points]


def _transformed(points, eps):
    flat = [flatten(p, eps) for p in points]
    return flat, [rotate60(p) for p in flat]


def _reference_chains(a, b, witness, eps):
    """The doubling of the chains a, b and the witness on the `QSqrt3`
    value functions of `tests/helpers.py`, or None where a glued sequence
    is not a chain."""
    n = len(a)
    a_flat, a_rot = _transformed(a, eps)
    b_flat, b_rot = _transformed(b, eps)
    new_a = a_flat + _shifted(b_rot, ROT_B_IN_A)
    new_b = _shifted(b_flat, FLAT_B_IN_B)
    new_b += _shifted(a_rot, ROT_A_IN_B)
    new_witness = witness + tuple((i, n + i) for i in range(n))
    new_witness += tuple((n + j, n + i) for i, j in witness)
    mids = [midpoint(new_a[i], new_b[j]) for i, j in new_witness]
    if not all(is_south_east_chain(seq) for seq in (new_a, new_b, mids)):
        return None
    return tuple(new_a), tuple(new_b), new_witness


def _reference_step(level, eps):
    """`_reference_chains` on a level: the oracle for `step`."""
    chains = _reference_chains(level.a, level.b, level.witness, eps)
    if chains is None:
        return None
    return points_level(level.k + 1, *chains, level.eps_history + (eps,))


def _pair(eps):
    """A factor as the reduced pair that `step` takes."""
    return eps.numerator, eps.denominator


# Dyadic factors as the search draws them, and others whose denominators
# are not powers of two; both sides of every level's threshold occur.
_factors = st.one_of(
    st.integers(min_value=1, max_value=8).map(lambda m: Fraction(1, 2**m)),
    st.builds(Fraction, st.integers(min_value=1, max_value=4),
              st.integers(min_value=3, max_value=150)),
)


class TestBaseCase:
    def test_exact_coordinates(self):
        lv = base_case()
        assert lv.k == 1
        assert list(lv.a) == [pt(0, 0), pt(2, 1)]
        assert list(lv.b) == [pt(0, 2), pt(2, 4)]
        assert lv.witness == ((0, 0), (1, 0), (1, 1))
        assert lv.eps_history == ()

    def test_witness_midpoints(self):
        mids = base_case().witness_midpoints()
        assert mids == (pt(0, 1), pt(1, Fraction(3, 2)), pt(2, Fraction(5, 2)))
        assert is_south_east_chain(mids)

    def test_validates(self):
        base_case().validate()


class TestWitnessSize:
    def test_closed_form(self):
        assert [expected_witness_size(k) for k in range(1, 9)] == [
            3, 8, 20, 48, 112, 256, 576, 1280,
        ]

    def test_recurrence(self):
        # Each step contributes n new matched pairs plus a mirrored copy.
        for k in range(1, 10):
            assert (
                expected_witness_size(k + 1)
                == 2 * expected_witness_size(k) + 2**k
            )


def _prefix_witness_size(n: int) -> int:
    """f(n) = W(k) + (n - N) + f(n - N) for N = 2**k < n <= 2N, f(1) = 1,
    with W(k) = (k + 2) * 2**(k - 1), and W(0) = 1 = f(1)."""
    if n == 1:
        return 1
    k = (n - 1).bit_length() - 1
    return (k + 2) * 2**k // 2 + (n - 2**k) + _prefix_witness_size(n - 2**k)


def _prefix_witness_closed_form(n: int) -> int:
    """1 + r + the sum over j of 2**(k_j - 1) * (k_j + 2j), where n - 1 =
    2**k_1 + ... + 2**k_r with k_1 > ... > k_r."""
    ks = [k for k in range((n - 1).bit_length() - 1, -1, -1) if (n - 1) >> k & 1]
    return 1 + len(ks) + sum((k + 2 * j) * 2**k // 2 for j, k in enumerate(ks, 1))


class TestPrefixWitness:
    """The first n points of each chain of level 8 and the witness pairs
    inside both prefixes: a witness for every n up to 256."""

    def test_every_prefix_keeps_a_chain_of_f_n_midpoints(self, levels):
        level = levels[8]
        points = level.chains.points()
        a, b = points[:level.n], points[level.n:]
        for n in range(2, level.n + 1):
            pairs = [(i, j) for i, j in level.witness if i < n and j < n]
            prefixes = level.chains.take([*range(n), *range(level.n, level.n + n)])
            assert chain_defect(prefixes.midpoints(n, pairs)) == "", n
            assert len(pairs) == _prefix_witness_size(n) == _prefix_witness_closed_form(n), n
            if n in (3, 12, 100, 255):
                assert chain_defect_locator([midpoint(a[i], b[j]) for i, j in pairs]) == ""

    def test_values(self):
        assert [_prefix_witness_size(n) for n in (3, 5, 7, 12, 24, 48, 100, 200, 255)] == [
            5, 10, 16, 32, 76, 176, 416, 932, 1271,
        ]
        assert [_prefix_witness_size(2**k) for k in range(1, 11)] == [
            expected_witness_size(k) for k in range(1, 11)
        ]


class TestStep:
    def test_rejects_nonpositive_eps(self):
        for eps in ((0, 1), (-1, 8), (1, 0)):
            with pytest.raises(ValueError):
                step(base_case(), eps)

    def test_rejects_a_pair_of_negatives(self):
        # -1/-32 is 1/32, but a level recording (-1, -32) fails its own
        # counts check and no document of it loads.
        with pytest.raises(ValueError, match="reduced positive pair"):
            step(base_case(), (-1, -32))

    def test_rejects_an_unreduced_pair(self):
        # (2, 64) gives the rows of (1, 32), but a level recording it is
        # equal neither to that level nor to its own document round trip.
        with pytest.raises(ValueError, match="reduced positive pair"):
            step(base_case(), (2, 64))

    def test_refuses_float_eps(self):
        # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10.
        for eps in (0.1, 1 / 32, (1, 32.0), (0.5, 1)):
            with pytest.raises(TypeError):
                step(base_case(), eps)

    def test_rejects_large_eps(self):
        # Flattening too little leaves the glued sequences out of order.
        for q in (1, 2, 4, 8, 16):
            assert step(base_case(), (1, q)) is None

    def test_accepts_small_eps(self):
        lv = step(base_case(), (1, 32))
        assert lv is not None
        lv.validate()
        assert lv.k == 2
        assert len(lv.a) == len(lv.b) == 4
        assert len(lv.witness) == 8
        assert lv.eps_history == (Fraction(1, 32),)

    def test_witness_index_layout(self):
        lv = step(base_case(), (1, 32))
        assert lv.witness == (
            (0, 0), (1, 0), (1, 1),          # inherited pairs
            (0, 2), (1, 3),                  # new matching block
            (2, 2), (2, 3), (3, 3),          # mirrored inherited pairs
        )

    def test_first_new_a_point_exact(self):
        # The third point of the level-2 left chain is (1, 1) plus the
        # rotated flattened first point of the old right chain.  With
        # eps = 1/32 the point (0, 2) flattens to (0, 2/1024), which
        # rotates to (-sqrt(3)/1024, 1/1024).
        lv = step(base_case(), (1, 32))
        assert lv.a[2].x == QSqrt3(1, Fraction(-1, 1024))
        assert lv.a[2].y == QSqrt3(Fraction(1025, 1024))

    def test_matches_reference_step(self):
        # Levels 1..3 from the reference alone, so the oracle owes `step` nothing.
        levels = {1: base_case()}
        for k, eps in ((1, Fraction(1, 32)), (2, Fraction(1, 16))):
            levels[k + 1] = _reference_step(levels[k], eps)
        verdicts = set()

        @given(k=st.integers(min_value=1, max_value=3), eps=_factors)
        @example(k=1, eps=Fraction(1, 3))
        @example(k=3, eps=Fraction(2, 97))
        @settings(max_examples=40)
        def agrees(k, eps):
            got = step(levels[k], _pair(eps))
            assert got == _reference_step(levels[k], eps)
            verdicts.add(got is None)

        agrees()
        assert verdicts == {True, False}

    def test_junction_check_agrees_with_reference_step(self):
        # The quick reject at the block junctions turns away no factor
        # that the three full proofs accept, on both sides of every
        # threshold from level 1 to 6.
        level, verdicts = base_case(), Counter()
        for k in range(1, 7):
            for m in range(1, 7):
                eps = Fraction(1, 2**m)
                got = step(level, _pair(eps))
                assert got == _reference_step(level, eps), (k, m)
                verdicts[got is None] += 1
            level = find_epsilon(level)
        assert verdicts[True] and verdicts[False]

    def test_returned_level_passed_three_chain_checks(self, monkeypatch):
        sizes = []
        real = construction.chain_defect

        def recording(points):
            sizes.append(len(points))
            return real(points)

        monkeypatch.setattr(construction, "chain_defect", recording)
        level = base_case()
        for eps in ((1, 32),) + ((1, 16),) * 6:
            sizes.clear()
            level = step(level, eps)
            # Four 4-point junctions, then new_a, new_b and the witness midpoints.
            n = len(level.a)
            assert sizes == [4, 4, 4, 4, n, n, expected_witness_size(level.k)]
        assert level.k == 8

    def test_block_translation_identities(self):
        """The three witness-midpoint blocks are exact translates of the
        flattened, averaged, and rotated copies of the previous data."""
        for lv in (base_case(), build(2), build(3)):
            new = find_epsilon(lv)
            eps = new.eps_history[-1]
            n = len(lv.a)
            w = len(lv.witness)
            mids = new.witness_midpoints()
            old_mids = lv.witness_midpoints()

            flat_c, rot_c = _transformed(old_mids, eps)
            mean_a = [midpoint(f, r) for f, r in zip(*_transformed(lv.a, eps))]
            # By linearity each block sits at a half sum of the offsets.
            origin = pt(0, 0)
            old_witness_block = midpoint(origin, FLAT_B_IN_B)
            matching_block = midpoint(origin, ROT_A_IN_B)
            rotated_witness_block = midpoint(ROT_A_IN_B, ROT_B_IN_A)
            assert (old_witness_block, matching_block, rotated_witness_block) == (
                pt(0, 1), pt(Fraction(1, 2), Fraction(5, 4)), pt(1, Fraction(7, 4))
            )
            assert list(mids[:w]) == _shifted(flat_c, old_witness_block)
            assert list(mids[w:w + n]) == _shifted(mean_a, matching_block)
            assert list(mids[w + n:]) == _shifted(rot_c, rotated_witness_block)

    def test_chain_blocks_are_translates(self):
        lv = base_case()
        eps = Fraction(1, 32)
        new = step(lv, _pair(eps))
        n = len(lv.a)
        flat_a, rot_a = _transformed(lv.a, eps)
        flat_b, rot_b = _transformed(lv.b, eps)
        assert list(new.a[:n]) == flat_a
        assert list(new.a[n:]) == _shifted(rot_b, ROT_B_IN_A)
        assert list(new.b[:n]) == _shifted(flat_b, FLAT_B_IN_B)
        assert list(new.b[n:]) == _shifted(rot_a, ROT_A_IN_B)


class TestFindEpsilon:
    def test_base_value_frozen(self):
        assert find_epsilon(base_case()).eps_history == (Fraction(1, 32),)

    def test_result_is_dyadic_and_maximal(self):
        for lv in (base_case(), build(2), build(4)):
            nxt = find_epsilon(lv)
            eps = nxt.eps_history[-1]
            assert eps.numerator == 1
            m = eps.denominator.bit_length() - 1
            assert eps.denominator == 2**m
            assert step(lv, _pair(eps)) == nxt
            assert step(lv, _pair(2 * eps)) is None

    def test_smaller_dyadics_also_accepted(self):
        for lv in (base_case(), build(3)):
            eps = find_epsilon(lv).eps_history[-1]
            assert step(lv, _pair(eps / 2)) is not None
            assert step(lv, _pair(eps / 4)) is not None

    def test_exponent_cap(self, monkeypatch):
        monkeypatch.setattr(construction, "MAX_EPS_EXPONENT", 4)
        with pytest.raises(EpsilonSearchError):
            find_epsilon(base_case())
        monkeypatch.setattr(construction, "MAX_EPS_EXPONENT", 5)
        capped = find_epsilon(base_case())
        assert capped.eps_history == (Fraction(1, 32),)

    def test_search_starts_at_previous_exponent(self):
        # Level 2 was built with 2**-5 and level 3 needs 2**-4.  Starting
        # the search at 2**-1 walks up to it, at 2**-40 walks down to it.
        lv = build(2)
        expected = find_epsilon(lv)
        assert expected.eps_history[-1] == Fraction(1, 16)
        for start in (Fraction(1, 2), Fraction(1, 2**40)):
            nxt = find_epsilon(points_level(lv.k, lv.a, lv.b, lv.witness, (start,)))
            assert nxt.eps_history == (start, Fraction(1, 16))
            assert (nxt.a, nxt.b, nxt.witness) == (
                expected.a, expected.b, expected.witness
            )

    def test_build_steps_each_candidate_once(self, monkeypatch):
        calls = []
        real_step = construction.step

        def counting_step(level, eps):
            calls.append((level.k, eps))
            return real_step(level, eps)

        monkeypatch.setattr(construction, "step", counting_step)
        build(10)
        # Exponents 1..5 at level 1, 5, 4, 3 at level 2, then 4, 3 per level.
        per_level = Counter(k for k, _ in calls)
        assert per_level == {1: 5, 2: 3, **{k: 2 for k in range(3, 10)}}
        assert len(set(calls)) == len(calls)


class TestBuild:
    def test_level_one_is_base(self):
        assert build(1) == base_case()

    def test_rejects_bad_k(self):
        for k in (0, -3):
            with pytest.raises(ValueError):
                build(k)

    def test_counts_and_history(self):
        lv = build(3)
        lv.validate()
        assert lv.k == 3
        assert len(lv.a) == len(lv.b) == 8
        assert len(lv.witness) == 20
        assert lv.eps_history == (Fraction(1, 32), Fraction(1, 16))

    def test_level_chains_and_witness(self, levels):
        for k, lv in levels.items():
            assert lv.k == k
            assert is_south_east_chain(lv.a)
            assert is_south_east_chain(lv.b)
            assert is_south_east_chain(lv.witness_midpoints())

    def test_witness_pairs_inherit_prefix(self, levels):
        for k in range(1, 8):
            prev, cur = levels[k], levels[k + 1]
            assert cur.witness[: len(prev.witness)] == prev.witness


class TestLevelRows:
    """A level holds its chains as integer rows over their least scale."""

    def test_equals_and_hashes_like_its_decoded_document(self, levels):
        _, parsed = loads(dumps(construction_to_document(levels[5])))
        assert parsed == levels[5] and hash(parsed) == hash(levels[5])

    def test_equals_and_hashes_like_a_level_of_its_points(self, levels):
        lv = levels[5]
        again = points_level(lv.k, lv.a, lv.b, lv.witness, lv.eps_history)
        assert again == lv and hash(again) == hash(lv)

    def test_copy_and_pickle_round_trip(self, levels):
        for clone in (copy.copy(levels[5]), pickle.loads(pickle.dumps(levels[5]))):
            assert type(clone) is Level
            assert clone == levels[5] and hash(clone) == hash(levels[5])

    def test_points_equal_the_reference_on_level_5(self, levels):
        a, b, witness = (pt(0, 0), pt(2, 1)), (pt(0, 2), pt(2, 4)), ((0, 0), (1, 0), (1, 1))
        for eps in levels[5].eps_history:
            a, b, witness = _reference_chains(a, b, witness, eps)
        assert (levels[5].a, levels[5].b, levels[5].witness) == (a, b, witness)

    def test_a_different_point_or_split_differs(self, levels):
        lv = levels[3]
        moved = points_level(lv.k, lv.a[:-1] + (pt(100, 100),), lv.b, lv.witness, lv.eps_history)
        assert moved != lv
        points = lv.a + lv.b
        split = points_level(lv.k, points[:7], points[7:], lv.witness, lv.eps_history)
        assert split != lv and split.chains.rows == lv.chains.rows


class TestLevelValidate:
    def _tamper(self, **overrides):
        lv = base_case()
        fields = {
            "k": lv.k,
            "a": lv.a,
            "b": lv.b,
            "witness": lv.witness,
            "eps_history": lv.eps_history,
        }
        fields.update(overrides)
        return points_level(**fields)

    def test_duplicate_witness_pair(self):
        bad = self._tamper(witness=((0, 0), (0, 0), (1, 1)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_witness_pair_out_of_range(self):
        bad = self._tamper(witness=((0, 0), (1, 0), (1, 2)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_wrong_witness_size(self):
        bad = self._tamper(witness=((0, 0), (1, 1)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_wrong_history_length(self):
        bad = self._tamper(eps_history=(Fraction(1, 32),))
        with pytest.raises(ValueError):
            bad.validate()

    def test_nonpositive_history_entry(self):
        lv = build(2)
        for eps in (Fraction(0), Fraction(-1, 32)):
            bad = points_level(lv.k, lv.a, lv.b, lv.witness, (eps,))
            with pytest.raises(ValueError, match="all positive"):
                bad.validate()

    def test_non_chain_midpoints(self):
        bad = self._tamper(witness=((0, 0), (1, 1), (1, 0)))
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_names_failed_check(self):
        bad = self._tamper(witness=((0, 0), (1, 1), (1, 0)))
        with pytest.raises(ValueError, match="witness-midpoint-chain failed: x"):
            bad.validate()

    def test_translated_level_still_validates(self):
        # Validation is about shape, not absolute position: translating
        # both chains by the same offset keeps every invariant.
        lv = base_case()
        off = pt(5, 7)
        moved = points_level(
            k=lv.k,
            a=tuple(_shifted(lv.a, off)),
            b=tuple(_shifted(lv.b, off)),
            witness=lv.witness,
            eps_history=lv.eps_history,
        )
        moved.validate()


class TestLevelChecks:
    def test_names_order_and_counts_detail(self):
        checks = build(2).checks()
        assert [name for name, _, _ in checks] == [
            "counts",
            "witness-pairs-distinct",
            "chain-a",
            "chain-b",
            "witness-midpoint-chain",
            "convex-independence",
        ]
        assert all(ok for _, ok, _ in checks)
        assert checks[0][2] == "|a|=4 |b|=4 |witness|=8 expected 4/4/8"

    def test_out_of_range_pairs_fail_without_raising(self):
        lv = base_case()
        for pair in ((1, 2), (-1, 0)):
            bad = points_level(
                k=lv.k,
                a=lv.a,
                b=lv.b,
                witness=lv.witness[:2] + (pair,),
                eps_history=lv.eps_history,
            )
            verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
            assert verdicts["witness-pairs-distinct"] == (
                False, f"pair 2 {pair} is out of range"
            )
            assert not verdicts["witness-midpoint-chain"][0]
            assert not verdicts["convex-independence"][0]
            assert verdicts["chain-a"] == verdicts["chain-b"] == (True, "")

    def test_repeated_pair_is_located(self):
        lv = base_case()
        bad = points_level(lv.k, lv.a, lv.b, ((0, 0), (1, 0), (0, 0)), lv.eps_history)
        verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
        assert verdicts["witness-pairs-distinct"] == (
            False, "pair 2 (0, 0) repeats pair 0"
        )

    def test_broken_chain_is_located(self, levels):
        lv = levels[3]
        a = list(lv.a)
        a[4], a[5] = a[5], a[4]
        bad = points_level(lv.k, tuple(a), lv.b, lv.witness, lv.eps_history)
        verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
        assert verdicts["chain-a"] == (
            False, "x does not strictly increase at indices 4,5"
        )
        assert verdicts["chain-b"] == (True, "")

    def test_short_chain_fails(self):
        lv = base_case()
        bad = points_level(lv.k, lv.a[:1], lv.b, ((0, 0),), lv.eps_history)
        verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
        assert verdicts["chain-a"] == (False, "fewer than 2 points")
        assert verdicts["witness-midpoint-chain"] == (False, "fewer than 2 points")
