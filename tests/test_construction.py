from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sechain.construction as construction
from sechain.construction import (
    STEP_OFFSETS,
    EpsilonSearchError,
    Level,
    base_case,
    build,
    expected_witness_size,
    find_epsilon,
    step,
)
from sechain.geometry import (
    flatten,
    is_south_east_chain,
    midpoint,
    pt,
    rotate60,
    transform_chains,
)
from sechain.numbers import QSqrt3


def _reference_step(level, eps):
    """The doubling on the `QSqrt3` value functions: the oracle for `step`."""
    off = STEP_OFFSETS
    n = len(level.a)
    a_flat, a_rot = transform_chains(level.a, eps)
    b_flat, b_rot = transform_chains(level.b, eps)
    new_a = a_flat + [p + off.rotated_b_in_a for p in b_rot]
    new_b = [p + off.flat_b_in_b for p in b_flat]
    new_b += [p + off.rotated_a_in_b for p in a_rot]
    witness = level.witness + tuple((i, n + i) for i in range(n))
    witness += tuple((n + j, n + i) for i, j in level.witness)
    mids = [midpoint(new_a[i], new_b[j]) for i, j in witness]
    if not all(is_south_east_chain(seq) for seq in (new_a, new_b, mids)):
        return None
    return Level(level.k + 1, tuple(new_a), tuple(new_b), witness,
                 level.eps_history + (eps,))


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


class TestStepOffsets:
    def test_halving_identities(self):
        o = STEP_OFFSETS
        assert o.old_witness_block == midpoint(pt(0, 0), o.flat_b_in_b)
        assert o.matching_block == midpoint(pt(0, 0), o.rotated_a_in_b)
        assert o.rotated_witness_block == midpoint(o.rotated_a_in_b, o.rotated_b_in_a)

    def test_exact_values(self):
        o = STEP_OFFSETS
        assert o.rotated_b_in_a == pt(1, 1)
        assert o.flat_b_in_b == pt(0, 2)
        assert o.rotated_a_in_b == pt(1, Fraction(5, 2))
        assert o.old_witness_block == pt(0, 1)
        assert o.matching_block == pt(Fraction(1, 2), Fraction(5, 4))
        assert o.rotated_witness_block == pt(1, Fraction(7, 4))


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


class TestStep:
    def test_rejects_nonpositive_eps(self):
        for eps in (Fraction(0), Fraction(-1, 8)):
            with pytest.raises(ValueError):
                step(base_case(), eps)

    def test_rejects_large_eps(self):
        # Flattening too little leaves the glued sequences out of order.
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                    Fraction(1, 16)):
            assert step(base_case(), eps) is None

    def test_accepts_small_eps(self):
        lv = step(base_case(), Fraction(1, 32))
        assert lv is not None
        lv.validate()
        assert lv.k == 2
        assert len(lv.a) == len(lv.b) == 4
        assert len(lv.witness) == 8
        assert lv.eps_history == (Fraction(1, 32),)

    def test_witness_index_layout(self):
        lv = step(base_case(), Fraction(1, 32))
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
        lv = step(base_case(), Fraction(1, 32))
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
            got = step(levels[k], eps)
            assert got == _reference_step(levels[k], eps)
            verdicts.add(got is None)

        agrees()
        assert verdicts == {True, False}

    def test_returned_level_passed_three_chain_checks(self, monkeypatch):
        sizes = []
        real = construction.is_south_east_chain

        def recording(points):
            sizes.append(len(points))
            return real(points)

        monkeypatch.setattr(construction, "is_south_east_chain", recording)
        level = base_case()
        for eps in (Fraction(1, 32),) + (Fraction(1, 16),) * 6:
            sizes.clear()
            level = step(level, eps)
            # new_a, new_b, then the witness midpoints.
            n = len(level.a)
            assert sizes == [n, n, expected_witness_size(level.k)]
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

            flat_c = [flatten(p, eps) for p in old_mids]
            rot_c = [rotate60(p) for p in flat_c]
            mean_a = [
                midpoint(flatten(p, eps), rotate60(flatten(p, eps)))
                for p in lv.a
            ]
            o = STEP_OFFSETS
            assert list(mids[:w]) == [o.old_witness_block + p for p in flat_c]
            assert list(mids[w:w + n]) == [o.matching_block + p for p in mean_a]
            assert list(mids[w + n:]) == [o.rotated_witness_block + p for p in rot_c]

    def test_chain_blocks_are_translates(self):
        lv = base_case()
        eps = Fraction(1, 32)
        new = step(lv, eps)
        n = len(lv.a)
        flat_a = [flatten(p, eps) for p in lv.a]
        flat_b = [flatten(p, eps) for p in lv.b]
        o = STEP_OFFSETS
        assert list(new.a[:n]) == flat_a
        assert list(new.a[n:]) == [o.rotated_b_in_a + rotate60(p) for p in flat_b]
        assert list(new.b[:n]) == [o.flat_b_in_b + p for p in flat_b]
        assert list(new.b[n:]) == [o.rotated_a_in_b + rotate60(p) for p in flat_a]


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
            assert step(lv, eps) == nxt
            assert step(lv, 2 * eps) is None

    def test_smaller_dyadics_also_accepted(self):
        for lv in (base_case(), build(3)):
            eps = find_epsilon(lv).eps_history[-1]
            assert step(lv, eps / 2) is not None
            assert step(lv, eps / 4) is not None

    def test_exponent_cap(self):
        with pytest.raises(EpsilonSearchError):
            find_epsilon(base_case(), max_exponent=4)
        capped = find_epsilon(base_case(), max_exponent=5)
        assert capped.eps_history == (Fraction(1, 32),)

    def test_search_starts_at_previous_exponent(self):
        # Level 2 was built with 2**-5 and level 3 needs 2**-4.  Starting
        # the search at 2**-1 walks up to it, at 2**-40 walks down to it.
        lv = build(2)
        expected = find_epsilon(lv)
        assert expected.eps_history[-1] == Fraction(1, 16)
        for start in (Fraction(1, 2), Fraction(1, 2**40)):
            nxt = find_epsilon(replace(lv, eps_history=(start,)))
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
        return Level(**fields)

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
        moved = Level(
            k=lv.k,
            a=tuple(p + off for p in lv.a),
            b=tuple(p + off for p in lv.b),
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
            bad = Level(
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
        bad = Level(lv.k, lv.a, lv.b, ((0, 0), (1, 0), (0, 0)), lv.eps_history)
        verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
        assert verdicts["witness-pairs-distinct"] == (
            False, "pair 2 (0, 0) repeats pair 0"
        )

    def test_broken_chain_is_located(self, levels):
        lv = levels[3]
        a = list(lv.a)
        a[4], a[5] = a[5], a[4]
        bad = Level(lv.k, tuple(a), lv.b, lv.witness, lv.eps_history)
        verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
        assert verdicts["chain-a"] == (
            False, "x does not strictly increase at indices 4,5"
        )
        assert verdicts["chain-b"] == (True, "")

    def test_short_chain_fails(self):
        lv = base_case()
        bad = Level(lv.k, lv.a[:1], lv.b, ((0, 0),), lv.eps_history)
        verdicts = {name: (ok, detail) for name, ok, detail in bad.checks()}
        assert verdicts["chain-a"] == (False, "fewer than 2 points")
        assert verdicts["witness-midpoint-chain"] == (False, "fewer than 2 points")
