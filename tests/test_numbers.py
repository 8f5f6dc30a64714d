from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sechain.geometry import sign2
from sechain.numbers import QSqrt3

from .helpers import SQRT3, div, exact_sign, interval_sign, nonzero_qsqrt3_st, qsqrt3_st

ZERO, ONE = QSqrt3(0), QSqrt3(1)


class TestConstruction:
    def test_components_are_fractions(self):
        a = QSqrt3(1, Fraction(2, 4))
        assert a.p == 1 and a.q == Fraction(1, 2)
        assert isinstance(a.p, Fraction) and isinstance(a.q, Fraction)

    def test_equality_is_componentwise(self):
        assert QSqrt3(Fraction(2, 4)) == QSqrt3(Fraction(1, 2), 0)
        assert QSqrt3(0, 1) != QSqrt3(1, 0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QSqrt3(0.5)
        with pytest.raises(TypeError):
            ZERO + 0.5


class TestArithmetic:
    def test_sqrt3_squares_to_three(self):
        assert SQRT3 * SQRT3 == QSqrt3(3)

    def test_product_mixes_components(self):
        # (1 + 2*s)(3 + s) = 3 + 7s + 2*3 = 9 + 7s
        assert QSqrt3(1, 2) * QSqrt3(3, 1) == QSqrt3(9, 7)

    # Division is the test reference's (`helpers.div`); `QSqrt3` has none.
    def test_division_by_conjugate(self):
        # 1 / (2 - s) = (2 + s) / (4 - 3) = 2 + s
        assert div(ONE, QSqrt3(2, -1)) == QSqrt3(2, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            div(ONE, ZERO)

    def test_int_and_fraction_operands(self):
        assert 1 + SQRT3 == QSqrt3(1, 1)
        assert SQRT3 - Fraction(1, 2) == QSqrt3(Fraction(-1, 2), 1)
        assert Fraction(3, 2) * SQRT3 == QSqrt3(0, Fraction(3, 2))

    @given(qsqrt3_st, qsqrt3_st, qsqrt3_st)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a + (-a) == ZERO

    @given(qsqrt3_st, nonzero_qsqrt3_st)
    def test_division_inverts_multiplication(self, a, b):
        assert div(a * b, b) == a
        assert div(a, b) * b == a

    @given(nonzero_qsqrt3_st)
    def test_reciprocal(self, a):
        assert a * div(ONE, a) == ONE


class TestSign:
    def test_zero(self):
        assert ZERO.sign() == 0
        assert QSqrt3(0, 0).sign() == 0

    def test_rational_and_pure_parts(self):
        assert QSqrt3(Fraction(-1, 7)).sign() == -1
        assert QSqrt3(0, Fraction(1, 9)).sign() == 1

    def test_agreeing_parts(self):
        assert QSqrt3(2, 5).sign() == 1
        assert QSqrt3(-1, -1).sign() == -1

    def test_mixed_parts_near_zero(self):
        # 7 - 4*sqrt(3) is positive because 49 > 48.
        assert QSqrt3(7, -4).sign() == 1
        assert QSqrt3(-7, 4).sign() == -1
        # 97 - 56*sqrt(3): 9409 > 9408.
        assert QSqrt3(97, -56).sign() == 1
        assert QSqrt3(-97, 56).sign() == -1

    def test_sqrt3_between_one_and_two(self):
        assert (SQRT3 - 1).sign() == 1
        assert (SQRT3 - 2).sign() == -1

    @given(qsqrt3_st)
    @settings(max_examples=200)
    def test_matches_interval_oracle(self, a):
        expected = interval_sign(a)
        if expected is not None:
            assert a.sign() == expected
        else:
            # 128-bit intervals only straddle zero when the value is zero.
            assert a == ZERO

    @given(st.integers(min_value=-(10**6), max_value=10**6),
           st.integers(min_value=-(10**6), max_value=10**6))
    @settings(max_examples=200)
    def test_never_zero_for_nonzero_mixed(self, p, q):
        # sqrt(3) is irrational, so p + q*sqrt(3) = 0 forces p = q = 0.
        if p != 0 and q != 0:
            assert QSqrt3(p, q).sign() != 0

    @given(qsqrt3_st)
    def test_negation_flips_sign(self, a):
        assert (-a).sign() == -a.sign()


_ints = st.integers(min_value=-(10**15), max_value=10**15)
# Mixed-sign pairs with |a| within 2 of |b|*sqrt(3): the pairs on which
# sign2 has to compare a**2 with 3*b**2.
_near_sqrt3 = st.builds(
    lambda b, d, s: (s * (isqrt(3 * b * b) + d), -s * b),
    st.integers(min_value=1, max_value=10**15),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from((1, -1)),
)


@st.composite
def _lopsided(draw):
    """A mixed-sign pair whose bit lengths differ by at most 3 either way,
    at up to 4000 bits: the pairs that sign2 decides by bit length alone,
    and the ones next to them that it must square."""
    lb = draw(st.integers(min_value=1, max_value=4000))
    la = max(1, lb + draw(st.integers(min_value=-3, max_value=3)))
    a = draw(st.integers(min_value=2 ** (la - 1), max_value=2**la - 1))
    b = draw(st.integers(min_value=2 ** (lb - 1), max_value=2**lb - 1))
    s = draw(st.sampled_from((1, -1)))
    return s * a, -s * b


class TestExactSign:
    # The quartic oracle's sign, from the definition on the Fraction
    # parts, against the interval reference.
    @given(st.one_of(qsqrt3_st, _near_sqrt3.map(lambda pair: QSqrt3(*pair))))
    @example(QSqrt3(97, -56))
    @example(QSqrt3(-18817, 10864))
    @example(QSqrt3(Fraction(7, 3), Fraction(-4, 3)))
    @settings(max_examples=200)
    def test_matches_interval_oracle(self, a):
        expected = interval_sign(a)
        assert exact_sign(a) == (0 if expected is None else expected)
        assert expected is not None or a == ZERO


class TestSign2:
    # Below 10**15, |a + b*sqrt(3)| >= 1/|a - b*sqrt(3)| stays far above
    # the 128-bit interval width, so the oracle is inconclusive only at 0.
    @given(st.one_of(st.tuples(_ints, _ints), _near_sqrt3))
    @example((97, -56))
    @example((-97, 56))
    @example((1351, -780))
    @example((-1351, 780))
    @example((18817, -10864))
    @example((-18817, 10864))
    @settings(max_examples=300)
    def test_matches_interval_oracle(self, pair):
        a, b = pair
        expected = interval_sign(QSqrt3(a, b))
        if expected is None:
            assert a == b == 0
            assert sign2(a, b) == 0
        else:
            assert sign2(a, b) == expected


    # At the edges of both shortcuts: |a| = 2**(lb+1) against the largest
    # b of lb bits, and the largest a of la bits against |b| = 2**la.
    @given(_lopsided())
    @example((2**1001, -(2**1000 - 1)))
    @example((-(2**1001), 2**1000 - 1))
    @example((2**1000 - 1, -(2**1000)))
    @example((1, -1))
    @example((3, -2))
    @settings(max_examples=300)
    def test_lopsided_bit_lengths_match_the_squares(self, pair):
        a, b = pair
        larger = a if a * a > 3 * b * b else b
        assert sign2(a, b) == (1 if larger > 0 else -1)


class TestProtocols:
    def test_hash_follows_equality(self):
        assert hash(QSqrt3(Fraction(2, 4), 0)) == hash(QSqrt3(Fraction(1, 2)))

    def test_bool(self):
        assert not ZERO
        assert SQRT3

    def test_float_approximation(self):
        assert abs(float(SQRT3) - 3**0.5) < 1e-12

    def test_repr_round_trips(self):
        a = QSqrt3(Fraction(1, 2), Fraction(-3, 7))
        assert eval(repr(a), {"QSqrt3": QSqrt3, "Fraction": Fraction}) == a

