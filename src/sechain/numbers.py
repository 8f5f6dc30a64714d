"""Exact arithmetic in the real quadratic field Q(sqrt(3)).

A value is stored as an ordered pair (p, q) of rationals and denotes
p + q*sqrt(3).  Because sqrt(3) is irrational the representation is
unique, so equality is componentwise and every sign query can be decided
without any floating-point arithmetic: when p and q disagree in sign the
comparison of p**2 against 3*q**2 tells which term dominates.

Rational components are `fractions.Fraction` instances, which already
guarantee the canonical form (reduced, positive denominator) and
arbitrary precision.

This is the value layer of the public boundary.  Inside the package a
`QSqrt3` is built only with a `Point` (`geometry.pt`, `Scaled.points`),
and every sign, here too, is `geometry.sign2` on integers, the one
exact kernel.  So an op that computes on integer rows does not load
this module, and no CLI op loads it or `fractions`: a level holds its
flattening factors as pairs of ints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .geometry import _SQRT3_FLOAT, sign2

RationalLike = Union[int, Fraction]
QSqrt3Like = Union[int, Fraction, "QSqrt3"]


class QSqrt3:
    """An element p + q*sqrt(3) of Q(sqrt(3)), immutable and hashable."""

    __slots__ = ("_p", "_q")

    def __init__(self, p: RationalLike = 0, q: RationalLike = 0) -> None:
        if type(p) is not Fraction or type(q) is not Fraction:  # else kept: immutable
            if not isinstance(p, (int, Fraction)) or not isinstance(q, (int, Fraction)):
                raise TypeError("components must be int or Fraction, not float")
            p, q = Fraction(p), Fraction(q)
        self._p = p
        self._q = q

    @property
    def p(self) -> Fraction:
        """Rational part."""
        return self._p

    @property
    def q(self) -> Fraction:
        """Coefficient of sqrt(3)."""
        return self._q

    @classmethod
    def _coerce(cls, value: QSqrt3Like) -> QSqrt3:
        if isinstance(value, QSqrt3):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: QSqrt3Like) -> QSqrt3:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt3(self._p + other._p, self._q + other._q)

    __radd__ = __add__

    def __sub__(self, other: QSqrt3Like) -> QSqrt3:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QSqrt3(self._p - other._p, self._q - other._q)

    def __rsub__(self, other: QSqrt3Like) -> QSqrt3:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: QSqrt3Like) -> QSqrt3:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # (p1 + q1 s)(p2 + q2 s) with s**2 = 3.
        return QSqrt3(
            self._p * other._p + 3 * self._q * other._q,
            self._p * other._q + self._q * other._p,
        )

    __rmul__ = __mul__

    def __neg__(self) -> QSqrt3:
        return QSqrt3(-self._p, -self._q)

    def __pos__(self) -> QSqrt3:
        return self

    # -- exact sign, the one order query, and equality ----------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}: `sign2` of the integer-scaled parts."""
        p, q = self._p, self._q
        return sign2(p.numerator * q.denominator, q.numerator * p.denominator)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QSqrt3(other)
        if not isinstance(other, QSqrt3):
            return NotImplemented
        return self._p == other._p and self._q == other._q

    def __hash__(self) -> int:
        return hash((self._p, self._q))

    def __bool__(self) -> bool:
        return bool(self._p) or bool(self._q)

    # -- conversions ---------------------------------------------------

    def __float__(self) -> float:
        """Approximate value; for display only, never for decisions."""
        return float(self._p) + float(self._q) * _SQRT3_FLOAT

    def __repr__(self) -> str:
        return f"QSqrt3({self._p!r}, {self._q!r})"

    def __str__(self) -> str:
        if self._q == 0:
            return str(self._p)
        if self._p == 0:
            return f"{self._q}*sqrt(3)"
        op = "+" if self._q > 0 else "-"
        return f"{self._p} {op} {abs(self._q)}*sqrt(3)"
