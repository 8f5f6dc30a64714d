"""Exact arithmetic in the real quadratic field Q(sqrt(3)).

A value is stored as an ordered pair (p, q) of rationals and denotes
p + q*sqrt(3).  Because sqrt(3) is irrational the representation is
unique, so equality is componentwise and every sign query can be decided
without any floating-point arithmetic: when p and q disagree in sign the
comparison of p**2 against 3*q**2 tells which term dominates.

Rational components are `fractions.Fraction` instances, which already
guarantee the canonical form (reduced, positive denominator) and
arbitrary precision.

`Record` is the base of the package's value records (`Point`, `Level`,
...).  A record names its fields in `__slots__` and sets each
once in its own `__init__`, which also validates; the base makes it
immutable and gives it value `==`, `hash`, a `Name(field=value, ...)`
repr, and copy and pickle.  Records are plain classes rather than
dataclasses, whose import (with `inspect`) and per-class code generation
cost every CLI process several milliseconds, and rather than named
tuples, which are iterable and equal any tuple of the same values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import isqrt, sqrt
from typing import Union

RationalLike = Union[int, Fraction]
QSqrt3Like = Union[int, Fraction, "QSqrt3"]

_SQRT3_FLOAT = sqrt(3.0)


def sign2(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(3) for integers a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    # Mixed signs: |a| vs |b|*sqrt(3).  With la and lb the bit lengths,
    # 2**(la-1) <= |a| < 2**la and 2**(lb-1) <= |b| < 2**lb, so:
    #   la >= lb + 2 gives |a| >= 2**(lb+1) = 2 * 2**lb > sqrt(3)*|b|;
    #   lb >= la + 1 gives sqrt(3)*|b| >= sqrt(3) * 2**la > 2**la > |a|.
    # Otherwise compare a**2 with 3*b**2: equality is impossible for
    # nonzero integers, so the larger square wins.
    la, lb = a.bit_length(), b.bit_length()
    if la >= lb + 2:
        return sa
    if lb > la:
        return sb
    return sa if a * a > 3 * b * b else sb


def floor2(a: int, b: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(3)) / d for integers a, b and d != 0."""
    if d < 0:
        a, b, d = -a, -b, -d
    # For b != 0, |b|*sqrt(3) is irrational, so it lies strictly between
    # r and r + 1; and floor(y / d) = floor(floor(y) / d) for any real y.
    r = isqrt(3 * b * b)
    return (a + (r if b >= 0 else -r - 1)) // d


class Record:
    """An immutable value record over `__slots__`; subclasses are final.

    `==` holds between records of one class with equal fields, `hash` is
    the hash of the field tuple, and copy and pickle rebuild a record by
    calling its class with its fields, so its validation runs again.
    Setting or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Set the fields in `__slots__` order; for `__init__`."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _fields(self) -> dict[str, object]:
        """The arguments the class is called with, by name."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(self._fields().values())


@total_ordering
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

    # -- exact sign and order -----------------------------------------

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

    def __lt__(self, other: QSqrt3Like) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

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
