"""Doubling construction of chain pairs with large midpoint witnesses.

A `Level` holds two south-east chains `a` and `b` of equal length
together with a witness: a list of index pairs (i, j) whose midpoints
(a[i] + b[j]) / 2, taken in witness order, again form a south-east
chain.  Since a south-east chain is convexly independent, the witness
exhibits that many points in convex position inside the midpoint set of
the two chains.

The step from one level to the next glues a flattened copy and a
rotated flattened copy of each chain:

    new_a = flat(a)            ++ shift + rot(flat(b))
    new_b = shift' + flat(b)   ++ shift'' + rot(flat(a))

Chain lengths double, while the witness grows by the old witness (taken
in the flat copies), one midpoint per index i pairing flat(a)[i] with
its rotated twin, and the old witness again in the rotated copies.
Counts follow len(witness_k) = (k + 2) * 2**(k - 1).

Every candidate flattening factor is accepted or rejected by running the
exact chain predicate on all three glued sequences; nothing is assumed
about "sufficiently small" beyond what is verified.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Optional

from .geometry import (
    Point,
    Row,
    Scaled,
    chain_defect,
    is_convexly_independent,
    is_south_east_chain,
    midpoint,
    pt,
)
from .numbers import Record

IndexPair = tuple[int, int]
Check = tuple[str, bool, str]


class StepOffsets(Record):
    """Translations that place the chain blocks of a doubled level.

    The three fields anchor the chain copies.  The witness-block anchors
    are forced by linearity to be half sums of them, so they are derived.
    """

    __slots__ = ("rotated_b_in_a", "flat_b_in_b", "rotated_a_in_b")
    rotated_b_in_a: Point  # added to rot(flat(b)) inside new_a
    flat_b_in_b: Point  # added to flat(b) inside new_b
    rotated_a_in_b: Point  # added to rot(flat(a)) inside new_b

    def __init__(self, rotated_b_in_a: Point, flat_b_in_b: Point,
                 rotated_a_in_b: Point) -> None:
        object.__setattr__(self, "rotated_b_in_a", rotated_b_in_a)
        object.__setattr__(self, "flat_b_in_b", flat_b_in_b)
        object.__setattr__(self, "rotated_a_in_b", rotated_a_in_b)

    @property
    def old_witness_block(self) -> Point:  # the flat-copy witness midpoints
        return midpoint(pt(0, 0), self.flat_b_in_b)

    @property
    def matching_block(self) -> Point:  # the flat/rotated pairing midpoints
        return midpoint(pt(0, 0), self.rotated_a_in_b)

    @property
    def rotated_witness_block(self) -> Point:  # the rotated-copy witness midpoints
        return midpoint(self.rotated_a_in_b, self.rotated_b_in_a)


STEP_OFFSETS = StepOffsets(
    rotated_b_in_a=pt(1, 1),
    flat_b_in_b=pt(0, 2),
    rotated_a_in_b=pt(1, Fraction(5, 2)),
)


class Level(Record):
    """A stage of the construction: two chains and a witness, as tuples.

    Constructing a Level proves nothing.  `base_case`, `step` and
    `build` return proved levels; a decoded document is unverified
    until `checks()` or `validate()` has re-proved it.
    """

    __slots__ = ("k", "a", "b", "witness", "eps_history")
    k: int
    a: tuple[Point, ...]
    b: tuple[Point, ...]
    witness: tuple[IndexPair, ...]
    eps_history: tuple[Fraction, ...]

    def __init__(self, k: int, a: tuple[Point, ...], b: tuple[Point, ...],
                 witness: tuple[IndexPair, ...], eps_history: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "eps_history", eps_history)

    def witness_midpoints(self) -> tuple[Point, ...]:
        """Midpoints of the witness pairs, in witness order."""
        return tuple(Scaled(self.a + self.b).midpoints(len(self.a), self.witness).points())

    def checks(self) -> list[Check]:
        """Every level invariant as (name, passed, detail), in fixed order.

        A failed check's detail locates the first failure.  No field is
        trusted: `k` is bounded by the chain length before 2**k is
        computed, and an out-of-range witness pair fails a check.
        """
        k, a, b, witness, eps = self.k, self.a, self.b, self.witness, self.eps_history
        counts = f"|a|={len(a)} |b|={len(b)} |witness|={len(witness)} expected "
        counts_ok = 1 <= k <= len(a).bit_length()
        if counts_ok:
            n, size = 2**k, expected_witness_size(k)
            counts += f"{n}/{n}/{size}"
            counts_ok = len(a) == n == len(b) and len(witness) == size
        else:
            counts += f"2**k points per chain with k={k}"
        if len(eps) != k - 1 or any(e <= 0 for e in eps):
            counts += f"; |eps_history|={len(eps)} expected {k - 1}, all positive"
            counts_ok = False

        n, both = len(a), Scaled(a + b)
        ka, kb = both.take(range(n)), both.take(range(n, len(both)))
        pairs, seen = "", {}
        mids_chain = independence = "witness pairs out of range"
        for t, (i, j) in enumerate(witness):
            if not (0 <= i < len(a) and 0 <= j < len(b)):
                pairs = f"pair {t} ({i}, {j}) is out of range"
                break
            if seen.setdefault((i, j), t) != t:
                pairs = pairs or f"pair {t} ({i}, {j}) repeats pair {seen[i, j]}"
        else:
            mids = both.midpoints(n, witness)
            mids_chain = chain_defect(mids)
            sets = (("chain a", ka), ("chain b", kb), ("witness midpoints", mids))
            independence = next(
                (f"{name}: not convexly independent" for name, points in sets
                 if not is_convexly_independent(points)),
                "",
            )
        chain_a, chain_b = chain_defect(ka), chain_defect(kb)
        return [
            ("counts", counts_ok, counts),
            ("witness-pairs-distinct", not pairs, pairs),
            ("chain-a", not chain_a, chain_a),
            ("chain-b", not chain_b, chain_b),
            ("witness-midpoint-chain", not mids_chain, mids_chain),
            ("convex-independence", not independence, independence),
        ]

    def validate(self) -> None:
        """Re-prove every level invariant; raises ValueError on failure."""
        for name, ok, detail in self.checks():
            if not ok:
                raise ValueError(f"level {self.k}: {name} failed: {detail}")


def expected_witness_size(k: int) -> int:
    """Closed form (k + 2) * 2**(k - 1) of the witness recurrence."""
    return (k + 2) * 2 ** (k - 1)


def base_case() -> Level:
    """Level 1: two 2-point chains and a 3-midpoint witness."""
    level = Level(
        k=1,
        a=(pt(0, 0), pt(2, 1)),
        b=(pt(0, 2), pt(2, 4)),
        witness=((0, 0), (1, 0), (1, 1)),
        eps_history=(),
    )
    level.validate()
    return level


def step(level: Level, eps: Fraction) -> Optional[Level]:
    """One doubling with flattening factor eps.

    Returns the next level, or None when any of the three glued
    sequences fails the exact chain predicate (the factor was not small
    enough).  An eps <= 0 is a usage error, not a rejection.

    The work is done on integers: both chains and the offsets go into
    one `Scaled` over s, and with eps = p/q every new coordinate is an
    integer over t = 2*s*q**2.  Flattening multiplies x by p*q and y by
    p**2 (over s*q**2); rotation is then exact over t, and the flat copy
    is doubled to meet it.  The values equal `transform_chains`'.
    """
    if not isinstance(eps, Fraction):
        eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("flattening factor must be positive")
    off = STEP_OFFSETS
    n, m = len(level.a), len(level.a) + len(level.b)
    k = Scaled(level.a + level.b + (off.rotated_b_in_a, off.flat_b_in_b, off.rotated_a_in_b))
    p, q = eps.numerator, eps.denominator
    up = 2 * q * q  # an integer over s is up times itself over t
    t, fx, fy = up * k.s, p * q, p * p

    rows = k.rows()
    flat, rot = [], []
    for xa, xb, ya, yb in rows[:m]:
        xa, xb, ya, yb = fx * xa, fx * xb, fy * ya, fy * yb
        flat.append((2 * xa, 2 * xb, 2 * ya, 2 * yb))
        rot.append((xa - 3 * yb, xb - ya, 3 * xb + ya, xa + yb))

    def shifted(block: list[Row], offset: Row) -> list[Row]:
        o = tuple(up * c for c in offset)
        return [tuple(map(add, row, o)) for row in block]

    in_a, in_b, rot_a_in_b = rows[m:]
    new_a = flat[:n] + shifted(rot[n:], in_a)
    new_b = shifted(flat[n:], in_b) + shifted(rot[:n], rot_a_in_b)
    if not (
        is_south_east_chain(Scaled.from_rows(new_a, t))
        and is_south_east_chain(Scaled.from_rows(new_b, t))
    ):
        return None

    new_witness: list[IndexPair] = list(level.witness)
    new_witness += [(i, n + i) for i in range(n)]
    new_witness += [(n + j, n + i) for i, j in level.witness]
    both = Scaled.from_rows(new_a + new_b, t)
    if not is_south_east_chain(both.midpoints(m, new_witness)):
        return None
    points = both.points()
    return Level(
        k=level.k + 1,
        a=tuple(points[:m]),
        b=tuple(points[m:]),
        witness=tuple(new_witness),
        eps_history=level.eps_history + (eps,),
    )


class EpsilonSearchError(RuntimeError):
    """No acceptable power of two found below the exponent cap."""


def find_epsilon(level: Level, max_exponent: int = 256) -> Level:
    """The next level, built with the largest accepted factor 2**-m, m >= 1.

    The search starts at the previous doubling's exponent (1 at the base
    case), clamped to [1, max_exponent].  If that is accepted it walks
    down while m - 1 is accepted too, else up to the first accepted m.
    Each candidate is decided by running `step`, and the level `step`
    proved is returned; its factor is `eps_history[-1]`, and twice it was
    run and rejected unless m = 1.  "Largest" rests on "smaller keeps
    working": factors above a rejected one are not tried.
    """
    history = level.eps_history
    m = history[-1].denominator.bit_length() - 1 if history else 1
    m = max(1, min(m, max_exponent))
    nxt = step(level, Fraction(1, 2**m))
    if nxt is not None:
        while m > 1 and (up := step(level, Fraction(1, 2 ** (m - 1)))) is not None:
            nxt, m = up, m - 1
        return nxt
    while m < max_exponent:
        m += 1
        nxt = step(level, Fraction(1, 2**m))
        if nxt is not None:
            return nxt
    raise EpsilonSearchError(
        f"no flattening factor down to 2**-{max_exponent} was "
        f"accepted at level {level.k}"
    )


def build(k: int, max_eps_exponent: int = 256) -> Level:
    """Construct level k from the base case, verifying every stage."""
    if k < 1:
        raise ValueError("level index must be at least 1")
    level = base_case()
    while level.k < k:
        level = find_epsilon(level, max_exponent=max_eps_exponent)
    return level
