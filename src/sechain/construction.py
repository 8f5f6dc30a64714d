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
about "sufficiently small" beyond what is verified.  A level holds its
chains as integer rows and its factors as pairs of ints; `Point`s and
`Fraction`s are built only when `.a`, `.b` or `.eps_history` is read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .geometry import (Record, Row, Scaled, chain_defect, is_convexly_independent,
                       is_south_east_chain)

if TYPE_CHECKING:  # built only when `Level.a`, `.b` or `.eps_history` is read
    from fractions import Fraction

    from .geometry import Point

IndexPair = tuple[int, int]
Check = tuple[str, bool, str]

# The translations that place the chain blocks of a doubled level, as
# integer rows over 2: (1, 1) for rot(flat(b)) in new_a, (0, 2) for
# flat(b) in new_b and (1, 5/2) for rot(flat(a)) in new_b.  By linearity
# the witness blocks of the new level sit at half sums of them.
_OFFSETS = ((2, 0, 2, 0), (0, 0, 4, 0), (2, 0, 5, 0))


class Level(Record):
    """A stage of the construction: two chains and a witness.

    It takes chains a and b as `Point`s and holds them as integer rows:
    `chains` has a's n points, then b's, over their least scale, so equal
    rows are equal points; `eps_pairs` holds the factors as reduced pairs
    (p, q), q > 0.  Constructing a Level proves nothing: `base_case`,
    `step` and `build` return proved levels; a decoded document is
    unverified until `checks()` or `validate()` re-proves it.
    """

    __slots__ = ("k", "chains", "n", "witness", "eps_pairs")
    k: int
    chains: Scaled
    n: int
    witness: tuple[IndexPair, ...]
    eps_pairs: tuple[tuple[int, int], ...]

    def __init__(self, k: int, a: Sequence[Point], b: Sequence[Point],
                 witness: tuple[IndexPair, ...], eps_history: tuple[Fraction, ...]) -> None:
        self._set(k, Scaled([*a, *b]), len(a), witness,
                  tuple((e.numerator, e.denominator) for e in eps_history))

    @classmethod
    def from_rows(cls, k: int, chains: Scaled, n: int, witness: tuple[IndexPair, ...],
                  eps_pairs: tuple[tuple[int, int], ...]) -> Level:
        """The level of chain a = the first n rows of `chains`, b = the rest."""
        level = cls.__new__(cls)
        level._set(k, chains.reduced(), n, witness, eps_pairs)
        return level

    a = property(lambda self: tuple(self.chains.take(range(self.n)).points()))
    b = property(lambda self: tuple(self.chains.take(range(self.n, len(self.chains))).points()))

    @property
    def eps_history(self) -> tuple[Fraction, ...]:  # `eps_pairs` as `Fraction`s
        from fractions import Fraction

        return tuple([Fraction(p, q) for p, q in self.eps_pairs])

    def _values(self) -> tuple:  # for == and hash: rows over the least scale are points
        return self.k, self.n, self.witness, self.eps_pairs, self.chains.s, *self.chains.rows

    def _fields(self) -> dict[str, object]:
        return dict(k=self.k, a=self.a, b=self.b, witness=self.witness,
                    eps_history=self.eps_history)

    def witness_midpoints(self) -> tuple[Point, ...]:
        """Midpoints of the witness pairs, in witness order."""
        return tuple(self.chains.midpoints(self.n, self.witness).points())

    def checks(self) -> list[Check]:
        """Every level invariant as (name, passed, detail), in fixed order.

        A failed check's detail locates the first failure.  No field is
        trusted: `k` is bounded by the chain length before 2**k is
        computed, and an out-of-range witness pair fails a check.
        """
        k, both, n, witness, eps = self.k, self.chains, self.n, self.witness, self.eps_pairs
        n_b = len(both) - n
        counts = f"|a|={n} |b|={n_b} |witness|={len(witness)} expected "
        counts_ok = 1 <= k <= n.bit_length()
        if counts_ok:
            size = expected_witness_size(k)
            counts += f"{2**k}/{2**k}/{size}"
            counts_ok = n == 2**k == n_b and len(witness) == size
        else:
            counts += f"2**k points per chain with k={k}"
        if len(eps) != k - 1 or any(p <= 0 for p, _ in eps):
            counts += f"; |eps_history|={len(eps)} expected {k - 1}, all positive"
            counts_ok = False

        ka, kb = both.take(range(n)), both.take(range(n, len(both)))
        pairs, seen = "", {}
        mids_chain = independence = "witness pairs out of range"
        for t, (i, j) in enumerate(witness):
            if not (0 <= i < n and 0 <= j < n_b):
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
    chains = Scaled.from_rows([(0, 0, 0, 0), (2, 0, 1, 0), (0, 0, 2, 0), (2, 0, 4, 0)], 1)
    level = Level.from_rows(1, chains, 2, ((0, 0), (1, 0), (1, 1)), ())
    level.validate()
    return level


def step(level: Level, eps: Fraction | int | tuple[int, int]) -> Optional[Level]:
    """One doubling with flattening factor eps: an int, a `Fraction`, or
    a reduced pair (p, q), q > 0, as `find_epsilon` passes it.

    Returns the next level, or None when any of the three glued
    sequences fails the exact chain predicate (the factor was not small
    enough).  An eps <= 0 or a float is a usage error, not a rejection.

    The work is done on the level's integer rows over its scale s, and
    no `Point` is built: `Scaled.flattened`, the map that
    `transform_chains` uses too, gives the flat and rotated copies over
    t = 2*s*q**2 for eps = p/q.  The offsets, integers over 2, are
    scaled up to t to meet them, and the new level is kept over its
    least scale.
    """
    if isinstance(eps, float):
        raise TypeError("flattening factor must be int or Fraction, not float")
    p, q = eps if isinstance(eps, tuple) else (eps.numerator, eps.denominator)
    n, m = level.n, len(level.chains)
    flat, rot = level.chains.flattened(p, q)
    t, up = flat.s, flat.s // 2  # an integer over 2 is up times itself over t
    flat, rot = flat.rows, rot.rows

    def shifted(block: list[Row], offset: Row) -> list[Row]:
        oxa, oxb, oya, oyb = (up * c for c in offset)
        return [(xa + oxa, xb + oxb, ya + oya, yb + oyb) for xa, xb, ya, yb in block]

    in_a, in_b, rot_a_in_b = _OFFSETS
    new_a = flat[:n] + shifted(rot[n:], in_a)
    new_b = shifted(flat[n:], in_b) + shifted(rot[:n], rot_a_in_b)
    w = len(level.witness)
    new_witness: list[IndexPair] = list(level.witness)
    new_witness += [(i, n + i) for i in range(n)]
    new_witness += [(n + j, n + i) for i, j in level.witness]
    rows = new_a + new_b
    both = Scaled.from_rows(rows, t)
    # Where a factor is too large, a junction of two blocks fails first:
    # the four points around each (indices n and 3n of both, |W| and |W| + n
    # of the witness midpoints) reject it before the three full proofs.
    junctions = [Scaled.from_rows(rows[j - 2:j + 2], t) for j in (n, 3 * n)]
    junctions += [both.midpoints(m, new_witness[j - 2:j + 2]) for j in (w, w + n)]
    if any(map(chain_defect, junctions)):
        return None
    if not (
        is_south_east_chain(Scaled.from_rows(new_a, t))
        and is_south_east_chain(Scaled.from_rows(new_b, t))
        and is_south_east_chain(both.midpoints(m, new_witness))
    ):
        return None
    return Level.from_rows(level.k + 1, both, m, tuple(new_witness),
                           level.eps_pairs + ((p, q),))


class EpsilonSearchError(RuntimeError):
    """No acceptable power of two found below the exponent cap."""


def find_epsilon(level: Level, max_exponent: int = 256) -> Level:
    """The next level, built with the largest accepted factor 2**-m, m >= 1.

    The search starts at the previous doubling's exponent (1 at the base
    case), clamped to [1, max_exponent].  If that is accepted it walks
    down while m - 1 is accepted too, else up to the first accepted m.
    Each candidate is decided by running `step` on the pair (1, 2**m), and
    the level `step` proved is returned; its factor is `eps_history[-1]`,
    and twice it was run and rejected unless m = 1.  "Largest" rests on
    "smaller keeps working": factors above a rejected one are not tried.
    A cap below 1 leaves no factor to try and raises ValueError.
    """
    if max_exponent < 1:
        raise ValueError(f"the exponent cap must be at least 1, not {max_exponent}")
    m = level.eps_pairs[-1][1].bit_length() - 1 if level.eps_pairs else 1
    m = max(1, min(m, max_exponent))
    nxt = step(level, (1, 2**m))
    if nxt is not None:
        while m > 1 and (up := step(level, (1, 2 ** (m - 1)))) is not None:
            nxt, m = up, m - 1
        return nxt
    while m < max_exponent:
        m += 1
        nxt = step(level, (1, 2**m))
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
