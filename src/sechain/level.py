"""The construction record: a `Level` and the checks that re-prove it.

A `Level` holds two south-east chains and a witness, index pairs whose
midpoints again form a south-east chain.  It is made from integer rows
only, as `step` and the decoder give them; `a`, `b`, `eps_history` and
`witness_midpoints()` build `Point`s and `Fraction`s on each read.
Reading a level needs only this module: `verify`, `render` and `ci` of a
construction document load it and not the builder, `construction`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .geometry import Record, Scaled, chain_defect, is_convexly_independent

if TYPE_CHECKING:  # built only when `Level.a`, `.b` or `.eps_history` is read
    from fractions import Fraction

    from .geometry import Point

IndexPair = tuple[int, int]
Check = tuple[str, bool, str]


class Level(Record):
    """A stage of the construction: two chains and a witness.

    Chain a is the first n rows of `chains` and chain b the rest, held
    over their least scale, so equal rows are equal points; `eps_pairs`
    holds the factors as reduced pairs (p, q), q > 0.  Constructing a
    Level proves nothing: `base_case`, `step` and `build` return proved
    levels; a decoded document is unverified until `checks()` or
    `validate()` re-proves it.
    """

    __slots__ = ("k", "chains", "n", "witness", "eps_pairs")
    k: int
    chains: Scaled
    n: int
    witness: tuple[IndexPair, ...]
    eps_pairs: tuple[tuple[int, int], ...]

    def __init__(self, k: int, chains: Scaled, n: int, witness: tuple[IndexPair, ...],
                 eps_pairs: tuple[tuple[int, int], ...]) -> None:
        self._set(k, chains.reduced(), n, witness, eps_pairs)

    a = property(lambda self: tuple(self.chains.take(range(self.n)).points()))
    b = property(lambda self: tuple(self.chains.take(range(self.n, len(self.chains))).points()))

    @property
    def eps_history(self) -> tuple[Fraction, ...]:  # `eps_pairs` as `Fraction`s
        from fractions import Fraction

        return tuple([Fraction(p, q) for p, q in self.eps_pairs])

    def _values(self) -> tuple:  # for == and hash: rows over the least scale are points
        return self.k, self.n, self.witness, self.eps_pairs, self.chains.s, *self.chains.rows

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
