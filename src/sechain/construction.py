"""The builder: doubling chain pairs with large midpoint witnesses.

It makes `level.Level`s.  The step from one level to the next glues a
flattened copy and a rotated flattened copy of each chain:

    new_a = flat(a)            ++ shift + rot(flat(b))
    new_b = shift' + flat(b)   ++ shift'' + rot(flat(a))

Chain lengths double, while the witness grows by the old witness (taken
in the flat copies), one midpoint per index i pairing flat(a)[i] with
its rotated twin, and the old witness again in the rotated copies.
Counts follow len(witness_k) = (k + 2) * 2**(k - 1).

Every candidate flattening factor is accepted or rejected by running the
exact chain predicate on all three glued sequences; nothing is assumed
about "sufficiently small" beyond what is verified.  A factor p/q
travels as the reduced pair (p, q), the one form a level records.
`Level` and `expected_witness_size` resolve here too, imported from
`level`.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from . import InputError
from .geometry import Row, Scaled, chain_defect
from .level import IndexPair, Level, expected_witness_size  # noqa: F401

# The translations that place the chain blocks of a doubled level, as
# integer rows over 2: (1, 1) for rot(flat(b)) in new_a, (0, 2) for
# flat(b) in new_b and (1, 5/2) for rot(flat(a)) in new_b.  By linearity
# the witness blocks of the new level sit at half sums of them.
_OFFSETS = ((2, 0, 2, 0), (0, 0, 4, 0), (2, 0, 5, 0))
MAX_EPS_EXPONENT = 256  # find_epsilon's cap, read at each call


def base_case() -> Level:
    """Level 1: two 2-point chains and a 3-midpoint witness."""
    chains = Scaled.from_rows([(0, 0, 0, 0), (2, 0, 1, 0), (0, 0, 2, 0), (2, 0, 4, 0)], 1)
    level = Level(1, chains, 2, ((0, 0), (1, 0), (1, 1)), ())
    level.validate()
    return level


def step(level: Level, eps: tuple[int, int]) -> Optional[Level]:
    """One doubling with flattening factor eps = p/q, given as the reduced
    pair (p, q) that `find_epsilon` passes and `Level.eps_pairs` records.

    Returns the next level, or None when any of the three glued
    sequences fails the exact chain predicate (the factor was not small
    enough).  A pair that is not positive or not reduced is a usage
    error (ValueError), not a rejection: its level could not be recorded.

    The work is done on the level's integer rows over its scale s, and
    no `Point` is built: `Scaled.flattened`, the map that
    `transform_chains` uses too, gives the flat and rotated copies over
    t = 2*s*q**2 for eps = p/q.  The offsets, integers over 2, are
    scaled up to t to meet them, and the new level is kept over its
    least scale.
    """
    p, q = eps
    if p <= 0 or q <= 0 or gcd(p, q) != 1:
        raise ValueError(f"flattening factor must be a reduced positive pair, not {eps}")
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
    if (chain_defect(Scaled.from_rows(new_a, t)) or chain_defect(Scaled.from_rows(new_b, t))
            or chain_defect(both.midpoints(m, new_witness))):
        return None
    return Level(level.k + 1, both, m, tuple(new_witness), level.eps_pairs + ((p, q),))


class EpsilonSearchError(InputError, RuntimeError):
    """No acceptable power of two found below the exponent cap."""


def find_epsilon(level: Level) -> Level:
    """The next level, built with the largest accepted factor 2**-m, m >= 1.

    The search starts at the previous doubling's exponent (1 at the base
    case), clamped to [1, MAX_EPS_EXPONENT].  If that is accepted it walks
    down while m - 1 is accepted too, else up to the first accepted m.
    Each candidate is decided by running `step` on the pair (1, 2**m), and
    the level `step` proved is returned; its factor is `eps_history[-1]`,
    and twice it was run and rejected unless m = 1.  "Largest" rests on
    "smaller keeps working": factors above a rejected one are not tried.
    """
    m = level.eps_pairs[-1][1].bit_length() - 1 if level.eps_pairs else 1
    m = max(1, min(m, MAX_EPS_EXPONENT))
    nxt = step(level, (1, 2**m))
    if nxt is not None:
        while m > 1 and (up := step(level, (1, 2 ** (m - 1)))) is not None:
            nxt, m = up, m - 1
        return nxt
    while m < MAX_EPS_EXPONENT:
        m += 1
        nxt = step(level, (1, 2**m))
        if nxt is not None:
            return nxt
    raise EpsilonSearchError(
        f"no flattening factor down to 2**-{MAX_EPS_EXPONENT} was "
        f"accepted at level {level.k}"
    )


def build(k: int) -> Level:
    """Construct level k from the base case, verifying every stage."""
    if k < 1:
        raise ValueError("level index must be at least 1")
    level = base_case()
    while level.k < k:
        level = find_epsilon(level)
    return level
