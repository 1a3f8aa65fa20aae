"""Dissociativity and restricted-combination family testing over F_2^n.

In characteristic 2 the signs {-1, 0, 1} of a combination collapse to
subset membership, so dissociativity is exactly GF(2) linear independence
and the weight-k family test becomes: no nonempty subset of at most k
elements XORs into the forbidden set R.  This module is therefore *not* a
correct family test for groups where signs matter.
"""

from __future__ import annotations

import random
from math import comb
from typing import Iterable, Optional

from .core import F2Set, Value, subset_sums

DEFAULT_WORK_BUDGET = 5_000_000  # subsets; a test estimated above it is "undecided"


def _extend_basis(pivots: dict[int, int], v: int) -> bool:
    """Reduce v over GF(2) against the pivot table, leading bit -> basis
    vector, and file the nonzero remainder under its leading bit; True iff v
    was independent of the basis.  Each step clears v's leading bit, so the
    remainder's leading bit is new, and the pivots span what was filed."""
    while v:
        b = pivots.get(top := v.bit_length() - 1)
        if b is None:
            pivots[top] = v
            return True
        v ^= b
    return False


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of bit-vectors over GF(2), incremental elimination."""
    pivots: dict[int, int] = {}
    for v in vectors:
        _extend_basis(pivots, v)
    return len(pivots)


def is_dissociated(l: F2Set) -> bool:
    """True iff no nonempty subset XORs to zero (= linear independence)."""
    return gf2_rank(l.elems) == len(l)


class FamilySpec(Value):
    """Weight cap k and forbidden set R (0 must belong to R)."""

    __slots__ = ("k", "forbidden")

    def __init__(self, k: int, forbidden: F2Set) -> None:
        if k < 1:
            raise ValueError("weight cap k must be >= 1")
        if 0 not in forbidden:
            raise ValueError("forbidden set R must contain 0")
        self.k = k
        self.forbidden = forbidden

    @classmethod
    def zero(cls, k: int, dim: int) -> "FamilySpec":
        return cls(k, F2Set(dim, (0,)))


class FamilyCheck:
    """Tri-state result; bench code must never treat 'undecided' as an answer."""

    __slots__ = ("status", "witness", "work")

    def __init__(self, status: str, witness: Optional[tuple[int, ...]], work: int) -> None:
        self.status = status  # "true" | "false" | "undecided"
        self.witness = witness  # offending subset when status == "false"
        self.work = work  # the meet-in-the-middle count of subsets for the shape (|L|, k, |R|)


def in_family(l: F2Set, spec: FamilySpec) -> FamilyCheck:
    """Meet-in-the-middle test of membership in the family Lambda_R(k).

    Splits the ground set in half; any violating subset S splits as
    (S cap A, S cap B) with the halves enumerated independently, so the
    work is ~ C(|L|/2, <=k) per side instead of C(|L|, <=k).  A test within
    the budget with R = {0} and L independent (full GF(2) rank) is "true"
    without the walk; the reported work is the same.
    """
    if l.dim != spec.forbidden.dim:
        raise ValueError("set and forbidden set live in different groups")
    k = spec.k
    elems = l.elems
    half = len(elems) // 2
    a_side, b_side = elems[:half], elems[half:]
    ka = min(k, len(a_side))
    kb = min(k, len(b_side))
    work = sum(comb(len(a_side), s) for s in range(ka + 1))
    work_b = sum(comb(len(b_side), s) for s in range(kb + 1))
    total_work = work + work_b * len(spec.forbidden)
    if total_work > DEFAULT_WORK_BUDGET:
        return FamilyCheck("undecided", None, total_work)
    if len(spec.forbidden) == 1 and gf2_rank(elems) == len(elems):
        return FamilyCheck("true", None, total_work)  # R = {0} and L independent

    # first smallest nonempty A-side subset reaching each XOR
    first: dict[int, tuple[int, ...]] = {}
    for size in range(1, ka + 1):
        for x, combo in subset_sums(a_side, size):
            first.setdefault(x, combo)

    # a B-side subset is the first with its (XOR, size): the test below
    # depends on that pair alone, so an earlier twin would have returned.
    # The A part is empty only when the B part is not.
    r_elems = spec.forbidden.elems
    for sb in range(kb + 1):
        for xb, b_combo in subset_sums(b_side, sb):
            for r in r_elems:
                target = xb ^ r
                a = () if target == 0 and sb else first.get(target)
                if a is not None and len(a) + sb <= k:
                    return FamilyCheck("false", tuple(sorted(a + b_combo)), total_work)
    return FamilyCheck("true", None, total_work)


def random_dissociated(n: int, m: int, seed: int = 0) -> F2Set:
    """Greedy rejection sampling of an m-element dissociated set in F_2^n.

    Deterministic for a fixed seed.  Raises if 256 m draws give fewer than
    m independent words; each draw is independent of the ones kept with
    probability >= 1/2, so the odds of that are below 2^-200.
    """
    if m > n:
        raise ValueError("a dissociated set in F_2^n has at most n elements")
    rng = random.Random(seed)
    chosen: list[int] = []
    pivots: dict[int, int] = {}
    for _ in range(256 * m):
        if len(chosen) == m:
            break
        cand = rng.getrandbits(n)
        if _extend_basis(pivots, cand):  # rejects 0 and every repeat
            chosen.append(cand)
    if len(chosen) < m:
        raise RuntimeError(f"could not extend to {m} elements within retry budget")
    return F2Set.from_bits(n, chosen)
