"""Exact additive energies and convolution machinery.

T_k counts 2k-tuples with equal k-fold sums.  Three independent routes are
implemented (tuple counting, spectral moments, convolution powers); they
must agree exactly, and the spectral route asserts the divisibility of the
moment sum by N, which would only fail on an implementation bug.  T_p of
the full d-fold sumset of an independent set has a closed form, the
Krawtchouk sum of `_krawtchouk_energy`.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations, repeat, starmap
from math import comb, prod
from operator import mul, xor
from typing import Optional, Sequence

from .core import BudgetError, DimensionError, ExactnessError, F2Set, distinct_sumset_power
from .dissociation import _extend_basis, is_dissociated
from .wht import IntFunction, inverse_wht, spectrum_of_set, wht

BRUTE_BUDGET = 10**8


def _tuple_sum_counts(elems: Sequence[int], j: int) -> dict[int, int]:
    """counts[v] = number of ordered j-tuples of elems with XOR v."""
    counts = {0: 1}
    for _ in range(j):
        nxt: dict[int, int] = defaultdict(int)
        for v, c in counts.items():
            for a in elems:
                nxt[v ^ a] += c
        counts = dict(nxt)
    return counts


def _brute_preferred(size: int, dim: int, k: int) -> bool:
    spectral_cost = (1 << dim) * (dim + 2 * k)
    brute_cost = size ** ((k + 1) // 2) * (size + 4)
    return brute_cost < spectral_cost and size**k <= BRUTE_BUDGET


def energy_bruteforce(a: F2Set, k: int) -> int:
    """T_k = sum_x r(x)^2, r(x) counting the ordered k-tuples of A with XOR x."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(a) ** k > BRUTE_BUDGET:
        raise BudgetError(f"|A|^k = {len(a) ** k} exceeds budget {BRUTE_BUDGET}")
    if k == 2:  # r(0) = |A|; any other r(x) is twice its count of unordered pairs
        pairs = Counter(starmap(xor, combinations(a.elems, 2)))
        return len(a) ** 2 + 4 * sum(c * c for c in pairs.values())
    return sum(c * c for c in _tuple_sum_counts(a.elems, k).values())


def energy_spectral(a: F2Set, k: int) -> int:
    """T_k = N^-1 sum_r A_hat(r)^(2k); the sum must divide exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    table = spectrum_of_set(a)
    return _spectral_moment(table, k)


def _spectral_moment(table: IntFunction, k: int) -> int:
    n = 1 << table.dim
    total = sum(map(pow, table.values, repeat(2 * k)))
    q, r = divmod(total, n)
    if r:
        raise ExactnessError("spectral moment sum not divisible by N (bug)")
    return q


def energy_convolution(a: F2Set, k: int) -> int:
    """T_k via the k-fold convolution power of the indicator, which `wht`
    reads from the set's points."""
    g = conv_power(a, k)
    return sum(map(mul, g.values, g.values))


def _span_coordinates(sets: Sequence[F2Set], cap: int) -> Optional[list[F2Set]]:
    """The sets in F_2^max(1, r), r the rank of their union, under one
    injective linear map; None as soon as r exceeds cap.

    The map gathers the bits at the leading-bit positions of an echelon basis
    of the span from the one GF(2) reducer, the j-th lowest, p, to bit j (one
    mask and shift p - j per run of consecutive positions).  In a nonzero
    combination of basis vectors the highest leading bit belongs to one term
    only, so it survives: the map is injective on the span, so it keeps every
    XOR relation, hence every T_k, plain or mixed."""
    pivots: dict[int, int] = {}
    for s in sets:
        for e in s.elems:
            if _extend_basis(pivots, e) and len(pivots) > cap:
                return None
    runs: dict[int, int] = defaultdict(int)  # shift p - j -> mask of its positions p
    for j, p in enumerate(sorted(pivots)):
        runs[p - j] |= 1 << p
    shifts = tuple(runs.items())

    def gather(e: int) -> int:
        return sum((e & mask) >> shift for shift, mask in shifts)

    return [F2Set.from_bits(max(1, len(pivots)), map(gather, s.elems)) for s in sets]


def additive_energy(a: F2Set, k: int, method: str = "auto") -> int:
    """T_k(A) by the requested route ("auto" picks the cheaper exact one,
    and the brute route only within its budget).  The table routes and the
    choice run in the coordinates of span(A): 2^rank entries, not 2^n."""
    routes = {"brute": energy_bruteforce, "spectral": energy_spectral, "conv": energy_convolution}
    if method not in ("auto", *routes):
        raise ValueError(f"unknown energy method {method!r}")
    if method != "brute":
        top = a.dim  # "auto" takes brute force at every rank from the first where it wins
        if method == "auto":
            top = next((r for r in range(1, a.dim) if _brute_preferred(len(a), r, k)), a.dim)
        (a,) = _span_coordinates([a], top - 1) or [a]
    if method == "auto":
        method = "brute" if _brute_preferred(len(a), a.dim, k) else "spectral"
    return routes[method](a, k)


def full_sumset_energy(lam: F2Set, d: int, p: int) -> int:
    """T_p(Q) of the full d-fold distinct sumset Q = d Lambda: the Krawtchouk
    sum `_krawtchouk_energy` when Lambda is independent (one GF(2) rank),
    else `additive_energy` of the built sumset."""
    if d < 1 or p < 1:
        raise ValueError("d and p must be >= 1")
    if is_dissociated(lam):
        return _krawtchouk_energy(len(lam), d, p)
    return additive_energy(distinct_sumset_power(lam, d), p)


def _krawtchouk_energy(m: int, d: int, p: int) -> int:
    """T_p(d Lambda) for m independent elements: 2^-m sum_j C(m, j)
    K_d(j; m)^2p, with K_d(j; m) = sum_t (-1)^t C(j, t) C(m - j, d - t).

    The d-subsets S of an independent Lambda have distinct sums, so
    Q_hat(r) = sum_S prod_{l in S} (-1)^<r,l> depends only on the number j
    of l with <r, l> = 1: taking t of S among those j gives K_d(j; m).
    Independence makes r -> (<r, l>)_l a linear map from F_2^n onto F_2^m,
    every fibre of size N/2^m, so C(m, j) N/2^m of the r give j, and
    T_p = N^-1 sum_r Q_hat(r)^2p is the sum above, which must divide
    exactly by 2^m.  With a dependency the map is not onto, and the sum
    misses relations of weight <= 2dp even when the d-fold sums stay
    distinct: a basis of F_2^7 and the sum of its words has T_2 = 9856 at
    d = 2, where the sum gives 7336."""
    total = 0
    for j in range(m + 1):
        k = sum((-1) ** t * comb(j, t) * comb(m - j, d - t) for t in range(d + 1))
        total += comb(m, j) * k ** (2 * p)
    q, r = divmod(total, 1 << m)
    if r:
        raise ExactnessError("Krawtchouk moment sum not divisible by 2^m (bug)")
    return q


def energy_multiset(sets: Sequence[F2Set]) -> int:
    """Mixed energy T_k(A_1, ..., A_2k), spectral product route in span coordinates."""
    if len(sets) < 2 or len(sets) % 2 != 0:
        raise ValueError("need an even number 2k >= 2 of sets")
    dim = sets[0].dim
    for s in sets:
        if s.dim != dim:
            raise DimensionError("sets live in different groups")
    sets = _span_coordinates(sets, dim - 1) or sets
    n = 1 << sets[0].dim
    total = sum(map(prod, zip(*[spectrum_of_set(s).values for s in sets])))
    q, rem = divmod(total, n)
    if rem:
        raise ExactnessError("mixed energy spectral sum not divisible by N (bug)")
    return q


def convolve(f: IntFunction, g: IntFunction) -> IntFunction:
    """(f*g)(x) = sum_s f(s) g(x+s), via transform-multiply-invert."""
    if f.dim != g.dim:
        raise DimensionError("convolution needs equal dimensions")
    fh = wht(f)
    gh = wht(g)
    prod = IntFunction(f.dim, tuple(map(mul, fh.values, gh.values)))
    return inverse_wht(prod)


def conv_power(f: IntFunction | F2Set, k: int) -> IntFunction:
    """k-fold convolution power f * f * ... * f (k factors); a set stands
    for its 0/1 indicator."""
    if k < 1:
        raise ValueError("k must be >= 1")
    fh = wht(f)
    powered = IntFunction(f.dim, tuple(map(pow, fh.values, repeat(k))))
    return inverse_wht(powered)


def energy_function(f: IntFunction, k: int) -> int:
    """T_k(f) = sum_x ((k-fold conv power)(x))^2, cross-checked spectrally."""
    if k < 1:
        raise ValueError("k must be >= 1")
    g = conv_power(f, k)
    by_conv = sum(map(mul, g.values, g.values))
    by_spec = _spectral_moment(wht(f), k)
    if by_conv != by_spec:
        raise ExactnessError("convolution and spectral T_k(f) disagree (bug)")
    return by_conv


def energy_excess_compare(t_small: int, size_small: int, t_big: int, size_big: int, k: int) -> bool:
    """Exact test of D_k(small) > D_k(big) without logs.

    D_k comparison reduces to T_small * |big|^k > T_big * |small|^k.
    """
    return t_small * size_big**k > t_big * size_small**k
