"""Independent definition-level oracles used to freeze expected values.

Everything here enumerates the definitions directly and stays deliberately
dumb; nothing imports the fast paths it is used to check.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import factorial, prod


def indicator_table(a):
    """The 0/1 table of a set: entry x is 1 exactly when x is in A."""
    return tuple(int(x in a) for x in range(1 << a.dim))


def floor_log2_loop(x):
    """Largest e with 2^e <= x, for x > 0, stepping e from 0 one unit at a time."""
    e = 0
    while Fraction(2) ** e > x:
        e -= 1
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    return e


def naive_wht(values):
    """O(N^2) transform straight from the character-sum definition."""
    n = len(values)
    out = []
    for r in range(n):
        acc = 0
        for x, v in enumerate(values):
            if v:
                acc += -v if (r & x).bit_count() & 1 else v
        out.append(acc)
    return out


def butterfly_wht(values):
    """O(N log N) reference: the in-place butterfly, one pair at a time."""
    vals = list(values)
    n = len(vals)
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            for i in range(start, start + h):
                a = vals[i]
                b = vals[i + h]
                vals[i] = a + b
                vals[i + h] = a - b
        h *= 2
    return vals


def energy_tuples(elems, k):
    """T_k by full enumeration of 2k-tuples (ordered)."""
    sums = [reduce(lambda a, b: a ^ b, half, 0) for half in itertools.product(elems, repeat=k)]
    return sum(1 for sl in sums for sr in sums if sl == sr)


def energy_sum_counts(elems, k):
    """T_k as the sum of r(x)^2, r(x) counting the ordered k-tuples with XOR x."""
    sums = [0]
    for _ in range(k):
        sums = [s ^ a for s in sums for a in elems]
    return sum(c * c for c in Counter(sums).values())


def first_violating_window(elems, k, beta1, beta2, constant):
    """First B, by size and then in `combinations` order, with
    beta1 |Q| <= |B| <= beta2 |Q|, |B| < |Q| and
    T_k(B) < C^2k (|B| / |Q|)^2k T_k(Q), in rational arithmetic; None if no
    window subset of Q = elems violates."""
    m = len(elems)
    t_q = energy_sum_counts(elems, k)
    for size in range(1, m):
        if not beta1 * m <= size <= beta2 * m:
            continue
        share = (constant * Fraction(size, m)) ** (2 * k) * t_q
        for combo in itertools.combinations(elems, size):
            if energy_sum_counts(combo, k) < share:
                return combo
    return None


def energy_tuples_multiset(set_list):
    """Mixed-energy count: a_1+...+a_k = a_(k+1)+...+a_(2k), a_i in A_i."""
    k = len(set_list) // 2
    count = 0
    for left in itertools.product(*set_list[:k]):
        sl = reduce(lambda a, b: a ^ b, left, 0)
        for right in itertools.product(*set_list[k:]):
            sr = reduce(lambda a, b: a ^ b, right, 0)
            if sl == sr:
                count += 1
    return count


def convolve_defn(f, g):
    """(f*g)(x) = sum_s f(s) g(x^s) by double loop."""
    n = len(f)
    return [sum(f[s] * g[x ^ s] for s in range(n)) for x in range(n)]


def crossing_mass(pairs, first):
    """Pairs (x, y) with exactly one member in the set `first`."""
    return sum((x in first) != (y in first) for x, y in pairs)


def best_balanced_split(pairs, halves):
    """(score, first half) of the largest crossing mass over `halves`, scanned
    in order; a later half replaces the best only on a strictly larger score."""
    best = None
    for half in halves:
        first = frozenset(half)
        score = crossing_mass(pairs, first)
        if best is None or score > best[0]:
            best = (score, first)
    return best


def best_common_intersection(sets, t):
    """(indices, intersection) of the largest t-fold intersection, scanned in
    `combinations` order; a later tuple replaces the best only on a strictly
    larger intersection."""
    best = None
    for combo in itertools.combinations(range(len(sets)), t):
        inter = frozenset.intersection(*(sets[i] for i in combo))
        if best is None or len(inter) > len(best[1]):
            best = (combo, inter)
    return best


def subset_xor_hits(elems, k, forbidden):
    """All nonempty subsets of size <= k whose XOR lands in forbidden."""
    hits = []
    for size in range(1, k + 1):
        for combo in itertools.combinations(elems, size):
            if reduce(lambda a, b: a ^ b, combo) in forbidden:
                hits.append(combo)
    return hits


def permanent_perms(rows):
    """Permanent by enumerating injective maps rows -> columns."""
    x = len(rows)
    y = len(rows[0]) if rows else 0
    if x > y:
        return permanent_perms([list(col) for col in zip(*rows)])
    total = 0
    for cols in itertools.permutations(range(y), x):
        prod = 1
        for i, j in enumerate(cols):
            prod *= rows[i][j]
            if prod == 0:
                break
        total += prod
    return total


def distinct_sums(elems, d):
    """Set of XORs of d-element subsets."""
    out = set()
    for combo in itertools.combinations(elems, d):
        out.add(reduce(lambda a, b: a ^ b, combo, 0))
    return out


def root_sum_dominates_sq(total, part_a, part_b):
    """sqrt(total) <= sqrt(part_a) + sqrt(part_b) by squaring twice: with
    g = total - a - b, it holds iff g <= 0 or g^2 <= 4ab."""
    gap = total - part_a - part_b
    return gap <= 0 or gap * gap <= 4 * part_a * part_b


def greedy_support_threshold_sum(p, width, zeta, block_sizes, multiplicities):
    """2 * sigma* of the greedy-support lemma as its defining sum: over
    omega from ceil(zeta p) to p, (p width)^omega / omega! times the sum,
    over the compositions n of p - omega with n_i <= c_i, of
    prod a_i^n_i / n_i!."""
    rho = len(block_sizes)
    omega_min = -((-zeta.numerator * p) // zeta.denominator)
    total = Fraction(0)

    def compositions(remaining, idx):
        if idx == rho - 1:
            if remaining <= multiplicities[idx]:
                yield (remaining,)
            return
        for v in range(min(remaining, multiplicities[idx]) + 1):
            for rest in compositions(remaining - v, idx + 1):
                yield (v,) + rest

    for omega in range(omega_min, p + 1):
        inner = Fraction(0)
        if rho:
            for ns in compositions(p - omega, 0):
                inner += prod(Fraction(a**n, factorial(n)) for a, n in zip(block_sizes, ns))
        elif p - omega == 0:
            inner = Fraction(1)
        total += Fraction((p * width) ** omega, factorial(omega)) * inner
    return 2 * total
