"""Rectangle extraction, support selection, and the connectedness certifier.

Split the dissociated ground set, decompose into fibers, pick near-disjoint
supports greedily, intersect fibers Bombieri-style, and peel combinatorial
rectangles L + L' out of Q.  The full-strength guarantees behind this
pipeline carry constants far beyond desk scale, so outputs are validated by
direct containment checks and planted-instance recovery instead; every
search is seeded and tie-broken lexicographically for reproducibility.

The paper refines Q until it is connected before the split; the pipeline
does not, because at desk scale that stage does not fire.  `refine_connected`
steps only on a window subset B with T_k(B) below (C |B|/|Q|)^2k T_k(Q),
yet every B has T_k(B) >= |B|^k and T_k(Q) <= |Q|^(2k-1).  At C = 1/8 and
the window (1/4, 1/2), that floor rules out every window size unless |Q|
is at least

    k = max(2, p)    2       3     4    5    6    8
    least |Q|        16 386  1 450 646  432  338  258

while Q inside Lambda + Lambda has at most C(|Lambda|, 2) points: 435 for
an independent Lambda in F_2^30.  For such Lambda no step can fire at
p <= 4, and above only on a Q holding nearly every pair sum of a Lambda of
24 or more elements.  `refine_connected` stays as the certifier of that
claim: the floor rule, and an exhaustive window search on small Q.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_
from typing import Optional, Sequence

from .core import BudgetError, F2Set, Value, subset_sums
from .dissociation import FamilySpec, in_family, random_dissociated
from .energy import additive_energy, energy_excess_compare

SUBSET_TABLE_BUDGET = 2_000_000  # d-subsets of Lambda in one sum table; edges of the d >= 3 fibers
INTERSECTION_NODE_CAP = 200_000  # search nodes per row count of one common-intersection walk
SPLIT_EXHAUSTIVE_LIMIT = 12870  # balanced splits of Lambda walked in full up to this many: C(16, 8)
SPLIT_TRIALS = 32  # seeded random splits drawn past SPLIT_EXHAUSTIVE_LIMIT
PEEL_ROUNDS = 24  # bites of one peel
STALL_LIMIT = 3  # empty bites in a row that end a peel
REFINE_WINDOW = (Fraction(1, 4), Fraction(1, 2))  # (beta1, beta2): sizes of a refinement's B
REFINE_CONSTANT = Fraction(1, 8)  # C of the refinement's proportional-energy share
REFINE_EXHAUSTIVE_LIMIT = 14  # |Q| up to which the refinement searches every window subset


# ---------------------------------------------------------------------------
# connectedness refinement


def refine_connected(q: F2Set, k: int) -> tuple[F2Set, tuple[tuple[int, int, int, int], ...], bool]:
    """Iteratively delete energy-poor mid-sized subsets; returns (result,
    steps, certified), each step (size_before, removed, energy_before,
    energy_after), certified when no window subset of the result violates.

    A step fires on a subset B with beta1|Q| <= |B| <= beta2|Q|, the
    REFINE_WINDOW, whose T_k falls below the share (C |B|/|Q|)^2k T_k(Q),
    C = REFINE_CONSTANT; the complement then strictly increases the excess
    exponent D_k, which is asserted exactly.  Every B has T_k(B) >= |B|^k
    (the 2k-tuples whose second half repeats the first), so window sizes at
    which even that floor meets the share cannot fire.  A pass with no size
    left ends the run "certified", at any |Q|; otherwise it searches every
    window subset of the kept sizes when |Q| <= REFINE_EXHAUSTIVE_LIMIT
    (certified too), and a larger set ends the run with no step, not
    certified.  The module docstring gives the least |Q| at which a size is
    kept: the reason the extraction does not refine.

    Q must lie in a 2-fold sumset Lambda_1 + Lambda_2: the step-count bound
    asserted at the end is the bound for such Q.
    """
    if k < 2:
        raise ValueError("degree k must be >= 2")
    beta1, beta2 = REFINE_WINDOW
    constant = REFINE_CONSTANT
    memo: dict[tuple[int, ...], int] = {}

    def energy(elems: tuple[int, ...]) -> int:
        val = memo.get(elems)
        if val is None:
            val = memo[elems] = additive_energy(F2Set(q.dim, elems), k)
        return val

    cur = q
    t_cur = energy(cur.elems)
    t_initial = t_cur
    m_initial = len(q)
    steps: list[tuple[int, int, int, int]] = []
    e = 2 * k
    while True:
        m = len(cur)
        lo = max(1, -((-beta1.numerator * m) // beta1.denominator))
        hi = min(m - 1, (beta2.numerator * m) // beta2.denominator)
        # B violates iff T_k(B) C_den^2k m^2k < C_num^2k |B|^2k T_k(Q),
        # i.e. T_k(B) * lhs_scale < rhs_base * |B|^2k
        lhs_scale = constant.denominator**e * m**e
        rhs_base = constant.numerator**e * t_cur
        sizes = [s for s in range(lo, hi + 1) if s**k * lhs_scale < rhs_base * s**e]
        if not sizes or m > REFINE_EXHAUSTIVE_LIMIT:
            certified = not sizes
            break
        violation = next(
            (
                combo
                for size in sizes
                for combo in itertools.combinations(cur.elems, size)
                if energy(combo) * lhs_scale < rhs_base * size**e
            ),
            None,
        )
        if violation is None:
            certified = True
            break
        nxt = cur.difference(F2Set(cur.dim, violation))
        t_nxt = energy(nxt.elems)
        # strict D_k increase is guaranteed by subadditivity whenever C < 1/4
        if not energy_excess_compare(t_nxt, len(nxt), t_cur, m, k):
            if constant < Fraction(1, 4):
                raise AssertionError("excess exponent failed to increase on a fired step")
        steps.append((m, len(violation), t_cur, t_nxt))
        cur, t_cur = nxt, t_nxt

    # cardinality guarantee |Q'| >= (1 - beta2)^s |Q|, exact rationals
    s = len(steps)
    if len(cur) * beta2.denominator**s < (beta2.denominator - beta2.numerator) ** s * m_initial:
        raise AssertionError("cardinality guarantee violated")
    # step-count bound at d = 2: s <= (8d log d + k(d-1) log k - D_k(Q0)) /
    # (k log(1 + beta1(1-4C))), which exists only while that log is positive,
    # i.e. C < 1/4, and clears its logs to
    # (1 + beta1(1-4C))^(sk) * T_k(Q0) <= d^(8d) * k^(kd) * |Q0|^k
    if constant < Fraction(1, 4):
        x = 1 + beta1 * (1 - 4 * constant)  # a Fraction, so its denominator is positive
        rhs = 2**16 * k ** (2 * k) * m_initial**k
        if x.numerator ** (s * k) * t_initial > rhs * x.denominator ** (s * k):
            raise AssertionError("step-count bound violated")
    return cur, tuple(steps), certified


# ---------------------------------------------------------------------------
# greedy near-disjoint supports


def greedy_disjoint_supports(
    supports: Sequence[frozenset], zeta: Fraction, width: int
) -> list[int]:
    """First-feasible greedy selection of supports with small overlap.

    Returns indices n_1, n_2, ... (at most `width`) such that each chosen
    support meets the union of the earlier ones in at most zeta*p elements,
    p being the common support size.  Total: may return fewer than width.
    """
    if not supports:
        return []
    p = len(supports[0])
    if any(len(s) != p for s in supports):
        raise ValueError("all supports must have the same size")
    if len(set(supports)) != len(supports):
        raise ValueError("supports must be pairwise different")
    chosen = [0]
    union = set(supports[0])
    while len(chosen) < width:
        found = None
        for i, s in enumerate(supports):
            if i in chosen:
                continue
            if len(union & s) * zeta.denominator <= zeta.numerator * p:
                found = i
                break
        if found is None:
            break
        chosen.append(found)
        union |= supports[found]
    return chosen


# ---------------------------------------------------------------------------
# Bombieri-style intersections


def _best_intersections(
    masks: Sequence[int], t_lo: int, t_hi: int
) -> tuple[dict[int, tuple[tuple[int, ...], int]], bool]:
    """For every row count t in [t_lo, t_hi], the indices of t rows whose
    AND has the most bits, with that AND, and whether all are proved maximal.

    One depth-first walk over index tuples in `combinations` order carries
    each prefix's AND.  ANDs only shrink, so a prefix is not extended when it
    cannot reach t_lo, or when its AND has no more bits than the least best
    over the row counts it can still reach; a count's best moves only on
    strictly more bits, so each t gets the lexicographically first maximiser.
    After t_hi * INTERSECTION_NODE_CAP nodes (prefixes) the walk stops and
    returns its best tuples, real witnesses, with the flag False.  It never
    stops while every C(q, t) in the window is at most the cap: a node
    (i_1, ..., i_l) is either an l-tuple with l >= t_lo, or has a first
    completion (..., i_l + 1, ..., i_l + t_lo - l) to a t_lo-tuple, which is
    the first completion of fewer than t_lo of its prefixes, so there are at
    most t_lo * C(q, t_lo) + C(q, t_lo + 1) + ... + C(q, t_hi) <= t_hi * cap
    nodes.
    """
    q = len(masks)
    if not 1 <= t_lo <= t_hi <= q:
        raise ValueError("need 1 <= t_lo <= t_hi <= q")
    bits = [-1] * (t_hi + 1)  # bits[t]: the size of the best t-fold AND so far
    best: dict[int, tuple[tuple[int, ...], int]] = {}
    nodes_left = t_hi * INTERSECTION_NODE_CAP
    prefix: list[int] = []
    ands = [reduce(or_, masks)]  # ands[l] is the AND of prefix[:l]; l = 0: the union
    i = 0
    while True:
        l = len(prefix)
        # the bests of the row counts that prefix + (i, ...) can still reach
        reach = bits[max(t_lo, l + 1) : min(t_hi, q - i + l) + 1]
        if not reach or ands[-1].bit_count() <= min(reach):
            if not prefix:
                return best, True
            i = prefix.pop() + 1
            ands.pop()
            continue
        if not nodes_left:
            return best, False
        nodes_left -= 1
        cand = ands[-1] & masks[i]
        size = cand.bit_count()
        if l + 1 >= t_lo and size > bits[l + 1]:
            bits[l + 1], best[l + 1] = size, ((*prefix, i), cand)
        if l + 1 < t_hi:
            prefix.append(i)
            ands.append(cand)
        i += 1


# ---------------------------------------------------------------------------
# rectangles and the extraction pipelines


class Rectangle(Value):
    """A product piece (sum of prefix) + L + L' found inside Q."""

    __slots__ = ("prefix", "rows", "cols")

    def __init__(self, prefix: tuple[int, ...], rows: F2Set, cols: F2Set) -> None:
        if rows.intersection(cols).elems:
            raise ValueError("L and L' must be disjoint")
        members = set(rows.elems) | set(cols.elems)
        if any(a in members for a in prefix):
            raise ValueError("prefix elements must avoid L and L'")
        self.prefix = prefix
        self.rows = rows
        self.cols = cols

    def points(self) -> set[int]:
        shift = 0
        for a in self.prefix:
            shift ^= a
        return {shift ^ r ^ c for r in self.rows for c in self.cols}


class InverseParams:
    """The parameters that shape an extraction's answer (all recorded in
    reports); how hard its searches work is set by the module constants.

    epsilon defaults to 1/4 at desk scale; the full-strength analysis would
    take 1/(16 K_1) with K_1 = 2^13 K, which is reported alongside for
    reference but is degenerate for desk-sized instances.
    """

    DEFAULTS = {
        "p": 2,
        "big_k": Fraction(1),
        "epsilon": Fraction(1, 4),
        "zeta": Fraction(1, 4),
        "width": 8,
        "depth": 4,
        "coverage_target": Fraction(1),
        "min_rows": 1,
        "min_cols": 1,
        "seed": 0,
    }
    __slots__ = tuple(DEFAULTS)

    def __init__(self, **overrides) -> None:
        unknown = overrides.keys() - self.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown parameters {sorted(unknown)}")
        for name, default in self.DEFAULTS.items():
            setattr(self, name, overrides.get(name, default))
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.big_k <= 0:
            raise ValueError("big_k must be positive")
        if min(self.width, self.depth) < 1:
            raise ValueError("width and depth must be >= 1")
        if not 0 < self.coverage_target <= 1:
            raise ValueError("coverage_target must lie in (0, 1]")
        if self.epsilon <= 0 or self.zeta <= 0:
            raise ValueError("epsilon and zeta must be positive")
        if min(self.min_rows, self.min_cols) < 1:
            raise ValueError("min_rows and min_cols must be >= 1")

    def reference_epsilon(self) -> Fraction:
        k1 = 2**13 * self.big_k
        return 1 / (16 * k1)


def _subset_table(lam: F2Set, d: int) -> dict[int, tuple[int, ...]]:
    """sum -> d-subset of Lambda in `combinations` order (unique under the
    weight-2d family)."""
    if (count := comb(len(lam), d)) > SUBSET_TABLE_BUDGET:
        raise BudgetError(f"subset table too large: {count} sums exceed {SUBSET_TABLE_BUDGET}")
    table: dict[int, tuple[int, ...]] = {}
    for s, combo in subset_sums(lam.elems, d):
        if s in table:
            raise ValueError(f"{d}-subset sums collide; Lambda is not {2*d}-dissociated")
        table[s] = combo
    return table


def _contained_table(q: F2Set, lam: F2Set, d: int) -> dict[int, tuple[int, ...]]:
    """The subset table of Lambda, after checking that Q lies in its d-fold
    distinct sumset (in the same group)."""
    if q.dim != lam.dim:
        raise ValueError(f"Q lies in F_2^{q.dim} but Lambda in F_2^{lam.dim}")
    table = _subset_table(lam, d)
    if any(qq not in table for qq in q.elems):
        raise ValueError(f"Q is not contained in the {d}-fold distinct sumset of Lambda")
    return table


def _best_split(adj: list[int], m: int, rng: random.Random) -> tuple[int, int, bool]:
    """Balanced split of Lambda maximizing the crossing mass of Q; returns
    (mask of the first half, crossing mass, exhaustive).

    Q is a graph on Lambda's indices, adj[i] the bitmask of i's neighbours,
    with m edges.  Exhaustive over all balanced splits when there are at
    most SPLIT_EXHAUSTIVE_LIMIT (the averaging argument then guarantees the
    best split carries at least half the mass); otherwise best of
    SPLIT_TRIALS seeded random splits.  The mass of a half S is its cut;
    adding i to S adds the gain deg(i) - 2|adj(i) & S|.  Ties keep the first
    split in `combinations` order.  The exhaustive walk is branch and bound:
    gains only fall as S grows, so a node is skipped when its score plus its
    `left` largest gains is <= best, which keeps the first maximum, since the
    best moves only on a strictly larger score.  At 2a = |Lambda| a split
    and its complement cut alike, and only the half of the tree holding
    index 0, which comes first, is walked.
    """
    n_lam = len(adj)
    a = -((-n_lam) // 2)  # ceil
    deg = [mask.bit_count() for mask in adj]

    def cut(mask: int) -> int:
        return sum((adj[i] & ~mask).bit_count() for i in range(n_lam) if mask >> i & 1)

    best_mask = (1 << a) - 1  # the first split in `combinations` order
    best = cut(best_mask)
    exhaustive = comb(n_lam, a) <= SPLIT_EXHAUSTIVE_LIMIT

    def walk(start: int, left: int, mask: int, score: int) -> None:
        nonlocal best, best_mask
        gains = [deg[i] - 2 * (adj[i] & mask).bit_count() for i in range(start, n_lam)]
        if score + sum(sorted(gains)[len(gains) - left:]) <= best:
            return
        if left == 1:
            top = max(gains)
            best, best_mask = score + top, mask | 1 << (start + gains.index(top))
            return
        for i in range(start, n_lam - left + 1):
            walk(i + 1, left - 1, mask | 1 << i, score + gains[i - start])

    if exhaustive and 2 * a == n_lam > 2:
        walk(1, a - 1, 1, deg[0])  # only the splits holding index 0
    elif exhaustive:
        walk(0, a, 0, 0)
    else:
        for t in range(SPLIT_TRIALS):
            mask = sum(1 << i for i in rng.sample(range(n_lam), a))  # distinct bits
            s = cut(mask)
            if t == 0 or s > best:
                best, best_mask = s, mask
    if exhaustive and n_lam >= 2:
        # averaging guarantee: the best balanced split crosses at least
        # 2 a (L - a) / (L (L-1)) of the mass, which exceeds half of it
        if best * n_lam * (n_lam - 1) < 2 * a * (n_lam - a) * m:
            raise AssertionError("best split below the averaging guarantee (bug)")
    return best_mask, best, exhaustive


def _bite_once(
    remaining: set[tuple[int, int]], n: int, params: InverseParams, rng: random.Random, trace: list
) -> Optional[tuple[tuple[int, ...], int]]:
    """One split + fiber + support + intersection pass over the edges (i, j),
    i < j, of Q's graph on n indices; returns (row indices, column mask), a
    rectangle whose edges all lie in `remaining`, or None.

    Rows and columns are indices, and a fiber is a neighbour mask."""
    adj = [0] * n
    for i, j in remaining:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    mask, crossing, split_exhaustive = _best_split(adj, len(remaining), rng)
    # fibers: the neighbours across the split of each row in the first half
    fiber_of = {i: f for i, a in enumerate(adj) if mask >> i & 1 and (f := a & ~mask)}
    if not fiber_of:
        trace.append({"stage": "fibers", "note": "no nonempty fibers"})
        return None
    eps = params.epsilon
    min_support = max(params.min_rows, -((-eps.numerator * params.p) // eps.denominator))
    # supports: for each second coordinate, the set of rows whose fiber holds it
    col_rows = (frozenset(i for i, f in fiber_of.items() if f >> j & 1) for j in range(n))
    raw_supports = {rows for rows in col_rows if len(rows) >= min_support}
    if not raw_supports:
        trace.append({"stage": "supports", "note": "no supports above threshold"})
        return None
    # greedy selection needs equal sizes: trim every support to the common
    # size by keeping the rows with the largest fibers (ties lexicographic)
    psize = min(len(s) for s in raw_supports)
    trimmed = []
    for s in sorted(raw_supports, key=lambda fs: (-len(fs), tuple(sorted(fs)))):
        ranked = sorted(s, key=lambda i: (-fiber_of[i].bit_count(), i))
        trimmed.append(frozenset(ranked[:psize]))
    supports = list(dict.fromkeys(trimmed))
    chosen = greedy_disjoint_supports(supports, params.zeta, params.width)
    candidate_rows = sorted(set().union(*(supports[i] for i in chosen)))
    t_hi = min(params.depth, len(candidate_rows))
    profile = {}
    if params.min_rows <= t_hi:
        profile, _ = _best_intersections([fiber_of[i] for i in candidate_rows], params.min_rows, t_hi)
    sizes = {t: inter.bit_count() for t, (_, inter) in profile.items()}
    scores = [(t * size, t) for t, size in sizes.items() if size >= params.min_cols]
    if not scores:
        trace.append({"stage": "intersection", "note": "no admissible rectangle"})
        return None
    t = max(scores)[1]
    idx, inter = profile[t]
    trace.append(
        {
            "stage": "bite",
            "split_mass": crossing,
            "split_exhaustive": split_exhaustive,
            "averaging_met": 2 * crossing >= len(remaining),
            "rows": t,
            "cols": sizes[t],
            "points": t * sizes[t],
        }
    )
    return tuple(candidate_rows[i] for i in idx), inter


def _peel_rectangles(
    q: F2Set,
    edges: set[tuple[int, int]],
    elems: tuple[int, ...],
    prefix: tuple[int, ...],
    params: InverseParams,
    rng: random.Random,
    trace: list,
) -> tuple[list[Rectangle], int]:
    """Up to PEEL_ROUNDS rounds of `_bite_once` on the edges not yet
    covered, until the coverage target or STALL_LIMIT empty rounds in a row;
    returns the disjoint rectangles (sum of prefix) + L + L' and the number
    of edges they cover.

    An edge (i, j) is the point prefix + elems[i] + elems[j] of Q.  Every
    rectangle is machine-checked twice: its edges lie in the edges left, and
    its points lie in Q."""
    remaining = set(edges)
    rects: list[Rectangle] = []
    stalls = 0
    size = len(edges)
    for _ in range(PEEL_ROUNDS):
        if not remaining or Fraction(size - len(remaining), size) >= params.coverage_target:
            break
        bite = _bite_once(remaining, len(elems), params, rng, trace)
        if bite is None:
            stalls += 1
            if stalls >= STALL_LIMIT:
                break
            continue
        stalls = 0
        rows, inter = bite
        cols = [j for j in range(len(elems)) if inter >> j & 1]
        cut = {(min(i, j), max(i, j)) for i in rows for j in cols}
        if not cut <= remaining:
            raise AssertionError("extracted rectangle leaves the edges left (bug)")
        rect = Rectangle(
            prefix,
            F2Set.from_bits(q.dim, (elems[i] for i in rows)),
            F2Set.from_bits(q.dim, (elems[j] for j in cols)),
        )
        if not all(x in q for x in rect.points()):
            raise AssertionError("rectangle not contained in Q (bug)")
        remaining -= cut
        rects.append(rect)
    return rects, size - len(remaining)


def extract_rectangles_pair(
    q: F2Set, lam: F2Set, params: InverseParams
) -> tuple[tuple[Rectangle, ...], int, str, tuple[dict, ...], tuple[str, ...]]:
    """Peel disjoint rectangles L + L' out of Q inside Lambda + Lambda.

    Returns (rectangles, covered, family_status, trace, warnings): covered
    counts the points of Q in the rectangles, and family_status is Lambda's
    status in the weight-4p family.  Q is read once, from the sum table, as
    a graph on Lambda's indices: the point a + b is the edge between the
    indices of a and b.  Every returned rectangle is machine-checked to
    satisfy L + L' <= Q; pairwise disjointness holds because each round
    works on the edges not yet covered.  An empty result with diagnostics
    is a legitimate outcome; rectangles are never fabricated.
    """
    warnings = []
    fam = in_family(lam, FamilySpec.zero(4 * params.p, lam.dim))
    if fam.status != "true":
        warnings.append(f"Lambda family status: {fam.status}")
    pair_of = _contained_table(q, lam, 2)
    index = {x: i for i, x in enumerate(lam.elems)}
    edges = {(index[a], index[b]) for a, b in map(pair_of.__getitem__, q.elems)}
    trace: list[dict] = []
    rng = random.Random(params.seed)
    rects, covered = _peel_rectangles(q, edges, lam.elems, (), params, rng, trace)
    return tuple(rects), covered, fam.status, tuple(trace), tuple(warnings)


def extract_rectangles_d(
    q: F2Set, lam: F2Set, d: int, params: InverseParams
) -> tuple[tuple[Rectangle, ...], int, str, tuple[dict, ...], tuple[str, ...]]:
    """Rectangle extraction inside the d-fold distinct sumset, d >= 2, with
    the return shape of `extract_rectangles_pair` (the family has weight 2dp).

    At d = 2 this is `extract_rectangles_pair`.  Above, a point of Q with
    decomposition S lies in the fiber of every (d - 2)-subset P of S, as the
    edge S - P on Lambda's indices.  The fibers are sorted once (energy
    excess first, then by size, then by P) and peeled in that order until
    the coverage target, each on the edges whose point no earlier rectangle
    covers, over only the indices those edges touch.  Within a fiber each
    point has one edge, since the d-subset sums are distinct, and each peel
    sees only uncovered points, so the rectangles are disjoint.  Every
    returned rectangle satisfies (sum of P) + L + L' <= Q, machine-checked.
    The fibers hold C(d, 2) |Q| edges, refused past SUBSET_TABLE_BUDGET
    before any is built.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if d == 2:
        return extract_rectangles_pair(q, lam, params)
    warnings = []
    fam = in_family(lam, FamilySpec.zero(2 * d * params.p, lam.dim))
    if fam.status != "true":
        warnings.append(f"Lambda family status: {fam.status}")
    subset_of = _contained_table(q, lam, d)
    if (count := comb(d, 2) * len(q)) > SUBSET_TABLE_BUDGET:
        raise BudgetError(f"prefix fibers too large: {count} edges exceed {SUBSET_TABLE_BUDGET}")
    index = {x: i for i, x in enumerate(lam.elems)}
    by_prefix: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}  # P -> {edge: point}
    for qq in q.elems:
        combo = subset_of[qq]
        for a, b in itertools.combinations(combo, 2):
            pref = tuple(e for e in combo if e != a and e != b)
            by_prefix.setdefault(pref, {})[index[a], index[b]] = qq
    m_cor, p = 2**13 * (8 * params.big_k) ** (d - 1), params.p
    fibers = []
    for pref, edges in by_prefix.items():
        # T_p(X) >= |X|^p, so the excess holds without T_p when m_cor > p^2
        excess = m_cor > p**2 or (
            additive_energy(F2Set.from_bits(lam.dim, (lam.elems[i] ^ lam.elems[j] for i, j in edges)), p)
            * m_cor**p
            > p ** (2 * p) * len(edges) ** p
        )
        fibers.append((not excess, -len(edges), pref, edges))
    fibers.sort(key=lambda f: f[:3])
    rng = random.Random(params.seed)
    rects: list[Rectangle] = []
    covered: set[int] = set()
    trace: list[dict] = []
    for no_excess, _, pref, edges in fibers:
        if Fraction(len(covered), len(q)) >= params.coverage_target:
            break
        left = [edge for edge, qq in edges.items() if qq not in covered]
        if not left:
            continue
        touched = sorted({i for edge in left for i in edge})
        at = {i: k for k, i in enumerate(touched)}
        elems = tuple(lam.elems[i] for i in touched)
        trace.append({"stage": "prefix", "points": len(edges), "excess": not no_excess})
        found, _ = _peel_rectangles(q, {(at[i], at[j]) for i, j in left}, elems, pref, params, rng, trace)
        for rect in found:
            covered |= rect.points()
        rects += found
    return tuple(rects), len(covered), fam.status, tuple(trace), tuple(warnings)


# ---------------------------------------------------------------------------
# planted instance generation


def plant_instance(
    h: int,
    row_size: int,
    col_size: int,
    noise_frac: Fraction,
    seed: int,
    n: int = 18,
    lambda_size: int = 16,
) -> tuple[F2Set, tuple[F2Set, ...], tuple[F2Set, ...], F2Set, F2Set]:
    """Plant h pairwise-disjoint rectangles in 2-fold sums of a random
    dissociated set, plus a fraction of random noise pairs; returns
    (Lambda, rows, cols, planted, noise), rectangle i being rows[i] +
    cols[i], and the instance Q is planted union noise.

    When Lambda is too small to give every rectangle private row and column
    blocks, rectangles share one column block; products stay disjoint
    because the row blocks are disjoint.  Noise below 0, or above the
    unplanted pair sums, is refused.
    """
    if h < 1 or row_size < 1 or col_size < 1:
        raise ValueError("need h, row and column sizes >= 1")
    if noise_frac < 0:
        raise ValueError(f"noise fraction must be >= 0, got {noise_frac}")
    rng = random.Random(seed)
    lam = random_dissociated(n, lambda_size, seed=rng.randrange(1 << 30))
    perm = rng.sample(lam.elems, lambda_size)
    rows: list[F2Set] = []
    cols: list[F2Set] = []
    need_private = h * (row_size + col_size)
    at = 0
    if need_private <= lambda_size:
        for _ in range(h):
            rows.append(F2Set.from_bits(n, perm[at : at + row_size]))
            at += row_size
            cols.append(F2Set.from_bits(n, perm[at : at + col_size]))
            at += col_size
    else:
        if h * row_size + col_size > lambda_size:
            raise ValueError("Lambda too small for the requested rectangles")
        shared = F2Set.from_bits(n, perm[h * row_size : h * row_size + col_size])
        for i in range(h):
            rows.append(F2Set.from_bits(n, perm[i * row_size : (i + 1) * row_size]))
            cols.append(shared)
    planted: set[int] = set()
    for r, c in zip(rows, cols):
        planted |= Rectangle((), r, c).points()
    free = comb(lambda_size, 2) - len(planted)  # pair sums of a dissociated Lambda are distinct
    noise_count = noise_frac.numerator * len(planted) // noise_frac.denominator
    if noise_count > free:
        raise ValueError(f"noise {noise_frac} asks for {noise_count} points, {free} pair sums free")
    noise: set[int] = set()
    while len(noise) < noise_count:
        a, b = rng.sample(lam.elems, 2)
        pt = a ^ b
        if pt not in planted and pt not in noise:
            noise.add(pt)
    return lam, tuple(rows), tuple(cols), F2Set.from_bits(n, planted), F2Set.from_bits(n, noise)
