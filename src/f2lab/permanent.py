"""Permanents, Frobenius-Koenig structure, and the counting lemmas.

The permanent of an x-by-y matrix (x <= y) sums products over injective
row-to-column maps; tall matrices are transposed first, which matches the
combinatorial usage.  Zero-permanent certification goes through bipartite
matching with a Koenig cover witness, cross-checked against the
inclusion-exclusion permanent in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from operator import add
from typing import Optional, Sequence

from .core import BudgetError, F2Set
from .dissociation import FamilySpec, in_family
from .energy import energy_multiset
from .exact import certify_ladder, pow_bounds

RYSER_BUDGET = 1 << 22  # every y <= 22 fits: sum_{s<=x} C(y, s) <= 2^y


@dataclass(frozen=True)
class CombMatrix:
    """Rectangular matrix with nonnegative integer entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("matrix needs at least one row")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width or width == 0:
                raise ValueError("rows must be nonempty and equal length")
            for v in row:
                if v < 0:
                    raise ValueError("entries must be nonnegative")

    @property
    def x(self) -> int:
        return len(self.rows)

    @property
    def y(self) -> int:
        return len(self.rows[0])

    def transpose(self) -> "CombMatrix":
        return CombMatrix(tuple(zip(*self.rows)))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(r) for r in self.rows)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rows))


def parse_matrix(text: str) -> CombMatrix:
    """Matrix file: first line "x y", then x rows of integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be 'x y'")
    x, y = int(head[0]), int(head[1])
    if len(lines) != x + 1:
        raise ValueError(f"expected {x} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = tuple(int(tok) for tok in ln.split())
        if len(row) != y:
            raise ValueError(f"row length {len(row)} != {y}")
        rows.append(row)
    return CombMatrix(tuple(rows))


def serialize_matrix(m: CombMatrix) -> str:
    out = [f"{m.x} {m.y}"]
    out.extend(" ".join(str(v) for v in row) for row in m.rows)
    return "\n".join(out) + "\n"


def permanent(h: CombMatrix, budget: int = RYSER_BUDGET) -> int:
    """Exact permanent by rectangular Ryser inclusion-exclusion.

    per H = (-1)^x sum_{S <= [y]} (-1)^|S| C(y-|S|, y-x) prod_i sum_{j in S} h_ij,
    with the sum effectively over |S| <= x.  Tall input is transposed.  The
    subsets are walked depth-first in increasing column order, each adding
    one column to its parent's row sums; more than `budget` of them raises
    BudgetError.
    """
    if h.x > h.y:
        h = h.transpose()
    x, y = h.x, h.y
    work = sum(comb(y, s) for s in range(x + 1))
    if work > budget:
        raise BudgetError(f"Ryser subset count {work} exceeds budget {budget}")
    cols = list(zip(*h.rows))
    sub = [0] * (x + 1)  # sub[s]: sum over |S| = s of prod_i (row sum i over S)

    def walk(sums: list[int], start: int, s: int) -> None:
        for j in range(start, y):
            row_sums = list(map(add, sums, cols[j]))
            sub[s] += prod(row_sums)
            if s < x:
                walk(row_sums, j + 1, s + 1)

    walk([0] * x, 0, 1)
    total = sum((-1) ** s * comb(y - s, y - x) * sub[s] for s in range(1, x + 1))
    return total if x % 2 == 0 else -total


@dataclass(frozen=True)
class FKResult:
    """Outcome of the zero-permanent test on the support graph.

    kind "positive": sdr maps each row of the wide orientation to a distinct
    column with a nonzero entry.  kind "zero": (zero_rows, zero_cols) index
    an all-zero submatrix whose dimensions sum to (long side) + 1.
    Indices always refer to the matrix as passed in.
    """

    kind: str
    sdr: Optional[tuple[int, ...]]
    zero_rows: tuple[int, ...]
    zero_cols: tuple[int, ...]


def _max_matching(rows: Sequence[Sequence[int]], x: int, y: int):
    match_col = [-1] * y

    def augment(i: int, seen: list[bool]) -> bool:
        for j in range(y):
            if rows[i][j] and not seen[j]:
                seen[j] = True
                if match_col[j] < 0 or augment(match_col[j], seen):
                    match_col[j] = i
                    return True
        return False

    size = 0
    for i in range(x):
        if augment(i, [False] * y):
            size += 1
    return size, match_col


def fk_zero_test(h: CombMatrix) -> FKResult:
    """Decide per H = 0 via maximum matching; emit witness either way."""
    transposed = h.x > h.y
    wide = h.transpose() if transposed else h
    x, y = wide.x, wide.y
    size, match_col = _max_matching(wide.rows, x, y)
    if size == x:
        # sdr indexes the shorter side of the original matrix and maps it to
        # distinct indices of the longer side
        sdr = [0] * x
        for j, i in enumerate(match_col):
            if i >= 0:
                sdr[i] = j
        return FKResult("positive", tuple(sdr), (), ())
    # Koenig cover: alternating BFS from unmatched rows
    match_row = [-1] * x
    for j, i in enumerate(match_col):
        if i >= 0:
            match_row[i] = j
    visited_rows = [False] * x
    visited_cols = [False] * y
    queue = [i for i in range(x) if match_row[i] < 0]
    for i in queue:
        visited_rows[i] = True
    while queue:
        nxt = []
        for i in queue:
            for j in range(y):
                if wide.rows[i][j] and not visited_cols[j]:
                    visited_cols[j] = True
                    i2 = match_col[j]
                    if i2 >= 0 and not visited_rows[i2]:
                        visited_rows[i2] = True
                        nxt.append(i2)
        queue = nxt
    zero_rows = tuple(i for i in range(x) if visited_rows[i])
    zero_cols = tuple(j for j in range(y) if not visited_cols[j])
    if transposed:
        zero_rows, zero_cols = zero_cols, zero_rows
    return FKResult("zero", None, zero_rows, zero_cols)


@dataclass(frozen=True)
class ReducedPermanentReport:
    """Hypotheses of the reduced-permanent lemma plus the positivity verdict."""

    hypotheses_hold: bool
    failures: tuple[str, ...]
    reduced: Optional[CombMatrix]
    per_reduced_positive: Optional[bool]


def reduced_permanent_check(h: CombMatrix) -> ReducedPermanentReport:
    """Check row sums >= 2, column sums >= 1, total = 2p; then delete the
    columns of sum exactly 1 and certify the reduced permanent positive."""
    p = h.x
    failures = []
    rs = h.row_sums()
    cs = h.col_sums()
    if any(v < 2 for v in rs):
        failures.append("row sum < 2")
    if any(v < 1 for v in cs):
        failures.append("column sum < 1")
    if sum(rs) != 2 * p:
        failures.append("total != 2p")
    if failures:
        return ReducedPermanentReport(False, tuple(failures), None, None)
    keep = [j for j, v in enumerate(cs) if v != 1]
    if not keep:
        # every column had sum 1; the reduced matrix is p-by-0 and its
        # permanent is the empty product 1, hence positive
        return ReducedPermanentReport(True, (), None, True)
    reduced = CombMatrix(tuple(tuple(row[j] for j in keep) for row in h.rows))
    positive = fk_zero_test(reduced).kind == "positive"
    return ReducedPermanentReport(True, (), reduced, positive)


@dataclass(frozen=True)
class PiValueReport:
    """The cutoff product pi(t_1..t_r) against its 2^(3p) X bound."""

    pi: int
    bound_lo: Fraction
    bound_hi: Fraction
    status: str  # "holds" | "violated" | "undecided"
    hypotheses_hold: bool
    failures: tuple[str, ...]
    top: int
    alphas: tuple[int, ...]
    z: int
    q_z: int


def pi_value(ts: Sequence[int], p: int, delta0: Fraction) -> PiValueReport:
    """Evaluate pi = T^a0 (T-1)^a1 ... and compare with 2^(3p) max(d0^(4d0), 1).

    The tuple itself must be well-formed (t_j >= 2, sum = 2p); the lemma's
    delta0-linked hypotheses are reported, not enforced, so boundary
    examples remain evaluable.
    """
    r = len(ts)
    if any(t < 2 for t in ts):
        raise ValueError("every t_j must be >= 2")
    if sum(ts) != 2 * p:
        raise ValueError("sum of t_j must equal 2p")
    failures = []
    if not (Fraction(r) >= p - delta0):
        failures.append("r < p - delta0")
    if not (Fraction(p) >= 2 * delta0 + 3):
        failures.append("p < 2*delta0 + 3")
    top = max(ts)
    alphas = tuple(sum(1 for t in ts if t >= top - i) for i in range(top - 1))
    # cutoff z: sum_{i<z} alpha_i <= p < sum_{i<=z} alpha_i; the all-2 tuple
    # admits no such z, in which case pi = T^p by convention
    z = None
    acc = 0
    for i, a in enumerate(alphas):
        if acc <= p < acc + a:
            z = i
            break
        acc += a
    if z is None:
        z = 0
        q_z = p
        pi = top**p
    else:
        q_z = p - sum(alphas[:z])
        pi = 1
        for i in range(z):
            pi *= (top - i) ** alphas[i]
        pi *= (top - z) ** q_z
    scale = 2 ** (3 * p)

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        if delta0 <= 1:
            x_lo = x_hi = Fraction(1)
        elif delta0.denominator == 1:
            x_lo = x_hi = Fraction(int(delta0) ** (4 * int(delta0)))
        else:
            x_lo, x_hi = pow_bounds((delta0, delta0), (4 * delta0, 4 * delta0), prec)
        return scale * x_lo, scale * x_hi

    status, bound = certify_ladder(pi, bracket_at)
    return PiValueReport(
        pi, bound[0], bound[1], status, not failures, tuple(failures), top, alphas, z, q_z
    )


def validate_partition(classes: Sequence[Sequence[int]], size: int) -> None:
    seen: set[int] = set()
    for cls in classes:
        if not cls:
            raise ValueError("partition classes must be nonempty")
        for v in cls:
            if v in seen or not 0 <= v < size:
                raise ValueError("classes must partition the index range")
            seen.add(v)
    if len(seen) != size:
        raise ValueError("classes must cover the index range")


@dataclass(frozen=True)
class SophisticatedReport:
    """Solution count Z against the permanent-sum bound and its corollary."""

    p: int
    solutions: int
    permanent_bound: int
    holds: bool
    corollary_rhs_squared: int
    corollary_holds: bool
    admissible_supports: int


def sophisticated_bound(
    es: Sequence[F2Set],
    classes: Sequence[Sequence[int]],
    lam: F2Set,
    p_cap: int = 4,
) -> SophisticatedReport:
    """Bound the solutions of l_1 + ... + l_2p = 0, l_i in E_i <= Lambda.

    The bound sums per M(S*) over the p-subsets S* of [2p] that hit every
    partition class of size >= 2, where M(S*)_{ij} = |E_i cap E_j| for
    i in S*, j outside.  Refuses to run unless Lambda's membership in the
    weight-2p family is machine-verified.
    """
    if len(es) % 2 != 0 or len(es) < 2:
        raise ValueError("need 2p sets")
    p = len(es) // 2
    if p > p_cap:
        raise BudgetError(f"p = {p} beyond documented cap {p_cap}")
    validate_partition(classes, 2 * p)
    for e in es:
        if not e.issubset(lam):
            raise ValueError("every E_i must be a subset of Lambda")
    fam = in_family(lam, FamilySpec.zero(2 * p, lam.dim))
    if fam.status != "true":
        raise ValueError(f"Lambda not verified in the weight-{2 * p} family: {fam.status}")

    solutions = energy_multiset(list(es))

    inter = [[len(set(a.elems) & set(b.elems)) for b in es] for a in es]
    big_classes = [frozenset(c) for c in classes if len(c) >= 2]
    bound = 0
    admissible = 0
    for s_star in itertools.combinations(range(2 * p), p):
        chosen = set(s_star)
        if any(not (cls & chosen) for cls in big_classes):
            continue
        admissible += 1
        rest = [j for j in range(2 * p) if j not in chosen]
        m = CombMatrix(tuple(tuple(inter[i][j] for j in rest) for i in s_star))
        bound += permanent(m)
    rhs_sq = (2 ** (2 * p) * factorial(p)) ** 2
    for e in es:
        rhs_sq *= len(e)
    return SophisticatedReport(
        p,
        solutions,
        bound,
        solutions <= bound,
        rhs_sq,
        solutions * solutions <= rhs_sq,
        admissible,
    )
