"""Permanents, Frobenius-Koenig structure, and the reduced-permanent lemma.

The permanent of an x-by-y matrix (x <= y) sums products over injective
row-to-column maps; tall matrices are transposed first, which matches the
combinatorial usage.  Zero-permanent certification goes through bipartite
matching with a Koenig cover witness, cross-checked against the
inclusion-exclusion permanent in the tests.
"""

from __future__ import annotations

from math import comb, prod
from operator import add
from typing import Optional

from .core import BudgetError, Value
from .exact import ExactnessError

RYSER_BUDGET = 1 << 22  # every y <= 22 fits: sum_{s<=x} C(y, s) <= 2^y


class CombMatrix(Value):
    """Rectangular matrix with nonnegative integer entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width or width == 0:
                raise ValueError("rows must be nonempty and equal length")
            for v in row:
                if v < 0:
                    raise ValueError("entries must be nonnegative")
        self.rows = rows

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


def permanent(h: CombMatrix) -> int:
    """Exact permanent by Ryser inclusion-exclusion in one depth-first walk.

    Wide input walks S <= [y], |S| <= x, from the zero vector:
      per H = (-1)^x sum_S (-1)^|S| C(y-|S|, y-x) prod_i sum_{j in S} h_ij.
    Square input (Nijenhuis-Wilf) walks every S <= [n-1] with doubled columns
    from v_i = 2 h_in - sum_j h_ij, and the sum is divided exactly:
      2^(n-1) per H = (-1)^(n-1) sum_S (-1)^|S| prod_i (v_i + sum_{j in S} 2 h_ij).
    Tall input is transposed.  Each subset adds one column to its parent's
    row sums; childless subsets are summed in the loop.  More than
    RYSER_BUDGET subsets of the wide form raises BudgetError.
    """
    if h.x > h.y:
        h = h.transpose()
    x, y = h.x, h.y
    work = sum(comb(y, s) for s in range(x + 1))
    if work > RYSER_BUDGET:
        raise BudgetError(f"Ryser subset count {work} exceeds budget {RYSER_BUDGET}")
    cols = list(zip(*h.rows))
    start = [0] * x
    if x == y:
        start = [2 * row[-1] - sum(row) for row in h.rows]
        cols = [tuple(2 * v for v in col) for col in cols[:-1]]
    last = len(cols) - 1
    sub = [prod(start)] + [0] * x  # sub[s]: sum over |S| = s of prod_i (start_i + row sum i over S)

    def walk(sums: list[int], first: int, s: int) -> None:
        if s == x:
            sub[s] += sum(prod(map(add, sums, col)) for col in cols[first:])
            return
        for j in range(first, last):
            row_sums = list(map(add, sums, cols[j]))
            sub[s] += prod(row_sums)
            walk(row_sums, j + 1, s + 1)
        sub[s] += prod(map(add, sums, cols[last]))

    walk(start, 0, 1)
    total = sum((-1) ** (x - s) * comb(y - s, y - x) * sub[s] for s in range(x + 1))
    if x < y:
        return total
    per, rem = divmod(-total, 1 << (x - 1))
    if rem:
        raise ExactnessError("Nijenhuis-Wilf sum not divisible by 2^(n-1) (bug)")
    return per


def fk_zero_test(
    h: CombMatrix,
) -> tuple[Optional[tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    """Decide per H = 0 via maximum matching; emit witness either way, as
    (sdr, zero_rows, zero_cols).

    Positive permanent: sdr maps each row of the wide orientation to a
    distinct column with a nonzero entry, and both zero parts are empty.
    Zero permanent: sdr is None, and (zero_rows, zero_cols) index an
    all-zero submatrix whose dimensions sum to (long side) + 1.  Indices
    always refer to the matrix as passed in.

    A matching that is not perfect is maximum, so augmenting again from each
    unmatched row with one shared `seen` finds no path and marks exactly the
    columns alternating paths reach.  The zero rows are the unmatched rows
    and the matches of marked columns; the zero columns are the unmarked.
    """
    transposed = h.x > h.y
    wide = h.transpose() if transposed else h
    x, y = wide.x, wide.y
    nonzero = [[j for j, v in enumerate(row) if v] for row in wide.rows]
    match_col = [-1] * y

    def augment(root: int, seen: list[bool]) -> bool:
        # depth-first over alternating paths, kept on a stack of (the column
        # that reached a row, the row's walk over its nonzero columns)
        stack = [(-1, iter(nonzero[root]))]
        while stack:
            for j in stack[-1][1]:
                if not seen[j]:
                    break
            else:
                stack.pop()
                continue
            seen[j] = True
            if match_col[j] >= 0:
                stack.append((j, iter(nonzero[match_col[j]])))
                continue
            for c, _ in reversed(stack):  # each column on the path takes its row
                match_col[j] = match_col[c] if c >= 0 else root
                j = c
            return True
        return False

    unmatched = [i for i in range(x) if not augment(i, [False] * y)]
    if not unmatched:
        # sdr indexes the shorter side of the original matrix and maps it to
        # distinct indices of the longer side
        sdr = [0] * x
        for j, i in enumerate(match_col):
            if i >= 0:
                sdr[i] = j
        return tuple(sdr), (), ()
    seen = [False] * y
    for i in unmatched:
        augment(i, seen)
    zero_rows = tuple(sorted(unmatched + [match_col[j] for j in range(y) if seen[j]]))
    zero_cols = tuple(j for j in range(y) if not seen[j])
    if transposed:
        zero_rows, zero_cols = zero_cols, zero_rows
    return None, zero_rows, zero_cols


def reduced_permanent_check(
    h: CombMatrix,
) -> tuple[tuple[str, ...], Optional[CombMatrix], Optional[bool]]:
    """Check row sums >= 2, column sums >= 1, total = 2p; then delete the
    columns of sum exactly 1 and certify the reduced permanent positive.

    Returns (failures, reduced, per_reduced_positive): the hypotheses hold
    iff failures is empty, and only then is the verdict not None; reduced
    is None when a hypothesis fails or every column is deleted.
    """
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
        return tuple(failures), None, None
    keep = [j for j, v in enumerate(cs) if v != 1]
    if not keep:
        # every column had sum 1; the reduced matrix is p-by-0 and its
        # permanent is the empty product 1, hence positive
        return (), None, True
    reduced = CombMatrix(tuple(tuple(row[j] for j in keep) for row in h.rows))
    positive = fk_zero_test(reduced)[0] is not None
    return (), reduced, positive
