"""Permanents, Frobenius-Koenig structure, and the reduced-permanent lemma.

The permanent of an x-by-y matrix (x <= y; tall matrices are transposed
first) sums products over injective row-to-column maps.  It is taken exactly
by the cheaper of two walks, counted in units of about x adds and multiplies:
  row-subset DP, y 2^(x-1) units: per H = [x_1...x_x] prod_j (1 + sum_i h_ij x_i), x_i^2 = 0;
  Nijenhuis-Wilf, 2^(y-1) units, v_i = 2 h_iy - sum_j h_ij: 2^(y-1) (y-x)! per H =
    (-1)^(y-1) sum_{S <= [y-1]} (-1)^|S| (2|S|+2-y)^(y-x) prod_i (v_i + sum_{j in S} 2 h_ij).
So the DP is taken exactly when y 2^(x-1) < 2^(y-1), i.e. when y - x > log2 y.
Nijenhuis-Wilf takes S = S' + T in blocks: S' over the first y-1-k columns,
T over all subsets of the last k = min(BLOCK_BITS, y-1) at once, by popcount,
skipping the popcount of weight 0 (y even, x < y).  When each row total R_i
<= 127, each factor r has |r| <= R_i <= 127, so row i of a block is one int
with byte lane T = 127 - r in [0, 254]: one big-int op moves every lane, with
no carry or borrow.  Bit 7 of a lane is set iff r < 0, so the rows' XOR holds
each lane's sign parity, and a table maps bytes to |r|.  Larger rows: int lists.
Zero-permanent certification goes through bipartite matching with a Koenig
cover witness, cross-checked against the permanent in the tests.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import accumulate, compress, islice, repeat
from math import comb, factorial, prod
from operator import add, mul, xor
from typing import Optional

from .core import BudgetError, ExactnessError, Value

PERMANENT_BUDGET = 1 << 22  # units of the walk taken: min(y 2^(x-1), 2^(y-1))
BLOCK_BITS = 8  # Nijenhuis-Wilf takes the subsets of its last BLOCK_BITS columns as one block

_ABS = bytes(abs(127 - b) for b in range(256))  # lane byte 127 - r -> |r|


@cache
def _block_lanes(k: int) -> tuple[list[tuple[int, int, int]], int, list[int], list[int]]:
    """One byte lane per subset T of k columns, in popcount order: (|T|, first, end lane) per |T|,
    low (1 in each lane), -2 times each column's indicator int over the lanes, and T by lane."""
    order = sorted(range(1 << k), key=int.bit_count)
    cuts = list(accumulate((comb(k, g) for g in range(k + 1)), initial=0))
    marks = [-2 * int.from_bytes(bytes(t >> c & 1 for t in order), "big") for c in range(k)]
    low = int.from_bytes(bytes([1] * len(order)), "big")
    return list(zip(range(k + 1), cuts, cuts[1:])), low, marks, order


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
    """Exact permanent by the cheaper walk of the module docstring.

    The DP maps a mask of matched rows to its matchings' product sum.  Column
    j stays unused by a mask whose rows left fit in the columns after it, or
    takes a free row i with h_ij != 0: x 2^(x-1) steps over the 2^x masks.
    Nijenhuis-Wilf walks the y-by-y matrix padded with y-x rows of ones, never
    built: each adds the factor 2|S| + 2 - y.  An outer subset S' adds one
    doubled column to its parent's row sums, x steps, and then sums its block
    of products by popcount |T|.  Over PERMANENT_BUDGET units of the walk
    taken: BudgetError.
    """
    if h.x > h.y:
        h = h.transpose()
    x, y = h.x, h.y
    rows_dp = y << (x - 1) < 1 << (y - 1)
    walk_name, units = ("row-subset DP", y << (x - 1)) if rows_dp else ("Nijenhuis-Wilf", 1 << (y - 1))
    if units > PERMANENT_BUDGET:
        raise BudgetError(f"{walk_name} count {units} exceeds budget {PERMANENT_BUDGET}")
    if rows_dp:
        ways = {0: 1}  # ways[mask]: product sum of the matchings of mask's rows into the columns so far
        for j, col in enumerate(zip(*h.rows)):
            need = x - y + j + 1  # rows a mask must hold to leave column j unused
            nonzero = [(1 << i, v) for i, v in enumerate(col) if v]
            nxt = {m: c for m, c in ways.items() if m.bit_count() >= need}
            for m, c in ways.items():
                for bit, v in nonzero:
                    if not m & bit:
                        nxt[m | bit] = nxt.get(m | bit, 0) + c * v
            ways = nxt
        return ways.get((1 << x) - 1, 0)
    k = min(BLOCK_BITS, y - 1)
    outer = y - 1 - k
    groups, low, marks, order = _block_lanes(k)
    totals = list(map(sum, h.rows))
    start = [2 * row[-1] - t for row, t in zip(h.rows, totals)]
    cols = [tuple(2 * v for v in col) for col in islice(zip(*h.rows), outer)]
    bytewise = max(totals) < 128
    if bytewise:  # row i as an int whose lane T holds 127 - (sum of 2 h_ij over j in T)
        inner = [sum(map(mul, row[outer:-1], marks), 127 * low) for row in h.rows]
    else:  # row i as the list of those sums by lane, built by doubling
        inner = []
        for row in h.rows:
            vals = [0]
            for v in row[outer:-1]:
                vals += [u + 2 * v for u in vals]
            inner.append([vals[t] for t in order])
    zero = y // 2 - 1 if x < y and y % 2 == 0 else -1  # |S| of weight 0
    sub = [0] * y  # sub[s]: sum over |S| = s of prod_i (start_i + row sum i over S)

    def walk(sums: list[int], first: int, s: int) -> None:
        if bytewise:
            lanes = [q - a * low for q, a in zip(inner, sums)]
            factors = zip(*[v.to_bytes(len(order), "big").translate(_ABS) for v in lanes])
            odd = (reduce(xor, lanes) >> 7 & low).to_bytes(len(order), "big")
        else:
            factors = zip(*[map(add, vals, repeat(a)) for a, vals in zip(sums, inner)])
            odd = bytes(len(order))  # the factors carry their own signs
        for g, lo, hi in groups:
            if s + g == zero:  # skip the group's products
                next(islice(factors, hi - lo, hi - lo), None)
            else:
                ps = list(map(prod, islice(factors, hi - lo)))
                sub[s + g] += sum(ps) - 2 * sum(compress(ps, odd[lo:hi]))
        for j in range(first, outer):
            walk(list(map(add, sums, cols[j])), j + 1, s + 1)

    walk(start, 0, 0)
    total = sum((-1) ** s * (2 * s + 2 - y) ** (y - x) * sub[s] for s in range(y))
    per, rem = divmod((-1) ** (y - 1) * total, (1 << (y - 1)) * factorial(y - x))
    if rem:
        raise ExactnessError("Nijenhuis-Wilf sum not divisible by 2^(y-1) (y-x)! (bug)")
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
