"""Exact fast Walsh-Hadamard transform and large-spectrum extraction.

Tables hold arbitrary-precision Python integers throughout, so Parseval and
all downstream energy computations are exact.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from fractions import Fraction
from itertools import repeat
from operator import setitem
from typing import Iterable, Sequence

from .core import BudgetError, DimensionError, F2Set, Value
from .exact import ExactnessError

WHT_DIM_CAP = 26  # full tables above 2^26 entries are out of desk scale


def _check_table_dim(dim: int) -> None:
    """Refuse a 2^dim table above the cap before anything is allocated."""
    if dim > WHT_DIM_CAP:
        raise BudgetError(f"transform table 2^{dim} exceeds cap 2^{WHT_DIM_CAP}")


def check_alpha(alpha: Fraction) -> None:
    """Large-spectrum thresholds must lie in (0, 1]."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


class IntFunction(Value):
    """An integer-valued function on F_2^n as a table of length 2^n; a
    Fourier table {f_hat(r)} is one too, on the same group."""

    __slots__ = ("dim", "values")

    def __init__(self, dim: int, values: tuple[int, ...]) -> None:
        if len(values) != 1 << dim:
            raise DimensionError("table length must be exactly 2^n")
        self.dim = dim
        self.values = values

    @classmethod
    def from_points(cls, dim: int, points: Iterable[int], values: Iterable[int]) -> "IntFunction":
        """The function taking the i-th of `values` at the i-th of `points`,
        zero elsewhere; the table cap is checked before the table is allocated."""
        _check_table_dim(dim)
        vals = [0] * (1 << dim)
        deque(map(setitem, repeat(vals), points, values), 0)  # no tuple per point
        return cls(dim, tuple(vals))

    @classmethod
    def indicator(cls, s: F2Set) -> "IntFunction":
        return cls.from_points(s.dim, s.elems, repeat(1))


_ITEMS = {1: "b", 2: "h", 4: "i", 8: "q"}  # signed native items of 1, 2, 4 and 8 bytes
_SIGN = bytes(128) + b"\xff" * 128  # translate a lane's top byte into its sign-fill byte


def _transform(values: Sequence[int]) -> tuple[int, ...]:
    """The unnormalised Walsh-Hadamard butterfly of a table of length 2^n,
    each stage a few big-integer operations on all lanes at once (SWAR).

    Exact by construction.  With s = sum |f|, every value the butterfly
    holds is a signed sum of distinct entries of f, in [-s, s]; its lane
    holds v + s in [0, 2s] in the fewest bytes w8 with 4s < 2^w, w = 8 w8.
    At span h, m selects the lanes i with i & h == 0, S = m & spread has s
    in each, and a = x & m, b = (x >> h w) & m hold pairs (u + s, v + s).
    Then a + b - S holds u + v + s and a + S - b holds u - v + s, both in
    [0, 2s]; a + b <= 4s and a + S <= 3s fit in a lane and each difference
    is non-negative lane by lane, so no lane carries or borrows.

    The ends convert whole tables at once.  A value enters its lane as its
    w-bit two's complement v mod 2^w, which keeps v since |v| <= s < 2^(w-2).
    XOR with `top`, 2^(w-1) in each lane, makes that v + 2^(w-1), in
    [2^(w-1) - s, 2^(w-1) + s]; subtracting `lift`, 2^(w-1) - s in each lane,
    leaves v + s >= 0, so no lane borrows and both steps are single big-int
    operations.  The way out is the inverse: adding `lift` gives v + 2^(w-1)
    < 2^w, so no lane carries, and XOR with `top` gives v mod 2^w back.
    Lanes of up to 8 bytes travel in native signed items, byte j of a lane as
    byte order[j] of its item; an item's bytes above its lane repeat the sign
    of v, the top bit of the lane's top byte.  Wider lanes use to_bytes.
    """
    count = len(values)
    s = sum(map(abs, values))
    w8 = max(1, ((4 * s).bit_length() + 7) // 8)
    w = 8 * w8
    size = min((k for k in _ITEMS if k >= w8), default=None)
    if size is None:
        lanes = b"".join([v.to_bytes(w8, "little", signed=True) for v in values])
    else:
        order = range(size) if sys.byteorder == "little" else range(size - 1, -1, -1)
        items = array(_ITEMS[size], values).tobytes()
        lanes = bytearray(count * w8)
        for j, k in enumerate(order[:w8]):
            lanes[j::w8] = items[k::size]
    low = int.from_bytes((b"\x01" + bytes(w8 - 1)) * count, "little")  # 1 in each lane
    top, lift, spread = low << (w - 1), ((1 << (w - 1)) - s) * low, s * low
    x = (int.from_bytes(lanes, "little") ^ top) - lift
    full, zero = b"\xff" * w8, bytes(w8)
    h = 1
    while h < count:
        m = int.from_bytes((full * h + zero * h) * (count // (2 * h)), "little")
        big_s = m & spread
        a = x & m
        b = (x >> w * h) & m
        x = (a + b - big_s) | ((a + big_s - b) << w * h)
        h *= 2
    lanes = ((x + lift) ^ top).to_bytes(count * w8, "little")
    if size is None:
        return tuple(int.from_bytes(lanes[i : i + w8], "little", signed=True) for i in range(0, len(lanes), w8))
    items = bytearray(count * size)
    for j, k in enumerate(order[:w8]):
        items[k::size] = lanes[j::w8]
    if size > w8:
        sign = lanes[w8 - 1 :: w8].translate(_SIGN)
        for k in order[w8:]:
            items[k::size] = sign
    return tuple(memoryview(items).cast(_ITEMS[size]))


def wht(f: IntFunction) -> IntFunction:
    """A_hat(r) = sum_x f(x) (-1)^<r,x>, exact, O(N log N) integer ops."""
    _check_table_dim(f.dim)
    return IntFunction(f.dim, _transform(f.values))


def spectrum_of_set(a: F2Set) -> IntFunction:
    """Fourier table of the 0/1 indicator of a set."""
    return wht(IntFunction.indicator(a))


def inverse_wht(s: IntFunction) -> IntFunction:
    """Inverse transform; the WHT is an involution up to the factor N."""
    vals = _transform(s.values)
    mask = (1 << s.dim) - 1
    if any(map(mask.__and__, vals)):
        raise ExactnessError("inverse transform is not integer-valued")
    return IntFunction(s.dim, tuple(map(int.__rshift__, vals, repeat(s.dim))))


def large_spectrum(a: F2Set, alpha: Fraction) -> F2Set:
    """R_alpha = { r : |A_hat(r)| >= alpha * N }, threshold compared exactly."""
    if len(a) == 0:
        raise ValueError("large spectrum of an empty set")
    check_alpha(alpha)
    return large_spectrum_from_table(spectrum_of_set(a), alpha)


_SCAN_BLOCK = 64  # entries per block of the large-spectrum scan


def large_spectrum_from_table(table: IntFunction, alpha: Fraction) -> F2Set:
    """The r with |table(r)| >= alpha N.  Blocks whose max and min stay
    inside (-alpha N, alpha N) are skipped whole by two C-level passes."""
    check_alpha(alpha)
    least = -(-(alpha.numerator << table.dim) // alpha.denominator)  # ceil(alpha N)
    values, hits = table.values, []
    for start in range(0, len(values), _SCAN_BLOCK):
        block = values[start : start + _SCAN_BLOCK]
        if max(block) >= least or min(block) <= -least:
            hits.extend([r for r, v in enumerate(block, start) if abs(v) >= least])
    return F2Set(table.dim, tuple(hits))
