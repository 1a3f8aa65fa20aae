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


def _lane_format(count: int, s: int) -> tuple[int, range | None, int]:
    """Lanes for `count` values of sum |v| = s: their bytes w8, the fewest
    with 4s < 2^(8 w8); `order`, byte j of a lane travelling as byte
    order[j] of the native item that carries one (None above 8 bytes, else
    the item's size is len(order)); and `low`, 1 in each lane."""
    w8 = max(1, ((4 * s).bit_length() + 7) // 8)
    low = int.from_bytes((b"\x01" + bytes(w8 - 1)) * count, "little")
    size = min((k for k in _ITEMS if k >= w8), default=None)
    if size is None:
        return w8, None, low
    return w8, range(size) if sys.byteorder == "little" else range(size - 1, -1, -1), low


def _transform(values: Sequence[int], shift: int = 0) -> tuple[int, ...]:
    """The Walsh-Hadamard transform of a table of length 2^n, divided by
    2^shift: the table's entry into `_butterfly`.

    A value enters its lane as its w-bit two's complement v mod 2^w, which
    keeps v since |v| <= s < 2^(w-2).  XOR with 2^(w-1) in each lane makes
    that v + 2^(w-1) and subtracting 2^(w-1) - s leaves v + s >= 0, so no
    lane borrows.  Lanes of up to 8 bytes travel in native signed items,
    wider ones through to_bytes.
    """
    count = len(values)
    s = sum(map(abs, values))
    w8, order, low = _lane_format(count, s)
    w = 8 * w8
    if order is None:
        lanes = b"".join([v.to_bytes(w8, "little", signed=True) for v in values])
    else:
        size = len(order)
        items = array(_ITEMS[size], values).tobytes()
        lanes = bytearray(count * w8)
        for j, k in enumerate(order[:w8]):
            lanes[j::w8] = items[k::size]
    x = (int.from_bytes(lanes, "little") ^ (low << (w - 1))) - ((1 << (w - 1)) - s) * low
    return _butterfly(x, count, w8, order, s, low, shift)


def _butterfly(x: int, count: int, w8: int, order: range | None, s: int, low: int, shift: int) -> tuple[int, ...]:
    """The one transform kernel: x holds v + s in each of `count` lanes of
    w = 8 w8 bits, s bounds every |v| and 4s < 2^w.  Each stage is nine
    big-integer operations on all lanes at once (SWAR), after its mask; with
    shift = k the table leaves divided by N = 2^k, which must be exact.

    Exact by construction.  Every value the butterfly holds is a signed sum
    of distinct entries, in [-s, s], so its lane holds u = v + s in [0, 2s].
    At span h, y = x >> h w puts u_j, j = i + h, in lane i, m selects the
    lanes i with i & h == 0, and S holds s in every lane.  x + y holds
    u_i + u_j <= 4s and x + 2S - y holds u_i + 2s - u_j in [0, 4s] in every
    lane, so nothing carries or borrows across a lane.  Masked, they are
    v_i + v_j + 2s and v_i - v_j + 2s, both >= s as |v_i +- v_j| <= s, so
    subtracting S from the merged halves borrows nowhere and leaves v' + s.

    Division: one AND and one compare test u = s mod 2^min(k, w) in every
    lane, which is v = 0 mod N; at k >= w it reads u = s, so v = 0, the only
    multiple of N in [-s, s] as s < 2^w <= N.  Subtracting those low bits,
    s mod N in each lane, leaves N (v/N + c), c = floor(s/N), in [0, 2s]
    since the integer v/N has size at most s/N, so at most c: no lane
    borrows.  Every lane's low k bits are now zero, so >> k leaves v/N + c
    in each lane (at k >= w all lanes and c are 0); the exit reads offset c.

    The exit is the entry's inverse: adding 2^(w-1) - s in each lane gives
    v + 2^(w-1) < 2^w, so no lane carries, and XOR with 2^(w-1) gives
    v mod 2^w.  An item's bytes above its lane repeat the sign of v, the top
    bit of the lane's top byte.
    """
    w = 8 * w8
    spread = s * low
    twice = spread << 1
    full, zero = b"\xff" * w8, bytes(w8)
    h = 1
    while h < count:
        m = int.from_bytes((full * h + zero * h) * (count // (2 * h)), "little")
        y = x >> w * h
        x = (((x + y) & m) | (((x + twice - y) & m) << w * h)) - spread
        h *= 2
    if shift:
        rem = (1 << min(shift, w)) - 1
        residues = (s & rem) * low
        if x & (rem * low) != residues:
            raise ExactnessError("inverse transform is not integer-valued")
        x = (x - residues) >> shift
        s >>= shift
    lanes = ((x + ((1 << (w - 1)) - s) * low) ^ (low << (w - 1))).to_bytes(count * w8, "little")
    if order is None:
        return tuple(int.from_bytes(lanes[i : i + w8], "little", signed=True) for i in range(0, len(lanes), w8))
    size = len(order)
    items = bytearray(count * size)
    for j, k in enumerate(order[:w8]):
        items[k::size] = lanes[j::w8]
    if size > w8:
        sign = lanes[w8 - 1 :: w8].translate(_SIGN)
        for k in order[w8:]:
            items[k::size] = sign
    return tuple(memoryview(items).cast(_ITEMS[size]))


def wht(f: IntFunction | F2Set) -> IntFunction:
    """A_hat(r) = sum_x f(x) (-1)^<r,x>, exact, O(N log N) integer ops.  A
    set stands for its 0/1 indicator and enters the lanes from its points."""
    _check_table_dim(f.dim)
    if isinstance(f, F2Set):
        return IntFunction(f.dim, _points(f))
    return IntFunction(f.dim, _transform(f.values))


def _points(a: F2Set) -> tuple[int, ...]:
    """The transform of the indicator of A, the set's entry into
    `_butterfly`: byte 1 at the low byte of lane p for each p in A, then
    s = |A| in every lane, so each lane holds v + s."""
    count, s = 1 << a.dim, len(a)
    w8, order, low = _lane_format(count, s)
    ones = bytearray(count)
    deque(map(setitem, repeat(ones), a.elems, repeat(1)), 0)
    lanes = bytearray(count * w8)
    lanes[::w8] = ones
    return _butterfly(int.from_bytes(lanes, "little") + s * low, count, w8, order, s, low, 0)


def spectrum_of_set(a: F2Set) -> IntFunction:
    """Fourier table of the 0/1 indicator of a set."""
    return wht(a)


def inverse_wht(s: IntFunction) -> IntFunction:
    """Inverse transform; the WHT is an involution up to the factor N, which
    the kernel divides out inside the lanes."""
    return IntFunction(s.dim, _transform(s.values, s.dim))


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
