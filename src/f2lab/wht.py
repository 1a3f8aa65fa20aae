"""Exact fast Walsh-Hadamard transform and large-spectrum extraction.

Tables hold arbitrary-precision Python integers throughout, so Parseval and
all downstream energy computations are exact.  A set's large spectrum and
its count of nonzero coefficients are read from the kernel's final lanes
(`read_spectrum`); `large_spectrum_from_table` scans a table already held.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from itertools import compress, repeat
from operator import setitem
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import BudgetError, DimensionError, ExactnessError, F2Set, Value

if TYPE_CHECKING:
    from fractions import Fraction

WHT_DIM_CAP = 26  # full tables above 2^26 entries are out of desk scale


def _check_table_dim(dim: int) -> None:
    """Refuse a 2^dim table above the cap before anything is allocated."""
    if dim > WHT_DIM_CAP:
        raise BudgetError(f"transform table 2^{dim} exceeds cap 2^{WHT_DIM_CAP}")


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
        zero elsewhere; the table cap, and that every point lies in [0, 2^n),
        are checked before the table is allocated."""
        _check_table_dim(dim)
        points = tuple(points)
        if points and not 0 <= min(points) <= max(points) < 1 << dim:
            raise DimensionError(f"points must lie in [0, 2^{dim})")
        vals = [0] * (1 << dim)
        deque(map(setitem, repeat(vals), points, values), 0)  # no tuple per point
        return cls(dim, tuple(vals))


_ITEMS = {1: "b", 2: "h", 4: "i", 8: "q"}  # signed native items of 1, 2, 4 and 8 bytes
_SIGN = bytes(128) + b"\xff" * 128  # translate a lane's top byte into its sign-fill byte
_ORDERS = {  # lane bytes -> byte j of a lane is byte order[j] of the item that carries it
    w8: range(size) if sys.byteorder == "little" else range(size - 1, -1, -1)
    for w8, size in enumerate((1, 2, 4, 4, 8, 8, 8, 8), 1)
}
PIECE_BITS = 12  # a piece of 2^12 lanes runs its inner stages in cache; a layout, not a budget


def _lane_format(s: int) -> tuple[int, range | None]:
    """Lanes for values of sum |v| = s: their bytes w8, the fewest with
    4s < 2^(8 w8); and `order`, byte j of a lane travelling as byte order[j]
    of the native item that carries one (None above 8 bytes, else the item's
    size is len(order))."""
    w8 = max(1, ((4 * s).bit_length() + 7) // 8)
    return w8, _ORDERS.get(w8)


def _transform(values: Sequence[int], shift: int = 0) -> tuple[int, ...]:
    """The Walsh-Hadamard transform of a table of length 2^n, divided by
    2^shift: the table's entry into `_butterfly`, which gets each value's
    lane as its w-bit two's complement.  Lanes of up to 8 bytes travel in
    native signed items, wider ones through to_bytes."""
    count = len(values)
    s = sum(map(abs, values))
    w8, order = _lane_format(s)
    if order is None:
        lanes = b"".join([v.to_bytes(w8, "little", signed=True) for v in values])
    else:
        size = len(order)
        lanes = items = array(_ITEMS[size], values).tobytes()
        if order != range(w8):
            lanes = bytearray(count * w8)
            for j, k in enumerate(order[:w8]):
                lanes[j::w8] = items[k::size]
    return _butterfly(lanes, count, w8, order, s, shift)[0]


def _butterfly(
    lanes: bytes, count: int, w8: int, order: range | None, s: int, shift: int, least: int | None = None
) -> tuple[tuple[int, ...], int | None, list[int] | None]:
    """The one transform kernel: `lanes` holds `count` values v, each as its
    w-bit two's complement in w = 8 w8 bits, s bounds every |v| and 4s < 2^w.
    It returns the table and, with `least` given at shift 0, the count of its
    nonzero entries and the r with |table(r)| >= least, in order (else None).
    It runs as (H_P x I)(I x H_sub): P = max(1, count >> PIECE_BITS) pieces
    of sub = count / P lanes (lane sub p + i is lane i of piece p, so
    H_N = H_P x H_sub), each lifted and taken through every inner stage
    while it is in cache, then the top stages across pieces.  With shift = k
    the table leaves divided by N = 2^k, which must be exact.

    Exact by construction.  Every value the butterfly holds is a signed sum
    of distinct entries, in [-s, s], so its lane holds u = v + s in [0, 2s].
    The lift: v mod 2^w keeps v as |v| <= s < 2^(w-2); XOR with 2^(w-1) in
    each lane makes that v + 2^(w-1), and subtracting 2^(w-1) - s leaves
    u >= 0, so no lane borrows.

    An inner stage is nine big-integer operations on the lanes of a piece
    (SWAR).  At span h, y = x >> h w puts u_j, j = i + h, in lane i, m
    selects the lanes i with i & h == 0, and S holds s in every lane.  x + y
    holds u_i + u_j <= 4s and x + 2S - y holds u_i + 2s - u_j in [0, 4s] in
    every lane, so nothing carries or borrows across a lane.  Masked, they
    are v_i + v_j + 2s and v_i - v_j + 2s, both >= s as |v_i +- v_j| <= s,
    so subtracting S from the merged halves borrows nowhere and leaves
    v' + s.  The masks, of sub lanes, are built once per call.

    An outer stage pairs whole pieces a and b, lane i of a with lane i of b.
    a + b holds u_a + u_b <= 4s < 2^w and a + S holds u_a + s <= 3s, so
    neither carries; a + b - S and a + S - b hold v_a +- v_b + s in [0, 2s]
    as |v_a +- v_b| <= s, so neither subtraction borrows.  An outer stage is
    two operations per piece, with no shift and no mask.

    Division, run on every piece: one AND and one compare test u = s mod
    2^min(k, w) in every lane, which is v = 0 mod N; at k >= w it reads
    u = s, so v = 0, the only multiple of N in [-s, s] as s < 2^w <= N.
    Subtracting those low bits, s mod N in each lane, leaves N (v/N + c),
    c = floor(s/N), in [0, 2s] since the integer v/N has size at most s/N,
    so at most c: no lane borrows.  Every lane's low k bits are now zero, so
    >> k leaves v/N + c in each lane (at k >= w all lanes and c are 0); the
    exit reads offset c.

    The answers, read at shift 0 on the final pieces, before the exit: each
    lane holds u = v + s in [0, 2s], and 2s < 2^(w-1).  Let L and T hold 1
    and 2^(w-1) in every lane.  v = 0 iff u ^ s = 0; (x ^ S) + T - L holds
    (u ^ s) + 2^(w-1) - 1 < 2^w in every lane, as u ^ s < 2^(w-1), so no
    lane carries, and its top bit is set iff v != 0: the nonzero count is
    the popcount of those top bits.  |v| >= least iff u >= s + least or
    u <= s - least.  At least > s no lane is a hit, as |v| <= s.  At
    least <= s, s + least <= 2s < 2^(w-1), and x + T - (s + least) L and
    T + (s - least) L - x hold u - s - least + 2^(w-1) and
    s - least - u + 2^(w-1), both in [2^(w-1) - 2s, 2^(w-1) + s) inside
    [0, 2^w), so neither carries nor borrows, and each top bit is set iff
    its case holds.  Only a piece with some top bit set is read lane by
    lane, so a dense threshold costs one pass over its hits.

    The exit is the lift's inverse: adding 2^(w-1) - s in each lane gives
    v + 2^(w-1) < 2^w, so no lane carries, and XOR with 2^(w-1) gives
    v mod 2^w.  An item's bytes above its lane repeat the sign of v, the top
    bit of the lane's top byte.
    """
    w = 8 * w8
    sub = min(count, 1 << PIECE_BITS)
    step = sub * w8
    low = int.from_bytes((b"\x01" + bytes(w8 - 1)) * sub, "little")
    top, spread = low << (w - 1), s * low
    gap, twice = top - spread, spread << 1
    full, zero = b"\xff" * w8, bytes(w8)
    masks = []
    h = 1
    while h < sub:
        masks.append((w * h, int.from_bytes((full * h + zero * h) * (sub // (2 * h)), "little")))
        h *= 2
    xs = []
    for start in range(0, len(lanes), step):
        x = (int.from_bytes(lanes[start : start + step], "little") ^ top) - gap
        for wh, m in masks:
            y = x >> wh
            x = (((x + y) & m) | (((x + twice - y) & m) << wh)) - spread
        xs.append(x)
    h = 1
    while h < len(xs):
        for i in range(len(xs)):
            if not i & h:
                a, b = xs[i], xs[i + h]
                xs[i], xs[i + h] = a + b - spread, a + spread - b
        h *= 2
    nonzero = hits = None
    if least is not None:
        ones = top - low
        nonzero = sum([(((x ^ spread) + ones) & top).bit_count() for x in xs])
        hits = []
        if least <= s:
            up, down = top - (s + least) * low, top + (s - least) * low
            for p, x in enumerate(xs):
                flags = ((x + up) | (down - x)) & top
                if flags:
                    on = (flags >> (w - 1)).to_bytes(step, "little")[::w8]
                    hits += compress(range(p * sub, (p + 1) * sub), on)
    if shift:
        rem = (1 << min(shift, w)) - 1
        check, residues = rem * low, (s & rem) * low
        for i, x in enumerate(xs):
            if x & check != residues:
                raise ExactnessError("inverse transform is not integer-valued")
            xs[i] = (x - residues) >> shift
        gap = top - (s >> shift) * low
    lanes = b"".join([((x + gap) ^ top).to_bytes(step, "little") for x in xs])
    if order is None:
        values = tuple(int.from_bytes(lanes[i : i + w8], "little", signed=True) for i in range(0, len(lanes), w8))
    elif order == range(w8):  # the lanes are the items
        values = tuple(memoryview(lanes).cast(_ITEMS[w8]))
    else:
        size = len(order)
        items = bytearray(count * size)
        for j, k in enumerate(order[:w8]):
            items[k::size] = lanes[j::w8]
        if size > w8:
            sign = lanes[w8 - 1 :: w8].translate(_SIGN)
            for k in order[w8:]:
                items[k::size] = sign
        values = tuple(memoryview(items).cast(_ITEMS[size]))
    return values, nonzero, hits


def wht(f: IntFunction | F2Set) -> IntFunction:
    """A_hat(r) = sum_x f(x) (-1)^<r,x>, exact, O(N log N) integer ops.  A
    set stands for its 0/1 indicator and enters the lanes from its points."""
    if isinstance(f, F2Set):
        return read_spectrum(f)[0]
    _check_table_dim(f.dim)
    return IntFunction(f.dim, _transform(f.values))


def read_spectrum(a: F2Set, alpha: Fraction | None = None) -> tuple[IntFunction, int, F2Set | None]:
    """The transform of the indicator of A, its count of nonzero entries and,
    given alpha, R_alpha(A), the last two read from the kernel's final lanes.
    The set's entry into `_butterfly`: byte 1 at the low byte of lane p for
    each p in A, the two's complement of 1 in any lane width, with s = |A|."""
    count, s = 1 << a.dim, len(a)
    least = s + 1 if alpha is None else _least(alpha, a.dim)
    _check_table_dim(a.dim)
    w8, order = _lane_format(s)
    ones = bytearray(count)
    deque(map(setitem, repeat(ones), a.elems, repeat(1)), 0)
    lanes = bytearray(count * w8)
    lanes[::w8] = ones
    values, nonzero, hits = _butterfly(lanes, count, w8, order, s, 0, least)
    return IntFunction(a.dim, values), nonzero, None if alpha is None else F2Set(a.dim, tuple(hits))


def inverse_wht(s: IntFunction) -> IntFunction:
    """Inverse transform; the WHT is an involution up to the factor N, which
    the kernel divides out inside the lanes."""
    return IntFunction(s.dim, _transform(s.values, s.dim))


def _least(alpha: Fraction, dim: int) -> int:
    """ceil(alpha N), the least |A_hat(r)| of an r in R_alpha; a threshold
    outside (0, 1] is refused here, before any lanes are allocated."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    return -(-(alpha.numerator << dim) // alpha.denominator)


_SCAN_BLOCK = 64  # entries per block of the large-spectrum scan


def large_spectrum_from_table(table: IntFunction, alpha: Fraction) -> F2Set:
    """The r with |table(r)| >= alpha N.  Blocks whose max and min stay
    inside (-alpha N, alpha N) are skipped whole by two C-level passes.

    It stays beside `read_spectrum` for the `chang` and `maing` draws, which
    pick alpha from a table they already hold, so the lanes would cost a
    second transform: 200 such `read_spectrum` calls at n = 4..12 take
    0.023 s, against 0.083 s for the 200 draws of a whole `chang` family
    (in process, best of 5, CPython 3.11 on 2 cores)."""
    least = _least(alpha, table.dim)
    values, hits = table.values, []
    for start in range(0, len(values), _SCAN_BLOCK):
        block = values[start : start + _SCAN_BLOCK]
        if max(block) >= least or min(block) <= -least:
            hits.extend([r for r, v in enumerate(block, start) if abs(v) >= least])
    return F2Set(table.dim, tuple(hits))
