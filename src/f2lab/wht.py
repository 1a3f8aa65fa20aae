"""Exact fast Walsh-Hadamard transform and large-spectrum extraction.

Tables hold arbitrary-precision Python integers throughout, so Parseval and
all downstream energy computations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import BudgetError, DimensionError, F2Set, bits_to_string
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


@dataclass(frozen=True)
class IntFunction:
    """An integer-valued function on F_2^n as a table of length 2^n."""

    dim: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 1 << self.dim:
            raise DimensionError("table length must be exactly 2^n")

    @classmethod
    def from_points(cls, dim: int, pairs: Iterable[tuple[int, int]]) -> "IntFunction":
        """The function with the given (point, value) pairs, zero elsewhere;
        the table cap is checked before the table is allocated."""
        _check_table_dim(dim)
        vals = [0] * (1 << dim)
        for x, v in pairs:
            vals[x] = v
        return cls(dim, tuple(vals))

    @classmethod
    def indicator(cls, s: F2Set) -> "IntFunction":
        return cls.from_points(s.dim, ((e, 1) for e in s.elems))


@dataclass(frozen=True)
class SpectrumTable:
    """Fourier table {A_hat(r)} of an integer function, exact integers."""

    dim: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != 1 << self.dim:
            raise DimensionError("table length must be exactly 2^n")


def _butterfly(vals: list[int]) -> None:
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


def wht(f: IntFunction) -> SpectrumTable:
    """A_hat(r) = sum_x f(x) (-1)^<r,x>, exact, O(N log N) integer ops."""
    _check_table_dim(f.dim)
    vals = list(f.values)
    _butterfly(vals)
    return SpectrumTable(f.dim, tuple(vals))


def spectrum_of_set(a: F2Set) -> SpectrumTable:
    """Fourier table of the 0/1 indicator of a set."""
    return wht(IntFunction.indicator(a))


def inverse_wht(s: SpectrumTable) -> IntFunction:
    """Inverse transform; the WHT is an involution up to the factor N."""
    n = 1 << s.dim
    vals = list(s.values)
    _butterfly(vals)
    out = []
    for v in vals:
        q, r = divmod(v, n)
        if r:
            raise ExactnessError("inverse transform is not integer-valued")
        out.append(q)
    return IntFunction(s.dim, tuple(out))


def large_spectrum(a: F2Set, alpha: Fraction) -> F2Set:
    """R_alpha = { r : |A_hat(r)| >= alpha * N }, threshold compared exactly."""
    if len(a) == 0:
        raise ValueError("large spectrum of an empty set")
    check_alpha(alpha)
    return large_spectrum_from_table(spectrum_of_set(a), alpha)


def large_spectrum_from_table(table: SpectrumTable, alpha: Fraction) -> F2Set:
    check_alpha(alpha)
    n = 1 << table.dim
    p, q = alpha.numerator, alpha.denominator
    hits = [r for r, v in enumerate(table.values) if abs(v) * q >= p * n]
    return F2Set(table.dim, tuple(hits))


def spectrum_rows(s: SpectrumTable) -> Iterator[tuple[str, int]]:
    """(bitstring of r, A_hat(r)) rows for the CSV dump format."""
    for r, v in enumerate(s.values):
        yield bits_to_string(r, s.dim), v
