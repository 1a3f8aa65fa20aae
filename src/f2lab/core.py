"""Exact arithmetic and set machinery for the group F_2^n.

Elements are n-bit machine words (bit i-1 of the word = coordinate i of the
vector), sets are strictly sorted tuples of such words.  All values are
immutable and every operation is a pure function of its inputs, so anything
here can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import comb
from typing import Iterable, Iterator, Sequence

MAX_DIM = 30
SUMSET_BUDGET = 10_000_000


class DimensionError(ValueError):
    """Operands live in different F_2^n or n is out of range."""


class SetFileError(ValueError):
    """Malformed set file (bad length, bad character, duplicate line)."""


class BudgetError(RuntimeError):
    """An exact enumeration would exceed its documented budget."""


class ExactnessError(ArithmeticError):
    """An exact computation failed to resolve (divisibility, bracketing)."""


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise DimensionError(f"dimension {dim} outside 1..{MAX_DIM}")


def bits_to_string(bits: int, dim: int) -> str:
    """Render as a {0,1}^n string, leftmost character = coordinate 1."""
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(dim))


def string_to_bits(s: str) -> int:
    bad = s.strip("01")  # empty, or starting at the first character other than 0 and 1
    if bad:
        raise SetFileError(f"bad character {bad[0]!r} in element string")
    return int(s[::-1] or "0", 2)


class Value:
    """Base of the value classes: equal, with equal hashes, when of the same
    class with equal fields (the names in `__slots__`)."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class F2Set(Value):
    """A finite subset of F_2^n as a strictly sorted tuple of words."""

    __slots__ = ("dim", "elems")

    def __init__(self, dim: int, elems: tuple[int, ...]) -> None:
        _check_dim(dim)
        top = 1 << dim
        prev = -1
        for e in elems:
            if not 0 <= e < top:
                raise DimensionError(f"element {e} out of range for n={dim}")
            if e <= prev:
                raise ValueError("elements must be strictly sorted (no duplicates)")
            prev = e
        self.dim = dim
        self.elems = elems

    @classmethod
    def from_bits(cls, dim: int, bits: Iterable[int]) -> "F2Set":
        return cls(dim, tuple(sorted(set(bits))))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __contains__(self, bits: int) -> bool:
        i = bisect_left(self.elems, bits)
        return i < len(self.elems) and self.elems[i] == bits

    def union(self, other: "F2Set") -> "F2Set":
        self._same_group(other)
        return F2Set.from_bits(self.dim, self.elems + other.elems)

    def difference(self, other: "F2Set") -> "F2Set":
        self._same_group(other)
        drop = set(other.elems)
        return F2Set(self.dim, tuple(e for e in self.elems if e not in drop))

    def intersection(self, other: "F2Set") -> "F2Set":
        self._same_group(other)
        keep = set(other.elems)
        return F2Set(self.dim, tuple(e for e in self.elems if e in keep))

    def issubset(self, other: "F2Set") -> bool:
        self._same_group(other)
        return set(self.elems) <= set(other.elems)

    def _same_group(self, other: "F2Set") -> None:
        if self.dim != other.dim:
            raise DimensionError("sets live in different groups")


def subset_sums(elems: Sequence[int], size: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (XOR, subset) over the size-subsets of elems in `combinations` order."""
    for combo in itertools.combinations(elems, size):
        acc = 0
        for e in combo:
            acc ^= e
        yield acc, combo


def distinct_sumset_power(a: F2Set, d: int) -> F2Set:
    """d-fold distinct sumset of one set: the sums of d distinct members.

    Enumeration cost is capped by SUMSET_BUDGET d-subsets.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    count = comb(len(a), d)
    if count > SUMSET_BUDGET:
        raise BudgetError(f"{count} combinations exceed budget {SUMSET_BUDGET}")
    return F2Set.from_bits(a.dim, (x for x, _ in subset_sums(a.elems, d)))


_DROP_BITS = str.maketrans("", "", "01")  # a line of a set file translates to ""


def parse_set(text: str) -> F2Set:
    """Parse the canonical set-file format.

    First line is the dimension n, each following nonempty line one element
    as an n-character {0,1} string (leftmost character = coordinate 1).
    Duplicate lines are a hard error, never silently merged.  Lengths and
    characters are checked over the whole file at once, and duplicates by
    F2Set's strict order on the sorted elements; only a file that fails is
    walked line by line, to report its first fault.
    """
    lines = text.splitlines()
    if not lines:
        raise SetFileError("empty set file")
    try:
        dim = int(lines[0].strip())
    except ValueError:
        raise SetFileError(f"bad dimension header {lines[0]!r}") from None
    _check_dim(dim)
    rows = list(filter(None, map(str.strip, lines[1:])))
    if not set(map(len, rows)) <= {dim} or "".join(rows).translate(_DROP_BITS):
        _raise_first_fault(lines, dim)
    elems = tuple(sorted([int(row[::-1], 2) for row in rows]))
    try:
        return F2Set(dim, elems)
    except ValueError:  # a duplicate line breaks the strict order
        _raise_first_fault(lines, dim)


def _raise_first_fault(lines: list[str], dim: int) -> None:
    """Raise the SetFileError of the first faulty line of a set file."""
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if len(line) != dim:
            raise SetFileError(f"line {lineno}: length {len(line)} != dimension {dim}")
        try:
            bits = string_to_bits(line)
        except SetFileError as exc:
            raise SetFileError(f"line {lineno}: {exc}") from None
        if bits in seen:
            raise SetFileError(f"line {lineno}: duplicate element (first at line {seen[bits]})")
        seen[bits] = lineno
    raise AssertionError("a set file failed its bulk checks but has no faulty line")


def serialize_set(s: F2Set) -> str:
    """Canonical set-file text: sorted elements, one per line."""
    lines = [str(s.dim)]
    lines.extend(bits_to_string(e, s.dim) for e in s.elems)
    return "\n".join(lines) + "\n"
