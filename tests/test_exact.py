import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2lab.exact import (
    PRECISIONS,
    certify_ladder,
    certify_le,
    floor_log2,
    iroot,
    log2_bounds,
    pow2_bounds,
    pow_bounds,
    root_sum_dominates,
)

from oracles import floor_log2_loop, root_sum_dominates_sq


@given(st.integers(min_value=0, max_value=10**24), st.integers(min_value=1, max_value=7))
def test_iroot_floor_property(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_iroot_exact_powers():
    assert iroot(0, 3) == 0
    assert iroot(7**10, 10) == 7
    assert iroot(7**10 - 1, 10) == 6
    assert iroot(2**200, 4) == 2**50


@given(
    st.fractions(
        min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
    )
)
def test_floor_log2_matches_float(x):
    if x <= 0:
        return
    e = floor_log2(x)
    assert Fraction(2) ** e <= x < Fraction(2) ** (e + 1)


POWER_OF_TWO_NEIGHBOURS = st.builds(
    lambda e, step, den: Fraction(2) ** e * Fraction(den + step, den),
    st.integers(min_value=-80, max_value=80),
    st.sampled_from((-1, 0, 1)),
    st.integers(min_value=2, max_value=2**70),
)


@given(
    st.one_of(
        POWER_OF_TWO_NEIGHBOURS,
        st.fractions(
            min_value=Fraction(1, 2**90), max_value=Fraction(2**90), max_denominator=2**90
        ),
    )
)
@example(Fraction(1))
@example(Fraction(2**64 - 1, 2**64))
@example(Fraction(2**64 + 1, 2**128))
@example(Fraction(2**100, 3))
def test_floor_log2_matches_loop_oracle(x):
    # powers of two, their neighbours just above and below, and any rational
    if x > 0:
        assert floor_log2(x) == floor_log2_loop(x)


@pytest.mark.parametrize("x", [Fraction(3), Fraction(1, 3), Fraction(7, 5), Fraction(1023, 512)])
def test_log2_bounds_bracket_truth(x):
    lo, hi = log2_bounds(x, 24)
    truth = math.log2(float(x))
    assert float(lo) <= truth + 1e-9
    assert truth - 1e-9 <= float(hi)
    assert hi - lo <= Fraction(1, 1 << 24)


def test_log2_bounds_exact_powers():
    assert log2_bounds(Fraction(8), 16) == (Fraction(3), Fraction(3))
    assert log2_bounds(Fraction(1, 4), 16) == (Fraction(-2), Fraction(-2))


@pytest.mark.parametrize(
    "x", [Fraction(0), Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4), Fraction(13, 8)]
)
def test_pow2_bounds_bracket_truth(x):
    lo, hi = pow2_bounds(x, 24)
    truth = 2.0 ** float(x)
    assert float(lo) <= truth * (1 + 1e-6)
    assert truth * (1 - 1e-6) <= float(hi)
    assert lo <= hi


def test_pow2_bounds_exact_integer_exponent():
    assert pow2_bounds(Fraction(5), 16) == (Fraction(32), Fraction(32))


def test_pow_bounds_rational_power():
    # 2^(3/2) = 2.828427...
    lo, hi = pow_bounds((Fraction(2), Fraction(2)), (Fraction(3, 2), Fraction(3, 2)), 32)
    truth = 2 ** 1.5
    assert float(lo) <= truth <= float(hi)
    assert float(hi - lo) < 1e-6


def test_certify_le():
    assert certify_le(3, (Fraction(4), Fraction(5))) == "holds"
    assert certify_le(6, (Fraction(4), Fraction(5))) == "violated"
    assert certify_le(Fraction(9, 2), (Fraction(4), Fraction(5))) == "unknown"


def test_root_sum_dominates_basic():
    # 8^(1/4) <= 1 + 1 i.e. T_2({a,b}) = 8 <= (1+1)^4
    assert root_sum_dominates(8, 1, 1, 4)
    assert not root_sum_dominates(17, 1, 1, 4)
    # equality through a zero side
    assert root_sum_dominates(21, 21, 0, 4)
    assert not root_sum_dominates(22, 21, 0, 4)


def test_root_sum_dominates_top_rung_is_256_bits():
    # (1 + sqrt(x^2 + 1))^2 = x^2 + 2x + 2 + (about 1/x): a gap of 1e-35 that
    # the 256-bit rung resolves and a 192-bit rung would not
    x = 10**35
    assert root_sum_dominates(x * x + 2 * x + 2, 1, x * x + 1, 2)
    assert not root_sum_dominates(x * x + 2 * x + 3, 1, x * x + 1, 2)


def test_root_sum_dominates_equality_with_both_sides_positive():
    # sqrt 18 = sqrt 2 + sqrt 8 and cbrt 54 = cbrt 2 + cbrt 16, exactly
    assert root_sum_dominates(18, 2, 8, 2)
    assert root_sum_dominates(54, 2, 16, 3)
    assert not root_sum_dominates(19, 2, 8, 2)
    assert not root_sum_dominates(55, 2, 16, 3)


def test_certify_ladder_stops_at_first_deciding_rung():
    asked = []

    def bracket_at(prec):
        asked.append(prec)
        return (Fraction(3), Fraction(4)) if prec >= 24 else (Fraction(0), Fraction(9))

    assert certify_ladder(2, bracket_at) == ("holds", (3, 4))
    assert asked == list(PRECISIONS[:2])


def test_certify_ladder_escalates_past_none():
    asked = []

    def bracket_at(prec):
        asked.append(prec)
        return None if prec < 48 else (Fraction(1), Fraction(2))

    assert certify_ladder(5, bracket_at) == ("violated", (1, 2))
    assert asked == list(PRECISIONS[:3])


def test_certify_ladder_undecided_returns_last_bracket():
    status, bracket = certify_ladder(
        Fraction(3, 2), lambda prec: (Fraction(1), 2 + Fraction(1, prec))
    )
    assert status == "undecided"
    assert bracket == (1, 2 + Fraction(1, PRECISIONS[-1]))
    assert certify_ladder(1, lambda prec: None) == ("undecided", None)


def test_root_sum_dominates_decides_below_the_256_bit_rung():
    # a gap near 1e-80 between sqrt(x^2 + 2x + 2) and 1 + sqrt(x^2 + 1)
    x = 10**80
    assert root_sum_dominates(x * x + 2 * x + 2, 1, x * x + 1, 2)
    assert not root_sum_dominates(x * x + 2 * x + 3, 1, x * x + 1, 2)
    # equality (1 + x)^(e) with parts 1 and x^e sits at the top rung
    for e in (1, 2, 3, 4):
        assert root_sum_dominates((1 + x) ** e, 1, x**e, e)
        assert not root_sum_dominates((1 + x) ** e + 1, 1, x**e, e)


def test_certify_ladder_top_rung_ends_the_ladder():
    asked = []

    def bracket_at(prec):
        asked.append(prec)
        return (Fraction(1), Fraction(3))

    assert certify_ladder(2, bracket_at, top=40) == ("undecided", (1, 3))
    assert asked == [12, 24, 40]
    asked.clear()
    assert certify_ladder(2, bracket_at, top=1000)[0] == "undecided"
    assert asked == [*PRECISIONS, 1000]


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=-3, max_value=3),
)
def test_root_sum_dominates_square_roots_vs_oracle(part_a, part_b, offset):
    # totals next to (sqrt a + sqrt b)^2 = a + b + 2 sqrt(ab), where the
    # brackets are narrowest
    total = max(part_a + part_b + 2 * math.isqrt(part_a * part_b) + offset, 0)
    want = root_sum_dominates_sq(total, part_a, part_b)
    assert root_sum_dominates(total, part_a, part_b, 2) == want
    # equality sqrt(a (u + v)^2) = sqrt(a u^2) + sqrt(a v^2), and just above it
    u, v = 1 + abs(offset), 1 + part_b % 7
    for extra, want in ((0, True), (1, False)):
        args = (part_a * (u + v) ** 2 + extra, part_a * u * u, part_a * v * v)
        assert root_sum_dominates_sq(*args) is want
        assert root_sum_dominates(*args, 2) is want


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=6),
)
def test_root_sum_dominates_vs_float(ta, tb, e):
    total = int((ta ** (1 / e) + tb ** (1 / e)) ** e * 0.999)
    if total >= 0:
        assert root_sum_dominates(total, ta, tb, e)
