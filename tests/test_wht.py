import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2lab.cli import execute
from f2lab.core import BudgetError, DimensionError, ExactnessError, F2Set
from f2lab.wht import IntFunction, inverse_wht, large_spectrum_from_table, read_spectrum, wht

from oracles import butterfly_wht, indicator_table, naive_wht


def test_wht_point_mass():
    f = IntFunction(2, (1, 0, 0, 0))  # the point mass at 0
    assert wht(f).values == (1, 1, 1, 1)


def test_wht_full_group():
    f = IntFunction(3, (1,) * 8)
    got = wht(f)
    assert got.values[0] == 8
    assert all(v == 0 for v in got.values[1:])


def test_wht_subspace_indicator():
    # H = span(e1, e2) inside F_2^4; A_hat = |H| on the annihilator, else 0
    h = F2Set(4, (0, 1, 2, 3))
    table = wht(IntFunction(h.dim, indicator_table(h)))
    annihilator = {0, 4, 8, 12}
    for r, v in enumerate(table.values):
        assert v == (4 if r in annihilator else 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_wht_matches_naive_oracle(dim, data):
    n = 1 << dim
    values = tuple(
        data.draw(st.integers(min_value=-50, max_value=50)) for _ in range(n)
    )
    fast = wht(IntFunction(dim, values)).values
    assert list(fast) == naive_wht(values)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.data())
def test_wht_and_roundtrip_match_naive_oracle_wide_values(dim, data):
    # values up to 2^100 need lanes of up to 14 bytes, beyond every native item
    values = tuple(
        data.draw(st.integers(min_value=-(2**100), max_value=2**100)) for _ in range(1 << dim)
    )
    f = IntFunction(dim, values)
    assert list(wht(f).values) == naive_wht(values)
    assert inverse_wht(wht(f)).values == values


def _tables_with_mass(total, dim=3):
    """Tables of 2^dim entries with sum |f| == total, signed by +-chi_0 and
    +-chi_5, so that some coefficient reaches +total or -total."""
    n = 1 << dim
    parts = [total // n] * (n - 1) + [total - (n - 1) * (total // n)]
    chi = [[-1 if (r & x).bit_count() & 1 else 1 for x in range(n)] for r in (0, 5)]
    signs = chi + [[-c for c in row] for row in chi]
    return [tuple(c * p for c, p in zip(row, parts)) for row in signs]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_wht_at_lane_width_boundaries(offset):
    # sum |f| = s takes w8 bytes while 4s < 2^(8 w8); the exponents 4..71
    # put s on both sides of every byte-width step: 2^6, 2^14, ..., 2^62 (the
    # last native item) and 2^70, the first lanes packed with to_bytes
    for exponent in range(4, 72):
        for values in _tables_with_mass(2**exponent + offset):
            table = wht(IntFunction(3, values))
            assert list(table.values) == naive_wht(values)
            assert max(map(abs, table.values)) == sum(map(abs, values))
            assert inverse_wht(table).values == values


@pytest.mark.parametrize("w8", [3, 5, 6, 7])
def test_wht_sign_fill_when_items_are_wider_than_lanes(w8):
    # lanes of 3, 5, 6 and 7 bytes travel in 4- and 8-byte items, whose bytes
    # above the lane are filled with the lane's sign on the way out; s * chi_1
    # puts +s and -s, the ends of the lane range, in adjacent lanes
    rng = random.Random(w8)
    for s in (1 << (8 * w8 - 10), (1 << (8 * w8 - 2)) - 1):  # least and most mass of w8 bytes
        assert max(1, ((4 * s).bit_length() + 7) // 8) == w8
        for dim in (4, 5, 9):
            n = 1 << dim
            spikes = [tuple(c if x == 1 else 0 for x in range(n)) for c in (s, -s)]
            chi = tuple((s // n) * (-1) ** (x & 5).bit_count() for x in range(n))
            cuts = sorted(rng.randrange(s) for _ in range(n - 1))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, s])]
            mixed = tuple(rng.choice((1, -1)) * p for p in parts)
            for values in (*spikes, chi, mixed):
                table = wht(IntFunction(dim, values))
                assert list(table.values) == butterfly_wht(values)
                assert inverse_wht(table).values == values
            assert set(wht(IntFunction(dim, spikes[0])).values) == {s, -s}


def test_wht_all_zero_and_single_huge_entry():
    for dim in range(0, 6):
        zeros = (0,) * (1 << dim)
        assert wht(IntFunction(dim, zeros)).values == zeros
        assert inverse_wht(IntFunction(dim, zeros)).values == zeros
    for big in (2**200 + 1, -(2**200) - 1, 2**63, -(2**62)):
        values = tuple(big if x == 5 else 0 for x in range(16))
        table = wht(IntFunction(4, values))
        assert list(table.values) == naive_wht(values)
        assert inverse_wht(table).values == values


def test_wht_matches_butterfly_oracle_large_dims():
    rng = random.Random(1216)
    for dim in range(12, 17):
        values = tuple(
            rng.choice((0, 0, 1, -1, rng.randint(-(2**40), 2**40))) for _ in range(1 << dim)
        )
        assert list(wht(IntFunction(dim, values)).values) == butterfly_wht(values)


def test_split_tables_and_sets_match_butterfly_oracle():
    # pieces of 2^12 lanes: n = 11 and 12 are one piece, n = 13 and 14 run
    # one and two outer stages; values up to 2^40 take 6-byte lanes in
    # 8-byte items, and 63 points take 1-byte lanes
    assert sys.modules["f2lab.wht"].PIECE_BITS == 12
    rng = random.Random(31)
    for dim in range(11, 15):
        n = 1 << dim
        values = tuple(rng.choice((0, 0, 1, -1, rng.randint(-(2**40), 2**40))) for _ in range(n))
        table = wht(IntFunction(dim, values))
        assert list(table.values) == butterfly_wht(values)
        assert inverse_wht(table).values == values
        for size in (63, 1 << 10, n):
            a = F2Set.from_bits(dim, rng.sample(range(n), size))
            spectrum = wht(a)
            assert list(spectrum.values) == butterfly_wht(indicator_table(a))
            assert inverse_wht(spectrum).values == indicator_table(a)


@pytest.mark.parametrize("piece_bits", [0, 1, 2])
def test_outer_stages_match_naive_oracle(piece_bits, monkeypatch):
    # pieces of 1, 2 and 4 lanes, so every dim up to 8 runs outer stages,
    # down to P = 2^n pieces of one lane, at every lane width from 1 byte
    # to the 14 of to_bytes
    monkeypatch.setattr(sys.modules["f2lab.wht"], "PIECE_BITS", piece_bits)
    rng = random.Random(piece_bits)
    for dim in range(0, 9):
        n = 1 << dim
        for bound in (1, 50, 2**20, 2**60, 2**100):
            values = tuple(rng.randint(-bound, bound) for _ in range(n))
            table = wht(IntFunction(dim, values))
            assert list(table.values) == naive_wht(values)
            assert inverse_wht(table).values == values
        for size in sorted({0, 1, n // 2, n, min(n, 63), min(n, 64)}) if dim else ():
            a = F2Set.from_bits(dim, rng.sample(range(n), size))
            assert list(wht(a).values) == naive_wht(indicator_table(a))


@pytest.mark.parametrize("piece_bits", [2, 12])
def test_inverse_wht_checks_every_piece(piece_bits, monkeypatch):
    # Tables that are no transform are refused, also when the entries that
    # are not divisible by N sit in the first or the last piece only.  One
    # entry off by 1 in the first or the last piece shifts every output by
    # 1/N.  k chi_z on the multiples of sub has, over N, the output k/sub on
    # the piece of z and 0 on every other (the sum of chi_(y+z) over the
    # multiples of sub counts P where y and z agree above the low bits).  At
    # k = 1, s = P takes 1-byte lanes, w = 8 <= n; at k = N + 1 and added to
    # a transform of entries in [-3, 3], s >= N puts n below w.  Pieces of 4
    # lanes split n = 8 too; the unperturbed transforms round-trip
    monkeypatch.setattr(sys.modules["f2lab.wht"], "PIECE_BITS", piece_bits)
    rng = random.Random(piece_bits)
    for dim in (8, 13, 14) if piece_bits == 2 else (13, 14):
        n, sub = 1 << dim, 1 << piece_bits
        values = tuple(rng.randint(-3, 3) for _ in range(n))
        table = wht(IntFunction(dim, values))
        assert inverse_wht(table).values == values
        for at in (0, sub - 1, n - sub, n - 1):
            for base in (table.values, (0,) * n):
                bad = list(base)
                bad[at] += 1
                with pytest.raises(ExactnessError):
                    inverse_wht(IntFunction(dim, tuple(bad)))
        for z in (0, n - 1):
            for k in (1, n + 1):
                chi = tuple(0 if r % sub else k * (-1) ** (r & z).bit_count() for r in range(n))
                with pytest.raises(ExactnessError):
                    inverse_wht(IntFunction(dim, chi))
                whole = tuple(sub * v for v in chi)
                assert inverse_wht(IntFunction(dim, whole)).values == tuple(
                    k if x // sub == z // sub else 0 for x in range(n)
                )


def test_inverse_wht_non_image_table_reported_at_every_width():
    rng = random.Random(77)
    for dim, bound in ((1, 3), (6, 2**20), (8, 2**100)):
        values = [rng.randint(-bound, bound) for _ in range(1 << dim)]
        table = list(wht(IntFunction(dim, tuple(values))).values)
        table[rng.randrange(1 << dim)] += 1  # shifts every inverse value by 1/N
        with pytest.raises(ExactnessError):
            inverse_wht(IntFunction(dim, tuple(table)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_wht_of_set_matches_naive_oracle(dim, data):
    # the points enter the lanes directly, without a 0/1 table
    n = 1 << dim
    size = min(n, data.draw(st.sampled_from([0, 1, n, 63, 64]) | st.integers(0, n)))
    a = F2Set.from_bits(dim, data.draw(st.permutations(range(n)))[:size])
    assert list(wht(a).values) == naive_wht(indicator_table(a))


def test_wht_of_set_at_lane_width_steps():
    # lanes take w8 bytes while 4|A| < 2^(8 w8): |A| = 63 fills 1-byte lanes
    # and 64 takes 2, 2^14 - 1 and 2^14 straddle the step from 2 to 3; with
    # the empty set, one point and the full group at every n up to 8
    rng = random.Random(30)
    for dim in range(1, 9):
        n = 1 << dim
        for size in sorted({0, 1, n - 1, n, 63, 64} - set(range(n + 1, 65))):
            a = F2Set.from_bits(dim, rng.sample(range(n), size))
            assert list(wht(a).values) == naive_wht(indicator_table(a))
            assert wht(a).values == wht(IntFunction(a.dim, indicator_table(a))).values
    for size in ((1 << 14) - 1, 1 << 14):
        a = F2Set.from_bits(15, rng.sample(range(1 << 15), size))
        assert list(wht(a).values) == butterfly_wht(indicator_table(a))


def test_wht_of_set_refuses_tables_above_cap(monkeypatch):
    # the points entry never builds a table with `IntFunction.from_points`,
    # whose check it would otherwise inherit, so it checks the cap for a set too
    monkeypatch.setattr(sys.modules["f2lab.wht"], "WHT_DIM_CAP", 4)
    with pytest.raises(BudgetError):
        wht(F2Set(12, (1,)))
    with pytest.raises(BudgetError):
        wht(F2Set(5, ()))
    assert wht(F2Set(4, (1,))).values == tuple((-1) ** (r & 1) for r in range(16))


def test_inverse_wht_divides_inside_the_lanes():
    # inverse_wht divides by N = 2^n in the lanes, with s = sum |table|.
    # The zero table (s = 0 < N) comes back zero, also at n >= w = 8; a
    # nonzero table with s < N is no transform and is refused, also at
    # n >= w; +-1 everywhere (s = N) is +-N times a point mass
    for dim in (1, 2, 5, 8, 9, 12):
        n = 1 << dim
        assert inverse_wht(IntFunction(dim, (0,) * n)).values == (0,) * n
        for c in {1, 3, n - 1}:
            for at in (0, n - 1):
                with pytest.raises(ExactnessError):
                    inverse_wht(IntFunction(dim, tuple(c if x == at else 0 for x in range(n))))
        for sign in (1, -1):
            assert inverse_wht(IntFunction(dim, (sign,) * n)).values == (sign,) + (0,) * (n - 1)
    # transforms scaled so that s lies on both sides of every lane-width
    # step, s < 2^(8 w8 - 2), from 1-byte lanes to 10-byte ones
    rng = random.Random(32)
    for dim in (1, 3, 6):
        n = 1 << dim
        f = [rng.randint(-3, 3) for _ in range(n - 1)] + [5]
        base = wht(IntFunction(dim, tuple(f))).values
        s0 = sum(map(abs, base))
        for w8 in range(1, 11):
            edge = 1 << (8 * w8 - 2)
            scales = [k for k in (edge // s0 - 1, edge // s0, edge // s0 + 1) if k > 0]
            masses = [k * s0 for k in scales]
            assert min(masses) < edge <= max(masses) or edge <= s0
            for k in scales:
                table = IntFunction(dim, tuple(k * v for v in base))
                assert inverse_wht(table).values == tuple(k * v for v in f)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_parseval_exact(dim, data):
    n = 1 << dim
    size = data.draw(st.integers(min_value=0, max_value=n))
    elems = data.draw(st.permutations(range(n)))[:size]
    a = F2Set.from_bits(dim, elems)
    table = wht(a)
    assert sum(v * v for v in table.values) == n * len(a)
    assert table.values[0] == len(a)


def test_parseval_exhaustive_all_sets_small():
    # every subset of F_2^n for n <= 3
    for dim in (1, 2, 3):
        n = 1 << dim
        for mask in range(1 << n):
            elems = [x for x in range(n) if (mask >> x) & 1]
            a = F2Set.from_bits(dim, elems)
            table = wht(a)
            assert sum(v * v for v in table.values) == n * len(a)


def test_parseval_randomized_large_dims():
    rng = random.Random(161)
    for dim in (13, 14, 15, 16):
        n = 1 << dim
        a = F2Set.from_bits(dim, rng.sample(range(n), rng.randint(1, 2000)))
        table = wht(a)
        assert sum(v * v for v in table.values) == n * len(a)


def test_inverse_wht_roundtrip_random():
    rng = random.Random(11)
    for dim in (1, 4, 10):
        vals = tuple(rng.randint(-99, 99) for _ in range(1 << dim))
        f = IntFunction(dim, vals)
        assert inverse_wht(wht(f)).values == vals


def test_inverse_wht_point_masses():
    all_ones = IntFunction(3, (1,) * 8)
    assert inverse_wht(all_ones).values == (1,) + (0,) * 7
    dc_only = IntFunction(3, (8,) + (0,) * 7)
    assert inverse_wht(dc_only).values == (1,) * 8


def test_inverse_wht_non_integer_reported():
    with pytest.raises(ExactnessError):
        inverse_wht(IntFunction(2, (1, 0, 0, 0)))


def test_large_spectrum_subspace():
    # codimension-2 subspace: R_alpha = annihilator (size 4) for alpha <= 2^-2
    h = F2Set(4, (0, 1, 2, 3))
    got = read_spectrum(h, Fraction(1, 4))[2]
    assert got.elems == (0, 4, 8, 12)
    # naive-threshold oracle
    table = [abs(v) for v in naive_wht(indicator_table(h))]
    expect = [r for r, v in enumerate(table) if 4 * v >= 16]
    assert list(got.elems) == expect


def test_large_spectrum_threshold_between_integers():
    # alpha N need not be an integer; |A_hat(r)| >= alpha N is compared exactly
    a = F2Set(4, (1, 2, 4, 9, 13))
    table = naive_wht(indicator_table(a))
    for q in range(1, 65):
        for p in range(1, q + 1):
            alpha = Fraction(p, q)
            expect = [r for r, v in enumerate(table) if abs(v) >= alpha * 16]
            assert list(read_spectrum(a, alpha)[2].elems) == expect


def test_large_spectrum_full_group_alpha_one():
    g = F2Set(3, tuple(range(8)))
    assert read_spectrum(g, Fraction(1))[2].elems == (0,)


def test_large_spectrum_above_density_empty():
    a = F2Set(3, (0, 1))
    assert read_spectrum(a, Fraction(1, 2))[2].elems == ()


def test_large_spectrum_contains_zero_when_alpha_below_density():
    a = F2Set(4, (0, 3, 5, 9, 12))
    alpha = Fraction(5, 16)
    got = read_spectrum(a, alpha)[2]
    assert 0 in got


def test_large_spectrum_parseval_bound_random():
    rng = random.Random(3)
    for _ in range(40):
        dim = rng.randint(2, 8)
        n = 1 << dim
        size = rng.randint(1, n)
        a = F2Set.from_bits(dim, rng.sample(range(n), size))
        alpha = Fraction(rng.randint(1, size), n)
        got = read_spectrum(a, alpha)[2]
        delta = Fraction(len(a), n)
        assert len(got) <= delta / alpha**2


def test_exact_threshold_boundary_inclusive():
    # |A_hat(r)| == alpha*N exactly must be included ("large" is >=)
    h = F2Set(4, (0, 1, 2, 3))  # spectrum is 4 on the annihilator
    assert read_spectrum(h, Fraction(4, 16))[2].elems == (0, 4, 8, 12)
    # just above the density everything drops out, including 0
    assert read_spectrum(h, Fraction(5, 16))[2].elems == ()


def test_large_spectrum_from_table_matches_plain_scan():
    # blocks whose max and min stay inside the threshold are skipped; hits on
    # the first and last entry of a block, tables shorter than one block, and
    # a block that reaches the threshold only below zero
    block = sys.modules["f2lab.wht"]._SCAN_BLOCK
    rng = random.Random(64)
    alpha = Fraction(1, 8)
    for dim in (1, 2, 3, 6, 8, 10):
        n = 1 << dim
        least = -(-n // 8)  # ceil(alpha N)
        starts = range(0, n, block)
        edges = [i for b in starts for i in (b, min(b + block, n) - 1)]
        for _ in range(5):
            values = [rng.randint(-least + 1, least - 1) for _ in range(n)]
            for r in rng.sample(edges, min(3, len(edges))):
                values[r] = rng.choice((least, -least, 3 * least))
            if len(starts) > 2:
                b = rng.choice(starts[1:])
                values[b : b + block] = [min(v, least - 1) for v in values[b : b + block]]
                values[b + rng.randrange(block)] = -least
            expect = [r for r, v in enumerate(values) if abs(v) >= alpha * n]
            assert list(large_spectrum_from_table(IntFunction(dim, tuple(values)), alpha).elems) == expect
        assert large_spectrum_from_table(IntFunction(dim, (0,) * n), alpha).elems == ()


def _check_lane_answers(a, table):
    # read_spectrum's nonzero count and R_alpha against the scans of a table
    # from the butterfly oracle, at alpha = 1/N, 1/64, 1/2 and 1, at
    # least = s and at least = s + 1 > s (no hits, |A_hat| <= s)
    n, s = 1 << a.dim, len(a)
    got, nonzero, spectrum = read_spectrum(a)
    assert list(got.values) == table and spectrum is None
    assert nonzero == n - table.count(0)
    alphas = {Fraction(1, n), Fraction(1, 64), Fraction(1, 2), Fraction(1)}
    alphas |= {Fraction(least, n) for least in (s, s + 1) if 0 < least <= n}
    hits = []
    for alpha in sorted(alphas):
        got, nonzero, spectrum = read_spectrum(a, alpha)
        assert list(got.values) == table and nonzero == n - table.count(0)
        assert spectrum == large_spectrum_from_table(IntFunction(a.dim, tuple(table)), alpha)
        hits += spectrum.elems
    return hits


def test_read_spectrum_answers_match_table_scans():
    # pieces of 2^12 lanes: n = 13 and 14 read hits from two and four pieces
    rng = random.Random(40)
    for dim in range(1, 15):
        n = 1 << dim
        for elems in ((), (rng.randrange(n),), range(n), rng.sample(range(n), rng.randint(1, n))):
            a = F2Set.from_bits(dim, elems)
            _check_lane_answers(a, butterfly_wht(indicator_table(a)))


@pytest.mark.parametrize("piece_bits", [0, 2])
def test_read_spectrum_answers_in_later_pieces(piece_bits, monkeypatch):
    # pieces of 1 and 4 lanes, so hits land in pieces after the first
    monkeypatch.setattr(sys.modules["f2lab.wht"], "PIECE_BITS", piece_bits)
    rng = random.Random(piece_bits)
    late = 0
    for dim in range(1, 9):
        n = 1 << dim
        for elems in ((), (rng.randrange(n),), range(n), rng.sample(range(n), rng.randint(1, n))):
            a = F2Set.from_bits(dim, elems)
            hits = _check_lane_answers(a, naive_wht(indicator_table(a)))
            late += sum(r >> piece_bits > 0 for r in hits)
    assert late > 0


def test_spectrum_rows_format(tmp_path):
    out = tmp_path / "spectrum.csv"
    execute({"command": "spectrum", "set_text": "2\n00\n"}, str(out))
    assert out.read_text() == "r,coefficient\n00,1\n10,1\n01,1\n11,1\n"


def test_wht_matches_naive_transform():
    rng = random.Random(5)
    vals = tuple(rng.randint(-9, 9) for _ in range(1 << 10))
    assert list(wht(IntFunction(10, vals)).values) == naive_wht(vals)


def test_indicator_refuses_tables_above_cap(monkeypatch):
    # f2lab.wht names the function, so reach the module through sys.modules
    monkeypatch.setattr(sys.modules["f2lab.wht"], "WHT_DIM_CAP", 4)
    with pytest.raises(BudgetError):
        IntFunction.from_points(12, (1,), (1,))


@pytest.mark.parametrize("point", [-1, 8, 1 << 70])
def test_from_points_refuses_points_outside_the_group(point):
    # -1 would otherwise be written at entry 7, and 8 past the table's end
    with pytest.raises(DimensionError):
        IntFunction.from_points(3, [2, point], [1, 5])
    assert IntFunction.from_points(3, [0, 7], [5, -1]).values == (5, 0, 0, 0, 0, 0, 0, -1)


def test_large_spectrum_checks_alpha_before_transform(monkeypatch):
    def no_transform(*args):
        raise AssertionError("alpha must be refused before the transform")

    monkeypatch.setattr(sys.modules["f2lab.wht"], "_butterfly", no_transform)
    for alpha in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError):
            read_spectrum(F2Set(4, (1, 2)), alpha)
