import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f2lab.bench import check_holder, check_subadditivity
from f2lab.core import BudgetError, F2Set, distinct_sumset_power
from f2lab.dissociation import gf2_rank, random_dissociated
from f2lab.energy import (
    _krawtchouk_energy,
    _span_coordinates,
    additive_energy,
    convolve,
    energy_bruteforce,
    energy_convolution,
    energy_excess_compare,
    energy_function,
    energy_multiset,
    energy_spectral,
    full_sumset_energy,
)
from f2lab.wht import IntFunction

from oracles import convolve_defn, energy_sum_counts, energy_tuples, energy_tuples_multiset


def test_singleton_energy():
    a = F2Set(4, (9,))
    for k in (1, 2, 3):
        assert energy_bruteforce(a, k) == 1
        assert energy_spectral(a, k) == 1


def test_basis_energy_k2():
    # frozen from the tuple-enumeration oracle: T_2(basis of 3) = 21
    basis = F2Set(4, (1, 2, 4))
    assert energy_tuples(basis.elems, 2) == 21
    assert energy_bruteforce(basis, 2) == 21
    assert energy_spectral(basis, 2) == 21
    assert energy_convolution(basis, 2) == 21


def test_subgroup_energy():
    # subgroup of size 2: T_2 = 2^3 = 8 (first 2k-1 coordinates free)
    sub = F2Set(3, (0, 5))
    assert energy_tuples(sub.elems, 2) == 8
    assert energy_bruteforce(sub, 2) == 8
    assert energy_spectral(sub, 2) == 8


def test_full_group_energy():
    g = F2Set(3, tuple(range(8)))
    for k in (1, 2, 3):
        assert energy_spectral(g, k) == 8 ** (2 * k - 1)


def test_methods_agree_random():
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.randint(2, 10)
        size = rng.randint(0, min(8, 1 << dim))
        a = F2Set.from_bits(dim, rng.sample(range(1 << dim), size))
        k = rng.randint(1, 3)
        if size:
            vals = {
                energy_bruteforce(a, k),
                energy_spectral(a, k),
                energy_convolution(a, k),
            }
            assert len(vals) == 1
            if size**k <= 6**3:
                assert vals.pop() == energy_tuples(a.elems, k)


def test_energy_lower_bound_diagonal():
    rng = random.Random(3)
    for _ in range(20):
        dim = rng.randint(2, 8)
        size = rng.randint(1, 6)
        a = F2Set.from_bits(dim, rng.sample(range(1 << dim), size))
        for k in (2, 3):
            assert additive_energy(a, k) >= len(a) ** k


def test_energy_monotone_under_inclusion():
    rng = random.Random(8)
    for _ in range(20):
        dim = rng.randint(2, 8)
        big = rng.sample(range(1 << dim), rng.randint(2, min(8, 1 << dim)))
        small = rng.sample(big, rng.randint(1, len(big)))
        k = rng.randint(2, 3)
        assert additive_energy(F2Set.from_bits(dim, small), k) <= additive_energy(
            F2Set.from_bits(dim, big), k
        )


def test_bruteforce_budget():
    a = F2Set(20, tuple(range(1, 100)))
    with pytest.raises(BudgetError):
        energy_bruteforce(a, 5)  # 99^5 > BRUTE_BUDGET


def test_auto_energy_leaves_brute_route_over_its_budget():
    # 14^7 exceeds the brute budget although the brute cost estimate is
    # below the spectral one; "auto" must answer through the transform
    a = F2Set.from_bits(15, random.Random(7).sample(range(1, 1 << 15), 14))
    assert len(a) ** 7 > 10**8
    assert additive_energy(a, 7) == energy_spectral(a, 7)


def test_multiset_collapses_to_plain_energy():
    a = F2Set(4, (1, 2, 4, 9))
    assert energy_multiset([a, a, a, a]) == additive_energy(a, 2)


def test_multiset_forced_zero_first():
    rng = random.Random(5)
    a = F2Set.from_bits(4, rng.sample(range(16), 5))
    zero = F2Set(4, (0,))
    got = energy_multiset([zero, a, a, a])
    assert got == energy_tuples_multiset([zero.elems, a.elems, a.elems, a.elems])


def test_multiset_disjoint_singletons_zero():
    sets = [F2Set(4, (1,)), F2Set(4, (2,)), F2Set(4, (4,)), F2Set(4, (8,))]
    # a+b = 3, c+d = 12, never equal
    assert energy_multiset(sets) == 0


def test_multiset_matches_oracle_random():
    rng = random.Random(23)
    for _ in range(15):
        dim = rng.randint(2, 5)
        k = rng.randint(1, 2)
        sets = [
            F2Set.from_bits(dim, rng.sample(range(1 << dim), rng.randint(1, 4)))
            for _ in range(2 * k)
        ]
        assert energy_multiset(sets) == energy_tuples_multiset([s.elems for s in sets])


def test_convolve_identity():
    delta = IntFunction.indicator(F2Set(3, (0,)))
    rng = random.Random(2)
    f = IntFunction(3, tuple(rng.randint(-5, 5) for _ in range(8)))
    assert convolve(delta, f).values == f.values


def test_convolve_support_is_sumset():
    # (A*B)(x) != 0 iff x in A+B, checked exhaustively for n <= 6
    rng = random.Random(31)
    for _ in range(20):
        dim = rng.randint(1, 6)
        n = 1 << dim
        a = F2Set.from_bits(dim, rng.sample(range(n), rng.randint(1, min(5, n))))
        b = F2Set.from_bits(dim, rng.sample(range(n), rng.randint(1, min(5, n))))
        conv = convolve(IntFunction.indicator(a), IntFunction.indicator(b))
        sumset = {x ^ y for x in a for y in b}
        for x, v in enumerate(conv.values):
            assert (v != 0) == (x in sumset)


def test_convolve_commutative_and_matches_direct():
    rng = random.Random(4)
    for _ in range(10):
        dim = rng.randint(1, 5)
        n = 1 << dim
        f = IntFunction(dim, tuple(rng.randint(-4, 4) for _ in range(n)))
        g = IntFunction(dim, tuple(rng.randint(-4, 4) for _ in range(n)))
        fg = convolve(f, g)
        assert fg.values == convolve(g, f).values
        assert list(fg.values) == convolve_defn(list(f.values), list(g.values))


def test_energy_function_indicator_agreement():
    a = F2Set(4, (1, 2, 4, 11))
    for k in (2, 3):
        assert energy_function(IntFunction.indicator(a), k) == additive_energy(a, k)


def test_energy_function_scaled_point():
    f = IntFunction(3, (2,) + (0,) * 7)
    for k in (2, 3):
        assert energy_function(f, k) == 2 ** (2 * k)


def test_energy_function_vs_abs():
    # appendix lemma specialisation: T_k(f) <= T_k(|f|) for integer f
    rng = random.Random(12)
    for _ in range(30):
        dim = rng.randint(1, 6)
        f = IntFunction(dim, tuple(rng.randint(-4, 4) for _ in range(1 << dim)))
        for k in (2, 3):
            f_abs = IntFunction(dim, tuple(abs(v) for v in f.values))
            assert energy_function(f, k) <= energy_function(f_abs, k)


def test_holder_equality_case():
    a = IntFunction.indicator(F2Set(3, (1, 2, 5)))
    rep = check_holder([a, a], [a, a])
    assert rep.status == "holds"
    # f_i = g_j identical, s = t = 2: LHS = T_2(A) and both sides agree
    assert rep.lhs == additive_energy(F2Set(3, (1, 2, 5)), 2) ** 8
    assert rep.lhs == rep.rhs


def test_holder_random_01_functions():
    rng = random.Random(44)
    for _ in range(15):
        dim = rng.randint(1, 6)
        n = 1 << dim
        fs = [IntFunction(dim, tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(2)]
        gs = [IntFunction(dim, tuple(rng.randint(0, 1) for _ in range(n))) for _ in range(rng.randint(2, 3))]
        assert check_holder(fs, gs).status == "holds"


def test_holder_zero_function():
    dim = 3
    zero = IntFunction(dim, (0,) * 8)
    f = IntFunction.indicator(F2Set(dim, (1, 2)))
    rep = check_holder([f, zero], [f, f])
    assert rep.lhs == 0 and rep.status == "holds"


def test_subadditivity_empty_side_equality():
    a = F2Set(4, (1, 2, 4))
    rep = check_subadditivity(a, F2Set(4, ()), 2)
    assert rep.status == "holds" and rep.lhs == rep.rhs[0]


def test_subadditivity_dissociated_pair():
    rep = check_subadditivity(F2Set(4, (1,)), F2Set(4, (2,)), 2)
    assert rep.lhs == 8  # brute force over quadruples gives 8
    assert rep.status == "holds"  # 8 <= (1 + 1)^4 = 16


def test_subadditivity_random():
    rng = random.Random(77)
    for _ in range(25):
        dim = rng.randint(2, 8)
        n = 1 << dim
        a = F2Set.from_bits(dim, rng.sample(range(n), rng.randint(1, min(6, n))))
        b = F2Set.from_bits(dim, rng.sample(range(n), rng.randint(1, min(6, n))))
        k = rng.randint(2, 3)
        assert check_subadditivity(a, b, k).status == "holds"


def test_dk_zeta_subgroup():
    # subgroup of size h: T_2 = h^3, so zeta_2 = log T_2 / log h = 3, and
    # T_2 = 2^D_2 2^2 h^2 gives D_2 = log2(64) - 2 - 2 * 2 = 0 at h = 4
    sub = F2Set(4, (0, 3, 5, 6))
    t = additive_energy(sub, 2)
    assert t == len(sub) ** 3
    assert t == 2**2 * len(sub) ** 2


def test_dk_zeta_basis_m4():
    basis = F2Set(5, (1, 2, 4, 8))
    assert energy_tuples(basis.elems, 2) == 40  # oracle: 3*16 - 8
    # D_2 = log2(40) - 2 - 4 < 0, the D_2 of a 4-element subgroup (T_2 = 64)
    assert additive_energy(basis, 2) == 40
    assert energy_excess_compare(64, 4, 40, 4, 2)
    assert not energy_excess_compare(40, 4, 64, 4, 2)


def test_dk_lower_bound_instances():
    # T_k >= C(|A|, k) * (k!)^2 when |A| >= k (distinct diagonal tuples)
    rng = random.Random(91)
    for _ in range(15):
        dim = rng.randint(3, 8)
        size = rng.randint(2, 6)
        a = F2Set.from_bits(dim, rng.sample(range(1 << dim), size))
        for k in (2, 3):
            if size >= k:
                assert additive_energy(a, k) >= math.comb(size, k) * math.factorial(k) ** 2


def _embed(words, columns):
    """Images of words of F_2^r under the linear map sending bit j to columns[j]."""
    out = []
    for w in words:
        acc = 0
        for j, c in enumerate(columns):
            if w >> j & 1:
                acc ^= c
        out.append(acc)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_injective_map_keeps_every_energy(r, extra, data):
    # T_k counts XOR relations, which an injective linear map keeps; the
    # image lives in F_2^(r + extra), and every route must see the same T_k
    n = r + extra
    words = st.integers(0, (1 << r) - 1)
    columns = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=r, max_size=r))
    assume(gf2_rank(columns) == r)
    a = data.draw(st.lists(words, min_size=1, max_size=5, unique=True))
    image = F2Set.from_bits(n, _embed(a, columns))
    for k in (1, 2, 3):
        want = energy_sum_counts(a, k)
        assert [additive_energy(image, k, m) for m in ("auto", "brute", "spectral", "conv")] == [want] * 4
    parts = [data.draw(st.lists(words, min_size=1, max_size=3, unique=True)) for _ in range(data.draw(st.sampled_from((2, 4))))]
    mixed = [F2Set.from_bits(n, _embed(s, columns)) for s in parts]
    assert energy_multiset(mixed) == energy_tuples_multiset(parts)


def test_span_coordinates_rank_zero_and_full_rank():
    for n in (1, 6):
        for elems in ((), (0,)):
            assert _span_coordinates([F2Set(n, elems)], n - 1) == [F2Set(1, elems)]
            for k in (1, 2, 3):
                assert {additive_energy(F2Set(n, elems), k, m) for m in ("auto", "spectral", "conv")} == {len(elems)}
    # a full-rank union is left as it is, though no single set spans F_2^4
    assert _span_coordinates([F2Set(4, (1, 2, 4, 8, 15))], 3) is None
    assert _span_coordinates([F2Set(4, (3,)), F2Set(4, (5, 9)), F2Set(4, (2,))], 3) is None
    assert _span_coordinates([F2Set(4, (3,)), F2Set(4, (5, 8))], 3) == [F2Set(3, (1,)), F2Set(3, (2, 4))]


def test_energy_cap_applies_to_the_rank(monkeypatch):
    # f2lab.wht names the function, so reach the module through sys.modules
    monkeypatch.setattr(sys.modules["f2lab.wht"], "WHT_DIM_CAP", 4)
    deficient = F2Set.from_bits(20, (1 << 19, 1 << 7, (1 << 19) | (1 << 7), 1 << 3, 5 << 10))
    assert gf2_rank(deficient.elems) == 4
    for k in (1, 2, 3):
        want = energy_sum_counts(deficient.elems, k)
        assert [additive_energy(deficient, k, m) for m in ("auto", "spectral", "conv")] == [want] * 3
    assert energy_multiset([deficient] * 4) == energy_sum_counts(deficient.elems, 2)
    full = F2Set.from_bits(20, [1 << i for i in range(20)])
    tracemalloc.start()
    try:
        for m in ("spectral", "conv"):
            with pytest.raises(BudgetError):
                additive_energy(full, 2, m)
        with pytest.raises(BudgetError):
            energy_multiset([full, full])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10), st.integers(1, 3), st.integers(1, 3), st.integers(0, 4), st.integers(0, 1 << 30))
def test_full_sumset_energy_matches_additive_energy(m, d, p, extra, seed):
    # independent Lambda, 2dp > m included: the Krawtchouk sum against the
    # built sumset's T_p, which takes the tuple, spectral or conv route
    lam = random_dissociated(max(1, m + extra), m, seed=seed)
    want = additive_energy(distinct_sumset_power(lam, d), p)
    assert _krawtchouk_energy(m, d, p) == want
    assert full_sumset_energy(lam, d, p) == want


def test_full_sumset_energy_independent_route_builds_no_sumset(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sumset was built")

    monkeypatch.setattr(sys.modules["f2lab.energy"], "distinct_sumset_power", refuse)
    monkeypatch.setattr(sys.modules["f2lab.energy"], "additive_energy", refuse)
    basis = F2Set(12, tuple(1 << i for i in range(12)))
    assert full_sumset_energy(basis, 2, 2) == _krawtchouk_energy(12, 2, 2)
    with pytest.raises(AssertionError, match="sumset was built"):
        full_sumset_energy(F2Set(3, (1, 2, 3)), 1, 2)


def test_full_sumset_energy_refuses_d_or_p_below_1():
    for d, p in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            full_sumset_energy(F2Set(4, (1, 2, 4)), d, p)


def test_krawtchouk_energy_at_a_thousand_elements():
    # m = 1000 has no F2Set (n <= 30); the sum alone answers in milliseconds
    q = math.comb(1000, 2)
    t2 = _krawtchouk_energy(1000, 2, 2)
    assert round(t2 / q**2, 3) == 14.952
    assert _krawtchouk_energy(1000, 2, 1) == q  # T_1 = |Q| by orthogonality
