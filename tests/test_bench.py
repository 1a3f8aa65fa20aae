import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from f2lab import bench
from f2lab.bench import (
    check_bombieri,
    check_bourgain_intersection,
    check_chang,
    check_diss_energy,
    check_full_sumset_lower,
    check_inverse2,
    check_rudin_even,
    check_sophisticated,
    check_spectrum_energy_lower,
    check_sumset_energy,
    run_family,
    sweep_majority,
    verify_majority,
    weight1_binomial_value,
)
from f2lab.cli import run_config
from f2lab.core import BudgetError, F2Set, distinct_sumset_power
from f2lab.dissociation import FamilySpec, in_family, random_dissociated
from f2lab.energy import _krawtchouk_energy, additive_energy, full_sumset_energy
from f2lab.inverse import (
    InverseParams,
    _subset_table,
    extract_rectangles_d,
    extract_rectangles_pair,
)
from f2lab.permanent import CombMatrix, reduced_permanent_check
from f2lab.wht import spectrum_of_set

from oracles import naive_wht


def subspace(dim, free):
    """Coordinate subspace spanned by the first `free` basis vectors."""
    return F2Set(dim, tuple(sorted(x for x in range(1 << dim) if x < (1 << free))))


def test_chang_subspace_case():
    h = subspace(6, 4)  # delta = 1/4, codimension 2
    delta = Fraction(len(h), 64)
    lam = F2Set(6, (16, 32))  # dissociated inside the annihilator
    rep, _ = check_chang(h, delta, lam)
    assert rep.status == "holds"
    assert rep.lhs == 2  # <= 2 * log(1/delta) = 4


def test_chang_precondition_failures():
    h = subspace(6, 4)
    bad_lam = F2Set(6, (16, 32, 48))  # dependent
    assert check_chang(h, Fraction(1, 4), bad_lam)[0].status == "precondition-failed"
    outside = F2Set(6, (1,))  # not in R_alpha for the subspace
    assert check_chang(h, Fraction(1, 4), outside)[0].status == "precondition-failed"


@pytest.mark.parametrize(
    "family, builder, checker",
    [("chang", "_chang_rows", check_chang), ("maing", "_spectrum_energy_lower_row", check_spectrum_energy_lower)],
)
def test_drawn_rows_equal_public_checker(monkeypatch, family, builder, checker):
    # the drawers hand the spectrum they hold to the row builder; the public
    # checker, which takes its own transform, must give the same rows
    calls = []
    real = getattr(bench, builder)

    def spy(*args):
        out = real(*args)
        calls.append((args[:-1], out))
        return out

    monkeypatch.setattr(bench, builder, spy)
    rows = [row for seed in (1, 2, 3) for row in run_family(family, 25, seed)]
    monkeypatch.undo()
    assert [row for _, out in calls for row in (out if isinstance(out, list) else [out])] == rows
    for args, out in calls:
        assert checker(*args) == out


def test_chang_full_group_trivial():
    g = F2Set(4, tuple(range(16)))
    rep, _ = check_chang(g, Fraction(1), F2Set(4, ()))
    assert rep.status == "holds"


def test_parseval_subspace_equality():
    h = subspace(6, 4)
    _, rep = check_chang(h, Fraction(1, 4), F2Set(6, ()))
    assert rep.theorem == "parseval-spectrum"
    assert rep.status == "holds"
    assert rep.lhs == rep.rhs == 4  # equality at alpha = delta


def test_diss_energy_frozen_example():
    rep = check_diss_energy(F2Set(4, (1, 2, 4)), 2)
    assert rep.status == "holds"
    assert rep.lhs == 21 and rep.rhs == 36


def test_diss_energy_singleton():
    rep = check_diss_energy(F2Set(4, (3,)), 2)
    assert rep.status == "holds" and rep.lhs == 1


def test_diss_energy_refuses_dependent():
    rep = check_diss_energy(F2Set(3, (1, 2, 3)), 2)
    assert rep.status == "precondition-failed"


def test_rudin_all_ones_reduces_to_diss_energy():
    lam = F2Set(4, (1, 2, 4))
    rep = check_rudin_even(lam, [1, 1, 1], 2)
    assert rep.status == "holds"
    assert rep.lhs == 21  # same moment as T_2(Lambda)


def test_rudin_single_nonzero_coefficient():
    lam = F2Set(4, (1, 2, 4))
    rep = check_rudin_even(lam, [3, 0, 0], 2)
    assert rep.status == "holds"
    assert rep.lhs == 3**4  # |f|^(2p) constant


def test_rudin_random_signed():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(4, 8)
        m = rng.randint(1, min(6, n))
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        coeffs = [rng.randint(-4, 4) for _ in range(m)]
        p = rng.randint(2, 3)
        rep = check_rudin_even(lam, coeffs, p)
        assert rep.status == "holds"


def test_rudin_refuses_tables_above_cap(monkeypatch):
    # f2lab.wht names the function, so reach the module through sys.modules
    monkeypatch.setattr(sys.modules["f2lab.wht"], "WHT_DIM_CAP", 4)

    def no_transform(f):
        raise AssertionError("the cap must be checked before the table is built")

    monkeypatch.setattr(sys.modules["f2lab.energy"], "wht", no_transform)
    lam = F2Set(12, (1, 2, 4, 8))
    with pytest.raises(BudgetError):
        check_rudin_even(lam, [1, -2, 3, 1], 2)


def test_majority_refuses_tables_above_cap(monkeypatch):
    # n' = 16 words would take megabytes to list before the transform refuses
    monkeypatch.setattr(sys.modules["f2lab.wht"], "WHT_DIM_CAP", 8)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            verify_majority(20, Fraction(1, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_sumset_energy_d1_reduces():
    lam = F2Set(5, (1, 2, 4, 8))
    rep = check_sumset_energy(lam, lam, 1, 2)
    assert rep.status == "holds"


def test_sumset_energy_full_pair_sumset():
    lam = F2Set(7, tuple(1 << i for i in range(6)))
    q = distinct_sumset_power(lam, 2)
    rep = check_sumset_energy(q, lam, 2, 2)
    assert rep.status == "holds"
    assert rep.lhs == additive_energy(q, 2)


def test_full_sumset_lower_frozen():
    lam = F2Set(9, tuple(1 << i for i in range(8)))
    rep = check_full_sumset_lower(lam, 2, 2)
    assert rep.status == "holds"
    ways = 24 // (2 * 2) ** 1  # (pd)!/(d!)^p with p = d = 2: 24/4 = 6
    assert rep.detail == f"intermediate={comb(8, 4) * 6 * 6}"


def test_full_sumset_lower_d1():
    lam = F2Set(8, tuple(1 << i for i in range(6)))
    rep = check_full_sumset_lower(lam, 1, 2)
    assert rep.status == "holds"


def test_spectrum_energy_lower_subspace_equality():
    h = subspace(6, 4)
    annihilator = F2Set(6, (0, 16, 32, 48))
    for k in (2, 3):
        rep = check_spectrum_energy_lower(h, annihilator, k, Fraction(1, 4))
        assert rep.status == "holds"
        assert Fraction(rep.lhs) == rep.rhs  # subgroup equality case


def test_spectrum_energy_lower_singleton_zero():
    h = subspace(6, 4)
    rep = check_spectrum_energy_lower(h, F2Set(6, (0,)), 2, Fraction(1, 4))
    assert rep.status == "holds"
    assert rep.lhs == 1


def test_spectrum_energy_lower_precondition():
    h = subspace(6, 4)
    rep = check_spectrum_energy_lower(h, F2Set(6, (1,)), 2, Fraction(1, 4))
    assert rep.status == "precondition-failed"


def test_bourgain_subspace_basis():
    h = subspace(8, 4)  # delta = 1/16, log(1/delta) = 4, d = 1 allowed
    lam = F2Set(8, (16, 32, 64, 128))  # basis of the annihilator directions
    rep = check_bourgain_intersection(h, lam, Fraction(1, 16), 1)
    assert rep.status == "holds"
    assert rep.lhs == 4  # all four frequencies are in R_alpha


def test_bourgain_delta_guard():
    g = F2Set(4, tuple(range(8)))
    rep = check_bourgain_intersection(g, F2Set(4, (1,)), Fraction(1, 4), 1)
    assert rep.status == "precondition-failed"


def test_weight1_binomial_values_match_brute_spectrum():
    # exact agreement between the closed form and the naive transform
    for nprime in range(3, 11):
        threshold = (nprime + 1) // 2
        table = [0] * (1 << nprime)
        for x in range(1 << nprime):
            if x.bit_count() >= threshold:
                table[x] = 1
        spectrum = naive_wht(table)
        assert abs(spectrum[1]) == weight1_binomial_value(nprime)


def test_majority_frozen_nprime4():
    rows = {r.theorem: r for r in verify_majority(8, Fraction(1, 64))}
    assert rows["majority-size"].instance.startswith("n=8 k=4 n'=4 ")
    assert rows["majority-size"].lhs == 11
    assert rows["majority-weight1-formula"].lhs == 3 == weight1_binomial_value(4)


def test_majority_reports_all_hold():
    for nprime in (3, 5, 8):
        for rep in verify_majority(nprime + 4, Fraction(1, 64), d=1):
            assert rep.status == "holds", (nprime, rep.theorem)


def test_majority_higher_d():
    for d in (1, 2, 3):
        reports = verify_majority(10, Fraction(1, 64), d)
        inter = [r for r in reports if r.theorem == "majority-sumset-intersection"][0]
        assert inter.status == "holds"
        assert inter.rhs == 6 * comb(4, d - 1)  # n' = 6, k = 4


def test_majority_spectrum_count_matches_direct():
    # cross-check the structured count against a full-space transform, at
    # the threshold the spectrum-size row certifies
    delta = Fraction(1, 64)
    for n in (8, 9, 10):
        rows = {r.theorem: r for r in verify_majority(n, delta)}
        nprime = n - 4
        inner = [x for x in range(1 << nprime) if x.bit_count() >= (nprime + 1) // 2]
        full = F2Set.from_bits(n, inner)  # embedding: outer coords zero
        table = spectrum_of_set(full)
        alpha_used = Fraction(rows["majority-weight1-formula"].lhs, 1 << n)
        alpha_sq = min(delta**2 / (2**24 * n), alpha_used**2)
        n_full = 1 << n
        direct = sum(1 for v in table.values if Fraction(v * v) >= alpha_sq * n_full**2)
        assert direct == rows["majority-spectrum-size"].lhs


def test_parseval_full_group():
    g = F2Set(4, tuple(range(16)))
    _, rep = check_chang(g, Fraction(1), F2Set(4, ()))
    assert rep.theorem == "parseval-spectrum"
    assert rep.status == "holds"
    assert rep.lhs == 1  # R_1(G) = {0}


def test_full_sumset_lower_larger_instance():
    # |Lambda_1| = 12, d = 2, p = 3 (boundary of p <= |Lambda_1|/(2d))
    lam = F2Set(13, tuple(1 << i for i in range(12)))
    rep = check_full_sumset_lower(lam, 2, 3)
    assert rep.status == "holds"


def test_bourgain_on_majority_instance():
    # the majority set at n = 10, delta = 1/64: nprime = 6, k = 4
    inner = [x for x in range(1 << 6) if x.bit_count() >= 3]
    a = F2Set.from_bits(10, inner)  # embedded: outer coords zero
    lam = F2Set(10, tuple(1 << i for i in range(10)))  # full standard basis
    alpha = Fraction(verify_majority(10, Fraction(1, 64))[0].lhs, 1 << 10)  # alpha_used
    rep = check_bourgain_intersection(a, lam, alpha, 1)
    assert rep.status == "holds"
    # weight-1 frequencies: all n' inner ones plus the k outer ones
    assert rep.lhs == 6 + 4


def test_majority_formula_agreement_up_to_20():
    # brute-force spectrum agrees with the binomial closed form through
    # the full stated range of inner dimensions
    for nprime in range(17, 21):
        row = verify_majority(nprime + 4, Fraction(1, 64))[0]
        assert row.theorem == "majority-weight1-formula" and row.status == "holds"
        assert row.lhs == row.rhs == weight1_binomial_value(nprime)


def test_sweeps_zero_violations_small():
    assert all(r.status == "holds" for r in run_family("chang", 10, 101))
    assert all(r.status == "holds" for r in run_family("diss", 10, 102))
    assert all(r.status == "holds" for r in run_family("dissd", 10, 103))
    assert all(r.status == "holds" for r in run_family("exact", 5, 104))
    assert all(r.status == "holds" for r in run_family("maing", 10, 105))
    assert all(r.status == "holds" for r in run_family("bourgain", 5, 106))
    # n' = 3, 4, 5 at k = 4
    rows = [r for n in (7, 8, 9) for r in sweep_majority(Fraction(1, 64), n=n)]
    assert len(rows) == 15 and all(r.status == "holds" for r in rows)


def test_greedy_family_decides_every_row():
    # the blocks are sized from the threshold, so every draw meets it
    for seed in range(5):
        rows = run_family("greedy", 20, seed)
        assert len(rows) == 20
        assert all(r.status == "holds" and r.lhs == r.rhs for r in rows), seed


BASIS4 = F2Set(4, (1, 2, 4, 8))
DEPENDENT = F2Set(2, (1, 2, 3))  # 1 + 2 + 3 = 0
REFUSED = "precondition-failed"


def _inverse2(lam1, lam2, p):
    q = F2Set.from_bits(lam1.dim, (a ^ b for a in lam1 for b in lam2))
    return check_inverse2(q, lam1, lam2, p, Fraction(1, 4))


# 11 basis vectors of F_2^16 and their sum: one dependency, of weight 12
INV2_L1 = F2Set(16, tuple(1 << i for i in range(11)))
INV2_L2 = F2Set(16, ((1 << 11) - 1,))
# a weight-6 (weight-8) dependency keeps pair (triple) sums distinct but
# leaves Lambda outside the weight-8 (weight-12) family that p = 2 asks for
PAIR_LAM = F2Set(5, (1, 2, 4, 8, 16, 31))
TRIPLE_LAM = F2Set(7, (1, 2, 4, 8, 16, 32, 64, 127))


def test_full_sumset_lower_dependent_lambda_takes_additive_energy():
    # TRIPLE_LAM's weight-8 relation passes the weight-4 family test at
    # d = p = 2 but is seen by T_2 of its pair sums: the Krawtchouk sum,
    # which assumes independence, would give 7336
    q = distinct_sumset_power(TRIPLE_LAM, 2)
    assert additive_energy(q, 2) == full_sumset_energy(TRIPLE_LAM, 2, 2) == 9856
    assert _krawtchouk_energy(len(TRIPLE_LAM), 2, 2) == 7336
    rep = check_full_sumset_lower(TRIPLE_LAM, 2, 2)
    assert (rep.status, rep.lhs) == ("holds", 9856)


def test_full_sumset_lower_sumsets_have_every_d_subset_sum(monkeypatch):
    # the row takes |Q| = C(|Lambda_1|, d) from its weight-2d family test
    # without building Q: check that on every Lambda that `exact` draws, and
    # on dependent Lambdas inside the family
    drawn = []
    monkeypatch.setattr(bench, "check_full_sumset_lower", lambda lam, d, p: drawn.append((lam, d)))
    for seed in range(1, 11):
        run_family("exact", 20, seed)
    assert len(drawn) == 200
    for lam, d in drawn + [(PAIR_LAM, 2), (TRIPLE_LAM, 2), (TRIPLE_LAM, 3)]:
        assert in_family(lam, FamilySpec.zero(2 * d, lam.dim)).status == "true"
        assert len(distinct_sumset_power(lam, d)) == comb(len(lam), d)


def test_diss_energy_dependent_lambda_takes_additive_energy():
    # PAIR_LAM's weight-6 relation is outside what T_2 sees
    rep = check_diss_energy(PAIR_LAM, 2)
    assert (rep.status, rep.lhs) == ("holds", additive_energy(PAIR_LAM, 2))


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(
            lambda: check_rudin_even(DEPENDENT, [1, 1, 1], 2),
            {"status": REFUSED, "detail": "family status false"},
            id="rudin-family",
        ),
        pytest.param(
            lambda: check_sumset_energy(F2Set(2, (3,)), DEPENDENT, 1, 2),
            {"status": REFUSED, "detail": "family status false"},
            id="sumset-energy-family",
        ),
        pytest.param(
            lambda: check_full_sumset_lower(DEPENDENT, 2, 1),
            {"status": REFUSED, "detail": "family status false"},
            id="full-sumset-lower-family",
        ),
        pytest.param(
            lambda: check_bourgain_intersection(
                F2Set(8, (0,)), F2Set(8, (1, 2, 3)), Fraction(1, 256), 1
            ),
            {"status": REFUSED, "detail": "family status false"},
            id="bourgain-family",
        ),
        pytest.param(
            lambda: _inverse2(INV2_L1, INV2_L2, 5),
            {"status": REFUSED, "detail": "family status false"},
            id="inverse2-family",
        ),
        pytest.param(
            lambda: check_sumset_energy(F2Set(4, (3,)), BASIS4, 1, 2),
            {"status": REFUSED, "detail": "Q outside the d-fold sumset"},
            id="sumset-energy-outside",
        ),
        pytest.param(
            lambda: check_full_sumset_lower(F2Set(4, (1, 2, 4)), 1, 2),
            {"status": REFUSED, "detail": "p > |Lambda_1|/(2d)"},
            id="full-sumset-lower-small",
        ),
        pytest.param(
            lambda: check_bourgain_intersection(
                F2Set.from_bits(8, range(32)), F2Set(8, (1, 2)), Fraction(1, 8), 1
            ),
            {"status": REFUSED, "detail": "d > log(1/delta)/4"},
            id="bourgain-d",
        ),
        pytest.param(
            lambda: _inverse2(INV2_L1, INV2_L2, 4),
            {"status": REFUSED, "detail": "p < 5"},
            id="inverse2-p",
        ),
        pytest.param(
            lambda: _inverse2(F2Set(16, (1,)), F2Set(16, ()), 5),
            {"status": REFUSED, "detail": "degenerate instance"},
            id="inverse2-degenerate",
        ),
        pytest.param(
            lambda: check_bombieri(
                F2Set(3, (1, 2)), [F2Set(3, (1, 4))], Fraction(1, 2), 1
            ),
            {"status": REFUSED, "detail": "some B_i outside B"},
            id="bombieri-outside",
        ),
        # the tuple-valued refusals: (failures, reduced, per_reduced_positive)
        # and (rectangles, covered, family_status, trace, warnings)
        pytest.param(
            lambda: reduced_permanent_check(CombMatrix(((2, 1),))),
            (("total != 2p",), None, None),
            id="reduced-permanent-total",
        ),
        pytest.param(
            lambda: extract_rectangles_pair(F2Set(5, (3,)), PAIR_LAM, InverseParams())[2::2],
            ("false", ("Lambda family status: false",)),
            id="extract-pair-family",
        ),
        pytest.param(
            lambda: extract_rectangles_d(F2Set(7, (7,)), TRIPLE_LAM, 3, InverseParams())[4],
            ("Lambda family status: false",),
            id="extract-d-family",
        ),
    ],
)
def test_refusal_rows_report_status_and_detail(call, expected):
    rep = call()
    if isinstance(expected, dict):  # a BoundReport row
        rep = {key: getattr(rep, key) for key in expected}
    assert rep == expected


def _never(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran before its cap refused")

    return refuse


@pytest.mark.parametrize(
    "enumerator, call, message",
    [
        pytest.param(
            ("f2lab.core", "subset_sums"),
            lambda: distinct_sumset_power(F2Set(10, tuple(range(1, 41))), 7),
            "18643560 combinations exceed budget 10000000",
            id="distinct-sumset-tuples",
        ),
        pytest.param(
            ("f2lab.inverse", "subset_sums"),
            lambda: _subset_table(F2Set(12, tuple(range(1, 401))), 3),
            "subset table too large: 10586800 sums exceed 2000000",
            id="subset-table",
        ),
        pytest.param(
            ("f2lab.permanent", "reduced_permanent_check"),
            lambda: run_config({"command": "lemma-per0", "p": 4, "r": 5}),
            "exhaustive family limited to p*r <= 16, got 20",
            id="lemma-per0-cells",
        ),
        pytest.param(
            ("f2lab.bench", "energy_multiset"),
            lambda: check_sophisticated([BASIS4] * 10, [tuple(range(10))], BASIS4),
            "p = 5 beyond documented cap 4",
            id="sophisticated-p",
        ),
        pytest.param(
            ("f2lab.bench", "additive_energy"),
            lambda: _inverse2(F2Set(16, tuple(1 << i for i in range(15))), F2Set(16, (1 << 15,)), 5),
            "s1 = 15, p = 5 beyond caps (14, 6)",
            id="inverse2-s1",
        ),
    ],
)
def test_every_cap_refuses_before_enumerating(monkeypatch, enumerator, call, message):
    # each message names the count that broke the cap and the cap itself
    module, name = enumerator
    monkeypatch.setattr(sys.modules[module], name, _never(name))
    with pytest.raises(BudgetError) as refused:
        call()
    assert str(refused.value) == message
