import itertools
import random
import sys
from fractions import Fraction
from math import factorial
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2lab.bench import check_pi, check_sophisticated
from f2lab.core import BudgetError, F2Set
from f2lab.exact import PRECISIONS, pow_bounds
from f2lab.permanent import (
    CombMatrix,
    fk_zero_test,
    parse_matrix,
    permanent,
    reduced_permanent_check,
)

from oracles import energy_tuples_multiset, permanent_perms


def m(*rows):
    return CombMatrix(tuple(tuple(r) for r in rows))


def serialize_matrix(mat: CombMatrix) -> str:
    """The matrix-file text that parse_matrix reads: "x y", then x rows."""
    lines = [f"{mat.x} {mat.y}"] + [" ".join(map(str, row)) for row in mat.rows]
    return "\n".join(lines) + "\n"


def test_permanent_identity():
    assert permanent(m([1, 0, 0], [0, 1, 0], [0, 0, 1])) == 1


def test_permanent_all_ones():
    assert permanent(m([1, 1, 1], [1, 1, 1], [1, 1, 1])) == 6
    assert permanent(m([1, 1, 1], [1, 1, 1])) == 6  # injective maps: 3 * 2


def test_permanent_tall_transposed():
    tall = m([1, 1], [1, 1], [1, 1])
    assert permanent(tall) == 6


def test_permanent_matches_permutation_oracle():
    rng = random.Random(10)
    for wide in [False] * 60 + [True] * 20:
        x = rng.randint(1, 4)
        y = rng.randint(x, x + 4 if wide else 5)
        rows = [[rng.randint(0, 3) for _ in range(y)] for _ in range(x)]
        assert permanent(m(*rows)) == permanent_perms(rows)


@st.composite
def small_matrices(draw):
    """x-by-y rows with x, y <= 7 in either orientation, entries up to 2^40."""
    x, y = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    hi = draw(st.sampled_from((1, 3, 1 << 40)))
    return [draw(st.lists(st.integers(0, hi), min_size=y, max_size=y)) for _ in range(x)]


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example([[1 << 40]])
@example([[1 << 40, 3], [2, 1 << 40]])
@example([[2, 0, 1], [1, 1 << 40, 0], [3, 1, 1]])
@example([[1] * 7] * 7)
@example([[1] * 6] * 6)
@example([[1 << 40, 0, 3]])
@example([[1 << 40], [0]])
@example([[1, 2, 0, 3, 1, 1, 2], [2, 0, 1 << 40, 1, 1, 0, 3], [1, 1, 1, 0, 2, 3, 1], [0, 3, 1, 1, 1, 2, 1]])
@example([[1, 2, 0, 3, 1, 1], [2, 0, 1 << 40, 1, 1, 0], [1, 1, 1, 0, 2, 3], [0, 3, 1, 1, 1, 2]])
@example([[127, 0, 0, 0], [0, 100, 27, 0], [1, 2, 3, 121], [64, 0, 0, 63]])
@example([[128, 0, 0, 0], [0, 100, 27, 0], [1, 2, 3, 121], [64, 0, 0, 63]])
@example([[1 << 64, 1, 0], [2, 3, 1], [1, 1, 1]])
@example([[1, 1 << 70, 0], [2, 3, 1], [1, 1, 1]])
def test_permanent_matches_oracle_hypothesis(rows):
    # about two fifths of the draws take the row-subset DP (y 2^(x-1) < 2^(y-1)
    # for x <= y: 1x3..1x7, 2x5..2x7, 3x7, 4x7, either way round), the rest
    # Nijenhuis-Wilf; the examples 1x3 and 4x7 against 2x1 and 4x6 sit on
    # both sides of the rule, and the 4x4 ones with largest row total 127 and
    # 128 on both sides of the byte lanes
    expected = permanent_perms(rows)
    assert permanent(m(*rows)) == expected
    # blocks of 2 and 4 subsets: many blocks per walk at oracle sizes
    for bits in (1, 2):
        with mock.patch.object(sys.modules["f2lab.permanent"], "BLOCK_BITS", bits):
            assert permanent(m(*rows)) == expected


@pytest.mark.parametrize("x, y", [(8, 21), (9, 22), (12, 24), (6, 40)])
def test_permanent_all_ones_closed_form(x, y):
    # each injective map of the x rows has product 1: y! / (y-x)! of them
    ones = m(*[[1] * y] * x)
    assert permanent(ones) == permanent(ones.transpose()) == factorial(y) // factorial(y - x)


@pytest.mark.parametrize("x, y", [(10, 13), (12, 16)])
def test_permanent_zero_column_crosses_the_rule(x, y):
    # x-by-y takes Nijenhuis-Wilf and x-by-(y+1) the DP; a zero column adds
    # no injective map with a nonzero product
    rng = random.Random(x * y)
    for hi in (3, 1 << 40):
        rows = [[rng.randint(0, hi) for _ in range(y)] for _ in range(x)]
        assert permanent(m(*rows)) == permanent(m(*(row + [0] for row in rows)))


@pytest.mark.parametrize("n", range(9, 15))
def test_permanent_square_start_matches_wide_start(n):
    # a zero column adds no injective map with a nonzero product; n-by-(n+1)
    # takes Nijenhuis-Wilf with one implicit row of ones (factor 2|S| + 1 - n),
    # n-by-n the plain square walk
    rng = random.Random(n)
    hi = 1 << 40 if n == 11 else 3
    rows = [[rng.randint(0, hi) for _ in range(n)] for _ in range(n)]
    assert permanent(m(*rows)) == permanent(m(*(row + [0] for row in rows)))


# the walk each shape takes and its units, min(y 2^(x-1), 2^(y-1)); 5x8 is a
# tie, 8 * 2^4 = 2^7, which Nijenhuis-Wilf takes
WALK_UNITS = {
    (3, 7): ("row-subset DP", 28),
    (5, 5): ("Nijenhuis-Wilf", 16),
    (2, 9): ("row-subset DP", 18),
    (5, 8): ("Nijenhuis-Wilf", 128),
}


@pytest.mark.parametrize("x, y", list(WALK_UNITS))
def test_permanent_budget_is_the_subset_count(monkeypatch, x, y):
    walk, units = WALK_UNITS[x, y]
    rng = random.Random(10 * x + y)
    rows = [[rng.randint(0, 3) for _ in range(y)] for _ in range(x)]
    # f2lab.permanent names the function, so reach the module through sys.modules
    monkeypatch.setattr(sys.modules["f2lab.permanent"], "PERMANENT_BUDGET", units)
    assert permanent(m(*rows)) == permanent_perms(rows)
    monkeypatch.setattr(sys.modules["f2lab.permanent"], "PERMANENT_BUDGET", units - 1)
    with pytest.raises(BudgetError, match=f"{walk} count {units} "):
        permanent(m(*rows))


def test_permanent_row_permutation_invariant():
    rng = random.Random(3)
    rows = [[rng.randint(0, 2) for _ in range(4)] for _ in range(3)]
    base = permanent(m(*rows))
    for perm in itertools.permutations(rows):
        assert permanent(m(*perm)) == base


def test_permanent_monotone_in_entries():
    rng = random.Random(4)
    for _ in range(20):
        rows = [[rng.randint(0, 2) for _ in range(4)] for _ in range(3)]
        bumped = [row[:] for row in rows]
        bumped[rng.randrange(3)][rng.randrange(4)] += 1
        assert permanent(m(*bumped)) >= permanent(m(*rows))


def test_matrix_file_roundtrip():
    mat = m([1, 2, 0], [0, 1, 1])
    assert parse_matrix(serialize_matrix(mat)) == mat
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 1\n")


def test_fk_zero_simple():
    sdr, block_rows, block_cols = fk_zero_test(m([0, 0], [1, 1]))
    assert sdr is None
    assert len(block_rows) >= 1 and len(block_cols) >= 1
    assert len(block_rows) + len(block_cols) >= 3  # p + 1 for the square case


def test_fk_positive_identity():
    assert fk_zero_test(m([1, 0], [0, 1])) == ((0, 1), (), ())


def test_fk_witness_block_is_zero():
    rng = random.Random(5)
    for _ in range(200):
        x = rng.randint(1, 6)
        y = rng.randint(1, 6)
        rows = [[rng.randint(0, 1) for _ in range(y)] for _ in range(x)]
        mat = m(*rows)
        sdr, zero_rows, zero_cols = fk_zero_test(mat)
        if sdr is None:
            for i in zero_rows:
                for j in zero_cols:
                    assert rows[i][j] == 0
            assert len(zero_rows) + len(zero_cols) >= max(x, y) + 1
        else:
            assert zero_rows == zero_cols == ()
            shorter = min(x, y)
            assert len(set(sdr)) == shorter
            for i, j in enumerate(sdr):
                if x <= y:
                    assert rows[i][j] > 0
                else:
                    assert rows[j][i] > 0


def test_fk_matches_permanent_random():
    rng = random.Random(6)
    for _ in range(300):
        x = rng.randint(1, 5)
        y = rng.randint(x, 5)
        rows = [[rng.randint(0, 1) for _ in range(y)] for _ in range(x)]
        mat = m(*rows)
        assert (fk_zero_test(mat)[0] is None) == (permanent(mat) == 0)


def test_fk_matches_permanent_random_10x10():
    # sparse 0/1 matrices keep both verdicts interesting at this size
    rng = random.Random(16)
    zeros = 0
    for _ in range(120):
        rows = [[1 if rng.random() < 0.25 else 0 for _ in range(10)] for _ in range(10)]
        mat = m(*rows)
        is_zero = fk_zero_test(mat)[0] is None
        zeros += is_zero
        assert is_zero == (permanent(mat) == 0)
    assert 0 < zeros < 120  # both outcomes exercised


def test_reduced_permanent_doubled_identity():
    mat = m([2, 0, 0], [0, 2, 0], [0, 0, 2])
    # no column has sum exactly 1, so the reduced matrix is the matrix
    assert reduced_permanent_check(mat) == ((), mat, True)
    assert permanent(mat) == 8


def test_reduced_permanent_hypothesis_violation():
    failures, reduced, positive = reduced_permanent_check(m([1, 0], [0, 3]))
    assert "row sum < 2" in failures
    assert reduced is positive is None


def test_reduced_permanent_exhaustive_small():
    # every {0,1,2}-entry matrix with p <= 3, r <= 4 meeting the hypotheses
    checked = 0
    for p in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for flat in itertools.product((0, 1, 2), repeat=p * r):
                if sum(flat) != 2 * p:
                    continue
                rows = [flat[i * r : (i + 1) * r] for i in range(p)]
                mat = m(*rows)
                failures, reduced, positive = reduced_permanent_check(mat)
                if failures:
                    continue
                checked += 1
                assert positive, f"lemma falsified at {rows}"
                if reduced is not None:
                    assert permanent(reduced) > 0
    assert checked > 100


def test_pi_value_all_twos_convention():
    rep = check_pi([2, 2, 2], 3, Fraction(1))
    assert rep.lhs == 2**3
    assert rep.status == "holds"  # 8 <= 2^9


def test_pi_value_worked_example():
    # ts = (4,2,2), p = 4: T=4, alphas=(1,1,3), z=2, q_z=2, pi = 4*3*4 = 48;
    # r >= p - d0 and p >= 2 d0 + 3 clash here
    rep = check_pi([4, 2, 2], 4, Fraction(1))
    assert rep.detail == "T=4 alphas=(1, 1, 3) z=2 q_z=2 hypotheses failed: p < 2 delta0 + 3"
    assert rep.lhs == 48
    assert rep.status == "holds"  # 48 <= 2^12


def test_pi_value_small_delta_trivial_bound():
    # delta0 < 1: the trivial estimate pi <= T^p <= 2^(2p) applies
    rep = check_pi([2, 2, 2, 2], 4, Fraction(1, 2))
    assert rep.lhs <= 2 ** (2 * 4)
    assert rep.status == "holds"


def test_pi_value_fractional_delta_bound():
    rep = check_pi([3, 3, 2], 4, Fraction(3, 2))
    # X = (3/2)^6 = 11.39..., bound = 2^12 * X; the row carries the lower end
    # of the first rung's bracket of X, which contains X
    lo, hi = pow_bounds((Fraction(3, 2),) * 2, (Fraction(6),) * 2, PRECISIONS[0])
    assert rep.rhs == 2**12 * lo
    assert lo <= Fraction(3, 2) ** 6 <= hi
    assert rep.status == "holds"


def test_pi_value_structural_errors():
    with pytest.raises(ValueError):
        check_pi([1, 3], 2, Fraction(1))
    with pytest.raises(ValueError):
        check_pi([2, 2], 3, Fraction(1))


def test_pi_value_random_admissible():
    # random admissible tuples with delta0 chosen to satisfy the hypotheses
    rng = random.Random(8)
    for _ in range(50):
        p = rng.randint(5, 9)
        delta0 = Fraction(rng.randint(1, (p - 3) // 2))
        r_min = p - int(delta0)
        r = rng.randint(max(1, r_min), p)
        # random composition of 2p into r parts >= 2
        extra = 2 * p - 2 * r
        parts = [2] * r
        for _ in range(extra):
            parts[rng.randrange(r)] += 1
        rep = check_pi(parts, p, delta0)
        assert "hypotheses" not in rep.detail
        assert rep.status == "holds", (parts, p, delta0, rep.lhs, rep.rhs)


def lam_basis(n, size):
    return F2Set(n, tuple(1 << i for i in range(size)))


def test_sophisticated_all_equal_sets():
    lam = lam_basis(6, 5)
    es = [lam] * 4  # p = 2
    classes = [(0, 1), (2, 3)]
    rep, _ = check_sophisticated(es, classes, lam)
    assert rep.lhs == energy_tuples_multiset([lam.elems] * 4)
    assert rep.status == "holds"


def test_sophisticated_disjoint_sets_zero():
    lam = lam_basis(6, 4)
    es = [
        F2Set(6, (1,)),
        F2Set(6, (2,)),
        F2Set(6, (4,)),
        F2Set(6, (8,)),
    ]
    rep, _ = check_sophisticated(es, [(0, 1, 2, 3)], lam)
    assert rep.lhs == 0
    assert rep.status == "holds"


def test_sophisticated_singletons_paired():
    lam = lam_basis(6, 4)
    es = [F2Set(6, (1,)), F2Set(6, (1,)), F2Set(6, (2,)), F2Set(6, (2,))]
    rep, _ = check_sophisticated(es, [(0, 1), (2, 3)], lam)
    assert rep.lhs == 1
    assert rep.status == "holds"


def test_sophisticated_refuses_undecided_or_dependent():
    dependent = F2Set(4, (1, 2, 3))
    (rep,) = check_sophisticated([dependent] * 4, [(0, 1), (2, 3)], dependent)
    assert rep.status == "precondition-failed"
    assert rep.detail == "family status false"


def test_sophisticated_random_instances():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(5, 8)
        lam_size = rng.randint(2, 6)
        lam = lam_basis(n, lam_size)
        p = rng.randint(1, 2)
        es = []
        for _ in range(2 * p):
            size = rng.randint(1, lam_size)
            es.append(F2Set.from_bits(n, rng.sample(lam.elems, size)))
        idx = list(range(2 * p))
        rng.shuffle(idx)
        cut = rng.randint(1, 2 * p)
        classes = [tuple(idx[:cut]), tuple(idx[cut:])] if cut < 2 * p else [tuple(idx)]
        rep, corollary = check_sophisticated(es, classes, lam)
        assert rep.status == "holds"
        assert corollary.status == "holds"
        oracle = energy_tuples_multiset([e.elems for e in es])
        assert rep.lhs == oracle
        assert corollary.lhs == oracle**2
