import itertools
import random
import sys
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2lab import bench, inverse
from f2lab.bench import (
    check_bombieri,
    check_greedy_support,
    check_inverse2,
    greedy_support_threshold,
)
from f2lab.core import BudgetError, F2Set, distinct_sumset_power
from f2lab.dissociation import in_family, random_dissociated
from f2lab.energy import _brute_preferred, additive_energy
from f2lab.inverse import (
    InverseParams,
    Rectangle,
    extract_rectangles_d,
    extract_rectangles_pair,
    greedy_disjoint_supports,
    _best_intersections,
    _best_split,
    plant_instance,
    refine_connected,
)

from oracles import (
    best_balanced_split,
    best_common_intersection,
    energy_sum_counts,
    energy_tuples,
    first_violating_window,
    greedy_support_threshold_sum,
)


def refine_patched(
    q,
    k,
    window=inverse.REFINE_WINDOW,
    constant=inverse.REFINE_CONSTANT,
    exhaustive_limit=inverse.REFINE_EXHAUSTIVE_LIMIT,
):
    """refine_connected with its window, constant and exhaustive limit
    patched for the call."""
    with mock.patch.multiple(
        inverse,
        REFINE_WINDOW=window,
        REFINE_CONSTANT=constant,
        REFINE_EXHAUSTIVE_LIMIT=exhaustive_limit,
    ):
        return refine_connected(q, k)


def test_refine_subgroup_no_step():
    sub = F2Set(4, (0, 1, 2, 3))
    result, steps, certified = refine_connected(sub, 2)
    assert steps == ()
    assert certified
    assert result == sub


def test_refine_exhaustive_certification_small_sumsets():
    # every Q of moderate size inside 2.Lambda gets an exhaustively
    # certified verdict; fired steps (if any) must raise D_k
    lam = F2Set(6, (1, 2, 4, 8, 16, 32))
    ground = distinct_sumset_power(lam, 2)
    rng = random.Random(1)
    for _ in range(40):
        size = rng.randint(3, 10)
        q = F2Set.from_bits(6, rng.sample(ground.elems, size))
        _, steps, certified = refine_connected(q, 2)
        assert certified
        for size_before, removed, energy_before, energy_after in steps:
            assert energy_after * size_before**2 > energy_before * (size_before - removed) ** 2


def test_refine_rectangle_plus_singleton_stays_connected():
    # The refinement confirms that no subset in the window violates the
    # proportional-energy inequality even for a product chunk plus a far
    # singleton: with the constant at 1/8 the threshold C^(2k)(b/m)^(2k)T_k
    # sits below the unavoidable diagonal energy of any candidate B, so the
    # refinement certifies connectedness without firing.
    lam = F2Set(8, tuple(1 << i for i in range(8)))
    rows = (1, 2, 4)
    cols = (8, 16, 32)
    pts = [r ^ c for r in rows for c in cols] + [64 ^ 128]
    q = F2Set.from_bits(8, pts)
    result, steps, certified = refine_connected(q, 2)
    assert certified
    assert steps == ()
    assert result == q


@pytest.mark.parametrize("k", [2, 3])
def test_refine_inside_pair_sums_is_one_energy_call(k):
    # at the constant 1/8 a step needs |Q| > 2^(7k/(k-1)), more than the 435
    # pair sums of an independent Lambda in F_2^30 hold at k <= 4; this is why
    # the extraction does not refine.  Every Q inside the 120 pair sums of a
    # 16-element Lambda is certified from its own T_k, with no search
    lam = F2Set(16, tuple(1 << i for i in range(16)))
    ground = distinct_sumset_power(lam, 2)
    assert len(ground) == 120
    rng = random.Random(k)
    for size in (3, 17, 53, 100, 120):
        q = F2Set.from_bits(16, rng.sample(ground.elems, size))
        with mock.patch.object(inverse, "additive_energy", wraps=additive_energy) as energy:
            result, steps, certified = refine_connected(q, k)
        assert result == q
        assert steps == () and certified
        assert energy.call_count == 1


def test_extract_pair_computes_no_energy():
    # the pipeline does not refine, so a planted |Lambda| = 16 instance,
    # peeled in several rounds, never asks for a T_k
    lam, _, _, planted, noise = plant_instance(3, 4, 4, Fraction(1, 10), seed=2)
    with mock.patch.object(inverse, "additive_energy", wraps=additive_energy) as energy:
        rects = extract_rectangles_pair(planted.union(noise), lam, InverseParams(seed=2))[0]
    assert len(rects) >= 2
    assert energy.call_count == 0


def test_refine_cardinality_guarantee():
    rng = random.Random(5)
    for _ in range(10):
        dim = rng.randint(4, 8)
        q = F2Set.from_bits(dim, rng.sample(range(1 << dim), rng.randint(4, 12)))
        result, steps, _ = refine_connected(q, 2)
        s = len(steps)
        assert len(result) * 2**s >= len(q)  # (1 - beta2)^s with beta2 = 1/2


def test_refine_fired_steps_match_energy_oracle():
    # Q = a subgroup of 8 plus a few far points; at C = 1 with a window reaching
    # 3/4 or 7/8 of Q the exhaustive search removes the far points.  k = 3
    # takes the spectral route for Q and the brute one for what is left.
    fired = 0
    routes = set()
    cases = (
        (2, 5, Fraction(5, 8), Fraction(7, 8), 12, 30),
        (3, 4, Fraction(1, 4), Fraction(3, 4), 10, 8),
        (3, 5, Fraction(1, 4), Fraction(3, 4), 10, 8),
    )
    for k, dim, beta1, beta2, max_size, runs in cases:
        rng = random.Random(10 * k + dim)
        for _ in range(runs):
            extras = rng.sample(range(8, 1 << dim), rng.randint(1, max_size - 8))
            q = F2Set.from_bits(dim, [*range(8), *extras])
            result, steps, certified = refine_patched(
                q, k, window=(beta1, beta2), constant=Fraction(1)
            )
            assert certified
            if not steps:
                continue
            fired += len(steps)
            assert steps[0][2] == energy_tuples(q.elems, k)  # energy_before
            assert steps[-1][3] == energy_tuples(result.elems, k)  # energy_after
            for step, nxt in zip(steps, steps[1:]):
                assert step[3] == nxt[2]
            for size_before, removed, _, _ in steps:
                routes.add(_brute_preferred(size_before, dim, k))
                routes.add(_brute_preferred(size_before - removed, dim, k))
    assert fired >= 40
    assert routes == {True, False}


WINDOWS = (
    (Fraction(1, 4), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(7, 8)),
    (Fraction(3, 4), Fraction(7, 8)),
)


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(4, 6),
    h=st.integers(2, 3),
    extras=st.lists(st.integers(0, 63), max_size=10, unique=True),
    k=st.sampled_from((2, 3)),
    constant=st.sampled_from((Fraction(1, 8), Fraction(1, 2), Fraction(1))),
    window=st.sampled_from(WINDOWS),
    exhaustive=st.booleans(),
)
@example(dim=4, h=3, extras=[8, 9], k=3, constant=Fraction(1), window=WINDOWS[1],
         exhaustive=True)
@example(dim=5, h=3, extras=[9, 17, 18, 20], k=2, constant=Fraction(1), window=WINDOWS[3],
         exhaustive=True)
@example(dim=5, h=3, extras=[9, 17, 18, 20], k=2, constant=Fraction(1), window=WINDOWS[3],
         exhaustive=False)
@example(dim=4, h=2, extras=[], k=2, constant=Fraction(1, 8), window=WINDOWS[0],
         exhaustive=False)
def test_refine_agrees_with_window_oracle(dim, h, extras, k, constant, window, exhaustive):
    # certified: no window subset of the result violates; searched
    # exhaustively: the first step removes the oracle's first violation;
    # past the limit: no step, certified only when the floor T_k(B) >= |B|^k
    # rules out every window size
    pts = sorted({*range(1 << h), *(x % (1 << dim) for x in extras)})[:12]
    q = F2Set(dim, tuple(pts))
    beta1, beta2 = window
    result, steps, certified = refine_patched(
        q, k, window=window, constant=constant, exhaustive_limit=12 if exhaustive else 2
    )
    if certified:
        assert first_violating_window(result.elems, k, beta1, beta2, constant) is None
    if not exhaustive:
        m, t_q = len(q), energy_sum_counts(q.elems, k)
        floor_open = any(
            size**k < (constant * Fraction(size, m)) ** (2 * k) * t_q
            for size in range(1, m)
            if beta1 * m <= size <= beta2 * m
        )
        assert (result, steps, certified) == (q, (), not floor_open)
    else:
        bad = first_violating_window(q.elems, k, beta1, beta2, constant)
        if bad is None:
            assert steps == () and certified
        else:
            rest = tuple(x for x in q.elems if x not in bad)
            assert steps[0] == (
                len(q),
                len(bad),
                energy_sum_counts(q.elems, k),
                energy_sum_counts(rest, k),
            )


def test_refine_rejects_bad_params():
    with pytest.raises(ValueError):
        refine_connected(F2Set(4, (0, 1, 2, 3)), 1)
    # the window and constant under which the step-count bound exists
    beta1, beta2 = inverse.REFINE_WINDOW
    assert 0 < beta1 <= beta2 < 1
    assert 0 < inverse.REFINE_CONSTANT < Fraction(1, 4)


def test_greedy_disjoint_supports_disjoint_inputs():
    supports = [frozenset({i, i + 10}) for i in range(5)]
    got = greedy_disjoint_supports(supports, Fraction(1, 4), 4)
    assert got == [0, 1, 2, 3]


def test_greedy_identical_support_rejected_after_first():
    supports = [frozenset({1, 2, 3})]
    assert greedy_disjoint_supports(supports, Fraction(1, 4), 3) == [0]
    with pytest.raises(ValueError):
        greedy_disjoint_supports([frozenset({1, 2}), frozenset({1, 2})], Fraction(1, 2), 2)


def test_greedy_overlap_contract():
    rng = random.Random(8)
    for _ in range(30):
        p = rng.randint(2, 6)
        q = rng.randint(2, 20)
        pool = list(range(40))
        supports = []
        seen = set()
        while len(supports) < q:
            s = frozenset(rng.sample(pool, p))
            if s not in seen:
                seen.add(s)
                supports.append(s)
        zeta = Fraction(rng.randint(1, 4), 4)
        w = rng.randint(1, 6)
        got = greedy_disjoint_supports(supports, zeta, w)
        assert len(got) <= w
        union: set = set()
        for idx in got:
            assert len(union & supports[idx]) * zeta.denominator <= zeta.numerator * p
            union |= supports[idx]


def test_greedy_threshold_guarantees_full_width():
    # when q >= 2 sigma*, the lemma promises the greedy returns w supports;
    # the equal blocks are the smallest whose transversals outnumber the
    # threshold (at p = 4 that takes 0.19M to 2.8M transversals, so p <= 3)
    rng = random.Random(31)
    for _ in range(20):
        p = rng.randint(2, 3)
        w = rng.randint(2, 4)
        zeta = Fraction(1, 2)
        size = 1
        while size**p <= (threshold := greedy_support_threshold(p, w, zeta, [size] * p, [1] * p)):
            size += 1
        blocks = [list(range(100 * i, 100 * i + size)) for i in range(p)]
        # one element per block: all distinct transversals
        pool = list(itertools.product(*blocks))
        rng.shuffle(pool)
        q_count = int(threshold) + 1
        assert q_count <= len(pool)
        supports = [frozenset(t) for t in pool[:q_count]]
        rep = check_greedy_support(supports, zeta, w, [frozenset(b) for b in blocks], [1] * p)
        assert rep.status == "holds" and rep.lhs == w, (p, w, threshold, q_count)


def test_greedy_support_threshold_matches_defining_sum():
    # blocks of multiplicity -1 (no composition), 0, or above p, no blocks
    # at all, and zeta above 1 (an empty omega range) included
    rng = random.Random(24)
    for _ in range(1500):
        p = rng.randint(1, 7)
        rho = rng.randint(0, 5)
        zeta = Fraction(rng.randint(0, 12), rng.randint(1, 8))
        sizes = [rng.randint(1, 9) for _ in range(rho)]
        mults = [rng.randint(-1, 5) for _ in range(rho)]
        width = rng.randint(1, 6)
        got = greedy_support_threshold(p, width, zeta, sizes, mults)
        want = greedy_support_threshold_sum(p, width, zeta, sizes, mults)
        assert got == want and type(got) is Fraction, (p, width, zeta, sizes, mults)


def test_greedy_support_refusals():
    blocks = [frozenset(range(8)), frozenset(range(100, 108))]
    pool = [frozenset(t) for t in itertools.product(sorted(blocks[0]), sorted(blocks[1]))]
    threshold = greedy_support_threshold(2, 2, Fraction(1, 2), [8, 8], [1, 1])
    assert threshold > len(pool)
    rep = check_greedy_support(pool, Fraction(1, 2), 2, blocks, [1, 1])
    assert rep.status == "precondition-failed"
    assert rep.detail == f"fewer than {threshold} supports"
    rep = check_greedy_support([frozenset((0, 1))], Fraction(1, 2), 2, blocks, [1, 1])
    assert rep.detail == "a support breaks the block multiplicities"
    rep = check_greedy_support(pool, Fraction(1, 2), 2, [blocks[0], blocks[0]], [1, 1])
    assert rep.detail == "blocks overlap"


def test_bombieri_all_equal():
    universe = F2Set(4, (1, 2, 4, 8))
    subsets = [universe] * 3
    rep = check_bombieri(universe, subsets, Fraction(1), 2)
    assert rep.lhs == len(universe)  # the intersection is the whole universe
    assert rep.status == "holds"


def test_bombieri_t1_trivial():
    universe = F2Set(4, tuple(range(1, 9)))
    subsets = [F2Set(4, (1, 2, 3, 4)), F2Set(4, (5, 6, 7, 8)), F2Set(4, (1, 3, 5, 7))]
    rep = check_bombieri(universe, subsets, Fraction(1, 2), 1)
    assert rep.lhs >= 4  # >= lam |B|
    assert rep.status == "holds"


def test_bombieri_random_exhaustive_meets_bound():
    rng = random.Random(12)
    for _ in range(25):
        dim = 6
        universe = F2Set.from_bits(dim, rng.sample(range(1 << dim), 12))
        lam = Fraction(1, 2)
        size = 6  # = lam * |B|
        q = rng.randint(3, 6)
        subsets = [
            F2Set.from_bits(dim, rng.sample(universe.elems, size)) for _ in range(q)
        ]
        t = rng.randint(1, max(1, int(lam * q)))
        rep = check_bombieri(universe, subsets, lam, t)
        assert rep.detail.endswith(" exhaustive") and rep.status == "holds"
        assert rep.lhs >= rep.rhs


def test_bombieri_precondition_errors():
    universe = F2Set(4, (1, 2, 4, 8))
    small = F2Set(4, (1,))
    rep = check_bombieri(universe, [small], Fraction(1, 2), 1)
    assert (rep.status, rep.detail) == ("precondition-failed", "some |B_i| < lam |B|")
    rep = check_bombieri(universe, [universe], Fraction(1, 2), 1)  # t > lam q
    assert (rep.status, rep.detail) == ("precondition-failed", "t > lam q")


@st.composite
def fiber_sets(draw):
    """Up to 10 sets over 8 points, some drawn twice, and a depth t <= q."""
    pool = draw(st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=10))
    sets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return sets, draw(st.integers(1, len(sets)))


def as_mask(points):
    return sum(1 << x for x in points)


def kernel_capped(masks, t_lo, t_hi, cap):
    """_best_intersections with INTERSECTION_NODE_CAP patched for the call."""
    with mock.patch.object(inverse, "INTERSECTION_NODE_CAP", cap):
        return _best_intersections(masks, t_lo, t_hi)


def scan_profile(masks, t_lo, t_hi):
    """{t: (indices, AND)} from a scan of every row subset: the AND of each
    subset extends the AND of the subset without its highest row, and a
    subset replaces its size's best on more bits, or on as many bits and
    an earlier index tuple."""
    ands = [0] * (1 << len(masks))
    ands[0] = (1 << 64) - 1  # the empty AND; no subset of size >= 1 keeps it
    best = {}
    for sub in range(1, 1 << len(masks)):
        top = sub.bit_length() - 1
        ands[sub] = ands[sub ^ 1 << top] & masks[top]
        t = sub.bit_count()
        if t_lo <= t <= t_hi:
            idx = tuple(i for i in range(len(masks)) if sub >> i & 1)
            key = (-ands[sub].bit_count(), idx)
            if t not in best or key < best[t][0]:
                best[t] = (key, (idx, ands[sub]))
    return {t: got for t, (_, got) in best.items()}


@pytest.mark.parametrize("q", range(1, 13))
def test_best_intersections_match_subset_scan(q):
    # every window [t_lo, t_hi] of every row count at q <= 12 rows, on sparse,
    # half and dense rows over 10 columns; C(12, 6) = 924 is far below the cap
    rng = random.Random(q)
    for density in (0.2, 0.5, 0.8):
        masks = [as_mask(j for j in range(10) if rng.random() < density) for _ in range(q)]
        for t_lo in range(1, q + 1):
            for t_hi in range(t_lo, q + 1):
                profile, exhaustive = _best_intersections(masks, t_lo, t_hi)
                assert exhaustive and profile == scan_profile(masks, t_lo, t_hi)


@settings(max_examples=300, deadline=None)
@given(fiber_sets(), st.data())
@example(([frozenset()] * 3, 2), None)
@example(([frozenset({1, 2})] * 4 + [frozenset({1})], 3), None)
def test_best_common_intersection_matches_scan(inst, data):
    # the largest C(q, t) in the window is the smallest cap that the
    # node-count proof covers
    sets, t = inst
    t_hi = t if data is None else data.draw(st.integers(t, len(sets)))
    masks = [as_mask(s) for s in sets]
    cap = max(comb(len(sets), u) for u in range(t, t_hi + 1))
    profile, exhaustive = kernel_capped(masks, t, t_hi, cap)
    assert exhaustive and sorted(profile) == list(range(t, t_hi + 1))
    for u, (idx, inter) in profile.items():
        want_idx, want = best_common_intersection(sets, u)
        assert (idx, inter) == (want_idx, as_mask(want))


@settings(max_examples=300, deadline=None)
@given(fiber_sets(), st.integers(0, 3), st.integers(1, 4))
def test_capped_common_intersection_is_a_witness(inst, extra, cap):
    sets, t = inst
    t_hi = min(len(sets), t + extra)
    masks = [as_mask(s) for s in sets]
    profile, exact = kernel_capped(masks, t, t_hi, cap)
    assert sorted(profile) == list(range(t, t_hi + 1))
    for u, (idx, inter) in profile.items():
        and_ = masks[idx[0]]
        for i in idx:
            and_ &= masks[i]
        assert len(set(idx)) == u and inter == and_
        want = best_common_intersection(sets, u)
        assert inter.bit_count() <= len(want[1])
        if exact:
            assert (idx, inter) == (want[0], as_mask(want[1]))


def test_common_intersection_node_cap():
    # t_hi * cap = 2 nodes reach only (0, 1); the maximum is (4, 5)
    sets = [frozenset({i}) for i in range(4)] + [frozenset({9})] * 2
    masks = [as_mask(s) for s in sets]
    assert kernel_capped(masks, 2, 2, 1) == ({2: ((0, 1), 0)}, False)
    assert best_common_intersection(sets, 2) == ((4, 5), frozenset({9}))
    assert kernel_capped(masks, 2, 2, comb(6, 2)) == ({2: ((4, 5), 1 << 9)}, True)
    # a window counts t_hi * cap nodes: (0), (0, 1) and (0, 1, 2)
    assert kernel_capped(masks, 1, 3, 1) == (
        {1: ((0,), 1), 2: ((0, 1), 0), 3: ((0, 1, 2), 0)},
        False,
    )


def test_bombieri_capped_witness(monkeypatch):
    # q = 6 halves of 8 points, t = 2: any common point reaches the bound 4/45
    universe = F2Set(4, tuple(range(8)))
    halves = [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7), (0, 2, 4, 6), (1, 3, 5, 7)]
    subsets = [F2Set(4, h) for h in halves]
    with monkeypatch.context() as patch:
        patch.setattr(inverse, "INTERSECTION_NODE_CAP", 1)
        rep = check_bombieri(universe, subsets, Fraction(1, 2), 2)
        assert (rep.lhs, rep.status, rep.detail) == (0, "undecided", "sets=[0, 1] node cap reached")
        rep = check_bombieri(universe, subsets[1:] + subsets[:1], Fraction(1, 2), 2)
        assert (rep.lhs, rep.status, rep.detail) == (2, "holds", "sets=[0, 1] node cap reached")
    rep = check_bombieri(universe, subsets, Fraction(1, 2), 2)
    assert (rep.lhs, rep.rhs, rep.status) == (2, Fraction(4, 45), "holds")
    assert rep.detail == "sets=[0, 2] exhaustive"


def test_bombieri_search_outcomes_are_reported(monkeypatch):
    # an exhaustive search below the bound is a violation; a capped one is
    # undecided unless it reaches the bound
    universe = F2Set(4, (1, 2, 4, 8))
    for exhaustive, status in ((True, "violated"), (False, "undecided")):
        monkeypatch.setattr(
            bench, "_best_intersections", lambda *a, e=exhaustive: ({2: ((0, 1), 0)}, e)
        )
        rep = check_bombieri(universe, [universe] * 3, Fraction(1), 2)
        assert (rep.lhs, rep.rhs, rep.status) == (0, Fraction(4, 9), status)


def test_fiber_decomposition_mass_and_disjointness():
    rng = random.Random(3)
    for _ in range(20):
        n = 12
        lam = random_dissociated(n, 8, seed=rng.randrange(10**6))
        l1 = F2Set.from_bits(n, lam.elems[:4])
        l2 = F2Set.from_bits(n, lam.elems[4:])
        pairs = [(a, b) for a in l1 for b in l2]
        chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
        q = F2Set.from_bits(n, (a ^ b for a, b in chosen))
        # the fibers check_inverse2 reads: D(lambda) as a mask over Lambda_2's indices
        fibers = bench._fiber_masks(q, l1, l2)
        mass = sum(d.bit_count() for _, d in fibers)
        assert mass == len(q)  # unique representation
        rebuilt = {lam ^ mu for lam, d in fibers for j, mu in enumerate(l2.elems) if d >> j & 1}
        assert rebuilt == set(q.elems)
        # only the nonempty fibers, in Lambda_1 order
        firsts = {a for a, _ in chosen}
        assert [lam for lam, _ in fibers] == [lam for lam in l1.elems if lam in firsts]
        # power-sum bound: sum |D|^x <= s2^(x-1) * mass for integer x >= 1
        for x in (1, 2, 3):
            assert sum(d.bit_count() ** x for _, d in fibers) <= len(l2) ** (x - 1) * mass


def full_product_instance():
    lam = random_dissociated(16, 16, seed=4)
    l1 = F2Set.from_bits(16, lam.elems[:10])
    l2 = F2Set.from_bits(16, lam.elems[10:])
    q = F2Set.from_bits(16, (a ^ b for a in l1 for b in l2))
    return q, l1, l2


def test_inverse2_full_product_holds():
    q, l1, l2 = full_product_instance()
    rep = check_inverse2(q, l1, l2, 5, Fraction(1, 4))
    assert rep.status == "holds"
    assert rep.lhs == additive_energy(q, 5)
    assert rep.rhs is not None and rep.lhs <= rep.rhs


def test_inverse2_unpinned_ceiling_is_undecided(monkeypatch):
    # brackets too wide to pin ceil(delta0) escalate every rung
    monkeypatch.setattr(bench, "log2_bounds", lambda x, prec: (Fraction(1), Fraction(64)))
    q, l1, l2 = full_product_instance()
    rep = check_inverse2(q, l1, l2, 5, Fraction(1, 4))
    assert (rep.status, rep.rhs) == ("undecided", None)


def test_inverse2_refusals_in_order():
    # disjointness is checked first, then the caps, then containment
    q, l1, l2 = full_product_instance()
    overlap = l2.union(F2Set(16, l1.elems[:1]))
    outside = q.union(F2Set(16, l1.elems[:1]))  # a lone element: no sum of both sides
    with pytest.raises(ValueError, match="must be disjoint"):
        check_inverse2(q, l1, overlap, 5, Fraction(1, 4))
    with pytest.raises(ValueError, match="Q must be contained"):
        check_inverse2(outside, l1, l2, 5, Fraction(1, 4))
    with pytest.raises(ValueError, match="must be disjoint"):
        check_inverse2(outside, l1, overlap, 5, Fraction(1, 4))
    with pytest.raises(BudgetError):
        check_inverse2(outside, l1, l2, bench.INVERSE2_P_CAP + 1, Fraction(1, 4))


def test_inverse2_planted_rectangle_holds():
    lam = random_dissociated(16, 16, seed=9)
    l1 = F2Set.from_bits(16, lam.elems[:12])
    l2 = F2Set.from_bits(16, lam.elems[12:])
    rng = random.Random(5)
    pairs = [(a, b) for a in l1 for b in l2]
    chosen = rng.sample(pairs, 40)
    q = F2Set.from_bits(16, (a ^ b for a, b in chosen))
    rep = check_inverse2(q, l1, l2, 5, Fraction(1, 8))
    assert rep.status in ("holds", "precondition-failed")
    if rep.status == "holds":
        assert rep.lhs <= rep.rhs


def test_inverse2_hypothesis_guard():
    lam = random_dissociated(12, 8, seed=2)
    l1 = F2Set.from_bits(12, lam.elems[:4])
    l2 = F2Set.from_bits(12, lam.elems[4:])
    q = F2Set.from_bits(12, (l1.elems[0] ^ b for b in l2.elems))
    rep = check_inverse2(q, l1, l2, 5, Fraction(1))
    assert rep.status == "precondition-failed"
    assert rep.detail


def test_rectangle_invariants():
    r = Rectangle((), F2Set(4, (1, 2)), F2Set(4, (4, 8)))
    assert r.points() == {1 ^ 4, 1 ^ 8, 2 ^ 4, 2 ^ 8}
    assert len(r.rows) * len(r.cols) == 4
    with pytest.raises(ValueError):
        Rectangle((), F2Set(4, (1, 2)), F2Set(4, (2, 8)))
    with pytest.raises(ValueError):
        Rectangle((1,), F2Set(4, (1, 2)), F2Set(4, (4,)))


def test_plant_instance_structure():
    _, rows, cols, planted, noise = plant_instance(3, 4, 4, Fraction(1, 10), seed=1)
    assert len(rows) == 3
    # rectangles pairwise disjoint and inside the planted points
    seen: set = set()
    for r, c in zip(rows, cols):
        pts = Rectangle((), r, c).points()
        assert pts <= set(planted.elems)
        assert not (pts & seen)
        seen |= pts
    assert seen == set(planted.elems)
    assert not planted.intersection(noise).elems
    assert len(noise) <= len(planted) // 10


def test_extract_single_planted_rectangle_full_recovery():
    lam, _, _, planted, noise = plant_instance(1, 4, 4, Fraction(0), seed=21)
    q = planted.union(noise)
    rects, covered, *_ = extract_rectangles_pair(q, lam, InverseParams(seed=2))
    got: set = set()
    for r in rects:
        pts = r.points()
        assert pts <= set(q.elems)
        assert not (pts & got)
        got |= pts
    assert got >= set(planted.elems)
    assert covered == len(q)


def test_extract_noise_only_gives_tiny_rectangles():
    # Q = sparse random pairs: nothing of area above the trivial sizes
    rng = random.Random(6)
    lam = random_dissociated(16, 12, seed=3)
    pairs = list(itertools.combinations(lam.elems, 2))
    chosen = rng.sample(pairs, 8)
    q = F2Set.from_bits(16, (a ^ b for a, b in chosen))
    rects = extract_rectangles_pair(q, lam, InverseParams(seed=4, min_rows=2, min_cols=2))[0]
    for r in rects:
        assert r.points() <= set(q.elems)
        assert len(r.rows) * len(r.cols) <= 8


def test_extract_never_fabricates():
    rep_params = InverseParams(seed=9, min_rows=3, min_cols=3)
    lam = random_dissociated(14, 10, seed=8)
    q = F2Set.from_bits(14, (lam.elems[0] ^ lam.elems[1],))
    rects, _, _, trace, _ = extract_rectangles_pair(q, lam, rep_params)
    assert rects == ()
    assert trace  # diagnostics recorded


def test_extract_rejects_points_outside_sumset():
    lam = F2Set(8, (1, 2, 4))
    q = F2Set(8, (32,))
    with pytest.raises(ValueError):
        extract_rectangles_pair(q, lam, InverseParams(seed=0))


def test_extract_d_delegates_for_pairs():
    lam, _, _, planted, noise = plant_instance(1, 3, 3, Fraction(0), seed=13, n=14, lambda_size=10)
    q = planted.union(noise)
    rep = extract_rectangles_d(q, lam, 2, InverseParams(seed=3))
    assert rep == extract_rectangles_pair(q, lam, InverseParams(seed=3))
    assert rep[0]
    for rect in rep[0]:
        assert rect.prefix == ()
        assert rect.points() <= set(q.elems)


def _plant_prefixed(d, h, size, lambda_size, seed, n=24):
    """Q holding h prefixed size x size rectangles in the d-fold sums of a
    random dissociated Lambda, each with a private (d-2)-prefix and private
    row and column blocks; returns (Q, Lambda)."""
    rng = random.Random(seed)
    lam = random_dissociated(n, lambda_size, seed=rng.randrange(1 << 30))
    perm = rng.sample(lam.elems, lambda_size)
    width = d - 2 + 2 * size
    assert h * width <= lambda_size
    points = set()
    for i in range(h):
        block = perm[i * width : (i + 1) * width]
        rows = F2Set.from_bits(n, block[d - 2 : d - 2 + size])
        cols = F2Set.from_bits(n, block[d - 2 + size :])
        points |= Rectangle(tuple(block[: d - 2]), rows, cols).points()
    return F2Set.from_bits(n, points), lam


def _assert_disjoint_cover(rects, covered, q, d):
    """Every rectangle inside Q with a (d-2)-prefix, pairwise disjoint, and
    `covered` counting their union."""
    union = set()
    for rect in rects:
        pts = rect.points()
        assert len(rect.prefix) == d - 2
        assert pts <= set(q.elems)
        assert not pts & union
        union |= pts
    assert covered == len(union)


@pytest.mark.parametrize(
    "d, h, lambda_size, floor",
    # mean shares 1.000 on all three over these seeds; the one-partition
    # search covered 0.76, 0.70 and 0.52, and the one-rectangle report 0.22,
    # 0.11 and 0.12 of the planted points
    [(3, 2, 16, Fraction(9, 10)), (3, 3, 21, Fraction(9, 10)), (4, 2, 18, Fraction(9, 10))],
    ids=["d3-h2", "d3-h3", "d4-h2"],
)
def test_extract_d_recovers_planted_share(d, h, lambda_size, floor):
    covered = planted = 0
    for seed in range(10):
        q, lam = _plant_prefixed(d, h, 3, lambda_size, seed)
        rects, count, _, trace, _ = extract_rectangles_d(q, lam, d, InverseParams(seed=seed))
        _assert_disjoint_cover(rects, count, q, d)
        assert trace[0]["stage"] == "prefix"
        covered += count
        planted += len(q)
    assert Fraction(covered, planted) > floor


def test_extract_d3_tests_the_family_once(monkeypatch):
    # Lambda_pair lies inside Lambda, whose weight-2dp test covers weight 4p
    weights = []

    def counting(l, spec):
        weights.append(spec.k)
        return in_family(l, spec)

    monkeypatch.setattr(sys.modules["f2lab.inverse"], "in_family", counting)
    lam, rows, cols, planted, noise = plant_instance(
        1, 3, 3, Fraction(0), seed=7, n=14, lambda_size=9
    )
    used = set(rows[0].elems) | set(cols[0].elems)
    prefix_elem = next(e for e in lam.elems if e not in used)
    q3 = F2Set.from_bits(14, (prefix_elem ^ p for p in planted.union(noise).elems))
    assert extract_rectangles_d(q3, lam, 3, InverseParams(p=2, seed=11))[0]
    assert weights == [12]


def test_extract_d3_full_sumset_containment():
    lam = random_dissociated(12, 7, seed=17)
    q = distinct_sumset_power(lam, 3)
    rects, covered, *_ = extract_rectangles_d(q, lam, 3, InverseParams(p=2, seed=19))
    _assert_disjoint_cover(rects, covered, q, 3)


@pytest.mark.parametrize(
    "d, lam",
    # 1140 and 1820 points; a Lambda of d elements, too small for the d parts
    # of the partition search that the fibers replaced, gives one point
    [(3, random_dissociated(20, 20, seed=1)), (4, random_dissociated(18, 16, seed=2)),
     (4, random_dissociated(12, 4, seed=4))],
    ids=["d3-20", "d4-16", "d4-4"],
)
def test_extract_d_covers_a_full_sumset_whole(d, lam):
    # every point lies in the fiber of each (d-2)-subset of its decomposition;
    # the partition search stopped at the aligned share (546 of 1140 at d = 3)
    q = distinct_sumset_power(lam, d)
    rects, covered, *_ = extract_rectangles_d(q, lam, d, InverseParams(seed=1))
    _assert_disjoint_cover(rects, covered, q, d)
    assert covered == len(q)


@pytest.mark.parametrize("budget, refused", [(100, True), (168, False)])
def test_extract_d3_caps_the_fibers(monkeypatch, budget, refused):
    # the full 3-fold sumset of 8 elements: a table of C(8, 3) = 56 sums and
    # fibers of 3 * 56 = 168 edges; a budget of 100 passes the table and
    # refuses the fibers before any is built
    lam = random_dissociated(12, 8, seed=3)
    q = distinct_sumset_power(lam, 3)
    monkeypatch.setattr(inverse, "SUBSET_TABLE_BUDGET", budget)
    if refused:
        with pytest.raises(BudgetError, match="168 edges exceed 100"):
            extract_rectangles_d(q, lam, 3, InverseParams(seed=1))
    else:
        rects, covered, *_ = extract_rectangles_d(q, lam, 3, InverseParams(seed=1))
        _assert_disjoint_cover(rects, covered, q, 3)


@pytest.mark.parametrize("big_k, computed", [(Fraction(1), False), (Fraction(1, 10**6), True)])
def test_extract_d3_energy_only_where_the_floor_leaves_the_flag_open(monkeypatch, big_k, computed):
    # T_p(X) >= |X|^p decides the excess flag whenever m_cor = 2^13 (8K)^(d-1)
    # exceeds p^2: at the default K = 1 no fiber's T_p is computed; at
    # K = 10^-6, m_cor is about 5e-7, every fiber's T_p is computed, and
    # T_p <= |X|^(2p-1) leaves each flag false
    calls = []

    def counting(a, k):
        calls.append(len(a))
        return additive_energy(a, k)

    monkeypatch.setattr(inverse, "additive_energy", counting)
    q, lam = _plant_prefixed(3, 2, 3, 16, seed=5)
    params = InverseParams(p=2, seed=5, big_k=big_k)
    rects, covered, _, trace, _ = extract_rectangles_d(q, lam, 3, params)
    _assert_disjoint_cover(rects, covered, q, 3)
    prefixes = [t for t in trace if t["stage"] == "prefix"]
    assert prefixes and bool(calls) == computed
    assert all(t["excess"] is not computed for t in prefixes)
    if computed:
        sizes = sorted(calls)
        for t in prefixes:
            sizes.remove(t["points"])


def test_extract_deterministic_under_seed():
    lam, _, _, planted, noise = plant_instance(2, 4, 4, Fraction(1, 10), seed=33)
    q = planted.union(noise)
    a = extract_rectangles_pair(q, lam, InverseParams(seed=12))
    b = extract_rectangles_pair(q, lam, InverseParams(seed=12))
    assert a == b


def _split_matches_oracle(lam, pairs, seed):
    """_best_split against the frozenset scorer over the same halves: every
    balanced split in `combinations` order, or the same SPLIT_TRIALS seeded
    draws (the split draws indices, the oracle elements)."""
    index = {x: i for i, x in enumerate(lam.elems)}
    adj = [0] * len(lam)
    for x, y in pairs:
        adj[index[x]] |= 1 << index[y]
        adj[index[y]] |= 1 << index[x]
    mask, crossing, exhaustive = _best_split(adj, len(pairs), random.Random(seed))
    a = -(-len(lam) // 2)
    rng = random.Random(seed)
    want_exhaustive = comb(len(lam), a) <= inverse.SPLIT_EXHAUSTIVE_LIMIT
    if want_exhaustive:
        halves = itertools.combinations(lam.elems, a)
    else:
        halves = (rng.sample(lam.elems, a) for _ in range(inverse.SPLIT_TRIALS))
    score, first = best_balanced_split(pairs, halves)
    assert (mask, crossing, exhaustive) == (as_mask(index[x] for x in first), score, want_exhaustive)
    return tuple(x for i, x in enumerate(lam.elems) if mask >> i & 1)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_best_split_matches_frozenset_oracle(data):
    n = data.draw(st.integers(min_value=1, max_value=14))
    words = st.integers(min_value=1, max_value=(1 << 16) - 1)
    elems = data.draw(st.sets(words, min_size=n, max_size=n))
    lam = F2Set(16, tuple(sorted(elems)))
    all_pairs = list(itertools.combinations(lam.elems, 2))
    keep = data.draw(st.integers(min_value=0, max_value=(1 << len(all_pairs)) - 1))
    pairs = [pq for i, pq in enumerate(all_pairs) if keep >> i & 1]
    _split_matches_oracle(lam, pairs, data.draw(st.integers(0, 3)))


@pytest.mark.parametrize("n", range(1, 18))
def test_best_split_empty_and_complete_q(n, monkeypatch):
    # empty Q: every split scores 0; complete pair graph: every split ties, so
    # the first half (1 << a) - 1 wins; the limit keeps n = 17 exhaustive too
    lam = random_dissociated(max(16, n), n, seed=n)
    monkeypatch.setattr(inverse, "SPLIT_EXHAUSTIVE_LIMIT", max(12870, comb(n, -(-n // 2))))
    _split_matches_oracle(lam, [], 0)
    lam1 = _split_matches_oracle(lam, list(itertools.combinations(lam.elems, 2)), 0)
    assert lam1 == lam.elems[:-(-n // 2)]


def _planted_pairs(lam, h, side, seed):
    """h side x side rectangles of pairs on a shuffled Lambda plus 1/10 noise
    pairs, laid out like the planted instances of the extract benchmark:
    private row and column blocks, or one shared column block when Lambda is
    too small for private ones."""
    rng = random.Random(seed)
    order = rng.sample(lam.elems, len(lam))
    if h * 2 * side <= len(lam):
        cut = [order[j * side:(j + 1) * side] for j in range(2 * h)]
        blocks = [(cut[2 * i], cut[2 * i + 1]) for i in range(h)]
    else:
        shared = order[h * side:(h + 1) * side]
        blocks = [(order[i * side:(i + 1) * side], shared) for i in range(h)]
    planted = sorted({(min(r, c), max(r, c)) for rows, cols in blocks for r in rows for c in cols})
    free = sorted(set(itertools.combinations(lam.elems, 2)) - set(planted))
    return planted + rng.sample(free, len(planted) // 10)


@pytest.mark.parametrize("h", (1, 2, 3))
@pytest.mark.parametrize("n", (15, 16, 17))
def test_best_split_planted_at_workload_size(n, h, monkeypatch):
    # |Lambda| = 16 is the extract benchmark's size; the limit makes n = 17
    # exhaustive too, and the even n = 16 walks only the half holding index 0
    lam = random_dissociated(18, n, seed=n)
    monkeypatch.setattr(inverse, "SPLIT_EXHAUSTIVE_LIMIT", comb(n, -(-n // 2)))
    _split_matches_oracle(lam, _planted_pairs(lam, h, 4, h), 0)


@pytest.mark.parametrize("n", (4, 7, 10, 13, 14))
def test_best_split_random_branch_replays_draws(n, monkeypatch):
    lam = random_dissociated(16, n, seed=n)
    rng = random.Random(n)
    pairs = rng.sample(list(itertools.combinations(lam.elems, 2)), n + 2)
    monkeypatch.setattr(inverse, "SPLIT_EXHAUSTIVE_LIMIT", 5)
    for seed in range(3):
        _split_matches_oracle(lam, pairs, seed)
