import itertools
import random
import sys

import pytest

from f2lab.core import F2Set
from f2lab.dissociation import (
    FamilySpec,
    gf2_rank,
    in_family,
    is_dissociated,
    random_dissociated,
)

from oracles import subset_xor_hits


def zero_spec(k, dim):
    return FamilySpec.zero(k, dim)


def test_standard_basis_dissociated():
    for n in (1, 4, 10):
        basis = F2Set(n, tuple(1 << i for i in range(n)))
        assert is_dissociated(basis)


def test_visible_dependence():
    assert not is_dissociated(F2Set(3, (1, 2, 3)))


def test_pigeonhole_rank():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 8)
        elems = rng.sample(range(1, 1 << n), min(n + 1, (1 << n) - 1))
        if len(elems) == n + 1:
            assert not is_dissociated(F2Set.from_bits(n, elems))


def test_gf2_rank_matches_known():
    assert gf2_rank([1, 2, 4]) == 3
    assert gf2_rank([1, 2, 3]) == 2
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0


def test_in_family_basis_always_true():
    basis = F2Set(5, (1, 2, 4, 8, 16))
    for k in (1, 3, 5):
        assert in_family(basis, zero_spec(k, 5)).status == "true"


def test_in_family_weight_boundary():
    # {e1, e2, e3, e1+e2+e3}: the only nonempty relation has weight 4
    l = F2Set(4, (1, 2, 4, 7))
    assert in_family(l, zero_spec(3, 4)).status == "true"
    check = in_family(l, zero_spec(4, 4))
    assert check.status == "false"
    assert check.witness == (1, 2, 4, 7)


def test_in_family_single_element_in_forbidden():
    r = F2Set(4, (0, 5))
    l = F2Set(4, (2, 5))
    check = in_family(l, FamilySpec(1, r))
    assert check.status == "false"
    assert check.witness == (5,)


def test_in_family_matches_exhaustive_oracle():
    rng = random.Random(42)
    for _ in range(60):
        dim = rng.randint(2, 6)
        size = rng.randint(1, min(7, (1 << dim) - 1))
        elems = rng.sample(range(1, 1 << dim), size)
        k = rng.randint(1, size)
        r_extra = rng.sample(range(1 << dim), rng.randint(0, 2))
        r = F2Set.from_bits(dim, [0] + r_extra)
        l = F2Set.from_bits(dim, elems)
        got = in_family(l, FamilySpec(k, r))
        hits = subset_xor_hits(l.elems, k, set(r.elems))
        assert got.status == ("false" if hits else "true")
        if hits:
            assert got.witness in [tuple(sorted(h)) for h in hits]


def test_in_family_equals_is_dissociated_small():
    # cross-check of the two algorithms for |L| <= 12 (random families)
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(3, 12)
        size = rng.randint(1, min(12, (1 << dim) - 1))
        l = F2Set.from_bits(dim, rng.sample(range(1, 1 << dim), size))
        spec = zero_spec(len(l), dim)
        assert (in_family(l, spec).status == "true") == is_dissociated(l)


def test_in_family_monotone_in_k():
    rng = random.Random(27)
    for _ in range(30):
        dim = rng.randint(2, 6)
        size = rng.randint(2, min(6, (1 << dim) - 1))
        l = F2Set.from_bits(dim, rng.sample(range(1, 1 << dim), size))
        statuses = [in_family(l, zero_spec(k, dim)).status for k in range(1, size + 1)]
        # once false, false for every larger weight cap
        seen_false = False
        for s in statuses:
            if seen_false:
                assert s == "false"
            seen_false = seen_false or s == "false"


def test_hereditary():
    rng = random.Random(13)
    for _ in range(20):
        dim = rng.randint(3, 8)
        size = rng.randint(2, min(dim, 6))
        l = random_dissociated(dim, size, seed=rng.randint(0, 10**6))
        assert is_dissociated(l)
        for sub_size in range(1, size):
            for combo in itertools.combinations(l.elems, sub_size):
                assert is_dissociated(F2Set(dim, combo))


def test_in_family_budget_undecided(monkeypatch):
    # f2lab.in_family names the function, so reach the module through sys.modules
    monkeypatch.setattr(sys.modules["f2lab.dissociation"], "DEFAULT_WORK_BUDGET", 1000)
    l = F2Set(20, tuple(range(1, 40)))
    check = in_family(l, zero_spec(12, 20))
    assert check.status == "undecided"
    assert check.work > 1000


def test_random_dissociated_deterministic_and_valid():
    a = random_dissociated(10, 10, seed=5)
    b = random_dissociated(10, 10, seed=5)
    assert a.elems == b.elems
    assert is_dissociated(a)
    assert gf2_rank(a.elems) == 10


def test_random_dissociated_too_many():
    with pytest.raises(ValueError):
        random_dissociated(4, 5, seed=0)


def test_in_family_rank_shortcut_keeps_status_witness_and_work(monkeypatch):
    # R = {0}: an independent L is "true" from its rank; the walk, run with
    # the rank test disabled, must give the same status, witness and work
    module = sys.modules["f2lab.dissociation"]
    rng = random.Random(32)
    cases = []
    for _ in range(60):
        dim = rng.randint(3, 10)
        size = rng.randint(1, min(dim + 3, 12))
        if rng.random() < 0.5:
            l = random_dissociated(dim, min(size, dim), seed=rng.randrange(1 << 30))
        else:
            l = F2Set.from_bits(dim, rng.sample(range(1, 1 << dim), size))
        cases.append((l, rng.randint(1, len(l))))
    got = [in_family(l, zero_spec(k, l.dim)) for l, k in cases]
    with monkeypatch.context() as m:
        m.setattr(module, "subset_sums", None)  # an independent L never walks
        for l, k in cases:
            if is_dissociated(l):
                assert in_family(l, zero_spec(k, l.dim)).status == "true"
    monkeypatch.setattr(module, "gf2_rank", lambda vectors: -1)
    walked = [in_family(l, zero_spec(k, l.dim)) for l, k in cases]
    assert {c.status for c in got} == {"true", "false"}
    for (l, k), c, w in zip(cases, got, walked):
        hits = subset_xor_hits(l.elems, k, {0})
        assert c.status == ("false" if hits else "true")
        assert (c.status, c.witness, c.work) == (w.status, w.witness, w.work)


def test_in_family_rank_shortcut_comes_after_the_budget(monkeypatch):
    monkeypatch.setattr(sys.modules["f2lab.dissociation"], "DEFAULT_WORK_BUDGET", 1000)
    basis = F2Set(20, tuple(1 << i for i in range(20)))
    check = in_family(basis, zero_spec(12, 20))
    assert (check.status, check.witness) == ("undecided", None)
    assert check.work > 1000
