"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS
lines live).  Every tolerance is pinned here; nothing defers to later
calibration.  Expected values marked as frozen were computed from the
definition-level oracles in oracles.py.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import f2lab
from f2lab.bench import (
    check_diss_energy,
    check_full_sumset_lower,
    check_sophisticated,
    check_spectrum_energy_lower,
    check_sumset_energy,
    run_family,
    verify_majority,
    weight1_binomial_value,
)
from f2lab.cli import canonical_results, execute, replay
from f2lab.core import F2Set, distinct_sumset_power, serialize_set
from f2lab.dissociation import random_dissociated
from f2lab.energy import energy_bruteforce, energy_function, energy_spectral
from f2lab.inverse import (
    InverseParams,
    extract_rectangles_pair,
    plant_instance,
    refine_connected,
)
from f2lab.permanent import CombMatrix, fk_zero_test, permanent, reduced_permanent_check
from f2lab.wht import IntFunction, wht

from oracles import energy_tuples, naive_wht

SRC_DIR = os.path.dirname(os.path.dirname(f2lab.__file__))
# runs a JSON list of configurations read from stdin in a fresh interpreter
REPLAY_CHILD = (
    "import json, sys\n"
    "from f2lab.cli import canonical_results, execute\n"
    "configs = json.load(sys.stdin)\n"
    "print(json.dumps([canonical_results(execute(c)[0]['results']) for c in configs]))\n"
)

def report(number, name, start, budget, extra=""):
    elapsed = time.perf_counter() - start
    line = f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s{', ' + extra if extra else ''})"
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_criterion_01_transform_correctness():
    """Fast WHT vs the naive O(N^2) definition, 200+ cases, Parseval exact."""
    start = time.perf_counter()
    rng = random.Random(20260801)
    cases = 0
    for dim in range(1, 9):
        for _ in range(26):
            n = 1 << dim
            values = tuple(rng.randint(-99, 99) for _ in range(n))
            fast = wht(IntFunction(dim, values)).values
            assert list(fast) == naive_wht(values), f"mismatch at n={dim}"
            assert sum(v * v for v in fast) == n * sum(v * v for v in values)
            cases += 1
    assert cases >= 200
    report(1, "transform-correctness", start, 10, f"{cases} cases")


def test_criterion_02_energy_oracle_equivalence():
    """brute = spectral = T_k(indicator) exhaustively and at random."""
    start = time.perf_counter()
    # frozen values from the tuple-enumeration oracle
    basis3 = F2Set(4, (1, 2, 4))
    assert energy_tuples(basis3.elems, 2) == 21
    subgroup2 = F2Set(4, (0, 5))
    assert energy_tuples(subgroup2.elems, 2) == 8
    mismatches = 0
    checked = 0
    for size in range(0, 6):
        for combo in itertools.combinations(range(16), size):
            a = F2Set(4, combo)
            for k in (2, 3):
                vals = {
                    energy_bruteforce(a, k),
                    energy_spectral(a, k),
                    energy_function(IntFunction.indicator(a), k),
                }
                checked += 1
                if len(vals) != 1:
                    mismatches += 1
    assert energy_bruteforce(basis3, 2) == 21
    assert energy_spectral(subgroup2, 2) == 8
    rng = random.Random(77)
    for _ in range(500):
        dim = rng.randint(1, 12)
        n = 1 << dim
        size = rng.randint(0, min(12, n))
        a = F2Set.from_bits(dim, rng.sample(range(n), size))
        k = rng.randint(2, 3)
        vals = {
            energy_bruteforce(a, k),
            energy_spectral(a, k),
            energy_function(IntFunction.indicator(a), k),
        }
        checked += 1
        if len(vals) != 1:
            mismatches += 1
    assert mismatches == 0
    report(2, "energy-oracle-equivalence", start, 60, f"{checked} comparisons")


def test_criterion_03_dissociated_energy_bounds():
    """Zero violations of the three dissociated-set energy bounds."""
    start = time.perf_counter()
    rng = random.Random(91)
    # T_p(Lambda) <= p^p |Lambda|^p
    for _ in range(300):
        n = rng.randint(6, 12)
        m = rng.randint(2, min(10, n))
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        rep = check_diss_energy(lam, rng.randint(2, 3))
        assert rep.status == "holds", rep
    # T_p(Q) <= 2^(8dp) p^(dp) |Q|^p for random Q inside the d-fold sumset
    for _ in range(300):
        n = rng.randint(8, 12)
        d = rng.randint(1, 3)
        m = rng.randint(max(2, d), min(10, n))
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        ambient = distinct_sumset_power(lam, d)
        q = F2Set.from_bits(n, rng.sample(ambient.elems, rng.randint(1, len(ambient))))
        rep = check_sumset_energy(q, lam, d, rng.randint(2, 3))
        assert rep.status == "holds", rep
    # full d-fold sumset lower bound, including the exact factorial
    # intermediate C(|L1|, pd) ((pd)!/(d!)^p)^2 (checked inside)
    feasible = [(1, 2), (1, 3), (2, 2)]  # 2dp <= 10 fits |Lambda| <= 10
    for i in range(300):
        d, p = feasible[i % len(feasible)]
        m = rng.randint(2 * d * p, 10)
        n = rng.randint(m, m + 3)
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        rep = check_full_sumset_lower(lam, d, p)
        assert rep.status == "holds", rep
    report(3, "dissociated-energy-bounds", start, 300, "3 x 300 instances")


def test_criterion_04_spectrum_energy_lower():
    """Appendix lower bound on 1000 seeded instances plus the subspace
    equality family at alpha = delta."""
    start = time.perf_counter()
    reports = run_family("maing", 1000, seed=20260804)
    bad = [r for r in reports if r.status != "holds"]
    assert not bad, bad[:3]
    assert len(reports) >= 1000
    # subspace equality: A = H, B = annihilator, alpha = delta
    for dim, free in ((4, 2), (6, 4), (8, 5)):
        h = F2Set(dim, tuple(range(1 << free)))
        ann = F2Set.from_bits(
            dim, (r << free for r in range(1 << (dim - free)))
        )
        for k in (2, 3):
            rep = check_spectrum_energy_lower(h, ann, k, Fraction(1, 1 << (dim - free)))
            assert rep.status == "holds"
            assert Fraction(rep.lhs) == rep.rhs, "equality expected for subspaces"
    report(4, "spectrum-energy-lower", start, 300, f"{len(reports)} instances")


def test_criterion_05_majority_construction():
    """Binomial formula vs brute spectrum for every nprime in 3..16."""
    start = time.perf_counter()
    delta = Fraction(1, 64)
    for nprime in range(3, 17):
        rows = verify_majority(nprime + 4, delta, d=1)
        assert rows[0].instance.startswith(f"n={nprime + 4} k=4 n'={nprime} ")
        assert rows[0].theorem == "majority-weight1-formula"
        assert rows[0].lhs == weight1_binomial_value(nprime)
        for rep in rows:
            assert rep.status == "holds", (nprime, rep.theorem, rep.detail)
    frozen = {r.theorem: r for r in verify_majority(8, delta)}  # nprime = 4
    assert frozen["majority-size"].lhs == 11
    assert frozen["majority-weight1-formula"].lhs == 3
    report(5, "majority-construction", start, 60, "nprime 3..16")


def test_criterion_06_permanent_frobenius_koenig():
    """fk_zero_test vs the exact permanent: exhaustive 4x4 and random 8x8;
    reduced-permanent lemma never falsified on its exhaustive family."""
    start = time.perf_counter()
    mismatches = 0
    for bits in range(1 << 16):
        rows = tuple(
            tuple((bits >> (4 * i + j)) & 1 for j in range(4)) for i in range(4)
        )
        mat = CombMatrix(rows)
        if (fk_zero_test(mat)[0] is None) != (permanent(mat) == 0):
            mismatches += 1
    assert mismatches == 0
    rng = random.Random(6)
    for _ in range(10**4):
        rows = tuple(tuple(rng.randint(0, 1) for _ in range(8)) for _ in range(8))
        mat = CombMatrix(rows)
        if (fk_zero_test(mat)[0] is None) != (permanent(mat) == 0):
            mismatches += 1
    assert mismatches == 0
    lemma_checked = 0
    for p in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for flat in itertools.product((0, 1, 2), repeat=p * r):
                if sum(flat) != 2 * p:
                    continue
                rows = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(p))
                failures, reduced, positive = reduced_permanent_check(CombMatrix(rows))
                if not failures:
                    lemma_checked += 1
                    assert positive, rows
                    if reduced is not None:
                        assert permanent(reduced) > 0
    assert lemma_checked > 100
    report(6, "permanent-frobenius-koenig", start, 300, f"lemma family {lemma_checked}")


def test_criterion_07_sophisticated_bound():
    """Z <= permanent-sum bound plus the squared corollary, 200 instances."""
    start = time.perf_counter()
    rng = random.Random(7)
    for i in range(200):
        p = 2 + (i % 2)
        n = rng.randint(7, 10)
        m = rng.randint(2, 6)
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        es = []
        for _ in range(2 * p):
            size = rng.randint(1, m)
            es.append(F2Set.from_bits(n, rng.sample(lam.elems, size)))
        idx = list(range(2 * p))
        rng.shuffle(idx)
        classes = []
        while idx:
            take = rng.randint(1, len(idx))
            classes.append(tuple(idx[:take]))
            idx = idx[take:]
        rep, corollary = check_sophisticated(es, classes, lam)
        assert rep.status == "holds", (i, rep.lhs, rep.rhs)
        assert corollary.status == "holds", i
    report(7, "sophisticated-bound", start, 300, "200 instances")


def test_criterion_08_connectedness_certification():
    """Certification for every Q with 3 <= |Q| <= 12 inside the 2-fold
    sumset of a 6-element dissociated set; fired steps must raise D_k
    exactly and respect the step-count bound (enforced in-module)."""
    start = time.perf_counter()
    lam = F2Set(6, (1, 2, 4, 8, 16, 32))
    ground = distinct_sumset_power(lam, 2)
    assert len(ground) == 15
    total = 0
    fired = 0
    for size in range(3, 13):
        for combo in itertools.combinations(ground.elems, size):
            _, steps, certified = refine_connected(F2Set(6, combo), 2)
            assert certified, combo
            total += 1
            fired += len(steps)
            for size_before, removed, energy_before, energy_after in steps:
                after_size = size_before - removed
                assert (
                    energy_after * size_before**2 > energy_before * after_size**2
                ), "D_k must strictly increase on a fired step"
    assert total == 32526
    report(8, "connectedness-certification", start, 600, f"{total} sets, {fired} fired")


def test_criterion_09_inverse_pipeline_recovery():
    """100 seeded planted instances: covering >= 0.9 of the planted mass on
    at least 90, with containment and disjointness at zero tolerance."""
    start = time.perf_counter()
    good = 0
    for i in range(100):
        h = i % 3 + 1
        lam, _, _, planted_set, noise = plant_instance(h, 4, 4, Fraction(1, 10), seed=1000 + i)
        q = planted_set.union(noise)
        rects = extract_rectangles_pair(q, lam, InverseParams(seed=i))[0]
        taken: set = set()
        q_all = set(q.elems)
        for rect in rects:
            pts = rect.points()
            assert pts <= q_all, "containment is a hard invariant"
            assert not (pts & taken), "pairwise disjointness is a hard invariant"
            taken |= pts
        planted = set(planted_set.elems)
        if len(taken & planted) * 10 >= 9 * len(planted):
            good += 1
    assert good >= 90, f"only {good} of 100 instances reached 0.9 coverage"
    report(9, "inverse-pipeline-recovery", start, 600, f"{good}/100 recovered")


def test_criterion_10_replay_determinism():
    """Byte-identical numerical fields across two processes with different
    hash seeds, and under replay."""
    start = time.perf_counter()
    rng = random.Random(10)
    big_set = F2Set.from_bits(12, rng.sample(range(1 << 12), 700))
    lam, _, _, planted, noise = plant_instance(2, 4, 4, Fraction(1, 10), seed=42)
    configs = [
        {"command": "spectrum", "set_text": serialize_set(big_set), "alpha": "1/16"},
        {"command": "bench", "theorem": "diss", "count": 8, "seed": 3},
        {
            "command": "extract",
            "q_text": serialize_set(planted.union(noise)),
            "lambda_text": serialize_set(lam),
            "d": 2,
            "p": 2,
            "seed": 11,
        },
        {"command": "plant", "h": 2, "lsize": 3, "lpsize": 3, "noise": "1/10", "seed": 5},
    ]
    in_process = [canonical_results(execute(cfg)[0]["results"]) for cfg in configs]
    hashseed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, "-c", REPLAY_CHILD],
        input=json.dumps(configs),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC_DIR),
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == in_process, "a second process changed numerical output"
    for cfg in configs:
        recorded, code = execute(cfg)
        assert code == 0
        results, rcode = replay(recorded)
        assert rcode == 0 and results["match"] is True
    report(10, "replay-determinism", start, 120, f"{len(configs)} configs x 2 processes")
