"""One checker per theorem-level inequality, plus explicit constructions.

Every checker machine-verifies its own preconditions (dissociativity
status, containment in the large spectrum, ...) and refuses to answer
"holds" otherwise.  Logarithms and square roots on the bounding side are
handled by exact rational brackets, rounded toward soundness; log means
log base 2 throughout.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from .core import F2Set, distinct_sumset_power
from .dissociation import FamilySpec, in_family, is_dissociated, random_dissociated
from .energy import _spectral_moment, additive_energy
from .exact import certify_ladder, floor_log2, log2_bounds
from .wht import IntFunction, large_spectrum, large_spectrum_from_table, spectrum_of_set, wht


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check on one instance.

    `orientation` is "le" when the claim is lhs <= rhs and "ge" when the
    claim is lhs >= rhs.
    """

    theorem: str
    instance: str
    lhs: object
    rhs: object
    orientation: str
    status: str  # holds | violated | undecided | precondition-failed
    slack: Optional[float]
    runtime: float
    detail: str = ""


def _finish(
    theorem: str,
    instance: str,
    lhs,
    rhs,
    orientation: str,
    start: float,
    detail: str = "",
    status: Optional[str] = None,
) -> BoundReport:
    """The report of one check; without a given status, lhs and rhs are
    compared exactly in the stated orientation."""
    if status is None:
        status = "holds" if (lhs <= rhs if orientation == "le" else lhs >= rhs) else "violated"
    slack = None
    try:
        lf, rf = float(lhs), float(rhs)
        if orientation == "le" and lf > 0:
            slack = rf / lf
        elif orientation == "ge" and rf > 0:
            slack = lf / rf
    except (TypeError, OverflowError, ZeroDivisionError):
        slack = None
    return BoundReport(
        theorem, instance, lhs, rhs, orientation, status, slack, time.perf_counter() - start, detail
    )


def _precondition_failed(theorem, instance, start, why) -> BoundReport:
    return _finish(theorem, instance, None, None, "le", start, why, "precondition-failed")


def _family_refusal(theorem, instance, start, lam: F2Set, weight: int) -> Optional[BoundReport]:
    """None when Lambda is certified to lie in the weight-`weight` family
    (capped at |Lambda|), else the precondition-failed report."""
    cap = min(weight, max(1, len(lam)))
    fam = in_family(lam, FamilySpec.zero(cap, lam.dim)).status
    if fam == "true":
        return None
    return _precondition_failed(theorem, instance, start, f"family status {fam}")


def check_chang(a: F2Set, alpha: Fraction, lam: F2Set) -> BoundReport:
    """Dissociated subsets of the large spectrum have size at most
    2 (delta/alpha)^2 log(1/delta)."""
    start = time.perf_counter()
    name, inst = "chang", f"n={a.dim} |A|={len(a)} alpha={alpha} |L|={len(lam)}"
    if not is_dissociated(lam):
        return _precondition_failed(name, inst, start, "Lambda not dissociated")
    spectrum = large_spectrum(a, alpha)
    if not lam.issubset(spectrum):
        return _precondition_failed(name, inst, start, "Lambda not inside R_alpha")
    n = 1 << a.dim
    delta = Fraction(len(a), n)
    factor = 2 * (delta / alpha) ** 2
    if delta == 1:
        # log(1/delta) = 0: bound trivial, only an empty Lambda passes
        return _finish(name, inst, len(lam), 0, "le", start)

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        lo, hi = log2_bounds(1 / delta, prec)
        return factor * lo, factor * hi

    status, rhs = certify_ladder(Fraction(len(lam)), bracket_at)
    return _finish(name, inst, len(lam), rhs[0], "le", start, status=status)


def check_parseval_spectrum(a: F2Set, alpha: Fraction) -> BoundReport:
    """|R_alpha| <= delta / alpha^2, the Parseval baseline."""
    start = time.perf_counter()
    n = 1 << a.dim
    delta = Fraction(len(a), n)
    spectrum = large_spectrum(a, alpha)
    inst = f"n={a.dim} |A|={len(a)} alpha={alpha}"
    return _finish("parseval-spectrum", inst, len(spectrum), delta / alpha**2, "le", start)


def check_diss_energy(lam: F2Set, p: int) -> BoundReport:
    """T_p(Lambda) <= p^p |Lambda|^p for Lambda in the weight-2p family."""
    start = time.perf_counter()
    name, inst = "diss-energy", f"n={lam.dim} |L|={len(lam)} p={p}"
    if refused := _family_refusal(name, inst, start, lam, 2 * p):
        return refused
    return _finish(name, inst, additive_energy(lam, p), p**p * len(lam) ** p, "le", start)


def check_rudin_even(lam: F2Set, coeffs: Sequence[int], p: int) -> BoundReport:
    """Even-moment Rudin form: the 2p-th moment of sum a_l (-1)^(l.x)
    is at most p^p (sum a_l^2)^p, for dissociated support."""
    start = time.perf_counter()
    name = "rudin-even"
    inst = f"n={lam.dim} |L|={len(lam)} p={p}"
    if len(coeffs) != len(lam):
        raise ValueError("need one coefficient per support element")
    if refused := _family_refusal(name, inst, start, lam, 2 * p):
        return refused
    g = wht(IntFunction.from_points(lam.dim, zip(lam.elems, coeffs)))
    moment = _spectral_moment(g, p)
    weight = sum(a * a for a in coeffs)
    # smallest feasible constant in the C^(2p) (2p)^p (sum a^2)^p shape
    detail = ""
    if weight and moment:
        c_min = (moment / ((2 * p) ** p * weight**p)) ** (1 / (2 * p))
        detail = f"c_min={c_min:.6f}"
    return _finish(name, inst, moment, p**p * weight**p, "le", start, detail)


def check_sumset_energy(q: F2Set, lam: F2Set, d: int, p: int) -> BoundReport:
    """T_p(Q) <= 2^(8dp) p^(dp) |Q|^p for Q inside the d-fold distinct sumset."""
    start = time.perf_counter()
    name = "sumset-energy"
    inst = f"n={lam.dim} |L|={len(lam)} d={d} p={p} |Q|={len(q)}"
    if refused := _family_refusal(name, inst, start, lam, 2 * d * p):
        return refused
    ambient = distinct_sumset_power(lam, d)
    if not q.issubset(ambient):
        return _precondition_failed(name, inst, start, "Q outside the d-fold sumset")
    detail = "" if len(lam) >= 4 * d * d else "|Lambda| < 4d^2 (outside stated range)"
    lhs = additive_energy(q, p)
    rhs = 2 ** (8 * d * p) * p ** (d * p) * len(q) ** p
    return _finish(name, inst, lhs, rhs, "le", start, detail)


def check_full_sumset_lower(lam1: F2Set, d: int, p: int) -> BoundReport:
    """T_p of the full d-fold distinct sumset is at least
    2^(-3pd) p^(pd) |Q|^p, plus the exact factorial intermediate bound."""
    start = time.perf_counter()
    name = "full-sumset-lower"
    inst = f"n={lam1.dim} |L1|={len(lam1)} d={d} p={p}"
    if refused := _family_refusal(name, inst, start, lam1, 2 * d):
        return refused
    if 2 * d * p > len(lam1):
        return _precondition_failed(name, inst, start, "p > |Lambda_1|/(2d)")
    q = distinct_sumset_power(lam1, d)
    if len(q) != comb(len(lam1), d):
        return _precondition_failed(name, inst, start, "sumset collision (family bug)")
    lhs = additive_energy(q, p)
    ways = factorial(p * d) // factorial(d) ** p
    intermediate = comb(len(lam1), p * d) * ways * ways
    rhs = Fraction(p ** (p * d) * len(q) ** p, 2 ** (3 * p * d))
    if lhs < intermediate:
        return _finish(name, inst, lhs, intermediate, "ge", start, "intermediate bound failed")
    return _finish(name, inst, lhs, rhs, "ge", start, f"intermediate={intermediate}")


def check_spectrum_energy_lower(a: F2Set, b: F2Set, k: int, alpha: Fraction) -> BoundReport:
    """T_k(B) >= delta^(1-2k) alpha^(2k) |B|^(2k) for B inside R_alpha(A)."""
    start = time.perf_counter()
    name = "spectrum-energy-lower"
    inst = f"n={a.dim} |A|={len(a)} |B|={len(b)} k={k} alpha={alpha}"
    spectrum = large_spectrum(a, alpha)
    if not b.issubset(spectrum):
        return _precondition_failed(name, inst, start, "B not inside R_alpha")
    n = 1 << a.dim
    delta = Fraction(len(a), n)
    rhs = delta * (alpha / delta) ** (2 * k) * len(b) ** (2 * k)
    return _finish(name, inst, additive_energy(b, k), rhs, "ge", start)


def check_bourgain_intersection(a: F2Set, lam: F2Set, alpha: Fraction, d: int) -> BoundReport:
    """|d-fold sumset of Lambda meet R_alpha| against
    (delta/alpha)^2 (2^12 log(1/delta) / d)^d."""
    start = time.perf_counter()
    name = "bourgain-intersection"
    inst = f"n={a.dim} |A|={len(a)} |L|={len(lam)} d={d} alpha={alpha}"
    n = 1 << a.dim
    delta = Fraction(len(a), n)
    if delta > Fraction(1, 4):
        return _precondition_failed(name, inst, start, "delta > 1/4")
    if 2 ** (4 * d) * delta > 1:
        return _precondition_failed(name, inst, start, "d > log(1/delta)/4")
    if refused := _family_refusal(name, inst, start, lam, 2 * floor_log2(1 / delta)):
        return refused
    sumset = distinct_sumset_power(lam, d)
    spectrum = large_spectrum(a, alpha)
    lhs = len(sumset.intersection(spectrum))
    factor = (delta / alpha) ** 2

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        lo, hi = log2_bounds(1 / delta, prec)
        return factor * (lo * 2**12 / d) ** d, factor * (hi * 2**12 / d) ** d

    status, rhs = certify_ladder(Fraction(lhs), bracket_at)
    return _finish(name, inst, lhs, rhs[0], "le", start, status=status)


# ---------------------------------------------------------------------------
# the majority-set lower-bound construction


@dataclass(frozen=True)
class MajorityInstance:
    """Majority-weight subset of a codimension-k coordinate subspace.

    The set lives in F_2^n, is supported on the first nprime = n - k
    coordinates, and consists of the vectors with at least ceil(nprime/2)
    ones there.  alpha_paper is the reference threshold 2^-12 delta/sqrt(n),
    carried as the exact pair (alpha^2, certified) to avoid square roots;
    alpha_used is the exact rational threshold |W_1|/N actually certified.
    """

    n: int
    k: int
    nprime: int
    delta: Fraction
    inner: F2Set
    weight_values: tuple[int, ...]  # inner spectrum value at each weight 0..nprime
    alpha_sq_reference: Fraction
    alpha_used: Fraction

    @property
    def inner_size(self) -> int:
        """|A|: the embedding into F_2^n leaves the cardinality unchanged."""
        return len(self.inner)

    def is_large(self, w: int, alpha_sq: Fraction) -> bool:
        """Whether inner weight-w frequencies satisfy |A_hat|^2 >= alpha^2 N^2."""
        v = self.weight_values[w]
        return v * v >= alpha_sq * (1 << self.n) ** 2

    def spectrum_count(self, alpha_sq: Fraction) -> int:
        """|R_alpha(A)| computed through the inner spectrum: the full
        transform satisfies A_hat(r) = A'_hat(r_inner), so each inner
        frequency of large modulus contributes 2^k shifts."""
        ws = range(self.nprime + 1)
        return sum(comb(self.nprime, w) for w in ws if self.is_large(w, alpha_sq)) << self.k

    def sumset_spectrum_count(self, d: int, alpha_sq: Fraction) -> int:
        """|d-fold sumset of the standard basis meet R_alpha|: weight-d
        vectors split into inner weight w and outer weight d - w."""
        ws = range(min(d, self.nprime) + 1)
        return sum(
            comb(self.nprime, w) * comb(self.k, d - w) for w in ws if self.is_large(w, alpha_sq)
        )


def weight1_binomial_value(nprime: int) -> int:
    """The closed-form inner spectrum value at weight-1 frequencies:
    sum over s >= ceil(nprime/2) of ((2s - nprime)/nprime) C(nprime, s),
    an exact integer because each term is divisible by nprime."""
    total = 0
    for s in range((nprime + 1) // 2, nprime + 1):
        total += (2 * s - nprime) * comb(nprime, s)
    q, r = divmod(total, nprime)
    if r:
        raise ArithmeticError("binomial sum unexpectedly not divisible")
    return q


def build_majority(n: int, delta: Fraction) -> MajorityInstance:
    """Construct the majority instance for the given density target."""
    if not 0 < delta <= Fraction(1, 16):
        raise ValueError("need 0 < delta <= 1/16")
    k = floor_log2(1 / (4 * delta))
    nprime = n - k
    if nprime < 1:
        raise ValueError("n too small for this delta")
    threshold = (nprime + 1) // 2  # at least nprime/2 ones
    inner_elems = [x for x in range(1 << nprime) if x.bit_count() >= threshold]
    inner = F2Set.from_bits(nprime, inner_elems)
    table = spectrum_of_set(inner)
    weight_values = [table.values[(1 << w) - 1] for w in range(nprime + 1)]
    if any(v != weight_values[r.bit_count()] for r, v in enumerate(table.values)):
        raise ArithmeticError("inner spectrum not weight-symmetric (bug)")
    alpha_sq_reference = delta**2 / (2**24 * n)
    alpha_used = Fraction(abs(weight_values[1]), 1 << n)
    return MajorityInstance(
        n, k, nprime, delta, inner, tuple(weight_values), alpha_sq_reference, alpha_used
    )


def verify_majority(inst: MajorityInstance, d: int = 1) -> list[BoundReport]:
    """All exact claims of the construction on one instance."""
    start = time.perf_counter()
    reports: list[BoundReport] = []
    nprime, k, n = inst.nprime, inst.k, inst.n
    inst_desc = f"n={n} k={k} n'={nprime} delta={inst.delta} d={d}"

    # (a) closed-form weight-1 value against the brute-force spectrum
    formula = weight1_binomial_value(nprime)
    w1 = abs(inst.weight_values[1])
    status = "holds" if w1 == formula else "violated"
    reports.append(
        _finish(
            "majority-weight1-formula", inst_desc, w1, formula, "le", start, "equality required",
            status,
        )
    )

    # (b) cardinality bounds 2^(n-k-2) <= |A| <= 2^(n-k)
    size = inst.inner_size
    status = "holds" if 2 ** (n - k - 2) <= size <= 2 ** (n - k) else "violated"
    bounds = (2 ** (n - k - 2), 2 ** (n - k))
    reports.append(_finish("majority-size", inst_desc, size, bounds, "le", start, status=status))

    # (c) weight-1 frequencies beat the reference threshold (its constants
    # assume n >= 32; for smaller n the certified threshold alpha_used is
    # the re-derived constant and the reference comparison is reported)
    ref_ok = inst.is_large(1, inst.alpha_sq_reference)
    status = "holds" if ref_ok or n < 32 else "violated"
    detail = "reference alpha certified" if ref_ok else "re-derived alpha (n < 32)"
    reports.append(_finish("majority-alpha", inst_desc, w1, None, "ge", start, detail, status))

    # (d) |R_alpha| >= n' 2^k at the certified threshold
    alpha_sq = min(inst.alpha_sq_reference, inst.alpha_used**2) if ref_ok else inst.alpha_used**2
    r_count = inst.spectrum_count(alpha_sq)
    reports.append(
        _finish("majority-spectrum-size", inst_desc, r_count, nprime << k, "ge", start)
    )

    # (e) |d-fold basis sumset meet R_alpha| >= n' C(k, d-1)
    inter = inst.sumset_spectrum_count(d, alpha_sq)
    target = nprime * comb(k, d - 1)
    reports.append(_finish("majority-sumset-intersection", inst_desc, inter, target, "ge", start))
    return reports


# ---------------------------------------------------------------------------
# seeded sweep families


def sweep_chang(count: int, seed: int, max_dim: int = 12) -> list[BoundReport]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        dim = rng.randint(4, max_dim)
        n = 1 << dim
        size = rng.randint(2, max(2, n // 4))
        a = F2Set.from_bits(dim, rng.sample(range(n), size))
        table = spectrum_of_set(a)
        values = sorted((abs(v) for r, v in enumerate(table.values) if r), reverse=True)
        nonzero = [v for v in values if v > 0]
        if not nonzero:
            continue
        idx = rng.randrange(min(len(nonzero), 8))
        alpha = Fraction(min(nonzero[idx], len(a)), n)
        if alpha <= 0:
            continue
        spectrum = large_spectrum_from_table(table, alpha)
        lam_elems: list[int] = []
        for r in spectrum.elems:  # greedy maximal dissociated subset
            if r and is_dissociated(F2Set.from_bits(dim, lam_elems + [r])):
                lam_elems.append(r)
        lam = F2Set.from_bits(dim, lam_elems)
        out.append(check_chang(a, alpha, lam))
        out.append(check_parseval_spectrum(a, alpha))
    return out


def sweep_diss_energy(count: int, seed: int) -> list[BoundReport]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, 12)
        m = rng.randint(2, min(10, n))
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        p = rng.randint(2, 3)
        out.append(check_diss_energy(lam, p))
    return out


def sweep_sumset_energy(count: int, seed: int) -> list[BoundReport]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(8, 12)
        d = rng.randint(1, 3)
        m = rng.randint(max(2, d), min(10, n))
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        ambient = distinct_sumset_power(lam, d)
        size = rng.randint(1, len(ambient))
        q = F2Set.from_bits(n, rng.sample(ambient.elems, size))
        p = rng.randint(2, 3)
        out.append(check_sumset_energy(q, lam, d, p))
    return out


def sweep_full_sumset_lower(count: int, seed: int) -> list[BoundReport]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 2)
        p = rng.randint(2, 3)
        m = rng.randint(2 * d * p, min(12, 2 * d * p + 4))
        n = rng.randint(m, m + 4)
        lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
        out.append(check_full_sumset_lower(lam, d, p))
    return out


def sweep_spectrum_energy_lower(count: int, seed: int, max_dim: int = 12) -> list[BoundReport]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(4, max_dim)
        n = 1 << dim
        size = rng.randint(1, max(1, n // 2))
        a = F2Set.from_bits(dim, rng.sample(range(n), size))
        table = spectrum_of_set(a)
        nonzero = sorted({abs(v) for v in table.values if v}, reverse=True)
        if not nonzero:
            continue
        alpha = Fraction(nonzero[rng.randrange(min(4, len(nonzero)))], n)
        if alpha > Fraction(len(a), n):
            alpha = Fraction(len(a), n)
        spectrum = large_spectrum_from_table(table, alpha)
        bsize = rng.randint(1, len(spectrum))
        b = F2Set.from_bits(dim, rng.sample(spectrum.elems, bsize))
        k = rng.randint(2, 3)
        out.append(check_spectrum_energy_lower(a, b, k, alpha))
    return out


def sweep_bourgain(count: int, seed: int) -> list[BoundReport]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(8, 12)
        n = 1 << dim
        d = rng.randint(1, 2)
        # delta <= 2^-4d keeps d within log(1/delta)/4
        max_size = n // (1 << (4 * d))
        if max_size < 1:
            continue
        size = rng.randint(1, max_size)
        a = F2Set.from_bits(dim, rng.sample(range(n), size))
        delta = Fraction(size, n)
        fam_weight = 2 * floor_log2(1 / delta)
        m = rng.randint(max(2, d), min(8, dim))
        lam = random_dissociated(
            dim, m, spec=FamilySpec.zero(min(fam_weight, m), dim), seed=rng.randrange(1 << 30)
        )
        table = spectrum_of_set(a)
        nonzero = sorted({abs(v) for v in table.values if v}, reverse=True)
        if not nonzero:
            continue
        alpha = min(Fraction(nonzero[0], n), delta)
        if alpha <= 0:
            continue
        out.append(check_bourgain_intersection(a, lam, alpha, d))
    return out


def sweep_majority(nprimes: Sequence[int], delta: Fraction, d: int = 1) -> list[BoundReport]:
    out = []
    for nprime in nprimes:
        k = floor_log2(1 / (4 * delta))
        inst = build_majority(nprime + k, delta)
        if inst.nprime != nprime:
            raise AssertionError("nprime mismatch in sweep construction")
        out.extend(verify_majority(inst, d))
    return out
