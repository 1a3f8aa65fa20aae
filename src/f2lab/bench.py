"""One checker per theorem-level inequality, plus explicit constructions.

Every checker returns BoundReport rows built by `_finish`, with the status
holds, violated, undecided or precondition-failed, and is reached by a
seeded family of `FAMILIES`.  It machine-verifies its own preconditions (dissociativity
status, containment in the large spectrum, ...) and refuses to answer
"holds" otherwise.  Logarithms and square roots on the bounding side are
handled by exact rational brackets, rounded toward soundness; log means
log base 2 throughout.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod
from operator import mul
from typing import Callable, Optional, Sequence

from .core import BudgetError, F2Set, Value, distinct_sumset_power
from .dissociation import FamilySpec, _extend_basis, in_family, is_dissociated, random_dissociated
from .energy import additive_energy, convolve, energy_function, energy_multiset, full_sumset_energy
from .exact import (
    EULER_HI,
    EULER_LO,
    certify_ladder,
    floor_log2,
    log2_bounds,
    pow_bounds,
    root_sum_dominates,
)
from .inverse import _best_intersections, greedy_disjoint_supports
from .permanent import CombMatrix, permanent
from .wht import IntFunction, _check_table_dim, large_spectrum_from_table, read_spectrum, wht

SOPHISTICATED_P_CAP = 4
INVERSE2_S1_CAP, INVERSE2_P_CAP = 14, 6


class BoundReport(Value):
    """Outcome of one inequality check on one instance."""

    __slots__ = ("theorem", "instance", "lhs", "rhs", "status", "slack", "detail")

    def __init__(self, theorem: str, instance: str, lhs, rhs, status: str, slack, detail: str):
        self.theorem = theorem
        self.instance = instance
        self.lhs = lhs
        self.rhs = rhs
        self.status = status  # holds | violated | undecided | precondition-failed
        self.slack = slack  # float or None
        self.detail = detail


def _finish(
    theorem: str,
    instance: str,
    lhs,
    rhs,
    orientation: str,
    detail: str = "",
    status: Optional[str] = None,
) -> BoundReport:
    """The report of one check; without a given status, lhs and rhs are
    compared exactly in the stated orientation, "le" for the claim
    lhs <= rhs and "ge" for lhs >= rhs."""
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
    return BoundReport(theorem, instance, lhs, rhs, status, slack, detail)


def _precondition_failed(theorem, instance, why) -> BoundReport:
    return _finish(theorem, instance, None, None, "le", why, "precondition-failed")


def _family_refusal(theorem, instance, lam: F2Set, weight: int) -> Optional[BoundReport]:
    """None when Lambda is certified to lie in the weight-`weight` family,
    else the precondition-failed report."""
    fam = in_family(lam, FamilySpec.zero(weight, lam.dim)).status
    if fam == "true":
        return None
    return _precondition_failed(theorem, instance, f"family status {fam}")


def check_chang(a: F2Set, alpha: Fraction, lam: F2Set) -> list[BoundReport]:
    """Dissociated subsets of the large spectrum have size at most
    2 (delta/alpha)^2 log(1/delta) ("chang"), and |R_alpha| <= delta /
    alpha^2 is the Parseval baseline ("parseval-spectrum")."""
    return _chang_rows(a, alpha, lam, read_spectrum(a, alpha)[2])


def _chang_rows(a: F2Set, alpha: Fraction, lam: F2Set, spectrum: F2Set) -> list[BoundReport]:
    """The rows of `check_chang`, given R_alpha(A)."""
    inst = f"n={a.dim} |A|={len(a)} alpha={alpha}"
    delta = Fraction(len(a), 1 << a.dim)
    parseval = _finish("parseval-spectrum", inst, len(spectrum), delta / alpha**2, "le")
    return [_chang_row(lam, spectrum, delta, alpha, f"{inst} |L|={len(lam)}"), parseval]


def _chang_row(lam, spectrum, delta, alpha, inst) -> BoundReport:
    if delta == 0:
        return _precondition_failed("chang", inst, "A is empty")
    if not is_dissociated(lam):
        return _precondition_failed("chang", inst, "Lambda not dissociated")
    if not lam.issubset(spectrum):
        return _precondition_failed("chang", inst, "Lambda not inside R_alpha")
    factor = 2 * (delta / alpha) ** 2
    if delta == 1:
        # log(1/delta) = 0: bound trivial, only an empty Lambda passes
        return _finish("chang", inst, len(lam), 0, "le")

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        lo, hi = log2_bounds(1 / delta, prec)
        return factor * lo, factor * hi

    status, rhs = certify_ladder(Fraction(len(lam)), bracket_at)
    return _finish("chang", inst, len(lam), rhs[0], "le", status=status)


def check_diss_energy(lam: F2Set, p: int) -> BoundReport:
    """T_p(Lambda) <= p^p |Lambda|^p for Lambda in the weight-2p family
    (Lambda is its own 1-fold distinct sumset)."""
    name, inst = "diss-energy", f"n={lam.dim} |L|={len(lam)} p={p}"
    if refused := _family_refusal(name, inst, lam, 2 * p):
        return refused
    return _finish(name, inst, full_sumset_energy(lam, 1, p), p**p * len(lam) ** p, "le")


def check_rudin_even(lam: F2Set, coeffs: Sequence[int], p: int) -> BoundReport:
    """Even-moment Rudin form: the 2p-th moment of sum a_l (-1)^(l.x)
    is at most p^p (sum a_l^2)^p, for dissociated support.  That sum is
    f_hat for f = a on Lambda, so its moment N^-1 sum_x f_hat(x)^2p is T_p(f)."""
    name = "rudin-even"
    inst = f"n={lam.dim} |L|={len(lam)} p={p}"
    if len(coeffs) != len(lam):
        raise ValueError("need one coefficient per support element")
    if refused := _family_refusal(name, inst, lam, 2 * p):
        return refused
    f = IntFunction.from_points(lam.dim, lam.elems, coeffs)
    weight = sum(a * a for a in coeffs)
    return _finish(name, inst, energy_function(f, p), p**p * weight**p, "le")


def check_sumset_energy(q: F2Set, lam: F2Set, d: int, p: int) -> BoundReport:
    """T_p(Q) <= 2^(8dp) p^(dp) |Q|^p for Q inside the d-fold distinct sumset."""
    name = "sumset-energy"
    inst = f"n={lam.dim} |L|={len(lam)} d={d} p={p} |Q|={len(q)}"
    if refused := _family_refusal(name, inst, lam, 2 * d * p):
        return refused
    ambient = distinct_sumset_power(lam, d)
    if not q.issubset(ambient):
        return _precondition_failed(name, inst, "Q outside the d-fold sumset")
    detail = "" if len(lam) >= 4 * d * d else "|Lambda| < 4d^2 (outside stated range)"
    lhs = additive_energy(q, p)
    rhs = 2 ** (8 * d * p) * p ** (d * p) * len(q) ** p
    return _finish(name, inst, lhs, rhs, "le", detail)


def check_full_sumset_lower(lam1: F2Set, d: int, p: int) -> BoundReport:
    """T_p of the full d-fold distinct sumset is at least
    2^(-3pd) p^(pd) |Q|^p, plus the exact factorial intermediate bound.
    In the weight-2d family two d-subsets with one sum would give a relation
    of weight at most 2d, so |Q| = C(|Lambda_1|, d)."""
    name = "full-sumset-lower"
    inst = f"n={lam1.dim} |L1|={len(lam1)} d={d} p={p}"
    if refused := _family_refusal(name, inst, lam1, 2 * d):
        return refused
    if 2 * d * p > len(lam1):
        return _precondition_failed(name, inst, "p > |Lambda_1|/(2d)")
    lhs = full_sumset_energy(lam1, d, p)
    ways = factorial(p * d) // factorial(d) ** p
    intermediate = comb(len(lam1), p * d) * ways * ways
    rhs = Fraction(p ** (p * d) * comb(len(lam1), d) ** p, 2 ** (3 * p * d))
    if lhs < intermediate:
        return _finish(name, inst, lhs, intermediate, "ge", "intermediate bound failed")
    return _finish(name, inst, lhs, rhs, "ge", f"intermediate={intermediate}")


def check_spectrum_energy_lower(a: F2Set, b: F2Set, k: int, alpha: Fraction) -> BoundReport:
    """T_k(B) >= delta^(1-2k) alpha^(2k) |B|^(2k) for B inside R_alpha(A)."""
    return _spectrum_energy_lower_row(a, b, k, alpha, read_spectrum(a, alpha)[2])


def _spectrum_energy_lower_row(a: F2Set, b: F2Set, k: int, alpha: Fraction, spectrum: F2Set) -> BoundReport:
    """The row of `check_spectrum_energy_lower`, given R_alpha(A)."""
    name = "spectrum-energy-lower"
    inst = f"n={a.dim} |A|={len(a)} |B|={len(b)} k={k} alpha={alpha}"
    if len(a) == 0:
        return _precondition_failed(name, inst, "A is empty")
    if not b.issubset(spectrum):
        return _precondition_failed(name, inst, "B not inside R_alpha")
    n = 1 << a.dim
    delta = Fraction(len(a), n)
    rhs = delta * (alpha / delta) ** (2 * k) * len(b) ** (2 * k)
    return _finish(name, inst, additive_energy(b, k), rhs, "ge")


def check_bourgain_intersection(a: F2Set, lam: F2Set, alpha: Fraction, d: int) -> BoundReport:
    """|d-fold sumset of Lambda meet R_alpha| against
    (delta/alpha)^2 (2^12 log(1/delta) / d)^d."""
    name = "bourgain-intersection"
    inst = f"n={a.dim} |A|={len(a)} |L|={len(lam)} d={d} alpha={alpha}"
    n = 1 << a.dim
    delta = Fraction(len(a), n)
    if delta > Fraction(1, 4):
        return _precondition_failed(name, inst, "delta > 1/4")
    if 2 ** (4 * d) * delta > 1:
        return _precondition_failed(name, inst, "d > log(1/delta)/4")
    if delta == 0:
        return _precondition_failed(name, inst, "A is empty")
    if refused := _family_refusal(name, inst, lam, 2 * floor_log2(1 / delta)):
        return refused
    sumset = distinct_sumset_power(lam, d)
    spectrum = read_spectrum(a, alpha)[2]
    lhs = len(sumset.intersection(spectrum))
    factor = (delta / alpha) ** 2

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        lo, hi = log2_bounds(1 / delta, prec)
        return factor * (lo * 2**12 / d) ** d, factor * (hi * 2**12 / d) ** d

    status, rhs = certify_ladder(Fraction(lhs), bracket_at)
    return _finish(name, inst, lhs, rhs[0], "le", status=status)


def check_holder(fs: Sequence[IntFunction], gs: Sequence[IntFunction]) -> BoundReport:
    """Convolution Hoelder: |<f_1 * ... * f_s, g_1 * ... * g_t>| is at most
    prod T_s(f_i)^(1/2s) prod T_t(g_j)^(1/2t), compared with the roots
    cleared: lhs^(2st) against prod T_s(f_i)^t prod T_t(g_j)^s."""
    s, t = len(fs), len(gs)
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    conv_f, conv_g = reduce(convolve, fs), reduce(convolve, gs)
    inner = sum(map(mul, conv_f.values, conv_g.values))
    rhs = prod(energy_function(f, s) ** t for f in fs)
    rhs *= prod(energy_function(g, t) ** s for g in gs)
    return _finish("holder", f"n={fs[0].dim} s={s} t={t}", inner ** (2 * s * t), rhs, "le")


def check_subadditivity(a: F2Set, b: F2Set, k: int) -> BoundReport:
    """T_k(A u B)^(1/2k) <= T_k(A)^(1/2k) + T_k(B)^(1/2k); rhs is the pair
    (T_k(A), T_k(B)) and the roots are compared exactly."""
    inst = f"n={a.dim} |A|={len(a)} |B|={len(b)} k={k}"
    tu, ta, tb = (additive_energy(x, k) for x in (a.union(b), a, b))
    status = "holds" if root_sum_dominates(tu, ta, tb, 2 * k) else "violated"
    return _finish("subadditivity", inst, tu, (ta, tb), "le", status=status)


def check_pi(ts: Sequence[int], p: int, delta0: Fraction) -> BoundReport:
    """The cutoff product pi = T^a0 (T-1)^a1 ... of t_1..t_r (T = max t_j)
    is at most 2^(3p) max(delta0^(4 delta0), 1).

    The tuple must be well-formed (t_j >= 2, sum 2p).  The lemma's
    delta0-linked hypotheses are named in the detail, not enforced, so
    boundary examples stay evaluable.
    """
    if any(t < 2 for t in ts):
        raise ValueError("every t_j must be >= 2")
    if sum(ts) != 2 * p:
        raise ValueError("sum of t_j must equal 2p")
    top = max(ts)
    alphas = tuple(sum(1 for t in ts if t >= top - i) for i in range(top - 1))
    # cutoff z: sum_{i<z} alpha_i <= p < sum_{i<=z} alpha_i; the all-2 tuple
    # admits no such z, in which case pi = T^p by convention
    z, q_z, pi = 0, p, top**p
    acc = 0
    for i, a in enumerate(alphas):
        if acc <= p < acc + a:
            z, q_z = i, p - acc
            pi = prod((top - j) ** alphas[j] for j in range(z)) * (top - z) ** q_z
            break
        acc += a
    failures = []
    if len(ts) < p - delta0:
        failures.append("r < p - delta0")
    if p < 2 * delta0 + 3:
        failures.append("p < 2 delta0 + 3")
    detail = f"T={top} alphas={alphas} z={z} q_z={q_z}"
    if failures:
        detail += " hypotheses failed: " + ", ".join(failures)

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        if delta0 <= 1:
            x_lo = x_hi = Fraction(1)
        elif delta0.denominator == 1:
            x_lo = x_hi = Fraction(int(delta0) ** (4 * int(delta0)))
        else:
            x_lo, x_hi = pow_bounds((delta0, delta0), (4 * delta0, 4 * delta0), prec)
        return 2 ** (3 * p) * x_lo, 2 ** (3 * p) * x_hi

    status, bound = certify_ladder(pi, bracket_at)
    inst = f"ts={tuple(ts)} p={p} delta0={delta0}"
    return _finish("pi", inst, pi, bound[0], "le", detail, status)


def check_sophisticated(
    es: Sequence[F2Set], classes: Sequence[Sequence[int]], lam: F2Set
) -> list[BoundReport]:
    """The solutions Z of l_1 + ... + l_2p = 0, l_i in E_i <= Lambda, are at
    most the permanent-sum bound ("sophisticated"), and
    Z^2 <= (2^(2p) p!)^2 prod |E_i| ("sophisticated-corollary").

    The bound sums per M(S*) over the p-subsets S* of [2p] that hit every
    partition class of size >= 2, where M(S*)_{ij} = |E_i cap E_j| for
    i in S*, j outside.  Lambda must be certified in the weight-2p family.
    """
    if len(es) % 2 != 0 or len(es) < 2:
        raise ValueError("need 2p sets")
    p = len(es) // 2
    if p > SOPHISTICATED_P_CAP:
        raise BudgetError(f"p = {p} beyond documented cap {SOPHISTICATED_P_CAP}")
    if any(not c for c in classes) or sorted(v for c in classes for v in c) != list(range(2 * p)):
        raise ValueError("classes must be nonempty and partition the index range")
    if not all(e.issubset(lam) for e in es):
        raise ValueError("every E_i must be a subset of Lambda")
    inst = f"n={lam.dim} |L|={len(lam)} p={p} |E|={[len(e) for e in es]}"
    if refused := _family_refusal("sophisticated", inst, lam, 2 * p):
        return [refused]
    solutions = energy_multiset(list(es))
    inter = [[len(set(a.elems) & set(b.elems)) for b in es] for a in es]
    big_classes = [frozenset(c) for c in classes if len(c) >= 2]
    bound = admissible = 0
    for s_star in itertools.combinations(range(2 * p), p):
        if any(not cls.intersection(s_star) for cls in big_classes):
            continue
        admissible += 1
        rest = [j for j in range(2 * p) if j not in s_star]
        bound += permanent(CombMatrix(tuple(tuple(inter[i][j] for j in rest) for i in s_star)))
    rhs_sq = (2 ** (2 * p) * factorial(p)) ** 2 * prod(len(e) for e in es)
    return [
        _finish("sophisticated", inst, solutions, bound, "le", f"admissible={admissible}"),
        _finish("sophisticated-corollary", inst, solutions**2, rhs_sq, "le"),
    ]


def _fiber_masks(q: F2Set, lam1: F2Set, lam2: F2Set) -> list[tuple[int, int]]:
    """The nonempty fibers of Q inside Lambda_1 + Lambda_2 in Lambda_1 order:
    the pairs (a, D_a), D_a = {b in Lambda_2 : a + b in Q} as a bitmask over
    Lambda_2's indices."""
    if lam1.intersection(lam2).elems:
        raise ValueError("Lambda_1 and Lambda_2 must be disjoint")
    qset = set(q.elems)
    masks = [sum(1 << j for j, b in enumerate(lam2.elems) if a ^ b in qset) for a in lam1.elems]
    return [(a, d) for a, d in zip(lam1.elems, masks) if d]


def check_inverse2(q: F2Set, lam1: F2Set, lam2: F2Set, p: int, m_param: Fraction) -> BoundReport:
    """T_p(Q) against the fiber-intersection upper bound, for Q inside
    Lambda_1 + Lambda_2 with fibers D_a = {b in Lambda_2 : a + b in Q}.

    The bound is 2^(5p) X p^(3p) s2^p * sum_{r} (p s2)^-r *
    (sum over r-subsets S of the nonempty fibers of prod_{a in S}
    sum_{b in S} |D_a cap D_b|) + p^(2p)|Q|^p / (2 M^p), with
    delta0 = max(p log2(2 e M) / log2(|Q|/(s2 p)), 1), X = max(delta0^
    (4 delta0), 1).  Transcendental pieces are bracketed rationally; a
    ladder that never pins ceil(delta0) is undecided with rhs None.
    """
    fibers = [d for _, d in _fiber_masks(q, lam1, lam2)]
    s1, s2, m = len(fibers), len(lam2), len(q)
    if s1 > INVERSE2_S1_CAP or p > INVERSE2_P_CAP:
        raise BudgetError(f"s1 = {s1}, p = {p} beyond caps ({INVERSE2_S1_CAP}, {INVERSE2_P_CAP})")
    if not set(q.elems) <= {l1 ^ l2 for l1 in lam1 for l2 in lam2}:
        raise ValueError("Q must be contained in Lambda_1 + Lambda_2")
    name, inst = "inverse2", f"n={q.dim} |Q|={m} s1={s1} s2={s2} p={p} M={m_param}"
    if p < 5:
        return _precondition_failed(name, inst, "p < 5")
    if s2 == 0 or m == 0:
        return _precondition_failed(name, inst, "degenerate instance")
    if not (m >= 2 * s2 * p and m >= 2**8 * s2 * p * m_param**8):
        return _precondition_failed(name, inst, "|Q| below max(2 s2 p, 2^8 s2 p M^8)")
    if refused := _family_refusal(name, inst, lam1.union(lam2), 4 * p):
        return refused
    energy = additive_energy(q, p)
    ratio = Fraction(m, s2 * p)
    inter = [[(da & db).bit_count() for db in fibers] for da in fibers]
    # inner[r]: the r-subset sum of the bound, which no precision changes
    subsets = (itertools.combinations(range(s1), r) for r in range(min(p, s1) + 1))
    inner = [sum(prod(sum(inter[a][b] for b in s) for a in s) for s in by_r) for by_r in subsets]
    ceil_d0 = None

    def bracket_at(prec: int) -> Optional[tuple[Fraction, Fraction]]:
        nonlocal ceil_d0
        log_m = (
            log2_bounds(2 * EULER_LO * m_param, prec)[0],
            log2_bounds(2 * EULER_HI * m_param, prec)[1],
        )
        num = (p * log_m[0], p * log_m[1])  # may be negative for small M
        den = log2_bounds(ratio, prec)  # positive: the hypotheses give ratio >= 2
        raw_lo = num[0] / (den[1] if num[0] >= 0 else den[0])
        raw_hi = num[1] / (den[0] if num[1] >= 0 else den[1])
        d0 = (max(raw_lo, Fraction(1)), max(raw_hi, Fraction(1)))
        c_lo = -((-d0[0].numerator) // d0[0].denominator)
        if c_lo != -((-d0[1].numerator) // d0[1].denominator):
            return None  # escalate precision to pin the ceiling
        ceil_d0 = c_lo
        if d0[0] == d0[1] == 1:
            x_bounds = (Fraction(1), Fraction(1))
        else:
            pw = pow_bounds(d0, (4 * d0[0], 4 * d0[1]), prec)
            x_bounds = (max(pw[0], Fraction(1)), max(pw[1], Fraction(1)))
        double_sum = sum(
            Fraction(v, (p * s2) ** r) for r, v in enumerate(inner) if r >= p - ceil_d0
        )
        tail = Fraction(p ** (2 * p) * m**p) / (2 * m_param**p)
        scale = 2 ** (5 * p) * p ** (3 * p) * s2**p
        return scale * x_bounds[0] * double_sum + tail, scale * x_bounds[1] * double_sum + tail

    status, rhs = certify_ladder(energy, bracket_at)
    rhs_lo = None if rhs is None else rhs[0]
    return _finish(name, inst, energy, rhs_lo, "le", f"ceil(delta0)={ceil_d0}", status)


def check_bombieri(universe: F2Set, subsets: Sequence[F2Set], lam: Fraction, t: int) -> BoundReport:
    """Some t of q subsets B_i of B with |B_i| >= lam |B| share at least
    (lam - t/q) C(q, t)^-1 |B| elements, for 1 <= t <= lam q.

    The largest t-fold intersection comes from a branch and bound, exact up
    to a node cap; a capped search that misses the bound is undecided.
    """
    q, size = len(subsets), len(universe)
    if q == 0:
        raise ValueError("need at least one subset")
    name, inst = "bombieri", f"n={universe.dim} |B|={size} q={q} t={t} lam={lam}"
    if any(len(b) < lam * size for b in subsets):
        return _precondition_failed(name, inst, "some |B_i| < lam |B|")
    if not all(b.issubset(universe) for b in subsets):
        return _precondition_failed(name, inst, "some B_i outside B")
    if t < 1:
        return _precondition_failed(name, inst, "t < 1")
    if t > lam * q:
        return _precondition_failed(name, inst, "t > lam q")
    index = {x: i for i, x in enumerate(universe.elems)}
    profile, exhaustive = _best_intersections([sum(1 << index[x] for x in b) for b in subsets], t, t)
    idx, inter = profile[t]
    bound = (lam - Fraction(t, q)) / comb(q, t) * size
    status = None if exhaustive or inter.bit_count() >= bound else "undecided"
    detail = f"sets={list(idx)} " + ("exhaustive" if exhaustive else "node cap reached")
    return _finish(name, inst, inter.bit_count(), bound, "ge", detail, status)


def greedy_support_threshold(
    p: int, width: int, zeta: Fraction, block_sizes: Sequence[int], multiplicities: Sequence[int]
) -> Fraction:
    """The guarantee threshold 2*sigma* of the greedy-support lemma: from at
    least this many supports the greedy selection returns the full width."""
    if len(block_sizes) != len(multiplicities):
        raise ValueError("need one multiplicity per block")
    omega_min = -((-zeta.numerator * p) // zeta.denominator)  # ceil(zeta p)
    # poly[j]: the sum over n_1 + ... + n_rho = j with n_i <= c_i of
    # prod a_i^n_i / n_i!, the coefficients up to z^p of the product over the
    # blocks of sum_{n <= c_i} (a_i z)^n / n!
    poly = [Fraction(1)] + [Fraction(0)] * p
    for a, c in zip(block_sizes, multiplicities):
        terms = [Fraction(a**n, factorial(n)) for n in range(min(c, p) + 1)]
        poly = [sum(poly[j - n] * t for n, t in enumerate(terms[: j + 1])) for j in range(p + 1)]
    total = Fraction(0)
    for omega in range(omega_min, p + 1):
        total += Fraction((p * width) ** omega, factorial(omega)) * poly[p - omega]
    return 2 * total


def check_greedy_support(
    supports: Sequence[frozenset],
    zeta: Fraction,
    width: int,
    blocks: Sequence[frozenset],
    multiplicities: Sequence[int],
) -> BoundReport:
    """Given at least greedy_support_threshold many p-element supports, each
    inside the disjoint blocks with at most multiplicities[i] elements in
    block i, greedy_disjoint_supports returns the full width."""
    p = len(supports[0]) if supports else 0
    name, inst = "greedy-support", f"p={p} q={len(supports)} width={width} zeta={zeta}"
    threshold = greedy_support_threshold(p, width, zeta, [len(b) for b in blocks], multiplicities)
    ground = frozenset().union(*blocks)
    if sum(map(len, blocks)) != len(ground):
        return _precondition_failed(name, inst, "blocks overlap")
    if any(
        not s <= ground or any(len(s & b) > c for b, c in zip(blocks, multiplicities))
        for s in supports
    ):
        return _precondition_failed(name, inst, "a support breaks the block multiplicities")
    if len(supports) < threshold:
        return _precondition_failed(name, inst, f"fewer than {threshold} supports")
    chosen = greedy_disjoint_supports(supports, zeta, width)
    return _finish(name, inst, len(chosen), width, "ge")


# ---------------------------------------------------------------------------
# the majority-set lower-bound construction


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


def _majority_codim(delta: Fraction) -> int:
    """The codimension k = floor(log(1/(4 delta))) of the majority set."""
    if not 0 < delta <= Fraction(1, 16):
        raise ValueError("need 0 < delta <= 1/16")
    return floor_log2(1 / (4 * delta))


def verify_majority(n: int, delta: Fraction, d: int = 1) -> list[BoundReport]:
    """All exact claims of the majority construction at n.

    The set A lives in F_2^n, is supported on the first nprime = n - k
    coordinates, and consists of the vectors with at least ceil(nprime/2)
    ones there.  The reference threshold 2^-12 delta/sqrt(n) is carried as
    the exact alpha^2 to avoid square roots; alpha_used = |W_1|/N is the
    exact rational threshold the inner weight-1 value W_1 certifies.
    """
    k = _majority_codim(delta)
    nprime = n - k
    if nprime < 1:
        raise ValueError("n too small for this delta")
    _check_table_dim(nprime)
    threshold = (nprime + 1) // 2  # at least nprime/2 ones
    inner_elems = [x for x in range(1 << nprime) if x.bit_count() >= threshold]
    inner = F2Set.from_bits(nprime, inner_elems)
    table = wht(inner)
    weight_values = [table.values[(1 << w) - 1] for w in range(nprime + 1)]
    if any(v != weight_values[r.bit_count()] for r, v in enumerate(table.values)):
        raise ArithmeticError("inner spectrum not weight-symmetric (bug)")
    alpha_sq_reference = delta**2 / (2**24 * n)
    alpha_used = Fraction(abs(weight_values[1]), 1 << n)

    def is_large(w: int, alpha_sq: Fraction) -> bool:
        v = weight_values[w]
        return v * v >= alpha_sq * (1 << n) ** 2

    reports: list[BoundReport] = []
    inst_desc = f"n={n} k={k} n'={nprime} delta={delta} d={d}"

    # (a) closed-form weight-1 value against the brute-force spectrum
    formula = weight1_binomial_value(nprime)
    w1 = abs(weight_values[1])
    status = "holds" if w1 == formula else "violated"
    reports.append(
        _finish(
            "majority-weight1-formula", inst_desc, w1, formula, "le", "equality required", status
        )
    )

    # (b) cardinality bounds 2^(n-k-2) <= |A| <= 2^(n-k)
    size = len(inner)
    status = "holds" if 2 ** (n - k - 2) <= size <= 2 ** (n - k) else "violated"
    bounds = (2 ** (n - k - 2), 2 ** (n - k))
    reports.append(_finish("majority-size", inst_desc, size, bounds, "le", status=status))

    # (c) weight-1 frequencies beat the reference threshold (its constants
    # assume n >= 32; for smaller n the certified threshold alpha_used is
    # the re-derived constant and the reference comparison is reported)
    ref_ok = is_large(1, alpha_sq_reference)
    status = "holds" if ref_ok or n < 32 else "violated"
    detail = "reference alpha certified" if ref_ok else "re-derived alpha (n < 32)"
    reports.append(_finish("majority-alpha", inst_desc, w1, None, "ge", detail, status))

    # (d) |R_alpha| >= n' 2^k at the certified threshold: A_hat(r) =
    # A'_hat(r_inner), so each large inner frequency gives 2^k shifts
    alpha_sq = min(alpha_sq_reference, alpha_used**2) if ref_ok else alpha_used**2
    ws = range(nprime + 1)
    r_count = sum(comb(nprime, w) for w in ws if is_large(w, alpha_sq)) << k
    reports.append(_finish("majority-spectrum-size", inst_desc, r_count, nprime << k, "ge"))

    # (e) |d-fold basis sumset meet R_alpha| >= n' C(k, d-1): weight-d
    # vectors split into inner weight w and outer weight d - w
    ws = range(min(d, nprime) + 1)
    inter = sum(comb(nprime, w) * comb(k, d - w) for w in ws if is_large(w, alpha_sq))
    target = nprime * comb(k, d - 1)
    reports.append(_finish("majority-sumset-intersection", inst_desc, inter, target, "ge"))
    return reports


def sweep_majority(delta: Fraction, d: int = 1, n: Optional[int] = None) -> list[BoundReport]:
    """The rows of the instances with n' = 3..10, or of the one instance at n."""
    if d < 1:
        raise ValueError(f"--d must be at least 1, got {d}")
    k = _majority_codim(delta)
    sizes = range(3 + k, 11 + k) if n is None else (n,)
    return [row for size in sizes for row in verify_majority(size, delta, d)]


# ---------------------------------------------------------------------------
# seeded sweep families: each draw takes the family's one RNG and returns
# the rows of one instance


def _draw_chang(rng: random.Random) -> list[BoundReport]:
    """alpha N is one of the 8 largest nonzero |A_hat(r)|, r != 0: Parseval
    leaves |A|(N - |A|) > 0 of mass off r = 0, and |A_hat| <= |A| keeps
    alpha <= delta.  Lambda is a greedy maximal dissociated subset of R_alpha."""
    dim = rng.randint(4, 12)
    n = 1 << dim
    size = rng.randint(2, max(2, n // 4))
    a = F2Set.from_bits(dim, rng.sample(range(n), size))
    table = wht(a)
    import heapq  # a shared library: loaded here, not at every command's start-up
    largest = heapq.nlargest(8, filter(None, map(abs, table.values[1:])))
    alpha = Fraction(largest[rng.randrange(len(largest))], n)
    spectrum = large_spectrum_from_table(table, alpha)
    pivots: dict[int, int] = {}
    lam = F2Set.from_bits(dim, [r for r in spectrum.elems if _extend_basis(pivots, r)])
    return _chang_rows(a, alpha, lam, spectrum)


def _draw_diss_energy(rng: random.Random) -> list[BoundReport]:
    n = rng.randint(6, 12)
    m = rng.randint(2, min(10, n))
    lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
    return [check_diss_energy(lam, rng.randint(2, 3))]


def _draw_sumset_energy(rng: random.Random) -> list[BoundReport]:
    n = rng.randint(8, 12)
    d = rng.randint(1, 3)
    m = rng.randint(max(2, d), min(10, n))
    lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
    ambient = distinct_sumset_power(lam, d)
    size = rng.randint(1, len(ambient))
    q = F2Set.from_bits(n, rng.sample(ambient.elems, size))
    return [check_sumset_energy(q, lam, d, rng.randint(2, 3))]


def _draw_full_sumset_lower(rng: random.Random) -> list[BoundReport]:
    d = rng.randint(1, 2)
    p = rng.randint(2, 3)
    m = rng.randint(2 * d * p, min(12, 2 * d * p + 4))
    n = rng.randint(m, m + 4)
    lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
    return [check_full_sumset_lower(lam, d, p)]


def _draw_spectrum_energy_lower(rng: random.Random) -> list[BoundReport]:
    """alpha N is one of the 4 largest distinct |A_hat(r)|; the list is
    never empty, since A_hat(0) = |A| >= 1 bounds every |A_hat(r)|."""
    dim = rng.randint(4, 12)
    n = 1 << dim
    size = rng.randint(1, max(1, n // 2))
    a = F2Set.from_bits(dim, rng.sample(range(n), size))
    table = wht(a)
    nonzero = sorted(set(map(abs, table.values)) - {0}, reverse=True)
    alpha = Fraction(nonzero[rng.randrange(min(4, len(nonzero)))], n)
    spectrum = large_spectrum_from_table(table, alpha)
    b = F2Set.from_bits(dim, rng.sample(spectrum.elems, rng.randint(1, len(spectrum))))
    return [_spectrum_energy_lower_row(a, b, rng.randint(2, 3), alpha, spectrum)]


def _draw_bourgain(rng: random.Random) -> list[BoundReport]:
    """delta <= 2^-4d keeps d within log(1/delta)/4, and dim >= 8 leaves
    room for one point.  Lambda has m <= 8 <= 2 log(1/delta) elements, so
    full dissociativity is the family the checker asks for, and alpha =
    delta, the largest |A_hat(r)| / N, which A_hat(0) = |A| attains."""
    dim = rng.randint(8, 12)
    n = 1 << dim
    d = rng.randint(1, 2)
    size = rng.randint(1, n // (1 << (4 * d)))
    a = F2Set.from_bits(dim, rng.sample(range(n), size))
    m = rng.randint(max(2, d), min(8, dim))
    lam = random_dissociated(dim, m, seed=rng.randrange(1 << 30))
    return [check_bourgain_intersection(a, lam, Fraction(size, n), d)]


def _draw_rudin_even(rng: random.Random) -> list[BoundReport]:
    n = rng.randint(4, 8)
    m = rng.randint(1, min(6, n))
    lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
    coeffs = [rng.randint(-4, 4) for _ in range(m)]
    return [check_rudin_even(lam, coeffs, rng.randint(2, 3))]


def _draw_holder(rng: random.Random) -> list[BoundReport]:
    dim = rng.randint(1, 6)

    def draw_fn() -> IntFunction:
        return IntFunction(dim, tuple(rng.randint(0, 1) for _ in range(1 << dim)))

    fs = [draw_fn() for _ in range(2)]
    return [check_holder(fs, [draw_fn() for _ in range(rng.randint(2, 3))])]


def _draw_subadditivity(rng: random.Random) -> list[BoundReport]:
    dim = rng.randint(2, 8)
    a, b = (
        F2Set.from_bits(dim, rng.sample(range(1 << dim), rng.randint(1, min(6, 1 << dim))))
        for _ in range(2)
    )
    return [check_subadditivity(a, b, rng.randint(2, 3))]


def _draw_pi(rng: random.Random) -> list[BoundReport]:
    """An admissible tuple: r >= p - delta0 parts >= 2 summing to 2p."""
    p = rng.randint(5, 9)
    delta0 = rng.randint(1, (p - 3) // 2)
    r = rng.randint(p - delta0, p)
    parts = [2] * r
    for _ in range(2 * p - 2 * r):
        parts[rng.randrange(r)] += 1
    return [check_pi(parts, p, Fraction(delta0))]


def _draw_sophisticated(rng: random.Random) -> list[BoundReport]:
    p = rng.randint(2, 3)
    n = rng.randint(7, 10)
    m = rng.randint(2, 6)
    lam = random_dissociated(n, m, seed=rng.randrange(1 << 30))
    es = [F2Set.from_bits(n, rng.sample(lam.elems, rng.randint(1, m))) for _ in range(2 * p)]
    idx = list(range(2 * p))
    rng.shuffle(idx)
    classes = []
    while idx:
        take = rng.randint(1, len(idx))
        classes.append(tuple(idx[:take]))
        idx = idx[take:]
    return check_sophisticated(es, classes, lam)


def _draw_inverse2(rng: random.Random) -> list[BoundReport]:
    """Q inside Lambda_1 + Lambda_2 for a dissociated 16-element split, at
    least 2 s2 p points, p = 5."""
    lam = random_dissociated(16, 16, seed=rng.randrange(1 << 30))
    s1 = rng.randint(10, 12)
    l1, l2 = F2Set.from_bits(16, lam.elems[:s1]), F2Set.from_bits(16, lam.elems[s1:])
    pairs = [a ^ b for a in l1.elems for b in l2.elems]
    q = F2Set.from_bits(16, rng.sample(pairs, rng.randint(10 * len(l2), len(pairs))))
    m_param = Fraction(1, rng.choice((4, 8)))
    return [check_inverse2(q, l1, l2, 5, m_param)]


def _draw_bombieri(rng: random.Random) -> list[BoundReport]:
    universe = F2Set.from_bits(6, rng.sample(range(64), 12))
    q = rng.randint(3, 6)
    subsets = [F2Set.from_bits(6, rng.sample(universe.elems, 6)) for _ in range(q)]
    return [check_bombieri(universe, subsets, Fraction(1, 2), rng.randint(1, max(1, q // 2)))]


def _draw_greedy_support(rng: random.Random) -> list[BoundReport]:
    """Threshold-many transversals of p equal blocks, the smallest blocks
    with that many (at p = 4 that takes 0.19M to 2.8M transversals, so
    p <= 3)."""
    p = rng.randint(2, 3)
    width = rng.randint(2, 4)
    zeta = Fraction(1, 2)
    size = 1
    while size**p <= (threshold := greedy_support_threshold(p, width, zeta, [size] * p, [1] * p)):
        size += 1
    blocks = [frozenset(range(100 * i, 100 * i + size)) for i in range(p)]
    pool = list(itertools.product(*(sorted(b) for b in blocks)))
    rng.shuffle(pool)
    supports = [frozenset(t) for t in pool[: int(threshold) + 1]]
    return [check_greedy_support(supports, zeta, width, blocks, [1] * p)]


FAMILIES: dict[str, Callable[[random.Random], list[BoundReport]]] = {
    "chang": _draw_chang,
    "diss": _draw_diss_energy,
    "dissd": _draw_sumset_energy,
    "exact": _draw_full_sumset_lower,
    "maing": _draw_spectrum_energy_lower,
    "bourgain": _draw_bourgain,
    "rudin": _draw_rudin_even,
    "holder": _draw_holder,
    "subadd": _draw_subadditivity,
    "pi": _draw_pi,
    "soph": _draw_sophisticated,
    "inverse2": _draw_inverse2,
    "bombieri": _draw_bombieri,
    "greedy": _draw_greedy_support,
}


def run_family(name: str, count: int, seed: int) -> list[BoundReport]:
    """The rows of `count` instances drawn for family `name` from one
    seeded RNG."""
    rng = random.Random(seed)
    draw = FAMILIES[name]
    return [row for _ in range(count) for row in draw(rng)]
