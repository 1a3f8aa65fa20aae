"""Exact integer and rational helpers for root/log comparisons.

Inequality checks in this package compare an exact integer (or rational)
left side against right sides containing k-th roots, base-2 logarithms or
rational powers.  To keep every verdict float-free, such right sides are
bracketed between rational lower/upper bounds at a chosen precision and a
verdict is only reported once the bracket decides the comparison.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

# Precision ladder (bits of dyadic precision) used by escalating checks.
PRECISIONS = (12, 24, 48, 96, 192)

# e = 2.718281828459045235360287471352662497757...
EULER_LO = Fraction(27182818284590452353602874713526624977, 10**37)
EULER_HI = Fraction(27182818284590452353602874713526624978, 10**37)


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise ValueError("iroot of negative number")
    if k < 1:
        raise ValueError("iroot order must be >= 1")
    if n == 0 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def floor_log2(x: Fraction) -> int:
    """Largest integer e with 2^e <= x, for x > 0."""
    if x <= 0:
        raise ValueError("floor_log2 needs x > 0")
    num, den = x.numerator, x.denominator
    e = num.bit_length() - den.bit_length()
    # num and den lie in [2^(len - 1), 2^len), so x lies in (2^(e-1), 2^(e+1))
    # and floor log2 x is e exactly when 2^e <= x, else e - 1
    return e if den << max(e, 0) <= num << max(-e, 0) else e - 1


def log2_bounds(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] of log2(x) with hi - lo ~ 2^-prec.

    Digit extraction by repeated fixed-point squaring with directed
    rounding; intermediate integers stay at ~prec bits, so the cost is
    prec squarings of prec-bit numbers.
    """
    if x <= 0:
        raise ValueError("log2 of nonpositive value")
    e = floor_log2(x)
    y = x / Fraction(2) ** e  # in [1, 2)
    if y == 1:
        return Fraction(e), Fraction(e)
    t = prec + 2
    guard = t + 16
    scale = 1 << guard
    lo = (y.numerator << guard) // y.denominator
    hi = -((-y.numerator << guard) // y.denominator)
    halvings = 0  # m halvings at step i contribute m * 2^(t-i) to y^(2^t)
    for i in range(1, t + 1):
        lo = (lo * lo) >> guard
        hi = (hi * hi + scale - 1) >> guard
        while hi >= 4 * scale:
            lo >>= 1
            hi = (hi + 1) >> 1
            halvings += 1 << (t - i)
    # y^(2^t) = w * 2^halvings with w in [lo, hi]/scale and w < 4
    lo_log = floor_log2(Fraction(lo, scale)) if lo > 0 else -2
    hi_log = floor_log2(Fraction(hi, scale)) + 1
    lower = Fraction(halvings + lo_log, 1 << t)
    upper = Fraction(halvings + hi_log, 1 << t)
    return Fraction(e) + lower, Fraction(e) + upper


def _pow2_dyadic(a: int, s: int, prec: int, round_up: bool) -> Fraction:
    """Directed bound of 2^(a / 2^s) for 0 <= a <= 2^s.

    Uses fixed-point repeated square roots of 2 with `prec` guard bits; each
    step rounds in the requested direction, so the result is a true one-sided
    bound.
    """
    from math import isqrt

    if a == 0:
        return Fraction(1)
    if a == 1 << s:
        return Fraction(2)
    scale = 1 << prec
    result = scale  # fixed-point 1.0
    cur = 2 * scale  # 2^(1/2^0)
    for j in range(1, s + 1):
        # fixed-point sqrt: sqrt(cur/scale)*scale = isqrt(cur*scale)
        root = isqrt(cur * scale)
        if round_up and root * root < cur * scale:
            root += 1
        cur = root
        if (a >> (s - j)) & 1:
            prod = result * cur
            result = -(-prod // scale) if round_up else prod // scale
    return Fraction(result, scale)


def pow2_bounds(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rational bracket of 2^x for rational x."""
    i = x.numerator // x.denominator  # floor
    f = x - i  # in [0, 1)
    base = Fraction(2) ** i
    if f == 0:
        return base, base
    s = prec
    a_lo = (f.numerator << s) // f.denominator
    a_hi = a_lo + (0 if (f.numerator << s) % f.denominator == 0 else 1)
    lo = _pow2_dyadic(a_lo, s, prec + 16, round_up=False)
    hi = _pow2_dyadic(a_hi, s, prec + 16, round_up=True)
    return base * lo, base * hi


def pow_bounds(
    base: tuple[Fraction, Fraction], exp: tuple[Fraction, Fraction], prec: int
) -> tuple[Fraction, Fraction]:
    """Bracket base^exp for base >= 1 and exp >= 0 (both intervals)."""
    if base[0] < 1 or exp[0] < 0:
        raise ValueError("pow_bounds expects base >= 1 and exp >= 0")
    llo, _ = log2_bounds(base[0], prec)
    _, lhi = log2_bounds(base[1], prec)
    prod_lo = exp[0] * llo
    prod_hi = exp[1] * lhi
    lo, _ = pow2_bounds(prod_lo, prec)
    _, hi = pow2_bounds(prod_hi, prec)
    return lo, hi


def certify_le(lhs: Fraction | int, rhs: tuple[Fraction, Fraction]) -> str:
    """Decide lhs <= rhs for an interval-valued rhs.

    Returns "holds", "violated", or "unknown" (bracket too wide).
    """
    if lhs <= rhs[0]:
        return "holds"
    if lhs > rhs[1]:
        return "violated"
    return "unknown"


def certify_ladder(
    lhs: Fraction | int,
    bracket_at: Callable[[int], Optional[tuple[Fraction, Fraction]]],
    top: Optional[int] = None,
) -> tuple[str, Optional[tuple[Fraction, Fraction]]]:
    """Decide lhs <= rhs up the precision ladder.

    bracket_at(prec) brackets rhs at each precision of PRECISIONS in turn,
    or returns None to escalate without deciding.  A given `top` ends the
    ladder: the rungs of PRECISIONS below it, then `top` itself.  Returns
    the status ("holds", "violated" or "undecided") and the last bracket
    computed, None if every rung escalated.
    """
    rungs = PRECISIONS if top is None else (*(p for p in PRECISIONS if p < top), top)
    bracket = None
    for prec in rungs:
        rung = bracket_at(prec)
        if rung is None:
            continue
        bracket = rung
        verdict = certify_le(lhs, bracket)
        if verdict != "unknown":
            return verdict, bracket
    return "undecided", bracket


def root_sum_dominates(total: int, part_a: int, part_b: int, e: int) -> bool:
    """Exact check of total^(1/e) <= part_a^(1/e) + part_b^(1/e).

    All arguments are nonnegative integers, e >= 1.  The rung at precision
    prec takes m = 2^s with s = prec + prec // 3 (16 to 256 bits on the
    default ladder); with la, lb the floor e-th roots of part_a m^e and
    part_b m^e, the e-th power of the sum of roots lies between
    (la + lb)^e / m^e and (la + lb + 2)^e / m^e.  A rung therefore leaves
    the comparison open only if E = part_a^(1/e) + part_b^(1/e) -
    total^(1/e) has |E| <= 2^(1-s).

    E is an algebraic integer.  Its conjugates are zeta1 part_a^(1/e) +
    zeta2 part_b^(1/e) - zeta3 total^(1/e) for e-th roots of unity zeta_i,
    at most e^3 of them, each at most u = part_a^(1/e) + part_b^(1/e) +
    total^(1/e) in absolute value.  A nonzero E has a nonzero integer norm,
    so |E| >= u^(1 - e^3) (Burnikel, Fleischer, Mehlhorn and Schirra 2000).
    The top rung has s > 1 + (e^3 - 1) log2 u, where an open comparison
    means E = 0: the equality case, which holds.
    """
    if total < 0 or part_a < 0 or part_b < 0:
        raise ValueError("negative energy")
    if part_a == 0 or part_b == 0:
        return total <= part_a + part_b
    # log2 u <= log2 3 + bits(max)/e < log2_u
    log2_u = 2 - (-max(total, part_a, part_b).bit_length() // e)

    def bracket_at(prec: int) -> tuple[Fraction, Fraction]:
        scaled = 1 << ((prec + prec // 3) * e)
        root_sum = iroot(part_a * scaled, e) + iroot(part_b * scaled, e)
        return Fraction(root_sum**e, scaled), Fraction((root_sum + 2) ** e, scaled)

    status, _ = certify_ladder(total, bracket_at, top=2 + (e**3 - 1) * log2_u)
    return status != "violated"
