"""Disk-model series for the Merkulov wheels, each with a rigorous bound.

The module holds the wheel zeta values (merkulov_wheel_zeta), the shadow
sum of the 2-wheel (shadow_sum, constant in |w| and equal to zeta(2); no
n >= 3 rule is derived, so other n are refused), the displayed
four-series combination for the 2-wheel shadow (two_wheel_display) and
the exact harmonic identities (harmonic_identity).
The series come from polar coordinates, a split of the domain at the
radius of each fixed point so every rational factor expands geometrically,
and angular integrals that couple the series indices.

Every truncated evaluation returns a ValueBound: a value together with a
rigorous tail bound, so a constancy statement is tested against the sum
of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------
# value-with-bound container
# ---------------------------------------------------------------------

@dataclass
class ValueBound:
    value: float
    bound: float

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------
# wheel weights: zeta values
# ---------------------------------------------------------------------

# reference values the wheel sums are checked against, and the gate
ZETA_TARGETS = {2: math.pi ** 2 / 6, 3: 1.2020569031595942854,
                4: math.pi ** 4 / 90}
ZETA_TOLERANCE = 1e-6


def merkulov_wheel_zeta(n: int, N: int = 10_000) -> ValueBound:
    """The hub-at-center wheel reduction: zeta(n) by truncated summation.

    Angular coupling forces all geometric indices equal, leaving
    sum_l 1/l^n.  The tail is replaced by the midpoint integral
    (N+1/2)^{1-n}/(n-1); by convexity the true tail lies between the
    integrals from N+1/2 and from N+1, which gives the bound.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if N < 1:
        raise ValueError(f"needs N >= 1 terms, got {N}")
    partial = float(np.sum(1.0 / np.arange(1, N + 1, dtype=float) ** n))
    mid = (N + 0.5) ** (1 - n) / (n - 1)
    low = (N + 1.0) ** (1 - n) / (n - 1)
    return ValueBound(partial + mid, mid - low)


# ---------------------------------------------------------------------
# the shadow of the 2-wheel
# ---------------------------------------------------------------------

def _geo_sum(x: float, d: int = 1):
    """sum_{k>=d} x^k, 0 < x < 1, summed up to the first term below 1e-18:
    returns (value, the rest bounded by a geometric series of ratio x)."""
    total, term = 0.0, x ** d
    while term >= 1e-18:
        total += term
        d += 1
        term = x ** d
    return total, term * x / (1 - x) + term


@dataclass
class ShadowSum(ValueBound):
    """Truncated shadow of the 2-wheel at one interpolation-free |w|."""
    w_abs: float
    N: int
    blocks: dict


def shadow_sum(n: int, w_abs: float, N: int | None = None) -> ShadowSum:
    """Evaluate the invariant shadow combination of the 2-wheel.

    Index pairs l_2 >= l_1 >= 1 fall in two blocks, x = w_abs^2: block 0
    (l_1 = l_2 = l) is sum_l (1-x^l)^2/l^2, block 1 (the strict ascents
    l_2 = l_1 + d, d >= 1) is sum_{l,d} 2 x^d (1-x^l)^2/(l (l+d)).  All
    (m, m') contributions sharing a pair are combined before summation,
    since the individual pieces diverge as |w| -> 1.  The sum is constant
    in w_abs and equal to zeta(2).

    Pairs are truncated at l_2 <= N and width d <= dmax; both cuts carry
    rigorous bounds (the width cut by the x^d factor of every surviving
    term, the cap cut by a per-(L, d) estimate split at d = L/2).

    Any n other than 2 raises ValueError.  The index rule carried to
    n >= 3 drifts from zeta(n) with |w| far past its own bound (zeta(3)
    + 7.0e-3 at w_abs = 0.5, bound 3.1e-4), and no derivation backs
    another rule, so there is no checked number to report.
    """
    if n != 2:
        raise ValueError(f"the shadow sum is derived for n = 2 only, "
                         f"got n = {n}")
    if not 0 < w_abs <= 0.8:
        raise ValueError("w_abs must lie in (0, 0.8]")
    N = 8000 if N is None else N
    if N < 1:
        raise ValueError(f"needs N >= 1 terms, got {N}")
    x = w_abs ** 2
    dmax = max(4, math.ceil(math.log(1e-18) / math.log(x)))
    ls = np.arange(1, N + 1, dtype=float)
    xl = x ** ls

    # block 0 accelerated: zeta(2) - 2 sum x^l/l^2 + sum x^{2l}/l^2, the
    # geometric parts' l > N tails bounded geometrically
    zeta_part = merkulov_wheel_zeta(2, N)
    head = (zeta_part.value - 2 * float(np.sum(xl / ls ** 2))
            + float(np.sum(x ** (2 * ls) / ls ** 2)))
    bound = (zeta_part.bound + 2 * x ** (N + 1) / ((N + 1) ** 2 * (1 - x))
             + x ** (2 * (N + 1)) / ((N + 1) ** 2 * (1 - x ** 2)))

    # block 1, one pass per width d
    ascent = 0.0
    for d in range(1, min(dmax, N - 1) + 1):
        base = ls[:N - d]                # l with l + d <= N
        inner = -2 * x ** d * x ** base + 2 * x ** d
        ascent += float(np.sum((1.0 - xl[:N - d]) * inner
                               / (base * (base + d))))

    # tail bound for the ascent block: pairs with cap L > N ...
    g_val, g_rem = _geo_sum(x)
    q_val, q_rem = _geo_sum(math.sqrt(x), N + 1)
    bound += 4 * (2 * (g_val + g_rem) / N + q_val + q_rem)
    # ... and with L <= N but width d > dmax
    bound += 4 * N * x ** (dmax + 1) / (1 - x)

    return ShadowSum(head + ascent, bound, w_abs, N, {0: head, 1: ascent})


def two_wheel_display(w_abs: float) -> ValueBound:
    """The displayed four-series combination for the 2-wheel shadow.

    sum_m (1 - 2x^m + x^{2m})/(2 m^2)
      - sum_{l2 > l1 >= 0} (2 - x^{1+l1}) x^{1+l2} / ((1+l1)(1+l2))
      + sum_{m>=1, l>=0} x^m / ((1+l)(m+1+l)),        x = w_abs^2

    (the square in the first numerator is (1-x^m)^2; a printed version
    carries a stray n in the exponent).  The combination is independent
    of w and equals pi^2/12, i.e. half the 2-wheel shadow.
    """
    if not 0 < w_abs <= 0.8:
        raise ValueError("w_abs must lie in (0, 0.8]")
    N = 4000                # terms per series; the tails are bounded
    x = w_abs ** 2
    ks = np.arange(1, N + 1, dtype=float)
    xk = x ** ks

    # first series, accelerated through the zeta part
    zeta_part = merkulov_wheel_zeta(2, N)
    s1 = 0.5 * zeta_part.value - float(np.sum(xk / ks ** 2)) \
        + 0.5 * float(np.sum(xk ** 2 / ks ** 2))
    b1 = 0.5 * zeta_part.bound \
        + x ** (N + 1) / ((N + 1) ** 2 * (1 - x)) \
        + 0.5 * x ** (2 * N + 2) / ((N + 1) ** 2 * (1 - x * x))

    # second series: prefix sums over k1 < k2 (indices shifted to start at 1)
    pref = np.cumsum((2.0 - xk) / ks)
    s2 = float(np.sum((xk / ks)[1:] * pref[:-1]))
    b2 = 2 * x ** (N + 1) * (1 + math.log(N + 1)) / ((N + 1) * (1 - x))

    # third series: sum_m x^m sum_j 1/(j(j+m))
    mcap = max(60, int(math.ceil(math.log(1e-18) / math.log(x))))
    js = ks
    s3 = 0.0
    for m in range(1, mcap + 1):
        s3 += x ** m * float(np.sum(1.0 / (js * (js + m))))
    b3 = x / ((1 - x) * N)                      # j > N remainder
    b3 += (1 + math.log(N)) * x ** (mcap + 1) / (1 - x)   # m > mcap

    return ValueBound(s1 - s2 + s3, b1 + b2 + b3)


# ---------------------------------------------------------------------
# harmonic identities
# ---------------------------------------------------------------------

def harmonic_identity(m: int):
    """The three exact-rational faces of sum_l 1/(l(m+l)).

    Returns (lhs, rhs_merk, rhs_harm) as Fractions:
      lhs      — telescoping value of the series, (1/m) sum_{l<=m} 1/l;
      rhs_merk — (2/m) sum_{l<m} 1/l - sum_{l1>l2, l1+l2=m} 1/(l1 l2)
                 - 1/m^2 for even m, + 1/m^2 for odd m;
      rhs_harm — H_m/m.
    All three agree for every m >= 1; m = 0 is excluded (that series is
    zeta(2), which is irrational).
    """
    if m < 1:
        raise ValueError("needs m >= 1")
    # partial sum plus the telescoped tail (1/m)(H_{m+L} - H_L), exact
    big_l = m
    lhs = sum((Fraction(1, l * (m + l)) for l in range(1, big_l + 1)),
              Fraction(0))
    lhs += sum((Fraction(1, l) for l in range(big_l + 1, big_l + m + 1)),
               Fraction(0)) / m
    rhs_merk = 2 * sum((Fraction(1, l) for l in range(1, m)), Fraction(0)) / m
    for l1 in range(1, m):
        l2 = m - l1
        if l1 > l2 >= 1:
            rhs_merk -= Fraction(1, l1 * l2)
    rhs_merk += Fraction((-1) ** (m + 1), m * m)
    rhs_harm = sum((Fraction(1, l) for l in range(1, m + 1)),
                   Fraction(0)) / m
    return lhs, rhs_merk, rhs_harm
