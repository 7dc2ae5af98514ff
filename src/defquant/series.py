"""Disk-model series for the Merkulov wheels, each with a rigorous bound.

The module holds the wheel zeta values (merkulov_wheel_zeta), the shadow
sums of the n-wheels (shadow_sum, constant in |w| and equal to zeta(2) at
n = 2 only), the displayed four-series combination for the 2-wheel shadow
(two_wheel_display) and the exact harmonic identities (harmonic_identity).
The series come from polar coordinates, a split of the domain at the
radius of each fixed point so every rational factor expands geometrically,
and angular integrals that couple the series indices.

Every truncated evaluation returns a ValueBound: a value together with a
rigorous tail bound, so a constancy statement is tested against the sum
of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# the shadow of the n-wheels
# ---------------------------------------------------------------------

def _geo_sum(x: float, power: int, start: int = 1):
    """sum_{d>=start} x^d (d+1)^power with a rigorous geometric cutoff.

    The term ratio is x ((d+2)/(d+1))^power, which is eventually < 1; the
    sum stops at a term below 1e-18 with ratio < 1 and bounds the rest by
    a geometric series with that ratio.  Returns (value, bound_on_remainder).
    """
    total = 0.0
    d = start
    term = x ** d * (d + 1) ** power
    while True:
        ratio = x * ((d + 2) / (d + 1)) ** power
        if term < 1e-18 and ratio < 1:
            return total, term * ratio / (1 - ratio) + term
        total += term
        d += 1
        term = x ** d * (d + 1) ** power
        if d > 100_000:
            raise RuntimeError("geometric cutoff failed to trigger")


@dataclass
class ShadowSum(ValueBound):
    """Truncated shadow of an n-wheel at one interpolation-free |w|."""
    n: int
    w_abs: float
    N: int
    blocks: dict = field(default_factory=dict)


def _s0_block(n: int, x: float, N: int):
    """sum_l (1-x^l)^n / l^n accelerated: zeta part + geometric parts."""
    zeta_part = merkulov_wheel_zeta(n, N)
    value = zeta_part.value
    bound = zeta_part.bound
    ls = np.arange(1, N + 1, dtype=float)
    for j in range(1, n + 1):
        coef = (-1) ** j * math.comb(n, j)
        value += coef * float(np.sum(x ** (j * ls) / ls ** n))
        # geometric tail of sum_{l>N} x^{jl}/l^n
        bound += (math.comb(n, j) * x ** (j * (N + 1))
                  / ((N + 1) ** n * (1 - x ** j)))
    return value, bound


def shadow_sum(n: int, w_abs: float, N: int | None = None) -> ShadowSum:
    """Evaluate the invariant shadow combination of the n-wheel.

    Index tuples (l_1..l_n) satisfy: l_1 < l_2 < ... < l_{s+1} strictly
    (s = m+m' > 0) and l_{s+1} >= l_{s+2} >= ... >= l_n >= l_1; every
    (m, m') contribution sharing a tuple is combined *before* summation,
    since the individual blocks diverge as |w| -> 1.  At n = 2 the result
    is constant in w_abs, equal to zeta(2); at n = 3 it is not (zeta(3) +
    7.0e-3 at w_abs = 0.5, bound 3.1e-4, and a larger N barely moves it).

    Tuples are truncated at l_{s+1} <= N and chain width
    d = l_{s+1}-l_1 <= dmax; both cuts carry rigorous bounds (the width
    cut by the x^d factor of every surviving term, the cap cut by a
    per-(L, d) estimate split at d = L/2).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if not 0 < w_abs <= 0.8:
        raise ValueError("w_abs must lie in (0, 0.8]")
    if N is None:
        N = {2: 8000, 3: 300}.get(n, 100)
    if N < 1:
        raise ValueError(f"needs N >= 1 terms, got {N}")
    x = w_abs ** 2
    dmax = max(4, math.ceil(math.log(1e-18) / math.log(x)))

    blocks = {}
    value, bound = _s0_block(n, x, N)
    blocks[0] = value

    l1 = np.arange(1, N + 1, dtype=float)
    xl1 = x ** l1
    import itertools
    for s in range(1, n):
        signs = [(-1) ** (s - mm) * math.comb(n, mm) * math.comb(n - mm, s - mm)
                 for mm in range(s + 1)]
        block_val = 0.0
        for d in range(s, dmax + 1):
            base = l1[: max(0, N - d)]       # l1 with l1 + d <= N
            if base.size == 0:
                continue
            xb = xl1[: base.size]
            for mids in itertools.combinations(range(1, d), s - 1):
                offs = (0,) + mids + (d,)    # ascending chain offsets
                denom_chain = np.ones_like(base)
                for o in offs:
                    denom_chain *= base + o
                # inner alternating sum over m: the exponent of x is
                # sum_{i=m+1}^{s+1} l_i - l_1 = (s-m) l_1 + sum(offs[m:])
                inner = np.zeros_like(base)
                for mm in range(s + 1):
                    inner += (signs[mm] * x ** sum(offs[mm:])
                              * x ** ((s - mm) * base))
                for tail in itertools.combinations_with_replacement(
                        range(d + 1), n - s - 1):
                    denom = denom_chain.copy()
                    free = 1.0 - xb
                    for t in tail:
                        denom *= base + t
                        free = free * (1.0 - xb * x ** t)
                    block_val += float(np.sum(free * inner / denom))
        blocks[s] = block_val
        value += block_val

        # tail bound for this s: tuples with cap L > N ...
        b_s = math.comb(n, s) * 2 ** s
        g_val, g_rem = _geo_sum(x, n - 2)
        q_val, q_rem = _geo_sum(math.sqrt(x), n - 2, start=N + 1)
        fac = b_s / math.factorial(s - 1)
        bound += fac * (2 ** (n - 1) * (g_val + g_rem)
                        / ((n - 1) * N ** (n - 1)) + q_val + q_rem)
        # ... and with L <= N but width d > dmax
        crude_L = float(np.sum((l1 + 1.0) ** (n - 2)))
        bound += fac * crude_L * x ** (dmax + 1) / (1 - x)

    return ShadowSum(value, bound, n, w_abs, N, blocks)


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
