"""Series recipes: wheel zeta values, shadow sums, identities."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defquant.series import (ValueBound, merkulov_wheel_zeta, shadow_sum,
                             ShadowSum, two_wheel_display, harmonic_identity)


# ---------------------------------------------------------------------
# value-with-bound container
# ---------------------------------------------------------------------

def test_value_bound_container():
    vb = ValueBound(1.644, 0.002)
    assert float(vb) == 1.644


# ---------------------------------------------------------------------
# wheel reductions: zeta values
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wheel_zeta_matches_zeta(n):
    vb = merkulov_wheel_zeta(n)
    want = float(mpmath.zeta(n))
    # the bound covers truncation only; for n >= 4 it drops below machine
    # epsilon, so allow summation roundoff on top
    assert abs(vb.value - want) <= vb.bound + 1e-13
    assert vb.bound < 1e-6


@pytest.mark.parametrize("n,N", [(2, 10), (2, 100), (3, 7), (4, 5)])
def test_wheel_zeta_bound_is_rigorous_at_small_cutoff(n, N):
    vb = merkulov_wheel_zeta(n, N=N)
    assert abs(vb.value - float(mpmath.zeta(n))) <= vb.bound


def test_wheel_zeta_rejects_divergent():
    with pytest.raises(ValueError):
        merkulov_wheel_zeta(1)


# ---------------------------------------------------------------------
# shadow sums
# ---------------------------------------------------------------------

def test_shadow_two_wheel_is_constant_zeta2():
    want = float(mpmath.zeta(2))
    sums = [shadow_sum(2, w) for w in (0.2, 0.45, 0.7)]
    for s in sums:
        assert isinstance(s, ShadowSum)
        assert abs(s.value - want) <= s.bound
        assert s.bound < 5e-3
    for a in sums:
        for b in sums:
            assert abs(a.value - b.value) <= a.bound + b.bound


def test_shadow_blocks_split_by_strict_ascent_length():
    s = shadow_sum(2, 0.5)
    assert set(s.blocks) == {0, 1}
    assert s.value == pytest.approx(s.blocks[0] + s.blocks[1])
    # the strict-ascent block is a genuine correction, not noise
    assert abs(s.blocks[1]) > 0.01


def _geo_sum_power(x, power, start=1):
    """sum_{d>=start} x^d (d+1)^power with the geometric cutoff: the
    general-power form that the n-wheel tail bounds read."""
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


def _general_n_shadow(n, w_abs, N):
    """The n-wheel index rule that shadow_sum writes out for n = 2, kept
    as the reference its blocks and bounds must equal bit for bit.

    Tuples (l_1..l_n) have a strict ascent l_1 < ... < l_{s+1} and then
    l_{s+1} >= ... >= l_n >= l_1; block s sums the tuples of ascent
    length s.  At n >= 3 this rule drifts with |w|, which is why
    shadow_sum refuses those n.
    """
    x = w_abs ** 2
    dmax = max(4, math.ceil(math.log(1e-18) / math.log(x)))
    zeta_part = merkulov_wheel_zeta(n, N)
    value, bound = zeta_part.value, zeta_part.bound
    ls = np.arange(1, N + 1, dtype=float)
    for j in range(1, n + 1):
        coef = (-1) ** j * math.comb(n, j)
        value += coef * float(np.sum(x ** (j * ls) / ls ** n))
        bound += (math.comb(n, j) * x ** (j * (N + 1))
                  / ((N + 1) ** n * (1 - x ** j)))
    blocks = {0: value}

    l1 = np.arange(1, N + 1, dtype=float)
    xl1 = x ** l1
    for s in range(1, n):
        signs = [(-1) ** (s - mm) * math.comb(n, mm)
                 * math.comb(n - mm, s - mm) for mm in range(s + 1)]
        block_val = 0.0
        for d in range(s, dmax + 1):
            base = l1[: max(0, N - d)]
            if base.size == 0:
                continue
            xb = xl1[: base.size]
            for mids in itertools.combinations(range(1, d), s - 1):
                offs = (0,) + mids + (d,)
                denom_chain = np.ones_like(base)
                for o in offs:
                    denom_chain *= base + o
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

        b_s = math.comb(n, s) * 2 ** s
        g_val, g_rem = _geo_sum_power(x, n - 2)
        q_val, q_rem = _geo_sum_power(math.sqrt(x), n - 2, start=N + 1)
        fac = b_s / math.factorial(s - 1)
        bound += fac * (2 ** (n - 1) * (g_val + g_rem)
                        / ((n - 1) * N ** (n - 1)) + q_val + q_rem)
        crude_l = float(np.sum((l1 + 1.0) ** (n - 2)))
        bound += fac * crude_l * x ** (dmax + 1) / (1 - x)
    return value, bound, blocks


@pytest.mark.parametrize("w_abs", [0.01, 0.05, 0.1, 0.2, 0.3, 0.33, 0.45,
                                   0.5, 0.6, 0.7, 0.77, 0.8])
def test_shadow_equals_the_general_n_rule_bit_for_bit(w_abs):
    for N in (None, 1, 2, 3, 5, 10, 100, 1000, 8000):
        s = shadow_sum(2, w_abs, N)
        want = _general_n_shadow(2, w_abs, 8000 if N is None else N)
        assert (s.value, s.bound, s.blocks) == want
        assert list(s.blocks) == [0, 1]
        assert (s.w_abs, s.N) == (w_abs, 8000 if N is None else N)


@pytest.mark.parametrize("n", [0, 1, 3, 4])
def test_shadow_refuses_every_n_but_2(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        shadow_sum(n, 0.5)


def test_shadow_rejects_bad_input():
    with pytest.raises(ValueError):
        shadow_sum(2, 0.0)
    with pytest.raises(ValueError):
        shadow_sum(2, 0.9)
    for N in (0, -2):
        with pytest.raises(ValueError):
            shadow_sum(2, 0.5, N)


def test_two_wheel_display_is_half_shadow():
    want = math.pi ** 2 / 12
    vals = [two_wheel_display(w) for w in (0.25, 0.5, 0.75)]
    for vb in vals:
        assert abs(vb.value - want) <= vb.bound
    for a in vals:
        for b in vals:
            assert abs(a.value - b.value) <= a.bound + b.bound
    # doubling recovers the full 2-wheel shadow at the same |w|
    s = shadow_sum(2, 0.5)
    assert abs(2 * vals[1].value - s.value) <= 2 * vals[1].bound + s.bound


def test_two_wheel_display_rejects_bad_radius():
    with pytest.raises(ValueError):
        two_wheel_display(0.0)
    with pytest.raises(ValueError):
        two_wheel_display(0.95)


# ---------------------------------------------------------------------
# harmonic identities
# ---------------------------------------------------------------------

def test_harmonic_identity_exhaustive():
    for m in range(1, 51):
        lhs, rhs_merk, rhs_harm = harmonic_identity(m)
        assert isinstance(lhs, Fraction)
        assert lhs == rhs_merk == rhs_harm


def test_harmonic_identity_spot_values():
    assert harmonic_identity(1)[0] == 1
    assert harmonic_identity(2)[0] == Fraction(3, 4)
    assert harmonic_identity(4)[2] == Fraction(25, 48)


@given(st.integers(min_value=51, max_value=400))
@settings(max_examples=25, deadline=None)
def test_harmonic_identity_large_m(m):
    lhs, rhs_merk, rhs_harm = harmonic_identity(m)
    assert lhs == rhs_merk == rhs_harm


def test_harmonic_identity_rejects_zero():
    with pytest.raises(ValueError):
        harmonic_identity(0)
