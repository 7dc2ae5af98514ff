"""Series recipes: wheel zeta values, shadow sums, identities."""

import math
from fractions import Fraction

import mpmath
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


def test_shadow_three_wheel_ballpark():
    # at n >= 3 the residual truncation drift exceeds the tail estimate at
    # truncations reachable in test time, so only a ballpark band is
    # asserted here; the certified route to zeta(3) is the wheel recipe
    s = shadow_sum(3, 0.5)
    assert abs(s.value - float(mpmath.zeta(3))) < 0.05


@pytest.mark.xfail(strict=True, reason="the n=3 shadow drifts with |w|: "
                   "zeta(3) + 1.6e-7 at 0.1, + 7.0e-3 at 0.5")
def test_shadow_three_wheel_is_constant():
    a, b = shadow_sum(3, 0.1), shadow_sum(3, 0.5)
    assert abs(a.value - b.value) <= a.bound + b.bound


def test_shadow_rejects_bad_input():
    with pytest.raises(ValueError):
        shadow_sum(1, 0.5)
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
