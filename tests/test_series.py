"""Series recipes: primitives, wheel zeta values, shadow sums, identities."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from defquant.series import (ValueBound, geometric_series_split,
                             oscillatory_delta, radial_log_integral,
                             merkulov_wheel_zeta, shadow_sum, ShadowSum,
                             two_wheel_display, harmonic_identity,
                             merkulov_vanishing_halves,
                             merkulov_vanishing_check)


# ---------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------

@given(st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                          allow_infinity=False),
       st.integers(min_value=1, max_value=60))
def test_geometric_split_inner(x, terms):
    partial, bound = geometric_series_split(x, terms)
    assert abs(partial - 1 / (1 - x)) <= bound + 1e-12


@given(st.complex_numbers(min_magnitude=1.05, max_magnitude=20.0,
                          allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=60))
def test_geometric_split_outer(x, terms):
    # -sum x^{-l-1} is the same function 1/(1-x) expanded at infinity
    partial, bound = geometric_series_split(x, terms)
    assert abs(partial - 1 / (1 - x)) <= bound + 1e-12


def test_geometric_split_rejects_unit_circle():
    with pytest.raises(ValueError):
        geometric_series_split(1j, 10)


def test_oscillatory_delta():
    assert oscillatory_delta(0) == 2 * math.pi
    for k in (-3, -1, 1, 2, 17):
        assert oscillatory_delta(k) == 0.0


def test_radial_integral_power_rule():
    for n in (0, 1, 3, 7):
        got = radial_log_integral(n, 0, 0.0, 0.8)
        assert got == pytest.approx(0.8 ** (n + 1) / (n + 1), rel=1e-13)
    assert radial_log_integral(-1, 0, 0.25, 0.75) == pytest.approx(
        math.log(3.0), rel=1e-13)
    # n = -1 with logs uses the ln^{m+1}/(m+1) branch
    got = radial_log_integral(-1, 2, 0.5, 2.0)
    want = (math.log(2.0) ** 3 - math.log(0.5) ** 3) / 3
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n,m,a,b", [
    (0, 1, 0.2, 0.9), (2, 2, 0.1, 1.0), (-2, 1, 0.3, 0.8),
    (-3, 2, 0.5, 2.0), (1, 3, 0.4, 1.6), (-1, 1, 0.2, 1.7),
])
def test_radial_integral_against_quadrature(n, m, a, b):
    want = float(mpmath.quad(lambda r: r ** n * mpmath.log(r) ** m, [a, 1, b]
                             if a < 1 < b else [a, b]))
    assert radial_log_integral(n, m, a, b) == pytest.approx(want, abs=1e-12)


def test_radial_integral_orientation_and_degenerate():
    assert radial_log_integral(2, 1, 0.3, 0.3) == 0.0
    fwd = radial_log_integral(2, 1, 0.2, 0.7)
    assert radial_log_integral(2, 1, 0.7, 0.2) == pytest.approx(-fwd)


def test_radial_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        radial_log_integral(2, -1, 0.0, 1.0)
    with pytest.raises(ValueError):
        radial_log_integral(2, 0, -0.5, 1.0)
    with pytest.raises(ValueError):
        radial_log_integral(-1, 0, 0.0, 1.0)   # 1/r not integrable at 0
    with pytest.raises(ValueError):
        radial_log_integral(0, 1, 0.0, 1.0)    # ln r blows up at 0


def test_value_bound_container():
    vb = ValueBound(1.644, 0.002)
    assert float(vb) == 1.644
    assert vb.consistent_with(1.6455)
    assert not vb.consistent_with(1.7)
    assert vb.consistent_with(ValueBound(1.640, 0.003))
    assert vb.consistent_with(1.7, extra=0.1)


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
            assert a.consistent_with(b)


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
            assert a.consistent_with(b)
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


# ---------------------------------------------------------------------
# disk vanishing lemma
# ---------------------------------------------------------------------

@given(st.lists(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=5),
       st.complex_numbers(max_magnitude=0.85, allow_nan=False,
                          allow_infinity=False))
def test_vanishing_total_is_zero(coeffs, p):
    assert merkulov_vanishing_check(coeffs, p) == 0


def test_vanishing_halves_are_opposite_and_nonzero():
    first, second = merkulov_vanishing_halves([0.0, 1.0], 0.4 + 0.3j)
    assert first == -second
    assert abs(first) > 0.1
    # monomial conj(w)^k against 1/(w - p): -2 pi i conj(p)^{k+1}/(k+1)
    k = 1
    want = -2j * math.pi * (0.4 - 0.3j) ** (k + 1) / (k + 1)
    assert first == pytest.approx(want, rel=1e-12)


def test_vanishing_rejects_exterior_point():
    with pytest.raises(ValueError):
        merkulov_vanishing_halves([1.0], 1.2)
