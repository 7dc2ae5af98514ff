"""Propagator family: boundary behaviour, differentials, symmetries.

Numerical derivative checks use central differences; the hypothesis
strategies keep points away from the coincidence set and the boundary so
the finite differences stay well conditioned.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defquant import propagators as prop


def h_points(min_imag=0.15):
    return st.builds(complex,
                     st.floats(-3, 3, allow_nan=False),
                     st.floats(min_imag, 3, allow_nan=False))


def disk_points(rad=0.85):
    return st.builds(complex,
                     st.floats(-rad, rad),
                     st.floats(-rad, rad)).filter(lambda w: abs(w) < rad)


lams = st.one_of(st.just(0.0), st.just(0.5), st.just(1.0),
                 st.builds(complex, st.floats(-1, 2), st.floats(-1, 1)))


def far(a, b, eps=0.1):
    return abs(a - b) > eps and abs(a - np.conj(b)) > eps


# -- values -----------------------------------------------------------

@given(h_points(), h_points())
def test_midpoint_is_harmonic_angle(s, t):
    if not far(s, t):
        return
    assert prop.phi_h(0.5, s, t) == pytest.approx(prop.phi_angle(s, t),
                                                  abs=1e-12)


@given(st.floats(-3, 3), h_points())
def test_vanishes_for_boundary_source(x, t):
    """A source on the real axis gives zero for every lam: the ratio
    (t-x)/(t - cj x) is 1, so both log halves vanish."""
    if abs(t - x) < 0.1:
        return
    for lam in (0.0, 0.5, 1.0, 0.3 + 0.2j):
        assert abs(prop.phi_h(lam, x, t)) < 1e-12


@given(h_points(), st.floats(-3, 3))
def test_boundary_target_value_is_lam_independent(s, x):
    """With the target on the real axis the ratio is unimodular, the two
    log halves add up, and every family member returns the same real
    angle."""
    if abs(x - s) < 0.1:
        return
    base = prop.phi_h(0.5, s, x)
    assert complex(base).imag == pytest.approx(0.0, abs=1e-12)
    for lam in (0.0, 1.0, 0.3 + 0.2j):
        assert prop.phi_h(lam, s, x) == pytest.approx(base, abs=1e-12)


@given(h_points())
def test_vertical_alignment_value(s):
    """Target straight above the source: the ratio is a positive real
    number over a positive real number ... the angle member vanishes."""
    t = s + 2j
    assert prop.phi_angle(s, t) == pytest.approx(0.0, abs=1e-12)


@given(lams, h_points(), h_points())
def test_conjugation_swaps_family_member(lam, s, t):
    """conj(phi^lam(s,t)) = phi^{1 - conj(lam)}(s,t)."""
    if not far(s, t):
        return
    lhs = np.conj(prop.phi_h(lam, s, t))
    rhs = prop.phi_h(1 - np.conj(lam), s, t)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(lams, h_points(), h_points())
def test_conjugation_swaps_wirtinger_slots(lam, s, t):
    """On differentials the conjugation symmetry additionally swaps the
    holomorphic and antiholomorphic slots."""
    if not far(s, t):
        return
    d_s, d_sb, d_t, d_tb = prop.dphi_h(lam, s, t)
    e_s, e_sb, e_t, e_tb = prop.dphi_h(1 - np.conj(lam), s, t)
    assert np.conj(d_s) == pytest.approx(e_sb, abs=1e-12)
    assert np.conj(d_sb) == pytest.approx(e_s, abs=1e-12)
    assert np.conj(d_t) == pytest.approx(e_tb, abs=1e-12)
    assert np.conj(d_tb) == pytest.approx(e_t, abs=1e-12)


# -- differentials vs finite differences ------------------------------

def _fd_check(fn, dfn, lam, a, b, tol=2e-6):
    h = 1e-6
    d_a, d_ab, d_b, d_bb = dfn(lam, a, b)
    for (dz, dzb, ix) in ((d_a, d_ab, 0), (d_b, d_bb, 1)):
        dx, dy = prop.wirtinger_to_xy(dz, dzb)
        args = [a, b]
        for step, want in ((h, dx), (1j * h, dy)):
            args_p = list(args); args_p[ix] = args[ix] + step
            args_m = list(args); args_m[ix] = args[ix] - step
            num = (fn(lam, *args_p) - fn(lam, *args_m)) / (2 * h)
            assert num == pytest.approx(want, abs=tol)


def away_from_cut(ratio, margin=0.3):
    """Finite differences on the log break when the argument crosses the
    principal branch cut; keep the angle away from pi."""
    return np.pi - abs(np.angle(complex(ratio))) > margin


@settings(max_examples=40)
@given(lams, h_points(), h_points())
def test_dphi_h_matches_finite_differences(lam, s, t):
    if not far(s, t, 0.3) or not away_from_cut((t - s) / (t - np.conj(s))):
        return
    _fd_check(prop.phi_h, prop.dphi_h, lam, s, t)


@settings(max_examples=40)
@given(lams, disk_points(0.7), disk_points(0.7))
def test_dphi_disk_matches_finite_differences(lam, ws, wt):
    if abs(ws - wt) < 0.25 or abs(ws) < 0.1 or abs(1 - np.conj(ws) * wt) < 0.2:
        return
    q = ((1 - np.conj(ws)) * (ws - wt)
         / ((1 - ws) * (1 - np.conj(ws) * wt)))
    if not away_from_cut(q):
        return
    _fd_check(prop.phi_disk, prop.dphi_disk, lam, ws, wt)


@settings(max_examples=40)
@given(lams, disk_points(0.7), disk_points(0.7))
def test_dphi_shoikhet_matches_finite_differences(lam, ws, wt):
    if abs(ws - wt) < 0.25 or abs(ws) < 0.2 or abs(wt) < 0.1 \
            or abs(1 - np.conj(ws) * wt) < 0.2:
        return
    x = (ws - wt) / (ws * (1 - np.conj(ws) * wt))
    if not away_from_cut(x):
        return
    _fd_check(prop.phi_shoikhet, prop.dphi_shoikhet, lam, ws, wt)


# -- model transport --------------------------------------------------

@given(h_points(), h_points())
def test_mobius_roundtrip(s, t):
    assert prop.mobius_to_h(prop.mobius_to_disk(s)) == pytest.approx(s)
    w = prop.mobius_to_disk(t)
    assert abs(w) < 1


@given(lams, disk_points(0.8), disk_points(0.8))
def test_disk_differentials_are_pullbacks(lam, ws, wt):
    """dphi_disk = dphi_h transported through the Mobius map (chain rule);
    values may differ by a locally constant half-integer, derivatives
    may not."""
    if abs(ws - wt) < 0.2 or abs(1 - np.conj(ws) * wt) < 0.2:
        return
    s, t = prop.mobius_to_h(ws), prop.mobius_to_h(wt)
    d_s, d_sb, d_t, d_tb = prop.dphi_h(lam, s, t)
    # dz/dw for the inverse Mobius map
    dz = 2j / (1 - ws) ** 2
    dz_t = 2j / (1 - wt) ** 2
    e_ws, e_wsb, e_wt, e_wtb = prop.dphi_disk(lam, ws, wt)
    assert e_ws == pytest.approx(d_s * dz, rel=1e-9, abs=1e-12)
    assert e_wsb == pytest.approx(d_sb * np.conj(dz), rel=1e-9, abs=1e-12)
    assert e_wt == pytest.approx(d_t * dz_t, rel=1e-9, abs=1e-12)
    assert e_wtb == pytest.approx(d_tb * np.conj(dz_t), rel=1e-9, abs=1e-12)


def test_shoikhet_is_center_subtracted():
    lam = 0.3 + 0.1j
    ws, wt = 0.4 + 0.2j, -0.3 + 0.1j
    direct = prop.phi_shoikhet(lam, ws, wt)
    diff = prop.phi_disk(lam, ws, wt) - prop.phi_disk(lam, ws, 0.0)
    # equality holds modulo the principal-branch lattice of the split logs
    gap = complex(direct - diff)
    lattice = gap * 2j * np.pi
    assert min(abs(lattice.real % (2 * np.pi)),
               2 * np.pi - abs(lattice.real % (2 * np.pi))) < 1e-9 \
        or abs(gap) < 1e-9


@pytest.mark.parametrize("dfun", [
    prop.dphi_h, prop.dphi_disk, prop.dphi_shoikhet, prop.dphi_disk_source,
    prop.dphi_shoikhet_source, prop.dphi_disk_target])
def test_differentials_do_not_depend_on_the_array_length(dfun):
    """A sample's coefficients are the same bit for bit in a 16,384-point
    block (256 KiB of complex values, where numpy starts to reuse
    temporaries in place) and in the halves a split block evaluates."""
    rng = np.random.default_rng(7)
    ws = 0.5 * rng.random(16_384) * np.exp(2j * np.pi * rng.random(16_384))
    if dfun is prop.dphi_h:
        ws = prop.mobius_to_h(ws)
    wt = ws[::-1].copy()
    whole = dfun(0.3 + 0.2j, ws, wt)
    halves = [dfun(0.3 + 0.2j, ws[half], wt[half])
              for half in (slice(None, 8_192), slice(8_192, None))]
    for k, coeff in enumerate(whole):
        assert np.array_equal(coeff, np.concatenate([h[k] for h in halves]))


def _one_piece(lam, l_s, l_sb, l_t):
    """The four Wirtinger coefficients, one expression each, with no
    halves: the reference the halves are checked against."""
    c_lam = lam / prop.TWO_PI_I
    c_mu = (1 - lam) / prop.TWO_PI_I
    return (c_lam * l_s - np.multiply(c_mu, np.conj(l_sb)),
            c_lam * l_sb - np.multiply(c_mu, np.conj(l_s)),
            c_lam * l_t,
            np.multiply(-c_mu, np.conj(l_t)))


def _one_piece_disk(lam, ws, wt, shoikhet):
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    wsb = np.conj(ws)
    a = 1.0 / (ws - wt)
    d = 1 - wsb * wt
    if shoikhet:
        return _one_piece(lam, a - 1.0 / ws, wt / d, wsb / d - a)
    b = 1.0 / (1 - ws)
    return _one_piece(lam, a + b, wt / d - np.conj(b), wsb / d - a)


@pytest.mark.parametrize("n", [1_000, 20_000])
@pytest.mark.parametrize("lam", [0.5, 0.3 + 0.2j])
def test_halves_are_slices_of_the_differentials(lam, n):
    """Each half equals its slice of dphi_disk and dphi_shoikhet, and of
    the one-piece formulas, bit for bit: on two arrays, and with a scalar
    at either end as a one-point integral calls them.  At 20,000 points a
    complex array is past the 256 KiB from which numpy reuses temporaries
    in place."""
    rng = np.random.default_rng(5)
    ws, wt = (np.sqrt(rng.uniform(0, 0.9, n))
              * np.exp(2j * np.pi * rng.uniform(size=n)) for _ in range(2))
    for shoikhet, full, source in (
            (False, prop.dphi_disk, prop.dphi_disk_source),
            (True, prop.dphi_shoikhet, prop.dphi_shoikhet_source)):
        for s, t in ((ws, wt), (ws, 0.35 + 0.2j), (-0.25 + 0.4j, wt)):
            halves = source(lam, s, t) + prop.dphi_disk_target(lam, s, t)
            for half, whole, ref in zip(halves, full(lam, s, t),
                                        _one_piece_disk(lam, s, t, shoikhet)):
                assert np.array_equal(half, whole)
                assert np.array_equal(half, ref)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("lam", [0.5, 0.25, 1, 0.3 + 0.2j])
def test_one_half_of_dphi_h_is_that_half_of_the_full_call(lam):
    """dphi_h with one half turned off returns the other half with the bits
    and the type of the full call's, and (None, None) for the half it
    skips: at complex and real-typed targets (a ground point), on arrays
    long enough for numpy's SIMD loops and on length-1 arrays and
    scalars."""
    rng = np.random.default_rng(11)
    s = rng.standard_normal(4_099) + 1j * rng.exponential(size=4_099)
    t_real = rng.standard_cauchy(4_099)
    cases = [(s, np.roll(s, 1)), (s, t_real), (s[:1], s[1:2]),
             (s[:1], t_real[:1]), (s[0], s[1]), (s[0], t_real[0]),
             (complex(s[0]), float(t_real[0]))]
    for ss, tt in cases:
        full = prop.dphi_h(lam, ss, tt)
        for source, target in ((True, False), (False, True),
                               (False, False)):
            got = prop.dphi_h(lam, ss, tt, source=source, target=target)
            want = full[:2] if source else (None, None)
            want += full[2:] if target else (None, None)
            for a, b in zip(got, want):
                if b is None:
                    assert a is None
                else:
                    assert type(a) is type(b) and np.shape(a) == np.shape(b)
                    assert np.array_equal(_bits(a), _bits(b))
