"""Interpolation propagator family and its differentials.

The two-point angle function on the upper half-plane H, for a complex
interpolation parameter lam:

    phi(s, t) = (1/2 pi i) [ lam ln((t-s)/(t-cj s)) - (1-lam) ln((cj t-cj s)/(cj t-s)) ]

lam = 1/2 is the harmonic angle (1/2pi) arg((t-s)/(t-cj s)); lam = 1 the
holomorphic ("logarithmic") member; lam = 0 its mirror.  Values are computed
as sums of principal logarithms (branch cuts are a measure-zero set and only
affect values, never the differentials, which are rational).  All sampling
and integration code uses only the Wirtinger derivatives below, so it is
branch-free.

Disk versions (unit disk model via w = (z-i)/(z+i)) and the center-subtracted
disk propagator used for cyclic-linear quantization are included, together
with the transitive "central" form.

Functions are numpy-vectorized: scalars or same-shape arrays work alike.
"""

from __future__ import annotations

import numpy as np

TWO_PI_I = 2j * np.pi


def mobius_to_disk(z):
    """H -> unit disk, i -> 0."""
    return (z - 1j) / (z + 1j)


def mobius_to_h(w):
    """unit disk -> H, 0 -> i."""
    return 1j * (1 + w) / (1 - w)


# ---------------------------------------------------------------------
# upper half-plane family
# ---------------------------------------------------------------------

def phi_h(lam, s, t):
    """Propagator value on H (source s, target t).

    The two logarithm halves are kept branch-coherent (the second is the
    exact conjugate of the first), so lam = 1/2 reproduces phi_angle
    exactly rather than up to an integer.
    """
    s, t = np.asarray(s, complex), np.asarray(t, complex)
    ln_a = np.log((t - s) / (t - np.conj(s)))
    return (lam * ln_a - (1 - lam) * np.conj(ln_a)) / TWO_PI_I


def phi_angle(s, t):
    """lam = 1/2 closed form, (1/2pi) arg((t-s)/(t-cj s))."""
    s, t = np.asarray(s, complex), np.asarray(t, complex)
    return np.angle((t - s) / (t - np.conj(s))) / (2 * np.pi)


def dphi_h(lam, s, t):
    """Wirtinger coefficients (d/ds, d/d cj s, d/dt, d/d cj t) of phi_h.

    These are rational in (s, cj s, t, cj t); no logarithm branches enter.
    Only two reciprocals are taken, a = 1/(t - s) and b = 1/(t - cj s):
    the other two denominators are their conjugates, 1/(cj t - cj s) =
    cj a and 1/(cj t - s) = cj b.
    """
    s, t = np.asarray(s, complex), np.asarray(t, complex)
    c_lam = lam / TWO_PI_I
    c_mu = (1 - lam) / TWO_PI_I
    a = 1.0 / (t - s)
    b = 1.0 / (t - np.conj(s))
    a_b = a - b
    d_s = -c_lam * a - c_mu * np.conj(b)
    d_sb = c_lam * b + c_mu * np.conj(a)
    d_t = c_lam * a_b
    d_tb = -c_mu * np.conj(a_b)
    return d_s, d_sb, d_t, d_tb


# ---------------------------------------------------------------------
# unit-disk family
# ---------------------------------------------------------------------

def phi_disk(lam, ws, wt):
    """Disk-model propagator.

    Equals the pullback of phi_h through mobius_to_disk up to a locally
    constant half-integer (the disk ratio is -1 times the transported
    half-plane ratio); the differentials coincide exactly.
    """
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    wsb = np.conj(ws)
    ln_q = np.log((1 - wsb) * (ws - wt) / ((1 - ws) * (1 - wsb * wt)))
    return (lam * ln_q - (1 - lam) * np.conj(ln_q)) / TWO_PI_I


def dphi_disk(lam, ws, wt):
    """Wirtinger coefficients (d/dws, d/d cj ws, d/dwt, d/d cj wt)."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    wsb, wtb = np.conj(ws), np.conj(wt)
    c = 1.0 / TWO_PI_I
    mu = 1 - lam
    # ln Q = ln(1-wsb) + ln(ws-wt) - ln(1-ws) - ln(1-wsb*wt)
    q_ws = 1.0 / (ws - wt) + 1.0 / (1 - ws)
    q_wsb = -1.0 / (1 - wsb) + wt / (1 - wsb * wt)
    q_wt = -1.0 / (ws - wt) + wsb / (1 - wsb * wt)
    # ln Qbar = ln(1-ws) + ln(wsb-wtb) - ln(1-wsb) - ln(1-ws*wtb)
    r_ws = -1.0 / (1 - ws) + wtb / (1 - ws * wtb)
    r_wsb = 1.0 / (wsb - wtb) + 1.0 / (1 - wsb)
    r_wtb = -1.0 / (wsb - wtb) + ws / (1 - ws * wtb)
    d_ws = c * (lam * q_ws - mu * r_ws)
    d_wsb = c * (lam * q_wsb - mu * r_wsb)
    d_wt = c * lam * q_wt
    d_wtb = c * (-mu) * r_wtb
    return d_ws, d_wsb, d_wt, d_wtb


# ---------------------------------------------------------------------
# center-subtracted disk family (cyclic-linear / disk quantization)
# ---------------------------------------------------------------------

def phi_shoikhet(lam, ws, wt):
    """Disk propagator minus its value on the target at the center:
    phi_disk(ws, wt) - phi_disk(ws, 0)."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    wsb = np.conj(ws)
    ln_x = np.log((ws - wt) / (ws * (1 - wsb * wt)))
    return (lam * ln_x - (1 - lam) * np.conj(ln_x)) / TWO_PI_I


def dphi_shoikhet(lam, ws, wt):
    """Wirtinger coefficients (d/dws, d/d cj ws, d/dwt, d/d cj wt)."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    wsb, wtb = np.conj(ws), np.conj(wt)
    c = 1.0 / TWO_PI_I
    mu = 1 - lam
    x_ws = 1.0 / (ws - wt) - 1.0 / ws
    x_wsb = wt / (1 - wsb * wt)
    x_wt = -1.0 / (ws - wt) + wsb / (1 - wsb * wt)
    xb_ws = wtb / (1 - ws * wtb)
    xb_wsb = 1.0 / (wsb - wtb) - 1.0 / wsb
    xb_wtb = -1.0 / (wsb - wtb) + ws / (1 - ws * wtb)
    d_ws = c * (lam * x_ws - mu * xb_ws)
    d_wsb = c * (lam * x_wsb - mu * xb_wsb)
    d_wt = c * lam * x_wt
    d_wtb = c * (-mu) * xb_wtb
    return d_ws, d_wsb, d_wt, d_wtb


def phi_shoikhet_center(lam, wt, u1=1.0 + 0j):
    """Center-sourced limit: (1/2pi i)[lam ln(wt/u1) - (1-lam) ln(cj wt/cj u1)].

    On the unit circle wt = exp(i a), u1 = 1 this is (1/2pi) * a (the
    normalized boundary angle), and 0 at wt = u1.
    """
    wt = np.asarray(wt, complex)
    ln = np.log(wt / complex(u1))
    return (lam * ln - (1 - lam) * np.conj(ln)) / TWO_PI_I


def phi_central(lam, ws, wt):
    """Transitive central form (1/2pi i)[lam ln(ws/wt) - (1-lam) ln(cj ws/cj wt)].

    Satisfies f(x,y) + f(y,z) = f(x,z) up to the 2 pi branch lattice of the
    separate principal logs; the Wirtinger differentials are exactly
    transitive.
    """
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    ln = np.log(ws / wt)
    return (lam * ln - (1 - lam) * np.conj(ln)) / TWO_PI_I


# ---------------------------------------------------------------------
# real-coordinate helpers
# ---------------------------------------------------------------------

def wirtinger_to_xy(d_z, d_zb):
    """(d/dz, d/d cj z) -> (d/dx, d/dy) coefficients."""
    return d_z + d_zb, 1j * (d_z - d_zb)
