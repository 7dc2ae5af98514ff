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
disk propagator used for cyclic-linear quantization are included.

One rule interpolates every model.  A model supplies only its log-ratio L
(ln((t-s)/(t-cj s)) on H, ln Q on the disk, ...); the value is
(lam L - (1-lam) cj L) / 2 pi i (``_phi``), and the differentials follow
from L's own Wirtinger derivatives alone (``_source_half`` and
``_target_half``, which every dphi_* goes through), because the second
half is the conjugate of the first: ln cj Q = cj ln Q.

Each dphi_* joins a source half (d/ds, d/d cj s) and a target half (d/dt,
d/d cj t); an edge of a one-point integral reads one half, and an edge of
a weight whose endpoint is the pinned vertex reads one half of dphi_h
(``dphi_h``'s ``source`` and ``target``).  The two disk
models' log-ratios differ by a function of ws alone, so they share one
target half (``dphi_disk_target``), and center-subtracted in-in equals
disk in-in by construction.

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
# the lambda rule shared by every model
# ---------------------------------------------------------------------

def _phi(lam, ln):
    """The family value (lam L - (1-lam) cj L) / 2 pi i of a log-ratio L."""
    return (lam * ln - (1 - lam) * np.conj(ln)) / TWO_PI_I


def _source_half(lam, l_s, l_sb):
    """(d/ds, d/d cj s) of _phi(lam, L) from L_s and L_{cj s}: with c_lam =
    lam / 2 pi i and c_mu = (1-lam) / 2 pi i, the conjugate half adds
    -c_mu cj(L_{cj z}) to d/dz, since d/dz cj L = cj(d/d cj z L)."""
    c_lam = lam / TWO_PI_I
    c_mu = (1 - lam) / TWO_PI_I
    d_s, d_sb, x = (_fresh(l_s, l_sb) for _ in range(3))
    # c_mu times cj(L), never the reverse (a complex product rounds
    # differently with its factors swapped), and no product over its own
    # operand (numpy 2.4 rounds that differently at length 1)
    np.multiply(c_mu, np.conjugate(l_sb, out=x), out=d_sb)
    np.subtract(np.multiply(c_lam, l_s, out=d_s), d_sb, out=d_s)
    np.multiply(c_mu, np.conjugate(l_s, out=x), out=d_sb)
    np.subtract(np.multiply(c_lam, l_sb, out=x), d_sb, out=d_sb)
    return d_s[()], d_sb[()]


def _target_half(lam, l_t):
    """(d/dt, d/d cj t) of _phi(lam, L) from L_t; L is holomorphic in t,
    so d/dt has no mu part and d/d cj t no lam part."""
    d_t = np.conjugate(l_t, out=_fresh(l_t))
    d_tb = np.multiply(-((1 - lam) / TWO_PI_I), d_t)
    return np.multiply(lam / TWO_PI_I, l_t, out=d_t)[()], d_tb


def _fresh(*xs):
    """A new complex array of the broadcast shape of xs (0-d for scalars),
    for a chain of ufuncs that writes into it with out=; the public
    functions return [()] of it, a scalar for scalar input."""
    return np.empty(np.broadcast(*xs).shape, complex)


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
    return _phi(lam, np.log((t - s) / (t - np.conj(s))))


def phi_angle(s, t):
    """lam = 1/2 closed form, (1/2pi) arg((t-s)/(t-cj s))."""
    s, t = np.asarray(s, complex), np.asarray(t, complex)
    return np.angle((t - s) / (t - np.conj(s))) / (2 * np.pi)


def dphi_h(lam, s, t, source=True, target=True):
    """Wirtinger coefficients (d/ds, d/d cj s, d/dt, d/d cj t) of phi_h.

    These are rational in (s, cj s, t, cj t); no logarithm branches enter.
    With a = 1/(t - s) and b = 1/(t - cj s), L = ln(t-s) - ln(t - cj s)
    has L_s = -a, L_{cj s} = b and L_t = a - b: two reciprocals.  A t of
    real dtype (a ground point) takes one: there t - cj s = cj(t - s), and
    numpy's complex division commutes with conjugation, so b = cj a bit
    for bit; t - s is formed from its real and imaginary parts, as numpy
    forms it after casting t to complex.

    Halves: with ``source`` (``target``) false, the source (target) half
    is (None, None) and neither it nor its derivative of L is formed.  A
    half that is returned has the bits of the same half of the full call,
    since every step is elementwise and no step writes over an operand
    that the other half reads.
    """
    s = np.asarray(s, complex)
    a = _fresh(s, t)
    if np.isrealobj(t):
        np.subtract(t, s.real, out=a.real)
        np.subtract(0.0, s.imag, out=a.imag)
        np.divide(1.0, a, out=a)
        b = np.conjugate(a)
    else:
        t = np.asarray(t, complex)
        np.divide(1.0, np.subtract(t, s, out=a), out=a)
        b = np.conjugate(s, out=_fresh(s, t))
        np.divide(1.0, np.subtract(t, b, out=b), out=b)
    halves = (None, None)
    if target:
        halves = _target_half(lam, np.subtract(a, b, out=_fresh(a)))
    if not source:
        return (None, None) + halves
    # -a as float pairs: the same bits as numpy's complex negative, which
    # is several times slower
    np.negative(a.reshape(-1).view(float), out=a.reshape(-1).view(float))
    return _source_half(lam, a, b) + halves


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
    return _phi(lam, np.log((1 - wsb) * (ws - wt)
                            / ((1 - ws) * (1 - wsb * wt))))


def dphi_disk(lam, ws, wt):
    """Wirtinger coefficients (d/dws, d/d cj ws, d/dwt, d/d cj wt)."""
    return dphi_disk_source(lam, ws, wt) + dphi_disk_target(lam, ws, wt)


def dphi_disk_source(lam, ws, wt):
    """(d/dws, d/d cj ws) of L = ln(1 - cj ws) + ln(ws - wt) - ln(1 - ws)
    - ln(1 - cj ws wt); 1/(1 - cj ws) is the conjugate of 1/(1 - ws)."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    a = 1.0 / (ws - wt)
    b = 1.0 / (1 - ws)
    d = 1 - np.conj(ws) * wt
    return _source_half(lam, a + b, wt / d - np.conj(b))


def dphi_disk_target(lam, ws, wt):
    """(d/dwt, d/d cj wt) of phi_disk and of phi_shoikhet."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    wsb = np.conj(ws)
    return _target_half(lam, wsb / (1 - wsb * wt) - 1.0 / (ws - wt))


# ---------------------------------------------------------------------
# center-subtracted disk family (cyclic-linear / disk quantization)
# ---------------------------------------------------------------------

def phi_shoikhet(lam, ws, wt):
    """Disk propagator minus its value on the target at the center:
    phi_disk(ws, wt) - phi_disk(ws, 0)."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    return _phi(lam, np.log((ws - wt) / (ws * (1 - np.conj(ws) * wt))))


def dphi_shoikhet(lam, ws, wt):
    """Wirtinger coefficients (d/dws, d/d cj ws, d/dwt, d/d cj wt)."""
    return dphi_shoikhet_source(lam, ws, wt) + dphi_disk_target(lam, ws, wt)


def dphi_shoikhet_source(lam, ws, wt):
    """(d/dws, d/d cj ws) of L = ln(ws - wt) - ln(ws) - ln(1 - cj ws wt)."""
    ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
    return _source_half(lam, 1.0 / (ws - wt) - 1.0 / ws,
                        wt / (1 - np.conj(ws) * wt))


# ---------------------------------------------------------------------
# real-coordinate helpers
# ---------------------------------------------------------------------

def wirtinger_to_xy(d_z, d_zb):
    """(d/dz, d/d cj z) -> (d/dx, d/dy) coefficients."""
    d_y = np.subtract(d_z, d_zb, out=_fresh(d_z, d_zb))
    return d_z + d_zb, np.multiply(1j, d_y, out=d_y)[()]
