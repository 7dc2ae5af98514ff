"""Formal exponential maps from the covariant jet recursion, with an ODE
oracle.

The geodesic flow from a base point solves d^2 phi/dt^2 + Gamma(dphi, dphi)
= 0; expanding phi in the initial velocity gives

    phi^i(u, v) = u^i + v^i - sum_{n >= 0} T_n^i(u, v) / (n+2)!,
    T_n^i = (nabla^n Gamma)^(i)(v, ..., v),

where nabla differentiates the lower indices only (the raised index is
never touched).  Only these velocity-contracted tensors enter, so they
are built directly: T_0 = Gamma^i(u; v, v) and

    T_{n+1}^i = v^b d_{u^b} T_n^i - Gamma^c(u; v, v) d_{v^c} T_n^i,

d polynomials per step (CovariantTensorJet).

Polynomials live in 2*dim variables: the first dim are offsets u from the
base point, the last dim are fiber velocities v.  All outputs are the
offsets phi^i - base^i, so irrational base data (a sphere base angle, say)
never enters the exact arithmetic -- closed-form charts only need the
metric entries at the base point as exact rationals.

A fixed-step 4th-order integrator of the geodesic equations, fed float
Christoffel symbols (a point where they fail is a ValueError), acts as an
independent numeric oracle, and the commutative (hbar-free, Pi-free)
flat-section recursion tau = (1 - delta_inv nabla)^{-1}, summed as a
terminating Neumann series, recomputes the same series a third way.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import factorial

from .exactnum import QC
from .exactpoly import (Poly, accumulate, matrix_inverse_jet, neumann,
                        poly_matrix, sin_jet)
from .weyl import WeylElement


# ---------------------------------------------------------------------
# metric jets
# ---------------------------------------------------------------------

def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"invalid order {order}: a jet order must be >= 0")


class MetricJet:
    """Symmetric metric jets around a base point with derived Christoffel
    jets Gamma^k_{ij} = (1/2) g^{km} (d_i g_{mj} + d_j g_{mi} - d_m g_{ij}).
    """

    def __init__(self, dim: int, order: int, g):
        _check_order(order)
        self.dim = dim
        self.order = order
        self.g = poly_matrix(dim, g, 1, "metric jets", order)
        self.g_inv = matrix_inverse_jet(self.g, order, "metric is singular")
        self.gamma = self._christoffel()

    def _christoffel(self):
        d = self.dim
        gamma = [[[Poly.zero(d, self.order) for _ in range(d)]
                  for _ in range(d)] for _ in range(d)]
        for k in range(d):
            for i in range(d):
                for j in range(i, d):
                    acc = Poly.zero(d, self.order)
                    for m in range(d):
                        acc = acc + self.g_inv[k][m] * (
                            self.g[m][j].diff(i) + self.g[m][i].diff(j)
                            - self.g[i][j].diff(m))
                    acc = acc * QC(Fraction(1, 2))
                    gamma[k][i][j] = acc
                    gamma[k][j][i] = acc
        return gamma

    # -- stock charts -------------------------------------------------

    @staticmethod
    def flat(dim: int, order: int) -> "MetricJet":
        return MetricJet(dim, order, [[int(i == j) for j in range(dim)]
                                      for i in range(dim)])

    @staticmethod
    def sphere(order: int) -> "MetricJet":
        """Unit round sphere in polar/azimuthal coordinates, expanded
        around the base polar angle asin(3/5) (exact sine 3/5, cosine
        4/5)."""
        s = sin_jet(Fraction(3, 5), Fraction(4, 5), 2, 0, order)
        return MetricJet(2, order, [[1, 0], [0, s * s]])

    @staticmethod
    def poincare_half_plane(order: int) -> "MetricJet":
        """Hyperbolic upper half plane (dx1^2 + dx2^2)/x2^2 around the
        base point with second coordinate 1."""
        _check_order(order)     # the inverse below runs before __init__
        x2 = Poly.one(2, order) + Poly.var(2, 1, order)
        w = x2.inverse()
        w2 = w * w
        return MetricJet(2, order, [[w2, 0], [0, w2]])

    @staticmethod
    def random_metric(dim: int, order: int, rng: random.Random
                      ) -> "MetricJet":
        """Identity plus a small random polynomial perturbation (symmetric,
        exact rational coefficients); invertible near the base point."""
        g = [[Poly.const(dim, 1 if i == j else 0, order)
              for j in range(dim)] for i in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                pert = Poly.zero(dim, order)
                for _ in range(3):
                    e = [0] * dim
                    e[rng.randrange(dim)] += 1
                    if rng.random() < 0.5:
                        e[rng.randrange(dim)] += 1
                    c = QC(Fraction(rng.randrange(-2, 3), 4))
                    pert = pert + Poly(dim, {tuple(e): c}, order)
                g[i][j] = g[i][j] + pert
                if j != i:
                    g[j][i] = g[i][j]
        return MetricJet(dim, order, g)


# ---------------------------------------------------------------------
# velocity-contracted covariant tensors
# ---------------------------------------------------------------------

class CovariantTensorJet:
    """T^i(u, v) = (nabla^n Gamma)^(i)(v, ..., v): d Polys in (u, v).

    nabla_lower takes T_n to T_{n+1} by the covariant rule contracted with
    one more velocity; it never differentiates the raised index:

        T_{n+1}^i = v^b d_{u^b} T_n^i - Gamma^c(u; v, v) d_{v^c} T_n^i

    With metric jet order N, T_n is homogeneous of v-degree n + 2 and
    exact to total degree N + 1 (u-degree N - 1 - n), so every product is
    cut there; the derivatives are re-cut at N + 1 too, since Poly.diff
    lowers trunc by one but v^b d_{u^b} keeps the total degree.
    """

    def __init__(self, comps, gamma_vv, cut: int):
        self.dim = len(comps)
        self.comps = comps
        self.gamma_vv = gamma_vv
        self.cut = cut

    @staticmethod
    def from_christoffel(metric: MetricJet) -> "CovariantTensorJet":
        d, cut = metric.dim, metric.order + 1
        gamma_vv = []
        for k in range(d):
            terms = {}
            for i in range(d):
                for j in range(d):
                    vv = tuple((m == i) + (m == j) for m in range(d))
                    for e, c in metric.gamma[k][i][j].terms.items():
                        accumulate(terms, e + vv, c)
            gamma_vv.append(Poly(2 * d, terms, cut))
        return CovariantTensorJet(gamma_vv, gamma_vv, cut)

    def nabla_lower(self) -> "CovariantTensorJet":
        d, cut = self.dim, self.cut
        out = []
        for t in self.comps:
            dt = [Poly(2 * d, t.diff(k).terms, cut) for k in range(2 * d)]
            out.append(sum((Poly.var(2 * d, d + b, cut) * dt[b]
                            - self.gamma_vv[b] * dt[d + b]
                            for b in range(d)), Poly.zero(2 * d, cut)))
        return CovariantTensorJet(out, self.gamma_vv, cut)


# ---------------------------------------------------------------------
# the exponential-map series
# ---------------------------------------------------------------------

def _reliability_trim(p: Poly, dim: int, order: int) -> Poly:
    """Drop (u, v) terms beyond the jet-reliability ladder.

    Each covariant step consumes one order of metric jet, so the v^k
    coefficient (k >= 2) of the series is only determined to u-degree
    order + 1 - k.  exp_map_series stays in this region by construction;
    trimming the flat-section recursion to it makes their agreement an
    exact polynomial identity.
    """
    out = {}
    for e, c in p.terms.items():
        k = sum(e[dim:])
        if k >= 2 and sum(e[:dim]) > order + 1 - k:
            continue
        out[e] = c
    return Poly(2 * dim, out)


def exp_map_series(metric: MetricJet, order: int):
    """Per-coordinate offset series phi^i - base^i as Polys in (u, v).

    order bounds the total v-degree; it may not exceed the metric jet
    order (each nabla consumes one order of x-differentiation).  Every
    term lies in the jet-reliability region of ``_reliability_trim``.
    """
    if order > metric.order:
        raise ValueError(
            f"series order {order} exceeds metric jet order {metric.order}")
    d = metric.dim
    phi = [Poly.var(2 * d, i) + Poly.var(2 * d, d + i) for i in range(d)]
    tensor = CovariantTensorJet.from_christoffel(metric)
    for n in range(order - 1):
        coeff = QC(Fraction(-1, factorial(n + 2)))
        phi = [p + t * coeff for p, t in zip(phi, tensor.comps)]
        if n < order - 2:
            tensor = tensor.nabla_lower()
    # untruncated, so that arithmetic with another series keeps every term
    return [Poly(2 * d, p.terms) for p in phi]


def series_eval(phi, u, v):
    """Evaluate exponential-map components at numeric (u, v)."""
    vals = list(u) + list(v)
    return [p.eval_complex(vals) for p in phi]


def restrict_velocity(p: Poly, dim: int, direction) -> Poly:
    """Substitute v = t * direction, returning a Poly in (u, t)."""
    out = {}
    for e, c in p.terms.items():
        scale = QC(1)
        t_deg = 0
        for k in range(dim):
            vk = e[dim + k]
            if vk:
                dk = QC.coerce(direction[k])
                if dk.is_zero():
                    scale = QC(0)
                    break
                scale = scale * dk ** vk
                t_deg += vk
        if scale.is_zero():
            continue
        accumulate(out, e[:dim] + (t_deg,), c * scale)
    return Poly(dim + 1, out)


# ---------------------------------------------------------------------
# numeric oracle: fixed-step RK4 on the geodesic equations
# ---------------------------------------------------------------------

def geodesic_ode_oracle(gamma_fn, x, v, t: float, steps: int = 4000):
    """Integrate d^2 phi/dt^2 + Gamma^k(dphi, dphi) = 0 in the plane from
    (x, v) for time t.  gamma_fn(point) -> nested [k][i][j] floats.
    Returns the end point; classic 4th-order Runge-Kutta with a fixed
    step, on four float locals (_rk4_plane).  A point where gamma_fn
    raises ArithmeticError is named in a ValueError, as is a dimension
    other than 2, the only one the package builds metrics in.

    The d^2 terms of an acceleration are added left to right from int 0
    (the floats sum() gave before Python 3.12, which compensates) and
    every update is formed in one fixed operand order.  The order is
    fixed because float addition does not associate: any other order
    moves last bits of the end point, and with them the reports that
    print it.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if len(x) != 2:
        raise ValueError(f"the oracle integrates in the plane only, "
                         f"got d = {len(x)}")
    h = t / steps
    if abs(h) < 1e-15:
        raise ValueError("step underflow")
    return _rk4_plane(gamma_fn, x, v, h, steps)


def _invalid_point(pos, exc):
    return ValueError(f"invalid point {pos}: the Christoffel symbols "
                      f"cannot be evaluated there ({exc})")


def _rk4_plane(gamma_fn, x, v, h, steps):
    """geodesic_ode_oracle's steps on scalars, each operation in the
    order of the d-dimensional list loop the tests keep as reference:
    acceleration terms (00, 01, 10, 11) from int 0, 0.5 * h * b as
    (0.5 * h) * b and the update as a + h / 6.0 * (b1 + 2 * b2 + 2 * b3
    + b4)."""
    hh, h6 = 0.5 * h, h / 6.0

    def acc(p0, p1, w0, w1):
        pos = [p0, p1]
        try:
            g0, g1 = gamma_fn(pos)
        except ArithmeticError as exc:
            raise _invalid_point(pos, exc) from exc
        a, b = g0
        c, e = g1
        return (-(0 + a[0] * w0 * w0 + a[1] * w0 * w1
                  + b[0] * w1 * w0 + b[1] * w1 * w1),
                -(0 + c[0] * w0 * w0 + c[1] * w0 * w1
                  + e[0] * w1 * w0 + e[1] * w1 * w1))

    x0, x1, v0, v1 = float(x[0]), float(x[1]), float(v[0]), float(v[1])
    for _ in range(steps):
        a0, a1 = acc(x0, x1, v0, v1)
        p0, p1, w0, w1 = x0 + hh * v0, x1 + hh * v1, v0 + hh * a0, v1 + hh * a1
        b0, b1 = acc(p0, p1, w0, w1)
        q0, q1, u0, u1 = x0 + hh * w0, x1 + hh * w1, v0 + hh * b0, v1 + hh * b1
        c0, c1 = acc(q0, q1, u0, u1)
        r0, r1, z0, z1 = x0 + h * u0, x1 + h * u1, v0 + h * c0, v1 + h * c1
        e0, e1 = acc(r0, r1, z0, z1)
        x0, x1, v0, v1 = (x0 + h6 * (v0 + 2 * w0 + 2 * u0 + z0),
                          x1 + h6 * (v1 + 2 * w1 + 2 * u1 + z1),
                          v0 + h6 * (a0 + 2 * b0 + 2 * c0 + e0),
                          v1 + h6 * (a1 + 2 * b1 + 2 * c1 + e1))
    return [x0, x1]


def series_vs_ode(phi, gamma_fn, base, u, v, t: float, steps: int):
    """Series endpoint, RK4 endpoint and their largest coordinate gap for
    the geodesic from base + u with velocity v after time t.  The ODE
    starts at base + u; the offset series phi, taken about ``base``,
    already contains u, so its endpoint is base + phi(u, v t)."""
    start = [b + c for b, c in zip(base, u)]
    ode = geodesic_ode_oracle(gamma_fn, start, v, t, steps=steps)
    sv = series_eval(phi, u, [c * t for c in v])
    ser = [b + c.real for b, c in zip(base, sv)]
    return ser, ode, max(abs(a - b) for a, b in zip(ser, ode))


def sphere_gamma_fn(point):
    th = point[0]
    s, c = math.sin(th), math.cos(th)
    cot = c / s
    return [[[0.0, 0.0], [0.0, -s * c]],
            [[0.0, cot], [cot, 0.0]]]


def poincare_gamma_fn(point):
    w = 1.0 / point[1]
    return [[[0.0, -w], [-w, 0.0]],
            [[w, 0.0], [0.0, -w]]]


def metric_gamma_fn(metric: MetricJet):
    """Float Christoffel callable from the jets (valid near the base).  The
    coefficients turn complex once; a call sums each Gamma^k_{ij} with
    i <= j once, in Poly.eval_complex's term order, and mirrors it.  The
    powers of the (real) coordinates come from one table per call, each
    x^n formed as CPython's complex ** int forms its real part (_powers),
    so the sums are eval_complex's bit for bit; a power that overflows is
    taken by complex ** int itself, which raises OverflowError as the
    term loop did."""
    d = metric.dim
    jets = [(k, i, j, [(c.to_complex(),
                        [(m, n) for m, n in enumerate(e) if n])
                       for e, c in metric.gamma[k][i][j].terms.items()])
            for k in range(d) for i in range(d) for j in range(i, d)]
    used = sorted({mn for *_, terms in jets for _, powers in terms
                   for mn in powers})
    top = [max((n for m2, n in used if m2 == m), default=0) for m in range(d)]

    def fn(point):
        pw = [_powers(float(x), n) for x, n in zip(point, top)]
        for m, n in used:
            if not math.isfinite(pw[m][n]):
                # complex ** int's own value, or its OverflowError
                pw[m][n] = complex(point[m]) ** n
        out = [[[0.0] * d for _ in range(d)] for _ in range(d)]
        for k, i, j, terms in jets:
            total = 0j
            for term, powers in terms:
                for m, n in powers:
                    term *= pw[m][n]
                total += term
            out[k][i][j] = out[k][j][i] = total.real
        return out
    return fn


def _powers(x: float, top: int) -> list:
    """[1, x, ..., x^top] as CPython's complex ** int forms the real part:
    x^n is the product of the squares x^(2^b) over the bits b of n, lowest
    bit first, so x^n = x^(n - 2^h) * x^(2^h) for the highest bit h (and
    x^(2^h) alone when n = 2^h).  The imaginary parts it carries are
    signed zeros, which no real part of a product or sum sees."""
    out = [1.0]
    square = x
    for n in range(1, top + 1):
        if n & (n - 1) == 0:            # a power of two
            if n > 1:
                square = square * square
            out.append(square)
        else:
            out.append(out[n - (1 << n.bit_length() - 1)] * square)
    return out


# ---------------------------------------------------------------------
# the commutative flat-section recursion
# ---------------------------------------------------------------------

def classical_fedosov_taylor(metric: MetricJet, index: int, order: int
                             ) -> Poly:
    """tau(x^index) via the commutative fixed point
    a = u_index + delta_inv(nabla a) on fiberwise polynomials, summed as
    the Neumann series of delta_inv nabla and returned as a Poly in
    (u, v); contracts to exp_map_series component index."""
    if order > metric.order:
        raise ValueError("order exceeds metric jet order")
    d = metric.dim
    seed = WeylElement.from_function(Poly.var(d, index, metric.order),
                                     d, order)
    a = neumann(lambda x: x.nabla(metric.gamma).delta_inv(), seed,
                order + 2, "flat-section recursion")
    terms = {}
    for (vexp, dxs, hpow), p in a.terms.items():
        assert hpow == 0 and dxs == ()
        terms.update((e + tuple(vexp), c) for e, c in p.terms.items())
    return _reliability_trim(Poly(2 * d, terms), d, metric.order)


def flat_section_mismatches(metric: MetricJet, phi, order: int) -> int:
    """How many components of phi = exp_map_series(metric, order) differ
    from the flat-section recursion (0 when all agree)."""
    return sum(1 for i in range(metric.dim)
               if classical_fedosov_taylor(metric, i, order) != phi[i])
