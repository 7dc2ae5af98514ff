"""Fedosov fixed-point machinery on polynomial jets over R^d.

Everything runs inside the Deg-truncated Weyl algebra of ``weyl``:

  * curvature data for a torsion-free connection, and the fiber-quadratic
    curvature element R = (1/4) omega_{kr} R^r_{lij} v^k v^l dx^i dx^j;
  * the abelian-connection fixed point
        r = delta_inv(Omega + R + nabla r + (i/hbar) r o r),
    solved by iteration (the map raises Deg, so cap+2 rounds stabilize);
    r is the only element found by iterating a nonlinear map;
  * the same element assembled from rooted full binary trees with leaf
        z = (1 - delta_inv nabla)^{-1} delta_inv(Omega + R)
    and node
        (i/2hbar) (1 - delta_inv nabla)^{-1} delta_inv [a, b],
    whose per-leaf-count tree numbers are the Catalan numbers;
  * the Taylor-expansion fixed point tau(f) and the induced star product
        f * g = sigma(tau(f) o tau(g)),
    with tau(f) and the homotopy D^{-1} summed as terminating Neumann
    series of the Deg-raising map delta_inv(nabla + (i/hbar)[r, .]);
    plus an independent constant-coefficient Moyal oracle to pin the
    conventions down in the flat case.

The base is a polynomial neighbourhood of the origin of R^d: symplectic
form, bivector and Christoffel symbols all enter as exact polynomial
matrices.  No manifold-level globalization is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial

from .exactnum import QC
from .exactpoly import Poly, matrix_inverse_jet, neumann, poly_matrix
from .weyl import WeylElement, fixed_point, ihbar_commutator


@dataclass
class FedosovInput:
    """Polynomial input data around the origin of R^d.

    omega   : symplectic form coefficients omega_{ij}(x), antisymmetric.
    pi      : bivector Pi^{kl}(x) entering the fiberwise Weyl product.
    gamma   : Christoffel symbols, gamma[k][i][j] = Gamma^k_{ij}(x),
              symmetric in (i, j); None means the flat connection.
    center  : the closed central 2-form (an hbar-multiple), as a Weyl
              element with fiber-scalar 2-form terms only; None means 0.
    """

    dim: int
    cap: int
    omega: list
    pi: list
    gamma: list | None = None
    center: WeylElement | None = None

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")
        d = self.dim
        self.omega = poly_matrix(d, self.omega, -1, "omega")
        self.pi = poly_matrix(d, self.pi, -1, "pi")
        # exact: an invertible constant term, or ValueError
        matrix_inverse_jet(self.omega, 0, "omega is degenerate")
        if self.gamma is not None:
            self.gamma = [poly_matrix(d, layer, 1, f"Gamma^{k}_ij")
                          for k, layer in enumerate(self.gamma)]
        if self.center is None:
            self.center = WeylElement.zero(d, self.cap)
        for (vexp, dxs, hpow), _ in self.center.terms.items():
            if sum(vexp) != 0 or len(dxs) != 2 or hpow < 1:
                raise ValueError("center must be an hbar-multiple of a "
                                 "fiber-scalar 2-form")
        ext = self.center.nabla(None)
        if not ext.is_zero():
            raise ValueError("center 2-form is not closed")

    # convenience -----------------------------------------------------

    def zero(self) -> WeylElement:
        return WeylElement.zero(self.dim, self.cap)

    def embed(self, f: Poly) -> WeylElement:
        return WeylElement.from_function(f, self.dim, self.cap)


def flat_input(dim: int = 2, cap: int = 6, center: WeylElement | None = None
               ) -> FedosovInput:
    """Standard-symplectic flat plane: omega = dx^1 ^ dx^2, Pi^{12} = 1."""
    if dim != 2:
        raise ValueError(f"flat_input is the plane: dim must be 2, got {dim}")
    return FedosovInput(
        dim, cap,
        omega=[[0, 1], [-1, 0]],
        pi=[[0, 1], [-1, 0]],
        gamma=None,
        center=center)


def curved_input(cap: int) -> FedosovInput:
    """Standard-symplectic plane with the curved torsion-free connection
    Gamma^1_{00} = x_2, every other Christoffel symbol zero."""
    return FedosovInput(
        2, cap,
        omega=[[0, 1], [-1, 0]],
        pi=[[0, 1], [-1, 0]],
        gamma=[[[0, 0], [0, 0]], [[Poly.var(2, 1), 0], [0, 0]]])


# -- curvature --------------------------------------------------------

def curvature_tensor(inp: FedosovInput):
    """R^r_{lij} = d_i G^r_{jl} - d_j G^r_{il} + G^r_{im} G^m_{jl}
    - G^r_{jm} G^m_{il}; zero for the flat connection."""
    d = inp.dim
    zero = Poly.zero(d)
    if inp.gamma is None:
        return [[[[zero] * d for _ in range(d)] for _ in range(d)]
                for _ in range(d)]
    g = inp.gamma
    out = []
    for r in range(d):
        lay_r = []
        for l in range(d):
            lay_l = []
            for i in range(d):
                row = []
                for j in range(d):
                    term = g[r][j][l].diff(i) - g[r][i][l].diff(j)
                    for m in range(d):
                        term = term + g[r][i][m] * g[m][j][l]
                        term = term - g[r][j][m] * g[m][i][l]
                    row.append(term)
                lay_l.append(row)
            lay_r.append(lay_l)
        out.append(lay_r)
    return out


def curvature_element(inp: FedosovInput) -> WeylElement:
    """R = (1/4) omega_{kr} R^r_{lij} v^k v^l dx^i dx^j (fiber degree 2)."""
    d = inp.dim
    rt = curvature_tensor(inp)
    out = inp.zero()
    quarter = Fraction(1, 4)
    for k in range(d):
        for r in range(d):
            if inp.omega[k][r].is_zero():
                continue
            for l in range(d):
                for i in range(d):
                    for j in range(i + 1, d):
                        # dx^i dx^j + dx^j dx^i contributions, i < j kept
                        poly = inp.omega[k][r] * (rt[r][l][i][j]
                                                  - rt[r][l][j][i])
                        if poly.is_zero():
                            continue
                        vexp = [0] * d
                        vexp[k] += 1
                        vexp[l] += 1
                        out = out + WeylElement.monomial(
                            d, inp.cap, poly * quarter,
                            vexp=tuple(vexp), dxs=(i, j))
    return out


# -- the abelian-connection fixed point ------------------------------

def solve_connection(inp: FedosovInput) -> WeylElement:
    """Unique solution of r = delta_inv(center + R + nabla r +
    (i/hbar) r o r) with delta_inv r = 0, by Deg-raising iteration.  r is
    a 1-form, so (i/hbar) r o r = (1/2) (i/hbar)[r, r]."""
    source = inp.center + curvature_element(inp)

    def step(r):
        quad = ihbar_commutator(r, r, inp.pi).scale(Fraction(1, 2))
        return (source + r.nabla(inp.gamma) + quad).delta_inv()

    r = fixed_point(step, inp.zero(), inp.cap + 2, "connection iteration")
    if not r.delta_inv().is_zero():
        raise ArithmeticError("normalization delta_inv r = 0 violated")
    return r


# -- Catalan tree expansion ------------------------------------------

def catalan_leaf(inp: FedosovInput) -> WeylElement:
    """z = (1 - delta_inv nabla)^{-1} delta_inv(center + R), the homotopy
    of the connection-free differential up to sign."""
    source = inp.center + curvature_element(inp)
    return -fedosov_homotopy(inp, inp.zero(), source)


def catalan_node(inp: FedosovInput, a: WeylElement, b: WeylElement
                 ) -> WeylElement:
    """(i/2hbar) (1 - delta_inv nabla)^{-1} delta_inv [a, b]."""
    half = ihbar_commutator(a, b, inp.pi).scale(Fraction(1, 2))
    return -fedosov_homotopy(inp, inp.zero(), half)


def catalan_trees(inp: FedosovInput, n_max: int):
    """Per-leaf-count lists of tree values; leaves all carry the same z.

    Returns (values, counts) with values[n] the list of evaluated trees
    with n leaves and counts[n] = len(values[n]) = Catalan(n-1).
    """
    z = catalan_leaf(inp)
    values = {1: [z]}
    for n in range(2, n_max + 1):
        vals = []
        for a in range(1, n):
            for left in values[a]:
                for right in values[n - a]:
                    vals.append(catalan_node(inp, left, right))
        values[n] = vals
    counts = {n: len(values[n]) for n in values}
    return values, counts


def catalan_expansion(inp: FedosovInput, n_max: int) -> WeylElement:
    values, _ = catalan_trees(inp, n_max)
    return sum((t for n in values for t in values[n]), inp.zero())


def catalan_number(n: int) -> int:
    return comb(2 * n - 2, n - 1) // n


def catalan_checks(inp: FedosovInput, n_max: int, connection: WeylElement):
    """(counts, gates) for the trees with up to n_max leaves: counts[n]
    trees have n leaves; gates maps a check name to its mismatch count (0
    passes) for the counts against Catalan(n-1) and for the summed trees
    against ``connection``, the fixed point of ``solve_connection``."""
    values, counts = catalan_trees(inp, n_max)
    want = [catalan_number(n) for n in counts]
    gap = sum((t for n in values for t in values[n]), inp.zero()) - connection
    return counts, {
        f"tree counts {','.join(map(str, want))}":
            int(list(counts.values()) != want),
        "catalan expansion == iterate": int(not gap.is_zero())}


# -- Taylor expansion and star product -------------------------------

def _raise_by_d(inp: FedosovInput, connection: WeylElement):
    """The Deg-raising linear map a -> delta_inv(nabla a + (i/hbar)[r, a])
    whose Neumann series gives tau and D^{-1}."""
    return lambda a: (a.nabla(inp.gamma) + ihbar_commutator(
        connection, a, inp.pi)).delta_inv()


def fedosov_taylor(inp: FedosovInput, f: Poly,
                   connection: WeylElement) -> WeylElement:
    """tau(f): the solution of tau = f + delta_inv(nabla tau +
    (i/hbar)[r, tau]), summed as a Neumann series from f."""
    return neumann(_raise_by_d(inp, connection), inp.embed(f), inp.cap + 2,
                   "Taylor expansion")


def fedosov_star(inp: FedosovInput, f: Poly, g: Poly,
                 connection: WeylElement | None = None):
    """sigma(tau(f) o tau(g)) as {hbar power: Poly}."""
    if connection is None:
        connection = solve_connection(inp)
    tf = fedosov_taylor(inp, f, connection)
    tg = fedosov_taylor(inp, g, connection)
    return tf.circ(tg, inp.pi).sigma_jets()


def moyal_star_jets(pi_entries, f: Poly, g: Poly, order: int):
    """Independent constant-coefficient Moyal oracle:
    order-j coefficient (1/j!) (i/2)^j Pi^{k1 l1} ... Pi^{kj lj}
    d_{k...} f d_{l...} g, returned as {j: Poly}."""
    d = f.nvars
    out = {}
    for j in range(order + 1):
        acc = Poly.zero(d)
        pref = (QC(0, Fraction(1, 2)) ** j) * Fraction(1, factorial(j))
        for ks in iproduct(range(d), repeat=j):
            for ls in iproduct(range(d), repeat=j):
                c = QC(1)
                for k, l in zip(ks, ls):
                    c = c * QC.coerce(pi_entries[k][l])
                if c.is_zero():
                    continue
                df = f
                for k in ks:
                    df = df.diff(k)
                if df.is_zero():
                    continue
                dg = g
                for l in ls:
                    dg = dg.diff(l)
                if dg.is_zero():
                    continue
                acc = acc + df * dg * c
        acc = acc * pref
        if not acc.is_zero():
            out[j] = acc
    return out


def flat_star_vs_moyal(inp: FedosovInput, f: Poly, g: Poly):
    """(fedosov_star(inp, f, g), mismatches): the number of hbar orders at
    which it differs from the Moyal oracle to order cap // 2 for the
    bivector at the origin; 0 on a flat input."""
    st = fedosov_star(inp, f, g)
    pi0 = [[p.constant_term() for p in row] for row in inp.pi]
    my = moyal_star_jets(pi0, f, g, inp.cap // 2)
    zero = Poly.zero(inp.dim)
    return st, sum(1 for h in set(st) | set(my)
                   if st.get(h, zero) != my.get(h, zero))


# -- the flat Fedosov differential and its homotopy -------------------

def fedosov_differential(inp: FedosovInput, connection: WeylElement,
                         a: WeylElement) -> WeylElement:
    """D a = -delta a + nabla a + (i/hbar)[r, a]."""
    return (-a.delta() + a.nabla(inp.gamma)
            + ihbar_commutator(connection, a, inp.pi))


def fedosov_homotopy(inp: FedosovInput, connection: WeylElement,
                     a: WeylElement) -> WeylElement:
    """D^{-1} a = -(1 - delta_inv(nabla + (i/hbar)[r, .]))^{-1} delta_inv a."""
    return -neumann(_raise_by_d(inp, connection), a.delta_inv(),
                    inp.cap + 2, "deformed homotopy")


def deformed_poincare_defect(inp: FedosovInput, a: WeylElement
                             ) -> WeylElement:
    """D^{-1} D a + D D^{-1} a + tau(sigma a) - a, truncated to inp.cap;
    zero iff the deformed homotopy identity holds on a.

    Because -delta inside D lowers Deg by one, the cap-degree slice of
    D D^{-1} a feeds on the (cap+1)-slice of D^{-1} a; the check therefore
    runs the whole computation one Deg higher and truncates at the end.
    """
    lifted = FedosovInput(inp.dim, inp.cap + 1, inp.omega, inp.pi,
                          inp.gamma, inp.center.with_cap(inp.cap + 1))
    connection = solve_connection(lifted)
    b = a.with_cap(lifted.cap)
    dinv_d = fedosov_homotopy(lifted, connection,
                              fedosov_differential(lifted, connection, b))
    d_dinv = fedosov_differential(lifted, connection,
                                  fedosov_homotopy(lifted, connection, b))
    tail = lifted.zero()
    for hpow, jet in b.sigma_jets().items():
        tail = tail + fedosov_taylor(lifted, jet, connection).mul_hbar(hpow)
    return (dinv_d + d_dinv + tail - b).with_cap(inp.cap)
