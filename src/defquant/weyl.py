"""Truncated formal Weyl algebra on a polynomial base.

Elements live in the space of exterior forms with values in formally
completed symmetric fiber tensors: sums of terms

    a(x) * v^alpha * dx^{j_1} ^ ... ^ dx^{j_q} * hbar^h

with a(x) an exact polynomial jet (exactpoly.Poly), alpha a fiber
multi-exponent, the dx indices strictly increasing, and h >= 0.  Everything
is graded by the total degree

    Deg = (fiber degree) + 2 * (hbar power)

and truncated at a fixed cap: terms of Deg > cap are dropped by every
operation.  The cap is what makes the fixed-point constructions below
terminate after finitely many rounds.

Products:
  * ``circ`` -- the fiberwise Moyal-type deformation of the plain
    super-commutative product (fiber product times wedge product; sign
    rule a.b = (-1)^{q1 q2} b.a, which ``circ(b, None)`` gives) by
    exp(hbar * P) with P = (i/2) Pi^{kl} d/dv^k (x) d/dv^l; the bivector
    Pi may have polynomial coefficients (it is never differentiated, so
    associativity survives x-dependence).  One pass builds the order-j
    term of exp(hbar P) from order j-1 by one more (k, l) pair of Pi.
    When every nonzero entry of Pi is a constant Poly without ``trunc``
    (every bivector the package builds), these order tables hold exact
    scalars (QC), each step's factor is built from ints, and each order
    scales the product of the two coefficients; any other Pi keeps Poly
    tables, which carry its x-dependence and truncation.  Both give the
    same element, term order included.
  * ``commutator`` -- the super bracket [a, b] = a o b - (-1)^{q_a q_b}
    b o a.  For antisymmetric Pi, swapping the factors multiplies the
    order-j term by (-1)^{q_a q_b} (-1)^j, so the bracket is twice the
    odd orders of that same pass: one product, not two.  It raises
    ValueError for a Pi that is not antisymmetric.  A pair of terms with
    no odd order (as when one of them is a fiber scalar) is skipped
    before its coefficients are multiplied.

Differentials:
  * ``delta``      dx^i d/dv^i  (left wedge).
  * ``delta_inv``  the standard homotopy: on a term of fiber degree s and
    form degree q it is (1/(s+q)) * v^k i(d/dx^k), and 0 when s+q = 0.
  * ``sigma``      projection to v = dx = 0.
  * ``nabla``      dx^i d/dx^i - Gamma^k_{ij} dx^i v^j d/dv^k for a
    torsion-free connection given as polynomial Christoffel data.

Fixed points: a linear L that raises Deg is summed as the terminating
Neumann series x + L x + L^2 x + ... of ``exactpoly.neumann``; the
nonlinear connection alone is found by plain iteration, ``fixed_point``.

Division by hbar checks that every term really carries a positive hbar
power; a quotient exact to the cap needs the product with the cap raised
by 2 first.  ``ihbar_commutator`` gives (i/hbar)[a, b] in the same one
pass instead: the odd orders carry hbar^j with j >= 1, so it starts the
tables from 2i, lowers each hbar power by one and admits pairs up to
Deg cap + 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add

from .exactnum import QC, _qc, perm_sign
from .exactpoly import Poly, accumulate

_I_HALF = QC(0, Fraction(1, 2))


def _merge_wedge(d1, d2):
    """Sign and sorted index tuple for dx^{d1} ^ dx^{d2}; sign 0 on overlap."""
    if not d1:
        return 1, d2
    if not d2:
        return 1, d1
    if set(d1) & set(d2):
        return 0, ()
    arr = d1 + d2
    return perm_sign(arr), tuple(sorted(arr))


def _shift(vexp, k, step):
    """The fiber exponent vexp with its k-th entry moved by step."""
    return vexp[:k] + (vexp[k] + step,) + vexp[k + 1:]


def _moyal_orders(va, vb, half_pi, start, odd):
    """{(j, fiber exponent): coefficient}: the order-j terms (1/j!) P^j of
    exp(hbar P), P = (i/2) Pi^{kl} d/dv^k (x) d/dv^l, on v^va (x) v^vb,
    times ``start`` and without the hbar^j; every order, or only the odd
    ones if ``odd``.  Order j applies one more (k, l, (i/2) Pi^{kl}) of
    ``half_pi`` to the order j-1 table {(a-side, b-side exponent): value}
    times ea_k eb_l / j, a reduced QC built from ints.

    Scalar tables: for a constant Pi without ``trunc``, ``half_pi`` and
    ``start`` are QC and so is every value.  Otherwise they are Poly, and
    the values carry Pi's x-dependence and truncation.  Empty when no
    order survives, as for the odd orders when va or vb is zero; the
    caller then skips the pair before multiplying its coefficients."""
    table, out, j = {(va, vb): start}, {}, 0
    while table:
        if not odd or j % 2:
            for (ea, eb), c in table.items():
                accumulate(out, (j, tuple(map(add, ea, eb))), c)
        j += 1
        nxt = {}
        for (ea, eb), c in table.items():
            for k, l, h in half_pi:
                n = ea[k] * eb[l]
                if n:
                    g = gcd(n, j)
                    accumulate(nxt, (_shift(ea, k, -1), _shift(eb, l, -1)),
                               c * (h * _qc(n // g, j // g, 0, 1)))
        table = nxt
    return out


def _moyal(a, b, pi, odd, ihbar=False):
    """a o b, or the bracket [a, b] as twice its odd orders (see
    ``commutator``), or with ``ihbar`` (i/hbar)[a, b]: the bracket's odd
    orders one hbar lower and times i, from pairs up to Deg cap + 2."""
    if a.dim != b.dim:
        raise ValueError(f"Weyl product of dim {a.dim} and dim {b.dim} "
                         "elements")
    dim, cap = a.dim, min(a.cap, b.cap)
    lift, start = (1, QC(0, 2)) if ihbar else (0, QC(2 if odd else 1))
    entries = [] if pi is None else [
        (k, l, pi[k][l]) for k in range(dim) for l in range(dim)
        if not pi[k][l].is_zero()]
    if odd:
        for k, l, p in entries:
            if pi[l][k] != -p:
                raise ValueError("the one-pass bracket needs an "
                                 "antisymmetric bivector: entries "
                                 f"({k}, {l}) and ({l}, {k})")
    # scalar tables when every nonzero entry is a constant Poly that
    # truncates nothing; otherwise Poly tables, which truncate as Pi does
    if all(isinstance(p, Poly) and p.trunc is None
           and list(p.terms) == [(0,) * p.nvars] for _, _, p in entries):
        half_pi = [(k, l, p.constant_term() * _I_HALF)
                   for k, l, p in entries]
    else:
        half_pi = [(k, l, p * _I_HALF) for k, l, p in entries]
        start = Poly.const(dim, start)
    out = {}
    for (va, dxa, ha), pa in a.terms.items():
        deg_a = sum(va) + 2 * ha
        for (vb, dxb, hb), pb in b.terms.items():
            if deg_a + sum(vb) + 2 * hb > cap + 2 * lift:
                continue
            sgn, dxm = _merge_wedge(dxa, dxb)
            if sgn == 0:
                continue
            orders = _moyal_orders(va, vb, half_pi, start, odd)
            if not orders:
                continue
            base = pa * pb if sgn > 0 else -(pa * pb)
            for (j, e), c in orders.items():
                accumulate(out, (e, dxm, ha + hb + j - lift), base * c)
    return WeylElement(dim, cap, out)


class WeylElement:
    """Immutable-by-convention element of the truncated Weyl algebra."""

    __slots__ = ("dim", "cap", "terms")

    def __init__(self, dim: int, cap: int, terms=None):
        self.dim = dim
        self.cap = cap
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                vexp, dxs, hpow = key
                if sum(vexp) + 2 * hpow > cap:
                    continue
                if poly.is_zero():
                    continue
                self.terms[key] = poly

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim: int, cap: int) -> "WeylElement":
        return WeylElement(dim, cap)

    @staticmethod
    def monomial(dim: int, cap: int, coeff, vexp=None, dxs=(), hpow=0
                 ) -> "WeylElement":
        if vexp is None:
            vexp = (0,) * dim
        vexp = tuple(vexp)
        dxs = tuple(sorted(dxs))
        if len(dxs) != len(set(dxs)):
            raise ValueError(f"repeated dx index in {dxs}")
        if not isinstance(coeff, Poly):
            coeff = Poly.const(dim, coeff)
        return WeylElement(dim, cap, {(vexp, dxs, hpow): coeff})

    @staticmethod
    def from_function(poly, dim: int, cap: int, hpow: int = 0
                      ) -> "WeylElement":
        """Embed a polynomial in x as a fiber-scalar 0-form."""
        return WeylElement.monomial(dim, cap, poly, hpow=hpow)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (self.dim == other.dim and self.terms == other.terms)

    def form_degrees(self):
        return sorted({len(k[1]) for k in self.terms})

    def form_part(self, q: int) -> "WeylElement":
        return WeylElement(self.dim, self.cap,
                           {k: p for k, p in self.terms.items()
                            if len(k[1]) == q})

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError(f"cannot add a dim {other.dim} element to a "
                             f"dim {self.dim} one")
        cap = min(self.cap, other.cap)
        out = dict(self.terms)
        for key, poly in other.terms.items():
            accumulate(out, key, poly)
        return WeylElement(self.dim, cap, out)

    def __neg__(self):
        return WeylElement(self.dim, self.cap,
                           {k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        c = QC.coerce(c)
        if c.is_zero():
            return WeylElement.zero(self.dim, self.cap)
        return WeylElement(self.dim, self.cap,
                           {k: p * c for k, p in self.terms.items()})

    def mul_hbar(self, k: int = 1) -> "WeylElement":
        return WeylElement(self.dim, self.cap,
                           {(v, d, h + k): p
                            for (v, d, h), p in self.terms.items()})

    def divide_hbar(self) -> "WeylElement":
        out = {}
        for (vexp, dxs, hpow), poly in self.terms.items():
            if hpow < 1:
                raise ArithmeticError(
                    "term without an hbar factor cannot be divided by hbar")
            out[(vexp, dxs, hpow - 1)] = poly
        return WeylElement(self.dim, self.cap, out)

    def with_cap(self, cap: int) -> "WeylElement":
        return WeylElement(self.dim, cap, self.terms)

    # -- products -----------------------------------------------------

    def circ(self, other: "WeylElement", pi) -> "WeylElement":
        """Fiberwise Weyl product a o b = . exp(hbar P)(a (x) b).

        ``pi`` is a dim x dim nested list of Poly (the bivector Pi^{kl});
        None means Pi = 0, i.e. the undeformed product.
        """
        return _moyal(self, other, pi, odd=False)

    # -- differentials ------------------------------------------------

    def delta(self) -> "WeylElement":
        out = {}
        for (vexp, dxs, hpow), poly in self.terms.items():
            for k in range(self.dim):
                if vexp[k] == 0:
                    continue
                sgn, nd = _merge_wedge((k,), dxs)
                if sgn == 0:
                    continue
                accumulate(out, (_shift(vexp, k, -1), nd, hpow),
                           poly * (sgn * vexp[k]))
        return WeylElement(self.dim, self.cap, out)

    def delta_inv(self) -> "WeylElement":
        out = {}
        for (vexp, dxs, hpow), poly in self.terms.items():
            s, q = sum(vexp), len(dxs)
            if q == 0:
                continue
            factor = Fraction(1, s + q)
            for pos, j in enumerate(dxs):
                nd = dxs[:pos] + dxs[pos + 1:]
                accumulate(out, (_shift(vexp, j, 1), nd, hpow),
                           poly * (factor if pos % 2 == 0 else -factor))
        return WeylElement(self.dim, self.cap, out)

    def sigma(self) -> "WeylElement":
        zero_v = (0,) * self.dim
        return WeylElement(self.dim, self.cap,
                           {k: p for k, p in self.terms.items()
                            if k[0] == zero_v and k[1] == ()})

    def sigma_jets(self):
        """Function part as {hbar power: Poly}."""
        zero_v = (0,) * self.dim
        return {h: p for (v, d, h), p in self.terms.items()
                if v == zero_v and d == ()}

    def nabla(self, gamma) -> "WeylElement":
        """dx^i d/dx^i - Gamma^k_{ij} dx^i v^j d/dv^k with
        gamma[k][i][j] = Gamma^k_{ij} (Poly entries, symmetric in i, j)."""
        out = {}
        for (vexp, dxs, hpow), poly in self.terms.items():
            for i in range(self.dim):
                dp = poly.diff(i)
                if not dp.is_zero():
                    sgn, nd = _merge_wedge((i,), dxs)
                    if sgn != 0:
                        accumulate(out, (vexp, nd, hpow),
                                   dp if sgn > 0 else -dp)
            if gamma is None:
                continue
            for k in range(self.dim):
                if vexp[k] == 0:
                    continue
                for i in range(self.dim):
                    sgn, nd = _merge_wedge((i,), dxs)
                    if sgn == 0:
                        continue
                    for j in range(self.dim):
                        g = gamma[k][i][j]
                        if g.is_zero():
                            continue
                        nv = _shift(_shift(vexp, k, -1), j, 1)
                        accumulate(out, (nv, nd, hpow),
                                   poly * g * (-sgn * vexp[k]))
        return WeylElement(self.dim, self.cap, out)


# -- derived operations ----------------------------------------------

def commutator(a: WeylElement, b: WeylElement, pi) -> "WeylElement":
    """Super bracket [a, b] = a o b - (-1)^{q_a q_b} b o a (form-graded).

    Requires an antisymmetric Pi: then swapping the factors multiplies the
    order-j term of the product by (-1)^{q_a q_b} (-1)^j, so the bracket
    is twice the odd orders of the one product a o b.  Any other Pi
    raises ValueError naming the first entry pair that breaks it.
    """
    return _moyal(a, b, pi, odd=True)


def ihbar_commutator(a: WeylElement, b: WeylElement, pi) -> "WeylElement":
    """(i/hbar)[a, b] to the cap: the bracket's terms up to Deg cap + 2,
    each one hbar lower and times i, so that no term of the quotient
    inside the cap is lost to truncation before the division."""
    return _moyal(a, b, pi, odd=True, ihbar=True)


def fixed_point(step, x: WeylElement, rounds: int, what: str) -> WeylElement:
    """Iterate x -> step(x) until it repeats, at most ``rounds`` times;
    raises ArithmeticError unless the result is a fixed point."""
    for _ in range(rounds + 1):
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt
    raise ArithmeticError(f"{what} did not stabilize")


def random_element(dim: int, cap: int, rng, n_terms: int = 6
                   ) -> WeylElement:
    """Small random element for property tests (exact rational coeffs)."""
    terms = {}
    for _ in range(n_terms):
        hpow = rng.randint(0, 1)
        v_budget = cap - 2 * hpow
        if v_budget < 0:
            hpow, v_budget = 0, cap
        s = rng.randint(0, min(3, v_budget))
        vexp = [0] * dim
        for _ in range(s):
            vexp[rng.randrange(dim)] += 1
        q = rng.randint(0, min(2, dim))
        dxs = tuple(sorted(rng.sample(range(dim), q)))
        e = [0] * dim
        for _ in range(rng.randint(0, 2)):
            e[rng.randrange(dim)] += 1
        c = QC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        accumulate(terms, (tuple(vexp), dxs, hpow), Poly(dim, {tuple(e): c}))
    return WeylElement(dim, cap, terms)
