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
  * ``mul``  -- the plain super-commutative product (fiber product times
    wedge product; sign rule a.b = (-1)^{q1 q2} b.a).
  * ``circ`` -- the fiberwise Moyal-type deformation of ``mul`` by
    exp(hbar * P) with P = (i/2) Pi^{kl} d/dv^k (x) d/dv^l; the bivector
    Pi may have polynomial coefficients (it is never differentiated, so
    associativity survives x-dependence).

Differentials:
  * ``delta``      dx^i d/dv^i  (left wedge).
  * ``delta_inv``  the standard homotopy: on a term of fiber degree s and
    form degree q it is (1/(s+q)) * v^k i(d/dx^k), and 0 when s+q = 0.
  * ``sigma``      projection to v = dx = 0.
  * ``nabla``      dx^i d/dx^i - Gamma^k_{ij} dx^i v^j d/dv^k for a
    torsion-free connection given as polynomial Christoffel data.

Division by hbar (used for (i/hbar)[.,.]) asserts that every term really
carries a positive hbar power; callers that need the quotient to full
accuracy must compute the product with the cap raised by 2 first --- the
helpers ``ihbar_commutator`` / ``ihbar_circ`` do exactly that.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from .exactnum import QC, perm_sign
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


def _insert_dx(k, dxs):
    """Sign and tuple for dx^k ^ dx^{dxs} (left wedge); sign 0 if k repeats."""
    if k in dxs:
        return 0, ()
    below = sum(1 for j in dxs if j < k)
    return (-1) ** below, tuple(sorted(dxs + (k,)))


def _v_derivative(vexp, beta):
    """Coefficient and exponent of (d/dv)^beta applied to v^vexp; None if 0."""
    coeff = 1
    out = []
    for a, b in zip(vexp, beta):
        if b > a:
            return None, ()
        c = 1
        for t in range(b):
            c *= (a - t)
        coeff *= c
        out.append(a - b)
    return coeff, tuple(out)


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
        assert len(dxs) == len(set(dxs))
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

    def max_deg(self) -> int:
        if not self.terms:
            return -1
        return max(sum(k[0]) + 2 * k[2] for k in self.terms)

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        assert isinstance(other, WeylElement)
        assert self.dim == other.dim
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

    def mul(self, other: "WeylElement") -> "WeylElement":
        """Super-commutative product (fiber times wedge)."""
        return self.circ(other, None)

    def circ(self, other: "WeylElement", pi) -> "WeylElement":
        """Fiberwise Weyl product a o b = . exp(hbar P)(a (x) b).

        ``pi`` is a dim x dim nested list of Poly (the bivector Pi^{kl});
        None means Pi = 0, i.e. the undeformed product.
        """
        assert self.dim == other.dim
        dim = self.dim
        cap = min(self.cap, other.cap)
        out = {}
        pairs = []
        if pi is not None:
            for k in range(dim):
                for l in range(dim):
                    if not pi[k][l].is_zero():
                        pairs.append((k, l))
        for (va, dxa, ha), pa in self.terms.items():
            deg_a = sum(va) + 2 * ha
            for (vb, dxb, hb), pb in other.terms.items():
                if deg_a + sum(vb) + 2 * hb > cap:
                    continue
                sgn, dxm = _merge_wedge(dxa, dxb)
                if sgn == 0:
                    continue
                base = pa * pb
                if sgn < 0:
                    base = -base
                jmax = min(sum(va), sum(vb)) if pairs else 0
                for j in range(jmax + 1):
                    if j == 0:
                        key = (tuple(x + y for x, y in zip(va, vb)),
                               dxm, ha + hb)
                        accumulate(out, key, base)
                        continue
                    pref = _I_HALF ** j
                    for mult in combinations_with_replacement(pairs, j):
                        beta_k = [0] * dim
                        beta_l = [0] * dim
                        for (k, l) in mult:
                            beta_k[k] += 1
                            beta_l[l] += 1
                        ca, ea = _v_derivative(va, beta_k)
                        if ca is None:
                            continue
                        cb, eb = _v_derivative(vb, beta_l)
                        if cb is None:
                            continue
                        sym = 1
                        for c in Counter(mult).values():
                            for t in range(2, c + 1):
                                sym *= t
                        coeff = pref * Fraction(ca * cb, sym)
                        poly = base * coeff
                        for (k, l) in mult:
                            poly = poly * pi[k][l]
                        if poly.is_zero():
                            continue
                        key = (tuple(x + y for x, y in zip(ea, eb)),
                               dxm, ha + hb + j)
                        accumulate(out, key, poly)
        return WeylElement(dim, cap, out)

    # -- differentials ------------------------------------------------

    def delta(self) -> "WeylElement":
        out = {}
        for (vexp, dxs, hpow), poly in self.terms.items():
            for k in range(self.dim):
                if vexp[k] == 0:
                    continue
                sgn, nd = _insert_dx(k, dxs)
                if sgn == 0:
                    continue
                nv = list(vexp)
                nv[k] -= 1
                accumulate(out, (tuple(nv), nd, hpow),
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
                nv = list(vexp)
                nv[j] += 1
                nd = dxs[:pos] + dxs[pos + 1:]
                accumulate(out, (tuple(nv), nd, hpow),
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
                    sgn, nd = _insert_dx(i, dxs)
                    if sgn != 0:
                        accumulate(out, (vexp, nd, hpow),
                                   dp if sgn > 0 else -dp)
            if gamma is None:
                continue
            for k in range(self.dim):
                if vexp[k] == 0:
                    continue
                for i in range(self.dim):
                    sgn, nd = _insert_dx(i, dxs)
                    if sgn == 0:
                        continue
                    for j in range(self.dim):
                        g = gamma[k][i][j]
                        if g.is_zero():
                            continue
                        nv = list(vexp)
                        nv[k] -= 1
                        nv[j] += 1
                        accumulate(out, (tuple(nv), nd, hpow),
                                   poly * g * (-sgn * vexp[k]))
        return WeylElement(self.dim, self.cap, out)


# -- derived operations ----------------------------------------------

def commutator(a: WeylElement, b: WeylElement, pi) -> "WeylElement":
    """Super bracket [a, b] = a o b - (-1)^{q_a q_b} b o a (form-graded)."""
    out = WeylElement.zero(a.dim, min(a.cap, b.cap))
    for qa in a.form_degrees():
        ea = a.form_part(qa)
        for qb in b.form_degrees():
            eb = b.form_part(qb)
            term = ea.circ(eb, pi)
            swap = eb.circ(ea, pi)
            if (qa * qb) % 2 == 1:
                out = out + term + swap
            else:
                out = out + term - swap
    return out


def ihbar_commutator(a: WeylElement, b: WeylElement, pi) -> "WeylElement":
    """(i/hbar)[a, b], computed with the cap raised so that no term of the
    quotient inside the original cap is lost to pre-division truncation."""
    cap = min(a.cap, b.cap)
    big = commutator(a.with_cap(cap + 2), b.with_cap(cap + 2), pi)
    return big.divide_hbar().scale(QC(0, 1)).with_cap(cap)


def ihbar_circ(a: WeylElement, b: WeylElement, pi) -> "WeylElement":
    """(i/hbar) (a o b) for hbar-divisible products (e.g. odd a = b)."""
    cap = min(a.cap, b.cap)
    big = a.with_cap(cap + 2).circ(b.with_cap(cap + 2), pi)
    return big.divide_hbar().scale(QC(0, 1)).with_cap(cap)


def fixed_point(step, x: WeylElement, rounds: int, what: str) -> WeylElement:
    """Iterate x -> step(x) until it repeats, at most ``rounds`` times;
    raises ArithmeticError unless the result is a fixed point."""
    for _ in range(rounds):
        nxt = step(x)
        if nxt == x:
            return x
        x = nxt
    if step(x) != x:
        raise ArithmeticError(f"{what} did not stabilize")
    return x


def constant_bivector(dim: int, entries) -> list:
    """Pi^{kl} from a nested list of scalars; antisymmetry is asserted."""
    out = [[Poly.const(dim, entries[k][l]) for l in range(dim)]
           for k in range(dim)]
    for k in range(dim):
        for l in range(dim):
            assert out[k][l] == -out[l][k], "bivector must be antisymmetric"
    return out


def random_element(dim: int, cap: int, rng, n_terms: int = 6,
                   max_x_deg: int = 2, max_h: int = 1) -> WeylElement:
    """Small random element for property tests (exact rational coeffs)."""
    terms = {}
    for _ in range(n_terms):
        hpow = rng.randint(0, max_h)
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
        for _ in range(rng.randint(0, max_x_deg)):
            e[rng.randrange(dim)] += 1
        c = QC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        accumulate(terms, (tuple(vexp), dxs, hpow), Poly(dim, {tuple(e): c}))
    return WeylElement(dim, cap, terms)
