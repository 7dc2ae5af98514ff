"""Exact multivariate polynomials / truncated jets over Gaussian rationals.

Terms are stored sparsely as {exponent tuple: QC}.  A polynomial may carry a
truncation order `trunc`; when set, every operation drops monomials of total
degree > trunc, which turns the class into a jet (truncated power series)
around the origin.  trunc=None means genuinely polynomial arithmetic with no
dropping.  Mixing a jet with a polynomial propagates the tighter truncation.
Every Poly holds QC values only, none of them zero, and no monomial of
degree above trunc; the arithmetic keeps that true as it goes and builds
its results without filtering them again.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import add

from .exactnum import QC


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _from_terms(nvars: int, terms: dict, trunc) -> "Poly":
    """A Poly that takes ``terms`` as they are.  Only for dicts that already
    hold what ``Poly.__init__`` would keep: QC values, none zero, no
    monomial of degree above ``trunc``."""
    p = object.__new__(Poly)
    p.nvars, p.terms, p.trunc = nvars, terms, trunc
    return p


def _terms_within(p: "Poly", trunc) -> dict:
    """p's terms of total degree <= trunc, for trunc p.trunc or tighter."""
    if p.trunc == trunc:
        return p.terms
    return {e: c for e, c in p.terms.items() if sum(e) <= trunc}


def _merge(out: dict, terms: dict) -> None:
    """out += terms on term dicts, deleting a sum that vanishes."""
    for e, c in terms.items():
        s = out.get(e)
        if s is None:
            out[e] = c
            continue
        s = s + c
        if s.is_zero():
            del out[e]
        else:
            out[e] = s


class Poly:
    __slots__ = ("nvars", "terms", "trunc")

    def __init__(self, nvars: int, terms=None, trunc=None):
        self.nvars = nvars
        self.trunc = trunc
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = QC.coerce(c)
                if c.is_zero():
                    continue
                if trunc is not None and sum(e) > trunc:
                    continue
                self.terms[e] = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(nvars: int, c, trunc=None) -> "Poly":
        return Poly(nvars, {(0,) * nvars: QC.coerce(c)}, trunc)

    @staticmethod
    def zero(nvars: int, trunc=None) -> "Poly":
        return Poly(nvars, {}, trunc)

    @staticmethod
    def one(nvars: int, trunc=None) -> "Poly":
        return Poly.const(nvars, 1, trunc)

    @staticmethod
    def var(nvars: int, i: int, trunc=None) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return Poly(nvars, {tuple(e): QC(1)}, trunc)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> QC:
        return self.terms.get((0,) * self.nvars, QC(0))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other, self.trunc)
        if self.nvars != other.nvars:
            raise ValueError(f"cannot add a {other.nvars}-variable Poly to "
                             f"a {self.nvars}-variable one")
        tr = _min_trunc(self.trunc, other.trunc)
        out = dict(_terms_within(self, tr))
        _merge(out, _terms_within(other, tr))
        return _from_terms(self.nvars, out, tr)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms(self.nvars, {e: -c for e, c in self.terms.items()},
                           self.trunc)

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = QC.coerce(other)
            if c.is_zero():
                return Poly.zero(self.nvars, self.trunc)
            return _from_terms(self.nvars,
                               {e: v * c for e, v in self.terms.items()},
                               self.trunc)
        if self.nvars != other.nvars:
            raise ValueError(f"cannot multiply a {self.nvars}-variable Poly "
                             f"by a {other.nvars}-variable one")
        tr = _min_trunc(self.trunc, other.trunc)
        right = [(e2, sum(e2), c2) for e2, c2 in other.terms.items()]
        out = {}
        # a product of two nonzero Gaussian rationals is never zero, so
        # only a sum can cancel
        for e1, c1 in self.terms.items():
            room = None if tr is None else tr - sum(e1)
            for e2, d2, c2 in right:
                if room is not None and d2 > room:
                    continue
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2
                    continue
                s = s + c1 * c2
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return _from_terms(self.nvars, out, tr)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        out = Poly.one(self.nvars, self.trunc)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i: int) -> "Poly":
        """Partial derivative.  A jet truncated at total degree k only
        determines its derivative through degree k-1, so trunc drops by
        one (untruncated polynomials are unaffected)."""
        out = {}
        tr = self.trunc if self.trunc is None else max(self.trunc - 1, 0)
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        return _from_terms(self.nvars, out, tr)

    def truncate(self, k: int) -> "Poly":
        return Poly(self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) <= k},
                    k if self.trunc is None else min(k, self.trunc))

    def to_jsonable(self) -> list:
        """Terms as [[exponents], ['re', 'im']] (exact rationals as
        strings), sorted by exponent."""
        return [[list(e), [str(c.re), str(c.im)]]
                for e, c in sorted(self.terms.items())]

    # -- evaluation / inversion --------------------------------------

    def eval_qc(self, vals) -> QC:
        total = QC(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(vals, e):
                if k:
                    term = term * (QC.coerce(x) ** k)
            total = total + term
        return total

    def eval_complex(self, vals) -> complex:
        total = 0j
        for e, c in self.terms.items():
            term = c.to_complex()
            for x, k in zip(vals, e):
                if k:
                    term *= complex(x) ** k
            total += term
        return total

    def inverse(self) -> "Poly":
        """Multiplicative inverse as a jet (requires trunc and a nonzero
        constant term): 1/(c + u) = (1/c) sum_k (-u/c)^k, whose term
        k = trunc + 1 vanishes."""
        if self.trunc is None:
            raise ValueError("inverse requires a truncation order")
        c0 = self.constant_term()
        if c0.is_zero():
            raise ZeroDivisionError("jet has zero constant term")
        u = self - Poly.const(self.nvars, c0, self.trunc)
        inv_c0 = QC(1) / c0
        return neumann(lambda acc: acc * u * (-inv_c0),
                       Poly.const(self.nvars, inv_c0, self.trunc),
                       self.trunc + 1, "jet inverse")

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)"
                        + (f"*{mono}" if mono else ""))
        return "Poly[" + " + ".join(bits) + "]"


def neumann(step, x, rounds: int, what: str):
    """x + L x + L^2 x + ... for the linear map L = ``step`` on Polys or
    Weyl elements.  When L raises the degree the series terminates in the
    truncated algebra; raises ArithmeticError if no term has vanished
    within ``rounds`` steps."""
    total = term = x
    for _ in range(rounds):
        term = step(term)
        if term.is_zero():
            return total
        total = total + term
    raise ArithmeticError(f"{what} did not terminate")


def poly_matrix(dim: int, rows, sign: int, what: str, trunc=None) -> list:
    """A dim x dim matrix of Polys from nested rows: a scalar entry becomes
    a constant Poly cut at ``trunc``, a Poly entry is kept as given.
    Raises ValueError naming ``what`` unless entry (i, j) equals ``sign``
    (1 or -1) times entry (j, i)."""
    mat = [[e if isinstance(e, Poly) else Poly.const(dim, e, trunc)
            for e in row] for row in rows]
    for i in range(dim):
        for j in range(i, dim):
            if mat[i][j] != mat[j][i] * sign:
                raise ValueError(f"{what} must be {'anti' * (sign < 0)}"
                                 f"symmetric: entries ({i}, {j}) and "
                                 f"({j}, {i})")
    return mat


def matrix_inverse_jet(mat, order: int, what: str) -> list:
    """Inverse of a square Poly matrix by Gauss-Jordan elimination over
    jets cut at ``order``.  A jet is a unit exactly when its constant term
    is nonzero, so each pivot is one Poly.inverse, with a row swap when
    needed; raises ValueError("<what> at the base point") when no row has
    a nonzero constant term in the pivot column."""
    d = len(mat)
    a = [row + [Poly.const(d, int(i == j), order) for j in range(d)]
         for i, row in enumerate(mat)]
    for col in range(d):
        piv = next((r for r in range(col, d)
                    if not a[r][col].constant_term().is_zero()), None)
        if piv is None:
            raise ValueError(f"{what} at the base point")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col].truncate(order).inverse()
        a[col] = [x * inv for x in a[col]]
        for r in range(d):
            f = a[r][col]
            if r != col and not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[d:] for row in a]


def poly_sum(nvars: int, polys) -> Poly:
    """Poly.zero(nvars) + p_1 + p_2 + ... in one dict: the same terms, in
    the same order and with the same trunc as the left fold of +, which
    copies the running sum at every step.  When a summand tightens trunc
    the running sum drops its terms above the new one, as + does."""
    out = {}
    tr = None
    for p in polys:
        if _min_trunc(tr, p.trunc) != tr:
            tr = p.trunc
            out = {e: c for e, c in out.items() if sum(e) <= tr}
        _merge(out, _terms_within(p, tr))
    return _from_terms(nvars, out, tr)


def accumulate(store: dict, key, poly: Poly) -> None:
    """store[key] += poly on a sparse dict of Poly (or QC) values,
    dropping the entry when the sum vanishes."""
    cur = store.get(key)
    s = poly if cur is None else cur + poly
    if s.is_zero():
        store.pop(key, None)
    else:
        store[key] = s


# -- elementary jets --------------------------------------------------

def sin_jet(s0, c0, nvars: int, i: int, trunc: int) -> Poly:
    """Jet of sin(theta0 + xi_i) with sin(theta0)=s0, cos(theta0)=c0 exact."""
    xi = Poly.var(nvars, i, trunc)
    out = Poly.zero(nvars, trunc)
    p = Poly.one(nvars, trunc)
    for k in range(trunc + 1):
        coeff = Fraction((-1) ** (k // 2), factorial(k))
        base = QC.coerce(c0) if k % 2 else QC.coerce(s0)
        out = out + p * (base * coeff)
        p = p * xi
    return out


def cos_jet(s0, c0, nvars: int, i: int, trunc: int) -> Poly:
    """Jet of cos(theta0 + xi_i) = sin(theta0 + pi/2 + xi_i)."""
    return sin_jet(c0, -s0, nvars, i, trunc)
