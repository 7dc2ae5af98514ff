"""Exact Gaussian-rational scalars.

Coefficients throughout the symbolic modules are complex numbers with
rational real and imaginary parts, kept exact.
Enough arithmetic is implemented for the graded-algebra and jet code:
+, -, *, / (by nonzero), integer powers, conjugation, equality, hashing.
Invariant: a QC holds four Python ints, re = rn/rd and im = in/id, each
pair in lowest terms with a positive denominator, and zero as 0/1.  That
is Fraction's normal form, so equal values hold equal ints, and ==
compares the ints.  +, -, * and == work on the ints with math.gcd and
build no Fraction; ``re`` and ``im`` return the parts as Fraction, and
only they, hash, / and coercion from non-int input build one.
``perm_sign`` is the one permutation-sign routine the graded code shares
(edge reorderings, antisymmetric components, wedge products); it is
memoised, so callers pass tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

_new = object.__new__


def _ratio(x):
    """The rational x as (numerator, denominator) in lowest terms, with a
    positive denominator."""
    if type(x) is int:
        return x, 1
    if type(x) is float:
        return x.as_integer_ratio()
    f = x if type(x) is Fraction else Fraction(x)
    return int(f.numerator), int(f.denominator)


def _mul(an, ad, bn, bd):
    """(an/ad) * (bn/bd) in lowest terms, cancelled crosswise."""
    g = gcd(an, bd)
    if g > 1:
        an //= g
        bd //= g
    g = gcd(bn, ad)
    if g > 1:
        bn //= g
        ad //= g
    return an * bn, ad * bd


def _add(an, ad, bn, bd):
    """an/ad + bn/bd in lowest terms."""
    if ad == bd:
        n = an + bn
        g = gcd(n, ad)
        return (n, ad) if g == 1 else (n // g, ad // g)
    g = gcd(ad, bd)
    if g == 1:
        return an * bd + ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g = gcd(t, g)
    return (t, s * bd) if g == 1 else (t // g, s * (bd // g))


def _qc(rn, rd, in_, id_):
    q = _new(QC)
    q._rn, q._rd, q._in, q._id = rn, rd, in_, id_
    return q


class QC:
    """A complex number re + im*i with exact rational re, im."""

    __slots__ = ("_rn", "_rd", "_in", "_id")

    def __init__(self, re=0, im=0):
        if isinstance(re, QC):
            if im != 0:
                raise TypeError("QC(QC, im): a QC argument takes no "
                                "imaginary part")
            self._rn, self._rd, self._in, self._id = \
                re._rn, re._rd, re._in, re._id
            return
        self._rn, self._rd = _ratio(re)
        self._in, self._id = _ratio(im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._rn, self._rd)

    @property
    def im(self) -> Fraction:
        return Fraction(self._in, self._id)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, complex):
            # exact binary-float rationals; used when MC estimates enter
            # otherwise-exact bookkeeping
            return _qc(*x.real.as_integer_ratio(), *x.imag.as_integer_ratio())
        return QC(x)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, QC) else QC.coerce(other)
        q = _new(QC)
        q._rn, q._rd = _add(self._rn, self._rd, o._rn, o._rd)
        if self._in or o._in:
            q._in, q._id = _add(self._in, self._id, o._in, o._id)
        else:
            q._in, q._id = 0, 1
        return q

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self._rn, self._rd, -self._in, self._id)

    def __sub__(self, other):
        return self + (-QC.coerce(other))

    def __rsub__(self, other):
        return QC.coerce(other) + (-self)

    def __mul__(self, other):
        o = other if isinstance(other, QC) else QC.coerce(other)
        an, ad, bn, bd = self._rn, self._rd, self._in, self._id
        cn, cd, dn, dd = o._rn, o._rd, o._in, o._id
        q = _new(QC)
        if not bn and not dn:
            # real * real, the common case: _mul inline
            g = gcd(an, cd)
            if g > 1:
                an //= g
                cd //= g
            g = gcd(cn, ad)
            if g > 1:
                cn //= g
                ad //= g
            q._rn, q._rd, q._in, q._id = an * cn, ad * cd, 0, 1
        elif not bn:
            q._rn, q._rd = _mul(an, ad, cn, cd)
            q._in, q._id = _mul(an, ad, dn, dd)
        elif not dn:
            q._rn, q._rd = _mul(an, ad, cn, cd)
            q._in, q._id = _mul(bn, bd, cn, cd)
        else:
            q._rn, q._rd = _add(*_mul(an, ad, cn, cd), *_mul(-bn, bd, dn, dd))
            q._in, q._id = _add(*_mul(an, ad, dn, dd), *_mul(bn, bd, cn, cd))
        return q

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QC.coerce(other)
        ar, ai, br, bi = self.re, self.im, o.re, o.im
        n = br * br + bi * bi
        if n == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((ar * br + ai * bi) / n, (ai * br - ar * bi) / n)

    def __rtruediv__(self, other):
        return QC.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return QC(1) / self ** (-k)
        out = QC(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        return _qc(self._rn, self._rd, -self._in, self._id)

    # -- predicates / conversions ------------------------------------

    def is_zero(self) -> bool:
        return not self._rn and not self._in

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, QC):
            o = other
        else:
            try:
                o = QC.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self._rn == o._rn and self._rd == o._rd
                and self._in == o._in and self._id == o._id)

    def __hash__(self):
        if not self._in:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        # int / int rounds once, as Fraction.__float__ does
        return complex(self._rn / self._rd) + 1j * complex(self._in / self._id)

    def __repr__(self):
        if not self._in:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


@lru_cache(maxsize=4096)
def perm_sign(seq: tuple) -> int:
    """Sign (+1 or -1) of the permutation that sorts the distinct entries
    of the tuple ``seq``: each cycle of length c of the sorting
    permutation contributes c - 1 transpositions.  O(k log k) for k
    entries, and memoised per tuple (at most 4,096 of them), since the
    callers ask for the same few orderings again and again."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    seen = [False] * len(seq)
    even = True
    for i in range(len(seq)):
        if not seen[i]:
            j = order[i]
            while j != i:
                seen[j] = True
                j = order[j]
                even = not even
    return 1 if even else -1
