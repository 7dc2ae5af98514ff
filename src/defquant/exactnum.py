"""Exact Gaussian-rational scalars.

Coefficients throughout the symbolic modules are complex numbers with
rational real and imaginary parts, kept exact with fractions.Fraction.
Enough arithmetic is implemented for the graded-algebra and jet code:
+, -, *, / (by nonzero), integer powers, conjugation, equality, hashing.
Invariant: ``re`` and ``im`` are always exactly ``Fraction`` (never an
int, a float or a Fraction subclass), so the arithmetic below combines the
parts without converting them; a Fraction argument is stored as it is.
The jets of the exact stack are mostly real, so a product of two reals
costs one Fraction product.
``perm_sign`` is the one permutation-sign routine the graded code shares
(edge reorderings, antisymmetric components, wedge products).
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


class QC:
    """A complex number re + im*i with exact rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, QC):
            if im != 0:
                raise TypeError("QC(QC, im): a QC argument takes no "
                                "imaginary part")
            self.re, self.im = re.re, re.im
            return
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, complex):
            # exact binary-float rationals; used when MC estimates enter
            # otherwise-exact bookkeeping
            return QC(Fraction(x.real), Fraction(x.imag))
        return QC(x)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = other if isinstance(other, QC) else QC.coerce(other)
        return QC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        o = other if isinstance(other, QC) else QC.coerce(other)
        return QC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QC.coerce(other) + (-self)

    def __mul__(self, other):
        o = other if isinstance(other, QC) else QC.coerce(other)
        if not self.im and not o.im:
            return QC(self.re * o.re, _ZERO)
        return QC(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QC.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC((self.re * o.re + self.im * o.im) / n,
                  (self.im * o.re - self.re * o.im) / n)

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
        return QC(self.re, -self.im)

    # -- predicates / conversions ------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

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
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"QC({self.re})"
        return f"QC({self.re}, {self.im})"


def perm_sign(seq) -> int:
    """Sign (+1 or -1) of the permutation that sorts the distinct entries
    of ``seq``, by counting inversions."""
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1
