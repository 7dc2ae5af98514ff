"""Exact scalar and polynomial/jet arithmetic."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from defquant.exactnum import QC, perm_sign
from defquant.exactpoly import (Poly, matrix_inverse_jet, poly_sum, sin_jet,
                               cos_jet)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
qcs = st.builds(QC, rationals, rationals)


@given(qcs, qcs, qcs)
def test_qc_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == QC(0)


@given(qcs)
def test_qc_conj_involution(a):
    assert a.conj().conj() == a
    assert (a * a.conj()).im == 0


@given(qcs)
def test_qc_division_inverts(a):
    if not a.is_zero():
        assert (QC(1) / a) * a == QC(1)


def test_qc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QC(1) / QC(0)


def test_qc_coerce_exact_binary_floats():
    c = QC.coerce(complex(0.5, -0.25))
    assert c == QC(Fraction(1, 2), Fraction(-1, 4))
    assert QC.coerce(Fraction(2, 3)) == QC(Fraction(2, 3))


def test_qc_pow_negative():
    assert QC(0, 1) ** -1 == QC(0, -1)
    assert QC(2) ** -2 == QC(Fraction(1, 4))


# ---------------------------------------------------------------------


def xy(expr=None, trunc=None):
    return Poly(2, expr, trunc)


def test_poly_basic_arithmetic():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = (x + y) ** 2
    assert p == xy({(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert (p - p).is_zero()
    assert p * 0 == Poly.zero(2)


def test_poly_diff():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x ** 3 * y + x
    assert p.diff(0) == xy({(2, 1): 3, (0, 0): 1})
    assert p.diff(1) == xy({(3, 0): 1})
    assert p.diff(1).diff(1).is_zero()


def test_jet_truncation_in_product():
    x = Poly.var(2, 0, trunc=3)
    p = (1 + x) ** 5
    assert p == xy({(0, 0): 1, (1, 0): 5, (2, 0): 10, (3, 0): 10}, trunc=3)


def test_diff_lowers_truncation():
    # a jet known through total degree 3 determines its derivative only
    # through degree 2; the dropped order must not masquerade as exact
    p = Poly(1, {(k,): 1 for k in range(4)}, trunc=3)
    d = p.diff(0)
    assert d.trunc == 2
    assert d == Poly(1, {(0,): 1, (1,): 2, (2,): 3}, trunc=2)
    q = Poly(1, {(1,): 4})  # untruncated: stays untruncated
    assert q.diff(0).trunc is None


def test_diff_trunc_composes_with_product():
    x = Poly.var(1, 0, trunc=4)
    g = (1 + x).inverse()          # 1 - x + x^2 - x^3 + x^4
    dg = g.diff(0)                 # reliable through degree 3 only
    assert dg.trunc == 3
    # (1+x)^-2 through degree 3
    want = Poly(1, {(0,): 1, (1,): -2, (2,): 3, (3,): -4}, trunc=3)
    assert -dg == want


def test_inverse_roundtrip():
    x = Poly.var(2, 0, trunc=5)
    y = Poly.var(2, 1, trunc=5)
    p = 2 + x + y * y * 3
    q = p.inverse()
    assert p * q == Poly.one(2, trunc=5)
    with pytest.raises(ValueError):
        (1 + Poly.var(2, 0)).inverse()
    with pytest.raises(ZeroDivisionError):
        Poly.var(2, 0, trunc=4).inverse()


def test_inverse_at_trunc_0_is_the_constant_inverse():
    p = Poly(2, {(0, 0): QC(2, 1), (1, 0): 3}, trunc=0)
    assert p.inverse() == Poly.const(2, QC(1) / QC(2, 1), 0)
    assert p.inverse().trunc == 0


def test_eval_matches_float():
    p = xy({(2, 1): Fraction(3, 7), (0, 0): 1})
    got = p.eval_complex((0.5, -2.0))
    assert got == pytest.approx(Fraction(3, 7) * 0.25 * -2.0 + 1)
    assert p.eval_qc((Fraction(1, 2), -2)) == QC(Fraction(11, 14))


@pytest.mark.parametrize("k", range(7))
def test_sin_cos_jets_match_taylor(k):
    # base angle with exact sine 3/5, cosine 4/5
    s = sin_jet(Fraction(3, 5), Fraction(4, 5), 1, 0, 8)
    c = cos_jet(Fraction(3, 5), Fraction(4, 5), 1, 0, 8)
    th = math.asin(0.6)
    x = 0.1
    num_s = sum(complex(s.terms.get((j,), QC(0)).re) * x ** j for j in range(9))
    num_c = sum(complex(c.terms.get((j,), QC(0)).re) * x ** j for j in range(9))
    assert num_s == pytest.approx(math.sin(th + x), abs=1e-9)
    assert num_c == pytest.approx(math.cos(th + x), abs=1e-9)
    # derivative structure: s' = c, c' = -s at matching truncation
    assert s.diff(0) == c.truncate(7)
    assert c.diff(0) == -s.truncate(7)


def test_sin_cos_pythagoras_exact():
    s = sin_jet(Fraction(3, 5), Fraction(4, 5), 1, 0, 6)
    c = cos_jet(Fraction(3, 5), Fraction(4, 5), 1, 0, 6)
    assert s * s + c * c == Poly.one(1, trunc=6)


# ---------------------------------------------------------------------
# fast paths of QC and Poly against their schoolbook definitions


def _qc_grid():
    """Seeded Gaussian rationals: 0, pure reals, pure imaginaries and
    general ones."""
    rng = random.Random(11)

    def frac():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))

    # 1/6 + 1/10 = 8/30 needs the last gcd of a sum over unequal
    # denominators
    out = [QC(0), QC(1), QC(-1), QC(0, 1), QC(0, Fraction(-2, 3)),
           QC(Fraction(1, 6), Fraction(1, 10)), QC(Fraction(1, 10))]
    for _ in range(6):
        out += [QC(frac()), QC(0, frac()), QC(frac(), frac())]
    # the star-assembly regime: parts with 2^53-scale denominators, as MC
    # estimates carry, and parts far above 2^53
    out += [QC.coerce(0.1), QC.coerce(complex(1 / 3, -2.5e-17)),
            QC(Fraction(2 ** 60 + 1, 3 ** 40)),
            QC(Fraction(-3 ** 40, 7), Fraction(1, 2 ** 60 + 1))]
    return out


# non-QC right operands: ints, a Fraction, binary floats
_OTHERS = [3, -1, 0, Fraction(5, 4), complex(0.5, -0.25), 0.75]


def _parts(q):
    assert type(q) is QC and type(q.re) is Fraction and type(q.im) is Fraction
    return q.re, q.im


def test_qc_arithmetic_matches_the_four_product_formula():
    grid = _qc_grid()
    for a in grid:
        ar, ai = a.re, a.im
        for b in grid + _OTHERS:
            br, bi = _parts(QC.coerce(b))
            assert _parts(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
            assert _parts(b * a) == (ar * br - ai * bi, ar * bi + ai * br)
            assert _parts(a + b) == (ar + br, ai + bi)
            assert _parts(b + a) == (ar + br, ai + bi)
            assert _parts(a - b) == (ar - br, ai - bi)
            assert _parts(b - a) == (br - ar, bi - ai)
            assert (a == b) is ((ar, ai) == (br, bi))
            assert (b == a) is ((ar, ai) == (br, bi))


def _grid_results():
    """Every result of the four-product grid: sums, differences and
    products both ways, quotients, negations, conjugates and powers."""
    grid = _qc_grid()
    out = []
    for a in grid:
        out += [-a, a.conj(), a ** 2, a ** 3]
        for b in grid + _OTHERS:
            out += [a * b, b * a, a + b, b + a, a - b, b - a]
            if b != 0:
                out.append(a / b)
    return out


def _stored(q):
    """The four ints a QC holds: re = n/d, im = n/d."""
    return tuple(getattr(q, name) for name in QC.__slots__)


def test_qc_results_are_stored_in_lowest_terms():
    # == and hash compare the stored ints, so a missed reduction would
    # make equal values compare unequal
    for q in _grid_results():
        rn, rd, in_, id_ = _stored(q)
        for n, d in ((rn, rd), (in_, id_)):
            assert type(n) is int and type(d) is int
            assert d > 0 and math.gcd(n, d) == 1
            assert n or d == 1
        assert _stored(QC(q.re, q.im)) == (rn, rd, in_, id_)


def test_qc_arithmetic_builds_no_fraction(monkeypatch):
    grid = _qc_grid()
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for a in grid:
        _ = (-a, a.conj(), a.is_zero(), bool(a), a.to_complex(), a ** 2,
             a * 3, a + 3, a - 3, 3 - a, a == 3)
        for b in grid:
            _ = (a * b, a + b, a - b, a == b)
    assert built == []
    QC(1).re
    assert built == [(1, 1)]


def _hex(z: complex):
    return z.real.hex(), z.imag.hex()


def test_qc_to_complex_is_bit_identical_to_the_fraction_expression():
    tiny = Fraction(-1, 2 ** 1100)   # rounds to -0.0
    huge = Fraction(10 ** 400 + 1, 10 ** 399)   # in range, parts are not
    cases = _grid_results() + [
        QC.coerce(complex(-0.0, -0.0)), QC(tiny), QC(0, tiny),
        QC(tiny, tiny), QC(Fraction(1, 3), tiny), QC(huge, -huge)]
    signs = set()
    for q in cases:
        got = _hex(q.to_complex())
        assert got == _hex(complex(q.re) + 1j * complex(q.im))
        signs.update(h for h in got if h.endswith("0x0.0p+0"))
    assert signs == {"0x0.0p+0", "-0x0.0p+0"}


@pytest.mark.parametrize("q", [
    QC(10 ** 400), QC(0, Fraction(-10 ** 400, 7)),
    QC(1, Fraction(10 ** 800, 10 ** 300 + 1))],
    ids=["real part", "imaginary part", "imaginary quotient"])
def test_qc_to_complex_beyond_the_float_range_overflows_as_fraction_does(q):
    with pytest.raises(OverflowError) as want:
        complex(q.re) + 1j * complex(q.im)
    with pytest.raises(OverflowError) as got:
        q.to_complex()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("make", [
    lambda: QC(), lambda: QC(3), lambda: QC(3, -2), lambda: QC(True),
    lambda: QC(Fraction(2, 3)), lambda: QC(Fraction(2, 3), Fraction(1, 5)),
    lambda: QC("3/4"), lambda: QC("1/2", "-5"), lambda: QC(0.1),
    lambda: QC(0.5, 2), lambda: QC.coerce(complex(0.1, -3.0)),
    lambda: QC.coerce(7), lambda: QC(QC(1, 2)), lambda: QC(QC(3), 0),
    lambda: QC(2) * QC(Fraction(1, 3)), lambda: QC(2) * 3,
    lambda: QC(0, 2) * QC(0, 3), lambda: QC(1) - 1, lambda: -QC(1, 1),
    lambda: QC(1, 2) / QC(3, -1), lambda: QC(1, 1).conj(),
    lambda: QC(Fraction(1, 2)) ** 3,
])
def test_qc_parts_are_always_fractions(make):
    _parts(make())


def test_qc_hash_of_a_real_is_the_hash_of_its_fraction():
    assert hash(QC(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(QC(Fraction(1, 2)) * QC(2)) == hash(1)
    assert QC(Fraction(1, 2)) == Fraction(1, 2)


def test_qc_of_a_qc_takes_no_imaginary_part():
    with pytest.raises(TypeError):
        QC(QC(1), 5)
    # the check must not be an assert, which python -O removes
    code = ("from defquant.exactnum import QC\n"
            "try:\n    QC(QC(1), 5)\nexcept TypeError:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=env).returncode == 0


def _random_poly(rng, nvars, trunc, n_terms=6):
    coeffs = [QC(1), QC(-1), QC(Fraction(1, 2)), QC(0, 1), QC(2, -1),
              QC(Fraction(-3, 4), Fraction(1, 3))]
    terms = {}
    for _ in range(n_terms):
        e = [0] * nvars
        for _ in range(rng.randrange(4)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.choice(coeffs)
    return Poly(nvars, terms, trunc)


def _tighter(a, b):
    return b if a is None else a if b is None else min(a, b)


def _naive_product(p, q):
    """Schoolbook product on (re, im) Fraction pairs: a coefficient that
    cancels to 0 is dropped and comes back at the end of the dict if a
    later product hits its monomial again."""
    tr = _tighter(p.trunc, q.trunc)
    out = {}
    cancelled = 0
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if tr is not None and sum(e) > tr:
                continue
            re = c1.re * c2.re - c1.im * c2.im
            im = c1.re * c2.im + c1.im * c2.re
            if e in out:
                re, im = out[e][0] + re, out[e][1] + im
                if re == 0 and im == 0:
                    del out[e]
                    cancelled += 1
                    continue
            out[e] = (re, im)
    return out, tr, cancelled


def _assert_clean(p):
    for e, c in p.terms.items():
        assert type(c) is QC and not c.is_zero()
        assert len(e) == p.nvars
        assert p.trunc is None or sum(e) <= p.trunc


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("truncs", [(None, None), (3, None), (None, 2),
                                    (4, 3)])
def test_poly_product_matches_the_schoolbook_product(nvars, truncs):
    rng = random.Random(100 * nvars + 7)
    cancelled = 0
    for _ in range(12):
        a = _random_poly(rng, nvars, truncs[0])
        b = _random_poly(rng, nvars, truncs[1])
        # (a + b)(a - b) = a^2 - b^2: the cross terms cancel
        for p, q in ((a, b), (a + b, a - b), (a - b * QC(0, 1), a + b)):
            got = p * q
            want, tr, n = _naive_product(p, q)
            cancelled += n
            assert got.trunc == tr and got.nvars == nvars
            assert [(e, (c.re, c.im)) for e, c in got.terms.items()] \
                == list(want.items())
            _assert_clean(got)
    assert cancelled > 0


@pytest.mark.parametrize("truncs", [(None, None), (5, None), (None, 2),
                                    (2, 4), (3, 3)])
def test_poly_sums_and_derivatives_keep_the_invariants(truncs):
    rng = random.Random(31)
    for nvars in (1, 2, 3):
        for _ in range(10):
            a = _random_poly(rng, nvars, truncs[0], 8)
            b = _random_poly(rng, nvars, truncs[1], 8)
            tr = _tighter(*truncs)
            for got, sign in ((a + b, 1), (a - b, -1), (b + a, 1)):
                want = dict(a.terms)
                for e, c in b.terms.items():
                    want[e] = want.get(e, QC(0)) + c * sign
                assert got == Poly(nvars, want, tr) and got.trunc == tr
                _assert_clean(got)
            assert (a - a).is_zero()
            for q in (-a, a * QC(0, 2), a * 3, a.diff(nvars - 1)):
                _assert_clean(q)
            assert a + (-a) == Poly.zero(nvars)


# ---------------------------------------------------------------------
# mismatched Poly input raises, also under python -O
# ---------------------------------------------------------------------

POLY_MISMATCHES = {
    "add nvars": ("Poly.var(2, 0) + Poly.var(3, 2)",
                  "cannot add a 3-variable Poly to a 2-variable one"),
    "mul nvars": ("Poly.var(2, 0) * Poly.var(3, 2)",
                  "cannot multiply a 2-variable Poly by a 3-variable one"),
    "negative power": ("Poly.var(2, 0) ** -1", "negative exponent -1"),
}


@pytest.mark.parametrize("case", POLY_MISMATCHES)
def test_poly_mismatch_raises(case):
    code, message = POLY_MISMATCHES[case]
    with pytest.raises(ValueError, match=message):
        eval(code, {"Poly": Poly})


@pytest.mark.parametrize("case", POLY_MISMATCHES)
def test_poly_mismatch_raises_under_python_O(case):
    # under -O an assert would vanish: + and * would mix exponent lengths
    # and a negative power would shift -1 right forever
    code, message = POLY_MISMATCHES[case]
    script = ("from defquant.exactpoly import Poly\nimport re\ntry:\n    "
              + code + "\nexcept ValueError as exc:\n"
              f"    raise SystemExit(0 if re.search({message!r}, str(exc))"
              " else 2)\nraise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          timeout=60).returncode == 0


def test_matrix_inverse_jet_pivots_and_names_the_input():
    """Gauss-Jordan over jets: a zero constant term in the first pivot
    column takes a row swap; the product with the input is the identity
    up to the order, and a matrix with no unit pivot is named."""
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    one = Poly.const(2, 1)
    mat = [[x, one + y], [one * 2 + x * y, x]]
    inv = matrix_inverse_jet(mat, 3, "m is singular")
    for i in range(2):
        for j in range(2):
            prod = mat[i][0] * inv[0][j] + mat[i][1] * inv[1][j]
            assert (prod - Poly.const(2, int(i == j), 3)).is_zero()
    with pytest.raises(ValueError, match="^m is singular at the base point$"):
        matrix_inverse_jet([[x, y], [y, one + x]], 3, "m is singular")


def test_poly_sum_is_the_left_fold_of_plus():
    """Terms, their order and trunc as Poly.zero + p1 + p2 + ... leaves
    them, when a later summand tightens trunc and when sums cancel."""
    rng = random.Random(11)
    for _ in range(200):
        polys = []
        for _ in range(rng.randint(0, 6)):
            terms = {tuple(rng.randint(0, 3) for _ in range(2)):
                     QC(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                     for _ in range(4)}
            p = Poly(2, terms, rng.choice([None, None, 1, 2, 4]))
            polys.append(p)
            if rng.random() < 0.3:
                polys.append(-p)
        want = Poly.zero(2)
        for p in polys:
            want = want + p
        got = poly_sum(2, polys)
        assert got == want and list(got.terms) == list(want.terms)
        assert got.trunc == want.trunc


def inversion_sign(seq) -> int:
    """Reference: the sign of the permutation that sorts the distinct
    entries of ``seq``, by counting inversions (the plain form of
    ``perm_sign``)."""
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def test_perm_sign_equals_the_inversion_count():
    """On every permutation of length <= 6, then on every one of length 7
    (more than the memo holds, so entries are evicted and computed
    again), and on distinct entries that are not 0..k-1: the wedge index
    tuples d1 + d2 that weyl._merge_wedge signs, and seeded samples."""
    for k in range(8):
        for p in itertools.permutations(range(k)):
            assert perm_sign(p) == inversion_sign(p), p
    for k in range(7):
        assert all(perm_sign(p) == inversion_sign(p)
                   for p in itertools.permutations(range(k)))
    dims = range(6)
    forms = [c for r in range(4) for c in itertools.combinations(dims, r)]
    for d1, d2 in itertools.product(forms, repeat=2):
        if d1 and d2 and not set(d1) & set(d2):
            assert perm_sign(d1 + d2) == inversion_sign(d1 + d2), (d1, d2)
    rng = random.Random(29)
    for _ in range(500):
        seq = tuple(rng.sample(range(-40, 40), rng.randint(0, 12)))
        assert perm_sign(seq) == inversion_sign(seq), seq
