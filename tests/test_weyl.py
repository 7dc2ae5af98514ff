"""Truncated Weyl algebra: grading, products, homotopy, connections."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from defquant.exactnum import QC
from defquant.exactpoly import Poly, accumulate, neumann, poly_matrix
from defquant.weyl import (WeylElement, _merge_wedge, _shift, commutator,
                           ihbar_commutator, fixed_point, random_element)

PI_STD = poly_matrix(2, [[0, 1], [-1, 0]], -1, "bivector")
PI_3D = poly_matrix(3, [[0, 1, Fraction(-1, 2)], [-1, 0, 2],
                        [Fraction(1, 2), -2, 0]], -1, "bivector")


def v(dim, cap, *exp, dxs=(), hpow=0, coeff=1):
    return WeylElement.monomial(dim, cap, coeff, tuple(exp), dxs, hpow)


def seeded(seed, dim=2, cap=4, **kw):
    return random_element(dim, cap, random.Random(seed), **kw)


def poly_bivector(dim):
    """Antisymmetric Pi with x-dependent entries Pi^{kl} = (l - k) + x_k."""
    pi = [[Poly.const(dim, 0) for _ in range(dim)] for _ in range(dim)]
    for k in range(dim):
        for l in range(k + 1, dim):
            xk = Poly(dim, {tuple(int(m == k) for m in range(dim)): QC(1)})
            pi[k][l] = Poly.const(dim, l - k) + xk
            pi[l][k] = -pi[k][l]
    return pi


def bracket_by_definition(a, b, pi):
    """a o b - (-1)^{q_a q_b} b o a over form parts, from two circ calls
    per pair of parts (the reference for ``commutator``)."""
    out = WeylElement.zero(a.dim, min(a.cap, b.cap))
    for qa in a.form_degrees():
        ea = a.form_part(qa)
        for qb in b.form_degrees():
            eb = b.form_part(qb)
            out = (out + ea.circ(eb, pi)
                   - eb.circ(ea, pi).scale((-1) ** (qa * qb)))
    return out


def ihbar_circ_by_definition(a, b, pi):
    """(i/hbar) a o b from circ with the cap raised by 2."""
    cap = min(a.cap, b.cap)
    big = a.with_cap(cap + 2).circ(b.with_cap(cap + 2), pi)
    return big.divide_hbar().scale(QC(0, 1)).with_cap(cap)


# ---------------------------------------------------------------------
# construction and grading
# ---------------------------------------------------------------------

def test_cap_drops_overweight_terms():
    a = v(2, 3, 4, 0)                      # fiber degree 4 > cap 3
    assert a.is_zero()
    b = v(2, 3, 1, 0, hpow=1)              # Deg = 1 + 2 = 3, kept
    assert not b.is_zero()
    # hpow=2 alone already has Deg 4 > cap 3 and must vanish
    assert v(2, 3, 0, 0, hpow=2).is_zero()


def test_form_parts_partition():
    a = seeded(11, cap=5)
    back = WeylElement.zero(2, 5)
    for q in a.form_degrees():
        part = a.form_part(q)
        assert all(len(k[1]) == q for k in part.terms)
        back = back + part
    assert back == a


def test_linear_structure():
    a, b = seeded(1), seeded(2)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert a.scale(Fraction(2, 3)) + a.scale(Fraction(1, 3)) == a
    assert -(-a) == a


def test_deg_is_conserved_by_circ():
    # every Moyal-type correction trades two fiber degrees for one hbar,
    # so Deg-homogeneous inputs give a Deg-homogeneous product
    a = v(2, 8, 2, 1)       # Deg 3
    b = v(2, 8, 1, 2, hpow=1)  # Deg 5
    prod = a.circ(b, PI_STD)
    degs = {sum(k[0]) + 2 * k[2] for k in prod.terms}
    assert degs == {8}


# ---------------------------------------------------------------------
# products
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 4, 5])
def test_plain_product_is_supercommutative(seed):
    a, b = seeded(seed), seeded(seed + 100)
    swapped = WeylElement.zero(2, 4)
    for qa in a.form_degrees():
        for qb in b.form_degrees():
            swapped = swapped + b.form_part(qb).circ(
                a.form_part(qa), None).scale((-1) ** (qa * qb))
    assert not swapped.is_zero()
    assert a.circ(b, None) == swapped


@pytest.mark.parametrize("seed", [36, 37, 38])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["constant", "polynomial"])
def test_bracket_matches_its_definition(seed, dim, kind):
    # the one-pass bracket (twice the odd orders of a o b) against two
    # full products per pair of form parts
    pi = poly_bivector(dim) if kind == "polynomial" else (
        PI_STD if dim == 2 else PI_3D)
    a = seeded(seed, dim=dim, cap=6, n_terms=8)
    b = seeded(seed + 40, dim=dim, cap=6, n_terms=8)
    want = bracket_by_definition(a, b, pi)
    assert not want.is_zero()
    assert commutator(a, b, pi) == want
    big = bracket_by_definition(a.with_cap(8), b.with_cap(8), pi)
    assert (ihbar_commutator(a, b, pi)
            == big.divide_hbar().scale(QC(0, 1)).with_cap(6))
    assert commutator(a, b, None).is_zero()


# The Moyal product with Poly order tables for every Pi (the package
# takes scalar tables for a constant one): the reference that pins circ,
# commutator and ihbar_commutator value for value and term for term.

def _poly_table_orders(va, vb, half_pi, odd):
    table, out, j = {(va, vb): Poly.one(len(va))}, {}, 0
    while table:
        if not odd or j % 2:
            for (ea, eb), c in table.items():
                accumulate(out, (j, tuple(x + y for x, y in zip(ea, eb))),
                           c * 2 if odd else c)
        j += 1
        nxt = {}
        for (ea, eb), c in table.items():
            for k, l, h in half_pi:
                if ea[k] and eb[l]:
                    accumulate(nxt, (_shift(ea, k, -1), _shift(eb, l, -1)),
                               c * (h * Fraction(ea[k] * eb[l], j)))
        table = nxt
    return out


def _poly_table_moyal(a, b, pi, odd):
    dim, cap = a.dim, min(a.cap, b.cap)
    half_pi = [] if pi is None else [
        (k, l, pi[k][l] * QC(0, Fraction(1, 2))) for k in range(dim)
        for l in range(dim) if not pi[k][l].is_zero()]
    out = {}
    for (va, dxa, ha), pa in a.terms.items():
        deg_a = sum(va) + 2 * ha
        for (vb, dxb, hb), pb in b.terms.items():
            if deg_a + sum(vb) + 2 * hb > cap:
                continue
            sgn, dxm = _merge_wedge(dxa, dxb)
            if sgn == 0:
                continue
            base = pa * pb if sgn > 0 else -(pa * pb)
            for (j, e), c in _poly_table_orders(va, vb, half_pi, odd).items():
                accumulate(out, (e, dxm, ha + hb + j), base * c)
    return WeylElement(dim, cap, out)


def _poly_table_ihbar(a, b, pi):
    cap = min(a.cap, b.cap)
    big = _poly_table_moyal(a.with_cap(cap + 2), b.with_cap(cap + 2), pi,
                            True)
    return big.divide_hbar().scale(QC(0, 1)).with_cap(cap)


def _layout(e):
    """Everything of a WeylElement that a product could change: dim, cap,
    the keys in order, and each coefficient's trunc and terms in order."""
    return (e.dim, e.cap, [(key, p.trunc, list(p.terms.items()))
                           for key, p in e.terms.items()])


def _antisymmetric(dim, entry, zero):
    pi = [[zero for _ in range(dim)] for _ in range(dim)]
    for k in range(dim):
        for l in range(k + 1, dim):
            pi[k][l] = entry(k, l)
            pi[l][k] = -pi[k][l]
    return pi


def _bivector(kind, dim, rng):
    def gauss():
        return QC(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                           rng.randint(1, 3)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    if kind == "none":
        return None
    if kind == "numbers":
        return _antisymmetric(dim, lambda k, l: gauss(), QC(0))
    entry = {
        "constant": lambda k, l: Poly.const(dim, gauss()),
        "polynomial": lambda k, l: Poly.const(dim, l - k) + Poly.var(dim, k),
        # one constant entry, the others x-dependent: one Pi, one table kind
        "mixed": lambda k, l: (Poly.const(dim, gauss()) if (k, l) == (0, 1)
                               else Poly.const(dim, 2) + Poly.var(dim, l)),
        # constant, but truncating at degree 1: it must cut the products
        "truncated": lambda k, l: Poly.const(dim, gauss(), trunc=1),
    }[kind]
    return _antisymmetric(dim, entry, Poly.zero(dim))


@pytest.mark.parametrize("seed", [41, 42, 43])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("kind", ["none", "numbers", "constant",
                                  "polynomial", "mixed", "truncated"])
def test_products_equal_the_poly_table_reference(seed, dim, kind):
    # the bracket test above compares commutator with circ, which read the
    # same order tables; this pins every table against the Poly reference
    rng = random.Random(f"{kind} {dim} {seed}")
    pi = _bivector(kind, dim, rng)
    cap_a, cap_b = rng.randint(4, 8), rng.randint(4, 8)
    a = random_element(dim, cap_a, rng, n_terms=8)
    b = random_element(dim, cap_b, rng, n_terms=8)
    pairs = [(a.circ(b, pi), _poly_table_moyal(a, b, pi, False)),
             (commutator(a, b, pi), _poly_table_moyal(a, b, pi, True)),
             (ihbar_commutator(a, b, pi), _poly_table_ihbar(a, b, pi))]
    for got, want in pairs:
        assert _layout(got) == _layout(want)
    assert not pairs[0][1].is_zero()
    if kind == "truncated":
        # the cut shows: the same constants without trunc give more terms
        plain = [[Poly.const(dim, p.constant_term()) for p in row]
                 for row in pi]
        assert _layout(a.circ(b, plain)) != _layout(pairs[0][0])


def _const_matrix(rows):
    return [[Poly.const(len(rows), c) for c in row] for row in rows]


@pytest.mark.parametrize("rows, pair", [
    ([[0, 1], [1, 0]], r"\(0, 1\) and \(1, 0\)"),
    ([[0, 1, 2], [-1, 0, 3], [-2, 3, 0]], r"\(1, 2\) and \(2, 1\)"),
    ([[1, 1], [-1, 0]], r"\(0, 0\) and \(0, 0\)"),
])
def test_bracket_rejects_a_bivector_that_is_not_antisymmetric(rows, pair):
    # the one-pass bracket is only right for an antisymmetric Pi; circ
    # takes any Pi and still equals the Poly-table reference
    pi, dim = _const_matrix(rows), len(rows)
    a = seeded(44, dim=dim, cap=5)
    b = seeded(45, dim=dim, cap=5)
    for bracket in (commutator, ihbar_commutator):
        with pytest.raises(ValueError, match="antisymmetric bivector: "
                                             "entries " + pair):
            bracket(a, b, pi)
    assert _layout(a.circ(b, pi)) == _layout(
        _poly_table_moyal(a, b, pi, False))


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_circ_is_associative_constant_bivector(seed):
    a, b, c = seeded(seed), seeded(seed + 50), seeded(seed + 90)
    left = a.circ(b, PI_STD).circ(c, PI_STD)
    right = a.circ(b.circ(c, PI_STD), PI_STD)
    assert left == right


@pytest.mark.parametrize("seed", [9, 10])
def test_circ_is_associative_polynomial_bivector(seed):
    # the bivector coefficients ride along without being differentiated,
    # so x-dependence cannot break fiberwise associativity
    x1 = Poly(2, {(1, 0): QC(1)})
    pi = [[Poly.const(2, 0), Poly.const(2, 1) + x1],
          [Poly.const(2, -1) - x1, Poly.const(2, 0)]]
    a, b, c = seeded(seed), seeded(seed + 21), seeded(seed + 42)
    left = a.circ(b, pi).circ(c, pi)
    right = a.circ(b.circ(c, pi), pi)
    assert left == right


def test_canonical_commutation_relation():
    v1 = v(2, 4, 1, 0)
    v2 = v(2, 4, 0, 1)
    lhs = ihbar_commutator(v1, v2, PI_STD)
    assert lhs == WeylElement.monomial(2, 4, -1)


def test_odd_square_matches_half_bracket():
    # seed 17: the 1-form part has both dx^0 and dx^1 terms, so its
    # square is not zero
    a = seeded(17).form_part(1)
    assert a.form_degrees() == [1]
    sq = ihbar_circ_by_definition(a, a, PI_STD)
    assert not sq.is_zero()
    assert sq == ihbar_commutator(a, a, PI_STD).scale(Fraction(1, 2))


def test_divide_hbar_guard():
    a = v(2, 4, 1, 0) + v(2, 4, 0, 1, hpow=1)
    with pytest.raises(ArithmeticError):
        a.divide_hbar()
    assert v(2, 4, 1, 0).mul_hbar().divide_hbar() == v(2, 4, 1, 0)


def test_neumann_sums_the_deg_raising_series():
    # x + L x + L^2 x + ... is the fixed point of y = x + L y
    gamma = _poly_gamma(2)
    x = seeded(39, cap=5)

    def step(e):
        return e.nabla(gamma).delta_inv()
    assert not step(x).is_zero()
    want = fixed_point(lambda y: x + step(y), x, 7, "reference")
    assert neumann(step, x, 7, "series") == want


def test_neumann_rejects_a_step_that_keeps_deg():
    x = seeded(40)
    with pytest.raises(ArithmeticError, match="identity did not terminate"):
        neumann(lambda e: e, x, 10, "identity")
    # one round too few is also refused, not returned truncated
    with pytest.raises(ArithmeticError):
        neumann(lambda e: e.delta_inv(), v(2, 4, 0, 0, dxs=(0, 1)), 1, "d")


# ---------------------------------------------------------------------
# differentials and the homotopy
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", list(range(13, 19)))
def test_delta_squares_to_zero(seed):
    a = seeded(seed, cap=5)
    assert a.delta().delta().is_zero()
    assert a.delta_inv().delta_inv().is_zero()


@pytest.mark.parametrize("seed", list(range(19, 25)))
@pytest.mark.parametrize("dim", [2, 3])
def test_poincare_homotopy(seed, dim):
    # delta_inv raises Deg by one, so the identity needs one unit of cap
    # headroom above the element (random_element stays below Deg 6)
    a = seeded(seed, dim=dim, cap=6)
    recon = a.delta().delta_inv() + a.delta_inv().delta() + a.sigma()
    assert recon == a


def test_poincare_homotopy_breaks_at_the_cap():
    # a Deg = cap term with a form index overflows under delta_inv and the
    # reconstruction loses it: the homotopy is an identity of the full
    # algebra, not of the truncated quotient at its boundary
    a = v(2, 3, 3, 0, dxs=(1,))
    assert a.delta_inv().is_zero()
    recon = a.delta().delta_inv() + a.delta_inv().delta() + a.sigma()
    assert recon != a


def test_delta_spot_values():
    assert v(2, 4, 1, 0).delta() == v(2, 4, 0, 0, dxs=(0,))
    assert v(2, 4, 0, 0, dxs=(0,)).delta_inv() == v(2, 4, 1, 0)
    assert v(2, 4, 2, 0).delta() == v(2, 4, 1, 0, dxs=(0,), coeff=2)


def _leibniz_defect(op, a, b, prod):
    lhs = op(prod(a, b))
    for qa in a.form_degrees():
        ea = a.form_part(qa)
        lhs = lhs - prod(op(ea), b)
        lhs = lhs - prod(ea, op(b)).scale((-1) ** qa)
    return lhs


@pytest.mark.parametrize("seed", [25, 26, 27])
def test_delta_is_a_derivation_of_circ(seed):
    # delta lowers Deg, so Leibniz only survives truncation when the cap
    # is generous enough that no product term is dropped
    a, b = seeded(seed, cap=12), seeded(seed + 33, cap=12)
    defect = _leibniz_defect(lambda e: e.delta(), a, b,
                             lambda x, y: x.circ(y, PI_STD))
    assert defect.is_zero()


def _poly_gamma(dim):
    """Symmetric polynomial Christoffel data for derivation tests."""
    x = [Poly(dim, {tuple(1 if j == i else 0 for j in range(dim)): QC(1)})
         for i in range(dim)]
    zero = Poly.const(dim, 0)
    gamma = [[[zero for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
    gamma[0][0][1] = gamma[0][1][0] = x[1]
    gamma[1][1][1] = x[0] + x[1]
    gamma[0][0][0] = Poly.const(dim, Fraction(1, 2))
    return gamma


@pytest.mark.parametrize("seed", [28, 29, 30])
def test_nabla_is_a_derivation_of_mul(seed):
    gamma = _poly_gamma(2)
    a, b = seeded(seed), seeded(seed + 17)
    defect = _leibniz_defect(lambda e: e.nabla(gamma), a, b,
                             lambda x, y: x.circ(y, None))
    assert defect.is_zero()


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_nabla_anticommutes_with_delta(seed):
    # torsion freedom (symmetric Christoffels) in wedge coordinates
    gamma = _poly_gamma(2)
    a = seeded(seed, cap=5)
    assert (a.nabla(gamma).delta() + a.delta().nabla(gamma)).is_zero()


@pytest.mark.parametrize("seed", [34, 35])
def test_flat_nabla_squares_to_zero(seed):
    a = seeded(seed, cap=5)
    assert a.nabla(None).nabla(None).is_zero()


def test_sigma_projects_to_function_part():
    poly = Poly(2, {(2, 0): QC(3), (0, 0): QC(1)})
    a = (WeylElement.from_function(poly, 2, 4)
         + v(2, 4, 1, 0) + v(2, 4, 0, 0, dxs=(1,), hpow=1))
    s = a.sigma()
    assert s == WeylElement.from_function(poly, 2, 4)
    jets = (a + WeylElement.from_function(poly, 2, 4, hpow=1)).sigma_jets()
    assert set(jets) == {0, 1}
    assert jets[0] == poly and jets[1] == poly


# ---------------------------------------------------------------------
# mismatched Weyl input raises, also under python -O
# ---------------------------------------------------------------------

WEYL_MISMATCHES = {
    "product dim": ("WeylElement.zero(2, 4).circ(WeylElement.zero(3, 4), "
                    "None)", ValueError,
                    "Weyl product of dim 2 and dim 3 elements"),
    "add dim": ("WeylElement.zero(2, 4) + WeylElement.zero(3, 4)",
                ValueError, "cannot add a dim 3 element to a dim 2 one"),
    "add scalar": ("WeylElement.zero(2, 4) + 1", TypeError,
                   "unsupported operand"),
    "repeated dx": ("WeylElement.monomial(2, 4, 1, dxs=(1, 0, 1))",
                    ValueError, r"repeated dx index in \(0, 1, 1\)"),
    "symmetric bivector": ("poly_matrix(2, [[0, 1], [1, 0]], -1, "
                           "'bivector')", ValueError,
                           r"antisymmetric: entries \(0, 1\)"),
}


@pytest.mark.parametrize("case", WEYL_MISMATCHES)
def test_weyl_mismatch_raises(case):
    code, exc_type, message = WEYL_MISMATCHES[case]
    with pytest.raises(exc_type, match=message):
        eval(code, {"WeylElement": WeylElement, "poly_matrix": poly_matrix})


@pytest.mark.parametrize("case", WEYL_MISMATCHES)
def test_weyl_mismatch_raises_under_python_O(case):
    # under -O an assert would vanish and the mismatch would pass silently
    # or fail later, elsewhere
    code, exc_type, message = WEYL_MISMATCHES[case]
    script = ("from defquant.exactpoly import poly_matrix\n"
              "from defquant.weyl import WeylElement\n"
              f"import re\ntry:\n    {code}\n"
              f"except {exc_type.__name__} as exc:\n"
              f"    raise SystemExit(0 if re.search({message!r}, str(exc))"
              " else 2)\nraise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", script],
                          env=env).returncode == 0
