"""Fedosov machinery: inputs, curvature, fixed points, star products."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from defquant.exactnum import QC
from defquant.exactpoly import Poly
from defquant.fedosov import (FedosovInput, flat_input, curvature_tensor,
                              curvature_element, solve_connection,
                              catalan_leaf, catalan_trees,
                              catalan_expansion, catalan_number,
                              catalan_checks, fedosov_taylor, fedosov_star,
                              flat_star_vs_moyal, moyal_star_jets,
                              deformed_poincare_defect, curved_input,
                              fedosov_homotopy)
from defquant.weyl import (WeylElement, fixed_point, ihbar_commutator,
                          random_element)

X1 = Poly(2, {(1, 0): QC(1)})
X2 = Poly(2, {(0, 1): QC(1)})
ZERO = Poly.const(2, 0)


def sympl_curved(cap: int) -> FedosovInput:
    """Symplectic plane with Gamma^1_{00} = x_2 (indices from 0), i.e. the
    raised index of a totally symmetric lowered T with T_{000} = x_2."""
    gamma = [[[ZERO, ZERO], [ZERO, ZERO]], [[X2, ZERO], [ZERO, ZERO]]]
    return FedosovInput(2, cap, [[0, 1], [-1, 0]], [[0, 1], [-1, 0]], gamma)


def const_center(cap: int, c=1) -> WeylElement:
    return WeylElement.monomial(2, cap, c, dxs=(0, 1), hpow=1)


def ihbar_circ_by_definition(a, b, pi):
    """(i/hbar) a o b from circ with the cap raised by 2."""
    cap = min(a.cap, b.cap)
    big = a.with_cap(cap + 2).circ(b.with_cap(cap + 2), pi)
    return big.divide_hbar().scale(QC(0, 1)).with_cap(cap)


def rand_poly(rng, deg=2):
    terms = {}
    for _ in range(4):
        e = (rng.randint(0, deg), rng.randint(0, deg))
        terms[e] = QC(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return Poly(2, terms)


# ---------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------

def test_input_rejects_symmetric_omega():
    with pytest.raises(ValueError, match="antisymmetric"):
        FedosovInput(2, 4, [[0, 1], [1, 0]], [[0, 1], [-1, 0]])


def test_input_rejects_symmetric_pi():
    with pytest.raises(ValueError, match="antisymmetric"):
        FedosovInput(2, 4, [[0, 1], [-1, 0]], [[1, 0], [0, 1]])


def test_input_rejects_degenerate_omega():
    with pytest.raises(ValueError, match="degenerate"):
        FedosovInput(2, 4, [[ZERO, X1], [-X1, ZERO]], [[0, 1], [-1, 0]])


def test_input_decides_degeneracy_exactly():
    """omega's constant term is inverted over the rationals: entries of
    1e-7 (determinant 1e-14, below a float cut at 1e-12) are accepted,
    and a rank-2 form in dimension 4 is still rejected."""
    tiny = Fraction(1e-7)
    inp = FedosovInput(2, 4, [[0, tiny], [-tiny, 0]], [[0, 1], [-1, 0]])
    assert inp.omega[0][1] == Poly.const(2, tiny)
    rank2 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError,
                       match="^omega is degenerate at the base point$"):
        FedosovInput(4, 4, rank2, rank2)


def test_input_rejects_asymmetric_christoffels():
    gamma = [[[ZERO, X2], [ZERO, ZERO]], [[ZERO, ZERO], [ZERO, ZERO]]]
    with pytest.raises(ValueError, match="symmetric"):
        FedosovInput(2, 4, [[0, 1], [-1, 0]], [[0, 1], [-1, 0]], gamma)


def test_input_rejects_center_without_hbar():
    bad = WeylElement.monomial(2, 4, 1, dxs=(0, 1), hpow=0)
    with pytest.raises(ValueError, match="hbar"):
        flat_input(cap=4, center=bad)


def test_input_rejects_center_with_fiber_content():
    bad = WeylElement.monomial(2, 4, 1, (1, 0), (0, 1), hpow=1)
    with pytest.raises(ValueError, match="fiber-scalar"):
        flat_input(cap=4, center=bad)


def test_input_rejects_non_closed_center():
    omega4 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    x2 = Poly(4, {(0, 0, 1, 0): QC(1)})
    bad = WeylElement.monomial(4, 4, x2, dxs=(0, 1), hpow=1)
    with pytest.raises(ValueError, match="closed"):
        FedosovInput(4, 4, omega4, omega4, center=bad)


def test_flat_input_accepts_constant_center():
    inp = flat_input(cap=4, center=const_center(4))
    assert inp.gamma is None
    assert not inp.center.is_zero()


# ---------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------

def test_flat_curvature_vanishes():
    assert curvature_element(flat_input(cap=6)).is_zero()


def test_curvature_element_closed_form():
    # Gamma^1_{00} = x_2 gives R^1_{0,0,1} = -1 (the only independent
    # slot), hence R = (1/2) v_0^2 dx^0 dx^1
    inp = sympl_curved(6)
    rt = curvature_tensor(inp)
    assert rt[1][0][0][1] == Poly.const(2, -1)
    assert rt[1][0][1][0] == Poly.const(2, 1)
    want = WeylElement.monomial(2, 6, Fraction(-1, 2), (2, 0), (0, 1))
    assert curvature_element(inp) == want


def test_nabla_squared_is_curvature_bracket():
    inp = sympl_curved(6)
    rng = random.Random(41)
    samples = [random_element(2, 6, rng) for _ in range(4)]
    samples.append(WeylElement.monomial(2, 6, 1, (1, 1)))
    # guard: the bracket must actually see the samples, otherwise the
    # identity would hold trivially as 0 == 0
    r_el = curvature_element(inp)
    assert not ihbar_commutator(r_el, samples[-1], inp.pi).is_zero()
    for a in samples:
        assert (a.nabla(inp.gamma).nabla(inp.gamma)
                == ihbar_commutator(r_el, a, inp.pi))


def test_cyclic_bianchi_for_random_torsion_free_connection():
    rng = random.Random(7)

    def rp():
        return Poly(2, {(rng.randint(0, 1), rng.randint(0, 1)):
                        QC(Fraction(rng.randint(-2, 2)))})
    gamma = [[[None] * 2 for _ in range(2)] for _ in range(2)]
    for k in range(2):
        for i in range(2):
            for j in range(i, 2):
                gamma[k][i][j] = gamma[k][j][i] = rp()
    inp = FedosovInput(2, 4, [[0, 1], [-1, 0]], [[0, 1], [-1, 0]], gamma)
    rt = curvature_tensor(inp)
    for r in range(2):
        for l in range(2):
            for i in range(2):
                for j in range(2):
                    cyc = rt[r][l][i][j] + rt[r][i][j][l] + rt[r][j][l][i]
                    assert cyc.is_zero()


def test_bianchi_identities_for_symplectic_connection():
    inp = sympl_curved(6)
    r_el = curvature_element(inp)
    assert r_el.delta().is_zero()
    assert r_el.nabla(inp.gamma).is_zero()


# ---------------------------------------------------------------------
# the abelian connection
# ---------------------------------------------------------------------

def test_flat_connection_is_zero():
    assert solve_connection(flat_input(cap=6)).is_zero()


def test_constant_center_low_cap_is_delta_inv():
    inp = flat_input(cap=4, center=const_center(4))
    assert solve_connection(inp) == inp.center.delta_inv()


def test_constant_center_cap6_picks_up_quadratic_echo():
    inp = flat_input(cap=6, center=const_center(6))
    z = inp.center.delta_inv()
    want = z + ihbar_circ_by_definition(z, z, inp.pi).delta_inv()
    got = solve_connection(inp)
    assert got == want
    assert got != z           # the quadratic echo is really there


def test_connection_is_normalized():
    for inp in (sympl_curved(5), flat_input(cap=6, center=const_center(6))):
        r = solve_connection(inp)
        assert r.delta_inv().is_zero()
        assert not r.is_zero()


def test_connection_iteration_guard_fires():
    """weyl.fixed_point raises once ``rounds`` + 1 steps pass without a
    repeat: the curved connection map repeats on its third step, so one
    round is too few and two give solve_connection's answer."""
    inp = sympl_curved(5)
    source = inp.center + curvature_element(inp)
    calls = []

    def step(r):
        calls.append(r)
        quad = ihbar_commutator(r, r, inp.pi).scale(Fraction(1, 2))
        return (source + r.nabla(inp.gamma) + quad).delta_inv()

    with pytest.raises(ArithmeticError,
                       match="^connection iteration did not stabilize$"):
        fixed_point(step, inp.zero(), 1, "connection iteration")
    assert len(calls) == 2
    assert fixed_point(step, inp.zero(), 2, "connection iteration") \
        == solve_connection(inp)


# ---------------------------------------------------------------------
# Catalan tree expansion
# ---------------------------------------------------------------------

def test_catalan_numbers():
    assert [catalan_number(n) for n in range(1, 6)] == [1, 1, 2, 5, 14]


def test_tree_counts_and_expansion_match_iterate():
    inp = sympl_curved(5)
    _, counts = catalan_trees(inp, 4)
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5}
    assert catalan_expansion(inp, 4) == solve_connection(inp)


def test_catalan_checks_name_and_count_their_mismatches():
    inp = sympl_curved(5)
    conn = solve_connection(inp)
    counts, gates = catalan_checks(inp, 4, conn)
    assert counts == {1: 1, 2: 1, 3: 2, 4: 5}
    assert gates == {"tree counts 1,1,2,5": 0,
                     "catalan expansion == iterate": 0}
    # one leaf alone misses the quadratic part of the connection
    _, gates = catalan_checks(inp, 1, conn)
    assert gates == {"tree counts 1": 0, "catalan expansion == iterate": 1}


def test_catalan_gate_at_cap_9_sees_every_tree_size():
    """At cap 9 the expansion cut at 1, 2 or 3 leaves misses the fixed
    point and only the 4-leaf cut reaches it."""
    inp = curved_input(9)
    conn = solve_connection(inp)
    for leaves, bad in ((1, 1), (2, 1), (3, 1), (4, 0)):
        _, gates = catalan_checks(inp, leaves, conn)
        assert gates["catalan expansion == iterate"] == bad, leaves


def test_single_leaf_solves_the_linear_part():
    # with a constant center and no curvature the leaf already satisfies
    # the linear fixed point; trees with >= 2 leaves add the quadratic echo
    inp = flat_input(cap=6, center=const_center(6))
    z = catalan_leaf(inp)
    assert z == inp.center.delta_inv()   # nabla is flat: Neumann stops


# ---------------------------------------------------------------------
# Taylor expansion and star products
# ---------------------------------------------------------------------

def test_taylor_leading_part_is_the_function():
    inp = sympl_curved(5)
    conn = solve_connection(inp)
    f = rand_poly(random.Random(5))
    tau = fedosov_taylor(inp, f, conn)
    jets = tau.sigma_jets()
    assert jets.get(0, Poly.zero(2)) == f
    assert all(h == 0 or p.is_zero() for h, p in jets.items())


def test_taylor_of_constant_is_constant():
    inp = sympl_curved(5)
    one = Poly.const(2, 1)
    assert fedosov_taylor(inp, one, solve_connection(inp)) == inp.embed(one)


def test_star_with_unit_is_identity():
    inp = sympl_curved(5)
    conn = solve_connection(inp)
    one = Poly.const(2, 1)
    f = rand_poly(random.Random(9))
    for jets in (fedosov_star(inp, f, one, conn),
                 fedosov_star(inp, one, f, conn)):
        assert jets.get(0, Poly.zero(2)) == f
        assert all(h == 0 or p.is_zero() for h, p in jets.items())


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_flat_star_equals_moyal_oracle(seed):
    inp = flat_input(cap=6)
    conn = solve_connection(inp)
    rng = random.Random(seed)
    f, g = rand_poly(rng), rand_poly(rng)
    got = fedosov_star(inp, f, g, conn)
    want = moyal_star_jets([[0, 1], [-1, 0]], f, g, 3)
    for j in range(4):
        assert got.get(j, Poly.zero(2)) == want.get(j, Poly.zero(2))


def test_flat_star_vs_moyal_counts_differing_orders():
    f, g = X1 * X1 * X1, X2 * X2 * X2
    inp = flat_input(cap=6)
    st, bad = flat_star_vs_moyal(inp, f, g)
    assert bad == 0 and st == fedosov_star(inp, f, g)
    # the curved connection changes one order of the cubic product
    assert flat_star_vs_moyal(sympl_curved(6), f, g)[1] == 1


def test_moyal_oracle_spot_values():
    f, g = X1, X2
    jets = moyal_star_jets([[0, 1], [-1, 0]], f, g, 2)
    assert jets[0] == f * g
    assert jets[1] == Poly.const(2, QC(0, Fraction(1, 2)))
    assert 2 not in jets
    swapped = moyal_star_jets([[0, 1], [-1, 0]], g, f, 2)
    assert swapped[1] == -jets[1]     # commutator is the bivector


def test_curved_star_associative_through_half_cap():
    inp = sympl_curved(6)
    conn = solve_connection(inp)
    rng = random.Random(31)
    f, g, h = (rand_poly(rng, deg=1) for _ in range(3))

    def star(a, b):
        jets = fedosov_star(inp, a, b, conn)
        return jets

    # (f*g)*h - f*(g*h) order by order through hbar^{cap//2}
    left = {}
    for j1, p1 in star(f, g).items():
        for j2, q in fedosov_star(inp, p1, h, conn).items():
            left[j1 + j2] = left.get(j1 + j2, Poly.zero(2)) + q
    right = {}
    for j1, p1 in star(g, h).items():
        for j2, q in fedosov_star(inp, f, p1, conn).items():
            right[j1 + j2] = right.get(j1 + j2, Poly.zero(2)) + q
    for j in range(inp.cap // 2 + 1):
        assert left.get(j, Poly.zero(2)) == right.get(j, Poly.zero(2))


# ---------------------------------------------------------------------
# deformed homotopy
# ---------------------------------------------------------------------

@pytest.mark.parametrize("seed", [51, 52])
def test_deformed_poincare_identity_flat(seed):
    inp = flat_input(cap=4)
    a = random_element(2, 4, random.Random(seed), n_terms=4)
    assert deformed_poincare_defect(inp, a).is_zero()


def test_deformed_poincare_identity_curved():
    inp = sympl_curved(4)
    a = random_element(2, 4, random.Random(77), n_terms=4)
    assert deformed_poincare_defect(inp, a).is_zero()


def test_homotopy_refuses_a_step_that_keeps_deg():
    # with the Deg-1 "connection" r = v^0 dx^1, (i/hbar)[r, .] lowers Deg
    # by one, so delta_inv(nabla + (i/hbar)[r, .]) keeps it and maps
    # (v^1)^2 to -(v^1)^2: the Neumann series never ends, and the
    # homotopy must say so instead of returning a truncated sum
    inp = flat_input(cap=4)
    r = WeylElement.monomial(2, 4, 1, (1, 0), dxs=(1,))
    a = WeylElement.monomial(2, 4, 1, (0, 1), dxs=(1,))
    with pytest.raises(ArithmeticError, match="deformed homotopy"):
        fedosov_homotopy(inp, r, a)
    assert not fedosov_homotopy(inp, inp.zero(), a).is_zero()


def test_flat_input_rejects_other_dimensions():
    with pytest.raises(ValueError, match="dim must be 2, got 3"):
        flat_input(dim=3)
    # the check must not be an assert, which python -O removes
    code = ("from defquant.fedosov import flat_input\n"
            "try:\n    flat_input(dim=3)\nexcept ValueError:\n"
            "    raise SystemExit(0)\nraise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=env).returncode == 0
