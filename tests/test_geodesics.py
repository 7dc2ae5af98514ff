"""Exponential-map series: charts, hand values, ODE oracle, recursions."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from defquant.exactnum import QC
from defquant.exactpoly import Poly, sin_jet, cos_jet
from defquant.geodesics import (MetricJet, exp_map_series, series_eval,
                                restrict_velocity, geodesic_ode_oracle,
                                sphere_gamma_fn, poincare_gamma_fn,
                                metric_gamma_fn, classical_fedosov_taylor,
                                flat_section_mismatches, series_vs_ode)

TH0 = math.asin(0.6)


@pytest.fixture(scope="module")
def sphere8():
    return MetricJet.sphere(8)


@pytest.fixture(scope="module")
def sphere_series(sphere8):
    return exp_map_series(sphere8, 8)


@pytest.fixture(scope="module")
def poincare8():
    return MetricJet.poincare_half_plane(8)


@pytest.fixture(scope="module")
def poincare_series(poincare8):
    return exp_map_series(poincare8, 8)


# ---------------------------------------------------------------------
# metric jets
# ---------------------------------------------------------------------

def test_metric_rejects_asymmetric_jets():
    x1 = Poly.var(2, 0, 4)
    with pytest.raises(ValueError, match="symmetric"):
        MetricJet(2, 4, [[Poly.one(2, 4), x1], [Poly.zero(2, 4),
                                               Poly.one(2, 4)]])


def test_metric_rejects_singular_base_point():
    x1 = Poly.var(2, 0, 4)
    with pytest.raises(ValueError, match="singular"):
        MetricJet(2, 4, [[x1, Poly.zero(2, 4)],
                         [Poly.zero(2, 4), Poly.one(2, 4)]])


def assert_inverts(m):
    d, n = m.dim, m.order
    for i in range(d):
        for j in range(d):
            acc = Poly.zero(d, n)
            for k in range(d):
                acc = acc + m.g[i][k] * m.g_inv[k][j]
            assert acc == Poly.const(d, 1 if i == j else 0, n)


def test_inverse_jet_really_inverts():
    assert_inverts(MetricJet.random_metric(2, 5, random.Random(12)))


def test_inverse_jet_of_a_random_3d_metric():
    assert_inverts(MetricJet.random_metric(3, 4, random.Random(7)))


def test_inverse_jet_pivots_past_a_zero_diagonal():
    """Constant part [[0, 1], [1, 0]]: the first pivot needs a row swap."""
    x1, x2 = Poly.var(2, 0, 4), Poly.var(2, 1, 4)
    off = Poly.one(2, 4) + x2 * x1
    assert_inverts(MetricJet(2, 4, [[x1 + x2 * x2, off],
                                    [off, x1 * x1 * 3 - x2]]))


def test_inverse_jet_cuts_untruncated_entries():
    x1 = Poly.var(2, 0)
    m = MetricJet(2, 3, [[2 + x1, 0], [0, 1 - x1 * x1]])
    assert_inverts(m)
    cut = Poly.var(2, 0, 3)
    assert m.g_inv == MetricJet(2, 3, [[2 + cut, 0],
                                       [0, 1 - cut * cut]]).g_inv


def test_sphere_christoffels_are_the_closed_forms(sphere8):
    # the Christoffel jets sit one differentiation below the metric order,
    # so the closed forms are compared at truncation 7
    s = sin_jet(Fraction(3, 5), Fraction(4, 5), 2, 0, 8)
    c = cos_jet(Fraction(3, 5), Fraction(4, 5), 2, 0, 8)
    assert sphere8.gamma[0][1][1] == (-(s * c)).truncate(7)
    assert sphere8.gamma[1][0][1] == (c * s.inverse()).truncate(7)
    assert sphere8.gamma[0][0][0].is_zero()
    assert sphere8.gamma[1][1][1].is_zero()


def test_poincare_christoffels_are_the_closed_forms(poincare8):
    w = (Poly.one(2, 8) + Poly.var(2, 1, 8)).inverse().truncate(7)
    assert poincare8.gamma[0][0][1] == -w
    assert poincare8.gamma[1][0][0] == w
    assert poincare8.gamma[1][1][1] == -w
    assert poincare8.gamma[0][0][0].is_zero()


def test_jet_gammas_match_float_gammas_off_base(sphere8):
    got = metric_gamma_fn(sphere8)((0.05, 0.0))
    want = sphere_gamma_fn((TH0 + 0.05, 0.0))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                assert got[k][i][j] == pytest.approx(want[k][i][j],
                                                     abs=1e-7)


# ---------------------------------------------------------------------
# series structure
# ---------------------------------------------------------------------

def test_flat_series_is_offset_plus_velocity():
    phi = exp_map_series(MetricJet.flat(2, 5), 5)
    assert phi[0] == Poly(4, {(1, 0, 0, 0): QC(1), (0, 0, 1, 0): QC(1)})
    assert phi[1] == Poly(4, {(0, 1, 0, 0): QC(1), (0, 0, 0, 1): QC(1)})


def test_sphere_meridians_are_unit_speed_lines(sphere_series):
    polar = restrict_velocity(sphere_series[0], 2, (1, 0))
    azimuth = restrict_velocity(sphere_series[1], 2, (1, 0))
    assert polar == Poly(3, {(1, 0, 0): QC(1), (0, 0, 1): QC(1)})
    assert azimuth == Poly(3, {(0, 1, 0): QC(1)})


def test_poincare_vertical_ray_is_exponential(poincare_series):
    # y(t) = e^t from the base: offset coefficients 1/k!; x never moves
    horiz = restrict_velocity(poincare_series[0], 2, (0, 1))
    assert horiz == Poly(3, {(1, 0, 0): QC(1)})
    vert = restrict_velocity(poincare_series[1], 2, (0, 1))
    for k in range(1, 9):
        assert vert.terms.get((0, 0, k)) == QC(Fraction(1, math.factorial(k)))


def test_sphere_hand_coefficients(sphere_series):
    # quadratic: -(1/2) Gamma^0_{11} = (1/2) s0 c0 = 6/25
    assert sphere_series[0].terms[(0, 0, 0, 2)] == QC(Fraction(6, 25))
    # cubic v_0 v_1^2: -(1/6) [2 cot * s0 c0 + 2 cot * s0 c0 + (s0^2 - c0^2
    # + 2 cot * s0 c0)] = -19/50 at s0 = 3/5, c0 = 4/5
    assert sphere_series[0].terms[(0, 0, 1, 2)] == QC(Fraction(-19, 50))


def test_order_guards():
    flat3 = MetricJet.flat(2, 3)
    with pytest.raises(ValueError, match="order"):
        exp_map_series(flat3, 5)
    with pytest.raises(ValueError, match="order"):
        classical_fedosov_taylor(flat3, 0, 5)


# ---------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------

def test_ode_gate_sphere(sphere_series):
    got = series_eval(sphere_series, (0.0, 0.2), (0.5, 0.0))
    end = geodesic_ode_oracle(sphere_gamma_fn, (TH0, 0.2), (1.0, 0.0), 0.5)
    for i in range(2):
        base = TH0 if i == 0 else 0.0
        assert abs((got[i] + base) - end[i]) < 1e-8


def test_ode_gate_poincare(poincare_series):
    got = series_eval(poincare_series, (0.3, 0.0), (0.0, 0.5))
    end = geodesic_ode_oracle(poincare_gamma_fn, (0.3, 1.0), (0.0, 1.0), 0.5)
    assert abs(got[0] + 0.0 - end[0]) < 1e-8
    assert abs(got[1] + 1.0 - end[1]) < 1e-8


def test_ode_gate_random_metric():
    m = MetricJet.random_metric(2, 6, random.Random(2026))
    phi = exp_map_series(m, 6)
    u = (0.05, -0.1)
    vdir = (0.3, 0.2)
    t = 0.4
    got = series_eval(phi, u, (t * vdir[0], t * vdir[1]))
    end = geodesic_ode_oracle(metric_gamma_fn(m), u, vdir, t)
    for i in range(2):
        assert abs(got[i] - end[i]) < 1e-6


def test_truncation_error_has_the_right_slope(sphere8):
    phi4 = exp_map_series(sphere8, 4)
    vdir = (0.7, 0.5)

    def err(t):
        got = series_eval(phi4, (0.0, 0.0), (t * vdir[0], t * vdir[1]))
        end = geodesic_ode_oracle(sphere_gamma_fn, (TH0, 0.0), vdir, t)
        return max(abs((got[0] + TH0) - end[0]), abs(got[1] - end[1]))

    slope = math.log(err(0.4) / err(0.2)) / math.log(2.0)
    assert abs(slope - 5.0) < 0.3


def test_oracle_affine_reparametrization():
    a = geodesic_ode_oracle(sphere_gamma_fn, (TH0, 0.1), (0.4, 0.3), 0.5)
    b = geodesic_ode_oracle(sphere_gamma_fn, (TH0, 0.1), (0.2, 0.15), 1.0)
    for i in range(2):
        assert abs(a[i] - b[i]) < 1e-9


def _list_comprehension_rk4(gamma_fn, x, v, t, steps):
    """The oracle as it was written with generator sums, kept as the
    reference for its floats.  The terms are added left to right from
    int 0, as sum() added them before Python 3.12 (it compensates since)."""
    d = len(x)
    h = t / steps

    def deriv(state):
        pos, vel = state[:d], state[d:]
        gam = gamma_fn(pos)
        acc = [-reduce(add, (gam[k][i][j] * vel[i] * vel[j]
                             for i in range(d) for j in range(d)), 0)
               for k in range(d)]
        return list(vel) + acc

    y = [float(c) for c in x] + [float(c) for c in v]
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = deriv([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = deriv([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y[:d]


def _list_loop_rk4(gamma_fn, x, v, t, steps):
    """The oracle's d-dimensional list loop, kept as the reference that
    _rk4_plane writes out for d = 2: each acceleration's d^2 terms added
    to int 0 in (i, j) order, the same updates in the same order."""
    d = len(x)
    h = t / steps
    pairs = [(i, j) for i in range(d) for j in range(d)]

    def deriv(state):
        pos, vel = state[:d], state[d:]
        acc = []
        for gk in gamma_fn(pos):
            s = 0
            for i, j in pairs:
                s += gk[i][j] * vel[i] * vel[j]
            acc.append(-s)
        return vel + acc

    y = [float(c) for c in x] + [float(c) for c in v]
    for _ in range(steps):
        k1 = deriv(y)
        k2 = deriv([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = deriv([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = deriv([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y[:d]


def _diagonal_metric_3d():
    x = [Poly.var(3, i, 4) for i in range(3)]
    zero = Poly.zero(3, 4)
    g = [1 + x[1] * QC(Fraction(1, 4)) + x[2] * x[2] * QC(Fraction(1, 8)),
         1 + x[0] * x[2] * QC(Fraction(-1, 4)) + x[1] * QC(Fraction(1, 5)),
         1 + x[0] * QC(Fraction(1, 3)) - x[1] * x[1] * QC(Fraction(1, 5))]
    return MetricJet(3, 4, [[g[i] if i == j else zero for j in range(3)]
                            for i in range(3)])


@pytest.mark.parametrize("case", ["sphere", "poincare", "random", "diag3"])
def test_oracle_floats_equal_the_generator_sum_oracle(case):
    if case == "sphere":
        fn, base = sphere_gamma_fn, (TH0, 0.2)
        runs = [(fn, base, (1.0, 0.0), 0.5, 4000)]
    elif case == "poincare":
        fn, base = poincare_gamma_fn, (0.3, 1.0)
        runs = [(fn, base, (0.0, 1.0), 0.5, 4000)]
    elif case == "random":
        m = MetricJet.random_metric(2, 5, random.Random(4242))
        fn, base = metric_gamma_fn(m), (0.0, 0.0)
        runs = [(fn, base, (0.07, -0.06), 0.4, 200)]
    else:
        fn, base = metric_gamma_fn(_diagonal_metric_3d()), (0.0, 0.0, 0.0)
        runs = [(fn, (0.01, -0.02, 0.03), (0.3, 0.2, -0.25), 0.4, 300)]
    # fast, coarse runs: at smooth settings the step h scales a last-bit
    # change of the acceleration below the last bit of the position, so
    # only these show the order of the d^2 terms in the end point
    rng = random.Random(3)
    runs += [(fn, [b + rng.uniform(-0.05, 0.05) for b in base],
              [rng.uniform(-30, 30) for _ in base], 0.1, 2)
             for _ in range(20)]
    for gamma_fn, x, v, t, steps in runs:
        want = _list_comprehension_rk4(gamma_fn, x, v, t, steps)
        assert _list_loop_rk4(gamma_fn, x, v, t, steps) == want
        if len(x) == 2:
            assert geodesic_ode_oracle(gamma_fn, x, v, t, steps=steps) \
                == want


@pytest.mark.parametrize("d", [1, 3])
def test_oracle_rejects_a_dimension_other_than_2(d):
    """The package builds metrics in the plane only; the list loop that
    served other d is the test reference _list_loop_rk4."""
    with pytest.raises(ValueError, match=f"d = {d}"):
        geodesic_ode_oracle(metric_gamma_fn(_diagonal_metric_3d()),
                            (0.0,) * d, (0.1,) * d, 0.4, steps=10)


def test_oracle_step_underflow_guard():
    with pytest.raises(ValueError, match="underflow"):
        geodesic_ode_oracle(sphere_gamma_fn, (TH0, 0.0), (1.0, 0.0), 1e-20)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_oracle_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        geodesic_ode_oracle(sphere_gamma_fn, (TH0, 0.0), (1.0, 0.0), t)


def test_series_vs_ode_gap_shrinks_with_the_series_order(sphere8):
    gaps = []
    for order in (4, 8):
        ser, ode, gap = series_vs_ode(exp_map_series(sphere8, order),
                                      sphere_gamma_fn, (TH0, 0.2),
                                      (0.0, 0.0), (0.7, 0.5), 0.5, 4000)
        assert gap == max(abs(a - b) for a, b in zip(ser, ode))
        gaps.append(gap)
    assert gaps[1] < gaps[0] / 50 and gaps[0] > 1e-3


# ---------------------------------------------------------------------
# the commutative flat-section recursion
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def recursion_cases(sphere8, sphere_series):
    cases = [(sphere8, 8, sphere_series)]
    for metric in (MetricJet.poincare_half_plane(6),
                   MetricJet.random_metric(2, 6, random.Random(99)),
                   MetricJet.random_metric(3, 4, random.Random(5))):
        cases.append((metric, metric.order,
                      exp_map_series(metric, metric.order)))
    return cases


@pytest.mark.parametrize("index", [0, 1])
def test_classical_recursion_matches_series(index, recursion_cases):
    # index 0 takes the even components, index 1 the odd ones
    for metric, order, phi in recursion_cases:
        for i in range(index, metric.dim, 2):
            assert classical_fedosov_taylor(metric, i, order) == phi[i]


def test_flat_section_mismatches_counts_components(sphere8):
    phi = exp_map_series(sphere8, 4)
    assert flat_section_mismatches(sphere8, phi, 4) == 0
    assert flat_section_mismatches(sphere8, [phi[1], phi[1]], 4) == 1


def _pow_gamma_fn(metric):
    """metric_gamma_fn's sums with each coordinate power taken by
    complex ** int inside the term loop: the power table's reference."""
    d = metric.dim
    jets = [(k, i, j, [(c.to_complex(),
                        [(m, n) for m, n in enumerate(e) if n])
                       for e, c in metric.gamma[k][i][j].terms.items()])
            for k in range(d) for i in range(d) for j in range(i, d)]

    def fn(point):
        vals = [complex(c) for c in point]
        out = [[[0.0] * d for _ in range(d)] for _ in range(d)]
        for k, i, j, terms in jets:
            total = 0j
            for term, powers in terms:
                for m, n in powers:
                    term *= vals[m] ** n
                total += term
            out[k][i][j] = out[k][j][i] = total.real
        return out
    return fn


@pytest.mark.parametrize("case", ["random", "diag3", "order9"])
def test_metric_gamma_fn_power_table_equals_complex_pow(case):
    """The per-call power table gives complex ** int's real parts, so
    every Christoffel value is the same float, at random points, at 0 and
    at negative and large coordinates, and an overflow raises where it
    raised."""
    if case == "random":
        met = MetricJet.random_metric(2, 5, random.Random(4242))
    elif case == "diag3":
        met = _diagonal_metric_3d()
    else:
        x = [Poly.var(2, i, 9) for i in range(2)]
        g00 = 1 + x[0] ** 9 * QC(Fraction(1, 7)) - x[1] ** 7 * QC(
            Fraction(2, 3)) + x[0] ** 3 * x[1] ** 5 * QC(Fraction(1, 5))
        zero = Poly.zero(2, 9)
        met = MetricJet(2, 9, [[g00, zero], [zero, Poly.one(2, 9)]])
    fn, want = metric_gamma_fn(met), _pow_gamma_fn(met)
    rng = random.Random(26)
    points = [[rng.uniform(-0.5, 0.5) for _ in range(met.dim)]
              for _ in range(500)]
    points += [[0.0] * met.dim, [-0.0] * met.dim, [-3.0] * met.dim,
               [1e-160] * met.dim, [17.5] * met.dim]
    # powers that overflow: complex ** int raises for some and gives nan
    # for others (x^4 once x^2 is inf), and the table must do the same
    points += [[s * 10.0 ** e] * met.dim for e in (40, 80, 120, 160, 300)
               for s in (1, -1)]

    def outcome(gamma_fn, point):
        try:
            return [x.hex() for blk in gamma_fn(point) for row in blk
                    for x in row]
        except OverflowError as exc:
            return str(exc)

    for point in points:
        assert outcome(fn, point) == outcome(want, point)
