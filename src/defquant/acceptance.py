"""Gated acceptance suite: eleven numbered criteria, one line each.

Every criterion returns a CriterionResult of checks (name, value, target,
tolerance, pass), each passing iff |value - target| <= tolerance
(``check``).  run_all times each criterion, prints a single PASS/FAIL
line per criterion and returns the full structured list.  The same
functions back `defquant verify all` and tests/test_acceptance.py, so the
gates cannot drift between the CLI and the test suite.

All randomness is seeded here; sample counts are sized so the whole run
stays within a small wall-clock budget.  Most statistical gates leave
at least three standard errors of headroom, but the full-mode 1e-3 of
criteria 3 and 4 is 1.7-2.3 stderr for some integrals: with normal
errors a correct program fails them about 13 % and 22 % of the time per
fresh stream.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from statistics import NormalDist

from .exactnum import QC
from .exactpoly import Poly
from .graphs import AdmissibleGraph, Edge, fan_graph, graph2
from .weight_mc import (EDGE_PAIR_WEIGHTS, WeightSource, weight_mc,
                        two_valent_integral, two_valent_target,
                        weight_poly_fit, relation_residuals)
from .series import (ZETA_TARGETS, ZETA_TOLERANCE, merkulov_wheel_zeta,
                     shadow_sum, two_wheel_display, harmonic_identity)
from .star import (so3_bivector, star_order2, associativity_residual,
                   random_triple)
from .weyl import random_element
from .fedosov import (flat_input, curved_input, solve_connection,
                      flat_star_vs_moyal, catalan_checks)
from .geodesics import (MetricJet, exp_map_series, restrict_velocity,
                        series_vs_ode, sphere_gamma_fn, poincare_gamma_fn,
                        flat_section_mismatches)


@dataclass
class Check:
    name: str
    value: float
    target: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.target) <= self.tolerance

    def to_jsonable(self):
        return {"name": self.name, "value": self.value, "target": self.target,
                "tolerance": self.tolerance, "pass": self.passed}


def check(name, value, target, tolerance) -> Check:
    """The one pass rule: |value - target| <= tolerance (NaN fails)."""
    return Check(name, float(value), float(target), float(tolerance))


@dataclass
class CriterionResult:
    index: int
    name: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, value, target, tolerance):
        self.checks.append(check(name, value, target, tolerance))

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.index:2d} {self.name:<28s} {mark}"
                f"  ({len(self.checks)} checks, {self.seconds:.1f}s)")

    def to_jsonable(self):
        return {"index": self.index, "name": self.name,
                "pass": self.passed, "seconds": round(self.seconds, 3),
                "checks": [c.to_jsonable() for c in self.checks]}


# ---------------------------------------------------------------------


def criterion_1(quick: bool = False) -> CriterionResult:
    """Two-cycle (2,2) weight at the symmetric parameter: 1/24 by MC."""
    r = CriterionResult(1, "two-cycle weight 1/24")
    n = 1_000_000 if quick else 10_000_000
    res = weight_mc(graph2(), lam=0.5, n_samples=n, seed=20_240_001)
    tol = max(2e-3, 3.0 * res.stderr)
    r.add("graph2 mc vs 1/24", abs(res.value - 1.0 / 24.0), 0.0, tol)
    return r


def criterion_2(quick: bool = False) -> CriterionResult:
    """Fan weights 1/m!, from the exact table and by MC.  The exact lines
    read the hand table of weights (weight_mc._EXACT) through WeightSource
    and pass only on a result known without sampling (MCResult.exact): a
    sampled fan reads 1/m! at stderr 0 as well.  A fan's integrand is
    constant, so the MC mean is 1/m! to roundoff, gated at the 4 eps
    |mean| that weight_mc reads as roundoff."""
    r = CriterionResult(2, "fan weights 1/m!")
    src = WeightSource(n_samples=1000, seed=1)
    for m in (1, 2, 3):
        want = Fraction(1, math.factorial(m))
        exact = src.weight(fan_graph(m), lam=0.3)
        ok = exact.exact and exact.value == want
        r.add(f"fan m={m} exact", 0 if ok else 1, 0, 0)
        mc = weight_mc(fan_graph(m), lam=0.3, n_samples=50_000, seed=100 + m)
        r.add(f"fan m={m} mc", abs(mc.value - want), 0.0,
              4 * sys.float_info.epsilon * want)
    return r


def _random_disk_pairs(k: int, seed: int):
    """Seeded sample points in the open disk, radius capped at 0.75 so the
    integrand singularities stay away from the sample region."""
    rng = random.Random(seed)
    out = []
    while len(out) < k:
        w1 = complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75))
        w2 = complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75))
        if abs(w1) < 0.75 and abs(w2) < 0.75 and abs(w1 - w2) > 0.1:
            out.append((w1, w2))
    return out


_LAMBDAS = (0.0, 0.5, 1.0, 0.3 + 0.2j)


def _two_valent_checks(r, quick, propagator, pairs_seed, seed0, stride,
                       kinds):
    """Gate two_valent_integral against two_valent_target at five seeded
    pairs and each of _LAMBDAS, per (kind, check label, seed offset) in
    ``kinds``.  The gate of record is the full run at 1e-3; quick mode
    keeps the targets but admits 4 sigma of its reduced-sample noise."""
    n = 300_000 if quick else 4_000_000
    for p_idx, (w1, w2) in enumerate(_random_disk_pairs(5, pairs_seed)):
        for l_idx, lam in enumerate(_LAMBDAS):
            for kind, label, offset in kinds:
                res = two_valent_integral(
                    kind, w1, w2, lam=lam, n_samples=n,
                    seed=seed0 + stride * p_idx + l_idx + offset,
                    propagator=propagator)
                target = two_valent_target(kind, w1, w2, propagator)
                r.add(f"pair{p_idx} lam{l_idx} {label}",
                      abs(res.value - target), 0.0,
                      max(1e-3, 4.0 * res.stderr) if quick else 1e-3)
    return r


def criterion_3(quick: bool = False) -> CriterionResult:
    """Two-valent disk integrals: in-out and in-in vanish, out-out matches
    the closed form, across the parameter family."""
    return _two_valent_checks(
        CriterionResult(3, "two-valent disk integrals"), quick, "disk", 303,
        7000, 97, (("in-out", "in-out", 0), ("in-in", "in-in", 31),
                   ("out-out", "out-out vs closed", 67)))


def criterion_4(quick: bool = False) -> CriterionResult:
    """Center-subtracted propagator: the in-out integral still vanishes."""
    return _two_valent_checks(
        CriterionResult(4, "center-subtracted in-out"), quick, "shoikhet",
        404, 9000, 89, (("in-out", "in-out", 0),))


def criterion_5(quick: bool = False) -> CriterionResult:
    """Wheel sums against zeta(n) for n = 2, 3, 4."""
    r = CriterionResult(5, "wheel sums vs zeta")
    for n, want in ZETA_TARGETS.items():
        vb = merkulov_wheel_zeta(n)
        r.add(f"n={n}", vb.value, want, ZETA_TOLERANCE)
    return r


def criterion_6(quick: bool = False) -> CriterionResult:
    """Shadow-sum constancy in the modulus at n=2, its value zeta(2)
    within the rigorous tail bound, and the w-independence of the grouped
    four-series display."""
    r = CriterionResult(6, "shadow-sum constancy n=2")

    def constancy(label, values):
        for (a, x), (b, y) in combinations(enumerate(values), 2):
            r.add(f"{label} w{a} vs w{b}", abs(x.value - y.value), 0.0,
                  x.bound + y.bound)

    sums = [shadow_sum(2, w) for w in (0.1, 0.3, 0.5)]
    constancy("pairwise", sums)
    r.add("value vs zeta(2)", abs(sums[1].value - ZETA_TARGETS[2]), 0.0,
          sums[1].bound)
    constancy("display", [two_wheel_display(w) for w in (0.1, 0.3, 0.5)])
    return r


def criterion_7(quick: bool = False) -> CriterionResult:
    """Exact rational harmonic-sum identities for m = 1..50."""
    r = CriterionResult(7, "harmonic identities")
    bad = 0
    for m in range(1, 51):
        lhs, mid, rhs = harmonic_identity(m)
        if not (lhs == mid == rhs):
            bad += 1
    r.add("identity failures m=1..50", bad, 0, 0)
    return r


def criterion_8(quick: bool = False) -> CriterionResult:
    """Polynomial-in-parameter symmetry of (2,2) weights: the reflection
    relations on the lam-coefficients and the reality of the midpoint.

    Each holds sample by sample, so the gate is fit.tolerance, roundoff
    fixed before any run.  It re-checks the identity phi_{1-cj lam} =
    cj phi_lam through the whole integrand path, not a property of the
    integral.  Scaling the (1 - lam) half of the propagator by 1.05
    fails all 12 checks, each graph's worst by over 1e9 times the bound."""
    r = CriterionResult(8, "lambda-polynomial symmetry")
    n = 120_000 if quick else 700_000
    graphs = {
        "two-cycle": graph2(),
        "mixed": AdmissibleGraph(2, 2, [Edge(1, 2, 1), Edge(1, 3, 2),
                                        Edge(2, 3, 1), Edge(2, 4, 2)]),
    }
    for name, g in graphs.items():
        fit = weight_poly_fit(g, n_samples=n, seed=808)
        for what, resid in relation_residuals(fit):
            r.add(f"{name} {what}", resid, 0.0, fit.tolerance)
    return r


def associativity_checks(series, triples):
    """Two checks per (f, g, h) in ``triples``: the number of nonzero
    residual orders below the series' top order, and the number of
    nonzero top-order coefficients.  Both must be 0: the sampled graph2
    class cannot move the order-2 residual (see ``star``)."""
    checks = []
    for trial, triple in enumerate(triples):
        resid = associativity_residual(series, *triple, series.order)
        low = sum(1 for k in resid if k < series.order)
        top = len(resid[series.order].terms) if series.order in resid else 0
        checks.append(check(f"triple {trial} orders 0,1 exact", low, 0, 0))
        checks.append(check(f"triple {trial} order 2 exact", top, 0, 0))
    return checks


def criterion_9(quick: bool = False) -> CriterionResult:
    """Order-2 associativity for the linear so(3)-type Poisson structure
    on monomials of total degree <= 3, gated exactly: its system on the
    (2,2) weights has rank 3, fixing graph1_left and EDGE_PAIR_WEIGHTS
    (exact-table values), and graph2's column is zero, unseen: graph2's
    operator is a biderivation, whose coboundary vanishes.  So the
    residual must vanish exactly, at lam = 1/2 as wherever graph2 is
    sampled, and no sigma enters the 16 residual lines; scaling any one
    of the three weights by 1.001 fails them.  One weight_mc line per
    EDGE_PAIR_WEIGHTS class keeps the sampler tested, gated family-wise
    at 1e-4 (Bonferroni); heavy tails make that loose, as the stderr
    understates the error."""
    r = CriterionResult(9, "so(3) associativity")
    n = 150_000 if quick else 500_000
    src = WeightSource(n_samples=n, seed=909)
    series = star_order2(so3_bivector(), 0.5, src)
    rng = random.Random(99)
    r.checks = associativity_checks(
        series, [random_triple(rng, 3, 3) for _ in range(8)])
    z = NormalDist().inv_cdf(1 - 1e-4 / (2 * len(EDGE_PAIR_WEIGHTS)))
    for k, key in enumerate(EDGE_PAIR_WEIGHTS):
        g = AdmissibleGraph.from_text(key)
        want = src.weight(g).value
        res = weight_mc(g, lam=0.5, n_samples=n, seed=990 + k)
        r.add(f"{key} mc vs {want}", abs(res.value - want), 0.0,
              z * res.stderr)
    return r


def criterion_10(quick: bool = False) -> CriterionResult:
    """Weyl-algebra fixed point: fiberwise Poincare lemma, flat star
    product equals the Moyal oracle, Catalan expansion matches the
    iterate with tree counts 1, 1, 2, 5."""
    r = CriterionResult(10, "fedosov fixed point")
    rng = random.Random(1010)
    bad = 0
    count = 25 if quick else 100
    for _ in range(count):
        a = random_element(2, 6, rng)
        recon = (a.delta().delta_inv() + a.delta_inv().delta() + a.sigma())
        if not (recon - a).is_zero():
            bad += 1
    r.add(f"poincare lemma failures ({count} elements)", bad, 0, 0)

    inp = flat_input(dim=2, cap=6)

    def rand_poly():
        return Poly(2, {tuple(rng.randrange(3) for _ in range(2)):
                        QC(rng.randrange(-3, 4)) for _ in range(3)})

    star_bad = 0
    for _ in range(3 if quick else 6):
        f, g = rand_poly(), rand_poly()
        star_bad += int(flat_star_vs_moyal(inp, f, g)[1] > 0)
    r.add("flat star vs moyal mismatches", star_bad, 0, 0)

    # at cap 9 the expansion cut below 4 leaves misses the fixed point,
    # so the gate sees every tree size it counts
    curved = curved_input(9)
    _, gates = catalan_checks(curved, 4, solve_connection(curved))
    for name, bad in gates.items():
        r.add(name, bad, 0, 0)
    return r


def criterion_11(quick: bool = False) -> CriterionResult:
    """Exponential-map series: closed-form geodesics exact to order 8,
    numeric-oracle agreement at t = 0.5, and the commutative fixed point
    reproduces the same order-8 series."""
    r = CriterionResult(11, "exponential map")
    sph = MetricJet.sphere(8)
    phi_s = exp_map_series(sph, 8)
    polar1 = restrict_velocity(phi_s[0], 2, (1, 0))
    polar2 = restrict_velocity(phi_s[1], 2, (1, 0))
    ok = (polar1 == Poly(3, {(1, 0, 0): QC(1), (0, 0, 1): QC(1)})
          and polar2 == Poly(3, {(0, 1, 0): QC(1)}))
    r.add("sphere polar series exact", 0 if ok else 1, 0, 0)

    poi = MetricJet.poincare_half_plane(8)
    phi_p = exp_map_series(poi, 8)
    vert = restrict_velocity(phi_p[1], 2, (0, 1))
    coeffs = {e[2]: c for e, c in vert.terms.items()
              if e[0] == 0 and e[1] == 0}
    ok = (all(coeffs.get(k, QC(0)) == QC(Fraction(1, math.factorial(k)))
              for k in range(1, 9))
          and max(coeffs) <= 8
          and restrict_velocity(phi_p[0], 2, (0, 1))
          == Poly(3, {(1, 0, 0): QC(1)}))
    r.add("half-plane vertical 1/n! exact", 0 if ok else 1, 0, 0)

    for name, phi, gamma_fn, start, v in (
            ("sphere", phi_s, sphere_gamma_fn, (math.asin(3.0 / 5.0), 0.2),
             (1.0, 0.0)),
            ("half-plane", phi_p, poincare_gamma_fn, (0.3, 1.0),
             (0.0, 1.0))):
        _, _, err = series_vs_ode(phi, gamma_fn, start, (0.0, 0.0), v, 0.5,
                                  4000)
        r.add(f"{name} ODE agreement t=0.5", err, 0.0, 1e-8)

    for name, met, phi in (("sphere", sph, phi_s), ("half-plane", poi, phi_p)):
        bad = flat_section_mismatches(met, phi, 8)
        r.add(f"{name} flat-section recursion == series", bad, 0, 0)
    return r


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]


def run_all(quick: bool = False, echo=print):
    results = []
    for fn in CRITERIA:
        t0 = time.time()
        res = fn(quick=quick)
        res.seconds = time.time() - t0
        results.append(res)
        if echo is not None:
            echo(res.line())
    return results
