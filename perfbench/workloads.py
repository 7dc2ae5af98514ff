"""The three benchmark workloads, one per stack of ``defquant``.

Each workload builds its inputs from the seed in ``__init__`` (that is the
set-up the benchmark times) and runs one cycle of jobs in ``cycle``.  A
cycle calls only public functions of the package, always through the
module attribute, so that the traced run sees every call.  Every cycle
checks its own outputs; a failed check is counted, never raised.

- mc-weights: the vectorised sampling stack (propagators, integrand
  matrix, determinant, guard).  A few large ``weight_mc`` calls measure
  kernel throughput, many small ones measure per-call overhead, and the
  two-valent disk integrals are most of ``verify all --quick``.
- exact-jets: pure-Python exact arithmetic on dense truncated jets with
  small denominators and no sampling (exponential map, Fedosov).
- star-assembly: canonicalisation, graph operators and
  ``PolyDiffOperator.apply`` over sparse polynomials whose coefficients
  carry the 2^53 denominators of Monte Carlo floats.
"""

from __future__ import annotations

import importlib
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import probes

_clock = time.perf_counter


def _mod(name):
    # ``defquant.weight_mc`` is shadowed by the function of that name on
    # the package, so modules are fetched by their full name
    return importlib.import_module(f"defquant.{name}")


wm = _mod("weight_mc")
gr = _mod("graphs")
geo = _mod("geodesics")
fed = _mod("fedosov")
st = _mod("star")
cache_mod = _mod("cache")
from defquant.exactnum import QC  # noqa: E402
from defquant.exactpoly import Poly  # noqa: E402

N_SIGMA = 4.0
# relative tolerance for the weights of graph2 and graph1_left, whose
# estimators are heavy-tailed: the reported stderr understates their error
# (over 30 seeds at 1e6 samples graph2 missed 1/24 by up to 5.2 stderr,
# i.e. 6.6 %; over 60 seeds at 5e4 graph1_left missed 1/4 by up to 7 %)
HEAVY_TAIL = 0.1
# family-wise false-alarm probability of the associativity gate
FAMILY_ALPHA = 1e-4


class Cycle:
    """What one pass over a workload's jobs records.

    ``calls`` holds [job, seconds] for every timed call, in call order,
    which is the same in every cycle of a run; a sampling call also
    carries its sample count and standard error.  ``probes`` holds the
    time of the reference probe run before each call and once more after
    the last (``finish``), so call i lies between probes i and i+1.
    """

    def __init__(self, probe):
        self.calls: list = []
        self.probes: list = []
        self.checks: list = []
        self.stderr: list = []
        self._probe = probe

    def _start(self) -> float:
        self.probes.append(probes.timed(self._probe))
        return _clock()

    def finish(self):
        self.probes.append(probes.timed(self._probe))

    def time(self, job: str, fn, *args, **kwargs):
        t0 = self._start()
        out = fn(*args, **kwargs)
        self.calls.append([job, _clock() - t0])
        return out

    def check(self, name: str, passed: bool, value=None):
        if isinstance(value, complex):
            value = [value.real, value.imag]
        self.checks.append([name, bool(passed), value])

    def mc(self, job: str, fn, *args, **kwargs):
        """Time one sampling call and record its samples and error."""
        t0 = self._start()
        res = fn(*args, **kwargs)
        self.calls.append([job, _clock() - t0, res.n_samples, res.stderr])
        self.stderr.append(res.stderr)
        return res

    def within(self, name: str, res, target: complex, abs_tol: float):
        err = abs(res.value - target)
        self.check(name, err <= max(abs_tol, N_SIGMA * res.stderr), err)


def nonzero_classes(n: int, m: int):
    """Canonical representatives of the (n, m) out-degree-2 graphs whose
    weight is not exactly zero, in canonical-text order."""
    classes = {}
    for g in gr.enumerate_graphs(n, m, 2):
        gc, _, _ = g.canonical_form()
        classes.setdefault(gc.to_text(), gc)
    return [gc for _, gc in sorted(classes.items())
            if wm.exact_zero_reason(gc) is None]


def _disk_point(rng: random.Random) -> complex:
    while True:
        w = complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75))
        if abs(w) < 0.75:
            return w


# ---------------------------------------------------------------------

class MCWeights:
    name = "mc-weights"
    probe = "numpy"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        self.n_large = 20_000 if smoke else 1_000_000
        self.n_small = 2_000 if smoke else 20_000
        self.n_named = 5_000 if smoke else 50_000
        self.n_two = 20_000 if smoke else 200_000
        self.lam_mixed = rng.uniform(0.2, 0.8)
        self.seeds = [rng.randrange(2 ** 31) for _ in range(5)]
        self.points = []
        for _ in range(1 if smoke else 3):
            w1 = _disk_point(rng)
            w2 = _disk_point(rng)
            while abs(w1 - w2) <= 0.1:
                w2 = _disk_point(rng)
            self.points.append((w1, w2, rng.uniform(0.0, 1.0),
                                rng.randrange(2 ** 31)))
        self.mixed = gr.AdmissibleGraph(2, 2, [
            gr.Edge(1, 2, 1), gr.Edge(1, 3, 2),
            gr.Edge(2, 3, 1), gr.Edge(2, 4, 2)])
        self.classes = nonzero_classes(3, 2)

    def cycle(self, c: Cycle) -> None:
        s = self.seeds
        res = c.mc("large", wm.weight_mc, gr.graph2(), lam=0.5,
                   n_samples=self.n_large, seed=s[0])
        c.within("graph2 lam=0.5 vs 1/24", res, 1 / 24, HEAVY_TAIL / 24)
        res = c.mc("large", wm.weight_mc, self.mixed, lam=self.lam_mixed,
                   n_samples=self.n_large, seed=s[1])
        c.check("mixed (2,2) finite", math.isfinite(abs(res.value))
                and res.stderr > 0, res.value)

        source = wm.WeightSource(cache=None, n_samples=self.n_small,
                                 seed=s[2])
        finite = 0
        bad_error = 0
        for g in self.classes:
            res = c.mc("small", source.weight, g, lam=0.5)
            finite += math.isfinite(abs(res.value))
            # a zero error bar is honest only when every sample was zero:
            # three of the classes have an identically vanishing integrand
            # (a vertex whose coordinates outnumber its edges' rows)
            bad_error += not (res.stderr > 0 or res.value == 0)
        c.check("(3,2) classes: 30 finite estimates",
                finite == len(self.classes) == 30, finite)
        c.check("(3,2) classes: stderr > 0 unless every sample is 0",
                bad_error == 0, bad_error)
        res = c.mc("small", wm.weight_mc, gr.fan_graph(3), lam=0.5,
                   n_samples=self.n_named, seed=s[3])
        c.within("fan_graph(3) vs 1/6", res, 1 / 6, 2e-3)
        res = c.mc("small", wm.weight_mc, gr.graph1_left(), lam=0.5,
                   n_samples=self.n_named, seed=s[4])
        c.within("graph1_left vs 1/4", res, 1 / 4, HEAVY_TAIL / 4)

        for k, (w1, w2, lam, seed) in enumerate(self.points):
            for j, (kind, prop) in enumerate(
                    [(kd, pr) for pr in ("disk", "shoikhet")
                     for kd in ("out-out", "in-out", "in-in")]):
                res = c.mc("two_valent", wm.two_valent_integral, kind, w1, w2,
                           lam=lam, n_samples=self.n_two, seed=seed + j,
                           propagator=prop)
                tag = f"point{k} {prop} {kind}"
                if kind == "in-out" or (kind == "in-in" and prop == "disk"):
                    c.within(f"{tag} vs 0", res, 0.0, 1e-3)
                elif prop == "disk":
                    c.within(f"{tag} vs closed form", res,
                             wm.two_valent_out_out_exact(w1, w2), 1e-3)


# ---------------------------------------------------------------------

def _curved_input(cap: int):
    """Symplectic plane with Gamma^1_{00} = x_2 (indices from 0)."""
    z = Poly.zero(2)
    x2 = Poly.var(2, 1)
    return fed.FedosovInput(2, cap, [[0, 1], [-1, 0]], [[0, 1], [-1, 0]],
                            [[[z, z], [z, z]], [[x2, z], [z, z]]])


def _seeded_metric(rng: random.Random, order: int):
    """Identity plus a symmetric perturbation with fixed monomials and
    seeded coefficients in {+-1/4, +-1/2}: unlike
    ``MetricJet.random_metric``, whose monomials are drawn too, its cost
    hardly depends on the seed."""
    support = {(0, 0): [(1, 0), (0, 2)], (0, 1): [(0, 1), (1, 1)],
               (1, 1): [(0, 1), (2, 0)]}
    g = [[Poly.const(2, int(i == j), order) for j in range(2)]
         for i in range(2)]
    for (i, j), monos in support.items():
        pert = {e: QC(Fraction(rng.choice([-2, -1, 1, 2]), 4)) for e in monos}
        g[i][j] = g[j][i] = g[i][j] + Poly(2, pert, order)
    return geo.MetricJet(2, order, g)


def _seeded_poly(rng: random.Random, support):
    """Fixed monomial support, seeded nonzero small rational coefficients:
    the cost of the products stays the same across seeds."""
    return Poly(2, {e: QC(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                   rng.randint(1, 3))) for e in support})


class ExactJets:
    name = "exact-jets"
    probe = "python"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        self.order = 5 if smoke else 8
        self.rnd_order = 4 if smoke else 5
        self.cap = 6 if smoke else 10
        self.n_trees = {6: 2, 8: 3, 10: 4}[self.cap]
        self.ode_t = 0.05 if smoke else 0.5
        self.metric_seed = rng.randrange(2 ** 31)
        a = rng.uniform(0, 2 * math.pi)
        self.velocity = (0.1 * math.cos(a), 0.1 * math.sin(a))
        self.f = _seeded_poly(rng, [(1, 1), (2, 0), (0, 1)])
        self.g = _seeded_poly(rng, [(0, 2), (1, 0), (1, 1)])
        self.flat_fg = [_seeded_poly(rng, [(2, 1), (0, 2), (1, 0)])
                        for _ in range(2)]
        self.curved = _curved_input(self.cap)
        self.flat = fed.flat_input(dim=2, cap=6)

    def cycle(self, c: Cycle) -> None:
        order = self.order

        sph = c.time("exp_map8", geo.MetricJet.sphere, order)
        phi_s = c.time("exp_map8", geo.exp_map_series, sph, order)
        poi = c.time("exp_map8", geo.MetricJet.poincare_half_plane, order)
        phi_p = c.time("exp_map8", geo.exp_map_series, poi, order)
        polar = (geo.restrict_velocity(phi_s[0], 2, (1, 0)),
                 geo.restrict_velocity(phi_s[1], 2, (1, 0)))
        c.check("sphere polar series exact", polar == (
            Poly(3, {(1, 0, 0): QC(1), (0, 0, 1): QC(1)}),
            Poly(3, {(0, 1, 0): QC(1)})))
        vert = geo.restrict_velocity(phi_p[1], 2, (0, 1))
        coeffs = {e[2]: v for e, v in vert.terms.items()
                  if e[0] == 0 and e[1] == 0}
        c.check("half-plane vertical 1/n! exact",
                all(coeffs.get(k) == QC(Fraction(1, math.factorial(k)))
                    for k in range(1, order + 1))
                and max(coeffs) <= order
                and geo.restrict_velocity(phi_p[0], 2, (0, 1))
                == Poly(3, {(1, 0, 0): QC(1)}))

        th0 = math.asin(3 / 5)
        t = self.ode_t
        for name, fn, x, v, base in (
                ("sphere", "sphere_gamma_fn", (th0, 0.2), (1.0, 0.0),
                 (th0, 0.2)),
                ("half-plane", "poincare_gamma_fn", (0.3, 1.0), (0.0, 1.0),
                 (0.3, 1.0))):
            phi = phi_s if name == "sphere" else phi_p
            end = c.time("oracle", geo.geodesic_ode_oracle,
                         getattr(geo, fn), x, v, t, steps=4000)
            sv = c.time("oracle", geo.series_eval, phi, (0.0, 0.0),
                        (t * v[0], t * v[1]))
            err = max(abs(base[i] + sv[i].real - end[i]) for i in range(2))
            c.check(f"{name} series vs RK4", err <= 1e-8, err)

        v = self.velocity
        rnd = c.time("random_metric", _seeded_metric,
                     random.Random(self.metric_seed), self.rnd_order)
        phi = c.time("random_metric", geo.exp_map_series, rnd, self.rnd_order)
        end = c.time("oracle", geo.geodesic_ode_oracle,
                     geo.metric_gamma_fn(rnd), (0.0, 0.0), v, 0.4, steps=200)
        sv = c.time("oracle", geo.series_eval, phi, (0.0, 0.0),
                    (0.4 * v[0], 0.4 * v[1]))
        err = max(abs(sv[i].real - end[i]) for i in range(2))
        c.check("random metric series vs RK4", err <= 1e-8, err)

        metrics = [("sphere", sph), ("half-plane", poi),
                   ("random metric", rnd)]

        for name, met in metrics:
            phi4 = c.time("flat_section", geo.exp_map_series, met, 4)
            same = [c.time("flat_section", geo.classical_fedosov_taylor, met,
                           i, 4) == phi4[i] for i in range(2)]
            c.check(f"{name} flat-section recursion == series", all(same))

        conn = c.time("fedosov_star", fed.solve_connection, self.curved)
        jets = c.time("fedosov_star", fed.fedosov_star, self.curved, self.f,
                      self.g, conn)
        c.check("curved star order 0 == f g",
                jets.get(0, Poly.zero(2)) == self.f * self.g)
        _, counts = c.time("catalan", fed.catalan_trees, self.curved,
                           self.n_trees)
        c.check("tree counts are Catalan numbers",
                all(counts[n] == fed.catalan_number(n)
                    for n in range(1, self.n_trees + 1)))
        expansion = c.time("catalan", fed.catalan_expansion, self.curved,
                           self.n_trees)
        c.check("catalan expansion == solve_connection",
                (expansion - conn).is_zero())

        f, g = self.flat_fg
        got = c.time("flat_star", fed.fedosov_star, self.flat, f, g)
        want = c.time("flat_star", fed.moyal_star_jets, [[0, 1], [-1, 0]],
                      f, g, 3)
        c.check("flat fedosov_star == moyal_star_jets",
                all(got.get(j, Poly.zero(2)) == want.get(j, Poly.zero(2))
                    for j in set(got) | set(want)))


# ---------------------------------------------------------------------

def _nambu_bivector():
    """Quadratic Nambu structure Pi^{ij} = eps^{ijk} x_k^2."""
    x = [Poly.var(3, i) for i in range(3)]
    q = [xi * xi for xi in x]
    z = Poly.zero(3)
    return st.PolyVectorField.bivector(
        3, [[z, q[2], -q[1]], [-q[2], z, q[0]], [q[1], -q[0], z]])


def _moyal4_bivector():
    """Constant Darboux bivector in dimension 4."""
    return st.PolyVectorField.bivector(
        4, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def _monomial(rng: random.Random, dim: int, degree: int) -> Poly:
    e = [0] * dim
    for _ in range(degree):
        e[rng.randrange(dim)] += 1
    return Poly(dim, {tuple(e): QC(1)})


def _ops_close(a, b, rtol: float = 1e-12) -> bool:
    for n in set(a.ops) | set(b.ops):
        oa, ob = a.ops.get(n), b.ops.get(n)
        if oa is None or ob is None or set(oa.terms) != set(ob.terms):
            return False
        for key, pa in oa.terms.items():
            pb = ob.terms[key]
            for e in set(pa.terms) | set(pb.terms):
                x = pa.terms.get(e, QC(0)).to_complex()
                y = pb.terms.get(e, QC(0)).to_complex()
                if abs(x - y) > rtol * max(abs(x), abs(y)):
                    return False
    return True


class StarAssembly:
    name = "star-assembly"
    probe = "python"
    LAMBDAS = (0.5, 0.25, 0.75, 0.3 + 0.2j)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.n_samples = 5_000 if smoke else 50_000
        self.mc_seed = rng.randrange(2 ** 31)
        pis = [("so3", st.so3_bivector()), ("nambu", _nambu_bivector()),
               ("moyal4", _moyal4_bivector())]
        lams = self.LAMBDAS[:2] if smoke else self.LAMBDAS
        self.grid = [(name, pi, lam) for name, pi in pis for lam in lams]
        # every triple has one monomial each of degree 1, 2 and 3, so the
        # cost of a triple hardly depends on the seed
        self.triples = []
        for _, pi, _ in self.grid:
            row = []
            for _ in range(1 if smoke else 3):
                degs = [1, 2, 3]
                rng.shuffle(degs)
                row.append(tuple(_monomial(rng, pi.dim, d) for d in degs))
            self.triples.append(row)
        self.n_cycles = 0

    def _grid(self, c: Cycle, job: str, source):
        return [c.time(job, st.star_order2, pi, lam, source)
                for _, pi, lam in self.grid]

    @staticmethod
    def _assoc(series, f, g, h):
        return (st.associativity_residual(series, f, g, h, 2),
                st.associativity_sigma(series, f, g, h, 2))

    def cycle(self, c: Cycle) -> None:
        classes = c.time("class_table3", nonzero_classes, 3, 2)
        c.check("30 nonzero (3,2) classes", len(classes) == 30, len(classes))

        self.n_cycles += 1
        path = self.workdir / f"cold-{self.n_cycles}.jsonl"
        cache = cache_mod.WeightCache(path)
        cold = self._grid(c, "star_cold", wm.WeightSource(
            cache=cache, n_samples=self.n_samples, seed=self.mc_seed))
        written = len(cache)
        warm = self._grid(c, "star_warm", wm.WeightSource(
            cache=cache, n_samples=self.n_samples, seed=self.mc_seed))
        c.check("warm pass writes nothing", len(cache) == written, written)
        c.check("warm operators == cold to 1e-12",
                all(_ops_close(a, b) for a, b in zip(cold, warm)))
        for series in cold:
            c.stderr.extend(sigma for lvl in (1, 2)
                            for sigma, _ in series.uncertainties[lvl])

        low_orders = 0
        pairs = []      # (|residual|, sigma) of every order-2 coefficient
        for series, row in zip(warm, self.triples):
            for f, g, h in row:
                resid, sig = c.time("assoc", self._assoc, series, f, g, h)
                low_orders += (0 in resid) + (1 in resid)
                r2 = resid.get(2, Poly.zero(series.dim)).terms
                s2 = sig.get(2, {})
                pairs += [(abs(r2[e].to_complex()) if e in r2 else 0.0,
                           s2.get(e, 0.0)) for e in set(r2) | set(s2)]
        c.check("associativity orders 0,1 exactly zero", low_orders == 0,
                low_orders)
        # a 3-sigma gate on each of the ~40 coefficients raises a false
        # alarm in about one cycle in ten (3 of 40 seeds measured); the gate
        # below keeps the chance of any false alarm in a cycle at
        # FAMILY_ALPHA (Bonferroni).
        # A coefficient with sigma 0 must vanish exactly.
        z = NormalDist().inv_cdf(1 - FAMILY_ALPHA / (2 * max(1, len(pairs))))
        beyond = sum(mag > z * sigma for mag, sigma in pairs)
        worst = max((mag / (z * sigma) for mag, sigma in pairs if sigma > 0),
                    default=0.0)
        c.check("order-2 residual within the family-wise sigma gate",
                beyond == 0, worst)
        path.unlink()


WORKLOADS = {w.name: w for w in (MCWeights, ExactJets, StarAssembly)}
