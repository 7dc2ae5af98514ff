"""Graph operators, HKR components, star assembly, associativity gates."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from defquant import star
from defquant import weight_mc as wmc
from defquant.exactnum import QC
from defquant.exactpoly import Poly, accumulate, poly_sum
from defquant.graphs import (AdmissibleGraph, Edge, canonical_classes,
                             enumerate_graphs, fan_graph, graph1_left, graph2)
from defquant.star import (PolyVectorField, PolyDiffOperator, graph_operator,
                           hkr_operator, StarProductSeries, star_order2,
                           associativity_residual, associativity_sigma,
                           random_triple, so3_bivector)
from defquant.weight_mc import _EXACT, WeightSource, exact_zero_reason


def rand_poly(rng, dim, deg=2):
    terms = {}
    for _ in range(4):
        e = tuple(rng.randint(0, deg) for _ in range(dim))
        terms[e] = QC(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return Poly(dim, terms)


# ---------------------------------------------------------------------
# polyvector fields
# ---------------------------------------------------------------------

def test_bivector_requires_antisymmetry():
    with pytest.raises(ValueError, match="antisymmetric"):
        PolyVectorField.bivector(2, [[0, 1], [1, 0]])


BAD_KEYS = [(1, 0), (0, 0), (0,), (0, 1, 2), (0, 3), (-1, 0)]


@pytest.mark.parametrize("key", BAD_KEYS, ids=str)
def test_bad_component_keys_raise(key):
    with pytest.raises(ValueError, match="strictly increasing"):
        PolyVectorField(3, 1, {key: 1})


def test_bad_component_keys_raise_under_python_O():
    # graph_operator reads the keys as given, so the check must not be an
    # assert, which python -O removes
    code = ("from defquant.star import PolyVectorField\n"
            f"for key in {BAD_KEYS!r}:\n"
            "    try:\n        PolyVectorField(3, 1, {key: 1})\n"
            "    except ValueError:\n        continue\n"
            "    raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code],
                          env=env).returncode == 0


def test_component_signs():
    pi = so3_bivector()
    x = [Poly.var(3, i) for i in range(3)]
    assert pi.component((0, 1)) == x[2]
    assert pi.component((1, 0)) == -x[2]
    assert pi.component((1, 1)).is_zero()
    v = PolyVectorField(2, 0, {(0,): 1, (1,): 2})
    assert v.component((1,)) == Poly.const(2, 2)


# ---------------------------------------------------------------------
# polydifferential operators
# ---------------------------------------------------------------------

def test_multiplication_operator():
    mul = PolyDiffOperator.multiplication(2)
    f = Poly(2, {(1, 0): QC(1)})
    g = Poly(2, {(0, 2): QC(3)})
    assert mul.apply(f, g) == f * g


def test_operator_linear_structure_and_json():
    mul = PolyDiffOperator.multiplication(2)
    s = mul + mul.scale(2)
    assert s == mul.scale(3)
    assert (mul + mul.scale(-1)).is_zero()
    blob = mul.to_jsonable()
    assert blob["arity"] == 2 and blob["dim"] == 2
    assert blob["terms"][0]["slots"] == [[0, 0], [0, 0]]


# ---------------------------------------------------------------------
# graph -> operator
# ---------------------------------------------------------------------

def test_wedge_fan_is_the_poisson_half():
    pi = so3_bivector()
    rng = random.Random(3)
    f, g = rand_poly(rng, 3), rand_poly(rng, 3)
    op = graph_operator(fan_graph(2), [pi])
    want = Poly.zero(3)
    for i in range(3):
        for j in range(3):
            want = want + pi.component((i, j)) * f.diff(i) * g.diff(j)
    assert op.apply(f, g) == want


def test_two_cycle_hand_formula():
    # K(2,2)[1>b1#1, 1>2#2, 2>1#1, 2>b2#2] routes
    # (d_k Pi^{ij}) (d_j Pi^{kl}) d_i f d_l g
    pi = so3_bivector()
    rng = random.Random(4)
    f, g = rand_poly(rng, 3), rand_poly(rng, 3)
    op = graph_operator(graph2(), [pi, pi])
    want = Poly.zero(3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    want = want + (pi.component((i, j)).diff(k)
                                   * pi.component((k, l)).diff(j)
                                   * f.diff(i) * g.diff(l))
    assert op.apply(f, g) == want


def test_arity_and_degree_mismatches_raise():
    pi = so3_bivector()
    with pytest.raises(ValueError, match="polyvector fields"):
        graph_operator(graph2(), [pi])
    v = PolyVectorField(3, 0, {(0,): 1})
    with pytest.raises(ValueError, match="out-degree"):
        graph_operator(fan_graph(2), [v])


def test_derivatives_of_constant_bivector_vanish():
    pi_const = PolyVectorField.bivector(2, [[0, 1], [-1, 0]])
    assert graph_operator(graph2(), [pi_const, pi_const]).is_zero()


def _sweep_operator(g, gammas):
    """Reference for ``graph_operator``: sweep all dim^E assignments of an
    index to each edge (in edge order), looking each factor up through
    ``PolyVectorField.component``."""
    dim = gammas[0].dim
    edges = g.edges
    out_edges = {v: sorted((k for k, e in enumerate(edges) if e.src == v),
                           key=lambda k: edges[k].label)
                 for v in range(1, g.n + 1)}
    in_edges = {v: [k for k, e in enumerate(edges) if e.dst == v]
                for v in range(1, g.n + g.m + 1)}
    terms = {}
    for index in itertools.product(range(dim), repeat=len(edges)):
        coeff = Poly.one(dim)
        ok = True
        for v in range(1, g.n + 1):
            comp = gammas[v - 1].component(
                tuple(index[k] for k in out_edges[v]))
            for k in in_edges[v]:
                comp = comp.diff(index[k])
                if comp.is_zero():
                    break
            if comp.is_zero():
                ok = False
                break
            coeff = coeff * comp
        if not ok:
            continue
        slots = []
        for j in range(1, g.m + 1):
            alpha = [0] * dim
            for k in in_edges[g.n + j]:
                alpha[index[k]] += 1
            slots.append(tuple(alpha))
        accumulate(terms, tuple(slots), coeff)
    return PolyDiffOperator(dim, g.m, terms)


def _rand_field(rng, dim, p):
    comps = {idx: rand_poly(rng, dim)
             for idx in itertools.combinations(range(dim), p)}
    return PolyVectorField(dim, p - 1, comps)


def _operator_cases():
    """(graph, fields): every labeled (1,2) and (2,2) graph, parallel edges
    included, and the (3,2) classes on three bivectors; every labeled fan
    with a p-vector; the (2,0) and (2,1) graphs on two different vector
    fields; a vertex without out-edges carrying a function."""
    cases = []
    classes3 = [gc for gc, _, _ in
                canonical_classes(enumerate_graphs(3, 2, 2)).values()]
    for name in sorted(BIVECTORS):
        pi = BIVECTORS[name]()
        for level in (1, 2):
            cases += [(g, [pi] * level)
                      for g in enumerate_graphs(level, 2, 2,
                                                allow_parallel=True)]
        cases += [(gc, [pi] * 3) for gc in classes3]
    rng = random.Random(5)
    for dim in (3, 4):
        for p in (1, 2, 3):
            gamma = _rand_field(rng, dim, p)
            cases += [(g, [gamma]) for g in _labeled_fans(p)]
    for dim in (2, 3):
        v1, v2 = _rand_field(rng, dim, 1), _rand_field(rng, dim, 1)
        cases += [(g, [v1, v2]) for m in (0, 1)
                  for g in enumerate_graphs(2, m, 1)]
    fn = PolyVectorField(3, -1, {(): rand_poly(rng, 3)})
    cases.append((AdmissibleGraph(2, 1, [Edge(1, 2, 1), Edge(1, 3, 2)]),
                  [so3_bivector(), fn]))
    return cases


def test_graph_operator_equals_the_index_sweep():
    cases = _operator_cases()
    assert len(cases) == 416
    nonzero = 0
    for g, gammas in cases:
        got, want = graph_operator(g, gammas), _sweep_operator(g, gammas)
        assert got == want, g.to_text()
        assert got.to_jsonable() == want.to_jsonable(), g.to_text()
        nonzero += not got.is_zero()
    assert nonzero == 149


def test_second_derivative_of_linear_bivector_vanishes():
    # both edges of vertex 2 land on vertex 1: the coefficient carries two
    # derivatives of a linear field, which is identically zero
    g = AdmissibleGraph(2, 2, [Edge(1, 3, 1), Edge(1, 4, 2),
                               Edge(2, 1, 1), Edge(2, 1, 2)])
    pi = so3_bivector()
    assert graph_operator(g, [pi, pi]).is_zero()


# ---------------------------------------------------------------------
# first Taylor component vs the antisymmetrized-derivative operator
# ---------------------------------------------------------------------

def test_aligned_fan_on_coordinates_is_one():
    dim = 2
    gamma = PolyVectorField.bivector(dim, [[0, 1], [-1, 0]])
    op = graph_operator(fan_graph(2), [gamma])
    x = [Poly.var(dim, i) for i in range(dim)]
    assert op.apply(x[0], x[1]) == Poly.one(dim)
    assert hkr_operator(gamma).apply(x[0], x[1]) \
        == Poly.const(dim, Fraction(1, 2))


def _labeled_fans(p):
    import itertools
    out = []
    for perm in itertools.permutations(range(1, p + 1)):
        edges = [Edge(1, 1 + j, perm[j - 1]) for j in range(1, p + 1)]
        out.append(AdmissibleGraph(1, p, edges))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_first_component_assembly_matches_hkr(p):
    dim = 3
    rng = random.Random(10 + p)
    comps = {}
    for idx in __import__("itertools").combinations(range(dim), p):
        comps[idx] = rand_poly(rng, dim, deg=1)
    gamma = PolyVectorField(dim, p - 1, comps)
    src = WeightSource(n_samples=10, seed=0)
    total = PolyDiffOperator.zero(dim, p)
    norm = Fraction(1, __import__("math").factorial(p))  # 1/|Star|!
    for g in _labeled_fans(p):
        res = src.weight(g, lam=0.4)
        assert res.exact
        total = total + graph_operator(g, [gamma]).scale(res.value * norm)
    assert total == hkr_operator(gamma)


def test_fan_weight_label_parity():
    src = WeightSource(n_samples=10, seed=0)
    aligned, swapped = _labeled_fans(2)
    assert src.weight(aligned, lam=0.2).value == Fraction(1, 2)
    assert src.weight(swapped, lam=0.2).value == -Fraction(1, 2)


# ---------------------------------------------------------------------
# constant-coefficient assembly is exact and sampling-free
# ---------------------------------------------------------------------

class _ExactOnlySource(WeightSource):
    """Weight lookups are fine; falling through to Monte Carlo is not."""

    def weight(self, g, lam=0.5):
        res = super().weight(g, lam=lam)
        assert res.exact, "constant bivector must resolve from the exact table"
        return res


def test_constant_assembly_never_samples():
    pi = PolyVectorField.bivector(2, [[0, 1], [-1, 0]])
    series = star_order2(pi, 0.7, _ExactOnlySource(n_samples=10, seed=0))
    assert series.uncertainties == {1: [], 2: []}


def test_a_sampled_class_keeps_its_entry_at_stderr_0(monkeypatch):
    """Without the exact table the order-1 fan is sampled; its integrand
    is constant, so it reads stderr 0, and it still lists its sigma."""
    monkeypatch.setattr(wmc, "_EXACT", {})
    pi = PolyVectorField.bivector(2, [[0, 1], [-1, 0]])
    series = star_order2(pi, 0.7, WeightSource(n_samples=10, seed=0))
    assert [sigma for sigma, _ in series.uncertainties[1]] == [0.0]


def test_constant_assembly_is_moyal():
    from defquant.fedosov import moyal_star_jets
    pi = PolyVectorField.bivector(2, [[0, 1], [-1, 0]])
    series = star_order2(pi, 0.25, WeightSource(n_samples=10, seed=0))
    rng = random.Random(17)
    for _ in range(3):
        f, g = rand_poly(rng, 2), rand_poly(rng, 2)
        jets = moyal_star_jets([[0, 1], [-1, 0]], f, g, 2)
        for n in range(3):
            assert series.apply_order(n, f, g) \
                == jets.get(n, Poly.zero(2))
        assert associativity_residual(series, f, g, rand_poly(rng, 2), 2) == {}


def test_order1_commutator_is_the_bracket():
    pi = PolyVectorField.bivector(2, [[0, 1], [-1, 0]])
    series = star_order2(pi, 0.5, WeightSource(n_samples=10, seed=0))
    rng = random.Random(23)
    f, g = rand_poly(rng, 2), rand_poly(rng, 2)
    got = series.apply_order(1, f, g) - series.apply_order(1, g, f)
    bracket = f.diff(0) * g.diff(1) - f.diff(1) * g.diff(0)
    assert got == bracket * QC(0, 1)


def test_rejects_non_bivector():
    v = PolyVectorField(2, 0, {(0,): 1})
    with pytest.raises(ValueError, match="bivector"):
        star_order2(v, 0.5, WeightSource(n_samples=10, seed=0))


# ---------------------------------------------------------------------
# linear bivector: the sampled order-2 class propagates no error
# ---------------------------------------------------------------------

def test_so3_assembly_respects_associativity_sigma():
    # at lam = 1/2 every (2,2) weight is exact; away from it graph2 is
    # sampled, and its zero coboundary leaves no residual and no sigma
    src = WeightSource(n_samples=80_000, seed=606)
    series = star_order2(so3_bivector(), 0.25, src)
    assert series.uncertainties[1] == []       # order 1 stays exact
    assert len(series.uncertainties[2]) >= 1   # order 2 is sampled
    x = [Poly.var(3, i) for i in range(3)]
    f, g, h = x[0] * x[1], x[2] * x[2], x[0] + x[2]
    assert associativity_residual(series, f, g, h, 2) == {}
    # every move is the zero Poly, so no monomial gets a sigma at all
    assert associativity_sigma(series, f, g, h, 2) == {0: {}, 1: {}, 2: {}}


# ---------------------------------------------------------------------
# assembly on canonical classes
# ---------------------------------------------------------------------

def _nambu_bivector():
    """Quadratic Nambu structure Pi^{ij} = eps^{ijk} x_k^2."""
    q = [Poly.var(3, i) * Poly.var(3, i) for i in range(3)]
    z = Poly.zero(3)
    return PolyVectorField.bivector(
        3, [[z, q[2], -q[1]], [-q[2], z, q[0]], [q[1], -q[0], z]])


def _moyal4_bivector():
    return PolyVectorField.bivector(
        4, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


BIVECTORS = {"so3": so3_bivector, "nambu": _nambu_bivector,
             "moyal4": _moyal4_bivector}


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name", sorted(BIVECTORS))
def test_class_operator_sum_is_size_times_representative(name, level):
    pi = BIVECTORS[name]()
    graphs = enumerate_graphs(level, 2, 2)
    sums = {}
    for g in graphs:
        gc, par, _ = g.canonical_form()
        key = gc.to_text()
        sums[key] = (sums.get(key, PolyDiffOperator.zero(pi.dim, 2))
                     + graph_operator(g, [pi] * level).scale(par))
    classes = canonical_classes(graphs)
    assert set(classes) == set(sums)
    for key, (gc, size, _) in classes.items():
        assert sums[key] == graph_operator(gc, [pi] * level).scale(size)
    assert any(not op.is_zero() for op in sums.values())


def _labeled_reference(pi, lam, source):
    """B_1, B_2 summed over every labeled graph with its own weight."""
    ops = {0: PolyDiffOperator.multiplication(pi.dim)}
    for level in (1, 2):
        total = PolyDiffOperator.zero(pi.dim, 2)
        pref = QC(0, 1) ** level * Fraction(1, factorial(level) * 2 ** level)
        for g in enumerate_graphs(level, 2, 2):
            op = graph_operator(g, [pi] * level)
            if op.is_zero():
                continue
            w = source.weight(g, lam=lam).value
            total = total + op.scale(pref * QC.coerce(w))
        ops[level] = total
    return ops


@pytest.mark.parametrize("name", sorted(BIVECTORS))
def test_class_assembly_equals_labeled_reference(name):
    pi = BIVECTORS[name]()
    src = WeightSource(n_samples=2000, seed=41)
    assert star_order2(pi, 0.5, src).ops == _labeled_reference(pi, 0.5, src)


def test_so3_assembly_builds_one_operator_per_class(monkeypatch):
    calls = []

    def counted(g, gammas):
        calls.append(g.to_text())
        return graph_operator(g, gammas)

    monkeypatch.setattr(star, "graph_operator", counted)
    pi = so3_bivector()
    star_order2(pi, 0.5, WeightSource(n_samples=2000, seed=0))
    assert len(calls) == 7
    assert all(g.canonical_form()[0].to_text() == g.to_text()
               for g in map(AdmissibleGraph.from_text, calls))
    # another parameter and source on the same field reuse its operators
    calls.clear()
    star_order2(pi, 0.25, WeightSource(n_samples=2000, seed=1))
    assert calls == []


@pytest.mark.parametrize("lam", [0.25, 0.3 + 0.2j])
@pytest.mark.parametrize("name", sorted(BIVECTORS))
def test_memoized_operators_give_the_fresh_series(name, lam):
    pi = BIVECTORS[name]()
    src = WeightSource(n_samples=2000, seed=43)
    star_order2(pi, 0.5, src)
    fresh = BIVECTORS[name]()
    assert star_order2(pi, lam, src).ops == star_order2(fresh, lam, src).ops
    assert pi.class_operators is not fresh.class_operators


# ---------------------------------------------------------------------
# order-2 weights from associativity
# ---------------------------------------------------------------------

def _gauss_jordan(rows, n: int) -> list:
    """Reduce ``rows`` (n QC coefficients, then the right-hand side) to
    reduced row echelon form in place; returns the pivot columns."""
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()),
                 None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = QC(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero():
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def test_associativity_fixes_the_order2_weights():
    """On so(3) the hbar^2 residual is R_2 = A + sum_c w_c D_c over the
    (2,2) classes, with A = B_1(B_1(f,g),h) - B_1(f,B_1(g,h)) from the
    exact (1,2) weight 1/2 and D_c = V_c(f,g) h - f V_c(g,h) + V_c(fg,h)
    - V_c(f,gh) for star_order2's class operator V_c.  Exact elimination
    over 8 triples: rank 3, no inconsistent row, the solution -1/12,
    +1/12, 1/4, and graph2's column the zero Poly.  These are the values
    of the exact table."""
    pi = so3_bivector()
    [(fan, v1)] = pi.class_operators[1]
    assert fan.to_text() == fan_graph(2).to_text()
    b1 = v1.scale(Fraction(1, 2))
    cols = [(gc.to_text(), v) for gc, v in pi.class_operators[2]
            if exact_zero_reason(gc) is None]
    assert len(cols) == 4
    rows = []
    zero = [True] * len(cols)
    for f, g, h in (random_triple(random.Random(3), 3, 3) for _ in range(8)):
        a = b1.apply(b1.apply(f, g), h) - b1.apply(f, b1.apply(g, h))
        ds = [v.apply(f, g) * h - f * v.apply(g, h) + v.apply(f * g, h)
              - v.apply(f, g * h) for _, v in cols]
        zero = [z and d.is_zero() for z, d in zip(zero, ds)]
        for e in set(a.terms).union(*(d.terms for d in ds)):
            rows.append([d.terms.get(e, QC(0)) for d in ds]
                        + [-a.terms.get(e, QC(0))])
    pivots = _gauss_jordan(rows, len(cols))
    assert len(pivots) == 3
    assert all(row[-1].is_zero() for row in rows[3:])
    key2 = graph2().canonical_form()[0].to_text()
    assert zero == [key == key2 for key, _ in cols]
    solved = {cols[c][0]: rows[r][-1] for r, c in enumerate(pivots)}
    assert solved == {
        "K(2,2)[1>2#1, 1>b1#2, 2>b1#1, 2>b2#2]": QC(Fraction(-1, 12)),
        "K(2,2)[1>2#1, 1>b2#2, 2>b1#1, 2>b2#2]": QC(Fraction(1, 12)),
        graph1_left().canonical_form()[0].to_text(): QC(Fraction(1, 4))}
    for key, value in solved.items():
        assert _EXACT[key] == (value, None)


def _random_quadratic_bivector(seed):
    """Pi^{ij} random integer quadratic forms in three variables."""
    rng = random.Random(seed)
    x = [Poly.var(3, i) for i in range(3)]
    quad = [sum((x[i] * x[j] * QC(rng.randint(-3, 3))
                 for i in range(3) for j in range(i, 3)), Poly.zero(3))
            for _ in range(3)]
    z = Poly.zero(3)
    return PolyVectorField.bivector(3, [[z, quad[0], quad[1]],
                                        [-quad[0], z, quad[2]],
                                        [-quad[1], -quad[2], z]])


def _jacobiator(pi):
    """{x0,{x1,x2}} + cyclic for the bracket {f,g} = Pi^{ij} d_i f d_j g."""
    def bracket(f, g):
        return poly_sum(3, [pi.component((i, j)) * f.diff(i) * g.diff(j)
                            for i in range(3) for j in range(3)])
    x = [Poly.var(3, i) for i in range(3)]
    return poly_sum(3, [bracket(x[a], bracket(x[b], x[c]))
                        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))])


@pytest.mark.parametrize("name", ["so3", "nambu", "random quadratic"])
def test_graph2_alone_has_a_zero_coboundary(name):
    """graph2 sends one derivative to each ground slot, so its class
    operator V is a biderivation and V(f,g)h - fV(g,h) + V(fg,h) - V(f,gh)
    vanishes on every bivector, Poisson or not; every other (2,2) class
    operator leaves a nonzero coboundary on the same triples.  That
    coboundary is each move associativity_sigma sums at order 2, so the
    sampled graph2 propagates sigma 0."""
    pi = (_random_quadratic_bivector(11) if name == "random quadratic"
          else BIVECTORS[name]())
    if name == "random quadratic":
        assert not _jacobiator(pi).is_zero()
    rng = random.Random(31)
    triples = [random_triple(rng, 3, 3) for _ in range(4)]
    key2 = graph2().canonical_form()[0].to_text()
    ops = dict((gc.to_text(), v) for gc, v in pi.class_operators[2])
    assert key2 in ops and len(ops) > 1
    for key, v in ops.items():
        zero = all((v.apply(f, g) * h - f * v.apply(g, h) + v.apply(f * g, h)
                    - v.apply(f, g * h)).is_zero() for f, g, h in triples)
        assert zero is (key == key2), key


@pytest.mark.parametrize("lam", [0.5, 0.25, 0.3 + 0.2j])
@pytest.mark.parametrize("name", ["so3", "nambu"])
def test_order2_residual_is_exactly_zero(name, lam):
    """The only sampled (2,2) class, graph2 at lam != 1/2, has a zero
    column, so the exact table leaves no order-2 residual."""
    series = star_order2(BIVECTORS[name](), lam,
                         WeightSource(n_samples=2000, seed=5))
    rng = random.Random(31)
    for _ in range(4):
        assert associativity_residual(
            series, *random_triple(rng, 3, 3), 2) == {}


# ---------------------------------------------------------------------
# mismatched operator input raises, also under python -O
# ---------------------------------------------------------------------

OPERATOR_MISMATCHES = {
    "apply arity": (
        "PolyDiffOperator.multiplication(2).apply(Poly.var(2, 0))",
        "arity 2 operator on 1 slots"),
    "add dim": (
        "PolyDiffOperator.zero(2, 2) + PolyDiffOperator.multiplication(3)",
        r"\(dim, arity\) \(3, 2\) to one of \(2, 2\)"),
    "add arity": (
        "PolyDiffOperator.zero(2, 1) + PolyDiffOperator.multiplication(2)",
        r"\(dim, arity\) \(2, 2\) to one of \(2, 1\)"),
    "residual order": (
        "associativity_residual(StarProductSeries(2, 2), Poly.one(2), "
        "Poly.one(2), Poly.one(2), 3)",
        "order 3 > series order 2"),
}
_MISMATCH_IMPORTS = ("from defquant.exactpoly import Poly\n"
                     "from defquant.star import (PolyDiffOperator, "
                     "StarProductSeries, associativity_residual)\n")


@pytest.mark.parametrize("case", OPERATOR_MISMATCHES)
def test_operator_mismatch_raises(case):
    code, message = OPERATOR_MISMATCHES[case]
    with pytest.raises(ValueError, match=message):
        exec(_MISMATCH_IMPORTS + code, {})


@pytest.mark.parametrize("case", OPERATOR_MISMATCHES)
def test_operator_mismatch_raises_under_python_O(case):
    # under -O an assert would vanish: apply would zip the slots short and
    # __add__ would mix exponent lengths
    code, message = OPERATOR_MISMATCHES[case]
    script = (_MISMATCH_IMPORTS + "import re\ntry:\n    " + code + "\n"
              "except ValueError as exc:\n"
              f"    raise SystemExit(0 if re.search({message!r}, str(exc))"
              " else 2)\n"
              "raise SystemExit(1)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", script],
                          env=env).returncode == 0


def test_graph_operator_without_aerial_vertex_raises():
    with pytest.raises(ValueError, match=r"K\(0,2\)\[\] has no aerial"):
        graph_operator(AdmissibleGraph(0, 2, []), [])


# -- operator application against one derivative chain per term --------

def _naive_apply(op, *fs):
    """Each term differentiates its inputs afresh (index 0 first, then 1,
    ...) and the products are added one + at a time: the reference the
    derivative tables and the one-dict sum must equal."""
    out = Poly.zero(op.dim)
    for key, coeff in op.terms.items():
        prod = coeff
        for alpha, f in zip(key, fs):
            df = f
            for i, k in enumerate(alpha):
                for _ in range(k):
                    df = df.diff(i)
            if df.is_zero():
                prod = None
                break
            prod = prod * df
        if prod is not None:
            out = out + prod
    return out


def _random_jet(rng, dim, deg, trunc, n_terms):
    terms = {}
    for _ in range(n_terms):
        e = [0] * dim
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(dim)] += 1
        terms[tuple(e)] = QC(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                             Fraction(rng.randint(-2, 2), 3))
    return Poly(dim, terms, trunc)


def _same_poly(a, b):
    return a == b and list(a.terms) == list(b.terms) and a.trunc == b.trunc


def test_apply_equals_the_per_term_derivative_reference():
    """Exact ==, the same term order (eval_complex sums in it) and the
    same trunc, on operators whose coefficients and inputs are jets of
    several truncation orders, so the sum's trunc tightens partway, and
    on products that cancel."""
    rng = random.Random(26)
    tightened = 0
    for _ in range(300):
        dim = rng.choice([2, 3])
        arity = rng.choice([1, 2, 3])
        terms = {}
        for _ in range(rng.randint(1, 8)):
            key = tuple(tuple(rng.randint(0, 2) for _ in range(dim))
                        for _ in range(arity))
            terms[key] = _random_jet(rng, dim, 3,
                                     rng.choice([None, None, 2, 3, 5]), 3)
        op = PolyDiffOperator(dim, arity, terms)
        fs = [_random_jet(rng, dim, 5, rng.choice([None, 3, 4, 6]), 6)
              for _ in range(arity)]
        got, want = op.apply(*fs), _naive_apply(op, *fs)
        assert _same_poly(got, want)
        truncs = {p.trunc for p in op.terms.values()} | {f.trunc for f in fs}
        tightened += len(truncs - {None}) > 1
    assert tightened > 50

    # d_0 f = d_1 f = 1: the second product cancels the first one's x0 x1,
    # and the third brings x0 x1 back, behind the monomials that stayed
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    op = PolyDiffOperator(2, 1, {((1, 0),): x0 * x1 + x1 + QC(2),
                                 ((0, 1),): -(x0 * x1),
                                 ((0, 0),): x0 + QC(1)})
    f = x0 + x1
    got = op.apply(f)
    assert _same_poly(got, _naive_apply(op, f))
    assert list(got.terms) == [(0, 1), (0, 0), (2, 0), (1, 1), (1, 0)]


def test_apply_on_the_assembled_series_equals_the_reference():
    """The operators star_order2 assembles from Monte Carlo weights,
    applied to monomials and to a jet cut below their degree."""
    rng = random.Random(7)
    series = star_order2(so3_bivector(), 0.25,
                         WeightSource(n_samples=2_000, seed=3))
    x = [Poly.var(3, i) for i in range(3)]
    inputs = [x[0] * x[1], x[2] * x[2] * x[0], rand_poly(rng, 3, 3),
              Poly(3, rand_poly(rng, 3, 3).terms, 2)]
    for op in series.ops.values():
        for f in inputs:
            for g in inputs:
                assert _same_poly(op.apply(f, g), _naive_apply(op, f, g))
