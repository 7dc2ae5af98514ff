"""Admissible graphs: validation, serialization, enumeration, canonical form."""

import itertools
import math
import random

import pytest

from defquant import graphs as graphs_module
from defquant.exactnum import perm_sign
from defquant.graphs import (AdmissibleGraph, Edge, canonical_classes,
                             enumerate_graphs, fan_graph, cycle_graph,
                             wheel_graph, graph1_left, graph1_right, graph2)
from defquant.weight_mc import exact_zero_reason


NAMED = [fan_graph(1), fan_graph(2), fan_graph(3), cycle_graph(2),
         cycle_graph(3), wheel_graph(2), wheel_graph(3),
         graph1_left(), graph1_right(), graph2()]


@pytest.mark.parametrize("g", NAMED, ids=lambda g: g.to_text())
def test_text_roundtrip(g):
    assert AdmissibleGraph.from_text(g.to_text()) == g


@pytest.mark.parametrize("bad", [
    "K(2)[...]",
    "garbage",
    "K(1,1)[2>b1#1]",        # source not aerial
    "K(1,2)[1>b1#1, 1>b2#3]",  # labels not 1..2
    "K(1,1)[1>1#1]",         # short loop
])
def test_rejects_malformed(bad):
    with pytest.raises(ValueError):
        AdmissibleGraph.from_text(bad)


def test_structure_queries():
    g = graph2()
    assert g.n_edges == 4
    assert g.dim_config() == 4
    assert g.out_degree(1) == g.out_degree(2) == 2
    assert g.in_degree(1) == g.in_degree(2) == 1
    assert g.unhit_ground() == []
    lonely = AdmissibleGraph(2, 2, [Edge(1, 2, 1), Edge(1, 3, 2),
                                    Edge(2, 1, 1), Edge(2, 3, 2)])
    assert lonely.unhit_ground() == [4]


@pytest.mark.parametrize("n,m,od,parallel,count", [
    (1, 1, 1, False, 1),
    (1, 2, 2, False, 2),    # two orders of hitting the two slots
    (2, 2, 2, False, 36),   # 6 ordered target pairs per aerial vertex
    (2, 2, 2, True, 81),    # 9 with repetition
    (3, 0, 1, False, 8),
])
def test_enumeration_counts(n, m, od, parallel, count):
    graphs = enumerate_graphs(n, m, od, allow_parallel=parallel)
    assert len(graphs) == count
    assert len(set(g.to_text() for g in graphs)) == count
    for g in graphs:
        assert all(g.out_degree(v) == od for v in range(1, n + 1))


def test_enumeration_empty_cases():
    assert enumerate_graphs(0, 2, 2) == []


def test_enumeration_rejects_too_many_ground_slots():
    with pytest.raises(ValueError, match=r"2n\+2-m = -1 < 0"):
        enumerate_graphs(1, 5, 1)
    assert enumerate_graphs(1, 5, 6) == []  # no graph, nothing to reject


def test_canonical_census_2_2():
    """The 36 labeled (2,2) out-degree-2 graphs pool into 6 classes."""
    classes = canonical_classes(enumerate_graphs(2, 2, 2))
    assert len(classes) == 6
    assert sorted(size for _, size, _ in classes.values()) \
        == [4, 4, 4, 8, 8, 8]
    for key, (gc, _, consistent) in classes.items():
        assert consistent, key
        assert gc.to_text() == key and gc.canonical_form()[1] == 1


def test_canonical_census_3_2():
    """The 1,728 labeled (3,2) out-degree-2 graphs pool into 44 classes,
    30 of them not screened out by ``exact_zero_reason``."""
    classes = canonical_classes(enumerate_graphs(3, 2, 2))
    assert len(classes) == 44
    assert sum(size for _, size, _ in classes.values()) == 1728
    assert sum(exact_zero_reason(gc) is None
               for gc, _, _ in classes.values()) == 30


def one_digit_names(g):
    """Whether every vertex name of ``g`` has one digit (n, m <= 9), so
    that its text orders as its vertex numbers."""
    return g.n <= 9 and g.m <= 9


def signature(g):
    """The order a canonical form minimises: the text while every name has
    one digit, the (source, destination) vertex numbers otherwise."""
    if one_digit_names(g):
        return g.to_text()
    return [(e.src, e.dst) for e in g.edges]


def brute_force_canonical_form(g):
    """Reference: the minimal ``signature`` over every aerial renaming
    times every per-star label permutation, with the parities of all
    minimizers."""
    best = None
    best_sig = None
    parities = set()
    base = list(g.edges)
    stars = {v: [i for i, e in enumerate(base) if e.src == v]
             for v in range(1, g.n + 1)}
    label_pools = [list(itertools.permutations(range(len(stars[v]))))
                   for v in range(1, g.n + 1)]
    for p in itertools.permutations(range(1, g.n + 1)):
        perm = {i + 1: p[i] for i in range(g.n)}
        for combo in itertools.product(*label_pools):
            new_edges = []
            origin = {}
            for v in range(1, g.n + 1):
                lp = combo[v - 1]
                for pos, i in enumerate(stars[v]):
                    e = base[i]
                    dst = perm[e.dst] if e.dst <= g.n else e.dst
                    ne = Edge(perm[v], dst, lp[pos] + 1)
                    origin[(ne.src, ne.label)] = i
                    new_edges.append(ne)
            g2 = AdmissibleGraph(g.n, g.m, new_edges)
            sig = signature(g2)
            if best_sig is not None and sig > best_sig:
                continue
            order = [origin[(e.src, e.label)] for e in g2.edges]
            par = perm_sign(tuple(order))
            if best_sig is None or sig < best_sig:
                best, best_sig, parities = g2, sig, {par}
            else:
                parities.add(par)
    return best, (1 if 1 in parities else -1), len(parities) == 1


def _random_graphs(count, seed):
    """Graphs with n <= 4, mixed out-degree 0..3 and parallel edges."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, m = rng.randint(1, 4), rng.randint(0, 3)
        edges = []
        for v in range(1, n + 1):
            targets = [t for t in range(1, n + m + 1) if t != v]
            k = rng.randint(0, 3) if targets else 0
            labels = rng.sample(range(1, k + 1), k)
            edges += [Edge(v, rng.choice(targets), lab) for lab in labels]
        out.append(AdmissibleGraph(n, m, edges))
    return out


CANONICAL_SETS = {
    "(2,2)": lambda: enumerate_graphs(2, 2, 2),
    "(2,2) parallel": lambda: enumerate_graphs(2, 2, 2, allow_parallel=True),
    "(2,3)": lambda: enumerate_graphs(2, 3, 2),
    "(3,0) parallel": lambda: enumerate_graphs(3, 0, 2, allow_parallel=True),
    "(3,1) parallel": lambda: enumerate_graphs(3, 1, 2, allow_parallel=True),
    "named": lambda: NAMED + [wheel_graph(4), cycle_graph(4), fan_graph(4)],
    # b10 sorts before b2 as text; the key orders vertex numbers
    "two-digit slots": lambda: [AdmissibleGraph(4, 10, [
        Edge(1, 6, 1), Edge(1, 14, 2), Edge(1, 5, 3), Edge(2, 14, 1),
        Edge(2, 1, 2), Edge(3, 13, 1), Edge(3, 5, 2), Edge(4, 2, 1)])],
    "random": lambda: _random_graphs(40, seed=5),
}


@pytest.mark.parametrize("name", CANONICAL_SETS)
def test_canonical_form_matches_brute_force(name):
    for g in CANONICAL_SETS[name]():
        assert g.canonical_form() == brute_force_canonical_form(g), g


def test_canonical_form_idempotent():
    for g in enumerate_graphs(2, 2, 2):
        gc, _, _ = g.canonical_form()
        gc2, par2, _ = gc.canonical_form()
        assert gc2 == gc
        assert par2 == 1


def test_label_swap_is_odd():
    """Swapping the two edge labels at a star is an odd relabeling."""
    fan = fan_graph(2)
    swapped = AdmissibleGraph(1, 2, [Edge(1, 3, 1), Edge(1, 2, 2)])
    cf, pf, _ = fan.canonical_form()
    cs, ps, _ = swapped.canonical_form()
    assert cf == cs
    assert pf == -ps


def test_two_cycle_labelings_of_graph2():
    """graph2 with the other label order at vertex 1 sits in the same
    class with opposite parity."""
    flipped = AdmissibleGraph(2, 2, [Edge(1, 2, 1), Edge(1, 3, 2),
                                     Edge(2, 1, 1), Edge(2, 4, 2)])
    c1, p1, _ = graph2().canonical_form()
    c2, p2, _ = flipped.canonical_form()
    assert c1 == c2
    assert p1 == -p2


def test_enumeration_past_the_bound_is_refused_before_any_graph(
        monkeypatch):
    """The closed-form count decides, and no graph is built: (5,2) has
    perm(6, 2)**5 graphs, (5,1) with parallel edges 5**10.  With the bound
    patched down to 36, the 36 (2,2) graphs pass and the 81 with parallel
    edges do not."""
    built = enumerate_graphs(2, 2, 2)

    def build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(AdmissibleGraph, "_trusted", build)
    with pytest.raises(ValueError, match="^too many graphs 24300000: an "
                                         "enumeration holds at most 2000000$"):
        enumerate_graphs(5, 2, 2)
    with pytest.raises(ValueError, match="^too many graphs 9765625:"):
        enumerate_graphs(5, 1, 2, allow_parallel=True)
    monkeypatch.undo()
    monkeypatch.setattr(graphs_module, "MAX_GRAPHS", 36)
    assert enumerate_graphs(2, 2, 2) == built
    with pytest.raises(ValueError, match="^too many graphs 81:"):
        enumerate_graphs(2, 2, 2, allow_parallel=True)


def test_interned_class_graphs_render_as_fresh_graphs():
    """Every (3,2) member gets its class's one interned graph, and that
    graph's cached text equals the text of a fresh copy."""
    graphs = enumerate_graphs(3, 2, 2)
    classes = canonical_classes(graphs)
    for g in graphs:
        gc, _, _ = g.canonical_form()
        assert gc is classes[gc.to_text()][0]
    for key, (gc, _, _) in classes.items():
        fresh = AdmissibleGraph(gc.n, gc.m, gc.edges)
        assert fresh._text is None
        assert gc.to_text() == fresh.to_text() == key
        assert gc.to_text() is gc.to_text()


def test_members_of_one_class_share_the_graph_but_not_the_parity():
    """Members of opposite parity get the same object, and each keeps its
    own parity whichever member was canonicalised last."""
    by_class = {}
    for g in enumerate_graphs(3, 2, 2):
        gc, par, _ = g.canonical_form()
        by_class.setdefault(id(gc), {}).setdefault(par, g)
    mixed = [members for members in by_class.values() if len(members) == 2]
    assert mixed
    for members in mixed:
        plus, minus = members[1], members[-1]
        c1, p1, k1 = plus.canonical_form()
        c2, p2, k2 = minus.canonical_form()
        assert c1 is c2 and (p1, p2) == (1, -1) and k1 == k2
        assert plus.canonical_form() == (c1, 1, k1)
        assert brute_force_canonical_form(minus) == (c2, -1, k2)


def test_wheel_of_seven_vertices_adds_one_interned_class(monkeypatch):
    """wheel_graph(6) has n = 7.  Its canonical form equals the text
    search over all 5,040 renamings, and the intern gains exactly one
    entry, also for a renamed copy: nothing per renaming is kept.  (The
    brute-force reference would also try the hub's 720 label orders per
    renaming.)"""
    monkeypatch.setattr(graphs_module, "_CLASSES", {})
    g = wheel_graph(6)
    assert g.n == 7
    gc, par, consistent = g.canonical_form()
    assert (gc, par, consistent) == text_minimising_canonical_form(g)
    assert list(graphs_module._CLASSES.values()) == [gc]
    renamed = AdmissibleGraph(7, 0, [Edge(8 - e.src, 8 - e.dst, e.label)
                                     for e in g.edges])
    assert renamed.canonical_form()[0] is gc
    assert len(graphs_module._CLASSES) == 1


def test_aerial_two_cycle_has_odd_automorphism():
    g = cycle_graph(2)
    _, _, consistent = g.canonical_form()
    assert not consistent
    reason = exact_zero_reason(g)
    assert reason is not None and "automorphism" in reason


def test_wheel_graph_shape():
    g = wheel_graph(3)
    assert (g.n, g.m) == (4, 0)
    assert g.out_degree(4) == 3
    assert all(g.in_degree(k) == 2 for k in (1, 2, 3))


# ---------------------------------------------------------------------
# the integer key against the text-minimising search
# ---------------------------------------------------------------------

def text_minimising_canonical_form(g):
    """Reference: for each of the n! aerial renamings, build the graph
    whose stars are numbered in order of their rendered destination names,
    render it, and keep the smallest text with the parities of all
    minimizers (the search ``canonical_form`` made before it compared
    integer keys).  With a name of two digits, stars are numbered in
    destination order and the smallest ``signature`` is kept instead."""
    n = g.n
    name = g._dst_name if one_digit_names(g) else (lambda d: d)
    base = g.edges
    stars = [[i for i, e in enumerate(base) if e.src == v]
             for v in range(1, n + 1)]
    best = None
    best_sig = None
    parities = set()
    for p in itertools.permutations(range(1, n + 1)):
        def dst(i):
            d = base[i].dst
            return p[d - 1] if d <= n else d

        new_edges = []
        order = []
        for v in sorted(range(1, n + 1), key=lambda v: p[v - 1]):
            star = sorted(stars[v - 1], key=lambda i: name(dst(i)))
            new_edges += [Edge(p[v - 1], dst(i), label)
                          for label, i in enumerate(star, 1)]
            order += star
        g2 = AdmissibleGraph(n, g.m, new_edges)
        sig = signature(g2)
        if best_sig is not None and sig > best_sig:
            continue
        par = perm_sign(tuple(order))
        if best_sig is None or sig < best_sig:
            best, best_sig, parities = g2, sig, {par}
        else:
            parities.add(par)
    if len({(e.src, e.dst) for e in base}) < len(base):
        parities = {1, -1}
    return best, (1 if 1 in parities else -1), len(parities) == 1


def assert_same_canonical_form(graphs):
    for g in graphs:
        gc, par, consistent = g.canonical_form()
        ref, ref_par, ref_consistent = text_minimising_canonical_form(g)
        assert (gc, gc.to_text(), par, consistent) \
            == (ref, ref.to_text(), ref_par, ref_consistent), g


def _enumeration_size(n, m, od, parallel):
    per_vertex = (n + m - 1) ** od if parallel else math.perm(n + m - 1, od)
    return per_vertex ** n


# every nonempty (n, m, out-degree, parallel) enumeration of at most 20,000
# labeled graphs with n 1..3, m 0..4, out-degree 1..3 and 2n + 2 - m >= 0
ENUMERATIONS = [(n, m, od, parallel)
                for n in (1, 2, 3) for m in range(5) if 2 * n + 2 - m >= 0
                for od in (1, 2, 3) for parallel in (False, True)
                if 0 < _enumeration_size(n, m, od, parallel) <= 20_000]


@pytest.mark.parametrize("n,m,od,parallel", ENUMERATIONS,
                         ids=lambda v: str(v))
def test_canonical_form_matches_text_search_on_enumerations(n, m, od,
                                                            parallel):
    graphs = enumerate_graphs(n, m, od, allow_parallel=parallel)
    assert len(graphs) == _enumeration_size(n, m, od, parallel)
    for g in graphs:
        assert g == AdmissibleGraph(n, m, g.edges)
    assert_same_canonical_form(graphs)


def _seeded_graphs(count, seed, n, m_range, out_degrees, big_star=0):
    """``count`` graphs with n aerial vertices, m drawn from ``m_range``,
    each vertex's out-degree drawn from ``out_degrees`` (targets drawn with
    repetition) and, if ``big_star``, one random vertex given that many
    edges instead."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.choice(m_range)
        big = rng.randint(1, n) if big_star else 0
        edges = []
        for v in range(1, n + 1):
            targets = [t for t in range(1, n + m + 1) if t != v]
            k = big_star if v == big else rng.choice(out_degrees)
            labels = rng.sample(range(1, k + 1), k)
            edges += [Edge(v, rng.choice(targets), lab) for lab in labels]
        out.append(AdmissibleGraph(n, m, edges))
    return out


def _seeded_4_2_graphs(count, seed):
    """(4,2) graphs of out-degree 2 without parallel edges."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        edges = []
        for v in range(1, 5):
            a, b = rng.sample([t for t in range(1, 7) if t != v], 2)
            edges += [Edge(v, a, 1), Edge(v, b, 2)]
        out.append(AdmissibleGraph(4, 2, edges))
    return out


RANK_KEY_SETS = {
    "(4,2) seeded": lambda: _seeded_4_2_graphs(5000, seed=13),
    "mixed out-degrees": lambda: _random_graphs(3000, seed=17),
    "wheels and cycles": lambda: [g for k in range(2, 6)
                                  for g in (wheel_graph(k), cycle_graph(k))],
    # a 10-edge star has a label 10; at m = 10, b10 sorts before b2 as text
    "multi-digit names and labels": lambda: _seeded_graphs(
        300, seed=19, n=4, m_range=range(7, 11), out_degrees=range(5),
        big_star=10),
}


@pytest.mark.parametrize("name", RANK_KEY_SETS)
def test_canonical_form_matches_text_search(name):
    assert_same_canonical_form(RANK_KEY_SETS[name]())
