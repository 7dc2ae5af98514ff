"""Directed labeled graphs for the quantization series.

A graph has n "aerial" vertices 1..n (each carrying a polyvector) and m
ordered "ground" vertices (the function slots), stored internally as
n+1..n+m and rendered as b1..bm.  Every edge starts at an aerial vertex,
short loops are forbidden, and the edges leaving vertex k are labeled
1..#Star(k).  Text form:  K(n,m)[1>2#1, 1>b1#2, 2>1#1, 2>b2#2]
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from .exactnum import perm_sign


@dataclass(frozen=True, order=True)
class Edge:
    src: int
    dst: int
    label: int


class AdmissibleGraph:
    """Upper-half-plane graph with ordered boundary slots.

    Raises ValueError if the structural conditions fail:
    sources aerial, no short loops, per-vertex labels consecutive from 1,
    and 2n + 2 - m >= 0.
    """

    def __init__(self, n: int, m: int, edges):
        self.n = n
        self.m = m
        self.edges = tuple(sorted((e if isinstance(e, Edge) else Edge(*e)
                                   for e in edges),
                                  key=lambda e: (e.src, e.label)))
        self._validate()

    @classmethod
    def _trusted(cls, n: int, m: int, edges: tuple) -> "AdmissibleGraph":
        """A graph that takes ``edges`` as they are: only for a tuple of
        valid ``Edge`` sorted by (src, label)."""
        g = object.__new__(cls)
        g.n, g.m, g.edges = n, m, edges
        return g

    def _validate(self):
        n, m = self.n, self.m
        if n < 0 or m < 0:
            raise ValueError("negative vertex counts")
        if 2 * n + 2 - m < 0:
            raise ValueError(f"2n+2-m = {2*n+2-m} < 0")
        per_src = {}
        for e in self.edges:
            if not (1 <= e.src <= n):
                raise ValueError(f"edge source {e.src} is not aerial")
            if not (1 <= e.dst <= n + m):
                raise ValueError(f"edge target {e.dst} out of range")
            if e.dst == e.src:
                raise ValueError(f"short loop at vertex {e.src}")
            per_src.setdefault(e.src, []).append(e.label)
        for v, labels in per_src.items():
            if sorted(labels) != list(range(1, len(labels) + 1)):
                raise ValueError(f"labels at vertex {v} not 1..{len(labels)}")

    # -- queries ------------------------------------------------------

    def out_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if e.src == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for e in self.edges if e.dst == v)

    def valence(self, v: int) -> int:
        return self.out_degree(v) + self.in_degree(v)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def dim_config(self) -> int:
        """Dimension of the quotient configuration space, 2n + m - 2."""
        return 2 * self.n + self.m - 2

    def unhit_ground(self):
        return [j for j in range(self.n + 1, self.n + self.m + 1)
                if self.in_degree(j) == 0]

    def __eq__(self, other):
        return (isinstance(other, AdmissibleGraph)
                and (self.n, self.m, self.edges) ==
                    (other.n, other.m, other.edges))

    def __hash__(self):
        return hash((self.n, self.m, self.edges))

    # -- serialization ------------------------------------------------

    def _dst_name(self, d: int) -> str:
        return f"b{d - self.n}" if d > self.n else str(d)

    _text = None

    def to_text(self) -> str:
        """The K(n,m) text, rendered on the first call and then kept."""
        if self._text is None:
            inner = ", ".join(f"{e.src}>{self._dst_name(e.dst)}#{e.label}"
                              for e in self.edges)
            self._text = f"K({self.n},{self.m})[{inner}]"
        return self._text

    @classmethod
    def from_text(cls, s: str) -> "AdmissibleGraph":
        mat = re.fullmatch(r"\s*K\((\d+),(\d+)\)\[(.*)\]\s*", s)
        if not mat:
            raise ValueError(f"cannot parse graph text {s!r}")
        n, m = int(mat.group(1)), int(mat.group(2))
        return cls(n, m, _parse_edges(mat.group(3), n))

    def __repr__(self):
        return self.to_text()

    # -- canonical form -----------------------------------------------

    def canonical_form(self):
        """Canonical member of the class under aerial renaming and per-star
        edge relabeling.

        Both symmetries leave the weight integrand invariant up to the sign
        of the permutation they induce on the ordered edge list (the wedge
        of edge one-forms reorders).  Returns (graph, parity,
        parity_consistent): parity is that sign for the minimizing
        symmetry; if two minimizing symmetries induce opposite signs (an
        odd automorphism) parity_consistent is False and the weight
        vanishes identically.

        Only the n! aerial renamings are searched, streamed one at a time.
        Each renaming numbers every star's edges in the order of their
        destination numbers (parallel edges keep their order) and is keyed
        by its edge list as (source, destination) vertex numbers, aerial
        1..n before ground n+1..n+m; the smallest key wins.  With n <= 9
        and m <= 9 every vertex name is one digit, after a ``b`` for ground
        vertices, so the keys order as the K(n,m) texts and the result is
        the minimal text of its class.  A second minimizer arises from a
        repeated destination in a star (swapping those two labels is odd)
        or from two renamings with the same key.

        The minimal key fixes the canonical graph, since labels follow the
        key's order within each star.  So the graph is built once per
        class and interned in ``_CLASSES`` under (n, m, key); every member
        of the class gets that one object, with its own parity and
        consistency, and the object renders its text once (``to_text``
        caches it).  Sharing is safe because a graph is never changed
        after construction.  The intern holds one graph per class seen,
        not per renaming.
        """
        n, m = self.n, self.m
        width = n + m + 1
        ends = [(e.src, e.dst) for e in self.edges]
        ground = tuple(range(n + 1, n + m + 1))
        best, parities = None, set()
        for p in itertools.permutations(range(1, n + 1)):
            new = (0,) + p + ground
            codes = [new[s] * width + new[d] for s, d in ends]
            key = sorted(codes)
            if best is not None and key > best:
                continue
            if best is None or key < best:
                best, parities = key, set()
            # a stable sort: parallel edges keep their order
            parities.add(perm_sign(tuple(sorted(range(len(codes)),
                                                key=codes.__getitem__))))
        key = tuple(best)
        if len(set(key)) < len(key):
            parities = {1, -1}
        gc = _CLASSES.get((n, m, key))
        if gc is None:
            edges = []
            for code in key:
                s, d = divmod(code, width)
                label = label + 1 if edges and edges[-1].src == s else 1
                edges.append(Edge(s, d, label))
            gc = _CLASSES[n, m, key] = AdmissibleGraph._trusted(
                n, m, tuple(edges))
        return gc, 1 if 1 in parities else -1, len(parities) == 1


# canonical graph of each class seen, by (n, m, minimal key)
_CLASSES = {}


def _parse_edges(body: str, n: int):
    edges = []
    body = body.strip()
    if not body:
        return edges
    for part in body.split(","):
        mat = re.fullmatch(r"\s*(\d+)>(b?)(\d+)#(\d+)\s*", part)
        if not mat:
            raise ValueError(f"cannot parse edge {part!r}")
        src, ground, dst, label = mat.groups()
        edges.append(Edge(int(src), int(dst) + (n if ground else 0),
                          int(label)))
    return edges


# -- enumeration ------------------------------------------------------

# a labeled graph takes about 200 bytes (its stars' edges are shared):
# (4,3) = 810,000 graphs fit, (5,2) = 24,300,000 would take about 5 GB
MAX_GRAPHS = 2_000_000


def enumerate_graphs(n: int, m: int, out_degree: int,
                     allow_parallel: bool = False):
    """All labeled graphs with the given uniform aerial out-degree.

    The edge leaving vertex k with label j points at the j-th entry of the
    chosen target tuple.  With n = 0 the list is empty; a negative count
    raises ValueError, and so does a list longer than ``MAX_GRAPHS``,
    before any graph is built: its length is perm(n+m-1, d)**n, or
    (n+m-1)**(d*n) with parallel edges.
    """
    for name, val in (("n", n), ("m", m), ("out-degree", out_degree)):
        if val < 0:
            raise ValueError(f"invalid {name} {val}: must be >= 0")
    if n == 0:
        return []
    count = ((n + m - 1) ** (out_degree * n) if allow_parallel
             else math.perm(n + m - 1, out_degree) ** n)
    if count > MAX_GRAPHS:
        raise ValueError(f"too many graphs {count}: an enumeration holds "
                         f"at most {MAX_GRAPHS}")
    out = []
    per_vertex = []
    for v in range(1, n + 1):
        targets = [t for t in range(1, n + m + 1) if t != v]
        choices = (itertools.product(targets, repeat=out_degree)
                   if allow_parallel
                   else itertools.permutations(targets, out_degree))
        per_vertex.append([tuple(Edge(v, dst, j)
                                 for j, dst in enumerate(tup, 1))
                           for tup in choices])
    # valid and sorted edges, each star's built once; the first graph is
    # checked for 2n + 2 - m >= 0
    for combo in itertools.product(*per_vertex):
        out.append(AdmissibleGraph._trusted(
            n, m, tuple(itertools.chain.from_iterable(combo))))
    if out:
        AdmissibleGraph(n, m, out[0].edges)
    return out


def canonical_classes(graphs) -> dict:
    """{canonical text: (canonical graph, members in ``graphs``,
    parity_consistent)}, in order of first appearance."""
    classes = {}
    for g in graphs:
        gc, _, consistent = g.canonical_form()
        key = gc.to_text()
        _, size, _ = classes.get(key, (gc, 0, consistent))
        classes[key] = (gc, size + 1, consistent)
    return classes


# -- named graphs -----------------------------------------------------

def fan_graph(m: int) -> AdmissibleGraph:
    """One aerial vertex pointing at all m ground slots in order."""
    return AdmissibleGraph(1, m, [Edge(1, 1 + j, j) for j in range(1, m + 1)])


def cycle_graph(n: int) -> AdmissibleGraph:
    """Aerial n-cycle 1 -> 2 -> ... -> n -> 1 with no ground vertices."""
    return AdmissibleGraph(n, 0, [Edge(k, k % n + 1, 1)
                                  for k in range(1, n + 1)])


def wheel_graph(n: int) -> AdmissibleGraph:
    """n-wheel: rim cycle 1..n plus hub n+1 with spokes to every rim vertex."""
    edges = [Edge(k, k % n + 1, 1) for k in range(1, n + 1)]
    edges += [Edge(n + 1, k, k) for k in range(1, n + 1)]
    return AdmissibleGraph(n + 1, 0, edges)


def graph1_left() -> AdmissibleGraph:
    """(2,2): both aerial vertices point at both ground slots."""
    return AdmissibleGraph(2, 2, [Edge(1, 3, 1), Edge(1, 4, 2),
                                  Edge(2, 3, 1), Edge(2, 4, 2)])


def graph1_right() -> AdmissibleGraph:
    """(2,2): vertex 2 points at vertex 1 and the second ground slot."""
    return AdmissibleGraph(2, 2, [Edge(1, 3, 1), Edge(1, 4, 2),
                                  Edge(2, 1, 1), Edge(2, 4, 2)])


def graph2() -> AdmissibleGraph:
    """(2,2): the mutual two-cycle, each aerial vertex also hits one slot.

    Labels put each vertex's ground edge within the star so that the wedge
    order is (1->b1, 1->2, 2->1, 2->b2); in the package orientation this
    labeling carries the positive weight +1/24 at the midpoint parameter.
    """
    return AdmissibleGraph(2, 2, [Edge(1, 2, 2), Edge(1, 3, 1),
                                  Edge(2, 1, 1), Edge(2, 4, 2)])
