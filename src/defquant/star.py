"""Graph operators on polynomial data and the interpolation star product.

A labeled graph with uniform aerial out-degree 2 acts on a bivector by
routing one summation index along every edge: each aerial vertex
contributes the component of its polyvector field picked out by the
indices of its outgoing edges (in label order), differentiated once per
incoming edge; each ground vertex becomes an argument slot carrying the
derivatives of its incoming edges.  Only signed orderings of each vertex's
nonzero components contribute; summing them gives a polydifferential
operator, and the star product to second order is the weighted sum

    f * g = fg + (i hbar) U_1(f, g) + ((i hbar)^2 / 2!) U_2(f, g) + ...

with U_l the sum over out-degree-2 graphs of type (l, 2), each graph
weighted by its configuration-space integral times 1/|Star(k)|! per
aerial vertex.  Relabeling a graph changes its weight and its operator
by the same sign, so U_l is assembled on canonical graph classes: one
operator and one weight per class, times the class size; each field
builds its class operators once (``PolyVectorField.class_operators``).
Weight values come from a weight source (the exact table, which holds
the order-2 weights associativity fixes, then a cache, then Monte Carlo).
The only (2,2) class ever sampled is graph2's (away from lam = 1/2), and
it sends one derivative to each ground slot: its operator V is a
biderivation, so V(f,g)h - fV(g,h) + V(fg,h) - V(f,gh) = 0 for every
bivector.  That coboundary is how a weight error moves the order-2
associativity residual, so the sigma propagated there is identically 0
and the residual must vanish exactly.

Classes whose operator vanishes identically on the given bivector (for
instance every derivative-carrying class when the bivector is constant)
are skipped before their weight is ever requested, so constant-
coefficient assemblies stay exact and sampling-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product as iproduct
from math import factorial

from .exactnum import QC, perm_sign
from .exactpoly import Poly, accumulate, poly_matrix, poly_sum
from .graphs import AdmissibleGraph, canonical_classes, enumerate_graphs

_I = QC(0, 1)


class PolyVectorField:
    """Totally antisymmetric (degree+1)-vector field with Poly components.

    Components are stored on strictly increasing tuples of indices below
    dim (ValueError otherwise); lookups with permuted indices pick up the
    permutation sign, repeated indices give zero.  A field is not changed
    after construction, so what is derived from it may be kept on it.
    """

    def __init__(self, dim: int, degree: int, comps=None):
        self.dim = dim
        self.degree = degree
        self.comps = {}
        if comps:
            for idx, poly in comps.items():
                idx = tuple(idx)
                if (len(idx) != degree + 1 or list(idx) != sorted(set(idx))
                        or not all(0 <= i < dim for i in idx)):
                    raise ValueError(f"component key {idx} is not a strictly "
                                     f"increasing {degree + 1}-tuple of "
                                     f"indices below {dim}")
                if not isinstance(poly, Poly):
                    poly = Poly.const(dim, poly)
                if not poly.is_zero():
                    self.comps[idx] = poly

    @staticmethod
    def bivector(dim: int, upper: list) -> "PolyVectorField":
        """Degree-1 field from a matrix of upper components Pi^{ij}
        (antisymmetry of the matrix is checked)."""
        mat = poly_matrix(dim, upper, -1, "bivector matrix")
        return PolyVectorField(dim, 1, {(i, j): mat[i][j] for i in range(dim)
                                        for j in range(i + 1, dim)})

    def component(self, idx) -> Poly:
        """Pi^{idx} with full antisymmetry (any index order)."""
        idx = tuple(idx)
        if len(set(idx)) != len(idx):
            return Poly.zero(self.dim)
        key = tuple(sorted(idx))
        poly = self.comps.get(key)
        if poly is None:
            return Poly.zero(self.dim)
        return poly if perm_sign(idx) > 0 else -poly

    @cached_property
    def class_operators(self) -> dict:
        """Per level l of _STAR_CLASSES, (gc, V) for each class whose
        V = (i^l / (l! 2^l)) size U(gc) on this bivector is nonzero."""
        out = {}
        for level, classes in _STAR_CLASSES.items():
            pref = (_I ** level) * Fraction(1, factorial(level) * 2 ** level)
            ops = [(gc, graph_operator(gc, [self] * level).scale(pref * size))
                   for gc, size in classes]
            out[level] = [(gc, v) for gc, v in ops if not v.is_zero()]
        return out


class PolyDiffOperator:
    """Polydifferential operator: sum of terms
    coeff(x) * prod_slots d^{alpha_slot}, keyed by per-slot exponents."""

    def __init__(self, dim: int, arity: int, terms=None):
        self.dim = dim
        self.arity = arity
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                if not poly.is_zero():
                    self.terms[key] = poly

    @staticmethod
    def zero(dim: int, arity: int) -> "PolyDiffOperator":
        return PolyDiffOperator(dim, arity)

    @staticmethod
    def multiplication(dim: int) -> "PolyDiffOperator":
        key = ((0,) * dim, (0,) * dim)
        return PolyDiffOperator(dim, 2, {key: Poly.one(dim)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        return (self.dim == other.dim and self.arity == other.arity
                and self.terms == other.terms)

    def __add__(self, other):
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError(f"cannot add an operator of (dim, arity) "
                             f"{other.dim, other.arity} to one of "
                             f"{self.dim, self.arity}")
        out = dict(self.terms)
        for key, poly in other.terms.items():
            accumulate(out, key, poly)
        return PolyDiffOperator(self.dim, self.arity, out)

    def scale(self, c) -> "PolyDiffOperator":
        c = QC.coerce(c)
        if c.is_zero():
            return PolyDiffOperator.zero(self.dim, self.arity)
        return PolyDiffOperator(self.dim, self.arity,
                                {k: p * c for k, p in self.terms.items()})

    def apply(self, *fs: Poly) -> Poly:
        """sum over terms of coeff * prod_slots d^alpha f_slot, in term
        order.  Each derivative of an input is taken once per call, from
        a table: d^alpha f is one diff of its entry below alpha in the
        last index alpha moves, the chain that differentiates index 0
        first, then index 1, ....  A term with a zero derivative is
        skipped; the products are summed by poly_sum, which equals the
        sequential sum term for term, trunc included."""
        if len(fs) != self.arity:
            raise ValueError(f"arity {self.arity} operator on {len(fs)} slots")
        tables = [{(0,) * self.dim: f} for f in fs]
        prods = []
        for key, coeff in self.terms.items():
            prod = coeff
            for alpha, table in zip(key, tables):
                df = _derivative(table, alpha)
                if df.is_zero():
                    break
                prod = prod * df
            else:
                prods.append(prod)
        return poly_sum(self.dim, prods)

    def to_jsonable(self):
        items = []
        for key, poly in sorted(self.terms.items()):
            items.append({
                "slots": [list(alpha) for alpha in key],
                "coeff": poly.to_jsonable(),
            })
        return {"dim": self.dim, "arity": self.arity, "terms": items}


def _derivative(table: dict, alpha: tuple) -> Poly:
    """d^alpha of table's entry at alpha = 0, through ``table``: built
    from the entry one lower in alpha's last nonzero index."""
    df = table.get(alpha)
    if df is None:
        i = max(j for j, k in enumerate(alpha) if k)
        lower = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        df = table[alpha] = _derivative(table, lower).diff(i)
    return df


# -- graph -> operator ------------------------------------------------

def graph_operator(g: AdmissibleGraph, gammas) -> PolyDiffOperator:
    """Operator of a labeled graph acting on one polyvector field per
    aerial vertex; arity = number of ground slots.  Each vertex picks an
    ordering idx of a stored component key, with sign perm_sign(idx)."""
    if len(gammas) != g.n:
        raise ValueError(f"need {g.n} polyvector fields, got {len(gammas)}")
    if g.n == 0:
        raise ValueError(f"graph {g} has no aerial vertex to give a dim")
    dim = gammas[0].dim
    for v in range(1, g.n + 1):
        want = g.out_degree(v)
        if gammas[v - 1].degree + 1 != want:
            raise ValueError(
                f"vertex {v} has out-degree {want} but its field takes "
                f"{gammas[v - 1].degree + 1} indices")
    ins = [[k for k, e in enumerate(g.edges) if e.dst == v]
           for v in range(1, g.n + g.m + 1)]
    # g.edges is sorted by (source, label), so the picked orderings
    # concatenate to the index of every edge in edge order
    choices = [[(idx, poly if perm_sign(idx) > 0 else -poly)
                for key, poly in gamma.comps.items()
                for idx in permutations(key)] for gamma in gammas]
    terms = {}
    for pick in iproduct(*choices):
        index = [i for idx, _ in pick for i in idx]
        # the first vertex's factor starts the product: Poly.one(dim) times
        # it is the same Poly, built term by term
        coeff = None
        for (_, comp), v_in in zip(pick, ins):
            for k in v_in:
                comp = comp.diff(index[k])
            coeff = comp if coeff is None else coeff * comp
            if coeff.is_zero():
                break
        else:
            slots = []
            for v_in in ins[g.n:]:
                alpha = [0] * dim
                for k in v_in:
                    alpha[index[k]] += 1
                slots.append(tuple(alpha))
            accumulate(terms, tuple(slots), coeff)
    return PolyDiffOperator(dim, g.m, terms)


def hkr_operator(gamma: PolyVectorField) -> PolyDiffOperator:
    """(1/p!) sum_sigma sgn(sigma) gamma^{i_1...i_p} d_{i_sigma} per slot."""
    p = gamma.degree + 1
    dim = gamma.dim
    terms = {}
    pref = Fraction(1, factorial(p))
    for idx, poly in gamma.comps.items():
        for sigma in permutations(range(p)):
            slots = []
            for s in range(p):
                alpha = [0] * dim
                alpha[idx[sigma[s]]] += 1
                slots.append(tuple(alpha))
            accumulate(terms, tuple(slots),
                       poly * (pref * perm_sign(sigma)))
    return PolyDiffOperator(dim, p, terms)


# -- star product assembly -------------------------------------------

@dataclass
class StarProductSeries:
    """Bidifferential operators of f * g = sum_n hbar^n B_n(f, g),
    truncated at ``order``; B_0 is the multiplication.

    ``uncertainties[n]`` lists (sigma, V) pairs: the assembled B_n moves
    by delta * V when the pooled Monte Carlo weight of one canonical
    graph class moves by delta, and sigma is that weight's standard
    error.  Classes known without sampling (``MCResult.exact``) contribute
    no entry; a sampled one does, even at stderr 0.  At order 2 the one
    sampled class, graph2, has a biderivation V with zero coboundary, so
    the sigma it propagates into the associativity residual is 0.
    """

    dim: int
    order: int
    ops: dict = field(default_factory=dict)
    uncertainties: dict = field(default_factory=dict)

    def star(self, f: Poly, g: Poly) -> dict:
        out = {}
        for n, op in self.ops.items():
            val = op.apply(f, g)
            if not val.is_zero() or n == 0:
                out[n] = val
        return out

    def apply_order(self, n: int, f: Poly, g: Poly) -> Poly:
        op = self.ops.get(n)
        if op is None:
            return Poly.zero(self.dim)
        return op.apply(f, g)


# the parity-consistent classes of labeled out-degree-2 graphs of type
# (level, 2) for levels 1 and 2, sorted by canonical text, with their sizes;
# they never change, so they are built once, at import
_STAR_CLASSES = {
    level: [(gc, size) for _, (gc, size, consistent) in sorted(
        canonical_classes(enumerate_graphs(level, 2, 2)).items())
        if consistent]
    for level in (1, 2)}


def star_order2(pi: PolyVectorField, lam, source) -> StarProductSeries:
    """Assemble B_0, B_1, B_2 for the bivector ``pi`` at interpolation
    parameter ``lam`` from the given weight source.

    Per order l the operator is (i^l / l!) sum_g w^formality(g) U(g) over
    the labeled out-degree-2 graphs g of type (l, 2), where
    w^formality = w / 2^l.  The sum is taken over canonical classes: with
    the same bivector at every vertex, U(g) = par(g) U(gc) for the class
    representative gc and the relabeling parity par(g), because renaming
    aerial vertices moves edges in pairs (even) and swapping the two
    labels at a star transposes Pi's indices (odd); likewise
    w(g) = par(g) w(gc).  Every member therefore contributes w(gc) U(gc),
    and a class of size s contributes s w(gc) U(gc): one operator per
    class, from ``pi.class_operators``.  Classes with an odd automorphism
    (zero weight) or a zero operator on ``pi`` are skipped without a
    weight lookup, so a constant bivector never triggers sampling.
    """
    if pi.degree != 1:
        raise ValueError("star_order2 needs a bivector (degree 1)")
    dim = pi.dim
    series = StarProductSeries(dim, 2)
    series.ops[0] = PolyDiffOperator.multiplication(dim)
    for level, classes in pi.class_operators.items():
        series.uncertainties[level] = []
        total = PolyDiffOperator.zero(dim, 2)
        for gc, scaled in classes:
            res = source.weight(gc, lam=lam)
            total = total + scaled.scale(QC.coerce(res.value))
            if not res.exact:
                series.uncertainties[level].append((res.stderr, scaled))
        series.ops[level] = total
    return series


def associativity_residual(series: StarProductSeries, f: Poly, g: Poly,
                           h: Poly, order: int) -> dict:
    """Per hbar-order coefficients of (f*g)*h - f*(g*h)."""
    if order > series.order:
        raise ValueError(f"order {order} > series order {series.order}")
    out = {}
    for l in range(order + 1):
        acc = Poly.zero(series.dim)
        for a in range(l + 1):
            b = l - a
            acc = acc + series.apply_order(a, series.apply_order(b, f, g), h)
            acc = acc - series.apply_order(a, f, series.apply_order(b, g, h))
        if not acc.is_zero():
            out[l] = acc
    return out


def associativity_sigma(series: StarProductSeries, f: Poly, g: Poly,
                        h: Poly, order: int) -> dict:
    """Per hbar-order, per-monomial 1-sigma bound on the residual from the
    weight-source standard errors (linear propagation, classes pooled)."""
    out = {}
    for l in range(order + 1):
        acc = {}
        for b, entries in series.uncertainties.items():
            if b > l:
                continue
            a = l - b  # the complementary exact order in each cross term
            for sigma, v_op in entries:
                move = series.apply_order(a, v_op.apply(f, g), h)
                move = move - series.apply_order(a, f, v_op.apply(g, h))
                move = move + v_op.apply(series.apply_order(a, f, g), h)
                move = move - v_op.apply(f, series.apply_order(a, g, h))
                for e, c in move.terms.items():
                    mag = abs(c.to_complex()) * sigma
                    acc[e] = (acc.get(e, 0.0) ** 2 + mag ** 2) ** 0.5
        out[l] = acc
    return out


def random_triple(rng, dim: int, deg_max: int):
    """Three random monomials for an associativity gate, each with
    exponents below deg_max and total degree 1..deg_max."""
    if deg_max < 2:
        raise ValueError(f"deg_max {deg_max} < 2 leaves no monomial with "
                         "exponents below it and positive degree")
    out = []
    while len(out) < 3:
        e = tuple(rng.randrange(deg_max) for _ in range(dim))
        if 0 < sum(e) <= deg_max:
            out.append(Poly(dim, {e: QC(1)}))
    return out


def so3_bivector() -> PolyVectorField:
    """Linear Poisson structure of so(3): Pi^{ij} = eps^{ijk} x_k."""
    d = 3
    x = [Poly.var(d, i) for i in range(d)]
    return PolyVectorField.bivector(
        d, [[Poly.zero(d), x[2], -x[1]],
            [-x[2], Poly.zero(d), x[0]],
            [x[1], -x[0], Poly.zero(d)]])
