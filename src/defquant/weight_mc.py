"""Configuration-space Monte Carlo for graph weights.

The weight of a graph is the integral over the quotient configuration
space (aerial vertices in the upper half-plane, ordered ground vertices on
the real line, modulo z -> p z + q with p > 0) of the wedge of normalized
propagator differentials, one per edge, taken in (source vertex, star
label) lexicographic order.

Gauge: aerial vertex 1 is pinned at i, which uses up the whole group.  The
remaining coordinates are ordered (x_2, y_2, ..., x_n, y_n, r_1, ..., r_m)
and the wedge is expanded as det(M) times the coordinate volume form, M
being the matrix of one-form coefficients.  With this ordering the fan
weights come out +1/m! and the (2,2) two-cycle +1/24, which fixes the
orientation convention once and for all (no extra per-graph sign is
applied).

Every weight here is this raw integral (fan = 1/m!, two-cycle = 1/24).
Prefactors such as the formality series' prod_k 1/|Star(k)|! and 1/n!
are applied by the consumers (star-product assembly, the CLI).

Sampling: aerial points are drawn uniformly on the unit disk (square root
trick) and pushed to H by the Mobius map z = i(1+w)/(1-w) with analytic
density; ground points are standard-Cauchy draws (u -> tan(pi(u - 1/2))),
sorted, with the 1/m! ordering factor folded into the estimator.
Every estimator (weight_mc, two_valent_integral, weight_poly_fit) runs
one block loop (``_mc_mean``): one numpy default generator seeded with
``seed`` is read CHUNK rows of uniforms at a time, and a per-estimator map
turns each block into sample values, so memory is O(CHUNK) whatever
n_samples is and the samples equal those of one big draw.  The calling
thread evaluates a block in contiguous parts of _PART = 8,192 rows
(``_split``), one after another, so that a part's per-sample arrays
(128 KiB per complex array) stay in a core's L2 cache; no (N, E, E)
matrix is ever built, and no estimator starts a thread.  Within a
part the sample map and the propagators write their intermediates into
a few arrays with numpy's out= (propagators._fresh), since each fresh
temporary of that size costs more to allocate and fault in than the
arithmetic on it; a public function still returns arrays of its own, and
no entry of ``integrand_matrix`` shares memory with another.  An edge
asks ``dphi_h`` only for the halves of its endpoints that have columns
(none for the pinned vertex), and ``_map_samples`` lays the positions
out column-major.  Each step names its operands in the order the
formula writes them (a complex product rounds differently with its
factors swapped), so the bits do not depend on which arrays are reused,
nor on the part size.  With ``workers`` >= 2, the blocks after the
first go to processes, which jump the generator ahead to their blocks
of the stream.
A sample's value depends on its row alone, in a one-row block too (the
propagators write no product by a lam coefficient over its own operand,
which numpy rounds differently at length 1), and every sum runs over the
whole block, so no estimate depends on the part size or the worker
count, bit for bit.  A weight sample reads the 2(n-1)+m coordinates
above; a two-valent sample reads three uniforms, (component, radius,
angle) of the mixture proposal.  The singularity guard drops a rejected
sample: it counts in n_samples and contributes 0.  It tests each aerial
point's height and each aerial pair and ground pair against
SINGULAR_GUARD.  An aerial and a ground point need no test of their own:
z - r keeps Im z exactly, and np.abs, a faithfully rounded hypot, never
returns less than the float |Im z| that bounds the exact modulus from
below, so the pair is apart on every row whose heights pass.  A block
returns one row of samples per estimated quantity, and the loop returns
each row's mean and per-sample variance, the squares summed about the
first sample; it needs two samples at least, since one has no spread to
give a stderr.  For a scalar estimate, a spread within 4 eps |mean| is
rounding of a constant integrand and gives stderr exactly 0.

The lam-polynomial: det M has degree at most E in lam (every entry is
affine in it), and ``weight_poly_fit`` reads each sample's coefficients
off one stream.  The relations conj a_n = (-1)^n sum_{l>=n} C(l,n) a_l
and Im W(1/2) = 0 hold for every sample, since phi_{1 - cj lam} =
cj phi_lam holds at every point: they re-check that identity through the
whole integrand path (sample map, guard, Laplace expansion), not a
property of the integral, so they are gated at roundoff.  The bound is
RELATION_BOUND = 1e-12 times the mean per-sample Hadamard bound
w Prod_k ||row k of M|| >= |w det M|, the size that rounding acts on;
the largest |a_n| is no such scale, since an integrand that cancels to
roundoff has coefficients as small as its residuals.

The integrand: an edge's one-form has nonzero coefficients only in the
columns of its free endpoints (two for an aerial vertex other than 1, one
for a ground vertex), so ``integrand_matrix`` returns just those entries
and ``integrand_value`` expands det(M) along the rows in edge order,
computing each needed minor (rows 0..k-1 on a set of k columns) once and
skipping structural zeros.  A minor whose rows cannot be matched one to
one to its columns vanishes at every sample, whatever the entries: each
term of its permutation expansion contains a structural zero.  When that
holds for the whole matrix the integrand is exactly 0 (three of the 30
(3,2) classes that pass ``exact_zero_reason``), and ``weight_mc`` returns
the all-zero estimate sampling gives, 0 with stderr 0 at the requested
n_samples, without drawing.  The number of terms grows
with E: 34, 102, 270 and 670 for wheel:3 to wheel:6 (E = 6 to 12).  Per
16,384-sample block the expansion beats batched LU through E = 10 and is
about 1.5 times slower at E = 12 (wheel:6); the order-2 star product and
the acceptance suite sample no graph with E > 6.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from . import propagators as prop
from .graphs import AdmissibleGraph, fan_graph, graph1_left, graph2

FIXED_POINT = 1j
SINGULAR_GUARD = 1e-12
CHUNK = 16_384
# rows per part of a block (_split), and the CPUs this process may use
_PART = 8_192
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1


@dataclass
class MCResult:
    """One weight (or two-valent integral) estimate."""
    value: complex
    stderr: float
    n_samples: int
    seed: int | None = None
    lam: complex = 0.5
    key: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def exact(self) -> bool:
        """Known without sampling: an exact zero or an exact-table hit."""
        return self.n_samples == 0


# ---------------------------------------------------------------------
# exact-zero screening
# ---------------------------------------------------------------------

def exact_zero_reason(g: AdmissibleGraph, *, canonical=None) -> str | None:
    """A reason string if the weight vanishes exactly, else None;
    ``canonical`` is g's ``canonical_form()`` triple if already known."""
    if g.n_edges != g.dim_config():
        return f"edge count {g.n_edges} != dimension {g.dim_config()}"
    if g.unhit_ground():
        return "ground vertex with no incoming edge"
    seen = set()
    for e in g.edges:
        if (e.src, e.dst) in seen:
            return "parallel edges give a repeated row"
        seen.add((e.src, e.dst))
    if g.n + g.m >= 3:
        for v in range(1, g.n + 1):
            if g.valence(v) == 1:
                return f"aerial vertex {v} has valence 1"
    _, _, consistent = canonical or g.canonical_form()
    if not consistent:
        return "odd automorphism"
    return None


# ---------------------------------------------------------------------
# sampling maps
# ---------------------------------------------------------------------

def _map_samples(u: np.ndarray, n: int, m: int):
    """(N, 2(n-1)+m) uniforms -> aerial positions, ground positions, weight.

    Returns (z, r, w) where z is (N, n) complex with z[:,0] = i, r is (N, m)
    sorted ascending, and w is the importance weight including the 1/m!
    ordering factor.  z and r are column-major, so that each vertex's
    column, which the propagators and the guard read, is contiguous.
    """
    n_free = n - 1
    big_n = u.shape[0]
    z = np.empty((big_n, n), complex, order="F")
    z[:, 0] = FIXED_POINT
    w_imp = np.ones(big_n)
    disk, one_minus, h = np.empty((3, big_n), complex)
    for k in range(n_free):
        np.multiply(np.sqrt(u[:, 2 * k]),
                    np.exp(np.multiply(2j * np.pi, u[:, 2 * k + 1])), out=disk)
        # prop.mobius_to_h, i (1 + w) / (1 - w), with 1 - w formed once
        # for the map and the density
        np.subtract(1, disk, out=one_minus)
        np.multiply(1j, np.add(1, disk, out=h), out=h)
        np.divide(h, one_minus, out=z[:, k + 1])
        w_imp *= 4 * np.pi / np.abs(one_minus) ** 4
    r = np.empty((big_n, m), order="F")
    for j in range(m):
        uj = u[:, 2 * n_free + j]
        np.tan(np.pi * (uj - 0.5), out=r[:, j])
        w_imp *= np.pi * (1 + r[:, j] ** 2)
    if m == 2:
        # np.sort's values bit for bit, at a tenth of its cost
        lo = np.minimum(r[:, 0], r[:, 1])
        np.maximum(r[:, 0], r[:, 1], out=r[:, 1])
        r[:, 0] = lo
    elif m > 2:
        r.sort(axis=1)
    if m:
        w_imp /= math.factorial(m)
    return z, r, w_imp


# ---------------------------------------------------------------------
# integrand
# ---------------------------------------------------------------------

def integrand_matrix(g: AdmissibleGraph, lam, z: np.ndarray, r: np.ndarray):
    """Structurally nonzero entries of the coefficient matrix M of the wedge
    of edge one-forms: {(row, col): (N,) complex}.

    z: (N, n) aerial positions (column 0 is the pinned vertex and carries no
    coordinates); r: (N, m) ground positions.  Row k is edge k; columns are
    ordered (x_2, y_2, ..., x_n, y_n, r_1, ..., r_m).  A row is nonzero only
    in the columns of its edge's free endpoints: two for an aerial vertex
    other than 1, one for a ground vertex.
    """
    entries = {}
    for row, e in enumerate(g.edges):
        # a ground point goes in as its real column (prop.dphi_h); a half
        # is formed only if its endpoint has columns
        t = z[:, e.dst - 1] if e.dst <= g.n else r[:, e.dst - g.n - 1]
        src_cols, dst_cols = _columns(g, e.src), _columns(g, e.dst)
        d_s, d_sb, d_t, d_tb = prop.dphi_h(lam, z[:, e.src - 1], t,
                                           bool(src_cols), bool(dst_cols))
        for cols, d_z, d_zb in ((src_cols, d_s, d_sb),
                                (dst_cols, d_t, d_tb)):
            if len(cols) == 2:
                entries[row, cols[0]], entries[row, cols[1]] = \
                    prop.wirtinger_to_xy(d_z, d_zb)
            elif cols:
                entries[row, cols[0]] = np.add(d_z, d_zb, out=d_z)
    return entries


def _columns(g: AdmissibleGraph, v: int) -> tuple:
    """The coordinate columns of vertex v: none for the pinned vertex 1,
    (x_v, y_v) for another aerial vertex, r_j for ground vertex n + j."""
    if v > g.n:
        return (2 * (g.n - 1) + v - g.n - 1,)
    return () if v == 1 else (2 * (v - 2), 2 * (v - 2) + 1)


def _cells(g: AdmissibleGraph):
    """The (row, col) keys of ``integrand_matrix``, in its order."""
    return [(row, col) for row, e in enumerate(g.edges)
            for v in (e.src, e.dst) for col in _columns(g, v)]


def _laplace_plan(cells, n_rows: int):
    """Laplace expansion of det M along rows 0, 1, ... over the nonzero
    ``cells`` (an iterable of (row, col)).

    A minor is the determinant of rows 0..k-1 on a set of k columns, held
    as a bitmask.  Returns [(mask, [(sign, row, col, sub_mask)])], one item
    per minor the full determinant needs, each after the minors it uses, so
    the last item is the full determinant.  A minor whose rows cannot be
    matched to its columns is identically zero and is left out with every
    term that would use it; when that holds for the full matrix the list
    is empty.
    """
    cols = [[] for _ in range(n_rows)]
    for row, col in cells:
        cols[row].append(col)
    plan = {}

    def nonzero(mask):
        if mask == 0:
            return True
        if mask not in plan:
            row = mask.bit_count() - 1
            terms = []
            for col in cols[row]:
                bit = 1 << col
                if mask & bit and nonzero(mask ^ bit):
                    # expanding along the last row: (-1)^(columns after col)
                    sign = -1 if (mask >> col + 1).bit_count() % 2 else 1
                    terms.append((sign, row, col, mask ^ bit))
            plan[mask] = terms
        return bool(plan[mask])

    nonzero((1 << n_rows) - 1)
    return [(mask, terms) for mask, terms in plan.items() if terms]


def integrand_value(g: AdmissibleGraph, lam, z: np.ndarray, r: np.ndarray):
    """det(M): the coefficient of the coordinate volume form at each sample.

    Expands along rows in edge order over the nonzero entries only, each
    minor computed once (``_laplace_plan``); exact zeros when no
    row-to-column matching exists.
    """
    return _expand(integrand_matrix(g, lam, z, r), g.n_edges, z.shape[0])


def _expand(entries, n_rows: int, size: int):
    """det M at ``size`` samples from the entries of ``integrand_matrix``;
    the determinant of 0 rows is 1."""
    if n_rows == 0:
        return np.ones(size, complex)
    plan = _laplace_plan(entries, n_rows)
    if not plan:
        return np.zeros(size, complex)
    minors = {}
    term = np.empty(size, complex)
    for mask, terms in plan:
        (sign, row, col, sub), *rest = terms
        if sub == 0:
            minors[mask] = entries[row, col]
            continue
        acc = entries[row, col] * minors[sub]
        if sign < 0:
            np.negative(acc, out=acc)
        for sign, row, col, sub in rest:
            np.multiply(entries[row, col], minors[sub], out=term)
            if sign > 0:
                acc += term
            else:
                acc -= term
        minors[mask] = acc
    return minors[plan[-1][0]]


def _config_ok(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Mask of samples safely away from collisions/degenerate points; no
    aerial-ground pair needs a test of its own (module docstring)."""
    ok = np.ones(z.shape[0], bool)
    n, m = z.shape[1], r.shape[1]
    for a in range(n):
        for b in range(a + 1, n):
            ok &= np.abs(z[:, a] - z[:, b]) > SINGULAR_GUARD
        ok &= z[:, a].imag > SINGULAR_GUARD
    for a in range(m):
        for b in range(a + 1, m):
            ok &= np.abs(r[:, a] - r[:, b]) > SINGULAR_GUARD
    return ok


# ---------------------------------------------------------------------
# the estimators
# ---------------------------------------------------------------------

def _mc_mean(n_samples: int, seed, dim: int, block, workers: int = 1):
    """(mean, var) of ``block``'s sample rows over n_samples samples: per
    row, the mean and the variance of one sample, that of the real part
    plus that of the imaginary part, each clamped at 0.

    One stream, seeded once, is read CHUNK rows of ``dim`` uniforms at
    a time; ``block`` maps each (k, dim) array to the k sample values, as
    a (k,) array or one (K, k) row per component, a guarded sample being
    a 0 that still counts.  The mean is Sum f / n.  The squares are summed
    about the first sample f0, the real and the imaginary part each as a
    contiguous real row, so that a spread of a few ulps is not lost to
    cancelling Sum f^2 / n against the mean's square.  Every sum runs
    along a row, which numpy adds pairwise.

    No thread is started.  Block 0 fixes f0; the later blocks go to k =
    min(workers, _CPUS, blocks after the first) processes if k >= 2,
    worker w reading blocks w, w + k, ... (w = 1..k).  Sums are added in
    block order either way.  The pool forks: with forkserver, ``weight mc
    --workers 2`` at 2*10^6 samples took 0.79 s against 0.59 s (medians
    of 8 runs, 2 vCPUs, Python 3.11), and the only threads alive at the
    fork are OpenBLAS's, whose locks no block takes, since none calls
    BLAS.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 (one sample has no "
                         f"spread to give a stderr), got {n_samples}")
    seq = np.random.SeedSequence(seed)
    n_blocks = -(-n_samples // CHUNK)
    procs = min(workers, _CPUS, n_blocks - 1)
    sums, f0 = _block_sums(seq, dim, block, n_samples, None,
                           range(n_blocks if procs < 2 else 1))
    if procs >= 2:
        import multiprocessing
        with multiprocessing.Pool(procs) as pool:
            parts = pool.starmap(_block_sums, [
                (seq, dim, block, n_samples, f0, range(w, n_blocks, procs))
                for w in range(1, procs + 1)])
        sums += [parts[(b - 1) % procs][0][(b - 1) // procs]
                 for b in range(1, n_blocks)]
    # in block order from 0, as one loop adding each block would
    total, re2, im2 = (sum(col, np.zeros_like(col[0])) for col in zip(*sums))
    mean = total / n_samples
    shift = mean - f0[:, 0]
    return mean, (np.maximum(re2 / n_samples - shift.real ** 2, 0)
                  + np.maximum(im2 / n_samples - shift.imag ** 2, 0))


def _block_sums(seq, dim: int, block, n_samples: int, f0, blocks):
    """([per-row (Sum f, Sum (Re f - Re f0)^2, Sum (Im f - Im f0)^2) of
    each block of ``blocks``], f0), f0 being the first sample if None.
    Block b starts b CHUNK dim draws into the stream of ``seq``; its
    samples come from ``_split`` and each sum runs over the whole block."""
    out = []
    for b in blocks:
        start = b * CHUNK
        k = min(CHUNK, n_samples - start)
        rng = np.random.Generator(np.random.PCG64(seq).advance(start * dim))
        f = _split(block, rng.random((k, dim))).reshape(-1, k)
        if f0 is None:
            f0 = f[:, :1].copy()        # a view would keep the block alive
        re, im = f.real - f0.real, f.imag - f0.imag
        out.append((f.sum(axis=1), np.square(re, out=re).sum(axis=1),
                    np.square(im, out=im).sum(axis=1)))
    return out, f0


def _split(block, u):
    """block(u) from contiguous parts of _PART rows of u, one after
    another on the calling thread: a part's per-sample arrays fit a
    core's 2 MiB L2 cache, where a whole block's (3,2) integrand does
    not.  On one thread, two-valent integrals, graph2 and (3,2) classes
    ran 12 % faster in parts of 4,096 or 8,192 rows than of 2,048 or
    16,384 (2 vCPUs)."""
    if len(u) <= _PART:
        return block(u)
    return np.concatenate([block(u[i:i + _PART])
                           for i in range(0, len(u), _PART)], axis=-1)


def _mc_scalar(n_samples: int, seed, dim: int, block, workers: int = 1):
    """(mean, stderr of the mean) of a scalar ``block`` through _mc_mean.

    Rounding alone spreads a constant integrand by an ulp or two of the
    mean (0.6 to 2 eps |mean| for the fans with one to four ground points,
    over real and complex lam), so a per-sample spread within 4 eps |mean|
    is roundoff, not variance, and the stderr is reported as exactly 0.
    """
    (mean,), (var,) = _mc_mean(n_samples, seed, dim, block, workers)
    if var <= (4 * np.finfo(float).eps * abs(mean)) ** 2:
        return mean, 0.0
    return mean, math.sqrt(var / n_samples)


def weight_mc(g: AdmissibleGraph, lam=0.5, n_samples: int = 200_000,
              seed: int = 0, *, canonical=None, workers: int = 1) -> MCResult:
    """Monte Carlo estimate of the weight of g at interpolation parameter
    lam; ``canonical`` as in ``exact_zero_reason``, ``workers`` as in
    ``_mc_mean`` (the same estimate, sooner)."""
    reason = exact_zero_reason(g, canonical=canonical)
    key = g.to_text()
    if reason is not None:
        return MCResult(0j, 0.0, 0, seed, lam, key, meta={"reason": reason})
    if n_samples >= 2 and g.n_edges and not _laplace_plan(_cells(g),
                                                         g.n_edges):
        # every sample would be an exact 0: the estimate sampling gives,
        # without drawing (a sampled estimate, not an exact zero; a bad
        # n_samples goes on to _mc_mean's ValueError)
        return MCResult(np.complex128(0j), 0.0, n_samples, seed, lam, key)

    mean, stderr = _mc_scalar(n_samples, seed, g.dim_config(),
                              partial(_weight_block, g, lam), workers)
    return MCResult(mean, stderr, n_samples, seed, lam, key)


def _weight_block(g: AdmissibleGraph, lam, u):
    """weight_mc's sample values at the uniforms u."""
    z, r, w_imp = _map_samples(u, g.n, g.m)
    ok = _config_ok(z, r)
    return np.where(ok, integrand_value(g, lam, z, r) * w_imp, 0)


# ---------------------------------------------------------------------
# two-valent disk integrals
# ---------------------------------------------------------------------

def two_valent_out_out_exact(w1: complex, w2: complex) -> float:
    """Closed form for the out-out integral:
    (1/pi) arg((1 - w1 cj(w2)) (1 - w2) / (1 - w1))."""
    return float(np.angle((1 - w1 * np.conj(w2)) * (1 - w2) / (1 - w1)) / np.pi)


# per kind: is the free point w the source of the edge to w1, of the edge
# to w2
_TWO_VALENT_KINDS = {"out-out": (True, True), "in-out": (True, False),
                     "in-in": (False, False)}


def two_valent_target(kind: str, w1: complex, w2: complex,
                      propagator: str = "disk") -> float:
    """two_valent_integral's value at every lambda.

    In-out and in-in vanish under both propagators; the center-subtracted
    in-in integrand is the disk's, since both models share one target half
    (propagators.dphi_disk_target).  Disk out-out is O =
    two_valent_out_out_exact; center-subtracted out-out is O(w1, w2) -
    O(w1, 0) - O(0, w2) = (1/pi) arg(1 - w1 cj(w2)), as phi_sh(w, c) =
    phi_disk(w, c) - phi_disk(w, 0) and d phi(w, 0) ^ d phi(w, 0) = 0."""
    if kind != "out-out":
        return 0.0
    o = two_valent_out_out_exact
    return o(w1, w2) - (0.0 if propagator == "disk" else o(w1, 0) + o(0, w2))


_P_UNIFORM = 0.4
_CAP_RADIUS = 0.6


def _mixture_map(u: np.ndarray, centers):
    """(k, 3) uniforms -> (w, q, use): points of the defensive mixture, its
    density on C and the guard mask.

    The mixture is the uniform unit disk with probability _P_UNIFORM, else
    one of the caps (c, beta) in ``centers``, each equally likely.  A row
    is read as (component, radius, angle): the component is the count of
    normalised cdf entries <= u0 (as Generator.choice and
    searchsorted(side="right") pick it), then w = c + R u1^{1/(2-beta)}
    e^{2 pi i u2} with R = _CAP_RADIUS, or sqrt(u1) e^{2 pi i u2} for the
    disk.  That radial law has planar density (2-beta) r^{-beta} /
    (2 pi R^{2-beta}) inside its cap.  A cap's points are formed on its
    own rows only, and its density term only on the rows within R of its
    centre, where it is nonzero; |w| and each |w - c| serve q and the
    guard ``use`` alike.  A cap adds num / (den d^beta) with den d^beta
    formed first, for fixed bits.
    """
    p_each = (1 - _P_UNIFORM) / len(centers)
    cdf = np.cumsum([_P_UNIFORM] + [p_each] * len(centers))
    comp = np.count_nonzero(cdf[:, None] / cdf[-1] <= u[:, 0], axis=0)
    spin = np.exp(2j * np.pi * u[:, 2])
    w = np.sqrt(u[:, 1]) * spin
    for i, (c, beta) in enumerate(centers):
        rows = np.flatnonzero(comp == i + 1)
        radius = u[rows, 1] if beta == 1.0 \
            else u[rows, 1] ** (1.0 / (2.0 - beta))
        w[rows] = c + (_CAP_RADIUS * radius * spin[rows])
    use = np.abs(w) < 1
    q = np.where(use, _P_UNIFORM / np.pi, 0.0)
    for c, beta in centers:
        d = np.abs(w - c)
        use &= d > SINGULAR_GUARD
        rows = np.flatnonzero(d < _CAP_RADIUS)
        with np.errstate(divide="ignore"):     # inf on a centre
            q[rows] += p_each * (2.0 - beta) / (
                2 * np.pi * _CAP_RADIUS ** (2.0 - beta) * d[rows] ** beta)
    return w, q, use


def two_valent_integral(kind: str, w1: complex, w2: complex, lam=0.5,
                        n_samples: int = 400_000, seed: int = 0,
                        propagator: str = "disk", *,
                        workers: int = 1) -> MCResult:
    """Integral over the unit disk of a wedge of two propagator
    differentials in a single free point w.

    kind: "out-out"  d phi(w, w1) ^ d phi(w, w2)
          "in-out"   d phi(w, w1) ^ d phi(w2, w)
          "in-in"    d phi(w1, w) ^ d phi(w2, w)
    propagator: "disk" for the disk model, "shoikhet" for the
    center-subtracted one.  w1 and w2 must lie in the open unit disk
    (ValueError otherwise, NaN included).

    Contracts: two_valent_target gives the value at every lambda.
    Importance sampling puts 1/|w - c| mass at each first-order pole so the
    estimator has finite variance (``_mixture_map``).  The samples run
    through weight_mc's block loop, three uniforms per sample, with
    ``workers`` as there.
    """
    if kind not in _TWO_VALENT_KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if propagator not in ("disk", "shoikhet"):
        raise ValueError(f"unknown propagator {propagator!r}")
    if not (abs(w1) < 1 and abs(w2) < 1):
        raise ValueError("w1 and w2 must lie in the open unit disk")
    source = prop.dphi_disk_source if propagator == "disk" \
        else prop.dphi_shoikhet_source

    # a cap at each interior pole and a steeper 1/|w-1|^{3/2} cap at the
    # boundary pole (both edge factors can blow up there, so the square of
    # the ratio needs the extra half power to stay integrable)
    centers = [(w1, 1.0), (w2, 1.0), (1.0 + 0j, 1.5)]
    if propagator == "shoikhet":
        centers.append((0j, 1.0))

    block = partial(_two_valent_block, source, lam, centers,
                    tuple(zip((w1, w2), _TWO_VALENT_KINDS[kind])))
    mean, stderr = _mc_scalar(n_samples, seed, 3, block, workers)
    return MCResult(complex(mean), stderr, n_samples, seed, lam,
                    f"two-valent:{kind}:{propagator}")


def _two_valent_block(source, lam, centers, edges, u):
    """two_valent_integral's sample values at the uniforms u; ``edges``
    holds (c, w is the source) for the edge to w1, then to w2."""
    w, q, use = _mixture_map(u, centers)
    f = np.zeros(w.size, complex)
    ww = w[use]
    a, b = (prop.wirtinger_to_xy(*(source(lam, ww, c) if w_is_source else
                                   prop.dphi_disk_target(lam, c, ww)))
            for c, w_is_source in edges)
    f[use] = (a[0] * b[1] - a[1] * b[0]) / q[use]
    return f


# ---------------------------------------------------------------------
# polynomial dependence on the interpolation parameter
# ---------------------------------------------------------------------

# the lambda relations are gated at RELATION_BOUND times the fit's scale
RELATION_BOUND = 1e-12


@dataclass
class LambdaPolyFit:
    """W(lam) = sum_n coeffs[n] lam^n, estimated from one sample stream.

    var is the variance of each coefficient, its real part's plus its
    imaginary part's; scale is the mean Hadamard bound (its largest value
    over the nodes at each sample; module docstring).
    """
    coeffs: np.ndarray            # complex, ascending powers
    var: np.ndarray               # (d+1,)
    scale: float
    n_samples: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def stderr(self) -> np.ndarray:
        """Per coefficient; 0 where one sample's spread is within the
        roundoff bound, as for a coefficient that is 0 in every sample."""
        return np.where(self.var * self.n_samples <= self.tolerance ** 2,
                        0.0, np.sqrt(self.var))

    @property
    def tolerance(self) -> float:
        return RELATION_BOUND * self.scale

    def __call__(self, lam) -> complex:
        return complex(np.polyval(self.coeffs[::-1], complex(lam)))


def weight_poly_fit(g: AdmissibleGraph, n_samples: int = 1_000_000,
                    seed: int = 0) -> LambdaPolyFit:
    """The raw weight of g as a polynomial in lam, from one sample stream.

    det M has degree at most E = g.n_edges in lam, since every entry is
    affine in it.  Each sample is evaluated at the K = E + 1 nodes
    lam_k = 1/2 + e^{2 pi i k/K}/2, where the values fix that sample's
    polynomial in mu = 2 lam - 1 by one discrete Fourier transform (the
    nodes lie on a circle, so this is perfectly conditioned), and the
    coefficients move to powers of lam by the binomial theorem.  All
    nodes share the samples and the singularity guard.  A sample's row
    K is its Hadamard bound.  A graph that ``exact_zero_reason`` screens
    out gets the zero polynomial.
    """
    k = g.n_edges + 1
    if exact_zero_reason(g) is not None:
        return LambdaPolyFit(np.zeros(k, complex), np.zeros(k), 0.0,
                             n_samples)
    nodes = 0.5 + 0.5 * np.exp(2j * np.pi * np.arange(k) / k)
    # (2 lam - 1)^j = sum_i C(j, i) 2^i (-1)^(j-i) lam^i
    to_lam = np.array([[math.comb(j, i) * 2.0 ** i * (-1) ** (j - i)
                        for j in range(k)] for i in range(k)])

    def block(u):
        z, r, w_imp = _map_samples(u, g.n, g.m)
        ok = _config_ok(z, r)
        vals = np.empty((k, len(u)), complex)
        bound = np.zeros(len(u))
        for i, lam in enumerate(nodes):
            entries = integrand_matrix(g, lam, z, r)
            vals[i] = _expand(entries, g.n_edges, len(u))
            rows = np.zeros((g.n_edges, len(u)))
            for (row, _), x in entries.items():
                rows[row] += x.real ** 2 + x.imag ** 2
            np.maximum(bound, np.sqrt(rows).prod(axis=0), out=bound)
        out = np.empty((k + 1, len(u)), complex)
        # einsum, not @: a BLAS product may sum in another order and
        # round differently, which would move the fit's bits
        out[:k] = np.einsum("ij,jn->in", to_lam,
                            np.fft.fft(vals, axis=0) * (w_imp / k))
        out[k] = w_imp * bound
        return np.where(ok, out, 0)

    mean, var = _mc_mean(n_samples, seed, g.dim_config(), block)
    return LambdaPolyFit(mean[:k], var[:k] / n_samples, mean[k].real,
                         n_samples)


def relation_residuals(fit: LambdaPolyFit):
    """[(name, |residual|)] of the reflection relations
    conj(a_n) = (-1)^n sum_{l>=n} C(l,n) a_l, one per n, and of
    Im W(1/2) = 0: roundoff, to compare with fit.tolerance."""
    a = fit.coeffs
    out = []
    for n in range(fit.degree + 1):
        rhs = (-1) ** n * sum(math.comb(l, n) * a[l]
                              for l in range(n, fit.degree + 1))
        out.append((f"reflection order {n}", abs(np.conj(a[n]) - rhs)))
    out.append(("Im W(1/2)", abs(fit(0.5).imag)))
    return out


# ---------------------------------------------------------------------
# tiered weight lookup: exact table, then cache, then fresh MC
# ---------------------------------------------------------------------

# the (2,2) classes with one edge between the aerial vertices: raw weights
# that order-2 associativity fixes (_exact_table); each key is canonical
EDGE_PAIR_WEIGHTS = {
    "K(2,2)[1>2#1, 1>b1#2, 2>b1#1, 2>b2#2]": Fraction(-1, 12),
    "K(2,2)[1>2#1, 1>b2#2, 2>b1#1, 2>b2#2]": Fraction(1, 12),
}


def _exact_table():
    """Canonical-key table of exactly known raw weights.

    Values are (weight, lam_restriction) with lam_restriction None for
    every lambda or a specific value.  Keys are canonical forms; the parity
    factor from canonicalizing the defining graph is folded in.  Weights
    are Fractions so that exact-table hits stay exact in downstream
    rational bookkeeping (MC fallbacks return floats).

    Associativity at hbar^2 fixes graph1_left = 1/4 and EDGE_PAIR_WEIGHTS
    at every lambda (rank 3 on so(3), re-derived by exact elimination in
    QC in test_star.py::test_associativity_fixes_the_order2_weights);
    graph2's column is zero, so its 1/24 is known at lambda = 1/2 only.
    """
    table = {}

    def add(g, value, lam=None):
        gc, par, consistent = g.canonical_form()
        if consistent:
            table[gc.to_text()] = (par * value, lam)

    for m in range(1, 5):
        add(fan_graph(m), Fraction(1, math.factorial(m)))
    add(graph1_left(), Fraction(1, 4))
    for text, value in EDGE_PAIR_WEIGHTS.items():
        add(AdmissibleGraph.from_text(text), value)
    add(graph2(), Fraction(1, 24), lam=0.5)
    return table


_EXACT = _exact_table()


class WeightSource:
    """Resolve graph weights: exact table, then cache, then Monte Carlo.

    Lookup happens on the canonical form; the sign from transporting the
    requested labeling to the canonical one multiplies the stored value.
    """

    def __init__(self, cache=None, n_samples: int = 2_000_000, seed: int = 0):
        self.cache = cache
        self.n_samples = n_samples
        self.seed = seed

    def weight(self, g: AdmissibleGraph, lam=0.5) -> MCResult:
        gc, par, _ = triple = g.canonical_form()
        reason = exact_zero_reason(g, canonical=triple)
        if reason is not None:
            return MCResult(0j, 0.0, 0, None, lam, g.to_text(),
                            meta={"reason": reason})
        key = gc.to_text()
        hit = _EXACT.get(key)
        if hit is not None:
            value, lam_only = hit
            if lam_only is None or complex(lam) == complex(lam_only):
                return MCResult(par * value, 0.0, 0, None, lam, g.to_text(),
                                meta={"source": "exact-table"})
        if self.cache is not None:
            got = self.cache.get(key, lam)
            if got is not None:
                return MCResult(par * got.value, got.stderr, got.n_samples,
                                None, lam, g.to_text(),
                                meta={"source": "cache"})
        # per-class seed offset: estimates of different canonical classes
        # must come from independent sample streams, or downstream
        # quadrature error propagation would understate the variance of
        # class differences; gc is its own canonical form, with parity 1
        seed = self.seed + (zlib.crc32(key.encode()) & 0xFFFF)
        res = weight_mc(gc, lam=lam, n_samples=self.n_samples, seed=seed,
                        canonical=(gc, 1, True))
        if self.cache is not None:
            self.cache.put(res)
        return MCResult(par * res.value, res.stderr, res.n_samples, seed,
                        lam, g.to_text(), meta={"source": "mc"})
