"""Monte Carlo weights: exact table, estimates, two-valent integrals, fits."""

import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defquant import propagators as prop, weight_mc as wmc
from defquant.cache import WeightCache
from defquant.graphs import (AdmissibleGraph, Edge, fan_graph, cycle_graph,
                             wheel_graph, graph1_left, graph2,
                             enumerate_graphs, canonical_classes)
from defquant.weight_mc import (WeightSource, weight_mc,
                                exact_zero_reason, two_valent_integral,
                                two_valent_out_out_exact, two_valent_target,
                                weight_poly_fit, relation_residuals)


def test_fan_weights_exact_and_mc():
    src = WeightSource(n_samples=100, seed=0)
    for m in (1, 2, 3, 4):
        res = src.weight(fan_graph(m), lam=0.37)
        assert res.exact and res.stderr == 0.0
        assert res.value == Fraction(1, math.factorial(m))
    mc = weight_mc(fan_graph(2), lam=0.3, n_samples=100_000, seed=5)
    assert abs(mc.value - 0.5) <= max(1e-3, 3 * mc.stderr)


@pytest.mark.parametrize("chunk", [wmc.CHUNK, 1000])
@pytest.mark.parametrize("n_samples", [2_000, 50_000, 200_000])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fan_mc_is_zero_variance_at_one_edge(monkeypatch, m, n_samples,
                                             chunk):
    """A fan's integrand is constant up to rounding, so its stderr is
    exactly 0, not a cancellation residue of order eps |mean|."""
    monkeypatch.setattr(wmc, "CHUNK", chunk)
    res = weight_mc(fan_graph(m), lam=0.8, n_samples=n_samples, seed=1)
    assert res.value == pytest.approx(1 / math.factorial(m), abs=1e-12)
    assert res.stderr == 0.0


def test_double_fan_quarter():
    # the (2,2) double-fan estimator has heavy tails near the ground
    # points, so its reported stderr can understate; gate on an absolute
    # band and rely on the exact table for the sharp value
    res = weight_mc(graph1_left(), lam=0.25, n_samples=150_000, seed=2)
    assert abs(res.value - 0.25) < 0.02
    exact = WeightSource(n_samples=100, seed=0).weight(graph1_left(), lam=0.9)
    assert exact.exact and exact.value == Fraction(1, 4)


def test_double_fan_estimator_lam_independent():
    """The per-vertex wedge of two ground-edge one-forms is pointwise
    lam-independent, so the whole estimate is bit-for-bit identical
    across lam at a fixed seed."""
    a = weight_mc(graph1_left(), lam=0.1, n_samples=20_000, seed=9)
    b = weight_mc(graph1_left(), lam=0.9, n_samples=20_000, seed=9)
    assert a.value == b.value


def test_two_cycle_midpoint():
    res = weight_mc(graph2(), lam=0.5, n_samples=400_000, seed=3)
    assert abs(res.value - 1.0 / 24.0) <= max(2e-3, 3 * res.stderr)
    assert abs(complex(res.value).imag) <= max(1e-3, 3 * res.stderr)


def test_label_swap_transports_sign():
    """The label-swapped fan carries weight -1/2: exactly via the pooled
    table, and by direct Monte Carlo on the labeled graph."""
    swapped = AdmissibleGraph(1, 2, [Edge(1, 3, 1), Edge(1, 2, 2)])
    pooled = WeightSource(n_samples=100, seed=0).weight(swapped, lam=0.4)
    assert pooled.exact and pooled.value == Fraction(-1, 2)
    direct = weight_mc(swapped, lam=0.4, n_samples=20_000, seed=7)
    assert direct.value == pytest.approx(-0.5, abs=1e-12)  # zero variance


def test_seed_reproducibility_and_stderr_scaling():
    a = weight_mc(graph2(), lam=0.5, n_samples=50_000, seed=11)
    b = weight_mc(graph2(), lam=0.5, n_samples=50_000, seed=11)
    assert a.value == b.value and a.stderr == b.stderr
    big = weight_mc(graph2(), lam=0.5, n_samples=200_000, seed=11)
    assert big.stderr < a.stderr


def _sliced_moments(blocks):
    """(mean, stderr) over the sample values in ``blocks``: the sum of f for
    the mean, the squares summed about the first sample for the spread."""
    f0 = blocks[0][0]
    acc, re2, im2 = 0j, 0.0, 0.0
    for vals in blocks:
        acc += vals.sum()
        re2 += ((vals.real - f0.real) ** 2).sum()
        im2 += ((vals.imag - f0.imag) ** 2).sum()
    n = sum(len(vals) for vals in blocks)
    mean = acc / n
    shift = mean - f0
    var = (max(re2 / n - shift.real ** 2, 0.0)
           + max(im2 / n - shift.imag ** 2, 0.0))
    return mean, math.sqrt(var / n)


def _sliced_reference(g, lam, u, chunk, rejected=()):
    """(mean, stderr) of the estimator over ``chunk``-row slices of the
    one uniform draw ``u``, with the ``rejected`` rows contributing 0."""
    blocks = []
    for start in range(0, len(u), chunk):
        z, r, w_imp = wmc._map_samples(u[start:start + chunk], g.n, g.m)
        vals = wmc.integrand_value(g, lam, z, r) * w_imp
        vals[[i - start for i in rejected if start <= i < start + chunk]] = 0
        blocks.append(vals)
    return _sliced_moments(blocks)


def test_chunked_draws_equal_one_draw(monkeypatch):
    """One generator per estimate, read CHUNK rows at a time: the result
    is bit-identical to slicing one big draw, and no chunk is larger."""
    monkeypatch.setattr(wmc, "CHUNK", 1000)
    rows = []
    real_map = wmc._map_samples

    def counting_map(u, n, m):
        rows.append(len(u))
        return real_map(u, n, m)

    monkeypatch.setattr(wmc, "_map_samples", counting_map)
    g = graph2()
    res = weight_mc(g, lam=0.3, n_samples=3500, seed=17)
    assert rows == [1000, 1000, 1000, 500]
    u = np.random.default_rng(17).random((3500, g.dim_config()))
    assert (res.value, res.stderr) == _sliced_reference(g, 0.3, u, 1000)
    assert res.n_samples == 3500


def test_guard_drops_rejected_samples(monkeypatch):
    """A sample the singularity guard rejects counts in n_samples and
    contributes 0; nothing is redrawn."""
    monkeypatch.setattr(wmc, "CHUNK", 1000)
    rejected = (0, 999, 1000, 2718, 3499)
    seen = [0]
    real_ok = wmc._config_ok

    def guard(z, r):
        ok = real_ok(z, r)
        start = seen[0]
        seen[0] += len(ok)
        ok[[i - start for i in rejected if start <= i < start + len(ok)]] = 0
        return ok

    g = graph2()
    plain = weight_mc(g, lam=0.3, n_samples=3500, seed=17)
    monkeypatch.setattr(wmc, "_config_ok", guard)
    res = weight_mc(g, lam=0.3, n_samples=3500, seed=17)
    assert seen == [3500]
    assert res.n_samples == 3500
    assert np.isfinite(res.value) and np.isfinite(res.stderr)
    assert res.value != plain.value
    u = np.random.default_rng(17).random((3500, g.dim_config()))
    assert (res.value, res.stderr) == _sliced_reference(g, 0.3, u, 1000,
                                                        rejected)


def test_no_samples_is_a_value_error():
    """Below two samples there is no spread to give a stderr: one sample
    reported -0.1471 +- 0.0 for graph2 (1/24) and -0.2989 +- 0.0 for an
    in-out integral (0)."""
    for n in (0, 1):
        for estimate in (lambda: weight_mc(graph2(), n_samples=n, seed=3),
                         lambda: two_valent_integral("out-out", 0.1, 0.2,
                                                     n_samples=n, seed=3),
                         lambda: two_valent_integral("in-out", 0.1, 0.2,
                                                     n_samples=n, seed=3),
                         lambda: weight_poly_fit(graph2(), n_samples=n)):
            with pytest.raises(ValueError,
                               match=f"n_samples must be >= 2 .*, got {n}$"):
                estimate()


def test_unseeded_estimate_runs():
    res = weight_mc(graph2(), lam=0.5, n_samples=2000, seed=None)
    assert res.seed is None and res.n_samples == 2000
    assert np.isfinite(res.value) and res.stderr > 0


# -- blocks split into parts ------------------------------------------

# rows per part of a full block and of a short last block, by part size
SPLIT_ROWS = {wmc.CHUNK: [16_384, 8_199], 8_192: [8_192, 8_192, 8_192, 7]}


def _every_estimate(n):
    """Every Monte Carlo field of the three estimators at n samples."""
    out = []
    for g, lam in ((graph2(), 0.5), (graph1_left(), 0.3 + 0.2j)):
        res = weight_mc(g, lam=lam, n_samples=n, seed=31)
        out.append((res.value, res.stderr))
    for propagator in ("disk", "shoikhet"):
        for kind in ("out-out", "in-out", "in-in"):
            res = two_valent_integral(kind, W1, W2, lam=0.3 + 0.2j,
                                      n_samples=n, seed=32,
                                      propagator=propagator)
            out.append((res.value, res.stderr))
    # seeds at which adding up scale per part, not per block, moves it
    for g, seed in ((graph2(), 2), (graph1_left(), 1)):
        fit = weight_poly_fit(g, n_samples=n, seed=seed)
        out.append((fit.coeffs.tolist(), fit.var.tolist(), fit.scale,
                    fit.n_samples))
    return out


@pytest.mark.parametrize("n", [24_583, 2])
def test_part_count_leaves_every_estimate_unchanged(monkeypatch, n):
    """The calling thread evaluates each block in parts of _PART = 8,192
    rows, one after another: two per full block, where one part per block
    gives the same value, stderr and fit field bit for bit, since a
    sample's value depends on its row alone and the parts are joined
    before any sum."""
    rows = []
    real_map = wmc._map_samples

    def counting_map(u, n_aerial, m):
        rows.append(len(u))
        return real_map(u, n_aerial, m)

    monkeypatch.setattr(wmc, "_map_samples", counting_map)
    assert wmc._PART == 8_192
    results = {}
    for part in (8_192, wmc.CHUNK):
        monkeypatch.setattr(wmc, "_PART", part)
        rows.clear()
        results[part] = _every_estimate(n)
        # the first call, weight_mc on graph2: one block, then the next
        want = SPLIT_ROWS[part] if n > 2 else [2]
        assert rows[:len(want)] == want
    assert results[8_192] == results[wmc.CHUNK]


@pytest.mark.parametrize("part", [1, 8_191, 8_193, wmc.CHUNK])
def test_part_size_leaves_every_estimate_unchanged(monkeypatch, part):
    """Parts of 1 row, of one row less or more than _PART and of a whole
    block give every estimate of the _PART-row parts bit for bit: the
    boundaries fall inside a block, and a part that wrote to state that
    another part reads (as the fit's scale once did) would move them.
    One-row parts run on a short stream, the others on a block and a
    half."""
    n = 300 if part == 1 else 24_583
    want = _every_estimate(n)
    monkeypatch.setattr(wmc, "_PART", part)
    assert _every_estimate(n) == want


def test_no_estimator_starts_a_thread(monkeypatch):
    """weight_mc, two_valent_integral and weight_poly_fit evaluate every
    part on the calling thread: inside each block and after the call,
    threading.active_count() is what it was before."""
    seen = []
    maps = {"_map_samples": wmc._map_samples,
            "_mixture_map": wmc._mixture_map}

    def spy(name):
        def run(*args):
            seen.append((name, threading.active_count(),
                         threading.current_thread()))
            return maps[name](*args)
        return run

    for name in maps:
        monkeypatch.setattr(wmc, name, spy(name))
    before = threading.active_count()
    weight_mc(graph2(), 0.3 + 0.2j, 3 * wmc.CHUNK, seed=1)
    two_valent_integral("in-out", W1, W2, 0.5, 2 * wmc.CHUNK, seed=1)
    weight_poly_fit(graph1_left(), wmc.CHUNK + 5, seed=1)
    assert threading.active_count() == before
    assert {name for name, _, _ in seen} == set(maps)
    assert len(seen) == 6 + 4 + 3
    assert all((count, thread) == (before, threading.current_thread())
               for _, count, thread in seen)


def test_a_split_block_leaves_no_thread_and_raises_a_part_error():
    """An error in the second part of a block is raised in the caller,
    as it would be unsplit, and leaves no thread behind."""
    before = threading.active_count()
    calls = []

    def block(u):
        calls.append(len(u))
        if len(calls) == 2:
            raise ArithmeticError("a part failed")
        return np.zeros(len(u))

    with pytest.raises(ArithmeticError, match="a part failed"):
        wmc._mc_mean(wmc.CHUNK, 0, 2, block)
    assert calls == [wmc._PART, wmc._PART]
    assert threading.active_count() == before


def test_mc_mean_returns_each_rows_mean_and_variance(monkeypatch):
    """K complex rows over three blocks, the last one short: per row, the
    mean and the per-sample variance (the real part's plus the imaginary
    part's) that numpy gives for the joined rows.  A constant row has
    variance exactly 0, and one part or four per block move no bit."""
    monkeypatch.setattr(wmc, "CHUNK", 1000)

    def block(u):
        return np.stack([np.exp(2j * np.pi * u[:, 0]) / (0.1 + u[:, 1]),
                         u[:, 1] ** 2 + 0j,
                         np.full(len(u), 0.1 + 0.3j)])

    n = 2_500
    f = block(np.random.default_rng(7).random((n, 2)))
    got = {}
    for part in (1000, 300):
        monkeypatch.setattr(wmc, "_PART", part)
        got[part] = wmc._mc_mean(n, 7, 2, block)
    mean, var = got[1000]
    assert mean.shape == var.shape == (3,)
    assert mean == pytest.approx(f.mean(axis=1), rel=1e-13)
    assert var[:2] == pytest.approx(
        f.real.var(axis=1)[:2] + f.imag.var(axis=1)[:2], rel=1e-12)
    assert var[2] == 0.0
    assert [x.tolist() for x in got[1000]] == [x.tolist() for x in got[300]]


# -- blocks split across worker processes -----------------------------

def _estimator_blocks(monkeypatch):
    """(name, dim, block) of weight_mc on graph2, graph1_left and wheel:3
    at a complex lam, and of two_valent_integral for each propagator and
    kind: the maps they hand to _mc_mean, caught before any sampling."""
    caught = []

    def catch(n_samples, seed, dim, block, workers=1):
        caught.append((dim, block))
        return np.zeros(1), np.zeros(1)

    monkeypatch.setattr(wmc, "_mc_mean", catch)
    names = []
    for g in (graph2(), graph1_left(), wheel_graph(3)):
        weight_mc(g, lam=0.3 + 0.2j, n_samples=100)
        names.append(g.to_text())
    for propagator in ("disk", "shoikhet"):
        for kind in ("out-out", "in-out", "in-in"):
            two_valent_integral(kind, W1, W2, lam=0.3 + 0.2j,
                                n_samples=100, propagator=propagator)
            names.append(f"{kind}:{propagator}")
    monkeypatch.undo()
    return [(name, dim, block) for name, (dim, block) in zip(names, caught)]


def test_worker_blocks_survive_pickle(monkeypatch):
    """Each estimator's block reaches a worker process pickled, as under
    the spawn and forkserver start methods; unpickled, it gives the same
    samples bit for bit.  No process is started."""
    for name, dim, block in _estimator_blocks(monkeypatch):
        u = np.random.default_rng(5).random((3_000, dim))
        again = pickle.loads(pickle.dumps(block))
        assert _same_bits(again(u), block(u)), name


def test_a_one_row_block_equals_its_row_in_a_full_block(monkeypatch):
    """A sample's value depends on its row alone, in a block of one row
    too: a complex product written over its own operand rounded
    differently at length 1, so no product in the propagators is."""
    for name, dim, block in _estimator_blocks(monkeypatch):
        u = np.random.default_rng(6).random((wmc.CHUNK, dim))
        full = block(u)
        rows = np.concatenate([block(u[i:i + 1]) for i in range(64)])
        assert _same_bits(rows, full[:64]), name


class _FakePool:
    """Stands in for multiprocessing.Pool without starting a process:
    records the size asked for and the live threads, and runs each job
    in this process on a pickled copy of its arguments."""
    log = []

    def __init__(self, processes):
        self.log.append((processes, threading.active_count()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs):
        return [fn(*pickle.loads(pickle.dumps(job))) for job in jobs]


@pytest.mark.parametrize("workers, cpus, n_blocks, size", [
    (100_000, 2, 4, 2), (100_000, 8, 4, 3), (100_000, 8, 1, None),
    (3, 8, 5, 3), (2, 8, 2, None), (2, 1, 4, None), (1, 8, 4, None)])
def test_worker_count_comes_from_the_inputs(monkeypatch, workers, cpus,
                                            n_blocks, size):
    """min(workers, _CPUS, blocks after the first) processes, none below
    two, and the estimate of one: a huge --workers asks for no huge pool.
    No thread is alive but the caller's when the process pool starts."""
    import multiprocessing
    _FakePool.log = []
    monkeypatch.setattr(multiprocessing, "Pool", _FakePool)
    monkeypatch.setattr(wmc, "CHUNK", 5_000)
    monkeypatch.setattr(wmc, "_CPUS", cpus)
    n = 5_000 * (n_blocks - 1) + 1_234
    before = threading.active_count()
    got = weight_mc(graph2(), 0.3 + 0.2j, n, seed=8, workers=workers)
    assert _FakePool.log == ([] if size is None else [(size, before)])
    want = weight_mc(graph2(), 0.3 + 0.2j, n, seed=8)
    assert (got.value, got.stderr) == (want.value, want.stderr)


@pytest.mark.parametrize("n", [50_001, 3 * wmc.CHUNK])
def test_worker_processes_equal_one_process_bit_for_bit(monkeypatch, n):
    """Two and three worker processes read blocks of the one stream:
    weight_mc and two_valent_integral are unchanged bit for bit, at a
    complex lam, with a short last block or none."""
    import multiprocessing
    sizes = []
    real_pool = multiprocessing.Pool

    def spy(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    monkeypatch.setattr(wmc, "_CPUS", 3)

    def estimates(workers):
        return [(r.value, r.stderr) for r in (
            weight_mc(graph1_left(), 0.3 + 0.2j, n, seed=9,
                      workers=workers),
            two_valent_integral("out-out", W1, W2, 0.3 + 0.2j, n, seed=9,
                                propagator="shoikhet", workers=workers))]

    want = estimates(1)
    assert estimates(2) == want and estimates(3) == want
    blocks_after_first = -(-n // wmc.CHUNK) - 1
    assert sizes == [2, 2] + [min(3, blocks_after_first)] * 2


def test_worker_processes_fork_with_no_thread_alive():
    """No estimator starts a thread, so the process pool forks with none
    alive: Python 3.12 and later warn (DeprecationWarning) when a process
    with live threads forks, and here that warning is an error.  BLAS
    starts no threads of its own in this run."""
    script = (
        "from defquant import weight_mc as wmc\n"
        "from defquant.graphs import graph2\n"
        "wmc._CPUS = 2\n"
        "args = (graph2(), 0.3 + 0.2j, 3 * wmc.CHUNK, 4)\n"
        "one, two = (wmc.weight_mc(*args, workers=w) for w in (1, 2))\n"
        "print((one.value, one.stderr) == (two.value, two.stderr))\n")
    src = str(Path(wmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-W", "error:This process:DeprecationWarning",
         "-c", script], env=env, capture_output=True, text=True,
        timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "True\n", "")


# (value.real, value.imag, stderr) of weight_mc as float.hex at 20,000
# samples, seed 20: one full block and a partial one.  Recorded on x86-64
# with numpy 2.4, as TWO_VALENT_PINS are; graph2 at 1/2, then graph1_left,
# criterion 8's mixed graph and a (3,2) class at 0.3 + 0.2i.
WEIGHT_PINS = {
    ("K(2,2)[1>b1#1, 1>2#2, 2>1#1, 2>b2#2]", 0.5):
        ("0x1.2d4916662673cp-5", "0x0.0p+0", "0x1.2d9b3fbce4d84p-9"),
    ("K(2,2)[1>b1#1, 1>b2#2, 2>b1#1, 2>b2#2]", 0.3 + 0.2j):
        ("0x1.ec99cb4d3af99p-3", "0x1.508b0fa1f345dp-59",
         "0x1.09179e658aab1p-7"),
    ("K(2,2)[1>2#1, 1>b1#2, 2>b1#1, 2>b2#2]", 0.3 + 0.2j):
        ("-0x1.1dd00494da17fp-4", "0x1.5f7c2d75dc28ep-10",
         "0x1.017542092367bp-8"),
    ("K(3,2)[1>2#1, 1>3#2, 2>3#1, 2>b1#2, 3>2#1, 3>b2#2]", 0.3 + 0.2j):
        ("-0x1.1d78ba9d27cd5p-6", "0x1.e4f8badede0e4p-11",
         "0x1.4c9334ca7d686p-9"),
    # at a real lam other than 1/2, where star-assembly also assembles
    ("K(2,2)[1>b1#1, 1>2#2, 2>1#1, 2>b2#2]", 0.25):
        ("0x1.2d4916662673bp-5", "-0x1.bad0142d56829p-10",
         "0x1.4c6c064fe2ed2p-9"),
    ("K(2,2)[1>2#1, 1>b1#2, 2>b1#1, 2>b2#2]", 0.25):
        ("-0x1.234df54ab188cp-4", "0x1.b75b38d353332p-10",
         "0x1.011a35c7af757p-8"),
    ("K(3,2)[1>2#1, 1>3#2, 2>3#1, 2>b1#2, 3>2#1, 3>b2#2]", 0.25):
        ("-0x1.26148acc0bdaep-6", "0x1.77428f4a0fe90p-11",
         "0x1.17950cae9165ep-9"),
}


@pytest.mark.parametrize("key", sorted(WEIGHT_PINS, key=str), ids=str)
def test_weight_estimates_are_pinned(key):
    text, lam = key
    res = weight_mc(AdmissibleGraph.from_text(text), lam=lam,
                    n_samples=20_000, seed=20)
    assert (res.value.real.hex(), res.value.imag.hex(),
            float(res.stderr).hex()) == WEIGHT_PINS[key]


# -- the integrand kernel ----------------------------------------------

# the (3,2) classes that pass the exact-zero screen but whose edge rows
# cannot be matched to the coordinate columns they touch
SINGULAR_3_2 = {
    "K(3,2)[1>2#1, 1>b1#2, 2>1#1, 2>b1#2, 3>1#1, 3>b2#2]",
    "K(3,2)[1>2#1, 1>b1#2, 2>1#1, 2>b1#2, 3>b1#1, 3>b2#2]",
    "K(3,2)[1>2#1, 1>b2#2, 2>1#1, 2>b2#2, 3>b1#1, 3>b2#2]",
}


@pytest.fixture(scope="module")
def classes_3_2():
    return [gc for gc, _, _ in
            canonical_classes(enumerate_graphs(3, 2, 2)).values()]


def _dense_matrix(g, lam, z, r):
    """The full (N, E, E) coefficient matrix, one dphi_h call per edge."""
    n = g.n
    pos = [None] + [z[:, k] for k in range(n)] + [
        r[:, k].astype(complex) for k in range(g.m)]
    mat = np.zeros((z.shape[0], g.n_edges, g.n_edges), complex)
    for row, e in enumerate(g.edges):
        d_s, d_sb, d_t, d_tb = prop.dphi_h(lam, pos[e.src], pos[e.dst])
        if e.src >= 2:
            mat[:, row, 2 * e.src - 4:2 * e.src - 2] = np.stack(
                prop.wirtinger_to_xy(d_s, d_sb), axis=1)
        if e.dst > n:
            mat[:, row, 2 * n - 2 + e.dst - n - 1] = d_t + d_tb
        elif e.dst >= 2:
            mat[:, row, 2 * e.dst - 4:2 * e.dst - 2] = np.stack(
                prop.wirtinger_to_xy(d_t, d_tb), axis=1)
    return mat


def test_expansion_matches_dense_determinant(classes_3_2):
    """integrand_matrix holds exactly the nonzero entries of the full
    matrix, and integrand_value is its determinant to 1e-12 of the
    Hadamard bound prod_k ||row_k||."""
    graphs = (enumerate_graphs(2, 2, 2) + classes_3_2
              + [fan_graph(m) for m in range(1, 5)]
              + [wheel_graph(k) for k in range(2, 5)])
    for idx, g in enumerate(graphs):
        u = np.random.default_rng(idx).random((2000, g.dim_config()))
        z, r, _ = wmc._map_samples(u, g.n, g.m)
        for lam in (0.5, 0.3, 0.3 + 0.2j):
            dense = _dense_matrix(g, lam, z, r)
            scattered = np.zeros_like(dense)
            for (row, col), val in wmc.integrand_matrix(g, lam, z, r).items():
                scattered[:, row, col] = val
            assert np.array_equal(scattered, dense), g
            bound = np.prod(np.linalg.norm(dense, axis=2), axis=1)
            diff = np.abs(wmc.integrand_value(g, lam, z, r)
                          - np.linalg.det(dense))
            assert np.all(diff <= 1e-12 * bound), g


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_ground_points_come_out_sorted_bit_for_bit(n, m):
    """_map_samples orders the ground points as np.sort does, ties and the
    u = 0 end of the Cauchy map included."""
    u = np.random.default_rng(10 * n + m).random((5000, 2 * (n - 1) + m))
    ground = u[:, 2 * (n - 1):]
    ground[:7] = 0.0
    if m > 1:
        ground[7:50, 1] = ground[7:50, 0]
    raw = np.tan(np.pi * (ground - 0.5))
    _, r, _ = wmc._map_samples(u, n, m)
    assert r.shape == raw.shape
    assert r.tobytes() == np.sort(raw, axis=1).tobytes()


def test_unmatched_rows_give_exact_zeros(classes_3_2):
    """Exactly three screen-passing (3,2) classes have no row-to-column
    matching; their integrand is 0 at every sample, and no other's is."""
    u = np.random.default_rng(4).random((2000, 6))
    z, r, _ = wmc._map_samples(u, 3, 2)
    zero = {g.to_text() for g in classes_3_2
            if exact_zero_reason(g) is None
            and not np.any(wmc.integrand_value(g, 0.5, z, r))}
    assert zero == SINGULAR_3_2
    for key in SINGULAR_3_2:
        res = WeightSource(n_samples=20_000, seed=1).weight(
            AdmissibleGraph.from_text(key))
        assert res.value == 0 and res.stderr == 0.0


def _agree(a, b):
    """Estimates equal up to summation order: value within 1e-12 of
    max(|value|, stderr), stderr within 1e-12 of itself."""
    assert a.n_samples == b.n_samples
    assert abs(a.value - b.value) <= 1e-12 * max(abs(b.value), b.stderr)
    assert abs(a.stderr - b.stderr) <= 1e-12 * b.stderr


def test_block_size_moves_only_the_last_digits(monkeypatch, classes_3_2):
    g32 = next(g for g in classes_3_2 if exact_zero_reason(g) is None
               and g.to_text() not in SINGULAR_3_2)
    cases = [(graph2(), 0.5), (graph1_left(), 0.3 + 0.2j), (g32, 0.3)]
    default = [weight_mc(g, lam=lam, n_samples=40_000, seed=21)
               for g, lam in cases]
    monkeypatch.setattr(wmc, "CHUNK", 1000)
    for (g, lam), ref in zip(cases, default):
        _agree(weight_mc(g, lam=lam, n_samples=40_000, seed=21), ref)


@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
@pytest.mark.parametrize("kind", ["out-out", "in-out", "in-in"])
def test_two_valent_block_size_moves_only_the_last_digits(
        monkeypatch, kind, propagator):
    """In-out and in-in are near 0, so agreement is relative to the
    stderr there, not to the value."""
    ref = two_valent_integral(kind, W1, W2, lam=0.3 + 0.2j, n_samples=40_000,
                              seed=5, propagator=propagator)
    monkeypatch.setattr(wmc, "CHUNK", 1000)
    _agree(two_valent_integral(kind, W1, W2, lam=0.3 + 0.2j,
                               n_samples=40_000, seed=5,
                               propagator=propagator), ref)


# -- exact-zero screening ---------------------------------------------

def test_exact_zero_reasons():
    unhit = AdmissibleGraph(2, 2, [Edge(1, 2, 1), Edge(1, 3, 2),
                                   Edge(2, 1, 1), Edge(2, 3, 2)])
    assert "no incoming" in exact_zero_reason(unhit)
    short = AdmissibleGraph(1, 2, [Edge(1, 2, 1)])  # 1 edge, dim 2
    assert "dimension" in exact_zero_reason(short)
    parallel = AdmissibleGraph(2, 2, [Edge(1, 2, 1), Edge(1, 2, 2),
                                      Edge(2, 3, 1), Edge(2, 4, 2)])
    assert "parallel" in exact_zero_reason(parallel)
    assert "automorphism" in exact_zero_reason(cycle_graph(2))
    assert exact_zero_reason(graph2()) is None
    res = weight_mc(unhit, n_samples=10, seed=0)
    assert res.exact and res.value == 0 and res.n_samples == 0


def test_one_valent_aerial_vertex_vanishes():
    g = AdmissibleGraph(2, 2, [Edge(1, 3, 1), Edge(1, 4, 2), Edge(1, 2, 3),
                               Edge(2, 3, 1)])
    assert g.valence(2) == 2  # out 1 + in 1
    # vertex 2 is 1-valent in the out-only sense used by the screen?  no:
    # the screen is about total valence 1, which needs a fresh example
    lonely = AdmissibleGraph(3, 1, [Edge(1, 2, 1), Edge(2, 1, 1),
                                    Edge(1, 4, 2), Edge(2, 4, 2),
                                    Edge(3, 4, 1)])
    assert lonely.valence(3) == 1
    assert "valen" in exact_zero_reason(lonely)


# -- two-valent integrals ---------------------------------------------

W1, W2 = 0.35 + 0.2j, -0.25 + 0.4j


def test_out_out_matches_closed_form():
    closed = two_valent_out_out_exact(W1, W2)
    res = two_valent_integral("out-out", W1, W2, lam=0.5,
                              n_samples=400_000, seed=4)
    assert abs(res.value - closed) <= max(1e-3, 3 * res.stderr)


def test_out_out_closed_form_special_points():
    assert two_valent_out_out_exact(0.3 + 0j, 0.3 + 0j) == pytest.approx(0.0)
    w = 0.2 + 0.5j
    assert two_valent_out_out_exact(0j, w) == pytest.approx(
        np.angle(1 - w) / np.pi)


@pytest.mark.parametrize("lam", [0.0, 1.0, 0.3 + 0.2j])
def test_in_out_and_in_in_vanish(lam):
    for kind in ("in-out", "in-in"):
        res = two_valent_integral(kind, W1, W2, lam=lam,
                                  n_samples=300_000, seed=6)
        assert abs(res.value) <= max(1.5e-3, 3 * res.stderr)


def test_two_valent_target_table():
    closed = two_valent_out_out_exact(W1, W2)
    centered = (closed - two_valent_out_out_exact(W1, 0)
                - two_valent_out_out_exact(0, W2))
    assert {(kind, p): two_valent_target(kind, W1, W2, p)
            for kind in ("out-out", "in-out", "in-in")
            for p in ("disk", "shoikhet")} == {
        ("out-out", "disk"): closed, ("out-out", "shoikhet"): centered,
        ("in-out", "disk"): 0.0, ("in-out", "shoikhet"): 0.0,
        ("in-in", "disk"): 0.0, ("in-in", "shoikhet"): 0.0}


# radii anywhere in [0, 1), and within 1e-3 .. 1e-15 of the unit circle
_RADII = st.floats(0, 1, exclude_max=True) | st.floats(1e-15, 1e-3).map(
    lambda gap: 1 - gap)
_DISK = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                  _RADII, st.floats(-math.pi, math.pi))


@settings(max_examples=500, deadline=None)
@given(_DISK, _DISK)
def test_center_subtracted_out_out_is_one_arg(w1, w2):
    """The three-term target reduces to (1/pi) arg(1 - w1 cj(w2))."""
    want = np.angle(1 - w1 * np.conj(w2)) / np.pi
    assert two_valent_target("out-out", w1, w2, "shoikhet") == pytest.approx(
        want, abs=2e-15)


@pytest.mark.parametrize("lam", [0.5, 0.3 + 0.2j])
@pytest.mark.parametrize("w1, w2", [(W1, W2), (0.2 + 0.1j, -0.3 + 0.4j)])
def test_center_subtracted_out_out_matches_its_target(w1, w2, lam):
    """At the second pair the disk's closed form sits 60 sigma off."""
    res = two_valent_integral("out-out", w1, w2, lam=lam, n_samples=400_000,
                              seed=3, propagator="shoikhet")
    target = two_valent_target("out-out", w1, w2, "shoikhet")
    assert abs(res.value - target) <= 4 * res.stderr


@pytest.mark.parametrize("lam", [0.5, 0.3 + 0.2j, 1.0])
def test_shoikhet_target_side_is_the_disk_one(lam):
    """The center-subtracted in-in integrand reads only the target-side
    coefficients, so it is the disk's and vanishes with it."""
    rng = np.random.default_rng(7)
    ws, wt = (np.sqrt(rng.uniform(0, 0.9, 1000))
              * np.exp(2j * np.pi * rng.uniform(size=1000))
              for _ in range(2))
    for disk, shoikhet in zip(prop.dphi_disk(lam, ws, wt)[2:],
                              prop.dphi_shoikhet(lam, ws, wt)[2:]):
        assert np.array_equal(disk, shoikhet)


def test_in_out_vanishes_at_coincident_points():
    # the closed in-out loop of the aerial two-cycle, both ends at one point
    w = 0.35 + 0.1j
    res = two_valent_integral("in-out", w, w, lam=0.5, n_samples=60_000,
                              seed=3)
    assert abs(res.value) <= 3.0 * res.stderr


def _reference_config_ok(z, r):
    """The guard over every pair of points, aerial and ground alike, and
    every aerial point's height: the reference for _config_ok."""
    g = wmc.SINGULAR_GUARD
    points = [z[:, a] for a in range(z.shape[1])] + [
        r[:, j] for j in range(r.shape[1])]
    ok = np.ones(z.shape[0], bool)
    for a in range(z.shape[1]):
        ok &= z[:, a].imag > g
    for i, p in enumerate(points):
        for q in points[i + 1:]:
            ok &= np.abs(p - q) > g
    return ok


def _guard_rows(n, m):
    """Uniform rows mapped to (z, r) by _map_samples, then rows built to
    sit on the guard: aerial heights at, just above and below it, a
    ground point at Re z under a point at and just above the guard,
    ground points and aerial points closer than it, and huge
    coordinates."""
    g = wmc.SINGULAR_GUARD
    u = np.random.default_rng(40 + 10 * n + m).random((3_000,
                                                       2 * (n - 1) + m))
    z, r, _ = wmc._map_samples(u, n, m)
    k = 0
    for height in (g, np.nextafter(g, 1), np.nextafter(g, 0), 0.0, -g,
                   2 * g, 1.5 * g, 1e-300):
        for a in range(1, n):
            z[k, a] = complex(z[k, a].real, height)
            if m:
                # right above a ground point, and a third of a height off
                z[k + 1, a] = complex(r[k + 1, 0], height)
                z[k + 2, a] = complex(r[k + 2, -1] + height / 3, height)
            k += 3
    if n > 2:
        z[k, 2] = z[k, 1] + 0.5 * g
        z[k + 1, 2] = z[k + 1, 1] + 2 * g
        z[k + 2, 1] = 1j + 0.9 * g
        k += 3
    if m > 1:
        r[k, 1] = r[k, 0] + 0.5 * g
        r[k + 1, 1] = r[k + 1, 0] + 2 * g
        k += 2
    if n > 1:
        z[k, 1] = complex(1e17, 1e-11)
        z[k + 1, 1] = complex(-3e300, 2e-12)
        if m:
            r[k, 0] = 1e17
            r[k + 1, 0] = -3e300
    return z, r


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_config_ok_equals_the_all_pairs_reference(n, m):
    """Dropping the aerial-ground distances changes no row of the guard:
    a row that passes the height test has every aerial point farther from
    the real line than the guard, so from every ground point too."""
    z, r = _guard_rows(n, m)
    want = _reference_config_ok(z, r)
    if n > 1:
        assert 0 < want.sum() < len(want)
    for zz, rr in ((z, r), (np.ascontiguousarray(z), np.ascontiguousarray(r))):
        assert np.array_equal(wmc._config_ok(zz, rr), want)


def test_shoikhet_in_out_vanishes():
    res = two_valent_integral("in-out", W1, W2, lam=0.5,
                              n_samples=300_000, seed=8,
                              propagator="shoikhet")
    assert abs(res.value) <= max(1.5e-3, 3 * res.stderr)


def _reference_mixture_map(u, centers):
    """(w, q, use) of the mixture proposal by selection and searchsorted,
    with the guard as a second pass: the reference for _mixture_map."""
    p_each = (1 - wmc._P_UNIFORM) / len(centers)
    cdf = np.cumsum([wmc._P_UNIFORM] + [p_each] * len(centers))
    comp = (cdf / cdf[-1]).searchsorted(u[:, 0], side="right")
    spin = np.exp(2j * np.pi * u[:, 2])
    w = np.sqrt(u[:, 1]) * spin
    for i, (c, beta) in enumerate(centers):
        sel = comp == i + 1
        w[sel] = c + (wmc._CAP_RADIUS * u[sel, 1] ** (1.0 / (2.0 - beta))
                      * spin[sel])
    q = np.where(np.abs(w) < 1, wmc._P_UNIFORM / np.pi, 0.0)
    for c, beta in centers:
        d = np.abs(w - c)
        near = d < wmc._CAP_RADIUS
        q[near] += (p_each * (2.0 - beta)
                    / (2 * np.pi * wmc._CAP_RADIUS ** (2.0 - beta)
                       * d[near] ** beta))
    use = np.abs(w) < 1
    for c, _ in centers:
        use &= np.abs(w - c) > wmc.SINGULAR_GUARD
    return w, q, use


def _where_mixture_map(u, centers):
    """_mixture_map in its plain form, each cap's points and density term
    formed on every row and kept by np.where: the reference for the bits
    of the form that works on each cap's own rows."""
    p_each = (1 - wmc._P_UNIFORM) / len(centers)
    cdf = np.cumsum([wmc._P_UNIFORM] + [p_each] * len(centers))
    comp = np.count_nonzero(cdf[:, None] / cdf[-1] <= u[:, 0], axis=0)
    spin = np.exp(2j * np.pi * u[:, 2])
    w = np.sqrt(u[:, 1]) * spin
    for i, (c, beta) in enumerate(centers):
        radius = u[:, 1] if beta == 1.0 else u[:, 1] ** (1.0 / (2.0 - beta))
        w = np.where(comp == i + 1, c + (wmc._CAP_RADIUS * radius * spin), w)
    use = np.abs(w) < 1
    q = np.where(use, wmc._P_UNIFORM / np.pi, 0.0)
    for c, beta in centers:
        d = np.abs(w - c)
        use &= d > wmc.SINGULAR_GUARD
        with np.errstate(divide="ignore"):
            q += np.where(d < wmc._CAP_RADIUS, p_each * (2.0 - beta) / (
                2 * np.pi * wmc._CAP_RADIUS ** (2.0 - beta) * d ** beta),
                0.0)
    return w, q, use


def _two_valent_values(kind, lam, u, propagator):
    """Sample values of the two-valent estimator at W1, W2, one branch per
    kind, through _reference_mixture_map and whole dphi_* 4-tuples."""
    centers = [(W1, 1.0), (W2, 1.0), (1.0 + 0j, 1.5)]
    if propagator == "shoikhet":
        centers.append((0j, 1.0))
    dfun = prop.dphi_disk if propagator == "disk" else prop.dphi_shoikhet
    w, q, use = _reference_mixture_map(u, centers)
    ww = w[use]
    if kind == "out-out":
        a = prop.wirtinger_to_xy(*dfun(lam, ww, W1)[:2])
        b = prop.wirtinger_to_xy(*dfun(lam, ww, W2)[:2])
    elif kind == "in-out":
        a = prop.wirtinger_to_xy(*dfun(lam, ww, W1)[:2])
        b = prop.wirtinger_to_xy(*dfun(lam, W2, ww)[2:])
    else:
        a = prop.wirtinger_to_xy(*dfun(lam, W1, ww)[2:])
        b = prop.wirtinger_to_xy(*dfun(lam, W2, ww)[2:])
    vals = np.zeros(len(u), complex)
    vals[use] = (a[0] * b[1] - a[1] * b[0]) / q[use]
    return vals


@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
@pytest.mark.parametrize("kind", ["out-out", "in-out", "in-in"])
def test_two_valent_chunked_draws_equal_one_draw(monkeypatch, kind,
                                                 propagator):
    """two_valent_integral reads one generator CHUNK rows of (component,
    radius, angle) at a time, through the loop weight_mc uses: the result
    is bit-identical to slicing one big draw."""
    monkeypatch.setattr(wmc, "CHUNK", 1000)
    rows = []
    real_map = wmc._mixture_map

    def counting_map(u, centers):
        rows.append(u.shape)
        return real_map(u, centers)

    monkeypatch.setattr(wmc, "_mixture_map", counting_map)
    res = two_valent_integral(kind, W1, W2, lam=0.3 + 0.2j, n_samples=3500,
                              seed=17, propagator=propagator)
    assert rows == [(1000, 3)] * 3 + [(500, 3)]
    u = np.random.default_rng(17).random((3500, 3))
    blocks = [_two_valent_values(kind, 0.3 + 0.2j, u[lo:lo + 1000],
                                 propagator) for lo in range(0, 3500, 1000)]
    assert (res.value, res.stderr) == _sliced_moments(blocks)
    assert res.n_samples == 3500


@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
def test_mixture_map_samples_its_density(propagator):
    """E[1{|w| < 1} / q(w)] is the disk's area pi when the points follow
    q; q >= 0.4/pi inside the disk keeps the variance finite."""
    centers = [(W1, 1.0), (W2, 1.0), (1.0 + 0j, 1.5)]
    if propagator == "shoikhet":
        centers.append((0j, 1.0))
    u = np.random.default_rng(3).random((200_000, 3))
    w, q, _ = wmc._mixture_map(u, centers)
    inside = np.abs(w) < 1
    assert np.all(q[inside] >= 0.4 / np.pi)
    vals = np.where(inside, 1 / q, 0.0)
    sigma = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - np.pi) <= 4 * sigma


def _hand_rows(centers):
    """Rows with u0 on 0 and on each normalised cdf entry, u1 in {0, 1}
    and u2 = 0, and the mask of the cap rows that land on their centre
    (u1 = 0)."""
    p_each = (1 - wmc._P_UNIFORM) / len(centers)
    cdf = np.cumsum([wmc._P_UNIFORM] + [p_each] * len(centers))
    cdf /= cdf[-1]
    rows = np.array([(u0, u1, 0.0) for u0 in [0.0, *cdf] for u1 in (0.0, 1.0)])
    return rows, (rows[:, 1] == 0) & np.isin(rows[:, 0], cdf[:-1])


@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
def test_mixture_map_equals_the_searchsorted_reference(propagator):
    """Counting cdf entries picks searchsorted's component, and the
    map gives the reference's points, density and guard mask bit for
    bit, with 3 and 4 centres, on cdf entries and on the cap edges.  A
    cap row with u1 = 0 lands on its centre: q is inf there, with no
    warning, and the guard drops it."""
    centers = [(W1, 1.0), (W2, 1.0), (1.0 + 0j, 1.5)]
    if propagator == "shoikhet":
        centers.append((0j, 1.0))
    hand, on_centre = _hand_rows(centers)
    for u in (np.random.default_rng(9).random((200_000, 3)), hand):
        with np.errstate(divide="ignore"):
            ref = _reference_mixture_map(u, centers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = wmc._mixture_map(u, centers)
        for got, want in zip(out, ref):
            assert np.array_equal(got, want)
    w, q, use = out
    assert on_centre.sum() == len(centers)
    assert np.array_equal(w[on_centre], [c for c, _ in centers])
    assert np.all(np.isinf(q[on_centre])) and not use[on_centre].any()


@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
def test_mixture_map_equals_the_where_reference(propagator):
    """Forming each cap's points on its own rows, and its density term on
    the rows within its radius, gives the bits of the np.where form, with
    3 and 4 centres: on a block of random rows, many of them outside the
    disk (all beyond |w| = 1 near the boundary cap), and on the hand rows,
    a cap row on each centre among them."""
    centers = [(W1, 1.0), (W2, 1.0), (1.0 + 0j, 1.5)]
    if propagator == "shoikhet":
        centers.append((0j, 1.0))
    hand, on_centre = _hand_rows(centers)
    for u in (np.random.default_rng(10).random((wmc._PART + 3, 3)), hand):
        out = wmc._mixture_map(u, centers)
        for got, want in zip(out, _where_mixture_map(u, centers)):
            assert _same_bits(got, want) if got.dtype != bool \
                else np.array_equal(got, want)
        outside = np.abs(out[0]) >= 1
        assert outside.any() and not out[2][outside].any()
    assert np.all(np.isinf(out[1][on_centre]))


@pytest.mark.parametrize("rows", [1, 2, 3, 4_097])
@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
def test_mixture_map_equals_the_reference_at_any_block_length(propagator,
                                                               rows):
    """The map gives the bits of the selection reference at lengths
    shorter than, and just past, a SIMD stride; over many seeds the rows of the
    1-, 2- and 3-row blocks hit every component."""
    centers = [(W1, 1.0), (W2, 1.0), (1.0 + 0j, 1.5)]
    if propagator == "shoikhet":
        centers.append((0j, 1.0))
    for seed in range(1 if rows > 3 else 40):
        u = np.random.default_rng(seed).random((rows, 3))
        for got, want in zip(wmc._mixture_map(u, centers),
                             _reference_mixture_map(u, centers)):
            assert got.shape == want.shape == (rows,)
            assert _same_bits(got, want) if got.dtype != bool \
                else np.array_equal(got, want)


# (value.real, value.imag, stderr) as float.hex at 20,000 samples, seed
# 20: one full block and a partial one.  Recorded on x86-64 with numpy 2.4;
# any change to the sampler, the proposal or the differentials that moves
# a bit shows here.
TWO_VALENT_PINS = {
    ("out-out", "disk", 0.5):
        ("0x1.ecd865f385deep-5", "0x0.0p+0", "0x1.af18cbdcc8addp-9"),
    ("in-out", "disk", 0.5):
        ("-0x1.e1b5730cc5cc0p-12", "0x0.0p+0", "0x1.0547c3fe5fecfp-10"),
    ("in-in", "disk", 0.5):
        ("0x1.e2395d3f2c134p-12", "0x0.0p+0", "0x1.5673c4f303c53p-10"),
    ("out-out", "shoikhet", 0.5):
        ("0x1.e6d31232cb332p-5", "0x0.0p+0", "0x1.c2d55e4fa9a89p-9"),
    ("in-out", "shoikhet", 0.5):
        ("0x1.c5d7fab76ffbfp-13", "0x0.0p+0", "0x1.fe3aa0bcf89e7p-10"),
    ("in-in", "shoikhet", 0.5):
        ("0x1.219984bfe8ac6p-11", "0x0.0p+0", "0x1.5a2c127406280p-10"),
    ("out-out", "disk", 0.3 + 0.2j):
        ("0x1.ef90a855c4793p-5", "0x1.f670fd0a772a3p-12",
         "0x1.f8811b41f298ep-9"),
    ("in-out", "disk", 0.3 + 0.2j):
        ("-0x1.695e26970ed85p-12", "0x1.12a71860f8411p-12",
         "0x1.22f2034c97023p-10"),
    ("in-in", "disk", 0.3 + 0.2j):
        ("0x1.e2395d3f2c131p-12", "0x1.349f97d6829bcp-13",
         "0x1.678efba920631p-10"),
    ("out-out", "shoikhet", 0.3 + 0.2j):
        ("0x1.e6778697f8b14p-5", "0x1.14b210b6261b7p-14",
         "0x1.d4b92f6fdbc27p-9"),
    ("in-out", "shoikhet", 0.3 + 0.2j):
        ("0x1.4de231be5d9f6p-14", "0x1.62b6b160b5d64p-15",
         "0x1.1a56027ef7711p-9"),
    ("in-in", "shoikhet", 0.3 + 0.2j):
        ("0x1.219984bfe8abep-11", "0x1.72b006145d052p-13",
         "0x1.6b76db07cf0aep-10"),
}


@pytest.mark.parametrize("key", sorted(TWO_VALENT_PINS, key=str), ids=str)
def test_two_valent_estimates_are_pinned(key):
    kind, propagator, lam = key
    res = two_valent_integral(kind, W1, W2, lam=lam, n_samples=20_000,
                              seed=20, propagator=propagator)
    assert (res.value.real.hex(), res.value.imag.hex(),
            float(res.stderr).hex()) == TWO_VALENT_PINS[key]


def test_two_valent_rejects_unknown_kind():
    with pytest.raises(ValueError):
        two_valent_integral("sideways", W1, W2)
    # a mistyped model name must not fall through to the center-subtracted
    # integrand
    with pytest.raises(ValueError):
        two_valent_integral("out-out", W1, W2, propagator="Disk")


@pytest.mark.parametrize("w1, w2", [(1.5, 0.2), (W1, 1j), (W1, -1.0),
                                    (float("nan"), 0.2),
                                    (W1, complex(0.1, float("inf")))],
                         ids=str)
def test_two_valent_rejects_a_point_outside_the_open_disk(w1, w2):
    """No estimate outside the domain, and no 0 +- 0 from a NaN point whose
    every sample the guard drops."""
    with pytest.raises(ValueError,
                       match="^w1 and w2 must lie in the open unit disk$"):
        two_valent_integral("out-out", w1, w2, n_samples=20_000, seed=1)


def test_the_edgeless_graph_has_weight_one():
    """K(1,0)[] integrates over a point: the empty determinant is 1 = 1/0!,
    the fan rule at m = 0, from weight_mc and from the lam-polynomial."""
    g = fan_graph(0)
    assert g.to_text() == "K(1,0)[]"
    res = weight_mc(g, lam=0.3, n_samples=1000, seed=2)
    assert (res.value, res.stderr) == (1, 0.0)
    fit = weight_poly_fit(g, n_samples=1000, seed=2)
    assert fit.coeffs.tolist() == [1]


# -- polynomial fit over the interpolation parameter ------------------

def test_weight_poly_fit_structure():
    """One stream, E + 1 coefficients: the polynomial at any lam is
    weight_mc's estimate there on the same samples, up to roundoff."""
    for g in (graph2(), graph1_left()):
        fit = weight_poly_fit(g, n_samples=40_000, seed=12)
        assert fit.degree == g.n_edges
        assert fit.coeffs.shape == (g.n_edges + 1,)
        assert fit.var.shape == (g.n_edges + 1,)
        assert fit.n_samples == 40_000 and fit.scale > 0
        for lam in (0.0, 0.3, 0.5, 1.0, 0.3 + 0.2j, 0.8 - 0.4j):
            res = weight_mc(g, lam=lam, n_samples=40_000, seed=12)
            assert abs(fit(lam) - res.value) <= fit.tolerance, (g, lam)


def test_weight_poly_fit_reflection_and_reality():
    fit = weight_poly_fit(graph2(), n_samples=60_000, seed=13)
    assert fit.tolerance == wmc.RELATION_BOUND * fit.scale
    checks = relation_residuals(fit)
    assert [name for name, _ in checks] == [
        f"reflection order {n}" for n in range(5)] + ["Im W(1/2)"]
    for name, resid in checks:
        assert resid <= fit.tolerance, name
    assert abs(fit(0.5).real - 1.0 / 24.0) <= 1e-2


def test_fit_constant_term_has_weight_mc_stderr_at_lambda_0():
    """At lam = 0, W = a_0: its stderr is that of weight_mc's estimate on
    the same samples, up to roundoff."""
    k32 = AdmissibleGraph.from_text(
        "K(3,2)[1>2#1, 1>3#2, 2>3#1, 2>b1#2, 3>2#1, 3>b2#2]")
    for g, seed in ((graph2(), 3), (graph1_left(), 11), (k32, 3)):
        fit = weight_poly_fit(g, n_samples=4000, seed=seed)
        assert fit.stderr[0] == pytest.approx(
            weight_mc(g, lam=0.0, n_samples=4000, seed=seed).stderr,
            rel=1e-9)


def test_fit_of_a_constant_integrand_has_stderr_0():
    """fan:3's integrand is 1/6 at every sample and every lam: a_0 = 1/6,
    the rest vanish to roundoff, and no coefficient has sampling error."""
    fit = weight_poly_fit(fan_graph(3), n_samples=5000, seed=2)
    assert abs(fit.coeffs[0] - 1 / 6) <= 1e-15
    assert np.all(np.abs(fit.coeffs[1:]) <= fit.tolerance)
    assert list(fit.stderr) == [0.0] * 4
    assert all(r <= fit.tolerance for _, r in relation_residuals(fit))


def test_screened_graph_fits_the_zero_polynomial():
    fit = weight_poly_fit(cycle_graph(2), n_samples=1000)
    assert not np.any(fit.coeffs) and fit.scale == 0.0
    assert all(r == 0.0 for _, r in relation_residuals(fit))


def test_weight_source_canonicalizes_once(monkeypatch):
    """One ``canonical_form`` call per lookup, whichever tier answers:
    the screen and the sampler get the class triple passed down."""
    calls = []
    real = AdmissibleGraph.canonical_form

    def counted(self):
        calls.append(self.to_text())
        return real(self)

    monkeypatch.setattr(AdmissibleGraph, "canonical_form", counted)
    src = WeightSource(n_samples=2_000, seed=3)
    sampled = next(g for g in enumerate_graphs(3, 2, 2)
                   if exact_zero_reason(g) is None
                   and real(g)[0].to_text() not in SINGULAR_3_2)
    unscreened = [sampled, graph2(), cycle_graph(2),
                  AdmissibleGraph(2, 2, [Edge(1, 2, 1), Edge(1, 3, 2),
                                         Edge(2, 1, 1), Edge(2, 3, 2)])]
    sources = []
    for g in unscreened:
        calls.clear()
        res = src.weight(g)
        assert calls == [g.to_text()], g
        sources.append(res.meta.get("source", res.meta.get("reason")))
    assert sources == ["mc", "exact-table", "odd automorphism",
                       "ground vertex with no incoming edge"]


def test_weight_source_reports_the_seed_it_sampled_with():
    """A fresh estimate reports its class's seed, which reproduces it on
    the canonical member; here the labeling carries parity -1.  graph2 is
    the one (2,2) class the exact table leaves to sampling, at lam != 1/2."""
    g = graph2()
    gc, par, _ = g.canonical_form()
    assert par == -1
    res = WeightSource(n_samples=2_000, seed=3).weight(g, lam=0.25)
    assert res.meta["source"] == "mc" and res.seed != 3
    assert par * weight_mc(gc, 0.25, 2_000, seed=res.seed).value == res.value


# -- the sampler kernel against its formulas as plain expressions ------
#
# The references below write the sampler's formulas as expressions: fresh
# temporaries, each ground column cast to complex per edge, 1/(t - cj s)
# divided out and 1 - w formed twice.  The kernel must give the same bits
# at every part size a block is evaluated in: 8,192 and 16,384 rows (where
# numpy starts to reuse temporaries in place, 256 KiB of complex values)
# and an odd size.

KERNEL_LAMBDAS = [0.5, 0.25, 1, 0.3 + 0.2j]
PART_SIZES = [8_192, 16_384, 5_001]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(_bits(x), _bits(y))


def _reference_source_half(lam, l_s, l_sb):
    c_lam = lam / prop.TWO_PI_I
    c_mu = (1 - lam) / prop.TWO_PI_I
    return (c_lam * l_s - np.multiply(c_mu, np.conj(l_sb)),
            c_lam * l_sb - np.multiply(c_mu, np.conj(l_s)))


def _reference_target_half(lam, l_t):
    return (lam / prop.TWO_PI_I * l_t,
            np.multiply(-((1 - lam) / prop.TWO_PI_I), np.conj(l_t)))


def _reference_dphi_h(lam, s, t):
    s, t = np.asarray(s, complex), np.asarray(t, complex)
    a = 1.0 / (t - s)
    b = 1.0 / (t - np.conj(s))
    return _reference_halves(lam, -a, b, a - b)


def _reference_halves(lam, l_s, l_sb, l_t):
    return (_reference_source_half(lam, l_s, l_sb)
            + _reference_target_half(lam, l_t))


def _reference_xy(d_z, d_zb):
    return d_z + d_zb, 1j * (d_z - d_zb)


def _reference_mobius(w):
    return 1j * (1 + w) / (1 - w)


def _reference_map_samples(u, n, m):
    big_n = u.shape[0]
    z = np.empty((big_n, n), complex)
    z[:, 0] = wmc.FIXED_POINT
    w_imp = np.ones(big_n)
    for k in range(n - 1):
        u1 = u[:, 2 * k]
        u2 = u[:, 2 * k + 1]
        disk = np.sqrt(u1) * np.exp(2j * np.pi * u2)
        z[:, k + 1] = _reference_mobius(disk)
        w_imp *= 4 * np.pi / np.abs(1 - disk) ** 4
    r = np.empty((big_n, m))
    for j in range(m):
        r[:, j] = np.tan(np.pi * (u[:, 2 * (n - 1) + j] - 0.5))
        w_imp *= np.pi * (1 + r[:, j] ** 2)
    r.sort(axis=1)
    if m:
        w_imp /= math.factorial(m)
    return z, r, w_imp


def _reference_integrand_matrix(g, lam, z, r):
    n = g.n
    entries = {}

    def pos(v):
        if v <= n:
            return z[:, v - 1]
        return r[:, v - n - 1].astype(complex)

    for row, e in enumerate(g.edges):
        d_s, d_sb, d_t, d_tb = _reference_dphi_h(lam, pos(e.src), pos(e.dst))
        if e.src >= 2:
            col = 2 * (e.src - 2)
            entries[row, col], entries[row, col + 1] = \
                _reference_xy(d_s, d_sb)
        if e.dst > n:
            entries[row, 2 * (n - 1) + e.dst - n - 1] = d_t + d_tb
        elif e.dst >= 2:
            col = 2 * (e.dst - 2)
            entries[row, col], entries[row, col + 1] = \
                _reference_xy(d_t, d_tb)
    return entries


# every edge kind: out of the pinned vertex and out of a free one, into
# the pinned vertex, into a free aerial vertex and into a ground point
KERNEL_GRAPHS = [
    "K(2,2)[1>b1#1, 1>2#2, 2>1#1, 2>b2#2]",
    "K(2,2)[1>2#1, 1>b1#2, 2>b1#1, 2>b2#2]",
    "K(3,2)[1>2#1, 1>3#2, 2>3#1, 2>b1#2, 3>2#1, 3>b2#2]",
    "K(1,3)[1>b1#1, 1>b2#2]",
]


@pytest.mark.parametrize("size", PART_SIZES)
@pytest.mark.parametrize("text", KERNEL_GRAPHS)
def test_integrand_matrix_equals_the_expressions_bit_for_bit(text, size):
    g = AdmissibleGraph.from_text(text)
    u = np.random.default_rng(size + g.n_edges).random((size, g.dim_config()))
    z, r, w_imp = wmc._map_samples(u, g.n, g.m)
    want = _reference_map_samples(u, g.n, g.m)
    assert all(_same_bits(a, b) for a, b in zip((z, r, w_imp), want))
    for lam in KERNEL_LAMBDAS:
        got = wmc.integrand_matrix(g, lam, z, r)
        ref = _reference_integrand_matrix(g, lam, z, r)
        assert list(got) == list(ref)
        for cell, val in ref.items():
            assert _same_bits(got[cell], val), (lam, cell)
        # no entry shares memory with another: weight_poly_fit reads them
        # all after the last edge
        arrays = list(got.values())
        assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays)
                       for b in arrays[i + 1:])


def test_integrand_matrix_entries_share_no_memory(classes_3_2):
    """No entry of integrand_matrix shares memory with another, as the
    module docstring promises, on every (2,2) graph, (3,2) class, fan and
    wheel, whichever halves of dphi_h each edge asks for."""
    graphs = (enumerate_graphs(2, 2, 2) + classes_3_2
              + [fan_graph(m) for m in range(1, 5)]
              + [wheel_graph(k) for k in range(2, 5)])
    for idx, g in enumerate(graphs):
        u = np.random.default_rng(idx).random((64, g.dim_config()))
        z, r, _ = wmc._map_samples(u, g.n, g.m)
        for lam in (0.5, 0.3 + 0.2j):
            arrays = list(wmc.integrand_matrix(g, lam, z, r).values())
            assert not any(np.shares_memory(a, b)
                           for i, a in enumerate(arrays)
                           for b in arrays[i + 1:]), g


@pytest.mark.parametrize("size", PART_SIZES)
def test_dphi_h_at_a_real_target_equals_the_complex_one(size):
    """A real-typed t takes b = cj a; the four coefficients are those of
    the complex t with zero imaginary part, and of the expressions."""
    rng = np.random.default_rng(size)
    s = rng.standard_normal(size) + 1j * rng.exponential(size=size)
    t = rng.standard_cauchy(size)
    for lam in KERNEL_LAMBDAS:
        real = prop.dphi_h(lam, s, t)
        cplx = prop.dphi_h(lam, s, t.astype(complex))
        ref = _reference_dphi_h(lam, s, t)
        for a, b, c in zip(real, cplx, ref):
            assert _same_bits(a, c) and _same_bits(b, c)
        aerial = np.roll(s, 1)
        for a, b in zip(prop.dphi_h(lam, s, aerial),
                        _reference_dphi_h(lam, s, aerial)):
            assert _same_bits(a, b)


@pytest.mark.parametrize("size", PART_SIZES)
@pytest.mark.parametrize("propagator", ["disk", "shoikhet"])
def test_two_valent_one_forms_equal_the_expressions(propagator, size):
    """The one-forms two_valent_integral builds, point as source and as
    target, through the rewritten halves."""
    def ref_source(lam, ws, wt):
        ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
        if propagator == "shoikhet":
            return _reference_source_half(lam, 1.0 / (ws - wt) - 1.0 / ws,
                                          wt / (1 - np.conj(ws) * wt))
        a = 1.0 / (ws - wt)
        b = 1.0 / (1 - ws)
        d = 1 - np.conj(ws) * wt
        return _reference_source_half(lam, a + b, wt / d - np.conj(b))

    def ref_target(lam, ws, wt):
        ws, wt = np.asarray(ws, complex), np.asarray(wt, complex)
        wsb = np.conj(ws)
        return _reference_target_half(lam, wsb / (1 - wsb * wt)
                                      - 1.0 / (ws - wt))

    source = prop.dphi_disk_source if propagator == "disk" \
        else prop.dphi_shoikhet_source
    rng = np.random.default_rng(size)
    w = 0.9 * np.sqrt(rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
    for lam in KERNEL_LAMBDAS:
        for c in (W1, W2):
            pairs = [(source(lam, w, c), ref_source(lam, w, c)),
                     (prop.dphi_disk_target(lam, c, w),
                      ref_target(lam, c, w))]
            for got, want in pairs:
                for a, b in zip(prop.wirtinger_to_xy(*got),
                                _reference_xy(*want)):
                    assert _same_bits(a, b)


def test_an_empty_laplace_plan_draws_nothing(monkeypatch):
    """The three (3,2) classes without a row-to-column matching get the
    estimate their all-zero samples gave, without a draw."""
    want = {}
    for key in sorted(SINGULAR_3_2):
        want[key] = weight_mc(AdmissibleGraph.from_text(key), lam=0.25,
                              n_samples=20_000, seed=7)
        with pytest.raises(ValueError, match="n_samples"):
            weight_mc(AdmissibleGraph.from_text(key), n_samples=0)

    def no_draw(*args):
        raise AssertionError("sampled a graph whose integrand is 0")

    monkeypatch.setattr(wmc, "_mc_mean", no_draw)
    for key, res in want.items():
        got = weight_mc(AdmissibleGraph.from_text(key), lam=0.25,
                        n_samples=20_000, seed=7)
        assert got == res
        assert type(got.value) is np.complex128 and got.value == 0
        assert (got.stderr, got.n_samples, got.seed, got.meta) == (
            0.0, 20_000, 7, {})
        assert exact_zero_reason(AdmissibleGraph.from_text(key)) is None
