"""Weight cache: round trips, pooling, environment override, bad lines."""

import json
import math
import os
import random
import warnings

import numpy as np
import pytest

from defquant.cache import WeightCache, default_path, pool
from defquant.weight_mc import MCResult


def mk(value, stderr, n, key="K(2,2)[x]", lam=0.5, seed=1):
    return MCResult(value, stderr, n, seed=seed, lam=lam, key=key)


def test_round_trip(tmp_path):
    p = tmp_path / "w.jsonl"
    cache = WeightCache(p)
    assert len(cache) == 0
    cache.put(mk(0.25 + 0.01j, 2e-3, 1000))
    got = cache.get("K(2,2)[x]", 0.5)
    assert got is not None
    assert got.value == pytest.approx(0.25 + 0.01j)
    assert got.stderr == pytest.approx(2e-3)
    assert got.n_samples == 1000

    # a fresh instance reads the same record back from disk
    again = WeightCache(p).get("K(2,2)[x]", 0.5)
    assert again.value == pytest.approx(0.25 + 0.01j)


def test_lookup_is_exact_on_key_and_lambda(tmp_path):
    cache = WeightCache(tmp_path / "w.jsonl")
    cache.put(mk(0.1, 1e-3, 10))
    assert cache.get("K(2,2)[x]", 0.5 + 0.1j) is None
    assert cache.get("K(2,2)[y]", 0.5) is None
    assert cache.get("K(2,2)[x]", 0.5) is not None


def test_sample_count_pooling(tmp_path):
    """Two records pool by sample count, exactly: every number below is
    dyadic, so the formula leaves no rounding to tolerate."""
    cache = WeightCache(tmp_path / "w.jsonl")
    cache.put(mk(0.375 + 0.0625j, 2.0 ** -10, 768))
    cache.put(mk(0.125 + 0.0625j, 2.0 ** -8, 256))
    got = cache.get("K(2,2)[x]", 0.5)
    # (768 * 0.375 + 256 * 0.125) / 1024
    assert got.value == 0.3125 + 0.0625j
    # per-sample variance: within 768^2 2^-20 + 256^2 2^-16 = 0.5625 + 1,
    # between 768 * 0.0625^2 + 256 * 0.1875^2 = 3 + 9, all over 1024
    assert got.stderr == math.sqrt(13.5625 / 1024 / 1024)
    assert got.n_samples == 1024
    assert got.meta["pooled"] == 2


def _sample_count(estimates):
    """The pooling formula of record: weights n_i, and the per-sample
    variance within the estimates plus that between them."""
    n_tot = sum(n for _, _, n in estimates)
    value = sum(n * v for v, _, n in estimates) / n_tot
    within = sum(n * (n * s ** 2) for _, s, n in estimates) / n_tot
    between = sum(n * abs(v - value) ** 2 for v, _, n in estimates) / n_tot
    return value, math.sqrt((within + between) / n_tot), n_tot


def test_pool_is_the_sample_count_formula():
    """Two or more estimates pool by the formula; a single one pools to
    itself, bit for bit."""
    rng = random.Random(3)
    for size in (1, 2, 5):
        est = [(complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                rng.uniform(1e-6, 1.0), rng.randrange(2, 10_000))
               for _ in range(size)]
        if size == 1:
            assert pool(est) == est[0]
            continue
        value, stderr, n = pool(est)
        want = _sample_count(est)
        assert value == pytest.approx(want[0], rel=1e-14)
        assert stderr == pytest.approx(want[1], rel=1e-14)
        assert n == want[2]


def test_pool_of_a_heavy_tailed_pair_is_the_joined_stream():
    """Two runs of a heavy-tailed integrand, one of which met its tail:
    sample-count pooling gives the estimate of the joined samples, while
    inverse variance gives the run with the tail, whose stderr is large,
    a weight of 0.1 % and lands on the value of the run without it."""
    rng = np.random.default_rng(0)
    quiet = 0.03 + 0.01 * rng.standard_normal(1000)
    tail = np.concatenate([[10.0], 0.03 + 0.01 * rng.standard_normal(999)])

    def estimate(f):
        return complex(f.mean()), f.std() / math.sqrt(len(f)), len(f)

    est = [estimate(quiet), estimate(tail)]
    value, stderr, n = pool(est)
    joined = estimate(np.concatenate([quiet, tail]))
    assert value == pytest.approx(joined[0], rel=1e-12)
    assert stderr == pytest.approx(joined[1], rel=1e-12)
    assert n == joined[2]
    weights = [s ** -2 for _, s, _ in est]
    inverse_variance = sum(w * v for w, (v, _, _) in zip(weights, est)) \
        / sum(weights)
    assert abs(inverse_variance - value) > 0.9 * abs(est[0][0] - value)


def test_env_var_overrides_default_path(tmp_path, monkeypatch):
    target = tmp_path / "env" / "cache.jsonl"
    monkeypatch.setenv("KW_CACHE", str(target))
    assert default_path() == target
    cache = WeightCache()
    cache.put(mk(0.5, 1e-4, 10))
    assert target.exists()
    monkeypatch.delenv("KW_CACHE")
    assert default_path() != target


def test_corrupt_lines_warn_and_are_skipped(tmp_path):
    p = tmp_path / "w.jsonl"
    good = {"key": "K", "lambda": [0.5, 0.0], "value": [0.1, 0.0],
            "stderr": 1e-3, "n_samples": 7, "seed": 0, "convention": "raw"}
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(good) + "\n")
        fh.write("this is not json\n")
        fh.write(json.dumps({"key": "K2", "lambda": [0.5, 0.0]}) + "\n")
        fh.write("\n")                      # blank lines are fine
        fh.write(json.dumps(dict(good, stderr="wat")) + "\n")
    with pytest.warns(UserWarning, match="corrupt cache line"):
        cache = WeightCache(p)
    assert len(cache) == 1
    assert cache.get("K", 0.5).n_samples == 7
    assert cache.get("K2", 0.5) is None


@pytest.mark.parametrize("bad", [
    {"stderr": math.nan}, {"stderr": math.inf}, {"stderr": -1e-3},
    {"value": [math.inf, 0.0]}, {"value": [0.1, math.nan]},
    {"value": [0.1]}, {"n_samples": 2.7}, {"n_samples": 0},
    {"n_samples": -5}, {"n_samples": "7"}, {"n_samples": math.inf},
    {"lambda": [0.5, math.nan]}, {"lambda": [0.5]},
    {"lambda": [0.5, 0.0, 0.0]}, {"convention": "formality"},
], ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()))
def test_a_line_that_would_poison_the_pool_is_skipped(tmp_path, bad):
    """Only finite values, stderr >= 0 and an integer n_samples >= 1 are
    pooled, so no cached estimate passes for an exact one."""
    p = tmp_path / "w.jsonl"
    good = {"key": "K", "lambda": [0.5, 0.0], "value": [0.1, 0.0],
            "stderr": 1e-3, "n_samples": 7, "seed": 0}
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(good) + "\n")
        fh.write(json.dumps(dict(good, **bad)) + "\n")
    with pytest.warns(UserWarning, match=r"w\.jsonl:2: skipping corrupt"):
        cache = WeightCache(p)
    assert len(cache) == 1
    got = cache.get("K", 0.5)
    assert (got.value, got.stderr, got.n_samples) == (0.1, 1e-3, 7)
    assert not got.exact


def test_a_one_sample_record_still_loads(tmp_path):
    """The estimators now need two samples, but a record of one, which
    older versions wrote, stays a valid line and pools by its count."""
    p = tmp_path / "w.jsonl"
    one = {"key": "K", "lambda": [0.5, 0.0], "value": [-0.25, 0.0],
           "stderr": 0.0, "n_samples": 1, "seed": 3}
    p.write_text(json.dumps(one) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = WeightCache(p).get("K", 0.5)
    assert (got.value, got.stderr, got.n_samples) == (-0.25, 0.0, 1)


@pytest.mark.parametrize("res", [
    mk(complex(math.nan, 0), 1e-3, 7), mk(0.1, math.inf, 7),
    mk(0.1, -1e-3, 7), mk(0.1, 1e-3, 0), mk(0.1, 1e-3, 7, lam=math.inf),
], ids=["nan value", "inf stderr", "negative stderr", "no samples",
        "inf lambda"])
def test_put_refuses_what_a_reload_would_skip(tmp_path, res):
    cache = WeightCache(tmp_path / "w.jsonl")
    with pytest.raises(ValueError):
        cache.put(res)
    assert len(cache) == 0 and not cache.path.exists()


def test_missing_file_is_empty(tmp_path):
    cache = WeightCache(tmp_path / "absent.jsonl")
    assert len(cache) == 0
    assert cache.get("K", 0.5) is None
