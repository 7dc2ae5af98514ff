"""Weight cache: round trips, pooling, environment override, bad lines."""

import json
import math
import os

import pytest

from defquant.cache import WeightCache, default_path
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


def test_inverse_variance_pooling(tmp_path):
    cache = WeightCache(tmp_path / "w.jsonl")
    cache.put(mk(0.30, 1e-3, 1000))
    cache.put(mk(0.33, 3e-3, 500))
    got = cache.get("K(2,2)[x]", 0.5)
    w1, w2 = 1e6, 1e6 / 9.0
    want = (w1 * 0.30 + w2 * 0.33) / (w1 + w2)
    assert got.value.real == pytest.approx(want)
    assert got.stderr == pytest.approx(math.sqrt(1.0 / (w1 + w2)))
    assert got.n_samples == 1500
    assert got.meta["pooled"] == 2
    # the pooled error is tighter than either input
    assert got.stderr < 1e-3


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
