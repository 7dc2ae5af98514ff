"""JSON-lines cache for Monte Carlo weight estimates.

One record per line, a raw weight (``weight_mc``'s quantity):

    {"key": "K(2,2)[...]", "lambda": [re, im], "value": [re, im],
     "stderr": s, "n_samples": n, "seed": 7}

"seed" reproduces the record: weight_mc(AdmissibleGraph.from_text(key),
lambda, n_samples, seed) gives "value" exactly, at any worker count.  It
is null for an estimate sampled on another member of the class, which no
seed reproduces.

Records are looked up by exact (key, lambda) match; several records for
the same pair are merged by ``pool``, weighted by sample count: the value
and per-sample variance of the records' samples joined into one stream.
Inverse-variance weights would be biased for a heavy-tailed integrand,
where a run that misses the tail reports both a low value and a small
stderr.

A corrupt line is skipped with a warning rather than poisoning the store:
it is valid only if "lambda" and "value" are pairs of finite numbers,
stderr is finite and >= 0, n_samples is an integer >= 1 (a one-sample
record of an older version still loads) and a "convention" (written by
older versions) is "raw".  ``put`` refuses an estimate that would make a
corrupt line.

The default location is ~/.cache/defquant/weights.jsonl, overridable with
the KW_CACHE environment variable.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path

from .weight_mc import MCResult

_ENV_VAR = "KW_CACHE"


def default_path() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "defquant" / "weights.jsonl"


def pool(estimates) -> tuple[complex, float, int]:
    """Pool independent (value, stderr, n_samples) estimates into
    (value, stderr, N = total n_samples), weighting each by its n.

    The value is Sum n_i v_i / N, and the per-sample variance
    Sum n_i (n_i s_i^2) / N + Sum n_i |v_i - v|^2 / N (within, then
    between the estimates), so the stderr is sqrt(variance / N).  A
    single estimate pools to itself; one without samples is a ValueError.
    """
    estimates = list(estimates)
    if any(n < 1 for _, _, n in estimates):
        raise ValueError("an estimate without samples has no weight")
    if len(estimates) == 1:
        return estimates[0]
    n_tot = sum(n for _, _, n in estimates)
    value = sum(n * v for v, _, n in estimates) / n_tot
    var = sum(n * (n * s ** 2 + abs(v - value) ** 2)
              for v, s, n in estimates) / n_tot
    return value, math.sqrt(var / n_tot), n_tot


def _lam_key(lam) -> tuple[float, float]:
    c = complex(lam)
    return (float(c.real), float(c.imag))


def _parse(rec) -> tuple[tuple, tuple[complex, float, int]]:
    """(key, lambda) and the (value, stderr, n_samples) estimate of a
    record; ValueError, KeyError or TypeError if it is corrupt."""
    if "convention" in rec and rec["convention"] != "raw":
        raise ValueError(f"convention {rec['convention']!r} is not raw")
    (a, b), (re, im) = (map(float, rec[f]) for f in ("lambda", "value"))
    stderr, n = float(rec["stderr"]), rec["n_samples"]
    if not (all(map(math.isfinite, (a, b, re, im, stderr))) and stderr >= 0
            and int(n) == n >= 1):
        raise ValueError("lambda, value, stderr or n_samples out of range")
    return (rec["key"], (a, b)), (complex(re, im), stderr, int(n))


class WeightCache:
    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else default_path()
        self._records: dict[tuple, list[tuple]] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    pair, est = _parse(json.loads(line))
                    self._records.setdefault(pair, []).append(est)
                except (ValueError, KeyError, TypeError,
                        OverflowError) as exc:
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt cache line "
                        f"({exc!r})")

    def put(self, res: MCResult) -> None:
        """Append a raw estimate to the store (and the in-memory view)."""
        rec = {
            "key": res.key,
            "lambda": list(_lam_key(res.lam)),
            "value": [float(res.value.real), float(res.value.imag)],
            "stderr": float(res.stderr),
            "n_samples": int(res.n_samples),
            "seed": res.seed,
        }
        pair, est = _parse(rec)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        self._records.setdefault(pair, []).append(est)

    def get(self, key: str, lam) -> MCResult | None:
        """The pooled estimate (``pool``) for an exact (key, lambda) pair,
        or None."""
        lam = _lam_key(lam)
        recs = self._records.get((key, lam))
        if not recs:
            return None
        value, stderr, n_tot = pool(recs)
        return MCResult(value, stderr, n_tot, lam=complex(*lam), key=key,
                        meta={"pooled": len(recs)})

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())
