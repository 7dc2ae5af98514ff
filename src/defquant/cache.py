"""JSON-lines cache for Monte Carlo weight estimates.

One record per line, a raw weight (``weight_mc``'s quantity):

    {"key": "K(2,2)[...]", "lambda": [re, im], "value": [re, im],
     "stderr": s, "n_samples": n, "seed": 7}

"seed" reproduces the record: weight_mc(AdmissibleGraph.from_text(key),
lambda, n_samples, seed) gives "value" exactly.  It is null where no seed
does, as for an estimate pooled from several streams or sampled on
another member of the class.

Records are looked up by exact (key, lambda) match; several records for
the same pair are merged by ``pool``, the one pooling rule of the package
(the CLI's worker chunks use it too).  Independent runs with positive
stderr are pooled by inverse variance.  A zero-variance estimate (stderr
0, e.g. an identically vanishing integrand) has unbounded inverse-variance
weight, so as soon as one is present the pooled value is the limit of
those weights: the sample-weighted mean of the zero-variance estimates
alone, with stderr 0.

A corrupt line is skipped with a warning rather than poisoning the store:
it is valid only if "lambda" and "value" are pairs of finite numbers,
stderr is finite and >= 0, n_samples is an integer >= 1 and a
"convention" (written by older versions) is "raw".  ``put`` refuses an
estimate that would make a corrupt line.

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
    (value, stderr, total n_samples).

    A single estimate pools to itself (v*w/w can move its last bit).
    With every variance positive: num += w*v, den += w with w = 1/stderr^2,
    then (num/den, sqrt(1/den)).  An estimate whose variance is 0 (stderr
    0, or so small that its square underflows) makes the result the
    sample-weighted mean of the zero-variance estimates, with stderr 0.
    """
    estimates = list(estimates)
    num = 0j
    den = 0.0
    zero_num = 0j
    zero_n = 0
    has_zero = False
    n_tot = 0
    for value, stderr, n in estimates:
        n_tot += n
        var = stderr ** 2
        if var == 0.0:
            has_zero = True
            zero_num += n * value
            zero_n += n
            continue
        wgt = 1.0 / var
        num += wgt * value
        den += wgt
    if has_zero and zero_n == 0:
        raise ValueError("zero-variance estimates without samples")
    if len(estimates) == 1:
        return estimates[0]
    if has_zero:
        return zero_num / zero_n, 0.0, n_tot
    return num / den, math.sqrt(1.0 / den), n_tot


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
        """Inverse-variance pooled estimate for an exact (key, lambda)
        pair, or None."""
        lam = _lam_key(lam)
        recs = self._records.get((key, lam))
        if not recs:
            return None
        value, stderr, n_tot = pool(recs)
        return MCResult(value, stderr, n_tot, lam=complex(*lam), key=key,
                        meta={"pooled": len(recs)})

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())
