"""JSON-lines cache for Monte Carlo weight estimates.

One record per line:

    {"key": "K(2,2)[...]", "lambda": [re, im], "value": [re, im],
     "stderr": s, "n_samples": n, "seed": 7, "convention": "raw"}

Records are looked up by exact (key, lambda, convention) match; several
records for the same triple are merged by ``pool``, the one pooling rule
of the package (the CLI's worker chunks use it too).  Independent runs
with positive stderr are pooled by inverse variance.  A zero-variance
estimate (stderr 0, e.g. an identically vanishing integrand) has
unbounded inverse-variance weight, so as soon as one is present the
pooled value is the limit of those weights: the sample-weighted mean of
the zero-variance estimates alone, with stderr 0.  Corrupt lines are
skipped with a warning rather than poisoning the store.

The default location is ~/.cache/defquant/weights.jsonl, overridable with
the KW_CACHE environment variable.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import replace
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

    With every variance positive: num += w*v, den += w with w = 1/stderr^2,
    then (num/den, sqrt(1/den)).  An estimate whose variance is 0 (stderr
    0, or so small that its square underflows) makes the result the
    sample-weighted mean of the zero-variance estimates, with stderr 0.
    """
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
    if has_zero:
        if zero_n == 0:
            raise ValueError("zero-variance estimates without samples")
        return zero_num / zero_n, 0.0, n_tot
    return num / den, math.sqrt(1.0 / den), n_tot


def _lam_key(lam) -> tuple[float, float]:
    c = complex(lam)
    return (float(c.real), float(c.imag))


class WeightCache:
    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else default_path()
        self._records: dict[tuple, list[dict]] = {}
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
                    rec = json.loads(line)
                    trip = (rec["key"], tuple(rec["lambda"]),
                            rec.get("convention", "raw"))
                    float(rec["stderr"]); int(rec["n_samples"])
                    re, im = rec["value"]
                    float(re); float(im)
                except (ValueError, KeyError, TypeError) as exc:
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping corrupt cache line "
                        f"({exc!r})")
                    continue
                self._records.setdefault(trip, []).append(rec)

    def put(self, res: MCResult) -> None:
        """Append a result to the store (and the in-memory view)."""
        rec = {
            "key": res.key,
            "lambda": list(_lam_key(res.lam)),
            "value": [float(res.value.real), float(res.value.imag)],
            "stderr": float(res.stderr),
            "n_samples": int(res.n_samples),
            "seed": res.seed,
            "convention": res.convention,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
        trip = (rec["key"], tuple(rec["lambda"]), rec["convention"])
        self._records.setdefault(trip, []).append(rec)

    def get(self, key: str, lam, convention: str = "raw") -> MCResult | None:
        """Inverse-variance pooled estimate for an exact triple, or None."""
        trip = (key, _lam_key(lam), convention)
        recs = self._records.get(trip)
        if not recs:
            return None
        value, stderr, n_tot = pool(
            (complex(*rec["value"]), float(rec["stderr"]),
             int(rec["n_samples"])) for rec in recs)
        return MCResult(value, stderr, n_tot,
                        lam=complex(*trip[1]), convention=convention,
                        key=key, meta={"pooled": len(recs)})

    def get_graph(self, g, lam, convention: str = "raw") -> MCResult | None:
        """``get`` for a labeled graph: the pooled estimate of its canonical
        class times the relabeling parity, or None."""
        gc, par, _ = g.canonical_form()
        got = self.get(gc.to_text(), lam, convention)
        if got is not None:
            return replace(got, value=par * got.value, key=g.to_text())

    def put_graph(self, g, res: MCResult) -> None:
        """``put`` for an estimate of a labeled graph: stored under the
        canonical key, with the value carried over by the parity."""
        gc, par, _ = g.canonical_form()
        self.put(replace(res, value=par * res.value, key=gc.to_text()))

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())
