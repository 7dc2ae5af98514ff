"""Spans and counters around the public functions of ``defquant``.

Nothing here is imported by the package: ``install`` patches module
attributes and class methods from the outside, after ``defquant`` has been
imported, and ``uninstall`` puts the originals back.  Patching the module
attribute (not a local binding) is what makes the wrappers visible to
callers inside the package, because ``weight_mc`` resolves
``prop.dphi_h``, ``integrand_value`` and ``canonical_form`` at call time.

A span records (name, start, end, parent).  Spans stay in memory as
compact arrays until the run ends; a layer's self time is its span's
duration minus the durations of its direct children.  ``exactnum`` gets
counters only, because a timer on every scalar multiply would swamp it.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self._stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.classes: set = set()
        self.max_den_bits = 0
        self.guard_pending = False

    def enter(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(nid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.active[name] += 1
        self.start.append(_clock())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()
        self.active[self.names[self.name_id[idx]]] -= 1

    def mark(self) -> tuple[int, Counter]:
        """Snapshot taken at a cycle boundary, for ``layer_metrics``."""
        self.classes = set()
        self.max_den_bits = 0
        return (len(self.start), Counter(self.counts))

    def aggregate(self, lo: int, hi: int):
        """Per span name: (calls, total self seconds) over spans [lo, hi)."""
        n = hi - lo
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += (end[i] - start[i]) - child[i - lo]
        return calls, self_s

    def save(self, path) -> None:
        """Write every span: names, start, end, name index, parent index."""
        np.savez_compressed(path, names=np.array(self.names),
                            start=np.frombuffer(self.start, float),
                            end=np.frombuffer(self.end, float),
                            name=np.frombuffer(self.name_id, np.int64),
                            parent=np.frombuffer(self.parent, np.int64))


def _span(tracer: Tracer, name: str, fn, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if post is not None:
            post(tracer, args, out)
        return out
    return wrapper


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


# -- post hooks: counts read from arguments and results ---------------

def _post_weight_mc(tr, args, res):
    tr.counts["weight_mc.samples"] += res.n_samples


def _post_map_samples(tr, args, out):
    if tr.guard_pending:
        tr.counts["weight_mc.resample_rounds"] += 1
        tr.guard_pending = False


def _post_config_ok(tr, args, ok):
    rejected = int(ok.size - np.count_nonzero(ok))
    tr.counts["weight_mc.guard_rejected"] += rejected
    tr.guard_pending = rejected > 0


def _post_source(tr, args, res):
    src = res.meta.get("source")
    if src == "cache":
        tr.counts["weight_mc.source_cache"] += 1
    elif src == "mc":
        tr.counts["weight_mc.source_mc"] += 1
    else:  # exact table, or the exact-zero screen
        tr.counts["weight_mc.source_exact"] += 1


def _post_cache_get(tr, args, res):
    if res is not None:
        tr.counts["cache.get_hits"] += 1


def _post_canonical(tr, args, out):
    tr.classes.add(out[0])


def _post_delta_inv(tr, args, out):
    if tr.active["fedosov.solve"] or tr.active["fedosov.taylor"]:
        tr.counts["fedosov.rounds"] += 1


def _qc_mul(tracer: Tracer, qc_cls, fn):
    @functools.wraps(fn)
    def wrapper(self, other):
        out = fn(self, other)
        c = tracer.counts
        c["exactnum.mul_calls"] += 1
        o_im = other.im if isinstance(other, qc_cls) else other.imag
        if self.im == 0 and o_im == 0:
            c["exactnum.mul_real"] += 1
        bits = max(out.re.denominator.bit_length(),
                   out.im.denominator.bit_length())
        if bits > tracer.max_den_bits:
            tracer.max_den_bits = bits
        return out
    return wrapper


def _gamma_factory(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _counted(tracer, "geodesics.gamma_fn_calls",
                        fn(*args, **kwargs))
    return wrapper


# (module, attribute path, span name, post hook); a path with a dot is a
# class method.  A function imported into a second module by name is
# listed once per module that calls it.
SPANS = [
    ("propagators", "dphi_h", "propagators.dphi_h", None),
    ("propagators", "dphi_disk", "propagators.dphi_disk", None),
    ("propagators", "dphi_shoikhet", "propagators.dphi_shoikhet", None),
    ("weight_mc", "weight_mc", "weight_mc.weight_mc", _post_weight_mc),
    ("weight_mc", "_map_samples", "weight_mc.map_samples", _post_map_samples),
    ("weight_mc", "_config_ok", "weight_mc.config_ok", _post_config_ok),
    ("weight_mc", "integrand_matrix", "weight_mc.integrand_matrix", None),
    ("weight_mc", "integrand_value", "weight_mc.integrand_value", None),
    ("weight_mc", "two_valent_integral", "weight_mc.two_valent", None),
    ("weight_mc", "WeightSource.weight", "weight_mc.lookup", _post_source),
    ("cache", "WeightCache.put", "cache.put", None),
    ("cache", "WeightCache.get", "cache.get", _post_cache_get),
    ("graphs", "enumerate_graphs", "graphs.enumerate", None),
    ("star", "enumerate_graphs", "graphs.enumerate", None),
    ("graphs", "AdmissibleGraph.canonical_form", "graphs.canonical",
     _post_canonical),
    ("star", "graph_operator", "star.graph_operator", None),
    ("star", "PolyDiffOperator.apply", "star.apply", None),
    ("exactpoly", "Poly.__mul__", "exactpoly.mul", None),
    ("exactpoly", "Poly.__rmul__", "exactpoly.mul", None),
    ("exactpoly", "Poly.__add__", "exactpoly.add", None),
    ("exactpoly", "Poly.__radd__", "exactpoly.add", None),
    ("exactpoly", "Poly.diff", "exactpoly.diff", None),
    ("exactpoly", "Poly.eval_complex", "exactpoly.eval", None),
    ("exactpoly", "Poly.eval_qc", "exactpoly.eval", None),
    ("weyl", "WeylElement.circ", "weyl.circ", None),
    ("weyl", "WeylElement.nabla", "weyl.nabla", None),
    ("weyl", "WeylElement.delta_inv", "weyl.delta_inv", _post_delta_inv),
    ("fedosov", "solve_connection", "fedosov.solve", None),
    ("fedosov", "fedosov_taylor", "fedosov.taylor", None),
    ("fedosov", "catalan_trees", "fedosov.catalan", None),
    ("geodesics", "exp_map_series", "geodesics.exp_map", None),
    ("geodesics", "CovariantTensorJet.nabla_lower", "geodesics.nabla_lower",
     None),
    ("geodesics", "geodesic_ode_oracle", "geodesics.ode", None),
    ("geodesics", "series_eval", "geodesics.series_eval", None),
]

COUNTED = [
    ("geodesics", "sphere_gamma_fn"),
    ("geodesics", "poincare_gamma_fn"),
]


def _owner(module: str, path: str):
    obj = importlib.import_module(f"defquant.{module}")
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, attr


def targets():
    """Every (owner, attribute) the traced run replaces."""
    out = [_owner(mod, path) for mod, path, _, _ in SPANS]
    out += [_owner(mod, path) for mod, path in COUNTED]
    out += [_owner("exactnum", "QC.__mul__"),
            _owner("exactnum", "QC.__rmul__"),
            _owner("geodesics", "metric_gamma_fn")]
    return out


def wrapped_count() -> int:
    """How many traced targets currently hold a wrapper."""
    return sum(hasattr(getattr(owner, attr), "__wrapped__")
               for owner, attr in targets())


def install(tracer: Tracer):
    """Patch every target; returns the list needed by ``uninstall``."""
    saved = []

    def patch(module, path, make):
        owner, attr = _owner(module, path)
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    for module, path, name, post in SPANS:
        patch(module, path,
              lambda fn, name=name, post=post: _span(tracer, name, fn, post))
    for module, path in COUNTED:
        patch(module, path, lambda fn: _counted(
            tracer, "geodesics.gamma_fn_calls", fn))
    qc = importlib.import_module("defquant.exactnum").QC
    patch("exactnum", "QC.__mul__", lambda fn: _qc_mul(tracer, qc, fn))
    patch("exactnum", "QC.__rmul__", lambda fn: _qc_mul(tracer, qc, fn))
    patch("geodesics", "metric_gamma_fn",
          lambda fn: _gamma_factory(tracer, fn))
    return saved


def uninstall(saved) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)


# -- per-layer metrics --------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, mark, hi: int) -> dict:
    """Per-layer metrics of the spans and counts recorded since ``mark``."""
    lo, counts0 = mark
    calls, self_s = tracer.aggregate(lo, hi)
    c = tracer.counts - counts0
    samples = c["weight_mc.samples"]
    rejected = c["weight_mc.guard_rejected"]
    canon = calls["graphs.canonical"]
    return {
        "propagators.calls": calls["propagators.dphi_h"]
        + calls["propagators.dphi_disk"] + calls["propagators.dphi_shoikhet"],
        "propagators.dphi_h_s": self_s["propagators.dphi_h"],
        "propagators.dphi_disk_s": self_s["propagators.dphi_disk"],
        "propagators.dphi_shoikhet_s": self_s["propagators.dphi_shoikhet"],
        "weight_mc.calls": calls["weight_mc.weight_mc"],
        "weight_mc.samples": samples,
        "weight_mc.map_s": self_s["weight_mc.map_samples"],
        "weight_mc.guard_s": self_s["weight_mc.config_ok"],
        "weight_mc.guard_rejected": rejected,
        "weight_mc.guard_accept_ratio": _ratio(samples, samples + rejected),
        "weight_mc.resample_rounds": c["weight_mc.resample_rounds"],
        "weight_mc.matrix_s": self_s["weight_mc.integrand_matrix"],
        "weight_mc.det_s": self_s["weight_mc.integrand_value"],
        "weight_mc.two_valent_s": self_s["weight_mc.two_valent"],
        "weight_mc.source_exact": c["weight_mc.source_exact"],
        "weight_mc.source_cache": c["weight_mc.source_cache"],
        "weight_mc.source_mc": c["weight_mc.source_mc"],
        "weight_mc.lookup_s": self_s["weight_mc.lookup"],
        "cache.put_calls": calls["cache.put"],
        "cache.put_s": self_s["cache.put"],
        "cache.get_calls": calls["cache.get"],
        "cache.get_hit_ratio": _ratio(c["cache.get_hits"], calls["cache.get"]),
        "cache.get_s": self_s["cache.get"],
        "graphs.enumerate_s": self_s["graphs.enumerate"],
        "graphs.canonical_calls": canon,
        "graphs.canonical_s": self_s["graphs.canonical"],
        "graphs.labeled_per_class": _ratio(canon, len(tracer.classes)),
        "star.graph_operator_calls": calls["star.graph_operator"],
        "star.graph_operator_s": self_s["star.graph_operator"],
        "star.apply_calls": calls["star.apply"],
        "star.apply_s": self_s["star.apply"],
        "exactpoly.mul_calls": calls["exactpoly.mul"],
        "exactpoly.mul_s": self_s["exactpoly.mul"],
        "exactpoly.add_calls": calls["exactpoly.add"],
        "exactpoly.add_s": self_s["exactpoly.add"],
        "exactpoly.diff_s": self_s["exactpoly.diff"],
        "exactpoly.eval_calls": calls["exactpoly.eval"],
        "exactpoly.eval_s": self_s["exactpoly.eval"],
        "exactnum.mul_calls": c["exactnum.mul_calls"],
        "exactnum.mul_real_frac": _ratio(c["exactnum.mul_real"],
                                         c["exactnum.mul_calls"]),
        "exactnum.max_den_bits": tracer.max_den_bits,
        "weyl.circ_calls": calls["weyl.circ"],
        "weyl.circ_s": self_s["weyl.circ"],
        "weyl.nabla_s": self_s["weyl.nabla"],
        "weyl.delta_inv_calls": calls["weyl.delta_inv"],
        "weyl.delta_inv_s": self_s["weyl.delta_inv"],
        "fedosov.solve_s": self_s["fedosov.solve"],
        "fedosov.taylor_s": self_s["fedosov.taylor"],
        "fedosov.catalan_s": self_s["fedosov.catalan"],
        "fedosov.rounds": c["fedosov.rounds"],
        "geodesics.exp_map_s": self_s["geodesics.exp_map"],
        "geodesics.nabla_lower_s": self_s["geodesics.nabla_lower"],
        "geodesics.ode_s": self_s["geodesics.ode"],
        "geodesics.gamma_fn_calls": c["geodesics.gamma_fn_calls"],
        "geodesics.series_eval_s": self_s["geodesics.series_eval"],
        "trace.spans": hi - lo,
    }

