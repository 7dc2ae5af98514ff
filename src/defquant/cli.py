"""Command-line interface: every subcommand emits one JSON report.

Report shape (schema ``defquant-report/1``)::

    {
      "schema": "...", "version": "...",
      "command": "weight mc",
      "parameters": {...},           # parsed flags, JSON-safe
      "seed": 7,                     # or null
      "checks": [{"name", "value", "target", "tolerance", "pass"}, ...],
      "pass": true,
      "results": {...}               # command-specific payload
    }

Reports for identical (command, seed, version) are byte-identical: keys
are sorted and wall-clock time is only included when ``--timing`` is
given.  ``--table`` switches to a human-readable layout.  Exit codes:
0 all checks pass, 1 at least one check failed, 2 usage error.  A
computation that finds an identity of its own violated (an
``ArithmeticError``, as ``solve_connection`` raises) also exits 1, with
one ``error:`` line on stderr and no report.  A report's checks are its
only verdict; a quantity with no known value gets none, as in ``graphs
enumerate``, ``weight mc`` without ``--target``, ``series zeta`` outside n =
2..4, ``star assemble``, flat or cap < 5 ``fedosov
solve``, curved ``fedosov star``, ``geodesic exp`` without ``--taylor``
and ``geodesic oracle`` without ``--tol``.  A usage error prints one
``error:`` line to stderr and no report; besides malformed flags it
covers input that would give a meaningless number: a non-finite
``--lambda``, ``--target``, ``--w1``, ``--w2``, ``--x``, ``--v`` or
``--t``; a non-finite or negative ``--tol``; a named graph of size below
1 (``fan:0``, ``wheel:0``, ``cycle:0``); ``--workers`` below 1;
``--samples`` below 2 (a single sample reports stderr 0); a negative
``--cap``; ``--steps`` below 1; a ``--dim`` other than 3 for
the so3 structure; a ``series shadow --n`` other than 2 (no shadow sum is
derived for n >= 3); ``--from-cache`` with ``--write-cache`` (that would
store the pooled cached estimate again as a new independent record);
a ``--cache`` path that cannot be opened; and a ``graphs enumerate`` of
more than ``graphs.MAX_GRAPHS`` graphs, refused before any is built.

``weight mc`` and ``weight two-valent`` accept ``--workers`` and pass it
to ``weight_mc`` and ``two_valent_integral``: worker processes evaluate
blocks of the one sample stream of ``--seed``, so the report is that of
``--workers 1`` but for ``parameters.workers``.

``weight mc`` samples, pools and caches raw weights: ``--write-cache``
stores the raw estimate under its class's canonical key, ``--from-cache``
reads it back times the relabeling parity, and ``--convention formality``
scales only the report, by prod_v 1/|Star(v)|!.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

from . import __version__
from .exactnum import QC
from .exactpoly import Poly
from .graphs import (AdmissibleGraph, canonical_classes, enumerate_graphs,
                     fan_graph, cycle_graph, wheel_graph, graph1_left,
                     graph1_right, graph2)
from .weight_mc import (MCResult, weight_mc, WeightSource,
                        two_valent_integral, two_valent_target,
                        weight_poly_fit, relation_residuals,
                        exact_zero_reason)
from .cache import WeightCache
from .series import (ZETA_TARGETS, ZETA_TOLERANCE, merkulov_wheel_zeta,
                     shadow_sum, two_wheel_display, harmonic_identity)
from .star import PolyVectorField, star_order2, so3_bivector, random_triple
from .fedosov import (flat_input, curved_input, solve_connection,
                      catalan_checks, fedosov_star, flat_star_vs_moyal)
from .geodesics import (MetricJet, exp_map_series, series_vs_ode,
                        sphere_gamma_fn, poincare_gamma_fn, metric_gamma_fn,
                        flat_section_mismatches)
from . import acceptance
from .acceptance import check


class UsageError(Exception):
    pass


# -- flag parsing helpers ---------------------------------------------

def parse_complex(s: str, what: str = "value") -> complex:
    """'re,im' or a bare real part, both finite."""
    try:
        parts = [float(p) for p in s.split(",")]
    except ValueError:
        parts = []
    if len(parts) in (1, 2) and all(math.isfinite(p) for p in parts):
        return complex(*parts)
    raise UsageError(f"invalid {what} {s!r}: expected finite 're,im' or 're'")


def parse_exponents(s: str, dim: int) -> tuple:
    try:
        exps = tuple(int(p) for p in s.split(","))
    except ValueError:
        exps = ()
    if len(exps) != dim or any(e < 0 for e in exps):
        raise UsageError(
            f"invalid monomial {s!r}: expected {dim} comma-separated "
            "non-negative integers")
    return exps


def parse_samples(s: str) -> int:
    """Accept 200000, 2e5, 1e7 and similar: at least 2, since a single
    sample reports stderr 0."""
    try:
        val = float(s)
    except ValueError:
        raise UsageError(f"invalid sample count {s!r}")
    if not math.isfinite(val) or val != int(val) or val < 2:
        raise UsageError(f"invalid sample count {s!r}: need an integer >= 2")
    return int(val)


def parse_workers(workers: int) -> int:
    if workers < 1:
        raise UsageError(f"invalid worker count {workers}: need at least 1")
    return workers


def check_tolerance(tol):
    """--tol as given (None when absent), if finite and >= 0."""
    if tol is not None and not 0 <= tol < math.inf:
        raise UsageError(f"invalid tolerance {tol}: expected a finite "
                         "number >= 0")
    return tol


_NAMED_GRAPHS = {
    "graph1_left": graph1_left,
    "graph1_right": graph1_right,
    "graph2": graph2,
}


def parse_graph(text: str) -> AdmissibleGraph:
    """Named graph (graph2, fan:3, wheel:4, cycle:2) or the K(n,m)[...]
    serialization."""
    if text in _NAMED_GRAPHS:
        return _NAMED_GRAPHS[text]()
    for prefix, fn in (("fan:", fan_graph), ("wheel:", wheel_graph),
                       ("cycle:", cycle_graph)):
        if text.startswith(prefix):
            try:
                size = int(text[len(prefix):])
                if size < 1:
                    raise ValueError("size must be at least 1")
                return fn(size)
            except ValueError as exc:
                raise UsageError(f"bad graph spec {text!r}: {exc}")
    try:
        return AdmissibleGraph.from_text(text)
    except Exception as exc:
        raise UsageError(f"unknown graph serialization {text!r}: {exc}")


# -- JSON-safe conversions --------------------------------------------

def c_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def emit(args, parts: tuple, t0: float) -> int:
    """Print the report of ``parts``, the (parameters, seed, checks,
    results) a command returns; the exit code says whether it passed."""
    parameters, seed, checks, results = parts
    ok = all(c.passed for c in checks)
    report = {
        "schema": "defquant-report/1",
        "version": __version__,
        "command": f"{args.group} {args.action}",
        "parameters": parameters,
        "seed": seed,
        "checks": [c.to_jsonable() for c in checks],
        "pass": ok,
        "results": results,
    }
    if args.timing:
        report["seconds"] = round(time.time() - t0, 3)
    if args.table:
        _print_table(report)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if ok else 1


def _print_table(report: dict) -> None:
    print(f"defquant {report['version']}  --  {report['command']}")
    for k, v in sorted(report["parameters"].items()):
        print(f"  {k:>14s} : {v}")
    if report.get("seconds") is not None:
        print(f"  {'seconds':>14s} : {report['seconds']}")
    for c in report["checks"]:
        mark = "PASS" if c["pass"] else "FAIL"
        print(f"  [{mark}] {c['name']}: value={c['value']:.6g} "
              f"target={c['target']:.6g} tol={c['tolerance']:.3g}")
    print(json.dumps(report["results"], sort_keys=True, indent=2))
    print("pass:", report["pass"])


# -- subcommand bodies ------------------------------------------------

def cmd_graphs_enumerate(args):
    graphs = enumerate_graphs(args.n, args.m, args.out_degree,
                              allow_parallel=args.allow_parallel)
    results = {"count": len(graphs)}
    if args.canonical:
        classes = {key: {"size": size, "parity_consistent": cons}
                   for key, (_, size, cons)
                   in canonical_classes(graphs).items()}
        results["canonical_classes"] = classes
        results["n_classes"] = len(classes)
    else:
        results["graphs"] = [g.to_text() for g in graphs]
    params = {"n": args.n, "m": args.m, "out_degree": args.out_degree,
              "allow_parallel": args.allow_parallel,
              "canonical": args.canonical}
    return params, None, [], results


def cmd_weight_mc(args):
    g = parse_graph(args.graph)
    lam = parse_complex(args.lam, "lambda")
    n = parse_samples(args.samples)
    workers = parse_workers(args.workers)
    tol = check_tolerance(args.tol)
    if args.from_cache and args.write_cache:
        raise UsageError("--from-cache with --write-cache would store the "
                         "cached estimate again as a new record")
    gc, par, _ = triple = g.canonical_form()
    reason = exact_zero_reason(g, canonical=triple)
    cache = WeightCache(args.cache) if (args.write_cache
                                        or args.from_cache) else None
    if args.from_cache:
        if not cache.path.exists():
            raise UsageError(f"cache file {cache.path} does not exist")
        got = cache.get(gc.to_text(), lam)
        if got is None:
            raise UsageError(
                f"no cached estimate for the class of {g.to_text()} at "
                f"lambda={lam} in {cache.path}")
        value, stderr, n_used = par * got.value, got.stderr, got.n_samples
    else:
        res = weight_mc(g, lam, n, args.seed, canonical=triple,
                        workers=workers)
        value, stderr, n_used = res.value, res.stderr, res.n_samples
    results = {"graph": g.to_text(), "exact_zero_reason": reason}
    if args.write_cache and reason is None:
        # the seed reproduces the stream only on the class's own key
        own_key = g.to_text() == gc.to_text()
        cache.put(MCResult(par * value, stderr, n_used,
                           args.seed if own_key else None, lam,
                           gc.to_text()))
        results["cache_path"] = str(cache.path)
    if args.convention == "formality":
        scale = 1 / math.prod(math.factorial(g.out_degree(v))
                              for v in range(1, g.n + 1))
        value, stderr = scale * value, scale * stderr
    checks = []
    if args.target is not None:
        tgt = parse_complex(args.target, "target")
        checks.append(check("value vs target", abs(value - tgt), 0.0,
                            max(tol, 3.0 * stderr)))
    results.update(value=c_json(value), stderr=stderr, n_samples=n_used)
    params = {"graph": args.graph, "lambda": c_json(lam), "samples": n,
              "convention": args.convention, "workers": args.workers}
    return params, args.seed, checks, results


def cmd_weight_fit_lambda(args):
    g = parse_graph(args.graph)
    n = parse_samples(args.samples)
    fit = weight_poly_fit(g, n_samples=n, seed=args.seed)
    checks = [check(what, resid, 0.0, fit.tolerance)
              for what, resid in relation_residuals(fit)]
    results = {
        "graph": g.to_text(),
        "degree": fit.degree,
        "coefficients": [c_json(c) for c in fit.coeffs],
        "stderr": list(map(float, fit.stderr)),
        "scale": fit.scale,
        "midpoint_value": c_json(fit(0.5)),
    }
    return {"graph": args.graph, "samples": n}, args.seed, checks, results


def cmd_weight_two_valent(args):
    w1 = parse_complex(args.w1, "w1")
    w2 = parse_complex(args.w2, "w2")
    lam = parse_complex(args.lam, "lambda")
    n = parse_samples(args.samples)
    res = two_valent_integral(args.kind, w1, w2, lam, n, args.seed,
                              args.propagator,
                              workers=parse_workers(args.workers))
    value, stderr = res.value, res.stderr
    results = {"kind": args.kind, "value": c_json(value), "stderr": stderr,
               "n_samples": res.n_samples}
    target = two_valent_target(args.kind, w1, w2, args.propagator)
    name = "vanishes"
    if args.kind == "out-out":
        name = "matches closed form"
        results["closed_form"] = target
    checks = [check(name, abs(value - target), 0.0, max(1e-3, 3.0 * stderr))]
    params = {"kind": args.kind, "w1": c_json(w1), "w2": c_json(w2),
              "lambda": c_json(lam), "samples": n,
              "propagator": args.propagator, "workers": args.workers}
    return params, args.seed, checks, results


def cmd_series_zeta(args):
    vb = merkulov_wheel_zeta(args.n, args.terms)
    checks = []
    if args.n in ZETA_TARGETS:
        checks.append(check(f"zeta({args.n})", vb.value,
                            ZETA_TARGETS[args.n], ZETA_TOLERANCE))
    results = {"n": args.n, "value": vb.value, "bound": vb.bound}
    return {"n": args.n, "terms": args.terms}, None, checks, results


def cmd_series_shadow(args):
    vb = shadow_sum(args.n, args.w, args.terms)
    disp = two_wheel_display(args.w)
    checks = [check("value vs zeta(2)", vb.value, ZETA_TARGETS[2], vb.bound),
              check("two-wheel display vs pi^2/12", disp.value,
                    ZETA_TARGETS[2] / 2, disp.bound)]
    results = {"n": args.n, "w": args.w, "value": vb.value,
               "bound": vb.bound,
               "two_wheel_display": {"value": disp.value,
                                     "bound": disp.bound}}
    return ({"n": args.n, "w": args.w, "terms": args.terms}, None, checks,
            results)


def cmd_series_harmonic(args):
    lhs, mid, rhs = harmonic_identity(args.m)
    checks = [check("exact equality", 0 if lhs == mid == rhs else 1, 0, 0)]
    results = {"m": args.m, "lhs": str(lhs), "mid": str(mid), "rhs": str(rhs)}
    return {"m": args.m}, None, checks, results


def _structure(name: str, dim_flag):
    if name == "so3":
        if dim_flag not in (None, 3):
            raise UsageError(f"invalid dimension {dim_flag}: the so3 "
                             "structure is 3-dimensional")
        return so3_bivector()
    d = 2 if dim_flag is None else dim_flag
    if d < 2 or d % 2:
        raise UsageError(f"invalid dimension {d}: the moyal structure "
                         "needs a positive even --dim")
    mat = [[0] * d for _ in range(d)]
    for k in range(0, d, 2):
        mat[k][k + 1] = 1
        mat[k + 1][k] = -1
    return PolyVectorField.bivector(d, mat)


def _star_series(args, pi, cache_path=None):
    """--lambda, --samples and the order-2 series of ``pi``, with weights
    from the cache at ``cache_path``, else sampled at --samples, --seed."""
    lam = parse_complex(args.lam, "lambda")
    n = parse_samples(args.samples)
    cache = WeightCache(cache_path) if cache_path else None
    src = WeightSource(cache=cache, n_samples=n, seed=args.seed)
    return lam, n, star_order2(pi, lam, src)


def cmd_star_assemble(args):
    pi = _structure(args.structure, args.dim)
    lam, n, series = _star_series(args, pi, args.cache)
    d = pi.dim
    f = Poly(d, {parse_exponents(args.f, d) if args.f else
                 tuple([2] + [0] * (d - 1)): QC(1)})
    g = Poly(d, {parse_exponents(args.g, d) if args.g else
                 tuple([0] * (d - 1) + [1]): QC(1)})
    prod = series.star(f, g)
    results = {
        "dim": d,
        "order": series.order,
        "term_counts": {str(k): len(op.terms)
                        for k, op in series.ops.items()},
        "mc_classes": {str(k): len(v)
                       for k, v in series.uncertainties.items()},
        "f": f.to_jsonable(),
        "g": g.to_jsonable(),
        "star": {str(k): p.to_jsonable() for k, p in prod.items()},
    }
    if args.dump_ops:
        results["operators"] = {str(k): op.to_jsonable()
                                for k, op in series.ops.items()}
    params = {"structure": args.structure, "lambda": c_json(lam),
              "samples": n, "f": args.f, "g": args.g}
    return params, args.seed, [], results


def cmd_star_assoc(args):
    pi = _structure(args.structure, args.dim)
    if args.triples < 1:
        raise UsageError(f"invalid triple count {args.triples}: need at "
                         "least 1")
    rng = random.Random(args.seed + 1)
    triples = [random_triple(rng, pi.dim, args.deg_max)
               for _ in range(args.triples)]
    lam, n, series = _star_series(args, pi)
    checks = acceptance.associativity_checks(series, triples)
    results = {"triples": args.triples, "deg_max": args.deg_max}
    params = {"structure": args.structure, "lambda": c_json(lam),
              "samples": n, "triples": args.triples,
              "deg_max": args.deg_max}
    return params, args.seed, checks, results


def _fedosov_example(name: str, cap: int):
    return flat_input(dim=2, cap=cap) if name == "flat" else curved_input(cap)


def cmd_fedosov_solve(args):
    inp = _fedosov_example(args.example, args.cap)
    r = solve_connection(inp)
    by_deg = {}
    for (vexp, dxs, hpow), p in r.terms.items():
        deg = sum(vexp) + 2 * hpow
        by_deg[deg] = by_deg.get(deg, 0) + len(p.terms)
    checks = []
    results = {"example": args.example, "cap": args.cap,
               "terms_by_deg": {str(k): v
                                for k, v in sorted(by_deg.items())}}
    if args.example == "curved" and args.cap >= 5:
        # a k-leaf tree starts at Deg 2k+1, so cap bounds the leaves
        counts, gates = catalan_checks(inp, max(4, (args.cap - 1) // 2), r)
        checks += [check(name, bad, 0, 0) for name, bad in gates.items()]
        results["tree_counts"] = {str(k): counts[k] for k in counts}
    return {"example": args.example, "cap": args.cap}, None, checks, results


def cmd_fedosov_star(args):
    inp = _fedosov_example(args.example, args.cap)
    f = Poly(2, {parse_exponents(args.f, 2): QC(1)})
    g = Poly(2, {parse_exponents(args.g, 2): QC(1)})
    checks = []
    if args.example == "flat":
        st, bad = flat_star_vs_moyal(inp, f, g)
        checks.append(check("equals moyal oracle", bad, 0, 0))
    else:
        st = fedosov_star(inp, f, g)
    results = {"example": args.example, "cap": args.cap,
               "f": f.to_jsonable(), "g": g.to_jsonable(),
               "star": {str(k): p.to_jsonable()
                        for k, p in sorted(st.items())}}
    params = {"example": args.example, "cap": args.cap, "f": args.f,
              "g": args.g}
    return params, None, checks, results


def _metric(name: str, order: int, seed: int):
    if name == "sphere":
        return MetricJet.sphere(order)
    if name == "poincare":
        return MetricJet.poincare_half_plane(order)
    if name == "flat":
        return MetricJet.flat(2, order)
    return MetricJet.random_metric(2, order, random.Random(seed))


def cmd_geodesic_exp(args):
    met = _metric(args.metric, args.order, args.seed)
    phi = exp_map_series(met, args.order)
    results = {"metric": args.metric, "order": args.order,
               "variables": "u1..ud then v1..vd; offsets from the base",
               "series": {f"phi{i + 1}": p.to_jsonable()
                          for i, p in enumerate(phi)}}
    checks = []
    if args.taylor:
        checks.append(check("flat-section recursion == series",
                            flat_section_mismatches(met, phi, args.order),
                            0, 0))
    params = {"metric": args.metric, "order": args.order,
              "taylor": args.taylor}
    return (params, args.seed if args.metric == "random" else None, checks,
            results)


def cmd_geodesic_oracle(args):
    met = _metric(args.metric, args.order, args.seed)
    x = parse_complex(args.x, "x")
    v = parse_complex(args.v, "v")
    tol = check_tolerance(args.tol)
    base = {"sphere": (math.asin(3.0 / 5.0), 0.0), "poincare": (0.0, 1.0),
            "flat": (0.0, 0.0), "random": (0.0, 0.0)}[args.metric]
    gamma_fn = {"sphere": sphere_gamma_fn, "poincare": poincare_gamma_fn
                }.get(args.metric) or metric_gamma_fn(met)
    start = (base[0] + x.real, base[1] + x.imag)
    vel = (v.real, v.imag)
    ser, ode, gap = series_vs_ode(exp_map_series(met, args.order), gamma_fn,
                                  base, (x.real, x.imag), vel, args.t,
                                  args.steps)
    checks = []
    if tol is not None:
        checks.append(check("series vs ODE", gap, 0.0, tol))
    results = {"metric": args.metric, "start": list(start),
               "velocity": list(vel), "t": args.t,
               "ode_endpoint": ode, "series_endpoint": ser,
               "gap": gap}
    params = {"metric": args.metric, "x": c_json(x), "v": c_json(v),
              "t": args.t, "steps": args.steps, "order": args.order}
    return (params, args.seed if args.metric == "random" else None, checks,
            results)


def cmd_verify_all(args):
    echo = print if args.table else (lambda s: print(s, file=sys.stderr))
    results = acceptance.run_all(quick=args.quick, echo=echo)
    checks = [check(f"criterion {r.index} {r.name}", 0 if r.passed else 1,
                    0, 0) for r in results]
    payload = {"quick": args.quick,
               "criteria": [r.to_jsonable() for r in results]}
    if not args.timing:
        for crit in payload["criteria"]:
            crit.pop("seconds", None)
    return {"quick": args.quick}, None, checks, payload


# -- parser -----------------------------------------------------------

def _seed_flags(p, samples=None, lam=True, workers=False):
    """--lambda if ``lam``, --samples if the command samples, --seed, and
    --workers if ``workers``."""
    if lam:
        p.add_argument("--lambda", dest="lam", default="0.5,0")
    if samples:
        p.add_argument("--samples", default=samples)
    p.add_argument("--seed", type=int, default=0)
    if workers:
        p.add_argument("--workers", type=int, default=1)


def _structure_flags(p):
    p.add_argument("--structure", choices=["moyal", "so3"], default="so3")
    p.add_argument("--dim", type=int, default=None)


def _metric_flag(p):
    p.add_argument("--metric",
                   choices=["sphere", "poincare", "flat", "random"],
                   default="sphere")


_GROUPS = {"graphs": "graph enumeration",
           "weight": "Monte Carlo graph weights",
           "series": "closed-form series recipes",
           "star": "star-product assembly",
           "fedosov": "Weyl-bundle fixed points",
           "geodesic": "exponential-map series",
           "verify": "acceptance suite"}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defquant",
        description="graph weights, star products, and geodesic series")
    sub = ap.add_subparsers(dest="group", required=True)
    groups = {name: sub.add_parser(name, help=text).add_subparsers(
        dest="action", required=True) for name, text in _GROUPS.items()}

    def command(group, action, fn):
        p = groups[group].add_parser(action)
        p.set_defaults(fn=fn)
        return p

    p = command("graphs", "enumerate", cmd_graphs_enumerate)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out-degree", type=int, default=2)
    p.add_argument("--allow-parallel", action="store_true")
    p.add_argument("--canonical", action="store_true",
                   help="group into canonical classes")

    p = command("weight", "mc", cmd_weight_mc)
    p.add_argument("--graph", required=True,
                   help="K(n,m)[...] text or a named graph "
                        "(graph2, fan:3, ...)")
    _seed_flags(p, "200000", workers=True)
    p.add_argument("--convention", choices=["raw", "formality"],
                   default="raw",
                   help="formality: report the raw weight times "
                        "prod_v 1/|Star(v)|!")
    p.add_argument("--target", default=None,
                   help="optional 're,im' reference value to check against")
    p.add_argument("--tol", type=float, default=2e-3)
    p.add_argument("--cache", default=None,
                   help="weight cache path (default from KW_CACHE)")
    p.add_argument("--write-cache", action="store_true")
    p.add_argument("--from-cache", action="store_true",
                   help="report the pooled cached estimate; no sampling")

    p = command("weight", "fit-lambda", cmd_weight_fit_lambda)
    p.add_argument("--graph", required=True)
    _seed_flags(p, "400000", lam=False)

    p = command("weight", "two-valent", cmd_weight_two_valent)
    p.add_argument("--kind", choices=["out-out", "in-out", "in-in"],
                   required=True)
    p.add_argument("--w1", required=True,
                   help="'re,im' in the unit disk; write --w1=-0.2,0.4 "
                        "for negative real parts")
    p.add_argument("--w2", required=True)
    _seed_flags(p, "400000", workers=True)
    p.add_argument("--propagator", choices=["disk", "shoikhet"],
                   default="disk")

    p = command("series", "zeta", cmd_series_zeta)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--terms", type=int, default=10_000)
    p = command("series", "shadow", cmd_series_shadow)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--terms", type=int, default=None)
    p = command("series", "harmonic", cmd_series_harmonic)
    p.add_argument("--m", type=int, required=True)

    p = command("star", "assemble", cmd_star_assemble)
    _structure_flags(p)
    _seed_flags(p, "400000")
    p.add_argument("--f", default=None, help="monomial exponents 'a,b,...'")
    p.add_argument("--g", default=None)
    p.add_argument("--cache", default=None)
    p.add_argument("--dump-ops", action="store_true",
                   help="include the full bidifferential operators")
    p = command("star", "assoc", cmd_star_assoc)
    _structure_flags(p)
    _seed_flags(p, "400000")
    p.add_argument("--triples", type=int, default=5)
    p.add_argument("--deg-max", type=int, default=3)

    p = command("fedosov", "solve", cmd_fedosov_solve)
    p.add_argument("--example", choices=["flat", "curved"],
                   default="curved")
    p.add_argument("--cap", type=int, default=5)
    p = command("fedosov", "star", cmd_fedosov_star)
    p.add_argument("--example", choices=["flat", "curved"], default="flat")
    p.add_argument("--cap", type=int, default=6)
    p.add_argument("--f", default="2,0")
    p.add_argument("--g", default="0,1")

    p = command("geodesic", "exp", cmd_geodesic_exp)
    _metric_flag(p)
    p.add_argument("--order", type=int, default=4)
    _seed_flags(p, lam=False)
    p.add_argument("--taylor", action="store_true",
                   help="also run the flat-section recursion and compare")
    p = command("geodesic", "oracle", cmd_geodesic_oracle)
    _metric_flag(p)
    p.add_argument("--x", default="0,0", help="offset from the base point")
    p.add_argument("--v", default="1,0", help="initial velocity 're,im'")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--order", type=int, default=8)
    _seed_flags(p, lam=False)
    p.add_argument("--tol", type=float, default=None,
                   help="gate the series-vs-ODE gap at this tolerance")

    p = command("verify", "all", cmd_verify_all)
    p.add_argument("--quick", action="store_true",
                   help="reduced sample sizes; statistical gates widen to "
                        "4 sigma of the reduced run")

    # after each command's own flags, so every help screen keeps its order
    for actions in groups.values():
        for p in actions.choices.values():
            p.add_argument("--table", action="store_true",
                           help="human-readable output instead of JSON")
            p.add_argument("--timing", action="store_true",
                           help="include wall-clock seconds (breaks "
                                "byte-for-byte report reproducibility)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        return emit(args, args.fn(args), t0)
    except (UsageError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ArithmeticError) else 2


if __name__ == "__main__":
    sys.exit(main())
