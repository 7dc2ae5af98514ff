"""One benchmark process: set a workload up, then run its cycles.

Started by ``run.py``, never by hand.  ``--mode setup`` stops after the
set-up and reports how long it took since ``--t0`` (the parent's clock
just before it started this process); ``--mode run`` then runs whole
cycles until ``--seconds`` have passed, at least one.  With ``--trace 1``
the wrappers of ``tracing`` are installed after the set-up, so set-up and
the untraced runs execute the package exactly as shipped.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_package():
    """Import ``defquant`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "defquant" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no defquant package under {src}")
    sys.path.insert(0, str(src))
    import defquant
    if Path(defquant.__file__).resolve().parent != src / "defquant":
        raise SystemExit(f"perfbench: imported defquant from "
                         f"{defquant.__file__}, not from {src}")
    return defquant


def run_cycles(work, seconds: float, trace: bool, spans_path=None) -> dict:
    """Run whole cycles of ``work`` for ``seconds`` (at least one)."""
    import probes
    import tracing
    from workloads import Cycle

    probe, nominal = probes.PROBES[work.probe]
    tracer = tracing.Tracer() if trace else None
    saved = tracing.install(tracer) if trace else None
    cycles = []
    try:
        t_start = time.perf_counter()
        while not cycles or time.perf_counter() - t_start < seconds:
            c = Cycle(probe)
            mark = tracer.mark() if trace else None
            t0 = time.perf_counter()
            work.cycle(c)
            c.finish()
            rec = {"wall_s": time.perf_counter() - t0, "calls": c.calls,
                   "probes": c.probes, "checks": c.checks,
                   "stderr": c.stderr}
            if trace:
                rec["layers"] = tracing.layer_metrics(tracer, mark,
                                                      len(tracer.start))
            cycles.append(rec)
        wrapped = tracing.wrapped_count()
    finally:
        if trace:
            tracing.uninstall(saved)
    if trace and spans_path:
        tracer.save(spans_path)
    return {"cycles": cycles, "wrapped": wrapped, "probe_nominal_s": nominal}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe0", type=float, required=True,
                    help="python_probe time in the parent just before --t0")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import probes      # before the package, which therefore cannot alter it
    import_package()
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, args.smoke, Path(args.workdir))
    raw = time.time() - args.t0
    after = statistics.median(probes.timed(probes.python_probe)
                              for _ in range(3))
    ref = (args.probe0 + after) / 2
    out = {"setup_raw_s": raw,
           "setup_s": raw / ref * probes.PYTHON_NOMINAL_S}
    if args.mode == "run":
        out.update(run_cycles(work, args.seconds, bool(args.trace),
                              args.spans))
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024)
    out["env"] = {"python": platform.python_version(),
                  "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
