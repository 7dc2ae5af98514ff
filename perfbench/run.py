"""Benchmark of defquant: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-weights --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the end-to-end metrics are measured: set-up runs in
several fresh processes (median reported), then one process runs whole
workload cycles for ``--seconds``.  With ``--trace 1`` an untraced process
and a traced process each run for half of ``--seconds``, and the per-layer
metrics come from the traced one.  Every process runs single-threaded
against a fresh temporary weight cache.  Times are reported at reference
speed (see ``probes``).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("mc-weights", "exact-jets", "star-assembly")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# job-level figures of the untraced process, reported with the per-layer
# metrics (0 on a workload that does not run the job)
FIGURES = ("samples_per_s", "mc_efficiency", "exp_map8_s", "fedosov_star_s",
           "class_table3_s", "star_cold_s", "star_warm_s", "assoc_s")
EXTRA_SETUPS = 2          # set-up processes besides the measuring one
DEADLINE_S = 170.0        # every process is stopped before this


class ChildFailed(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("per_s") or name == "mc_efficiency":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")) or name == \
            "graphs.labeled_per_class":
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def environment(seed: int) -> dict:
    """Commit (when the checkout is a git work tree), a digest of the
    package sources, the machine and the seed."""
    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
            capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "defquant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "seed": seed}


def child(args, mode: str, trace: int, seconds: float, workdir: Path,
          deadline: float, spans: Path | None = None) -> dict:
    env = dict(os.environ, KW_CACHE=str(workdir / "weights.jsonl"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    probe0 = probes.timed(probes.python_probe)
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--mode", mode, "--t0", repr(t0), "--probe0", repr(probe0),
           "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process ran past the deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_calls(run) -> list:
    """Each timed call of a cycle as (job, seconds, MC data), its seconds
    at reference speed: the median over the run's cycles of the call's
    time divided by the mean of the probes just before and after it,
    times the probe's nominal time (see ``probes``)."""
    ratios = []
    for c in run["cycles"]:
        p = c["probes"]
        ratios.append([call[1] * 2 / (p[i] + p[i + 1])
                       for i, call in enumerate(c["calls"])])
    return [(job, run["probe_nominal_s"] * statistics.median(col), mc)
            for (job, _, *mc), col in zip(run["cycles"][0]["calls"],
                                          zip(*ratios))]


def cycle_s(run) -> float:
    return sum(t for _, t, _ in reference_calls(run))


def job_figures(run) -> tuple[dict, dict]:
    """(seconds per job, job-level figures) of a run, at reference speed."""
    calls = reference_calls(run)
    jobs: dict[str, float] = {}
    for job, t, _ in calls:
        jobs[job] = jobs.get(job, 0.0) + t
    figures = {name: jobs.get(name[:-2], 0.0) for name in FIGURES
               if name.endswith("_s")}
    mc = [(t, n, se) for _, t, (n, se) in (call for call in calls if call[2])]
    if mc:
        figures["samples_per_s"] = (sum(n for _, n, _ in mc)
                                    / sum(t for t, _, _ in mc))
        logs = [-math.log(se * se * t) for t, _, se in mc if se > 0]
        figures["mc_efficiency"] = math.exp(sum(logs) / len(logs))
    return jobs, figures


def _median_over(cycles, key: str) -> dict:
    names = cycles[0][key]
    return {n: statistics.median(c[key][n] for c in cycles) for n in names}


def measure(args, workdir: Path, deadline: float):
    """Run the processes; returns (metrics, checks, record)."""
    if args.trace == 0:
        n_setups = 0 if args.smoke else EXTRA_SETUPS
        setups = [child(args, "setup", 0, 0, workdir, deadline)["setup_s"]
                  for _ in range(n_setups)]
        main = child(args, "run", 0, args.seconds, workdir, deadline)
        setups.append(main["setup_s"])
        metrics = {
            "wall_s": cycle_s(main),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        record = {"setups_s": setups, "untraced": main}
        runs = [main]
    else:
        half = args.seconds / 2
        ref = child(args, "run", 0, half, workdir, deadline)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        traced = child(args, "run", 1, half, workdir, deadline, spans)
        metrics = _median_over(traced["cycles"], "layers")
        metrics.update(dict.fromkeys(FIGURES, 0.0))
        metrics.update(job_figures(ref)[1])
        wall = cycle_s(traced)
        ref_wall = cycle_s(ref)
        metrics.update({"trace.wall_traced_s": wall,
                        "trace.wall_untraced_s": ref_wall,
                        "trace.overhead_s": wall - ref_wall})
        record = {"untraced": ref, "traced": traced, "spans": spans.name}
        runs = [ref, traced]
    checks = [chk for run in runs for c in run["cycles"]
              for chk in c["checks"]]
    return metrics, checks, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "defquant" / "__init__.py").is_file():
        print(f"perfbench: no defquant package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics, checks, record = measure(args, workdir, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not passed for _, passed, _ in checks)
    env = environment(args.seed)
    env.update(record["untraced"]["env"])
    if args.trace:
        metrics["checks_failed_frac"] = failed / len(checks)
        units = {name: unit_of(name) for name in metrics}
    else:
        units = END_TO_END
    record.update(workload=args.workload, trace=args.trace, env=env,
                  metrics=metrics, units=units)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("perfbench " + " ".join(f"{k}={v}" for k, v in
                                  [("workload", args.workload),
                                   ("trace", args.trace)] + list(env.items())))
    cycles = record["untraced"]["cycles"]
    print(f"cycles: {len(cycles)} untraced, median cycle "
          f"{statistics.median(c['wall_s'] for c in cycles):.4f} s by the "
          "clock")
    jobs, figures = job_figures(record["untraced"])
    for job, sec in jobs.items():
        print(f"job {job}: {sec:.4f} s at reference speed")
    for name, value in figures.items():
        if value:
            print(f"figure {name}: {value:.6g} {unit_of(name)}")
    print(f"checks: {len(checks)} attempted, {failed} failed, "
          f"checks_failed_frac {failed / len(checks):.4g}")
    for name, passed, value in checks:
        if not passed:
            print(f"FAILED check: {name} (value {value})")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
