"""The command-line front end, run in-process through ``cli.main``."""

import hashlib
import json
import math
import warnings

import pytest

from defquant import cli
from defquant.cache import pool
from defquant.graphs import AdmissibleGraph, graph2
from defquant.weight_mc import two_valent_integral, weight_mc

# A (3,2) class whose integrand vanishes at every sample although the
# exact-zero screen does not catch it: its estimate has stderr exactly 0.
ZERO_GRAPH = "K(3,2)[1>2#1, 1>b1#2, 2>1#1, 2>b1#2, 3>b1#1, 3>b2#2]"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def report(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_exit_0_when_every_check_passes(capsys):
    code, rep = report(capsys, "series", "zeta", "--n", "3")
    assert code == 0
    assert rep["pass"] is True
    assert [c["name"] for c in rep["checks"]] == ["zeta(3)"]


def test_exit_1_when_a_check_fails(capsys):
    code, rep = report(capsys, "geodesic", "oracle", "--order", "2",
                       "--steps", "100", "--tol", "1e-15")
    assert code == 1
    assert rep["pass"] is False
    assert rep["checks"][0]["pass"] is False


@pytest.mark.parametrize("example", ["flat", "curved"])
def test_a_violated_identity_exits_1_with_one_line(capsys, monkeypatch,
                                                   example):
    """solve_connection raises ArithmeticError when its fixed point breaks
    the normalization: one error line and exit 1, not a traceback."""
    def broken(inp):
        raise ArithmeticError("normalization delta_inv r = 0 violated")

    monkeypatch.setattr(cli, "solve_connection", broken)
    code, out, err = run(capsys, "fedosov", "solve", "--example", example)
    assert (code, out) == (1, "")
    assert err == "error: normalization delta_inv r = 0 violated\n"


def test_catalan_gate_cuts_at_the_leaves_the_cap_allows(capsys):
    """A k-leaf tree starts at Deg 2k+1: at cap 11 the 5-leaf trees
    count, and cutting at 4 leaves would report a false mismatch."""
    code, rep = report(capsys, "fedosov", "solve", "--example", "curved",
                       "--cap", "11")
    assert code == 0
    assert rep["results"]["tree_counts"] == {"1": 1, "2": 1, "3": 2,
                                             "4": 5, "5": 14}


@pytest.mark.parametrize("argv", [
    ("--order", "8", "--x", "0.1,0"),
    ("--order", "8", "--x", "0,0.2"),
    # at the default t = 0.5 the order-5 series misses the ODE by 1e-5
    # already at --x 0,0, so this case shortens the geodesic
    ("--metric", "random", "--order", "5", "--seed", "2", "--x", "0.1,0",
     "--t", "0.1"),
], ids=" ".join)
def test_oracle_starts_the_series_and_the_ode_at_the_offset(capsys, argv):
    """The offset series about the base already contains --x: series and
    ODE start at base + x, and the gap stays at series accuracy."""
    code, rep = report(capsys, "geodesic", "oracle", *argv, "--tol", "1e-6")
    assert code == 0
    assert rep["results"]["gap"] <= 1e-6


@pytest.mark.parametrize("argv", [
    ("weight", "mc", "--graph", "graph2", "--samples", "4000", "--seed",
     "3", "--target", "0.0416667,0"),
    ("weight", "two-valent", "--kind", "in-out", "--w1", "0.2,0.1",
     "--w2=-0.3,0.4", "--samples", "4000", "--seed", "5"),
])
def test_same_seed_gives_byte_identical_reports(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == 0
    assert first[1] == second[1]


# Reports computed in exact arithmetic only, pinned byte for byte by the
# first 16 hex digits of the sha256 of stdout.  Monte Carlo reports stay
# out: numpy's transcendental kernels can differ by an ulp across CPUs.
EXACT_REPORTS = {
    ("fedosov", "star"): "2274ba05dff56b0b",
    ("fedosov", "solve", "--example", "curved", "--cap", "9"):
        "5623814d2d857d0d",
    ("geodesic", "exp", "--metric", "sphere", "--order", "8", "--taylor"):
        "02cb81d958aa4721",
    ("graphs", "enumerate", "--n", "3", "--m", "2", "--canonical"):
        "4ed2d7da4d0e5fb8",
    ("graphs", "enumerate", "--n", "2", "--m", "3", "--out-degree", "3",
     "--allow-parallel", "--canonical"): "5dc49e2fa542817b",
    ("graphs", "enumerate", "--n", "3", "--m", "0", "--out-degree", "1",
     "--canonical"): "a3b5888190b3b192",
    ("star", "assemble", "--structure", "moyal", "--dim", "4", "--samples",
     "20000", "--dump-ops"): "524bb6350f2785b1",
    ("series", "harmonic", "--m", "7"): "355492e65fb4477d",
    ("graphs", "enumerate", "--n", "2", "--m", "2"): "a2d97eb3eee53d57",
    ("fedosov", "star", "--example", "curved", "--cap", "6"):
        "d2cd6a23ac181fa5",
    ("geodesic", "exp", "--metric", "random", "--order", "4", "--seed", "2"):
        "d2bfc62f7947e90d",
    ("geodesic", "exp", "--metric", "poincare", "--order", "6"):
        "acdfb2e53894c38e",
    ("fedosov", "solve", "--example", "flat", "--cap", "4"):
        "8b541ccc440c8293",
}


@pytest.mark.parametrize("argv", sorted(EXACT_REPORTS), ids=" ".join)
def test_exact_report_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] \
        == EXACT_REPORTS[argv]


TWO_VALENT = ("weight", "two-valent", "--kind", "out-out")


@pytest.mark.parametrize("argv", [
    ("weight", "mc", "--graph", "graph2", "--lambda", "nan"),
    ("weight", "mc", "--graph", "graph2", "--lambda", "0.5,inf"),
    ("weight", "mc", "--graph", "graph2", "--target", "nan"),
    TWO_VALENT + ("--w1", "nan", "--w2", "0.1"),
    TWO_VALENT + ("--w1", "0.1", "--w2=-inf"),
    TWO_VALENT + ("--w1", "0.1", "--w2", "0.2", "--lambda=-inf"),
    ("geodesic", "oracle", "--x", "nan"),
    ("geodesic", "oracle", "--v", "1,nan"),
    ("weight", "mc", "--graph", "fan:0"),
    ("weight", "mc", "--graph", "wheel:0"),
    ("weight", "mc", "--graph", "cycle:0"),
    ("fedosov", "solve", "--cap", "-1"),
    ("geodesic", "oracle", "--steps", "0"),
    ("weight", "mc", "--graph", "graph2", "--workers", "0"),
    TWO_VALENT + ("--w1", "0.1", "--w2", "0.2", "--workers", "0"),
    ("weight", "mc", "--graph", "graph2", "--samples", "1"),
    ("weight", "mc", "--graph", "graph2", "--samples", "inf"),
    ("star", "assemble", "--samples", "1"),
    ("geodesic", "oracle", "--order", "2", "--t", "nan"),
    ("geodesic", "oracle", "--order", "2", "--t", "inf"),
    ("star", "assoc", "--deg-max", "1"),
    ("star", "assoc", "--deg-max", "0"),
    ("star", "assoc", "--triples", "0"),
    ("series", "zeta", "--n", "3", "--terms", "-5"),
    ("series", "shadow", "--w", "0.5", "--terms", "0"),
    ("series", "shadow", "--w", "0.5", "--terms", "-2"),
    ("graphs", "enumerate", "--n", "2", "--m", "-1"),
    ("graphs", "enumerate", "--n", "2", "--m", "2", "--out-degree", "-1"),
    ("graphs", "enumerate", "--n", "5", "--m", "2"),
    ("graphs", "enumerate", "--n", "5", "--m", "1", "--allow-parallel",
     "--canonical"),
    ("star", "assemble", "--structure", "moyal", "--dim", "0"),
    ("star", "assemble", "--structure", "moyal", "--dim", "-2"),
    ("star", "assemble", "--structure", "moyal", "--dim", "3"),
    ("star", "assoc", "--structure", "moyal", "--dim", "0"),
    ("star", "assoc", "--structure", "moyal", "--dim", "-2"),
    ("star", "assemble", "--structure", "so3", "--dim", "4"),
    ("star", "assoc", "--structure", "so3", "--dim", "4"),
    ("geodesic", "exp", "--metric", "flat", "--order", "-1"),
    ("geodesic", "exp", "--metric", "sphere", "--order", "-1"),
    ("geodesic", "exp", "--metric", "random", "--order", "-1"),
    ("geodesic", "exp", "--metric", "poincare", "--order", "-1"),
    ("geodesic", "oracle", "--metric", "poincare", "--order", "-1"),
    ("geodesic", "oracle", "--metric", "poincare", "--x", "0,-1"),
    ("geodesic", "oracle", "--metric", "sphere",
     "--x=-0.6435011087932844,0"),
    ("geodesic", "oracle", "--metric", "random", "--x", "5,5"),
    ("weight", "mc", "--graph", "graph2", "--lambda", "half"),
    ("weight", "mc", "--graph", "graph2", "--samples", "many"),
    ("weight", "mc", "--graph", "K(2,2)[1>"),
    ("fedosov", "star", "--f", "2,x"),
    ("weight", "mc", "--graph", "graph2", "--samples", "2000", "--target",
     "0.0416667,0", "--tol", "inf"),
    ("weight", "mc", "--graph", "graph2", "--samples", "2000", "--target",
     "0.0416667,0", "--tol", "nan"),
    ("weight", "mc", "--graph", "graph2", "--samples", "2000", "--tol=-1"),
    ("geodesic", "oracle", "--order", "2", "--tol", "inf"),
    ("geodesic", "oracle", "--order", "2", "--tol", "nan"),
    ("geodesic", "oracle", "--order", "2", "--tol=-1"),
], ids=lambda argv: " ".join(argv))
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (("graphs", "enumerate", "--n", "2", "--m", "-1"), "invalid m -1"),
    (("graphs", "enumerate", "--n", "2", "--m", "2", "--out-degree", "-1"),
     "invalid out-degree -1"),
    (("graphs", "enumerate", "--n", "5", "--m", "2"),
     "too many graphs 24300000"),
    (("graphs", "enumerate", "--n", "5", "--m", "1", "--allow-parallel"),
     "too many graphs 9765625"),
    (("star", "assoc", "--structure", "moyal", "--dim", "0"),
     "invalid dimension 0"),
    (("star", "assemble", "--structure", "so3", "--dim", "4"),
     "invalid dimension 4"),
    (("geodesic", "exp", "--metric", "flat", "--order", "-1"),
     "invalid order -1"),
    (("geodesic", "exp", "--metric", "poincare", "--order", "-1"),
     "invalid order -1"),
    (("geodesic", "oracle", "--metric", "poincare", "--x", "0,-1"),
     "invalid point [0.0, 0.0]"),
    (("weight", "mc", "--graph", "graph2", "--tol", "inf"),
     "invalid tolerance inf"),
    (("geodesic", "oracle", "--order", "2", "--tol=-1"),
     "invalid tolerance -1.0"),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else "")
def test_bad_input_error_names_the_input(capsys, argv, named):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {named}:")


def test_zero_stderr_estimate_round_trips_through_the_cache(capsys,
                                                            tmp_path):
    path = str(tmp_path / "w.jsonl")
    for seed in ("1", "2"):
        code, rep = report(capsys, "weight", "mc", "--graph", ZERO_GRAPH,
                           "--samples", "2000", "--seed", seed,
                           "--write-cache", "--cache", path)
        assert code == 0
        assert rep["results"]["stderr"] == 0.0
    code, rep = report(capsys, "weight", "mc", "--graph", ZERO_GRAPH,
                       "--from-cache", "--cache", path)
    assert code == 0
    assert rep["results"]["value"] == [0.0, 0.0]
    assert rep["results"]["stderr"] == 0.0
    assert rep["results"]["n_samples"] == 4000


def test_one_worker_reports_weight_mcs_estimate_bit_for_bit(capsys):
    """At seed 1 the inverse-variance pool of the one estimate moved its
    value's last bit; a single estimate now pools to itself."""
    code, rep = report(capsys, "weight", "mc", "--graph", "graph2",
                       "--samples", "20000", "--seed", "1")
    res = weight_mc(graph2(), lam=0.5 + 0j, n_samples=20_000, seed=1)
    assert code == 0
    assert rep["results"]["value"] == [res.value.real, res.value.imag]
    assert rep["results"]["stderr"] == res.stderr


def test_pool_with_zero_stderr_is_the_sample_weighted_mean():
    """Zero-stderr estimates need no rule of their own: they pool to
    their sample-weighted mean, with stderr 0 only if they agree, and a
    positive-stderr estimate beside them keeps its weight n."""
    assert pool([(0.5 + 0j, 0.0, 1), (0.5 + 0j, 0.0, 3)]) \
        == (0.5 + 0j, 0.0, 4)
    # mean 0.3125; squares about it 1 (0.1875^2) + 3 (0.0625^2) = 3/64,
    # so the per-sample variance is 3/256 and the stderr sqrt(3/1024)
    assert pool([(0.5 + 0j, 0.0, 1), (0.25 + 0j, 0.0, 3)]) \
        == (0.3125 + 0j, math.sqrt(3 / 1024), 4)
    value, _, n = pool([(0.5 + 0j, 0.0, 1), (9.0 + 1j, 0.1, 100),
                        (0.25 + 0j, 0.0, 3)])
    assert (value, n) == ((0.5 + 900 + 100j + 0.75) / 104, 104)
    for est in ([(0j, 0.0, 0)], [(0j, 0.0, 0), (1 + 0j, 0.5, 5)]):
        with pytest.raises(ValueError, match="without samples"):
            pool(est)


# ---------------------------------------------------------------------
# every subcommand and output mode
# ---------------------------------------------------------------------

def test_verify_all_reports_each_criterion(monkeypatch, capsys):
    from defquant import acceptance
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [acceptance.criterion_5, acceptance.criterion_10])
    code, out, err = run(capsys, "verify", "all", "--quick")
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "verify all"
    assert rep["parameters"] == {"quick": True}
    assert "seconds" not in rep
    assert [c["index"] for c in rep["results"]["criteria"]] == [5, 10]
    assert all("seconds" not in c for c in rep["results"]["criteria"])
    assert [c["name"] for c in rep["checks"]] == [
        f"criterion {c['index']} {c['name']}"
        for c in rep["results"]["criteria"]]
    # the progress lines go to stderr, so stdout stays one JSON document
    assert [line.split()[:2] for line in err.splitlines()] == [
        ["criterion", "5"], ["criterion", "10"]]

    code, rep = report(capsys, "verify", "all", "--quick", "--timing")
    assert code == 0
    assert rep["seconds"] >= 0
    assert all(c["seconds"] >= 0 for c in rep["results"]["criteria"])

    code, out, err = run(capsys, "verify", "all", "--quick", "--table")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["criterion", "5"]
    assert lines[1].split()[:2] == ["criterion", "10"]
    assert lines[2] == f"defquant {cli.__version__}  --  verify all"
    assert lines[-1] == "pass: True"


def test_table_and_timing_layout(capsys):
    code, out, _ = run(capsys, "series", "zeta", "--n", "3", "--table",
                       "--timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"defquant {cli.__version__}  --  series zeta"
    assert lines[1:3] == [f"  {'n':>14s} : 3", f"  {'terms':>14s} : 10000"]
    assert lines[3].startswith(f"  {'seconds':>14s} : ")
    assert lines[4].startswith("  [PASS] zeta(3): value=1.20206")
    assert json.loads("\n".join(lines[5:-1]))["n"] == 3
    assert lines[-1] == "pass: True"

    code, rep = report(capsys, "series", "zeta", "--n", "3", "--timing")
    assert code == 0
    assert rep["seconds"] >= 0
    code, rep = report(capsys, "series", "zeta", "--n", "3")
    assert "seconds" not in rep


@pytest.mark.parametrize("graph, star_factorials", [("fan:3", 6),
                                                     ("graph2", 4)])
def test_formality_convention_divides_star_factorials(capsys, graph,
                                                      star_factorials):
    argv = ("weight", "mc", "--graph", graph, "--samples", "4000", "--seed",
            "3")
    _, raw = report(capsys, *argv)
    code, fmt = report(capsys, *argv, "--convention", "formality")
    assert code == 0
    assert fmt["parameters"]["convention"] == "formality"
    for got, want in zip(fmt["results"]["value"], raw["results"]["value"]):
        assert got == pytest.approx(want / star_factorials, rel=1e-15)
    assert fmt["results"]["stderr"] == pytest.approx(
        raw["results"]["stderr"] / star_factorials, rel=1e-15)


def test_cache_records_are_raw_and_carry_the_relabeling_sign(capsys,
                                                              tmp_path):
    """Written through graph2, read through the canonical member of its
    class, whose relabeling sign is the opposite one; the formality read
    scales the same raw record."""
    canon, par, _ = graph2().canonical_form()
    assert par == -1
    path = tmp_path / "w.jsonl"
    code, wrote = report(capsys, "weight", "mc", "--graph", "graph2",
                         "--samples", "4000", "--seed", "3",
                         "--write-cache", "--cache", str(path))
    assert code == 0
    assert "convention" not in json.loads(path.read_text())
    value = complex(*wrote["results"]["value"])
    read = ("weight", "mc", "--graph", canon.to_text(), "--from-cache",
            "--cache", str(path))
    code, out, _ = run(capsys, *read)
    raw = json.loads(out)["results"]
    assert code == 0
    assert complex(*raw["value"]) == -value
    assert raw["stderr"] == wrote["results"]["stderr"]
    code, fmt = report(capsys, *read, "--convention", "formality")
    assert code == 0
    assert complex(*fmt["results"]["value"]) == -value / 4
    assert fmt["results"]["stderr"] == raw["stderr"] / 4

    # a record of another convention, as older versions wrote them, is
    # skipped and the rest pools unchanged
    rec = dict(json.loads(path.read_text()), convention="formality",
               value=[1.0, 0.0], stderr=1e-9)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    with pytest.warns(UserWarning, match=r"w\.jsonl:2: skipping corrupt"):
        again = run(capsys, *read)
    assert again == (0, out, "")


def test_a_cache_records_seed_reproduces_its_value(capsys, tmp_path):
    """An estimate sampled on the class's canonical member: the record's
    seed gives its value back through weight_mc, with one worker or two.
    One sampled on another member (graph2, parity -1) stores seed null."""
    canon = graph2().canonical_form()[0].to_text()
    path = tmp_path / "w.jsonl"
    common = ("--lambda", "0.3,0.2", "--samples", "20000", "--seed", "5",
              "--write-cache", "--cache", str(path))
    for graph, workers in ((canon, "1"), (canon, "2"), ("graph2", "1")):
        code, _ = report(capsys, "weight", "mc", "--graph", graph,
                         "--workers", workers, *common)
        assert code == 0
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["seed"] for r in recs] == [5, 5, None]
    for rec in recs[:2]:
        res = weight_mc(AdmissibleGraph.from_text(rec["key"]),
                        lam=complex(*rec["lambda"]),
                        n_samples=rec["n_samples"], seed=rec["seed"])
        assert [res.value.real, res.value.imag] == rec["value"]
        assert res.stderr == rec["stderr"]


WORKER_CASES = [
    ("weight", "mc", "--graph", "graph2", "--lambda", "0.3,0.2",
     "--samples", "40001"),
    TWO_VALENT + ("--w1", "0.1,0.2", "--w2=-0.3,0.1", "--samples", "50001",
                  "--lambda", "0.3,0.2"),
    TWO_VALENT + ("--w1", "0.1,0.2", "--w2=-0.3,0.1", "--samples", "50001",
                  "--propagator", "shoikhet"),
]


def test_worker_pool_is_deterministic(capsys, monkeypatch):
    """Worker processes read blocks of the one stream of --seed: two or
    three of them give the --workers 1 report but for
    parameters.workers."""
    import multiprocessing

    from defquant import weight_mc as wmc
    sizes = []
    real_pool = multiprocessing.Pool

    def spy(processes):
        sizes.append(processes)
        return real_pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", spy)
    monkeypatch.setattr(wmc, "_CPUS", 3)
    for argv in WORKER_CASES:
        sizes.clear()
        reports = {}
        for workers in (1, 2, 3):
            code, rep = report(capsys, *argv, "--seed", "3", "--workers",
                               str(workers))
            assert code == 0
            assert rep["parameters"].pop("workers") == workers
            reports[workers] = rep
        assert reports[1] == reports[2] == reports[3], argv
        blocks_after_first = -(-reports[1]["results"]["n_samples"]
                               // wmc.CHUNK) - 1
        assert sizes == [min(w, blocks_after_first) for w in (2, 3)
                         if blocks_after_first >= 2]


def test_one_block_with_two_workers_runs_like_one_worker(capsys,
                                                         monkeypatch):
    """--samples 3 is one block: --workers 2 or 3 no longer exits 2 but
    gives the --workers 1 report but for parameters.workers, and starts
    no process."""
    import multiprocessing

    def no_pool(processes):
        raise AssertionError(f"Pool({processes}) started for one block")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    argv = ("weight", "mc", "--graph", "graph2", "--samples", "3",
            "--seed", "3")
    reports = {}
    for workers in (1, 2, 3):
        code, rep = report(capsys, *argv, "--workers", str(workers))
        assert code == 0
        assert rep["parameters"].pop("workers") == workers
        reports[workers] = rep
    assert reports[1] == reports[2] == reports[3]
    assert reports[1]["results"]["n_samples"] == 3


def test_exact_zero_graph_is_not_sampled(capsys):
    code, rep = report(capsys, "weight", "mc", "--graph", "cycle:2")
    assert code == 0
    res = rep["results"]
    assert res["exact_zero_reason"] is not None
    assert (res["value"], res["stderr"], res["n_samples"]) == (
        [0.0, 0.0], 0.0, 0)


def test_from_cache_errors(capsys, tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    code, out, err = run(capsys, "weight", "mc", "--graph", "graph2",
                         "--from-cache", "--cache", missing)
    assert (code, out) == (2, "")
    assert err == f"error: cache file {missing} does not exist\n"

    path = str(tmp_path / "w.jsonl")
    code, _, _ = run(capsys, "weight", "mc", "--graph", "graph2",
                     "--samples", "2000", "--write-cache", "--cache", path)
    assert code == 0
    code, out, err = run(capsys, "weight", "mc", "--graph", "graph2",
                         "--lambda", "0.25", "--from-cache", "--cache", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: no cached estimate for the class of ")
    assert err.count("\n") == 1


def test_from_cache_with_write_cache_exits_2(capsys, tmp_path):
    """Writing the pooled cached estimate back would count it again as a
    new independent record: the pair is refused and the cache untouched."""
    path = tmp_path / "w.jsonl"
    code, _, _ = run(capsys, "weight", "mc", "--graph", "graph2",
                     "--samples", "2000", "--write-cache", "--cache",
                     str(path))
    assert code == 0
    before = path.read_bytes()
    code, out, err = run(capsys, "weight", "mc", "--graph", "graph2",
                         "--from-cache", "--write-cache", "--cache",
                         str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: --from-cache with --write-cache ")
    assert err.count("\n") == 1
    assert path.read_bytes() == before


@pytest.mark.parametrize("argv", [
    ("weight", "mc", "--graph", "graph2", "--from-cache"),
    ("weight", "mc", "--graph", "graph2", "--samples", "2000",
     "--write-cache"),
    ("star", "assemble", "--samples", "2000"),
], ids=lambda argv: " ".join(argv))
def test_a_cache_path_that_cannot_be_opened_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_cache_alone_is_not_read(capsys, tmp_path):
    """Without --write-cache or --from-cache nothing reads the cache, so
    a corrupt file gives no warning and the report of no --cache."""
    path = tmp_path / "corrupt.jsonl"
    path.write_text("not json\n")
    argv = ("weight", "mc", "--graph", "graph2", "--samples", "2000")
    _, plain, _ = run(capsys, *argv)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out, err) == (0, plain, "")


def test_fit_lambda_passes(capsys):
    code, rep = report(capsys, "weight", "fit-lambda", "--graph", "graph2",
                       "--samples", "20000", "--seed", "1")
    assert code == 0
    assert rep["pass"] is True
    res = rep["results"]
    assert [c["name"] for c in rep["checks"]] == [
        f"reflection order {k}" for k in range(res["degree"] + 1)
    ] + ["Im W(1/2)"]
    assert len(res["coefficients"]) == len(res["stderr"]) == 5
    assert {c["tolerance"] for c in rep["checks"]} == {1e-12 * res["scale"]}


def test_fit_lambda_of_a_constant_integrand_passes(capsys):
    """fan:3's integrand is 1/6 at every sample and every lambda."""
    code, rep = report(capsys, "weight", "fit-lambda", "--graph", "fan:3",
                       "--samples", "2000")
    assert code == 0
    res = rep["results"]
    assert res["coefficients"][0] == pytest.approx([1 / 6, 0], abs=1e-15)
    assert res["stderr"] == [0.0] * 4


def test_two_valent_out_out_matches_the_closed_form(capsys):
    code, rep = report(capsys, "weight", "two-valent", "--kind", "out-out",
                       "--w1", "0.2,0.1", "--w2=-0.3,0.4", "--samples",
                       "20000")
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == ["matches closed form"]
    assert isinstance(rep["results"]["closed_form"], float)


@pytest.mark.parametrize("kind, propagator, w1, w2, names", [
    ("out-out", "shoikhet", "0.2,0.1", "-0.3,0.4", ["matches closed form"]),
    ("in-in", "shoikhet", "0.2,0.1", "-0.3,0.4", ["vanishes"]),
    # the closed form is exactly 0.0 at w1 = w2 = 0
    ("out-out", "disk", "0", "0", ["matches closed form"]),
    ("in-out", "shoikhet", "0.2,0.1", "-0.3,0.4", ["vanishes"]),
    ("in-out", "disk", "0.2,0.1", "-0.3,0.4", ["vanishes"]),
    ("in-in", "disk", "0.2,0.1", "-0.3,0.4", ["vanishes"]),
])
def test_two_valent_checks_the_known_value_only(capsys, kind, propagator,
                                                 w1, w2, names):
    """Every (kind, propagator) pair has a known value and one check."""
    code, rep = report(capsys, "weight", "two-valent", "--kind", kind,
                       "--propagator", propagator, "--w1", w1, f"--w2={w2}",
                       "--samples", "20000", "--seed", "4")
    assert code == 0
    assert [c["name"] for c in rep["checks"]] == names
    res = two_valent_integral(kind, cli.parse_complex(w1),
                              cli.parse_complex(w2), n_samples=20000,
                              seed=4, propagator=propagator)
    got = rep["results"]
    assert (got["value"], got["stderr"]) == (
        [res.value.real, res.value.imag], res.stderr)
    assert ("closed_form" in got) is (names == ["matches closed form"])


def test_two_valent_point_outside_the_disk_exits_2(capsys):
    """two_valent_integral rejects the point, with --workers 2 too."""
    for workers in ("1", "2"):
        code, out, err = run(capsys, "weight", "two-valent", "--kind",
                             "out-out", "--w1", "1.2", "--w2", "0.1",
                             "--workers", workers)
        assert (code, out) == (2, "")
        assert err == "error: w1 and w2 must lie in the open unit disk\n"


def test_weight_mc_of_the_edgeless_graph_reports_one(capsys):
    code, rep = report(capsys, "weight", "mc", "--graph", "K(1,0)[]",
                       "--samples", "1000")
    assert (code, rep["pass"]) == (0, True)
    assert (rep["results"]["value"], rep["results"]["stderr"]) \
        == ([1.0, 0.0], 0.0)


@pytest.mark.parametrize("n, display", [("2", True), ("3", False)])
def test_series_shadow(capsys, n, display):
    code, rep = report(capsys, "series", "shadow", "--n", n, "--w", "0.5")
    assert code == 0
    assert rep["checks"] == []
    res = rep["results"]
    assert res["bound"] >= 0
    assert ("two_wheel_display" in res) is display


def test_series_harmonic(capsys):
    code, rep = report(capsys, "series", "harmonic", "--m", "7")
    assert code == 0
    assert [(c["name"], c["pass"]) for c in rep["checks"]] == [
        ("exact equality", True)]
    res = rep["results"]
    assert "pass" not in res
    assert res["lhs"] == res["mid"] == res["rhs"]


def test_a_flat_section_mismatch_fails_geodesic_exp(capsys, monkeypatch):
    monkeypatch.setattr(cli, "flat_section_mismatches",
                        lambda met, phi, order: 1)
    code, rep = report(capsys, "geodesic", "exp", "--order", "4",
                       "--taylor")
    assert code == 1
    assert [(c["name"], c["value"], c["pass"]) for c in rep["checks"]] == [
        ("flat-section recursion == series", 1.0, False)]


def test_enumerate_lists_every_labeled_graph(capsys):
    code, rep = report(capsys, "graphs", "enumerate", "--n", "2", "--m", "2")
    assert code == 0
    graphs = rep["results"]["graphs"]
    assert rep["results"]["count"] == len(graphs) == len(set(graphs))
    assert "canonical_classes" not in rep["results"]


def test_enumerate_refuses_past_the_bound_before_building(capsys,
                                                          monkeypatch):
    """(5,2) would hold 24,300,000 graphs: exit 2, naming the count and
    the bound, and no graph is built."""
    def build(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(AdmissibleGraph, "_trusted", build)
    code, out, err = run(capsys, "graphs", "enumerate", "--n", "5", "--m",
                         "2", "--canonical")
    assert (code, out) == (2, "")
    assert err == ("error: too many graphs 24300000: an enumeration holds "
                   "at most 2000000\n")


def test_fedosov_star_curved_has_no_oracle_check(capsys):
    code, rep = report(capsys, "fedosov", "star", "--example", "curved",
                       "--cap", "6")
    assert code == 0
    assert rep["checks"] == []
    assert rep["results"]["example"] == "curved"
    assert rep["results"]["star"]
