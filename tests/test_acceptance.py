"""The fast acceptance criteria, the one pass rule, and the associativity
checks that criterion 9 shares with ``defquant star assoc``."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from defquant import acceptance, cli, propagators, series, star
from defquant import weight_mc as wmc
from defquant.exactpoly import Poly
from defquant.graphs import fan_graph
from defquant.weight_mc import MCResult, WeightSource


@pytest.mark.parametrize("criterion", [
    acceptance.criterion_1, acceptance.criterion_2, acceptance.criterion_5,
    acceptance.criterion_6, acceptance.criterion_7, acceptance.criterion_8,
    acceptance.criterion_10, acceptance.criterion_11,
], ids=lambda fn: fn.__name__)
def test_fast_criterion_passes(criterion):
    res = criterion(quick=True)
    assert res.passed, res.to_jsonable()
    assert res.checks
    for c in res.checks:
        js = c.to_jsonable()
        assert set(js) == {"name", "value", "target", "tolerance", "pass"}
        assert isinstance(js["name"], str)
        assert all(type(js[k]) is float
                   for k in ("value", "target", "tolerance"))
        assert js["pass"] is True
    assert res.to_jsonable()["checks"] == [c.to_jsonable()
                                           for c in res.checks]


def test_criterion_8_fails_a_propagator_that_breaks_conjugation(monkeypatch):
    """Scaling c_mu = (1 - lam) / 2 pi i by 1.05 in the source and target
    halves, the lambda rule every propagator goes through, breaks
    phi_{1-cj lam} = cj phi_lam; the roundoff gate sees it on both
    graphs."""
    def c_mu(lam):
        return 1.05 * (1 - lam) / propagators.TWO_PI_I

    def source(lam, l_s, l_sb):
        c_lam = lam / propagators.TWO_PI_I
        return (c_lam * l_s - c_mu(lam) * np.conj(l_sb),
                c_lam * l_sb - c_mu(lam) * np.conj(l_s))

    def target(lam, l_t):
        return lam / propagators.TWO_PI_I * l_t, -c_mu(lam) * np.conj(l_t)

    monkeypatch.setattr(propagators, "_source_half", source)
    monkeypatch.setattr(propagators, "_target_half", target)
    res = acceptance.criterion_8(quick=True)
    failed = {c.name.split()[0] for c in res.checks if not c.passed}
    assert failed == {"two-cycle", "mixed"}


def test_check_defaults_to_the_tolerance_test():
    assert acceptance.check("a", 1.5, 1, 0.5).passed
    assert not acceptance.check("b", 1.6, 1, 0.5).passed
    assert not acceptance.check("c", float("nan"), 0, 1).passed
    # no verdict can be handed in from outside the rule
    with pytest.raises(TypeError):
        acceptance.check("d", 7, 0, 0, passed=True)


def test_criterion_2_fails_a_wrong_exact_fan_weight(monkeypatch):
    gc, par, _ = fan_graph(3).canonical_form()
    key = gc.to_text()
    monkeypatch.setitem(wmc._EXACT, key, (par * Fraction(1, 7),
                                          wmc._EXACT[key][1]))
    res = acceptance.criterion_2(quick=True)
    assert [c.name for c in res.checks if not c.passed] == ["fan m=3 exact"]


def test_criterion_2_exact_lines_fail_with_the_table_emptied(monkeypatch):
    """Without the table the fans are sampled, and a constant integrand
    reads 1/m! at stderr 0 (fans m = 1, 2 read it exactly); the exact
    lines must still fail, since no weight was known without sampling."""
    monkeypatch.setattr(wmc, "_EXACT", {})
    res = acceptance.criterion_2(quick=True)
    assert [c.name for c in res.checks if not c.passed] == [
        "fan m=1 exact", "fan m=2 exact", "fan m=3 exact"]


def test_criterion_2_gates_the_mc_fan_weights_at_roundoff(monkeypatch):
    """The constant fan integrands read 1/m! to the last bits with one
    sample count in both modes; an estimate off by 1 part in 1e12 fails."""
    quick = acceptance.criterion_2(quick=True).to_jsonable()["checks"]
    assert acceptance.criterion_2(quick=False).to_jsonable()["checks"] \
        == quick
    assert [c["value"] for c in quick if c["name"].endswith(" mc")] \
        == [0.0, 0.0, 0.0]

    def off(*args, **kwargs):
        res = wmc.weight_mc(*args, **kwargs)
        return dataclasses.replace(res, value=res.value * (1 + 1e-12))

    monkeypatch.setattr(acceptance, "weight_mc", off)
    res = acceptance.criterion_2(quick=True)
    assert [c.name for c in res.checks if not c.passed] == [
        "fan m=1 mc", "fan m=2 mc", "fan m=3 mc"]


def test_criterion_6_fails_a_shadow_sum_off_zeta2(monkeypatch):
    """A constant shift by twice the bound at |w| = 0.3, the sum the zeta(2)
    line reads: the constancy lines cannot see it, so that line must."""
    shift = 2 * series.shadow_sum(2, 0.3).bound

    def shifted(n, w_abs, N=None):
        s = series.shadow_sum(n, w_abs, N)
        return dataclasses.replace(s, value=s.value + shift)

    monkeypatch.setattr(acceptance, "shadow_sum", shifted)
    res = acceptance.criterion_6(quick=True)
    assert [c.name for c in res.checks if not c.passed] == [
        "value vs zeta(2)"]


def test_criterion_9_and_star_assoc_take_their_gate_from_star(monkeypatch,
                                                              capsys):
    """Both build their per-triple checks with associativity_checks, from
    star.associativity_residual: per triple, the nonzero orders below 2
    and the nonzero order-2 coefficients.  A spy shifts every residual's
    order 2 by a known polynomial, so a line reads its count only if it
    asked the residual."""
    assert acceptance.associativity_residual is star.associativity_residual
    assert not hasattr(cli, "associativity_residual")
    assert not hasattr(star, "associativity_gate")
    calls = []

    def spy(series, f, g, h, order):
        out = star.associativity_residual(series, f, g, h, order)
        out[order] = out.get(order, Poly.zero(series.dim)) + f * g * h
        calls.append(out)
        return out

    def expected(n_triples):
        assert len(calls) == n_triples
        return [(f"triple {t} {what}", float(v))
                for t, out in enumerate(calls)
                for what, v in (("orders 0,1 exact", len(out) - 1),
                                ("order 2 exact", len(out[2].terms)))]

    monkeypatch.setattr(acceptance, "associativity_residual", spy)
    # a small budget: this test is about wiring, not the gate's verdict
    monkeypatch.setattr(
        acceptance, "WeightSource",
        lambda n_samples, seed: WeightSource(n_samples=4000, seed=seed))

    res = acceptance.criterion_9(quick=True)
    assert [(c.name, c.value) for c in res.checks[:16]] == expected(8)
    assert all(c.value == 1.0 for c in res.checks[1:16:2])
    # then the two sampler lines
    assert [c.name for c in res.checks[16:]] == [
        f"{key} mc vs {value}" for key, value in wmc.EDGE_PAIR_WEIGHTS.items()]

    calls.clear()
    cli.main(["star", "assoc", "--samples", "4000", "--triples", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["value"]) for c in rep["checks"]] == expected(2)
    assert rep["results"] == {"triples": 2, "deg_max": 3}


def test_criterion_9_is_exact_and_samples_only_its_mc_lines(monkeypatch):
    """At lam = 1/2 every (2,2) weight the series needs is exact, so the
    order-2 residual is exactly 0; weight_mc runs for the two sampler
    lines alone, at the criterion's sample count."""
    calls = []
    sample = wmc.weight_mc

    def counted(g, lam=0.5, n_samples=200_000, **kwargs):
        calls.append((g.to_text(), n_samples))
        return sample(g, lam, n_samples, **kwargs)

    monkeypatch.setattr(wmc, "weight_mc", counted)
    monkeypatch.setattr(acceptance, "weight_mc", counted)
    res = acceptance.criterion_9(quick=True)
    assert res.passed, res.to_jsonable()
    assert calls == [(key, 150_000) for key in wmc.EDGE_PAIR_WEIGHTS]
    assert len(res.checks) == 18
    assert all(c.value == 0 for c in res.checks[:16])


@pytest.mark.parametrize("key", [
    *wmc.EDGE_PAIR_WEIGHTS,
    "K(2,2)[1>b1#1, 1>b2#2, 2>b1#1, 2>b2#2]"])
def test_criterion_9_fails_a_fixed_weight_scaled_by_1_001(monkeypatch, key):
    """Each weight that associativity fixes moves the exact order-2
    residual: 1.001 times it fails the gate, on the residual lines."""
    value, lam_only = wmc._EXACT[key]
    assert lam_only is None
    monkeypatch.setitem(wmc._EXACT, key, (value * Fraction(1001, 1000), None))
    res = acceptance.criterion_9(quick=True)
    failed = [c.name for c in res.checks if not c.passed]
    assert failed and all(name.endswith("order 2 exact")
                          for name in failed)


def test_criteria_3_4_and_two_valent_take_their_target_from_weight_mc(
        monkeypatch, capsys):
    """Each check compares the estimate with what two_valent_target says;
    a spy shifts every target by 1/8 and a fake integral returns 0, so a
    check reads |target + 1/8| only if it asked the table."""
    assert acceptance.two_valent_target is wmc.two_valent_target
    assert cli.two_valent_target is wmc.two_valent_target
    targets = []

    def spy(kind, w1, w2, propagator="disk"):
        out = wmc.two_valent_target(kind, w1, w2, propagator)
        targets.append(out)
        return out + 0.125

    def fake(kind, w1, w2, lam=0.5, n_samples=0, seed=0, propagator="disk",
             *, workers=1):
        return MCResult(0j, 1e-6, n_samples, seed, lam)

    for module in (acceptance, cli):
        monkeypatch.setattr(module, "two_valent_target", spy)
        monkeypatch.setattr(module, "two_valent_integral", fake)
    for criterion, n_checks in ((acceptance.criterion_3, 60),
                                (acceptance.criterion_4, 20)):
        targets.clear()
        res = criterion(quick=True)
        assert len(targets) == len(res.checks) == n_checks
        assert [c.value for c in res.checks] == [
            abs(t + 0.125) for t in targets]

    for kind, propagator in (("out-out", "disk"), ("in-in", "shoikhet"),
                             ("out-out", "shoikhet")):
        targets.clear()
        cli.main(["weight", "two-valent", "--kind", kind, "--propagator",
                  propagator, "--w1", "0.2,0.1", "--w2=-0.3,0.4",
                  "--samples", "20"])
        rep = json.loads(capsys.readouterr().out)
        [target] = targets
        assert [c["value"] for c in rep["checks"]] == [abs(target + 0.125)]
