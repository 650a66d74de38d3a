"""Acceptance gate: one test per primary criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The randomized suites print their seeds and keep counterexample
payloads, so any failure here is replayable.
"""

import json
import time

import pytest

from su11 import (
    CCParameters,
    CoefficientSequence,
    ExponentPair,
    QuadratureConfig,
    SearchConfig,
    hy_ratio,
    multi_start,
    quadratic_error_probe,
)
from su11 import verification as vf
from su11.cli import ExperimentConfig, _run_verify

SEED = vf.DEFAULT_SEED
CC = CCParameters(1.0, 1.0, 1.0)


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def theorem1_run():
    t0 = time.time()
    rep = vf.theorem1_suite(n_draws=1000, seed=SEED, t_samples=16, with_ledger=True)
    rep.elapsed = time.time() - t0
    return rep


def test_parseval_identity():
    t0 = time.time()
    rep = vf.parseval_suite(n_draws=100, seed=SEED)
    elapsed = time.time() - t0
    fixture_res = rep.worst["fixture_residual"]
    worst = rep.worst["abs_residual"]
    _report(
        "parseval",
        rep.passed and fixture_res <= 1e-10 and worst <= 1e-9 and elapsed < 10.0,
        f"fixture residual {fixture_res:.2e}, worst of 100 draws {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_su11_membership():
    rep = vf.su11_membership_suite(n_draws=500, seed=SEED)
    _report(
        "su11-membership",
        rep.passed
        and rep.worst["det_rel"] <= 1e-10
        and rep.worst["abs_a_min"] >= 1.0 - 1e-12,
        f"500 draws, worst |det-1|/|a|^2 {rep.worst['det_rel']:.2e}, "
        f"min |a| {rep.worst['abs_a_min']!r}",
    )


def test_trivial_equality_spikes():
    rep = vf.spike_equality_suite(seed=SEED)
    _report(
        "spike-equality",
        rep.passed and rep.worst["abs_ratio_minus_1"] <= 1e-12,
        f"{rep.n_checked} spike ratios, worst |ratio-1| "
        f"{rep.worst['abs_ratio_minus_1']:.2e}",
    )


def test_theorem1_margins(theorem1_run):
    rep = theorem1_run
    ok = (
        rep.passed
        and rep.worst["margin_rel"] >= -1e-9
        and rep.worst["ratio_max"] <= 2.5 + 1e-9
        and rep.elapsed < 300.0
    )
    _report(
        "theorem1",
        ok,
        f"{rep.n_checked} (draw, p) checks, worst rel margin "
        f"{rep.worst['margin_rel']:.3e}, max ratio {rep.worst['ratio_max']!r}, "
        f"{rep.elapsed:.0f}s",
    )


def test_ledger_l1_l7_on_theorem1_suite(theorem1_run):
    rep = theorem1_run
    worst = {k: v for k, v in rep.worst.items() if k.startswith("L")}
    ok = rep.passed and all(v >= -1e-9 for v in worst.values())
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
    _report("ledger-L1-L7", ok, f"worst rel margins: {detail}")


def test_theorem2_sharp_constant():
    rep = vf.theorem2_suite(n_draws=200, seed=SEED, cc=CC)
    ok = (
        rep.passed
        and rep.n_checked == 200
        and rep.worst["margin_rel"] >= -1e-9
        and rep.worst["refined_margin_rel"] >= -1e-9
        and rep.worst["L8_margin_rel"] >= -1e-9
        and rep.worst["L9_margin_rel"] >= -1e-9
    )
    _report(
        "theorem2",
        ok,
        f"200 condition-(9) draws, worst margins: plain "
        f"{rep.worst['margin_rel']:.3e}, refined "
        f"{rep.worst['refined_margin_rel']:.3e}, L8 "
        f"{rep.worst['L8_margin_rel']:.3e}, L9 {rep.worst['L9_margin_rel']:.3e}",
    )


def test_endpoints():
    rep = vf.endpoint_suite(n_draws=25, seed=SEED)
    ok = (
        rep.passed
        and rep.worst["p2_abs_ratio_minus_1"] <= 1e-9
        and rep.worst["p1_ratio_max"] <= 1.0 + 1e-9
    )
    _report(
        "endpoints",
        ok,
        f"p=2 worst |ratio-1| {rep.worst['p2_abs_ratio_minus_1']:.2e}, "
        f"p=1 max ratio {rep.worst['p1_ratio_max']!r}",
    )


def test_linearization_probe():
    probe = quadratic_error_probe(
        CoefficientSequence(0, (0.5, 0.5)), (0.1, 0.05, 0.025, 0.0125)
    )
    _report(
        "linearization",
        probe.slope >= 2.0 - 0.1,
        f"fitted slope {probe.slope:.4f} (cubic expected, >= 1.9 required)",
    )


def test_search_soundness():
    t0 = time.time()
    cfg = SearchConfig(
        window=(0, 7), l1_cap=0.5, starts=20, max_iters=150, seed=SEED,
        quadrature=QuadratureConfig(),
    )
    e = ExponentPair(1.9)
    res1 = multi_start(e, cfg, workers=1)
    res4 = multi_start(e, cfg, workers=4)
    elapsed = time.time() - t0
    reproducible = (
        res1.best_F == res4.best_F
        and res1.best_ratio == res4.best_ratio
        and res1.start_index == res4.start_index
    )
    in_range = 1.0 - 1e-9 <= res1.best_ratio <= 1.0 + 3 * 0.5 + 1e-6
    recheck = hy_ratio(res1.best_F, e, cfg.quadrature).ratio
    reproducible_ratio = abs(recheck - res1.best_ratio) <= 1e-9 * max(1.0, recheck)
    _report(
        "search-soundness",
        in_range and reproducible and reproducible_ratio and elapsed < 120.0,
        f"best_ratio {res1.best_ratio!r} from start {res1.start_index}, "
        f"thread-invariant={reproducible}, recheck ok={reproducible_ratio}, "
        f"{elapsed:.0f}s",
    )


def test_counterexample_surfacing(tmp_path, monkeypatch, capsys):
    """The open problems stay open here: violations are never tolerated
    silently, they exit with code 2 and a replayable dump."""
    bad = vf.SuiteReport("injected", seed=1)
    bad.fail(F={"offset": 0, "values": [[0.5, 0.0]]}, p=1.5, margin=-1.0)
    monkeypatch.setattr(vf, "su11_membership_suite", lambda *a, **k: bad)
    cfg = ExperimentConfig(
        mode="verify", seed=1, output=str(tmp_path), draws=2, rel_tol=1e-8
    )
    code = _run_verify(cfg)
    out = capsys.readouterr().out
    dump = json.loads((tmp_path / "counterexample.json").read_text())
    ok = (
        code == 2
        and out.startswith("seed 1")
        and dump["failures"][0]["suite"] == "injected"
        and dump["failures"][0]["failures"][0]["margin"] == -1.0
        and "config_digest" in dump
    )
    _report(
        "counterexample-surfacing",
        ok,
        f"exit code {code}, dump carries offending F, margin, config digest",
    )
