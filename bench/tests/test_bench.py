"""Tests of the benchmark's own machinery: tracer, reference check, compare."""

import copy
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import su11.cli  # noqa: E402,F401  (load every module the tracer patches)
from su11 import verification as vf  # noqa: E402


def _snapshot() -> dict:
    """Every attribute of every su11 module and traced class."""
    out = {name: dict(vars(m)) for name, m in sys.modules.items()
           if m is not None and name.split(".")[0] == "su11"}
    for t in tracer.TARGETS:
        if ":" in t.owner:
            out[t.owner] = dict(vars(tracer._resolve(t.owner)))
    return out


def test_every_target_is_present_and_every_group_has_a_self_time():
    tr = tracer.Tracer()
    with tr:
        pass
    assert tr.absent == {}
    assert {t.group for t in tracer.TARGETS} <= set(tracer.SELF_GROUPS)


def test_wrappers_restore_every_patched_attribute():
    before = _snapshot()
    tr = tracer.Tracer()
    with tr:
        assert vf.theorem1_suite is not before["su11.verification"]["theorem1_suite"]
        # a name imported into another module is patched there too
        assert vf.proof_ledger is not before["su11.verification"]["proof_ledger"]
        assert _snapshot() != before
    assert _snapshot() == before
    assert tr._patches == []


def test_self_times_plus_unattributed_sum_to_traced_wall():
    tr = tracer.Tracer()
    start = time.perf_counter()
    with tr:
        rep = vf.theorem1_suite(n_draws=2, seed=3, t_samples=16, with_ledger=True)
    wall = time.perf_counter() - start
    metrics, absent = tr.metrics(wall, wall)
    assert absent == {}
    total = sum(m["value"] for k, m in metrics.items() if k.endswith(".self_s"))
    total += metrics["trace.unattributed_s"]["value"]
    assert abs(total - wall) <= 1e-9 * wall
    assert metrics["inequality_harness.ledger.calls"]["value"] == rep.n_checked
    assert metrics["inequality_harness.theorem_margin.calls"]["value"] == rep.n_checked
    assert metrics["nft_core.product.factor_steps"]["value"] > metrics["nft_core.product.points"]["value"]
    assert 0 < metrics["spectral_norms.refine.levels_per_call"]["value"] <= 1
    assert set(metrics) == {m[0] for m in tracer.METRICS}


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == [m[:3] for m in tracer.METRICS]


def test_removed_private_name_is_reported_absent(monkeypatch):
    import su11.spectral_norms as sn

    monkeypatch.delattr(sn, "_refine")
    tr = tracer.Tracer()
    with tr:
        pass
    metrics, absent = tr.metrics(1.0, 1.0)
    assert "_refine" in absent["spectral_norms.refine.calls"]
    assert metrics["spectral_norms.refine.calls"]["value"] == 0.0
    assert "nft_core.product.calls" not in absent


def test_reference_check_catches_a_margin_perturbed_by_1e_9():
    refs = workloads.load_reference()["workloads"]
    for name in ("certify-narrow", "certify-wide"):
        wl = workloads.get(name)
        summary = dict(copy.deepcopy(refs[name]), failures=[])
        assert wl.check(summary, refs[name]).problems == []
        summary["worst"]["margin_rel"] += 1e-9
        outcome = wl.check(summary, refs[name])
        assert outcome.problems and outcome.failed == outcome.ops


def test_reference_check_catches_a_changed_walk_below_the_spike(tmp_path):
    # at p = 1.1 the walk ends below the single spike, so best_ratio and
    # best_F are the spike's and only search_ratio and the digest see the walk
    ref = workloads.load_reference()["workloads"]["search"]
    wl = workloads.get("search")
    wl.prepare()
    summary = wl.summarize(wl.run(workloads.DEFAULT_SEED, tmp_path))
    assert wl.check(summary, ref).problems == []
    row = summary["rows"][0]
    assert row["search_ratio"] < row["best_ratio"]
    for key, value in (("search_ratio", row["search_ratio"] * (1 + 2e-9)), ("digest", "0" * 12)):
        changed = copy.deepcopy(summary)
        changed["rows"][0][key] = value
        outcome = wl.check(changed, ref)
        assert any(key in p for p in outcome.problems) and outcome.failed == wl.starts
    above = copy.deepcopy(summary)
    above["rows"][0]["search_ratio"] = row["best_ratio"] + 1e-6
    assert any("< search_ratio" in p for p in wl.check(above, None).problems)


def test_cli_run_without_report_fails_every_nominal_op():
    wl = workloads.get("verify-cli")
    wl.prepare()
    outcome = wl.check({"exit_code": 1, "suites": {}}, None)
    assert outcome.ops == outcome.failed == wl.nominal_ops > 700
    assert "exit code 1" in outcome.problems


def _runs(values):
    return list(enumerate(values))  # (seed, value)


PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_compare_verdicts_on_synthetic_runs():
    v = compare.verdict
    assert v(_runs(PARENT), _runs([x * 0.8 for x in PARENT]), "lower", 0.1) == "improved"
    assert v(_runs(PARENT), _runs([x * 1.25 for x in PARENT]), "higher", 0.1) == "improved"
    assert v(_runs(PARENT), _runs([x * 1.01 for x in PARENT]), "lower", 0.1) == "no worse"
    assert v(_runs(PARENT), _runs([x * 1.3 for x in PARENT]), "lower", 0.1) == "worse"
    assert v(_runs(PARENT), _runs([x * 0.7 for x in PARENT]), "higher", 0.1) == "worse"
    # 8 of 10 pairs won is short of 9/10, whatever the medians do
    mixed = [x * 0.8 for x in PARENT[:8]] + [x * 1.05 for x in PARENT[8:]]
    assert v(_runs(PARENT), _runs(mixed), "lower", 0.1) == "no worse"


def test_compare_reports_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0, 3.0, 9.0, 11.0, 14.0]
    assert compare.spread(noisy) > 0.1
    assert compare.verdict(_runs(PARENT), _runs(noisy), "lower", 0.1) == "unresolved"
    # a wide spread is still resolved when every change run beats every parent
    # run, here without beating the parent median by its quartile distance
    wide = [float(x) for x in range(1, 11)]
    low = [0.5 + 0.01 * i for i in range(10)]
    assert compare.verdict(_runs(wide), _runs(low), "lower", 0.1) == "no worse"
