import hashlib
import inspect
import json
import shlex
from dataclasses import fields

import numpy as np
import pytest

from su11 import CoefficientSequence, ExponentPair, QuadratureConfig, hy_ratio
from su11.cli import ExperimentConfig, build_parser, emit_report, load_config, main
from su11 import cli
from su11.errors import ConfigError
from su11.extremizer_search import SearchResult, SweepRow
from su11.inequality_harness import CSV_HEADER, proof_ledger
from su11.nft_core import sequence_from_text, sequence_to_text


@pytest.fixture
def spike_file(tmp_path):
    path = tmp_path / "spike.txt"
    path.write_text(sequence_to_text(CoefficientSequence(0, (0.4,))))
    return path


@pytest.fixture
def fast_args(tmp_path):
    out = tmp_path / "reports"
    return ["--output", str(out), "--rel-tol", "1e-8"], out


# ---------------------------------------------------------------------------
# config handling


def test_config_file_with_overrides(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("# comment\np = 1.3\nseed = 5\nl1_cap = 0.4\n")
    ns = build_parser().parse_args(
        ["ratio", "--config", str(cfg_file), "--p", "1.7"]
    )
    cfg = load_config("ratio", ns)
    assert cfg.p == 1.7  # command line wins
    assert cfg.seed == 5
    assert cfg.l1_cap == 0.4


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("nonsense = 1\n")
    ns = build_parser().parse_args(
        ["ratio", "--config", str(cfg_file)]
    )
    with pytest.raises(ConfigError, match="unknown key"):
        load_config("ratio", ns)


def test_config_digest_stable():
    a = ExperimentConfig(mode="ratio", seed=1)
    b = ExperimentConfig(mode="ratio", seed=1)
    assert a.digest() == b.digest()
    c = ExperimentConfig(mode="ratio", seed=2)
    assert a.digest() != c.digest()


def test_config_digest_ignores_the_report_directory(tmp_path):
    x = ExperimentConfig(mode="verify", seed=1, output=str(tmp_path / "x"))
    y = ExperimentConfig(mode="verify", seed=1, output=str(tmp_path / "y"))
    assert x.digest() == y.digest()
    assert x.digest() == ExperimentConfig(mode="verify", seed=1).digest()


def test_config_digest_ignores_the_worker_count():
    one = ExperimentConfig(mode="search", workers=1)
    assert one.digest() == ExperimentConfig(mode="search", workers=4).digest()


def test_config_table_flags_and_fields_agree():
    """Every config key parses through ``_PARSERS``, and the 14 flags each
    set one config key and hand it over as text."""
    keys = {f.name for f in fields(ExperimentConfig)}
    assert set(cli._PARSERS) == keys
    spellings = ["--input", "--generator", "--output", "--seed", "--p", "--p-values",
                 "--rel-tol", "--cc", "--l1-cap", "--window", "--starts",
                 "--max-iters", "--draws", "--workers"]
    for mode in cli.MODES:
        argv = [mode] + [a for flag in spellings for a in (flag, "7")]
        given = vars(build_parser().parse_args(argv))
        assert given == {"mode": mode, "config": None, **{k: "7" for k in cli._FLAGS}}
    assert set(cli._FLAGS) < keys and len(cli._FLAGS) == len(spellings)


def test_default_and_flag_built_digests_are_pinned():
    expected = {
        "verify": "6ba33316c237", "ratio": "4520087ef75d", "ledger": "7fea473eafca",
        "search": "684bc4e4898f", "sweep": "7ae1d3f125f6", "probe": "43e683f6d345",
    }
    for mode, digest in expected.items():
        assert load_config(mode, build_parser().parse_args([mode])).digest() == digest
    argv = ["sweep", "--p-values", "1.1 1.5", "--window", "0..3", "--cc", "1,1,0.5",
            "--seed", "7", "--starts", "2"]
    assert load_config("sweep", build_parser().parse_args(argv)).digest() == "353637ea20d9"


# (mode, flags or None, config-file line, words the message names)
_BAD_INPUTS = [
    ("search", "--max-iters -1", "max_iters = -1", "max_iters must be >= 0"),
    ("search", None, "init_step = -0.1", "init_step must be positive"),
    ("sweep", "--p-values ''", "p_values =", "p_values must not be empty"),
    ("sweep", "--window 3", "window = 3", "window: needs LO..HI"),
    ("verify", "--draws x", "draws = x", "draws: invalid literal"),
    ("search", "--workers 0", "workers = 0", "workers must be >= 1"),
    ("verify", "--cc 1,1,2", "cc = 1,1,2", "eta must lie in (0, 1]"),
    ("search", "--starts 0", "starts = 0", "starts must be >= 1"),
    ("verify", "--no-such-flag 1", "no_such_key = 1", None),
]


@pytest.mark.parametrize("mode, source, setting, message", [
    pytest.param(mode, source, setting, message, id=setting)
    for mode, flag, line, message in _BAD_INPUTS
    for source, setting in (("flag", flag), ("file", line))
    if setting is not None
])
def test_bad_setting_exits_1_before_any_work(
    capsys, tmp_path, mode, source, setting, message
):
    """A bad value fails in ``load_config``, whatever the mode: exit 1 with a
    message naming the key or the rule, no seed line, no report directory."""
    if source == "flag":
        extra = shlex.split(setting)
    else:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(setting + "\n")
        extra = ["--config", str(cfg_file)]
    out = tmp_path / "out"
    code = main([mode, *extra, "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "seed" not in captured.out
    assert not out.exists()
    if message is None:  # an unknown flag or key
        message = "unrecognized arguments" if source == "flag" else "unknown key"
    assert message in captured.err


@pytest.mark.parametrize("bad", [
    {"draws": 0}, {"p_values": ()}, {"max_iters": -1}, {"cc": (1.0, 1.0, 2.0)},
])
def test_config_built_directly_is_checked_too(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(mode="verify", **bad)


def test_config_rejects_an_unknown_mode_on_construction():
    with pytest.raises(ConfigError, match="unknown mode 'nope'"):
        ExperimentConfig(mode="nope")


def test_ledger_t_samples_default_is_the_ledger_default():
    default = inspect.signature(proof_ledger).parameters["t_samples"].default
    assert ExperimentConfig(mode="ledger").t_samples == default


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--max-iters" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# emit_report


def test_emit_csv_single_report(tmp_path, quad):
    rep = hy_ratio(CoefficientSequence(0, (0.4,)), ExponentPair(1.5), quad)
    path = tmp_path / "r.csv"
    emit_report([rep], "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2


def test_emit_empty_records_refused(tmp_path):
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError):
        emit_report([], "csv", path)
    assert not path.exists()


def test_emit_deterministic_bytes(tmp_path, quad):
    rep = hy_ratio(CoefficientSequence(0, (0.4,)), ExponentPair(1.5), quad)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report([rep, rep], "csv", p1)
    emit_report([rep, rep], "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report([rep], "json", j1)
    emit_report([rep], "json", j2)
    assert j1.read_bytes() == j2.read_bytes()


def test_emit_plot_table(tmp_path):
    path = tmp_path / "t.dat"
    emit_report([(1.0, 2.0), (1.5, 2.5)], "plot", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# x y"
    assert lines[1] == "1.0 2.0"


def test_emit_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        emit_report([(1, 2)], "xml", tmp_path / "x")


# ---------------------------------------------------------------------------
# subcommands end to end


def test_ratio_mode_spike(capsys, spike_file, fast_args):
    extra, out = fast_args
    code = main(["ratio", "--input", str(spike_file), "--p", "1.5", *extra])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("seed ")
    assert (out / "ratio.csv").exists()
    payload = json.loads((out / "ratio.json").read_text())
    assert payload[0]["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_ratio_mode_generator(capsys, fast_args):
    extra, out = fast_args
    code = main(["ratio", "--generator", "equal:10,0.001", "--p", "1.5", *extra])
    assert code == 0
    payload = json.loads((out / "ratio.json").read_text())
    assert payload[0]["ratio"] < 1.0


def test_ledger_mode_spike_marks_preconditions(capsys, spike_file, fast_args):
    extra, out = fast_args
    code = main(["ledger", "--input", str(spike_file), "--p", "1.5", *extra])
    assert code == 0
    rows = (out / "ledger.csv").read_text().splitlines()
    assert rows[0] == CSV_HEADER
    l8 = next(r for r in rows if r.startswith("L8"))
    assert "precondition-failed" in l8
    payload = json.loads((out / "ledger.json").read_text())
    by_id = {e["check_id"]: e for e in payload}
    assert by_id["L8"]["precondition_failed"]
    assert by_id["L9"]["precondition_failed"]
    assert all(by_id[f"L{i}"]["holds"] for i in range(1, 8))


def test_probe_mode_fixture(capsys, tmp_path, fast_args):
    extra, out = fast_args
    seq_path = tmp_path / "two.txt"
    seq_path.write_text(sequence_to_text(CoefficientSequence(0, (0.5, 0.5))))
    code = main(["probe", "--input", str(seq_path), *extra])
    assert code == 0
    captured = capsys.readouterr().out
    assert "slope" in captured
    data = (out / "probe.dat").read_text().splitlines()
    assert data[0] == "# x y"
    assert len(data) == 5


def test_search_mode_round_trips_best_f(capsys, fast_args):
    extra, out = fast_args
    code = main(
        ["search", "--p", "1.5", "--seed", "3", "--starts", "1",
         "--max-iters", "4", "--window", "0..2", *extra]
    )
    assert code == 0
    best = sequence_from_text((out / "best_F.txt").read_text())
    payload = json.loads((out / "search.json").read_text())
    again = CoefficientSequence.from_json_dict(payload[0]["best_F"])
    assert best == again  # exact decimal round-trip through both formats


def test_sweep_mode_emits_plot_table(capsys, fast_args):
    extra, out = fast_args
    code = main(
        ["sweep", "--seed", "3", "--starts", "1", "--max-iters", "2",
         "--window", "0..2", "--p-values", "1.5", *extra]
    )
    assert code == 0
    table = (out / "sweep.dat").read_text().splitlines()
    assert table[0] == "# x y"
    assert len(table) == 2


def test_usage_error_exit_code(capsys, tmp_path):
    code = main(["ratio", "--input", str(tmp_path / "missing.txt")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("offset 0\n0.999999999999999 0.0\n")
    code = main(["ratio", "--input", str(bad), "--p", "1.5"])
    assert code == 1


@pytest.mark.parametrize("payload, problem", [
    ({"offset": 0}, "no 'values'"),
    ({"values": [[0.1, 0.0]]}, "no 'offset'"),
    ([0.1, 0.2], "must be an object"),
    ({"offset": 0, "values": 5}, "list of [re, im] pairs"),
    ({"offset": 0, "values": [[0.1, 0.0, 0.2]]}, "list of [re, im] pairs"),
    ({"offset": 1.5, "values": [[0.1, 0.0]]}, "1.5 is not an integer"),
])
def test_malformed_json_sequence_exits_1(capsys, tmp_path, payload, problem):
    """A malformed JSON sequence file is an error that names the problem,
    not a traceback, and writes no report."""
    bad, out = tmp_path / "bad.json", tmp_path / "reports"
    bad.write_text(json.dumps(payload))
    code = main(["ratio", "--input", str(bad), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and problem in err
    assert not out.exists()


def test_ratio_requires_input(capsys):
    code = main(["ratio", "--p", "1.5"])
    assert code == 1
    assert "input" in capsys.readouterr().err


def test_cli_output_byte_deterministic(tmp_path, spike_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["ratio", "--input", str(spike_file), "--p", "1.5",
                     "--seed", "9", "--output", str(out)])
        assert code == 0
        outs.append((out / "ratio.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", ["search", "sweep"])
@pytest.mark.parametrize("ratio, expected, l1_cap", [
    pytest.param(2.0, 2, "0.5", id="2.0-2"), pytest.param(1.29, 0, "0.5", id="1.29-0"),
    pytest.param(1.3 + 1e-7, 2, "0.5", id="1.3000001-2"),
    pytest.param(2.0, 0, "0.6", id="2.0-0-l1_cap_0.6")])
def test_search_gates_use_the_found_sequence_bound(
    monkeypatch, capsys, tmp_path, mode, ratio, expected, l1_cap
):
    """||F||_1 = 0.1 gives the bound 1.3, below the cap's 1 + 3 * 0.5 = 2.5:
    a ratio between the two is a counterexample for that F, and the gate
    forgives only the 1e-9 of the theorem1 margins (1.3 + 1e-7 fails).  A
    cap above 1/2 leaves the small-l1 hypothesis, so nothing is a
    counterexample."""
    best = CoefficientSequence(0, (0.05, 0.05j))
    e = ExponentPair(1.5)
    result = SearchResult(best, ratio, e, iters_used=0, start_index=0)
    row = SweepRow(e.p, e.q, ratio, ratio, "digest", best, 1.0)
    monkeypatch.setattr(cli, "multi_start", lambda *a, **k: result)
    monkeypatch.setattr(cli, "p_sweep", lambda *a, **k: [row])
    code = main([mode, "--p", "1.5", "--p-values", "1.5", "--l1-cap", l1_cap,
                 "--output", str(tmp_path)])
    assert code == expected
    assert (tmp_path / "counterexample.json").exists() == (expected == 2)


@pytest.mark.parametrize("source, draws", [("flag", "0"), ("flag", "-3"), ("file", "0")])
def test_verify_rejects_draws_below_one(monkeypatch, capsys, tmp_path, source, draws):
    """``--draws 0`` must not fall back to the default draws, nor ``-3`` run a
    suite of no checks: both exit 1 before any suite runs."""

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli.vf, "su11_membership_suite", no_suite)
    if source == "flag":
        extra = ["--draws", draws]
    else:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"draws = {draws}\n")
        extra = ["--config", str(cfg_file)]
    code = main(["verify", *extra, "--output", str(tmp_path / "out")])
    assert code == 1
    assert "draws must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_samples", ["0", "-4"])
def test_ledger_mode_rejects_t_samples_below_one(capsys, tmp_path, spike_file, t_samples):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"t_samples = {t_samples}\n")
    code = main(["ledger", "--config", str(cfg_file), "--input", str(spike_file),
                 "--output", str(tmp_path / "out")])
    assert code == 1
    assert "t_samples must be >= 1" in capsys.readouterr().err


def test_verify_skips_degenerate_linearization_draws(capsys, tmp_path):
    """This seed draws a single ~1e-4 entry whose deviations all sit below
    the fit's noise floor; the draw is recorded as skipped, not a crash."""
    code = main(["verify", "--seed", "3088435141", "--output", str(tmp_path)])
    assert code == 0
    suites = {s["name"]: s for s in json.loads((tmp_path / "verify.json").read_text())}
    lin = suites["linearization"]
    assert lin["passed"] and lin["n_checked"] == 5
    assert "degenerate draws skipped: 1" in lin["notes"]


# sha256 of ``json.dumps([r.to_dict() for r in reports], sort_keys=True)`` for
# the six suites of ``su11 verify``, taken before its parseval draws were
# refined as blocks and its band-check draws folded per grid; only a
# regeneration of the bench reference may move them.  Seed 3 pins the
# scalar folds of the order-sensitivity suite, seed 1391071104 the parseval
# re-check, and one draw a batch fold of one row at one point.
VERIFY_SHA256 = {
    ("--seed", "20260808"): "0d6867f6b735df4d1023bdd9e7cfb06a65f308428df6e15140305ac43444f580",
    ("--seed", "3"): "195b73fd35776f5a67310e62a67c5b97eeec8a0f0bf14afaa98847517b4e5640",
    ("--seed", "1391071104"): "38b48b2fec749e946e671fb0c231311cb5c44e06f204e17044dc660da98145f3",
    ("--draws", "1"): "5faba871008d548e8e65ae3a541fe09f766a6486a56066252e6981326917864b",
}


@pytest.mark.parametrize("flags", sorted(VERIFY_SHA256))
def test_verify_reports_keep_their_pinned_bytes(monkeypatch, capsys, tmp_path, flags):
    records = []
    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", lambda recs, fmt, path:
                        records.append(recs) or emit(recs, fmt, path))
    assert main(["verify", *flags, "--output", str(tmp_path)]) == 0
    (reports,) = records
    assert [r["name"] for r in reports] == [
        "su11-membership", "parseval", "frequency-support", "spike-equality",
        "order-sensitivity", "linearization"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_SHA256[flags]


# sha256 of ``sweep.json`` and ``sweep.dat`` for ``su11 sweep`` at seed
# 20260808, taken before the level caches held whole levels only: the bytes of
# the walk, its re-certification and the spike reference.  Only a
# regeneration of the bench reference may move them.
SWEEP_SHA256 = {
    "sweep.json": "312deb4f0255616096052743d03c49a914143328841806b8cf4b6cbbe5dfe0f3",
    "sweep.dat": "b6901c466a21d8e27d6acb881a0d317e94b4a8c7206141570ddf5d3393ea9cf6",
}


def test_sweep_reports_keep_their_pinned_bytes(tmp_path):
    assert main(["sweep", "--seed", "20260808", "--p-values", "1.1 1.5 1.9",
                 "--starts", "1", "--output", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SWEEP_SHA256}
    assert digests == SWEEP_SHA256


# sha256 of ``ratio.csv``, ``ratio.json``, ``ledger.csv`` and ``ledger.json``,
# with the exit code, for three inputs at the default seed, taken before every
# gate went through ``judge``; the equal input evaluates L8 and L9, and L8 is
# violated there under the placeholder triple.  Only a regeneration of the
# bench reference may move them.
CLI_SHA256 = {
    ("spike:0.4@2",): {
        "ratio": (0, "c409b68d2fae9d66c0152d8292f8e2f33cbe0ddbe94140083f071ba8ff686395",
                  "554f63c4e0941e81cbc1b4b0b2b4b95370c07dff88d2a638fde24bb7c74c4186"),
        "ledger": (0, "31e9644e1e96630c125d647f8244536cb2b6a3473506e42b6b4ca01deb2a228d",
                   "4dac5fc4c51d10bea470ceda8f1598505d533236eb579e6d1e84e40bd1da119f"),
    },
    ("random:0..7,0.4",): {
        "ratio": (0, "36b8f07cb492dd28451e20a4bbe29b3100e56e1d66f1269b749edf4c00ae6a52",
                  "8e4138debc6775c08e5372eec5cad4f7098b0da71c342b8404061a20a365bd60"),
        "ledger": (0, "ca7fcbbb5c8b483de555a07ee81c02c864522862933e3bae44cdc4b43d0e94d1",
                   "829aff45b14e02304d63fd70bbf71cfe22173f07b89ce372de12ef877a3f7f88"),
    },
    ("equal:30,0.004", "--p", "1.1"): {
        "ratio": (0, "1ec28fd82be93e539de2b00efe39f7a40c016dee0c17d1677202c1f96dad4e47",
                  "3ebba98cf393cfa34edade74f5c095e52d444859d8274780290b638e9499e5b6"),
        "ledger": (2, "b83271fdabac43050af95eb05aac145854324ce6e058e7473047e29180c1c526",
                   "0a3ee69840a06fb9870800a8fe1f65a283fae2fae910438891f759a7d251df88"),
    },
}


@pytest.mark.parametrize("mode", ["ratio", "ledger"])
@pytest.mark.parametrize("generator", sorted(CLI_SHA256))
def test_ratio_and_ledger_reports_keep_their_pinned_bytes(capsys, tmp_path, generator, mode):
    code = main([mode, "--generator", *generator, "--output", str(tmp_path)])
    got = (code,) + tuple(hashlib.sha256((tmp_path / f"{mode}.{ext}").read_bytes()).hexdigest()
                          for ext in ("csv", "json"))
    assert got == CLI_SHA256[generator][mode]


def test_an_unconverged_ledger_exits_3(capsys, tmp_path):
    """Eight entries 0.06, 64 apart: the rows of L4-L7 refine to ``max_grid``
    and stay unconverged, and no link is violated, so nothing passes."""
    seq_path = tmp_path / "sparse.json"
    seq = CoefficientSequence(0, ((0.06,) + (0,) * 63) * 7 + (0.06,))
    seq_path.write_text(json.dumps(seq.to_json_dict()))
    out = tmp_path / "reports"
    assert main(["ledger", "--p", "1.9", "--input", str(seq_path), "--output", str(out)]) == 3
    entries = json.loads((out / "ledger.json").read_text())
    assert [e["check_id"] for e in entries if not e["converged"]] == ["L4", "L5", "L6", "L7"]
    assert all(e["holds"] or e["precondition_failed"] for e in entries)
    assert not (out / "counterexample.json").exists()


def _offset_reports(tmp_path, mode, offset):
    """Exit code and report of ``su11 <mode> --p 1.5`` on eight entries of
    modulus below 0.06 at ``offset``, without the contexts, which name
    indices; as a repr, so that a NaN margin equals itself."""
    rng = np.random.default_rng(3)
    mods = rng.uniform(0, 0.06, 8)
    vals = mods * np.exp(2j * np.pi * rng.uniform(size=8))
    seq_path, out = tmp_path / f"at-{offset}.json", tmp_path / f"out-{offset}"
    seq_path.write_text(json.dumps(CoefficientSequence(offset, tuple(vals)).to_json_dict()))
    code = main([mode, "--p", "1.5", "--input", str(seq_path), "--output", str(out)])
    entries = json.loads((out / f"{mode}.json").read_text())
    return code, repr([{k: v for k, v in e.items() if k != "context"} for e in entries])


@pytest.mark.parametrize("mode", ["ratio", "ledger"])
def test_an_offset_past_2_to_the_53_certifies_the_offset_0_numbers(capsys, tmp_path, mode):
    """A translate has the same |a| and |b|, so the same certified numbers:
    at offsets 2**50 and 2**60 both modes exit 0 and report the lhs, rhs,
    ratio and every margin of offset 0 (a shift by a multiple of
    ``max_grid`` keeps every bit)."""
    want = _offset_reports(tmp_path, mode, 0)
    assert want[0] == 0
    for offset in (2**50, 2**60):
        assert _offset_reports(tmp_path, mode, offset) == want


@pytest.mark.parametrize("mode", ["ratio", "ledger"])
def test_no_doubling_leaves_ratio_and_ledger_unresolved(capsys, tmp_path, mode):
    config = tmp_path / "one-level.cfg"
    config.write_text("initial_grid = 256\nmax_grid = 256\n")
    out = tmp_path / "reports"
    assert main([mode, "--config", str(config), "--generator", "random:0..7,0.4",
                 "--output", str(out)]) == 3
    assert "false" in (out / f"{mode}.csv").read_text()
    assert not (out / "counterexample.json").exists()


def test_verify_exits_3_on_an_unresolved_check(monkeypatch, capsys, tmp_path):
    spike = cli.vf.spike_equality_suite
    monkeypatch.setattr(cli.vf, "spike_equality_suite",
                        lambda seed, cfg: spike(seed, QuadratureConfig(256, 256)))
    assert main(["verify", "--output", str(tmp_path)]) == 3
    reports = json.loads((tmp_path / "verify.json").read_text())
    assert [r["name"] for r in reports if "unresolved" in r["worst"]] == ["spike-equality"]
    assert all(r["passed"] for r in reports)
