"""Batch front end: su11 verify|ratio|ledger|search|sweep|probe.

Configuration comes from a flat key = value text file plus command-line
overrides (overrides win).  Randomized runs print their seed first so every
failure is replayable.  Exit codes: 0 all checks hold, 2 an inequality
margin violated tolerance (a counterexample file is written), 1 usage or
domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .nft_core import CoefficientSequence, sequence_from_text, sequence_to_text
from .spectral_norms import ExponentPair, QuadratureConfig
from .inequality_harness import (
    CCParameters,
    CSV_HEADER,
    HyReport,
    LedgerEntry,
    _l1,
    hy_ratio,
    proof_ledger,
    quadratic_error_probe,
)
from .extremizer_search import SearchConfig, multi_start, p_sweep
from . import verification as vf

MODES = ("verify", "ratio", "ledger", "search", "sweep", "probe")

@dataclass
class ExperimentConfig:
    mode: str
    input: str | None = None
    generator: str | None = None
    output: str | None = None
    seed: int = vf.DEFAULT_SEED
    p: float = 1.5
    p_values: tuple[float, ...] = (1.1, 1.3, 1.5, 1.7, 1.9)
    rel_tol: float = 1e-10
    initial_grid: int = 256
    max_grid: int = 2**20
    cc: tuple[float, float, float] = (1.0, 1.0, 1.0)
    l1_cap: float = 0.5
    window: tuple[int, int] = (0, 7)
    starts: int = 8
    max_iters: int = 150
    init_step: float = 0.1
    shrink: float = 0.5
    scales: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
    draws: int | None = None
    t_samples: int = 16
    workers: int = 1
    overrides: dict = field(default_factory=dict)

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(self.initial_grid, self.max_grid, self.rel_tol)

    def cc_params(self) -> CCParameters:
        return CCParameters(*self.cc)

    def digest(self) -> str:
        """Names the experiment, not where or how it runs: ``output``,
        ``workers`` (every report is byte-identical at any worker count) and
        the ``overrides`` bookkeeping are left out."""
        keys = sorted(k for k in vars(self) if k not in ("output", "workers", "overrides"))
        blob = repr([(k, getattr(self, k)) for k in keys])
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)} - {"overrides"}


def _parse_kv_file(path: str) -> dict:
    out = {}
    for i, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{i}: unknown key {key!r}")
        out[key] = val
    return out


def _coerce(cfg: ExperimentConfig, key: str, val: str):
    if key in ("input", "generator", "output", "mode"):
        setattr(cfg, key, val)
    elif key in ("seed", "initial_grid", "max_grid", "starts", "max_iters",
                 "t_samples", "workers", "draws"):
        setattr(cfg, key, int(val))
    elif key in ("p", "rel_tol", "l1_cap", "init_step", "shrink"):
        setattr(cfg, key, float(val))
    elif key == "p_values":
        cfg.p_values = tuple(float(x) for x in val.replace(",", " ").split())
    elif key == "scales":
        cfg.scales = tuple(float(x) for x in val.replace(",", " ").split())
    elif key == "cc":
        parts = [float(x) for x in val.replace(",", " ").split()]
        if len(parts) != 3:
            raise ConfigError("cc needs exactly c,gamma,eta")
        cfg.cc = tuple(parts)
    elif key == "window":
        lo, _, hi = val.replace("..", " ").partition(" ")
        cfg.window = (int(lo), int(hi))
    else:
        raise ConfigError(f"unknown key {key!r}")


def load_config(mode: str, args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(mode=mode)
    if args.config:
        for key, val in _parse_kv_file(args.config).items():
            if key == "mode":
                continue  # subcommand wins
            _coerce(cfg, key, val)
    for key in ("input", "generator", "output", "seed", "p", "rel_tol",
                "l1_cap", "starts", "max_iters", "draws", "workers"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
            cfg.overrides[key] = val
    if args.cc is not None:
        _coerce(cfg, "cc", args.cc)
        cfg.overrides["cc"] = args.cc
    if args.window is not None:
        _coerce(cfg, "window", args.window)
        cfg.overrides["window"] = args.window
    if getattr(args, "p_values", None) is not None:
        _coerce(cfg, "p_values", args.p_values)
        cfg.overrides["p_values"] = args.p_values
    if cfg.draws is not None and cfg.draws < 1:
        raise ConfigError(f"draws must be >= 1, got {cfg.draws!r}")
    return cfg


# ---------------------------------------------------------------------------
# input sequences


def _generate(spec: str, seed: int) -> CoefficientSequence:
    """Tiny generator grammar: 'spike:MAG[@INDEX]', 'equal:COUNT,MAG[,START]',
    'random:LO..HI,L1'."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "spike":
            mag, _, idx = rest.partition("@")
            return CoefficientSequence(int(idx) if idx else 0, (float(mag),))
        if kind == "equal":
            parts = rest.split(",")
            count, mag = int(parts[0]), float(parts[1])
            start = int(parts[2]) if len(parts) > 2 else 0
            return CoefficientSequence(start, (complex(mag),) * count)
        if kind == "random":
            rng_spec, _, l1 = rest.partition(",")
            lo, _, hi = rng_spec.partition("..")
            import numpy as np

            from .extremizer_search import random_sequence

            rng = np.random.default_rng(seed)
            return random_sequence(rng, (int(lo), int(hi)), float(l1))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown generator kind {kind!r}")


def load_sequence(cfg: ExperimentConfig) -> CoefficientSequence:
    if cfg.input:
        path = Path(cfg.input)
        text = path.read_text()
        if path.suffix == ".json":
            return CoefficientSequence.from_json_dict(json.loads(text))
        return sequence_from_text(text)
    if cfg.generator:
        return _generate(cfg.generator, cfg.seed)
    raise ConfigError(f"mode {cfg.mode!r} needs an input file or generator spec")


# ---------------------------------------------------------------------------
# report emission


def emit_report(records, fmt: str, path: str | Path):
    """Write records as 'csv', 'json', or 'plot' (two-column '# x y' table).

    Byte-deterministic for fixed input; refuses an empty record list before
    touching the filesystem.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to emit; file not created")
    path = Path(path)
    if fmt == "csv":
        rows = [CSV_HEADER]
        for r in records:
            if isinstance(r, (HyReport, LedgerEntry)):
                rows.append(r.to_csv_row())
            else:
                raise TypeError(f"cannot render {type(r).__name__} as CSV")
        text = "\n".join(rows) + "\n"
    elif fmt == "json":
        payload = [r.to_dict() if hasattr(r, "to_dict") else r for r in records]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "plot":
        lines = ["# x y"]
        for x, y in records:
            lines.append(f"{x!r} {y!r}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _out_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.output) if cfg.output else Path("su11-reports")


def _counterexample_exit(cfg: ExperimentConfig, failures: dict) -> int:
    """Write counterexample.json, print its path and return exit code 2.

    ``failures`` maps each failing suite's name to its counterexamples.
    """
    path = _out_dir(cfg) / "counterexample.json"
    payload = {
        "config_digest": cfg.digest(),
        "seed": cfg.seed,
        "failures": [{"suite": name, "failures": f} for name, f in failures.items()],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"counterexample dump: {path}")
    return 2


# ---------------------------------------------------------------------------
# mode drivers


def _run_verify(cfg: ExperimentConfig) -> int:
    print(f"seed {cfg.seed}")
    quad = cfg.quadrature()
    n = cfg.draws
    reports = [
        vf.su11_membership_suite(n or 500, cfg.seed),
        vf.parseval_suite(n or 100, cfg.seed, quad),
        vf.frequency_support_suite(n or 100, cfg.seed),
        vf.spike_equality_suite(cfg.seed, cfg=quad),
        vf.order_sensitivity_suite(cfg.seed),
        vf.linearization_suite(cfg.seed),
    ]
    for rep in reports:
        for line in rep.summary_lines():
            print(line)
    out = _out_dir(cfg)
    emit_report([r.to_dict() for r in reports], "json", out / "verify.json")
    if not all(r.passed for r in reports):
        return _counterexample_exit(
            cfg, {r.name: r.failures for r in reports if not r.passed}
        )
    return 0


def _run_ratio(cfg: ExperimentConfig) -> int:
    seq = load_sequence(cfg)
    report = hy_ratio(seq, ExponentPair(cfg.p), cfg.quadrature())
    print(f"seed {cfg.seed}")
    print(CSV_HEADER)
    print(report.to_csv_row())
    out = _out_dir(cfg)
    emit_report([report], "csv", out / "ratio.csv")
    emit_report([report], "json", out / "ratio.json")
    return 0


def _run_ledger(cfg: ExperimentConfig) -> int:
    seq = load_sequence(cfg)
    entries = proof_ledger(
        seq, ExponentPair(cfg.p), cfg.cc_params(), cfg.quadrature(),
        t_samples=cfg.t_samples,
    )
    print(f"seed {cfg.seed}")
    print(CSV_HEADER)
    for e in entries:
        print(e.to_csv_row())
    out = _out_dir(cfg)
    emit_report(entries, "csv", out / "ledger.csv")
    emit_report(entries, "json", out / "ledger.json")
    violated = [e for e in entries if not e.holds and not e.precondition_failed]
    if violated:
        return _counterexample_exit(cfg, {"ledger": [
            {"F": seq.to_json_dict(), "check": e.check_id, "margin": e.margin}
            for e in violated
        ]})
    return 0


def _search_config(cfg: ExperimentConfig) -> SearchConfig:
    return SearchConfig(
        window=cfg.window,
        l1_cap=cfg.l1_cap,
        starts=cfg.starts,
        max_iters=cfg.max_iters,
        init_step=cfg.init_step,
        shrink=cfg.shrink,
        seed=cfg.seed,
        quadrature=cfg.quadrature(),
    )


def _violates_small_bound(seq: CoefficientSequence, ratio: float) -> bool:
    """ratio above the bound 1 + 3 ||F||_1 that the small-sequence theorem
    states for this F (held to 1e-6 absolute)."""
    return ratio > 1.0 + 3.0 * _l1(seq) + 1e-6


def _run_search(cfg: ExperimentConfig) -> int:
    print(f"seed {cfg.seed}")
    scfg = _search_config(cfg)
    res = multi_start(ExponentPair(cfg.p), scfg, workers=cfg.workers)
    print(f"best_ratio {res.best_ratio!r} from start {res.start_index}")
    out = _out_dir(cfg)
    emit_report([res.to_dict(scfg)], "json", out / "search.json")
    seq_path = out / "best_F.txt"
    seq_path.parent.mkdir(parents=True, exist_ok=True)
    seq_path.write_text(sequence_to_text(res.best_F))
    # under the small-l1 hypothesis a bound violation is a counterexample
    if scfg.l1_cap <= 0.5 and _violates_small_bound(res.best_F, res.best_ratio):
        return _counterexample_exit(cfg, {"search": [
            {"F": res.best_F.to_json_dict(), "p": cfg.p, "ratio": res.best_ratio,
             "kind": "small-sequence bound violated"}
        ]})
    return 0


def _run_sweep(cfg: ExperimentConfig) -> int:
    print(f"seed {cfg.seed}")
    rows = p_sweep(cfg.p_values, _search_config(cfg), workers=cfg.workers)
    print("p q best_ratio digest")
    for row in rows:
        print(f"{row.p!r} {row.q!r} {row.best_ratio!r} {row.digest}")
    out = _out_dir(cfg)
    emit_report([r.to_dict() for r in rows], "json", out / "sweep.json")
    emit_report([(r.p, r.best_ratio) for r in rows], "plot", out / "sweep.dat")
    bad = [r for r in rows if cfg.l1_cap <= 0.5
           and _violates_small_bound(r.best_F, r.best_ratio)]
    if bad:
        return _counterexample_exit(cfg, {"sweep": [
            {"F": r.best_F.to_json_dict(), "p": r.p, "ratio": r.best_ratio}
            for r in bad
        ]})
    return 0


def _run_probe(cfg: ExperimentConfig) -> int:
    seq = load_sequence(cfg)
    probe = quadratic_error_probe(seq, cfg.scales)
    print(f"seed {cfg.seed}")
    print(f"slope {probe.slope!r}")
    out = _out_dir(cfg)
    emit_report(
        [{"slope": probe.slope, "scales": list(probe.scales),
          "deviations": list(probe.deviations)}],
        "json", out / "probe.json",
    )
    emit_report(list(zip(probe.scales, probe.deviations)), "plot", out / "probe.dat")
    if probe.slope < 2.0 - 0.1:
        return _counterexample_exit(
            cfg, {"probe": [{"F": seq.to_json_dict(), "slope": probe.slope}]}
        )
    return 0


_DRIVERS = {
    "verify": _run_verify,
    "ratio": _run_ratio,
    "ledger": _run_ledger,
    "search": _run_search,
    "sweep": _run_sweep,
    "probe": _run_probe,
}


def run(cfg: ExperimentConfig) -> int:
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    return _DRIVERS[cfg.mode](cfg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11",
        description="Verification and search harness for SU(1,1)-valued "
        "nonlinear Fourier products.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--input", help="sequence file (.txt or .json)")
        sp.add_argument("--generator", help="spike:MAG[@IDX] | equal:N,MAG[,START] | random:LO..HI,L1")
        sp.add_argument("--output", help="report directory (default su11-reports)")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--p-values", dest="p_values")
        sp.add_argument("--rel-tol", dest="rel_tol", type=float)
        sp.add_argument("--cc", help="c,gamma,eta")
        sp.add_argument("--l1-cap", dest="l1_cap", type=float)
        sp.add_argument("--window", help="LO..HI")
        sp.add_argument("--starts", type=int)
        sp.add_argument("--max-iters", dest="max_iters", type=int)
        sp.add_argument("--draws", type=int)
        sp.add_argument("--workers", type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.mode, args)
        code = run(cfg)
    except (FileNotFoundError, ValueError) as exc:  # every su11 error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
