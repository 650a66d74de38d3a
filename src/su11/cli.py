"""Batch front end: su11 verify|ratio|ledger|search|sweep|probe.

Configuration comes from a flat key = value text file plus command-line
flags (flags win); each value's text is parsed once by its key's parser and
the whole configuration is checked before any mode runs, whatever the mode.
Randomized runs print their seed first so every failure is replayable.
Exit codes (gates by ``judge``): 0 all checks hold, 2 an inequality margin
violated tolerance (a counterexample file is written), 3 none violated but one
unconverged (search and sweep carry no norm: never 3), 1 usage or domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .nft_core import CoefficientSequence, sequence_from_text, sequence_to_text
from .spectral_norms import ExponentPair, QuadratureConfig
from .inequality_harness import (
    LEDGER_T_SAMPLES,
    PROBE_SCALES,
    CCParameters,
    CSV_HEADER,
    DEFAULT_MARGIN_TOL,
    HyReport,
    LedgerEntry,
    _l1,
    hy_ratio,
    judge,
    proof_ledger,
    quadratic_error_probe,
)
from .extremizer_search import SearchConfig, multi_start, p_sweep, random_sequence
from . import verification as vf

MODES = ("verify", "ratio", "ledger", "search", "sweep", "probe")

@dataclass
class ExperimentConfig:
    mode: str
    input: str | None = None
    generator: str | None = None
    output: str = "su11-reports"
    seed: int = vf.DEFAULT_SEED
    p: float = 1.5
    p_values: tuple[float, ...] = (1.1, 1.3, 1.5, 1.7, 1.9)
    rel_tol: float = QuadratureConfig.rel_tol
    initial_grid: int = QuadratureConfig.initial_grid
    max_grid: int = QuadratureConfig.max_grid
    cc: tuple[float, float, float] = astuple(vf.PLACEHOLDER_CC)
    l1_cap: float = SearchConfig.l1_cap
    window: tuple[int, int] = SearchConfig.window
    starts: int = SearchConfig.starts
    max_iters: int = SearchConfig.max_iters
    init_step: float = SearchConfig.init_step
    shrink: float = SearchConfig.shrink
    scales: tuple[float, ...] = PROBE_SCALES
    draws: int | None = None
    t_samples: int = LEDGER_T_SAMPLES
    workers: int = 1

    def __post_init__(self):
        """Build what the modes build, so a bad value fails here, before any
        mode prints or writes."""
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.p_values:
            raise ConfigError("p_values must not be empty")
        for p in (self.p, *self.p_values):
            ExponentPair(p)
        self.cc_params()
        self.search()  # builds the QuadratureConfig too
        for key, low in (("seed", 0), ("draws", 1), ("t_samples", 1), ("workers", 1)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value!r}")

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(self.initial_grid, self.max_grid, self.rel_tol)

    def cc_params(self) -> CCParameters:
        return CCParameters(*self.cc)

    def search(self) -> SearchConfig:
        return SearchConfig(
            window=self.window,
            l1_cap=self.l1_cap,
            starts=self.starts,
            max_iters=self.max_iters,
            init_step=self.init_step,
            shrink=self.shrink,
            seed=self.seed,
            quadrature=self.quadrature(),
        )

    def digest(self) -> str:
        """Names the experiment, not where or how it runs: ``output`` and
        ``workers`` (every report is byte-identical at any worker count) are
        left out."""
        keys = sorted(k for k in vars(self) if k not in ("output", "workers"))
        blob = repr([(k, getattr(self, k)) for k in keys])
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _cc(text: str) -> tuple[float, float, float]:
    parts = _floats(text)
    if len(parts) != 3:
        raise ConfigError(f"needs exactly c,gamma,eta, got {text!r}")
    return parts


def _window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"needs LO..HI, got {text!r}")
    return int(lo), int(hi)


# One parser per config key, for file and flag texts alike.
_PARSERS = {
    "mode": str, "input": str, "generator": str, "output": str,
    "seed": int, "p": float, "p_values": _floats, "rel_tol": float,
    "initial_grid": int, "max_grid": int, "cc": _cc, "l1_cap": float,
    "window": _window, "starts": int, "max_iters": int, "init_step": float,
    "shrink": float, "scales": _floats, "draws": int, "t_samples": int,
    "workers": int,
}

# The keys a flag sets (``--p-values`` sets ``p_values``), with their help.
_FLAGS = {
    "input": "sequence file (.txt or .json)",
    "generator": "spike:MAG[@IDX] | equal:N,MAG[,START] | random:LO..HI,L1",
    "output": "report directory (default su11-reports)",
    "seed": None, "p": None, "p_values": None, "rel_tol": None,
    "cc": "c,gamma,eta", "l1_cap": None, "window": "LO..HI",
    "starts": None, "max_iters": None, "draws": None, "workers": None,
}


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
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{i}: unknown key {key!r}")
        out[key] = val
    return out


def load_config(mode: str, args: argparse.Namespace) -> ExperimentConfig:
    """The config file's texts, overwritten by each given flag and by the
    subcommand, each parsed once; building the config checks every value."""
    texts = _parse_kv_file(args.config) if args.config else {}
    texts.update({k: v for k in _FLAGS if (v := getattr(args, k)) is not None})
    texts["mode"] = mode
    values = {}
    for key, text in texts.items():
        try:
            values[key] = _PARSERS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return ExperimentConfig(**values)


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


def _counterexample_exit(cfg: ExperimentConfig, failures: dict) -> int:
    """Write counterexample.json, print its path and return exit code 2.

    ``failures`` maps each failing suite's name to its counterexamples.
    """
    path = Path(cfg.output) / "counterexample.json"
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
    n = {} if cfg.draws is None else {"n_draws": cfg.draws}
    reports = [
        vf.su11_membership_suite(seed=cfg.seed, **n),
        vf.parseval_suite(seed=cfg.seed, cfg=quad, **n),
        vf.frequency_support_suite(seed=cfg.seed, **n),
        vf.spike_equality_suite(cfg.seed, cfg=quad),
        vf.order_sensitivity_suite(cfg.seed),
        vf.linearization_suite(cfg.seed),
    ]
    for rep in reports:
        for line in rep.summary_lines():
            print(line)
    out = Path(cfg.output)
    emit_report([r.to_dict() for r in reports], "json", out / "verify.json")
    if not all(r.passed for r in reports):
        return _counterexample_exit(
            cfg, {r.name: r.failures for r in reports if not r.passed}
        )
    return 3 if any("unresolved" in r.worst for r in reports) else 0


def _run_ratio(cfg: ExperimentConfig) -> int:
    seq = load_sequence(cfg)
    report = hy_ratio(seq, ExponentPair(cfg.p), cfg.quadrature())
    print(f"seed {cfg.seed}")
    print(CSV_HEADER)
    print(report.to_csv_row())
    out = Path(cfg.output)
    emit_report([report], "csv", out / "ratio.csv")
    emit_report([report], "json", out / "ratio.json")
    return 0 if report.lhs.converged else 3


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
    out = Path(cfg.output)
    emit_report(entries, "csv", out / "ledger.csv")
    emit_report(entries, "json", out / "ledger.json")
    verdicts = {e.check_id: judge(e.margin_rel, -DEFAULT_MARGIN_TOL, e.converged, True)
                for e in entries if not e.precondition_failed}
    violated = [e for e in entries if verdicts.get(e.check_id) == "violated"]
    if violated:
        return _counterexample_exit(cfg, {"ledger": [
            {"F": seq.to_json_dict(), "check": e.check_id, "margin": e.margin}
            for e in violated
        ]})
    return 3 if "unresolved" in verdicts.values() else 0


def _breaks_theorem1(ratio: float, best_F: CoefficientSequence, l1_cap: float) -> bool:
    """The counterexample rule of ``search`` and ``sweep``: under the
    small-l1 hypothesis (``l1_cap <= 1/2``), a ratio over the found F's own
    bound 1 + 3 ||F||_1 (forgiving ``DEFAULT_MARGIN_TOL``)."""
    return l1_cap <= 0.5 and judge(
        ratio, 1.0 + 3.0 * _l1(best_F) + DEFAULT_MARGIN_TOL) == "violated"


def _run_search(cfg: ExperimentConfig) -> int:
    print(f"seed {cfg.seed}")
    scfg = cfg.search()
    res = multi_start(ExponentPair(cfg.p), scfg, workers=cfg.workers)
    print(f"best_ratio {res.best_ratio!r} from start {res.start_index}")
    out = Path(cfg.output)
    emit_report([res.to_dict(scfg)], "json", out / "search.json")
    seq_path = out / "best_F.txt"
    seq_path.parent.mkdir(parents=True, exist_ok=True)
    seq_path.write_text(sequence_to_text(res.best_F))
    if _breaks_theorem1(res.best_ratio, res.best_F, scfg.l1_cap):
        return _counterexample_exit(cfg, {"search": [
            {"F": res.best_F.to_json_dict(), "p": cfg.p, "ratio": res.best_ratio,
             "kind": "small-sequence bound violated"}
        ]})
    return 0


def _run_sweep(cfg: ExperimentConfig) -> int:
    print(f"seed {cfg.seed}")
    rows = p_sweep(cfg.p_values, cfg.search(), workers=cfg.workers)
    print("p q best_ratio digest")
    for row in rows:
        print(f"{row.p!r} {row.q!r} {row.best_ratio!r} {row.digest}")
    out = Path(cfg.output)
    emit_report([r.to_dict() for r in rows], "json", out / "sweep.json")
    emit_report([(r.p, r.best_ratio) for r in rows], "plot", out / "sweep.dat")
    bad = [r for r in rows if _breaks_theorem1(r.best_ratio, r.best_F, cfg.l1_cap)]
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
    out = Path(cfg.output)
    emit_report(
        [{"slope": probe.slope, "scales": list(probe.scales),
          "deviations": list(probe.deviations)}],
        "json", out / "probe.json",
    )
    emit_report(list(zip(probe.scales, probe.deviations)), "plot", out / "probe.dat")
    if judge(probe.slope, 2.0 - 0.1, smaller_is_worse=True) == "violated":
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
    return _DRIVERS[cfg.mode](cfg)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, like any other
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su11",
        description="Verification and search harness for SU(1,1)-valued "
        "nonlinear Fourier products.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="flat key = value config file")
        for key, help_text in _FLAGS.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return run(load_config(args.mode, args))
    except (FileNotFoundError, ValueError) as exc:  # every su11 error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
