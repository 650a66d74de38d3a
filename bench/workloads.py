"""The benchmark's workloads: inputs from the seed, one timed batch, checks.

Every workload is a closed loop with one client: the next batch starts only
after the previous one returned.  A run's inputs are package seeds derived
from the run seed, one per batch, so the same seed gives the same inputs.
The number of batches follows from the run length alone (``batch_s`` is the
nominal time of one batch on a 2-vCPU x86 VM), so the op count of a
run is fixed and the same on every commit.  The package only ever receives
those seeds (and, for the CLI workloads, the argument list built from them).

``run`` is the timed call; ``summarize`` turns its raw result into the plain
record that ``check`` compares against the stored reference (default seed)
and against the invariants that hold at any seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260808  # su11.verification.DEFAULT_SEED, the acceptance seed
HELD_OUT_SEED = 90210  # kept out of tuning; for confirming later claims

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# ROADMAP item 3's tolerance for reported margins and worst values
WORST_TOL = 1e-12
RATIO_TOL = 1e-9


@dataclass
class Outcome:
    """Checked result of one batch: ops attempted, ops failed, and why."""

    ops: int
    failed: int
    problems: list


def package_seeds(seed: int, count: int) -> list[int]:
    """``count`` 32-bit package seeds derived deterministically from ``seed``."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


class Workload:
    """Shared input construction; subclasses define the batch and checks.

    ``nominal_ops`` is the op count charged as failed when a batch yields
    no countable result (it raised, or the CLI wrote no report)."""

    batch_s = 1.0
    nominal_ops = 1

    def inputs(self, seed: int, seconds: float) -> list[int]:
        """One package seed per batch, enough batches to fill ``seconds``."""
        return package_seeds(seed, max(1, round(seconds / self.batch_s)))


def _close(value, ref, tol) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _suite_summary(rep) -> dict:
    return {
        "passed": bool(rep.passed),
        "n_checked": int(rep.n_checked),
        "worst": {k: float(v) for k, v in rep.worst.items()},
        "failures": list(rep.failures),
    }


def _check_suite(summary: dict, reference: dict | None, worst_keys) -> list[str]:
    """Problems other than the suite's own counterexamples."""
    problems = []
    if summary["n_checked"] < 1:
        problems.append("suite checked nothing")
    missing = set(worst_keys) - set(summary["worst"])
    if missing:
        problems.append(f"worst keys missing: {sorted(missing)}")
    if not all(math.isfinite(v) for v in summary["worst"].values()):
        problems.append("non-finite worst value")
    if reference is None:
        return problems
    if summary["passed"] != reference["passed"]:
        problems.append("passed differs from reference")
    if summary["n_checked"] != reference["n_checked"]:
        problems.append(
            f"n_checked {summary['n_checked']} != reference {reference['n_checked']}"
        )
    if set(summary["worst"]) != set(reference["worst"]):
        problems.append("worst keys differ from reference")
    for key, ref in reference["worst"].items():
        got = summary["worst"].get(key)
        if got is not None and not _close(got, ref, WORST_TOL):
            problems.append(f"worst {key} = {got!r}, reference {ref!r}")
    return problems


def _suite_outcome(summary: dict, problems: list, ops: int, op_key) -> Outcome:
    """Failed ops are the distinct ops named by the suite's counterexamples;
    any other problem fails every op of the batch."""
    failed = 0
    if problems:
        failed = ops
    elif not summary["passed"]:
        named = {op_key(f) for f in summary["failures"]}
        failed = min(ops, max(1, len(named)))
        problems = [f"suite reported {len(summary['failures'])} counterexamples"]
    return Outcome(ops, failed, problems)


class CertifyNarrow(Workload):
    """theorem1_suite with the ledger on: width <= 12, ||F||_1 <= 1/2, five
    exponents per draw.  One op is one (draw, p) check plus its ledger.

    Chosen because the ledger and ``_refine`` dominate and every sequence is
    re-sampled for five p, so sharing work across exponents shows here.
    """

    name = "certify-narrow"
    draws_per_batch = 20
    batch_s = 0.95
    worst_keys = ("margin_rel", "ratio_max") + tuple(f"L{i}_margin_rel" for i in range(1, 8))

    def prepare(self):
        from su11 import verification

        self.vf = verification
        self.nominal_ops = self.draws_per_batch * len(verification.THEOREM1_PS)

    def run(self, pkg_seed: int, workdir: Path):
        return self.vf.theorem1_suite(
            n_draws=self.draws_per_batch, seed=pkg_seed, t_samples=16, with_ledger=True
        )

    def summarize(self, raw) -> dict:
        return _suite_summary(raw)

    def check(self, summary: dict, reference: dict | None) -> Outcome:
        problems = _check_suite(summary, reference, self.worst_keys)
        ops = max(summary["n_checked"], 1)
        key = lambda f: (json.dumps(f.get("F"), sort_keys=True), f.get("p"))
        return _suite_outcome(summary, problems, ops, key)


class CertifyWide(Workload):
    """theorem2_suite with cc = (1, 1, 1): width 24..48, one exponent per
    draw, margin plus the full ledger including L8/L9.  One op is one draw.

    Chosen because kernel cost per grid point grows with width (the batched
    kernel shows most here), while a single p per sequence means sharing
    across exponents should show almost nothing.
    """

    name = "certify-wide"
    draws_per_batch = 3  # one draw per exponent in THEOREM2_PS
    batch_s = 0.5
    worst_keys = ("margin_rel", "refined_margin_rel", "L8_margin_rel", "L9_margin_rel")

    def prepare(self):
        from su11 import verification
        from su11.inequality_harness import CCParameters

        self.vf = verification
        self.cc = CCParameters(1.0, 1.0, 1.0)
        self.nominal_ops = self.draws_per_batch

    def run(self, pkg_seed: int, workdir: Path):
        return self.vf.theorem2_suite(n_draws=self.draws_per_batch, seed=pkg_seed, cc=self.cc)

    def summarize(self, raw) -> dict:
        return _suite_summary(raw)

    def check(self, summary: dict, reference: dict | None) -> Outcome:
        problems = _check_suite(summary, reference, self.worst_keys)
        if summary["n_checked"] != self.draws_per_batch:
            problems.append(f"n_checked {summary['n_checked']} != {self.draws_per_batch} draws")
        key = lambda f: json.dumps(f.get("F"), sort_keys=True)
        return _suite_outcome(summary, problems, self.draws_per_batch, key)


def _run_cli(argv: list[str]) -> int:
    from su11 import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Search(Workload):
    """``su11 sweep`` in-process: p in {1.1, 1.5, 1.9}, window 0..7, l1 cap
    1/2, one worker, one start per exponent.  One op is one search start.

    Chosen because nearly all time is the walk's inner loop and there is no
    ledger: lockstep search batching shows here, ledger changes must not.
    """

    name = "search"
    p_values = (1.1, 1.5, 1.9)
    starts = 1
    batch_s = 4.2

    def prepare(self):
        from su11 import cli  # noqa: F401  (import cost belongs to set-up)
        from su11.inequality_harness import hy_ratio
        from su11.nft_core import CoefficientSequence
        from su11.spectral_norms import ExponentPair, QuadratureConfig

        self.hy_ratio = hy_ratio
        self.seq_from_json = CoefficientSequence.from_json_dict
        self.exponents = ExponentPair
        self.quad = QuadratureConfig()
        self.nominal_ops = self.starts * len(self.p_values)

    def argv(self, pkg_seed: int, workdir: Path) -> list[str]:
        return [
            "sweep", "--p-values", " ".join(map(str, self.p_values)),
            "--window", "0..7", "--l1-cap", "0.5", "--workers", "1",
            "--starts", str(self.starts), "--seed", str(pkg_seed),
            "--output", str(workdir),
        ]

    def run(self, pkg_seed: int, workdir: Path):
        code = _run_cli(self.argv(pkg_seed, workdir))
        return code, workdir

    def summarize(self, raw) -> dict:
        code, workdir = raw
        path = Path(workdir) / "sweep.json"
        rows = json.loads(path.read_text()) if path.exists() else []
        return {
            "exit_code": code,
            "rows": [
                {k: r[k] for k in ("p", "best_ratio", "search_ratio", "digest", "best_F")}
                for r in rows
            ],
        }

    def check(self, summary: dict, reference: dict | None) -> Outcome:
        ops = self.nominal_ops
        rows = summary["rows"]
        if summary["exit_code"] != 0 or [r["p"] for r in rows] != list(self.p_values):
            problems = [f"exit code {summary['exit_code']}, rows for p = {[r['p'] for r in rows]}"]
            return Outcome(ops, ops, problems)
        ref_rows = reference["rows"] if reference is not None else [None] * len(rows)
        per_row = [self._row_problems(row, ref) for row, ref in zip(rows, ref_rows)]
        failed = self.starts * sum(1 for p in per_row if p)
        return Outcome(ops, failed, [p for row in per_row for p in row])

    def _row_problems(self, row: dict, ref: dict | None) -> list[str]:
        """Each row's best F rechecks to its ratio, which stays under the
        theorem's bound for that F (not the cap) and never below what the
        walk itself returned.  At the default seed the walk's own outcome
        (``search_ratio``) and the digest of the best F must match the
        reference too: ``best_ratio`` alone is floored by the single-spike
        point, so it would not see a changed walk that ends below it."""
        seq = self.seq_from_json(row["best_F"])
        recheck = self.hy_ratio(seq, self.exponents(row["p"]), self.quad).ratio
        ratio = row["best_ratio"]
        bound = 1.0 + 3.0 * float(sum(abs(v) for v in seq.values))
        tag = f"p={row['p']}"
        problems = []
        if not _close(ratio, recheck, RATIO_TOL):
            problems.append(f"{tag}: best_ratio {ratio!r} rechecks as {recheck!r}")
        if ratio > bound * (1.0 + RATIO_TOL):
            problems.append(f"{tag}: best_ratio {ratio!r} > 1 + 3*||F||_1 = {bound!r}")
        if ratio < row["search_ratio"]:
            problems.append(f"{tag}: best_ratio {ratio!r} < search_ratio {row['search_ratio']!r}")
        if ref is None:
            return problems
        for key in ("best_ratio", "search_ratio"):
            if not _close(row[key], ref[key], RATIO_TOL):
                problems.append(f"{tag}: {key} {row[key]!r}, reference {ref[key]!r}")
        if row["digest"] != ref["digest"]:
            problems.append(f"{tag}: best_F digest {row['digest']}, reference {ref['digest']}")
        return problems


class VerifyCli(Workload):
    """``su11 verify`` at default draws, in-process.  One op is one suite
    check as counted in verify.json (about 720 per invocation).

    Chosen because it calls the kernel about 900 times per invocation on
    1- and 256-point grids, so it exposes per-call overhead, and it is the
    only workload covering the CLI report path and the remaining suites.
    """

    name = "verify-cli"
    batch_s = 0.24

    def prepare(self):
        from su11 import cli  # noqa: F401  (import cost belongs to set-up)

        suites = load_reference()["workloads"][self.name]["suites"]
        self.nominal_ops = sum(s["n_checked"] for s in suites.values())

    def argv(self, pkg_seed: int, workdir: Path) -> list[str]:
        return ["verify", "--seed", str(pkg_seed), "--output", str(workdir)]

    def run(self, pkg_seed: int, workdir: Path):
        code = _run_cli(self.argv(pkg_seed, workdir))
        return code, workdir

    def summarize(self, raw) -> dict:
        code, workdir = raw
        path = Path(workdir) / "verify.json"
        suites = json.loads(path.read_text()) if path.exists() else []
        return {
            "exit_code": code,
            "suites": {s["name"]: {"passed": s["passed"], "n_checked": s["n_checked"],
                                   "failures": len(s["failures"])} for s in suites},
        }

    def check(self, summary: dict, reference: dict | None) -> Outcome:
        problems = []
        suites = summary["suites"]
        ops = sum(s["n_checked"] for s in suites.values()) or self.nominal_ops
        if summary["exit_code"] != 0:
            problems.append(f"exit code {summary['exit_code']}")
        if len(suites) != 6:
            problems.append(f"{len(suites)} suites reported, expected 6")
        failed = 0
        for name, s in suites.items():
            if not s["passed"]:
                problems.append(f"suite {name} failed")
                failed += max(1, s["failures"])
        if reference is not None:
            for name, ref in reference["suites"].items():
                got = suites.get(name, {}).get("n_checked")
                if got != ref["n_checked"]:
                    problems.append(f"suite {name}: n_checked {got}, reference {ref['n_checked']}")
                    failed = ops
        if problems and failed == 0:
            failed = ops
        return Outcome(ops, min(ops, failed), problems)


WORKLOADS = {w.name: w for w in (CertifyNarrow, CertifyWide, Search, VerifyCli)}


def get(name: str):
    """A fresh instance of the named workload; KeyError if unknown."""
    return WORKLOADS[name]()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_summary(summary: dict) -> dict:
    """The part of a summary stored as reference (counterexamples dropped)."""
    out = {k: v for k, v in summary.items() if k != "failures"}
    if "rows" in out:
        out["rows"] = [{k: v for k, v in r.items() if k != "best_F"} for r in out["rows"]]
    if "suites" in out:
        out["suites"] = {n: {"n_checked": s["n_checked"]} for n, s in out["suites"].items()}
    return out
