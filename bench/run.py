"""Benchmark runner for the su11 package.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py for what one op is and why each was chosen):
certify-narrow, certify-wide, search, verify-cli.  Every run is one process
with one client in a closed loop, ``workers=1`` and BLAS/OpenMP threads
pinned to 1.

A run first re-runs the workload's batch at the default seed and checks it
against ``reference.json`` (``python3 bench/reference.py`` regenerates it),
then builds the run's inputs from ``--seed`` and measures.

The op set holds as many batches as fill ``--seconds`` at their nominal
time, so the op count depends only on the seed and the run length.
``--trace 0`` passes over it until ``--seconds`` have elapsed (at least
once) and reports the end-to-end metrics:

    setup_s      median over fresh interpreters of the time from process
                 start until the first op is ready (imports, inputs)
    wall_s       time to a certified verdict for the run's fixed op count:
                 the sum over batches of each batch's median time
    ops_per_s    ops of the op set divided by wall_s
    peak_rss_mb  peak resident memory of the run process
    ok_frac      ops that passed every check over ops attempted

``--trace 1`` runs the first half of the op set untraced, then again with
the outside-in tracer (tracer.py) installed, and reports the per-layer
metrics.  End-to-end metrics always come from untraced runs.

The last line of standard output is the JSON result; the full record with
run metadata goes to ``.bench_out/results/`` and, for traced runs, the spans
to ``.bench_out/spans/``.  Exit code 0 when every op passed its checks,
1 when any failed, 2 when the package cannot be found.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name: str, seed: int, seconds: float) -> list[float]:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed), str(seconds)]
    out = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        out.append(ready)
    return out


class Runner:
    """Runs batches of one workload in fresh scratch directories."""

    def __init__(self, wl, tmp: Path):
        self.wl = wl
        self.tmp = tmp
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def batch(self, pkg_seed: int, reference=None, tracer=None, run_id="") -> tuple[float, int]:
        """Time one batch and check it; returns (seconds, ops)."""
        self.calls += 1
        workdir = self.tmp / f"call{self.calls}"
        workdir.mkdir(parents=True)
        if tracer is not None:
            tracer.run_id = run_id
        try:
            with tracer or contextlib.nullcontext():
                start = time.perf_counter()
                raw = self.wl.run(pkg_seed, workdir)
                elapsed = time.perf_counter() - start
            outcome = self.wl.check(self.wl.summarize(raw), reference)
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            n = self.wl.nominal_ops
            outcome = workloads.Outcome(n, n, [f"batch seed {pkg_seed} raised"])
            elapsed = math.nan
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems += [f"seed {pkg_seed}: {p}" for p in outcome.problems]
        return elapsed, outcome.ops


def measure(runner: Runner, inputs: list, seconds: float) -> tuple[float, int, int]:
    """Pass over the op set until ``seconds`` elapsed, at least once.

    Returns (wall_s, ops in the op set, passes started)."""
    times = [[] for _ in inputs]
    ops = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        for j, pkg_seed in enumerate(inputs):
            if passes > 1 and time.perf_counter() - start >= seconds:
                break
            elapsed, n = runner.batch(pkg_seed)
            times[j].append(elapsed)
            if passes == 1:
                ops += n
    return sum(statistics.median(t) for t in times), ops, passes


def measure_traced(runner: Runner, inputs: list):
    """Untraced then traced pass over the first half of the op set.

    Returns (per-layer metrics, absent metrics, tracer, ops in the half)."""
    import tracer as tracing

    subset = inputs[: (len(inputs) + 1) // 2]
    untraced = sum(runner.batch(s)[0] for s in subset)
    tr = tracing.Tracer()
    timed = [runner.batch(s, tracer=tr, run_id=f"batch{j}") for j, s in enumerate(subset)]
    metrics, absent = tr.metrics(sum(t for t, _ in timed), untraced)
    return metrics, absent, tr, sum(n for _, n in timed)


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree.

    ``--git-dir`` keeps git from searching the directories above the
    checkout for a repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "su11").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def metadata(args) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "loadavg_start": loadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "su11" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.get(args.workload)
    wl.prepare()
    meta = metadata(args)
    setup = measure_setup(args.workload, args.seed, args.seconds)

    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    runner = Runner(wl, tmp)
    reference = workloads.load_reference()["workloads"][args.workload]
    record = {"meta": meta, "setup_samples_s": setup}
    try:
        runner.batch(workloads.DEFAULT_SEED, reference=reference)  # warm-up and reference check
        inputs = wl.inputs(args.seed, args.seconds)
        if args.trace:
            metrics, absent, tr, ops = measure_traced(runner, inputs)
            record.update(absent=absent, ops=ops)
            tr.write_spans(OUT / "spans" / f"{args.workload}-seed{args.seed}.tsv")
            for name, reason in absent.items():
                print(f"absent: {name}: {reason}", file=sys.stderr)
        else:
            wall, ops, passes = measure(runner, inputs, args.seconds)
            record.update(ops=ops, passes=passes)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "ops_per_s": {"value": ops / wall, "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                "ok_frac": {
                    "value": (runner.attempted - runner.failed) / runner.attempted,
                    "unit": "frac",
                },
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = runner.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    meta["loadavg_end"] = loadavg()
    record.update(metrics=metrics, problems=runner.problems)
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    out = OUT / "results" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    (out / f"seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for problem in runner.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
