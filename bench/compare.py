"""Compare two sets of benchmark runs, parent and change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result records written by run.py (searched
recursively; traced runs are ignored).  One row per (workload, end-to-end
metric) gives each side's run count, median and quartiles, the larger of
the two sides' spreads (quartile distance over median) and a verdict:

    improved    the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ, in the better direction,
                by more than the parent's quartile distance
    no worse    the change's median is worse than the parent's by no more
                than the metric's bound
    worse       it is worse by more than the bound
    unresolved  the spread of either side exceeds the bound, unless every
                change run reads better than every parent run

Runs pair by seed where both sides ran the same seeds, else in file order.
Run it on two sets of runs of the same code to show they agree.  Exit code
1 when any row is worse or unresolved.

Interleave the two sides: run parent and change alternately on the same
seeds, alternating which goes first.  On a shared host the speed of the
same code drifts between sets taken an hour apart by more than the 0.25
bound (AGREEMENT.md records 37% on search wall_s), so two sets run one
after the other can read ``worse`` from the host alone.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(parent: list[tuple], change: list[tuple], better: str, bound: float) -> str:
    """``parent`` and ``change`` are lists of (seed, value) in run order."""
    sign = -1.0 if better == "lower" else 1.0  # gain > 0 means the change is better

    def gain(c, p):
        return sign * (c - p)

    p_vals = [v for _, v in parent]
    c_vals = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = quartiles(c_vals)[1]
    pairs = _pairs(parent, change)
    wins = sum(1 for p, c in pairs if gain(c, p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain(c_med, p_med) > p_q3 - p_q1:
        return "improved"
    if max(spread(p_vals), spread(c_vals)) > bound:
        if all(gain(c, p) > 0 for c in c_vals for p in p_vals):
            return "no worse"
        return "unresolved"
    if p_med == 0:
        worse = 0.0 if c_med == 0 else float("inf")
    else:
        worse = -gain(c_med, p_med) / abs(p_med)
    return "worse" if worse > bound else "no worse"


def _pairs(parent, change) -> list[tuple[float, float]]:
    by_seed = {}
    for seed, v in change:
        by_seed.setdefault(seed, []).append(v)
    pairs = []
    for seed, v in parent:
        if by_seed.get(seed):
            pairs.append((v, by_seed[seed].pop(0)))
    if pairs:
        return pairs
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def load(directory: Path) -> dict[str, dict[str, list[tuple]]]:
    """{workload: {metric: [(seed, value), ...]}} of the untraced runs."""
    out: dict[str, dict[str, list[tuple]]] = {}
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        meta = record.get("meta", {})
        if meta.get("trace") != 0:
            continue
        per = out.setdefault(meta["workload"], {})
        for name, m in record["metrics"].items():
            per.setdefault(name, []).append((meta["seed"], m["value"]))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    header = (f"{'workload':<15} {'metric':<12} {'n':>3} {'parent median':>14} "
              f"{'[q1, q3]':>23} {'n':>3} {'change median':>14} {'[q1, q3]':>23} "
              f"{'spread':>7} {'bound':>6}  verdict")
    print(header)
    bad = 0
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            p, c = parent.get(name, {}).get(m["name"]), change.get(name, {}).get(m["name"])
            if not p or not c:
                print(f"{name:<15} {m['name']:<12} missing on {'parent' if not p else 'change'}")
                bad += 1
                continue
            pq, cq = quartiles([v for _, v in p]), quartiles([v for _, v in c])
            sp = max(spread([v for _, v in p]), spread([v for _, v in c]))
            v = verdict(p, c, m["better"], m["bound"])
            bad += v in ("worse", "unresolved")
            print(f"{name:<15} {m['name']:<12} {len(p):>3} {pq[1]:>14.6g} "
                  f"[{pq[0]:>10.5g}, {pq[2]:>10.5g}] {len(c):>3} {cq[1]:>14.6g} "
                  f"[{cq[0]:>10.5g}, {cq[2]:>10.5g}] {sp:>7.4f} {m['bound']:>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
