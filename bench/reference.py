"""Regenerate reference.json: each workload's batch at the default seed.

    python3 bench/reference.py

Run it only on a commit whose outputs are known good; every benchmark run
re-runs these batches and fails loudly on any difference.
"""

import json
import os
import shutil
import sys

from run import ROOT, SRC, git_commit  # also pins the thread variables
import workloads

sys.path.insert(0, str(SRC))


def main() -> int:
    tmp = ROOT / ".bench_tmp" / f"reference-{os.getpid()}"
    out = {
        "command": "python3 bench/reference.py",
        "seed": workloads.DEFAULT_SEED,
        "commit": git_commit(),
        "workloads": {},
    }
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.get(name)
            wl.prepare()
            workdir = tmp / name
            workdir.mkdir(parents=True)
            summary = wl.summarize(wl.run(workloads.DEFAULT_SEED, workdir))
            outcome = wl.check(summary, None)
            if outcome.problems:
                print(f"{name}: {outcome.problems}", file=sys.stderr)
                return 1
            out["workloads"][name] = workloads.reference_summary(summary)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
