"""Set-up probe: a fresh interpreter imports the package, builds one
workload's inputs and prints ``ready``; run.py times it from process start.

    python3 bench/setup_probe.py WORKLOAD SEED SECONDS
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

wl = workloads.get(sys.argv[1])
wl.prepare()
wl.inputs(int(sys.argv[2]), float(sys.argv[3]))
print("ready", flush=True)
