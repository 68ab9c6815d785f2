"""Set-up probe: import pblab, build one workload's inputs, report ready.

    python3 perfbench/probe.py <workload> <seed>

``run.py`` starts this in a fresh process and times it from start until
the ``ready`` line, which is the set-up every ``pblab`` invocation pays.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
