"""Time one set-up in a fresh process: `import pluriflow` plus building a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>
Prints {"setup_s": <seconds>} as its only line.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pluriflow  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(json.dumps({"setup_s": time.perf_counter() - T0}))
