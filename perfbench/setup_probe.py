"""One set-up as a user pays it, in a fresh process.

Imports the library (numpy, scipy and the HiGHS bindings come with it),
then loads or generates the workload's network, and prints both times as
one JSON line.  run.py starts this script several times to measure setup_s.

    python3 perfbench/setup_probe.py <workload>
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports zonosynth: this is the timed import)

t1 = time.perf_counter()
work = workloads.WORKLOADS[sys.argv[1]]
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
network = workloads.load_network(work, root)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "subsystems": len(network.subsystems)}))
