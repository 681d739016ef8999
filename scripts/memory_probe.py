#!/usr/bin/env python3
"""Peak memory and wall time of one compositional synthesis at scale.

Runs one compositional synthesis (level rule, default encoding) of either

* a random geometric network at constant density,
  ``random_network(dim/2, lambda_for(400), seed, field_size=100*sqrt(dim/400))``,
  where each subsystem keeps about six neighbours as the network grows; or
* with ``--horizon h``, the same family on the lambda schedule,
  ``random_network(dim/2, lambda_for(dim), seed)``, made finite at horizon h,

and prints its status, wall seconds, phase seconds, solve counts, the number
of HiGHS instances made (``solver_instances``, where the program reports it)
and the process's peak resident set (``ru_maxrss``).  The network build is
outside the timed region; nothing else runs in the process, so the peak is
that of the synthesis.  The ``src/`` next to this script is imported, so a
second checkout measures its own code:

    python3 scripts/memory_probe.py --dim 4000
    python3 scripts/memory_probe.py --dim 400 --horizon 10
"""

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from zonosynth import synthesis, sysmodel  # noqa: E402
from zonosynth.cli import lambda_for  # noqa: E402


def network(dim, horizon, seed):
    count = dim // 2
    if horizon is None:
        return sysmodel.random_network(count, lambda_for(400), seed=seed,
                                       field_size=100.0 * math.sqrt(count / 200))
    subs = sysmodel.random_network(count, lambda_for(dim), seed=seed).subsystems
    return sysmodel.Network("finite", horizon, subs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dim", type=int, default=400, help="total state dimension (even)")
    ap.add_argument("--horizon", type=int, default=None,
                    help="finite horizon h (default: infinite, constant density)")
    ap.add_argument("--seed", type=int, default=0, help="network seed")
    args = ap.parse_args()
    if args.dim < 2 or args.dim % 2:
        ap.error("--dim must be an even number of at least 2")

    net = network(args.dim, args.horizon, args.seed)
    wall0 = time.perf_counter()
    res = synthesis.compositional_synthesize(net)
    wall = time.perf_counter() - wall0
    t = res.timings
    print(json.dumps({
        "dim": args.dim, "horizon": args.horizon, "seed": args.seed,
        "status": res.status, "iterations": res.iterations,
        "wall_s": round(wall, 4),
        **{f"{name}_s": round(t[f"{name}_seconds"], 4)
           for name in ("caps", "build", "descent", "master", "extract", "certify")},
        "solver_s": round(t["solve_seconds"], 4), "solves": t["solves"],
        "cold_solves": t["cold_solves"], "solver_instances": t.get("solver_instances"),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }))
    return 0 if res.status == "correct" else 1


if __name__ == "__main__":
    raise SystemExit(main())
