#!/usr/bin/env python3
"""Finite-horizon example: centralized synthesis on configs/case2.json.

The LTV network has shrinking state bounds over a 15-step horizon.  After
solving, every viable set is re-checked inside its bound by the directed
Hausdorff LP (distance at most 1e-9), the degenerate initial set is
reported, and the per-step zonogon vertices are emitted as CSV files (the
data behind a tube plot).
"""

import argparse
import time
from pathlib import Path

import numpy as np

from zonosynth.cli import main as cli_main
from zonosynth.geom import directed_hausdorff
from zonosynth.sysmodel import load_network
from zonosynth.synthesis import centralized_synthesize

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "case2.json"))
    ap.add_argument("--out", default=str(ROOT / "results" / "case2"))
    args = ap.parse_args(argv)

    net = load_network(args.config)
    t0 = time.perf_counter()
    result = centralized_synthesize(net)
    print(f"status {result.status}: objective={result.objective:.4f} "
          f"({result.timings['solve_seconds']:.3f}s in the solver, "
          f"{time.perf_counter() - t0:.2f}s wall)")
    if not result.ok:
        print(f"hint: {result.hint}")
        raise SystemExit(1)
    result.save(args.out)

    h = net.num_steps
    worst = 0.0
    for sid in net.sorted_ids():
        sol = result.solutions[sid]
        for t in range(h + 1):
            distance = directed_hausdorff(net.subsystem(sid).X_at(t), sol.omega(t))
            if distance > 1e-9:
                print(f"Omega({t}) of subsystem {sid} escapes X({t}) by {distance:.3e}")
                raise SystemExit(1)
            worst = max(worst, distance)
        g0 = sol.omega(0).generators
        size0 = float(np.linalg.norm(g0)) if g0.size else 0.0
        print(f"  subsystem {sid}: {h + 1} viable sets inside their bounds, "
              f"|G(0)| = {size0:.1e}")
    print(f"worst distance to a bound {worst:.3e}")

    cli_main(["plotdata", "--result", args.out, "--what", "viable-sets"])
    print(f"saved result and tube CSVs to {args.out}")


if __name__ == "__main__":
    main()
