#!/usr/bin/env python3
"""Infinite-horizon example: compositional synthesis on configs/case1.json.

Runs the descent to V = 0, saves the result directory, then stress-tests the
synthesized local controllers with an independent Monte-Carlo invariance
check (vertex-pattern disturbances included).
"""

import argparse
import time
from pathlib import Path

from zonosynth.runtime import verify_invariance
from zonosynth.sysmodel import load_network
from zonosynth.synthesis import compositional_synthesize

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "case1.json"))
    ap.add_argument("--out", default=str(ROOT / "results" / "case1"))
    ap.add_argument("--samples", type=int, default=10_000,
                    help="Monte-Carlo trajectories")
    ap.add_argument("--steps", type=int, default=1000,
                    help="closed-loop steps per trajectory")
    args = ap.parse_args()

    net = load_network(args.config)
    t0 = time.perf_counter()
    result = compositional_synthesize(net)
    synth_seconds = time.perf_counter() - t0
    print(f"status {result.status}: V={result.value:.3e} after "
          f"{result.iterations} iterations "
          f"({result.timings['solve_seconds']:.3f}s in the solver, "
          f"{synth_seconds:.2f}s wall)")
    if not result.ok:
        print(f"hint: {result.hint}")
        raise SystemExit(1)
    result.save(args.out)
    print(f"saved result to {args.out}")

    t0 = time.perf_counter()
    report = verify_invariance(net, result, num_samples=args.samples,
                               num_steps=args.steps, seed=0)
    print(f"invariance check: {args.samples} trajectories x {args.steps} "
          f"steps -> {report.violations} violations, "
          f"{report.witness_losses} chained witnesses re-witnessed, "
          f"{report.lp_rewitness} chain misses re-solved "
          f"({time.perf_counter() - t0:.2f}s)")
    for sid in net.sorted_ids():
        print(f"  subsystem {sid}: worst margin "
              f"{min(report.margins[sid]):.4f}")
    raise SystemExit(0 if report.ok else 1)


if __name__ == "__main__":
    main()
