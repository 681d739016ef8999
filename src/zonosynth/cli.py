"""Command-line frontend: synthesis runs, scaling benchmarks, plot data.

Exit codes follow the convention: 0 synthesis correct, 1 synthesis failed
(a retry hint is printed) or the LP solver broke down (the reason is printed),
2 bad configuration or usage.  The tool is a thin sequential driver over
the library.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from .contracts import PotentialInfeasible, build_programs, potential
from .geom import Zonotope, polygon_vertices_2d
from .lpcore import LpSolverError
from .sysmodel import ConfigError, load_network, random_network, save_network
from .synthesis import (
    DescentConfig,
    SynthesisResult,
    centralized_dense,
    centralized_synthesize,
    compositional_synthesize,
)

OK, FAILED, USAGE = 0, 1, 2

BENCH_METHODS = ("compositional", "centralized-decentralized",
                 "centralized-dense")

# dimension -> coupling strength, the published pairing for the scaling
# study (weaker coupling as networks grow); mirrored in
# configs/case3-template.json
LAMBDA_SCHEDULE = {
    10: 1.0, 20: 0.1, 40: 0.1, 60: 0.1, 80: 0.1, 100: 0.1,
    200: 0.05, 400: 0.05, 500: 0.05, 1000: 0.01,
    2000: 0.001, 4000: 0.001, 10000: 1e-4, 20000: 1e-5,
}


#: ``synth --rule`` -> the DescentConfig fields it sets
STEP_RULES = {
    "level": dict(rule="level"),
    "polyak": dict(rule="subgradient", line_search=True),
    "fixed": dict(rule="subgradient", line_search=False),
}


class UsageError(Exception):
    """Bad flags or inconsistent inputs; maps to exit code 2."""


def lambda_for(dim):
    """Coupling strength for a total dimension, from the published schedule.

    Exact match wins; otherwise the value at the largest tabulated size not
    above ``dim`` (the schedule only weakens with growth).
    """
    if dim in LAMBDA_SCHEDULE:
        return LAMBDA_SCHEDULE[dim]
    below = [s for s in LAMBDA_SCHEDULE if s <= dim]
    return LAMBDA_SCHEDULE[max(below)] if below else \
        LAMBDA_SCHEDULE[min(LAMBDA_SCHEDULE)]


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    try:
        network = load_network(args.config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE

    # --reduce-order 0 keeps exact columns (None); unset keeps each
    # driver's default
    reduce_order = None if args.reduce_order == 0 else args.reduce_order
    try:
        if reduce_order is not None and reduce_order < 0:
            raise ConfigError(f"--reduce-order must be >= 0, got {reduce_order}")
        if args.step is not None and args.rule != "fixed":
            raise ConfigError("--step is the step size of --rule fixed")
        if args.method == "compositional":
            if args.beta:
                raise ConfigError("--beta only applies to --method dense")
            cfg = DescentConfig(
                max_iters=args.max_iter, tol_v=args.tol, k=args.k, seed=args.seed,
                **STEP_RULES[args.rule],
            )
            if args.step is not None:
                cfg.delta = args.step
            if args.reduce_order is not None:
                cfg.reduction_order = reduce_order
            result = compositional_synthesize(network, mode=args.mode,
                                              config=cfg)
        elif args.method == "centralized":
            if args.beta:
                raise ConfigError("--beta only applies to --method dense")
            result = centralized_synthesize(network, mode=args.mode, k=args.k,
                                            reduction_order=reduce_order)
        else:
            if args.reduce_order is not None:
                raise ConfigError("--reduce-order does not apply to --method dense")
            result = centralized_dense(network, mode=args.mode, k=args.k,
                                       beta=args.beta)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE
    except LpSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return FAILED

    if args.out:
        result.save(args.out)
        print(f"wrote {args.out}")
    print(f"status: {result.status}  (method={result.method}, "
          f"mode={result.mode})")
    shown = "n/a" if result.value is None else f"{result.value:.6g}"
    print(f"V: {shown}   iterations: {result.iterations}")
    if result.timings:
        print("solver: {solve_seconds:.3f} s in {solves} solves, "
              "wall: {wall_seconds:.3f} s".format(**{
                  "solve_seconds": result.timings.get("solve_seconds", 0.0),
                  "solves": result.timings.get("solves", 0),
                  "wall_seconds": result.timings.get("wall_seconds", 0.0)}))
    if result.ok:
        return OK
    if result.hint:
        print(f"hint: {result.hint}")
    return FAILED


# ---------------------------------------------------------------------------
# gen-random


def cmd_gen_random(args):
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.lam < 0:
        raise UsageError("--lambda must be nonnegative")
    network = random_network(args.n, args.lam, seed=args.seed)
    save_network(network, args.out)
    couplings = sum(len(network.subsystem(s).couplings)
                    for s in network.sorted_ids())
    print(f"wrote {args.out}: {args.n} subsystems, lambda={args.lam}, "
          f"{couplings} couplings")
    return OK


# ---------------------------------------------------------------------------
# bench


def _bench_worker(conn, dim, lam, seed, method):
    """Child-process body: one synthesis, report solver/wall seconds."""
    try:
        network = random_network(dim // 2, lam, seed=seed)
        start = time.perf_counter()
        if method == "compositional":
            result = compositional_synthesize(network)
        elif method == "centralized-decentralized":
            result = centralized_synthesize(network)
        else:
            result = centralized_dense(network)
        wall = time.perf_counter() - start
        solver = result.timings["solve_seconds"]
        conn.send({"status": result.status, "solver": f"{solver:.4f}",
                   "wall": f"{wall:.4f}"})
    except Exception as exc:  # noqa: BLE001 - the row must report, not hang
        conn.send({"status": f"error: {exc}", "solver": "", "wall": ""})
    finally:
        conn.close()


def _bench_case(dim, lam, seed, method, timeout):
    # imported here: it pulls in socket, selectors and signal, which no
    # other command needs
    import multiprocessing

    receiver, sender = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_bench_worker,
                                   args=(sender, dim, lam, seed, method))
    proc.start()
    sender.close()
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        payload = {"status": "time out", "solver": "",
                   "wall": f"{timeout:.4f}"}
    elif receiver.poll():
        payload = receiver.recv()
    else:
        payload = {"status": "error: worker died", "solver": "", "wall": ""}
    receiver.close()
    return [dim, lam, method, payload["solver"], payload["wall"],
            payload["status"]]


BENCH_HEADER = ["dimension", "lambda", "method", "solver_seconds",
                "wall_seconds", "status"]


def cmd_bench(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --sizes: {exc}") from None
    if not sizes or any(dim < 2 or dim % 2 for dim in sizes):
        raise UsageError("--sizes must be positive even state dimensions "
                         "(two states per subsystem)")
    if args.lambda_schedule:
        try:
            lams = [float(x) for x in args.lambda_schedule.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --lambda-schedule: {exc}") from None
        if len(lams) != len(sizes):
            raise UsageError("--lambda-schedule must pair up with --sizes")
    else:
        lams = [lambda_for(dim) for dim in sizes]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in methods if m not in BENCH_METHODS]
    if unknown or not methods:
        raise UsageError(f"unknown methods {unknown}; pick from "
                         f"{', '.join(BENCH_METHODS)}")

    widths = (9, 8, 27, 14, 12, 10)
    print("  ".join(h.ljust(w) for h, w in zip(BENCH_HEADER, widths)))
    rows = []
    for dim, lam in zip(sizes, lams):
        for method in methods:
            row = _bench_case(dim, lam, args.seed, method, args.timeout)
            rows.append(row)
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    fresh = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
    with open(args.out, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(BENCH_HEADER)
        writer.writerows(rows)
    print(f"appended {len(rows)} rows to {args.out}")
    return OK


# ---------------------------------------------------------------------------
# plotdata


def _parse_dims(raw, expect_pairs):
    """Parse --dims: either "i:coord,j:coord" (pairs) or "coord,coord"."""
    if not raw:
        return None
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise UsageError('--dims wants exactly two entries, e.g. "1:0,2:0"')
    out = []
    for part in parts:
        if ":" in part:
            owner, _, coord = part.partition(":")
        elif expect_pairs:
            raise UsageError('--dims entries must look like "subsystem:coord"')
        else:
            owner, coord = None, part
        try:
            out.append((owner, int(coord)))
        except ValueError:
            raise UsageError(f"--dims: coordinate {coord!r} is not an integer") from None
    return out


def _match_sid(token, network):
    for sid in network.sorted_ids():
        if str(sid) == token:
            return sid
    raise UsageError(f"no subsystem named {token!r}")


def _emit_viable_sets(result, dims, outdir, grid):
    del grid  # meaningful only for potential slices
    if not result.solutions:
        raise UsageError("result directory holds no solutions")
    coords = [c for _, c in dims] if dims else None
    os.makedirs(outdir, exist_ok=True)
    written = []
    for sid in sorted(result.solutions, key=str):
        sol = result.solutions[sid]
        for t in range(len(sol.T)):
            om = sol.omega(t)
            if om.dim == 1:
                lo = float(om.center[0] - np.abs(om.generators).sum())
                hi = float(om.center[0] + np.abs(om.generators).sum())
                header, rows = ["x0"], [[lo], [hi]]
            else:
                if om.dim != 2 and coords is None:
                    raise UsageError(
                        f"subsystem {sid} is {om.dim}-D; pass --dims to "
                        "choose a 2-D projection")
                pair = coords or [0, 1]
                if not all(0 <= c < om.dim for c in pair):
                    raise UsageError(f"--dims {pair} out of range for the {om.dim}-D "
                                     f"subsystem {sid}")
                proj = Zonotope(om.center[pair], om.generators[pair, :])
                verts = polygon_vertices_2d(proj)
                header = [f"x{pair[0]}", f"x{pair[1]}"]
                rows = verts.tolist()
            path = os.path.join(outdir, f"viable_{sid}_t{t}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            written.append(path)
    print(f"wrote {len(written)} viable-set files to {outdir}")
    return OK


def _emit_potential_slice(result, dims, outdir, grid):
    if result.network is None or result.template is None or \
            result.params is None:
        raise UsageError("result directory lacks network/template/params "
                         "(re-run synth with --out)")
    if dims is None:
        raise UsageError('potential-slice needs --dims "i:coord,j:coord"')
    if grid < 1:
        raise UsageError("--grid must be at least 1")
    axes = []
    for owner, coord in dims:
        sid = _match_sid(owner, result.network)
        series = result.params.x.get(sid)
        if series is None or not 0 <= coord < series[0].size:
            raise UsageError(f"subsystem {sid} has no state multiplier "
                             f"#{coord}")
        axes.append((sid, coord))

    programs = build_programs(result.network, result.template, **result.encoding)
    base = result.params

    def values(sid, coord):
        if grid == 1:
            return np.array([base.x[sid][0][coord]])
        return np.linspace(0.0, base.max_x[sid][0][coord], grid)

    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "potential_slice.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a1", "a2", "V"])
        for a1 in values(*axes[0]):
            for a2 in values(*axes[1]):
                probe = base.copy()
                probe.x[axes[0][0]][0][axes[0][1]] = a1
                probe.x[axes[1][0]][0][axes[1][1]] = a2
                try:
                    v = potential(programs, probe).value
                except PotentialInfeasible:
                    v = float("inf")
                writer.writerow([f"{a1:.10g}", f"{a2:.10g}", f"{v:.10g}"])
    print(f"wrote {path} ({grid}x{grid} grid)")
    return OK


def cmd_plotdata(args):
    try:
        result = SynthesisResult.load(args.result)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"config error: cannot load result: {exc}", file=sys.stderr)
        return USAGE
    dims = _parse_dims(args.dims, expect_pairs=args.what == "potential-slice")
    outdir = args.out or args.result
    if args.what == "viable-sets":
        return _emit_viable_sets(result, dims, outdir, args.grid)
    return _emit_potential_slice(result, dims, outdir, args.grid)


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zonosynth",
        description="Decentralized controller synthesis via zonotopic "
                    "viable sets and parametric contracts.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="synthesize controllers for a config")
    s.add_argument("--config", required=True, help="network JSON file")
    s.add_argument("--mode", choices=("finite", "infinite"),
                   help="must match the config when given")
    s.add_argument("--method",
                   choices=("centralized", "compositional", "dense"),
                   default="compositional")
    s.add_argument("--k", type=int, help="generator budget per subsystem")
    s.add_argument("--beta", type=float, default=0.0,
                   help="contraction rate (dense method only)")
    s.add_argument("--max-iter", type=int, default=500)
    s.add_argument("--tol", type=float, default=1e-6,
                   help="stop once the potential is at or below this")
    s.add_argument("--rule", choices=tuple(STEP_RULES), default="level",
                   help="descent step rule: the cutting-plane level master, "
                        "or the paper's subgradient steps with Polyak or "
                        "fixed step sizes")
    s.add_argument("--step", type=float,
                   help="step size of --rule fixed (default 1.0)")
    s.add_argument("--reduce-order", type=int, default=None,
                   help="disturbance zonotope order; 0 keeps exact columns")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="directory for the result artifacts")
    s.set_defaults(func=cmd_synth)

    g = sub.add_parser("gen-random",
                       help="generate a random geometric network config")
    g.add_argument("--n", type=int, required=True, help="subsystem count")
    g.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="coupling strength")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output JSON path")
    g.set_defaults(func=cmd_gen_random)

    b = sub.add_parser("bench", help="scaling benchmark over random networks")
    b.add_argument("--sizes", default="10,20,40,100",
                   help="comma list of total state dimensions")
    b.add_argument("--lambda-schedule", dest="lambda_schedule",
                   help="comma list paired with --sizes (default: published "
                        "schedule)")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--timeout", type=float,
                   help="per-run wall clock limit in seconds")
    b.add_argument("--methods", default=",".join(BENCH_METHODS))
    b.add_argument("--out", default="bench.csv", help="CSV to append to")
    b.set_defaults(func=cmd_bench)

    d = sub.add_parser("plotdata", help="emit CSV data behind the figures")
    d.add_argument("--result", required=True,
                   help="directory written by synth --out")
    d.add_argument("--what", choices=("viable-sets", "potential-slice"),
                   required=True)
    d.add_argument("--dims",
                   help='"i:coord,j:coord" (slice) or "coord,coord" '
                        "(projection)")
    d.add_argument("--grid", type=int, default=25,
                   help="grid points per slice axis")
    d.add_argument("--out", help="output directory (default: result dir)")
    d.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
