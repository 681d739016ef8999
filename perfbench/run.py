#!/usr/bin/env python3
"""Time-to-certified-controller benchmark for zonosynth.

Runs one workload (see workloads.py) through the public library API for
about ``--seconds`` seconds and prints every metric by name and unit, then,
as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload case1-comp --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 22 --trace 1

``--trace 0`` measures the end-to-end metrics with the library unmodified.
``--trace 1`` is a separate run that wraps the library's public functions
(layertrace.py) and reports the per-layer metrics instead.

An operation is one synthesis call or one Monte-Carlo verification.  It
fails if the status is not "correct", the independent re-certification
(contracts.check_correctness, outside the timed region) fails, the Monte
Carlo is vacuous or finds a violation, or an exception escapes.  Any failed
operation makes ``correct`` false and the exit code 1; a missing source
tree gives exit code 2 and no result line.

Every time the benchmark reports is rescaled by a reference task that a
helper thread samples on the same CPU while the call runs (yardstick.py),
so a slow spell of a shared host cancels out; the raw wall-clock samples
are in the run record.  The run is pinned to one CPU, and BLAS runs on one
thread.

Everything the benchmark writes goes under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

THREADS_ENV = "CONTRACT_SYNTH_THREADS"
# One BLAS thread: on a host with few cores a second thread waits on a core
# that other tenants share.  Set before numpy is first imported, and passed
# on to the set-up processes.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 5       # fresh processes per run; setup_s is their median
SYNTH_SHARE = 0.6       # untraced: share of the window for synthesis calls
MIN_SYNTH = 3           # untraced: synthesis calls per run, at least
TRACED_SYNTH_SHARE = 0.65   # traced: window share for synthesis calls, half
                            # of them traced; the rest is one verification


class Op:
    """One attempted operation and why it failed, if it did."""

    def __init__(self, kind):
        self.kind = kind
        self.reasons = []

    @property
    def ok(self):
        return not self.reasons


def attempt(op, fn):
    """Run fn(); an escaping exception fails op instead of the benchmark."""
    from zonosynth import contracts, lpcore

    try:
        return fn()
    except (contracts.PotentialInfeasible, lpcore.LpSolverError) as exc:
        op.reasons.append(f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # noqa: BLE001 - report and keep measuring
        traceback.print_exc(file=sys.stderr)
        op.reasons.append(f"{type(exc).__name__}: {exc}")
    return None


def interleave(seconds, tasks):
    """Share a window of ``seconds`` between tasks of (fn, share, minimum).

    Each call goes to the task furthest behind its share of the time spent,
    so every task samples the whole window and a slow spell of the machine
    weighs on all of them alike.  A task is called at least ``minimum``
    times, then while a call of its median length still fits the window.
    A task whose fn returns False is not called again.
    """
    start = time.perf_counter()
    spent = [0.0] * len(tasks)
    lengths = [[] for _ in tasks]
    live = set(range(len(tasks)))
    while live:
        elapsed = time.perf_counter() - start
        due = [i for i in live if len(lengths[i]) < tasks[i][2]] or [
            i for i in live
            if elapsed + statistics.median(lengths[i]) <= seconds]
        if not due:
            return
        i = min(due, key=lambda k: spent[k] / tasks[k][1])
        gc.collect()
        t0 = time.perf_counter()
        if tasks[i][0]() is False:
            live.discard(i)
        lengths[i].append(time.perf_counter() - t0)
        spent[i] += lengths[i][-1]


class Session:
    """One workload run: its operations, timings and results.

    Correct results are kept once per distinct content (workloads.fingerprint),
    with the operations that produced them, so the memory a run holds does
    not grow with the number of calls that fit its window.
    """

    def __init__(self, work, network, seed, stick):
        import workloads

        self.work = work
        self.network = network
        self.checked = workloads.checked_network(work, network)
        self.seed = seed
        self.stick = stick
        self.ops = []
        self.spans = {"synthesis": [], "verification": []}   # every call
        self.verified = []         # (checks, Span) of each verification
        self.warm = False
        self.distinct = {}         # fingerprint -> (SynthesisResult, [Op])

    def synthesize(self):
        """One timed synthesis call; returns its Span and result."""
        import workloads

        op = Op("synthesis")
        self.ops.append(op)
        result, span = self.stick.time(lambda: attempt(
            op, lambda: workloads.synthesize(self.work, self.network,
                                             self.seed)))
        self.spans["synthesis"].append(span)
        if result is None:
            return None, None
        if result.status != "correct":
            op.reasons.append(f"status {result.status}: {result.hint}")
        else:
            key = workloads.fingerprint(result)
            self.distinct.setdefault(key, (result, []))[1].append(op)
        return span, result

    def certified(self):
        return next((r for r, _ in self.distinct.values()), None)

    def verify(self):
        """One Monte-Carlo check of the first correct result; returns the
        report and its Span (both None if there was nothing to check)."""
        import workloads

        op = Op("verification")
        self.ops.append(op)
        result = self.certified()
        if result is None:
            op.reasons.append("no correct synthesis result to verify")
            return None, None
        self.warm_up()
        report, span = self.stick.time(lambda: attempt(
            op, lambda: workloads.verify(self.work, self.checked, result,
                                         self.seed)))
        self.spans["verification"].append(span)
        if report is None:
            return None, span
        if report.vacuous:
            op.reasons.append("vacuous Monte-Carlo check")
        if report.violations:
            op.reasons.append(f"{report.violations} violations, first at "
                              f"{report.first_violation}")
        self.verified.append((report.checked, span))
        return report, span

    def checks_per_s(self):
        """Rescaled membership checks per second of each verification."""
        return [checks / span.seconds for checks, span in self.verified]

    def warm_up(self):
        """One untimed verification step at full sample size, once, so
        one-time costs of the first call (BLAS thread start-up) stay out of
        the rate.  A failure here shows again in the timed verification."""
        import workloads

        result = self.certified()
        if result is not None and not self.warm:
            self.warm = True
            attempt(Op("warm-up"), lambda: workloads.verify(
                self.work, self.checked, result, self.seed, steps=1))

    def recertify(self):
        """Re-certify each distinct correct result (untimed); a failure
        fails every operation that returned that result."""
        import workloads

        for result, ops in self.distinct.values():
            check = Op("re-certification")
            report = attempt(check, lambda: workloads.recertify(
                self.work, self.checked, result))
            reasons = check.reasons or ([] if report.ok
                                        else report.failures[:3])
            for op in ops:
                op.reasons += [f"re-certification: {r}" for r in reasons]
        return len(self.distinct)

    @property
    def failed(self):
        return sum(not op.ok for op in self.ops)


def measure_setup(work, stick):
    """A fresh process that imports the library and loads the network,
    SETUP_REPEATS times: the Span of each, and the medians of the child's
    own import and load seconds (not rescaled)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    spans, imports, loads = [], [], []
    for _ in range(SETUP_REPEATS):
        proc, span = stick.time(lambda: subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), work.name],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120),
            child=True)
        spans.append(span)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        inner = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(inner["import_s"])
        loads.append(inner["load_s"])
    return spans, statistics.median(imports), statistics.median(loads)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_record(work, seed, seconds, trace, threads_env):
    """Knobs and machine facts; src_lines is informational, never gated."""
    import numpy
    import scipy
    import yardstick

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "workload": work.name, "seed": seed, "seconds": seconds,
        "trace": trace, "method": work.method, "network": list(work.network),
        "knobs": work.knobs, "mc_samples": work.mc_samples,
        "mc_steps": work.mc_steps,
        f"{THREADS_ENV}_was": threads_env, "blas_threads": BLAS_ENV,
        "yardstick_nominal_s": yardstick.NOMINAL_S,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "src_lines": src_lines,
    }


def run_untraced(session, seconds):
    spans = []

    def synthesize():
        span, _ = session.synthesize()
        if span is not None:
            spans.append(span)

    def verify():
        report, _ = session.verify()
        return report is not None

    interleave(seconds, [(synthesize, SYNTH_SHARE, MIN_SYNTH),
                         (verify, 1.0 - SYNTH_SHARE, 1)])
    synth_s = [span.seconds for span in spans]
    return {"synth_s": _median(synth_s),
            "verify_checks_per_s": _median(session.checks_per_s())}, synth_s


def run_traced(session, seconds):
    """Untraced and traced synthesis calls in turn, then one traced
    verification; the wrappers are installed only around traced calls."""
    import layertrace
    from zonosynth import lpcore

    tracer = layertrace.LayerTrace()
    track = getattr(lpcore, "track_solver_time", None)
    plain_spans, traced_spans, per_call = [], [], []

    def plain():
        span, _ = session.synthesize()
        if span is not None:
            plain_spans.append(span)

    def traced():
        tracer.reset()
        tracer.install()
        try:
            with track() if track else contextlib.nullcontext() as solver:
                span, result = session.synthesize()
        finally:
            tracer.uninstall()
        highs_s = solver.seconds if track else None
        if result is not None:
            traced_spans.append(span)
            per_call.append(layertrace.synthesis_metrics(
                tracer, tracer.snapshot(), highs_s,
                getattr(result, "iterations", None)))

    interleave(TRACED_SYNTH_SHARE * seconds, [(plain, 0.5, 2), (traced, 0.5, 2)])
    session.warm_up()
    tracer.reset()
    tracer.install()
    try:
        report, span = session.verify()
    finally:
        tracer.uninstall()

    # median_low keeps a measured value, and an exact count stays exact
    metrics = {name: _median([m[name] for m in per_call], statistics.median_low)
               for name in (per_call[0] if per_call else {})}
    if report is not None:
        metrics.update(layertrace.verify_metrics(
            tracer, tracer.snapshot(), report, span.wall,
            len(report.margins)))
    metrics.update(save_metrics(session))
    plain_s = [span.seconds for span in plain_spans]
    traced_s = [span.seconds for span in traced_spans]
    base = _median(plain_s)
    metrics["trace.overhead_ratio"] = _median(traced_s) / base if base else None
    return metrics, plain_s + traced_s


def save_metrics(session):
    """Seconds and bytes of SynthesisResult.save into a scratch directory."""
    result = session.certified()
    save = getattr(type(result), "save", None) if result else None
    if save is None:
        return {"synthesis.save_s": None, "synthesis.save_bytes": None}
    outdir = tempfile.mkdtemp(prefix="save-", dir=OUT)
    try:
        t0 = time.perf_counter()
        save(result, outdir)
        seconds = time.perf_counter() - t0
        size = sum(os.path.getsize(os.path.join(folder, name))
                   for folder, _, files in os.walk(outdir) for name in files)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"synthesis.save_s": seconds, "synthesis.save_bytes": size}


def _median(values, median=statistics.median):
    values = [v for v in values if v is not None]
    return median(values) if values else None


# Every metric the benchmark reports, with its unit: the end-to-end ones
# (--trace 0) first, then the per-layer ones (--trace 1).
END_TO_END = {"setup_s": "s", "synth_s": "s", "verify_checks_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s", "sysmodel.load_s": "s",
    "synthesis.iterations": "count", "synthesis.save_s": "s",
    "synthesis.save_bytes": "B",
    "contracts.build_programs_s": "s", "contracts.emit_calls": "count",
    "contracts.emit_s": "s", "contracts.sweeps": "count",
    "contracts.first_sweep_ms": "ms", "contracts.sweep_ms.p50": "ms",
    "contracts.evaluate_calls": "count", "contracts.evaluate_us.p50": "us",
    "contracts.evaluate_us.p99": "us", "contracts.infeasible_sweeps": "count",
    "contracts.extract_calls": "count", "contracts.extract_ok_ratio": "ratio",
    "contracts.extract_s": "s", "contracts.certify_s": "s",
    "geom.hausdorff_calls": "count", "geom.hausdorff_ms.p50": "ms",
    "geom.contains_point_calls": "count", "geom.contains_point_ms.p50": "ms",
    "lpcore.solves": "count", "lpcore.solve_s": "s", "lpcore.highs_s": "s",
    "lpcore.py_s": "s", "lpcore.rows": "count", "lpcore.add_row_us": "us",
    "lpcore.max_rows": "count",
    "viability.rci_s": "s",
    "runtime.verify_s": "s", "runtime.checked": "count",
    "runtime.lp_rewitness": "count", "runtime.closed_form_ratio": "ratio",
    "runtime.witness_losses": "count",
    "trace.overhead_ratio": "ratio",
}


def run_workload(work, seed, seconds, trace):
    """Measure one workload; returns (result line dict, run record)."""
    import workloads
    import yardstick

    threads_env = os.environ.pop(THREADS_ENV, None)
    network = workloads.load_network(work, ROOT)
    stick = yardstick.Yardstick().start()
    try:
        session = Session(work, network, seed, stick)
        setup = Op("set-up")
        setup_spans, import_s, load_s = attempt(
            setup, lambda: measure_setup(work, stick)) or ([], None, None)
        if not setup.ok:
            session.ops.append(setup)
        if trace:
            metrics, synth_s = run_traced(session, seconds)
            metrics["setup.import_s"] = import_s
            metrics["sysmodel.load_s"] = load_s
        else:
            metrics, synth_s = run_untraced(session, seconds)
            metrics["setup_s"] = _median(
                [span.seconds for span in setup_spans])
            metrics["peak_rss_mb"] = peak_rss_mb()
        distinct = session.recertify()
    finally:
        stick.stop()

    record = run_record(work, seed, seconds, trace, threads_env)
    record.update({
        "synth_calls": len(synth_s),
        "synth_s_samples": synth_s,
        "verify_calls": len(session.verified),
        "checks_per_s_samples": session.checks_per_s(),
        "setup_s_samples": [span.seconds for span in setup_spans],
        # raw wall clock, before rescaling, and the reference task
        "synth_wall_s_samples": [s.wall for s in session.spans["synthesis"]],
        "verify_wall_s_samples": [
            s.wall for s in session.spans["verification"]],
        "setup_wall_s_samples": [span.wall for span in setup_spans],
        "yardstick_cpu": stick.cpu,
        "yardstick_samples": len(stick.samples),
        "yardstick_sample_s_median": _median(
            [cpu for _, _, cpu in stick.samples]),
        "distinct_results_recertified": distinct,
        "failures": [f"{op.kind}: {r}" for op in session.ops
                     for r in op.reasons],
        "trace_module_loaded": "layertrace" in sys.modules,
    })
    line = {
        "correct": session.failed == 0,
        "attempted": len(session.ops),
        "failed": session.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in (PER_LAYER if trace
                                       else END_TO_END).items()},
    }
    return line, record


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "zonosynth", "__init__.py")):
        print(f"error: no zonosynth package under {SRC}; run the benchmark "
              "from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ.update(BLAS_ENV)
    import zonosynth

    if not os.path.abspath(zonosynth.__file__).startswith(SRC + os.sep):
        print(f"error: imported zonosynth from {zonosynth.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(sorted(workloads.WORKLOADS), args)
    os.makedirs(OUT, exist_ok=True)
    line, record = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                args.seconds, args.trace)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": line, "record": record}, fh, indent=1)
    print_human(args.workload, line, record)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(names, args):
    """Every workload in a fresh process of its own, as a single-workload
    run has it (peak_rss_mb is per process), then one combined line."""
    lines = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        print("\n".join(out[:-1]))
        try:
            lines[name] = json.loads(out[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"  FAILED {name}: exit code {proc.returncode}, no result")
            lines[name] = {"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}
    final = {
        "correct": all(l["correct"] for l in lines.values()),
        "attempted": sum(l["attempted"] for l in lines.values()),
        "failed": sum(l["failed"] for l in lines.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, l in lines.items()
                    for metric, value in l["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def print_human(name, line, record):
    print(f"== {name}  seed {record['seed']}  trace {record['trace']}  "
          f"({record['synth_calls']} synthesis calls, "
          f"{record['verify_calls']} verifications, "
          f"{record['distinct_results_recertified']} distinct results "
          "re-certified)")
    for metric, value in line["metrics"].items():
        shown = "null (missing)" if value["value"] is None \
            else f"{value['value']:.6g}"
        print(f"  {metric:32s} {shown} {value['unit']}")
    frac = line["failed"] / line["attempted"]
    print(f"  {'failed_frac':32s} {frac:.6g} ratio "
          f"({line['failed']}/{line['attempted']} operations)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(names) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main())
