"""Per-layer timings and counts, taken from outside the library.

``LayerTrace.install`` wraps public functions of zonosynth's modules and
rebinds every by-name import of them (``from .contracts import potential``
and the like), so a call is timed whichever module makes it.  Methods are
wrapped on their class.  Only the traced run imports this module; the
untraced run calls the library unmodified.

A function that no longer exists is recorded as missing, and every metric
that needs it reads ``None`` instead of 0.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# "<module>.<attribute path>" under zonosynth of every function a per-layer
# metric times.
TARGETS = (
    "contracts.build_programs",
    "contracts.emit_subsystem",
    "contracts.potential",
    "contracts.PotentialProgram.evaluate",
    "contracts.extract_solutions",
    "contracts.check_correctness",
    "geom.directed_hausdorff",
    "geom.contains_point",
    "lpcore.LinearProgram.solve",
    "lpcore.LinearProgram.add_eq",
    "lpcore.LinearProgram.add_le",
    "lpcore.LinearProgram.add_ge",
    "viability.rci",
)
ROW_TARGETS = TARGETS[-4:-1]
SOLVE = "lpcore.LinearProgram.solve"


def _resolve(target):
    """(owner, attribute, original) for a target, or None if it is absent."""
    module_name, *path, attr = target.split(".")
    owner = sys.modules.get(f"zonosynth.{module_name}")
    for name in path:
        owner = getattr(owner, name, None)
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class LayerTrace:
    """Call durations per target, in memory, for one operation at a time."""

    def __init__(self):
        self.calls = defaultdict(list)      # target -> [seconds per call]
        self.raised = defaultdict(int)      # target -> calls that raised
        self.max_rows = 0                   # largest LP handed to solve()
        self.missing = set()
        self._restore = []

    def reset(self):
        for durations in self.calls.values():   # the wrappers hold these lists
            durations.clear()
        self.raised.clear()
        self.max_rows = 0

    def _wrap(self, target, fn):
        calls, raised = self.calls[target], self.raised
        is_solve = target == SOLVE

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if is_solve:
                self.max_rows = max(self.max_rows, args[0].num_rows)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[target] += 1
                raise
            finally:
                calls.append(time.perf_counter() - t0)
        return timed

    def install(self):
        """Wrap every target and rebind the by-name imports of it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "zonosynth"
                                         or name.startswith("zonosynth."))]
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.missing.add(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            bindings = [(owner, attr)]
            if not isinstance(owner, type):
                bindings += [(m, name) for m in modules if m is not owner
                             for name, value in vars(m).items()
                             if value is original]
            for obj, name in bindings:
                self._restore.append((obj, name, getattr(obj, name)))
                setattr(obj, name, wrapper)

    def uninstall(self):
        for obj, name, value in reversed(self._restore):
            setattr(obj, name, value)
        self._restore.clear()

    def snapshot(self):
        return ({k: list(v) for k, v in self.calls.items()},
                dict(self.raised), self.max_rows)


def _pct(values, q, scale):
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def synthesis_metrics(trace, snap, highs_s, iterations):
    """Per-layer metrics of one synthesis call from its snapshot.

    Percentiles and ratios over no calls read 0; the matching call count
    (also 0) says so.
    """
    calls, raised, max_rows = snap

    def timed(*names):
        return [t for n in names for t in calls.get(n, [])]

    sweeps = timed("contracts.potential")
    evals = timed("contracts.PotentialProgram.evaluate")
    emits = timed("contracts.emit_subsystem")
    extracts = timed("contracts.extract_solutions")
    hausdorff = timed("geom.directed_hausdorff")
    solves = timed("lpcore.LinearProgram.solve")
    rows = timed(*ROW_TARGETS)
    extract_failed = raised.get("contracts.extract_solutions", 0)
    by_target = {
        ("contracts.build_programs",): {
            "contracts.build_programs_s": sum(timed("contracts.build_programs"), 0.0)},
        ("contracts.emit_subsystem",): {
            "contracts.emit_calls": len(emits),
            "contracts.emit_s": sum(emits, 0.0)},
        ("contracts.potential",): {
            "contracts.sweeps": len(sweeps),
            "contracts.first_sweep_ms": sweeps[0] * 1e3 if sweeps else 0.0,
            "contracts.sweep_ms.p50": _pct(sweeps[1:], 50, 1e3),
            "contracts.infeasible_sweeps":
                raised.get("contracts.potential", 0)},
        ("contracts.PotentialProgram.evaluate",): {
            "contracts.evaluate_calls": len(evals),
            "contracts.evaluate_us.p50": _pct(evals, 50, 1e6),
            "contracts.evaluate_us.p99": _pct(evals, 99, 1e6)},
        ("contracts.extract_solutions",): {
            "contracts.extract_calls": len(extracts),
            "contracts.extract_ok_ratio":
                1.0 - extract_failed / len(extracts) if extracts else 0.0,
            "contracts.extract_s": sum(extracts, 0.0)},
        ("contracts.check_correctness",): {
            "contracts.certify_s": sum(timed("contracts.check_correctness"), 0.0)},
        ("geom.directed_hausdorff",): {
            "geom.hausdorff_calls": len(hausdorff),
            "geom.hausdorff_ms.p50": _pct(hausdorff, 50, 1e3)},
        ("lpcore.LinearProgram.solve",): {
            "lpcore.solves": len(solves),
            "lpcore.solve_s": sum(solves, 0.0),
            "lpcore.py_s": None if highs_s is None
            else sum(solves, 0.0) - highs_s,
            "lpcore.max_rows": max_rows},
        ROW_TARGETS: {
            "lpcore.rows": len(rows),
            "lpcore.add_row_us": sum(rows) / len(rows) * 1e6 if rows else 0.0},
        ("viability.rci",): {"viability.rci_s": sum(timed("viability.rci"), 0.0)},
        (): {"synthesis.iterations": iterations, "lpcore.highs_s": highs_s},
    }
    return _gate(trace, by_target)


def verify_metrics(trace, snap, report, seconds, subsystems):
    """Per-layer metrics of one Monte-Carlo verification call."""
    members = snap[0].get("geom.contains_point", [])
    # decisions after step 0, the ones that need a witness advanced
    stepped = report.checked - subsystems * report.num_samples
    return _gate(trace, {
        ("geom.contains_point",): {
            "geom.contains_point_calls": len(members),
            "geom.contains_point_ms.p50": _pct(members, 50, 1e3),
            "runtime.lp_rewitness": len(members),
            "runtime.closed_form_ratio":
                1.0 - len(members) / stepped if stepped > 0 else 0.0},
        (): {"runtime.verify_s": seconds, "runtime.checked": report.checked,
             "runtime.witness_losses": report.witness_losses},
    })


def _gate(trace, by_target):
    """Flatten, with None for every metric whose timed function is missing."""
    out = {}
    for targets, metrics in by_target.items():
        absent = any(t in trace.missing for t in targets)
        out.update({name: None if absent else value
                    for name, value in metrics.items()})
    return out
