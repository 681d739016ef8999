"""End-to-end contract synthesis: centralized single-LP and descent drivers.

Two roads to a correct composition:

* ``centralized_synthesize`` stacks every subsystem's viability constraints
  and the parametric coupling definitions into one LP and minimizes the
  total promised state-tube size.  Feasible means correct by construction,
  but the LP couples everything with everything.

* ``compositional_synthesize`` runs projected subgradient descent on the
  potential V(alpha) = sum_i V_i(alpha) from module ``contracts``.  Each
  iteration re-solves |I| small independent LPs, each built once and
  re-solved warm (optionally in a thread pool), and steps against the dual
  subgradient.  V = 0 certifies the composition; the final parameters are
  then solved without slack, on the same LPs, to extract the tubes and
  controllers.  When that hard extraction fails, the descent resumes.

The step rule deserves a note.  V is convex piecewise-linear, and a plain
backtracking line search can wedge into a kink where the negative
subgradient is not a descent direction (observed on the shipped
three-subsystem example: a monotone Armijo loop stalls around V ~ 7e-2).
With ``line_search=True`` the step length is therefore chosen by the
target-value rule s = V / ||g||^2 (Polyak), which needs no tuning and
converges on piecewise-linear potentials whose optimum is 0 -- exactly the
situation here.  Individual iterations may move uphill; the run as a whole
descends.  ``line_search=False`` uses the constant step ``delta`` instead.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import lpcore, viability
from .contracts import (
    ContractParams,
    CorrectnessReport,
    PotentialInfeasible,
    add_promise_admissibility,
    admissible_set,
    alpha_max,
    build_programs,
    check_correctness,
    default_template,
    emit_subsystem,
    extract_solutions,
    potential,
    _numeric_solution,
)
from .lpcore import LinearProgram
from .sysmodel import ConfigError, aggregate, load_network, save_network
from .viability import recursion_residual

#: machine-readable remedy attached to failed syntheses (the advisory is to
#: re-run with a larger generator budget k or a higher reduction order).
RETRY_HINT = "increase k or the reduction order and try again"


# ---------------------------------------------------------------------------
# configuration


@dataclass
class DescentConfig:
    """Knobs of the compositional descent loop."""

    delta: float = 1.0            # step size when line_search is off
    max_iters: int = 500
    tol_v: float = 1e-6           # stop once V <= tol_v
    k: int | None = None          # generator budget per subsystem (None: default)
    reduction_order: int | None = 1
    line_search: bool = True      # True: target-value steps; False: fixed delta
    seed: int = 0                 # seeds the "random" init
    init: str = "half"            # "half" | "max" | "random"
    threads: int | None = None    # worker pool size (None: env or serial)

    def validate(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.tol_v <= 0:
            raise ValueError("tol_v must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.init not in ("half", "max", "random"):
            raise ValueError(f"unknown init {self.init!r}")


def project_box(params, caps=None):
    """Euclidean projection of the parameters onto [0, alpha_max].

    ``caps`` overrides the box recorded in ``params`` (a ContractParams
    whose values are the upper corner, e.g. from ``alpha_max``).
    """
    if caps is not None:
        params = replace(params, max_x=caps.x, max_u=caps.u)
    return params.clipped()


def _initial_params(caps, cfg):
    if cfg.init == "max":
        return caps.copy()
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        vec = caps.to_vector() * rng.uniform(0.0, 1.0, caps.to_vector().size)
        return caps.from_vector(vec)
    return caps.scaled(0.5)


class _Phases(dict):
    """Wall seconds per phase; ``with phases("build"): ...`` adds to one."""

    @contextmanager
    def __call__(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - t0


def _check_mode(network, mode):
    if mode is not None and mode != network.mode:
        raise ConfigError(
            f"requested mode {mode!r} but the network is {network.mode!r} "
            "(the mode is fixed by the config's horizon)")


# ---------------------------------------------------------------------------
# result container and its directory format


@dataclass
class SynthesisResult:
    """Everything a synthesis run produced, savable as a directory."""

    status: str                 # "correct" | "failed"
    method: str                 # "compositional" | "centralized" | "centralized-dense"
    mode: str
    value: float | None         # final potential V (None if never evaluated)
    objective: float | None     # centralized LP objective, if any
    iterations: int
    params: ContractParams | None
    solutions: dict | None
    trace: list = field(default_factory=list)   # (iteration, V, grad_norm, step)
    timings: dict = field(default_factory=dict)
    hint: str | None = None
    correctness: object | None = None           # CorrectnessReport
    network: object | None = None
    template: object | None = None

    @property
    def ok(self):
        return self.status == "correct"

    def report_dict(self):
        rep = {
            "status": self.status,
            "method": self.method,
            "mode": self.mode,
            "V": self.value,
            "objective": self.objective,
            "iterations": self.iterations,
            "timings": self.timings,
            "hint": self.hint,
        }
        if self.correctness is not None:
            rep["correctness"] = {
                "ok": self.correctness.ok,
                "max_state_margin": self.correctness.max_state_margin,
                "max_input_margin": self.correctness.max_input_margin,
                "max_residual": self.correctness.max_residual,
                "failures": list(self.correctness.failures),
                "lp_fallbacks": self.correctness.lp_fallbacks,
            }
        return rep

    def save(self, outdir):
        """Write report.json, params.json, trace.csv, network.json and one
        solution_<id>.json per subsystem under ``outdir``."""
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(self.report_dict(), fh, indent=2)
        if self.params is not None:
            with open(os.path.join(outdir, "params.json"), "w") as fh:
                json.dump(self.params.to_json(), fh, indent=2)
        if self.solutions:
            for sid, sol in self.solutions.items():
                name = f"solution_{sid}.json"
                with open(os.path.join(outdir, name), "w") as fh:
                    json.dump(sol.to_json(), fh)
        with open(os.path.join(outdir, "trace.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "V", "grad_norm", "step"])
            writer.writerows(self.trace)
        if self.network is not None:
            save_network(self.network, os.path.join(outdir, "network.json"))
        if self.template is not None:
            with open(os.path.join(outdir, "template.json"), "w") as fh:
                json.dump(_template_to_json(self.template), fh)
        return outdir

    @staticmethod
    def load(outdir):
        with open(os.path.join(outdir, "report.json")) as fh:
            rep = json.load(fh)
        network = template = params = None
        net_path = os.path.join(outdir, "network.json")
        if os.path.exists(net_path):
            network = load_network(net_path)
        tpl_path = os.path.join(outdir, "template.json")
        if os.path.exists(tpl_path):
            with open(tpl_path) as fh:
                template = _template_from_json(json.load(fh), network)
        par_path = os.path.join(outdir, "params.json")
        if os.path.exists(par_path):
            ids = network.sorted_ids() if network is not None else None
            with open(par_path) as fh:
                params = ContractParams.from_json(json.load(fh), ids=ids)
        solutions = {}
        lookup = {str(s): s for s in (network.sorted_ids() if network else [])}
        for name in sorted(os.listdir(outdir)):
            if name.startswith("solution_") and name.endswith(".json"):
                raw = name[len("solution_"):-len(".json")]
                sid = lookup.get(raw, raw)
                with open(os.path.join(outdir, name)) as fh:
                    solutions[sid] = viability.solution_from_json(json.load(fh))
        trace = []
        with open(os.path.join(outdir, "trace.csv")) as fh:
            for row in csv.DictReader(fh):
                trace.append((int(row["iteration"]), float(row["V"]),
                              float(row["grad_norm"]), float(row["step"])))
        return SynthesisResult(
            status=rep["status"], method=rep["method"], mode=rep["mode"],
            value=rep.get("V"), objective=rep.get("objective"),
            iterations=rep.get("iterations", 0), params=params,
            solutions=solutions or None, trace=trace,
            timings=rep.get("timings", {}), hint=rep.get("hint"),
            network=network, template=template)


def _template_to_json(template):
    def dump(entries):
        return [[np.asarray(c).tolist(), np.asarray(C).tolist()]
                for c, C in entries]
    return {
        "is_bounds": template.is_bounds,
        "state": {str(s): dump(v) for s, v in template.state.items()},
        "input": {str(s): dump(v) for s, v in template.input.items()},
    }


def _template_from_json(data, network=None):
    from .contracts import ContractTemplate

    lookup = {str(s): s for s in (network.sorted_ids() if network else [])}

    def parse(block):
        out = {}
        for key, entries in block.items():
            sid = lookup.get(key, key)
            out[sid] = [(np.asarray(c, float), np.asarray(C, float))
                        for c, C in entries]
        return out

    return ContractTemplate(state=parse(data["state"]),
                            input=parse(data["input"]),
                            is_bounds=bool(data["is_bounds"]))


# ---------------------------------------------------------------------------
# compositional descent


def _descent_step(programs, params, res, cfg):
    """One projected step; returns (params, eval, step) or None if wedged."""
    vec = params.to_vector()
    g = res.grad.to_vector()
    gnorm2 = float(np.dot(g, g))
    if gnorm2 == 0.0:
        return None
    s = res.value / gnorm2 if cfg.line_search else cfg.delta
    for _ in range(60):
        cand = project_box(params.from_vector(vec - s * g))
        try:
            rc = potential(programs, cand, threads=cfg.threads)
        except PotentialInfeasible:
            s *= 0.5          # step into an infeasible corner; shorten
            continue
        return cand, rc, s
    return None


def compositional_synthesize(network, template=None, mode=None, config=None):
    """Descend the potential; extract and certify tubes once it vanishes.

    Returns a SynthesisResult whose status is "correct" only if V reached
    ``tol_v``, the slack-free extraction succeeded, and check_correctness
    signed off.  Otherwise status is "failed" and ``hint`` carries the
    retry advisory.
    """
    cfg = config or DescentConfig()
    cfg.validate()
    _check_mode(network, mode)
    tpl = template if template is not None else default_template(network)
    wall0 = time.perf_counter()
    phases = _Phases()
    trace = []
    solutions = None
    value = None
    it = 0
    attempts = 0

    def step(res):
        """One descent step from ``res``: its evaluation, or None if wedged."""
        nonlocal params, it
        with phases("descent"):
            stepped = _descent_step(programs, params, res, cfg)
        if stepped is None:
            return None
        params, res, s = stepped
        it += 1
        trace.append((it, res.value, float(np.linalg.norm(res.grad.to_vector())), s))
        return res

    with lpcore.track_solver_time() as solver:
        with phases("build"):
            caps = alpha_max(network, tpl)
            params = project_box(_initial_params(caps, cfg), caps)
            programs = build_programs(network, tpl, k=cfg.k,
                                      reduction_order=cfg.reduction_order)
        try:
            with phases("descent"):
                res = potential(programs, params, threads=cfg.threads)
        except PotentialInfeasible as exc:
            return _finish(
                SynthesisResult(
                    status="failed", method="compositional", mode=network.mode,
                    value=None, objective=None, iterations=0, params=params,
                    solutions=None, trace=trace, hint=f"{exc}; {RETRY_HINT}",
                    network=network, template=tpl),
                solver, wall0, phases)

        trace.append((0, res.value, float(np.linalg.norm(res.grad.to_vector())), 0.0))
        while it < cfg.max_iters and res.value > cfg.tol_v:
            stepped = step(res)
            if stepped is None:
                break
            res = stepped
        value = res.value

        if value <= cfg.tol_v:
            # Re-run satisfiability without slack at the final parameters.
            # The stopping tolerance permits a whisker of residual slack, so
            # the hard problem can miss by ~tol_v; in that case keep
            # descending (the budget still applies) until it closes.
            while True:
                attempts += 1
                try:
                    with phases("extract"):
                        solutions = extract_solutions(programs, params)
                    value = res.value
                    break
                except PotentialInfeasible:
                    stepped = step(res) if it < cfg.max_iters else None
                    if stepped is None:
                        break
                    res = stepped

    correctness = None
    with phases("certify"):
        if solutions is not None:
            correctness = check_correctness(network, tpl, params, solutions)
    status = "correct" if correctness is not None and correctness.ok else "failed"

    return _finish(
        SynthesisResult(
            status=status, method="compositional", mode=network.mode,
            value=value, objective=None, iterations=it, params=params,
            solutions=solutions, trace=trace,
            hint=None if status == "correct" else RETRY_HINT,
            correctness=correctness, network=network, template=tpl),
        solver, wall0, phases, extract_attempts=attempts)


def _finish(result, solver, wall0, phases, extract_attempts=0):
    """Stamp the solver totals and the per-phase wall seconds on ``result``.

    The phases: ``build`` makes the synthesis LPs (for the dense baseline,
    folds the network and builds its one LP); ``descent`` is the potential
    descent (0 for the one-LP methods); ``extract`` solves for the tubes and
    reads them back (compositional: every hard extraction attempt);
    ``certify`` is check_correctness.
    """
    result.timings = {
        "solve_seconds": solver.seconds,
        "solves": solver.solves,
        **{f"{name}_seconds": phases.get(name, 0.0)
           for name in ("build", "descent", "extract", "certify")},
        "wall_seconds": time.perf_counter() - wall0,
        "max_lp_rows": solver.max_rows,
        "max_lp_cols": solver.max_cols,
        "max_lp_nnz": solver.max_nnz,
        "extract_attempts": extract_attempts,
    }
    return result


# ---------------------------------------------------------------------------
# centralized single LP


def centralized_synthesize(network, template=None, mode=None, k=None,
                           reduction_order=None):
    """All subsystems' viability plus the coupling definitions in one LP.

    Minimizes the total promised state-tube size sum_{i,t} sum(alpha^x).
    With the default hard-bounds template the promise-in-bounds containments
    reduce to the cap alpha <= 1; custom templates get explicit containment
    rows instead.  The augmented disturbances enter exactly (no column
    reduction) unless ``reduction_order`` says otherwise.

    Feasible implies correct by construction; the result is still passed
    through check_correctness before being stamped "correct".  Infeasible
    returns status "failed" with no partial solutions (retry with larger k).
    """
    _check_mode(network, mode)
    tpl = template if template is not None else default_template(network)
    wall0 = time.perf_counter()
    phases = _Phases()
    ids = network.sorted_ids()

    with lpcore.track_solver_time() as solver:
        with phases("build"):
            caps = alpha_max(network, tpl)
            lp = LinearProgram(name="centralized")
            cap = 1.0 if tpl.is_bounds else lpcore.INF
            alphas = {}

            def ensure(j, channel, t):
                entries = tpl.state[j] if channel == "x" else tpl.input[j]
                t = min(t, len(entries) - 1)
                key = (j, channel, t)
                if key not in alphas:
                    width = np.asarray(entries[t][1]).shape[1]
                    alphas[key] = lp.var_block(f"al:{channel}:{j}:{t}", width,
                                               lb=0.0, ub=cap)
                return alphas[key]

            handles = {
                sid: emit_subsystem(lp, network, tpl, sid, ensure, k=k,
                                    reduction_order=reduction_order, slack=False)
                for sid in ids
            }

            if not tpl.is_bounds:
                _admissibility_rows(lp, network, tpl, ensure)

            lp.set_costs(np.concatenate([ensure(sid, "x", t) for sid in ids
                                         for t in range(len(tpl.state[sid]))]), 1.0)

        with phases("extract"):
            sol = lp.solve()
            if sol.status == lpcore.INFEASIBLE:
                return _finish(
                    SynthesisResult(
                        status="failed", method="centralized", mode=network.mode,
                        value=None, objective=None, iterations=0, params=None,
                        solutions=None, hint=RETRY_HINT, network=network,
                        template=tpl),
                    solver, wall0, phases)
            if sol.status != lpcore.OPTIMAL:
                raise lpcore.LpSolverError(f"centralized LP ended with {sol.status}")

            x_vals, u_vals = {}, {}
            for sid in ids:
                x_vals[sid] = [np.maximum(sol.column_values(alphas[(sid, "x", t)]), 0.0)
                               for t in range(len(tpl.state[sid]))]
                if sid in tpl.input:
                    u_vals[sid] = [np.maximum(sol.column_values(alphas[(sid, "u", t)]), 0.0)
                                   for t in range(len(tpl.input[sid]))]
            params = ContractParams(x=x_vals, u=u_vals,
                                    max_x=caps.x, max_u=caps.u)
            solutions = {
                sid: _numeric_solution(sol, handles[sid])
                for sid in ids
            }

    with phases("certify"):
        correctness = check_correctness(network, tpl, params, solutions)
    status = "correct" if correctness.ok else "failed"

    return _finish(
        SynthesisResult(
            status=status, method="centralized", mode=network.mode,
            value=0.0 if correctness.ok else None, objective=sol.objective,
            iterations=0, params=params, solutions=solutions,
            hint=None if correctness.ok else RETRY_HINT,
            correctness=correctness, network=network, template=tpl),
        solver, wall0, phases)


def _admissibility_rows(lp, network, template, ensure):
    """Custom-template promise-in-hard-bounds containments."""
    for sid in network.sorted_ids():
        sub = network.subsystem(sid)
        for channel, promises in (("x", template.state), ("u", template.input)):
            for t, (c, C) in enumerate(promises.get(sid, ())):
                add_promise_admissibility(lp, ensure(sid, channel, t), c, C,
                                          admissible_set(sub, channel, t),
                                          f"adm:{channel}:{sid}:{t}")


# ---------------------------------------------------------------------------
# dense baseline (no decomposition at all)


def centralized_dense(network, mode=None, k=None, beta=0.0):
    """Fold the whole network into one system and solve it monolithically.

    The benchmark baseline: no contracts, no structure, one big viability
    problem whose LP grows with the total dimension.  The single aggregate
    solution is stored under the key "aggregate".  It is stamped "correct"
    after its containments and its aggregate recursion are re-checked.
    """
    _check_mode(network, mode)
    wall0 = time.perf_counter()
    phases = _Phases()

    with lpcore.track_solver_time() as solver:
        with phases("build"):
            agg = aggregate(network)
            if network.mode == "infinite":
                n_total = agg.A[0].shape[0]
                budget = k if k is not None else n_total + agg.D[0].num_generators
                X, U = agg.X[0], agg.U[0]
                lp, read = viability.rci_lp(agg.A[0], agg.B[0], agg.D[0], X, U,
                                            k=budget, beta=beta)
            else:
                X, U = list(agg.X), list(agg.U)
                lp, read = viability.finite_viable_lp(list(agg.A), list(agg.B),
                                                      list(agg.D), X, U, k=k or 0)
        with phases("extract"):
            sol = viability.solve_and_read(lp, read, lp.name)

    # Certification is metered apart from the synthesis LP, as in the
    # other two methods.
    correctness = None
    with phases("certify"):
        if sol is not None:
            state, inputs, fallbacks = viability.certify_solution(sol, X, U)
            residual = recursion_residual(sol, agg.A, agg.B)
            failures = [] if residual <= viability.RESIDUAL_TOL else [
                f"aggregate: recursion residual {residual:.3e}"]
            correctness = CorrectnessReport(not failures, state, inputs, residual,
                                            failures, lp_fallbacks=fallbacks)
    ok = correctness is not None and correctness.ok

    return _finish(
        SynthesisResult(
            status="correct" if ok else "failed", method="centralized-dense",
            mode=network.mode, value=None, objective=sol.objective if sol else None,
            iterations=0, params=None,
            solutions={"aggregate": sol} if sol else None,
            hint=None if ok else RETRY_HINT, correctness=correctness,
            network=network),
        solver, wall0, phases)
