"""End-to-end contract synthesis: centralized single-LP and descent drivers.

Two roads to a correct composition:

* ``centralized_synthesize`` stacks every subsystem's viability constraints
  and the parametric coupling definitions into one LP and minimizes the
  total promised state-tube size.  Feasible means correct by construction,
  but the LP couples everything with everything.

* ``compositional_synthesize`` descends the potential
  V(alpha) = sum_i V_i(alpha) from module ``contracts``.  Each iteration
  re-solves |I| small independent LPs, each built once and re-solved warm,
  whose duals give a subgradient of each V_i.  V = 0 certifies the
  composition.  Each tube is then the slack-free potential optimum where the
  recursion pins T, else the same LP solved without slack.

The step rule deserves a note.  V is convex and piecewise linear, each V_i
is nonnegative, and the target value is known: a correct composition has
V = 0.  So every evaluation gives valid cuts
V_i(alpha_k) + g_ik . (alpha - alpha_k) <= 0 on every correct alpha.

* ``rule="level"`` (the default) is the level method with a known optimum
  0 (Kelley 1960; Lemarechal, Nemirovskii and Nesterov 1995).  A small
  master LP keeps one cut per subsystem per evaluation, and the next
  iterate is the L1 projection of the current one onto {every cut <= 0}
  within [0, alpha_max].  Every iterate with V <= tol_v tries the hard
  extraction; a miss leaves the cuts of its positive V_i in force, so the
  master carries on.  An infeasible master, even with the cuts relaxed by
  tol_v, proves that no alpha in the box composes under this template and
  encoding, and the run ends "failed" saying so.
* ``rule="subgradient"`` is the paper's projected subgradient descent,
  kept as the baseline.  A plain backtracking line search can wedge into a
  kink where the negative subgradient is not a descent direction (observed
  on the shipped three-subsystem example: a monotone Armijo loop stalls
  around V ~ 7e-2).  With ``line_search=True`` the step length is therefore
  the target-value rule s = V / ||g||^2 (Polyak), which needs no tuning;
  individual iterations may move uphill, the run as a whole descends.
  ``line_search=False`` uses the constant step ``delta`` instead.  When
  the hard extraction misses by ~tol_v, the descent resumes.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from . import lpcore, viability
from .contracts import (
    ContractParams,
    ContractTemplate,
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

#: machine-readable remedy attached to failed syntheses (the advisory is to
#: re-run with a larger generator budget k or a higher reduction order).
RETRY_HINT = "increase k or the reduction order and try again"

#: attached when the level master proves that no parameters can compose.
NO_ALPHA_HINT = ("the cutting-plane master is infeasible: no alpha in "
                 "[0, alpha_max] gives V = 0 under this template, k and "
                 "reduction order; change one of them")


def _failure_hint(correctness, hint=RETRY_HINT):
    """None for a certified result; a failed certificate's first failure
    before :data:`RETRY_HINT`; ``hint`` when nothing was certified."""
    if correctness is None:
        return hint
    return None if correctness.ok else f"{correctness.failures[0]}; {RETRY_HINT}"


#: step rules of the compositional descent
RULES = ("level", "subgradient")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class DescentConfig:
    """Knobs of the compositional descent loop."""

    delta: float = 1.0            # subgradient step size when line_search is off
    max_iters: int = 500
    tol_v: float = 1e-6           # stop once V <= tol_v
    k: int | None = None          # generator budget per subsystem (None: default)
    reduction_order: int | None = 1
    line_search: bool = True      # subgradient: Polyak steps (True) or fixed delta
    seed: int = 0                 # seeds the "random" init
    init: str = "half"            # "half" | "max" | "random"
    # None or 1 only: evaluation is serial.  The field stays while
    # perfbench/workloads.py spells it out, and goes with its next change.
    threads: int | None = None
    rule: str = "level"           # "level" (cutting-plane master) | "subgradient"

    def validate(self):
        if self.threads not in (None, 1):
            raise ValueError(f"threads={self.threads!r}: the worker pool is gone and "
                             "evaluation is serial; pass None or 1")
        if self.rule not in RULES:
            raise ValueError(f"unknown step rule {self.rule!r}; expected one of {RULES}")
        for name in ("delta", "tol_v"):
            if not 0.0 < getattr(self, name) < np.inf:  # NaN fails both
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.init not in ("half", "max", "random"):
            raise ValueError(f"unknown init {self.init!r}")
        _check_encoding(self.k, self.reduction_order)


def _initial_params(caps, cfg):
    if cfg.init == "max":
        return caps.copy()
    if cfg.init == "random":
        rng = np.random.default_rng(cfg.seed)
        return caps.from_vector(caps.to_vector() * rng.uniform(0.0, 1.0, caps.to_vector().size))
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


def _check_encoding(k, reduction_order=None):
    """Reject a negative generator budget ``k`` and a reduction order below
    1 (None keeps the columns exact)."""
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if reduction_order is not None and reduction_order < 1:
        raise ValueError(f"reduction_order must be >= 1 or None (exact), got {reduction_order}")


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
    encoding: dict = field(default_factory=dict)  # k and reduction_order as passed

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
            **self.encoding,
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
                    solutions[sid] = viability.TubeSolution.from_json(json.load(fh))
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
            network=network, template=template,
            encoding={key: rep[key] for key in ("k", "reduction_order") if key in rep})


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
    lookup = {str(s): s for s in (network.sorted_ids() if network else [])}
    state, inputs = ({lookup.get(key, key): [(np.asarray(c, float), np.asarray(C, float))
                                             for c, C in entries]
                      for key, entries in data[name].items()} for name in ("state", "input"))
    return ContractTemplate(state=state, input=inputs, is_bounds=bool(data["is_bounds"]))


# ---------------------------------------------------------------------------
# compositional descent


def _line_step(programs, params, direction, s, cfg):
    """Evaluate at the box projection of ``params + s * direction``, halving
    ``s`` while the potential is infeasible there; returns (params, eval, s)
    or None after 60 halvings."""
    vec = params.to_vector()
    for _ in range(60):
        cand = params.from_vector(vec + s * direction).clipped()
        try:
            rc = potential(programs, cand)
        except PotentialInfeasible:
            s *= 0.5          # step into an infeasible corner; shorten
            continue
        return cand, rc, s
    return None


def _descent_step(programs, params, res, cfg):
    """One projected subgradient step; (params, eval, step) or None if wedged."""
    g = res.grad.to_vector()
    gnorm2 = float(np.dot(g, g))
    if gnorm2 == 0.0:
        return None
    s = res.value / gnorm2 if cfg.line_search else cfg.delta
    return _line_step(programs, params, -g, s, cfg)


class _LevelMaster:
    """The level method's master LP over the whole parameter vector.

    An evaluation with V_i(alpha_k) > 0 gives the cut
    V_i(alpha_k) + g_ik . (alpha - alpha_k) <= 0 over the entries that
    subsystem i reads (its program's index array, ``PotentialEval.reads``):
    V_i >= 0 is convex and g_ik is a subgradient, so every
    correct alpha (V = 0) satisfies every cut.  The next iterate is the point
    of {every cut <= 0} within [0, alpha_max] nearest to the current one in
    the L1 norm.

    Columns: ``alpha`` in the box; the anchor, fixed at the current iterate
    by its bounds; the move up/down >= 0 with alpha - anchor = up - down, at
    cost 1 each; and one column every cut subtracts, fixed at 0, or at
    ``tol`` for the infeasibility verdict.  Moving the anchor is one bound
    update; each cut is one row.
    """

    def __init__(self, caps, tol):
        self.tol = tol
        top = caps.to_vector()
        n = top.size
        lp = LinearProgram(name="master")
        self.alpha = lp.var_block(n, lb=0.0)
        lp.set_col_bounds(self.alpha, 0.0, top)
        self.anchor = lp.var_block(n, lb=0.0, ub=0.0)
        move = lp.var_block((2, n), lb=0.0)
        lp.add_rows(np.tile(np.arange(n), 4),
                    np.concatenate([self.alpha, self.anchor, move[0], move[1]]),
                    np.repeat([1.0, -1.0, -1.0, 1.0], n), np.zeros(n), "=")
        lp.set_costs(move.ravel(), 1.0)
        self.relax = lp.var_block(1, lb=0.0, ub=0.0)
        self.lp = lp
        self.empty = False  # set once the cuts exclude the whole box

    def add_cuts(self, vec, res):
        """One cut per subsystem with V_i > 0 in ``res``, the evaluation at
        the parameter vector ``vec``."""
        rows, cols, coefs, rhs = [], [], [], []
        for ev in res.evals.values():
            if ev.value <= 0.0:
                continue
            reads, g = ev.reads, ev.grad
            rows.append(np.full(len(reads) + 1, len(rhs)))
            cols.append(np.append(self.alpha[reads], self.relax))
            coefs.append(np.append(g, -1.0))
            rhs.append(float(g @ vec[reads]) - ev.value)
        if rhs:
            self.lp.add_rows(np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(coefs), rhs, "<")

    def project(self, vec):
        """The L1-nearest point to ``vec`` on every cut; None if even the
        cuts relaxed by ``tol`` leave no point in the box."""
        self.lp.set_col_bounds(self.anchor, vec, vec)
        sol = self.lp.solve()
        if sol.status == lpcore.INFEASIBLE:
            # the verdict is taken on cuts relaxed by tol, so that a thin
            # correct region is not declared empty by rounding in the cuts
            self.lp.set_col_bounds(self.relax, self.tol, self.tol)
            try:
                sol = self.lp.solve()
            finally:
                self.lp.set_col_bounds(self.relax, 0.0, 0.0)
        return None if sol.status == lpcore.INFEASIBLE else sol.column_values(self.alpha)

    def step(self, programs, params, res, cfg, phases):
        """Cut at ``res``, then evaluate at the projection, halving the move
        while the potential is infeasible there.  Returns (params, eval, L1
        length of the move), or None if wedged or if the cuts leave no
        point (then ``empty`` is set)."""
        vec = params.to_vector()
        with phases("master"):
            self.add_cuts(vec, res)
            target = self.project(vec)
        self.empty = target is None
        if self.empty or np.array_equal(target, vec):
            return None
        with phases("descent"):
            stepped = _line_step(programs, params, target - vec, 1.0, cfg)
        if stepped is None:
            return None
        params, res, _ = stepped
        return params, res, float(np.abs(params.to_vector() - vec).sum())


def compositional_synthesize(network, template=None, mode=None, config=None):
    """Descend the potential; extract and certify tubes once it vanishes.

    Returns a SynthesisResult whose status is "correct" only if V reached
    ``tol_v``, ``extract_solutions`` gave every subsystem a slack-free tube
    and check_correctness signed off (on every hard LP's tube where reused
    ones fail it).  Otherwise status is "failed" and ``hint`` carries the
    retry advisory, after the first failure of a failed certificate, or
    :data:`NO_ALPHA_HINT` when the master proved no parameters compose.
    """
    cfg = config or DescentConfig()
    cfg.validate()
    _check_mode(network, mode)
    tpl = template if template is not None else default_template(network)
    encoding = dict(k=cfg.k, reduction_order=cfg.reduction_order)
    wall0 = time.perf_counter()
    phases = _Phases()
    trace = []
    solutions = None
    it = attempts = reused = 0

    with lpcore.track_solver_time() as solver:
        with phases("caps"):
            caps = alpha_max(network, tpl)
        with phases("build"):
            params = _initial_params(caps, cfg).clipped(caps)
            programs = build_programs(network, tpl, k=cfg.k,
                                      reduction_order=cfg.reduction_order)
        try:
            with phases("descent"):
                res = potential(programs, params)
        except PotentialInfeasible as exc:
            return _finish(
                SynthesisResult(
                    status="failed", method="compositional", mode=network.mode,
                    value=None, objective=None, iterations=0, params=params,
                    solutions=None, trace=trace, hint=f"{exc}; {RETRY_HINT}",
                    network=network, template=tpl, encoding=encoding),
                solver, wall0, phases)

        trace.append((0, res.value, float(np.linalg.norm(res.grad.to_vector())), 0.0))
        master = None
        if cfg.rule == "level":
            with phases("master"):
                master = _LevelMaster(caps, cfg.tol_v)
        # Every iterate at V <= tol_v, and no other, tries the extraction,
        # which can miss by ~tol_v.  A miss leaves the level master's cuts of
        # the positive V_i in force; either rule then carries on.
        while True:
            if res.value <= cfg.tol_v:
                attempts += 1
                try:
                    with phases("extract"):
                        solutions, reused = extract_solutions(programs, params)
                    break
                except PotentialInfeasible:
                    pass
            if it >= cfg.max_iters:
                break
            if master is None:
                with phases("descent"):
                    stepped = _descent_step(programs, params, res, cfg)
            else:
                stepped = master.step(programs, params, res, cfg, phases)
            if stepped is None:
                break
            params, res, s = stepped
            it += 1
            trace.append((it, res.value, float(np.linalg.norm(res.grad.to_vector())), s))
        hint = NO_ALPHA_HINT if master is not None and master.empty else RETRY_HINT

    correctness = None
    while solutions is not None:
        with phases("certify"):
            correctness = check_correctness(network, tpl, params, solutions)
        if correctness.ok or not reused:
            break
        solutions, reused = None, 0  # a reused tube failed: every hard LP solves
        with lpcore.track_solver_time(solver), phases("extract"), suppress(PotentialInfeasible):
            solutions, reused = extract_solutions(programs, params, reuse=False)
    status = "correct" if correctness is not None and correctness.ok else "failed"

    return _finish(
        SynthesisResult(
            status=status, method="compositional", mode=network.mode,
            value=res.value, objective=None, iterations=it, params=params,
            solutions=solutions, trace=trace, hint=_failure_hint(correctness, hint),
            correctness=correctness, network=network, template=tpl, encoding=encoding),
        solver, wall0, phases, extract_attempts=attempts, reused_tubes=reused,
        master_size=master.lp._size if master is not None else (0, 0, 0))


def _finish(result, solver, wall0, phases, master_size=(0, 0, 0), **counts):
    """Stamp the solver totals and the per-phase wall seconds on ``result``.

    The phases: ``caps`` computes the box [0, alpha_max]; ``build`` makes
    the synthesis LPs (for the dense baseline, folds the network and builds
    its one LP); ``descent`` evaluates the potential (0 for the one-LP
    methods); ``master`` builds and solves the level rule's master LP;
    ``extract`` solves for the tubes or reuses them and reads them back
    (compositional: every attempt, and the re-solve after a reused tube
    fails); ``certify`` is check_correctness.  Unset ``counts`` read 0.
    ``max_lp_*`` is the largest LP solved, the level master included;
    ``master_lp_*`` is the level master alone (0 without one).
    ``solver_retries`` counts the solves re-run by the interior-point solver
    after the simplex solver broke down, ``solver_instances`` the HiGHS
    instances made.
    """
    result.timings = {
        "solve_seconds": solver.seconds,
        "solves": solver.solves,
        "cold_solves": solver.cold_solves,
        **{f"{name}_seconds": phases.get(name, 0.0)
           for name in ("caps", "build", "descent", "master", "extract", "certify")},
        "wall_seconds": time.perf_counter() - wall0,
        "max_lp_rows": solver.max_rows,
        "max_lp_cols": solver.max_cols,
        "max_lp_nnz": solver.max_nnz,
        **dict(zip(("master_lp_rows", "master_lp_cols", "master_lp_nnz"), master_size)),
        "solver_retries": solver.retries,
        "solver_instances": solver.instances,
        **{"extract_attempts": 0, "reused_tubes": 0, **counts},
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
    through check_correctness before being stamped "correct", and the hint
    of one that fails it names its first failure.  Infeasible
    returns status "failed" with no partial solutions (retry with larger k).
    """
    _check_mode(network, mode)
    _check_encoding(k, reduction_order)
    tpl = template if template is not None else default_template(network)
    encoding = dict(k=k, reduction_order=reduction_order)
    wall0 = time.perf_counter()
    phases = _Phases()
    ids = network.sorted_ids()

    with lpcore.track_solver_time() as solver:
        with phases("caps"):
            caps = alpha_max(network, tpl)
        with phases("build"):
            batch = lpcore._LpBatch(["centralized"])
            cap = 1.0 if tpl.is_bounds else lpcore.INF
            alphas = {}

            def ensure(j, channel, t):
                entries = tpl.state[j] if channel == "x" else tpl.input[j]
                t = min(t, len(entries) - 1)
                key = (j, channel, t)
                if key not in alphas:
                    width = np.asarray(entries[t][1]).shape[1]
                    alphas[key] = batch.var_block(width, lb=0.0, ub=cap)[0]
                return alphas[key]

            handles = {
                sid: emit_subsystem(batch, network, tpl, [sid], [ensure], k=k,
                                    reduction_order=reduction_order, slack=False)[0]
                for sid in ids
            }

            if not tpl.is_bounds:
                _admissibility_rows(batch, network, tpl, ensure)

            (lp,) = batch.programs()
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
                        template=tpl, encoding=encoding),
                    solver, wall0, phases)

            cols = [alphas[(sid, channel, t)] for channel, series in (("x", caps.x), ("u", caps.u))
                    for sid, steps in series.items() for t in range(len(steps))]
            params = caps.from_vector(np.maximum(sol.column_values(np.concatenate(cols)), 0.0))
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
            hint=_failure_hint(correctness), correctness=correctness, network=network,
            template=tpl, encoding=encoding),
        solver, wall0, phases)


def _admissibility_rows(lp, network, template, ensure):
    """Custom-template promise-in-hard-bounds containments."""
    for sid in network.sorted_ids():
        sub = network.subsystem(sid)
        for channel, promises in (("x", template.state), ("u", template.input)):
            for t, (c, C) in enumerate(promises.get(sid, ())):
                add_promise_admissibility(lp, ensure(sid, channel, t), c, C,
                                          admissible_set(sub, channel, t))


# ---------------------------------------------------------------------------
# dense baseline (no decomposition at all)


def centralized_dense(network, mode=None, k=None, beta=0.0):
    """Fold the whole network into one system and solve it monolithically.

    The benchmark baseline: no contracts, no structure, one big viability
    problem whose LP grows with the total dimension.  The single aggregate
    solution is stored under the key "aggregate" and certified by
    ``viability.certify_tube``; a failed certificate's failures start
    "aggregate: ", and the hint names the first.  ``beta`` contracts the
    invariant tube (see ``viability.viable``); a nonzero one on a finite
    network raises ValueError.  ``k`` defaults to n_total + p for an
    invariant tube and to 0 for a finite one, which grows by each step's
    disturbance columns.  Zero forcing (a recursion row with constant 0 and
    one entry not yet pinned pins it, see ``viability.viable_lp``) leaves
    out the entries the recursion pins to 0: geo40's LP has 3,644 rows, not 16,180.
    """
    _check_mode(network, mode)
    _check_encoding(k)
    wall0 = time.perf_counter()
    phases = _Phases()

    with lpcore.track_solver_time() as solver:
        with phases("build"):
            agg = aggregate(network)
            n_total = agg.A[0].shape[0]
            if k is None:
                k = 0 if network.mode == "finite" else n_total + agg.D[0].num_generators
            lp, read = viability.viable_lp(agg.A, agg.B, agg.D, agg.X, agg.U, k, beta)
        with phases("extract"):
            sol = viability.solve_and_read(lp, read)

    # Certification is metered apart from the synthesis LP, as in the
    # other two methods.
    correctness = None
    with phases("certify"):
        if sol is not None:
            report = viability.certify_tube(sol, agg.A, agg.B, agg.X, agg.U)
            correctness = replace(report, failures=[f"aggregate: {f}" for f in report.failures])
    ok = correctness is not None and correctness.ok

    return _finish(
        SynthesisResult(
            status="correct" if ok else "failed", method="centralized-dense",
            mode=network.mode, value=None, objective=sol.objective if sol else None,
            iterations=0, params=None,
            solutions={"aggregate": sol} if sol else None,
            hint=_failure_hint(correctness), correctness=correctness,
            network=network),
        solver, wall0, phases)
