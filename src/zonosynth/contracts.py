"""Parametric set contracts between coupled subsystems, and their potential.

Each subsystem i promises to stay inside a *parametric* state tube

    Xc_i(t, alpha) = Z(cbar_i(t), C_i(t) Diag(alpha_i^x(t)))

(and, where its input disturbs someone else, an input tube U c_i(t, alpha)).
Under everyone else's promises, subsystem i sees the augmented disturbance

    W_i(t, alpha) = (+)_j [ A_ij Xc_j(t, alpha) (+) B_ij Uc_j(t, alpha) ] (+) D_i

whose boxed half-widths are *linear* in alpha, so local viability under the
contracts stays a linear program.  The potential of a parameter vector is

    V(alpha) = sum_i V_i(alpha),
    V_i = min sum_t d_t^x + d_t^u
          s.t. local viability under W_i(alpha),
               Omega_i(t) inside Xc_i(t, alpha) padded by d_t^x,
               Theta_i(t) inside Uc_i(t, alpha) padded by d_t^u,

i.e. the total directed-Hausdorff-style slack by which the local solution
misses its own promise.  V(alpha) = 0 certifies the composition.

Both per-subsystem programs are built once and re-solved warm: the alpha
enter only as pinned right-hand sides, so a new parameter vector rewrites
those and nothing else.  ``PotentialProgram`` evaluates V_i, whose gradient
falls out of the pin-row duals; ``ExtractionProgram`` solves the same
viability problem without slack to extract the final tubes.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .geom import (Zonotope, add_scaled_containment, directed_hausdorff, hausdorff_bound,
                   scale_generators, witness_values)
from .lpcore import LinearProgram, lin_matmul, lin_sum
from .sysmodel import _id_key
from .viability import RciSolution, ViableSolution, _abs_objective

ALPHA_CAP = 1e6
THREADS_ENV = "CONTRACT_SYNTH_THREADS"


class ContractError(Exception):
    """A contract template or parameter vector is malformed."""


class PotentialInfeasible(ContractError):
    """The local viability LP has no solution at the requested parameters."""


def _at(entries, t):
    """Index a per-step list, treating single-entry lists as constant."""
    return entries[t] if len(entries) > 1 else entries[0]


# ---------------------------------------------------------------------------
# templates and parameters


@dataclass(frozen=True)
class ContractTemplate:
    """Shapes (center, columns) of every promised tube; alpha scales columns.

    ``state[sid]`` has one (center, columns) pair per contract step (horizon
    plus one for finite mode, a single pair for infinite mode); ``input``
    holds pairs only for subsystems whose input disturbs a neighbor.
    ``is_bounds`` records that the pairs coincide with the admissible sets
    X_i / U_i, in which case alpha = 1 is the outermost admissible promise.
    """

    state: dict
    input: dict
    is_bounds: bool = True

    def state_set(self, params, sid, t):
        c, C = _at(self.state[sid], t)
        return scale_generators(Zonotope(c, C), _at(params.x[sid], t))

    def input_set(self, params, sid, t):
        c, C = _at(self.input[sid], t)
        return scale_generators(Zonotope(c, C), _at(params.u[sid], t))


def default_template(network):
    """Promise exactly the admissible sets, scaled: the usual starting point."""
    steps = network.num_steps
    steps_x = steps + 1 if network.mode == "finite" else 1
    state = {}
    inputs = {}
    for sid in network.sorted_ids():
        sub = network.subsystem(sid)
        state[sid] = tuple(
            (sub.X_at(t).center, sub.X_at(t).generators) for t in range(steps_x))
        if sub.m and network.has_outgoing_input_coupling(sid):
            inputs[sid] = tuple(
                (sub.U_at(t).center, sub.U_at(t).generators) for t in range(steps))
    return ContractTemplate(state, inputs, is_bounds=True)


@dataclass
class ContractParams:
    """Per-subsystem, per-step generator multipliers with their upper caps."""

    x: dict
    u: dict
    max_x: dict
    max_u: dict

    def _keys(self):
        for sid in sorted(self.x, key=_id_key):
            yield sid, "x"
        for sid in sorted(self.u, key=_id_key):
            yield sid, "u"

    def copy(self):
        return ContractParams(
            {s: [a.copy() for a in v] for s, v in self.x.items()},
            {s: [a.copy() for a in v] for s, v in self.u.items()},
            self.max_x,
            self.max_u,
        )

    def zeros_like(self):
        return ContractParams(
            {s: [np.zeros_like(a) for a in v] for s, v in self.x.items()},
            {s: [np.zeros_like(a) for a in v] for s, v in self.u.items()},
            self.max_x,
            self.max_u,
        )

    def scaled(self, fraction):
        """Parameters at ``fraction`` of their caps (e.g. the descent start)."""
        return ContractParams(
            {s: [a * fraction for a in v] for s, v in self.max_x.items()},
            {s: [a * fraction for a in v] for s, v in self.max_u.items()},
            self.max_x,
            self.max_u,
        )

    def clipped(self):
        """Projection onto the admissible box [0, alpha_max]."""
        return ContractParams(
            {s: [np.clip(a, 0.0, mx) for a, mx in zip(v, self.max_x[s])]
             for s, v in self.x.items()},
            {s: [np.clip(a, 0.0, mx) for a, mx in zip(v, self.max_u[s])]
             for s, v in self.u.items()},
            self.max_x,
            self.max_u,
        )

    def to_vector(self):
        chunks = []
        for sid, ch in self._keys():
            chunks.extend((self.x if ch == "x" else self.u)[sid])
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def from_vector(self, vec):
        vec = np.asarray(vec, dtype=float)
        out = self.zeros_like()
        pos = 0
        for sid, ch in self._keys():
            target = (out.x if ch == "x" else out.u)[sid]
            for t, a in enumerate(target):
                target[t] = vec[pos:pos + a.size].copy()
                pos += a.size
        if pos != vec.size:
            raise ContractError(f"vector has {vec.size} entries, expected {pos}")
        return out

    def to_json(self):
        def dump(d):
            return {str(s): [a.tolist() for a in v] for s, v in d.items()}

        return {"x": dump(self.x), "u": dump(self.u),
                "max_x": dump(self.max_x), "max_u": dump(self.max_u)}

    @classmethod
    def from_json(cls, data, ids=None):
        def load(d):
            out = {}
            for s, v in d.items():
                key = s
                if ids is not None:
                    matches = [i for i in ids if str(i) == s]
                    if matches:
                        key = matches[0]
                out[key] = [np.asarray(a, dtype=float) for a in v]
            return out

        return cls(load(data["x"]), load(data["u"]),
                   load(data["max_x"]), load(data["max_u"]))


def _max_alpha_lp(center, cols, admissible, backend=None):
    q = cols.shape[1]
    if q == 0:
        return np.zeros(0)
    lp = LinearProgram(name="alphamax", backend=backend)
    a = lp.var_array("a", q, lb=0.0, ub=ALPHA_CAP)
    inner = np.empty(cols.shape, dtype=object)
    for i in range(cols.shape[0]):
        for j in range(q):
            inner[i, j] = a[j] * float(cols[i, j])
    add_scaled_containment(lp, inner, np.asarray(center, dtype=float),
                           admissible.generators,
                           [1.0] * admissible.num_generators,
                           admissible.center, "fit")
    lp.minimize(lin_sum(a) * -1.0)
    sol = lp.solve()
    if sol.status != lpcore.OPTIMAL:
        raise ContractError(
            f"cannot fit template inside admissible set ({sol.status})")
    return np.minimum(sol.value(a), ALPHA_CAP)


def alpha_max(network, template, backend=None):
    """Outermost admissible parameters (ones for is_bounds templates)."""
    max_x = {}
    max_u = {}
    for sid, entries in template.state.items():
        sub = network.subsystem(sid)
        max_x[sid] = [
            np.ones(C.shape[1]) if template.is_bounds
            else _max_alpha_lp(c, C, sub.X_at(t), backend)
            for t, (c, C) in enumerate(entries)
        ]
    for sid, entries in template.input.items():
        sub = network.subsystem(sid)
        max_u[sid] = [
            np.ones(C.shape[1]) if template.is_bounds
            else _max_alpha_lp(c, C, sub.U_at(t), backend)
            for t, (c, C) in enumerate(entries)
        ]
    return ContractParams(
        {s: [a.copy() for a in v] for s, v in max_x.items()},
        {s: [a.copy() for a in v] for s, v in max_u.items()},
        max_x,
        max_u,
    )


# ---------------------------------------------------------------------------
# augmented disturbance structure


@dataclass(frozen=True)
class AugBlock:
    """One generator block of an augmented disturbance: scaled by one alpha."""

    kind: str  # "state" | "input" | "local"
    source: object  # neighbor id, or None for the local disturbance
    cols: np.ndarray  # base columns before any alpha scaling


def aug_blocks(network, template, sid, t):
    """Center and column blocks of W_i(t, alpha), in canonical order.

    Blocks are ordered neighbor-by-neighbor (ascending id, state block then
    input block) with the local disturbance last; this ordering is relied on
    everywhere a witness or certificate refers to W columns.
    """
    sub = network.subsystem(sid)
    center = np.array(sub.D_at(t).center, dtype=float)
    blocks = []
    for j in sub.neighbor_ids():
        coupling = sub.couplings[j]
        A_ij = coupling.A_at(t)
        cx, Cx = _at(template.state[j], t)
        blocks.append(AugBlock("state", j, A_ij @ Cx))
        center = center + A_ij @ cx
        B_ij = coupling.B_at(t)
        if B_ij is not None and np.any(B_ij):
            if j not in template.input:
                raise ContractError(
                    f"subsystem {j!r} disturbs {sid!r} through its input "
                    "but has no input contract")
            cu, Cu = _at(template.input[j], t)
            blocks.append(AugBlock("input", j, B_ij @ Cu))
            center = center + B_ij @ cu
    blocks.append(AugBlock("local", None, np.array(sub.D_at(t).generators, dtype=float)))
    return center, blocks


def _block_alpha(params, block, t):
    if block.kind == "state":
        return _at(params.x[block.source], t)
    if block.kind == "input":
        return _at(params.u[block.source], t)
    return np.ones(block.cols.shape[1])


def augmented_disturbance(network, template, params, sid, t):
    """The exact (un-reduced) W_i(t, alpha) as a numeric zonotope."""
    center, blocks = aug_blocks(network, template, sid, t)
    n = center.shape[0]
    cols = [block.cols * _block_alpha(params, block, t)[None, :] for block in blocks]
    G = np.hstack(cols) if cols else np.zeros((n, 0))
    return Zonotope(center, G)


def _choose_columns(blocks, n, order):
    """Split W columns into kept (exact) and boxed, mirroring order_reduce_box.

    The split uses *unscaled* column norms so it does not depend on alpha and
    the LP structure stays fixed across evaluations.
    """
    allcols = [(bi, ci) for bi, block in enumerate(blocks)
               for ci in range(block.cols.shape[1])]
    if order is None:
        return allcols, []
    if order == 1:
        return [], allcols
    if len(allcols) <= n * order:
        return allcols, []
    keep = n * (order - 1)
    norms = np.array([np.linalg.norm(blocks[bi].cols[:, ci]) for bi, ci in allcols])
    kept_idx = set(int(i) for i in np.argsort(-norms, kind="stable")[:keep])
    kept = [pc for i, pc in enumerate(allcols) if i in kept_idx]
    boxed = [pc for i, pc in enumerate(allcols) if i not in kept_idx]
    return kept, boxed


def _w_expr_columns(blocks, split, alpha_cols, n):
    """W_i generator columns as LP expressions: kept exact, remainder boxed."""
    kept, boxed = split
    columns = []
    for bi, ci in kept:
        base = blocks[bi].cols[:, ci]
        a = alpha_cols[bi]
        if a is None:
            columns.append([float(v) for v in base])
        else:
            columns.append([a[ci] * float(v) for v in base])
    if boxed:
        radii = []
        for i in range(n):
            terms = []
            const = 0.0
            for bi, ci in boxed:
                coef = abs(float(blocks[bi].cols[i, ci]))
                if coef == 0.0:
                    continue
                a = alpha_cols[bi]
                if a is None:
                    const += coef
                else:
                    terms.append(a[ci] * coef)
            radii.append(lin_sum(terms) + const if terms else const)
        for i in range(n):
            col = [0.0] * n
            col[i] = radii[i]
            columns.append(col)
    return columns


def _w_numeric(network, template, params, sid, t, split):
    """Numeric value of the reduced W_i(t, alpha) with the same column split."""
    center, blocks = aug_blocks(network, template, sid, t)
    n = center.shape[0]
    kept, boxed = split
    cols = []
    for bi, ci in kept:
        a = _block_alpha(params, blocks[bi], t)
        cols.append(blocks[bi].cols[:, ci] * a[ci])
    if boxed:
        r = np.zeros(n)
        for bi, ci in boxed:
            a = _block_alpha(params, blocks[bi], t)
            r += np.abs(blocks[bi].cols[:, ci]) * a[ci]
        cols.extend(list(np.diag(r).T))
    G = np.column_stack(cols) if cols else np.zeros((n, 0))
    return Zonotope(center, G)


# ---------------------------------------------------------------------------
# row emission (shared with centralized synthesis)


@dataclass
class SubsystemHandles:
    """LP variable handles produced by ``emit_subsystem``."""

    sid: object
    k: int
    widths: list
    T: list
    xbar: list
    M: list
    ubar: list
    d_x: list
    d_u: list
    splits: list
    structure: list  # per step: (center, blocks)
    witness: dict  # hard containments only: row prefix -> containment handles


def emit_subsystem(lp, network, template, sid, alpha_of, k=None,
                   reduction_order=1, slack=True):
    """Emit subsystem ``sid``'s viability-under-contracts rows into ``lp``.

    ``alpha_of(j, channel, t)`` returns the generator multipliers of
    subsystem j's promised tube at step t, as numbers or LP expressions
    (``channel`` is "x" or "u").  With ``slack=True`` every containment in
    the own promise is padded by a nonnegative scalar d (one per step and
    channel); their sum is this subsystem's potential share.  With
    ``slack=False`` the containments are hard, which is what a centralized
    program wants; the handles of those containment witnesses are then
    kept, keyed by the row prefix without the subsystem tag ("inC0",
    "term", "inU0", ...).
    """
    sub = network.subsystem(sid)
    n, m = sub.n, sub.m
    steps = network.num_steps
    finite = network.mode == "finite"
    structure = [aug_blocks(network, template, sid, t) for t in range(steps)]
    splits = [_choose_columns(blocks, n, reduction_order)
              for _, blocks in structure]
    p_red = [len(kept) + (n if boxed else 0) for kept, boxed in splits]
    if k is None:
        k = n if finite else n + p_red[0]

    tag = f"s{sid}"
    steps_x = steps + 1 if finite else 1
    widths = [k]
    if finite:
        for t in range(steps):
            widths.append(widths[-1] + p_red[t])
    T = [lp.var_array(f"{tag}:T{t}", (n, widths[t])) for t in range(steps_x)]
    xbar = [lp.var_array(f"{tag}:x{t}", n) for t in range(steps_x)]
    M = [lp.var_array(f"{tag}:M{t}", (m, widths[t])) for t in range(steps)] if m else None
    ubar = [lp.var_array(f"{tag}:u{t}", m) for t in range(steps)] if m else None
    d_x = [lp.var_array(f"{tag}:dx{t}", 1, lb=0.0)[0] for t in range(steps_x)] if slack else None
    d_u = [lp.var_array(f"{tag}:du{t}", 1, lb=0.0)[0] for t in range(steps)] \
        if slack and m else ([] if not m else None)

    def w_columns(t):
        center, blocks = structure[t]
        alpha_cols = []
        for block in blocks:
            if block.kind == "local":
                alpha_cols.append(None)
            else:
                alpha_cols.append(alpha_of(block.source,
                                           "x" if block.kind == "state" else "u", t))
        return center, _w_expr_columns(blocks, splits[t], alpha_cols, n)

    for t in range(steps):
        A_t = sub.A_at(t)
        B_t = sub.B_at(t)
        center_w, wcols = w_columns(t)
        flow = lin_matmul(A_t, T[t])
        if m:
            flow = flow + lin_matmul(B_t, M[t])
        t_next = T[t + 1] if finite else T[0]
        width_next = widths[t + 1] if finite else widths[0]
        for i in range(n):
            for j in range(widths[t] + p_red[t]):
                lhs = flow[i, j] if j < widths[t] else wcols[j - widths[t]][i]
                if finite:
                    rhs = t_next[i, j]
                else:
                    rhs = 0.0 if j < p_red[t] else t_next[i, j - p_red[t]]
                lp.add_eq(lhs - rhs, 0.0, name=f"{tag}:rec[{t},{i},{j}]")
        drift = lin_matmul(A_t, xbar[t].reshape(-1, 1))[:, 0]
        if m:
            drift = drift + lin_matmul(B_t, ubar[t].reshape(-1, 1))[:, 0]
        x_next = xbar[t + 1] if finite else xbar[0]
        for i in range(n):
            lp.add_eq(drift[i] + float(center_w[i]) - x_next[i], 0.0,
                      name=f"{tag}:cen[{t},{i}]")

    witness = {}
    for t in range(steps_x):
        cx, Cx = _at(template.state[sid], t)
        own = alpha_of(sid, "x", t)
        scales = list(own)
        outer_cols = Cx
        if slack:
            outer_cols = np.hstack([Cx, np.eye(n)])
            scales = scales + [d_x[t]] * n
        witness[f"inC{t}"] = add_scaled_containment(
            lp, T[t], xbar[t], outer_cols, scales, np.asarray(cx, dtype=float),
            f"{tag}:inC{t}")
    if finite:
        Xh = sub.X_at(steps)
        witness["term"] = add_scaled_containment(
            lp, T[steps], xbar[steps], Xh.generators, [1.0] * Xh.num_generators,
            Xh.center, f"{tag}:term")
    if m:
        for t in range(steps):
            if sid in template.input:
                cu, Cu = _at(template.input[sid], t)
                scales = list(alpha_of(sid, "u", t))
                outer_cols, outer_c = Cu, np.asarray(cu, dtype=float)
            else:
                U_t = sub.U_at(t)
                scales = [1.0] * U_t.num_generators
                outer_cols, outer_c = U_t.generators, U_t.center
            if slack:
                outer_cols = np.hstack([outer_cols, np.eye(m)])
                scales = scales + [d_u[t]] * m
            witness[f"inU{t}"] = add_scaled_containment(
                lp, M[t], ubar[t], outer_cols, scales, outer_c, f"{tag}:inU{t}")

    return SubsystemHandles(sid, k, widths, T, xbar, M, ubar, d_x, d_u,
                            splits, structure, {} if slack else witness)


# ---------------------------------------------------------------------------
# the per-subsystem programs: potential and hard extraction


class _PinnedProgram:
    """Subsystem ``sid``'s viability LP with every alpha a pinned variable.

    Each multiplier the subsystem reads is a variable ``al:*`` fixed by an
    equality row ``pin:*``.  Moving to new parameters only rewrites those
    right-hand sides, so every solve after the first is a warm re-solve.
    """

    def __init__(self, network, template, sid, name, k, reduction_order,
                 backend, slack):
        self.network = network
        self.template = template
        self.sid = sid
        self.reduction_order = reduction_order
        sub = network.subsystem(sid)
        steps = network.num_steps
        steps_x = steps + 1 if network.mode == "finite" else 1

        lp = LinearProgram(name=name, backend=backend)
        self._pins = {}

        def ensure_alpha(j, channel, t):
            key = (j, channel, t)
            if key in self._pins:
                return self._pins[key][0]
            entries = template.state[j] if channel == "x" else template.input[j]
            q = _at(entries, t)[1].shape[1]
            var = lp.var_array(f"al:{channel}:{j}:{t}", q)
            names = []
            for g in range(q):
                name = f"pin:{channel}:{j}:{t}[{g}]"
                lp.add_eq(var[g], 0.0, name=name)
                names.append(name)
            self._pins[key] = (var, names)
            return var

        # own promises first, in step order, so gradient layout is stable
        for t in range(steps_x):
            ensure_alpha(sid, "x", t)
        if sub.m and sid in template.input:
            for t in range(steps):
                ensure_alpha(sid, "u", t)

        self.handles = emit_subsystem(
            lp, network, template, sid, ensure_alpha,
            k=k, reduction_order=reduction_order, slack=slack)
        self.lp = lp
        self.k = self.handles.k

    def _pin_value(self, params, key):
        j, channel, t = key
        series = params.x[j] if channel == "x" else params.u[j]
        return _at(series, t)

    def _solve_at(self, params):
        """Pin ``params`` and re-solve.

        Returns the LpSolution and the pinned values as one array, in pin
        order (``_params_of`` reads them back).
        """
        pinned = []
        for key, (_, names) in self._pins.items():
            values = self._pin_value(params, key)
            if len(values) != len(names):
                raise ContractError(
                    f"parameter block {key} has {len(values)} entries, "
                    f"expected {len(names)}")
            for g, name in enumerate(names):
                v = float(values[g])
                if v < -1e-12:
                    raise ContractError(f"negative alpha at {key}[{g}]")
                self.lp.set_rhs(name, max(v, 0.0))
                pinned.append(v)
        return self.lp.solve(), np.array(pinned)

    def _params_of(self, pinned):
        """The parameter series this program reads, from its pinned values."""
        series = {"x": {}, "u": {}}
        pos = 0
        for (j, channel, t), (_, names) in self._pins.items():
            series[channel].setdefault(j, {})[t] = pinned[pos:pos + len(names)]
            pos += len(names)
        # a step where a neighbor's block is absent (zero coupling) stays None
        x, u = ({j: [steps.get(t) for t in range(max(steps) + 1)]
                 for j, steps in series[channel].items()}
                for channel in ("x", "u"))
        return ContractParams(x, u, {}, {})

    def _solution(self, sol, params):
        return _numeric_solution(sol, self.handles, self.network,
                                 self.template, self.sid, params)


@dataclass
class PotentialEval:
    """One evaluation of V_i: value, gradient pieces, and the inner solution.

    ``solution`` is built on first access from this evaluation's own LP
    solution and a copy of the parameter values it pinned, so later
    re-solves of the program or changes to those parameters leave it as it
    was.
    """

    sid: object
    value: float
    grads: dict  # (sid, channel, t) -> array of dV_i/dalpha
    slack_x: np.ndarray
    slack_u: np.ndarray
    solve_seconds: float
    _program: object = field(repr=False)
    _lp_solution: object = field(repr=False)
    _pinned: np.ndarray = field(repr=False)

    @functools.cached_property
    def solution(self):
        program = self._program
        return program._solution(self._lp_solution,
                                 program._params_of(self._pinned))


class PotentialProgram(_PinnedProgram):
    """V_i as a reusable LP: alphas are pinned variables, re-solves are warm."""

    def __init__(self, network, template, sid, k=None, reduction_order=1,
                 backend=None):
        super().__init__(network, template, sid, f"potential[{sid}]", k,
                         reduction_order, backend, slack=True)
        objective = lin_sum(self.handles.d_x)
        if self.handles.d_u:
            objective = objective + lin_sum(self.handles.d_u)
        self.lp.minimize(objective)

    def evaluate(self, params):
        """Warm re-solve of V_i at ``params``; raises PotentialInfeasible."""
        sol, pinned = self._solve_at(params)
        if sol.status == lpcore.INFEASIBLE:
            raise PotentialInfeasible(
                f"subsystem {self.sid!r}: no viable tube at these parameters")
        if sol.status != lpcore.OPTIMAL:
            raise lpcore.LpSolverError(
                f"potential LP for {self.sid!r} ended with {sol.status}")
        grads = {
            key: np.array([sol.sensitivity(name) for name in names])
            for key, (_, names) in self._pins.items()
        }
        h = self.handles
        slack_x = np.array([sol.value(d) for d in h.d_x])
        slack_u = np.array([sol.value(d) for d in h.d_u]) if h.d_u else np.zeros(0)
        return PotentialEval(
            self.sid, max(0.0, sol.objective), grads, slack_x, slack_u,
            sol.solve_seconds, self, sol, pinned)


class ExtractionProgram(_PinnedProgram):
    """Subsystem ``sid``'s hard extraction LP, built once and re-solved warm.

    The pinned parameters of PotentialProgram, but without slack: every
    containment in the own promise is hard, and the objective is the total
    template size sum |T|.
    """

    def __init__(self, network, template, sid, k=None, reduction_order=1,
                 backend=None):
        super().__init__(network, template, sid, f"extract[{sid}]", k,
                         reduction_order, backend, slack=False)
        self.lp.minimize(_abs_objective(self.lp, self.handles.T, prefix="size"))

    def solve(self, params):
        """The tubes at ``params``, or None if the hard problem is infeasible."""
        sol, _ = self._solve_at(params)
        if sol.status == lpcore.INFEASIBLE:
            return None
        if sol.status != lpcore.OPTIMAL:
            raise lpcore.LpSolverError(
                f"extraction LP for {self.sid!r} ended with {sol.status}")
        return self._solution(sol, params)


def _numeric_solution(sol, handles, network, template, sid, params):
    """Read a solved subsystem LP back into a Viable/RciSolution."""
    h = handles
    T = [sol.value(Tt) for Tt in h.T]
    xbar = [sol.value(xt) for xt in h.xbar]
    M = [sol.value(Mt) for Mt in h.M] if h.M else None
    ubar = [sol.value(ut) for ut in h.ubar] if h.ubar else None
    steps = network.num_steps
    W = [_w_numeric(network, template, params, sid, t, h.splits[t])
         for t in range(steps)]
    size = float(sum(np.abs(Tt).sum() for Tt in T))
    witness = witness_values(sol, h.witness) if h.witness else None
    if network.mode == "finite":
        return ViableSolution("growing", T, xbar, M, ubar, W, size, witness)
    return RciSolution(T[0], xbar[0], M[0] if M else None,
                       ubar[0] if ubar else None, W[0], 0.0, None, size, witness)


def extract_solutions(network, template, params, k=None, reduction_order=1,
                      backend=None, programs=None):
    """Per-subsystem tubes satisfying the promises at ``params`` exactly.

    Unlike the potential LPs there is no slack here: each subsystem solves
    its viability problem with hard containment in its own promised sets,
    minimizing total template size (one ExtractionProgram per subsystem).
    Raises PotentialInfeasible naming the subsystems whose hard problem has
    no solution (the potential at ``params`` is then necessarily positive).

    ``programs`` is an optional cache of ExtractionPrograms keyed by id,
    valid for one network, template, k, reduction order and backend.  A
    missing program is built and stored there, so repeated extraction
    re-solves them warm.  Without a cache each program is built, solved and
    dropped before the next one is built.
    """
    solutions, losers = {}, []
    for sid in network.sorted_ids():
        program = programs.get(sid) if programs is not None else None
        if program is None:
            program = ExtractionProgram(network, template, sid, k=k,
                                        reduction_order=reduction_order,
                                        backend=backend)
            if programs is not None:
                programs[sid] = program
        solution = program.solve(params)
        if solution is None:
            losers.append(sid)
        else:
            solutions[sid] = solution
    if losers:
        raise PotentialInfeasible(
            "hard extraction infeasible for subsystem(s) "
            + ", ".join(repr(s) for s in losers))
    return solutions


def build_programs(network, template, k=None, reduction_order=1, backend=None):
    """One PotentialProgram per subsystem, keyed by id."""
    return {
        sid: PotentialProgram(network, template, sid, k=k,
                              reduction_order=reduction_order, backend=backend)
        for sid in network.sorted_ids()
    }


@dataclass
class PotentialResult:
    value: float
    grad: ContractParams
    evals: dict
    solve_seconds: float

    @property
    def solutions(self):
        """Each subsystem's inner solution, built on first access."""
        return {sid: ev.solution for sid, ev in self.evals.items()}


def _worker_count(requested, jobs):
    cap = os.environ.get(THREADS_ENV)
    cap = int(cap) if cap else None
    workers = requested if requested else 1
    if cap is not None:
        workers = min(workers, max(cap, 1))
    return max(1, min(workers, jobs))


def potential(programs, params, threads=None):
    """V(alpha) = sum of V_i, with the gradient assembled in params shape."""
    ids = sorted(programs, key=_id_key)
    workers = _worker_count(threads, len(ids))
    evals = {}
    if workers <= 1:
        for sid in ids:
            evals[sid] = programs[sid].evaluate(params)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                sid: pool.submit(contextvars.copy_context().run,
                                 programs[sid].evaluate, params)
                for sid in ids
            }
            evals = {sid: fut.result() for sid, fut in futures.items()}
    grad = params.zeros_like()
    for sid in ids:
        for (j, channel, t), arr in evals[sid].grads.items():
            series = grad.x[j] if channel == "x" else grad.u[j]
            series[t if len(series) > 1 else 0] += arr
    value = float(sum(evals[sid].value for sid in ids))
    seconds = float(sum(evals[sid].solve_seconds for sid in ids))
    return PotentialResult(value, grad, evals, seconds)


# ---------------------------------------------------------------------------
# end-to-end correctness of a synthesized composition


@dataclass
class CorrectnessReport:
    ok: bool
    max_state_margin: float
    max_input_margin: float
    max_residual: float | None  # None: the recursion was not checked
    failures: list = field(default_factory=list)
    lp_fallbacks: int = 0  # containments a Hausdorff LP had to decide


def _diag_witness(alpha):
    """The witness [Diag(alpha) 0] of Z(c, C Diag(alpha)) inside Z(c, C)."""
    return np.hstack([np.diag(alpha), np.zeros((len(alpha), 1))])


def check_correctness(network, template, params, solutions, tol=1e-7):
    """Re-verify every promise and recursion of a synthesized composition.

    Checks, per subsystem: Omega(t) inside the promised state tube, Theta(t)
    inside the promised input tube (or U_i where nothing was promised), the
    promised tubes inside the admissible sets, the terminal set inside
    X_i(h) for finite horizons, and the algebraic recursion residuals of the
    stored solution against the stored disturbance sets.

    Each containment is first checked on a witness: the one the hard
    extraction or centralized LP found (``solution.witness``) for Omega,
    Theta and the terminal set, and [Diag(alpha) 0] for a promise inside its
    admissible set.  When the witness bounds the directed Hausdorff distance
    within ``tol``, that bound is the margin; otherwise the Hausdorff LP
    decides, as it does for a solution without witnesses (a loaded one).
    ``lp_fallbacks`` counts those LPs.
    """
    failures = []
    max_state = 0.0
    max_input = 0.0
    max_res = 0.0
    fallbacks = 0
    steps = network.num_steps
    finite = network.mode == "finite"

    def escape(inner, center, cols, scales, witness):
        nonlocal fallbacks
        bound = hausdorff_bound(inner, center, cols, scales, witness)
        if bound <= tol:
            return bound
        fallbacks += 1
        outer = Zonotope(center, np.asarray(cols, dtype=float) * scales)
        return directed_hausdorff(outer, inner)

    for sid in network.sorted_ids():
        sub = network.subsystem(sid)
        sol = solutions[sid]
        witness = sol.witness or {}
        steps_x = steps + 1 if finite else 1
        for t in range(steps_x):
            cx, Cx = _at(template.state[sid], t)
            alpha = _at(params.x[sid], t)
            margin = escape(sol.omega(t), cx, Cx, alpha, witness.get(f"inC{t}"))
            max_state = max(max_state, margin)
            if margin > tol:
                failures.append(f"{sid}: Omega({t}) escapes its promise by {margin:.3e}")
            X = sub.X_at(t)
            admissible = escape(template.state_set(params, sid, t), X.center,
                                X.generators, np.ones(X.num_generators),
                                _diag_witness(alpha))
            if admissible > tol:
                failures.append(f"{sid}: state promise at t={t} exceeds X by {admissible:.3e}")
        if finite:
            X = sub.X_at(steps)
            margin = escape(sol.omega(steps), X.center, X.generators,
                            np.ones(X.num_generators), witness.get("term"))
            max_state = max(max_state, margin)
            if margin > tol:
                failures.append(f"{sid}: terminal set escapes X by {margin:.3e}")
        if sub.m:
            for t in range(steps):
                if sid in template.input:
                    cu, Cu = _at(template.input[sid], t)
                    alpha = _at(params.u[sid], t)
                    U = sub.U_at(t)
                    admissible = escape(template.input_set(params, sid, t), U.center,
                                        U.generators, np.ones(U.num_generators),
                                        _diag_witness(alpha))
                    if admissible > tol:
                        failures.append(
                            f"{sid}: input promise at t={t} exceeds U by {admissible:.3e}")
                else:
                    U = sub.U_at(t)
                    cu, Cu, alpha = U.center, U.generators, np.ones(U.num_generators)
                margin = escape(sol.theta(t), cu, Cu, alpha, witness.get(f"inU{t}"))
                max_input = max(max_input, margin)
                if margin > tol:
                    failures.append(f"{sid}: Theta({t}) escapes its promise by {margin:.3e}")
        max_res = max(max_res, _recursion_residual(network, sid, sol))
    if max_res > 1e-8:
        failures.append(f"recursion residual {max_res:.3e}")
    return CorrectnessReport(not failures, max_state, max_input, max_res, failures,
                             fallbacks)


def _recursion_residual(network, sid, sol):
    sub = network.subsystem(sid)
    steps = network.num_steps
    res = 0.0
    for t in range(steps):
        A_t, B_t = sub.A_at(t), sub.B_at(t)
        W = sol.W[t] if isinstance(sol, ViableSolution) else sol.W
        T_t = sol.T[t] if isinstance(sol, ViableSolution) else sol.T
        flow = A_t @ T_t
        drift = A_t @ (sol.xbar[t] if isinstance(sol, ViableSolution) else sol.xbar)
        if sub.m:
            M_t = sol.M[t] if isinstance(sol, ViableSolution) else sol.M
            u_t = sol.ubar[t] if isinstance(sol, ViableSolution) else sol.ubar
            flow = flow + B_t @ M_t
            drift = drift + B_t @ u_t
        lhs = np.hstack([flow, W.generators])
        if isinstance(sol, ViableSolution):
            rhs = sol.T[t + 1]
            x_next = sol.xbar[t + 1]
        else:
            p = W.num_generators
            rhs = np.hstack([np.zeros((sub.n, p)), sol.T])
            x_next = sol.xbar
        res = max(res, float(np.max(np.abs(lhs - rhs), initial=0.0)))
        res = max(res, float(np.max(np.abs(drift + W.center - x_next))))
    return res
