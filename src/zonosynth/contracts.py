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

Each subsystem has one LP, ``PotentialProgram``, built once and re-solved
warm on one HiGHS instance for the whole synthesis.  Every alpha it reads
is a column fixed by its bounds, so a new parameter vector moves those
bounds in one solver call and nothing else; the gradient dV_i/dalpha is the
fixed columns' reduced cost.  The same instance extracts the final tubes:
``PotentialProgram.extract`` fixes the slack at zero, swaps the objective
to the template size sum |T|, re-solves warm and puts both back.

``build_programs`` builds the programs of all subsystems of one structural
signature (``_signature``: the shapes that fix their rows) together:
``emit_subsystem`` emits each row family once for the whole group, as arrays
with a leading subsystem axis, into an ``lpcore._LpBatch``, which sorts all
entries in one pass and hands each subsystem its own program.  The
subsystems of a group may differ in how many neighbor multipliers W reads.

W_i has one definition: the ``_w_columns`` terms that the recursion rows
are built from.  A solution's W_i is those terms read at the solution's own
column values, the fixed alphas included.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .geom import (Zonotope, add_scaled_containment, affine, certified_hausdorff, numbers,
                   scale_generators, witness_values)
# kept by name: perfbench's tracer test rebinds this import
from .geom import directed_hausdorff  # noqa: F401
from .lpcore import LinearProgram
from .sysmodel import _id_key
from .viability import (RESIDUAL_TOL, RciSolution, ViableSolution, _abs_objective,
                        add_recursion, recursion_residual)

ALPHA_CAP = 1e6


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

    def slots(self):
        """``{(sid, channel): [indices of step t in to_vector()]}``."""
        out, pos = {}, 0
        for sid, ch in self._keys():
            out[(sid, ch)] = []
            for a in (self.x if ch == "x" else self.u)[sid]:
                out[(sid, ch)].append(np.arange(pos, pos + a.size))
                pos += a.size
        return out

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


def admissible_set(sub, channel, t):
    """Subsystem ``sub``'s admissible state ("x") or input ("u") set at t."""
    return sub.X_at(t) if channel == "x" else sub.U_at(t)


def add_promise_admissibility(lp, alpha, center, cols, admissible):
    """Rows for the promise Z(center, cols @ Diag(alpha)) inside the set
    ``admissible``; ``alpha`` holds the multipliers' column indices."""
    n, q = np.shape(cols)
    inner = affine(np.column_stack([np.broadcast_to(alpha, (n, q)), np.full(n, -1)]),
                   np.column_stack([cols, np.zeros(n)]),
                   np.column_stack([np.zeros((n, q)), center]))
    add_scaled_containment(lp, inner, admissible.generators,
                           numbers(np.ones(admissible.num_generators)),
                           admissible.center)


def _max_alpha_lp(center, cols, admissible):
    q = cols.shape[1]
    if q == 0:
        return np.zeros(0)
    lp = LinearProgram(name="alphamax")
    a = lp.var_block(q, lb=0.0, ub=ALPHA_CAP)
    add_promise_admissibility(lp, a, center, cols, admissible)
    lp.set_costs(a, -1.0)
    sol = lp.solve()
    if sol.status != lpcore.OPTIMAL:
        raise ContractError(
            f"cannot fit template inside admissible set ({sol.status})")
    return np.minimum(sol.column_values(a), ALPHA_CAP)


def alpha_max(network, template):
    """Outermost admissible parameters (ones for is_bounds templates)."""
    caps = {}
    for channel, promises in (("x", template.state), ("u", template.input)):
        caps[channel] = {
            sid: [np.ones(C.shape[1]) if template.is_bounds
                  else _max_alpha_lp(c, C, admissible_set(network.subsystem(sid), channel, t))
                  for t, (c, C) in enumerate(entries)]
            for sid, entries in promises.items()}
    max_x, max_u = caps["x"], caps["u"]
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


def _input_coupling(coupling, t):
    """The coupling's B at step t, or None where the neighbor's input does
    not act (no B, or an all-zero one)."""
    B = coupling.B_at(t)
    return B if B is not None and B.any() else None


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
        B_ij = _input_coupling(coupling, t)
        if B_ij is not None:
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


def _kept_count(total, n, order):
    """How many of W's ``total`` columns stay exact at reduction ``order``."""
    if order is None:
        return total
    if order == 1:
        return 0
    return total if total <= n * order else n * (order - 1)


def _choose_columns(blocks, n, order):
    """Split W columns into kept (exact) and boxed, mirroring order_reduce_box.

    Columns are numbered in block order, as in ``np.hstack`` of the blocks'
    columns; returns the kept and the boxed numbers, each ascending.  The
    split uses *unscaled* column norms so it does not depend on alpha and
    the LP structure stays fixed across evaluations.
    """
    total = sum(block.cols.shape[1] for block in blocks)
    allcols = np.arange(total)
    keep = _kept_count(total, n, order)
    if keep in (0, total):
        return allcols[:keep], allcols[keep:]
    base = np.hstack([block.cols for block in blocks])
    norms = np.array([np.linalg.norm(base[:, c]) for c in range(total)])
    kept = np.sort(np.argsort(-norms, kind="stable")[:keep])
    return kept, np.setdiff1d(allcols, kept)


def _w_columns(centers, blocks, splits, alpha_cols, n):
    """W_i's columns in the ``W`` form of ``add_recursion``, kept exact and
    the remainder boxed into n diagonal columns, for every member of a group
    at one step: ``blocks[g]``, ``splits[g]`` and ``alpha_cols[g]`` are
    member g's.

    ``alpha_cols[g][b]`` holds the column indices of block b's multipliers
    (None for the local disturbance).  A kept column is alpha * base, with
    constant 0.0 * base; a boxed radius sums its constant |entries| in
    column order, plus alpha terms with coefficients |entry|.  A member's
    terms run over its kept, then its boxed columns, column by column with
    rows ascending, nonzero entries only.  Read at a solution's values, the
    same form is the solution's W_i (:func:`_w_value`).  The members must
    keep equally many columns and all box some or none.

    Returns each member's form and all of them stacked along a leading
    member axis, the terms padded with zero terms to one length.
    """
    members = len(centers)
    base = np.concatenate([block.cols for member in blocks for block in member], axis=1)
    alpha = np.concatenate([np.full(block.cols.shape[1], -1) if cols is None else cols
                            for member, cols_of in zip(blocks, alpha_cols)
                            for block, cols in zip(member, cols_of)]).astype(np.int64)
    widths = np.array([sum(block.cols.shape[1] for block in member) for member in blocks])
    owner = np.repeat(np.arange(members), widths)
    offset = np.cumsum(widths) - widths
    kept = np.concatenate([offset[g] + split[0] for g, split in enumerate(splits)])
    boxed = np.concatenate([offset[g] + split[1] for g, split in enumerate(splits)])
    nk = len(splits[0][0])
    const = np.zeros((members, n, nk + (n if len(boxed) else 0)))
    K, k_alpha, k_rank = base[:, kept], alpha[kept], np.arange(len(kept)) % max(nk, 1)
    const[owner[kept], :, k_rank] = np.where(k_alpha >= 0, np.where(K < 0, -0.0, 0.0), K).T
    B, b_alpha = np.abs(base[:, boxed]), alpha[boxed]
    if len(boxed):
        # the constant radius summed left to right, column by column
        radius = np.zeros((members, n))
        local = b_alpha < 0
        np.add.at(radius, owner[boxed][local], B[:, local].T)
        const[:, np.arange(n), nk + np.arange(n)] = radius
    # (column, row) of every term, column-major, kept before boxed per member
    kc, kr = np.nonzero((K != 0).T & (k_alpha >= 0)[:, None])
    bc, br = np.nonzero((B != 0).T & (b_alpha >= 0)[:, None])
    term_owner = np.concatenate([owner[kept][kc], owner[boxed][bc]])
    order = np.argsort(term_owner, kind="stable")
    term_owner = term_owner[order]
    terms = tuple(a[order] for a in (np.concatenate([kr, br]),
                                     np.concatenate([k_rank[kc], nk + br]),
                                     np.concatenate([k_alpha[kc], b_alpha[bc]]),
                                     np.concatenate([K[kr, kc], B[br, bc]])))
    cut = np.searchsorted(term_owner, np.arange(members + 1)).tolist()
    forms = [(centers[g], const[g], tuple(a[cut[g]:cut[g + 1]] for a in terms))
             for g in range(members)]
    counts = np.diff(cut)
    slot = np.arange(len(term_owner)) - np.repeat(cut[:-1], counts)
    padded = []
    for a in terms:
        part = np.zeros((members, counts.max(initial=0)), dtype=a.dtype)
        part[term_owner, slot] = a
        padded.append(part)
    return forms, (np.stack(centers), const, tuple(padded))


def _w_value(sol, W):
    """The zonotope that ``W``, in the form of :func:`_w_columns`, is at the
    column values of the LP solution ``sol``.

    The terms are summed in their order from -0.0 (the additive identity,
    so a lone term keeps its sign of zero), and the constants added last.
    """
    center, const, (rows, wcols, cols, coefs) = W
    G = np.full(const.shape, -0.0)
    np.add.at(G, (rows, wcols), coefs * sol.column_values(cols))
    return Zonotope(center, G + const)


# ---------------------------------------------------------------------------
# row emission (shared with centralized synthesis)


@dataclass
class SubsystemHandles:
    """Column indices of the LP variables ``emit_subsystem`` created."""

    sid: object
    k: int
    widths: list
    T: list
    xbar: list
    M: list
    ubar: list
    d_x: np.ndarray  # slack per state step (empty without slack)
    d_u: np.ndarray  # slack per input step (empty without slack or inputs)
    W: list  # per step: W_i's columns in the form of _w_columns
    witness: dict  # containment key -> its handles, cut to the promise's rows
    slack_cols: np.ndarray  # witness columns of the slack's identity columns


def emit_subsystem(batch, network, template, sids, alpha_of, k=None,
                   reduction_order=1, slack=True):
    """Emit the viability-under-contracts rows of the subsystems ``sids``
    into ``batch``, an ``lpcore._LpBatch`` with one member per id.

    The members must share one structural signature (:func:`_signature`),
    so that they have the same rows; each row family is emitted once for
    all of them, as arrays with a leading member axis.  ``alpha_of[g](j,
    channel, t)`` returns member g's column indices of the generator
    multipliers of subsystem j's promised tube at step t (``channel`` is "x"
    or "u").  With ``slack=True`` every containment in the own promise is
    padded by a nonnegative scalar d (one per step and channel) times the
    identity; their sum is this subsystem's potential share.  With
    ``slack=False`` the containments are hard, which is what a centralized
    program wants.  The handles of the containment witnesses are kept,
    keyed by the containment ("inC0", "term", "inU0", ...) and cut to the
    rows of the promise itself; the witness columns of the identity columns
    go to ``slack_cols``.  Returns the handles, one per member.
    """
    subs = [network.subsystem(s) for s in sids]
    n, m = subs[0].n, subs[0].m
    steps = network.num_steps
    finite = network.mode == "finite"
    structure = [[aug_blocks(network, template, s, t) for t in range(steps)] for s in sids]
    splits = [[_choose_columns(blocks, n, reduction_order) for _, blocks in member]
              for member in structure]
    p_reds = {tuple(len(kept) + (n if len(boxed) else 0) for kept, boxed in member)
              for member in splits}
    if len(p_reds) != 1 or len({(sub.n, sub.m) for sub in subs}) != 1:
        raise ContractError(f"subsystems {sids!r} differ in structure")
    p_red = p_reds.pop()
    if k is None:
        k = n if finite else n + p_red[0]

    steps_x = steps + 1 if finite else 1
    widths = [k]
    if finite:
        for t in range(steps):
            widths.append(widths[-1] + p_red[t])
    T = [batch.var_block((n, widths[t])) for t in range(steps_x)]
    xbar = [batch.var_block(n) for _ in range(steps_x)]
    M = [batch.var_block((m, widths[t])) for t in range(steps)] if m else None
    ubar = [batch.var_block(m) for _ in range(steps)] if m else None
    none = np.zeros((len(sids), 0), dtype=np.int64)
    d_x = np.column_stack([batch.var_block(1, lb=0.0)[:, 0]
                           for _ in range(steps_x)]) if slack else none
    d_u = np.column_stack([batch.var_block(1, lb=0.0)[:, 0]
                           for _ in range(steps)]) if slack and m else none

    alpha_cols = [[[None if block.kind == "local" else
                    alpha_of[g](block.source, "x" if block.kind == "state" else "u", t)
                    for block in blocks] for t, (_, blocks) in enumerate(member)]
                  for g, member in enumerate(structure)]
    W = [[] for _ in sids]
    for t in range(steps):
        forms, stacked_w = _w_columns([member[t][0] for member in structure],
                                      [member[t][1] for member in structure],
                                      [member[t] for member in splits],
                                      [member[t] for member in alpha_cols], n)
        for Wg, form in zip(W, forms):
            Wg.append(form)
        add_recursion(batch, np.stack([sub.A_at(t) for sub in subs]),
                      np.stack([sub.B_at(t) for sub in subs]), T[t], M[t] if m else None,
                      xbar[t], ubar[t] if m else None, stacked_w,
                      T[t + 1] if finite else T[0], xbar[t + 1] if finite else xbar[0])

    witness, slack_cols = {}, [none]

    def stacked(arrays):
        return np.stack([np.asarray(a, dtype=float) for a in arrays])

    def own_alpha(channel, t):
        return affine(np.stack([alpha_of[g](s, channel, t) for g, s in enumerate(sids)]))

    def contain(key, G, c, outer_cols, scales, outer_c, d=None):
        # Z(c, G) inside Z(outer_c, outer_cols Diag(scales)), padded by d * I
        q = outer_cols.shape[-1]
        if d is not None:
            width = outer_cols.shape[-2]
            outer_cols = np.concatenate(
                [outer_cols, np.broadcast_to(np.eye(width), (len(sids), width, width))], axis=-1)
            extra = affine(np.repeat(d[:, None], width, axis=1))
            scales = tuple(np.concatenate([np.broadcast_to(a, (len(sids), np.shape(a)[-1])), b],
                                          axis=-1) for a, b in zip(scales, extra))
        h = add_scaled_containment(batch, affine(np.concatenate([G, c[..., None]], axis=-1)),
                                   outer_cols, scales, outer_c)
        witness[key] = {name: h[name][:, :q] for name in ("Lam", "lam", "W")}
        slack_cols.extend([h["Lam"][:, q:].reshape(len(sids), -1), h["lam"][:, q:],
                           h["W"][:, q:].reshape(len(sids), -1)])

    for t in range(steps_x):
        promises = [_at(template.state[s], t) for s in sids]
        contain(f"inC{t}", T[t], xbar[t], stacked(C for _, C in promises),
                own_alpha("x", t), stacked(c for c, _ in promises),
                d_x[:, t] if slack else None)
    if finite:
        Xh = [sub.X_at(steps) for sub in subs]
        contain("term", T[steps], xbar[steps], stacked(X.generators for X in Xh),
                numbers(np.ones(Xh[0].num_generators)), stacked(X.center for X in Xh))
    if m:
        for t in range(steps):
            if sids[0] in template.input:
                promises = [_at(template.input[s], t) for s in sids]
                cu, Cu = stacked(c for c, _ in promises), stacked(C for _, C in promises)
                scales = own_alpha("u", t)
            else:
                U_t = [sub.U_at(t) for sub in subs]
                cu, Cu = stacked(U.center for U in U_t), stacked(U.generators for U in U_t)
                scales = numbers(np.ones(U_t[0].num_generators))
            contain(f"inU{t}", M[t], ubar[t], Cu, scales, cu, d_u[:, t] if slack else None)

    slack_cols = np.concatenate(slack_cols, axis=-1)
    return [
        SubsystemHandles(s, k, widths, [Tt[g] for Tt in T], [xt[g] for xt in xbar],
                         [Mt[g] for Mt in M] if m else None,
                         [ut[g] for ut in ubar] if m else None, d_x[g], d_u[g], W[g],
                         {key: {name: a[g] for name, a in h.items()}
                          for key, h in witness.items()},
                         slack_cols[g])
        for g, s in enumerate(sids)]


# ---------------------------------------------------------------------------
# the per-subsystem program: potential, gradient and hard extraction


@dataclass
class PotentialEval:
    """One evaluation of V_i: value, gradient pieces, and the inner solution.

    ``solution`` is built on first access from this evaluation's own LP
    solution, which holds every column's value, the fixed alphas included;
    later re-solves of the program or changes to the parameters leave it as
    it was.
    """

    sid: object
    value: float
    grads: dict  # (sid, channel, t) -> array of dV_i/dalpha
    slack_x: np.ndarray
    slack_u: np.ndarray
    solve_seconds: float
    _handles: SubsystemHandles = field(repr=False)
    _lp_solution: object = field(repr=False)

    @functools.cached_property
    def solution(self):
        return _numeric_solution(self._lp_solution, self._handles)


class PotentialProgram:
    """Subsystem ``sid``'s one LP: V_i, its gradient and the hard extraction.

    Every multiplier the subsystem reads is a column fixed at its
    value by its bounds; moving to new parameters sets those bounds in one
    call, so every solve after the first is a warm re-solve, and the fixed
    columns' reduced costs are dV_i/dalpha.  The objective is the slack sum
    d; the columns of the size objective sum |T| sit in the model at zero
    cost for ``extract``.  :func:`build_programs` makes them.
    """

    def __init__(self, sid, lp, handles, alpha, size):
        """Subsystem ``sid``'s program ``lp``, with the ``handles`` its rows
        were emitted with, its fixed multiplier columns ``alpha`` ((j,
        channel, t) -> columns, own promises first, in creation order) and
        the aux columns ``size`` of the size objective sum |T|."""
        self.sid = sid
        self._alpha = alpha
        slack = np.concatenate([handles.d_x, handles.d_u])
        self._alpha_cols = np.concatenate(list(alpha.values())).astype(np.int32)
        # the objective's columns and their costs for V_i and for extraction
        self._cost_cols = np.concatenate([slack, size])
        self._potential_cost = np.r_[np.ones(len(slack)), np.zeros(len(size))]
        self._extract_cost = 1.0 - self._potential_cost
        lp.set_costs(self._cost_cols, self._potential_cost)
        # fixed at 0 for extraction: d and the witness parts only d pays for
        self._slack = np.concatenate([slack, handles.slack_cols])
        self._slack_bounds = lp.col_bounds(self._slack)
        self.handles = handles
        self.lp = lp
        self.k = handles.k

    def _fix(self, params):
        """Fix the alpha columns at ``params``."""
        blocks = [_at(params.x[j] if channel == "x" else params.u[j], t)
                  for j, channel, t in self._alpha]
        for key, v, cols in zip(self._alpha, blocks, self._alpha.values()):
            if len(v) != len(cols):
                raise ContractError(
                    f"parameter block {key} has {len(v)} entries, expected {len(cols)}")
        values = np.concatenate(blocks, dtype=float)
        if values.min(initial=0.0) < -1e-12:
            key, v = next((key, v) for key, v in zip(self._alpha, blocks)
                          if np.min(v) < -1e-12)
            raise ContractError(f"negative alpha at {key}[{int(np.argmin(v))}]")
        fixed = np.maximum(values, 0.0)
        self.lp.set_col_bounds(self._alpha_cols, fixed, fixed)

    def evaluate(self, params):
        """Warm re-solve of V_i at ``params``; raises PotentialInfeasible."""
        self._fix(params)
        sol = self.lp.solve()
        if sol.status == lpcore.INFEASIBLE:
            raise PotentialInfeasible(
                f"subsystem {self.sid!r}: no viable tube at these parameters")
        if sol.status != lpcore.OPTIMAL:
            raise lpcore.LpSolverError(
                f"potential LP for {self.sid!r} ended with {sol.status}")
        duals = sol.column_duals(self._alpha_cols)
        grads, pos = {}, 0
        for key, cols in self._alpha.items():
            grads[key] = duals[pos:pos + len(cols)]
            pos += len(cols)
        h = self.handles
        return PotentialEval(
            self.sid, max(0.0, sol.objective), grads, sol.column_values(h.d_x),
            sol.column_values(h.d_u), sol.solve_seconds, h, sol)

    def extract(self, params):
        """The hard tubes at ``params``, or None if none keeps the promises."""
        sol = self._solve_hard(params)
        return None if sol is None else _numeric_solution(sol, self.handles)

    def _solve_hard(self, params):
        """The LP solution of the hard problem at ``params``, or None.

        Solved on this program's own instance: the slack and its witness
        columns are fixed at 0 and the objective becomes sum |T|; both are
        put back afterwards, so the next ``evaluate`` is unaffected.
        """
        self._fix(params)
        lp = self.lp
        lp.set_col_bounds(self._slack, 0.0, 0.0)
        lp.set_costs(self._cost_cols, self._extract_cost)
        try:
            sol = lp.solve()
        finally:
            lp.set_col_bounds(self._slack, *self._slack_bounds)
            lp.set_costs(self._cost_cols, self._potential_cost)
        if sol.status == lpcore.INFEASIBLE:
            return None
        if sol.status != lpcore.OPTIMAL:
            raise lpcore.LpSolverError(
                f"extraction LP for {self.sid!r} ended with {sol.status}")
        return sol


def _numeric_solution(sol, handles):
    """Read a solved subsystem LP back into a Viable/RciSolution, W_i from
    the LP's own terms (:func:`_w_value`)."""
    h = handles
    T = [sol.column_values(Tt) for Tt in h.T]
    xbar = [sol.column_values(xt) for xt in h.xbar]
    M = [sol.column_values(Mt) for Mt in h.M] if h.M else None
    ubar = [sol.column_values(ut) for ut in h.ubar] if h.ubar else None
    W = [_w_value(sol, Wt) for Wt in h.W]
    size = float(sum(np.abs(Tt).sum() for Tt in T))
    witness = witness_values(sol, h.witness)
    if len(T) > len(W):  # finite horizon: a tube per step and a terminal one
        return ViableSolution("growing", T, xbar, M, ubar, W, size, witness)
    return RciSolution(T[0], xbar[0], M[0] if M else None,
                       ubar[0] if ubar else None, W[0], 0.0, None, size, witness)


def extract_solutions(programs, params):
    """Per-subsystem tubes satisfying the promises at ``params`` exactly.

    Unlike the potential there is no slack here: each subsystem's program
    solves its viability problem with hard containment in its own promised
    sets, minimizing total template size, warm on its own instance.
    Raises PotentialInfeasible naming the subsystems whose hard problem has
    no solution (the potential at ``params`` is then necessarily positive);
    the tubes are read back only when every subsystem has one.
    """
    ids = sorted(programs, key=_id_key)
    solved = {sid: programs[sid]._solve_hard(params) for sid in ids}
    losers = [sid for sid in ids if solved[sid] is None]
    if losers:
        raise PotentialInfeasible(
            "hard extraction infeasible for subsystem(s) "
            + ", ".join(repr(s) for s in losers))
    return {sid: _numeric_solution(solved[sid], programs[sid].handles) for sid in ids}


def _signature(network, template, sid, reduction_order):
    """The shapes that fix subsystem ``sid``'s rows and all its columns but
    the neighbors' multipliers: n and m, the column counts of its own
    promises per step and channel, the generator counts of the admissible
    sets it is held to, whether it has an input contract, and per step how
    many W columns stay exact and whether any are boxed."""
    sub = network.subsystem(sid)
    steps = network.num_steps
    own_u = bool(sub.m) and sid in template.input
    split = []
    for t in range(steps):
        total = sub.D_at(t).num_generators
        for j, coupling in sub.couplings.items():
            total += _at(template.state[j], t)[1].shape[1]
            if _input_coupling(coupling, t) is not None and j in template.input:
                total += _at(template.input[j], t)[1].shape[1]
        kept = _kept_count(total, sub.n, reduction_order)
        split.append((kept, kept < total))
    return (sub.n, sub.m, tuple(C.shape[1] for _, C in template.state[sid]), own_u,
            tuple(C.shape[1] for _, C in template.input[sid]) if own_u else
            tuple(sub.U_at(t).num_generators for t in range(steps)) if sub.m else (),
            sub.X_at(steps).num_generators if network.mode == "finite" else None,
            tuple(split))


def build_programs(network, template, k=None, reduction_order=1):
    """One PotentialProgram per subsystem, keyed by id.

    Subsystems of one structural signature (:func:`_signature`) are built
    together: ``emit_subsystem`` emits the group's rows once into an
    ``lpcore._LpBatch``, which hands each member its own program.  Each
    program's columns are its own multipliers, the tube, the neighbors'
    multipliers (in the order W asks for them), the containment witnesses
    and the size aux columns.
    """
    groups = {}
    for sid in network.sorted_ids():
        groups.setdefault(_signature(network, template, sid, reduction_order), []).append(sid)
    programs = {}
    for sids in groups.values():
        programs.update(_build_group(network, template, sids, k, reduction_order))
    return {sid: programs[sid] for sid in network.sorted_ids()}


def _build_group(network, template, sids, k, reduction_order):
    batch = lpcore._LpBatch([f"potential[{sid}]" for sid in sids])
    alphas = [{} for _ in sids]  # per member: (j, channel, t) -> fixed columns

    def alpha_of(g, j, channel, t):
        key = (j, channel, t)
        if key not in alphas[g]:
            entries = template.state[j] if channel == "x" else template.input[j]
            q = _at(entries, t)[1].shape[1]
            alphas[g][key] = batch.member_block(g, q, lb=0.0, ub=0.0)
        return alphas[g][key]

    # own promises first, in step order, so gradient layout is stable
    steps = network.num_steps
    own = [("x", t) for t in range(steps + 1 if network.mode == "finite" else 1)]
    if network.subsystem(sids[0]).m and sids[0] in template.input:
        own += [("u", t) for t in range(steps)]
    for g, sid in enumerate(sids):
        for channel, t in own:
            alpha_of(g, sid, channel, t)

    handles = emit_subsystem(batch, network, template, sids,
                             [functools.partial(alpha_of, g) for g in range(len(sids))],
                             k=k, reduction_order=reduction_order, slack=True)
    size = _abs_objective(batch, [np.stack(T) for T in zip(*(h.T for h in handles))])
    return {sid: PotentialProgram(sid, lp, h, alpha, cols) for sid, lp, h, alpha, cols
            in zip(sids, batch.programs(), handles, alphas, size)}


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


def potential(programs, params):
    """V(alpha) = sum of V_i, with the gradient assembled in params shape."""
    ids = sorted(programs, key=_id_key)
    evals = {sid: programs[sid].evaluate(params) for sid in ids}
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
        margin, lp = certified_hausdorff(inner, center, cols, scales, witness, tol)
        fallbacks += lp
        return margin

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
        max_res = max(max_res, recursion_residual(
            sol, [sub.A_at(t) for t in range(steps)], [sub.B_at(t) for t in range(steps)]))
    if max_res > RESIDUAL_TOL:
        failures.append(f"recursion residual {max_res:.3e}")
    return CorrectnessReport(not failures, max_state, max_input, max_res, failures,
                             fallbacks)
