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
warm from its own last basis for the whole synthesis; the programs of one
signature group share one HiGHS instance (see ``lpcore``).  Every alpha it
reads is a column fixed by its bounds, so a new parameter vector moves those
bounds and nothing else; the gradient dV_i/dalpha is the fixed columns'
reduced cost.  The same program extracts the final tubes:
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
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .geom import Zonotope, add_scaled_containment, affine, numbers, witness_values
from .geom import directed_hausdorff  # noqa: F401 (perfbench's tracer test reads it here)
from .lpcore import LinearProgram
from .sysmodel import _at, _id_key  # _at: a one-entry list is constant in t
from .viability import TubeSolution, _abs_objective, add_recursion, certify, recursion_steps

ALPHA_CAP = 1e6


class ContractError(Exception):
    """A contract template or parameter vector is malformed."""


class PotentialInfeasible(ContractError):
    """The local viability LP has no solution at the requested parameters."""


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


class _Layout:
    """Where each (sid, channel, step) block sits in a flat parameter vector:
    the state ("x") blocks of every id in id order, then the input ("u")
    blocks, steps ascending.  Equal layouts are one object (:meth:`of`)."""

    _known = {}

    def __init__(self, key):
        self.key = key  # ((sid, channel, entries per step), ...)
        stops = np.cumsum([0] + [n for *_, sizes in key for n in sizes]).tolist()
        steps = zip(stops, stops[1:])  # (start, stop) of each step's entries
        self.size = stops[-1]
        self.spans = {(sid, channel): [next(steps) for _ in sizes] for sid, channel, sizes in key}

    @classmethod
    def of(cls, x, u):
        """The layout of ``x``/``u``: sid -> entry count per step."""
        key = tuple((sid, channel, tuple(sizes[sid])) for channel, sizes in (("x", x), ("u", u))
                    for sid in sorted(sizes, key=_id_key))
        return cls._known.get(key) or cls._known.setdefault(key, cls(key))

    def mismatch(self, other):
        """ContractError naming the first block ``other`` lacks, adds or sizes differently."""
        mine, theirs = ({(sid, ch): sizes for sid, ch, sizes in layout.key} for layout in (self, other))
        block = next(b for b in {**mine, **theirs} if mine.get(b) != theirs.get(b))
        return ContractError(f"parameter block {block} has entries per step "
                             f"{theirs.get(block)}, expected {mine.get(block)}")


class _Series(dict):
    """sid -> per-step views into a flat vector; assigning a series writes the views."""

    def __setitem__(self, sid, series):
        if len(series) != len(self[sid]):
            raise ContractError(f"series {sid!r} has {len(series)} steps, expected {len(self[sid])}")
        for view, values in zip(self[sid], series):
            view[...] = values


class ContractParams:
    """Per-subsystem, per-step generator multipliers with their upper caps.

    The multipliers are one flat float vector in the order of
    :class:`_Layout`, the caps another, shared by the parameter sets derived
    from these.  ``x``/``u`` (``max_x``/``max_u``) map each id to its
    per-step arrays, writable views into the vector (the caps' vector).
    """

    def __init__(self, x, u, max_x, max_u):
        def layout(*series):
            return _Layout.of(*({sid: [np.size(a) for a in v] for sid, v in d.items()}
                                for d in series))

        def flat(*series):
            return np.concatenate([np.ravel(a) for d in series for sid in sorted(d, key=_id_key)
                                   for a in d[sid]] or [np.zeros(0)]).astype(float, copy=False)

        self._layout, self._vec, self._top = layout(x, u), flat(x, u), flat(max_x, max_u)
        if layout(max_x, max_u) is not self._layout:
            raise self._layout.mismatch(layout(max_x, max_u))

    def __getattr__(self, name):  # x, u, max_x, max_u: built on first use
        if name not in ("x", "u", "max_x", "max_u"):
            raise AttributeError(name)
        vec = self._vec if len(name) == 1 else self._top
        views = self.__dict__[name] = _Series(
            {sid: [vec[a:b] for a, b in spans]
             for (sid, channel), spans in self._layout.spans.items() if channel == name[-1]})
        return views

    def _like(self, vec, top=None):
        """Parameters of this layout holding ``vec``, capped by ``top`` (default: these caps)."""
        out = object.__new__(type(self))
        out._layout, out._vec, out._top = self._layout, vec, self._top if top is None else top
        return out

    def copy(self):
        return self._like(self._vec.copy())

    def scaled(self, fraction):
        """Parameters at ``fraction`` of their caps (e.g. the descent start)."""
        return self._like(self._top * fraction)

    def clipped(self, caps=None):
        """Projection onto the box [0, alpha_max]; ``caps`` (parameters of
        this layout whose values are the upper corner) overrides the caps."""
        if caps is not None and caps._layout is not self._layout:
            raise self._layout.mismatch(caps._layout)
        top = self._top if caps is None else caps._vec
        return self._like(np.clip(self._vec, 0.0, top), top)

    def to_vector(self):
        return self._vec.copy()

    def from_vector(self, vec):
        vec = np.array(vec, dtype=float)
        if vec.shape != (self._layout.size,):
            raise ContractError(f"vector has {vec.size} entries, expected {self._layout.size}")
        return self._like(vec)

    def to_json(self):
        return {name: {str(s): [a.tolist() for a in v] for s, v in getattr(self, name).items()}
                for name in ("x", "u", "max_x", "max_u")}

    @classmethod
    def from_json(cls, data, ids=None):
        """Parameters from :meth:`to_json`, keyed by the ids in ``ids`` whose
        string form matches (by the string otherwise)."""
        lookup = {str(i): i for i in ids or ()}
        return cls(*({lookup.get(s, s): [np.asarray(a, dtype=float) for a in v]
                      for s, v in data[name].items()} for name in ("x", "u", "max_x", "max_u")))


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
    return ContractParams(caps["x"], caps["u"], caps["x"], caps["u"])


# ---------------------------------------------------------------------------
# augmented disturbance structure


def _input_coupling(coupling, t):
    """The coupling's B at step t, or None where the neighbor's input does
    not act (no B, or an all-zero one)."""
    B = coupling.B_at(t)
    return B if B is not None and B.any() else None


def _aug_group(network, template, sids, t):
    """W_i(t, alpha)'s centers and column blocks for the subsystems ``sids``
    (all of one n), in one array pass over their coupling lists.

    A member's blocks run neighbor by neighbor (ascending id, A_ij C_j, then
    B_ij C_j where j's input acts), its local disturbance last; witnesses
    and certificates rely on this order.  Products of one shape are one
    stacked product.  Returns the centers (members x n: D_i's center plus
    the A_ij c_j and B_ij c_j in block order), the blocks side by side (n x
    total width), and every block as (member, kind, source, width), kind
    "state", "input" or "local".
    """
    subs = [network.subsystem(sid) for sid in sids]
    blocks, terms, local = [], [], []  # terms: (block number, matrix, (center, columns))
    shapes = {}  # (matrix shape, columns shape) -> the terms of that shape

    def term(g, kind, j, K, promise):
        shape = np.shape(promise[1])
        shapes.setdefault((np.shape(K), shape), []).append(len(terms))
        terms.append((len(blocks), K, promise))
        blocks.append((g, kind, j, shape[1]))

    for g, (sid, sub) in enumerate(zip(sids, subs)):
        for j in sub.neighbor_ids():
            coupling = sub.couplings[j]
            term(g, "state", j, coupling.A_at(t), _at(template.state[j], t))
            B_ij = _input_coupling(coupling, t)
            if B_ij is not None:
                if j not in template.input:
                    raise ContractError(f"subsystem {j!r} disturbs {sid!r} through its input "
                                        "but has no input contract")
                term(g, "input", j, B_ij, _at(template.input[j], t))
        local.append((len(blocks), sub.D_at(t).generators))
        blocks.append((g, "local", None, local[-1][1].shape[1]))
    first = np.cumsum([0] + [width for *_, width in blocks])
    base, shifts = np.empty((subs[0].n, first[-1])), np.empty((len(terms), subs[0].n))
    for members in shapes.values():
        K, c, C = (np.array([terms[e][1] for e in members], dtype=float),
                   *(np.array([terms[e][2][i] for e in members], dtype=float) for i in (0, 1)))
        cols = first[[terms[e][0] for e in members]][:, None] + np.arange(C.shape[2])
        base[:, cols] = (K @ C).transpose(1, 0, 2)
        shifts[members] = (K @ c[..., None])[..., 0]
    for b, D in local:
        base[:, first[b]:first[b + 1]] = D
    centers = np.array([sub.D_at(t).center for sub in subs], dtype=float)
    # summed in block order, as center + A_ij c_j + B_ij c_u + ... one term at a time
    np.add.at(centers, [blocks[b][0] for b, *_ in terms], shifts)
    return centers, base, blocks


def _kept_count(total, n, order):
    """How many of W's ``total`` columns stay exact at reduction ``order``."""
    if order is None:
        return total
    if order == 1:
        return 0
    return total if total <= n * order else n * (order - 1)


def _choose_columns(base, n, order):
    """Split W's columns ``base`` (n x total, the blocks side by side) into
    kept (exact) and boxed, mirroring order_reduce_box.

    Returns the kept and the boxed column numbers, each ascending.  The
    split uses *unscaled* column norms so it does not depend on alpha and
    the LP structure stays fixed across evaluations.
    """
    total = base.shape[1]
    allcols = np.arange(total)
    keep = _kept_count(total, n, order)
    if keep in (0, total):
        return allcols[:keep], allcols[keep:]
    norms = np.array([np.linalg.norm(base[:, c]) for c in range(total)])
    kept = np.sort(np.argsort(-norms, kind="stable")[:keep])
    return kept, np.setdiff1d(allcols, kept)


def _w_columns(centers, base, widths, alpha, splits, n):
    """W_i's columns in the ``W`` form of ``add_recursion``, kept exact and
    the remainder boxed into n diagonal columns, for every member of a group
    at one step: ``base`` holds the members' W columns side by side (member
    g's ``widths[g]`` of them), ``alpha`` the column index of each one's
    multiplier (-1 for the local disturbance) and ``splits[g]`` member g's.

    A kept column is alpha * base, with constant 0.0 * base; a boxed radius
    sums its constant |entries| in column order, plus alpha terms with
    coefficients |entry|.  A member's terms run over its kept, then its
    boxed columns, column by column with rows ascending, nonzero entries
    only.  Read at a solution's values, the same form is the solution's W_i
    (:func:`_w_value`).  The members must keep equally many columns and all
    box some or none.

    Returns each member's form and all of them stacked along a leading
    member axis, the terms padded with zero terms to one length.
    """
    members = len(centers)
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
    program wants, and take ``geom.add_scaled_containment``'s split-sign
    form; with slack they keep its ``|Lam| <= W`` rows (see there why).  The
    handles of the containment witnesses are kept, keyed by the containment
    ("inC0", "term", "inU0", ...) and cut to the rows of the promise itself;
    the witness columns of the identity columns go to ``slack_cols``.
    Returns the handles, one per member.
    """
    subs = [network.subsystem(s) for s in sids]
    n, m = subs[0].n, subs[0].m
    steps = network.num_steps
    finite = network.mode == "finite"
    groups = [_aug_group(network, template, sids, t) for t in range(steps)]
    # per step: each member's W column count and its split into kept and boxed
    widths_w = [np.bincount([g for g, *_ in blocks], [w for *_, w in blocks],
                            len(sids)).astype(int) for _, _, blocks in groups]
    splits = [[_choose_columns(base[:, a - w:a], n, reduction_order)
               for w, a in zip(widths_t, np.cumsum(widths_t))]
              for (_, base, _), widths_t in zip(groups, widths_w)]
    p_reds = {tuple(len(split[g][0]) + (n if len(split[g][1]) else 0) for split in splits)
              for g in range(len(sids))}
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

    # the multipliers' column of every W column (-1: the local disturbance)
    alpha = [np.concatenate([np.full(width, -1) if kind == "local" else
                             alpha_of[g](j, "x" if kind == "state" else "u", t)
                             for g, kind, j, width in blocks]).astype(np.int64)
             for t, (_, _, blocks) in enumerate(groups)]
    W = [[] for _ in sids]
    for t, (centers, base, _) in enumerate(groups):
        forms, stacked_w = _w_columns(centers, base, widths_w[t], alpha[t], splits[t], n)
        for Wg, form in zip(W, forms):
            Wg.append(form)
        add_recursion(batch, np.stack([sub.A_at(t) for sub in subs]),
                      np.stack([sub.B_at(t) for sub in subs]), T[t], M[t] if m else None,
                      xbar[t], ubar[t] if m else None, stacked_w,
                      _at(T, t + 1), _at(xbar, t + 1))

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
                                   outer_cols, scales, outer_c, split=not slack)
        witness[key] = {name: a[:, :q] for name, a in h.items()}
        slack_cols.extend(a[:, q:].reshape(len(sids), -1) for a in h.values())

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
    """One evaluation of V_i: value, gradient, and the inner solution.

    ``grad[e]`` is dV_i/dalpha at the parameter vector's entry
    ``reads[e]``.  ``solution`` is built on first access from this
    evaluation's own LP solution, which holds every column's value, the
    fixed alphas included; later re-solves of the program or changes to the
    parameters leave it as it was.
    """

    sid: object
    value: float
    reads: np.ndarray
    grad: np.ndarray
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

    def __init__(self, sid, lp, handles, alpha, size, layout):
        """Subsystem ``sid``'s program ``lp``, with the ``handles`` its rows
        were emitted with, its fixed multiplier columns ``alpha`` ((j,
        channel, t) -> columns, own promises first, in creation order), the
        aux columns ``size`` of the size objective sum |T| and the
        ``layout`` of the parameter vectors it reads."""
        self.sid = sid
        self._alpha = alpha
        self._layout = layout
        # the parameter vector's entries the alpha columns are fixed at
        self.reads = np.fromiter(itertools.chain.from_iterable(
            range(*_at(layout.spans[(j, channel)], t)) for j, channel, t in alpha), np.int64)
        slack = np.concatenate([handles.d_x, handles.d_u])
        self._alpha_cols = np.concatenate(list(alpha.values())).astype(np.int32)
        # the objective's columns and their costs for V_i and for extraction
        self._cost_cols = np.concatenate([slack, size])
        self._potential_cost = np.concatenate([np.ones(len(slack)), np.zeros(len(size))])
        self._extract_cost = 1.0 - self._potential_cost
        lp.set_costs(self._cost_cols, self._potential_cost)
        # fixed at 0 for extraction: d and the witness parts only d pays for
        self._slack = np.concatenate([slack, handles.slack_cols])
        self._slack_bounds = lp.col_bounds(self._slack)
        self.handles = handles
        self.lp = lp
        self.k = handles.k
        self._last = None  # (values read, evaluation) of the last solve, if a potential one

    def _values(self, params):
        """The entries of ``params`` the alpha columns are fixed at."""
        if params._layout is not self._layout:
            raise self._layout.mismatch(params._layout)
        values = params._vec[self.reads]
        if values.min(initial=0.0) < -1e-12:
            bad = int(np.flatnonzero(values < -1e-12)[0])
            for key, cols in self._alpha.items():
                if bad < len(cols):
                    raise ContractError(f"negative alpha at {key}[{bad}]")
                bad -= len(cols)
        return values

    def _fix(self, values):
        fixed = np.maximum(values, 0.0)
        self.lp.set_col_bounds(self._alpha_cols, fixed, fixed)

    def evaluate(self, params):
        """Warm re-solve of V_i at ``params``; raises PotentialInfeasible.

        Where the values read are bitwise those of the last solve and the
        program is as that solve left it, the LP is the same, and that
        solve's evaluation is returned.
        """
        values = self._values(params)
        key = values.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        self._last = None
        self._fix(values)
        sol = self.lp.solve()
        if sol.status == lpcore.INFEASIBLE:
            raise PotentialInfeasible(
                f"subsystem {self.sid!r}: no viable tube at these parameters")
        ev = PotentialEval(self.sid, max(0.0, sol.objective), self.reads,
                           sol.column_duals(self._alpha_cols), sol.solve_seconds, self.handles, sol)
        self._last = (key, ev)
        return ev

    def extract(self, params):
        """The hard tubes at ``params``, or None if none keeps the promises."""
        sol = self._solve_hard(params)
        return None if sol is None else _numeric_solution(sol, self.handles)

    def _solve_hard(self, params):
        """The LP solution of the hard problem at ``params``, or None.

        Solved by this program's own LP: the slack and its witness
        columns are fixed at 0 and the objective becomes sum |T|; both are
        put back afterwards.  The next ``evaluate`` solves again, warm from
        this solve's basis.
        """
        self._last = None
        self._fix(self._values(params))
        lp = self.lp
        lp.set_col_bounds(self._slack, 0.0, 0.0)
        lp.set_costs(self._cost_cols, self._extract_cost)
        try:
            sol = lp.solve()
        finally:
            lp.set_col_bounds(self._slack, *self._slack_bounds)
            lp.set_costs(self._cost_cols, self._potential_cost)
        return None if sol.status == lpcore.INFEASIBLE else sol


def _numeric_solution(sol, handles):
    """Read a solved subsystem LP back into a TubeSolution, W_i from the
    LP's own terms (:func:`_w_value`)."""
    h = handles
    T = [sol.column_values(Tt) for Tt in h.T]
    xbar = [sol.column_values(xt) for xt in h.xbar]
    M = [sol.column_values(Mt) for Mt in h.M] if h.M else None
    ubar = [sol.column_values(ut) for ut in h.ubar] if h.ubar else None
    W = [_w_value(sol, Wt) for Wt in h.W]
    size = float(sum(np.abs(Tt).sum() for Tt in T))
    witness = witness_values(sol, h.witness)
    return TubeSolution(T, xbar, M, ubar, W, 0.0, None, size, witness=witness)


def extract_solutions(programs, params):
    """Per-subsystem tubes satisfying the promises at ``params`` exactly.

    Unlike the potential there is no slack here: each subsystem's program
    solves its viability problem with hard containment in its own promised
    sets, minimizing total template size, warm from its own last basis.
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
    and the size aux columns.  Each reads the parameter vectors of the
    template's layout, that of ``alpha_max(network, template)``.
    """
    layout = _Layout.of(*({sid: [C.shape[1] for _, C in entries]
                           for sid, entries in promises.items()}
                          for promises in (template.state, template.input)))
    groups = {}
    for sid in network.sorted_ids():
        groups.setdefault(_signature(network, template, sid, reduction_order), []).append(sid)
    programs = {}
    for sids in groups.values():
        programs.update(_build_group(network, template, sids, k, reduction_order, layout))
    return {sid: programs[sid] for sid in network.sorted_ids()}


def _build_group(network, template, sids, k, reduction_order, layout):
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
    return {sid: PotentialProgram(sid, lp, h, alpha, cols, layout) for sid, lp, h, alpha, cols
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
    """V(alpha) = sum of V_i, with the gradient summed entry by entry over
    the programs in id order.  A program whose values did not move re-uses
    its last evaluation (:meth:`PotentialProgram.evaluate`);
    ``solve_seconds`` counts the solves this call made."""
    ids = sorted(programs, key=_id_key)
    with lpcore.track_solver_time() as solver:
        evals = {sid: programs[sid].evaluate(params) for sid in ids}
    parts = evals.values()
    grad = np.bincount(np.concatenate([ev.reads for ev in parts]),
                       np.concatenate([ev.grad for ev in parts]), params._layout.size)
    value = float(sum(ev.value for ev in parts))
    return PotentialResult(value, params._like(grad), evals, solver.seconds)


# ---------------------------------------------------------------------------
# end-to-end correctness of a synthesized composition


def _promise_witness(template, c, C, alpha, S):
    """A witness for the promise Z(c, C Diag(alpha)) inside the admissible
    set ``S``: [Diag(alpha) 0] for a bounds template, whose promise columns
    are S's own; otherwise the least-squares L of ``G_S L = [C Diag(alpha),
    c_S - c]``, exact wherever that system has a solution."""
    if template.is_bounds:
        L = np.zeros((len(alpha), len(alpha) + 1))
        L.flat[::len(alpha) + 2] = alpha  # the diagonal
        return L
    rhs = np.column_stack([np.asarray(C) * alpha, S.center - c])
    return np.linalg.lstsq(S.generators, rhs, rcond=None)[0]


def check_correctness(network, template, params, solutions, tol=1e-7):
    """Re-verify every promise and recursion of a synthesized composition.

    Checks, per subsystem: Omega(t) inside the promised state tube, Theta(t)
    inside the promised input tube (or U_i where nothing was promised), the
    promised tubes inside the admissible sets, the terminal set inside
    X_i(h) for finite horizons, and the algebraic recursion residuals of the
    stored solution against the stored disturbance sets.

    Each containment is first checked on a witness: the one the hard
    extraction or centralized LP found (``solution.witness``) for Omega,
    Theta and the terminal set, and :func:`_promise_witness` for a promise
    inside its admissible set.  ``viability.certify`` decides the checks
    and the recursion steps gathered here.  Raises ValueError when a
    subsystem has no solution.
    """
    if missing := [sid for sid in network.sorted_ids() if sid not in solutions]:
        raise ValueError(f"no solutions for subsystem(s) {missing}")
    steps = network.num_steps
    finite = network.mode == "finite"
    # (what, margin kind, inner G, inner c, outer center, cols, scales, witness),
    # in the order of the report's failures
    checks, recursions = [], []

    def promise(what, c, C, alpha, S):
        checks.append((what, None, np.asarray(C, dtype=float) * alpha, c, S.center,
                       S.generators, np.ones(S.num_generators),
                       _promise_witness(template, c, C, alpha, S)))

    for sid in network.sorted_ids():
        sub = network.subsystem(sid)
        sol = solutions[sid]
        witness = sol.witness or {}
        sigma = sol.sigma
        for t in range(steps + 1 if finite else 1):
            cx, Cx = _at(template.state[sid], t)
            alpha = _at(params.x[sid], t)
            checks.append((f"{sid}: Omega({t}) escapes its promise", "x", sigma * _at(sol.T, t),
                           _at(sol.xbar, t), cx, Cx, alpha, witness.get(f"inC{t}")))
            promise(f"{sid}: state promise at t={t} exceeds X", cx, Cx, alpha, sub.X_at(t))
        if finite:
            X = sub.X_at(steps)
            checks.append((f"{sid}: terminal set escapes X", "x", sigma * sol.T[steps],
                           sol.xbar[steps], X.center, X.generators, np.ones(X.num_generators),
                           witness.get("term")))
        if sub.m:
            for t in range(steps):
                U = sub.U_at(t)
                if sid in template.input:
                    cu, Cu = _at(template.input[sid], t)
                    alpha = _at(params.u[sid], t)
                    promise(f"{sid}: input promise at t={t} exceeds U", cu, Cu, alpha, U)
                else:
                    cu, Cu, alpha = U.center, U.generators, np.ones(U.num_generators)
                checks.append((f"{sid}: Theta({t}) escapes its promise", "u",
                               sigma * _at(sol.M, t), _at(sol.ubar, t), cu, Cu, alpha,
                               witness.get(f"inU{t}")))
        recursions += recursion_steps(sol, sub.A, sub.B)
    return certify(checks, recursions, tol)
