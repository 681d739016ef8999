"""Finite-horizon viable sets and robust control invariant (RCI) sets.

Both problems are solved for a *single* system

    x(t+1) = A(t) x(t) + B(t) u(t) + w(t),    w(t) in W(t)

by parameterizing the viable sets as zonotopes Omega(t) = Z(xbar_t, T(t))
and the controller as the affine generator feedback

    u = ubar_t + M(t) zeta    where    x = xbar_t + T(t) zeta.

Feasibility is encoded exactly by linear constraints, built for both
horizons by one function, :func:`viable_lp`:

* finite horizon (an ``X_seq`` of h + 1 entries): the one-step recursion
  ``[A T + B M, G_w] = T(t+1)``, where Omega(t+1) picks up the disturbance
  generators, plus center recursion and containment of every Omega(t) in
  X(t) and every Theta(t) in U(t).

* infinite horizon (one-entry sequences; :func:`rci` is this case):
  ``[A T + B M, G_w] = [E, T]`` with the wiggle room Z(0, E) inside
  beta-scaled disturbance generators; the invariant set is
  Omega = Z(xbar, (1-beta)^-1 T) around the fixed point
  A xbar + B ubar + wbar = xbar.  At beta = 0 there is no E.

Per-step sequences are read with ``sysmodel._at``: a one-entry list is the
same at every t, as for a constant field of a ``sysmodel`` network.  So the
recursion at step t reads the next tube as the entry at t + 1, which for the
invariant tube is the tube itself, and both horizons give one
:class:`TubeSolution`.

The objective min sum |T entries| shrinks the sets (an LP surrogate for the
generator norms); infeasibility is a *result* (None), not an error.  A
returned solution has passed :func:`certify_tube`: its containments,
checked on the witnesses the LP itself found first, and its recursion.
:func:`certify` is the certifier of all three synthesis methods;
``contracts.check_correctness`` gathers a network's checks for it.

Every containment of this one monolithic program (Omega(t) in X(t),
Theta(t) in U(t) and the wiggle Z(0, E) in beta W) takes
``geom.add_scaled_containment``'s split-sign form, one row-sum row per
outer generator.  :func:`viable_lp` sets the program's solver options:
the invariant one at feasibility tolerance 1e-10 (``lpcore.TIGHT``), the
finite one by the interior-point solver (``lpcore.IPM``).

The recursion rows of this program, and of the per-subsystem contract
programs in ``contracts``, come from one block emitter, :func:`add_recursion`.
It and the containment emitter leave out alike what the inputs make idle:
the rows that read 0 = 0 and the witness entries whose block of outer rows
reads the number 0.  In this program zero forcing makes most of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .geom import (Zonotope, _add_rows, _columns, _join, _union, add_scaled_containment,
                   affine, column_values, directed_hausdorff, hausdorff_bound, numbers,
                   witness_values)
from .lpcore import LinearProgram
from .sysmodel import _at


#: largest recursion residual a certified solution may have
RESIDUAL_TOL = 1e-8


class CertificationError(lpcore.LpError):
    """An LP-feasible solution failed its certificate (:func:`certify_tube`)."""


def _abs_objective(lp, blocks):
    """Aux columns s >= |x| for every variable x of each (rows x cols)
    block of column indices (at least one block; -1, the number 0, gets
    none); returns the aux columns, whose sum is the size objective.  With
    an ``lpcore._LpBatch`` the blocks and the result carry its leading
    member axis, also when every block is empty."""
    aux = [np.zeros(np.shape(blocks[0])[:-2] + (0,), dtype=np.int64)]
    for cols in blocks:
        cols = np.asarray(cols)
        cols = cols.reshape(cols.shape[:-2] + (-1,))
        cols = cols[..., _union(cols >= 0, 1)]  # a forced zero (-1) needs no |.|
        size = cols.shape[-1]
        if size == 0:
            continue
        s = lp.var_block(size, lb=0.0)
        # entry e gives rows 2e (x - s[e] <= -0.0) and 2e + 1 (-x - s[e] <= 0)
        pair = 2 * np.arange(size)
        lp.add_rows(np.concatenate([pair, pair + 1, pair, pair + 1]),
                    np.concatenate([cols, cols, s, s], axis=-1),
                    np.concatenate([np.ones(size), -np.ones(size), np.full(2 * size, -1.0)]),
                    np.tile([-0.0, 0.0], size), "<")
        aux.append(s)
    return np.concatenate(aux, axis=-1)


def add_recursion(lp, A, B, T, M, xbar, ubar, W, T_next, x_next, E=None):
    """Emit one step of the tube recursion and its center row as one block.

    With w columns in ``T`` and p in W, rows (i, j), i < n and j < w + p,
    come first, i-major, and read

        [A T + B M, W][i, j] = R[i, j],   R = [E, T_next] or [0, T_next],

    where ``T_next`` has w + p columns (a growing tube: no left part) or w
    (the left part is ``E``, or zero when ``E`` is None).  Rows i < n then
    read ``A xbar + B ubar + W.center - x_next = 0``; row (i, j) is row
    ``i * (w + p) + j`` of the block and center row i is row ``n * (w + p) +
    i``.  Every tube argument is an array of column indices (in ``T``,
    ``M`` and ``T_next``, -1 is the number 0); ``B``, ``M`` and ``ubar`` are
    None without inputs.  A row left with no column and bound 0 drops
    out, moving the later rows up.  ``W`` is ``(center, const, terms)``: entry
    (i, j) of the W columns is ``const[i, j]`` plus the terms ``coefs[e] *
    x[cols[e]]`` with ``(rows[e], wcols[e]) == (i, j)`` of ``terms = (rows,
    wcols, cols, coefs)``.

    The rows, their term order and their bounds (signed zeros included) are
    those of writing each row as a LinExpr ``lhs - rhs`` with ``add_eq``,
    less the rows that read 0 = 0.

    ``lp`` may be an ``lpcore._LpBatch``: every argument may then carry its
    leading member axis.  A product entry that is zero for some members
    but not all is emitted as a zero, which ``add_rows`` drops; terms of
    ``W`` may be padded the same way.  A row drops out only where it has no
    column and bound 0 in every member.
    """
    center, const, (w_rows, w_cols, w_vars, w_coefs) = W
    n, w = T.shape[-2:]
    p = const.shape[-1]
    width = w + p
    lead = T.shape[:-2]
    rhs = np.full(lead + (n, width), -1)
    rhs[..., width - T_next.shape[-1]:] = T_next
    if E is not None:
        rhs[..., :E.shape[-1]] = E
    base = np.arange(n) * width
    parts = []      # (rows, cols, coefs) in the order a LinExpr sums them

    def product(K, X, first):
        # K @ X: entry K[i, k] * X[k, j] goes to row first[i] + j
        ii, kk = np.nonzero(_union(K, 2))
        c = X.shape[-1]
        parts.append(((first[ii][:, None] + np.arange(c)).ravel(),
                      X[..., kk, :].reshape(X.shape[:-2] + (-1,)),
                      np.repeat(K[..., ii, kk], c, axis=-1)))

    product(A, T, base)
    if M is not None:
        product(B, M, base)
    parts.append((base[w_rows] + w + w_cols, w_vars, w_coefs))
    ii, jj = np.nonzero(_union(rhs >= 0, 2))
    parts.append((base[ii] + jj, rhs[..., ii, jj], np.full(len(ii), -1.0)))
    cen = n * width + np.arange(n)
    product(A, xbar[..., None], cen)
    if ubar is not None:
        product(B, ubar[..., None], cen)
    parts.append((cen, x_next, np.full(n, -1.0)))

    # a W entry's constant moves right; every other row has constant 0.0,
    # and the center row the constant 0.0 + center
    const = np.asarray(const, dtype=float)
    bounds = np.concatenate(
        [np.concatenate([np.full(const.shape[:-2] + (n, w), -0.0), -const], axis=-1)
         .reshape(const.shape[:-2] + (-1,)),
         -(0.0 + np.asarray(center, dtype=float))],
        axis=-1)
    # a T or M entry -1 is the number 0 and drops out
    _add_rows(lp, *_join(parts), bounds, "=")


def numeric_w(W):
    """The ``W`` argument of :func:`add_recursion` for a numeric zonotope."""
    return W.center, W.generators, (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)


def _add_plain_containment(lp, G, c, outer, scale=1.0):
    """Rows for Z(c, scale * G) inside ``outer``; ``G``/``c`` are columns,
    -1 the number 0."""
    inner = affine(np.column_stack([G, c]), np.r_[np.full(G.shape[1], scale), 1.0])
    return add_scaled_containment(lp, inner, outer.generators,
                                  numbers(np.ones(outer.num_generators)),
                                  outer.center)


# ---------------------------------------------------------------------------
# solutions


@dataclass
class TubeSolution:
    """A synthesized tube: Omega(t) = Z(xbar[t], sigma T[t]) and Theta(t) =
    Z(ubar[t], sigma M[t]), sigma = 1/(1 - beta), computed against the
    disturbance sets W[t].

    Every list holds one entry per step, and a one-entry list is the same at
    every t (read with ``sysmodel._at``).  A finite tube has h + 1 entries of
    T and xbar (the last is the terminal set) and h of the others, beta 0
    and E None; an invariant (RCI) tube has one entry each, and its
    recursion reads ``[A T + B M, G_w] = [E, T]``.
    """

    T: list
    xbar: list
    M: list | None
    ubar: list | None
    W: list
    beta: float
    E: np.ndarray | None
    objective: float
    #: the synthesis LP's containment witnesses [Lam lam], keyed by the
    #: containment as in ``contracts.check_correctness`` ("inC3", "term",
    #: "inU0", ...); certification checks them first.  Never serialized: a
    #: loaded solution certifies by LP.
    witness: dict | None = field(default=None, compare=False, repr=False)

    @property
    def horizon(self):
        """h for a finite tube, None for an invariant one."""
        return None if len(self.T) == 1 else len(self.T) - 1

    @property
    def sigma(self):
        return 1.0 / (1.0 - self.beta)

    def omega(self, t=0):
        return Zonotope(_at(self.xbar, t), self.sigma * _at(self.T, t))

    def theta(self, t=0):
        if self.M is None:
            raise ValueError("no inputs in this system")
        return Zonotope(_at(self.ubar, t), self.sigma * _at(self.M, t))

    def to_json(self):
        """The "viable" layout (lists per step) for a finite tube, the "rci"
        layout (single entries, beta and E) for an invariant one.  Every
        finite tube grows: its template is "growing", which loading ignores."""
        rci = self.horizon is None

        def dump(seq, write=np.ndarray.tolist):
            if seq is None:
                return None
            return write(seq[0]) if rci else [write(x) for x in seq]

        data = {"kind": "rci"} if rci else {"kind": "viable", "template": "growing"}
        data.update(T=dump(self.T), xbar=dump(self.xbar), M=dump(self.M),
                    ubar=dump(self.ubar), W=dump(self.W, Zonotope.to_json))
        if rci:
            data.update(beta=self.beta, E=None if self.E is None else self.E.tolist())
        data["objective"] = self.objective
        return data

    @classmethod
    def from_json(cls, data):
        rci = data["kind"] == "rci"

        def load(value, read=lambda v: np.asarray(v, dtype=float)):
            if value is None:
                return None
            return [read(value)] if rci else [read(v) for v in value]

        E = data.get("E")
        return cls(load(data["T"]), load(data["xbar"]), load(data["M"]),
                   load(data["ubar"]), load(data["W"], Zonotope.from_json),
                   data.get("beta", 0.0), None if E is None else np.asarray(E, dtype=float),
                   data["objective"])


def step_residual(A, B, T, M, xbar, ubar, W_G, W_c, E, T_next, x_next):
    """Largest entry of one step's residuals ``[A T + B M, W_G] - R`` (R the
    next tube ``T_next``, or ``[E, T_next]`` when it is narrower: an
    invariant tube, E = 0 when None) and ``A xbar + B ubar + W_c - x_next``.

    ``B``, ``M`` and ``ubar`` are None without inputs.  All arrays may carry
    the same leading axes, a stack of tubes of one shape; the result is the
    largest entry over the stack.
    """
    flow = A @ T
    drift = (A @ xbar[..., None])[..., 0]
    if M is not None:
        flow = flow + B @ M
        drift = drift + (B @ ubar[..., None])[..., 0]
    lhs = np.concatenate([flow, W_G], axis=-1)
    if E is None:
        E = np.zeros(lhs.shape[:-1] + (lhs.shape[-1] - T_next.shape[-1],))
    res = float(np.max(np.abs(lhs - np.concatenate([E, T_next], axis=-1)), initial=0.0))
    return max(res, float(np.max(np.abs(drift + W_c - x_next))))


# ---------------------------------------------------------------------------
# certification


@dataclass
class CorrectnessReport:
    ok: bool
    max_state_margin: float
    max_input_margin: float
    max_residual: float
    failures: list = field(default_factory=list)
    lp_fallbacks: int = 0  # containments a Hausdorff LP had to decide


def recursion_steps(solution, A_seq, B_seq):
    """The :func:`step_residual` arguments of every step of ``solution``;
    ``A_seq``/``B_seq`` are per-step sequences, read with ``_at``."""
    inputs = solution.M is not None
    return [(_at(A_seq, t), _at(B_seq, t) if inputs else None, solution.T[t],
             solution.M[t] if inputs else None, solution.xbar[t],
             solution.ubar[t] if inputs else None, W.generators, W.center, solution.E,
             _at(solution.T, t + 1), _at(solution.xbar, t + 1))
            for t, W in enumerate(solution.W)]


def certify(checks, steps, tol=1e-7):
    """The certificate of every method: decide ``checks`` and ``steps``.

    Each check is ``(what, kind, G, c, center, cols, scales, L)``: the
    containment Z(c, G) inside Z(center, cols Diag(scales)), named ``what``
    in the failures, whose margin counts towards the state margin (kind
    "x"), the input margin ("u") or neither (None).  It is first bounded on
    its witness ``L`` (None for none): the checks of one shape by one
    ``geom.hausdorff_bound`` call on stacked arrays.  A bound within ``tol``
    is the margin; otherwise the Hausdorff LP decides, one containment at a
    time, and ``lp_fallbacks`` counts those LPs.  Each step is a tuple of
    :func:`step_residual` arguments; the steps of one shape are checked by
    one call, and the largest residual fails above ``RESIDUAL_TOL``.
    """
    bounds = np.full(len(checks), np.inf)
    groups = {}
    for e, (*_, G, _, _, cols, _, L) in enumerate(checks):
        if L is not None:  # G's, the outer columns' and L's shapes fix the others'
            groups.setdefault((G.shape, np.shape(cols), np.shape(L)), []).append(e)
    for members in groups.values():
        G, c, *outer = _stacked([checks[e][2:] for e in members])
        bounds[members] = hausdorff_bound((G, c), *outer)
    recursions = {}
    for step in steps:  # the shapes of T, M, W, E and the next T fix all the others
        recursions.setdefault(tuple(np.shape(step[i]) for i in (2, 3, 6, 8, 9)), []).append(step)
    max_res = max((step_residual(*_stacked(stack)) for stack in recursions.values()),
                  default=0.0)

    failures, fallbacks = [], 0
    margins = {"x": 0.0, "u": 0.0, None: 0.0}
    for (what, kind, G, c, center, cols, scales, _), margin in zip(checks, bounds.tolist()):
        if margin > tol:
            outer = Zonotope(center, np.asarray(cols, dtype=float) * scales)
            margin = directed_hausdorff(outer, Zonotope(c, G))
            fallbacks += 1
        if margin > tol:
            failures.append(f"{what} by {margin:.3e}")
        margins[kind] = max(margins[kind], margin)
    if max_res > RESIDUAL_TOL:
        failures.append(f"recursion residual {max_res:.3e}")
    return CorrectnessReport(not failures, margins["x"], margins["u"], max_res, failures,
                             fallbacks)


def certify_tube(solution, A_seq, B_seq, X_seq, U_seq):
    """:func:`certify` one tube: every Omega(t) in X(t) and Theta(t) in U(t),
    on the solution's own witnesses first, and its recursion against
    A(t)/B(t).  Every argument but ``solution`` is a per-step sequence."""
    witness = solution.witness or {}
    checks = []
    for name, kind, G_seq, c_seq, outers, key in (
            ("Omega({t}) escapes X({t})", "x", solution.T, solution.xbar, X_seq, "inC"),
            ("Theta({t}) escapes U({t})", "u", solution.M or (), solution.ubar, U_seq, "inU")):
        for t, G in enumerate(G_seq):
            S = _at(outers, t)
            checks.append((name.format(t=t), kind, solution.sigma * G, c_seq[t], S.center,
                           S.generators, np.ones(S.num_generators), witness.get(f"{key}{t}")))
    return certify(checks, recursion_steps(solution, A_seq, B_seq))


def _stacked(items):
    """Each field of the equal-shaped tuples ``items`` stacked (None stays None)."""
    return [None if field[0] is None else np.array(field) for field in zip(*items)]


# ---------------------------------------------------------------------------
# the tube LP


def solve_and_read(lp, read):
    """Solve ``lp`` and read the solution back; None if it is infeasible."""
    sol = lp.solve()
    return None if sol.status == lpcore.INFEASIBLE else read(sol)


def _forced_zeros(A_seq, B_seq, W_seq, widths, beta):
    """Masks of the T(t) and M(t) entries that zero forcing pins to 0 on the
    recursion rows of :func:`viable_lp`: a row whose constant is exactly 0
    and that has one entry not yet pinned pins it, until nothing changes.
    E, xbar and ubar are never pinned.  A sweep counts entries by products."""
    n = A_seq[0].shape[0]
    T_zero = [np.zeros((n, w), dtype=bool) for w in widths]
    M_zero = [np.zeros((B.shape[1], w), dtype=bool) for B, w in zip(B_seq, widths)]
    forced = -1
    while forced < (forced := sum(int(z.sum()) for z in T_zero + M_zero)):
        for t, (A, B, W) in enumerate(zip(A_seq, B_seq, W_seq)):
            nxt, w, p = (t + 1) % len(widths), widths[t], W.num_generators
            shift = w + p - widths[nxt]  # columns of R left of T_next
            same = nxt == t and shift == 0  # R is T: the rows read (A - I) T + B M = 0
            A, B = ((A - np.eye(n) if same else A) != 0) * 1.0, (B != 0) * 1.0
            R = ~T_zero[nxt] & (not same)  # T_next's unpinned entries in R
            count = np.pad(A @ ~T_zero[t] + B @ ~M_zero[t], ((0, 0), (0, p)))
            count[:, shift:] += R
            count[:, :shift] += beta > 0  # E, never pinned
            forcing = (count == 1) & np.pad(W.generators == 0, ((0, 0), (w, 0)),
                                            constant_values=True)
            T_zero[t] |= A.T @ forcing[:, :w] > 0
            M_zero[t] |= B.T @ forcing[:, :w] > 0
            T_zero[nxt] |= forcing[:, shift:] & R
    return T_zero, M_zero


def viable_lp(A_seq, B_seq, W_seq, X_seq, U_seq, k, beta=0.0):
    """The LP of :func:`viable`, named "viable" for a finite tube and "rci"
    for an invariant one, and ``read(sol)`` that turns an optimal solution
    of it into a TubeSolution.  The T(t) and M(t) entries that the
    recursion rows pin to 0 (:func:`_forced_zeros`; on geo40 2,760 of T's
    3,200) are the number 0, with no |.| column; recursion rows left with
    no column stay only with a nonzero bound, which makes the LP infeasible.
    So the containments leave much out: a witness entry [q, j] whose block
    of outer rows reads the number 0 in column j, as a pinned T entry makes
    it, gets no column (``geom.add_scaled_containment``)."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    h = len(A_seq)
    finite = len(X_seq) > 1
    # h steps and h + 1 state sets for a finite tube, one of each otherwise
    if not len(B_seq) == len(W_seq) == len(U_seq) == h == (len(X_seq) - 1 if finite else 1):
        raise ValueError("sequence lengths disagree with the horizon")
    if finite and beta:
        raise ValueError(f"beta={beta}: beta contracts an invariant tube and "
                         "applies only to an infinite horizon")
    n = A_seq[0].shape[0]
    m = B_seq[0].shape[1]
    sigma = 1.0 / (1.0 - beta)

    # a finite tube grows by each step's disturbance columns
    widths = [k]
    if finite:
        for W in W_seq:
            widths.append(widths[-1] + W.num_generators)

    # invariant: at 1e-10, as its residuals meet RESIDUAL_TOL 1e-8 (at 1e-7,
    # dims 80 and 100 left 9.4e-8); finite: on case2's aggregate network dual
    # simplex took 11-15 s to a vertex whose Theta(6) escapes U(6) by 3.1e-7,
    # inside its tolerance, and the interior-point solver 3.5 s to one that certifies
    lp = LinearProgram(name="viable" if finite else "rci",
                       options=lpcore.IPM if finite else lpcore.TIGHT)
    T_zero, M_zero = _forced_zeros(A_seq, B_seq, W_seq, widths, beta)
    T = [_columns(lp, zero) for zero in T_zero]
    xbar = [lp.var_block(n) for _ in widths]
    M = [_columns(lp, zero) for zero in M_zero] if m else None
    ubar = [lp.var_block(m) for _ in range(h)] if m else None
    E = lp.var_block((n, W_seq[0].num_generators)) if beta else None

    for t in range(h):
        add_recursion(lp, A_seq[t], B_seq[t], T[t], M[t] if m else None, xbar[t],
                      ubar[t] if m else None, numeric_w(W_seq[t]), _at(T, t + 1),
                      _at(xbar, t + 1), E=E)
    if E is not None:
        G = W_seq[0].generators
        add_scaled_containment(lp, affine(np.column_stack([E, np.full(n, -1)])), G,
                               numbers(np.full(G.shape[1], beta)), np.zeros(n))

    witness = {f"inC{t}": _add_plain_containment(lp, T[t], xbar[t], X_seq[t], sigma)
               for t in range(len(T))}
    if finite:
        witness["term"] = witness[f"inC{h}"]
    if m:
        for t in range(h):
            witness[f"inU{t}"] = _add_plain_containment(lp, M[t], ubar[t], U_seq[t], sigma)

    lp.set_costs(_abs_objective(lp, T), 1.0)

    def read(sol):
        def values(blocks):
            return None if blocks is None else [column_values(sol, b) for b in blocks]

        return TubeSolution(
            values(T), values(xbar), values(M), values(ubar), list(W_seq), beta,
            None if E is None else sol.column_values(E), sol.objective,
            witness=witness_values(sol, witness),
        )

    return lp, read


def viable(A_seq, B_seq, W_seq, X_seq, U_seq, k, beta=0.0):
    """A certified viable tube; None if the LP is infeasible.  A tube that
    fails :func:`certify_tube` raises CertificationError with its first failure.

    ``A_seq/B_seq/W_seq/U_seq`` have one entry per step t = 0..h-1 and
    ``X_seq`` has h+1 entries, or each has one entry for an invariant tube.
    ``k`` is the generator budget of Omega(0).  ``beta`` applies only to an
    invariant tube: with ``beta > 0`` the wiggle columns E enter, bounded
    by beta W, and the tube is inflated by sigma = 1/(1-beta).
    """
    lp, read = viable_lp(A_seq, B_seq, W_seq, X_seq, U_seq, k, beta)
    result = solve_and_read(lp, read)
    if result is not None:
        report = certify_tube(result, A_seq, B_seq, X_seq, U_seq)
        if not report.ok:
            raise CertificationError(report.failures[0])
    return result


def rci(A, B, W, X, U, k, beta=0.0):
    """Robust control invariant set; None if infeasible at this (k, beta).

    The one-step case of :func:`viable`.  At ``beta == 0`` there are no
    wiggle generators E: the disturbance columns must be reproduced by T
    itself.
    """
    return viable([A], [B], [W], [X], [U], k, beta)
