"""Finite-horizon viable sets and robust control invariant (RCI) sets.

Both problems are solved for a *single* system

    x(t+1) = A(t) x(t) + B(t) u(t) + w(t),    w(t) in W(t)

by parameterizing the viable sets as zonotopes Omega(t) = Z(xbar_t, T(t))
and the controller as the affine generator feedback

    u = ubar_t + M(t) zeta    where    x = xbar_t + T(t) zeta.

Feasibility is encoded exactly by linear constraints:

* finite horizon (``finite_viable``): the one-step recursion
  ``[A T + B M, G_w] = T(t+1)`` (the ``growing`` template, where Omega(t+1)
  picks up the disturbance generators) or its fixed-width variant
  ``[A T + B M, G_w] = [0, T(t+1)]`` (``fixed`` template, constant k
  columns), plus center recursion and containment of every Omega(t) in
  X(t) and every Theta(t) in U(t).

* infinite horizon (``rci``): ``[A T + B M, G_w] = [E, T]`` with the wiggle
  room Z(0, E) inside beta-scaled disturbance generators; the invariant set
  is Omega = Z(xbar, (1-beta)^-1 T) around the fixed point
  A xbar + B ubar + wbar = xbar.  ``simplified=True`` pins E = 0, beta = 0.

The objective min sum |T entries| shrinks the sets (an LP surrogate for the
generator norms); infeasibility is a *result* (None), not an error.  All
returned solutions re-certify their containments before being handed back,
first on the containment witnesses the LP itself found.

The recursion rows of both programs, and of the per-subsystem contract
programs in ``contracts``, come from one block emitter, :func:`add_recursion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .geom import (Zonotope, _join, _union, add_scaled_containment, affine,
                   certified_hausdorff, numbers, witness_values)
from .lpcore import LinearProgram


#: largest recursion residual a certified solution may have
RESIDUAL_TOL = 1e-8


class CertificationError(lpcore.LpError):
    """An LP-feasible solution failed its independent containment check."""


def _abs_objective(lp, blocks):
    """Aux columns s >= |x| for every variable x of each (rows x cols)
    block of column indices (at least one block); returns the aux columns,
    whose sum is the size objective.  With an ``lpcore._LpBatch`` the blocks
    and the result carry its leading member axis, also when every block is
    empty."""
    aux = [np.zeros(np.shape(blocks[0])[:-2] + (0,), dtype=np.int64)]
    for cols in blocks:
        cols = np.asarray(cols)
        size = cols.shape[-2] * cols.shape[-1]
        if size == 0:
            continue
        s = lp.var_block(cols.shape[-2:], lb=0.0)
        s, cols = s.reshape(s.shape[:-2] + (size,)), cols.reshape(cols.shape[:-2] + (size,))
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
    i``.  Every tube argument is
    an array of column indices; ``B``, ``M`` and ``ubar`` are None without
    inputs.  ``W`` is ``(center, const, terms)``: entry (i, j) of the W
    columns is ``const[i, j]`` plus the terms ``coefs[e] * x[cols[e]]`` with
    ``(rows[e], wcols[e]) == (i, j)`` of ``terms = (rows, wcols, cols,
    coefs)``.

    The rows, their term order and their bounds (signed zeros included) are
    those of writing each row as a LinExpr ``lhs - rhs`` with ``add_eq``.

    ``lp`` may be an ``lpcore._LpBatch``: every argument may then carry its
    leading member axis.  A product entry that is zero for some members
    but not all is emitted as a zero, which ``add_rows`` drops; terms of
    ``W`` may be padded the same way.
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
    lp.add_rows(*_join(parts), bounds, "=")


def numeric_w(W):
    """The ``W`` argument of :func:`add_recursion` for a numeric zonotope."""
    return W.center, W.generators, (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)


def _add_plain_containment(lp, G, c, outer, scale=1.0):
    """Rows for Z(c, scale * G) inside ``outer``; ``G``/``c`` are columns."""
    inner = affine(np.column_stack([G, c]), np.r_[np.full(G.shape[1], scale), 1.0])
    return add_scaled_containment(lp, inner, outer.generators,
                                  numbers(np.ones(outer.num_generators)),
                                  outer.center)


def _certify(inner, outer, what, witness=None, tol=1e-7):
    """Check ``inner`` inside ``outer`` up to ``tol``; returns (margin, lp).

    The margin is the witness's Hausdorff bound when that is within
    ``tol``; otherwise the Hausdorff LP decides, and ``lp`` is True.
    Raises CertificationError when the containment fails.
    """
    margin, lp = certified_hausdorff(inner, outer.center, outer.generators,
                                     np.ones(outer.num_generators), witness, tol)
    if margin > tol:
        raise CertificationError(f"{what}: solution violates containment")
    return margin, lp


# ---------------------------------------------------------------------------
# solutions


@dataclass
class ViableSolution:
    """Finite-horizon result: Omega(t) = Z(xbar[t], T[t]), Theta(t) = Z(ubar[t], M[t])."""

    template: str  # "growing" | "fixed"
    T: list
    xbar: list
    M: list | None
    ubar: list | None
    W: list  # the disturbance sets the solution was computed against
    objective: float
    #: the synthesis LP's containment witnesses [Lam lam], keyed by the
    #: containment as in ``contracts.check_correctness`` ("inC3", "term",
    #: "inU0", ...); certification checks them first.  Never serialized: a
    #: loaded solution certifies by LP.
    witness: dict | None = field(default=None, compare=False, repr=False)

    @property
    def horizon(self):
        return len(self.T) - 1

    def omega(self, t):
        return Zonotope(self.xbar[t], self.T[t])

    def theta(self, t):
        if self.M is None:
            raise ValueError("no inputs in this system")
        return Zonotope(self.ubar[t], self.M[t])

    def to_json(self):
        return {
            "kind": "viable",
            "template": self.template,
            "T": [T.tolist() for T in self.T],
            "xbar": [x.tolist() for x in self.xbar],
            "M": None if self.M is None else [M.tolist() for M in self.M],
            "ubar": None if self.ubar is None else [u.tolist() for u in self.ubar],
            "W": [w.to_json() for w in self.W],
            "objective": self.objective,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["template"],
            [np.asarray(T, dtype=float) for T in data["T"]],
            [np.asarray(x, dtype=float) for x in data["xbar"]],
            None if data["M"] is None else [np.asarray(M, dtype=float) for M in data["M"]],
            None if data["ubar"] is None else [np.asarray(u, dtype=float) for u in data["ubar"]],
            [Zonotope.from_json(w) for w in data["W"]],
            data["objective"],
        )


@dataclass
class RciSolution:
    """Infinite-horizon result: Omega = Z(xbar, sigma T) with sigma = 1/(1-beta)."""

    T: np.ndarray
    xbar: np.ndarray
    M: np.ndarray | None
    ubar: np.ndarray | None
    W: Zonotope
    beta: float
    E: np.ndarray | None
    objective: float
    #: containment witnesses, as for ViableSolution ("inC0", "inU0")
    witness: dict | None = field(default=None, compare=False, repr=False)

    @property
    def k(self):
        return self.T.shape[1]

    @property
    def sigma(self):
        return 1.0 / (1.0 - self.beta)

    def omega(self, t=None):
        return Zonotope(self.xbar, self.sigma * self.T)

    def theta(self, t=None):
        if self.M is None:
            raise ValueError("no inputs in this system")
        return Zonotope(self.ubar, self.sigma * self.M)

    def to_json(self):
        return {
            "kind": "rci",
            "T": self.T.tolist(),
            "xbar": self.xbar.tolist(),
            "M": None if self.M is None else self.M.tolist(),
            "ubar": None if self.ubar is None else self.ubar.tolist(),
            "W": self.W.to_json(),
            "beta": self.beta,
            "E": None if self.E is None else self.E.tolist(),
            "objective": self.objective,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            np.asarray(data["T"], dtype=float),
            np.asarray(data["xbar"], dtype=float),
            None if data["M"] is None else np.asarray(data["M"], dtype=float),
            None if data["ubar"] is None else np.asarray(data["ubar"], dtype=float),
            Zonotope.from_json(data["W"]),
            data["beta"],
            None if data["E"] is None else np.asarray(data["E"], dtype=float),
            data["objective"],
        )


def certify_solution(solution, X, U):
    """Re-check every Omega(t) in X(t) and Theta(t) in U(t).

    Each containment is accepted on the solution's own witness when its
    Hausdorff bound is within tolerance, and otherwise decided by the
    Hausdorff LP.  ``X``/``U`` are the per-step sequences for a
    ViableSolution and single sets for an RciSolution.  Raises
    CertificationError on a violation; returns the largest Omega and Theta
    margins and the number of containments the LP decided.
    """
    witness = solution.witness or {}
    margins, fallbacks = [0.0, 0.0], 0

    def check(channel, inner, outer, what, key):
        nonlocal fallbacks
        margin, lp = _certify(inner, outer, what, witness.get(key))
        margins[channel] = max(margins[channel], margin)
        fallbacks += lp

    if isinstance(solution, RciSolution):
        check(0, solution.omega(), X, "Omega in X", "inC0")
        if solution.M is not None:
            check(1, solution.theta(), U, "Theta in U", "inU0")
    else:
        for t in range(solution.horizon + 1):
            check(0, solution.omega(t), X[t], f"Omega({t}) in X({t})", f"inC{t}")
        if solution.M is not None:
            for t in range(solution.horizon):
                check(1, solution.theta(t), U[t], f"Theta({t}) in U({t})", f"inU{t}")
    return margins[0], margins[1], fallbacks


def recursion_residual(solution, A_seq, B_seq):
    """Largest entry of the recursion and center residuals of ``solution``.

    ``A_seq``/``B_seq`` hold the system matrices per step (one step for an
    RciSolution).  The residuals are ``[A T + B M, G_w] - R`` with R the
    next tube (growing template), ``[0, T(t+1)]`` (fixed) or ``[E, T]``
    (RCI, E = 0 when simplified), and ``A xbar + B ubar + w_c`` minus the
    next (or, for RCI, the same) center.
    """
    finite = isinstance(solution, ViableSolution)
    res = 0.0
    for t in range(solution.horizon if finite else 1):
        def at(series):
            return series[t] if finite else series
        W = at(solution.W)
        flow = A_seq[t] @ at(solution.T)
        drift = A_seq[t] @ at(solution.xbar)
        if solution.M is not None:
            flow = flow + B_seq[t] @ at(solution.M)
            drift = drift + B_seq[t] @ at(solution.ubar)
        T_next = solution.T[t + 1] if finite else solution.T
        x_next = solution.xbar[t + 1] if finite else solution.xbar
        lhs = np.hstack([flow, W.generators])
        left = lhs.shape[1] - T_next.shape[1]
        E = getattr(solution, "E", None)
        rhs = np.hstack([np.zeros((len(x_next), left)) if E is None else E, T_next])
        res = max(res, float(np.max(np.abs(lhs - rhs), initial=0.0)))
        res = max(res, float(np.max(np.abs(drift + W.center - x_next))))
    return res


def solution_from_json(data):
    return ViableSolution.from_json(data) if data["kind"] == "viable" \
        else RciSolution.from_json(data)


# ---------------------------------------------------------------------------
# finite horizon


def solve_and_read(lp, read, what):
    """Solve ``lp`` and read the solution back; None if it is infeasible."""
    sol = lp.solve()
    if sol.status == lpcore.INFEASIBLE:
        return None
    if sol.status != lpcore.OPTIMAL:
        raise lpcore.LpSolverError(f"{what} LP ended with status {sol.status}")
    return read(sol)


def finite_viable_lp(A_seq, B_seq, W_seq, X_seq, U_seq, k, template="growing", x0=None):
    """The LP of :func:`finite_viable`, and ``read(sol)`` that turns an
    optimal solution of it into a ViableSolution."""
    h = len(A_seq)
    if not (len(B_seq) == len(W_seq) == len(U_seq) == h and len(X_seq) == h + 1):
        raise ValueError("sequence lengths disagree with the horizon")
    if template not in ("growing", "fixed"):
        raise ValueError(f"unknown template {template!r}")
    n = A_seq[0].shape[0]
    m = B_seq[0].shape[1]
    p = [W.num_generators for W in W_seq]
    if template == "fixed" and any(pt > k for pt in p):
        raise ValueError("fixed template needs k >= number of disturbance generators")
    if x0 is not None and x0.num_generators > k:
        raise ValueError(f"x0 has {x0.num_generators} generators but k={k}")

    widths = [k]
    for t in range(h):
        widths.append(widths[-1] + p[t] if template == "growing" else k)

    lp = LinearProgram(name="viable")
    T = [lp.var_block((n, widths[t])) for t in range(h + 1)]
    xbar = [lp.var_block(n) for _ in range(h + 1)]
    M = [lp.var_block((m, widths[t])) for t in range(h)] if m else None
    ubar = [lp.var_block(m) for _ in range(h)] if m else None

    for t in range(h):
        add_recursion(lp, A_seq[t], B_seq[t], T[t], M[t] if m else None, xbar[t],
                      ubar[t] if m else None, numeric_w(W_seq[t]), T[t + 1],
                      xbar[t + 1])

    witness = {f"inC{t}": _add_plain_containment(lp, T[t], xbar[t], X_seq[t])
               for t in range(h + 1)}
    witness["term"] = witness[f"inC{h}"]
    if m:
        for t in range(h):
            witness[f"inU{t}"] = _add_plain_containment(lp, M[t], ubar[t], U_seq[t])

    if x0 is not None:
        # per i: xbar0[i] = c[i], then T0[i, j] = G[i, j] (0 past x0's columns)
        values = np.zeros((n, k + 1))
        values[:, 0] = x0.center
        values[:, 1:1 + x0.num_generators] = x0.generators
        size = n * (k + 1)
        lp.add_rows(np.arange(size), np.column_stack([xbar[0], T[0]]).ravel(),
                    np.ones(size), -(0.0 + -values.ravel()), "=")

    lp.set_costs(_abs_objective(lp, T), 1.0)

    def read(sol):
        return ViableSolution(
            template,
            [sol.column_values(Tt) for Tt in T],
            [sol.column_values(xt) for xt in xbar],
            [sol.column_values(Mt) for Mt in M] if m else None,
            [sol.column_values(ut) for ut in ubar] if m else None,
            list(W_seq),
            sol.objective,
            witness_values(sol, witness),
        )

    return lp, read


def finite_viable(A_seq, B_seq, W_seq, X_seq, U_seq, k, template="growing",
                  x0=None):
    """Viable sets over a finite horizon; None if the LP is infeasible.

    ``A_seq/B_seq/W_seq/U_seq`` have one entry per step t = 0..h-1 and
    ``X_seq`` has h+1 entries.  ``k`` is the generator budget of Omega(0).
    ``template="growing"`` lets Omega(t) gain the disturbance generators each
    step; ``"fixed"`` keeps exactly k columns throughout (needs k >= p).
    ``x0`` (a Zonotope) optionally pins Omega(0) = x0.
    """
    lp, read = finite_viable_lp(A_seq, B_seq, W_seq, X_seq, U_seq, k, template, x0)
    result = solve_and_read(lp, read, "viable")
    if result is not None:
        certify_solution(result, X_seq, U_seq)
    return result


# ---------------------------------------------------------------------------
# infinite horizon


def rci_lp(A, B, W, X, U, k, beta=0.0, simplified=None):
    """The LP of :func:`rci`, and ``read(sol)`` that turns an optimal
    solution of it into an RciSolution."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    if simplified is None:
        simplified = beta == 0.0
    if simplified and beta != 0.0:
        raise ValueError("simplified variant requires beta = 0")
    n = A.shape[0]
    m = B.shape[1]
    p = W.num_generators
    sigma = 1.0 / (1.0 - beta)

    lp = LinearProgram(name="rci")
    T = lp.var_block((n, k))
    xbar = lp.var_block(n)
    M = lp.var_block((m, k)) if m else None
    ubar = lp.var_block(m) if m else None
    E = None if simplified else lp.var_block((n, p))

    add_recursion(lp, A, B, T, M, xbar, ubar, numeric_w(W), T, xbar, E=E)
    if E is not None:
        add_scaled_containment(lp, affine(np.column_stack([E, np.full(n, -1)])),
                               W.generators, numbers(np.full(p, beta)), np.zeros(n))
    witness = {"inC0": _add_plain_containment(lp, T, xbar, X, sigma)}
    if m:
        witness["inU0"] = _add_plain_containment(lp, M, ubar, U, sigma)

    lp.set_costs(_abs_objective(lp, [T]), 1.0)

    def read(sol):
        return RciSolution(
            sol.column_values(T),
            sol.column_values(xbar),
            sol.column_values(M) if m else None,
            sol.column_values(ubar) if m else None,
            W,
            beta,
            None if E is None else sol.column_values(E),
            sol.objective,
            witness_values(sol, witness),
        )

    return lp, read


def rci(A, B, W, X, U, k, beta=0.0, simplified=None):
    """Robust control invariant set; None if infeasible at this (k, beta).

    ``simplified`` defaults to True exactly when ``beta == 0``; it drops the
    wiggle generators E (forcing the disturbance columns to be reproduced by
    T itself).  With ``beta > 0`` the full variant is used and the returned
    set is inflated by sigma = 1/(1-beta).
    """
    lp, read = rci_lp(A, B, W, X, U, k, beta, simplified)
    result = solve_and_read(lp, read, "RCI")
    if result is not None:
        certify_solution(result, X, U)
    return result
