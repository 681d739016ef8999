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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .geom import (Zonotope, add_scaled_containment, contains_point, directed_hausdorff,
                   hausdorff_bound, witness_values)
from .lpcore import LinearProgram, LinExpr, lin_matmul, lin_triplets


class CertificationError(lpcore.LpError):
    """An LP-feasible solution failed its independent containment check."""


def _abs_objective(lp, matrices, prefix="absT"):
    """Aux variables bounding |entry| for each entry of each matrix; returns their sum."""
    aux = []
    for idx, mat in enumerate(matrices):
        mat = np.asarray(mat, dtype=object)
        if mat.size == 0:
            continue
        s = lp.var_block(f"{prefix}{idx}", mat.shape, lb=0.0).ravel()
        # entry e gives rows 2e (entry - s[e] <= 0) and 2e + 1 (-entry - s[e] <= 0)
        owner, cols, coefs, consts = lin_triplets(mat.ravel())
        pair = 2 * np.arange(mat.size)
        lp.add_rows(np.concatenate([2 * owner, 2 * owner + 1, pair, pair + 1]),
                    np.concatenate([cols, cols, s, s]),
                    np.concatenate([coefs, -coefs, np.full(2 * mat.size, -1.0)]),
                    np.column_stack([-consts, consts]).ravel(), "<")
        aux.append(s)
    return LinExpr(dict.fromkeys(np.concatenate(aux).tolist() if aux else [], 1.0))


def _add_plain_containment(lp, inner_G, inner_c, outer, prefix):
    return add_scaled_containment(
        lp, inner_G, inner_c, outer.generators,
        [1.0] * outer.num_generators, outer.center, prefix)


def _certify(inner, outer, what, witness=None, tol=1e-7):
    """Check ``inner`` inside ``outer`` up to ``tol``; returns (margin, lp).

    The margin is the witness's Hausdorff bound when that is within
    ``tol``; otherwise the Hausdorff LP decides, and ``lp`` is True.
    Raises CertificationError when the containment fails.
    """
    margin = hausdorff_bound(inner, outer.center, outer.generators,
                             np.ones(outer.num_generators), witness)
    if margin <= tol:
        return margin, False
    margin = directed_hausdorff(outer, inner)
    if margin > tol:
        raise CertificationError(f"{what}: solution violates containment")
    return margin, True


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
    #: containment's row prefix ("inX3", "inU0", ...); certification checks
    #: them first.  Never serialized: a loaded solution certifies by LP.
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
    #: containment witnesses, as for ViableSolution ("inX", "inU", ...)
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
        check(0, solution.omega(), X, "Omega in X", "inX")
        if solution.M is not None:
            check(1, solution.theta(), U, "Theta in U", "inU")
    else:
        for t in range(solution.horizon + 1):
            check(0, solution.omega(t), X[t], f"Omega({t}) in X({t})", f"inX{t}")
        if solution.M is not None:
            for t in range(solution.horizon):
                check(1, solution.theta(t), U[t], f"Theta({t}) in U({t})", f"inU{t}")
    return margins[0], margins[1], fallbacks


def solution_from_json(data):
    return ViableSolution.from_json(data) if data["kind"] == "viable" \
        else RciSolution.from_json(data)


# ---------------------------------------------------------------------------
# finite horizon


def finite_viable(A_seq, B_seq, W_seq, X_seq, U_seq, k, template="growing",
                  x0=None, backend=None, certify=True):
    """Viable sets over a finite horizon; None if the LP is infeasible.

    ``A_seq/B_seq/W_seq/U_seq`` have one entry per step t = 0..h-1 and
    ``X_seq`` has h+1 entries.  ``k`` is the generator budget of Omega(0).
    ``template="growing"`` lets Omega(t) gain the disturbance generators each
    step; ``"fixed"`` keeps exactly k columns throughout (needs k >= p).
    ``x0`` (a Zonotope) optionally pins Omega(0) = x0.
    """
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

    widths = [k]
    for t in range(h):
        widths.append(widths[-1] + p[t] if template == "growing" else k)

    lp = LinearProgram(name="viable", backend=backend)
    T = [lp.var_array(f"T{t}", (n, widths[t])) for t in range(h + 1)]
    xbar = [lp.var_array(f"x{t}", n) for t in range(h + 1)]
    M = [lp.var_array(f"M{t}", (m, widths[t])) for t in range(h)] if m else None
    ubar = [lp.var_array(f"u{t}", m) for t in range(h)] if m else None

    for t in range(h):
        flow = lin_matmul(A_seq[t], T[t])
        if m:
            flow = flow + lin_matmul(B_seq[t], M[t])
        Gw = W_seq[t].generators
        w = widths[t]
        for i in range(n):
            for j in range(w + p[t]):
                lhs = flow[i, j] if j < w else float(Gw[i, j - w])
                if template == "growing":
                    rhs = T[t + 1][i, j]
                else:
                    rhs = 0.0 if j < p[t] else T[t + 1][i, j - p[t]]
                lp.add_eq(lhs - rhs, 0.0, name=f"rec[{t},{i},{j}]")
        drift = lin_matmul(A_seq[t], xbar[t].reshape(-1, 1))[:, 0]
        if m:
            drift = drift + lin_matmul(B_seq[t], ubar[t].reshape(-1, 1))[:, 0]
        for i in range(n):
            lp.add_eq(drift[i] + float(W_seq[t].center[i]) - xbar[t + 1][i], 0.0,
                      name=f"cen[{t},{i}]")

    witness = {f"inX{t}": _add_plain_containment(lp, T[t], xbar[t], X_seq[t], f"inX{t}")
               for t in range(h + 1)}
    if m:
        for t in range(h):
            witness[f"inU{t}"] = _add_plain_containment(lp, M[t], ubar[t], U_seq[t],
                                                        f"inU{t}")

    if x0 is not None:
        p0 = x0.num_generators
        if p0 > k:
            raise ValueError(f"x0 has {p0} generators but k={k}")
        for i in range(n):
            lp.add_eq(xbar[0][i], float(x0.center[i]))
            for j in range(k):
                lp.add_eq(T[0][i, j], float(x0.generators[i, j]) if j < p0 else 0.0)

    lp.minimize(_abs_objective(lp, T))
    sol = lp.solve()
    if sol.status != lpcore.OPTIMAL:
        if sol.status == lpcore.INFEASIBLE:
            return None
        raise lpcore.LpSolverError(f"viable LP ended with status {sol.status}")

    result = ViableSolution(
        template,
        [sol.value(Tt) for Tt in T],
        [sol.value(xt) for xt in xbar],
        [sol.value(Mt) for Mt in M] if m else None,
        [sol.value(ut) for ut in ubar] if m else None,
        list(W_seq),
        sol.objective,
        witness_values(sol, witness),
    )
    if certify:
        certify_solution(result, X_seq, U_seq)
    return result


# ---------------------------------------------------------------------------
# infinite horizon


def rci(A, B, W, X, U, k, beta=0.0, simplified=None, backend=None, certify=True):
    """Robust control invariant set; None if infeasible at this (k, beta).

    ``simplified`` defaults to True exactly when ``beta == 0``; it drops the
    wiggle generators E (forcing the disturbance columns to be reproduced by
    T itself).  With ``beta > 0`` the full variant is used and the returned
    set is inflated by sigma = 1/(1-beta).
    """
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

    lp = LinearProgram(name="rci", backend=backend)
    T = lp.var_array("T", (n, k))
    xbar = lp.var_array("x", n)
    M = lp.var_array("M", (m, k)) if m else None
    ubar = lp.var_array("u", m) if m else None
    E = None if simplified else lp.var_array("E", (n, p))

    flow = lin_matmul(A, T)
    if m:
        flow = flow + lin_matmul(B, M)
    Gw = W.generators
    for i in range(n):
        for j in range(k + p):
            lhs = flow[i, j] if j < k else float(Gw[i, j - k])
            if E is None:
                rhs = 0.0 if j < p else T[i, j - p]
            else:
                rhs = E[i, j] if j < p else T[i, j - p]
            lp.add_eq(lhs - rhs, 0.0, name=f"rec[{i},{j}]")
    drift = lin_matmul(A, xbar.reshape(-1, 1))[:, 0]
    if m:
        drift = drift + lin_matmul(B, ubar.reshape(-1, 1))[:, 0]
    for i in range(n):
        lp.add_eq(drift[i] + float(W.center[i]) - xbar[i], 0.0, name=f"fix[{i}]")

    if E is not None:
        add_scaled_containment(lp, E, np.zeros(n), Gw, [beta] * p,
                               np.zeros(n), "wiggle")
    scaledT = np.empty((n, k), dtype=object)
    for pos in np.ndindex(n, k):
        scaledT[pos] = sigma * T[pos]
    witness = {"inX": _add_plain_containment(lp, scaledT, xbar, X, "inX")}
    if m:
        scaledM = np.empty((m, k), dtype=object)
        for pos in np.ndindex(m, k):
            scaledM[pos] = sigma * M[pos]
        witness["inU"] = _add_plain_containment(lp, scaledM, ubar, U, "inU")

    lp.minimize(_abs_objective(lp, [T]))
    sol = lp.solve()
    if sol.status != lpcore.OPTIMAL:
        if sol.status == lpcore.INFEASIBLE:
            return None
        raise lpcore.LpSolverError(f"RCI LP ended with status {sol.status}")

    result = RciSolution(
        sol.value(T),
        sol.value(xbar),
        sol.value(M) if m else None,
        sol.value(ubar) if m else None,
        W,
        beta,
        None if E is None else sol.value(E),
        sol.objective,
        witness_values(sol, witness),
    )
    if certify:
        certify_solution(result, X, U)
    return result


DEFAULT_BETA_GRID = tuple(round(0.1 * i, 1) for i in range(10))


def rci_beta_grid(A, B, W, X, U, k, betas=DEFAULT_BETA_GRID, backend=None):
    """First feasible RCI over a beta grid (beta=0 tried in simplified form)."""
    for beta in betas:
        sol = rci(A, B, W, X, U, k, beta=beta, simplified=None if beta else True,
                  backend=backend)
        if sol is not None:
            return sol
    return None


def escalate_k(solve_at_k, n, k0=None, cap=None):
    """Run ``solve_at_k(k)`` for k = k0, 2 k0, ... up to ``cap`` (default 8n).

    Returns (solution, k) for the first feasible k, or (None, last_k_tried).
    """
    k = k0 if k0 else max(1, n)
    cap = cap if cap else 8 * max(1, n)
    last = k
    while k <= cap:
        sol = solve_at_k(k)
        if sol is not None:
            return sol, k
        last = k
        k *= 2
    return None, last


# ---------------------------------------------------------------------------
# control extraction


def extract_control(solution, x, t=0):
    """Control for a measured state via a membership witness.

    Any witness zeta of x in Omega(t) yields an admissible input
    u = theta_center + theta_generators @ zeta; correctness does not depend
    on which witness is returned.
    """
    omega = solution.omega(t)
    inside, zeta = contains_point(omega, x)
    if not inside:
        raise ValueError("state is outside the viable set")
    theta = solution.theta(t)
    return theta.center + theta.generators @ zeta
