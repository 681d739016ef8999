"""Closed-loop execution of synthesized controllers, and empirical checks.

The controller of subsystem i reads nothing but its own state: membership
of x_i in the tube yields a witness zeta, and u_i = theta_center +
theta_generators @ zeta.  The coupled update then feeds every neighbor's
state and input back as part of subsystem i's augmented disturbance, which
is exactly what the synthesized tubes were sized against — so a correct
composition keeps every trajectory inside its tube forever (infinite mode)
or across the horizon (finite mode).

``step``, ``simulate`` and ``verify_invariance`` run one closed loop on
stacked states, and chain the witnesses along it: a state keeps its
coordinates from the last step, and only the new tail block of
Omega_i(t+1), the columns that the disturbance generators became, is solved
for.  A diagonal tail is divided out; any other tail takes a least-squares
guess and, where that misses, a min-|zeta|_inf LP on the tail alone.  Every
chained witness is checked (|zeta|_inf <= 1 + 1e-9, reconstruction within
1e-9).  A state whose chained witness fails, and every state of a contracted
RCI tube (beta > 0 or an error term), is re-witnessed by the membership LP
on the whole tube, one warm instance per tube step; so is every start state
of ``step`` and ``simulate``.  A chained witness need not be the min-norm
one, so the per-step margins are lower bounds.  ``verify_invariance`` runs
a batch of sampled trajectories; its disturbances mix uniform interior
draws with all-plus/minus-one vertex patterns (all 2^p of them when
p <= 12, random sign patterns otherwise), because worst cases live at
vertices.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field

import numpy as np

from .geom import Zonotope, contains_point
from .viability import RciSolution, ViableSolution


class OutsideViableSet(Exception):
    """A state left its tube; carries which subsystem and when."""

    def __init__(self, sid, t):
        super().__init__(f"subsystem {sid!r} left its viable set at step {t}")
        self.sid = sid
        self.t = t


def _solution_map(result):
    """Accept a SynthesisResult or a plain {sid: solution} dict."""
    solutions = getattr(result, "solutions", result)
    if not isinstance(solutions, dict) or not solutions:
        raise ValueError("no per-subsystem solutions to run")
    return solutions


def _num_steps(solutions, num_steps, verb):
    """``num_steps`` checked against the shortest horizon; None means that
    horizon, or 100 steps when every tube is invariant."""
    horizons = [sol.horizon for sol in solutions.values()
                if isinstance(sol, ViableSolution)]
    cap = min(horizons) if horizons else None
    if num_steps is None:
        num_steps = cap if cap is not None else 100
    if num_steps < 0:
        raise ValueError(f"num_steps must be nonnegative, got {num_steps}")
    if cap is not None and num_steps > cap:
        raise ValueError(f"horizon is {cap}, cannot {verb} {num_steps} steps")
    return num_steps


# ---------------------------------------------------------------------------
# single-trajectory execution


def step(network, solutions, states, t=0, disturbances=None):
    """One synchronous update of the whole network; returns (next, inputs).

    Each state is witnessed in its tube by the membership LP, and its input
    follows from that witness, so inputs read local state only.
    ``disturbances`` maps sid to a d_i in D_i(t) (defaults to the centers).
    A state outside its tube raises OutsideViableSet; a step at or past a
    finite horizon raises ValueError.
    """
    solutions = _solution_map(solutions)
    _num_steps(solutions, t + 1, "take")
    ids = network.sorted_ids()
    stacked = {sid: np.atleast_2d(np.asarray(states[sid], dtype=float))
               for sid in ids}
    d = {sid: np.asarray(disturbances[sid], dtype=float) if disturbances
         else network.subsystem(sid).D_at(t).center for sid in ids}
    nxt, inputs = _closed_loop(network, solutions, t, stacked,
                               _witness(network, solutions, t, stacked), d)
    return ({sid: nxt[sid][0] for sid in ids},
            {sid: inputs[sid][0] for sid in ids})


@dataclass
class Trajectory:
    """One rollout: per-subsystem state/input/disturbance sequences."""

    states: dict
    inputs: dict
    disturbances: dict
    violation: tuple | None = None   # (sid, t) of the first escape, if any

    @property
    def num_steps(self):
        return next(iter(self.inputs.values())).shape[0] if self.inputs else 0

    def to_csv(self, path):
        """Rows (t, i, x components..., u components...); ragged cells blank."""
        sids = sorted(self.states, key=lambda s: str(s))
        n_max = max(self.states[s].shape[1] for s in sids)
        m_max = max((self.inputs[s].shape[1] for s in sids), default=0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "i"]
                            + [f"x{c}" for c in range(n_max)]
                            + [f"u{c}" for c in range(m_max)])
            for sid in sids:
                X, U = self.states[sid], self.inputs[sid]
                for t in range(X.shape[0]):
                    row = [t, sid] + list(X[t]) + [""] * (n_max - X.shape[1])
                    if t < U.shape[0]:
                        row += list(U[t]) + [""] * (m_max - U.shape[1])
                    else:
                        row += [""] * m_max
                    writer.writerow(row)
        return path


def simulate(network, solutions, num_steps, x0=None, seed=0):
    """Roll the closed loop forward under sampled disturbances.

    Starts from ``x0`` (default: tube centers), witnessed once by the
    membership LP; from there the witnesses chain.  Disturbances are uniform
    zeta-samples from each D_i(t).  If a state escapes its tube the
    trajectory is truncated there and the violation recorded; a start
    outside its tube is the violation (sid, 0).
    """
    solutions = _solution_map(solutions)
    num_steps = _num_steps(solutions, num_steps, "simulate")
    rng = np.random.default_rng(seed)
    ids = network.sorted_ids()
    states = {sid: np.atleast_2d(np.asarray(x0[sid], dtype=float)) if x0 else
              solutions[sid].omega(0).center[None] for sid in ids}
    xs = {sid: [states[sid][0]] for sid in ids}
    us = {sid: [] for sid in ids}
    ds = {sid: [] for sid in ids}
    report = InvarianceReport(1, num_steps)
    alive = np.ones(1, dtype=bool)
    try:
        zeta = _witness(network, solutions, 0, states)
    except OutsideViableSet as exc:
        report.first_violation = (exc.sid, exc.t)
        alive[0] = False
    for t in range(num_steps):
        if not alive[0]:
            break
        draws = {}
        for sid in ids:
            D = network.subsystem(sid).D_at(t)
            zd = rng.uniform(-1.0, 1.0, D.num_generators)
            draws[sid] = D.center + D.generators @ zd
        states, inputs = _closed_loop(network, solutions, t, states, zeta,
                                      draws)
        _rewitness(network, solutions, t, states, zeta, alive, report)
        for sid in ids:
            xs[sid].append(states[sid][0])
            us[sid].append(inputs[sid][0])
            ds[sid].append(draws[sid])

    def rows(items, width):
        return np.array(items) if items else np.zeros((0, width))

    return Trajectory(
        states={sid: np.array(xs[sid]) for sid in ids},
        inputs={sid: rows(us[sid], network.subsystem(sid).m) for sid in ids},
        disturbances={sid: rows(ds[sid], network.subsystem(sid).n)
                      for sid in ids},
        violation=report.first_violation,
    )


# ---------------------------------------------------------------------------
# batched Monte-Carlo invariance verification


def _mixed_zeta(rng, num, p):
    """num draws in [-1,1]^p: vertex sign patterns first, then uniform."""
    if p == 0:
        return np.zeros((num, 0))
    if p <= 12:
        verts = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
    else:
        verts = rng.choice((-1.0, 1.0), size=(max(num // 2, 1), p))
    nv = min(len(verts), max(num // 2, 1 if num else 0))
    out = np.empty((num, p))
    out[:nv] = verts[:nv]
    out[nv:] = rng.uniform(-1.0, 1.0, (num - nv, p))
    return out


def _diag_radii(G):
    """Radii if the generator block G is a (possibly zero-padded) diagonal."""
    if G.shape[0] != G.shape[1]:
        return None
    off = G - np.diag(np.diag(G))
    if np.any(off != 0.0):
        return None
    return np.diag(G)


def _chain_exact(sol):
    """Whether witnesses chain through the tube recursion for this solution.

    A growing tube appends the disturbance generators to Omega(t+1), and an
    uncontracted RCI tube shifts its oldest columns out for them, so a
    state's coordinates carry over and only the tail block is new.  The
    contracted fixed-point form (beta > 0 or an error term) rescales the
    tube, so the concatenation identity no longer holds and membership must
    be re-witnessed on the whole tube every step.
    """
    if isinstance(sol, RciSolution):
        return sol.beta == 0.0 and sol.E is None
    return True


def _tail_guess(tail, resid):
    """Coordinates zw with resid ~ zw @ tail.T, row by row, and the tail's
    radii if it is diagonal: then zw is the division, and no other
    coordinates do better; otherwise (radii None) zw is the least-squares
    guess."""
    radii = _diag_radii(tail)
    if radii is None:
        return resid @ np.linalg.pinv(tail).T, None
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(radii > 0.0, resid / radii, 0.0), radii


def _row_norms(a):
    """|row|_inf of every row of ``a`` (0 without columns).  Reduced over a
    column-major copy: with few columns that is several times faster than
    reducing along C-ordered rows."""
    return np.abs(np.asfortranarray(a)).max(axis=1, initial=0.0)


def _witness_ok(tail, resid, zw, radii=None):
    """Rows where zw is a witness: |zw|_inf <= 1 + 1e-9 and zw @ tail.T
    reconstructs resid within 1e-9 (NaN rows fail).  A diagonal tail passes
    its ``radii``, and the product is taken entrywise."""
    recon = zw @ tail.T if radii is None else zw * radii
    return (_row_norms(zw) <= 1.0 + 1e-9) & (_row_norms(resid - recon) <= 1e-9)


@dataclass
class InvarianceReport:
    num_samples: int
    num_steps: int
    checked: int = 0              # membership decisions made
    witness_losses: int = 0       # chained witness failed its check but the
                                  # tube LP found the state inside
    lp_rewitness: int = 0         # membership LPs solved (tail and tube)
    violations: int = 0           # states confirmed outside their tube
    first_violation: tuple | None = None
    margins: dict = field(default_factory=dict)  # sid -> per-step min margin
    vacuous: bool = False

    @property
    def ok(self):
        return not self.vacuous and self.violations == 0


def _witness(network, solutions, t, states):
    """Membership-LP witnesses of stacked states in their tubes Omega_i(t);
    the first subsystem with a state outside raises OutsideViableSet."""
    zeta = {}
    for sid in network.sorted_ids():
        inside, zeta[sid] = contains_point(solutions[sid].omega(t), states[sid])
        if not inside.all():
            raise OutsideViableSet(sid, t)
    return zeta


def _closed_loop(network, solutions, t, states, zeta, d):
    """One synchronous update of stacked (S, n_i) states with witnesses
    ``zeta`` and disturbances ``d``; returns (next, inputs)."""
    ids = network.sorted_ids()
    inputs = {sid: np.zeros((len(zeta[sid]), 0)) for sid in ids}
    for sid in ids:
        if network.subsystem(sid).m:
            th = solutions[sid].theta(t)
            inputs[sid] = th.center + zeta[sid] @ th.generators.T
    nxt = {}
    for sid in ids:
        sub = network.subsystem(sid)
        new = states[sid] @ sub.A_at(t).T
        if sub.m:
            new = new + inputs[sid] @ sub.B_at(t).T
        w = np.zeros_like(new)
        for j, coupling in sub.couplings.items():
            w = w + states[j] @ coupling.A_at(t).T
            if coupling.B is not None:
                w = w + inputs[j] @ coupling.B_at(t).T
        nxt[sid] = new + (w + d[sid])
    return nxt, inputs


def _rewitness(network, solutions, t, states, zeta, alive, report):
    """Advance the witnesses ``zeta`` to the ``states`` at t + 1, in place.
    Rows the tube LP finds outside leave ``alive``; ``report`` counts them,
    the LPs and the witness losses."""
    def lp_witness(Z, points):
        if Z.num_generators:
            report.lp_rewitness += len(points)
        return contains_point(Z, points)

    for sid in network.sorted_ids():
        sol = solutions[sid]
        rci = isinstance(sol, RciSolution)
        # The tail coordinates are recovered from the actual next state (not
        # from the disturbance applied), so the identity x = c + T zeta holds
        # every step up to the 1e-9 check; otherwise solver-tolerance
        # residuals in the template recursion compound through the witness
        # dynamics and eventually decouple the witness from the state it is
        # supposed to describe.
        om_next = sol.omega(t + 1)
        G = om_next.generators
        k_next = G.shape[1]
        p = (sol.W if rci else sol.W[t]).num_generators
        base = zeta[sid][:, p:] if rci else zeta[sid]
        chained = _chain_exact(sol) and base.shape[1] == k_next - p
        new_zeta = np.zeros((len(alive), k_next))
        if chained:
            tail = G[:, k_next - p:]
            resid = states[sid] - (om_next.center
                                   + base @ G[:, :k_next - p].T)
            zw, radii = _tail_guess(tail, resid)
            miss = alive & ~_witness_ok(tail, resid, zw, radii)
            if radii is None and miss.any():
                rows = np.flatnonzero(miss)
                inside, wit = lp_witness(
                    Zonotope(np.zeros(resid.shape[1]), tail), resid[rows])
                zw[rows[inside]] = wit[inside]
                miss[rows] = ~_witness_ok(tail, resid[rows], zw[rows])
            new_zeta[:, :k_next - p] = base
            new_zeta[:, k_next - p:] = zw
            redo = np.flatnonzero(miss)
        else:
            redo = np.flatnonzero(alive)
        if redo.size:
            inside, wit = lp_witness(om_next, states[sid][redo])
            new_zeta[redo[inside]] = wit[inside]
            if chained:
                report.witness_losses += int(inside.sum())
            out = redo[~inside]
            report.violations += out.size
            alive[out] = False
            if out.size and report.first_violation is None:
                report.first_violation = (sid, t + 1)
        zeta[sid] = new_zeta


def verify_invariance(network, result, num_samples=10_000, num_steps=None,
                      seed=0):
    """Sample closed-loop trajectories and count tube escapes.

    Initial states are zeta-sampled from each Omega_i(0) (vertex patterns
    included); disturbances likewise from D_i(t), with the vertex-role
    samples holding a constant extreme pattern across all steps.  Returns an
    InvarianceReport; a sound synthesis gives violations == 0.
    """
    solutions = _solution_map(result)
    ids = network.sorted_ids()
    missing = [sid for sid in ids if sid not in solutions]
    if missing:
        raise ValueError(f"no solutions for subsystem(s) {missing}")
    num_steps = _num_steps(solutions, num_steps, "verify")
    if num_samples < 0:
        raise ValueError(f"num_samples must be nonnegative, got {num_samples}")
    if num_samples == 0:
        return InvarianceReport(0, num_steps, vacuous=True)

    rng = np.random.default_rng(seed)
    S = num_samples
    zeta = {}
    states = {}
    margins = {}
    for sid in ids:
        om = solutions[sid].omega(0)
        zeta[sid] = _mixed_zeta(rng, S, om.num_generators)
        states[sid] = om.center + zeta[sid] @ om.generators.T
        margins[sid] = np.full(num_steps + 1, np.inf)

    # vertex-role samples replay one extreme disturbance pattern forever
    d_pattern = {}
    n_vertex = {}
    for sid in ids:
        p = network.subsystem(sid).D_at(0).num_generators
        d_pattern[sid] = _mixed_zeta(rng, S, p)
        full = 2 ** p if p <= 12 else S
        n_vertex[sid] = min(full, max(S // 2, 1))

    report = InvarianceReport(S, num_steps, margins=margins)
    alive = np.ones(S, dtype=bool)
    report.checked += len(ids) * S
    for sid in ids:
        margins[sid][0] = float((1.0 - _row_norms(zeta[sid]))[alive].min())

    for t in range(num_steps):
        if not alive.any():
            break
        d = {}
        for sid in ids:
            D = network.subsystem(sid).D_at(t)
            nv = n_vertex[sid]
            zd = np.empty((S, D.num_generators))
            zd[:nv] = d_pattern[sid][:nv]
            zd[nv:] = rng.uniform(-1.0, 1.0, (S - nv, D.num_generators))
            d[sid] = D.center + zd @ D.generators.T
        states, _ = _closed_loop(network, solutions, t, states, zeta, d)
        _rewitness(network, solutions, t, states, zeta, alive, report)
        report.checked += len(ids) * int(alive.sum())
        for sid in ids:
            if alive.any():
                margins[sid][t + 1] = float(
                    (1.0 - _row_norms(zeta[sid]))[alive].min())
    return report
