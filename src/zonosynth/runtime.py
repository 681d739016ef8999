"""Closed-loop execution of synthesized controllers, and empirical checks.

The controller of subsystem i reads nothing but its own state: membership
of x_i in the tube yields a witness zeta, and u_i = theta_center +
theta_generators @ zeta.  The coupled update then feeds every neighbor's
state and input back as part of subsystem i's augmented disturbance, which
is exactly what the synthesized tubes were sized against — so a correct
composition keeps every trajectory inside its tube forever (infinite mode)
or across the horizon (finite mode).

``step``, ``simulate`` and ``verify_invariance`` run one closed loop on the
whole network at once, with the sample axis last.  The states are one
(n_total, S) array in ``sysmodel.stacked_slices`` order.  The update x(t+1)
= A(t) x + B(t) u + d runs in a reverse Cuthill-McKee order of whole
subsystems over the coupling graph, computed once per run, which keeps the
couplings near the diagonal.  In that order the rows are cut into tiles of
whole subsystems of at most 32 rows, and each tile keeps the span of A(t)
and of B(t) between its first and last nonzero column, built once per
distinct step.  A step gathers the states into that order, makes one
product per span and scatters the result back, so it costs about n_total *
bandwidth * S instead of n_total**2 * S.  A network that fits one tile
keeps its own order and takes the plain products A @ X + B @ U.  Every
sample-sized array a step needs is allocated once per run: the states
alternate between two buffers, and the disturbance draws, the product and
the witness chain reuse the same scratch.  The subsystems whose tubes share
one shape over the run (n, m, k(t), p(t), the witness shift, whether the
tail is diagonal) form a group, and the group's witnesses are one (g, k,
S) block; a step makes a fixed number of numpy calls per group.  A
group's step data (Omega(t+1), Theta(t), the head/tail split, the tail's
radii) is stacked straight from the solutions' xbar, T, ubar, M and sigma
when the run first reaches the step, once per distinct index
``sysmodel._at`` reads from the tubes' lists: once per step, and once per
run for an invariant tube, whose lists have one entry.  One check per
stack raises ValueError on a non-finite entry, and a zonotope is built
only for an LP.  A per-step tube's data is dropped once its step is
taken.  The tails that are not diagonal are stacked over the whole run at
set-up, with one pseudo-inverse per shape.

The witnesses chain along the loop: a state keeps its coordinates from the
last step, and only the new tail block of Omega_i(t+1), the columns that
the disturbance generators became, is solved for.  Every tube chains: a
contracted invariant one (beta > 0) has E = G_w Lambda, each row sum of
|Lambda| at most beta, so its tail coordinates Lambda zeta_head + zeta_d /
sigma have |.|_inf <= beta + (1 - beta) = 1.  A diagonal tail is divided
out; any other tail takes a least-squares guess and, where that misses, its
min-|zeta|_inf solution by vertex enumeration: for an n x p tail the
minimum sits where p - n + 1 coordinates are at +-t (Cadzow 1973), and the
C(p, n - 1) * 2**(p - n) linear systems of those vertices are inverted in
batches of up to 1024: at a group's first miss at a step, for that step's
remaining members and the members of its later steps with tails of that
shape, each step's part dropped with the step.  Stacked products then
solve them for every missed sample.  A tail with no regular system among
at most 4096 takes a min-|zeta|_inf LP on the tail alone.  Every chained
witness is checked (|zeta|_inf <= 1 + 1e-9, reconstruction within 1e-9).
A state whose chained witness fails is re-witnessed by the membership LP
on the whole tube, one warm instance per tube step, subsystem by
subsystem in sorted order; so is every start state of ``step`` and
``simulate``.  A chained witness need not be the min-norm one, so the
per-step margins are lower bounds.  ``verify_invariance`` runs a batch of
sampled trajectories; its start states and disturbances mix uniform
interior draws with all-plus/minus-one vertex patterns (all 2^p of them
when p <= 12, random sign patterns otherwise), because worst cases live
at vertices.  Consecutive subsystems of one shape share one draw and one
product, which draw the same numbers as one draw each.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import sysmodel
from .geom import Zonotope, contains_point


class OutsideViableSet(Exception):
    """A state left its tube; carries which subsystem and when."""

    def __init__(self, sid, t):
        super().__init__(f"subsystem {sid!r} left its viable set at step {t}")
        self.sid = sid
        self.t = t


def _solution_map(result, network):
    """Accept a SynthesisResult or a plain {sid: solution} dict; every
    subsystem of ``network`` needs a solution."""
    solutions = getattr(result, "solutions", result)
    if not isinstance(solutions, dict) or not solutions:
        raise ValueError("no per-subsystem solutions to run")
    missing = [sid for sid in network.sorted_ids() if sid not in solutions]
    if missing:
        raise ValueError(f"no solutions for subsystem(s) {missing}")
    return solutions


def _integer(value, name):
    """``value``, which must be an integer; a float or a bool (an int to
    Python, but not a count) raises TypeError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _num_steps(solutions, num_steps, verb):
    """``num_steps`` checked against the shortest horizon; None means that
    horizon, or 100 steps when every tube is invariant."""
    horizons = [sol.horizon for sol in solutions.values()
                if sol.horizon is not None]
    cap = min(horizons) if horizons else None
    if num_steps is None:
        num_steps = cap if cap is not None else 100
    if _integer(num_steps, "num_steps") < 0:
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
    A state outside its tube raises OutsideViableSet; a negative ``t`` or a
    step at or past a finite horizon raises ValueError, and so does a state
    or disturbance that is missing or has the wrong length.  A ``t`` that is
    not an integer (a float or a bool) raises TypeError.
    """
    if _integer(t, "t") < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    solutions = _solution_map(solutions, network)
    _num_steps(solutions, t + 1, "take")
    loop = _Loop(network, solutions, range(t, t + 1), 1)
    X = loop.column(states, "states")
    d = loop.column(disturbances, "disturbances",
                    lambda sid: network.subsystem(sid).D_at(t).center)
    nxt = loop.advance(t, X, loop.witness(t, X), d)
    U = loop.inputs()
    return ({sid: nxt[sl, 0].copy() for sid, sl in loop.state_slices.items()},
            {sid: U[sl, 0].copy() for sid, sl in loop.input_slices.items()})


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


def simulate(network, solutions, num_steps, x0=None, seed=0):
    """Roll the closed loop forward under sampled disturbances.

    Starts from ``x0`` (default: tube centers), witnessed once by the
    membership LP; from there the witnesses chain.  Disturbances are uniform
    zeta-samples from each D_i(t).  If a state escapes its tube the
    trajectory is truncated there and the violation recorded; a start
    outside its tube is the violation (sid, 0).  An ``x0`` that misses a
    subsystem or has the wrong length raises ValueError.
    """
    solutions = _solution_map(solutions, network)
    num_steps = _num_steps(solutions, num_steps, "simulate")
    rng = np.random.default_rng(seed)
    loop = _Loop(network, solutions, range(num_steps), 1)
    X = loop.column(x0, "x0", lambda sid: sysmodel._at(solutions[sid].xbar, 0))
    xs, us, ds = [X[:, 0].copy()], [], []
    report = InvarianceReport(1, num_steps)
    alive = np.ones(1, dtype=bool)
    try:
        zetas = loop.witness(0, X)
    except OutsideViableSet as exc:
        report.first_violation = (exc.sid, exc.t)
        alive[0] = False
    for t in range(num_steps):
        if not alive[0]:
            break
        d = loop.disturbance(rng, t, 1)
        ds.append(d[:, 0].copy())
        X = loop.advance(t, X, zetas, d)
        us.append(loop.inputs()[:, 0])
        loop.rewitness(t, X, zetas, alive, report)
        xs.append(X[:, 0].copy())
    xs = np.array(xs)
    us = np.array(us).reshape(len(us), loop.m_total)
    ds = np.array(ds).reshape(len(ds), loop.n_total)
    return Trajectory(
        states={sid: xs[:, sl] for sid, sl in loop.state_slices.items()},
        inputs={sid: us[:, sl] for sid, sl in loop.input_slices.items()},
        disturbances={sid: ds[:, sl] for sid, sl in loop.state_slices.items()},
        violation=report.first_violation,
    )


# ---------------------------------------------------------------------------
# the network-stacked closed loop


def _uniform(rng, out):
    """Fill ``out`` (C-contiguous) with rng.uniform(-1, 1) draws: 2 u - 1
    of rng.random's u is the same number, bit for bit, in the same order."""
    rng.random(out=out)
    out *= 2.0
    out -= 1.0
    return out


def _draw(rng, Z, work):
    """Fill the (r, p, c) block Z with the ``_uniform`` draws of one (r, c,
    p) array, transposed: the same numbers in the same order, drawn into
    the scratch ``work`` (``_scratch``) as many at a time as fit."""
    r, p, c = Z.shape
    rows = max(1, work.size // max(p, 1))      # samples per draw
    per = max(1, rows // c) if c else r         # members per draw
    for j in range(0, r, per):
        for a in range(0, c, rows):
            draw = _uniform(rng, _scratch(work, (len(Z[j:j + per]),
                                                 min(rows, c - a), p)))
            Z[j:j + per, :, a:a + draw.shape[1]] = draw.transpose(0, 2, 1)


def _vertex_rows(rng, num, p):
    """The vertex-role rows of num draws in [-1,1]^p, p > 0: the first of
    all 2^p sign patterns when p <= 12, random patterns otherwise; half of
    num of them, at most, and at least one."""
    if p <= 12:
        verts = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
    else:
        verts = rng.choice((-1.0, 1.0), size=(max(num // 2, 1), p))
    return verts[:min(len(verts), max(num // 2, 1 if num else 0))]


def _mixed_zeta(rng, num, p, out=None):
    """num draws in [-1,1]^p: vertex sign patterns first, then uniform; into
    ``out`` (num, p) when it is given."""
    if out is None:
        out = np.empty((num, p))
    if p == 0:
        return out
    verts = _vertex_rows(rng, num, p)
    out[:len(verts)] = verts
    _uniform(rng, out[len(verts):])
    return out


def _norms(a, buf):
    """|.|_inf over axis -2 of samples-last witnesses or residuals: one
    value per sample (0 without coordinates).  A short coordinate axis is
    folded one coordinate at a time, where that beats numpy's reductions
    over it; elsewhere it is the larger of the largest entry and the
    negated smallest.  Both keep their terms in the first entries of the
    scratch ``buf`` (``_scratch``), so that no |a| is made."""
    shape = a.shape[:-2] + a.shape[-1:]
    top, other = _scratch(buf, (2,) + shape)
    k = a.shape[-2]
    if not k:
        top.fill(0.0)
    elif k <= 2 or (k <= 4 and top.size >= 1 << 14):
        np.abs(a[..., 0, :], out=top)
        for j in range(1, k):
            np.maximum(top, np.abs(a[..., j, :], out=other), out=top)
    else:
        a.max(axis=-2, out=top)
        a.min(axis=-2, out=other)
        np.negative(other, out=other)
        np.maximum(top, other, out=top)
    return top


def _tail_ok(tail, radii, resid, zw, buf, out=None):
    """Samples where zw is a witness of resid on the tail: |zw|_inf <= 1 +
    1e-9 and tail @ zw reconstructs resid within 1e-9 (NaN fails).  A
    diagonal tail passes its ``radii``, and the product is entrywise.

    The norms and the worst misses go into the scratch ``buf``
    (``_scratch``), and the reconstruction into ``out`` (resid's shape) when
    it is given.  The two tests are one, on the larger of |zw|_inf - (1 +
    1e-9) and the worst miss - 1e-9, since a rounded a - b is at most 0
    exactly when a <= b.  The boolean verdicts are returned in the spent
    worst misses' memory, valid until ``buf`` is used again."""
    if radii is None:
        miss = np.matmul(tail, zw, out=out)
    else:
        miss = np.multiply(zw, radii, out=out)
    norms = _norms(zw, buf)
    np.subtract(resid, miss, out=miss)
    np.abs(miss, out=miss)
    worst = miss.max(axis=-2, initial=0.0,
                     out=_scratch(buf.reshape(-1)[norms.size:], norms.shape))
    norms -= 1.0 + 1e-9
    worst -= 1e-9
    np.maximum(norms, worst, out=norms)
    return np.less_equal(norms, 0.0, out=worst.reshape(-1).view(bool)[
        :norms.size].reshape(norms.shape))


def _diagonal(G):
    """Whether the generator block G is a square diagonal one."""
    return G.shape[0] == G.shape[1] and np.count_nonzero(G) == np.count_nonzero(
        G.diagonal())


_VERTICES = 4096    # vertex systems of a tail, at most; a tail with more
                    # takes the tail LP
_BATCH = 1024       # vertex systems made in one batch, at most (a tail with
                    # more is a batch of its own): a batch is made with about
                    # three times the memory of its inverses, which its steps
                    # hold until they are taken


@functools.lru_cache(maxsize=None)
def _vertex_index(n, p):
    """The vertex systems of an n x p tail G, p >= n, as read-only arrays
    (F, R, s, pick, sign) of shapes (K, n - 1), (K, p - n + 1), (K, p - n +
    1), (K, p) and (K, p), K = C(p, n - 1) * 2**(p - n).  System k holds
    the coordinates R[k] at t * s[k] and solves [G_F, G_R s][z_F; t] = r
    for the free ones F[k] and t; s[k] starts with +1, because the sign of
    t gives -s[k] (Cadzow 1973).  z = [z_F; t][pick[k]] * sign[k], whose
    factors are 1 on F[k] and s[k] on R[k]."""
    signs = [(1.0,) + s for s in itertools.product((1.0, -1.0), repeat=p - n)]
    F, R, s = [], [], []
    for free in itertools.combinations(range(p), n - 1):
        held = [j for j in range(p) if j not in free]
        F += [free] * len(signs)
        R += [held] * len(signs)
        s += signs
    F, R = (np.array(a, dtype=np.intp).reshape(len(s), -1) for a in (F, R))
    s = np.array(s)
    pick, sign = np.empty(F.shape[:1] + (p,), dtype=np.intp), np.ones((len(s), p))
    system = np.arange(len(s))[:, None]
    pick[system, F] = np.arange(n - 1)
    pick[system, R] = n - 1
    sign[system, R] = s
    for a in (F, R, s, pick, sign):
        a.flags.writeable = False
    return F, R, s, pick, sign


def _vertex_systems(tails):
    """Per tail of the (b, n, p) stack ``tails``: the inverses of its vertex
    systems [G_F, G_R s] that are not near singular, stacked (K', n, n),
    and their indices in ``_vertex_index`` (K',); None for a tail of rank
    below n, which has no regular one.  Every tail gets None when they
    have fewer columns than rows or more than ``_VERTICES`` systems."""
    b, n, p = tails.shape
    if not 0 < n <= p or math.comb(p, n - 1) << (p - n) > _VERTICES:
        return [None] * b
    F, R, s = _vertex_index(n, p)[:3]
    M = np.empty((b, len(s), n, n))
    M[..., :-1] = tails[:, :, F].transpose(0, 2, 1, 3)
    last = M[..., -1].transpose(0, 2, 1)                # (b, n, K)
    if n == 1:
        # einsum sums a one-row tail's terms in another order than those of
        # a stack; one (b K, r) product keeps the one-tail sums
        last[:, 0] = np.einsum("kr,kr->k", tails[:, 0, R].reshape(
            -1, s.shape[1]), np.tile(s, (b, 1))).reshape(b, -1)
    else:
        # in order over the held coordinates, as einsum sums them for one
        # tail, one gathered column at a time
        np.multiply(tails[:, :, R[:, 0]], s[:, 0], out=last)
        for r in range(1, s.shape[1]):
            last += tails[:, :, R[:, r]] * s[:, r]
    # |det M| is at most the product of its column norms (Hadamard), with
    # equality for orthogonal columns; the norms and their product summed
    # and multiplied row by row, in the order np.linalg.norm and np.prod
    # take them
    sq = M[..., 0, :] * M[..., 0, :]
    for row in range(1, n):
        sq += M[..., row, :] * M[..., row, :]
    bound = np.sqrt(sq, out=sq)[..., 0].copy()
    for col in range(1, n):
        bound *= sq[..., col]
    regular = np.abs(np.linalg.det(M)) > 1e-12 * bound
    inverses = np.linalg.inv(M if regular.all() else M[regular])
    del M, last
    inverses = inverses.reshape(-1, n, n)
    stops = np.cumsum(regular.sum(axis=1))
    # a copy per tail, so that each goes with its tail's step
    return [(inverses[stop - len(keep):stop].copy(), keep) if len(keep) else None
            for keep, stop in zip((r.nonzero()[0] for r in regular), stops)]


def _vertex_witness(systems, tail, resid, buf):
    """A min-|z|_inf solution z of tail @ z = resid per column of the (n,
    c) residuals, as a (p, c) array; ``systems`` is the tail's entry of
    ``_vertex_systems``.

    The minimum sits at a vertex where p - n + 1 coordinates are at +-t
    (Cadzow 1973).  Each regular system gives [z_F; t] = M^-1 r; it is a
    vertex when |z_F| <= |t|, up to a 1e-12 relative allowance that keeps
    the degenerate vertices, where a free coordinate sits at +-t too, from
    being lost to rounding.  The least |t| per sample wins, and z_R = t s.
    The candidates of as many samples as fit the scratch ``buf``
    (``_scratch``), one at least, are one product; the products of a call
    hold the candidates of ``_VERTICES`` systems or fill ``buf``.
    """
    inv, keep = systems
    pick, sign = _vertex_index(*tail.shape)[3:]
    K, n = inv.shape[:2]
    c = resid.shape[1]
    z = np.empty((tail.shape[1], c))
    w = max(1, buf.size // (K * n))                     # samples per product
    step = w * max(1, _VERTICES * n // (K * n * w))     # samples per call
    for a in range(0, c, step):
        b = min(a + step, c)
        for lo, hi in ((a, b - (b - a) % w), (b - (b - a) % w, b)):
            if lo == hi:
                continue
            width = min(w, hi - lo)
            r = resid[:, lo:hi]
            chunks = r.reshape(n, -1, width).transpose(1, 0, 2)[:, None]
            cand = np.matmul(inv, chunks, out=_scratch(
                buf, (len(chunks), K, n, width)))
            np.abs(cand, out=cand)
            t = cand[:, :, -1]
            allowed = t * (1.0 + 1e-12)
            for j in range(n - 1):
                t[cand[:, :, j] > allowed] = np.inf
            best = t.argmin(axis=1).reshape(-1)
            sol = np.matmul(inv[best], r.T[:, :, None]).reshape(-1)
            k = keep[best]
            np.multiply(sol[pick[k].T + np.arange(0, sol.size, n)], sign[k].T,
                        out=z[:, lo:hi])
    return z


def _scratch(buf, shape):
    """The first entries of the contiguous buffer ``buf`` as an array of
    ``shape``, or a new array where ``buf`` is too small."""
    size = math.prod(shape)
    if size > buf.size:
        return np.empty(shape)
    return buf.reshape(-1)[:size].reshape(shape)


def _tube_steps(sol, steps):
    """The distinct ``_at`` indices of ``sol``'s lists over the run
    ``steps``: 0 alone for a one-entry tube, which is the same at every
    step."""
    return [0] if len(sol.T) == 1 and steps else list(steps)


def _shape(sol, sub, steps):
    """What the members of a group share: n, m, the witness width at the
    first step, and per tube step i (a ``_tube_steps`` index) i, p(i), the
    witness shift and whether the tail of T(i+1), so of Omega(i+1), is
    diagonal.  The shift is the number of leading witness columns a step
    drops: p for a one-entry tube, whose oldest columns make room for the
    disturbance ones, and 0 otherwise.  Widths that do not follow the
    disturbance generators raise ValueError."""
    per_step = []
    for i in _tube_steps(sol, steps):
        p = sysmodel._at(sol.W, i).num_generators
        shift = p if len(sol.T) == 1 else 0
        width, T_next = sysmodel._at(sol.T, i).shape[1], sysmodel._at(sol.T, i + 1)
        keep = T_next.shape[1] - p
        if not 0 <= keep == width - shift:
            raise ValueError(f"subsystem {sub.sid!r}: tube widths {width} -> "
                             f"{T_next.shape[1]} at step {i} do not follow "
                             f"its {p} disturbance generators")
        per_step.append((i, p, shift, _diagonal(T_next[:, keep:])))
    return sub.n, sub.m, sysmodel._at(sol.T, steps.start).shape[1], tuple(per_step)


def _finite(data):
    """``data``, whose non-finite entries raise ValueError as in
    ``geom.Zonotope``."""
    if not np.isfinite(data).all():
        raise ValueError("non-finite entries in zonotope data")
    return data


def _zonotopes(pairs, sigma):
    """The (centers, generators) pairs of per-member lists stacked into (g,
    n) centers and (g, n, k) generators scaled by the members' ``sigma``
    (None for all ones), all in one ``_finite`` buffer."""
    parts = [part for pair in pairs for part in pair]
    shapes = [np.shape(part[0]) for part in parts]
    sizes = [len(part) * math.prod(shape) for part, shape in zip(parts, shapes)]
    data = np.empty(sum(sizes))
    views, at = [], 0
    for part, shape, size in zip(parts, shapes, sizes):
        view = np.concatenate(part, out=data[at:at + size].reshape(
            (-1,) + shape[1:]))
        views.append(view.reshape((len(part),) + shape))
        at += size
    _finite(data)
    if sigma is not None:
        for G in views[1::2]:
            G *= sigma[:, None, None]
    return list(zip(views[::2], views[1::2]))


class _TubeStep:
    """One step t -> t + 1 of a group's tubes, stacked over the group:
    Theta(t) for the inputs, and Omega(t+1) with its head/tail split and the
    tail's radii (a diagonal tail) or pseudo-inverse for the witnesses.  A
    member's Omega(t+1) or tail is a zonotope only for an LP."""

    def __init__(self, omega, theta, p, shift, pinv):
        center, gens = omega                # Omega(t+1): (g, n), (g, n, k)
        self.p = p                          # disturbance generators
        self.shift = shift                  # leading witness columns dropped
        self.theta_c = self.theta_G = None
        if theta is not None:
            self.theta_c = theta[0][:, :, None]
            self.theta_G = theta[1]
        self.width = gens.shape[2]
        self.gens = gens
        self.center = center[:, :, None]
        self.head = gens[:, :, :self.width - p]
        self.tail = gens[:, :, self.width - p:]
        self.pinv = pinv                    # None for a diagonal tail
        self.radii = None
        if pinv is None:
            self.radii = np.diagonal(self.tail, axis1=1, axis2=2)[:, :, None]

    def solve_tail(self, resid, out):
        """Tail coordinates of (g, n, S) residuals into ``out``: divided out
        by a diagonal tail (0 where a radius is 0), the least-squares guess
        otherwise."""
        if self.radii is None:
            np.matmul(self.pinv, resid, out=out)
            return
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(resid, self.radii, out=out)
        np.copyto(out, 0.0, where=self.radii == 0.0)

    def omega(self, i):
        """Member i's Omega(t+1), for the tube LP."""
        return Zonotope(self.center[i, :, 0], self.gens[i])

    def tail_set(self, i):
        """Member i's tail as a zonotope around 0, for the tail LP."""
        return Zonotope(np.zeros(self.tail.shape[1]), self.tail[i])


class _Group:
    """Subsystems whose tubes have one shape over the run; their witnesses
    are one (g, k, S) block, members in sorted-id order.

    ``per_step`` is their ``_shape``'s.  Omega at the run's first step is
    stacked at once, and a tube step's Omega(t+1) and Theta(t) when the run
    first reaches it (``_zonotopes``): once per step, and once per run for
    an invariant tube, whose lists have one entry.  A per-step tube's data
    goes once its step is taken.  The tails that are not diagonal are
    stacked for the whole run, with one pseudo-inverse per shape.
    """

    def __init__(self, pos, rows, urows, sols, per_step, start):
        self.pos = pos          # (g,) positions in sorted-id order
        self.rows = rows        # (g, n) rows of the stacked states
        self.urows = urows      # (g, m) rows of the stacked inputs
        self.inputs = None      # (g, m) rows of the band-ordered inputs
        self.scratch = None     # the group's rows of the loop's scratch
        self._sols = sols
        self._sigma = np.array([sol.sigma for sol in sols])
        self._scale = self._sigma if np.any(self._sigma != 1.0) else None
        self._per_step = {t: rest for t, *rest in per_step}
        self._steps = {}        # _TubeStep per index of the tubes' lists
        self._vertices = {}     # that index -> member -> ``_vertex_systems``
        self.start = self._stacked(("xbar", "T", start))[0]
        by_p, self._pinv = {}, {}
        for t, (p, _, diagonal) in self._per_step.items():
            if not diagonal:
                by_p.setdefault(p, []).append(t)
        for ts in by_p.values():
            tails = _finite(self._tails([(t, j) for t in ts
                                         for j in range(len(sols))]))
            self._pinv.update(zip(ts, np.linalg.pinv(
                tails.reshape((len(ts), len(sols)) + tails.shape[1:]))))

    def _stacked(self, *parts):
        """``_zonotopes`` of the members' (center, generator) lists of
        ``parts``, named by attribute, at their step."""
        at = sysmodel._at
        return _zonotopes([([at(getattr(sol, c), t) for sol in self._sols],
                            [at(getattr(sol, G), t) for sol in self._sols])
                           for c, G, t in parts], self._scale)

    def _tails(self, pairs):
        """The tails of Omega(t+1) of the members j of ``pairs`` (t, j),
        stacked (len, n, p)."""
        tails = []
        for t, j in pairs:
            T = sysmodel._at(self._sols[j].T, t + 1)
            tails.append(T[:, T.shape[1] - self._per_step[t][0]:])
        tails = np.stack(tails)
        if self._scale is not None:
            tails *= self._scale[[j for _, j in pairs], None, None]
        return tails

    def at(self, t):
        """Step t's ``_TubeStep``, stacked when first asked for."""
        t = t if t in self._per_step else 0
        if t not in self._steps:
            p, shift, _ = self._per_step[t]
            inputs = [("ubar", "M", t)] if self.urows.shape[1] else []
            omega, theta, *_ = self._stacked(("xbar", "T", t + 1), *inputs) + [None]
            self._steps[t] = _TubeStep(omega, theta, p, shift,
                                       self._pinv.get(t))
        return self._steps[t]

    def spend(self, t):
        """Drop step t's data, with its vertex systems, once the step is
        taken; the one entry of an invariant tube serves every step."""
        if len(self._sols[0].T) > 1:
            self._steps.pop(t, None)
            self._vertices.pop(t, None)

    def vertex_systems(self, t, i):
        """Member i's ``_vertex_systems`` at step t.  The first call makes
        them in one batch with those of the later members of step t and of
        the members of its later steps whose tails have the same shape, as
        many tails as fit ``_BATCH`` systems."""
        t = t if t in self._per_step else 0
        if i not in self._vertices.get(t, ()):
            n, p = self.rows.shape[1], self._per_step[t][0]
            count = math.comb(p, n - 1) << (p - n) if 0 < n <= p else 0
            batch = list(itertools.islice(
                ((s, j) for s, (q, _, diagonal) in sorted(self._per_step.items())
                 if s >= t and q == p and not diagonal
                 for j in range(i if s == t else 0, len(self._sols))),
                max(1, _BATCH // count) if 0 < count <= _VERTICES else 1))
            systems = _vertex_systems(self._tails(batch))
            for (s, j), found in zip(batch, systems):
                self._vertices.setdefault(s, {})[j] = found
        return self._vertices[t][i]


def _groups(network, solutions, ids, steps, state_slices, input_slices):
    """The subsystems of the run ``steps``, grouped by ``_shape``."""
    buckets = {}
    for pos, sid in enumerate(ids):
        key = _shape(solutions[sid], network.subsystem(sid), steps)
        buckets.setdefault(key, []).append(pos)
    groups = []
    for (n, m, _, per_step), pos in buckets.items():
        first = np.array([[state_slices[ids[i]].start,
                           input_slices[ids[i]].start] for i in pos])
        groups.append(_Group(np.array(pos), first[:, :1] + np.arange(n),
                             first[:, 1:] + np.arange(m),
                             [solutions[ids[i]] for i in pos], per_step,
                             steps.start))
    return groups


_TILE = 32      # state rows of one tile of the step product, at most; a
                # larger subsystem is a tile of its own


def _band_order(network, ids):
    """A reverse Cuthill-McKee order of the subsystems, as positions in
    ``ids``, over the symmetrized coupling graph: breadth first from a
    least-coupled subsystem of each component, neighbours by coupling count
    and ties by position, then reversed (Cuthill & McKee 1969; George & Liu
    1981).  Couplings then sit near the diagonal of A(t) and B(t) in that
    order."""
    pos = {sid: i for i, sid in enumerate(ids)}
    adj = [set() for _ in ids]
    for i, sid in enumerate(ids):
        for j in map(pos.get, network.subsystem(sid).couplings):
            if j != i:
                adj[i].add(j)
                adj[j].add(i)

    def key(i):
        return len(adj[i]), i

    order, seen = [], set()
    for root in sorted(range(len(ids)), key=key):
        if root in seen:
            continue
        seen.add(root)
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = sorted(adj[order[head]] - seen, key=key)
            seen.update(fresh)
            order += fresh
            head += 1
    return order[::-1]


def _span(M):
    """(first, last + 1, M[:, first:last + 1]) over the nonzero columns of
    M, or None when it has none."""
    cols = np.flatnonzero(M.any(axis=0))
    if not cols.size:
        return None
    return cols[0], cols[-1] + 1, np.ascontiguousarray(M[:, cols[0]:cols[-1] + 1])


class _Band:
    """x(t+1) = A(t) x + B(t) u + d on (rows, S) arrays, tile by tile.

    The state rows are taken in the ``_band_order`` of whole subsystems and
    cut into tiles of whole subsystems of at most ``_TILE`` rows.  Each tile
    keeps, of A(t) and of B(t) in that order, the span from its first to
    its last nonzero column, so a step costs about n_total * bandwidth * S
    instead of n_total**2 * S.  A step gathers the states into that order,
    makes one product per span and scatters the result back; the inputs
    come in that order (``cols`` holds the stacked input row of each).  A
    network that fits one tile keeps its own order and is not gathered.
    """

    def __init__(self, network, ids, slices):
        self.network = network
        self.slices = slices
        state_slices, input_slices = slices
        order = [ids[i] for i in _band_order(network, ids)]
        self.bounds, size = [], 0
        for sid in order:
            n = state_slices[sid].stop - state_slices[sid].start
            if self.bounds and self.bounds[-1][1] - self.bounds[-1][0] + n <= _TILE:
                self.bounds[-1][1] += n
            else:
                self.bounds.append([size, size + n])
            size += n
        if len(self.bounds) == 1:
            order = ids

        def rows(slices):
            return np.concatenate([np.arange(slices[sid].start, slices[sid].stop)
                                   for sid in order])

        self.rows, self.cols = rows(state_slices), rows(input_slices)
        self.inverse = np.argsort(self.rows)
        self.gathered = len(self.bounds) > 1

    def tiles(self, t):
        """Per tile (first row, row stop, A span, B span) at step t; a span
        is a ``_span``."""
        A, B = sysmodel.aggregate_dynamics(self.network, t, self.slices)
        if not self.gathered:
            return [(0, len(self.rows), _span(A), _span(B))]
        return [(r0, r1, _span(A[np.ix_(self.rows[r0:r1], self.rows)]),
                 _span(B[np.ix_(self.rows[r0:r1], self.cols)]))
                for r0, r1 in self.bounds]

    def apply(self, tiles, X, U, d, out, work):
        """out = A(t) X + B(t) U + d for the ``tiles`` of step t.  ``work``,
        of X's shape, is scratch; so is X when the rows are gathered: the
        states are gathered into ``work``, the tiles write X, and ``out``
        holds each tile's input product until the scatter fills it."""
        # a take in numpy's default mode="raise" buffers its output
        if self.gathered:
            Xb = np.take(X, self.rows, axis=0, out=work, mode="clip")
            Y, scratch = X, out
        else:
            Xb, Y, scratch = X, out, work
        for r0, r1, a, b in tiles:
            y = Y[r0:r1]
            if a is None:
                y.fill(0.0)
            else:
                np.matmul(a[2], Xb[a[0]:a[1]], out=y)
            if b is not None:
                s = scratch[:r1 - r0]
                np.matmul(b[2], U[b[0]:b[1]], out=s)
                y += s
        if self.gathered:
            np.take(Y, self.inverse, axis=0, out=out, mode="clip")
        out += d


class _Loop:
    """The closed loop of one network on stacked, samples-last arrays.

    States are one (n_total, S) array in ``sysmodel.stacked_slices``
    order; inputs are one (m_total, S) array in the order of the band
    product (``_Band.cols``); witnesses are a list of (g, k, S) blocks, one
    per group.  ``steps`` is the range of steps the run takes, for which
    the groups' tube data is stacked, and S is ``num_samples``, for which
    the inputs, disturbances and the product's buffers are allocated once.
    """

    def __init__(self, network, solutions, steps, num_samples):
        self.network = network
        self.solutions = solutions
        self.ids = network.sorted_ids()
        self.slices = sysmodel.stacked_slices(network)
        self.state_slices, self.input_slices = self.slices
        self.n_total = sum(sl.stop - sl.start for sl in self.state_slices.values())
        self.m_total = sum(sl.stop - sl.start for sl in self.input_slices.values())
        self.groups = _groups(network, solutions, self.ids, steps,
                              *self.slices)
        self._slot = {pos: (gi, i) for gi, group in enumerate(self.groups)
                      for i, pos in enumerate(group.pos)}
        subs = [network.subsystem(sid) for sid in self.ids]
        # per-step sequences; a step whose entries are the same objects as
        # the last build's reuses what was built from them
        self._varying = {
            "dynamics": [seq for s in subs for seq in itertools.chain(
                (s.A, s.B), *((c.A, c.B or ()) for c in s.couplings.values()))
                if len(seq) > 1],
            "disturbance": [s.D for s in subs if len(s.D) > 1]}
        self._built = {}
        # x(t+1) goes into the spare state buffer, and the states given to
        # ``advance`` become the next spare; d(t) and the work buffer serve
        # as scratch of the draw, the product and the witness chain, and the
        # spare, which holds no live state outside ``advance``, as scratch
        # of the draw and the witness check
        at = 0
        for group in self.groups:
            g, n = group.rows.shape
            group.scratch = slice(at, at + g * n)
            at += g * n
        self.band = _Band(network, self.ids, self.slices)
        # the first step's tiles are built before the buffers exist, so the
        # dense A(t)/B(t) they are cut from does not add to the run's peak
        self._rebuilt("dynamics", steps.start, self.band.tiles)
        self._spare, self._d, self._work = (
            np.empty((self.n_total, num_samples)) for _ in range(3))
        self._U = np.empty((self.m_total, num_samples))
        band_col = np.argsort(self.band.cols)
        for group in self.groups:
            group.inputs = band_col[group.urows]

    def _rebuilt(self, what, t, build):
        """``build(t)``, rebuilt only when one of the per-step sequences of
        ``what`` holds another entry at t than at the last build."""
        last = self._built.get(what)
        if last is None or any(seq[t] is not seq[last[0]]
                               for seq in self._varying[what]):
            last = self._built[what] = (t, build(t))
        return last[1]

    def column(self, values, what, default=None):
        """One (n_total, 1) column of the per-subsystem vectors ``values``,
        or of ``default(sid)`` when no ``values`` are given."""
        col = np.empty((self.n_total, 1))
        for sid, sl in self.state_slices.items():
            n = sl.stop - sl.start
            if not values and default is not None:
                col[sl, 0] = default(sid)
                continue
            if not values or sid not in values:
                raise ValueError(f"{what}: no entry for subsystem {sid!r} "
                                 f"(expected {n} values)")
            v = np.asarray(values[sid], dtype=float).ravel()
            if v.size != n:
                raise ValueError(f"{what}: subsystem {sid!r} has {v.size} "
                                 f"values, expected {n}")
            col[sl, 0] = v
        return col

    def _blocks(self, witnesses):
        """Group blocks filled from the per-subsystem (k, S) witnesses that
        ``witnesses`` yields in sorted order."""
        blocks = [None] * len(self.groups)
        for pos, zeta in enumerate(witnesses):
            gi, i = self._slot[pos]
            if blocks[gi] is None:
                blocks[gi] = np.empty((len(self.groups[gi].pos),) + zeta.shape)
            blocks[gi][i] = zeta
        return blocks

    def sample(self, rng, S):
        """zeta-samples of every Omega_i(0), vertex patterns first, in sorted
        order; returns the states and their witness blocks.  Consecutive
        members of a group share one ``_uniform`` draw when p <= 12, which
        draws the same numbers as one ``_mixed_zeta`` each, in chunks that
        fit the work buffer, and one product.  A block is made after its
        first sign patterns and the states after every draw, so that no
        draw's arrays add to them at the peak."""
        zetas, runs = [None] * len(self.groups), []
        slots = (self._slot[pos] for pos in range(len(self.ids)))
        for gi, run in itertools.groupby(slots, key=lambda slot: slot[0]):
            run = [i for _, i in run]
            p = self.groups[gi].start[1].shape[2]
            size = len(run) if p <= 12 else 1
            for a in range(run[0], run[-1] + 1, size):
                b = min(a + size, run[-1] + 1)
                runs.append((gi, a, b))
                verts = _vertex_rows(rng, S, p).T if p else None
                if zetas[gi] is None:
                    zetas[gi] = np.empty((len(self.groups[gi].pos), p, S))
                if p:
                    Z = zetas[gi][a:b]
                    Z[:, :, :verts.shape[1]] = verts
                    _draw(rng, Z[:, :, verts.shape[1]:], self._work)
                del verts
        X = np.empty((self.n_total, S))
        for gi, a, b in runs:
            group = self.groups[gi]
            c, G = group.start
            x = np.matmul(zetas[gi][a:b].transpose(0, 2, 1),
                          G[a:b].transpose(0, 2, 1),
                          out=_scratch(self._d, (b - a, S, G.shape[1])))
            # the center goes in along the sample axis, where numpy adds it
            # without a buffer
            rows = X[group.rows[a, 0]:group.rows[b - 1, -1] + 1].reshape(
                x.shape[0], x.shape[2], S)
            rows[...] = x.transpose(0, 2, 1)
            rows += c[a:b, :, None]
        for group in self.groups:
            group.start = None      # drawn from; not needed again
        return X, zetas

    def witness(self, t, X):
        """Membership-LP witnesses of the states X in their tubes Omega_i(t);
        the first subsystem with a state outside raises OutsideViableSet."""
        def witnesses():
            for sid, sl in self.state_slices.items():
                inside, zeta = contains_point(self.solutions[sid].omega(t),
                                              X[sl].T)
                if not inside.all():
                    raise OutsideViableSet(sid, t)
                yield zeta.T

        return self._blocks(witnesses())

    def _runs(self, t):
        """Runs of consecutive subsystems whose D_i(t) have one shape:
        (sids, state rows, centers (r, n, 1), generators (r, n, p))."""
        runs = []
        Ds = {sid: self.network.subsystem(sid).D_at(t) for sid in self.ids}
        for _, sids in itertools.groupby(
                self.ids, key=lambda sid: Ds[sid].generators.shape):
            sids = tuple(sids)
            rows = slice(self.state_slices[sids[0]].start,
                         self.state_slices[sids[-1]].stop)
            runs.append((sids, rows,
                         np.stack([Ds[sid].center for sid in sids])[:, :, None],
                         np.stack([Ds[sid].generators for sid in sids])))
        return runs

    def disturbance(self, rng, t, S, patterns=None):
        """d(t) for S samples: uniform zeta-draws from each D_i(t), in sorted
        order, after the first columns that ``patterns`` fixes.  Consecutive
        subsystems of one shape share one ``_uniform`` draw, which draws the
        same numbers as one draw each.  d(t) is the loop's buffer, valid
        until the next ``rewitness``."""
        runs = self._rebuilt("disturbance", t, self._runs)
        fixed = [None if patterns is None
                 else patterns.block(sids, G.shape[2], self._work)
                 for sids, _, _, G in runs]
        d = self._d
        for (sids, rows, c, G), vertex in zip(runs, fixed):
            r, n, p = G.shape
            nv = 0 if vertex is None else vertex.shape[2]
            zd = _scratch(self._spare, (r, p, S))
            if nv:
                zd[:, :, :nv] = vertex
            _draw(rng, zd[:, :, nv:], self._work)
            dr = d[rows].reshape(r, n, S)
            np.matmul(G, zd, out=dr)
            dr += c
        return d

    def advance(self, t, X, zetas, d):
        """One synchronous update: inputs from the witnesses, then x(t+1) =
        A(t) x + B(t) u + d, returned in the spare state buffer; X becomes
        the spare, and ``inputs`` reads u."""
        for group, Z in zip(self.groups, zetas):
            st = group.at(t)
            if st.theta_G is not None:
                u = np.matmul(st.theta_G, Z, out=_scratch(
                    self._spare, group.inputs.shape + Z.shape[2:]))
                u += st.theta_c
                self._U[group.inputs] = u
        tiles = self._rebuilt("dynamics", t, self.band.tiles)
        out = self._spare
        self.band.apply(tiles, X, self._U, d, out, self._work)
        self._spare = X
        return out

    def inputs(self):
        """The inputs of the last ``advance``, in stacked order."""
        U = np.empty_like(self._U)
        U[self.band.cols] = self._U
        return U

    def rewitness(self, t, X, zetas, alive, report):
        """Replace the witness blocks ``zetas`` by those of the states X at
        t + 1.

        Chained witnesses are solved for a whole group at once.  Then, in
        sorted order, each subsystem with a live sample whose chained witness
        failed solves its tail exactly (a non-diagonal tail, ``_tail_witness``)
        and, where that fails too, takes the tube LP.  Samples the tube LP
        finds outside leave ``alive``; ``report`` counts them, the tail and
        tube problems and the witness losses.
        """
        work = []
        for gi, group in enumerate(self.groups):
            st = group.at(t)
            shape = (len(group.pos), st.width, X.shape[1])
            # the tail coordinates are recovered from the actual next state
            # (not from the disturbance applied), so x = c + T zeta holds
            # every step up to the 1e-9 check, and solver-tolerance residuals
            # of the tube recursion cannot compound through the witnesses
            keep = st.width - st.p
            block = zetas[gi]
            if block.shape != shape:
                block = np.empty(shape)
                block[:, :keep] = zetas[gi][:, st.shift:]
                zetas[gi] = block
            elif st.shift:
                # one overlapping copy over the flat block, which numpy
                # makes in place as a 1-d one: each member's columns move
                # ``shift`` places to the front, and the next member's
                # first columns land in the tail, which is solved for below
                flat = block.reshape(-1)
                flat[:flat.size - st.shift * shape[2]] = flat[st.shift * shape[2]:]
            rows = self._work[group.scratch].reshape(group.rows.shape + shape[2:])
            fit = np.matmul(st.head, block[:, :keep], out=rows)
            fit += st.center
            resid = np.take(X, group.rows, axis=0, mode="clip",
                            out=self._d[group.scratch].reshape(rows.shape))
            resid -= fit
            zw = block[:, keep:]
            st.solve_tail(resid, zw)
            bad = _tail_ok(st.tail, st.radii, resid, zw, self._spare, out=rows)
            np.logical_not(bad, out=bad)
            bad &= alive
            # the verdicts sit in the spare, which the next group reuses
            work += [(group.pos[i], gi, i, resid[i], bad[i].nonzero()[0])
                     for i in bad.any(axis=1).nonzero()[0]]

        for pos, gi, i, resid, bad in sorted(work, key=lambda w: w[0]):
            group = self.groups[gi]
            st = group.at(t)
            zeta = zetas[gi][i]
            redo = bad[alive[bad]]
            if st.pinv is not None and redo.size:
                if st.p:
                    report.lp_rewitness += redo.size
                redo = self._tail_witness(group, t, i, zeta[st.width - st.p:],
                                          resid, redo)
            if not redo.size:
                continue
            sl = self.state_slices[self.ids[pos]]
            if st.width:
                report.lp_rewitness += redo.size
            inside, wit = contains_point(st.omega(i), X[sl, redo].T)
            zeta[:, redo[inside]] = wit[inside].T
            report.witness_losses += int(inside.sum())
            out = redo[~inside]
            report.violations += out.size
            alive[out] = False
            if out.size and report.first_violation is None:
                report.first_violation = (self.ids[pos], t + 1)
        for group in self.groups:
            group.spend(t)

    def _tail_witness(self, group, t, i, zw, resid, rows):
        """Solve the non-diagonal tail of the group's member i at step t
        for the tail coordinates ``zw`` of the samples ``rows``, whose
        chained witness failed, from their residuals ``resid``: exactly by
        ``_vertex_witness`` where the tail has vertex systems, by the tail LP
        where it has none.  Returns the samples whose solution fails the
        witness check."""
        st = group.at(t)
        tail, resid = st.tail[i], resid[:, rows]
        systems = group.vertex_systems(t, i)
        # the chain is done with the work buffer: the solve, then the check take it
        if systems is not None:
            z = zw[:, rows] = _vertex_witness(systems, tail, resid, self._work)
        else:
            inside, wit = contains_point(st.tail_set(i), resid.T)
            zw[:, rows[inside]] = wit[inside].T
            z = zw[:, rows]
        return rows[~_tail_ok(tail, None, resid, z, self._work)]

    def margins(self, zetas, alive, out):
        """1 - |zeta|_inf minimized over the live samples (at least one),
        into ``out`` (one entry per subsystem, sorted order).  1 - x rounds
        monotonically, so that is 1 - the largest norm."""
        for group, Z in zip(self.groups, zetas):
            out[group.pos] = 1.0 - _norms(Z, self._spare).max(
                axis=1, where=alive, initial=-np.inf)


class _VertexPatterns:
    """The vertex-role disturbance columns of ``verify_invariance``: one
    ``_mixed_zeta`` draw per subsystem and generator count of D_i(t), made
    on first use and replayed at every later step."""

    def __init__(self, rng, num_samples):
        self.rng = rng
        self.num_samples = num_samples
        self._drawn = {}        # (sid, p) -> (p, nv) pattern, a block's row
        self._blocks = {}       # (sids, p) -> (r, p, nv) stack

    def block(self, sids, p, buf):
        """The (r, p, nv) patterns of the run ``sids``; a draw goes through
        the scratch buffer ``buf`` (``_scratch``)."""
        key = (sids, p)
        if key not in self._blocks:
            S = self.num_samples
            nv = min(2 ** p if p <= 12 else S, max(S // 2, 1))
            block = None
            for j, sid in enumerate(sids):
                pattern = self._drawn.get((sid, p))
                if pattern is None:
                    pattern = _mixed_zeta(self.rng, S, p,
                                          _scratch(buf, (S, p)))[:nv].T
                # made after the first draw, whose arrays are gone by then
                if block is None:
                    block = self._blocks[key] = np.empty((len(sids), p, nv))
                block[j] = pattern
                self._drawn.setdefault((sid, p), block[j])
        return self._blocks[key]


# ---------------------------------------------------------------------------
# batched Monte-Carlo invariance verification


@dataclass
class InvarianceReport:
    num_samples: int
    num_steps: int
    checked: int = 0              # membership decisions made
    witness_losses: int = 0       # chained witness failed its check but the
                                  # tube LP found the state inside
    lp_rewitness: int = 0         # chain misses re-solved: tail (vertex
                                  # enumeration or LP) and tube problems
    violations: int = 0           # states confirmed outside their tube
    first_violation: tuple | None = None
    margins: dict = field(default_factory=dict)  # sid -> per-step min margin
    vacuous: bool = False

    @property
    def ok(self):
        return not self.vacuous and self.violations == 0


def verify_invariance(network, result, num_samples=10_000, num_steps=None,
                      seed=0):
    """Sample closed-loop trajectories and count tube escapes.

    Initial states are zeta-sampled from each Omega_i(0) (vertex patterns
    included); disturbances likewise from D_i(t), with the vertex-role
    samples holding one extreme pattern per generator count of D_i(t)
    across all steps.  Returns an InvarianceReport; a sound synthesis gives
    violations == 0.  ``num_samples`` and ``num_steps`` must be integers (a
    float or a bool raises TypeError) and nonnegative (ValueError).
    """
    solutions = _solution_map(result, network)
    num_steps = _num_steps(solutions, num_steps, "verify")
    if _integer(num_samples, "num_samples") < 0:
        raise ValueError(f"num_samples must be nonnegative, got {num_samples}")
    if num_samples == 0:
        return InvarianceReport(0, num_steps, vacuous=True)

    rng = np.random.default_rng(seed)
    S = num_samples
    loop = _Loop(network, solutions, range(num_steps), S)
    N = len(loop.ids)
    X, zetas = loop.sample(rng, S)
    patterns = _VertexPatterns(rng, S)
    margins = np.full((N, num_steps + 1), np.inf)
    report = InvarianceReport(S, num_steps, margins=dict(zip(loop.ids, margins)))
    alive = np.ones(S, dtype=bool)
    report.checked += N * S
    loop.margins(zetas, alive, margins[:, 0])

    for t in range(num_steps):
        if not alive.any():
            break
        X = loop.advance(t, X, zetas, loop.disturbance(rng, t, S, patterns))
        loop.rewitness(t, X, zetas, alive, report)
        report.checked += N * int(np.count_nonzero(alive))
        if alive.any():
            loop.margins(zetas, alive, margins[:, t + 1])
    return report
