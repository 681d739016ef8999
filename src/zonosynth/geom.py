"""Zonotopes and the linear programs that compare them.

A zonotope ``Z(c, G)`` is the set ``{c + G @ zeta : |zeta|_inf <= 1}`` with
center ``c`` (length n) and generator matrix ``G`` (n x p).  The key
primitive in this module is :func:`add_scaled_containment`, which emits the
sufficient containment condition

    Z(c1, G1) subset of Z(c2, G2 @ Diag(scale))
        iff exist Gamma, gamma with
            G1 = G2 @ Lambda,  c2 - c1 = G2 @ lam,
            sum_j |Lambda[q, j]| + |lam[q]| <= scale[q]  for every row q

as LP rows.  Written this way (the per-row bound on the right-hand side
instead of a fixed 1) the rows stay linear even when both the inner body's
generators and the scales are decision variables, which is what the
viability and contract programs rely on.  Every such entry is a number or
one coefficient times one LP column, so the inner body and the scales are
passed as arrays (:func:`affine`, :func:`numbers`).  :func:`hausdorff_bound`
turns any candidate (Lambda, lam), such as the one a solved program found,
into an upper bound on the directed Hausdorff distance;
:func:`certified_hausdorff` checks that bound before it solves a Hausdorff
LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lpcore
from .lpcore import LinearProgram


@dataclass(frozen=True)
class Zonotope:
    """Zonotope with ``center`` (n,) and ``generators`` (n, p)."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        if center.ndim != 1:
            raise ValueError("center must be a vector")
        G = np.asarray(self.generators, dtype=float)
        if G.size == 0:
            G = G.reshape(len(center), 0)
        if G.ndim == 1:
            G = G.reshape(-1, 1)
        if G.shape[0] != len(center):
            raise ValueError(f"generator rows {G.shape[0]} != dim {len(center)}")
        if not (np.all(np.isfinite(center)) and np.all(np.isfinite(G))):
            raise ValueError("non-finite entries in zonotope data")
        center = center.copy()
        G = G.copy()
        center.flags.writeable = False
        G.flags.writeable = False
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "generators", G)

    @property
    def dim(self):
        return len(self.center)

    @property
    def num_generators(self):
        return self.generators.shape[1]

    @property
    def order(self):
        return self.num_generators / self.dim

    def support(self, direction):
        """Support function h(d) = max_{x in Z} d.x."""
        d = np.asarray(direction, dtype=float)
        return float(d @ self.center + np.abs(d @ self.generators).sum())

    def to_json(self):
        return {"center": self.center.tolist(),
                "generators": self.generators.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(np.asarray(data["center"], dtype=float),
                   np.asarray(data["generators"], dtype=float))

    def __repr__(self):
        return f"Zonotope(dim={self.dim}, p={self.num_generators})"


def point_zonotope(center):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    return Zonotope(center, np.zeros((len(center), 0)))


def affine_map(A, Z, b=None):
    """Image A @ Z + b (exact: zonotopes are closed under affine maps)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = A @ Z.center
    if b is not None:
        c = c + np.asarray(b, dtype=float)
    return Zonotope(c, A @ Z.generators)


def minkowski_sum(*zonotopes):
    """Minkowski sum: centers add, generator matrices concatenate."""
    if not zonotopes:
        raise ValueError("need at least one zonotope")
    dim = zonotopes[0].dim
    for Z in zonotopes:
        if Z.dim != dim:
            raise ValueError("dimension mismatch in minkowski_sum")
    center = sum(Z.center for Z in zonotopes)
    gens = np.hstack([Z.generators for Z in zonotopes])
    return Zonotope(center, gens)


def stack(zonotopes):
    """Cartesian product: block-diagonal generators, stacked centers."""
    zonotopes = list(zonotopes)
    center = np.concatenate([Z.center for Z in zonotopes])
    total_p = sum(Z.num_generators for Z in zonotopes)
    G = np.zeros((len(center), total_p))
    r = 0
    q = 0
    for Z in zonotopes:
        n, p = Z.generators.shape
        G[r:r + n, q:q + p] = Z.generators
        r += n
        q += p
    return Zonotope(center, G)


def scale_generators(Z, alpha):
    """Z(c, G Diag(alpha)) — per-generator scaling, used by contract templates."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (Z.num_generators,):
        raise ValueError(f"alpha shape {alpha.shape} != ({Z.num_generators},)")
    return Zonotope(Z.center, Z.generators * alpha)


def interval_hull(Z):
    """Componentwise bounds (lo, hi): lo = c - sum|G| rows, hi = c + sum|G|."""
    radius = np.abs(Z.generators).sum(axis=1)
    return Z.center - radius, Z.center + radius


def order_reduce_box(Z, order=1):
    """Boxing order reduction: over-approximate Z by an order-``order`` zonotope.

    ``order=1`` replaces Z by its interval hull (an axis-aligned box whose
    generator matrix is Diag of the row sums of |G|).  For ``order >= 2`` the
    n*(order-1) generators with the largest Euclidean norm are kept and the
    rest are boxed; if Z already has at most n*order generators it is
    returned unchanged.  ``order=None`` disables reduction.
    """
    if order is None:
        return Z
    n, p = Z.generators.shape
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        radius = np.abs(Z.generators).sum(axis=1)
        return Zonotope(Z.center, np.diag(radius))
    if p <= n * order:
        return Z
    keep = n * (order - 1)
    norms = np.linalg.norm(Z.generators, axis=0)
    idx = np.argsort(-norms, kind="stable")
    kept = np.sort(idx[:keep])
    boxed = np.sort(idx[keep:])
    radius = np.abs(Z.generators[:, boxed]).sum(axis=1)
    return Zonotope(Z.center, np.hstack([Z.generators[:, kept], np.diag(radius)]))


def sample(Z, num, rng):
    """num points c + G zeta with zeta uniform over [-1,1]^p."""
    zeta = rng.uniform(-1.0, 1.0, size=(num, Z.num_generators))
    return Z.center + zeta @ Z.generators.T


def zonogon_area(Z):
    """Area of a 2-D zonotope: 4 * sum_{j<k} |det [g_j g_k]|."""
    if Z.dim != 2:
        raise ValueError("zonogon_area needs a 2-D zonotope")
    G = Z.generators
    p = G.shape[1]
    total = 0.0
    for j in range(p):
        for k in range(j + 1, p):
            total += abs(G[0, j] * G[1, k] - G[1, j] * G[0, k])
    return 4.0 * total


def polygon_vertices_2d(Z, tol=1e-12):
    """Vertices of a 2-D zonotope in counter-clockwise order.

    Generators are normalized into the upper half-plane, parallel generators
    are merged, and the boundary is walked in angle order; the second half of
    the ring is the point reflection of the first through the center.  At
    most 2p vertices for p distinct directions.
    """
    if Z.dim != 2:
        raise ValueError("polygon_vertices_2d needs a 2-D zonotope")
    G = Z.generators
    cols = [G[:, k] for k in range(G.shape[1])
            if np.abs(G[:, k]).max() > tol]
    if not cols:
        return Z.center.reshape(1, 2).copy()
    # normalize into the half-plane y > 0 (or y == 0, x > 0)
    normed = []
    for g in cols:
        if g[1] < -tol or (abs(g[1]) <= tol and g[0] < 0):
            g = -g
        normed.append(g)
    # merge parallel directions
    angles = np.array([np.arctan2(g[1], g[0]) for g in normed])
    order = np.argsort(angles, kind="stable")
    merged = []
    for k in order:
        if merged and abs(angles[k] - merged[-1][0]) <= 1e-12:
            merged[-1] = (merged[-1][0], merged[-1][1] + normed[k])
        else:
            merged.append((angles[k], normed[k].copy()))
    gens = [g for _, g in merged]
    start = Z.center - sum(gens)
    ring = [start]
    for g in gens:
        ring.append(ring[-1] + 2.0 * g)
    # ring now runs from -sum(g) to +sum(g); reflect the first half back
    if len(gens) == 1:
        return np.vstack([ring[0], ring[1]])
    half = ring[:-1]
    other = [2.0 * Z.center - v for v in half]
    return np.vstack(half + other)


# ---------------------------------------------------------------------------
# containment LPs


def affine(cols, coefs=1.0, consts=0.0):
    """Entries ``consts + coefs * x[cols]`` as the arrays ``(cols, coefs,
    consts)``, broadcast to one shape; a column index below 0 means the
    entry is the number ``consts`` alone."""
    return tuple(np.broadcast_arrays(np.asarray(cols, dtype=np.int64),
                                     np.asarray(coefs, dtype=float),
                                     np.asarray(consts, dtype=float)))


def numbers(values):
    """The numbers ``values`` as entries in the form of :func:`affine`."""
    return affine(-1, 0.0, values)


def _body(Z):
    """The numeric inner body ``[G c]`` of zonotope ``Z``."""
    return numbers(np.column_stack([Z.generators, Z.center]))


def _union(mask, ndim):
    """The entries of the last ``ndim`` axes that are set for any index of
    the axes before them: one pattern for every member of a batch."""
    mask = np.asarray(mask)
    return mask if mask.ndim == ndim else mask.any(axis=tuple(range(mask.ndim - ndim)))


def _join(parts):
    """The ``(rows, cols, coefs)`` parts joined along their last axis.  Parts
    have no leading axes or a batch's member axis; those without it are
    broadcast to it where another part has it."""
    joined = []
    for arrays in zip(*parts):
        lead = next((np.shape(a)[:-1] for a in arrays if np.ndim(a) > 1), ())
        joined.append(np.concatenate([a if np.shape(a)[:-1] == lead else
                                      np.broadcast_to(a, lead + np.shape(a)[-1:])
                                      for a in arrays], axis=-1))
    return tuple(joined)


def add_scaled_containment(lp, inner, outer_cols, scales, outer_c):
    """Emit rows forcing Z(c, G) inside Z(outer_c, outer_cols @ Diag(scales)).

    ``inner`` is the body ``[G c]`` (n x r+1) and ``scales`` the s scales
    (nonnegative), each as :func:`affine` arrays: entry ``consts + coefs *
    x[cols]``, a plain number where the column index is below 0.
    ``outer_cols`` (n x s) is numeric.  Returns a dict of handles: the column
    indices of the substituted factor ``Lambda = Diag(scale) @ Gamma``
    ("Lam", s x r), of ``lam`` (s,) and of the row-sum bounds ``W`` (s x
    r+1).

    The rows are, in order: for every i, ``G[i, j]`` (j < r) and ``c[i]``
    equalities (row ``i * (r+1) + j`` of the block); then for every q, two
    rows ``|[Lam lam][q, j]| <= W[q, j]`` per j and the row-sum row
    ``sum_j W[q, j] <= scale[q]`` (row ``(2r+3) q + 2r+2`` of the second
    block), whose dual carries the scale's sensitivity.

    ``lp`` may be an :class:`lpcore._LpBatch`: every argument may then carry
    the batch's leading member axis, and so do the handles.  Entries that
    are zero for one member but not for all are emitted as zeros, which
    ``add_rows`` drops; the columns (index >= 0) must be the same for all.
    """
    outer_cols = np.asarray(outer_cols, dtype=float)
    n, s = outer_cols.shape[-2:]
    p = np.shape(inner[0])[-1]  # columns of [Lam lam], rows per i of the equality block
    r = p - 1
    Lam = lp.var_block((s, r))
    lam = lp.var_block(s)
    W = lp.var_block((s, p), lb=0.0)
    lead = lam.shape[:-1]
    Lam_lam = np.concatenate([Lam, lam[..., None]], axis=-1)

    # [G, c] = outer_cols @ [Lam, lam] with the inner terms moved left:
    # row i*p + j is G[i, j] for j < r and c[i] for j == r
    cols, coefs, consts = (np.reshape(a, np.shape(a)[:-2] + (n * p,)) for a in inner)
    own = np.flatnonzero(_union(cols >= 0, 1))
    is_c = np.arange(n * p) % p == r
    ii, qq = np.nonzero(_union(outer_cols, 2))
    lp.add_rows(
        *_join([(((ii * p)[:, None] + np.arange(p)).ravel(),
                  Lam_lam[..., qq, :].reshape(lead + (-1,)),
                  np.repeat(outer_cols[..., ii, qq], p, axis=-1)),
                 (own, cols[..., own], np.where(is_c[own], coefs[..., own], -coefs[..., own]))]),
        np.where(is_c, -(consts - np.repeat(np.asarray(outer_c, dtype=float), p, axis=-1)),
                 consts),
        "=")

    # per q: +/-[Lam lam][q, j] - W[q, j] <= 0 in rows q*rq + 2j, q*rq + 2j + 1,
    # then the row sum sum_j W[q, j] - scale[q] <= 0 in row q*rq + 2p
    rq = 2 * p + 1
    plus = ((np.arange(s) * rq)[:, None] + 2 * np.arange(p)).ravel()
    rowsum = np.arange(s) * rq + 2 * p
    cols, coefs, consts = scales
    own = np.flatnonzero(_union(cols >= 0, 1))
    bounds = np.zeros(np.shape(consts)[:-1] + (s * rq,))
    bounds[..., rowsum] = consts
    Lam_lam, Wf = Lam_lam.reshape(lead + (-1,)), W.reshape(lead + (-1,))
    one = np.ones(s * p)
    lp.add_rows(
        *_join([(plus, Lam_lam, one), (plus, Wf, -one), (plus + 1, Lam_lam, -one),
                (plus + 1, Wf, -one), (np.repeat(rowsum, p), Wf, one),
                (rowsum[own], cols[..., own], -coefs[..., own])]),
        bounds, "<")
    return {"Lam": Lam, "lam": lam, "W": W}


@dataclass
class ContainmentCertificate:
    feasible: bool
    Gamma: np.ndarray | None = None
    gamma: np.ndarray | None = None
    margin: float | None = None  # min over rows of (1 - |[Gamma gamma]| row sum)
    solve_seconds: float = 0.0


def containment_lp(inner, outer):
    """Check Z_inner subset of Z_outer via the containment LP; returns a certificate."""
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    lp = LinearProgram(name="containment")
    handles = add_scaled_containment(lp, _body(inner), outer.generators,
                                     numbers(np.ones(outer.num_generators)),
                                     outer.center)
    sol = lp.solve()
    if sol.status != lpcore.OPTIMAL:
        return ContainmentCertificate(False, solve_seconds=sol.solve_seconds)
    Gamma = sol.column_values(handles["Lam"])
    gamma = sol.column_values(handles["lam"])
    rows = np.abs(Gamma).sum(axis=1) + np.abs(gamma)
    margin = float(1.0 - rows.max()) if len(rows) else 1.0
    return ContainmentCertificate(True, Gamma, gamma, margin, sol.solve_seconds)


def directed_hausdorff(outer, inner):
    """min d >= 0 with Z_inner inside Z_outer + d * unit box (directed Hausdorff).

    Zero iff the containment LP certifies Z_inner inside Z_outer; the box
    inflation keeps the program linear and always feasible.
    """
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    n, s = inner.dim, outer.num_generators
    lp = LinearProgram(name="hausdorff")
    d = lp.var_block((), lb=0.0)
    scales = affine(np.r_[np.full(s, -1), np.full(n, d)], 1.0, np.r_[np.ones(s), np.zeros(n)])
    add_scaled_containment(lp, _body(inner), np.hstack([outer.generators, np.eye(n)]),
                           scales, outer.center)
    lp.set_costs([d], 1.0)
    sol = lp.solve()
    if sol.status != lpcore.OPTIMAL:
        raise lpcore.LpSolverError(f"hausdorff LP ended with {sol.status}")
    return max(0.0, sol.objective)


def witness_values(sol, handles):
    """The ``[Lam lam]`` array of each containment in ``handles``, by key.

    ``handles`` maps a key to the dict that :func:`add_scaled_containment`
    returned; ``sol`` is a solution of the LP those rows were emitted into.
    """
    return {key: np.column_stack([sol.column_values(h["Lam"]),
                                  sol.column_values(h["lam"])])
            for key, h in handles.items()}


def hausdorff_bound(inner, center, cols, scales, L):
    """Upper bound on ``directed_hausdorff(Z(center, cols @ Diag(scales)), inner)``.

    ``L = [Lam lam]`` (s x r+1, r generators of ``inner``) is any candidate
    containment witness in the convention of :func:`add_scaled_containment`:
    ``inner.generators = cols @ Lam`` and ``center - inner.center = cols @
    lam``.  Whatever the candidate misses is charged to the box inflation:
    the residual ``E = [G_in, center - c_in] - cols @ L`` by its row-abs
    sums, and the excess of each row sum of |L| over its scale through
    ``|cols|``.  The bound is never below the true distance, and is 0 for
    an exact witness.  Returns inf for a missing or misshapen candidate.
    """
    center = np.asarray(center, dtype=float)
    cols = np.asarray(cols, dtype=float)
    scales = np.asarray(scales, dtype=float)
    n, s = cols.shape
    if L is None:
        return np.inf
    L = np.asarray(L, dtype=float)
    if inner.dim != n or scales.shape != (s,) or \
            L.shape != (s, inner.num_generators + 1):
        return np.inf
    E = np.hstack([inner.generators, (center - inner.center)[:, None]]) - cols @ L
    excess = np.maximum(np.abs(L).sum(axis=1) - scales, 0.0)
    return float(np.max(np.abs(cols) @ excess + np.abs(E).sum(axis=1), initial=0.0))


def certified_hausdorff(inner, center, cols, scales, witness, tol):
    """``directed_hausdorff(Z(center, cols @ Diag(scales)), inner)`` as far
    as ``tol`` needs it: returns ``(distance, used_lp)``.

    The distance is the witness's :func:`hausdorff_bound` when that is
    within ``tol`` (``used_lp`` False); otherwise the Hausdorff LP decides.
    """
    bound = hausdorff_bound(inner, center, cols, scales, witness)
    if bound <= tol:
        return bound, False
    outer = Zonotope(center, np.asarray(cols, dtype=float) * scales)
    return directed_hausdorff(outer, inner), True


def membership_lp(Z, x):
    """The LP min |zeta|_inf s.t. x = c + G zeta; returns it with the column
    indices of zeta and of the point.

    The point is a block of fixed columns (bounds ``x``), so one instance
    serves every point: move it with one ``set_col_bounds`` call and
    re-solve warm.  Columns: zeta (p), ``q`` (column p), the point (n).
    Rows: ``G[i] @ zeta - x[i] = -c[i]`` for every i, then ``zeta[k] - q <=
    0`` and ``-zeta[k] - q <= 0`` for every k.
    """
    n, p = Z.generators.shape
    lp = LinearProgram(name="member")
    zeta = lp.var_block(p)
    q = lp.var_block((), lb=0.0)  # column p
    point = lp.var_block(n)
    x = np.asarray(x, dtype=float)
    lp.set_col_bounds(point, x, x)
    ii, kk = np.nonzero(Z.generators)
    lp.add_rows(np.concatenate([ii, np.arange(n)]), np.concatenate([zeta[kk], point]),
                np.concatenate([Z.generators[ii, kk], -np.ones(n)]), -Z.center, "=")
    pair = 2 * np.arange(p)
    lp.add_rows(np.concatenate([pair, pair + 1, pair, pair + 1]),
                np.concatenate([zeta, zeta, np.full(2 * p, p)]),
                np.concatenate([np.ones(p), -np.ones(p), -np.ones(2 * p)]),
                np.zeros(2 * p), "<")
    lp.set_costs([q], 1.0)
    return lp, zeta, point


def contains_point(Z, x, tol=1e-9):
    """Membership test with witness: returns (inside, zeta) with x = c + G zeta.

    ``x`` is one point (n,) or a stack of points (S, n).  A stack gets one
    :func:`membership_lp`, re-solved warm per point, and returns a bool
    array and an (S, p) array of witnesses, NaN in the rows outside; one
    point returns a bool and a witness or None.  The witness minimizes
    |zeta|_inf, so membership holds iff the optimum is <= 1 + tol.  Without
    generators, membership is every coordinate within ``tol`` of the center
    (an absolute tolerance, whatever the center's magnitude).
    """
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(x)
    p = Z.num_generators
    inside = np.zeros(len(points), dtype=bool)
    zeta = np.full((len(points), p), np.nan)
    if p == 0:
        inside = np.isclose(points, Z.center, rtol=0.0,
                            atol=max(tol, 1e-12)).all(axis=1)
        zeta[inside] = 0.0
    elif len(points):
        lp, zcols, pcols = membership_lp(Z, points[0])
        for s, point in enumerate(points):
            lp.set_col_bounds(pcols, point, point)
            sol = lp.solve()
            if sol.status == lpcore.OPTIMAL and sol.objective <= 1.0 + tol:
                inside[s] = True
                zeta[s] = sol.column_values(zcols)
    if x.ndim < 2:
        return bool(inside[0]), (zeta[0] if inside[0] else None)
    return inside, zeta
