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
passed as arrays (:func:`affine`, :func:`numbers`).  This is the
containment encoding of Sadraddini and Tedrake (CDC 2019).

The l1 bound takes one of two forms.  The centralized, dense and Hausdorff
programs split the sign, ``[Lambda lam] = P - N`` with ``P, N >= 0`` and one
row-sum row per q (the usual LP form of an l1 bound, Boyd and Vandenberghe,
*Convex Optimization*, 6.1).  The per-subsystem potential programs, whose
duals the descent reads, keep two rows ``|.| <= W`` per entry (see
:func:`add_scaled_containment` for why).  :func:`witness_values` reads
``[Lambda lam]`` back from either.  :func:`hausdorff_bound` turns any
candidate (Lambda, lam), such as the one a solved program found, into an
upper bound on the directed Hausdorff distance.  A containment is decided
one way, as ``viability.certify`` does: by that bound on a witness, or
else by the Hausdorff LP, :func:`directed_hausdorff`, which is 0 when the
containment rows are feasible.  Witness entries and rows that the inputs
make idle get no column and no row (see :func:`add_scaled_containment`).
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

    def to_json(self):
        return {"center": self.center.tolist(),
                "generators": self.generators.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(np.asarray(data["center"], dtype=float),
                   np.asarray(data["generators"], dtype=float))

    def __repr__(self):
        return f"Zonotope(dim={self.dim}, p={self.num_generators})"


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


def _columns(lp, zero, lb=-np.inf):
    """Columns for the unset entries of the mask ``zero``, in C order, and
    -1 (the number 0) for the set ones; with an ``lpcore._LpBatch``, with
    its leading member axis."""
    cols = lp.var_block(int((~zero).sum()), lb=lb)
    out = np.full(cols.shape[:-1] + zero.shape, -1)
    out[..., ~zero] = cols
    return out


def _add_rows(lp, rows, cols, coefs, bounds, sense):
    """``lp.add_rows`` without the terms in column -1 (the number 0) and
    without the rows then left with no column and bound 0, which read 0 = 0
    or 0 <= 0; the later rows move up."""
    kept = _union(cols >= 0, 1)
    if not kept.all():
        rows, cols, coefs = rows[kept], cols[..., kept], coefs[..., kept]
    live = np.zeros(np.shape(bounds)[-1], dtype=bool)
    live[rows] = True
    if not live.all():
        live |= _union(bounds != 0, 1)
        rows, bounds = np.cumsum(live)[rows] - 1, bounds[..., live]
    return lp.add_rows(rows, cols, coefs, bounds, sense)


def _pinned_witness(outer_cols, live):
    """The witness entries ``[q, j]`` that :func:`add_scaled_containment`
    pins to 0: those of the blocks of ``outer_cols`` (n x s) with
    ``live[i, j]`` (n x r+1) unset on every row i of the block."""
    if live.all():  # then only a generator with no nonzero entry is idle
        return (outer_cols == 0).all(axis=0)[:, None].repeat(live.shape[1], axis=1)
    S = (outer_cols != 0) * 1.0
    keep = S.T @ live > 0  # spread through the block until nothing changes
    while (more := S.T @ (S @ keep > 0) > 0).sum() > keep.sum():
        keep = more
    return ~keep


def add_scaled_containment(lp, inner, outer_cols, scales, outer_c, split=True):
    """Emit rows forcing Z(c, G) inside Z(outer_c, outer_cols @ Diag(scales)).

    ``inner`` is the body ``[G c]`` (n x r+1) and ``scales`` the s scales
    (nonnegative), each as :func:`affine` arrays: entry ``consts + coefs *
    x[cols]``, a plain number where the column index is below 0.
    ``outer_cols`` (n x s) is numeric.  The witness is ``[Lam lam]`` (s x
    r+1), the substituted factor ``Lam = Diag(scale) @ Gamma`` and ``lam``;
    :func:`witness_values` reads it back in either form below.

    The first block of rows is the same in both forms: for every i, the
    ``G[i, j]`` (j < r) and ``c[i]`` equalities of ``[G c] = outer_cols @
    [Lam lam]``, row ``i * (r+1) + j`` of the block.  The l1 bound
    ``sum_j |[Lam lam][q, j]| <= scale[q]`` has two forms:

    * ``split=True`` (the default): ``[Lam lam] = P - N`` with ``P, N >=
      0`` (s x r+1 each), and one row-sum row ``sum_j (P + N)[q, j] <=
      scale[q]`` per q, row q of the second block.  The handles are the
      column indices "P" and "N".
    * ``split=False``: free columns "Lam" (s x r) and "lam" (s), bounds
      "W" >= 0 (s x r+1), and for every q two rows ``|[Lam lam][q, j]| <=
      W[q, j]`` per j and the row-sum row ``sum_j W[q, j] <= scale[q]``
      (row ``(2r+3) q + 2r+2`` of the second block).

    Both have the same feasible witnesses and the same columns, and a
    row-sum row's dual carries its scale's sensitivity in both.  The split
    form has s rows where the other has s (2r+3), and the one-LP programs
    (centralized, dense, alpha-cap and Hausdorff) take it: case2's
    centralized LP then solves in about half the HiGHS time.  The
    per-subsystem potential programs of ``contracts.emit_subsystem(slack=
    True)``, which also run the hard extraction, keep
    ``split=False``: the descent reads its subgradients off their duals,
    and in the split form the paper's subgradient rule ended case1
    ``failed`` after 422 iterations (an extracted Omega(0) escaped its
    promise by 1.772e-07, inside the solver's 1e-7 feasibility tolerance)
    where this form certifies it after 432.

    Both forms leave out what the inputs make idle.  ``outer_cols`` splits
    into blocks, rows and generators joined where an entry is nonzero.
    Where column j of the equality block (``c[i] - outer_c[i]`` for j == r)
    is the number 0 on every row of a block, the entries ``[Lam lam][q, j]``
    of the block's generators q sit only in rows that then read 0 = 0 and,
    with "+" signs, in row sums: zeroing them keeps every feasible witness
    feasible at no cost.  They get no column (handle -1, which
    :func:`witness_values` reads as 0.0), and a row left with no column and
    bound 0 drops out, moving the later rows up.  On geo40's dense LP, where
    zero forcing pins most of T, this leaves out 9,120 of 14,588 columns.

    ``lp`` may be an :class:`lpcore._LpBatch`: every argument may then carry
    the batch's leading member axis, and so do the handles.  Entries that
    are zero for one member but not for all are emitted as zeros, which
    ``add_rows`` drops, and only what is idle in every member is left out;
    the columns (index >= 0) must be the same for all.
    """
    outer_cols = np.asarray(outer_cols, dtype=float)
    n, s = outer_cols.shape[-2:]
    p = np.shape(inner[0])[-1]  # columns of [Lam lam], rows per i of the equality block
    r = p - 1
    # [G, c] = outer_cols @ [Lam, lam] with the inner terms moved left:
    # row i*p + j is G[i, j] for j < r and c[i] for j == r
    cols, coefs, consts = (np.reshape(a, np.shape(a)[:-2] + (n * p,)) for a in inner)
    is_c = np.arange(n * p) % p == r
    bounds = np.where(is_c, -(consts - np.repeat(np.asarray(outer_c, dtype=float), p, axis=-1)),
                      consts)
    has_col = _union(cols >= 0, 1)  # an entry is live with a column or a number not 0
    live = has_col if has_col.all() else has_col | _union(bounds != 0, 1)
    pinned = _pinned_witness(_union(outer_cols, 2), live.reshape(n, p))
    # [Lam lam] is the sum of sign * columns over its signed column blocks
    if split:
        P, N = _columns(lp, pinned, lb=0.0), _columns(lp, pinned, lb=0.0)
        handles, signed = {"P": P, "N": N}, [(P, 1.0), (N, -1.0)]
    else:
        Lam, lam = _columns(lp, pinned[:, :r]), _columns(lp, pinned[:, r])
        W = _columns(lp, pinned, lb=0.0)
        handles = {"Lam": Lam, "lam": lam, "W": W}
        signed = [(np.concatenate([Lam, lam[..., None]], axis=-1), 1.0)]
    lead = signed[0][0].shape[:-2]

    own = np.flatnonzero(has_col)
    ii, qq = np.nonzero(_union(outer_cols, 2))
    rows = ((ii * p)[:, None] + np.arange(p)).ravel()
    outer = np.repeat(outer_cols[..., ii, qq], p, axis=-1)
    _add_rows(lp, *_join([(rows, L[..., qq, :].reshape(lead + (-1,)), sign * outer)
                          for L, sign in signed]
                         + [(own, cols[..., own], np.where(is_c[own], coefs[..., own],
                                                           -coefs[..., own]))]),
              bounds, "=")

    cols, coefs, consts = scales
    own = np.flatnonzero(_union(cols >= 0, 1))
    one = np.ones(s * p)
    if split:
        # per q: sum_j (P + N)[q, j] - scale[q] <= 0 in row q
        rowsum = np.repeat(np.arange(s), p)
        _add_rows(lp, *_join([(rowsum, L.reshape(lead + (-1,)), one) for L, _ in signed]
                             + [(own, cols[..., own], -coefs[..., own])]),
                  consts, "<")
        return handles

    # per q: +/-[Lam lam][q, j] - W[q, j] <= 0 in rows q*rq + 2j, q*rq + 2j + 1,
    # then the row sum sum_j W[q, j] - scale[q] <= 0 in row q*rq + 2p
    rq = 2 * p + 1
    plus = ((np.arange(s) * rq)[:, None] + 2 * np.arange(p)).ravel()
    rowsum = np.arange(s) * rq + 2 * p
    bounds = np.zeros(np.shape(consts)[:-1] + (s * rq,))
    bounds[..., rowsum] = consts
    Lam_lam, Wf = signed[0][0].reshape(lead + (-1,)), W.reshape(lead + (-1,))
    _add_rows(lp, *_join([(plus, Lam_lam, one), (plus, Wf, -one), (plus + 1, Lam_lam, -one),
                          (plus + 1, Wf, -one), (np.repeat(rowsum, p), Wf, one),
                          (rowsum[own], cols[..., own], -coefs[..., own])]),
              bounds, "<")
    return handles


def directed_hausdorff(outer, inner):
    """min d >= 0 with Z_inner inside Z_outer + d * unit box (directed Hausdorff).

    Zero iff the rows of :func:`add_scaled_containment` for Z_inner inside
    Z_outer are feasible; the box inflation keeps the program linear and
    always feasible, with at least the column d.
    """
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    n, s = inner.dim, outer.num_generators
    # at feasibility tolerance 1e-10: the optimum is compared with witness
    # bounds to 1e-9
    lp = LinearProgram(name="hausdorff", options=lpcore.TIGHT)
    d = lp.var_block((), lb=0.0)
    scales = affine(np.r_[np.full(s, -1), np.full(n, d)], 1.0, np.r_[np.ones(s), np.zeros(n)])
    add_scaled_containment(lp, numbers(np.column_stack([inner.generators, inner.center])),
                           np.hstack([outer.generators, np.eye(n)]), scales, outer.center)
    lp.set_costs([d], 1.0)
    return max(0.0, lp.solve().objective)


def column_values(sol, cols):
    """``sol.column_values(cols)``, with a column index -1 (the number 0)
    read as 0.0, not as the last column."""
    return np.where(cols >= 0, sol.column_values(cols), 0.0)


def witness_values(sol, handles):
    """The ``[Lam lam]`` array of each containment in ``handles``, by key:
    ``P - N`` in the split form, ``Lam`` and ``lam`` side by side otherwise.

    ``handles`` maps a key to the dict that :func:`add_scaled_containment`
    returned, in either form; ``sol`` is a solution of the LP those rows
    were emitted into.
    """
    return {key: column_values(sol, h["P"]) - column_values(sol, h["N"]) if "P" in h
            else np.column_stack([column_values(sol, h["Lam"]), column_values(sol, h["lam"])])
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

    ``inner`` is a Zonotope, or its generators and center as a pair of
    arrays ``(G, c)``.  Every array may carry leading axes, the same for
    all, for a stack of containments of one shape (a (g, n, r) stack of
    generators, say); the bounds then come back as an array of those axes,
    each bitwise the bound of its containment alone.
    """
    G, c = (inner.generators, inner.center) if isinstance(inner, Zonotope) else inner
    center, cols, scales = (np.asarray(a, dtype=float) for a in (center, cols, scales))
    n, s = cols.shape[-2:]
    if L is None:
        return np.inf
    L = np.asarray(L, dtype=float)
    if np.shape(G)[-2] != n or scales.shape[-1:] != (s,) or \
            L.shape[-2:] != (s, np.shape(G)[-1] + 1):
        return np.inf
    E = np.concatenate([G, (center - c)[..., None]], axis=-1) - cols @ L
    excess = np.maximum(np.abs(L).sum(axis=-1) - scales, 0.0)
    bound = np.max((np.abs(cols) @ excess[..., None])[..., 0] + np.abs(E).sum(axis=-1),
                   axis=-1, initial=0.0)
    return float(bound) if bound.ndim == 0 else bound


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
