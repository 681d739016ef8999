"""Independent oracles used to cross-check the package's LP-based routines.

Everything in here deliberately avoids the package's own solver/geometry code
paths: LPs are solved by brute-force vertex enumeration, zonotope geometry by
enumerating sign patterns and convex hulls.  Slow but trustworthy on small
instances.  The exceptions are the reference emitters and programs at the
end: they build the containment rows and the tube-recursion programs one
LinExpr row at a time (the row-wise LP layer, first below), to check the block
emitters against, each potential program for its one subsystem, to check
the grouped ``build_programs`` against, and the hard extraction as a second
LP per subsystem with its parameters pinned by equality rows, to check
``PotentialProgram.extract`` against; and the geometric network built with
one distance call per pair of points, to check ``network_from_points``'
neighbour prefilter against; and the Monte-Carlo closed loop run subsystem
by subsystem on (S, n_i) arrays, to check ``runtime``'s network-stacked
loop against, with the loop's set-up one (member, step) at a time: Omega
and Theta as zonotopes, one pseudo-inverse and one set of vertex systems
per tail, to check the set-up stacked by tail shape against, and the
vertex witness one chunk of samples at a time.  Then come small helpers
that only the tests use (support functions, interval hulls, Minkowski
sums, zonogon areas, scaled generators and promised tubes, the exact
augmented disturbance, a beta grid and a k escalation over
``viability.rci``, a trajectory CSV writer), which call the package
freely.  Last, ``check_correctness`` one containment at a
time, with the witness bound and the recursion residual on 2-D arrays, to
check the stacked certification against.  W's blocks one neighbour at a
time (``aug_blocks``), to check the grouped pass against, sit with the
reference emitters.

The row-wise LP layer
---------------------
``lpcore`` speaks column and row indices only.  The functions of the
row-wise layer write a ``LinearProgram`` one row per call, as expression
arithmetic over ``lpcore.LinExpr`` (``var``/``var_array``, ``lin_sum``,
``col_exprs``, ``add_eq``/``add_le``/``add_ge`` and ``minimize``), and read
a solution back by expression (``value``) and by row (``sensitivity``,
``dual``, ``kkt_residuals``, ``duality_gap``).  They work on the program's
assembled arrays and on HiGHS's own row duals, which ``lpcore`` does not
read.

Sign conventions: ``sensitivity(sol, row)`` is always d(objective)/d(rhs)
of row ``row``.  ``dual(sol, row)`` applies the textbook sign convention
for a minimization: duals of ``<=`` rows are >= 0 (i.e. the negated
sensitivity), duals of ``=`` and ``>=`` rows are the sensitivity itself.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from zonosynth.lpcore import OPTIMAL, LinearProgram, LinExpr, _LpBatch, as_expr

INF = float("inf")
_LE, _GE = ord("<"), ord(">")


# ---------------------------------------------------------------------------
# the row-wise LP layer


def lin_sum(items):
    """Sum an iterable of LinExpr/floats without quadratic dict copying."""
    terms = {}
    const = 0.0
    for item in items:
        if isinstance(item, LinExpr):
            const += item.const
            for col, coef in item.terms.items():
                terms[col] = terms.get(col, 0.0) + coef
        else:
            const += float(item)
    return LinExpr(terms, const)


def col_exprs(cols):
    """The variables with column indices ``cols`` as an object array of
    LinExpr of the same shape."""
    cols = np.asarray(cols)
    out = np.empty(cols.shape, dtype=object)
    out.reshape(-1)[:] = [LinExpr({c: 1.0}) for c in cols.ravel().tolist()]
    return out


def var(lp, lb=-INF, ub=INF):
    """A fresh variable of ``lp``, as a single-term LinExpr."""
    return LinExpr({int(lp.var_block((), lb, ub)): 1.0})


def var_array(lp, shape, lb=-INF, ub=INF):
    """Fresh variables of ``lp`` of ``shape``, as an object array of LinExpr."""
    return col_exprs(lp.var_block(shape, lb=lb, ub=ub))


def minimize(lp, expr):
    """Make the LinExpr ``expr`` the objective: its coefficients are the
    costs, every other column costs 0.  ``lpcore`` keeps no objective
    constant, so ``expr`` must have none."""
    expr = as_expr(expr)
    if expr.const:
        raise ValueError("objective constants are not kept")
    lp.set_costs(np.arange(lp.num_vars), 0.0)
    if expr.terms:
        lp.set_costs(list(expr.terms), list(expr.terms.values()))


def value(sol, expr):
    """A LinExpr, a number, or an (object) array or list of them, at ``sol``."""
    if isinstance(expr, LinExpr):
        x = sol.column_values(np.array(list(expr.terms), dtype=np.int64))
        total = expr.const
        for v, xc in zip(expr.terms.values(), x.tolist()):
            total += v * xc
        return float(total)
    if isinstance(expr, np.ndarray) and expr.dtype == object:
        out = np.empty(expr.shape, dtype=float)
        for idx in np.ndindex(expr.shape):
            out[idx] = value(sol, expr[idx])
        return out
    if isinstance(expr, (list, tuple)):
        return np.array([value(sol, e) for e in expr])
    sol._require_solution()
    return float(expr)


def _row_sens(sol):
    """HiGHS's row duals of ``sol``: d(objective)/d(rhs) per row."""
    sol._require_solution()
    return np.asarray(sol._duals.row_dual, dtype=float)


def sensitivity(sol, row):
    """d(objective)/d(rhs) of row ``row`` (an index)."""
    if not 0 <= row < sol.lp.num_rows:
        raise IndexError(f"no row {row!r} in {sol.lp.name!r}")
    return float(_row_sens(sol)[row])


def dual(sol, row):
    """Dual of row ``row``, with the >= 0 convention for <= rows in a
    minimization."""
    sens = sensitivity(sol, row)
    return -sens if sol.lp._senses()[row] == _LE else sens


def kkt_residuals(sol):
    """Max primal/dual-feasibility and stationarity residuals of ``sol``.

    A cheap independent check that the reported solution and duals are
    mutually consistent.
    """
    lp = sol.lp
    y = _row_sens(sol)
    x = sol.column_values(np.arange(lp.num_vars))
    z = sol.column_duals(np.arange(lp.num_vars))
    start, index, coefs, cost, lb, ub, rlo, rhi = lp._assemble()
    cols = np.repeat(np.arange(lp.num_vars), np.diff(start))
    ax = np.bincount(index, weights=coefs * x[cols], minlength=lp.num_rows)
    # infinite row bounds give -inf terms, which never win the max
    primal = max(float(np.max(rlo - ax, initial=0.0)),
                 float(np.max(ax - rhi, initial=0.0)),
                 float(np.max(lb - x, initial=0.0)),
                 float(np.max(x - ub, initial=0.0)))
    # sensitivity signs: <= rows need y <= 0, >= rows y >= 0
    sense = lp._senses()
    dual_sign = max(float(np.max(y[sense == _LE], initial=0.0)),
                    float(np.max(-y[sense == _GE], initial=0.0)))
    aty = np.bincount(cols, weights=coefs * y[index], minlength=lp.num_vars)
    stationarity = float(np.max(np.abs(cost - aty - z), initial=0.0))
    return {"primal": primal, "dual_sign": dual_sign, "stationarity": stationarity}


def duality_gap(sol):
    """|primal objective - dual objective| (strong-duality spot check)."""
    lp = sol.lp
    y = _row_sens(sol)
    z = sol.column_duals(np.arange(lp.num_vars))
    _, _, _, _, lb, ub, rlo, rhi = lp._assemble()
    rhs = np.where(lp._senses() == _LE, rhi, rlo)
    used = y != 0.0
    at_lb = (z > 0) & (lb != -INF)
    at_ub = (z < 0) & (ub != INF)
    dual_val = float(y[used] @ rhs[used] + z[at_lb] @ lb[at_lb] + z[at_ub] @ ub[at_ub])
    return abs(sol.objective - dual_val)


# ---------------------------------------------------------------------------
# brute-force LP solving


def solve_lp_by_vertex_enumeration(c, A, row_lo, row_hi, xlb, xub, tol=1e-8):
    """Minimize c.x s.t. row_lo <= A x <= row_hi, xlb <= x <= xub.

    All variable bounds must be finite so the feasible region is a polytope;
    the optimum (if any) is then attained at a vertex, i.e. at the
    intersection of n active constraint hyperplanes.  Returns
    (status, objective, x) with status "optimal" or "infeasible".
    """
    c = np.asarray(c, dtype=float)
    n = len(c)
    planes = []  # (normal, offset) pairs: normal.x == offset
    rows = []  # (normal, lo, hi) for feasibility checking
    A = np.asarray(A, dtype=float).reshape(-1, n) if np.size(A) else np.zeros((0, n))
    row_lo = np.atleast_1d(np.asarray(row_lo, dtype=float))
    row_hi = np.atleast_1d(np.asarray(row_hi, dtype=float))
    for k in range(A.shape[0]):
        rows.append((A[k], row_lo[k], row_hi[k]))
        if row_lo[k] != -INF:
            planes.append((A[k], row_lo[k]))
        if row_hi[k] != INF and row_hi[k] != row_lo[k]:
            planes.append((A[k], row_hi[k]))
    eye = np.eye(n)
    for i in range(n):
        rows.append((eye[i], xlb[i], xub[i]))
        planes.append((eye[i], xlb[i]))
        planes.append((eye[i], xub[i]))

    scale = max(1.0, max(abs(lo) for _, lo, _ in rows if lo != -INF),
                max(abs(hi) for _, _, hi in rows if hi != INF))

    def feasible(x):
        for normal, lo, hi in rows:
            v = normal @ x
            if lo != -INF and v < lo - tol * scale:
                return False
            if hi != INF and v > hi + tol * scale:
                return False
        return True

    best = None
    best_x = None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[k][0] for k in combo])
        b = np.array([planes[k][1] for k in combo])
        try:
            x = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if feasible(x):
            val = c @ x
            if best is None or val < best:
                best, best_x = val, x
    if best is None:
        return "infeasible", None, None
    return "optimal", float(best), best_x


def random_bounded_lp(rng, max_vars=4):
    """A random LP with finite box bounds (so vertex enumeration is sound)."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, 4))
    c = rng.uniform(-2, 2, size=n)
    A = np.round(rng.uniform(-2, 2, size=(m, n)), 3)
    sense = rng.integers(0, 3, size=m)  # 0: <=, 1: >=, 2: ==
    rhs = np.round(rng.uniform(-1.5, 1.5, size=m), 3)
    lo = np.where(sense == 0, -INF, rhs)
    hi = np.where(sense == 1, INF, rhs)
    xlb = -np.round(rng.uniform(0.5, 3.0, size=n), 3)
    xub = np.round(rng.uniform(0.5, 3.0, size=n), 3)
    return c, A, lo, hi, xlb, xub


# ---------------------------------------------------------------------------
# brute-force zonotope geometry (dimension <= 2, few generators)


def zonotope_points(center, generators, sign_patterns=None):
    """All extreme-candidate points c + G s over sign patterns s in {-1,1}^p."""
    center = np.asarray(center, dtype=float)
    G = np.asarray(generators, dtype=float)
    p = G.shape[1] if G.ndim == 2 else 0
    if p == 0:
        return center.reshape(1, -1)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=p)))
    return center + signs @ G.T


def sample_zonotope(center, generators, num, rng):
    center = np.asarray(center, dtype=float)
    G = np.asarray(generators, dtype=float)
    p = G.shape[1]
    zeta = rng.uniform(-1.0, 1.0, size=(num, p))
    return center + zeta @ G.T


def support_value(center, generators, direction):
    """Support function of Z(center, generators) at ``direction``."""
    center = np.asarray(center, dtype=float)
    G = np.asarray(generators, dtype=float).reshape(len(center), -1)
    return float(direction @ center + np.abs(direction @ G).sum())


def facet_normals_2d(generators):
    """Candidate facet normals of a zonogon: perpendiculars of its generators.

    For degenerate (segment) zonogons the generator directions themselves are
    appended so the end caps are covered; extra directions are harmless since
    support inequalities hold for every direction.
    """
    G = np.asarray(generators, dtype=float).reshape(2, -1)
    normals = []
    for k in range(G.shape[1]):
        g = G[:, k]
        if np.abs(g).max() < 1e-14:
            continue
        normals.append(np.array([-g[1], g[0]]))
        normals.append(np.array([g[1], -g[0]]))
        normals.append(g.copy())
        normals.append(-g.copy())
    normals.extend([np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                    np.array([0.0, 1.0]), np.array([0.0, -1.0])])
    return normals


def directed_hausdorff_oracle_2d(outer_center, outer_gens, inner_center, inner_gens):
    """Exact inf-norm directed Hausdorff d(inner -> outer) for 2-D zonotopes.

    d = min{ r : inner subset of outer + r*[-1,1]^2 }.  The inflated set's
    facet normals are the outer's facet normals plus the box's (+-e_i); for
    each such n the containment tightens to
    h_inner(n) <= h_outer(n) + r*|n|_1, so the minimal r is the max deficit.
    """
    worst = 0.0
    for n in facet_normals_2d(outer_gens):
        denom = np.abs(n).sum()
        if denom < 1e-14:
            continue
        deficit = (support_value(inner_center, inner_gens, n)
                   - support_value(outer_center, outer_gens, n)) / denom
        worst = max(worst, deficit)
    return max(0.0, worst)


def directed_hausdorff_oracle_1d(outer_center, outer_gens, inner_center, inner_gens):
    oc = float(np.asarray(outer_center).ravel()[0])
    ic = float(np.asarray(inner_center).ravel()[0])
    orad = float(np.abs(np.asarray(outer_gens)).sum())
    irad = float(np.abs(np.asarray(inner_gens)).sum())
    lo_gap = (oc - orad) - (ic - irad)
    hi_gap = (ic + irad) - (oc + orad)
    return max(0.0, lo_gap, hi_gap)


def contains_sampled_points_2d(outer_center, outer_gens, points, tol=1e-9):
    """True if every point satisfies all support inequalities of the zonogon.

    Facet normals are sufficient for membership in a (possibly degenerate)
    zonogon, so a violated inequality proves the point is outside.
    """
    for n in facet_normals_2d(outer_gens):
        off = support_value(outer_center, outer_gens, n)
        if np.any(points @ n > off + tol * max(1.0, abs(off))):
            return False
    return True


def interval_hull_oracle(center, generators):
    center = np.asarray(center, dtype=float)
    radius = np.abs(np.asarray(generators, dtype=float)).sum(axis=1)
    return center - radius, center + radius


# ---------------------------------------------------------------------------
# reference LP emitters and matrices


def add_scaled_containment_rowwise(lp, inner_G, inner_c, outer_cols, outer_scales,
                                   outer_c, split=True):
    """Row-at-a-time reference for ``geom.add_scaled_containment``, in the
    same form (``split``).

    Emits the same variables and rows through ``add_eq``/``add_le`` and
    LinExpr arithmetic, one row per call, and returns the handles as LinExpr
    arrays.  ``inner_G``/``inner_c``/``outer_scales`` entries are LinExpr
    or numbers.  The G, |[Lam lam]| and row-sum rows are written as
    ``-(right - left)``: that moves a zero constant right as +0.0, the sign
    the block emitter gives it, so the programs built with this reference
    match the package's bit for bit.  In the split form ``[Lam lam]`` is the
    expression array ``P - N``.
    """
    outer_cols = np.asarray(outer_cols, dtype=float)
    n, s = outer_cols.shape
    inner_G = np.asarray(inner_G, dtype=object).reshape(n, -1)
    r = inner_G.shape[1]
    if split:
        P = var_array(lp, (s, r + 1), lb=0.0)
        N = var_array(lp, (s, r + 1), lb=0.0)
        handles = {"P": P, "N": N}
        Lam_lam = P - N
    else:
        Lam = var_array(lp, (s, r)) if s and r else np.empty((s, r), dtype=object)
        lam = var_array(lp, s) if s else np.empty(0, dtype=object)
        W = var_array(lp, (s, r + 1), lb=0.0) if s else np.empty((s, r + 1), dtype=object)
        handles = {"Lam": Lam, "lam": lam, "W": W}
        Lam_lam = np.column_stack([Lam, lam])

    for i in range(n):
        row_cols = np.nonzero(outer_cols[i])[0]
        for j in range(r):
            expr = lin_sum(outer_cols[i, q] * Lam_lam[q, j] for q in row_cols)
            lp.add_eq(-(as_expr(inner_G[i, j]) - expr), 0.0)
        expr = lin_sum(outer_cols[i, q] * Lam_lam[q, r] for q in row_cols)
        lp.add_eq(expr + as_expr(inner_c[i]) - as_expr(outer_c[i]), 0.0)

    for q in range(s):
        if split:
            total = lin_sum(P[q, j] + N[q, j] for j in range(r + 1))
        else:
            for j in range(r + 1):
                lp.add_le(-(W[q, j] - Lam_lam[q, j]), 0.0)
                lp.add_le(-Lam_lam[q, j] - W[q, j], 0.0)
            total = lin_sum(W[q, j] for j in range(r + 1))
        lp.add_le(-(as_expr(outer_scales[q]) - total), 0.0)
    return handles


def membership_lp_rowwise(Z, x):
    """Row-at-a-time reference for ``geom.membership_lp``: the same LP
    min |zeta|_inf s.t. x = c + G zeta, with the point as columns fixed at
    ``x`` and one ``add_eq``/``add_le`` per row; returns the LP, zeta and
    the point as LinExpr."""
    p = Z.num_generators
    lp = LinearProgram(name="member")
    zeta = var_array(lp, p)
    q = var(lp, lb=0.0)
    point = [var(lp, lb=float(x[i]), ub=float(x[i])) for i in range(Z.dim)]
    for i in range(Z.dim):
        expr = lin_sum(Z.generators[i, k] * zeta[k] for k in range(p))
        lp.add_eq(expr - point[i], -float(Z.center[i]))
    for k in range(p):
        lp.add_le(zeta[k] - q, 0.0)
        lp.add_le(-zeta[k] - q, 0.0)
    minimize(lp, q)
    return lp, zeta, point


def dense_matrix(rows, num_cols):
    """Dense constraint matrix of rows given as lists of (column, coefficient);
    repeated columns are summed left to right."""
    M = np.zeros((len(rows), num_cols))
    for r, terms in enumerate(rows):
        for col, coef in terms:
            M[r, col] += coef
    return M


def csc_arrays(M):
    """(start, index, value) of the nonzeros of dense ``M``, column by column."""
    start, index, value = [0], [], []
    for col in range(M.shape[1]):
        nz = np.nonzero(M[:, col])[0]
        index.extend(nz.tolist())
        value.extend(M[nz, col].tolist())
        start.append(len(index))
    return np.array(start), np.array(index, dtype=int), np.array(value, dtype=float)


# ---------------------------------------------------------------------------
# reference tube-recursion programs, one LinExpr row at a time


def lin_matmul(A, X):
    """Matrix product of a numeric matrix ``A`` with an expression matrix ``X``.

    The reference programs below build their recursion rows with it.

    ``X`` entries may be LinExpr or numbers; returns an object array of
    LinExpr.  Zero coefficients in ``A`` are skipped.
    """
    A = np.asarray(A, dtype=float)
    X = np.asarray(X, dtype=object)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
        squeeze = True
    else:
        squeeze = False
    n, s = A.shape
    if X.shape[0] != s:
        raise ValueError(f"lin_matmul shape mismatch: {A.shape} @ {X.shape}")
    out = np.empty((n, X.shape[1]), dtype=object)
    for i in range(n):
        row = A[i]
        nz = np.nonzero(row)[0]
        for j in range(X.shape[1]):
            out[i, j] = lin_sum(row[k] * as_expr(X[k, j]) for k in nz)
    return out[:, 0] if squeeze else out


def _recursion_rows_rowwise(lp, A, B, T, M, xbar, ubar, wcols, w_center, T_next,
                            x_next, left):
    """The recursion rows of one step: ``[A T + B M, W] = [left, T_next]`` row
    by row (``left[i][j]`` an expression, or 0.0), then the center rows.
    ``wcols`` holds the W columns as lists of LinExpr or numbers."""
    n, w = T.shape
    p = len(wcols)
    shift = w + p - T_next.shape[1]
    flow = lin_matmul(A, T)
    if M is not None:
        flow = flow + lin_matmul(B, M)
    for i in range(n):
        for j in range(w + p):
            lhs = flow[i, j] if j < w else wcols[j - w][i]
            rhs = left[i][j] if j < shift else T_next[i, j - shift]
            lp.add_eq(lhs - rhs, 0.0)
    drift = lin_matmul(A, xbar.reshape(-1, 1))[:, 0]
    if M is not None:
        drift = drift + lin_matmul(B, ubar.reshape(-1, 1))[:, 0]
    for i in range(n):
        lp.add_eq(drift[i] + float(w_center[i]) - x_next[i], 0.0)


def _size_objective(lp, blocks):
    from zonosynth.viability import _abs_objective

    minimize(lp, LinExpr(dict.fromkeys(_abs_objective(lp, blocks).tolist(), 1.0)))


def finite_viable_lp_rowwise(A_seq, B_seq, W_seq, X_seq, U_seq, k):
    """Row-at-a-time reference for ``viability.viable_lp``'s finite-horizon
    LP."""
    h = len(A_seq)
    n = A_seq[0].shape[0]
    m = B_seq[0].shape[1]
    p = [W.num_generators for W in W_seq]
    widths = [k]
    for t in range(h):
        widths.append(widths[-1] + p[t])
    lp = LinearProgram(name="viable")
    Tc = [lp.var_block((n, widths[t])) for t in range(h + 1)]
    T = [col_exprs(c) for c in Tc]
    xbar = [var_array(lp, n) for _ in range(h + 1)]
    M = [var_array(lp, (m, widths[t])) for t in range(h)] if m else None
    ubar = [var_array(lp, m) for _ in range(h)] if m else None
    for t in range(h):
        Gw = W_seq[t].generators
        _recursion_rows_rowwise(lp, A_seq[t], B_seq[t], T[t], M[t] if m else None,
                                xbar[t], ubar[t] if m else None,
                                [[float(v) for v in Gw[:, j]] for j in range(p[t])],
                                W_seq[t].center, T[t + 1], xbar[t + 1],
                                [[0.0] * (widths[t] + p[t])] * n)

    def plain(inner_G, inner_c, outer):
        add_scaled_containment_rowwise(lp, inner_G, inner_c, outer.generators,
                                       [1.0] * outer.num_generators, outer.center)

    for t in range(h + 1):
        plain(T[t], xbar[t], X_seq[t])
    if m:
        for t in range(h):
            plain(M[t], ubar[t], U_seq[t])
    _size_objective(lp, Tc)
    return lp


def rci_lp_rowwise(A, B, W, X, U, k, beta=0.0):
    """Row-at-a-time reference for ``viability.viable_lp``'s invariant
    (one-step) LP."""
    n = A.shape[0]
    m = B.shape[1]
    p = W.num_generators
    sigma = 1.0 / (1.0 - beta)
    lp = LinearProgram(name="rci")
    Tc = lp.var_block((n, k))
    T = col_exprs(Tc)
    xbar = var_array(lp, n)
    M = var_array(lp, (m, k)) if m else None
    ubar = var_array(lp, m) if m else None
    E = None if beta == 0.0 else var_array(lp, (n, p))
    Gw = W.generators
    _recursion_rows_rowwise(lp, A, B, T, M, xbar, ubar,
                            [[float(v) for v in Gw[:, j]] for j in range(p)], W.center,
                            T, xbar, [[0.0] * (k + p)] * n if E is None else E)
    if E is not None:
        add_scaled_containment_rowwise(lp, E, np.zeros(n), Gw, [beta] * p, np.zeros(n))
    add_scaled_containment_rowwise(lp, sigma * T, xbar, X.generators,
                                   [1.0] * X.num_generators, X.center)
    if m:
        add_scaled_containment_rowwise(lp, sigma * M, ubar, U.generators,
                                       [1.0] * U.num_generators, U.center)
    _size_objective(lp, [Tc])
    return lp


def _w_expr_columns(blocks, split, alpha_cols, n):
    """W_i generator columns as LP expressions: kept exact, remainder boxed."""
    allcols = [(bi, ci) for bi, block in enumerate(blocks) for ci in range(block.cols.shape[1])]
    kept, boxed = ([allcols[c] for c in part] for part in split)
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


@dataclass(frozen=True)
class AugBlock:
    """One generator block of an augmented disturbance: scaled by one alpha."""

    kind: str  # "state" | "input" | "local"
    source: object  # neighbor id, or None for the local disturbance
    cols: np.ndarray  # base columns before any alpha scaling


def aug_blocks(network, template, sid, t):
    """Center and column blocks of W_i(t, alpha) for subsystem ``sid``, one
    neighbor at a time: the reference for ``contracts._aug_group``, in its
    block order."""
    from zonosynth.contracts import ContractError, _at, _input_coupling

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


def emit_subsystem_rowwise(lp, network, template, sid, alpha_of, k=None,
                           reduction_order=1, slack=True):
    """Row-at-a-time reference for ``contracts.emit_subsystem``; ``alpha_of``
    returns column indices, as there.  Returns the column indices of the
    tubes T and of the slack columns d (state steps, then input steps)."""
    from zonosynth.contracts import _at, _choose_columns

    sub = network.subsystem(sid)
    n, m = sub.n, sub.m
    steps = network.num_steps
    finite = network.mode == "finite"
    structure = [aug_blocks(network, template, sid, t) for t in range(steps)]
    splits = [_choose_columns(np.hstack([b.cols for b in blocks]), n, reduction_order)
              for _, blocks in structure]
    p_red = [len(kept) + (n if len(boxed) else 0) for kept, boxed in splits]
    if k is None:
        k = n if finite else n + p_red[0]

    def alpha(j, channel, t):
        return col_exprs(alpha_of(j, channel, t))

    steps_x = steps + 1 if finite else 1
    widths = [k]
    if finite:
        for t in range(steps):
            widths.append(widths[-1] + p_red[t])
    Tc = [lp.var_block((n, widths[t])) for t in range(steps_x)]
    T = [col_exprs(c) for c in Tc]
    xbar = [var_array(lp, n) for _ in range(steps_x)]
    M = [var_array(lp, (m, widths[t])) for t in range(steps)] if m else None
    ubar = [var_array(lp, m) for _ in range(steps)] if m else None
    d_cols = [lp.var_block(1, lb=0.0)[0] for _ in range(steps_x)] if slack else []
    d_cols += [lp.var_block(1, lb=0.0)[0] for _ in range(steps)] if slack and m else []
    d_x = col_exprs(d_cols[:steps_x]) if slack else None
    d_u = col_exprs(d_cols[steps_x:]) if slack and m else None

    for t in range(steps):
        center_w, blocks = structure[t]
        alpha_cols = [None if b.kind == "local" else
                      alpha(b.source, "x" if b.kind == "state" else "u", t) for b in blocks]
        wcols = _w_expr_columns(blocks, splits[t], alpha_cols, n)
        _recursion_rows_rowwise(lp, sub.A_at(t), sub.B_at(t), T[t], M[t] if m else None,
                                xbar[t], ubar[t] if m else None, wcols, center_w,
                                T[t + 1] if finite else T[0],
                                xbar[t + 1] if finite else xbar[0],
                                [[0.0] * (widths[t] + p_red[t])] * n)

    for t in range(steps_x):
        cx, Cx = _at(template.state[sid], t)
        scales = list(alpha(sid, "x", t))
        outer_cols = Cx
        if slack:
            outer_cols = np.hstack([Cx, np.eye(n)])
            scales = scales + [d_x[t]] * n
        add_scaled_containment_rowwise(lp, T[t], xbar[t], outer_cols, scales,
                                       np.asarray(cx, dtype=float), split=not slack)
    if finite:
        Xh = sub.X_at(steps)
        add_scaled_containment_rowwise(lp, T[steps], xbar[steps], Xh.generators,
                                       [1.0] * Xh.num_generators, Xh.center,
                                       split=not slack)
    if m:
        for t in range(steps):
            if sid in template.input:
                cu, Cu = _at(template.input[sid], t)
                scales = list(alpha(sid, "u", t))
                outer_cols, outer_c = Cu, np.asarray(cu, dtype=float)
            else:
                U_t = sub.U_at(t)
                scales = [1.0] * U_t.num_generators
                outer_cols, outer_c = U_t.generators, U_t.center
            if slack:
                outer_cols = np.hstack([outer_cols, np.eye(m)])
                scales = scales + [d_u[t]] * m
            add_scaled_containment_rowwise(lp, M[t], ubar[t], outer_cols, scales, outer_c,
                                           split=not slack)
    return Tc, np.array(d_cols, dtype=np.int64)


def potential_lp_rowwise(network, template, sid, k=None, reduction_order=1):
    """Reference for the LP of ``contracts.build_programs(...)[sid]``, built
    for this one subsystem: its own multipliers first (fixed at 0), then
    :func:`emit_subsystem_rowwise` with every other multiplier a column made
    when W first asks for it, then the size aux columns of sum |T|; the
    slack columns cost 1."""
    from zonosynth.contracts import _at
    from zonosynth.viability import _abs_objective

    lp = LinearProgram(name=f"potential[{sid}]")
    alphas = {}

    def alpha_of(j, channel, t):
        if (j, channel, t) not in alphas:
            entries = template.state[j] if channel == "x" else template.input[j]
            alphas[(j, channel, t)] = lp.var_block(_at(entries, t)[1].shape[1],
                                                   lb=0.0, ub=0.0)
        return alphas[(j, channel, t)]

    steps = network.num_steps
    for t in range(steps + 1 if network.mode == "finite" else 1):
        alpha_of(sid, "x", t)
    if network.subsystem(sid).m and sid in template.input:
        for t in range(steps):
            alpha_of(sid, "u", t)
    T, slack = emit_subsystem_rowwise(lp, network, template, sid, alpha_of, k=k,
                                      reduction_order=reduction_order, slack=True)
    _abs_objective(lp, T)
    lp.set_costs(slack, 1.0)
    return lp


# ---------------------------------------------------------------------------
# reference hard extraction: a second LP per subsystem, parameters pinned


class ExtractionProgram:
    """Subsystem ``sid``'s hard extraction LP, built on its own.

    Every multiplier is a variable pinned by an equality row; the
    containments in the own promise are hard, and the objective is the
    total template size sum |T|.  ``solve`` builds the program afresh, as a
    batch of one, with the bounds of its pin rows set to the parameters.
    """

    def __init__(self, network, template, sid, k=None, reduction_order=1):
        self.sid = sid
        self._args = (network, template, sid, k, reduction_order)

    def solve(self, params):
        """The tubes at ``params``, or None if the hard problem is infeasible."""
        from zonosynth.contracts import _at, _numeric_solution, emit_subsystem
        from zonosynth.viability import _abs_objective

        network, template, sid, k, reduction_order = self._args
        batch = _LpBatch([f"extract[{sid}]"])
        pins = {}

        def alpha_of(j, channel, t):
            if (j, channel, t) not in pins:
                values = _at(params.x[j] if channel == "x" else params.u[j], t)
                q = len(values)
                cols = batch.var_block(q)
                batch.add_rows(np.arange(q), cols, np.ones(q), np.maximum(values, 0.0), "=")
                pins[(j, channel, t)] = cols[0]
            return pins[(j, channel, t)]

        steps = network.num_steps
        for t in range(steps + 1 if network.mode == "finite" else 1):
            alpha_of(sid, "x", t)
        if network.subsystem(sid).m and sid in template.input:
            for t in range(steps):
                alpha_of(sid, "u", t)
        (handles,) = emit_subsystem(batch, network, template, [sid], [alpha_of], k=k,
                                    reduction_order=reduction_order, slack=False)
        size = _abs_objective(batch, [T[None] for T in handles.T])
        (lp,) = batch.programs()
        lp.set_costs(size[0], 1.0)
        sol = lp.solve()
        if sol.status == "infeasible":
            return None
        assert sol.status == "optimal", sol.status
        return _numeric_solution(sol, handles)


# ---------------------------------------------------------------------------
# geometric networks, one distance per pair


def network_from_points_pairwise(points, lam, radius=10.0, template=None):
    """``sysmodel.network_from_points`` with every pair of points tested."""
    from zonosynth.geom import Zonotope
    from zonosynth.sysmodel import DEFAULT_GEOMETRIC, Coupling, Network, Subsystem

    points = np.asarray(points, dtype=float)
    tpl = dict(DEFAULT_GEOMETRIC, **(template or {}))
    A_ii = np.asarray(tpl["A_ii"], dtype=float)
    B_ii = np.asarray(tpl["B_ii"], dtype=float)
    X, U, D = (Zonotope.from_json(tpl[key]) for key in ("X", "U", "D"))
    subsystems = []
    for i in range(len(points)):
        couplings = {}
        for j in range(len(points)):
            if i == j:
                continue
            dist = float(np.linalg.norm(points[i] - points[j]))
            if dist < radius:
                couplings[j] = Coupling((lam / (1.0 + dist) * np.ones((2, 2)),))
        subsystems.append(Subsystem(i, (A_ii,), (B_ii,), (X,), (U,), (D,), couplings))
    return Network("infinite", None, subsystems).validate()


# ---------------------------------------------------------------------------
# the closed loop, one subsystem at a time


def _row_norms(a):
    """|row|_inf of every row of ``a`` (0 without columns)."""
    return np.abs(np.asfortranarray(a)).max(axis=1, initial=0.0)


def _diag_radii(G):
    """Radii if the generator block G is a (possibly zero-padded) diagonal."""
    if G.shape[0] != G.shape[1]:
        return None
    off = G - np.diag(np.diag(G))
    if np.any(off != 0.0):
        return None
    return np.diag(G)


def _tail_guess(tail, resid):
    """Coordinates zw with resid ~ zw @ tail.T, row by row: the division
    when the tail is diagonal (its radii are returned too), the
    least-squares guess otherwise (radii None)."""
    radii = _diag_radii(tail)
    if radii is None:
        return resid @ np.linalg.pinv(tail).T, None
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(radii != 0.0, resid / radii, 0.0), radii


def _witness_ok(tail, resid, zw, radii=None):
    """Rows where zw is a witness: |zw|_inf <= 1 + 1e-9 and zw @ tail.T
    reconstructs resid within 1e-9 (NaN rows fail)."""
    recon = zw @ tail.T if radii is None else zw * radii
    return (_row_norms(zw) <= 1.0 + 1e-9) & (_row_norms(resid - recon) <= 1e-9)


def _witness_per_subsystem(network, solutions, t, states):
    from zonosynth.geom import contains_point
    from zonosynth.runtime import OutsideViableSet

    zeta = {}
    for sid in network.sorted_ids():
        inside, zeta[sid] = contains_point(solutions[sid].omega(t), states[sid])
        if not inside.all():
            raise OutsideViableSet(sid, t)
    return zeta


def _closed_loop_per_subsystem(network, solutions, t, states, zeta, d):
    """One synchronous update of per-subsystem (S, n_i) states; returns
    (next, inputs)."""
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


def _rewitness_per_subsystem(network, solutions, t, states, zeta, alive, report,
                             chain=True):
    """Advance the witnesses to the states at t + 1, subsystem by subsystem
    in sorted order: chained tail, tail LP, tube LP; or, with ``chain``
    False, the tube LP for every live state (the all-tube-LP reference)."""
    from zonosynth.geom import Zonotope, contains_point

    def lp_witness(Z, points):
        if Z.num_generators:
            report.lp_rewitness += len(points)
        return contains_point(Z, points)

    for sid in network.sorted_ids():
        sol = solutions[sid]
        rci = sol.horizon is None
        om_next = sol.omega(t + 1)
        G = om_next.generators
        k_next = G.shape[1]
        p = (sol.W[0] if rci else sol.W[t]).num_generators
        base = zeta[sid][:, p:] if rci else zeta[sid]
        new_zeta = np.zeros((len(alive), k_next))
        if chain:
            tail = G[:, k_next - p:]
            resid = states[sid] - (om_next.center + base @ G[:, :k_next - p].T)
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
            if chain:
                report.witness_losses += int(inside.sum())
            out = redo[~inside]
            report.violations += out.size
            alive[out] = False
            if out.size and report.first_violation is None:
                report.first_violation = (sid, t + 1)
        zeta[sid] = new_zeta


def vertex_systems_one_tail(G):
    """``runtime._vertex_systems`` for the one tail G (n, p): the inverses
    of its regular vertex systems (K', n, n) and their indices (K',), or
    None."""
    import math

    from zonosynth.runtime import _VERTICES, _vertex_index

    n, p = G.shape
    if not 0 < n <= p or math.comb(p, n - 1) << (p - n) > _VERTICES:
        return None
    F, R, s = _vertex_index(n, p)[:3]
    M = np.empty((len(s), n, n))
    M[:, :, :-1] = G[:, F].transpose(1, 0, 2)
    M[:, :, -1] = np.einsum("ikr,kr->ki", G[:, R], s)
    keep = np.flatnonzero(np.abs(np.linalg.det(M)) > 1e-12 * np.prod(
        np.linalg.norm(M, axis=1), axis=-1))
    if not keep.size:
        return None
    return np.linalg.inv(M[keep]), keep


def vertex_witness_chunk_by_chunk(systems, tail, resid, buf):
    """``runtime._vertex_witness`` with one product per chunk of the
    samples that fit ``buf``."""
    from zonosynth.runtime import _scratch, _vertex_index

    inv, keep = systems
    F, R, s = _vertex_index(*tail.shape)[:3]
    K, n = inv.shape[:2]
    z = np.empty((tail.shape[1], resid.shape[1]))
    chunk = max(1, buf.size // (K * n))
    for a in range(0, resid.shape[1], chunk):
        r = resid[:, a:a + chunk]
        cand = np.matmul(inv, r, out=_scratch(buf, (K, n, r.shape[1])))
        np.abs(cand, out=cand)
        t = cand[:, -1]
        t[(cand[:, :-1] > t[:, None] * (1.0 + 1e-12)).any(axis=1)] = np.inf
        best = t.argmin(axis=0)
        sol = np.matmul(inv[best], r.T[:, :, None])[:, :, 0].T
        k, cols = keep[best], np.arange(a, a + r.shape[1])
        z[F[k].T, cols] = sol[:-1]
        z[R[k].T, cols] = s[k].T * sol[-1]
    return z


class PerMemberGroup:
    """A ``runtime._Group`` whose tube steps are built at set-up, one
    (member, step) at a time, and whose vertex systems are those of one
    tail (``vertex_systems_one_tail``)."""

    def __init__(self, pos, rows, urows, start, steps):
        self.pos, self.rows, self.urows, self.start = pos, rows, urows, start
        self.inputs = self.scratch = None
        self.steps = steps      # _TubeStep per index of the tubes' lists
        self._vertices = {}

    def at(self, t):
        return self.steps[0] if len(self.steps) == 1 else self.steps[t]

    def spend(self, t):
        if len(self.steps) > 1:
            self.steps[t] = None

    def vertex_systems(self, t, i):
        key = (t if len(self.steps) > 1 else 0, i)
        if key not in self._vertices:
            self._vertices[key] = vertex_systems_one_tail(self.at(t).tail[i])
        return self._vertices[key]


def groups_per_member(network, solutions, ids, steps, state_slices,
                      input_slices):
    """``runtime._groups`` one (member, step) at a time: Omega(t+1) and
    Theta(t) built as zonotopes by the solutions, one pseudo-inverse per
    tail, all at set-up, and the vertex systems of one tail on first
    use."""
    from zonosynth import runtime

    def stacked(zonotopes):
        return (np.stack([Z.center for Z in zonotopes]),
                np.stack([Z.generators for Z in zonotopes]))

    buckets = {}
    for pos, sid in enumerate(ids):
        key = runtime._shape(solutions[sid], network.subsystem(sid), steps)
        buckets.setdefault(key, []).append(pos)
    groups = []
    for (n, m, _, per_step), pos in buckets.items():
        sols = [solutions[ids[i]] for i in pos]
        tube_steps = [None] * (per_step[-1][0] + 1 if per_step else 0)
        for t, p, shift, diagonal in per_step:
            center, gens = stacked([sol.omega(t + 1) for sol in sols])
            theta = stacked([sol.theta(t) for sol in sols]) if m else None
            tail = gens[:, :, gens.shape[2] - p:]
            pinv = None if diagonal else np.stack(
                [np.linalg.pinv(T) for T in tail])
            tube_steps[t] = runtime._TubeStep((center, gens), theta, p, shift,
                                              pinv)
        first = np.array([[state_slices[ids[i]].start,
                           input_slices[ids[i]].start] for i in pos])
        groups.append(PerMemberGroup(
            np.array(pos), first[:, :1] + np.arange(n),
            first[:, 1:] + np.arange(m),
            stacked([sol.omega(steps.start) for sol in sols]), tube_steps))
    return groups


def step_per_subsystem(network, solutions, states, t=0, disturbances=None):
    """``runtime.step``, one subsystem at a time."""
    ids = network.sorted_ids()
    stacked = {sid: np.atleast_2d(np.asarray(states[sid], dtype=float))
               for sid in ids}
    d = {sid: np.asarray(disturbances[sid], dtype=float) if disturbances
         else network.subsystem(sid).D_at(t).center for sid in ids}
    nxt, inputs = _closed_loop_per_subsystem(
        network, solutions, t, stacked,
        _witness_per_subsystem(network, solutions, t, stacked), d)
    return ({sid: nxt[sid][0] for sid in ids},
            {sid: inputs[sid][0] for sid in ids})


def simulate_per_subsystem(network, solutions, num_steps, x0=None, seed=0):
    """``runtime.simulate``, one subsystem at a time, with the same draws."""
    from zonosynth.runtime import InvarianceReport, OutsideViableSet, Trajectory

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
        zeta = _witness_per_subsystem(network, solutions, 0, states)
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
        states, inputs = _closed_loop_per_subsystem(network, solutions, t,
                                                    states, zeta, draws)
        _rewitness_per_subsystem(network, solutions, t, states, zeta, alive,
                                 report)
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


def verify_invariance_per_subsystem(network, solutions, num_samples,
                                    num_steps, seed=0, chain=True):
    """``runtime.verify_invariance``, one subsystem at a time, with the same
    draws in the same order: the start witnesses subsystem by subsystem,
    then at every step the vertex patterns that step needs first (one per
    subsystem and generator count of D_i(t), drawn on first use), then the
    uniform disturbance draws.  ``chain=False`` re-witnesses every live
    state by the tube LP instead of chaining, whose margins are exact."""
    from zonosynth.runtime import InvarianceReport, _mixed_zeta

    rng = np.random.default_rng(seed)
    ids = network.sorted_ids()
    S = num_samples
    zeta, states, margins = {}, {}, {}
    for sid in ids:
        om = solutions[sid].omega(0)
        zeta[sid] = _mixed_zeta(rng, S, om.num_generators)
        states[sid] = om.center + zeta[sid] @ om.generators.T
        margins[sid] = np.full(num_steps + 1, np.inf)

    d_pattern = {}      # (sid, generator count) -> replayed vertex rows
    report = InvarianceReport(S, num_steps, margins=margins)
    alive = np.ones(S, dtype=bool)
    report.checked += len(ids) * S
    for sid in ids:
        margins[sid][0] = float((1.0 - _row_norms(zeta[sid]))[alive].min())

    for t in range(num_steps):
        if not alive.any():
            break
        Ds = {sid: network.subsystem(sid).D_at(t) for sid in ids}
        for sid in ids:
            p = Ds[sid].num_generators
            if (sid, p) not in d_pattern:
                nv = min(2 ** p if p <= 12 else S, max(S // 2, 1))
                d_pattern[sid, p] = _mixed_zeta(rng, S, p)[:nv]
        d = {}
        for sid in ids:
            D = Ds[sid]
            pattern = d_pattern[sid, D.num_generators]
            nv = len(pattern)
            zd = np.empty((S, D.num_generators))
            zd[:nv] = pattern
            zd[nv:] = rng.uniform(-1.0, 1.0, (S - nv, D.num_generators))
            d[sid] = D.center + zd @ D.generators.T
        states, _ = _closed_loop_per_subsystem(network, solutions, t, states,
                                               zeta, d)
        _rewitness_per_subsystem(network, solutions, t, states, zeta, alive,
                                 report, chain)
        report.checked += len(ids) * int(alive.sum())
        for sid in ids:
            if alive.any():
                margins[sid][t + 1] = float(
                    (1.0 - _row_norms(zeta[sid]))[alive].min())
    return report


# ---------------------------------------------------------------------------
# small helpers that only the tests use


def is_optimal(sol):
    """True if the lpcore solution ``sol`` is optimal."""
    return sol.status == OPTIMAL


def support(Z, direction):
    """Support function h(d) = max_{x in Z} d.x of the zonotope ``Z``."""
    d = np.asarray(direction, dtype=float)
    return float(d @ Z.center + np.abs(d @ Z.generators).sum())


def point_zonotope(center):
    """The zonotope of one point."""
    from zonosynth.geom import Zonotope

    center = np.atleast_1d(np.asarray(center, dtype=float))
    return Zonotope(center, np.zeros((len(center), 0)))


def affine_map(A, Z, b=None):
    """Image A @ Z + b (exact: zonotopes are closed under affine maps)."""
    from zonosynth.geom import Zonotope

    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = A @ Z.center
    if b is not None:
        c = c + np.asarray(b, dtype=float)
    return Zonotope(c, A @ Z.generators)


def minkowski_sum(*zonotopes):
    """Minkowski sum: centers add, generator matrices concatenate."""
    from zonosynth.geom import Zonotope

    if not zonotopes:
        raise ValueError("need at least one zonotope")
    dim = zonotopes[0].dim
    for Z in zonotopes:
        if Z.dim != dim:
            raise ValueError("dimension mismatch in minkowski_sum")
    center = sum(Z.center for Z in zonotopes)
    gens = np.hstack([Z.generators for Z in zonotopes])
    return Zonotope(center, gens)


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


def scale_generators(Z, alpha):
    """Z(c, G Diag(alpha)) — per-generator scaling."""
    from zonosynth.geom import Zonotope

    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (Z.num_generators,):
        raise ValueError(f"alpha shape {alpha.shape} != ({Z.num_generators},)")
    return Zonotope(Z.center, Z.generators * alpha)


def promise_set(template, params, sid, channel, t):
    """Subsystem ``sid``'s promised state ("x") or input ("u") tube at t."""
    from zonosynth.contracts import _at
    from zonosynth.geom import Zonotope

    c, C = _at((template.state if channel == "x" else template.input)[sid], t)
    return scale_generators(Zonotope(c, C), _at((params.x if channel == "x" else params.u)[sid], t))


def interval_hull(Z):
    """Componentwise bounds (lo, hi): lo = c - sum|G| rows, hi = c + sum|G|."""
    radius = np.abs(Z.generators).sum(axis=1)
    return Z.center - radius, Z.center + radius


def augmented_disturbance(network, template, params, sid, t):
    """The exact (un-reduced) W_i(t, alpha) as a numeric zonotope."""
    from zonosynth.contracts import _at
    from zonosynth.geom import Zonotope

    def alpha(block):
        if block.kind == "local":
            return np.ones(block.cols.shape[1])
        return _at((params.x if block.kind == "state" else params.u)[block.source], t)

    center, blocks = aug_blocks(network, template, sid, t)
    cols = [block.cols * alpha(block)[None, :] for block in blocks]
    G = np.hstack(cols) if cols else np.zeros((center.shape[0], 0))
    return Zonotope(center, G)


DEFAULT_BETA_GRID = tuple(round(0.1 * i, 1) for i in range(10))


def rci_beta_grid(A, B, W, X, U, k, betas=DEFAULT_BETA_GRID):
    """First feasible RCI over a beta grid (beta=0 tried without E)."""
    from zonosynth.viability import rci

    for beta in betas:
        sol = rci(A, B, W, X, U, k, beta=beta)
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


def trajectory_csv(traj, path):
    """Write the ``runtime.Trajectory`` ``traj`` as rows (t, i, x
    components..., u components...), ragged cells blank; returns ``path``."""
    import csv

    sids = sorted(traj.states, key=lambda s: str(s))
    n_max = max(traj.states[s].shape[1] for s in sids)
    m_max = max((traj.inputs[s].shape[1] for s in sids), default=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i"]
                        + [f"x{c}" for c in range(n_max)]
                        + [f"u{c}" for c in range(m_max)])
        for sid in sids:
            X, U = traj.states[sid], traj.inputs[sid]
            for t in range(X.shape[0]):
                row = [t, sid] + list(X[t]) + [""] * (n_max - X.shape[1])
                if t < U.shape[0]:
                    row += list(U[t]) + [""] * (m_max - U.shape[1])
                else:
                    row += [""] * m_max
                writer.writerow(row)
    return path


def hausdorff_bound_one(inner, center, cols, scales, L):
    """``geom.hausdorff_bound`` for one containment, on 2-D arrays: the
    formula the stacked bound must match bit for bit."""
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


def recursion_residual_one(solution, A_seq, B_seq):
    """``viability.recursion_residual`` written step by step on 2-D arrays."""
    res = 0.0
    for t, W in enumerate(solution.W):
        flow = A_seq[t] @ solution.T[t]
        drift = A_seq[t] @ solution.xbar[t]
        if solution.M is not None:
            flow = flow + B_seq[t] @ solution.M[t]
            drift = drift + B_seq[t] @ solution.ubar[t]
        T_next = solution.T[t + 1] if len(solution.T) > 1 else solution.T[0]
        x_next = solution.xbar[t + 1] if len(solution.xbar) > 1 else solution.xbar[0]
        lhs = np.hstack([flow, W.generators])
        left = lhs.shape[1] - T_next.shape[1]
        E = np.zeros((len(x_next), left)) if solution.E is None else solution.E
        res = max(res, float(np.max(np.abs(lhs - np.hstack([E, T_next])), initial=0.0)))
        res = max(res, float(np.max(np.abs(drift + W.center - x_next))))
    return res


def check_correctness_per_containment(network, template, params, solutions, tol=1e-7):
    """``contracts.check_correctness`` one containment at a time: each
    witness bound by :func:`hausdorff_bound_one`, past ``tol`` the Hausdorff
    LP, and each subsystem's residual by :func:`recursion_residual_one`."""
    from zonosynth.contracts import CorrectnessReport, _at, _promise_witness
    from zonosynth.geom import Zonotope, directed_hausdorff
    from zonosynth.viability import RESIDUAL_TOL

    failures = []
    max_state = 0.0
    max_input = 0.0
    max_res = 0.0
    fallbacks = 0
    steps = network.num_steps
    finite = network.mode == "finite"

    def check(what, inner, center, cols, scales, witness):
        nonlocal fallbacks
        margin = hausdorff_bound_one(inner, center, cols, scales, witness)
        if margin > tol:
            margin = directed_hausdorff(Zonotope(center, np.asarray(cols, dtype=float) * scales),
                                        inner)
            fallbacks += 1
        if margin > tol:
            failures.append(f"{what} by {margin:.3e}")
        return margin

    def within(what, inner, S, witness):
        return check(what, inner, S.center, S.generators, np.ones(S.num_generators), witness)

    for sid in network.sorted_ids():
        sub = network.subsystem(sid)
        sol = solutions[sid]
        witness = sol.witness or {}
        steps_x = steps + 1 if finite else 1
        for t in range(steps_x):
            cx, Cx = _at(template.state[sid], t)
            alpha = _at(params.x[sid], t)
            max_state = max(max_state, check(f"{sid}: Omega({t}) escapes its promise",
                                             sol.omega(t), cx, Cx, alpha, witness.get(f"inC{t}")))
            within(f"{sid}: state promise at t={t} exceeds X",
                   promise_set(template, params, sid, "x", t),
                   sub.X_at(t), _promise_witness(template, cx, Cx, alpha, sub.X_at(t)))
        if finite:
            max_state = max(max_state, within(f"{sid}: terminal set escapes X", sol.omega(steps),
                                              sub.X_at(steps), witness.get("term")))
        if sub.m:
            for t in range(steps):
                U = sub.U_at(t)
                if sid in template.input:
                    cu, Cu = _at(template.input[sid], t)
                    alpha = _at(params.u[sid], t)
                    within(f"{sid}: input promise at t={t} exceeds U",
                           promise_set(template, params, sid, "u", t), U,
                           _promise_witness(template, cu, Cu, alpha, U))
                else:
                    cu, Cu, alpha = U.center, U.generators, np.ones(U.num_generators)
                max_input = max(max_input, check(f"{sid}: Theta({t}) escapes its promise",
                                                 sol.theta(t), cu, Cu, alpha,
                                                 witness.get(f"inU{t}")))
        max_res = max(max_res, recursion_residual_one(
            sol, [sub.A_at(t) for t in range(steps)], [sub.B_at(t) for t in range(steps)]))
    if max_res > RESIDUAL_TOL:
        failures.append(f"recursion residual {max_res:.3e}")
    return CorrectnessReport(not failures, max_state, max_input, max_res, failures,
                             fallbacks)
