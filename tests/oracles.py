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
loop against.

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

import numpy as np

from zonosynth.lpcore import LinearProgram, LinExpr, _LpBatch, as_expr

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
                                   outer_c):
    """Row-at-a-time reference for ``geom.add_scaled_containment``.

    Emits the same variables and rows through ``add_eq``/``add_le`` and
    LinExpr arithmetic, one row per call, and returns the handles as LinExpr
    arrays.  ``inner_G``/``inner_c``/``outer_scales`` entries are LinExpr
    or numbers.  The G, |[Lam lam]| and row-sum rows are written as
    ``-(right - left)``: that moves a zero constant right as +0.0, the sign
    the block emitter gives it, so the programs built with this reference
    match the package's bit for bit.
    """
    outer_cols = np.asarray(outer_cols, dtype=float)
    n, s = outer_cols.shape
    inner_G = np.asarray(inner_G, dtype=object).reshape(n, -1)
    r = inner_G.shape[1]
    Lam = var_array(lp, (s, r)) if s and r else np.empty((s, r), dtype=object)
    lam = var_array(lp, s) if s else np.empty(0, dtype=object)
    W = var_array(lp, (s, r + 1), lb=0.0) if s else np.empty((s, r + 1), dtype=object)

    for i in range(n):
        row_cols = np.nonzero(outer_cols[i])[0]
        for j in range(r):
            expr = lin_sum(outer_cols[i, q] * Lam[q, j] for q in row_cols)
            lp.add_eq(-(as_expr(inner_G[i, j]) - expr), 0.0)
        expr = lin_sum(outer_cols[i, q] * lam[q] for q in row_cols)
        lp.add_eq(expr + as_expr(inner_c[i]) - as_expr(outer_c[i]), 0.0)

    for q in range(s):
        for j in range(r):
            lp.add_le(-(W[q, j] - Lam[q, j]), 0.0)
            lp.add_le(-Lam[q, j] - W[q, j], 0.0)
        lp.add_le(-(W[q, r] - lam[q]), 0.0)
        lp.add_le(-lam[q] - W[q, r], 0.0)
        total = lin_sum(W[q, j] for j in range(r + 1))
        lp.add_le(-(as_expr(outer_scales[q]) - total), 0.0)
    return {"Lam": Lam, "lam": lam, "W": W}


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


def finite_viable_lp_rowwise(A_seq, B_seq, W_seq, X_seq, U_seq, k, template="growing",
                             x0=None):
    """Row-at-a-time reference for ``viability.finite_viable_lp``'s LP."""
    h = len(A_seq)
    n = A_seq[0].shape[0]
    m = B_seq[0].shape[1]
    p = [W.num_generators for W in W_seq]
    widths = [k]
    for t in range(h):
        widths.append(widths[-1] + p[t] if template == "growing" else k)
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
    if x0 is not None:
        p0 = x0.num_generators
        for i in range(n):
            lp.add_eq(xbar[0][i], float(x0.center[i]))
            for j in range(k):
                lp.add_eq(T[0][i, j], float(x0.generators[i, j]) if j < p0 else 0.0)
    _size_objective(lp, Tc)
    return lp


def rci_lp_rowwise(A, B, W, X, U, k, beta=0.0, simplified=None):
    """Row-at-a-time reference for ``viability.rci_lp``'s LP."""
    if simplified is None:
        simplified = beta == 0.0
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
    E = None if simplified else var_array(lp, (n, p))
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


def emit_subsystem_rowwise(lp, network, template, sid, alpha_of, k=None,
                           reduction_order=1, slack=True):
    """Row-at-a-time reference for ``contracts.emit_subsystem``; ``alpha_of``
    returns column indices, as there.  Returns the column indices of the
    tubes T and of the slack columns d (state steps, then input steps)."""
    from zonosynth.contracts import _at, _choose_columns, aug_blocks

    sub = network.subsystem(sid)
    n, m = sub.n, sub.m
    steps = network.num_steps
    finite = network.mode == "finite"
    structure = [aug_blocks(network, template, sid, t) for t in range(steps)]
    splits = [_choose_columns(blocks, n, reduction_order) for _, blocks in structure]
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
                                       np.asarray(cx, dtype=float))
    if finite:
        Xh = sub.X_at(steps)
        add_scaled_containment_rowwise(lp, T[steps], xbar[steps], Xh.generators,
                                       [1.0] * Xh.num_generators, Xh.center)
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
            add_scaled_containment_rowwise(lp, M[t], ubar[t], outer_cols, scales, outer_c)
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
        return np.where(radii > 0.0, resid / radii, 0.0), radii


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


def _rewitness_per_subsystem(network, solutions, t, states, zeta, alive, report):
    """Advance the witnesses to the states at t + 1, subsystem by subsystem
    in sorted order: chained tail, tail LP, tube LP."""
    from zonosynth.geom import Zonotope, contains_point
    from zonosynth.runtime import _chain_exact
    from zonosynth.viability import RciSolution

    def lp_witness(Z, points):
        if Z.num_generators:
            report.lp_rewitness += len(points)
        return contains_point(Z, points)

    for sid in network.sorted_ids():
        sol = solutions[sid]
        rci = isinstance(sol, RciSolution)
        om_next = sol.omega(t + 1)
        G = om_next.generators
        k_next = G.shape[1]
        p = (sol.W if rci else sol.W[t]).num_generators
        base = zeta[sid][:, p:] if rci else zeta[sid]
        chained = _chain_exact(sol) and base.shape[1] == k_next - p
        new_zeta = np.zeros((len(alive), k_next))
        if chained:
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
            if chained:
                report.witness_losses += int(inside.sum())
            out = redo[~inside]
            report.violations += out.size
            alive[out] = False
            if out.size and report.first_violation is None:
                report.first_violation = (sid, t + 1)
        zeta[sid] = new_zeta


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
                                    num_steps, seed=0):
    """``runtime.verify_invariance``, one subsystem at a time, with the same
    draws in the same order: the start witnesses subsystem by subsystem,
    then at every step the vertex patterns that step needs first (one per
    subsystem and generator count of D_i(t), drawn on first use), then the
    uniform disturbance draws."""
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
                                 report)
        report.checked += len(ids) * int(alive.sum())
        for sid in ids:
            if alive.any():
                margins[sid][t + 1] = float(
                    (1.0 - _row_norms(zeta[sid]))[alive].min())
    return report
