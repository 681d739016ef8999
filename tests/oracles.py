"""Independent oracles used to cross-check the package's LP-based routines.

Everything in here deliberately avoids the package's own solver/geometry code
paths: LPs are solved by brute-force vertex enumeration, zonotope geometry by
enumerating sign patterns and convex hulls.  Slow but trustworthy on small
instances.  The exceptions are the reference emitters and programs at the
end: they build the containment rows and the tube-recursion programs one
LinExpr row at a time (``lpcore``'s row-wise path), to check the block
emitters against, and the hard extraction as a second LP per subsystem with
its parameters pinned by equality rows, to check
``PotentialProgram.extract`` against.
"""

import itertools

import numpy as np

INF = float("inf")


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
                                   outer_c, prefix):
    """Row-at-a-time reference for ``geom.add_scaled_containment``.

    Emits the same variables and rows through ``add_eq``/``add_le`` and
    LinExpr arithmetic, one row per call, and returns the handles as LinExpr
    arrays.  ``inner_G``/``inner_c``/``outer_scales`` entries are LinExpr
    or numbers.  The G, |[Lam lam]| and row-sum rows are written as
    ``-(right - left)``: that moves a zero constant right as +0.0, the sign
    the block emitter gives it, so the programs built with this reference
    match the package's bit for bit.
    """
    from zonosynth.lpcore import as_expr, lin_sum

    outer_cols = np.asarray(outer_cols, dtype=float)
    n, s = outer_cols.shape
    inner_G = np.asarray(inner_G, dtype=object).reshape(n, -1)
    r = inner_G.shape[1]
    Lam = lp.var_array(f"{prefix}:L", (s, r)) if s and r else np.empty((s, r), dtype=object)
    lam = lp.var_array(f"{prefix}:l", s) if s else np.empty(0, dtype=object)
    W = lp.var_array(f"{prefix}:W", (s, r + 1), lb=0.0) if s else np.empty((s, r + 1), dtype=object)

    for i in range(n):
        row_cols = np.nonzero(outer_cols[i])[0]
        for j in range(r):
            expr = lin_sum(outer_cols[i, q] * Lam[q, j] for q in row_cols)
            lp.add_eq(-(as_expr(inner_G[i, j]) - expr), 0.0, name=f"{prefix}:G[{i},{j}]")
        expr = lin_sum(outer_cols[i, q] * lam[q] for q in row_cols)
        lp.add_eq(expr + as_expr(inner_c[i]) - as_expr(outer_c[i]), 0.0,
                  name=f"{prefix}:c[{i}]")

    rowsum_names = []
    for q in range(s):
        for j in range(r):
            lp.add_le(-(W[q, j] - Lam[q, j]), 0.0)
            lp.add_le(-Lam[q, j] - W[q, j], 0.0)
        lp.add_le(-(W[q, r] - lam[q]), 0.0)
        lp.add_le(-lam[q] - W[q, r], 0.0)
        total = lin_sum(W[q, j] for j in range(r + 1))
        name = f"{prefix}:rowsum[{q}]"
        lp.add_le(-(as_expr(outer_scales[q]) - total), 0.0, name=name)
        rowsum_names.append(name)
    return {"Lam": Lam, "lam": lam, "W": W, "rowsum_names": rowsum_names}


def membership_lp_rowwise(Z, x):
    """Row-at-a-time reference for ``geom.membership_lp``: the same LP
    min |zeta|_inf s.t. x = c + G zeta, one ``add_eq``/``add_le`` per row;
    returns the LP and zeta as LinExpr."""
    from zonosynth.lpcore import LinearProgram, lin_sum

    p = Z.num_generators
    lp = LinearProgram(name="member")
    zeta = lp.var_array("z", p)
    q = lp.var("q", lb=0.0)
    for i in range(Z.dim):
        expr = lin_sum(Z.generators[i, k] * zeta[k] for k in range(p))
        lp.add_eq(expr, float(x[i] - Z.center[i]))
    for k in range(p):
        lp.add_le(zeta[k] - q, 0.0)
        lp.add_le(-zeta[k] - q, 0.0)
    lp.minimize(q)
    return lp, zeta


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
    from zonosynth.lpcore import as_expr, lin_sum

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
                            x_next, left, rec, cen):
    """The rec/cen rows of one step: ``[A T + B M, W] = [left, T_next]`` row
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
            lp.add_eq(lhs - rhs, 0.0, name=f"{rec}{i},{j}]")
    drift = lin_matmul(A, xbar.reshape(-1, 1))[:, 0]
    if M is not None:
        drift = drift + lin_matmul(B, ubar.reshape(-1, 1))[:, 0]
    for i in range(n):
        lp.add_eq(drift[i] + float(w_center[i]) - x_next[i], 0.0, name=f"{cen}{i}]")


def _size_objective(lp, blocks):
    from zonosynth.lpcore import LinExpr
    from zonosynth.viability import _abs_objective

    lp.minimize(LinExpr(dict.fromkeys(_abs_objective(lp, blocks).tolist(), 1.0)))


def finite_viable_lp_rowwise(A_seq, B_seq, W_seq, X_seq, U_seq, k, template="growing",
                             x0=None):
    """Row-at-a-time reference for ``viability.finite_viable_lp``'s LP."""
    from zonosynth.lpcore import LinearProgram, col_exprs

    h = len(A_seq)
    n = A_seq[0].shape[0]
    m = B_seq[0].shape[1]
    p = [W.num_generators for W in W_seq]
    widths = [k]
    for t in range(h):
        widths.append(widths[-1] + p[t] if template == "growing" else k)
    lp = LinearProgram(name="viable")
    Tc = [lp.var_block(f"T{t}", (n, widths[t])) for t in range(h + 1)]
    T = [col_exprs(c) for c in Tc]
    xbar = [lp.var_array(f"x{t}", n) for t in range(h + 1)]
    M = [lp.var_array(f"M{t}", (m, widths[t])) for t in range(h)] if m else None
    ubar = [lp.var_array(f"u{t}", m) for t in range(h)] if m else None
    for t in range(h):
        Gw = W_seq[t].generators
        _recursion_rows_rowwise(lp, A_seq[t], B_seq[t], T[t], M[t] if m else None,
                                xbar[t], ubar[t] if m else None,
                                [[float(v) for v in Gw[:, j]] for j in range(p[t])],
                                W_seq[t].center, T[t + 1], xbar[t + 1],
                                [[0.0] * (widths[t] + p[t])] * n, f"rec[{t},", f"cen[{t},")

    def plain(inner_G, inner_c, outer, prefix):
        add_scaled_containment_rowwise(lp, inner_G, inner_c, outer.generators,
                                       [1.0] * outer.num_generators, outer.center, prefix)

    for t in range(h + 1):
        plain(T[t], xbar[t], X_seq[t], f"inX{t}")
    if m:
        for t in range(h):
            plain(M[t], ubar[t], U_seq[t], f"inU{t}")
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
    from zonosynth.lpcore import LinearProgram, col_exprs

    if simplified is None:
        simplified = beta == 0.0
    n = A.shape[0]
    m = B.shape[1]
    p = W.num_generators
    sigma = 1.0 / (1.0 - beta)
    lp = LinearProgram(name="rci")
    Tc = lp.var_block("T", (n, k))
    T = col_exprs(Tc)
    xbar = lp.var_array("x", n)
    M = lp.var_array("M", (m, k)) if m else None
    ubar = lp.var_array("u", m) if m else None
    E = None if simplified else lp.var_array("E", (n, p))
    Gw = W.generators
    _recursion_rows_rowwise(lp, A, B, T, M, xbar, ubar,
                            [[float(v) for v in Gw[:, j]] for j in range(p)], W.center,
                            T, xbar, [[0.0] * (k + p)] * n if E is None else E,
                            "rec[", "fix[")
    if E is not None:
        add_scaled_containment_rowwise(lp, E, np.zeros(n), Gw, [beta] * p, np.zeros(n),
                                       "wiggle")
    add_scaled_containment_rowwise(lp, sigma * T, xbar, X.generators,
                                   [1.0] * X.num_generators, X.center, "inX")
    if m:
        add_scaled_containment_rowwise(lp, sigma * M, ubar, U.generators,
                                       [1.0] * U.num_generators, U.center, "inU")
    _size_objective(lp, [Tc])
    return lp


def _w_expr_columns(blocks, split, alpha_cols, n):
    """W_i generator columns as LP expressions: kept exact, remainder boxed."""
    from zonosynth.lpcore import lin_sum

    kept, boxed = split
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
    returns column indices, as there."""
    from zonosynth.contracts import _at, _choose_columns, aug_blocks
    from zonosynth.lpcore import col_exprs

    sub = network.subsystem(sid)
    n, m = sub.n, sub.m
    steps = network.num_steps
    finite = network.mode == "finite"
    structure = [aug_blocks(network, template, sid, t) for t in range(steps)]
    splits = [_choose_columns(blocks, n, reduction_order) for _, blocks in structure]
    p_red = [len(kept) + (n if boxed else 0) for kept, boxed in splits]
    if k is None:
        k = n if finite else n + p_red[0]

    def alpha(j, channel, t):
        return col_exprs(alpha_of(j, channel, t))

    tag = f"s{sid}"
    steps_x = steps + 1 if finite else 1
    widths = [k]
    if finite:
        for t in range(steps):
            widths.append(widths[-1] + p_red[t])
    T = [lp.var_array(f"{tag}:T{t}", (n, widths[t])) for t in range(steps_x)]
    xbar = [lp.var_array(f"{tag}:x{t}", n) for t in range(steps_x)]
    M = [lp.var_array(f"{tag}:M{t}", (m, widths[t])) for t in range(steps)] if m else None
    ubar = [lp.var_array(f"{tag}:u{t}", m) for t in range(steps)] if m else None
    d_x = [lp.var_array(f"{tag}:dx{t}", 1, lb=0.0)[0] for t in range(steps_x)] if slack else None
    d_u = [lp.var_array(f"{tag}:du{t}", 1, lb=0.0)[0] for t in range(steps)] \
        if slack and m else None

    for t in range(steps):
        center_w, blocks = structure[t]
        alpha_cols = [None if b.kind == "local" else
                      alpha(b.source, "x" if b.kind == "state" else "u", t) for b in blocks]
        wcols = _w_expr_columns(blocks, splits[t], alpha_cols, n)
        _recursion_rows_rowwise(lp, sub.A_at(t), sub.B_at(t), T[t], M[t] if m else None,
                                xbar[t], ubar[t] if m else None, wcols, center_w,
                                T[t + 1] if finite else T[0],
                                xbar[t + 1] if finite else xbar[0],
                                [[0.0] * (widths[t] + p_red[t])] * n,
                                f"{tag}:rec[{t},", f"{tag}:cen[{t},")

    for t in range(steps_x):
        cx, Cx = _at(template.state[sid], t)
        scales = list(alpha(sid, "x", t))
        outer_cols = Cx
        if slack:
            outer_cols = np.hstack([Cx, np.eye(n)])
            scales = scales + [d_x[t]] * n
        add_scaled_containment_rowwise(lp, T[t], xbar[t], outer_cols, scales,
                                       np.asarray(cx, dtype=float), f"{tag}:inC{t}")
    if finite:
        Xh = sub.X_at(steps)
        add_scaled_containment_rowwise(lp, T[steps], xbar[steps], Xh.generators,
                                       [1.0] * Xh.num_generators, Xh.center, f"{tag}:term")
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
                                           f"{tag}:inU{t}")


# ---------------------------------------------------------------------------
# reference hard extraction: a second LP per subsystem, parameters pinned


class ExtractionProgram:
    """Subsystem ``sid``'s hard extraction LP, built on its own.

    Every multiplier is a variable ``al:*`` pinned by an equality row
    ``pin:*``; the containments in the own promise are hard, and the
    objective is the total template size sum |T|.  ``solve`` rewrites the
    pins one row at a time and re-solves warm.
    """

    def __init__(self, network, template, sid, k=None, reduction_order=1):
        from zonosynth.contracts import _at, emit_subsystem
        from zonosynth.lpcore import LinearProgram
        from zonosynth.viability import _abs_objective

        self.sid = sid
        lp = LinearProgram(name=f"extract[{sid}]")
        self._pins = {}

        def alpha_of(j, channel, t):
            key = (j, channel, t)
            if key not in self._pins:
                entries = template.state[j] if channel == "x" else template.input[j]
                q = _at(entries, t)[1].shape[1]
                cols = lp.var_block(f"al:{channel}:{j}:{t}", q)
                names = [f"pin:{channel}:{j}:{t}[{g}]" for g in range(q)]
                lp.add_rows(np.arange(q), cols, np.ones(q), np.zeros(q), "=", names=names)
                self._pins[key] = (cols, names)
            return self._pins[key][0]

        sub = network.subsystem(sid)
        steps = network.num_steps
        for t in range(steps + 1 if network.mode == "finite" else 1):
            alpha_of(sid, "x", t)
        if sub.m and sid in template.input:
            for t in range(steps):
                alpha_of(sid, "u", t)
        self.handles = emit_subsystem(lp, network, template, sid, alpha_of, k=k,
                                      reduction_order=reduction_order, slack=False)
        lp.set_costs(_abs_objective(lp, self.handles.T, prefix="size"), 1.0)
        self.lp = lp

    def solve(self, params):
        """The tubes at ``params``, or None if the hard problem is infeasible."""
        from zonosynth.contracts import _at, _numeric_solution

        for (j, channel, t), (_, names) in self._pins.items():
            values = _at(params.x[j] if channel == "x" else params.u[j], t)
            for name, v in zip(names, values):
                self.lp.set_rhs(name, max(float(v), 0.0))
        sol = self.lp.solve()
        if sol.status == "infeasible":
            return None
        assert sol.status == "optimal", sol.status
        return _numeric_solution(sol, self.handles)
