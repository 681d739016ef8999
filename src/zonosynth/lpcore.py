"""Sparse linear programs with named rows, duals, and cheap right-hand-side updates.

This is the single place in the package that talks to an LP solver.  Models are
built incrementally, one row at a time from :class:`LinExpr` objects (sparse
affine expressions) or a block of rows at a time from COO triplets; rows and
variables can be named, and solutions expose both primal values and row duals
by name.  Two backends are supported:

* ``"highs"`` — the HiGHS bindings that ship inside scipy
  (``scipy.optimize._highspy``).  This is the default when importable.  It
  keeps the solver instance alive between solves so that updating only
  equality right-hand sides (``set_rhs``) re-solves warm in microseconds,
  and it reports true in-solver time.
* ``"linprog"`` — plain ``scipy.optimize.linprog(method="highs")``.  Slower
  (rebuilds the model every solve, wall-clock timing) but uses only public
  scipy API.  Selected automatically if the bindings are missing.

Sign conventions
----------------
``LpSolution.sensitivity(name)`` is always d(objective)/d(rhs) for the named
row.  ``LpSolution.dual(name)`` applies the textbook sign convention for a
minimization: duals of ``<=`` rows are >= 0 (i.e. the negated sensitivity),
duals of ``=`` and ``>=`` rows are the sensitivity itself.
"""

from __future__ import annotations

import time
import threading
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

INF = float("inf")

try:  # vendored HiGHS bindings (scipy >= 1.15)
    from scipy.optimize._highspy import _core as _hcore

    _HAVE_HIGHS = True
except Exception:  # pragma: no cover - depends on scipy build
    _hcore = None
    _HAVE_HIGHS = False

DEFAULT_BACKEND = "highs" if _HAVE_HIGHS else "linprog"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"


class LpError(Exception):
    """Base class for lpcore errors."""


class LpBuildError(LpError):
    """Raised for malformed models (duplicate names, bad shapes, ...)."""


class LpSolverError(LpError):
    """Raised when the solver fails numerically.

    Infeasible and unbounded models are *results* (see ``LpSolution.status``),
    not errors; this exception marks genuine solver breakdowns.
    """


# --------------------------------------------------------------------------
# solver-time tracking (used to meter certification phases etc.)

_tracker_stack: ContextVar[tuple] = ContextVar("zonosynth_lp_trackers", default=())


class SolverTimeTracker:
    """In-solver seconds, solve count and the largest model solved.

    ``max_rows``/``max_cols``/``max_nnz`` are the size of the largest LP
    solved in the context, each maximized on its own (rows, columns and
    constraint-matrix nonzeros).
    """

    def __init__(self):
        self.seconds = 0.0
        self.solves = 0
        self.max_rows = 0
        self.max_cols = 0
        self.max_nnz = 0
        self._lock = threading.Lock()

    def _add(self, seconds, size):
        rows, cols, nnz = size
        with self._lock:
            self.seconds += seconds
            self.solves += 1
            self.max_rows = max(self.max_rows, rows)
            self.max_cols = max(self.max_cols, cols)
            self.max_nnz = max(self.max_nnz, nnz)


@contextmanager
def track_solver_time():
    """Accumulate in-solver seconds and model sizes of every ``solve()`` in
    this context.

    Trackers nest without shielding: every enclosing tracker sees every
    solve, so an inner tracker cannot keep solves out of an outer one.
    """
    tracker = SolverTimeTracker()
    token = _tracker_stack.set(_tracker_stack.get() + (tracker,))
    try:
        yield tracker
    finally:
        _tracker_stack.reset(token)


def _notify_trackers(seconds, size):
    for tracker in _tracker_stack.get():
        tracker._add(seconds, size)


# --------------------------------------------------------------------------
# expressions


class LinExpr:
    """Sparse affine expression ``sum(coef * var) + const``.

    Supports ``+``, ``-`` and scalar ``*``/``/``; ``sum()`` works via
    ``__radd__``.  Instances are treated as immutable: every operation
    returns a new expression.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0.0):
        self.terms = terms if terms is not None else {}
        self.const = float(const)

    def copy(self):
        return LinExpr(dict(self.terms), self.const)

    def __add__(self, other):
        if isinstance(other, LinExpr):
            terms = dict(self.terms)
            for col, coef in other.terms.items():
                terms[col] = terms.get(col, 0.0) + coef
            return LinExpr(terms, self.const + other.const)
        return LinExpr(dict(self.terms), self.const + float(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, LinExpr) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LinExpr({c: -v for c, v in self.terms.items()}, -self.const)

    def __mul__(self, scalar):
        scalar = float(scalar)
        if scalar == 0.0:
            return LinExpr({}, 0.0)
        return LinExpr({c: v * scalar for c, v in self.terms.items()}, self.const * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def __repr__(self):
        bits = [f"{v:+g}*x{c}" for c, v in sorted(self.terms.items())]
        if self.const or not bits:
            bits.append(f"{self.const:+g}")
        return "LinExpr(" + " ".join(bits) + ")"


def as_expr(value):
    """Coerce a float or LinExpr to a LinExpr."""
    if isinstance(value, LinExpr):
        return value
    return LinExpr({}, float(value))


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


def lin_triplets(items):
    """Flatten LinExpr/number ``items`` into arrays ``(owner, cols, coefs, consts)``.

    Term ``e`` is ``coefs[e] * x[cols[e]]`` of ``items[owner[e]]``, in each
    expression's term order; ``consts[k]`` is the constant of ``items[k]``.
    """
    counts, cols, coefs, consts = [], [], [], []
    for item in items:
        if isinstance(item, LinExpr):
            counts.append(len(item.terms))
            cols.extend(item.terms)
            coefs.extend(item.terms.values())
            consts.append(item.const)
        else:
            counts.append(0)
            consts.append(float(item))
    owner = np.repeat(np.arange(len(counts)), counts)
    return (owner, np.array(cols, dtype=np.int64), np.array(coefs, dtype=np.float64),
            np.array(consts, dtype=np.float64))


def lin_matmul(A, X):
    """Matrix product of a numeric matrix ``A`` with an expression matrix ``X``.

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
        raise LpBuildError(f"lin_matmul shape mismatch: {A.shape} @ {X.shape}")
    out = np.empty((n, X.shape[1]), dtype=object)
    for i in range(n):
        row = A[i]
        nz = np.nonzero(row)[0]
        for j in range(X.shape[1]):
            out[i, j] = lin_sum(row[k] * as_expr(X[k, j]) for k in nz)
    return out[:, 0] if squeeze else out


# --------------------------------------------------------------------------
# the program

_EQ, _LE, _GE = ord("="), ord("<"), ord(">")


def _default_row_index(name):
    """k if ``name`` is "r<k>", the default name of an unnamed row k; else None."""
    digits = name[1:]
    if name[:1] == "r" and digits.isascii() and digits.isdigit() \
            and str(int(digits)) == digits:
        return int(digits)
    return None


class LinearProgram:
    """Incrementally built LP, solved by HiGHS.

    Minimization only.  Infeasible/unbounded are reported as statuses on the
    returned :class:`LpSolution`; numerical failures raise
    :class:`LpSolverError`.

    Rows live in one store: COO triplets (row, column, coefficient), sorted
    by row and then column, plus per-row sense, bound, creation-time rhs and
    optional name.  :meth:`add_rows` appends a block of rows given as
    triplets; :meth:`add_eq`/:meth:`add_le`/:meth:`add_ge` append one row
    given as a LinExpr.
    """

    def __init__(self, name="lp", backend=None):
        self.name = name
        self.backend = backend or DEFAULT_BACKEND
        if self.backend not in ("highs", "linprog"):
            raise LpBuildError(f"unknown backend {self.backend!r}")
        if self.backend == "highs" and not _HAVE_HIGHS:
            raise LpBuildError("highs backend unavailable in this scipy build")
        self._col_names = []
        self._name_to_col = {}
        self._col_lb = []
        self._col_ub = []
        self._obj = {}
        self._obj_const = 0.0
        self._coo = []                # (rows, cols, coefs) blocks, in row order
        self._tail = ([], [], [])     # one-row triplets not yet in _coo
        self._sense = bytearray()     # "=", "<" or ">" per row
        self._bound = array("d")      # row reads: terms <sense> bound
        self._bound0 = array("d")     # bound at creation time
        self._rhs0 = array("d")       # scalar rhs at creation (set_rhs shifts relative to it)
        self._row_names = []          # name, or None for the default "r<index>"
        self._name_to_row = {}        # explicit names only
        self._claimed_defaults = set()  # k of every explicit name "r<k>"
        self._structure_version = 0
        self._solver = None
        self._built_version = -1
        self._pending_row_bounds = {}
        self._size = (0, 0, 0)  # (rows, cols, nnz) of the last model built

    # -- variables ---------------------------------------------------------

    @property
    def num_vars(self):
        return len(self._col_names)

    @property
    def num_rows(self):
        return len(self._sense)

    def _add_cols(self, names, lb, ub):
        first = len(self._col_names)
        new = dict(zip(names, range(first, first + len(names))))
        if len(new) != len(names) or not self._name_to_col.keys().isdisjoint(new):
            dup = next(n for n in names if n in self._name_to_col or names.count(n) > 1)
            raise LpBuildError(f"duplicate variable name {dup!r}")
        self._name_to_col.update(new)
        self._col_names.extend(names)
        self._col_lb.extend([float(lb)] * len(names))
        self._col_ub.extend([float(ub)] * len(names))
        self._structure_version += 1
        return first

    def var(self, name=None, lb=-INF, ub=INF):
        """Create a variable; returns it as a single-term LinExpr."""
        col = len(self._col_names)
        self._add_cols([f"v{col}" if name is None else name], lb, ub)
        return LinExpr({col: 1.0})

    def var_block(self, name, shape, lb=-INF, ub=INF):
        """Fresh variables ``name[i]`` / ``name[i,j]`` in C order; returns
        their column indices as an int array of ``shape``."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        tags = [""]
        for axis, size in enumerate(shape):
            sep = "," if axis else ""
            tags = [f"{tag}{sep}{k}" for tag in tags for k in range(size)]
        first = self._add_cols([f"{name}[{tag}]" for tag in tags], lb, ub)
        return np.arange(first, first + len(tags)).reshape(shape)

    def var_array(self, name, shape, lb=-INF, ub=INF):
        """Array of fresh variables named ``name[i]`` / ``name[i,j]``, as LinExpr."""
        cols = self.var_block(name, shape, lb=lb, ub=ub)
        out = np.empty(cols.shape, dtype=object)
        out.reshape(-1)[:] = [LinExpr({c: 1.0}) for c in cols.ravel().tolist()]
        return out

    # -- constraints ---------------------------------------------------------

    def _claim_row_names(self, names, first):
        """Check and record the names of new rows ``first``, ``first + 1``, ...

        ``None`` stands for the default name "r<index>", which must not
        clash with an explicit name either way round.
        """
        named = {name: k for k, name in enumerate(names, first) if name is not None}
        stop = first + len(names)
        clash = [n for n in named if n in self._name_to_row]
        if len(named) != len(names) - names.count(None):
            clash.append(next(n for n in named if names.count(n) > 1))
        claims = {}
        for name in named:
            k = _default_row_index(name)
            if k is None:
                continue
            claims[k] = name
            if (k < first and self._row_names[k] is None) or \
                    (first <= k < stop and names[k - first] is None):
                clash.append(name)
        clash += [f"r{k}" for k in self._claimed_defaults
                  if first <= k < stop and names[k - first] is None]
        if clash:
            raise LpBuildError(f"duplicate row name {clash[0]!r}")
        self._name_to_row.update(named)
        self._claimed_defaults.update(claims)
        self._row_names.extend(names)

    def _flush_tail(self):
        rows, cols, coefs = self._tail
        if rows:
            self._coo.append((np.array(rows, dtype=np.int32),
                              np.array(cols, dtype=np.int32),
                              np.array(coefs, dtype=np.float64)))
            self._tail = ([], [], [])

    def add_rows(self, rows, cols, coefs, bounds, sense, names=None):
        """Append a block of rows given as COO triplets; returns the index of
        its first row.

        Local row ``k`` (``0 <= k < len(bounds)``) reads
        ``sum(coefs[e] * x[cols[e]] over e with rows[e] == k) <sense> bounds[k]``
        with one ``sense`` ("=", "<" or ">") for the block.  Repeated
        (row, column) entries are summed in the order given and zero
        coefficients dropped, as LinExpr arithmetic does.  ``names`` holds a
        name or None (the default "r<index>") per row.  The rows count as
        created with right-hand side 0, which is what :meth:`set_rhs` values
        are taken relative to.
        """
        if sense not in ("=", "<", ">"):
            raise LpBuildError(f"unknown sense {sense!r}")
        bounds = np.array(bounds, dtype=np.float64).reshape(-1)
        count = len(bounds)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        coefs = np.asarray(coefs, dtype=np.float64).reshape(-1)
        if not len(rows) == len(cols) == len(coefs):
            raise LpBuildError("rows, cols and coefs differ in length")
        ncol = self.num_vars
        if len(rows) and (rows.min() < 0 or rows.max() >= count
                          or cols.min() < 0 or cols.max() >= ncol):
            raise LpBuildError("row or column index out of range")
        names = [None] * count if names is None else list(names)
        if len(names) != count:
            raise LpBuildError(f"{len(names)} names for {count} rows")
        first = self.num_rows
        self._claim_row_names(names, first)

        width = max(ncol, 1)
        key = rows * width + cols
        order = np.argsort(key, kind="stable")
        key, coefs = key[order], coefs[order]
        if len(key) > 1 and np.any(key[1:] == key[:-1]):
            key, slot = np.unique(key, return_inverse=True)
            merged = np.zeros(len(key))
            np.add.at(merged, slot, coefs)  # left to right, from 0.0
            coefs = merged
        keep = coefs != 0.0
        key, coefs = key[keep], coefs[keep]
        self._flush_tail()
        self._coo.append(((key // width + first).astype(np.int32),
                          (key % width).astype(np.int32), coefs))
        self._sense += bytes([ord(sense)]) * count
        self._bound.frombytes(bounds.tobytes())
        self._bound0.frombytes(bounds.tobytes())
        self._rhs0.frombytes(bytes(8 * count))  # 0.0
        self._structure_version += 1
        return first

    def _add_one_row(self, lhs, rhs, sense, name):
        rhs_expr = as_expr(rhs)
        expr = as_expr(lhs) - rhs_expr
        idx = self.num_rows
        self._claim_row_names([name], idx)
        items = sorted((c, v) for c, v in expr.terms.items() if v != 0.0)
        rows, cols, coefs = self._tail
        rows.extend([idx] * len(items))
        cols.extend(c for c, _ in items)
        coefs.extend(v for _, v in items)
        bound = -expr.const
        self._sense.append(sense)
        self._bound.append(bound)
        self._bound0.append(bound)
        self._rhs0.append(rhs_expr.const)
        self._structure_version += 1
        return f"r{idx}" if name is None else name

    def add_eq(self, lhs, rhs=0.0, name=None):
        return self._add_one_row(lhs, rhs, _EQ, name)

    def add_le(self, lhs, rhs=0.0, name=None):
        return self._add_one_row(lhs, rhs, _LE, name)

    def add_ge(self, lhs, rhs=0.0, name=None):
        return self._add_one_row(lhs, rhs, _GE, name)

    def minimize(self, expr):
        expr = as_expr(expr)
        self._obj = {c: v for c, v in expr.terms.items() if v != 0.0}
        self._obj_const = expr.const
        self._structure_version += 1

    def _row_index(self, name):
        idx = self._name_to_row.get(name)
        if idx is None:
            idx = _default_row_index(name)
            if idx is None or idx >= self.num_rows or self._row_names[idx] is not None:
                raise LpBuildError(f"no row named {name!r}")
        return idx

    def set_rhs(self, name, value):
        """Update the right-hand side of a named row in place.

        On the highs backend this re-uses the live solver model, so the next
        ``solve()`` is a warm re-solve.  ``value`` has the same meaning as the
        ``rhs`` argument the row was created with.
        """
        idx = self._row_index(name)
        bound = self._bound0[idx] + (float(value) - self._rhs0[idx])
        self._bound[idx] = bound
        sense = self._sense[idx]
        self._pending_row_bounds[idx] = (-INF if sense == _LE else bound,
                                         INF if sense == _GE else bound)

    def row_names(self):
        return [f"r{k}" if name is None else name
                for k, name in enumerate(self._row_names)]

    def _senses(self):
        return np.frombuffer(self._sense, dtype=np.uint8).copy()

    def _cost(self):
        cost = np.zeros(self.num_vars)
        if self._obj:
            cost[list(self._obj)] = list(self._obj.values())
        return cost

    def _assemble(self):
        """The model as arrays, with the constraint matrix column-wise (CSC):
        ``(start, index, value, cost, lb, ub, row_lo, row_hi)``."""
        self._flush_tail()
        if len(self._coo) > 1:
            self._coo = [tuple(np.concatenate(part) for part in zip(*self._coo))]
        if self._coo:
            rows, cols, coefs = self._coo[0]
        else:
            rows = cols = np.zeros(0, dtype=np.int32)
            coefs = np.zeros(0)
        # the triplets are in row order, so a stable sort keeps it per column
        order = np.argsort(cols, kind="stable")
        start = np.zeros(self.num_vars + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=self.num_vars), out=start[1:])
        sense = self._senses()
        bound = np.frombuffer(self._bound, dtype=np.float64).copy()
        return (start, rows[order], coefs[order], self._cost(),
                np.asarray(self._col_lb, dtype=float),
                np.asarray(self._col_ub, dtype=float),
                np.where(sense == _LE, -INF, bound),
                np.where(sense == _GE, INF, bound))

    # -- solving -------------------------------------------------------------

    def solve(self, time_limit=None):
        if self.num_vars == 0:
            return self._solve_trivial()
        if self.backend == "highs":
            return self._solve_highs(time_limit)
        return self._solve_linprog(time_limit)

    def _solve_trivial(self):
        # No variables: every row is a constant; check feasibility directly.
        rlo, rhi = self._assemble()[6:]
        if np.any((rlo - 1e-12 > 0.0) | (rhi + 1e-12 < 0.0)):
            return LpSolution(self, INFEASIBLE, None, np.zeros(0), None, None, 0.0)
        return LpSolution(self, OPTIMAL, self._obj_const, np.zeros(0),
                          np.zeros(self.num_rows), np.zeros(0), 0.0)

    def _new_highs(self):
        solver = _hcore._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("threads", 1)
        solver.setOptionValue("random_seed", 0)
        return solver

    def _highs_model(self):
        """A fresh HighsLp of the current model, and its number of nonzeros."""
        start, index, value, cost, lb, ub, rlo, rhi = self._assemble()
        inf = _hcore.kHighsInf
        model = _hcore.HighsLp()
        model.num_col_ = self.num_vars
        model.num_row_ = self.num_rows
        model.col_cost_ = cost
        model.offset_ = 0.0
        model.col_lower_ = np.where(np.isneginf(lb), -inf, lb)
        model.col_upper_ = np.where(np.isposinf(ub), inf, ub)
        model.row_lower_ = np.where(np.isneginf(rlo), -inf, rlo)
        model.row_upper_ = np.where(np.isposinf(rhi), inf, rhi)
        model.a_matrix_.format_ = _hcore.MatrixFormat.kColwise
        model.a_matrix_.start_ = start
        model.a_matrix_.index_ = index
        model.a_matrix_.value_ = value
        return model, len(value)

    def _build_highs(self):
        model, nnz = self._highs_model()
        solver = self._new_highs()
        solver.passModel(model)
        self._solver = solver
        self._built_version = self._structure_version
        self._size = (self.num_rows, self.num_vars, nnz)
        self._pending_row_bounds.clear()

    def _solve_highs(self, time_limit):
        if self._solver is None or self._built_version != self._structure_version:
            self._build_highs()
        elif self._pending_row_bounds:
            for idx, (lo, hi) in self._pending_row_bounds.items():
                inf = _hcore.kHighsInf
                self._solver.changeRowBounds(
                    idx, -inf if lo == -INF else lo, inf if hi == INF else hi)
            self._pending_row_bounds.clear()
        solver = self._solver
        solver.setOptionValue("time_limit", float(time_limit) if time_limit else INF)
        t0 = solver.getRunTime()
        solver.run()
        seconds = solver.getRunTime() - t0
        _notify_trackers(seconds, self._size)
        status = solver.getModelStatus()
        S = _hcore.HighsModelStatus
        if status == S.kUnboundedOrInfeasible:
            status = self._disambiguate_highs()
        if status == S.kOptimal:
            sol = solver.getSolution()
            x = np.asarray(sol.col_value, dtype=float)
            row_sens = np.asarray(sol.row_dual, dtype=float)
            col_sens = np.asarray(sol.col_dual, dtype=float)
            obj = float(self._cost() @ x) + self._obj_const
            return LpSolution(self, OPTIMAL, obj, x, row_sens, col_sens, seconds)
        if status == S.kInfeasible:
            return LpSolution(self, INFEASIBLE, None, None, None, None, seconds)
        if status == S.kUnbounded:
            return LpSolution(self, UNBOUNDED, None, None, None, None, seconds)
        if status in (S.kTimeLimit, S.kIterationLimit):
            return LpSolution(self, TIME_LIMIT, None, None, None, None, seconds)
        raise LpSolverError(f"solver failed on {self.name!r}: {status}")

    def _disambiguate_highs(self):
        # Presolve sometimes cannot tell infeasible from unbounded; retry
        # without it on a throwaway instance.
        solver = self._new_highs()
        solver.setOptionValue("presolve", "off")
        solver.passModel(self._highs_model()[0])
        solver.run()
        return solver.getModelStatus()

    def _solve_linprog(self, time_limit):
        from scipy.optimize import linprog
        from scipy.sparse import csc_matrix

        start, index, value, cost, lb, ub, rlo, rhi = self._assemble()
        A = csc_matrix((value, index, start),
                       shape=(self.num_rows, self.num_vars)).tocsr()
        sense = self._senses()
        eq = np.flatnonzero(sense == _EQ)
        ineq = np.flatnonzero(sense != _EQ)
        sign = np.where(sense[ineq] == _GE, -1.0, 1.0)  # ">" rows flip to "<"
        A_ub = A[ineq]
        A_ub.data *= np.repeat(sign, np.diff(A_ub.indptr))
        self._size = (self.num_rows, self.num_vars, len(value))
        bounds = [(None if lo == -INF else lo, None if hi == INF else hi)
                  for lo, hi in zip(self._col_lb, self._col_ub)]
        options = {"presolve": True}
        if time_limit:
            options["time_limit"] = float(time_limit)
        t0 = time.perf_counter()
        res = linprog(
            cost,
            A_ub=A_ub if len(ineq) else None,
            b_ub=np.where(sign > 0, rhi[ineq], -rlo[ineq]) if len(ineq) else None,
            A_eq=A[eq] if len(eq) else None,
            b_eq=rlo[eq] if len(eq) else None,
            bounds=bounds,
            method="highs",
            options=options,
        )
        seconds = time.perf_counter() - t0
        _notify_trackers(seconds, self._size)
        if res.status == 0:
            row_sens = np.zeros(self.num_rows)
            if len(eq):
                row_sens[eq] = res.eqlin.marginals
            if len(ineq):
                row_sens[ineq] += sign * res.ineqlin.marginals
            col_sens = np.asarray(res.lower.marginals) + np.asarray(res.upper.marginals)
            obj = float(res.fun) + self._obj_const
            return LpSolution(self, OPTIMAL, obj, np.asarray(res.x), row_sens,
                              col_sens, seconds)
        if res.status == 2:
            return LpSolution(self, INFEASIBLE, None, None, None, None, seconds)
        if res.status == 3:
            return LpSolution(self, UNBOUNDED, None, None, None, None, seconds)
        if res.status == 1:
            return LpSolution(self, TIME_LIMIT, None, None, None, None, seconds)
        raise LpSolverError(f"solver failed on {self.name!r}: {res.message}")

    # -- text dump -----------------------------------------------------------

    def to_lp_text(self):
        """Deterministic CPLEX-LP-style dump, for debugging and golden tests."""
        start, index, value, _, _, _, rlo, rhi = self._assemble()
        out = [f"\\ {self.name}", "Minimize"]
        terms = " ".join(
            f"{v:+.12g} {self._col_names[c]}" for c, v in sorted(self._obj.items()))
        out.append(f" obj: {terms if terms else '0'}")
        if self._obj_const:
            out.append(f"\\ objective constant {self._obj_const:+.12g}")
        out.append("Subject To")
        # row-major view of the CSC arrays; a stable sort keeps columns ascending
        cols = np.repeat(np.arange(self.num_vars), np.diff(start))
        order = np.argsort(index, kind="stable")
        cols, coefs = cols[order].tolist(), value[order].tolist()
        ends = np.cumsum(np.bincount(index, minlength=self.num_rows)).tolist()
        rlo, rhi = rlo.tolist(), rhi.tolist()
        begin = 0
        for r, (name, sense, end) in enumerate(zip(self.row_names(), self._sense, ends)):
            lhs = " ".join(f"{v:+.12g} {self._col_names[c]}"
                           for c, v in zip(cols[begin:end], coefs[begin:end]))
            lhs = lhs or "0"
            begin = end
            if sense == _EQ:
                out.append(f" {name}: {lhs} = {rlo[r]:.12g}")
            elif sense == _LE:
                out.append(f" {name}: {lhs} <= {rhi[r]:.12g}")
            else:
                out.append(f" {name}: {lhs} >= {rlo[r]:.12g}")
        out.append("Bounds")
        for c, name in enumerate(self._col_names):
            lo, hi = self._col_lb[c], self._col_ub[c]
            if lo == -INF and hi == INF:
                out.append(f" {name} free")
            elif lo == -INF:
                out.append(f" -inf <= {name} <= {hi:.12g}")
            elif hi == INF:
                out.append(f" {name} >= {lo:.12g}")
            else:
                out.append(f" {lo:.12g} <= {name} <= {hi:.12g}")
        out.append("End")
        return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# solutions


@dataclass
class LpSolution:
    lp: LinearProgram
    status: str
    objective: float | None
    _x: np.ndarray | None = field(repr=False)
    _row_sens: np.ndarray | None = field(repr=False)
    _col_sens: np.ndarray | None = field(repr=False)
    solve_seconds: float = 0.0

    def __init__(self, lp, status, objective, x, row_sens, col_sens, solve_seconds):
        self.lp = lp
        self.status = status
        self.objective = objective
        self._x = x
        self._row_sens = row_sens
        self._col_sens = col_sens
        self.solve_seconds = solve_seconds

    @property
    def is_optimal(self):
        return self.status == OPTIMAL

    def _require_solution(self):
        if self._x is None:
            raise LpError(f"no solution available (status={self.status})")

    def value(self, expr):
        """Evaluate a LinExpr, a number, or an (object) array of them."""
        self._require_solution()
        if isinstance(expr, LinExpr):
            total = expr.const
            for c, v in expr.terms.items():
                total += v * self._x[c]
            return float(total)
        if isinstance(expr, np.ndarray) and expr.dtype == object:
            out = np.empty(expr.shape, dtype=float)
            for idx in np.ndindex(expr.shape):
                out[idx] = self.value(expr[idx])
            return out
        if isinstance(expr, (list, tuple)):
            return np.array([self.value(e) for e in expr])
        return float(expr)

    def column_values(self, cols):
        """Primal values of the variables with column indices ``cols`` (any shape)."""
        self._require_solution()
        return self._x[np.asarray(cols, dtype=np.int64)]

    def sensitivity(self, name):
        """d(objective)/d(rhs) of the named row."""
        self._require_solution()
        return float(self._row_sens[self.lp._row_index(name)])

    def dual(self, name):
        """Dual with >=0 convention for <= rows in a minimization."""
        sens = self.sensitivity(name)
        return -sens if self.lp._sense[self.lp._row_index(name)] == _LE else sens

    # -- diagnostics ---------------------------------------------------------

    def kkt_residuals(self):
        """Max primal/dual-feasibility and stationarity residuals.

        Useful as a cheap independent check that the reported solution and
        duals are mutually consistent.
        """
        self._require_solution()
        lp = self.lp
        x, y = self._x, self._row_sens
        start, index, value, cost, lb, ub, rlo, rhi = lp._assemble()
        cols = np.repeat(np.arange(lp.num_vars), np.diff(start))
        ax = np.bincount(index, weights=value * x[cols], minlength=lp.num_rows)
        # infinite row bounds give -inf terms, which never win the max
        primal = max(float(np.max(rlo - ax, initial=0.0)),
                     float(np.max(ax - rhi, initial=0.0)),
                     float(np.max(lb - x, initial=0.0)),
                     float(np.max(x - ub, initial=0.0)))
        # sensitivity signs: <= rows need y <= 0, >= rows y >= 0
        sense = lp._senses()
        dual_sign = max(float(np.max(y[sense == _LE], initial=0.0)),
                        float(np.max(-y[sense == _GE], initial=0.0)))
        aty = np.bincount(cols, weights=value * y[index], minlength=lp.num_vars)
        stationarity = float(np.max(np.abs(cost - aty - self._col_sens), initial=0.0))
        return {"primal": primal, "dual_sign": dual_sign, "stationarity": stationarity}

    def duality_gap(self):
        """|primal objective - dual objective| (strong-duality spot check)."""
        self._require_solution()
        lp = self.lp
        _, _, _, _, lb, ub, rlo, rhi = lp._assemble()
        y, z = self._row_sens, self._col_sens
        rhs = np.where(lp._senses() == _LE, rhi, rlo)
        used = y != 0.0
        at_lb = (z > 0) & (lb != -INF)
        at_ub = (z < 0) & (ub != INF)
        dual_val = float(y[used] @ rhs[used] + z[at_lb] @ lb[at_lb] + z[at_ub] @ ub[at_ub])
        return abs((self.objective - lp._obj_const) - dual_val)
