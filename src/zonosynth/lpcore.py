"""Sparse linear programs with named rows, duals, and cheap warm updates.

This is the single place in the package that talks to an LP solver: the
HiGHS bindings that ship inside scipy (``scipy.optimize._highspy``, scipy
>= 1.15).  Models are built incrementally from column indices: variables
come as int arrays from :meth:`LinearProgram.var_block` and rows a block at
a time as COO triplets from :meth:`LinearProgram.add_rows`.  Rows and
variables can be named, and solutions expose primal values by column, row
duals by name and column duals (reduced costs) by index.

Column bounds and costs are kept as arrays.  The solver instance stays alive
between solves, so :meth:`LinearProgram.set_col_bounds`,
:meth:`LinearProgram.set_costs` and :meth:`LinearProgram.set_rhs` change it
in place (one HiGHS call for a whole block of columns) and the next solve is
a warm re-solve from the last basis.  Reported times are in-solver seconds.

:class:`LinExpr` (a sparse affine expression) with ``var``, ``add_eq``/
``add_le``/``add_ge``, ``set_rhs``, ``minimize`` and ``value`` is the
row-at-a-time path: one row per call, written as expression arithmetic.
The package's programs do not use it; it stays as the plain reference that
the block emitters are tested against.

Sign conventions
----------------
``LpSolution.sensitivity(name)`` is always d(objective)/d(rhs) for the named
row.  ``LpSolution.dual(name)`` applies the textbook sign convention for a
minimization: duals of ``<=`` rows are >= 0 (i.e. the negated sensitivity),
duals of ``=`` and ``>=`` rows are the sensitivity itself.
"""

from __future__ import annotations

import functools
import threading
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

INF = float("inf")

from scipy.optimize._highspy import _core as _hcore  # vendored HiGHS (scipy >= 1.15)

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


def col_exprs(cols):
    """The variables with column indices ``cols`` as an object array of
    LinExpr of the same shape."""
    cols = np.asarray(cols)
    out = np.empty(cols.shape, dtype=object)
    out.reshape(-1)[:] = [LinExpr({c: 1.0}) for c in cols.ravel().tolist()]
    return out


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
    given as a LinExpr.  Column bounds and costs are arrays, grown by
    doubling as columns are added.
    """

    def __init__(self, name="lp"):
        self.name = name
        self._col_names = []
        self._name_to_col = {}
        self._lb = np.zeros(0)        # column arrays, valid up to num_vars
        self._ub = np.zeros(0)
        self._cost = np.zeros(0)
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
        stop = len(self._col_names)
        if stop > len(self._lb):
            extra = np.zeros(max(stop, 2 * len(self._lb)) - len(self._lb))
            self._lb, self._ub, self._cost = (
                np.concatenate([a, extra]) for a in (self._lb, self._ub, self._cost))
        self._lb[first:stop] = float(lb)
        self._ub[first:stop] = float(ub)
        self._structure_version += 1
        return first

    def var(self, name=None, lb=-INF, ub=INF):
        """Create a variable; returns it as a single-term LinExpr."""
        col = len(self._col_names)
        self._add_cols([f"v{col}" if name is None else name], lb, ub)
        return LinExpr({col: 1.0})

    def var_block(self, name, shape, lb=-INF, ub=INF):
        """Fresh variables ``name[i]`` / ``name[i,j]`` in C order (shape
        ``()``: the one variable ``name``); returns their column indices as
        an int array of ``shape``."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        tags = [""]
        for axis, size in enumerate(shape):
            sep = "," if axis else ""
            tags = [f"{tag}{sep}{k}" for tag in tags for k in range(size)]
        first = self._add_cols([f"{name}[{tag}]" if shape else name for tag in tags],
                               lb, ub)
        return np.arange(first, first + len(tags)).reshape(shape)

    def var_array(self, name, shape, lb=-INF, ub=INF):
        """Array of fresh variables named ``name[i]`` / ``name[i,j]``, as LinExpr."""
        return col_exprs(self.var_block(name, shape, lb=lb, ub=ub))

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
        (row, column) entries are summed left to right from 0.0, and
        entries whose coefficient is then zero are dropped.  ``names`` holds a
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
        self._cost[:] = 0.0
        if expr.terms:
            self._cost[list(expr.terms)] = list(expr.terms.values())
        self._obj_const = expr.const
        self._structure_version += 1

    def _live(self):
        """True if the solver instance holds the current structure."""
        return self._solver is not None and self._built_version == self._structure_version

    def col_bounds(self, cols):
        """Copies of the (lower, upper) bounds of the columns ``cols``."""
        cols = np.asarray(cols, dtype=np.int64)
        return self._lb[cols].copy(), self._ub[cols].copy()

    def set_col_bounds(self, cols, lb, ub):
        """Set the bounds of the columns ``cols`` (``lb``/``ub`` scalars or
        arrays).  A live solver instance takes them in one call, and the
        next ``solve()`` is a warm re-solve."""
        cols = np.asarray(cols, dtype=np.int32)
        self._lb[cols] = lb
        self._ub[cols] = ub
        if self._live():
            self._solver.changeColsBounds(len(cols), cols, self._lb[cols], self._ub[cols])

    def set_costs(self, cols, values):
        """Set the objective coefficients of the columns ``cols``; like
        :meth:`set_col_bounds`, one call on a live solver instance."""
        cols = np.asarray(cols, dtype=np.int32)
        self._cost[cols] = values
        if self._live():
            self._solver.changeColsCost(len(cols), cols, self._cost[cols])

    def _row_index(self, name):
        idx = self._name_to_row.get(name)
        if idx is None:
            idx = _default_row_index(name)
            if idx is None or idx >= self.num_rows or self._row_names[idx] is not None:
                raise LpBuildError(f"no row named {name!r}")
        return idx

    def set_rhs(self, name, value):
        """Update the right-hand side of a named row in place.

        This re-uses the live solver model, so the next ``solve()`` is a warm
        re-solve.  ``value`` has the same meaning as the ``rhs`` argument the
        row was created with.
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
        n = self.num_vars
        return (start, rows[order], coefs[order], self._cost[:n].copy(),
                self._lb[:n].copy(), self._ub[:n].copy(),
                np.where(sense == _LE, -INF, bound),
                np.where(sense == _GE, INF, bound))

    # -- solving -------------------------------------------------------------

    def solve(self, time_limit=None):
        if self.num_vars == 0:
            return self._solve_trivial()
        return self._solve_highs(time_limit)

    def _solve_trivial(self):
        # No variables: every row is a constant; check feasibility directly.
        rlo, rhi = self._assemble()[6:]
        if np.any((rlo - 1e-12 > 0.0) | (rhi + 1e-12 < 0.0)):
            return LpSolution(self, INFEASIBLE, None, np.zeros(0), None, 0.0)
        duals = SimpleNamespace(row_dual=np.zeros(self.num_rows), col_dual=np.zeros(0))
        return LpSolution(self, OPTIMAL, self._obj_const, np.zeros(0), duals, 0.0)

    def _new_highs(self):
        solver = _hcore._Highs()
        solver.setOptionValue("output_flag", False)
        solver.setOptionValue("threads", 1)
        solver.setOptionValue("random_seed", 0)
        return solver

    def _highs_model(self):
        """A fresh HighsLp of the current model, and its number of nonzeros."""
        # HiGHS's infinity is IEEE inf, so bounds pass through unchanged
        start, index, value, cost, lb, ub, rlo, rhi = self._assemble()
        model = _hcore.HighsLp()
        model.num_col_ = self.num_vars
        model.num_row_ = self.num_rows
        model.col_cost_ = cost
        model.offset_ = 0.0
        model.col_lower_ = lb
        model.col_upper_ = ub
        model.row_lower_ = rlo
        model.row_upper_ = rhi
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
        if not self._live():
            self._build_highs()
        elif self._pending_row_bounds:
            for idx, (lo, hi) in self._pending_row_bounds.items():
                self._solver.changeRowBounds(idx, lo, hi)
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
            sol = solver.getSolution()  # a copy: later solves leave it alone
            x = np.asarray(sol.col_value, dtype=float)
            obj = float(self._cost[:self.num_vars] @ x) + self._obj_const
            return LpSolution(self, OPTIMAL, obj, x, sol, seconds)
        if status == S.kInfeasible:
            return LpSolution(self, INFEASIBLE, None, None, None, seconds)
        if status == S.kUnbounded:
            return LpSolution(self, UNBOUNDED, None, None, None, seconds)
        if status in (S.kTimeLimit, S.kIterationLimit):
            return LpSolution(self, TIME_LIMIT, None, None, None, seconds)
        raise LpSolverError(f"solver failed on {self.name!r}: {status}")

    def _disambiguate_highs(self):
        # Presolve sometimes cannot tell infeasible from unbounded; retry
        # without it on a throwaway instance.
        solver = self._new_highs()
        solver.setOptionValue("presolve", "off")
        solver.passModel(self._highs_model()[0])
        solver.run()
        return solver.getModelStatus()

    # -- text dump -----------------------------------------------------------

    def to_lp_text(self):
        """Deterministic CPLEX-LP-style dump, for debugging and golden tests."""
        start, index, value, cost, lb, ub, rlo, rhi = self._assemble()
        out = [f"\\ {self.name}", "Minimize"]
        used = np.flatnonzero(cost)
        terms = " ".join(f"{v:+.12g} {self._col_names[c]}"
                         for c, v in zip(used.tolist(), cost[used].tolist()))
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
        for name, lo, hi in zip(self._col_names, lb.tolist(), ub.tolist()):
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
    _duals: object = field(repr=False)
    solve_seconds: float = 0.0

    def __init__(self, lp, status, objective, x, duals, solve_seconds):
        """``duals`` has the row and column sensitivities as ``row_dual``
        and ``col_dual``, read into arrays on first use (HiGHS's solution)."""
        self.lp = lp
        self.status = status
        self.objective = objective
        self._x = x
        self._duals = duals
        self.solve_seconds = solve_seconds

    @functools.cached_property
    def _row_sens(self):
        return np.asarray(self._duals.row_dual, dtype=float)

    @functools.cached_property
    def _col_sens(self):
        return np.asarray(self._duals.col_dual, dtype=float)

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
        """Primal values of the variables with column indices ``cols`` (any
        shape); a signed zero reads as +0.0, as in :meth:`value`."""
        self._require_solution()
        return self._x[np.asarray(cols, dtype=np.int64)] + 0.0

    def column_duals(self, cols):
        """Reduced costs of the columns ``cols``: d(objective)/d(value) of a
        column fixed by its bounds."""
        self._require_solution()
        return self._col_sens[np.asarray(cols, dtype=np.int64)]

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
