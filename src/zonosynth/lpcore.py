"""Sparse linear programs over column and row indices, with cheap warm updates.

This is the single place in the package that talks to an LP solver: the
HiGHS bindings that ship inside scipy (``scipy.optimize._highspy``, scipy
>= 1.15).  :func:`_load_highs` finds that one extension file in scipy's
install folder without importing scipy, loads it and registers it under its
own module name, so the ``scipy.optimize`` package, whose ``__init__``
costs about 0.5 s of imports lpcore does not use, is never run.  A later
``import scipy.optimize`` reuses the registered module; where the file is
not found, the plain import is used.

Models are built incrementally from indices: variables come as int arrays
of column indices from :meth:`LinearProgram.var_block`, and rows a block at
a time as COO triplets from :meth:`LinearProgram.add_rows`, which returns
the index of the block's first row.  Rows and columns have no names; a
program has one ``name``, for its messages.  Solutions expose primal values
and column duals (reduced costs) by column index.  :class:`_LpBatch` builds
programs of one row structure together, as arrays with a leading member
axis.

Column bounds and costs are kept as arrays.  The solver instance stays alive
between solves, so :meth:`LinearProgram.set_col_bounds` and
:meth:`LinearProgram.set_costs` change it in place (one HiGHS call for a
whole block of columns), :meth:`LinearProgram.add_rows` appends to it, and
the next solve is a warm re-solve from the last basis.  Reported times are
in-solver seconds.

:class:`LinExpr`, :func:`as_expr` and ``add_eq``/``add_le``/``add_ge`` (one
row per call, written as expression arithmetic) are no part of that API;
no program of the package calls them.  They stay only because the
benchmark's layer tracer (``perfbench/layertrace.py``) wraps the three
adders and its tests assert that every traced function exists; they go with
the next change to the benchmark.  The row-wise reference layer built on
them lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

INF = float("inf")


def _load_highs():
    """scipy's HiGHS extension module, loaded without ``scipy.optimize``."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    for folder in scipy_spec.submodule_search_locations if scipy_spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module  # before exec: scipy.optimize reuses it
                spec.loader.exec_module(module)
                return module
    from scipy.optimize._highspy import _core
    return _core


_hcore = _load_highs()

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
TIME_LIMIT = "time_limit"


class LpError(Exception):
    """Base class for lpcore errors."""


class LpBuildError(LpError):
    """Raised for malformed models (bad shapes, indices out of range, ...)."""


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

    def _add(self, seconds, size):
        rows, cols, nnz = size
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
    """Sparse affine expression ``sum(coef * var) + const``, the argument
    of ``add_eq``/``add_le``/``add_ge`` (see the module docstring).

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


# --------------------------------------------------------------------------
# the program

_LE, _GE = ord("<"), ord(">")


def _merge(key, coefs):
    """Entries sorted by ``key`` (stably), those of one key summed left to
    right from 0.0 and those whose sum is zero dropped: ``(keys, sums)``."""
    order = np.argsort(key, kind="stable")
    key, coefs = key[order], coefs[order]
    new = np.concatenate([[True], key[1:] != key[:-1]])
    if not new.all():
        merged = np.zeros(np.count_nonzero(new))
        np.add.at(merged, np.cumsum(new) - 1, coefs)  # in order, unlike reduceat
        key, coefs = key[new], merged
    keep = coefs != 0.0
    return key[keep], coefs[keep]


class LinearProgram:
    """Incrementally built LP, solved by HiGHS.

    Minimization only.  Infeasible/unbounded are reported as statuses on the
    returned :class:`LpSolution`; numerical failures raise
    :class:`LpSolverError`.

    Rows live in one store: COO triplets (row, column, coefficient), rows
    ascending within each column, plus per-row sense and bound.
    :meth:`add_rows` appends a block of rows given as triplets.  Column
    bounds and costs are arrays, grown by doubling as columns are added.
    """

    def __init__(self, name="lp"):
        self.name = name
        self._num_cols = 0
        self._lb = np.zeros(0)        # column arrays, valid up to num_vars
        self._ub = np.zeros(0)
        self._cost = np.zeros(0)
        self._coo = []                # (rows, cols, coefs) blocks, row- or column-ordered
        self._sense = bytearray()     # "=", "<" or ">" per row
        self._bound = array("d")      # row reads: terms <sense> bound
        self._structure_version = 0
        self._solver = None
        self._built_version = -1
        self._size = (0, 0, 0)  # (rows, cols, nnz) of the last model built

    # -- variables ---------------------------------------------------------

    @property
    def num_vars(self):
        return self._num_cols

    @property
    def num_rows(self):
        return len(self._sense)

    def var_block(self, shape, lb=-INF, ub=INF):
        """Fresh variables, one per index of ``shape`` in C order (shape
        ``()``: one variable); returns their column indices as an int array
        of ``shape``."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        first = self._num_cols
        stop = first + math.prod(shape)
        if stop > len(self._lb):
            extra = np.zeros(max(stop, 2 * len(self._lb)) - len(self._lb))
            self._lb, self._ub, self._cost = (
                np.concatenate([a, extra]) for a in (self._lb, self._ub, self._cost))
        self._lb[first:stop] = float(lb)
        self._ub[first:stop] = float(ub)
        self._num_cols = stop
        self._structure_version += 1
        return np.arange(first, stop).reshape(shape)

    def _install(self, col_records, entries, sense, bounds):
        """Make this empty program the given model: ``(size, lb, ub)`` per
        block of columns, the matrix ``(rows, cols, coefs)`` in column
        order, one sense byte and one bound per row."""
        sizes = [record[0] for record in col_records]
        self._num_cols = sum(sizes)
        self._lb, self._ub = (np.repeat(np.array([record[i] for record in col_records],
                                                 dtype=float), sizes) for i in (1, 2))
        self._cost = np.zeros(self._num_cols)
        self._coo = [entries]
        self._sense = bytearray(sense)
        self._bound.frombytes(bounds.tobytes())
        self._structure_version += 1

    # -- constraints ---------------------------------------------------------

    def add_rows(self, rows, cols, coefs, bounds, sense):
        """Append a block of rows given as COO triplets; returns the index of
        its first row.

        Local row ``k`` (``0 <= k < len(bounds)``) reads
        ``sum(coefs[e] * x[cols[e]] over e with rows[e] == k) <sense> bounds[k]``
        with one ``sense`` ("=", "<" or ">") for the block.  Repeated
        (row, column) entries are summed left to right from 0.0, and
        entries whose coefficient is then zero are dropped.  A live solver
        instance takes the block in one call and keeps its basis, so the
        next ``solve()`` is a warm re-solve.
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
        first = self.num_rows
        width = max(ncol, 1)
        key, coefs = _merge(rows * width + cols, coefs)
        local, cols = (key // width).astype(np.int32), (key % width).astype(np.int32)
        live = self._live()
        self._coo.append((local + first, cols, coefs))
        self._sense += bytes([ord(sense)]) * count
        self._bound.frombytes(bounds.tobytes())
        self._structure_version += 1
        if live:
            self._solver.addRows(
                count, np.full(count, -INF) if sense == "<" else bounds,
                np.full(count, INF) if sense == ">" else bounds, len(coefs),
                np.searchsorted(local, np.arange(count)).astype(np.int32), cols, coefs)
            self._built_version = self._structure_version
            rows, ncols, nnz = self._size
            self._size = (rows + count, ncols, nnz + len(coefs))
        return first

    def _add_one_row(self, lhs, rhs, sense):
        expr = as_expr(lhs) - as_expr(rhs)
        return self.add_rows(np.zeros(len(expr.terms), dtype=np.int64), list(expr.terms),
                             list(expr.terms.values()), [-expr.const], sense)

    # add_eq/add_le/add_ge: one LinExpr row per call; no program of the
    # package calls them, see the module docstring

    def add_eq(self, lhs, rhs=0.0):
        """Append the row ``lhs = rhs``; returns its index."""
        return self._add_one_row(lhs, rhs, "=")

    def add_le(self, lhs, rhs=0.0):
        """Append the row ``lhs <= rhs``; returns its index."""
        return self._add_one_row(lhs, rhs, "<")

    def add_ge(self, lhs, rhs=0.0):
        """Append the row ``lhs >= rhs``; returns its index."""
        return self._add_one_row(lhs, rhs, ">")

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

    def _senses(self):
        return np.frombuffer(self._sense, dtype=np.uint8).copy()

    def _assemble(self):
        """The model as arrays, with the constraint matrix column-wise (CSC):
        ``(start, index, value, cost, lb, ub, row_lo, row_hi)``."""
        if len(self._coo) > 1:
            self._coo = [tuple(np.concatenate(part) for part in zip(*self._coo))]
        if self._coo:
            rows, cols, coefs = self._coo[0]
        else:
            rows = cols = np.zeros(0, dtype=np.int32)
            coefs = np.zeros(0)
        # rows ascend within each column of every block, and later blocks hold
        # later rows, so a stable sort by column keeps them ascending
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
        duals = SimpleNamespace(col_dual=np.zeros(0))
        return LpSolution(self, OPTIMAL, 0.0, np.zeros(0), duals, 0.0)

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

    def _solve_highs(self, time_limit):
        if not self._live():
            self._build_highs()
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
            obj = float(self._cost[:self.num_vars] @ x) + 0.0  # -0.0 reads as +0.0
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


class _LpBatch:
    """Programs of one row structure, built together as arrays.

    :meth:`var_block` and :meth:`add_rows` work as on a LinearProgram, with a
    leading member axis on every array (an argument without it holds for all
    members); :meth:`member_block` adds columns to one member only, shifting
    its later columns.  :meth:`programs` hands each member the program that
    the same calls on it alone would have built, named by ``names``.
    """

    def __init__(self, names):
        self._names = list(names)
        self._next = [0] * len(self._names)     # columns per member
        self._cols = [[] for _ in self._names]  # per member: (size, lb, ub) per block
        none = np.zeros((len(self._names), 0), dtype=np.int64)
        self._entries = [(none, none, none.astype(np.float64))]  # (rows, cols, coefs)
        self._bounds = [none.astype(np.float64)]
        self._sense = bytearray()

    def var_block(self, shape, lb=-INF, ub=INF):
        """Columns of ``shape`` for every member; returns them with shape
        ``(members,) + shape``."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        size = math.prod(shape)
        for records in self._cols:
            records.append((size, lb, ub))
        first = np.array(self._next)
        self._next = [start + size for start in self._next]
        return (first[:, None] + np.arange(size)).reshape(first.shape + shape)

    def member_block(self, g, size, lb=-INF, ub=INF):
        """``size`` columns for member g alone."""
        first = self._next[g]
        self._cols[g].append((size, lb, ub))
        self._next[g] = first + size
        return np.arange(first, first + size)

    def add_rows(self, rows, cols, coefs, bounds, sense):
        lead, count, first = (len(self._names),), np.shape(bounds)[-1], len(self._sense)
        self._entries.append(tuple(np.broadcast_to(a, lead + np.shape(a)[-1:])
                                   for a in (np.asarray(rows, dtype=np.int64) + first,
                                             np.asarray(cols, dtype=np.int64),
                                             np.asarray(coefs, dtype=np.float64))))
        self._bounds.append(np.broadcast_to(np.asarray(bounds, dtype=np.float64),
                                            lead + (count,)))
        self._sense += sense.encode() * count
        return first

    def programs(self):
        """One :class:`LinearProgram` per member.  All members' entries are
        sorted in one stable pass by (member, column, row) and merged as in
        :meth:`LinearProgram.add_rows`."""
        num_rows, width = max(len(self._sense), 1), max(max(self._next, default=0), 1)
        offset, limit = np.arange(len(self._names))[:, None] * width, np.array(self._next)[:, None]
        keys, coefs = [], []
        while self._entries:  # each block is let go once its keys are made
            rows, cols, values = self._entries.pop()
            if cols.size and (cols.min() < 0 or np.any(cols >= limit)):
                raise LpBuildError("column index out of range")
            keys.append(((offset + cols) * num_rows + rows).ravel())
            coefs.append(values.ravel())
        # blocks were taken last first; reversed, every member's entries keep
        # their emission order, which the merge sums in
        key, coefs = _merge(np.concatenate(keys[::-1]), np.concatenate(coefs[::-1]))
        del keys
        member, key = np.divmod(key, width * num_rows)
        col, row = (a.astype(np.int32) for a in np.divmod(key, num_rows))
        cut = np.searchsorted(member, np.arange(len(self._names) + 1)).tolist()
        bounds = np.concatenate(self._bounds, axis=1)
        out = []
        # each member keeps views of the merged arrays, which hold nothing but
        # the members' entries; every other array of the batch is let go
        for g, (name, records) in enumerate(zip(self._names, self._cols)):
            a, b = cut[g], cut[g + 1]
            lp = LinearProgram(name=name)
            lp._install(records, (row[a:b], col[a:b], coefs[a:b]),
                        self._sense, np.ascontiguousarray(bounds[g]))
            out.append(lp)
        return out


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
        """``duals`` has the column sensitivities as ``col_dual`` (HiGHS's
        solution), read into an array on first use."""
        self.lp = lp
        self.status = status
        self.objective = objective
        self._x = x
        self._duals = duals
        self.solve_seconds = solve_seconds

    @functools.cached_property
    def _col_sens(self):
        return np.asarray(self._duals.col_dual, dtype=float)

    @property
    def is_optimal(self):
        return self.status == OPTIMAL

    def _require_solution(self):
        if self._x is None:
            raise LpError(f"no solution available (status={self.status})")

    def column_values(self, cols):
        """Primal values of the variables with column indices ``cols`` (any
        shape); a signed zero reads as +0.0."""
        self._require_solution()
        return self._x[np.asarray(cols, dtype=np.int64)] + 0.0

    def column_duals(self, cols):
        """Reduced costs of the columns ``cols``: d(objective)/d(value) of a
        column fixed by its bounds."""
        self._require_solution()
        return self._col_sens[np.asarray(cols, dtype=np.int64)]
