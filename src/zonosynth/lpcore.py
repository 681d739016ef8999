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

A model reaches HiGHS by one path, one call of ``passModel``'s array
overload: costs, column and row bounds, the matrix column-wise (CSC) and an
all-zero (continuous) integrality array.  A batch program's CSC arrays are
slices of its batch's; rows added later are merged in at the next hand-off.
HiGHS drops coefficients of magnitude at most 1e-9 as it takes a model.

Column bounds and costs are kept as arrays.  The programs of one
:class:`_LpBatch` share one HiGHS instance, so solver memory grows with the
batches, not the programs (a standalone program is a batch of one).  On the
program that holds it, :meth:`LinearProgram.set_col_bounds`,
:meth:`LinearProgram.set_costs` and :meth:`LinearProgram.add_rows` change the
instance in place, one HiGHS call per block, and the next solve is a warm
re-solve; on another they change only its arrays, and its next solve hands
the instance its model (``passModel``) and its last basis (``setBasis``: the
opaque ``HighsBasis`` kept when a sibling took the instance).  A first solve
is cold (presolve and a crash basis), except in a batch of several: the
first member to reach an optimum lends its basis to the first solve of every
other one.  HiGHS refuses a basis that does not fit (rows or columns added
since), and the solve starts cold.  Reported times are in-solver seconds.

A program carries the HiGHS options its solves run under (``options``, as
:data:`TIGHT` or :data:`IPM`).  :func:`_run` sets them, a time limit and the
settings of a retry or disambiguation before ``run()`` and puts each back
after it, so no setting outlives its solve on a shared instance.  A solve
ends :data:`OPTIMAL` or :data:`INFEASIBLE`; any other outcome (a time limit,
an unbounded model, a breakdown) raises :class:`LpSolverError`.

:class:`LinExpr`, :func:`as_expr` and ``add_eq``/``add_le``/``add_ge`` (one
row per call, written as expression arithmetic) are no part of that API;
no program of the package calls them.  They stay only because the
benchmark's layer tracer (``perfbench/layertrace.py``) wraps the three
adders and its tests assert that every traced function exists; they go with
the next change to the benchmark.  The row-wise reference layer built on
them lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
import weakref
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
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
# HiGHS options a program may carry: primal and dual feasibility tolerance
# 1e-10 instead of 1e-7, and the interior-point solver with crossover
TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
IPM = {"solver": "ipm", "run_crossover": "on"}


class LpError(Exception):
    """Base class for lpcore errors."""


class LpBuildError(LpError):
    """Raised for malformed models (bad shapes, indices out of range, ...)."""


class LpSolverError(LpError):
    """Raised when a solve ends neither optimal nor infeasible: a time
    limit, an unbounded model or a solver breakdown.  Infeasible models are
    *results* (see ``LpSolution.status``), not errors."""


# --------------------------------------------------------------------------
# solver-time tracking (used to meter certification phases etc.)

_tracker_stack: ContextVar[tuple] = ContextVar("zonosynth_lp_trackers", default=())


class SolverTimeTracker:
    """In-solver seconds, solve count and the largest model solved.

    ``cold_solves`` counts the solves that started with no basis, and
    ``retries`` those re-run by the interior-point solver after the simplex
    solver broke down; ``instances`` counts the HiGHS instances made (one
    per batch, see the module docstring, and a throwaway one per model that
    presolve cannot call infeasible or unbounded).  ``max_rows``/
    ``max_cols``/``max_nnz`` are the size of the largest LP solved in the
    context, each maximized on its own (rows, columns and nonzeros).
    """

    def __init__(self):
        self.seconds = 0.0
        self.solves = 0
        self.cold_solves = 0
        self.retries = 0
        self.instances = 0
        self.max_rows = 0
        self.max_cols = 0
        self.max_nnz = 0

    def _add(self, seconds, size, cold, retried):
        rows, cols, nnz = size
        self.seconds += seconds
        self.solves += 1
        self.cold_solves += cold
        self.retries += retried
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


def _notify_trackers(seconds, size, cold, retried):
    for tracker in _tracker_stack.get():
        tracker._add(seconds, size, cold, retried)


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
_COLWISE, _MINIMIZE = int(_hcore.MatrixFormat.kColwise), int(_hcore.ObjSense.kMinimize)
_LOWER = _hcore.HighsBasisStatus.kLower
_S = _hcore.HighsModelStatus
_OK = _hcore.HighsStatus.kOk
# a simplex breakdown, which one run under IPM retries
_BREAKDOWN = (int(_S.kNotset), int(_S.kSolveError))


def _row_bounds(sense, bound):
    """Lower and upper row bounds from the sense bytes and the bounds."""
    sense = np.frombuffer(sense, dtype=np.uint8)
    return np.where(sense == _LE, -INF, bound), np.where(sense == _GE, INF, bound)


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

    Minimization only.  A solve ends :data:`OPTIMAL` or :data:`INFEASIBLE`
    (the returned :class:`LpSolution`'s status) or raises
    :class:`LpSolverError`, under the HiGHS ``options`` (name: value).

    The matrix is kept column-wise (CSC), plus per-row sense and bound;
    :meth:`add_rows` keeps its blocks as COO triplets until the next
    hand-off merges them in.  Column bounds and costs are arrays, grown by
    doubling as columns are added.
    """

    def __init__(self, name="lp", options=None):
        self.name = name
        self.options = dict(options or {})
        self._num_cols = 0
        self._lb = np.zeros(0)        # column arrays, valid up to num_vars
        self._ub = np.zeros(0)
        self._cost = np.zeros(0)
        self._csc = (np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0))
        self._coo = []                # (rows, cols, coefs) blocks added since, row-ordered
        self._sense = bytearray()     # "=", "<" or ">" per row
        self._bound = array("d")      # row reads: terms <sense> bound
        self._rows = (np.zeros(0), np.zeros(0))  # row lower and upper bounds, made on use
        self._structure_version = 0
        self._holder = _Holder()      # the solver instance, shared within a batch
        self._ref = weakref.ref(self)  # the holder's owner while this program holds it
        self._built_version = -1      # the structure last handed to the instance
        self._basis = None            # the last basis, kept while a sibling holds the instance
        self._size = (0, 0, 0)  # (rows, cols, nnz) of the last model built
        self._shared = None           # batch programs: the batch-wide columns, in order

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

    def _install(self, cols, shared, csc, sense, rows):
        """Make this empty program the given model.  The columns ``shared``
        are kept, in order, as the layout a lent basis is mapped through."""
        self._lb, self._ub, self._cost = cols
        self._num_cols = len(self._cost)
        self._shared = shared
        self._csc = csc
        self._sense = bytearray(sense)
        self._bound.frombytes(rows[0].tobytes())
        self._rows = rows[1:]
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
        instance takes the block in one call and keeps its basis; otherwise
        the block waits for the next hand-off.
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
            self._holder.highs.addRows(
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
        """True if the solver instance holds this program's current structure."""
        return self._holder.owner is self._ref and self._built_version == self._structure_version

    def col_bounds(self, cols):
        """Copies of the (lower, upper) bounds of the columns ``cols``."""
        cols = np.asarray(cols, dtype=np.int64)
        return self._lb[cols].copy(), self._ub[cols].copy()

    def set_col_bounds(self, cols, lb, ub):
        """Set the bounds of the columns ``cols`` (``lb``/``ub`` scalars or
        arrays).  A live solver instance takes them in one call; otherwise
        they wait for the next hand-off (see the module docstring)."""
        cols = np.asarray(cols, dtype=np.int32)
        self._lb[cols] = lb
        self._ub[cols] = ub
        if self._live():
            # an array per column goes to the solver as it is
            lo = lb if np.shape(lb) == cols.shape else self._lb[cols]
            hi = ub if np.shape(ub) == cols.shape else self._ub[cols]
            self._holder.highs.changeColsBounds(len(cols), cols, lo, hi)

    def set_costs(self, cols, values):
        """Set the objective coefficients of the columns ``cols``; like
        :meth:`set_col_bounds`, one call on a live solver instance."""
        cols = np.asarray(cols, dtype=np.int32)
        self._cost[cols] = values
        if self._live():
            self._holder.highs.changeColsCost(len(cols), cols, self._cost[cols])

    def _senses(self):
        return np.frombuffer(self._sense, dtype=np.uint8).copy()

    def _matrix(self):
        """The matrix column-wise (CSC): int32 ``(start, index, value)``,
        with the rows added since the last call merged in."""
        start, index, value = self._csc
        if self._coo or len(start) != self._num_cols + 1:
            cols = np.repeat(np.arange(len(start) - 1, dtype=np.int32), np.diff(start))
            rows, cols, coefs = (np.concatenate(part)
                                 for part in zip((index, cols, value), *self._coo))
            # rows ascend within each column of every block, and later blocks
            # hold later rows, so a stable sort by column keeps them ascending
            order = np.argsort(cols, kind="stable")
            start = np.zeros(self._num_cols + 1, dtype=np.int32)
            np.cumsum(np.bincount(cols, minlength=self._num_cols), out=start[1:])
            self._csc, self._coo = (start, rows[order], coefs[order]), []
        return self._csc

    def _row_bounds(self):
        if len(self._rows[0]) != len(self._sense):  # rows were added
            self._rows = _row_bounds(self._sense, np.frombuffer(self._bound))
        return self._rows

    def _assemble(self):
        """The model as arrays, with the constraint matrix column-wise (CSC):
        ``(start, index, value, cost, lb, ub, row_lo, row_hi)``, ``start``
        as int64."""
        start, index, value = self._matrix()
        n = self._num_cols
        return (start.astype(np.int64), index, value, self._cost[:n].copy(),
                self._lb[:n].copy(), self._ub[:n].copy(), *(a.copy() for a in self._row_bounds()))

    # -- solving -------------------------------------------------------------

    def solve(self, time_limit=None):
        """Solve under :attr:`options`, and under ``time_limit`` seconds
        (None: no limit) for this solve alone; a limit at or below 0 is
        spent and raises :class:`LpSolverError` before any solver runs."""
        options = self.options
        if time_limit is not None:
            if time_limit <= 0:
                raise LpSolverError(f"LP {self.name!r} ended with {_S.kTimeLimit}")
            options = {**options, "time_limit": float(time_limit)}
        if self.num_vars == 0:
            return self._solve_trivial()
        return self._solve_highs(options)

    def _solve_trivial(self):
        # No variables: every row is a constant; check feasibility directly.
        rlo, rhi = self._row_bounds()
        if np.any((rlo - 1e-12 > 0.0) | (rhi + 1e-12 < 0.0)):
            return LpSolution(self, INFEASIBLE, None, np.zeros(0), None, 0.0)
        duals = SimpleNamespace(col_dual=np.zeros(0))
        return LpSolution(self, OPTIMAL, 0.0, np.zeros(0), duals, 0.0)

    def _new_highs(self):
        for tracker in _tracker_stack.get():
            tracker.instances += 1
        solver = _hcore._Highs()
        for name, value in (("output_flag", False), ("threads", 1), ("random_seed", 0)):
            _set_option(solver, name, value)
        return solver

    def _pass_model(self, solver):
        """Hand ``solver`` the current model in one ``passModel`` call;
        returns its number of nonzeros."""
        # HiGHS's infinity is IEEE inf, so bounds pass through unchanged
        start, index, value = self._matrix()
        n = self._num_cols
        solver.passModel(n, len(self._sense), len(value), _COLWISE, _MINIMIZE, 0.0,
                         self._cost[:n], self._lb[:n], self._ub[:n], *self._row_bounds(),
                         start, index, value, np.zeros(n, dtype=np.int32))
        return len(value)

    def _take_highs(self):
        """Hand this program's model to its holder's instance; True where the
        solve starts from a basis: on a first solve the one a sibling lent,
        later this program's own last basis.  The program that held the
        instance keeps its basis for its next solve.  HiGHS refuses a basis
        that does not fit (rows or columns were added since, or its basic
        count is not the row count), and the solve starts cold."""
        holder = self._holder
        if holder.highs is None:
            holder.highs = self._new_highs()
        elif holder.owner is not self._ref and holder.owner() is not None:
            holder.owner()._basis = holder.highs.getBasis()
        nnz = self._pass_model(holder.highs)
        start = self._basis
        if self._built_version < 0 and holder.lent is not None:  # the lent basis, mapped
            start, shared = holder.lent
            cols = [_LOWER] * self.num_vars
            for c, status in zip(self._shared.tolist(), shared):
                cols[c] = status
            start.col_status = cols
        holder.owner, self._basis = self._ref, None
        self._built_version = self._structure_version
        self._size = (self.num_rows, self.num_vars, nnz)
        return start is not None and holder.highs.setBasis(start) == _hcore.HighsStatus.kOk

    def _lend_basis(self):
        """Lend this first optimum of the batch to the first solve of every
        sibling not yet solved; no sibling lends after that.

        The rows and the batch-wide columns (``var_block``, the same in every
        member and in the same order) keep this program's statuses.  They are
        read once here; each borrower fills in its own columns
        (``member_block``) as nonbasic at their lower bounds.
        """
        holder = self._holder
        basis, holder.lend = holder.highs.getBasis(), False
        if basis.valid:
            start = _hcore.HighsBasis()
            start.row_status = basis.row_status
            start.valid, start.alien = True, False  # HiGHS rejects a basis that does not fit
            status = basis.col_status
            holder.lent = (start, [status[c] for c in self._shared.tolist()])

    def _solve_highs(self, options):
        cold = not self._live() and not self._take_highs()
        holder = self._holder
        solver = holder.highs
        status = _run(solver, options)  # the run clock advances only while HiGHS runs
        retried = int(status) in _BREAKDOWN
        if retried:  # once more by the interior-point solver, crossover on
            status = _run(solver, {**options, **IPM})
        clock = solver.getRunTime()
        seconds, holder.clock = clock - holder.clock, clock
        _notify_trackers(seconds, self._size, cold, retried)
        if status == _S.kUnboundedOrInfeasible:
            status = self._disambiguate_highs(options)
        if status == _S.kInfeasible:
            return LpSolution(self, INFEASIBLE, None, None, None, seconds)
        if status != _S.kOptimal:
            raise LpSolverError(f"LP {self.name!r} ended with {status}")
        if holder.lend:
            self._lend_basis()
        sol = solver.getSolution()  # a copy: later solves leave it alone
        n = self._num_cols
        x = _doubles(sol.col_value, n)
        obj = float(self._cost[:n] @ x) + 0.0  # -0.0 reads as +0.0
        return LpSolution(self, OPTIMAL, obj, x, sol, seconds)

    def _disambiguate_highs(self, options):
        # Presolve sometimes cannot tell infeasible from unbounded; retry
        # without it on a throwaway instance.
        solver = self._new_highs()
        self._pass_model(solver)
        return _run(solver, {**options, "presolve": "off"})


def _set_option(solver, name, value):
    if solver.setOptionValue(name, value) != _OK:
        raise LpBuildError(f"HiGHS refused option {name}={value!r}")


def _run(solver, options):
    """``solver.run()`` under ``options``, each set before the run and put
    back after it to the value ``getOptionValue`` read; the model status."""
    previous = []
    try:
        for name, value in options.items():
            old = solver.getOptionValue(name)[1]
            _set_option(solver, name, value)
            previous.append((name, old))
        solver.run()
        return solver.getModelStatus()
    finally:
        for name, value in previous:
            _set_option(solver, name, value)


def _doubles(values, n):
    """The list of ``n`` floats ``values`` (as HiGHS hands a solution over)
    as a read-only array, bitwise; faster than ``np.fromiter``."""
    return np.frombuffer(struct.pack(f"{n}d", *values))


class _Holder:
    """The HiGHS instance of a batch, made at its first solve, and what
    belongs to the instance: a weak reference to the program whose model it
    holds (``owner``) and its run ``clock`` after the last solve; between
    solves it reads HiGHS's defaults but three (see ``_new_highs``).  ``lend``
    is True while a batch of several waits for its first optimum, and
    ``lent`` is the basis that optimum lent to first solves."""

    __slots__ = ("highs", "owner", "clock", "lend", "lent")

    def __init__(self, lend=False):
        self.highs = self.owner = self.lent = None
        self.clock, self.lend = 0.0, lend


class _LpBatch:
    """Programs of one row structure, built together as arrays.

    :meth:`var_block` and :meth:`add_rows` work as on a LinearProgram, with a
    leading member axis on every array (an argument without it holds for all
    members); :meth:`member_block` adds columns to one member only, shifting
    its later columns.  :meth:`programs` hands each member the program that
    the same calls on it alone would have built, named by ``names``, and
    tells it which of its columns came from :meth:`var_block`: those come in
    the same order in every member, so the basis of the first member solved
    to optimality maps onto the first solve of each other one.
    """

    def __init__(self, names):
        self._names = list(names)
        self._next = [0] * len(self._names)     # columns per member
        self._cols = [[] for _ in self._names]  # per member: (size, lb, ub, shared) per block
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
            records.append((size, lb, ub, True))
        first = np.array(self._next)
        self._next = [start + size for start in self._next]
        return (first[:, None] + np.arange(size)).reshape(first.shape + shape)

    def member_block(self, g, size, lb=-INF, ub=INF):
        """``size`` columns for member g alone."""
        first = self._next[g]
        self._cols[g].append((size, lb, ub, False))
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
        :meth:`LinearProgram.add_rows`; each member's CSC arrays are slices
        of the sorted ones."""
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
        # key // num_rows is member * width + column: the entries before each,
        # and one past every member's last column, give the CSC starts
        start = np.searchsorted(key // num_rows, np.arange(len(self._names) * width + 1))
        row = (key % num_rows).astype(np.int32)
        del key
        bounds = np.concatenate(self._bounds, axis=1)
        lower, upper = _row_bounds(self._sense, bounds)
        # all members' column arrays side by side, member g's from column first[g]
        records = [record for member in self._cols for record in member]
        sizes = [record[0] for record in records]
        lb, ub, shared = (np.repeat(np.array([rec[i] for rec in records], dtype=float), sizes)
                          for i in (1, 2, 3))
        first = np.cumsum([0] + self._next)
        shared, cost = np.flatnonzero(shared).astype(np.int32), np.zeros(first[-1])
        cut = np.searchsorted(shared, first)
        out = []
        # each member keeps views of the merged arrays, which hold nothing but
        # the members' entries; every other array of the batch is let go
        for g, name in enumerate(self._names):
            a, b = start[g * width], start[g * width + self._next[g]]
            cols = slice(first[g], first[g + 1])
            lp = LinearProgram(name=name)
            lp._install((lb[cols], ub[cols], cost[cols]), shared[cut[g]:cut[g + 1]] - first[g],
                        ((start[g * width:g * width + self._next[g] + 1] - a).astype(np.int32),
                         row[a:b], coefs[a:b]),
                        self._sense, (np.ascontiguousarray(bounds[g]), lower[g], upper[g]))
            out.append(lp)
        holder = _Holder(lend=len(out) > 1)
        for lp in out:
            lp._holder = holder
        return out


# --------------------------------------------------------------------------
# solutions


class LpSolution:
    """A solve's status, objective and in-solver seconds, with primal values
    and reduced costs by column index."""

    def __init__(self, lp, status, objective, x, duals, solve_seconds):
        """``duals`` has the column sensitivities as ``col_dual`` (HiGHS's
        solution), read into an array on first use."""
        self.lp, self.status, self.objective, self.solve_seconds = lp, status, objective, solve_seconds
        self._x, self._duals, self._col_sens = x, duals, None

    def _require_solution(self):
        if self._x is None:
            raise LpError(f"no solution available (status={self.status})")

    def column_values(self, cols):
        """Primal values of the variables with column indices ``cols`` (any
        shape); a signed zero reads as +0.0."""
        self._require_solution()
        return self._x[cols] + 0.0

    def column_duals(self, cols):
        """Reduced costs of the columns ``cols``: d(objective)/d(value) of a
        column fixed by its bounds."""
        self._require_solution()
        if self._col_sens is None:
            self._col_sens = _doubles(self._duals.col_dual, len(self._x))
        return self._col_sens[cols]
