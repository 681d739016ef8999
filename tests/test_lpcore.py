"""Tests for the LP layer: statuses, duals, warm updates, and a brute-force oracle."""

import numpy as np
import pytest

from zonosynth import lpcore
from zonosynth.lpcore import INF, LinearProgram, LpBuildError

import oracles
from oracles import (dual, duality_gap, kkt_residuals, lin_sum, minimize, sensitivity, value,
                     var, var_array)


def assert_same_arrays(got, want):
    """The two programs hand HiGHS the same arrays, byte for byte."""
    assert np.array_equal(got._senses(), want._senses())
    for a, b in zip(got._assemble(), want._assemble()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(params=["highs"])
def backend(request):
    """A LinearProgram constructor on the solver backend (HiGHS, the only one)."""
    return LinearProgram


def test_min_x_subject_to_eq(backend):
    lp = backend()
    x = var(lp)
    fix = lp.add_eq(x, 3.0)
    minimize(lp, x)
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert value(sol, x) == pytest.approx(3.0)
    # raising the rhs raises the optimum one-for-one
    assert sensitivity(sol, fix) == pytest.approx(1.0)
    assert dual(sol, fix) == pytest.approx(1.0)


def test_le_dual_is_nonnegative(backend):
    # maximize x s.t. x <= 5, posed as min -x; the <=-row dual must be >= 0
    lp = backend()
    x = var(lp)
    cap = lp.add_le(x, 5.0)
    minimize(lp, -x)
    sol = lp.solve()
    assert sol.objective == pytest.approx(-5.0)
    assert dual(sol, cap) == pytest.approx(1.0)
    assert sensitivity(sol, cap) == pytest.approx(-1.0)


def test_sensitivity_matches_perturbed_resolve(backend):
    def build(rhs):
        lp = backend()
        x = var(lp, lb=0.0)
        y = var(lp, lb=0.0)
        assert lp.add_ge(x + y, rhs) == 0
        assert lp.add_le(x - y, 1.0) == 1
        minimize(lp, 2.0 * x + 3.0 * y)
        return lp

    base = build(4.0).solve()
    eps = 1e-5
    bumped = build(4.0 + eps).solve()
    fd = (bumped.objective - base.objective) / eps
    assert sensitivity(base, 0) == pytest.approx(fd, abs=1e-6)
    # >=-row dual in a minimization is the plain sensitivity (here positive:
    # tightening the demand increases cost)
    assert dual(base, 0) > 0


def test_infeasible_is_a_status_and_unbounded_raises(backend):
    lp = backend()
    x = var(lp)
    lp.add_ge(x, 2.0)
    lp.add_le(x, 1.0)
    minimize(lp, x)
    assert lp.solve().status == lpcore.INFEASIBLE

    lp2 = backend("free")
    x2 = var(lp2)
    minimize(lp2, x2)
    with pytest.raises(lpcore.LpSolverError, match="'free'.*kUnbounded"):
        lp2.solve()


def test_value_on_expression_arrays(backend):
    lp = backend()
    T = var_array(lp, (2, 2))
    for i in range(2):
        for j in range(2):
            lp.add_eq(T[i, j], float(i + 2 * j))
    minimize(lp, lin_sum(T.ravel()))
    sol = lp.solve()
    got = value(sol, T)
    assert np.allclose(got, [[0.0, 2.0], [1.0, 3.0]])
    # affine combinations evaluate too
    assert value(sol, 2.0 * T[1, 1] - T[0, 1] + 0.5) == pytest.approx(4.5)


def test_lin_matmul_agrees_with_numeric():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 4))
    X = rng.normal(size=(4, 2))
    got = oracles.lin_matmul(A, X)
    want = A @ X
    vals = np.array([[got[i, j].const for j in range(2)] for i in range(3)])
    assert np.allclose(vals, want)


def test_kkt_and_duality_gap_small(backend):
    rng = np.random.default_rng(7)
    lp = backend()
    x = var_array(lp, 5, lb=-4.0, ub=4.0)
    for k in range(4):
        coefs = rng.normal(size=5)
        expr = lin_sum(c * v for c, v in zip(coefs, x))
        if k % 2:
            lp.add_le(expr, float(rng.uniform(0.5, 2.0)))
        else:
            lp.add_ge(expr, float(rng.uniform(-2.0, -0.5)))
    minimize(lp, lin_sum(float(c) * v for c, v in zip(rng.normal(size=5), x)))
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    res = kkt_residuals(sol)
    assert res["primal"] <= 1e-6
    assert res["dual_sign"] <= 1e-6
    assert res["stationarity"] <= 1e-6
    assert duality_gap(sol) <= 1e-6


def test_structure_edit_after_solve_rebuilds():
    lp = LinearProgram()
    x = var(lp, lb=0.0, ub=10.0)
    minimize(lp, x)
    assert lp.solve().objective == pytest.approx(0.0)
    later = lp.add_ge(x, 3.0)
    sol = lp.solve()
    assert sol.objective == pytest.approx(3.0)
    assert dual(sol, later) == pytest.approx(1.0)


def test_repeated_and_cancelling_columns_assemble_to_dense_oracle():
    lp = LinearProgram()
    x, y, z = var(lp), var(lp), var(lp)
    lp.add_eq(x + y - x, 1.0)                    # x cancels to 0: no entry
    lp.add_le(z + 0.1 * y + 0.2 * y + 0.3 * y, 2.0)
    # a block with repeated (row, col) entries, summed left to right
    lp.add_rows([0, 0, 0, 1, 1, 1, 1], [2, 0, 2, 1, 1, 1, 0],
                [1.5, 1.0, -1.5, 0.1, 0.2, 0.3, 4.0], [0.0, 1.0], ">")
    rows = [[(0, 1.0), (1, 1.0), (0, -1.0)],
            [(2, 1.0), (1, 0.1), (1, 0.2), (1, 0.3)],
            [(2, 1.5), (0, 1.0), (2, -1.5)],
            [(1, 0.1), (1, 0.2), (1, 0.3), (0, 4.0)]]
    start, index, value = oracles.csc_arrays(oracles.dense_matrix(rows, 3))
    got_start, got_index, got_value = lp._assemble()[:3]
    assert np.array_equal(got_start, start)
    assert np.array_equal(got_index, index)
    assert np.array_equal(got_value, value)  # exact: same summation order
    x_rows = got_index[got_start[0]:got_start[1]].tolist()
    z_rows = got_index[got_start[2]:got_start[3]].tolist()
    assert 0 not in x_rows and 2 not in z_rows    # the cancelled entries
    assert len(got_value) == 6


def test_add_rows_indices_bounds_and_checks():
    lp = LinearProgram()
    a = var(lp, lb=0.0, ub=4.0)
    assert lp.add_le(a, 3.0) == 0
    first = lp.add_rows([0, 1], [0, 0], [1.0, 1.0], [1.0, 2.5], "=")
    assert first == 1 and lp.num_rows == 3
    with pytest.raises(LpBuildError):
        lp.add_rows([0], [5], [1.0], [0.0], "<")
    with pytest.raises(LpBuildError):
        lp.add_rows([1], [0], [1.0], [0.0], "<")
    with pytest.raises(LpBuildError):
        lp.add_rows([0], [0], [1.0], [0.0], "<=")
    assert lp.num_rows == 3
    lp2 = LinearProgram()
    b = var(lp2, lb=0.0, ub=4.0)
    lp2.add_rows([0], [0], [1.0], [2.0], "=")
    minimize(lp2, b)
    assert lp2.solve().objective == pytest.approx(2.0)


def test_empty_program_is_trivially_optimal():
    lp = LinearProgram()
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    assert sol.objective == pytest.approx(0.0)


def test_solver_time_tracker_accumulates():
    with lpcore.track_solver_time() as tracker:
        lp = LinearProgram()
        x = var(lp, lb=0.0)
        lp.add_ge(x, 1.0)
        minimize(lp, x)
        lp.solve()
        lp.set_col_bounds([0], 2.0, INF)
        lp.solve()
    assert tracker.solves == 2
    assert tracker.seconds >= 0.0


def test_solver_time_tracker_records_largest_model(backend):
    with lpcore.track_solver_time() as tracker:
        big = backend()
        xs = [var(big, lb=0.0) for _ in range(3)]
        big.add_ge(xs[0] + xs[1], 1.0)
        big.add_ge(xs[1] + 2.0 * xs[2], 1.0)
        big.add_le(xs[0] - xs[2], 4.0)
        minimize(big, lin_sum(xs))
        big.solve()
        with lpcore.track_solver_time() as inner:
            small = backend()
            y = var(small, lb=0.0)
            small.add_ge(y, 1.0)
            minimize(small, y)
            small.solve()
        assert (inner.max_rows, inner.max_cols, inner.max_nnz) == (1, 1, 1)
        assert (tracker.max_rows, tracker.max_cols, tracker.max_nnz) == (3, 3, 6)
        big.set_costs([2], 2.0)   # warm re-solve of the same model
        big.solve()
    assert tracker.solves == 3
    assert (tracker.max_rows, tracker.max_cols, tracker.max_nnz) == (3, 3, 6)


class _BrokenSimplex:
    """A HiGHS instance whose runs by any solver but IPM report ``status``,
    as a simplex breakdown does."""

    def __init__(self, solver, status):
        self._solver, self._status, self.runs = solver, status, []

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def run(self):
        self.runs.append(self._solver.getOptionValue("solver")[1])
        return self._solver.run()

    def getModelStatus(self):
        return self._solver.getModelStatus() if self.runs[-1] == "ipm" else self._status


def _breaking(monkeypatch, status):
    new_highs = LinearProgram._new_highs
    monkeypatch.setattr(LinearProgram, "_new_highs",
                        lambda lp: _BrokenSimplex(new_highs(lp), status))
    lp = LinearProgram("stub")
    x = lp.var_block(2, lb=0.0)
    lp.add_rows([0, 0, 1], [x[0], x[1], x[1]], [1.0, 1.0, 1.0], [2.0, 0.5], ">")
    lp.set_costs(x, [1.0, 3.0])
    return lp


@pytest.mark.parametrize("status", ["kNotset", "kSolveError"])
def test_simplex_breakdown_is_retried_once_by_ipm(monkeypatch, status):
    lp = _breaking(monkeypatch, getattr(lpcore._hcore.HighsModelStatus, status))
    with lpcore.track_solver_time() as tracker:
        sol = lp.solve()
        assert sol.status == lpcore.OPTIMAL
        assert sol.objective == pytest.approx(1.5 + 1.5)  # x = (1.5, 0.5)
        assert lp._holder.highs.runs == ["choose", "ipm"]
        # the options are put back: the next solve is a simplex one again
        assert [lp._holder.highs.getOptionValue(name)[1] for name in ("solver", "run_crossover")] \
            == ["choose", "on"]
        lp.set_col_bounds([1], 1.0, INF)
        assert lp.solve().objective == pytest.approx(1.0 + 3.0)
        assert lp._holder.highs.runs == ["choose", "ipm", "choose", "ipm"]
    assert (tracker.solves, tracker.retries) == (2, 2)


def test_breakdown_of_the_retry_is_a_solver_error(monkeypatch):
    lp = _breaking(monkeypatch, lpcore._hcore.HighsModelStatus.kSolveError)
    monkeypatch.setattr(_BrokenSimplex, "getModelStatus", lambda self: self._status)
    with lpcore.track_solver_time() as tracker:
        with pytest.raises(lpcore.LpSolverError, match="kSolveError"):
            lp.solve()
    assert (tracker.solves, tracker.retries) == (1, 1)


def test_against_vertex_enumeration_oracle(backend):
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        c, A, lo, hi, xlb, xub = oracles.random_bounded_lp(rng)
        status, obj, _ = oracles.solve_lp_by_vertex_enumeration(c, A, lo, hi, xlb, xub)

        lp = backend()
        xs = [var(lp, lb=xlb[i], ub=xub[i]) for i in range(len(c))]
        for k in range(A.shape[0]):
            expr = lin_sum(A[k, i] * xs[i] for i in range(len(c)))
            if lo[k] == hi[k]:
                lp.add_eq(expr, lo[k])
            elif lo[k] == -INF:
                lp.add_le(expr, hi[k])
            else:
                lp.add_ge(expr, lo[k])
        minimize(lp, lin_sum(ci * xi for ci, xi in zip(c, xs)))
        sol = lp.solve()

        if status == "infeasible":
            assert sol.status == lpcore.INFEASIBLE
        else:
            assert sol.status == lpcore.OPTIMAL
            assert sol.objective == pytest.approx(obj, abs=1e-6)
        checked += 1
    assert checked == 20


def test_column_bound_and_cost_switches_rewarm_like_fresh_builds():
    def build(cost_y=3.0, x_ub=INF):
        lp = LinearProgram()
        x = var(lp, lb=0.0, ub=x_ub)
        y = var(lp, lb=0.0)
        lp.add_ge(x + y, 4.0)
        lp.add_le(x - 2.0 * y, 1.0)
        minimize(lp, 2.0 * x + cost_y * y)
        return lp

    lp = build()
    first = lp.solve()
    solver = lp._holder.highs
    lp.set_col_bounds([0], 0.0, 1.5)          # one call on the live instance
    lp.set_costs(np.array([1]), [1.0])
    warm = lp.solve()
    assert lp._holder.highs is solver                # re-solved, not rebuilt
    ref = build(cost_y=1.0, x_ub=1.5).solve()
    assert warm.objective == pytest.approx(ref.objective, abs=1e-9)
    assert warm.column_values([0, 1]) == pytest.approx(ref.column_values([0, 1]), abs=1e-9)
    assert lp.col_bounds([0, 1]) == (pytest.approx([0.0, 0.0]), pytest.approx([1.5, INF]))
    lp.set_col_bounds([0], 0.0, INF)
    lp.set_costs([1], 3.0)
    back = lp.solve()
    assert back.objective == pytest.approx(first.objective, abs=1e-9)
    assert_same_arrays(lp, build())


def test_add_rows_after_solve_stays_warm_like_a_fresh_build():
    # blocks of each sense, with a repeated entry, a cancelling pair and an
    # empty row, appended to a live instance one at a time
    blocks = [
        ([0, 0, 1, 1], [0, 1, 1, 2], [1.0, 1.0, 1.0, 1.0], [3.0, 2.0], ">"),
        ([0, 0, 2, 2, 2], [0, 0, 1, 2, 2], [0.5, 0.5, 1.0, 1.0, -1.0], [2.5, 0.0, 1.5], "<"),
        ([0, 0], [0, 2], [1.0, -1.0], [0.25], "="),
    ]

    def build(count):
        lp = LinearProgram()
        x = lp.var_block(3, lb=0.0, ub=4.0)
        lp.set_costs(x, [1.0, 2.0, 3.0])
        for rows, cols, coefs, bounds, sense in blocks[:count]:
            lp.add_rows(rows, cols, coefs, bounds, sense)
        return lp

    lp = build(0)
    lp.solve()
    solver = lp._holder.highs
    for count, block in enumerate(blocks, 1):
        lp.add_rows(*block)
        with lpcore.track_solver_time() as tracker:
            warm = lp.solve()
        assert lp._holder.highs is solver                 # re-solved, not rebuilt
        fresh = build(count)
        with lpcore.track_solver_time() as ref_tracker:
            ref = fresh.solve()
        assert_same_arrays(lp, fresh)
        assert warm.objective == pytest.approx(ref.objective, abs=1e-9)
        assert warm.column_values(np.arange(3)) == pytest.approx(
            ref.column_values(np.arange(3)), abs=1e-9)
        assert (tracker.max_rows, tracker.max_cols, tracker.max_nnz) == \
            (ref_tracker.max_rows, ref_tracker.max_cols, ref_tracker.max_nnz)


def test_fixed_column_dual_is_the_pinned_row_sensitivity():
    # min x + 2y s.t. x + y >= a, y >= 0.5 a, with a as a fixed column and,
    # for reference, as a variable pinned by an equality row
    def build(pinned, a):
        lp = LinearProgram()
        x = var(lp, lb=0.0)
        y = var(lp, lb=0.0)
        alpha = var(lp, lb=a if not pinned else -INF, ub=a if not pinned else INF)
        if pinned:
            assert lp.add_eq(alpha, a) == 0
        lp.add_ge(x + y - alpha, 0.0)
        lp.add_ge(y - 0.5 * alpha, 0.0)
        minimize(lp, x + 2.0 * y)
        return lp

    fixed = build(False, 2.0)
    fixed.solve()
    fixed.set_col_bounds([2], 3.0, 3.0)
    sol = fixed.solve()
    ref = build(True, 3.0).solve()
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.column_duals([2])[0] == pytest.approx(sensitivity(ref, 0))
    assert sol.column_duals([2])[0] == pytest.approx(1.5)


def test_scalar_var_block_is_one_column():
    lp = LinearProgram()
    lp.var_block(2)
    d = lp.var_block((), lb=0.0)
    assert d.shape == () and int(d) == 2 and lp.num_vars == 3
    assert lp.col_bounds([0, 1, 2]) == (pytest.approx([-INF, -INF, 0.0]),
                                        pytest.approx([INF, INF, INF]))


def _src_trees():
    """(file name, parsed module) for every module of the package."""
    import ast
    import pathlib

    import zonosynth

    for path in sorted(pathlib.Path(zonosynth.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), str(path))


def test_only_lpcore_uses_expression_arithmetic():
    # the package's programs are built from index arrays; LinExpr and the
    # one-row adders stay in lpcore only for the benchmark's layer tracer,
    # and the rest of the row-wise layer lives in tests/oracles.py
    import ast

    banned = {"LinExpr", "lin_sum", "as_expr", "col_exprs",
              "add_eq", "add_le", "add_ge", "var_array", "minimize", "set_rhs"}
    found = []
    for name, tree in _src_trees():
        if name == "lpcore.py":
            continue
        for node in ast.walk(tree):
            names = {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else \
                {node.attr} if isinstance(node, ast.Attribute) else set()
            found += [f"{name}:{node.lineno} {n}" for n in sorted(names & banned)]
    assert found == []


def test_only_lpcore_sets_solver_options_or_reads_other_outcomes():
    # a program carries its options and lpcore runs HiGHS under them; a
    # solve ends optimal or infeasible, so no caller tests for another
    # outcome; and lpcore's code names no program another module builds
    import ast
    import re

    def key(node):
        return getattr(node, "attr", getattr(node, "id", getattr(node, "value", None)))

    # a solution's outcomes, and the synthesis verdicts SynthesisResult.status holds
    allowed = {"OPTIMAL", "INFEASIBLE", "correct", "failed"}
    found, built, compared = [], set(), 0
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and key(node.func) == "LinearProgram":
                named = node.args[:1] + [k.value for k in node.keywords if k.arg == "name"]
                built |= {key(c) for arg in named for c in ast.walk(arg)
                          if isinstance(c, ast.Constant)}
            if name == "lpcore.py":
                continue
            if key(node) in ("setOptionValue", "getOptionValue"):
                found.append(f"{name}:{node.lineno} {key(node)}")
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(key(side) == "status" for side in sides):
                    compared += 1
                    found += [f"{name}:{node.lineno} status compared with {key(side)!r}"
                              for side in sides if key(side) not in allowed | {"status"}]
    assert found == []
    assert compared >= 6  # the guard sees the callers' status tests
    programs = {"hausdorff", "rci", "viable"}
    assert programs <= built
    import zonosynth.lpcore

    tree = dict(_src_trees())["lpcore.py"]
    lines = open(zonosynth.lpcore.__file__).read().splitlines()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines[doc.lineno - 1:doc.end_lineno] = [""] * (doc.end_lineno - doc.lineno + 1)
    code = "\n".join(lines).lower()
    assert [p for p in sorted(programs) if re.search(rf"\b{p}\b", code)] == []


def test_lpcore_defines_none_of_the_row_wise_layer():
    import ast

    moved = {"lin_sum", "col_exprs", "var", "var_array", "minimize", "set_rhs", "value",
             "sensitivity", "dual", "kkt_residuals", "duality_gap"}
    tree = dict(_src_trees())["lpcore.py"]
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & moved == set()


def test_no_module_starts_threads_or_reads_the_old_thread_variable():
    # synthesis is serial: no worker pool, and CONTRACT_SYNTH_THREADS is not read
    import ast

    found = []
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{name}:{node.lineno} {m}" for m in modules
                      if m == "threading" or m.split(".")[0] == "concurrent"]
            text = node.value if isinstance(node, ast.Constant) and \
                isinstance(node.value, str) else getattr(node, "id", "")
            if "CONTRACT_SYNTH_THREADS" in text:
                found.append(f"{name}:{node.lineno} CONTRACT_SYNTH_THREADS")
    assert found == []


def test_only_lpcore_loader_imports_scipy():
    # importing scipy.optimize costs about 0.5 s at start-up; the package
    # reaches scipy only through lpcore._load_highs, which loads HiGHS alone
    import ast

    def scipy_imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Call):  # importlib.import_module("scipy...") etc.
                modules = [a.value for a in node.args
                           if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in modules):
                yield node

    found, allowed = [], []
    for name, tree in _src_trees():
        loader = [f for f in tree.body if name == "lpcore.py"
                  and isinstance(f, ast.FunctionDef) and f.name == "_load_highs"]
        inside = {id(n) for f in loader for n in scipy_imports(f)}
        allowed += [name for node in scipy_imports(tree) if id(node) in inside]
        found += [f"{name}:{node.lineno}" for node in scipy_imports(tree)
                  if id(node) not in inside]
    assert found == []
    assert allowed  # the guard sees the loader's own scipy lookups


def _run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout."""
    import os
    import pathlib
    import subprocess
    import sys

    import zonosynth

    src = str(pathlib.Path(zonosynth.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_SOLVES = """
lp = lpcore.LinearProgram()
x = lp.var_block(2, lb=0.0)
lp.add_rows([0, 0], x, [1.0, 1.0], [1.0], ">")
lp.set_costs(x, [1.0, 2.0])
sol = lp.solve()
assert sol.status == lpcore.OPTIMAL and abs(sol.objective - 1.0) < 1e-9
"""


def test_highs_loads_without_scipy_optimize_and_scipy_reuses_it():
    _run_fresh("""
import sys
import zonosynth.cli
from zonosynth import lpcore
heavy = [m for m in ("scipy.optimize", "scipy.linalg", "scipy.sparse") if m in sys.modules]
assert heavy == [], heavy
""" + _SOLVES + """
import scipy.optimize
import scipy.optimize._highspy._core as core
assert core is lpcore._hcore
assert scipy.optimize._linprog_highs.HighsModelStatus is lpcore._hcore.HighsModelStatus
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0])
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9
""")


def test_highs_loader_reuses_a_module_scipy_loaded_first():
    _run_fresh("""
import scipy.optimize
import scipy.optimize._highspy._core as core
from zonosynth import lpcore
assert lpcore._hcore is core
""" + _SOLVES)


def test_highs_loader_falls_back_to_the_import_when_the_file_is_not_found():
    _run_fresh("""
import importlib.machinery
import sys
importlib.machinery.EXTENSION_SUFFIXES = [".not-an-extension"]
from zonosynth import lpcore
assert "scipy.optimize" in sys.modules  # reached through the plain import
assert lpcore._hcore is sys.modules["scipy.optimize._highspy._core"]
""" + _SOLVES)


def _sibling_pair(member_lb, member_ub, member_cost):
    """Two programs of one batch: min x0 + 2 x1 + c a subject to
    x0 + x1 + a >= 2 and x0 - x1 <= 1, with each member's own column a."""
    batch = lpcore._LpBatch(["first", "second"])
    x = batch.var_block(2, lb=0.0)
    a = [batch.member_block(g, 1, lb=member_lb, ub=member_ub) for g in range(2)]
    batch.add_rows([0, 0, 0], np.column_stack([x, np.concatenate(a)]), [1.0] * 3, [2.0], ">")
    batch.add_rows([0, 0], x, [1.0, -1.0], [1.0], "<")
    programs = batch.programs()
    for lp, cols in zip(programs, a):
        lp.set_costs(np.r_[x[0], cols], [1.0, 2.0, member_cost])
    return programs, a


def test_a_batch_lends_its_first_optimum_to_the_other_first_solves():
    programs, a = _sibling_pair(0.0, 0.0, 0.0)
    first, second = programs
    first.set_col_bounds(a[0], 0.5, 0.5)
    second.set_col_bounds(a[1], 0.8, 0.8)
    with lpcore.track_solver_time() as tracker:
        first.solve()
        got = second.solve()
    assert (tracker.solves, tracker.cold_solves) == (2, 1)
    assert first._holder is second._holder and not first._holder.lend  # lent once
    cold = _sibling_pair(0.0, 0.0, 0.0)[0][1]
    cold.set_col_bounds(a[1], 0.8, 0.8)
    with lpcore.track_solver_time() as tracker:
        want = cold.solve()
    assert tracker.cold_solves == 1
    assert got.objective == pytest.approx(want.objective, rel=1e-12)
    assert got.column_values(np.arange(3)) == pytest.approx(want.column_values(np.arange(3)))
    (alone,) = lpcore._LpBatch(["alone"]).programs()
    assert not alone._holder.lend


def test_an_unusable_sibling_basis_falls_back_to_a_cold_start():
    # the donor's own column is basic at its optimum (a = 2); mapped onto a
    # sibling, where own columns start nonbasic, the basis is one short
    (first, second), _ = _sibling_pair(0.0, INF, 0.1)
    with lpcore.track_solver_time() as tracker:
        donor = first.solve()
        sol = second.solve()
    assert donor.column_values([2]) == pytest.approx([2.0])
    assert sol.status == lpcore.OPTIMAL and sol.objective == pytest.approx(0.2)
    assert (tracker.solves, tracker.cold_solves) == (2, 2)
    # a sibling given one row more after the batch was built
    (first, second), a = _sibling_pair(0.0, 0.0, 0.0)
    second.add_rows([0], a[1], [1.0], [5.0], "<")
    with lpcore.track_solver_time() as tracker:
        first.solve()
        sol = second.solve()
    assert sol.status == lpcore.OPTIMAL and sol.objective == pytest.approx(2.5)
    assert (tracker.solves, tracker.cold_solves) == (2, 2)


# ---------------------------------------------------------------------------
# one solver instance per batch, handed between its members


def _handed_pair():
    """A solved ``_sibling_pair`` (a in [0, 1] at cost 0.5: optimum x = (1,
    0), a = 1, objective 1.5), with the second member holding the instance."""
    (first, second), a = _sibling_pair(0.0, 1.0, 0.5)
    solved = first.solve()
    second.solve()
    assert first._holder is second._holder and first._holder.owner() is second
    return first, second, a, solved


def test_changes_to_a_member_without_the_instance_reach_its_next_solve():
    first, second, a, _ = _handed_pair()
    held = second.solve()  # in place, no hand-off
    first.set_col_bounds(a[0], 0.25, 0.75)
    first.set_costs([1], 1.5)
    first.add_rows([0], [0], [1.0], [0.5], "<")  # x0 <= 0.5
    # the instance still holds second's model
    assert all(np.array_equal(got, want) for got, want in zip(_held(second), second._assemble()))
    again = second.solve()
    assert (again.objective, again.column_values(np.arange(3)).tolist()) == \
        (held.objective, held.column_values(np.arange(3)).tolist())
    fresh = LinearProgram("fresh")
    x = fresh.var_block(2, lb=0.0)
    own = fresh.var_block(1, lb=0.25, ub=0.75)
    fresh.add_rows([0, 0, 0], np.r_[x, own], [1.0] * 3, [2.0], ">")
    fresh.add_rows([0, 0], x, [1.0, -1.0], [1.0], "<")
    fresh.add_rows([0], [0], [1.0], [0.5], "<")
    fresh.set_costs(np.r_[x, own], [1.0, 1.5, 0.5])
    assert_same_arrays(first, fresh)
    got, want = first.solve(), fresh.solve()
    assert first._holder.owner() is first
    assert got.objective == pytest.approx(want.objective, abs=1e-12) == 2.0
    assert got.column_values(np.arange(3)) == pytest.approx(
        want.column_values(np.arange(3)), abs=1e-12)


def test_a_member_re_solved_after_a_hand_off_returns_its_last_solution():
    first, second, _, solved = _handed_pair()
    with lpcore.track_solver_time() as tracker:
        again = first.solve()
    assert (tracker.solves, tracker.cold_solves, tracker.instances) == (1, 0, 0)
    assert again.objective == solved.objective == pytest.approx(1.5)
    assert again.column_values(np.arange(3)).tolist() == \
        solved.column_values(np.arange(3)).tolist()
    assert again.column_duals(np.arange(3)).tolist() == \
        solved.column_duals(np.arange(3)).tolist()


def test_a_time_limit_stays_with_the_solve_that_passed_it():
    first, second, _, _ = _handed_pair()
    highs = first._holder.highs = _Recording(first._holder.highs)
    assert first.solve(time_limit=30.0).status == lpcore.OPTIMAL
    assert highs.getOptionValue("time_limit")[1] == INF
    assert second.solve().status == lpcore.OPTIMAL
    assert [run["time_limit"] for run in highs.runs] == [30.0, INF]


def test_solve_seconds_of_a_batch_add_up_to_its_instance_clock():
    (first, second), _ = _sibling_pair(0.0, 1.0, 0.5)
    with lpcore.track_solver_time() as tracker:
        seconds = [lp.solve().solve_seconds for lp in (first, second, first, second, second)]
    assert min(seconds) >= 0.0
    assert (tracker.solves, tracker.instances) == (5, 1)
    assert tracker.seconds == pytest.approx(first._holder.highs.getRunTime(), rel=1e-12)


def test_a_refused_own_basis_starts_cold():
    first, second, a, _ = _handed_pair()
    # bounds only: the own basis still fits, and the solve starts from it
    first.set_col_bounds(a[0], 0.0, 0.5)
    with lpcore.track_solver_time() as tracker:
        assert first.solve().objective == pytest.approx(1.75 + 0.25)
    assert tracker.cold_solves == 0
    # one row more: HiGHS refuses the own basis of second
    second.add_rows([0], a[1], [1.0], [0.5], "<")  # a <= 0.5
    with lpcore.track_solver_time() as tracker:
        sol = second.solve()
    assert tracker.cold_solves == 1
    assert sol.status == lpcore.OPTIMAL and sol.objective == pytest.approx(2.0)


def _held(lp):
    """The model lp's live HiGHS instance holds, as arrays."""
    lp._holder.highs.ensureColwise()
    held = lp._holder.highs.getLp()
    matrix = held.a_matrix_
    return ([np.asarray(a, dtype=np.int64) for a in (matrix.start_, matrix.index_)]
            + [np.asarray(a, dtype=float) for a in (matrix.value_, held.col_cost_,
                                                       held.col_lower_, held.col_upper_,
                                                       held.row_lower_, held.row_upper_)])


@pytest.mark.parametrize("name", ["geo20", "case2"])
def test_highs_holds_the_assembled_model_of_every_batch_member(name):
    # what passModel hands over is _assemble's model, less the entries of
    # magnitude at most 1e-9 that HiGHS drops; later bound and cost changes
    # reach the live instance as they reach _lb, _ub and _cost
    from zonosynth import contracts, sysmodel
    from zonosynth.cli import lambda_for

    network = (sysmodel.random_network(10, lambda_for(20), seed=0) if name == "geo20"
               else sysmodel.load_network("configs/case2.json"))
    template = contracts.default_template(network)
    programs = contracts.build_programs(network, template)
    params = contracts.alpha_max(network, template).scaled(0.5)
    for program in programs.values():
        lp = program.lp
        start, index, value, cost, lb, ub, rlo, rhi = lp._assemble()
        keep = np.abs(value) > 1e-9
        column = np.repeat(np.arange(lp.num_vars), np.diff(start))[keep]
        want = [np.r_[0, np.cumsum(np.bincount(column, minlength=lp.num_vars))],
                index[keep], value[keep], cost, lb, ub, rlo, rhi]
        lp._take_highs()
        for got, expected in zip(_held(lp), want):
            assert got.tobytes() == np.asarray(expected, dtype=got.dtype).tobytes()
        program.evaluate(params)  # moves the alpha columns' bounds
        program.extract(params)  # moves the slack's bounds and the costs, and back
        lp.set_costs(program._alpha_cols[:3], [2.0, -1.0, 0.5])
        lp.set_col_bounds(program._alpha_cols[:2], 0.25, [0.5, 0.75])
        n = lp.num_vars
        for got, expected in zip(_held(lp)[3:6], (lp._cost[:n], lp._lb[:n], lp._ub[:n])):
            assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# solver options: carried by the program, set for its solves alone

_WATCHED = ("primal_feasibility_tolerance", "dual_feasibility_tolerance", "solver",
            "run_crossover", "presolve", "time_limit")


def _settings(highs):
    return {name: highs.getOptionValue(name)[1] for name in _WATCHED}


_DEFAULTS = _settings(lpcore._hcore._Highs())


class _Recording:
    """A HiGHS instance that records the watched options at each run."""

    def __init__(self, solver):
        self._solver, self.runs = solver, []

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def run(self):
        self.runs.append(_settings(self._solver))
        return self._solver.run()


@pytest.fixture
def runs(monkeypatch):
    """(program name, watched options) at every HiGHS run; after every
    solve the program's instance must read HiGHS's defaults again."""
    log, solving = [], []
    new_highs, solve = LinearProgram._new_highs, LinearProgram.solve

    class Logged(_Recording):
        def run(self):
            log.append((solving[-1], _settings(self._solver)))
            return self._solver.run()

    def logged_solve(lp, *args, **kwargs):
        solving.append(lp.name)
        try:
            return solve(lp, *args, **kwargs)
        finally:
            solving.pop()
            if lp._holder.highs is not None:
                assert _settings(lp._holder.highs) == _DEFAULTS, lp.name

    monkeypatch.setattr(LinearProgram, "_new_highs", lambda lp: Logged(new_highs(lp)))
    monkeypatch.setattr(LinearProgram, "solve", logged_solve)
    return log


def _runs_of(log, prefix):
    got = [settings for name, settings in log if name.startswith(prefix)]
    assert got, prefix
    return got


def test_the_hausdorff_and_invariant_dense_lps_run_tight(runs):
    from zonosynth import geom, synthesis, sysmodel

    box = geom.Zonotope(np.zeros(2), np.eye(2))
    assert geom.directed_hausdorff(box, geom.Zonotope(np.zeros(2), 2.0 * np.eye(2))) == \
        pytest.approx(1.0)
    assert synthesis.centralized_dense(sysmodel.load_network("configs/case1.json")).ok
    tight = dict(_DEFAULTS, **lpcore.TIGHT)
    for prefix in ("hausdorff", "rci"):
        assert _runs_of(runs, prefix) == [tight] * len(_runs_of(runs, prefix))


def test_the_finite_dense_lp_runs_by_ipm_with_crossover(runs):
    from test_contracts import finite_pair
    from zonosynth import synthesis

    assert synthesis.centralized_dense(finite_pair(horizon=3)).ok
    assert _runs_of(runs, "viable") == [dict(_DEFAULTS, **lpcore.IPM)]


def test_the_other_programs_run_at_highs_defaults(runs):
    from test_contracts import pair_network
    from zonosynth import contracts, geom, synthesis, sysmodel

    network = sysmodel.load_network("configs/case1.json")
    assert synthesis.compositional_synthesize(network).ok
    synthesis.centralized_synthesize(network)
    pair = pair_network()
    half = contracts.ContractTemplate({1: ((np.zeros(1), np.array([[0.5]])),),
                                       2: ((np.zeros(1), np.array([[0.5]])),)}, {},
                                      is_bounds=False)
    assert contracts.alpha_max(pair, half).x[1][0] == pytest.approx([2.0])
    box = geom.Zonotope(np.zeros(2), np.eye(2))
    assert geom.contains_point(box, np.array([[0.5, 0.5], [2.0, 0.0]]))[0].tolist() == \
        [True, False]
    for prefix in ("potential[", "centralized", "master", "member", "alphamax"):
        assert _runs_of(runs, prefix) == [_DEFAULTS] * len(_runs_of(runs, prefix))


def test_a_batch_member_keeps_its_options_from_its_siblings(runs):
    (first, second), _ = _sibling_pair(0.0, 1.0, 0.5)
    first.options = lpcore.TIGHT
    for lp in (first, second, first, second):
        assert lp.solve().status == lpcore.OPTIMAL
    tight = dict(_DEFAULTS, **lpcore.TIGHT)
    assert [settings for _, settings in runs] == [tight, _DEFAULTS, tight, _DEFAULTS]
    assert first._holder is second._holder


@pytest.mark.parametrize("program, limit", [
    pytest.param("cold", 0.0, id="0.0"), pytest.param("cold", -1.0, id="-1.0"),
    pytest.param("no-columns", 0.0, id="no-columns"), pytest.param("no-rows", 0.0, id="no-rows"),
    pytest.param("warm", 0.0, id="warm")])
def test_a_spent_time_limit_raises(program, limit):
    # a limit at or below 0 is spent: the solve raises before any solver
    # runs, also where HiGHS would end optimal without a step (no columns,
    # no rows, or an optimal model solved again unchanged)
    lp = LinearProgram("spent")
    if program == "no-columns":
        lp.add_rows([], [], [], [0.0], "=")
    else:
        x = lp.var_block(2, lb=0.0, ub=1.0)
        lp.set_costs(x, [1.0, 2.0])
        if program != "no-rows":
            lp.add_rows([0, 0], x, [1.0, 1.0], [1.0], ">")
        if program == "warm":
            assert lp.solve().objective == pytest.approx(1.0)
    with pytest.raises(lpcore.LpSolverError, match="'spent'.*kTimeLimit"):
        lp.solve(time_limit=limit)
    if program == "cold":
        assert lp._holder.highs is None
    assert lp.solve(time_limit=30.0).status == lpcore.OPTIMAL
    assert lp.solve().objective == pytest.approx(1.0 if program in ("cold", "warm") else 0.0)


def test_an_option_highs_refuses_is_a_build_error():
    lp = LinearProgram("typo", options={"primal_feasibility_tolerence": 1e-10})
    x = lp.var_block(1, lb=0.0)
    lp.set_costs(x, [1.0])
    with pytest.raises(LpBuildError, match="primal_feasibility_tolerence=1e-10"):
        lp.solve()
    lp.options = dict(lpcore.TIGHT, solver="simplx")
    with pytest.raises(LpBuildError, match="solver='simplx'"):
        lp.solve()
    assert _settings(lp._holder.highs) == _DEFAULTS  # the tolerances set first are put back


def test_a_solve_with_no_options_makes_no_option_call(monkeypatch):
    (first, second), _ = _sibling_pair(0.0, 1.0, 0.5)
    first.solve()
    calls = []
    highs = first._holder.highs

    class Counting:
        def __getattr__(self, name):
            if name in ("setOptionValue", "getOptionValue"):
                calls.append(name)
            return getattr(highs, name)

    first._holder.highs = Counting()
    for lp in (second, first, second):
        assert lp.solve().status == lpcore.OPTIMAL
    assert calls == []
