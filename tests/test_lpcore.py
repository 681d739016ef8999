"""Tests for the LP layer: statuses, duals, warm updates, and a brute-force oracle."""

import numpy as np
import pytest

from zonosynth import lpcore
from zonosynth.lpcore import INF, LinearProgram, LpBuildError, lin_sum

import oracles


@pytest.fixture(params=["highs"])
def backend(request):
    """A LinearProgram constructor on the solver backend (HiGHS, the only one)."""
    return LinearProgram


def test_min_x_subject_to_eq(backend):
    lp = backend()
    x = lp.var("x")
    lp.add_eq(x, 3.0, name="fix")
    lp.minimize(x)
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.value(x) == pytest.approx(3.0)
    # raising the rhs raises the optimum one-for-one
    assert sol.sensitivity("fix") == pytest.approx(1.0)
    assert sol.dual("fix") == pytest.approx(1.0)


def test_le_dual_is_nonnegative(backend):
    # maximize x s.t. x <= 5, posed as min -x; the <=-row dual must be >= 0
    lp = backend()
    x = lp.var("x")
    lp.add_le(x, 5.0, name="cap")
    lp.minimize(-x)
    sol = lp.solve()
    assert sol.objective == pytest.approx(-5.0)
    assert sol.dual("cap") == pytest.approx(1.0)
    assert sol.sensitivity("cap") == pytest.approx(-1.0)


def test_sensitivity_matches_perturbed_resolve(backend):
    def build(rhs):
        lp = backend()
        x = lp.var("x", lb=0.0)
        y = lp.var("y", lb=0.0)
        lp.add_ge(x + y, rhs, name="demand")
        lp.add_le(x - y, 1.0, name="skew")
        lp.minimize(2.0 * x + 3.0 * y)
        return lp

    base = build(4.0).solve()
    eps = 1e-5
    bumped = build(4.0 + eps).solve()
    fd = (bumped.objective - base.objective) / eps
    assert base.sensitivity("demand") == pytest.approx(fd, abs=1e-6)
    # >=-row dual in a minimization is the plain sensitivity (here positive:
    # tightening the demand increases cost)
    assert base.dual("demand") > 0


def test_infeasible_and_unbounded_are_statuses(backend):
    lp = backend()
    x = lp.var("x")
    lp.add_ge(x, 2.0)
    lp.add_le(x, 1.0)
    lp.minimize(x)
    assert lp.solve().status == lpcore.INFEASIBLE

    lp2 = backend()
    x2 = lp2.var("x")
    lp2.minimize(x2)
    assert lp2.solve().status == lpcore.UNBOUNDED


def test_value_on_expression_arrays(backend):
    lp = backend()
    T = lp.var_array("T", (2, 2))
    for i in range(2):
        for j in range(2):
            lp.add_eq(T[i, j], float(i + 2 * j))
    lp.minimize(lin_sum(T.ravel()))
    sol = lp.solve()
    got = sol.value(T)
    assert np.allclose(got, [[0.0, 2.0], [1.0, 3.0]])
    # affine combinations evaluate too
    assert sol.value(2.0 * T[1, 1] - T[0, 1] + 0.5) == pytest.approx(4.5)


def test_lin_matmul_agrees_with_numeric():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 4))
    X = rng.normal(size=(4, 2))
    got = oracles.lin_matmul(A, X)
    want = A @ X
    vals = np.array([[got[i, j].const for j in range(2)] for i in range(3)])
    assert np.allclose(vals, want)


def test_duplicate_names_rejected():
    lp = LinearProgram()
    lp.var("x")
    with pytest.raises(LpBuildError):
        lp.var("x")
    y = lp.var("y")
    lp.add_eq(y, 0.0, name="row")
    with pytest.raises(LpBuildError):
        lp.add_le(y, 1.0, name="row")


def test_kkt_and_duality_gap_small(backend):
    rng = np.random.default_rng(7)
    lp = backend()
    x = lp.var_array("x", 5, lb=-4.0, ub=4.0)
    for k in range(4):
        coefs = rng.normal(size=5)
        expr = lin_sum(c * v for c, v in zip(coefs, x))
        if k % 2:
            lp.add_le(expr, float(rng.uniform(0.5, 2.0)), name=f"c{k}")
        else:
            lp.add_ge(expr, float(rng.uniform(-2.0, -0.5)), name=f"c{k}")
    lp.minimize(lin_sum(float(c) * v for c, v in zip(rng.normal(size=5), x)))
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    res = sol.kkt_residuals()
    assert res["primal"] <= 1e-6
    assert res["dual_sign"] <= 1e-6
    assert res["stationarity"] <= 1e-6
    assert sol.duality_gap() <= 1e-6


def test_warm_rhs_update_matches_fresh_build():
    lp = LinearProgram()
    x = lp.var("x", lb=0.0)
    y = lp.var("y", lb=0.0)
    lp.add_eq(x + 2.0 * y, 4.0, name="pin")
    lp.add_ge(x - y, -10.0)
    lp.minimize(x + y)
    first = lp.solve()
    assert first.objective == pytest.approx(2.0)

    lp.set_rhs("pin", 8.0)
    warm = lp.solve()
    assert warm.objective == pytest.approx(4.0)
    assert warm.sensitivity("pin") == pytest.approx(0.5)

    fresh = LinearProgram()
    xf = fresh.var("x", lb=0.0)
    yf = fresh.var("y", lb=0.0)
    fresh.add_eq(xf + 2.0 * yf, 8.0, name="pin")
    fresh.add_ge(xf - yf, -10.0)
    fresh.minimize(xf + yf)
    ref = fresh.solve()
    assert warm.objective == pytest.approx(ref.objective)


def test_structure_edit_after_solve_rebuilds():
    lp = LinearProgram()
    x = lp.var("x", lb=0.0, ub=10.0)
    lp.minimize(x)
    assert lp.solve().objective == pytest.approx(0.0)
    lp.add_ge(x, 3.0, name="later")
    sol = lp.solve()
    assert sol.objective == pytest.approx(3.0)
    assert sol.dual("later") == pytest.approx(1.0)


def test_repeated_and_cancelling_columns_assemble_to_dense_oracle():
    lp = LinearProgram()
    x, y, z = lp.var("x"), lp.var("y"), lp.var("z")
    lp.add_eq(x + y - x, 1.0, name="cancel")     # x cancels to 0: no entry
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


def test_add_rows_names_bounds_and_checks():
    lp = LinearProgram()
    a = lp.var("a", lb=0.0, ub=4.0)
    lp.add_le(a, 3.0, name="r1")           # explicit name of the form r<k>
    first = lp.add_rows([0, 1], [0, 0], [1.0, 1.0], [1.0, 2.5], "=",
                        names=["fix", None])
    assert first == 1
    assert lp.row_names() == ["r1", "fix", "r2"]
    with pytest.raises(LpBuildError):      # row 2 already goes by "r2"
        lp.add_le(a, 9.0, name="r2")
    lp.add_le(a, 9.0, name="r4")
    with pytest.raises(LpBuildError):      # unnamed row 4 would be "r4" too
        lp.add_rows([0], [0], [1.0], [0.0], "<")
    with pytest.raises(LpBuildError):
        lp.add_rows([0], [0], [1.0], [0.0], "=", names=["fix"])
    with pytest.raises(LpBuildError):
        lp.add_rows([0], [5], [1.0], [0.0], "<")
    lp2 = LinearProgram()
    b = lp2.var("b", lb=0.0, ub=4.0)
    lp2.add_rows([0], [0], [1.0], [2.0], "=", names=["pin"])
    lp2.minimize(b)
    assert lp2.solve().objective == pytest.approx(2.0)
    lp2.set_rhs("pin", 1.0)    # as add_eq(b - 2.0, 0.0): the bound becomes 3
    assert lp2.solve().objective == pytest.approx(3.0)


def test_lp_text_dump_is_deterministic():
    def build():
        lp = LinearProgram(name="demo")
        a = lp.var("a", lb=0.0)
        b = lp.var("b", ub=2.5)
        lp.add_eq(a + 2.0 * b, 1.0, name="mix")
        lp.add_le(a - b, 0.75, name="diff")
        lp.minimize(a + 0.1 * b)
        return lp.to_lp_text()

    text1, text2 = build(), build()
    assert text1 == text2
    assert "mix:" in text1 and "diff:" in text1 and "free" not in text1


def test_empty_program_is_trivially_optimal():
    lp = LinearProgram()
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    assert sol.objective == pytest.approx(0.0)


def test_solver_time_tracker_accumulates():
    with lpcore.track_solver_time() as tracker:
        lp = LinearProgram()
        x = lp.var("x", lb=0.0)
        lp.add_ge(x, 1.0)
        lp.minimize(x)
        lp.solve()
        lp.set_rhs(lp.row_names()[0], 2.0)
        lp.solve()
    assert tracker.solves == 2
    assert tracker.seconds >= 0.0


def test_solver_time_tracker_records_largest_model(backend):
    with lpcore.track_solver_time() as tracker:
        big = backend()
        xs = [big.var(f"x{i}", lb=0.0) for i in range(3)]
        big.add_ge(xs[0] + xs[1], 1.0)
        big.add_ge(xs[1] + 2.0 * xs[2], 1.0)
        big.add_le(xs[0] - xs[2], 4.0, name="cap")
        big.minimize(lin_sum(xs))
        big.solve()
        with lpcore.track_solver_time() as inner:
            small = backend()
            y = small.var("y", lb=0.0)
            small.add_ge(y, 1.0)
            small.minimize(y)
            small.solve()
        assert (inner.max_rows, inner.max_cols, inner.max_nnz) == (1, 1, 1)
        assert (tracker.max_rows, tracker.max_cols, tracker.max_nnz) == (3, 3, 6)
        big.set_rhs("cap", 5.0)   # warm re-solve of the same model
        big.solve()
    assert tracker.solves == 3
    assert (tracker.max_rows, tracker.max_cols, tracker.max_nnz) == (3, 3, 6)


def test_against_vertex_enumeration_oracle(backend):
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(20):
        c, A, lo, hi, xlb, xub = oracles.random_bounded_lp(rng)
        status, obj, _ = oracles.solve_lp_by_vertex_enumeration(c, A, lo, hi, xlb, xub)

        lp = backend()
        xs = [lp.var(f"x{i}", lb=xlb[i], ub=xub[i]) for i in range(len(c))]
        for k in range(A.shape[0]):
            expr = lin_sum(A[k, i] * xs[i] for i in range(len(c)))
            if lo[k] == hi[k]:
                lp.add_eq(expr, lo[k])
            elif lo[k] == -INF:
                lp.add_le(expr, hi[k])
            else:
                lp.add_ge(expr, lo[k])
        lp.minimize(lin_sum(ci * xi for ci, xi in zip(c, xs)))
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
        x = lp.var("x", lb=0.0, ub=x_ub)
        y = lp.var("y", lb=0.0)
        lp.add_ge(x + y, 4.0, name="demand")
        lp.add_le(x - 2.0 * y, 1.0)
        lp.minimize(2.0 * x + cost_y * y)
        return lp

    lp = build()
    first = lp.solve()
    solver = lp._solver
    lp.set_col_bounds([0], 0.0, 1.5)          # one call on the live instance
    lp.set_costs(np.array([1]), [1.0])
    warm = lp.solve()
    assert lp._solver is solver                # re-solved, not rebuilt
    ref = build(cost_y=1.0, x_ub=1.5).solve()
    assert warm.objective == pytest.approx(ref.objective, abs=1e-9)
    assert warm.column_values([0, 1]) == pytest.approx(ref.column_values([0, 1]), abs=1e-9)
    assert lp.col_bounds([0, 1]) == (pytest.approx([0.0, 0.0]), pytest.approx([1.5, INF]))
    lp.set_col_bounds([0], 0.0, INF)
    lp.set_costs([1], 3.0)
    back = lp.solve()
    assert back.objective == pytest.approx(first.objective, abs=1e-9)
    assert lp.to_lp_text() == build().to_lp_text()


def test_fixed_column_dual_is_the_pinned_row_sensitivity():
    # min x + 2y s.t. x + y >= a, y >= 0.5 a, with a as a fixed column and,
    # for reference, as a variable pinned by an equality row
    def build(pinned, a):
        lp = LinearProgram()
        x = lp.var("x", lb=0.0)
        y = lp.var("y", lb=0.0)
        alpha = lp.var("a", lb=a if not pinned else -INF, ub=a if not pinned else INF)
        if pinned:
            lp.add_eq(alpha, a, name="pin")
        lp.add_ge(x + y - alpha, 0.0)
        lp.add_ge(y - 0.5 * alpha, 0.0)
        lp.minimize(x + 2.0 * y)
        return lp

    fixed = build(False, 2.0)
    fixed.solve()
    fixed.set_col_bounds([2], 3.0, 3.0)
    sol = fixed.solve()
    ref = build(True, 3.0).solve()
    assert sol.objective == pytest.approx(ref.objective)
    assert sol.column_duals([2])[0] == pytest.approx(ref.sensitivity("pin"))
    assert sol.column_duals([2])[0] == pytest.approx(1.5)


def test_scalar_var_block_is_one_named_column():
    lp = LinearProgram()
    lp.var_block("x", 2)
    d = lp.var_block("d", (), lb=0.0)
    assert d.shape == () and int(d) == 2
    assert lp._col_names == ["x[0]", "x[1]", "d"]


def test_only_lpcore_uses_expression_arithmetic():
    # the package's programs are built from column-index arrays; LinExpr and
    # its helpers are lpcore's row-wise path, which only tests build with
    import ast
    import pathlib

    import zonosynth

    banned = {"LinExpr", "lin_sum", "as_expr", "col_exprs"}
    found = []
    for path in sorted(pathlib.Path(zonosynth.__file__).parent.glob("*.py")):
        if path.name == "lpcore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else \
                {node.attr} if isinstance(node, ast.Attribute) else set()
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & banned)]
    assert found == []
