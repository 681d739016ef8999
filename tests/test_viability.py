"""Viable-set and RCI LP tests, including hand-derived 1-D cases."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import escalate_k, force_nothing, interval_hull, pin_no_witness, rci_beta_grid

from zonosynth.cli import lambda_for
from zonosynth.geom import (Zonotope, add_scaled_containment, contains_point, numbers,
                            witness_values)
from zonosynth import geom, lpcore, viability
from zonosynth.lpcore import LinearProgram
from zonosynth.synthesis import RETRY_HINT, centralized_dense
from zonosynth.sysmodel import aggregate, load_network, random_network
from zonosynth.viability import (
    CertificationError,
    TubeSolution,
    certify,
    certify_tube,
    rci,
    recursion_steps,
    viable,
)


def zono(c, G):
    return Zonotope(np.asarray(c, dtype=float), np.asarray(G, dtype=float))


# ---------------------------------------------------------------------------
# 1-D integrator with input: dead-beat RCI is forced


def test_rci_deadbeat_1d():
    # x+ = x + u + w, |w| <= 0.3: at k=1 the recursion forces T = [0.3],
    # M = [-0.3] (the disturbance column must be reproduced, then cancelled).
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    sol = rci(A, B, zono([0], [[0.3]]), zono([0], [[1.0]]), zono([0], [[1.0]]), k=1)
    assert sol is not None
    assert sol.objective == pytest.approx(0.3, abs=1e-9)
    assert sol.T[0] == pytest.approx(np.array([[0.3]]), abs=1e-9)
    assert sol.M[0] == pytest.approx(np.array([[-0.3]]), abs=1e-9)
    # the fixed-point equation pins ubar = 0 but leaves the center free
    assert sol.ubar[0] == pytest.approx(np.array([0.0]), abs=1e-9)
    lo, hi = interval_hull(sol.omega())
    assert hi - lo == pytest.approx([0.6], abs=1e-8)
    assert lo[0] >= -1.0 - 1e-8 and hi[0] <= 1.0 + 1e-8


def test_rci_respects_input_bounds():
    # same plant but |u| <= 0.1 cannot cancel a 0.3 disturbance column at k=1
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    sol = rci(A, B, zono([0], [[0.3]]), zono([0], [[1.0]]), zono([0], [[0.1]]), k=1)
    assert sol is None


# ---------------------------------------------------------------------------
# autonomous 0.5-contraction: the beta = 0 variant (no E) cannot see the
# true invariant interval [-1, 1], the beta-inflated variant recovers it
# exactly


CONTRACTION = dict(
    A=np.array([[0.5]]),
    B=np.zeros((1, 0)),
    W=zono([0], [[0.5]]),
    X=zono([0], [[1.0]]),
    U=None,
)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_simplified_rci_infeasible_for_contraction(k):
    # [0.5 T, 0.5] = [0, T] forces T_0 = 0, T_j = 2 T_{j-1}, then demands
    # T_{k-1} = 0.5: contradiction at every width k.
    assert rci(CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
               CONTRACTION["X"], CONTRACTION["U"], k=k) is None


def test_full_rci_needs_beta_half():
    args = (CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
            CONTRACTION["X"], CONTRACTION["U"])
    # |E| = |0.5 T| = 0.25 must fit in beta * 0.5, so beta >= 0.5
    assert rci(*args, k=1, beta=0.4) is None
    sol = rci(*args, k=1, beta=0.5)
    assert sol is not None
    assert sol.sigma == pytest.approx(2.0)
    lo, hi = interval_hull(sol.omega())
    assert lo == pytest.approx([-1.0], abs=1e-8)
    assert hi == pytest.approx([1.0], abs=1e-8)


def test_beta_grid_finds_half():
    sol = rci_beta_grid(CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
                        CONTRACTION["X"], CONTRACTION["U"], k=1)
    assert sol is not None
    assert sol.beta == pytest.approx(0.5)
    lo, hi = interval_hull(sol.omega())
    assert hi == pytest.approx([1.0], abs=1e-8)


def test_rci_argument_validation():
    args = (CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
            CONTRACTION["X"], CONTRACTION["U"])
    with pytest.raises(ValueError, match="beta"):
        rci(*args, k=1, beta=1.0)


# ---------------------------------------------------------------------------
# finite horizon, 1-D


FIN = dict(
    A=[np.array([[1.0]])] * 2,
    B=[np.array([[1.0]])] * 2,
    W=[zono([0], [[0.2]])] * 2,
    X=[zono([0], [[1.0]])] * 3,
    U=[zono([0], [[1.0]])] * 2,
)


def test_growing_viable_shrinks_initial_set():
    # nothing pins Omega(0), so min sum|T| collapses it to a point and each
    # later set is exactly the one-step disturbance interval
    sol = viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=1)
    assert sol is not None
    assert sol.objective == pytest.approx(0.4, abs=1e-9)
    assert sol.T[0] == pytest.approx(np.zeros((1, 1)), abs=1e-10)
    assert sol.T[1].shape == (1, 2)
    assert sol.T[2].shape == (1, 3)
    lo, hi = interval_hull(sol.omega(1))
    assert (lo, hi) == (pytest.approx([-0.2]), pytest.approx([0.2]))


def test_viable_infeasible_when_state_box_too_small():
    # |w| <= 2 cannot fit inside |x| <= 1 one step later, with no input at all
    sol = viable(
        [np.array([[1.0]])],
        [np.zeros((1, 0))],
        [zono([0], [[2.0]])],
        [zono([0], [[1.0]])] * 2,
        [None],
        k=1,
    )
    assert sol is None


def test_sequence_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"][:2], FIN["U"], k=1)


def test_growing_recursion_is_exact():
    # x+ computed from any witness (zeta, zeta_w) must land exactly on the
    # next set's parameterization: the LP equalities are an algebraic identity
    sol = viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=2)
    assert sol is not None
    rng = np.random.default_rng(7)
    for t in range(2):
        lt = sol.T[t].shape[1]
        for _ in range(20):
            zeta = rng.uniform(-1, 1, lt)
            zw = rng.uniform(-1, 1, 1)
            x = sol.xbar[t] + sol.T[t] @ zeta
            u = sol.ubar[t] + sol.M[t] @ zeta
            w = sol.W[t].center + sol.W[t].generators @ zw
            x_next = FIN["A"][t] @ x + FIN["B"][t] @ u + w
            x_param = sol.xbar[t + 1] + sol.T[t + 1] @ np.concatenate([zeta, zw])
            assert np.max(np.abs(x_next - x_param)) < 1e-10


def test_recursion_residual_reads_every_template():
    # ~0 on every kind of solution, and it sees a broken step or a dropped E
    growing = viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=2)
    contraction = (CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
                   CONTRACTION["X"], CONTRACTION["U"])
    wiggled = rci(*contraction, k=1, beta=0.5)
    deadbeat = rci(np.array([[1.0]]), np.array([[1.0]]), zono([0], [[0.3]]),
                   zono([0], [[1.0]]), zono([0], [[1.0]]), k=1)

    def residual(sol, A, B):
        return certify([], recursion_steps(sol, A, B))

    A_fin, B_fin = FIN["A"], FIN["B"]
    for sol, A, B in ((growing, A_fin, B_fin),
                      (wiggled, [CONTRACTION["A"]], [CONTRACTION["B"]]),
                      (deadbeat, [np.array([[1.0]])], [np.array([[1.0]])])):
        report = residual(sol, A, B)
        assert report.ok and report.max_residual <= 1e-9
    shifted = [T.copy() for T in growing.T]
    shifted[1] += 1e-3
    broken = TubeSolution(shifted, growing.xbar, growing.M, growing.ubar, growing.W,
                          0.0, None, growing.objective)
    report = residual(broken, A_fin, B_fin)
    assert report.max_residual == pytest.approx(1e-3)
    assert report.failures == [f"recursion residual {report.max_residual:.3e}"]
    assert np.abs(wiggled.E).max() > 0.1
    no_wiggle = TubeSolution(wiggled.T, wiggled.xbar, None, None, wiggled.W, 0.5, None,
                             wiggled.objective)
    assert residual(no_wiggle, [CONTRACTION["A"]], [CONTRACTION["B"]]).max_residual > 0.1


# ---------------------------------------------------------------------------
# a coupled-chain-style 2-D block: escalation and long-run invariance


PLANT2D = dict(
    A=np.array([[1.0, 1.1], [0.0, 1.0]]),
    B=np.array([[0.0], [0.1]]),
    W=zono([0, 0], 0.02 * np.eye(2)),
    X=zono([0, 0], np.eye(2)),
    U=zono([0], [[10.0]]),
)


def test_rci_2d_needs_escalation_past_k2():
    args = (PLANT2D["A"], PLANT2D["B"], PLANT2D["W"], PLANT2D["X"], PLANT2D["U"])
    assert rci(*args, k=2) is None
    sol, k = escalate_k(lambda k: rci(*args, k=k), n=2)
    assert sol is not None and k == 4
    assert sol.T[0].shape[1] == 4


def test_escalation_gives_up_at_cap():
    args = (CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
            CONTRACTION["X"], CONTRACTION["U"])
    sol, k = escalate_k(lambda k: rci(*args, k=k), n=1)
    assert sol is None
    assert k == 8


# ---------------------------------------------------------------------------
# certification helper and serialization


def check(inner, center, cols, scales, witness, what="demo"):
    """One state check of ``viability.certify``."""
    return (what, "x", inner.generators, inner.center, center, cols, scales, witness)


def test_certify_rejects_blatant_violation():
    inner = zono([2.0], [[0.5]])
    report = certify([check(inner, np.zeros(1), np.eye(1), np.ones(1), None)], [])
    assert not report.ok and report.lp_fallbacks == 1
    assert report.max_state_margin == pytest.approx(1.5)
    assert report.failures == [f"demo by {report.max_state_margin:.3e}"]


def test_certify_solves_the_lp_only_past_tol():
    inner = Zonotope([0.5, 0.0], np.eye(2))
    outer = (np.zeros(2), np.eye(2), np.ones(2))
    L = np.array([[1.0, 0.0, -0.5], [0.0, 1.0, 0.0]])  # exact; row 0 sums to 1.5
    report = certify([check(inner, *outer, L)], [], tol=1.0)
    assert report.max_state_margin == pytest.approx(0.5) and report.lp_fallbacks == 0
    report = certify([check(inner, *outer, L)], [])
    assert report.max_state_margin == pytest.approx(0.5) and report.lp_fallbacks == 1
    assert not report.ok
    report = certify([check(Zonotope(np.zeros(2), 0.5 * np.eye(2)), *outer, None)], [])
    assert report.max_state_margin == pytest.approx(0.0, abs=1e-9)
    assert report.ok and report.lp_fallbacks == 1


def test_viable_certifies_on_the_lp_witnesses_first():
    cases = [
        (viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=1),
         (FIN["A"], FIN["B"], FIN["X"], FIN["U"]),
         {"inC0", "inC1", "inC2", "term", "inU0", "inU1"}),
        (rci(PLANT2D["A"], PLANT2D["B"], PLANT2D["W"], PLANT2D["X"], PLANT2D["U"], k=4),
         ([PLANT2D["A"]], [PLANT2D["B"]], [PLANT2D["X"]], [PLANT2D["U"]]), {"inC0", "inU0"}),
        (rci(CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
             CONTRACTION["X"], CONTRACTION["U"], k=1, beta=0.5),
         ([CONTRACTION["A"]], [CONTRACTION["B"]], [CONTRACTION["X"]], [CONTRACTION["U"]]),
         {"inC0"}),
    ]
    for sol, system, keys in cases:
        assert set(sol.witness) == keys
        checks = len(keys - {"term"})  # "term" is the last "inC" again
        report = certify_tube(sol, *system)
        assert report.ok and report.lp_fallbacks == 0
        assert 0.0 <= report.max_state_margin <= 1e-7
        assert 0.0 <= report.max_input_margin <= 1e-7
        # witnesses are not serialized: a loaded solution certifies by LP
        back = TubeSolution.from_json(sol.to_json())
        assert back.witness is None and "witness" not in sol.to_json()
        assert certify_tube(back, *system).lp_fallbacks == checks
        # a witness that proves nothing sends the check to the LP, which
        # still accepts the (correct) solution.  Doubling would not do: the
        # finite tube's Omega(0) and Theta(0) are points at their sets'
        # centers (min sum |T| collapses them), which a doubled witness of
        # zeros still proves; every entry is shifted instead
        sol.witness = {key: L + 1.0 for key, L in sol.witness.items()}
        report = certify_tube(sol, *system)
        assert report.ok and report.lp_fallbacks == checks


@pytest.mark.parametrize("change, first", [
    # inflating every set escapes X(0) first, and breaks the recursion too
    (lambda sol: {"T": [100.0 * T for T in sol.T]}, "Omega(0) escapes X(0) by "),
    # a center off its fixed point by 1e-6 still fits X
    (lambda sol: {"xbar": [x + 1e-6 for x in sol.xbar]}, "recursion residual "),
], ids=["wide", "off-center"])
def test_viable_raises_on_the_first_failing_check(monkeypatch, change, first):
    solve = viability.solve_and_read

    def changed(lp, read):
        sol = solve(lp, read)
        return dataclasses.replace(sol, **change(sol))

    monkeypatch.setattr(viability, "solve_and_read", changed)
    with pytest.raises(CertificationError, match="^" + re.escape(first)):
        rci(PLANT2D["A"], PLANT2D["B"], PLANT2D["W"], PLANT2D["X"], PLANT2D["U"], k=4)


def test_viable_solution_roundtrip():
    sol = viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=1)
    back = TubeSolution.from_json(sol.to_json())
    assert back.horizon == 2
    for t in range(3):
        assert back.T[t] == pytest.approx(sol.T[t])
        assert back.xbar[t] == pytest.approx(sol.xbar[t])
    assert back.W[0].generators == pytest.approx(sol.W[0].generators)
    assert back.objective == pytest.approx(sol.objective)


def test_rci_solution_roundtrip():
    sol = rci(CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
              CONTRACTION["X"], CONTRACTION["U"], k=1, beta=0.5)
    back = TubeSolution.from_json(sol.to_json())
    assert back.horizon is None
    assert back.beta == pytest.approx(0.5)
    assert back.T[0] == pytest.approx(sol.T[0])
    assert back.E == pytest.approx(sol.E)
    assert back.M is None and back.ubar is None


# ---------------------------------------------------------------------------
# zero forcing: the T and M entries the recursion rows pin to 0 leave the LP


FORCING_RUNS = {
    **{f"geo{dim}-seed{seed}": (dim, seed, 0.0) for dim in (20, 40) for seed in range(6)},
    "case1": ("configs/case1.json", 0, 0.0),
    "case2": ("configs/case2.json", 0, 0.0),
    "geo20-beta": (20, 0, 0.2),
}


@pytest.mark.parametrize("run", list(FORCING_RUNS))
def test_pinned_zeros_keep_the_dense_result(monkeypatch, run):
    # the LP without its pinned entries and the full one have one optimum,
    # and both tubes certify on their own witnesses
    config, seed, beta = FORCING_RUNS[run]
    net = (load_network(config) if isinstance(config, str)
           else random_network(config // 2, lambda_for(config), seed=seed))
    pruned = centralized_dense(net, beta=beta)
    monkeypatch.setattr(viability, "_forced_zeros", force_nothing)
    full = centralized_dense(net, beta=beta)
    assert pruned.status == full.status == "correct"
    assert pruned.objective == pytest.approx(full.objective, rel=1e-9, abs=0.0)
    assert pruned.correctness.lp_fallbacks == full.correctness.lp_fallbacks
    assert pruned.timings["max_lp_rows"] < full.timings["max_lp_rows"]


def test_every_pinned_entry_is_zero_on_the_full_lp(monkeypatch):
    # each pinned entry of T and M has min = max = 0 over the feasible set
    # of the full LP, whose columns are T (n x k), xbar (n), then M (m x k)
    agg = aggregate(random_network(3, lambda_for(6), seed=0))
    (n, m), p = agg.B[0].shape, agg.D[0].num_generators
    k = n + p
    (T_zero,), (M_zero,) = viability._forced_zeros(agg.A, agg.B, agg.D, [k], 0.0)
    monkeypatch.setattr(viability, "_forced_zeros", force_nothing)
    lp, _ = viability.viable_lp(agg.A, agg.B, agg.D, agg.X, agg.U, k)
    T = np.arange(n * k).reshape(n, k)
    M = n * k + n + np.arange(m * k).reshape(m, k)
    pinned = np.concatenate([T[T_zero], M[M_zero]])
    assert T_zero.any() and M_zero.any() and len(pinned) < T.size + M.size
    for col in pinned.tolist():
        for sign in (1.0, -1.0):  # min of the entry, then of its negative
            lp.set_costs(np.arange(lp.num_vars), 0.0)
            lp.set_costs([col], sign)
            sol = lp.solve()
            assert sol.status == lpcore.OPTIMAL
            assert abs(sol.objective) <= 1e-9


def test_a_pinned_row_with_a_nonzero_bound_fails_the_run(monkeypatch):
    # x1+ = x2 and x2+ = w, W = Z(0, [0; 1]), k = 1: the row (A T)[0, 0] = 0
    # pins T[1, 0], and W's row 1 = T[1, 0] keeps its bound 1 with no column
    # left, so the LP is infeasible as the full one is
    net = load_network({"mode": "infinite", "subsystems": [{
        "id": 1, "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [0.0]],
        "X": {"center": [0.0, 0.0], "generators": [[1.0, 0.0], [0.0, 1.0]]},
        "U": {"center": [0.0], "generators": [[1.0]]},
        "D": {"center": [0.0, 0.0], "generators": [[0.0], [1.0]]}}]})
    solved = []
    solve = LinearProgram.solve
    monkeypatch.setattr(LinearProgram, "solve",
                        lambda lp, *a, **kw: solved.append(lp) or solve(lp, *a, **kw))
    res = centralized_dense(net, k=1)
    assert res.status == "failed" and res.solutions is None and res.hint == RETRY_HINT
    (lp,) = solved
    empty = np.bincount(lp._matrix()[1], minlength=lp.num_rows) == 0
    lo, hi = lp._row_bounds()
    assert np.any(empty & (lo == hi) & (lo != 0))


def test_dense_rci_at_dim_80_certifies():
    # at HiGHS's default 1e-7 feasibility tolerance this tube left a
    # recursion residual of 9.371e-08, above RESIDUAL_TOL
    res = centralized_dense(random_network(40, lambda_for(80), seed=0))
    assert res.status == "correct"
    assert res.correctness.lp_fallbacks == 0


# ---------------------------------------------------------------------------
# the block rule: witness entries of blocks whose inner entries are all 0
# leave the dense LP


PRUNING_RUNS = {**FORCING_RUNS, "case1-beta": ("configs/case1.json", 0, 0.2),
                "geo40-beta": (40, 0, 0.2), "geo60": (60, 0, 0.0)}


@pytest.mark.parametrize("run", list(PRUNING_RUNS))
def test_pinned_witnesses_keep_the_dense_result(monkeypatch, run):
    # the LP without its pinned witness entries and the one with them have
    # one status and one optimum, and neither needs a Hausdorff LP
    config, seed, beta = PRUNING_RUNS[run]
    net = (load_network(config) if isinstance(config, str)
           else random_network(config // 2, lambda_for(config), seed=seed))
    pruned = centralized_dense(net, beta=beta)
    monkeypatch.setattr(geom, "_pinned_witness", pin_no_witness)
    full = centralized_dense(net, beta=beta)
    assert pruned.status == full.status == "correct"
    assert pruned.objective == pytest.approx(full.objective, rel=1e-9, abs=0.0)
    assert pruned.correctness.lp_fallbacks == full.correctness.lp_fallbacks == 0
    assert pruned.timings["max_lp_rows"] < full.timings["max_lp_rows"]
    assert pruned.timings["max_lp_cols"] < full.timings["max_lp_cols"]


@pytest.mark.parametrize("split", [True, False])
def test_a_block_keeps_every_witness_entry_of_a_live_row(split):
    # the outer [[1, 1], [0, 1]] is one block, and column 0 of the inner
    # [[0, 0], [1, 0]] is live on row 1 alone: both witness entries of
    # column 0 stay (row 1 needs Lam[1, 0] = 1, row 0 then Lam[0, 0] = -1),
    # while column 1, the number 0 on both rows, keeps none
    lp = LinearProgram()
    handles = add_scaled_containment(lp, numbers([[0.0, 0.0], [1.0, 0.0]]),
                                     [[1.0, 1.0], [0.0, 1.0]], numbers([1.0, 1.0]),
                                     np.zeros(2), split=split)
    lp.var_block((), lb=5.0, ub=5.0)  # the last column reads 5, not 0
    kept = handles["P"] if split else np.column_stack([handles["Lam"], handles["lam"]])
    assert np.array_equal(kept >= 0, [[True, False], [True, False]])
    sol = lp.solve()
    assert sol.status == lpcore.OPTIMAL
    # a pinned entry reads 0.0 through witness_values
    (L,) = witness_values(sol, {"in": handles}).values()
    assert L.tolist() == [[-1.0, 0.0], [1.0, 0.0]]


# ---------------------------------------------------------------------------
# property: one RCI step stays inside for arbitrary witnesses


@settings(max_examples=40, deadline=None)
@given(
    zeta=st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4),
    zw=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=2),
)
def test_rci_step_stays_inside(zeta, zw):
    sol = _CACHED_RCI["sol"]
    zeta = np.asarray(zeta)
    zw = np.asarray(zw)
    x = sol.xbar[0] + sol.sigma * (sol.T[0] @ zeta)
    u = sol.ubar[0] + sol.sigma * (sol.M[0] @ zeta)
    w = PLANT2D["W"].center + PLANT2D["W"].generators @ zw
    x_next = PLANT2D["A"] @ x + PLANT2D["B"] @ u + w
    inside, _ = contains_point(sol.omega(), x_next, tol=1e-7)
    assert inside


_CACHED_RCI = {
    "sol": rci(PLANT2D["A"], PLANT2D["B"], PLANT2D["W"], PLANT2D["X"],
               PLANT2D["U"], k=4),
}
