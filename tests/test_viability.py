"""Viable-set and RCI LP tests, including hand-derived 1-D cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonosynth.geom import Zonotope, contains_point, interval_hull
from zonosynth.viability import (
    CertificationError,
    RciSolution,
    ViableSolution,
    _certify,
    certify_solution,
    escalate_k,
    finite_viable,
    rci,
    rci_beta_grid,
    recursion_residual,
    solution_from_json,
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
    assert sol.T == pytest.approx(np.array([[0.3]]), abs=1e-9)
    assert sol.M == pytest.approx(np.array([[-0.3]]), abs=1e-9)
    # the fixed-point equation pins ubar = 0 but leaves the center free
    assert sol.ubar == pytest.approx(np.array([0.0]), abs=1e-9)
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
# autonomous 0.5-contraction: the simplified variant cannot see the true
# invariant interval [-1, 1], the beta-inflated variant recovers it exactly


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
    with pytest.raises(ValueError, match="simplified"):
        rci(*args, k=1, beta=0.5, simplified=True)


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
    sol = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=1)
    assert sol is not None
    assert sol.objective == pytest.approx(0.4, abs=1e-9)
    assert sol.T[0] == pytest.approx(np.zeros((1, 1)), abs=1e-10)
    assert sol.T[1].shape == (1, 2)
    assert sol.T[2].shape == (1, 3)
    lo, hi = interval_hull(sol.omega(1))
    assert (lo, hi) == (pytest.approx([-0.2]), pytest.approx([0.2]))


def test_growing_viable_with_pinned_start():
    x0 = zono([0.5], [[0.1]])
    sol = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"],
                        k=1, x0=x0)
    assert sol is not None
    assert sol.xbar[0] == pytest.approx([0.5])
    assert sol.T[0] == pytest.approx(np.array([[0.1]]))
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_pinned_start_wider_than_budget():
    x0 = zono([0.0], [[0.1, 0.2]])
    with pytest.raises(ValueError, match="generators"):
        finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"],
                      k=1, x0=x0)


def test_fixed_template_keeps_width():
    sol = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"],
                        k=1, template="fixed")
    assert sol is not None
    assert all(T.shape == (1, 1) for T in sol.T)
    # the single column of every later set is the fresh disturbance column
    assert sol.T[1] == pytest.approx(np.array([[0.2]]), abs=1e-9)
    assert sol.T[2] == pytest.approx(np.array([[0.2]]), abs=1e-9)


def test_fixed_template_needs_room_for_disturbance():
    W = [zono([0, 0], [[0.1, 0.0], [0.0, 0.1]])] * 1
    A = [np.eye(2)]
    B = [np.array([[0.0], [1.0]])]
    X = [zono([0, 0], np.eye(2))] * 2
    U = [zono([0], [[1.0]])]
    with pytest.raises(ValueError, match="k >="):
        finite_viable(A, B, W, X, U, k=1, template="fixed")


def test_viable_infeasible_when_state_box_too_small():
    # |w| <= 2 cannot fit inside |x| <= 1 one step later, with no input at all
    sol = finite_viable(
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
        finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"][:2], FIN["U"], k=1)
    with pytest.raises(ValueError, match="template"):
        finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=1,
                      template="bogus")


def test_growing_recursion_is_exact():
    # x+ computed from any witness (zeta, zeta_w) must land exactly on the
    # next set's parameterization: the LP equalities are an algebraic identity
    sol = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"],
                        k=2, x0=zono([0.1], [[0.3, 0.1]]))
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
    growing = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=2)
    fixed = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=2,
                          template="fixed")
    contraction = (CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
                   CONTRACTION["X"], CONTRACTION["U"])
    wiggled = rci(*contraction, k=1, beta=0.5)
    deadbeat = rci(np.array([[1.0]]), np.array([[1.0]]), zono([0], [[0.3]]),
                   zono([0], [[1.0]]), zono([0], [[1.0]]), k=1)
    A_fin, B_fin = FIN["A"], FIN["B"]
    for sol, A, B in ((growing, A_fin, B_fin), (fixed, A_fin, B_fin),
                      (wiggled, [CONTRACTION["A"]], [CONTRACTION["B"]]),
                      (deadbeat, [np.array([[1.0]])], [np.array([[1.0]])])):
        assert recursion_residual(sol, A, B) <= 1e-9
    shifted = [T.copy() for T in growing.T]
    shifted[1] += 1e-3
    broken = ViableSolution("growing", shifted, growing.xbar, growing.M, growing.ubar,
                            growing.W, growing.objective)
    assert recursion_residual(broken, A_fin, B_fin) == pytest.approx(1e-3)
    assert np.abs(wiggled.E).max() > 0.1
    no_wiggle = RciSolution(wiggled.T, wiggled.xbar, None, None, wiggled.W, 0.5, None,
                            wiggled.objective)
    assert recursion_residual(no_wiggle, [CONTRACTION["A"]], [CONTRACTION["B"]]) > 0.1


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
    assert sol.k == 4


def test_escalation_gives_up_at_cap():
    args = (CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
            CONTRACTION["X"], CONTRACTION["U"])
    sol, k = escalate_k(lambda k: rci(*args, k=k), n=1)
    assert sol is None
    assert k == 8


# ---------------------------------------------------------------------------
# certification helper and serialization


def test_certify_rejects_blatant_violation():
    inner = zono([2.0], [[0.5]])
    outer = zono([0.0], [[1.0]])
    with pytest.raises(CertificationError, match="containment"):
        _certify(inner, outer, "demo")


def test_certify_solution_reads_the_lp_witnesses_first():
    cases = [
        (finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"], k=1,
                       x0=zono([0.5], [[0.1]])), FIN["X"], FIN["U"],
         {"inC0", "inC1", "inC2", "term", "inU0", "inU1"}),
        (rci(PLANT2D["A"], PLANT2D["B"], PLANT2D["W"], PLANT2D["X"],
             PLANT2D["U"], k=4), PLANT2D["X"], PLANT2D["U"], {"inC0", "inU0"}),
        (rci(CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
             CONTRACTION["X"], CONTRACTION["U"], k=1, beta=0.5),
         CONTRACTION["X"], CONTRACTION["U"], {"inC0"}),
    ]
    for sol, X, U, keys in cases:
        assert set(sol.witness) == keys
        checks = len(keys - {"term"})  # "term" is the last "inC" again
        state, inputs, lps = certify_solution(sol, X, U)
        assert lps == 0 and 0.0 <= state <= 1e-7 and 0.0 <= inputs <= 1e-7
        # witnesses are not serialized: a loaded solution certifies by LP
        back = solution_from_json(sol.to_json())
        assert back.witness is None and "witness" not in sol.to_json()
        assert certify_solution(back, X, U)[2] == checks
        # a witness that proves nothing sends the check to the LP, which
        # still accepts the (correct) solution
        sol.witness = {key: 2.0 * L for key, L in sol.witness.items()}
        assert certify_solution(sol, X, U)[2] == checks


def test_viable_solution_roundtrip():
    sol = finite_viable(FIN["A"], FIN["B"], FIN["W"], FIN["X"], FIN["U"],
                        k=1, x0=zono([0.5], [[0.1]]))
    back = solution_from_json(sol.to_json())
    assert isinstance(back, ViableSolution)
    assert back.template == sol.template
    for t in range(3):
        assert back.T[t] == pytest.approx(sol.T[t])
        assert back.xbar[t] == pytest.approx(sol.xbar[t])
    assert back.W[0].generators == pytest.approx(sol.W[0].generators)
    assert back.objective == pytest.approx(sol.objective)


def test_rci_solution_roundtrip():
    sol = rci(CONTRACTION["A"], CONTRACTION["B"], CONTRACTION["W"],
              CONTRACTION["X"], CONTRACTION["U"], k=1, beta=0.5)
    back = solution_from_json(sol.to_json())
    assert isinstance(back, RciSolution)
    assert back.beta == pytest.approx(0.5)
    assert back.T == pytest.approx(sol.T)
    assert back.E == pytest.approx(sol.E)
    assert back.M is None and back.ubar is None


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
    x = sol.xbar + sol.sigma * (sol.T @ zeta)
    u = sol.ubar + sol.sigma * (sol.M @ zeta)
    w = PLANT2D["W"].center + PLANT2D["W"].generators @ zw
    x_next = PLANT2D["A"] @ x + PLANT2D["B"] @ u + w
    inside, _ = contains_point(sol.omega(), x_next, tol=1e-7)
    assert inside


_CACHED_RCI = {
    "sol": rci(PLANT2D["A"], PLANT2D["B"], PLANT2D["W"], PLANT2D["X"],
               PLANT2D["U"], k=4),
}
