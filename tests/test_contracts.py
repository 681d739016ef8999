"""Contract template/parameter plumbing and the potential function.

The two-subsystem pair used throughout is solvable by hand: each side sees
W_i = 0.5 * alpha_j * [1] boxed with 0.1, so its potential share is
max(0, 0.5 alpha_j + 0.1 - alpha_i) and the gradients are 0.5 / -1 wherever
the slack is active.
"""

import dataclasses

import numpy as np
import oracles
import pytest

from zonosynth.contracts import (
    ContractError,
    ContractParams,
    PotentialInfeasible,
    alpha_max,
    aug_blocks,
    augmented_disturbance,
    build_programs,
    check_correctness,
    default_template,
    extract_solutions,
    potential,
    _numeric_solution,
)
from zonosynth.geom import Zonotope, containment_lp, directed_hausdorff, order_reduce_box
from zonosynth.sysmodel import load_network
from zonosynth.viability import RciSolution


def interval_sub(sid, other, a_self=0.0, b=1.0, coupling=0.5, d=0.1, x=1.0, u=1.0):
    return {
        "id": sid,
        "A": [[a_self]],
        "B": [[b]],
        "X": {"center": [0.0], "generators": [[x]]},
        "U": {"center": [0.0], "generators": [[u]]},
        "D": {"center": [0.0], "generators": [[d]]},
        "couplings": [{"to": other, "A": [[coupling]]}],
    }


def pair_network(**kw):
    return load_network({
        "mode": "infinite",
        "subsystems": [interval_sub(1, 2, **kw), interval_sub(2, 1, **kw)],
    })


def finite_pair(horizon=2, **kw):
    return load_network({
        "mode": "finite",
        "horizon": horizon,
        "subsystems": [interval_sub(1, 2, **kw), interval_sub(2, 1, **kw)],
    })


# ---------------------------------------------------------------------------
# templates and parameters


def test_default_template_shapes():
    net = load_network("configs/case1.json")
    tpl = default_template(net)
    assert tpl.is_bounds
    assert sorted(tpl.state) == [1, 2, 3]
    assert len(tpl.state[1]) == 1  # infinite horizon: one promise per channel
    assert tpl.input == {}  # no input couplings anywhere in this network
    center, cols = tpl.state[1][0]
    assert cols == pytest.approx(np.eye(2))


def test_default_template_finite_steps():
    net = finite_pair(horizon=3)
    tpl = default_template(net)
    assert len(tpl.state[1]) == 4
    assert tpl.input == {}


def test_alpha_max_is_ones_for_bounds_template():
    net = pair_network()
    params = alpha_max(net, default_template(net))
    assert params.x[1][0] == pytest.approx([1.0])
    assert params.x[2][0] == pytest.approx([1.0])
    assert params.u == {}


def test_alpha_max_custom_template_lp():
    from zonosynth.contracts import ContractTemplate

    net = pair_network()
    # promise shape is half the admissible interval: alpha can go to 2
    tpl = ContractTemplate(
        {1: ((np.zeros(1), np.array([[0.5]])),),
         2: ((np.zeros(1), np.array([[0.25]])),)},
        {},
        is_bounds=False,
    )
    params = alpha_max(net, tpl)
    assert params.x[1][0] == pytest.approx([2.0], abs=1e-8)
    assert params.x[2][0] == pytest.approx([4.0], abs=1e-8)


def test_params_vector_roundtrip_and_order():
    net = finite_pair(horizon=1)
    params = alpha_max(net, default_template(net))
    params.x[1][0][:] = 0.1
    params.x[1][1][:] = 0.2
    params.x[2][0][:] = 0.3
    params.x[2][1][:] = 0.4
    vec = params.to_vector()
    # sorted ids, state channel, ascending time
    assert vec == pytest.approx([0.1, 0.2, 0.3, 0.4])
    back = params.from_vector(vec)
    assert back.x[2][1] == pytest.approx([0.4])
    with pytest.raises(ContractError, match="entries"):
        params.from_vector(np.zeros(5))


def test_params_clipped_and_scaled():
    net = pair_network()
    params = alpha_max(net, default_template(net))
    half = params.scaled(0.5)
    assert half.x[1][0] == pytest.approx([0.5])
    half.x[1][0][:] = 3.0
    half.x[2][0][:] = -0.2
    clipped = half.clipped()
    assert clipped.x[1][0] == pytest.approx([1.0])
    assert clipped.x[2][0] == pytest.approx([0.0])


def test_params_json_roundtrip():
    net = pair_network()
    params = alpha_max(net, default_template(net)).scaled(0.7)
    back = ContractParams.from_json(params.to_json(), ids=[1, 2])
    assert back.x[1][0] == pytest.approx(params.x[1][0])
    assert back.max_x[2][0] == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# augmented disturbance


def test_aug_blocks_structure_and_values():
    net = pair_network()
    tpl = default_template(net)
    center, blocks = aug_blocks(net, tpl, 1, 0)
    assert [b.kind for b in blocks] == ["state", "local"]
    assert blocks[0].source == 2
    assert blocks[0].cols == pytest.approx(np.array([[0.5]]))
    assert blocks[1].cols == pytest.approx(np.array([[0.1]]))
    assert center == pytest.approx([0.0])


def test_augmented_disturbance_scales_with_alpha():
    net = pair_network()
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.8)
    W = augmented_disturbance(net, tpl, params, 1, 0)
    assert W.generators == pytest.approx(np.array([[0.4, 0.1]]))


def test_input_coupling_requires_input_contract():
    from zonosynth.contracts import ContractTemplate

    cfg = {
        "mode": "infinite",
        "subsystems": [
            dict(interval_sub(1, 2), couplings=[{"to": 2, "A": [[0.5]], "B": [[0.2]]}]),
            interval_sub(2, 1),
        ],
    }
    net = load_network(cfg)
    tpl = default_template(net)
    # the default template gives subsystem 2 an input promise automatically
    assert 2 in tpl.input
    W = augmented_disturbance(net, tpl, alpha_max(net, tpl), 1, 0)
    assert W.generators == pytest.approx(np.array([[0.5, 0.2, 0.1]]))
    stripped = ContractTemplate(tpl.state, {}, is_bounds=True)
    with pytest.raises(ContractError, match="input"):
        aug_blocks(net, stripped, 1, 0)


def test_reduced_w_matches_order_reduce_box_at_alpha_max():
    rng = np.random.default_rng(3)
    cfg = {
        "mode": "infinite",
        "subsystems": [
            {
                "id": 1,
                "A": np.zeros((2, 2)).tolist(),
                "B": [[0.0], [1.0]],
                "X": {"center": [0, 0], "generators": np.eye(2).tolist()},
                "U": {"center": [0], "generators": [[1.0]]},
                "D": {"center": [0.1, -0.2],
                      "generators": rng.normal(size=(2, 3)).tolist()},
                "couplings": [{"to": 2, "A": rng.normal(size=(2, 2)).tolist()}],
            },
            {
                "id": 2,
                "A": np.zeros((2, 2)).tolist(),
                "B": [[0.0], [1.0]],
                "X": {"center": [0, 0],
                      "generators": rng.normal(size=(2, 2)).tolist()},
                "U": {"center": [0], "generators": [[1.0]]},
                "D": {"center": [0, 0], "generators": (0.05 * np.eye(2)).tolist()},
                "couplings": [{"to": 1, "A": rng.normal(size=(2, 2)).tolist()}],
            },
        ],
    }
    net = load_network(cfg)
    tpl = default_template(net)
    params = alpha_max(net, tpl)
    shrunk = params.scaled(0.6)
    exact = augmented_disturbance(net, tpl, params, 1, 0)
    for order in (1, 2, None):
        programs = build_programs(net, tpl, reduction_order=order)
        # the W a solution reads back from its program's own terms
        reduced = potential(programs, params).evals[1].solution.W
        oracle = order_reduce_box(exact, order)
        assert reduced.center == pytest.approx(oracle.center)
        assert reduced.generators == pytest.approx(oracle.generators)
        # at other alphas the reduction is still an outer approximation
        for sid, ev in potential(programs, shrunk).evals.items():
            exact6 = augmented_disturbance(net, tpl, shrunk, sid, 0)
            assert directed_hausdorff(ev.solution.W, exact6) <= 1e-9


# ---------------------------------------------------------------------------
# the potential on the hand-solvable pair


def set_pair(params, a1, a2):
    out = params.copy()
    out.x[1][0][:] = a1
    out.x[2][0][:] = a2
    return out


def test_potential_value_and_gradient_by_hand():
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    base = alpha_max(net, tpl)

    res = potential(programs, set_pair(base, 0.1, 0.8))
    # V_1 = 0.5*0.8 + 0.1 - 0.1 = 0.4 (active), V_2 = max(0, 0.15 - 0.8) = 0
    assert res.value == pytest.approx(0.4, abs=1e-8)
    assert res.grad.x[1][0] == pytest.approx([-1.0], abs=1e-8)
    assert res.grad.x[2][0] == pytest.approx([0.5], abs=1e-8)

    res = potential(programs, set_pair(base, 0.5, 0.5))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.grad.x[1][0] == pytest.approx([0.0], abs=1e-9)
    assert res.grad.x[2][0] == pytest.approx([0.0], abs=1e-9)


def test_potential_rewarm_is_consistent():
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    base = alpha_max(net, tpl)
    v_first = potential(programs, set_pair(base, 0.1, 0.8)).value
    potential(programs, set_pair(base, 0.9, 0.2))
    v_again = potential(programs, set_pair(base, 0.1, 0.8)).value
    assert v_again == pytest.approx(v_first, abs=1e-9)


def test_potential_matches_finite_differences():
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    base = alpha_max(net, tpl)
    rng = np.random.default_rng(5)
    eps = 1e-5
    for _ in range(10):
        a1, a2 = rng.uniform(0.05, 0.95, 2)
        params = set_pair(base, a1, a2)
        res = potential(programs, params)
        grad = res.grad.to_vector()
        vec = params.to_vector()
        for c in range(vec.size):
            lift = vec.copy()
            lift[c] += eps
            drop = vec.copy()
            drop[c] -= eps
            fd = (potential(programs, params.from_vector(lift)).value
                  - potential(programs, params.from_vector(drop)).value) / (2 * eps)
            assert abs(fd - grad[c]) <= 1e-6 + 1e-3 * abs(fd)


def test_potential_infeasible_when_recursion_cannot_close():
    # an autonomous 0.5-contraction cannot reproduce the disturbance column
    # in the simplified recursion, at any alpha
    net = pair_network(a_self=0.5, b=0.0)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    with pytest.raises(PotentialInfeasible):
        potential(programs, alpha_max(net, tpl).scaled(0.5))


def gapped_input_pair():
    # subsystem 2's input disturbs 1 only from step 1 on, so 1's program
    # pins (2, "u", 1) and (2, "u", 2) but not (2, "u", 0)
    subs = [interval_sub(1, 2), interval_sub(2, 1)]
    subs[0]["couplings"][0]["B"] = [[[0.0]], [[0.3]], [[0.3]]]
    return load_network({"mode": "finite", "horizon": 3, "subsystems": subs})


def _flat(value):
    if isinstance(value, Zonotope):
        return np.concatenate([value.center, value.generators.ravel()])
    if isinstance(value, list):
        return np.concatenate([_flat(v) for v in value])
    return np.ravel(value)


@pytest.mark.parametrize("make_network", [pair_network, gapped_input_pair])
def test_potential_solution_is_built_lazily_from_its_own_evaluation(make_network):
    net = make_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    p1 = alpha_max(net, tpl).scaled(0.5)
    for series in p1.u.values():
        for t, a in enumerate(series):
            a -= 0.1 * t    # a different value at every step
    kept = p1.copy()
    r1 = potential(programs, p1)
    assert r1.value == pytest.approx(0.0, abs=1e-9)
    eager = {sid: _numeric_solution(ev._lp_solution, programs[sid].handles)
             for sid, ev in r1.evals.items()}
    assert all("solution" not in vars(ev) for ev in r1.evals.values())
    # each W is the boxed augmented disturbance at the parameters evaluated
    for sid, sol in eager.items():
        for t in range(net.num_steps):
            got = sol.W[t] if isinstance(sol.W, list) else sol.W
            want = order_reduce_box(augmented_disturbance(net, tpl, kept, sid, t), 1)
            assert np.array_equal(got.center, want.center)
            assert got.generators == pytest.approx(want.generators, abs=1e-15)

    # re-solve the same programs elsewhere, then change p1 in place
    p2 = p1.copy()
    p2.x[1] = [a * 0.2 for a in p2.x[1]]
    assert potential(programs, p2).value > 0.1
    for series in (*p1.x.values(), *p1.u.values()):
        for a in series:
            a *= 1.7

    lazy = r1.solutions
    for sid, want in eager.items():
        for name in ("T", "xbar", "M", "ubar", "W"):
            got = _flat(getattr(lazy[sid], name))
            assert np.max(np.abs(got - _flat(getattr(want, name)))) <= 1e-12
    assert r1.solutions[1] is lazy[1]
    report = check_correctness(net, tpl, kept, lazy)
    assert report.ok, report.failures


def test_extraction_programs_rewarm_like_fresh_ones():
    # extraction runs on the potential programs' own instances; it must agree
    # with the hard program built on its own (oracles.ExtractionProgram) and
    # leave every program as a fresh one evaluates
    # (an infeasible alpha first, two feasible ones, and a probe to evaluate)
    def gapped_cases(caps):
        starved = caps.copy()
        starved.x[1] = [a * 0.05 for a in starved.x[1]]  # below D's 0.1 radius
        return [starved, caps.scaled(0.5), caps.scaled(0.9)], caps.scaled(0.3)

    def pair_cases(base):
        # subsystem 1 sees 0.5 * 1.0 + 0.1 > 0.2: no hard tube fits its promise
        return [set_pair(base, a1, a2) for a1, a2 in
                ((0.2, 1.0), (0.5, 0.5), (0.8, 0.6))], set_pair(base, 0.1, 0.8)

    for make_network, cases in ((pair_network, pair_cases),
                                (gapped_input_pair, gapped_cases)):
        net = make_network()
        tpl = default_template(net)
        points, probe = cases(alpha_max(net, tpl))
        programs = build_programs(net, tpl)
        references = {sid: oracles.ExtractionProgram(net, tpl, sid)
                      for sid in net.sorted_ids()}
        for index, params in enumerate(points):
            want = {sid: ref.solve(params) for sid, ref in references.items()}
            if index == 0:
                assert want[1] is None
                with pytest.raises(PotentialInfeasible, match="subsystem\\(s\\) 1$"):
                    extract_solutions(programs, params)
            else:
                assert all(sol is not None for sol in want.values())
                got = extract_solutions(programs, params)
                for sid in got:
                    assert got[sid].objective == pytest.approx(want[sid].objective, abs=1e-9)
                report = check_correctness(net, tpl, params, got)
                assert report.ok and report.lp_fallbacks == 0, report.failures
            for sid, program in programs.items():
                if index == 0:  # the same verdict per subsystem
                    assert (program.extract(params) is None) == (want[sid] is None)
                else:  # the witness parts only the slack pays for are fixed at 0
                    sol = program._solve_hard(params)
                    assert not np.any(sol.column_values(program.handles.slack_cols))
                # bounds and costs are back: V_i and its gradient as fresh
                fresh = build_programs(net, tpl)[sid].evaluate(probe)
                warm = program.evaluate(probe)
                assert warm.value == pytest.approx(fresh.value, abs=1e-9)
                assert fresh.grads.keys() == warm.grads.keys()
                for key, grad in fresh.grads.items():
                    assert warm.grads[key] == pytest.approx(grad, abs=1e-9)


# ---------------------------------------------------------------------------
# finite-horizon potential, hand-derived


def test_finite_potential_by_hand():
    net = finite_pair(horizon=2)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl)
    params.x[1][0][:] = 1.0
    params.x[1][1][:] = 0.2
    params.x[1][2][:] = 0.9
    params.x[2][0][:] = 0.8
    params.x[2][1][:] = 0.4
    params.x[2][2][:] = 1.0
    res = potential(programs, params)
    # V_1 = max(0, 0.5*0.8+0.1-0.2) + max(0, 0.5*0.4+0.1-0.9) = 0.3
    # V_2 = max(0, 0.5*1.0+0.1-0.4) + max(0, 0.5*0.2+0.1-1.0) = 0.2
    assert res.value == pytest.approx(0.5, abs=1e-8)
    assert res.grad.x[1][0] == pytest.approx([0.5], abs=1e-8)
    assert res.grad.x[1][1] == pytest.approx([-1.0], abs=1e-8)
    assert res.grad.x[1][2] == pytest.approx([0.0], abs=1e-9)
    assert res.grad.x[2][0] == pytest.approx([0.5], abs=1e-8)
    assert res.grad.x[2][1] == pytest.approx([-1.0], abs=1e-8)
    assert res.grad.x[2][2] == pytest.approx([0.0], abs=1e-9)
    sol = res.solutions[1]
    assert sol.template == "growing"
    assert [T.shape[1] for T in sol.T] == [1, 2, 3]


# ---------------------------------------------------------------------------
# reduction monotonicity and determinism


def test_boxed_potential_dominates_exact():
    net = load_network("configs/case1.json")
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.5)
    v_boxed = potential(build_programs(net, tpl, reduction_order=1), params).value
    # un-reduced disturbance columns need a wider recycling template: every
    # column must survive k - p shifts before the input can null it
    v_exact = potential(build_programs(net, tpl, k=16, reduction_order=None),
                        params).value
    assert v_boxed >= v_exact - 1e-7
    assert v_exact < v_boxed - 1.0  # strictly better here, not just equal


def test_exact_columns_need_wider_template():
    net = load_network("configs/case1.json")
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.5)
    programs = build_programs(net, tpl, reduction_order=None)  # default k
    with pytest.raises(PotentialInfeasible):
        potential(programs, params)


def test_program_build_is_deterministic():
    net = pair_network()
    tpl = default_template(net)
    a = build_programs(net, tpl)[1].lp
    b = build_programs(net, tpl)[1].lp
    assert a._senses().tobytes() == b._senses().tobytes()
    for x, y in zip(a._assemble(), b._assemble()):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# correctness checking


def test_check_correctness_accepts_zero_potential_solutions():
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl).scaled(0.5)
    res = potential(programs, params)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    report = check_correctness(net, tpl, params, res.solutions)
    assert report.ok, report.failures
    assert report.max_state_margin <= 1e-7
    assert report.max_residual <= 1e-9


def test_check_correctness_flags_tampered_solution():
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl).scaled(0.5)
    res = potential(programs, params)
    good = res.solutions[1]
    bad = RciSolution(good.T, good.xbar + 5.0, good.M, good.ubar, good.W,
                      good.beta, good.E, good.objective)
    report = check_correctness(net, tpl, params, {1: bad, 2: res.solutions[2]})
    assert not report.ok
    assert any("escapes" in f or "residual" in f for f in report.failures)


@pytest.mark.parametrize("make_network", [pair_network, gapped_input_pair])
def test_check_correctness_rejects_tampering_past_the_witness(make_network):
    net = make_network()
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.5)
    sols = extract_solutions(build_programs(net, tpl), params)
    good = sols[1]
    report = check_correctness(net, tpl, params, sols)
    assert report.ok and report.lp_fallbacks == 0, report.failures

    # the kept witness still proves the old center, so its bound misses and
    # the Hausdorff LP measures the escape
    finite = isinstance(good.xbar, list)
    shifted = dataclasses.replace(
        good, xbar=[x + 0.3 for x in good.xbar] if finite else good.xbar + 0.3)
    report = check_correctness(net, tpl, params, {**sols, 1: shifted})
    assert not report.ok and report.lp_fallbacks >= 1
    assert "1: Omega" in " ".join(report.failures)
    escapes = [directed_hausdorff(tpl.state_set(params, 1, t), shifted.omega(t))
               for t in range(len(tpl.state[1]))]
    if finite:
        steps = net.num_steps
        escapes.append(directed_hausdorff(net.subsystem(1).X_at(steps),
                                          shifted.omega(steps)))
    assert report.max_state_margin == pytest.approx(max(escapes))

    # one witness row scaled by 1.01 no longer proves the containment: the
    # LP decides, accepts the correct solution, and still rejects the shift
    key = f"inC{len(tpl.state[1]) - 1}"  # the last promise: Omega there is not a point
    L = good.witness[key].copy()
    q = int(np.flatnonzero(np.abs(L).sum(axis=1))[0])
    L[q] *= 1.01
    witness = {**good.witness, key: L}
    report = check_correctness(
        net, tpl, params, {**sols, 1: dataclasses.replace(good, witness=witness)})
    assert report.ok and report.lp_fallbacks == 1, report.failures
    report = check_correctness(
        net, tpl, params, {**sols, 1: dataclasses.replace(shifted, witness=witness)})
    assert not report.ok and report.lp_fallbacks >= 1


def test_case1_potential_smoke():
    net = load_network("configs/case1.json")
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl).scaled(0.5)
    res = potential(programs, params)
    assert np.isfinite(res.value) and res.value >= -1e-12
    assert res.grad.to_vector().shape == (6,)
    assert isinstance(res.solutions[1], RciSolution)
    assert res.solve_seconds >= 0.0
