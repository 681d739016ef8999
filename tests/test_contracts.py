"""Contract template/parameter plumbing and the potential function.

The two-subsystem pair used throughout is solvable by hand: each side sees
W_i = 0.5 * alpha_j * [1] boxed with 0.1, so its potential share is
max(0, 0.5 alpha_j + 0.1 - alpha_i) and the gradients are 0.5 / -1 wherever
the slack is active.
"""

import dataclasses
import json
import os
import re

import numpy as np
import oracles
import pytest

from zonosynth.contracts import (
    ContractError,
    ContractParams,
    PotentialInfeasible,
    _aug_group,
    alpha_max,
    build_programs,
    check_correctness,
    default_template,
    extract_solutions,
    potential,
    _numeric_solution,
    _signature,
)
from zonosynth import lpcore
from zonosynth.cli import lambda_for
from zonosynth.geom import Zonotope, directed_hausdorff, order_reduce_box
from zonosynth.synthesis import SynthesisResult, compositional_synthesize
from zonosynth.sysmodel import load_network, random_network
from zonosynth.viability import TubeSolution


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


def solutions_of(programs, res):
    """Each subsystem's tube at the potential evaluation ``res``, read back
    from that evaluation's own LP solution."""
    return {sid: _numeric_solution(ev._lp_solution, programs[sid].handles)
            for sid, ev in res.evals.items()}


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
    (center,), base, blocks = _aug_group(net, tpl, [1], 0)
    assert blocks == [(0, "state", 2, 1), (0, "local", None, 1)]
    assert base == pytest.approx(np.array([[0.5, 0.1]]))
    assert center == pytest.approx([0.0])


def _off_centre_network(rng, count=5):
    """Scalar subsystems with off-centre sets, each disturbed by every other
    one's state and, through B, by its input: W's centers then sum many
    terms, in an order that shows in their last bits."""
    def box(center, radius):
        return {"center": [float(center)], "generators": [[float(radius)]]}

    return load_network({"mode": "infinite", "subsystems": [
        {"id": i, "A": [[0.1]], "B": [[1.0]], "X": box(rng.normal(), 2.0),
         "U": box(rng.normal(), 1.0), "D": box(rng.normal(), 0.1),
         "couplings": [{"to": j, "A": [[rng.normal() / count]], "B": [[rng.normal() / count]]}
                       for j in range(count) if j != i]}
        for i in range(count)]})


@pytest.mark.parametrize("name", ["case1", "case2", "geo20", "inputs"])
def test_group_pass_matches_the_per_neighbour_reference(name):
    # every member's blocks and center bit for bit those of the loop over
    # its neighbours, one product at a time
    net = {"case1": lambda: load_network("configs/case1.json"),
           "case2": lambda: load_network("configs/case2.json"),
           "geo20": lambda: random_network(10, lambda_for(20), seed=0),
           "inputs": lambda: _off_centre_network(np.random.default_rng(5)),
           }[name]()
    tpl = default_template(net)
    ids = net.sorted_ids()
    for t in range(net.num_steps):
        for sids in ([sid] for sid in ids) if name == "case2" else (ids,):
            centers, base, blocks = _aug_group(net, tpl, sids, t)
            column = 0
            for g, sid in enumerate(sids):
                want_center, want = oracles.aug_blocks(net, tpl, sid, t)
                assert centers[g].tobytes() == want_center.tobytes()
                got = [block for block in blocks if block[0] == g]
                assert [(kind, source) for _, kind, source, _ in got] == \
                    [(block.kind, block.source) for block in want]
                for block, (*_, width) in zip(want, got):
                    assert block.cols.tobytes() == \
                        np.ascontiguousarray(base[:, column:column + width]).tobytes()
                    column += width
            assert column == base.shape[1]


def test_augmented_disturbance_scales_with_alpha():
    net = pair_network()
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.8)
    W = oracles.augmented_disturbance(net, tpl, params, 1, 0)
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
    W = oracles.augmented_disturbance(net, tpl, alpha_max(net, tpl), 1, 0)
    assert W.generators == pytest.approx(np.array([[0.5, 0.2, 0.1]]))
    stripped = ContractTemplate(tpl.state, {}, is_bounds=True)
    with pytest.raises(ContractError, match="input"):
        _aug_group(net, stripped, [1], 0)


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
    exact = oracles.augmented_disturbance(net, tpl, params, 1, 0)
    for order in (1, 2, None):
        programs = build_programs(net, tpl, reduction_order=order)
        # the W a solution reads back from its program's own terms
        reduced = solutions_of(programs, potential(programs, params))[1].W[0]
        oracle = order_reduce_box(exact, order)
        assert reduced.center == pytest.approx(oracle.center)
        assert reduced.generators == pytest.approx(oracle.generators)
        # at other alphas the reduction is still an outer approximation
        for sid, sol in solutions_of(programs, potential(programs, shrunk)).items():
            exact6 = oracles.augmented_disturbance(net, tpl, shrunk, sid, 0)
            assert directed_hausdorff(sol.W[0], exact6) <= 1e-9


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
    eager = solutions_of(programs, r1)
    # each W is the boxed augmented disturbance at the parameters evaluated
    for sid, sol in eager.items():
        for t in range(net.num_steps):
            got = sol.W[t]
            want = order_reduce_box(oracles.augmented_disturbance(net, tpl, kept, sid, t), 1)
            assert np.array_equal(got.center, want.center)
            assert got.generators == pytest.approx(want.generators, abs=1e-15)

    # re-solve the same programs elsewhere, then change p1 in place
    p2 = p1.copy()
    p2.x[1] = [a * 0.2 for a in p2.x[1]]
    assert potential(programs, p2).value > 0.1
    for series in (*p1.x.values(), *p1.u.values()):
        for a in series:
            a *= 1.7

    lazy = solutions_of(programs, r1)
    for sid, want in eager.items():
        for name in ("T", "xbar", "M", "ubar", "W"):
            got = _flat(getattr(lazy[sid], name))
            assert np.max(np.abs(got - _flat(getattr(want, name)))) <= 1e-12
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
                got, _ = extract_solutions(programs, params)
                for sid in got:
                    assert got[sid].objective == pytest.approx(want[sid].objective, abs=1e-9)
                report = check_correctness(net, tpl, params, got)
                assert report.ok and report.lp_fallbacks == 0, report.failures
            for sid, program in programs.items():
                if index == 0:  # the same verdict per subsystem
                    assert (program._solve_hard(params)[0] is None) == (want[sid] is None)
                else:  # the witness parts only the slack pays for are fixed at 0
                    sol, _ = program._solve_hard(params)
                    assert not np.any(sol.column_values(program.handles.slack_cols))
                # bounds and costs are back: V_i and its gradient as fresh
                fresh = build_programs(net, tpl)[sid].evaluate(probe)
                warm = program.evaluate(probe)
                assert warm.value == pytest.approx(fresh.value, abs=1e-9)
                assert np.array_equal(fresh.reads, warm.reads)
                assert warm.grad == pytest.approx(fresh.grad, abs=1e-9)


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
    sol = solutions_of(programs, res)[1]
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
    report = check_correctness(net, tpl, params, solutions_of(programs, res))
    assert report.ok, report.failures
    assert report.max_state_margin <= 1e-7
    assert report.max_residual <= 1e-9


def test_check_correctness_flags_tampered_solution():
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl).scaled(0.5)
    sols = solutions_of(programs, potential(programs, params))
    good = sols[1]
    bad = TubeSolution(good.T, [good.xbar[0] + 5.0], good.M, good.ubar, good.W,
                       good.beta, good.E, good.objective)
    report = check_correctness(net, tpl, params, {1: bad, 2: sols[2]})
    assert not report.ok
    assert any("escapes" in f or "residual" in f for f in report.failures)


def test_check_correctness_names_the_subsystems_without_a_solution(tmp_path):
    # a saved case1 result loads without the solution file removed from it
    res = compositional_synthesize(load_network("configs/case1.json"))
    assert res.ok
    out = res.save(str(tmp_path / "case1"))
    os.remove(os.path.join(out, "solution_1.json"))
    back = SynthesisResult.load(out)
    assert sorted(back.solutions) == [2, 3]
    with pytest.raises(ValueError, match=re.escape("no solutions for subsystem(s) [1]")):
        check_correctness(back.network, back.template, back.params, back.solutions)
    # with it put back, the loaded solutions certify, by LP: no witnesses
    report = check_correctness(back.network, back.template, back.params,
                               {**back.solutions, 1: res.solutions[1]})
    assert report.ok and report.lp_fallbacks > 0, report.failures


@pytest.mark.parametrize("make_network", [pair_network, gapped_input_pair])
def test_check_correctness_rejects_tampering_past_the_witness(make_network):
    net = make_network()
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.5)
    sols, _ = extract_solutions(build_programs(net, tpl), params)
    good = sols[1]
    report = check_correctness(net, tpl, params, sols)
    assert report.ok and report.lp_fallbacks == 0, report.failures

    # the kept witness still proves the old center, so its bound misses and
    # the Hausdorff LP measures the escape
    finite = good.horizon is not None
    shifted = dataclasses.replace(good, xbar=[x + 0.3 for x in good.xbar])
    report = check_correctness(net, tpl, params, {**sols, 1: shifted})
    assert not report.ok and report.lp_fallbacks >= 1
    assert "1: Omega" in " ".join(report.failures)
    escapes = [directed_hausdorff(oracles.promise_set(tpl, params, 1, "x", t),
                                  shifted.omega(t))
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
    assert solutions_of(programs, res)[1].horizon is None


# ---------------------------------------------------------------------------
# first solves started from a solved sibling's basis


def _cold(programs):
    """The programs, each on an instance of its own, so that its first solve
    starts cold."""
    for program in programs.values():
        program.lp._holder = lpcore._Holder()
    return programs


def _groups(net, tpl):
    return len({_signature(net, tpl, sid, 1) for sid in net.sorted_ids()})


def _first_evals(programs, params):
    """Per subsystem: its first V_i and gradient, or the PotentialInfeasible
    message; and the solver tracker of the sweep."""
    out = {}
    with lpcore.track_solver_time() as tracker:
        for sid, program in programs.items():
            try:
                out[sid] = program.evaluate(params)
            except PotentialInfeasible as exc:
                out[sid] = str(exc)
    return out, tracker


@pytest.mark.parametrize("make_network", [
    lambda: random_network(20, lambda_for(40), seed=0),
    lambda: load_network("configs/case1.json"),
    finite_pair,
], ids=["geo40", "case1", "finite-pair"])
def test_sibling_started_first_solves_match_cold_ones(make_network):
    net = make_network()
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.5)
    started, tracker = _first_evals(build_programs(net, tpl), params)
    cold, cold_tracker = _first_evals(_cold(build_programs(net, tpl)), params)
    assert tracker.solves == cold_tracker.solves == len(net.sorted_ids())
    assert cold_tracker.cold_solves == len(net.sorted_ids())
    assert tracker.cold_solves == _groups(net, tpl) < len(net.sorted_ids())
    for sid, want in cold.items():
        got = started[sid]
        if isinstance(want, str):
            assert got == want
            continue
        assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-12)
        assert np.array_equal(got.reads, want.reads)


def test_sibling_started_group_members_differ_in_layout():
    # one group, whose members read one or two neighbors' multipliers
    net = random_network(20, lambda_for(40), seed=0)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    assert _groups(net, tpl) == 1
    assert len({program.lp.num_vars for program in programs.values()}) > 1
    assert len({program.lp.num_rows for program in programs.values()}) == 1


def test_sibling_started_infeasible_member_names_itself():
    # subsystem 1 solves first and lends its basis; subsystem 2 sees
    # 2 * 1.0 + 0.1 > 1 and cannot end its horizon inside X
    net = finite_pair(coupling=2.0)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = set_pair(alpha_max(net, tpl), 1.0, 1.0)
    for t in range(len(params.x[2])):
        params.x[2][t][:] = 0.1
    started, tracker = _first_evals(programs, params)
    assert started[2] == "subsystem 2: no viable tube at these parameters"
    assert not isinstance(started[1], str)
    assert (tracker.solves, tracker.cold_solves) == (2, 1)
    with pytest.raises(PotentialInfeasible, match="^subsystem 2: "):
        potential(build_programs(net, tpl), params)


def test_group_of_one_starts_cold():
    subs = [interval_sub(1, 2), interval_sub(2, 1)]
    subs[1]["X"]["generators"] = [[1.0, 0.5]]  # another promise width: its own group
    net = load_network({"mode": "infinite", "subsystems": subs})
    tpl = default_template(net)
    assert _groups(net, tpl) == 2
    with lpcore.track_solver_time() as tracker:
        potential(build_programs(net, tpl), alpha_max(net, tpl).scaled(0.5))
    assert (tracker.solves, tracker.cold_solves, tracker.instances) == (2, 2, 2)


def test_a_signature_group_shares_one_solver_instance():
    # solver memory grows with the signature groups, not the subsystems
    net = random_network(20, lambda_for(40), seed=0)
    tpl = default_template(net)
    params = alpha_max(net, tpl).scaled(0.5)
    with lpcore.track_solver_time() as tracker:
        programs = build_programs(net, tpl)
        potential(programs, params)
    assert tracker.instances == _groups(net, tpl) == 1
    assert tracker.solves == len(programs) == 20
    assert len({id(program.lp._holder) for program in programs.values()}) == 1


# ---------------------------------------------------------------------------
# flat parameters, and evaluations re-used while their alphas do not move


def _swept(programs, params):
    """``potential`` at ``params`` and the solves it made."""
    with lpcore.track_solver_time() as tracker:
        res = potential(programs, params)
    return res, tracker.solves


def test_potential_twice_at_one_alpha_solves_once():
    net = random_network(20, lambda_for(40), seed=0)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl).scaled(0.5)
    first, solves = _swept(programs, params)
    assert solves == len(programs)
    again, solves = _swept(programs, params.copy())
    assert solves == 0
    assert all(again.evals[sid] is first.evals[sid] for sid in programs)
    assert again.value == first.value
    assert again.grad.to_vector().tobytes() == first.grad.to_vector().tobytes()


def test_extraction_and_infeasibility_force_a_re_solve():
    net = finite_pair(coupling=2.0)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    # subsystem i sees 2 * alpha_j + 0.1 and has no tube beyond 1

    def set_pair(params, a1, a2):  # at every step
        out = params.copy()
        for sid, a in ((1, a1), (2, a2)):
            out.x[sid] = [np.full(1, a) for _ in out.x[sid]]
        return out

    params = set_pair(alpha_max(net, tpl), 0.3, 0.3)
    first, _ = _swept(programs, params)
    assert first.value > 0  # no hard tubes here, but the instances are solved
    with pytest.raises(PotentialInfeasible, match="hard extraction"):
        extract_solutions(programs, params)
    again, solves = _swept(programs, params)
    assert solves == len(programs)
    assert again.value == pytest.approx(first.value, abs=1e-9)
    with pytest.raises(PotentialInfeasible, match="^subsystem 2: "):
        potential(programs, set_pair(params, 1.0, 0.3))
    back, solves = _swept(programs, params)
    assert solves == len(programs) and back.evals[2] is not again.evals[2]
    assert back.value == pytest.approx(first.value, abs=1e-9)


def test_moving_one_entry_re_solves_only_its_readers():
    net = random_network(20, lambda_for(40), seed=0)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = alpha_max(net, tpl).scaled(0.5)
    first, _ = _swept(programs, params)
    vec = params.to_vector()
    for entry in (0, vec.size // 2, vec.size - 1):
        moved = vec.copy()
        moved[entry] *= 0.9
        res, solves = _swept(programs, params.from_vector(moved))
        readers = {sid for sid, program in programs.items() if entry in program.reads}
        assert 1 <= len(readers) < len(programs) and solves == len(readers)
        assert all((res.evals[sid] is first.evals[sid]) == (sid not in readers)
                   for sid in programs)
        first, _ = _swept(programs, params)  # the readers solve back at params


# ---------------------------------------------------------------------------
# pinned programs: the hard extraction from the potential's own optimum


def pinned_reference(A, B, k, p):
    """Whether (T, M) -> [A T + B M, 0] - [0, T] (p zero columns each) has
    full column rank, from the matrix of its values at every unit (T, M)."""
    n, m = B.shape
    columns = []
    for unit in np.eye((n + m) * k):
        T, M = unit[:n * k].reshape(n, k), unit[n * k:].reshape(m, k)
        columns.append((np.hstack([A @ T + B @ M, np.zeros((n, p))])
                        - np.hstack([np.zeros((n, p)), T])).ravel())
    return bool(np.linalg.matrix_rank(np.array(columns).T) == (n + m) * k)


def case1_variant(sid, **fields):
    """case1 with subsystem ``sid``'s fields replaced."""
    with open("configs/case1.json") as fh:
        cfg = json.load(fh)
    cfg["subsystems"][sid - 1].update(fields)
    return load_network(cfg)


@pytest.mark.parametrize("make_network, k, pinned", [
    (lambda: load_network("configs/case1.json"), None, [1, 2, 3]),
    (lambda: load_network("configs/case1.json"), 3, [1, 2, 3]),
    # more unknowns than rows: 6 (n + m) against n (6 + p)
    (lambda: load_network("configs/case1.json"), 6, []),
    # an input that acts on nothing leaves M free
    (lambda: case1_variant(2, B=[[0.0], [0.0]]), None, [1, 3]),
    (lambda: case1_variant(3, B=[[0.05, 0.0], [0.1, 0.1]],
                           U={"center": [0.0, 0.0], "generators": np.eye(2).tolist()}),
     None, [1, 2]),
    (lambda: random_network(20, lambda_for(40), seed=0), None, list(range(20))),
    (pair_network, None, []),
    # finite: T(0) is free
    (lambda: load_network("configs/case2.json"), None, []),
], ids=["case1", "case1-k3", "case1-k6", "case1-idle-input", "case1-two-inputs", "geo40",
        "pair", "case2"])
def test_pinned_programs_match_a_per_member_rank(make_network, k, pinned):
    net = make_network()
    programs = build_programs(net, default_template(net), k=k)
    want = {sid: net.mode == "infinite" and pinned_reference(
        net.subsystem(sid).A_at(0), net.subsystem(sid).B_at(0), program.k,
        program.handles.W[0][1].shape[-1]) for sid, program in programs.items()}
    assert {sid: program.pinned for sid, program in programs.items()} == want
    assert [sid for sid, program in programs.items() if program.pinned] == pinned


def test_a_slack_free_evaluation_gives_the_hard_solution():
    # at V = 0 every pinned program returns the potential's optimum, solving
    # nothing, until its LP moves
    net = random_network(20, lambda_for(40), seed=0)
    res = compositional_synthesize(net)
    programs = build_programs(net, res.template)
    ev, _ = _swept(programs, res.params)
    assert ev.value == 0.0
    with lpcore.track_solver_time() as tracker:
        got, reused = extract_solutions(programs, res.params)
    assert tracker.solves == 0 and reused == len(programs)
    optima = solutions_of(programs, ev)
    assert all(np.array_equal(got[sid].T[0], optima[sid].T[0]) for sid in got)
    moved = res.params.from_vector(0.99 * res.params.to_vector())
    _swept(programs, moved)
    with lpcore.track_solver_time() as tracker:
        _, reused = extract_solutions(programs, res.params)  # not the last evaluation's alphas
    assert tracker.solves == len(programs) and reused == 0


def test_extraction_without_reuse_solves_every_program_by_its_default_method(monkeypatch):
    # at a slack-free alpha of pinned programs, reuse=False solves every hard
    # LP as a program with no last evaluation does: no reuse, no primal start
    net = random_network(20, lambda_for(40), seed=0)
    res = compositional_synthesize(net)
    programs = build_programs(net, res.template)
    assert all(program.pinned for program in programs.values())
    ev, _ = _swept(programs, res.params)
    assert ev.value == 0.0
    with lpcore.track_solver_time() as tracker:
        reused_tubes, reused = extract_solutions(programs, res.params, reuse=True)
    assert tracker.solves == 0 and reused == len(programs)
    options, run = [], lpcore._run
    monkeypatch.setattr(lpcore, "_run", lambda solver, opts: options.append(opts) or run(solver, opts))
    with lpcore.track_solver_time() as tracker:
        solved, reused = extract_solutions(programs, res.params, reuse=False)
    assert tracker.solves == len(programs) and reused == 0
    assert options == [{}] * len(programs)
    for sid, sol in solved.items():
        assert np.allclose(_flat(sol.T), _flat(reused_tubes[sid].T), rtol=0, atol=1e-9)
    with lpcore.track_solver_time() as tracker:  # the last evaluations are gone
        _, reused = extract_solutions(programs, res.params, reuse=True)
    assert tracker.solves == len(programs) and reused == 0


def test_hard_lp_after_a_slack_free_evaluation_runs_primal_simplex(monkeypatch):
    # the pair leaves T free, so each hard LP solves: by primal simplex from
    # the potential's basis where V_i = 0, by dual simplex where V_i > 0
    net = pair_network()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    params = set_pair(alpha_max(net, tpl), 1.0, 1.0)
    options, run = [], lpcore._run
    monkeypatch.setattr(lpcore, "_run", lambda solver, opts: options.append(opts) or run(solver, opts))
    assert potential(programs, params).value == 0.0
    extract_solutions(programs, params)
    assert options[-2:] == [{"simplex_strategy": 4}] * 2
    potential(programs, set_pair(params, 0.55, 1.0))  # V_1 = 0.05, V_2 = 0
    with pytest.raises(PotentialInfeasible, match="subsystem\\(s\\) 1$"):
        extract_solutions(programs, set_pair(params, 0.55, 1.0))
    assert options[-2:] == [{}, {"simplex_strategy": 4}]
    assert all(program.lp.options == {} for program in programs.values())


def test_parameters_of_another_layout_are_refused():
    net = finite_pair(horizon=1)
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    caps = alpha_max(net, tpl)
    # the pair's own layout, but one step short, or keyed by strings
    short = ContractParams({1: caps.x[1][:1], 2: caps.x[2]}, {},
                           {1: caps.max_x[1][:1], 2: caps.max_x[2]}, {})
    with pytest.raises(ContractError, match=r"parameter block \(1, 'x'\) has entries "
                                            r"per step \(1,\), expected \(1, 1\)"):
        potential(programs, short)
    loaded = ContractParams.from_json(caps.to_json())
    with pytest.raises(ContractError, match=r"parameter block \(1, 'x'\)"):
        potential(programs, loaded)
    assert potential(programs, ContractParams.from_json(caps.to_json(), ids=[1, 2])).value >= 0
    with pytest.raises(ContractError, match=r"parameter block \(1, 'x'\)"):
        caps.clipped(short)
    with pytest.raises(ContractError, match="negative alpha at \\(2, 'x', 1\\)\\[0\\]"):
        bad = caps.copy()
        bad.x[2][1][:] = -0.5
        potential(programs, bad)


def test_parameter_views_write_the_flat_vector():
    net = finite_pair(horizon=1)
    params = alpha_max(net, default_template(net)).scaled(0.5)
    params.x[2] = [np.array([0.25]), np.array([0.75])]
    params.x[1][1][:] = 0.125
    assert params.to_vector() == pytest.approx([0.5, 0.125, 0.25, 0.75])
    assert params.max_x[1][0] == pytest.approx([1.0])
    with pytest.raises(ContractError, match="steps"):
        params.x[1] = [np.array([0.5])]


def _report_bits(report):
    """A correctness report with every float as its exact hex string."""
    return [value.hex() if isinstance(value, float) else value
            for value in dataclasses.astuple(report)]


@pytest.mark.parametrize("name", ["case1", "case2", "geo20", "case2-centralized"])
def test_stacked_certification_matches_the_per_containment_loop(name):
    # margins bit for bit, the same failures in the same order and the same
    # Hausdorff LPs: on the synthesized tubes, with one subsystem's centers
    # shifted past its witnesses, and loaded back without witnesses
    from zonosynth.synthesis import centralized_synthesize, compositional_synthesize

    network = {"case1": lambda: load_network("configs/case1.json"),
               "geo20": lambda: random_network(10, lambda_for(20), seed=0)}.get(
        name, lambda: load_network("configs/case2.json"))()
    synthesize = centralized_synthesize if name.endswith("centralized") else compositional_synthesize
    res = synthesize(network)
    assert res.status == "correct"
    sols = res.solutions
    first = network.sorted_ids()[0]
    shifted = dataclasses.replace(sols[first], xbar=[x + 0.05 for x in sols[first].xbar])
    loaded = {sid: TubeSolution.from_json(sol.to_json()) for sid, sol in sols.items()}
    reports = []
    for case in (sols, {**sols, first: shifted}, loaded):
        got = check_correctness(network, res.template, res.params, case)
        want = oracles.check_correctness_per_containment(network, res.template, res.params, case)
        assert _report_bits(got) == _report_bits(want)
        reports.append(got)
    assert [report.ok for report in reports] == [True, False, True]
    assert reports[0].lp_fallbacks == 0 < reports[1].lp_fallbacks < reports[2].lp_fallbacks
    assert reports[1].failures
