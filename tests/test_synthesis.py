"""Synthesis drivers: descent loop, centralized LP, result round-trips.

The 1-D pair networks come from test_contracts, where the potential is
derived by hand: V_i = max(0, coupling * alpha_j + d - alpha_i).
"""

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from test_contracts import finite_pair, interval_sub, pair_network

from zonosynth.contracts import (
    alpha_max,
    build_programs,
    check_correctness,
    default_template,
    potential,
    ContractTemplate,
)
from zonosynth import lpcore
from zonosynth.cli import lambda_for
from zonosynth.sysmodel import (ConfigError, Network, Subsystem, aggregate, load_network,
                                random_network)
from zonosynth import synthesis
from zonosynth.synthesis import (
    DescentConfig,
    NO_ALPHA_HINT,
    RETRY_HINT,
    SynthesisResult,
    centralized_dense,
    centralized_synthesize,
    compositional_synthesize,
    project_box,
)
from zonosynth.viability import RciSolution, ViableSolution


def decoupled_net(**kw):
    subs = [interval_sub(1, 2, **kw), interval_sub(2, 1, **kw)]
    for s in subs:
        s["couplings"] = []
    return load_network({"mode": "infinite", "subsystems": subs})


# ---------------------------------------------------------------------------
# config and projection


def test_descent_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(delta=0.0).validate()
    with pytest.raises(ValueError):
        DescentConfig(tol_v=-1.0).validate()
    with pytest.raises(ValueError):
        DescentConfig(max_iters=0).validate()
    with pytest.raises(ValueError):
        DescentConfig(init="warmish").validate()
    with pytest.raises(ValueError, match="step rule"):
        DescentConfig(rule="kelley").validate()
    DescentConfig().validate()
    DescentConfig(rule="subgradient").validate()


def test_descent_config_has_no_worker_pool():
    # evaluation is serial: threads takes None or 1 only
    DescentConfig(threads=None).validate()
    DescentConfig(threads=1).validate()
    for threads in (0, 2, 8):
        with pytest.raises(ValueError, match="worker pool is gone"):
            DescentConfig(threads=threads).validate()


def test_project_box_interior_unchanged():
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    interior = caps.scaled(0.37)
    out = project_box(interior)
    assert out.to_vector() == pytest.approx(interior.to_vector())


def test_project_box_clamps_both_sides():
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    low = caps.from_vector(np.array([-0.3, 0.5]))
    assert project_box(low).to_vector() == pytest.approx([0.0, 0.5])
    high = caps.from_vector(caps.to_vector() + 1.0)
    assert project_box(high).to_vector() == pytest.approx(caps.to_vector())


def test_project_box_explicit_caps():
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    tight = caps.scaled(0.25)
    out = project_box(caps.copy(), caps=tight)
    assert out.to_vector() == pytest.approx(tight.to_vector())


def test_mode_mismatch_is_config_error():
    net = pair_network()
    with pytest.raises(ConfigError):
        compositional_synthesize(net, mode="finite")
    with pytest.raises(ConfigError):
        centralized_synthesize(net, mode="finite")


# ---------------------------------------------------------------------------
# compositional descent on hand-sized networks


def test_zero_coupling_potential_vanishes_everywhere():
    net = decoupled_net()
    tpl = default_template(net)
    programs = build_programs(net, tpl)
    caps = alpha_max(net, tpl)
    rng = np.random.default_rng(7)
    for _ in range(10):
        # the tube only has to swallow D (radius 0.1 <= any alpha >= 0.1)
        vec = caps.to_vector() * rng.uniform(0.15, 1.0, 2)
        res = potential(programs, caps.from_vector(vec))
        assert res.value == pytest.approx(0.0, abs=1e-12)


def test_zero_coupling_synthesis_converges_in_zero_iterations():
    res = compositional_synthesize(decoupled_net())
    assert res.ok
    assert res.iterations == 0
    assert res.value <= 1e-6
    assert len(res.trace) == 1


def test_start_inside_correct_region():
    # at alpha = alpha_max the pair potential is already zero
    res = compositional_synthesize(
        pair_network(), config=DescentConfig(init="max"))
    assert res.ok and res.iterations == 0


def test_pair_descent_converges_and_certifies():
    net = pair_network(coupling=0.9)  # V(half) = 0.1 > 0, fixed point at cap
    res = compositional_synthesize(net)
    assert res.status == "correct"
    assert res.value <= 1e-6
    assert 1 <= res.iterations < 50
    assert res.correctness is not None and res.correctness.ok
    assert set(res.solutions) == {1, 2}
    assert isinstance(res.solutions[1], RciSolution)
    # trace shape: one row per iterate including the initial evaluation
    assert len(res.trace) == res.iterations + 1
    it0, v0, g0, s0 = res.trace[0]
    assert (it0, s0) == (0, 0.0) and v0 == pytest.approx(0.1)
    assert res.timings["solve_seconds"] > 0
    assert res.timings["wall_seconds"] >= res.timings["solve_seconds"]


def test_infeasible_local_problem_fails_with_hint():
    # uncontrollable contraction: x+ = 0.5x + d has no RCI equality template
    # at the default budget, so even the slacked potential is infeasible
    net = pair_network(a_self=0.5, b=0.0)
    res = compositional_synthesize(net)
    assert res.status == "failed"
    assert res.solutions is None
    assert RETRY_HINT in res.hint
    assert res.iterations == 0


def test_unreachable_potential_floor_fails_after_budget():
    # coupling > 1: V* = 0.2 > 0 at the box corner, never reaches tol
    net = pair_network(coupling=1.2)
    res = compositional_synthesize(
        net, config=DescentConfig(max_iters=40, rule="subgradient"))
    assert res.status == "failed"
    assert res.hint == RETRY_HINT
    assert res.value > 1e-6
    assert res.iterations == 40


def test_fixed_step_fallback_converges_on_tame_pair():
    net = pair_network(coupling=0.9)
    cfg = DescentConfig(line_search=False, delta=1.0, max_iters=100,
                        rule="subgradient")
    res = compositional_synthesize(net, config=cfg)
    assert res.ok
    # every recorded step is the constant delta
    assert all(s == 1.0 for _, _, _, s in res.trace[1:])


def test_tame_descent_is_monotone():
    res = compositional_synthesize(pair_network(coupling=0.9),
                                   config=DescentConfig(rule="subgradient"))
    values = [v for _, v, _, _ in res.trace]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_descent_is_deterministic():
    net = pair_network(coupling=0.9)
    a = compositional_synthesize(net)
    b = compositional_synthesize(net)
    assert a.trace == b.trace
    assert a.params.to_vector() == pytest.approx(b.params.to_vector())


def test_random_init_is_seeded():
    net = pair_network(coupling=0.9)
    cfg = DescentConfig(init="random", seed=11)
    a = compositional_synthesize(net, config=cfg)
    b = compositional_synthesize(net, config=DescentConfig(init="random", seed=11))
    assert a.trace[0] == b.trace[0]


def test_case1_compositional_end_to_end():
    net = load_network("configs/case1.json")
    res = compositional_synthesize(net, config=DescentConfig(rule="subgradient"))
    assert res.status == "correct"
    assert res.value <= 1e-6
    assert res.iterations <= 500
    assert res.correctness.ok and res.correctness.max_residual <= 1e-8
    assert sorted(res.solutions) == [1, 2, 3]
    # the descent is genuinely iterative on this instance
    assert res.iterations > 100
    assert res.trace[0][1] == pytest.approx(20.2818636, abs=1e-5)


def test_case1_builds_each_subsystem_lp_once(monkeypatch):
    # one potential program per subsystem serves the descent and every
    # extraction attempt
    from zonosynth import contracts, synthesis

    emits, extracts = [], []
    emit, extract = contracts.emit_subsystem, synthesis.extract_solutions

    def counting_emit(*args, **kwargs):
        # one call emits a group of subsystems of one shape: a list of ids
        sids = args[3]
        emits.extend(sids if isinstance(sids, list) else [sids])
        return emit(*args, **kwargs)

    def counting_extract(programs, params):
        extracts.append(programs)
        return extract(programs, params)

    monkeypatch.setattr(contracts, "emit_subsystem", counting_emit)
    monkeypatch.setattr(synthesis, "extract_solutions", counting_extract)
    res = compositional_synthesize(load_network("configs/case1.json"),
                                   config=DescentConfig(rule="subgradient"))
    assert res.ok
    assert res.timings["extract_attempts"] == len(extracts) > 2
    assert all(isinstance(program, contracts.PotentialProgram)
               for program in extracts[0].values())
    assert all(programs is extracts[0] for programs in extracts)
    assert sorted(emits) == [1, 2, 3]


def test_subgradient_rule_reproduces_the_polyak_trace_on_case1():
    # the paper's step rule, kept as the baseline: 436 Polyak iterations,
    # of which 84 are extraction attempts
    res = compositional_synthesize(load_network("configs/case1.json"),
                                   config=DescentConfig(rule="subgradient"))
    assert res.ok
    assert res.iterations == 436 and len(res.trace) == 437
    assert res.timings["extract_attempts"] == 84
    assert res.timings["master_seconds"] == 0.0
    it, value, gnorm, step = res.trace[-1]
    assert it == 436
    assert value == pytest.approx(8.33021235949194e-08, rel=1e-9)
    assert gnorm == pytest.approx(1.0023997167796888, rel=1e-12)
    assert step == pytest.approx(5.4532257221237066e-08, rel=1e-9)


def test_case1_level_master_extracts_once():
    net = load_network("configs/case1.json")
    res = compositional_synthesize(net)
    assert res.status == "correct"
    assert res.iterations <= 10
    assert res.timings["extract_attempts"] == 1
    assert res.value <= 1e-6
    assert res.correctness.ok and res.correctness.max_residual <= 1e-8
    assert sorted(res.solutions) == [1, 2, 3]
    assert res.trace[0][1] == pytest.approx(20.2818636, abs=1e-5)
    assert res.timings["master_seconds"] > 0


@pytest.mark.parametrize("count, dim, seed", [
    (50, 100, 3),    # the subgradient rule fails after 264 iterations
    (200, 400, 25),  # the subgradient rule ends "V = 0, extracted, rejected"
])
def test_level_master_certifies_networks_the_subgradient_rule_fails(count, dim, seed):
    res = compositional_synthesize(random_network(count, lambda_for(dim), seed=seed))
    assert res.status == "correct", res.hint
    assert res.timings["extract_attempts"] == 1


def test_master_infeasibility_fails_with_its_proof():
    # coupling > 1: the cuts of the first evaluation already exclude the box
    res = compositional_synthesize(pair_network(coupling=1.2))
    assert res.status == "failed"
    assert res.iterations <= 3
    assert res.hint == NO_ALPHA_HINT and RETRY_HINT not in res.hint
    assert res.solutions is None and res.correctness is None


def _cut(sid, value, grads):
    return SimpleNamespace(sid=sid, value=value,
                           grads={key: np.array([g]) for key, g in grads.items()})


def test_master_verdict_relaxes_the_cuts_by_tol():
    # the cuts a1 - a2 <= -gap/2 and a2 - a1 <= -gap/2 miss each other by
    # gap: within tol the master still answers, beyond it it proves emptiness
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    at = caps.scaled(0.5)
    tol = 1e-6
    for gap, empty in ((0.5 * tol, False), (4 * tol, True)):
        master = synthesis._LevelMaster(caps, tol)
        evals = {1: _cut(1, 0.5 * gap, {(1, "x", 0): 1.0, (2, "x", 0): -1.0}),
                 2: _cut(2, 0.5 * gap, {(2, "x", 0): 1.0, (1, "x", 0): -1.0})}
        master.add_cuts(at.to_vector(), SimpleNamespace(evals=evals))
        target = master.project(at.to_vector())
        assert (target is None) == empty
        if not empty:
            assert abs(target[0] - target[1]) <= 0.5 * tol + 1e-9
            assert np.all((target >= -1e-9) & (target <= caps.to_vector() + 1e-9))
        # the exact cuts are in force again after the verdict
        assert master.lp.col_bounds(master.relax)[1][0] == 0.0


def test_level_step_halves_toward_the_last_iterate(monkeypatch):
    # from (0.5, 0.5) the master moves to the cap (1, 1); a potential that
    # is infeasible there makes the step stop halfway, at (0.75, 0.75)
    seen = []
    evaluate = synthesis.potential

    def flaky(programs, params):
        seen.append(params.to_vector())
        if len(seen) == 2:
            raise synthesis.PotentialInfeasible("corner")
        return evaluate(programs, params)

    monkeypatch.setattr(synthesis, "potential", flaky)
    res = compositional_synthesize(pair_network(coupling=0.9))
    assert res.ok
    assert np.array(seen) == pytest.approx(
        np.array([[0.5, 0.5], [1.0, 1.0], [0.75, 0.75], [1.0, 1.0]]), abs=1e-12)
    # the step column is the L1 length of each move taken
    assert [s for _, _, _, s in res.trace] == pytest.approx([0.0, 0.5, 0.5])


# ---------------------------------------------------------------------------
# centralized single LP


def test_centralized_decoupled_alpha_at_minimum():
    # dead-beat input exists, so the minimal tube is the one-step D box and
    # the minimized promise parameter equals its radius
    res = centralized_synthesize(decoupled_net())
    assert res.ok
    assert res.objective == pytest.approx(0.2, abs=1e-9)
    for sid in (1, 2):
        assert res.params.x[sid][0] == pytest.approx([0.1], abs=1e-9)


def test_centralized_pair_tightness():
    # with coupling 0.5 the joint minimum solves alpha = 0.5 alpha + 0.1
    res = centralized_synthesize(pair_network())
    assert res.ok
    assert res.params.x[1][0] == pytest.approx([0.2], abs=1e-8)
    assert res.value == 0.0


def test_centralized_infeasible_reports_failed():
    net = pair_network(a_self=0.5, b=0.0)
    res = centralized_synthesize(net)
    assert res.status == "failed"
    assert res.solutions is None and res.params is None
    assert res.hint == RETRY_HINT


def test_centralized_case1_needs_k12():
    net = load_network("configs/case1.json")
    assert centralized_synthesize(net).status == "failed"  # default budget
    res = centralized_synthesize(net, k=12)
    assert res.ok
    assert res.objective == pytest.approx(1.7646, abs=1e-3)
    assert res.correctness.ok


def test_centralized_case2_finite():
    net = load_network("configs/case2.json")
    res = centralized_synthesize(net)
    assert res.ok
    for sid, sol in res.solutions.items():
        assert isinstance(sol, ViableSolution)
        assert sol.horizon == 15
        # the start set collapses to a point under the size objective
        assert np.abs(sol.omega(0).generators).sum() <= 1e-6


def test_centralized_custom_template_admissibility_rows():
    # template columns are twice the bounds, so admissibility caps the
    # parameter at 0.5; the minimal tube (radius 0.1) needs alpha = 0.05
    net = decoupled_net()
    tpl = ContractTemplate(
        state={sid: [(np.zeros(1), np.array([[2.0]]))] for sid in (1, 2)},
        input={},
        is_bounds=False,
    )
    caps = alpha_max(net, tpl)
    assert caps.x[1][0] == pytest.approx([0.5])
    res = centralized_synthesize(net, template=tpl)
    assert res.ok
    assert res.params.x[1][0] == pytest.approx([0.05], abs=1e-9)


def test_centralized_custom_template_with_an_input_contract(monkeypatch):
    # subsystem 2 needs its input (A = 1.5) and its input disturbs 1; the
    # custom promise columns are 2 X (caps 0.5) and 4 U (cap 0.25), so both
    # channels take alpha_max's LP and the adm:x and adm:u containments
    subs = [interval_sub(1, 2), interval_sub(2, 1, a_self=1.5)]
    subs[0]["couplings"][0]["B"] = [[0.2]]
    net = load_network({"mode": "infinite", "subsystems": subs})
    tpl = ContractTemplate(
        state={sid: [(np.zeros(1), np.array([[2.0]]))] for sid in (1, 2)},
        input={2: [(np.zeros(1), np.array([[4.0]]))]},
        is_bounds=False,
    )
    caps = alpha_max(net, tpl)
    assert caps.x[1][0] == pytest.approx([0.5]) and caps.x[2][0] == pytest.approx([0.5])
    assert caps.u[2][0] == pytest.approx([0.25])

    solved, added = [], []
    solve = lpcore.LinearProgram.solve
    monkeypatch.setattr(lpcore.LinearProgram, "solve",
                        lambda lp, *a, **kw: solved.append(lp) or solve(lp, *a, **kw))
    admissibility = synthesis.add_promise_admissibility

    def recorded(batch, alpha, *args):
        # the centralized LP is built as a batch of one member: the batch's
        # rows are the rows of the one program it hands out
        first = len(batch._sense)
        admissibility(batch, alpha, *args)
        added.append((np.asarray(alpha).tolist(), set(range(first, len(batch._sense)))))

    monkeypatch.setattr(synthesis, "add_promise_admissibility", recorded)
    res = centralized_synthesize(net, template=tpl)
    assert res.ok, res.correctness.failures
    # one containment per promise (x of 1 and of 2, u of 2), each in the
    # solved LP as rows on its own multiplier's column
    lp = next(lp for lp in solved if lp.name == "centralized")
    start, index = lp._assemble()[:2]
    assert len(added) == 3 and len({tuple(cols) for cols, _ in added}) == 3
    for cols, rows in added:
        assert rows
        assert all(rows & set(index[start[c]:start[c + 1]].tolist()) for c in cols)
    assert 0.0 < res.params.u[2][0][0] <= 0.25 + 1e-9
    # every promise sits inside its admissible set, by witness or LP
    assert res.correctness.max_input_margin <= 1e-7


# ---------------------------------------------------------------------------
# dense baseline


def test_dense_case1():
    net = load_network("configs/case1.json")
    res = centralized_dense(net)
    assert res.ok
    sol = res.solutions["aggregate"]
    assert isinstance(sol, RciSolution)
    assert sol.T.shape[0] == 6
    assert res.params is None


def test_dense_finite_pair():
    res = centralized_dense(finite_pair(horizon=3))
    assert res.ok
    assert isinstance(res.solutions["aggregate"], ViableSolution)


@pytest.mark.parametrize("network", [lambda: load_network("configs/case1.json"),
                                     lambda: finite_pair(horizon=3)],
                         ids=["rci", "finite"])
def test_dense_result_recertifies_on_its_own_witnesses(network):
    # the dense LP keys its witnesses as check_correctness reads them, so
    # re-certifying on the folded one-subsystem network solves no LP
    net = network()
    res = centralized_dense(net)
    assert res.ok
    agg = aggregate(net)
    folded = Network(net.mode, net.horizon, [
        Subsystem("aggregate", agg.A, agg.B, agg.X, agg.U, agg.D)]).validate()
    tpl = default_template(folded)
    report = check_correctness(folded, tpl, alpha_max(folded, tpl), res.solutions)
    assert report.ok and report.lp_fallbacks == 0, report.failures


def test_dense_meters_certification_apart():
    # the one aggregate LP is the solver time; its containment checks are
    # certification, as in the other two methods
    res = centralized_dense(random_network(5, lambda_for(10), seed=0))
    assert res.ok
    assert res.timings["solves"] == 1
    assert res.timings["certify_seconds"] > 0
    res = centralized_dense(finite_pair(horizon=3))
    assert res.ok
    assert res.timings["solves"] == 1
    assert res.timings["certify_seconds"] > 0


def test_dense_rejects_a_broken_recursion(monkeypatch):
    # a center off its fixed point by 1e-6 still fits X, so only the
    # recursion check can reject it
    from zonosynth import viability

    solve = viability.solve_and_read

    def shifted(lp, read, what):
        sol = solve(lp, read, what)
        return dataclasses.replace(sol, xbar=sol.xbar + 1e-6)

    monkeypatch.setattr(viability, "solve_and_read", shifted)
    res = centralized_dense(load_network("configs/case1.json"))
    assert res.status == "failed" and res.hint == RETRY_HINT
    assert res.correctness.max_residual > 1e-8
    assert res.correctness.failures == [
        f"aggregate: recursion residual {res.correctness.max_residual:.3e}"]


def test_dense_infeasible():
    net = pair_network(a_self=0.5, b=0.0)
    res = centralized_dense(net)
    assert res.status == "failed" and res.hint == RETRY_HINT


# ---------------------------------------------------------------------------
# directory round-trip


def test_save_load_roundtrip(tmp_path):
    net = pair_network(coupling=0.9)
    res = compositional_synthesize(net)
    outdir = res.save(tmp_path / "run")
    names = set(os.listdir(outdir))
    assert {"report.json", "params.json", "trace.csv", "network.json",
            "template.json", "solution_1.json", "solution_2.json"} <= names

    back = SynthesisResult.load(outdir)
    assert back.status == res.status
    assert back.value == pytest.approx(res.value)
    assert back.iterations == res.iterations
    assert back.trace == pytest.approx(res.trace)
    assert back.params.to_vector() == pytest.approx(res.params.to_vector())
    assert sorted(back.solutions) == [1, 2]
    want = res.solutions[1].omega()
    got = back.solutions[1].omega()
    assert got.center == pytest.approx(want.center)
    assert got.generators == pytest.approx(want.generators)
    assert back.network.sorted_ids() == [1, 2]
    assert back.template.is_bounds


def test_report_json_keys(tmp_path):
    res = compositional_synthesize(pair_network(coupling=0.9))
    res.save(tmp_path / "r")
    with open(tmp_path / "r" / "report.json") as fh:
        rep = json.load(fh)
    assert {"status", "method", "mode", "V", "objective", "iterations",
            "timings", "hint", "correctness"} <= set(rep)
    assert rep["status"] == "correct"
    assert rep["method"] == "compositional"
    assert {"solve_seconds", "wall_seconds", "certify_seconds"} <= set(rep["timings"])


@pytest.mark.parametrize("driver", [compositional_synthesize,
                                    centralized_synthesize, centralized_dense])
def test_report_json_lp_sizes(tmp_path, driver):
    res = driver(pair_network(coupling=0.9))
    res.save(tmp_path / "r")
    with open(tmp_path / "r" / "report.json") as fh:
        report = json.load(fh)
    timings = report["timings"]
    assert res.ok
    assert all(timings[key] > 0
               for key in ("max_lp_rows", "max_lp_cols", "max_lp_nnz"))
    # only the compositional method extracts tubes after a descent
    compositional = driver is compositional_synthesize
    assert timings["extract_attempts"] == (1 if compositional else 0)
    # every containment is certified on the synthesis LP's own witness, and
    # every method re-checks its recursion
    assert report["correctness"]["ok"]
    assert report["correctness"]["lp_fallbacks"] == 0
    assert 0.0 <= report["correctness"]["max_residual"] <= 1e-8
    # the phases are timed apart and fit inside the wall time
    phases = [timings[f"{name}_seconds"]
              for name in ("caps", "build", "descent", "master", "extract", "certify")]
    assert all(isinstance(sec, float) and sec >= 0.0 for sec in phases)
    assert sum(phases) <= timings["wall_seconds"]
    assert timings["build_seconds"] > 0 and timings["extract_seconds"] > 0
    assert timings["certify_seconds"] > 0
    assert (timings["descent_seconds"] > 0) == compositional
    assert (timings["master_seconds"] > 0) == compositional
    # the dense baseline has no contract parameters, so no caps
    assert (timings["caps_seconds"] > 0) == (driver is not centralized_dense)


def test_trace_csv_header(tmp_path):
    res = compositional_synthesize(decoupled_net())
    res.save(tmp_path / "r")
    with open(tmp_path / "r" / "trace.csv") as fh:
        assert fh.readline().strip() == "iteration,V,grad_norm,step"


def test_custom_template_roundtrip(tmp_path):
    net = decoupled_net()
    tpl = ContractTemplate(
        state={sid: [(np.zeros(1), np.array([[2.0]]))] for sid in (1, 2)},
        input={},
        is_bounds=False,
    )
    res = centralized_synthesize(net, template=tpl)
    res.save(tmp_path / "r")
    back = SynthesisResult.load(tmp_path / "r")
    assert not back.template.is_bounds
    c, C = back.template.state[1][0]
    assert np.asarray(C) == pytest.approx(np.array([[2.0]]))


# ---------------------------------------------------------------------------
# inputs every driver rejects


@pytest.mark.parametrize("driver", [compositional_synthesize, centralized_synthesize,
                                    centralized_dense])
def test_drivers_reject_a_network_without_subsystems(driver):
    with pytest.raises(ConfigError, match="non-empty subsystems"):
        driver(Network("infinite", None, []))


@pytest.mark.parametrize("order", [0, -1])
def test_drivers_reject_a_reduction_order_below_one(order):
    with pytest.raises(ValueError, match="reduction_order must be >= 1"):
        DescentConfig(reduction_order=order).validate()
    with pytest.raises(ValueError, match="reduction_order must be >= 1"):
        compositional_synthesize(pair_network(), config=DescentConfig(reduction_order=order))
    with pytest.raises(ValueError, match="reduction_order must be >= 1"):
        centralized_synthesize(pair_network(), reduction_order=order)
