"""Synthesis drivers: descent loop, centralized LP, result round-trips.

The 1-D pair networks come from test_contracts, where the potential is
derived by hand: V_i = max(0, coupling * alpha_j + d - alpha_i).
"""

import dataclasses
import hashlib
import json
import os
import re
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
from zonosynth import contracts, geom, lpcore, viability
from zonosynth.cli import lambda_for
from zonosynth.sysmodel import (ConfigError, Network, aggregate, load_network,
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
)


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
    out = interior.clipped()
    assert out.to_vector() == pytest.approx(interior.to_vector())


def test_project_box_clamps_both_sides():
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    low = caps.from_vector(np.array([-0.3, 0.5]))
    assert low.clipped().to_vector() == pytest.approx([0.0, 0.5])
    high = caps.from_vector(caps.to_vector() + 1.0)
    assert high.clipped().to_vector() == pytest.approx(caps.to_vector())


def test_project_box_explicit_caps():
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    tight = caps.scaled(0.25)
    out = caps.copy().clipped(tight)
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
    assert res.solutions[1].horizon is None
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
    # the paper's step rule, kept as the baseline: 432 Polyak iterations,
    # of which 80 are extraction attempts
    res = compositional_synthesize(load_network("configs/case1.json"),
                                   config=DescentConfig(rule="subgradient"))
    assert res.ok
    assert res.iterations == 432 and len(res.trace) == 433
    assert res.timings["extract_attempts"] == 80
    assert res.timings["master_seconds"] == 0.0
    it, value, gnorm, step = res.trace[-1]
    assert it == 432
    assert value == pytest.approx(9.359100860972802e-08, rel=1e-9)
    assert gnorm == pytest.approx(1.0662487571856767, rel=1e-12)
    assert step == pytest.approx(3.648031672273313e-08, rel=1e-9)


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
    """An evaluation whose gradient is ``grads``: vector entry -> dV_i/dalpha."""
    return SimpleNamespace(sid=sid, value=value, reads=np.array(list(grads)),
                           grad=np.array(list(grads.values())))


def test_master_verdict_relaxes_the_cuts_by_tol():
    # the cuts a1 - a2 <= -gap/2 and a2 - a1 <= -gap/2 miss each other by
    # gap: within tol the master still answers, beyond it it proves emptiness
    net = pair_network()
    caps = alpha_max(net, default_template(net))
    at = caps.scaled(0.5)
    tol = 1e-6
    for gap, empty in ((0.5 * tol, False), (4 * tol, True)):
        master = synthesis._LevelMaster(caps, tol)
        evals = {1: _cut(1, 0.5 * gap, {0: 1.0, 1: -1.0}),  # entries: alpha_1, alpha_2
                 2: _cut(2, 0.5 * gap, {1: 1.0, 0: -1.0})}
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


def test_centralized_off_centre_custom_template_certifies_on_its_witnesses():
    # promises centred at 0.3 with column 2 inside X = [-1, 1]: the
    # promise-in-X witness [C alpha, c_X - c] / G_X = [2 alpha, -0.3] holds
    # exactly, so no containment needs a Hausdorff LP
    net = decoupled_net()
    tpl = ContractTemplate(
        state={sid: [(np.array([0.3]), np.array([[2.0]]))] for sid in (1, 2)},
        input={},
        is_bounds=False,
    )
    assert alpha_max(net, tpl).x[1][0] == pytest.approx([0.35])
    res = centralized_synthesize(net, template=tpl)
    assert res.ok, res.correctness.failures
    assert res.params.x[1][0] == pytest.approx([0.05], abs=1e-9)
    assert res.correctness.lp_fallbacks == 0


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
    # the least-squares promise witnesses certify without a Hausdorff LP
    assert res.correctness.lp_fallbacks == 0
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
    assert sol.horizon is None
    assert sol.T[0].shape[0] == 6
    assert res.params is None


def test_dense_finite_pair():
    res = centralized_dense(finite_pair(horizon=3))
    assert res.ok
    assert res.solutions["aggregate"].horizon == 3


@pytest.mark.parametrize("network, beta", [
    (lambda: load_network("configs/case1.json"), 0.0),
    (lambda: finite_pair(horizon=3), 0.0),
    (lambda: random_network(20, lambda_for(40), seed=0), 0.0),
    (lambda: random_network(20, lambda_for(40), seed=0), 0.2),
    (lambda: load_network("configs/case2.json"), 0.0),
], ids=["rci", "finite", "geo40", "geo40-beta", "case2"])
def test_dense_result_recertifies_on_its_own_witnesses(network, beta):
    # the dense LP keys its witnesses as check_correctness reads them, so
    # re-certifying on the folded one-subsystem network, against its own
    # sets (alpha at its caps), solves no LP, and there is one certifier:
    # the report is the dense driver's own
    net = network()
    res = centralized_dense(net, beta=beta)
    assert res.ok
    folded = Network(net.mode, net.horizon, [aggregate(net)]).validate()
    tpl = default_template(folded)
    report = check_correctness(folded, tpl, alpha_max(folded, tpl), res.solutions)
    assert report.ok and report.lp_fallbacks == 0, report.failures
    assert report == res.correctness


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

    def shifted(lp, read):
        sol = solve(lp, read)
        return dataclasses.replace(sol, xbar=[x + 1e-6 for x in sol.xbar])

    monkeypatch.setattr(viability, "solve_and_read", shifted)
    res = centralized_dense(load_network("configs/case1.json"))
    assert res.status == "failed"
    assert res.correctness.max_residual > 1e-8
    assert res.correctness.failures == [
        f"aggregate: recursion residual {res.correctness.max_residual:.3e}"]
    assert res.hint == f"{res.correctness.failures[0]}; {RETRY_HINT}"


def test_dense_names_the_containment_that_fails_its_check(monkeypatch):
    # Omega(2) inflated a hundredfold escapes X(2) and breaks the two
    # recursion steps around it; the report lists every failure
    from zonosynth import viability

    solve = viability.solve_and_read

    def widened(lp, read):
        sol = solve(lp, read)
        return dataclasses.replace(sol, T=[100.0 * T if t == 2 else T
                                           for t, T in enumerate(sol.T)])

    monkeypatch.setattr(viability, "solve_and_read", widened)
    res = centralized_dense(finite_pair(horizon=3))
    assert res.status == "failed" and not res.correctness.ok
    failures = res.correctness.failures
    assert failures[0].startswith("aggregate: Omega(2) escapes X(2) by ")
    assert failures[-1] == f"aggregate: recursion residual {res.correctness.max_residual:.3e}"
    assert len(failures) == 2 and res.correctness.lp_fallbacks == 1
    assert res.hint == f"{failures[0]}; {RETRY_HINT}"
    assert res.solutions["aggregate"] is not None


def test_dense_infeasible():
    net = pair_network(a_self=0.5, b=0.0)
    res = centralized_dense(net)
    assert res.status == "failed" and res.hint == RETRY_HINT


def widened(sol):
    """``sol`` with every T(t) a hundredfold: its Omega sets escape."""
    return dataclasses.replace(sol, T=[100.0 * T for T in sol.T])


@pytest.mark.parametrize("method", ["compositional", "centralized", "dense"])
def test_failed_certificate_names_its_first_failure_in_the_hint(monkeypatch, method):
    # every method's widened case1 tubes fail certification, and the hint
    # leads with the first failure
    net = load_network("configs/case1.json")
    if method == "compositional":
        extract = synthesis.extract_solutions
        monkeypatch.setattr(synthesis, "extract_solutions", lambda *a: {
            sid: widened(sol) for sid, sol in extract(*a).items()})
        res = compositional_synthesize(net)
    elif method == "centralized":
        read = synthesis._numeric_solution
        monkeypatch.setattr(synthesis, "_numeric_solution", lambda *a: widened(read(*a)))
        res = centralized_synthesize(net, k=12)
    else:
        solve = viability.solve_and_read
        monkeypatch.setattr(viability, "solve_and_read", lambda *a: widened(solve(*a)))
        res = centralized_dense(net)
    failures = res.correctness.failures
    assert res.status == "failed" and "Omega(0) escapes" in failures[0]
    assert res.hint == f"{failures[0]}; {RETRY_HINT}"


def test_subgradient_rule_fails_geo400_seed25_naming_the_escape():
    # the paper's subgradient rule ends this network "failed": an extracted
    # Omega escapes its promise by about 1.6e-7, inside HiGHS's feasibility
    # tolerance.  Which subsystem and by how much move with any LP change,
    # so neither is pinned; the level rule certifies the same network
    net = random_network(200, lambda_for(400), seed=25)
    res = compositional_synthesize(net, config=DescentConfig(rule="subgradient"))
    assert res.status == "failed"
    assert res.hint.startswith(res.correctness.failures[0])
    assert re.match(r"\d+: Omega\(\d+\) ", res.hint)
    assert compositional_synthesize(net).status == "correct"


# ---------------------------------------------------------------------------
# the monolithic programs' containments: split-sign form against |Lam| <= W


def geo40():
    return random_network(20, lambda_for(40), seed=0)


MONOLITHIC = {
    "centralized-case1": lambda: centralized_synthesize(load_network("configs/case1.json")),
    "centralized-case1-order1": lambda: centralized_synthesize(
        load_network("configs/case1.json"), reduction_order=1),
    "centralized-case2": lambda: centralized_synthesize(load_network("configs/case2.json")),
    "dense-case1": lambda: centralized_dense(load_network("configs/case1.json")),
    "dense-case1-beta": lambda: centralized_dense(load_network("configs/case1.json"), beta=0.3),
    "dense-case2": lambda: centralized_dense(load_network("configs/case2.json")),
    "dense-geo40": lambda: centralized_dense(geo40()),
}


# the optimum of case2's finite dense LP with |Lam| <= W rows, solved once
# by the interior-point solver (about 4 s): pinned here instead of solved
# again, while the LP itself is still built and sized below
W_FORM_OPTIMUM = {"dense-case2": ("correct", 135.2198536792825)}


@pytest.mark.parametrize("run", list(MONOLITHIC))
def test_monolithic_lp_solves_alike_in_both_containment_forms(monkeypatch, run):
    # the split form [Lam lam] = P - N has the feasible witnesses of the
    # |Lam| <= W rows: the same status and optimum, in fewer rows
    split = MONOLITHIC[run]()
    emit = geom.add_scaled_containment
    for module in (contracts, viability):
        monkeypatch.setattr(module, "add_scaled_containment",
                            lambda *args, split=True, **kw: emit(*args, split=False, **kw))
    if run in W_FORM_OPTIMUM:
        built = []  # the W-form LP, caught on its way to the solver
        monkeypatch.setattr(viability, "solve_and_read", lambda lp, *a: built.append(lp))
        MONOLITHIC[run]()
        (lp,) = built
        status, objective = W_FORM_OPTIMUM[run]
        rows = SimpleNamespace(status=status, objective=objective, timings={
            "max_lp_rows": lp.num_rows, "max_lp_cols": lp.num_vars})
        assert (lp.num_rows, lp.num_vars) == (29208, 21349)
    else:
        rows = MONOLITHIC[run]()
    assert split.status == rows.status
    assert (split.objective is None) == (rows.objective is None)
    if split.objective is not None:
        assert split.objective == pytest.approx(rows.objective, rel=1e-9, abs=0.0)
    assert split.timings["max_lp_rows"] < rows.timings["max_lp_rows"]
    assert split.timings["max_lp_cols"] == rows.timings["max_lp_cols"]


def test_monolithic_lp_sizes_are_pinned():
    # a return of the centralized or dense containments to two rows per
    # witness entry shows here first (20,850 and 19,948 rows in that form)
    assert centralized_synthesize(load_network("configs/case2.json")).timings["max_lp_rows"] \
        == 9468
    assert centralized_dense(geo40()).timings["max_lp_rows"] == 3644


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
    # the level master is reported apart, and max_lp_* still counts it
    master = [timings[f"master_lp_{key}"] for key in ("rows", "cols", "nnz")]
    if compositional:
        assert all(size > 0 for size in master)
        assert timings["max_lp_rows"] >= master[0] and timings["max_lp_cols"] >= master[1]
    else:
        assert master == [0, 0, 0]
    assert timings["solver_retries"] == 0
    # one HiGHS instance per LP, or per group of subsystem LPs
    assert 1 <= timings["solver_instances"] <= timings["solves"]
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


def test_subgradient_rule_reports_no_master():
    res = compositional_synthesize(pair_network(coupling=0.9),
                                   config=DescentConfig(rule="subgradient"))
    assert res.ok and res.timings["max_lp_rows"] > 0
    assert [res.timings[f"master_lp_{key}"] for key in ("rows", "cols", "nnz")] == [0, 0, 0]


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


def test_cold_solves_are_one_per_group_and_the_master(tmp_path):
    # random_network(20, ...) builds its subsystem LPs as one group: its
    # first program starts cold, every other from its basis; the level
    # master's first solve is the only other cold one
    res = compositional_synthesize(random_network(20, lambda_for(40), seed=0))
    assert res.ok
    assert res.timings["cold_solves"] == 2 < res.timings["solves"]
    res.save(tmp_path / "r")
    with open(tmp_path / "r" / "report.json") as fh:
        assert json.load(fh)["timings"]["cold_solves"] == 2
    res = centralized_synthesize(pair_network(coupling=0.9))
    assert res.timings["cold_solves"] == res.timings["solves"] == 1


# ---------------------------------------------------------------------------
# golden descent digests: a change that claims "the same results" must keep
# the iterates' trace, the parameters and the stored tubes bit for bit


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("make_network, iterations, solves, trace, params, tubes", [
    (lambda: load_network("configs/case1.json"), 3, 18,
     "4f1b621f241dc1ca6d547902daad9ebf6c4d8601a08044959356c26f58ac67dc",
     "c617499eccf54ec60cfafab9e6207702c640e00514602768a7017073143e6fa2",
     "462ca8b1ec47c383bccac61ee9e9f91ffc81ceb188c05b6822cc38b6fe219fc1"),
    (lambda: random_network(20, lambda_for(40), seed=0), 1, 43,
     "1f60c3dc8d90d749469219d1f284291bc177c17b1e012f310f3f87e0dbf214f0",
     "6b67d9cea2f6e52dcac52c1224040ff60cc71e421e44c638c7c2099c70050f23",
     "21f8c6eecc6dd9e6430370d3502ab279eda00c14360bacffacc13b03b513f0a4"),
], ids=["case1", "geo40"])
def test_level_descent_matches_golden_digest(make_network, iterations, solves, trace,
                                             params, tubes):
    res = compositional_synthesize(make_network(), config=DescentConfig(rule="level"))
    assert res.ok
    # the digests are those of the descent before unmoved evaluations were
    # re-used, which cut the solves on geo40 from 61 to 43
    assert (res.iterations, res.timings["solves"]) == (iterations, solves)
    assert _sha(" ".join(float(v).hex() for row in res.trace for v in row)) == trace
    assert _sha(" ".join(float(v).hex() for v in res.params.to_vector())) == params
    assert _sha("\n".join(json.dumps(res.solutions[sid].to_json(), sort_keys=True)
                          for sid in res.network.sorted_ids())) == tubes
