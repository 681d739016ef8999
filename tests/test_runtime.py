"""Closed-loop rollouts and the Monte-Carlo invariance checker."""

import csv
import dataclasses
import itertools
import tracemalloc

import numpy as np
import oracles
import pytest
import test_recursion
from test_contracts import finite_pair, pair_network
from test_viability import PLANT2D

from zonosynth import geom, lpcore, runtime
from zonosynth.cli import lambda_for
from zonosynth.geom import Zonotope, contains_point, sample
from zonosynth.runtime import (
    OutsideViableSet,
    _mixed_zeta,
    simulate,
    step,
    verify_invariance,
)
from zonosynth.synthesis import (
    centralized_dense,
    centralized_synthesize,
    compositional_synthesize,
)
from zonosynth import sysmodel
from zonosynth.sysmodel import (
    Network,
    Subsystem,
    aggregate,
    load_network,
    random_network,
    stacked_slices,
)
from zonosynth.viability import TubeSolution, rci


@pytest.fixture(scope="module")
def pair():
    net = pair_network(coupling=0.9)
    result = compositional_synthesize(net)
    assert result.ok
    return net, result


@pytest.fixture(scope="module")
def finite():
    net = finite_pair(horizon=6)
    result = centralized_synthesize(net, reduction_order=1)
    assert result.ok
    return net, result


@pytest.fixture(scope="module")
def case1():
    net = load_network("configs/case1.json")
    result = compositional_synthesize(net)
    assert result.ok
    return net, result


def solo_network():
    return load_network({
        "mode": "infinite",
        "subsystems": [{
            "id": "s",
            "A": [[0.0]],
            "B": [[1.0]],
            "X": {"center": [0.0], "generators": [[1.0]]},
            "U": {"center": [0.0], "generators": [[1.0]]},
            "D": {"center": [0.0], "generators": [[0.1]]},
            "couplings": [],
        }],
    })


# ---------------------------------------------------------------------------
# sampling helpers


def test_mixed_zeta_enumerates_small_vertex_sets():
    out = _mixed_zeta(np.random.default_rng(0), 8, 2)
    assert out.shape == (8, 2)
    got = {tuple(row) for row in out[:4]}
    assert got == {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}
    assert np.all(np.abs(out) <= 1.0)


def test_mixed_zeta_large_p_uses_sign_patterns():
    out = _mixed_zeta(np.random.default_rng(1), 10, 20)
    assert out.shape == (10, 20)
    assert np.all(np.abs(out[:5]) == 1.0)
    assert np.all(np.abs(out) <= 1.0)


def test_mixed_zeta_degenerate_shapes():
    assert _mixed_zeta(np.random.default_rng(2), 5, 0).shape == (5, 0)
    one = _mixed_zeta(np.random.default_rng(3), 1, 3)
    assert one.shape == (1, 3)
    assert np.all(np.abs(one) == 1.0)


# ---------------------------------------------------------------------------
# step


def test_step_fixed_point_at_solo_center():
    net = solo_network()
    sub = net.subsystem("s")
    sol = rci(sub.A[0], sub.B[0], sub.D[0], sub.X[0], sub.U[0], k=2)
    assert sol is not None
    states = {"s": sol.omega().center.copy()}
    nxt, inputs = step(net, {"s": sol}, states)
    assert nxt["s"] == pytest.approx(states["s"], abs=1e-9)
    assert inputs["s"].shape == (1,)


def test_step_stays_inside_under_extreme_disturbance(pair):
    net, result = pair
    states = {sid: result.solutions[sid].omega().center for sid in [1, 2]}
    worst = {sid: net.subsystem(sid).D_at(0).center
             + net.subsystem(sid).D_at(0).generators @ np.array([1.0])
             for sid in [1, 2]}
    nxt, _ = step(net, result, states, t=0, disturbances=worst)
    for sid in [1, 2]:
        inside, _ = contains_point(result.solutions[sid].omega(), nxt[sid])
        assert inside


def test_step_input_reads_local_state_only(pair):
    net, result = pair
    om1 = result.solutions[1].omega()
    x1 = om1.center + 0.4 * om1.generators.sum(axis=1)
    om2 = result.solutions[2].omega()
    _, inputs_a = step(net, result, {1: x1, 2: om2.center})
    _, inputs_b = step(net, result,
                       {1: x1, 2: om2.center + 0.7 * om2.generators.sum(axis=1)})
    assert np.array_equal(inputs_a[1], inputs_b[1])


def test_step_raises_outside(pair):
    net, result = pair
    states = {1: np.array([50.0]),
              2: result.solutions[2].omega().center}
    with pytest.raises(OutsideViableSet) as exc:
        step(net, result, states, t=0)
    assert exc.value.sid == 1
    assert exc.value.t == 0


@pytest.fixture(scope="module")
def plant2d():
    """PLANT2D as a one-subsystem network, with its RCI tube at k = 4."""
    p = PLANT2D
    sub = Subsystem("plant", (p["A"],), (p["B"],), (p["X"],), (p["U"],),
                    (p["W"],))
    sol = rci(p["A"], p["B"], p["W"], p["X"], p["U"], k=4)
    assert sol is not None
    return Network("infinite", None, [sub]).validate(), {"plant": sol}


def test_step_outside_tube_raises(plant2d):
    net, solutions = plant2d
    with pytest.raises(OutsideViableSet) as exc:
        step(net, solutions, {"plant": np.array([5.0, 5.0])})
    assert (exc.value.sid, exc.value.t) == ("plant", 0)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_long_rollout_stays_inside(pair):
    net, result = pair
    traj = simulate(net, result, num_steps=300, seed=5)
    assert traj.violation is None
    assert traj.num_steps == 300
    for sid in [1, 2]:
        assert traj.states[sid].shape == (301, 1)
        assert traj.inputs[sid].shape == (300, 1)
        om = result.solutions[sid].omega()
        for t in (0, 77, 300):
            inside, _ = contains_point(om, traj.states[sid][t])
            assert inside


def test_simulate_truncates_on_violation(pair):
    net, result = pair
    harsher = pair_network(coupling=45.0)   # same shape, 50x the coupling
    traj = simulate(harsher, result, num_steps=20, seed=0)
    assert traj.violation is not None
    sid, t = traj.violation
    assert t >= 1
    for other in [1, 2]:
        assert traj.states[other].shape[0] == t + 1
        assert traj.inputs[other].shape[0] == t


def test_simulate_honors_explicit_start(pair):
    net, result = pair
    x0 = {sid: result.solutions[sid].omega().center
          + result.solutions[sid].omega().generators @ np.ones(
              result.solutions[sid].omega().num_generators)
          for sid in [1, 2]}
    traj = simulate(net, result, num_steps=50, x0=x0, seed=1)
    assert traj.violation is None
    for sid in [1, 2]:
        assert traj.states[sid][0] == pytest.approx(x0[sid])


def test_rci_invariance_under_simulation(plant2d):
    net, solutions = plant2d
    sol = solutions["plant"]
    x0 = sample(sol.omega(), 1, np.random.default_rng(11))[0]
    traj = simulate(net, solutions, num_steps=50, x0={"plant": x0}, seed=11)
    assert traj.violation is None
    assert traj.states["plant"].shape == (51, 2)
    assert traj.inputs["plant"].shape == (50, 1)
    for x in traj.states["plant"]:
        inside, _ = contains_point(sol.omega(), x, tol=1e-7)
        assert inside
    for u in traj.inputs["plant"]:
        inside_u, _ = contains_point(sol.theta(), u, tol=1e-7)
        assert inside_u


def test_simulate_solves_membership_lps_only_for_the_start(pair, monkeypatch):
    # witnesses chain along the rollout; the pair's diagonal tails never
    # miss, so only the start states take a membership LP
    net, result = pair
    calls = []
    real = geom.membership_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(geom, "membership_lp", counted)
    traj = simulate(net, result, num_steps=300, seed=5)
    assert traj.violation is None
    assert 0 < len(calls) <= len(net.sorted_ids())


def test_simulate_start_outside_is_a_violation_at_step_zero(pair):
    net, result = pair
    x0 = {1: np.array([50.0]), 2: result.solutions[2].omega().center}
    traj = simulate(net, result, num_steps=10, x0=x0, seed=0)
    assert traj.violation == (1, 0)
    assert traj.num_steps == 0
    for sid in [1, 2]:
        assert traj.states[sid].shape == (1, 1)
        assert traj.inputs[sid].shape == (0, 1)
        assert traj.disturbances[sid].shape == (0, 1)


def test_simulate_rejects_negative_steps(pair):
    net, result = pair
    with pytest.raises(ValueError, match="num_steps"):
        simulate(net, result, num_steps=-2)


def test_simulate_beyond_horizon_raises(finite):
    net, result = finite
    with pytest.raises(ValueError, match="horizon"):
        simulate(net, result, num_steps=7)


def test_step_at_the_horizon_raises(finite):
    net, result = finite
    states = {sid: result.solutions[sid].omega(5).center for sid in net.sorted_ids()}
    nxt, _ = step(net, result, states, t=5)     # the last step of horizon 6
    assert sorted(nxt) == [1, 2]
    with pytest.raises(ValueError, match="horizon is 6"):
        step(net, result, states, t=6)


@pytest.mark.parametrize("t", [-1, -2])
@pytest.mark.parametrize("tubes", ["finite", "pair"])
def test_step_before_the_start_raises(request, tubes, t):
    net, result = request.getfixturevalue(tubes)
    states = {sid: result.solutions[sid].omega(0).center for sid in net.sorted_ids()}
    with pytest.raises(ValueError, match=f"t must be nonnegative, got {t}"):
        step(net, result, states, t=t)


def test_trajectory_csv(tmp_path, pair):
    net, result = pair
    traj = simulate(net, result, num_steps=5, seed=9)
    path = oracles.trajectory_csv(traj, tmp_path / "traj.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "i", "x0", "u0"]
    assert len(rows) == 1 + 2 * 6
    assert float(rows[1][2]) == pytest.approx(traj.states[1][0, 0])


# ---------------------------------------------------------------------------
# verify_invariance


def test_verify_clean_pair(pair):
    net, result = pair
    report = verify_invariance(net, result, num_samples=64, num_steps=40,
                               seed=2)
    assert report.ok
    assert report.violations == 0
    assert report.first_violation is None
    assert report.checked == 2 * 64 * 41
    for sid in [1, 2]:
        m = report.margins[sid]
        assert m.shape == (41,)
        assert np.all(m >= -1e-9)
        assert m[0] == pytest.approx(0.0, abs=1e-12)  # vertex patterns probe the boundary


def test_verify_deterministic(pair):
    net, result = pair
    a = verify_invariance(net, result, num_samples=32, num_steps=15, seed=7)
    b = verify_invariance(net, result, num_samples=32, num_steps=15, seed=7)
    assert a.violations == b.violations
    assert a.witness_losses == b.witness_losses
    assert a.checked == b.checked
    for sid in [1, 2]:
        assert np.array_equal(a.margins[sid], b.margins[sid])


def test_verify_vacuous_when_no_samples(pair):
    net, result = pair
    report = verify_invariance(net, result, num_samples=0, num_steps=10)
    assert report.vacuous
    assert not report.ok
    assert report.checked == 0


def test_verify_flags_enlarged_coupling(pair):
    net, result = pair
    harsher = pair_network(coupling=45.0)
    report = verify_invariance(harsher, result, num_samples=64, num_steps=10,
                               seed=0)
    assert not report.ok
    assert report.violations > 0
    assert report.first_violation is not None
    assert report.first_violation[1] >= 1


def test_verify_finite_defaults_to_horizon(finite):
    net, result = finite
    report = verify_invariance(net, result, num_samples=32, seed=3)
    assert report.num_steps == 6
    assert report.ok
    assert report.margins[1].shape == (7,)
    with pytest.raises(ValueError, match="horizon"):
        verify_invariance(net, result, num_samples=4, num_steps=7)


def test_verify_lp_fallback_matches_chain(finite):
    # order-2 reduction keeps non-diagonal disturbance columns, so witnesses
    # chain through a non-diagonal tail (least-squares guess, then the tail
    # LP) instead of dividing by radii; the verdict must not change
    net, _ = finite
    result = centralized_synthesize(net, reduction_order=2)
    assert result.ok
    report = verify_invariance(net, result, num_samples=16, seed=4)
    assert report.ok
    assert report.violations == 0


@pytest.mark.parametrize("kwargs, name", [
    (dict(num_steps=-1), "num_steps"),
    (dict(num_samples=-2), "num_samples"),
])
def test_verify_rejects_negative_run_lengths(pair, kwargs, name):
    net, result = pair
    with pytest.raises(ValueError, match=name):
        verify_invariance(net, result, **kwargs)


@pytest.mark.parametrize("value", [0.5, 10.0, True], ids=["half", "float", "bool"])
@pytest.mark.parametrize("name, call", [
    ("num_samples", lambda net, res, v: verify_invariance(net, res, num_samples=v)),
    ("num_steps", lambda net, res, v: verify_invariance(net, res, num_samples=4,
                                                         num_steps=v)),
    ("num_steps", lambda net, res, v: simulate(net, res, v)),
    ("t", lambda net, res, v: step(net, res, {1: [0.0], 2: [0.0]}, t=v)),
], ids=["verify-num_samples", "verify-num_steps", "simulate-num_steps", "step-t"])
def test_run_lengths_must_be_integers(pair, name, call, value):
    # a float or a bool is refused by name, not by whatever numpy or range
    # make of it
    net, result = pair
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "
                                        rf"{value!r}$"):
        call(net, result, value)


def test_verify_missing_subsystem_raises(pair):
    net, result = pair
    with pytest.raises(ValueError, match="no solutions"):
        verify_invariance(net, {1: result.solutions[1]}, num_samples=4)


def test_verify_case1_thousand_steps(case1):
    net, result = case1
    report = verify_invariance(net, result, num_samples=200, num_steps=1000,
                               seed=0)
    assert report.ok
    assert report.violations == 0
    assert report.witness_losses == 0
    for sid in net.sorted_ids():
        assert np.all(report.margins[sid] >= -1e-9)


@pytest.fixture(scope="module")
def finite_exact():
    net = finite_pair(horizon=6)
    result = centralized_synthesize(net, reduction_order=None)
    assert result.ok
    return net, result


def test_verify_exact_encoding_chains_through_a_non_diagonal_tail(finite_exact):
    net, result = finite_exact
    # W = [coupling column, own disturbance]: 1 x 2, so no radii to divide by
    assert result.solutions[1].W[0].generators.shape == (1, 2)
    samples, steps = 32, 6
    report = verify_invariance(net, result, num_samples=samples, seed=4)
    assert report.ok
    assert report.checked == 2 * samples * (steps + 1)
    assert report.witness_losses == 0
    assert 0 < report.lp_rewitness < samples * steps
    for sid in [1, 2]:
        assert np.all(report.margins[sid] >= -1e-9)


def test_verify_exact_encoding_flags_enlarged_coupling(finite_exact):
    _, result = finite_exact
    harsher = finite_pair(horizon=6, coupling=1.5)
    report = verify_invariance(harsher, result, num_samples=16, seed=4)
    assert not report.ok
    assert report.violations > 0
    assert report.first_violation[1] >= 1


def aggregate_network(net):
    """The dense baseline's one-subsystem view of ``net``."""
    agg = aggregate(net)
    sub = Subsystem("aggregate", agg.A, agg.B, agg.X, agg.U, agg.D)
    return Network(net.mode, net.horizon, [sub]).validate()


@pytest.fixture(scope="module")
def contracted():
    net = pair_network(coupling=0.9)
    result = centralized_dense(net, beta=0.2)
    assert result.ok
    assert result.solutions["aggregate"].beta == 0.2
    return net, result


def test_verify_contracted_rci_chains(contracted):
    # E = G_w Lambda with |Lambda| row sums <= beta, so the new tail
    # coordinates Lambda zeta_head + zeta_d / sigma stay in the unit box:
    # every witness chains, and no LP is solved
    net, result = contracted
    samples, steps = 16, 20
    with lpcore.track_solver_time() as solver:
        report = verify_invariance(aggregate_network(net), result,
                                   num_samples=samples, num_steps=steps, seed=0)
    assert report.ok
    assert report.checked == samples * (steps + 1)
    assert report.witness_losses == report.lp_rewitness == solver.solves == 0
    assert np.all(report.margins["aggregate"] >= -1e-9)


def test_verify_contracted_rci_flags_enlarged_coupling(contracted):
    _, result = contracted
    harsher = aggregate_network(pair_network(coupling=1.5))
    report = verify_invariance(harsher, result, num_samples=16, num_steps=10,
                               seed=0)
    assert not report.ok
    assert report.violations > 0
    assert report.first_violation == ("aggregate", 1)


@pytest.fixture(scope="module")
def contracted_geo():
    net = random_network(20, lambda_for(40), seed=0)
    result = centralized_dense(net, beta=0.2)
    assert result.ok
    return net, result


@pytest.mark.parametrize("fixture, scale, samples, steps", [
    ("contracted", None, 16, 20),
    ("contracted", 1.5, 16, 10),
    ("contracted_geo", None, 64, 10),
], ids=["pair", "harsher-pair", "geo40"])
def test_contracted_rci_matches_the_all_tube_lp_reference(
        request, fixture, scale, samples, steps):
    # the chained verdicts are the tube LP's, and its margins are lower
    # bounds of the tube LP's min-norm ones
    net, result = request.getfixturevalue(fixture)
    if scale is not None:
        net = pair_network(coupling=scale)
    net = aggregate_network(net)
    with lpcore.track_solver_time() as solver:
        got = verify_invariance(net, result, num_samples=samples,
                                num_steps=steps, seed=0)
    ref = oracles.verify_invariance_per_subsystem(
        net, result.solutions, samples, steps, seed=0, chain=False)
    fields = ("checked", "violations", "first_violation")
    assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert got.lp_rewitness == solver.solves == got.violations
    assert ref.lp_rewitness > got.lp_rewitness
    assert np.all(got.margins["aggregate"] <= ref.margins["aggregate"] + 1e-12)
    assert (got.violations > 0) == (scale is not None)


def scalar_finite_network(w_gens):
    """One scalar subsystem over horizon 1, x+ = 0.5 x + u + d, disturbed by
    the generator row ``w_gens``."""
    return load_network({
        "mode": "finite", "horizon": 1,
        "subsystems": [{
            "id": "s", "A": [[0.5]], "B": [[1.0]],
            "X": {"center": [0.0], "generators": [[1.0]]},
            "U": {"center": [0.0], "generators": [[1.0]]},
            "D": {"center": [0.0], "generators": [list(w_gens)]},
            "couplings": [],
        }],
    })


@pytest.mark.parametrize("case", ["finite", "invariant"])
def test_tube_widths_must_follow_the_disturbance_generators(contracted, case):
    # a growing tube must grow by its p disturbance columns, and an
    # invariant one must hold at least p; an edited tube that does not is
    # refused by name, not witnessed on another path
    if case == "finite":
        net = scalar_finite_network([0.1])
        sid, sol = "s", TubeSolution(
            [np.array([[1.0]]), np.array([[0.5, 0.1, 0.0]])],
            [np.zeros(1), np.zeros(1)], [np.zeros((1, 1))], [np.zeros(1)],
            [Zonotope([0.0], [[0.1]])], 0.0, None, 0.0)
        message = "tube widths 1 -> 3 at step 0 do not follow its 1"
    else:
        net, result = contracted
        net, sid = aggregate_network(net), "aggregate"
        sol = result.solutions[sid]
        k = sol.T[0].shape[1]
        W = Zonotope(sol.W[0].center, np.tile(sol.W[0].generators, k))
        sol = TubeSolution(sol.T, sol.xbar, sol.M, sol.ubar, [W], sol.beta,
                           sol.E, sol.objective)
        message = (f"tube widths {k} -> {k} at step 0 do not follow its "
                   f"{W.num_generators}")
    for call in (lambda: verify_invariance(net, {sid: sol}, num_samples=4),
                 lambda: simulate(net, {sid: sol}, 1)):
        with pytest.raises(ValueError, match=rf"^subsystem {sid!r}: {message} "
                                             r"disturbance generators$"):
            call()


def test_negated_disturbance_generators_chain_alike():
    # a diagonal tail with negative radii is the same box: every witness
    # still divides out, as with the positive radii
    reports = []
    for radius in (0.2, -0.2):
        net = random_network(20, 0.1, seed=0, template={
            "D": _box([0.0, 0.0], [[radius, 0.0], [0.0, radius]])})
        result = centralized_dense(net)
        assert result.ok
        with lpcore.track_solver_time() as solver:
            reports.append(verify_invariance(aggregate_network(net), result,
                                             num_samples=500, num_steps=20,
                                             seed=0))
        assert solver.solves == 0
    positive, negative = reports
    fields = ("checked", "witness_losses", "lp_rewitness", "violations",
              "first_violation")
    assert [getattr(negative, f) for f in fields] == \
        [getattr(positive, f) for f in fields] == [10_500, 0, 0, 0, None]
    np.testing.assert_array_equal(negative.margins["aggregate"],
                                  positive.margins["aggregate"])


@pytest.mark.parametrize("w_gens", [[0.1], [0.06, 0.04]],
                         ids=["diagonal", "non-diagonal"])
def test_witness_losses_count_chain_misses_the_tube_lp_rewitnesses(w_gens):
    # Omega(1) = 0.5 Omega(0) + W = [-0.6, 0.6] with W of radius 0.1, but
    # the network disturbs with radius 0.3: a state near 0 stays inside
    # although its chained witness cannot cover the disturbance (a loss);
    # one near the boundary leaves (a violation).
    w_gens = np.asarray(w_gens)
    net = scalar_finite_network(3.0 * w_gens)
    sol = TubeSolution(
        [np.array([[1.0]]), np.array([[0.5, *w_gens]])],
        [np.zeros(1), np.zeros(1)], [np.zeros((1, 1))], [np.zeros(1)],
        [Zonotope([0.0], [w_gens])], 0.0, None, 0.0)
    samples = 64
    report = verify_invariance(net, {"s": sol}, num_samples=samples, seed=0)
    assert report.witness_losses > 0 and report.violations > 0
    assert report.checked == 2 * samples - report.violations
    tube_lps = report.witness_losses + report.violations
    if len(w_gens) == 1:
        assert report.lp_rewitness == tube_lps
    else:   # least-squares misses first go to the LP on the tail
        assert report.lp_rewitness > tube_lps
    assert report.margins["s"][1] >= -1e-9


@pytest.mark.parametrize("w_gens", [[[0.1, 0.0], [0.0, 0.0]],
                                    [[0.06, 0.04], [0.0, 0.0]]],
                         ids=["zero-radius", "rank-deficient"])
def test_chained_witness_must_reconstruct_the_state(w_gens):
    # The tail block spans only x1, and the network disturbs only x2: every
    # chained witness has a small |zeta| but misses x2, so each state must
    # go to the tube LP, which finds some inside and some outside.
    w_gens = np.asarray(w_gens)
    net = load_network({
        "mode": "finite", "horizon": 1,
        "subsystems": [{
            "id": "s", "A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]],
            "X": {"center": [0.0, 0.0], "generators": [[1.0, 0.0], [0.0, 1.0]]},
            "U": {"center": [0.0], "generators": [[1.0]]},
            "D": {"center": [0.0, 0.0], "generators": [[0.0], [0.3]]},
            "couplings": [],
        }],
    })
    sol = TubeSolution(
        [np.eye(2), np.hstack([0.5 * np.eye(2), w_gens])],
        [np.zeros(2), np.zeros(2)], [np.zeros((1, 2))], [np.zeros(1)],
        [Zonotope([0.0, 0.0], w_gens)], 0.0, None, 0.0)
    report = verify_invariance(net, {"s": sol}, num_samples=64, seed=0)
    assert report.witness_losses > 0 and report.violations > 0


# ---------------------------------------------------------------------------
# the tail witness by vertex enumeration


def _lp_optimum(G, r):
    """min |z|_inf subject to G z = r by the membership LP (inf when r is
    outside G's range)."""
    lp, _, _ = geom.membership_lp(Zonotope(np.zeros(len(r)), G), r)
    sol = lp.solve()
    return sol.objective if sol.status == lpcore.OPTIMAL else np.inf


def _tail_case(rng, kind):
    """A zero-center tail G, n in {1, 2, 3} and n <= p <= 7, of one kind,
    and a point G z0 with |z0|_inf up to 2, so that some are outside."""
    n = int(rng.integers(1, 4))
    p = int(rng.integers(n, 8))
    G = rng.normal(size=(n, p))
    if kind == "parallel" and p > 1:
        G[:, 1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0) * G[:, 0]
    elif kind == "zero-column":
        G[:, rng.integers(p)] = 0.0
    elif kind == "rank-deficient":
        G = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, p))
    return G, G @ rng.uniform(-2.0, 2.0, p)


def test_vertex_witness_matches_the_membership_lp():
    rng = np.random.default_rng(21)
    buf = np.empty(64)
    seen = set()
    for case in range(400):
        kind = ("general", "parallel", "zero-column", "rank-deficient")[case % 4]
        G, r = _tail_case(rng, kind)
        n, p = G.shape
        best = _lp_optimum(G, r)
        systems = runtime._vertex_systems(G[None])[0]
        if systems is None:     # no regular vertex system: left to the LP
            assert np.linalg.matrix_rank(G) < n
            seen.add("left to the LP")
            continue
        z = runtime._vertex_witness(systems, G, r[:, None], buf)
        assert z.shape == (p, 1)
        norm = np.abs(z).max()
        assert norm == pytest.approx(best, rel=0, abs=1e-9)
        certified = runtime._tail_ok(G, None, r[:, None], z, buf)[0]
        assert certified == (best <= 1.0 + 1e-9)
        assert np.abs(G @ z[:, 0] - r).max() <= 1e-9
        seen.add((kind, "inside" if certified else "outside"))
    assert seen == {(kind, side) for kind in ("general", "parallel", "zero-column")
                    for side in ("inside", "outside")} | {"left to the LP"}


def test_vertex_witness_keeps_a_degenerate_vertex():
    # two parallel columns: at the optimum every coordinate sits at -t, so
    # a free coordinate equals |t| only up to rounding
    G = np.array([[0.00344247, 0.00209663, 0.4, 0.0],
                  [0.00344247, 0.00209663, 0.0, 0.4]])
    r = np.array([-0.403, -0.403])
    t = 0.403 / G[0, :3].sum()
    z = runtime._vertex_witness(runtime._vertex_systems(G[None])[0], G,
                                r[:, None], np.empty(64))[:, 0]
    np.testing.assert_allclose(z, -t * np.ones(4), rtol=0, atol=1e-12)
    assert np.abs(z).max() == pytest.approx(_lp_optimum(G, r), rel=0, abs=1e-12)


def test_vertex_witness_chunks_the_samples():
    # a scratch smaller than one sample's candidates, one that holds a few
    # samples and one that holds them all give the same witnesses
    rng = np.random.default_rng(3)
    G = rng.normal(size=(3, 7))
    R = G @ rng.uniform(-1.0, 1.0, (7, 40))
    systems = runtime._vertex_systems(G[None])[0]
    got = [runtime._vertex_witness(systems, G, R, np.empty(size))
           for size in (1, 5 * 3 * len(systems[1]), 10**6)]
    for z in got:
        np.testing.assert_array_equal(z, got[-1])
        np.testing.assert_allclose(G @ z, R, rtol=0, atol=1e-9)


def test_vertex_witness_is_the_chunk_by_chunk_one():
    # the chunks of samples that fit the scratch go through fewer, stacked
    # products, each chunk's candidates bit for bit those of its own product
    rng = np.random.default_rng(5)
    for n, p in [(1, 3), (2, 4), (2, 6), (3, 5), (4, 6)]:
        G = rng.normal(size=(n, p))
        systems = runtime._vertex_systems(G[None])[0]
        K = len(systems[1])
        for samples, size in [(1, 1), (7, 1), (7, 3 * K * n), (50, 4 * K * n + 1),
                              (50, 10**6)]:
            r = G @ rng.uniform(-1.5, 1.5, (p, samples))
            got = runtime._vertex_witness(systems, G, r, np.empty(size))
            want = oracles.vertex_witness_chunk_by_chunk(systems, G, r,
                                                          np.empty(size))
            assert got.tobytes() == want.tobytes()


def test_tail_check_without_scratch_is_the_scratch_one():
    # the few samples of one member are checked on new arrays: the same
    # verdicts as the fused test in scratch, NaN failing, on a full tail
    # and a diagonal one, with norms and misses at the tolerances
    rng = np.random.default_rng(13)
    for n, p in [(1, 3), (2, 2), (3, 5), (4, 4)]:
        tail = rng.normal(size=(n, p))
        radii = None
        if n == p:
            radii = rng.uniform(0.5, 2.0, (n, 1))
            tail = np.diag(radii[:, 0])
        z = rng.uniform(-1.0 - 2e-9, 1.0 + 2e-9, (p, 60))
        z[0, :4] = (1.0 + 1e-9, -1.0 - 1e-9, np.nextafter(1.0 + 1e-9, 2.0), np.nan)
        resid = tail @ z + rng.choice([0.0, 5e-10, 1e-9, 2e-9], size=(n, 60))
        resid[-1, 4] = np.nan
        want = runtime._tail_ok(tail, radii, resid, z, np.empty(10**4))
        got = runtime._tail_ok(tail, radii, resid, z)
        assert want.any() and not want.all() and not want[3] and not want[4]
        assert got.tobytes() == want.tobytes()


def test_vertex_systems_of_a_stack_are_those_of_each_tail():
    # tails of one shape, some of them rank-deficient or with parallel
    # columns, give bit for bit the systems that each gives alone
    rng = np.random.default_rng(8)
    seen = set()
    for n, p in [(1, 1), (1, 2), (1, 5), (2, 2), (2, 4), (2, 6), (3, 5), (4, 6)]:
        tails = rng.normal(size=(9, n, p))
        tails[1, :, -1] = 0.0
        tails[2] = rng.normal(size=(n, 1)) @ rng.normal(size=(1, p))
        if p > 1:
            tails[3, :, 1] = -2.0 * tails[3, :, 0]
        for got, G in zip(runtime._vertex_systems(tails), tails):
            want = oracles.vertex_systems_one_tail(G)
            seen.add(want is None)
            if want is None:
                assert got is None
                continue
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert seen == {False, True}


def test_verify_exact_encoding_solves_no_lp(finite_exact):
    # every tail is 1 x 2: the vertex systems witness each chain miss, and
    # lp_rewitness still counts the tail problems the reference solves by LP
    net, result = finite_exact
    with lpcore.track_solver_time() as solver:
        report = verify_invariance(net, result, num_samples=32, seed=4)
    ref = oracles.verify_invariance_per_subsystem(net, result.solutions, 32,
                                                  report.num_steps, seed=4)
    assert solver.solves == 0
    assert report.lp_rewitness == ref.lp_rewitness > 0


def test_tail_over_the_vertex_cap_takes_the_tail_lp(finite_exact, monkeypatch):
    net, result = finite_exact
    exact = verify_invariance(net, result, num_samples=32, seed=4)
    monkeypatch.setattr(runtime, "_VERTICES", 1)    # a 1 x 2 tail has 2
    with lpcore.track_solver_time() as solver:
        capped = verify_invariance(net, result, num_samples=32, seed=4)
    assert solver.solves == capped.lp_rewitness == exact.lp_rewitness > 0
    for sid in exact.margins:
        np.testing.assert_allclose(capped.margins[sid], exact.margins[sid],
                                   rtol=0, atol=1e-12)


def test_a_vertex_solution_outside_the_tail_is_final(finite_exact):
    # the vertex solution is the tail's min-|z|_inf one: a sample it puts
    # outside goes to the tube LP alone, with no tail LP to confirm it
    _, result = finite_exact
    harsher = finite_pair(horizon=6, coupling=1.5)
    with lpcore.track_solver_time() as solver:
        got = verify_invariance(harsher, result, num_samples=200, seed=4)
    ref = oracles.verify_invariance_per_subsystem(harsher, result.solutions,
                                                  200, 6, seed=4)
    fields = ("checked", "witness_losses", "lp_rewitness", "violations",
              "first_violation")
    assert [getattr(got, f) for f in fields] == \
        [getattr(ref, f) for f in fields] == [1468, 0, 419, 185, (1, 2)]
    assert solver.solves == got.violations


# ---------------------------------------------------------------------------
# the network-stacked loop against the per-subsystem reference


def _box(center, generators):
    return {"center": center, "generators": generators}


def mixed_network(scale=1.0):
    """Subsystems of n = 1 and 2, m = 0 and 1, in three groups, one of them
    not contiguous in sorted order, and an input coupling; ``scale``
    multiplies every coupling."""
    def scalar(sid, couplings):
        return {"id": sid, "A": [[0.0]], "B": [[1.0]], "X": _box([0.0], [[1.0]]),
                "U": _box([0.0], [[1.0]]), "D": _box([0.0], [[0.1]]),
                "couplings": couplings}
    return load_network({"mode": "infinite", "subsystems": [
        scalar(1, [{"to": 2, "A": [[0.1 * scale, 0.0]]}]),
        {"id": 2, "A": [[1.0, 1.1], [0.0, 1.0]], "B": [[0.0], [0.1]],
         "X": _box([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), "U": _box([0.0], [[10.0]]),
         "D": _box([0.0, 0.0], [[0.02, 0.0], [0.0, 0.02]]),
         "couplings": [{"to": 1, "A": [[0.05 * scale], [0.05 * scale]]},
                       {"to": 3, "A": [[0.02 * scale, 0.0], [0.0, 0.02 * scale]]}]},
        {"id": 3, "A": [[0.0, 0.5], [0.0, 0.0]], "B": [[], []],
         "X": _box([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]), "U": _box([], []),
         "D": _box([0.0, 0.0], [[0.05, 0.0], [0.0, 0.05]]),
         "couplings": [{"to": 2, "A": [[0.1 * scale, 0.0], [0.0, 0.1 * scale]]}]},
        scalar(4, [{"to": 1, "A": [[0.3 * scale]], "B": [[0.2 * scale]]}]),
        scalar(5, [{"to": 4, "A": [[0.2 * scale]]}]),
    ]})


@pytest.fixture(scope="module")
def mixed():
    """``mixed_network`` and its compositional tubes, of k = 2 and 4."""
    net = mixed_network()
    result = compositional_synthesize(net)
    assert result.ok
    shapes = {(net.subsystem(sid).n, net.subsystem(sid).m, sol.T[0].shape[1])
              for sid, sol in result.solutions.items()}
    assert shapes == {(1, 1, 2), (2, 1, 4), (2, 0, 4)}
    return net, result


@pytest.fixture(scope="module")
def geo20():
    net = random_network(20, lambda_for(40), seed=0)
    result = compositional_synthesize(net)
    assert result.ok
    return net, result


# fixture, whether to check it on the aggregate network or a harsher pair,
# samples and steps (None: the horizon)
ORACLE_CASES = {
    "pair": ("pair", None, 64, 40),
    "finite-pair": ("finite", None, 32, None),
    "case1": ("case1", None, 200, 100),
    "finite-exact": ("finite_exact", None, 32, None),
    "contracted-rci": ("contracted", "aggregate", 16, 20),
    "violating-pair": ("pair", "harsher", 64, 10),
    "mixed-shapes": ("mixed", None, 64, 30),
    "violating-mixed-shapes": ("mixed", "harsher", 64, 10),
    "geo20": ("geo20", None, 100, 30),
}


def oracle_case(request, name):
    fixture, view, samples, steps = ORACLE_CASES[name]
    net, result = request.getfixturevalue(fixture)
    if view == "aggregate":
        net = aggregate_network(net)
    elif view == "harsher":
        net = pair_network(coupling=45.0) if fixture == "pair" else mixed_network(5.0)
    return net, result.solutions, samples, steps


@pytest.mark.parametrize("name", list(ORACLE_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_verify_matches_the_per_subsystem_loop(request, name, seed):
    net, solutions, samples, steps = oracle_case(request, name)
    with lpcore.track_solver_time() as solver:
        got = verify_invariance(net, solutions, num_samples=samples,
                                num_steps=steps, seed=seed)
    ref = oracles.verify_invariance_per_subsystem(
        net, solutions, samples, got.num_steps, seed=seed)
    fields = ("checked", "violations", "lp_rewitness", "witness_losses",
              "first_violation")
    assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert list(got.margins) == list(ref.margins)
    for sid in ref.margins:
        np.testing.assert_allclose(got.margins[sid], ref.margins[sid],
                                   rtol=0, atol=1e-12)
    if name.startswith("violating"):
        assert got.violations > 0
    if name == "finite-exact":
        assert got.lp_rewitness > 0
    if name == "contracted-rci":
        assert solver.solves == 0


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_simulate_matches_the_per_subsystem_loop(request, name):
    net, solutions, _, steps = oracle_case(request, name)
    steps = 3 * steps if steps else min(sol.horizon for sol in solutions.values())
    got = simulate(net, solutions, steps, seed=3)
    ref = oracles.simulate_per_subsystem(net, solutions, steps, seed=3)
    assert got.violation == ref.violation
    for part in ("states", "inputs", "disturbances"):
        mine, theirs = getattr(got, part), getattr(ref, part)
        assert list(mine) == list(theirs)
        for sid in theirs:
            assert mine[sid].shape == theirs[sid].shape
            np.testing.assert_allclose(mine[sid], theirs[sid], rtol=1e-12,
                                       atol=1e-12)


@pytest.mark.parametrize("name", ["pair", "finite-exact"])
def test_step_matches_the_per_subsystem_loop(request, name):
    net, solutions, _, _ = oracle_case(request, name)
    states = {sid: solutions[sid].omega(1).center
              + 0.5 * solutions[sid].omega(1).generators.sum(axis=1)
              / solutions[sid].omega(1).num_generators for sid in net.sorted_ids()}
    got = step(net, solutions, states, t=1)
    ref = oracles.step_per_subsystem(net, solutions, states, t=1)
    for mine, theirs in zip(got, ref):
        for sid in theirs:
            np.testing.assert_allclose(mine[sid], theirs[sid], rtol=1e-12,
                                       atol=1e-12)


@pytest.mark.parametrize("fixture, built_per_run", [("pair", 0),
                                                    ("contracted", 0)],
                         ids=["pair", "contracted"])
def test_rci_geometry_is_built_once_per_run(request, fixture, built_per_run,
                                            monkeypatch):
    # Omega(0) to sample from, Omega and Theta of an RCI tube are stacked
    # from the solutions' arrays once per verification, however many steps
    # it takes, and no zonotope is built while no LP is needed
    net, result = request.getfixturevalue(fixture)
    if fixture == "contracted":
        net = aggregate_network(net)
    built = []
    real = Zonotope.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Zonotope, "__post_init__", counted)
    counts = []
    for steps in (5, 50):
        built.clear()
        report = verify_invariance(net, result, num_samples=16,
                                   num_steps=steps, seed=0)
        assert report.ok
        counts.append(len(built))
    assert counts == [built_per_run] * 2


def changing_disturbance_pair(first, second):
    """Two scalar subsystems over horizon 2 whose D has the generator row
    ``first`` at step 0 and ``second`` at step 1."""
    def sub(sid, other):
        return {"id": sid, "A": [[0.0]], "B": [[1.0]],
                "X": _box([0.0], [[1.0]]), "U": _box([0.0], [[1.0]]),
                "D": [_box([0.0], [first]), _box([0.0], [second])],
                "couplings": [{"to": other, "A": [[0.5]]}]}
    return load_network({"mode": "finite", "horizon": 2,
                         "subsystems": [sub(1, 2), sub(2, 1)]})


@pytest.mark.parametrize("first, second", [([0.1, 0.05], [0.1]),
                                           ([0.1], [0.1, 0.05])],
                         ids=["fewer-generators-later", "more-generators-later"])
def test_vertex_patterns_follow_the_generator_count_of_each_step(
        first, second, monkeypatch):
    net = changing_disturbance_pair(first, second)
    result = centralized_synthesize(net, reduction_order=None)
    assert result.ok
    seen = []
    real = runtime._Loop.disturbance

    def record(self, rng, t, S, patterns=None):
        d = real(self, rng, t, S, patterns)
        seen.append(d.copy())
        return d

    monkeypatch.setattr(runtime._Loop, "disturbance", record)
    samples = 16
    report = verify_invariance(net, result, num_samples=samples, seed=0)
    assert report.ok and report.checked == 2 * samples * 3
    for d, gens in zip(seen, (first, second)):
        vertices = sorted(np.dot(gens, signs) for signs in
                          itertools.product((-1.0, 1.0), repeat=len(gens)))
        for row in range(2):    # every sign pattern, each once
            assert np.sort(d[row, :len(vertices)]) == pytest.approx(vertices)
    ref = oracles.verify_invariance_per_subsystem(net, result.solutions,
                                                  samples, 2, seed=0)
    assert (report.checked, report.lp_rewitness, report.violations) == \
        (ref.checked, ref.lp_rewitness, ref.violations)


@pytest.mark.parametrize("call, message", [
    (lambda net, res: simulate(net, res, 5, x0={1: [0.0]}),
     r"x0: no entry for subsystem 2 \(expected 1 values\)"),
    (lambda net, res: simulate(net, res, 5, x0={1: [0.0], 2: [0.0, 0.0]}),
     r"x0: subsystem 2 has 2 values, expected 1"),
    (lambda net, res: step(net, res, {2: [0.0]}),
     r"states: no entry for subsystem 1 \(expected 1 values\)"),
    (lambda net, res: step(net, res, {1: [0.0, 1.0, 2.0], 2: [0.0]}),
     r"states: subsystem 1 has 3 values, expected 1"),
    (lambda net, res: step(net, res, {1: [0.0], 2: [0.0]},
                           disturbances={1: [0.0]}),
     r"disturbances: no entry for subsystem 2 \(expected 1 values\)"),
    (lambda net, res: step(net, res, {1: [0.0], 2: [0.0]},
                           disturbances={1: [0.0], 2: []}),
     r"disturbances: subsystem 2 has 0 values, expected 1"),
], ids=["simulate-x0-missing", "simulate-x0-length", "step-state-missing",
        "step-state-length", "step-disturbance-missing",
        "step-disturbance-length"])
def test_bad_state_maps_name_the_subsystem(pair, call, message):
    net, result = pair
    with pytest.raises(ValueError, match=message):
        call(net, result)


@pytest.mark.parametrize("call", [
    lambda net, sols: simulate(net, sols, 5),
    lambda net, sols: step(net, sols, {1: [0.0], 2: [0.0]}),
], ids=["simulate", "step"])
def test_rollouts_name_subsystems_without_solutions(pair, call):
    net, result = pair
    with pytest.raises(ValueError, match=r"no solutions for subsystem\(s\) \[2\]"):
        call(net, {1: result.solutions[1]})


# ---------------------------------------------------------------------------
# the banded step product


def _band_product(band, t, X, U, d):
    """``band``'s x(t+1) for states X, stacked inputs U and disturbances d;
    X is copied, since the product uses it as scratch."""
    out, work = np.empty_like(X), np.empty_like(X)
    band.apply(band.tiles(t), X.copy(), U[band.cols], d, out, work)
    return out


def test_banded_product_matches_the_aggregate_dynamics(monkeypatch):
    # mixed networks, finite and infinite, cut into tiles of at most two
    # rows: input couplings, per-step A/B, subsystems with m = 0 and tiles
    # with no input column all occur, and every product matches the dense
    # A(t) X + B(t) U + d of sysmodel.aggregate_dynamics at every step
    monkeypatch.setattr(runtime, "_TILE", 2)
    seen = set()
    for finite, seed in itertools.product((False, True), range(8)):
        net = test_recursion.mixed_network(np.random.default_rng(seed), finite)
        rng = np.random.default_rng(seed)
        band = runtime._Band(net, net.sorted_ids(), stacked_slices(net))
        n, m = len(band.rows), len(band.cols)
        assert band.gathered and len(band.bounds) > 1
        for t in range(net.num_steps):
            A, B = sysmodel.aggregate_dynamics(net, t)
            X, U, d = (rng.standard_normal((k, 7)) for k in (n, m, n))
            np.testing.assert_allclose(_band_product(band, t, X, U, d),
                                       A @ X + B @ U + d, rtol=0, atol=1e-12)
            seen.update(("empty-B-span", finite) for *_, b in band.tiles(t)
                        if b is None)
        subs = [net.subsystem(sid) for sid in net.sorted_ids()]
        seen.update(("m=0", finite) for s in subs if s.m == 0)
        seen.update(("input-coupling", finite) for s in subs
                    for c in s.couplings.values() if c.B is not None)
        seen.update(("per-step", finite) for s in subs if len(s.A) > 1)
    assert seen == {(what, finite) for finite in (False, True) for what in (
        "empty-B-span", "m=0", "input-coupling")} | {("per-step", True)}


def test_banded_product_on_a_geometric_network():
    # at the real tile size the band order keeps the spans to a fraction of
    # the dense A and B, and the product is still the dense one
    net = random_network(200, lambda_for(400), seed=0)
    band = runtime._Band(net, net.sorted_ids(), stacked_slices(net))
    n, m = len(band.rows), len(band.cols)
    tiles = band.tiles(0)
    assert len(tiles) > 1 and all(r1 - r0 <= runtime._TILE for r0, r1, *_ in tiles)
    assert sum((r1 - r0) * (a[1] - a[0]) for r0, r1, a, _ in tiles) < 0.25 * n * n
    assert sum((r1 - r0) * (b[1] - b[0]) for r0, r1, _, b in tiles) < 0.25 * n * m
    rng = np.random.default_rng(1)
    X, U, d = (rng.standard_normal((k, 5)) for k in (n, m, n))
    A, B = sysmodel.aggregate_dynamics(net, 0)
    np.testing.assert_allclose(_band_product(band, 0, X, U, d),
                               A @ X + B @ U + d, rtol=0, atol=1e-12)


def test_band_order_is_a_permutation_built_once_per_loop(geo20, monkeypatch):
    net, result = geo20
    orders = []
    real = runtime._band_order

    def counted(*args):
        orders.append(real(*args))
        return orders[-1]

    monkeypatch.setattr(runtime, "_band_order", counted)
    for steps in (5, 50):
        orders.clear()
        assert verify_invariance(net, result, num_samples=8, num_steps=steps).ok
        assert len(orders) == 1
    assert sorted(orders[0]) == list(range(len(net.sorted_ids())))
    band = runtime._Band(net, net.sorted_ids(), stacked_slices(net))
    assert band.gathered
    assert sorted(band.rows) == list(range(2 * len(net.sorted_ids())))
    assert sorted(band.cols) == list(range(len(net.sorted_ids())))


def changing_dynamics_pair():
    """Two scalar subsystems over horizon 3 with their own A, B and
    coupling at every step."""
    def sub(sid, other):
        return {"id": sid, "A": [[[0.0]], [[0.2]], [[0.1]]],
                "B": [[[1.0]], [[0.5]], [[1.0]]],
                "X": _box([0.0], [[1.0]]), "U": _box([0.0], [[1.0]]),
                "D": _box([0.0], [[0.1]]),
                "couplings": [{"to": other, "A": [[[0.3]], [[0.2]], [[0.1]]]}]}
    return load_network({"mode": "finite", "horizon": 3,
                         "subsystems": [sub(1, 2), sub(2, 1)]})


@pytest.mark.parametrize("case", ["geo20", "finite-per-step"])
def test_tiles_are_built_once_per_distinct_step(request, case, monkeypatch):
    # the tiles are cut from sysmodel.aggregate_dynamics: once per run for
    # invariant dynamics, once per step for dynamics that change every step
    if case == "geo20":
        net, result = request.getfixturevalue("geo20")
        runs = {5: 1, 50: 1}
    else:
        net = changing_dynamics_pair()
        result = centralized_synthesize(net, reduction_order=None)
        assert result.ok
        runs = {1: 1, 3: 3}
    calls = []
    real = sysmodel.aggregate_dynamics

    def counted(network, t, slices=None):
        calls.append(t)
        return real(network, t, slices)

    monkeypatch.setattr(sysmodel, "aggregate_dynamics", counted)
    for steps, builds in runs.items():
        calls.clear()
        assert verify_invariance(net, result, num_samples=8, num_steps=steps).ok
        assert len(calls) == builds


def test_a_step_allocates_no_sample_sized_array(geo20, monkeypatch):
    # from the second step on, the states alternate between two buffers and
    # the draws, the product, the witness shift and the norms reuse the
    # run's scratch, so no step allocates one float per subsystem and
    # sample; the witness check's boolean masks stay well below that
    net, result = geo20
    S = 1024
    grown, base = [], [0]
    real = runtime._Loop.margins

    def record(self, *args):
        real(self, *args)
        current, peak = tracemalloc.get_traced_memory()
        grown.append(peak - base[0])
        base[0] = current
        tracemalloc.reset_peak()

    monkeypatch.setattr(runtime._Loop, "margins", record)
    tracemalloc.start()
    try:
        assert verify_invariance(net, result, num_samples=S, num_steps=6).ok
    finally:
        tracemalloc.stop()
    assert len(grown) == 7
    assert max(grown[2:]) < 8 * S * len(net.sorted_ids())


# ---------------------------------------------------------------------------
# the loop's set-up, stacked by tail shape, against one (member, step) at a
# time


@pytest.fixture(scope="module")
def case2_centralized():
    net = load_network("configs/case2.json")
    result = centralized_synthesize(net, reduction_order=None)
    assert result.ok
    return net, result


@pytest.fixture(scope="module")
def finite_geo():
    net = Network("finite", 4, random_network(6, lambda_for(12), seed=0).subsystems)
    result = compositional_synthesize(net)
    assert result.ok
    return net, result


@pytest.fixture(scope="module")
def contracted_wide():
    """An invariant tube of beta 0.2 around a scalar state disturbed by two
    generators, so its 1 x 2 tail is not diagonal."""
    net = load_network({"mode": "infinite", "subsystems": [{
        "id": "s", "A": [[0.5]], "B": [[1.0]], "X": _box([0.0], [[1.0]]),
        "U": _box([0.0], [[1.0]]), "D": _box([0.0], [[0.06, 0.04]]),
        "couplings": []}]})
    result = centralized_dense(net, beta=0.2)
    assert result.ok
    return net, result


# fixture, whether to check it on the aggregate network, and the kinds of
# tail it holds
SETUP_CASES = {
    # 2 x 4 and 2 x 6 tails over 15 steps, in groups of two and one
    "case2-centralized": ("case2_centralized", None, {"general"}),
    # one group of six finite tubes
    "finite-geo": ("finite_geo", None, {"diagonal"}),
    # an invariant tube of beta 0.2, so its sets are scaled by 1.25
    "contracted-rci": ("contracted", "aggregate", {"diagonal"}),
    # 1 x 2 tails, whose vertex systems sum in another order
    "finite-exact": ("finite_exact", None, {"general"}),
    # and the same scaled by 1.25
    "contracted-wide": ("contracted_wide", "aggregate", {"general"}),
}


def setup_case(request, name):
    fixture, view, kinds = SETUP_CASES[name]
    net, result = request.getfixturevalue(fixture)
    if view == "aggregate":
        net = aggregate_network(net)
    horizons = [sol.horizon for sol in result.solutions.values() if sol.horizon]
    return net, result.solutions, min(horizons, default=20), kinds


def _same(a, b):
    """Both None, or arrays of one shape and dtype, equal bit for bit."""
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("name", list(SETUP_CASES))
def test_stacked_setup_equals_the_per_member_one(request, name):
    net, solutions, steps, kinds = setup_case(request, name)
    ids, slices = net.sorted_ids(), stacked_slices(net)
    got = runtime._groups(net, solutions, ids, range(steps), *slices)
    ref = oracles.groups_per_member(net, solutions, ids, range(steps), *slices)
    assert [list(g.pos) for g in got] == [list(g.pos) for g in ref]
    seen = set()
    for mine, theirs in zip(got, ref):
        for a, b in zip((mine.rows, mine.urows, *mine.start),
                        (theirs.rows, theirs.urows, *theirs.start)):
            _same(a, b)
        for t, ts in enumerate(theirs.steps):
            if ts is None:
                continue
            st = mine.at(t)
            assert (st.p, st.shift, st.width) == (ts.p, ts.shift, ts.width)
            for part in ("center", "head", "tail", "theta_c", "theta_G",
                         "radii", "pinv"):
                _same(getattr(st, part), getattr(ts, part))
            seen.add("diagonal" if ts.pinv is None else "general")
            if ts.pinv is None:
                continue
            for i in range(len(ts.tail)):
                got, want = mine.vertex_systems(t, i), theirs.vertex_systems(t, i)
                assert (got is None) == (want is None)
                for a, b in zip(got or (), want or ()):
                    _same(a, b)
    assert seen == kinds


def _runs(net, solutions, steps):
    """A verification, a rollout and one step of the closed loop."""
    report = verify_invariance(net, solutions, num_samples=32, num_steps=steps,
                               seed=1)
    trajectory = simulate(net, solutions, steps, seed=2)
    states = {sid: solutions[sid].omega(1).center for sid in net.sorted_ids()}
    return report, trajectory, step(net, solutions, states, t=1)


@pytest.mark.parametrize("name", list(SETUP_CASES))
def test_the_per_member_setup_runs_alike(request, name, monkeypatch):
    net, solutions, steps, _ = setup_case(request, name)
    got = _runs(net, solutions, steps)
    monkeypatch.setattr(runtime, "_groups", oracles.groups_per_member)
    ref = _runs(net, solutions, steps)
    fields = ("checked", "violations", "lp_rewitness", "witness_losses",
              "first_violation")
    assert [getattr(got[0], f) for f in fields] == [getattr(ref[0], f) for f in fields]
    assert list(got[0].margins) == list(ref[0].margins)
    for sid in ref[0].margins:
        _same(got[0].margins[sid], ref[0].margins[sid])
    assert got[1].violation == ref[1].violation
    for part in ("states", "inputs", "disturbances"):
        for sid, values in getattr(ref[1], part).items():
            _same(getattr(got[1], part)[sid], values)
    for mine, theirs in zip(got[2], ref[2]):
        for sid in theirs:
            _same(mine[sid], theirs[sid])


@pytest.mark.parametrize("part, index", [("xbar", 0), ("T", 3), ("T", 6),
                                         ("M", 2), ("ubar", 5)])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_tube_entry_raises_at_verification(finite, part, index,
                                                        value):
    net, result = finite
    sid = net.sorted_ids()[-1]
    entries = [a.copy() for a in getattr(result.solutions[sid], part)]
    entries[index].flat[0] = value
    solutions = dict(result.solutions)
    solutions[sid] = dataclasses.replace(solutions[sid], **{part: entries})
    with pytest.raises(ValueError, match="non-finite entries"):
        verify_invariance(net, solutions, num_samples=4)
