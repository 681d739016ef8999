"""Zonotope operation tests: frozen values, oracle cross-checks, properties."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zonosynth.geom import (
    Zonotope,
    add_scaled_containment,
    affine,
    contains_point,
    directed_hausdorff,
    hausdorff_bound,
    membership_lp,
    numbers,
    order_reduce_box,
    polygon_vertices_2d,
    stack,
    witness_values,
)
from zonosynth import lpcore
from zonosynth.lpcore import LinearProgram, LinExpr

import oracles
from oracles import minkowski_sum, scale_generators, zonogon_area

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def gen_matrix(n, pmax=4):
    return st.integers(1, pmax).flatmap(
        lambda p: arrays(np.float64, (n, p), elements=finite))


def vec(n):
    return arrays(np.float64, (n,), elements=finite)


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Zonotope([0.0, 0.0], np.ones((3, 2)))
        with pytest.raises(ValueError):
            Zonotope([np.nan], np.ones((1, 1)))

    def test_zero_generator_matrix(self):
        Z = oracles.point_zonotope([1.0, 2.0])
        assert Z.num_generators == 0
        lo, hi = oracles.interval_hull(Z)
        assert np.allclose(lo, [1, 2]) and np.allclose(hi, [1, 2])

    def test_frozen_and_immutable(self):
        Z = Zonotope([0.0], [[1.0]])
        with pytest.raises(Exception):
            Z.center[0] = 5.0

    def test_json_round_trip(self):
        Z = Zonotope([1.0, -2.0], [[1.0, 0.5], [0.0, -1.0]])
        Z2 = Zonotope.from_json(Z.to_json())
        assert np.array_equal(Z.center, Z2.center)
        assert np.array_equal(Z.generators, Z2.generators)

    def test_affine_map_rotation(self):
        # quarter rotation of the unit square is the same square
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        Z = Zonotope([1.0, 0.0], np.eye(2))
        out = oracles.affine_map(R, Z, b=[0.0, 1.0])
        assert np.allclose(out.center, [0.0, 2.0])
        assert np.allclose(np.abs(out.generators), [[0, 1], [1, 0]])

    def test_minkowski_sum_concatenates(self):
        Z = minkowski_sum(Zonotope([0.0, 0.0], np.eye(2)),
                          Zonotope([1.0, 1.0], 0.5 * np.eye(2)))
        assert Z.num_generators == 4
        lo, hi = oracles.interval_hull(Z)
        assert np.allclose(lo, [-0.5, -0.5]) and np.allclose(hi, [2.5, 2.5])

    def test_stack_is_block_diagonal(self):
        Z = stack([Zonotope([0.0], [[2.0]]), Zonotope([1.0, 1.0], np.eye(2))])
        assert Z.dim == 3 and Z.num_generators == 3
        assert np.allclose(Z.generators, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_scale_generators(self):
        Z = scale_generators(Zonotope([0.0, 0.0], np.eye(2)), [2.0, 0.5])
        assert np.allclose(Z.generators, [[2, 0], [0, 0.5]])

    def test_support(self):
        Z = Zonotope([1.0, 0.0], [[1.0, 1.0], [1.0, -1.0]])
        assert oracles.support(Z, [1.0, 0.0]) == pytest.approx(3.0)
        assert oracles.support(Z, [0.0, 1.0]) == pytest.approx(2.0)


class TestIntervalHullAndReduction:
    def test_interval_hull_frozen_value(self):
        Z = Zonotope([1.0, 0.0], [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
        lo, hi = oracles.interval_hull(Z)
        assert np.allclose(lo, [-1.0, -2.0])
        assert np.allclose(hi, [3.0, 2.0])

    def test_box_reduction_equals_analytic_interval_hull(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(0, 6))
            Z = Zonotope(rng.normal(size=n), rng.normal(size=(n, p)))
            red = order_reduce_box(Z)
            lo, hi = oracles.interval_hull_oracle(Z.center, Z.generators)
            assert np.allclose(red.center, (lo + hi) / 2)
            assert np.allclose(np.abs(red.generators).sum(axis=1), (hi - lo) / 2)
            assert red.generators.shape == (n, n)

    def test_box_reduction_is_outer_approximation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            Z = Zonotope(rng.normal(size=2), rng.normal(size=(2, 5)))
            red = order_reduce_box(Z)
            assert directed_hausdorff(red, Z) <= 1e-9

    def test_higher_order_reduction(self):
        rng = np.random.default_rng(5)
        Z = Zonotope(np.zeros(2), rng.normal(size=(2, 8)))
        red = order_reduce_box(Z, order=2)
        assert red.num_generators == 4
        assert directed_hausdorff(red, Z) <= 1e-9
        # already small enough -> unchanged
        small = Zonotope(np.zeros(2), rng.normal(size=(2, 3)))
        assert order_reduce_box(small, order=2) is small

    def test_order_none_is_identity(self):
        Z = Zonotope(np.zeros(2), np.ones((2, 7)))
        assert order_reduce_box(Z, order=None) is Z


class TestPolygon:
    def test_unit_square_vertices_and_area(self):
        Z = Zonotope([0.0, 0.0], np.eye(2))
        verts = polygon_vertices_2d(Z)
        want = {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}
        assert {tuple(np.round(v, 9)) for v in verts} == want
        assert zonogon_area(Z) == pytest.approx(4.0)
        assert _shoelace(verts) == pytest.approx(4.0)

    def test_degenerate_segment(self):
        Z = Zonotope([0.0, 0.0], [[1.0], [0.0]])
        verts = polygon_vertices_2d(Z)
        assert verts.shape == (2, 2)
        assert {tuple(v) for v in verts} == {(-1.0, 0.0), (1.0, 0.0)}

    def test_parallel_generators_merge(self):
        Z = Zonotope([0.0, 0.0], [[1.0, 0.5, 0.0], [0.0, 0.0, 1.0]])
        verts = polygon_vertices_2d(Z)
        assert len(verts) == 4  # two distinct directions only
        assert zonogon_area(Z) == pytest.approx(_shoelace(verts))

    @settings(max_examples=60, deadline=None)
    @given(gen_matrix(2, pmax=5))
    def test_shoelace_matches_pairwise_determinant_formula(self, G):
        Z = Zonotope(np.zeros(2), G)
        verts = polygon_vertices_2d(Z)
        assert _shoelace(verts) == pytest.approx(zonogon_area(Z), abs=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(gen_matrix(2, pmax=4), vec(2))
    def test_vertex_count_and_membership(self, G, c):
        Z = Zonotope(c, G)
        verts = polygon_vertices_2d(Z)
        assert len(verts) <= 2 * Z.num_generators + 1
        assert oracles.contains_sampled_points_2d(c, G, np.asarray(verts), tol=1e-7)


def _shoelace(verts):
    verts = np.asarray(verts)
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _containment_witness(inner, outer):
    """``[Lam lam]`` at a feasible point of the rows for ``inner`` inside
    ``outer``, or None where those rows are infeasible."""
    lp = LinearProgram(name="containment")
    handles = add_scaled_containment(lp, numbers(np.column_stack([inner.generators,
                                                                  inner.center])),
                                     outer.generators, numbers(np.ones(outer.num_generators)),
                                     outer.center)
    sol = lp.solve()
    return witness_values(sol, {"in": handles})["in"] if oracles.is_optimal(sol) else None


class TestContainment:
    def test_simple_scaling_cases(self):
        inner = Zonotope([0.0, 0.0], 0.5 * np.eye(2))
        outer = Zonotope([0.0, 0.0], np.eye(2))
        assert directed_hausdorff(outer, inner) == 0.0
        # the witness reproduces the inner body, each row sum at 0.5
        L = _containment_witness(inner, outer)
        assert np.allclose(outer.generators @ L[:, :-1], inner.generators)
        assert 1.0 - np.abs(L).sum(axis=1).max() == pytest.approx(0.5)
        assert _containment_witness(outer, inner) is None
        assert directed_hausdorff(inner, outer) == pytest.approx(0.5)

    def test_point_inner(self):
        point = oracles.point_zonotope([0.5, 0.5])
        assert directed_hausdorff(Zonotope([0.0, 0.0], np.eye(2)), point) == 0.0

    def test_rotated_diamond_in_box_is_certified(self):
        diamond = Zonotope([0.0, 0.0], [[0.5, 0.5], [0.5, -0.5]])
        box = Zonotope([0.0, 0.0], np.eye(2))
        assert directed_hausdorff(box, diamond) == 0.0

    def test_soundness_against_sampling(self):
        # whenever the LP certifies containment, no sampled inner point may
        # fall outside the outer body (acceptance: zero unsound results)
        rng = np.random.default_rng(17)
        certified = 0
        for _ in range(40):
            inner = Zonotope(rng.uniform(-0.5, 0.5, 2),
                             rng.uniform(-1, 1, (2, int(rng.integers(1, 4)))))
            outer = Zonotope(rng.uniform(-0.5, 0.5, 2),
                             rng.uniform(-1.5, 1.5, (2, int(rng.integers(1, 4)))))
            if directed_hausdorff(outer, inner) <= 1e-9:
                certified += 1
                pts = oracles.sample_zonotope(inner.center, inner.generators,
                                              1000, rng)
                assert oracles.contains_sampled_points_2d(
                    outer.center, outer.generators, pts, tol=1e-7)
        assert certified >= 3  # the family is chosen so some cases certify

    def test_contains_point_witness(self):
        Z = Zonotope([1.0, 1.0], [[1.0, 0.0], [0.5, 2.0]])
        rng = np.random.default_rng(2)
        pts = oracles.sample_zonotope(Z.center, Z.generators, 20, rng)
        for x in pts:
            inside, zeta = contains_point(Z, x)
            assert inside
            assert np.abs(zeta).max() <= 1.0 + 1e-9
            assert np.allclose(Z.center + Z.generators @ zeta, x, atol=1e-8)
        outside, zeta = contains_point(Z, [10.0, 0.0])
        assert not outside and zeta is None


BASE_VARS = 3  # variables y0..y2 that the emitter's entries refer to
coef = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0])
# an entry (col, coef, const) is const + coef * y[col], or the number const
# for col -1
entry = st.one_of(
    st.tuples(st.just(-1), st.just(0.0), st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0])),
    st.tuples(st.integers(0, BASE_VARS - 1), coef, st.sampled_from([0.0, -0.0, 1.5, -0.75])))


def _column(e):
    """The column of a witness handle entry; -1 for a pinned one."""
    (col,) = e.terms or (-1,)
    return col


def _entry_arrays(entries, shape):
    """``entries`` (col, coef, const) in the array form of ``geom.affine``."""
    cols, coefs, consts = (np.array([e[k] for e in entries]).reshape(shape)
                           for k in range(3))
    return affine(cols.astype(np.int64), coefs, consts)


def _entry_expr(e):
    col, coef, const = e
    return LinExpr({col: coef}, const) if col >= 0 else const


def _assert_same_program(inner_G, inner_c, outer_cols, scales, outer_c, split):
    """The block emitter builds the row-wise reference's program, both in
    the form ``split`` selects.

    ``inner_G`` (n x r), ``inner_c`` (n) and ``scales`` (s) hold entries
    (col, coef, const); the emitter gets them as arrays, the reference as
    LinExpr or numbers.
    """
    n, r = np.shape(inner_G)[:2]

    def make(emit, *args):
        lp = LinearProgram(name="emit")
        for k in range(BASE_VARS):
            oracles.var(lp, lb=-1.0, ub=1.0)
        return lp, emit(lp, *args, split=split)

    body = [e for i in range(n) for e in list(inner_G[i]) + [inner_c[i]]]
    fast, got = make(add_scaled_containment, _entry_arrays(body, (n, r + 1)), outer_cols,
                     _entry_arrays(scales, len(scales)), outer_c)
    exprs = np.empty((n, r), dtype=object)
    for i, j in np.ndindex(n, r):
        exprs[i, j] = _entry_expr(inner_G[i][j])
    ref, want = make(oracles.add_scaled_containment_rowwise, exprs,
                     [_entry_expr(e) for e in inner_c], outer_cols,
                     [_entry_expr(e) for e in scales], outer_c)
    assert np.array_equal(fast._senses(), ref._senses())
    # CSC arrays, costs, column and row bounds; bounds compare as numbers
    # (-0 == 0)
    for a, b in zip(fast._assemble(), ref._assemble()):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert got.keys() == want.keys()
    for key in want:
        cols = np.vectorize(_column, otypes=[int])(want[key]) if want[key].size \
            else np.zeros(want[key].shape, dtype=int)
        assert np.array_equal(got[key], cols)


class TestContainmentEmitter:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_block_emitter_matches_rowwise_reference(self, data):
        split = data.draw(st.booleans(), label="split")
        n = data.draw(st.integers(1, 3), label="n")
        s = data.draw(st.integers(0, 3), label="s")
        r = data.draw(st.integers(0, 3), label="r")
        outer_cols = data.draw(arrays(
            np.float64, (n, s), elements=st.sampled_from([0.0, 1.0, -0.5, 2.0])))
        inner_G = [[data.draw(entry) for _ in range(r)] for _ in range(n)]
        inner_c = [data.draw(entry) for _ in range(n)]
        scales = [data.draw(entry) for _ in range(s)]
        outer_c = data.draw(vec(n))
        _assert_same_program(inner_G, inner_c, outer_cols, scales, outer_c, split)

    @pytest.mark.parametrize("s,r", [(0, 0), (0, 2), (2, 0), (2, 3)])
    def test_edge_shapes_and_mixed_entries(self, s, r):
        n = 2
        outer_cols = np.arange(n * s, dtype=float).reshape(n, s)  # has zeros
        inner_G = [[(j % BASE_VARS, 2.0, 0.25) if (i + j) % 2 else (-1, 0.0, float(i - j))
                    for j in range(r)] for i in range(n)]
        inner_c = [(0, 1.0, -1.5), (-1, 0.0, 0.5)]
        scales = [(1, 1.0, 1.0) if q % 2 else (-1, 0.0, 2.0) for q in range(s)]
        for split in (True, False):
            _assert_same_program(inner_G, inner_c, outer_cols, scales, np.array([1.0, -1.0]),
                                 split)


class TestDirectedHausdorff:
    def test_interval_case(self):
        outer = Zonotope([0.0], [[1.0]])
        inner = Zonotope([0.0], [[2.0]])
        assert directed_hausdorff(outer, inner) == pytest.approx(1.0)
        assert directed_hausdorff(inner, outer) == pytest.approx(0.0)

    def test_shifted_boxes(self):
        outer = Zonotope([0.0, 0.0], np.eye(2))
        inner = Zonotope([1.5, 0.0], np.eye(2))
        assert directed_hausdorff(outer, inner) == pytest.approx(1.5)

    def test_zero_iff_contained(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            inner = Zonotope(rng.uniform(-0.5, 0.5, 2),
                             rng.uniform(-1, 1, (2, int(rng.integers(1, 4)))))
            outer = Zonotope(rng.uniform(-0.5, 0.5, 2),
                             rng.uniform(-1.5, 1.5, (2, int(rng.integers(1, 4)))))
            d = directed_hausdorff(outer, inner)
            feasible = _containment_witness(inner, outer) is not None
            assert (d <= 1e-9) == feasible

    def test_matches_exact_oracle_1d(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            oc, ic = rng.uniform(-1, 1, (2, 1))
            og = rng.uniform(-1.5, 1.5, (1, int(rng.integers(1, 4))))
            ig = rng.uniform(-1.5, 1.5, (1, int(rng.integers(1, 4))))
            got = directed_hausdorff(Zonotope(oc, og), Zonotope(ic, ig))
            want = oracles.directed_hausdorff_oracle_1d(oc, og, ic, ig)
            assert got == pytest.approx(want, abs=1e-8)

    def test_matches_exact_oracle_2d(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            po, pi = rng.integers(1, 5, size=2)
            oc, ic = rng.uniform(-1, 1, (2, 2))
            og = rng.uniform(-1.5, 1.5, (2, int(po)))
            ig = rng.uniform(-1.5, 1.5, (2, int(pi)))
            got = directed_hausdorff(Zonotope(oc, og), Zonotope(ic, ig))
            want = oracles.directed_hausdorff_oracle_2d(oc, og, ic, ig)
            assert got == pytest.approx(want, abs=1e-6)


class TestSupportProperties:
    @settings(max_examples=80, deadline=None)
    @given(gen_matrix(2), gen_matrix(2), vec(2), vec(2), vec(2))
    def test_minkowski_support_additivity(self, G1, G2, c1, c2, d):
        Z1, Z2 = Zonotope(c1, G1), Zonotope(c2, G2)
        s = minkowski_sum(Z1, Z2)
        assert oracles.support(s, d) == pytest.approx(
            oracles.support(Z1, d) + oracles.support(Z2, d), abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.float64, (2, 2), elements=finite), gen_matrix(2), vec(2),
           vec(2))
    def test_affine_map_support_identity(self, A, G, c, d):
        Z = Zonotope(c, G)
        mapped = oracles.affine_map(A, Z)
        assert oracles.support(mapped, d) == pytest.approx(oracles.support(Z, A.T @ d),
                                                           abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(gen_matrix(3, pmax=6), vec(3))
    def test_box_reduction_preserves_interval_hull(self, G, c):
        Z = Zonotope(c, G)
        lo, hi = oracles.interval_hull(Z)
        rlo, rhi = oracles.interval_hull(order_reduce_box(Z))
        assert np.allclose(lo, rlo) and np.allclose(hi, rhi)


class TestMembershipEmitter:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_rows_match_rowwise_reference(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        p = data.draw(st.integers(1, 4), label="p")
        G = data.draw(arrays(np.float64, (n, p),
                             elements=st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0])))
        Z = Zonotope(data.draw(vec(n)), G)
        x = data.draw(vec(n))
        fast, zeta, point = membership_lp(Z, x)
        ref, zeta_ref, point_ref = oracles.membership_lp_rowwise(Z, x)
        assert np.array_equal(fast._senses(), ref._senses())
        for a, b in zip(fast._assemble(), ref._assemble()):
            assert a.shape == b.shape and np.array_equal(a, b)
        assert np.array_equal(zeta, [_column(e) for e in zeta_ref])
        assert np.array_equal(point, [_column(e) for e in point_ref])
        got, want = fast.solve(), ref.solve()
        assert got.status == want.status
        if oracles.is_optimal(got):
            assert np.allclose(got.column_values(zeta), oracles.value(want, zeta_ref),
                               rtol=0, atol=1e-12)


def _oracle_membership(Z, x, tol=1e-9):
    """(inside, optimum) from a fresh row-at-a-time membership LP."""
    lp, _, _ = oracles.membership_lp_rowwise(Z, x)
    sol = lp.solve()
    if not oracles.is_optimal(sol):
        return False, None
    return sol.objective <= 1.0 + tol, sol.objective


class TestBatchedMembership:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stack_matches_a_fresh_lp_per_point(self, seed, monkeypatch):
        # rank-2 generators in R^3 with a zero and a repeated column: points
        # off their span are infeasible, scaled-up ones feasible but outside
        rng = np.random.default_rng(seed)
        B = rng.uniform(-1.5, 1.5, (3, 2))
        G = np.column_stack([B[:, 0], np.zeros(3), B[:, 1], B[:, 0],
                             B @ rng.uniform(-1, 1, 2)])
        Z = Zonotope(rng.uniform(-1, 1, 3), G)
        normal = np.cross(B[:, 0], B[:, 1])
        zetas = rng.uniform(-1.0, 1.0, (12, G.shape[1]))
        # 1.5 x a vertex that maximizes d.x: past the support in direction d
        d = rng.uniform(-1.0, 1.0, (3, 2)) @ B.T
        zetas[:3] = 1.5 * np.sign(d @ G)
        points = Z.center + zetas @ G.T
        points[3] += normal            # off the span: infeasible
        tol = 1e-9
        calls = []
        real = membership_lp
        monkeypatch.setattr("zonosynth.geom.membership_lp",
                            lambda *a: calls.append(1) or real(*a))
        with lpcore.track_solver_time() as tracker:
            inside, wit = contains_point(Z, points, tol=tol)
        assert len(calls) == 1 and tracker.solves == len(points)
        assert inside.dtype == bool and wit.shape == (len(points), G.shape[1])
        assert not inside[:4].any() and inside[4:].all()
        for s, x in enumerate(points):
            want, optimum = _oracle_membership(Z, x, tol)
            assert inside[s] == want
            if want:
                assert np.abs(wit[s]).max() <= 1.0 + tol
                assert np.abs(wit[s]).max() == pytest.approx(optimum, abs=1e-7)
                assert np.allclose(Z.center + G @ wit[s], x, rtol=0, atol=1e-7)
            else:
                assert np.isnan(wit[s]).all()
            one, zeta = contains_point(Z, x, tol=tol)
            assert one == want and (zeta is None) == (not want)

    def test_zero_generators_and_empty_stack(self):
        Z = oracles.point_zonotope([1.0, 2.0])
        inside, wit = contains_point(Z, [[1.0, 2.0], [1.0, 2.5]])
        assert inside.tolist() == [True, False] and wit.shape == (2, 0)
        Z = Zonotope([0.0], [[1.0]])
        inside, wit = contains_point(Z, np.zeros((0, 1)))
        assert inside.shape == (0,) and wit.shape == (0, 1)

    def test_zero_generators_use_an_absolute_tolerance(self):
        # 5e-3 off a center of 1000 is outside at tol 1e-9, whatever the
        # center's magnitude
        Z = Zonotope([1000.0], np.zeros((1, 0)))
        assert contains_point(Z, [1000.005]) == (False, None)
        inside, zeta = contains_point(Z, [1000.0 + 1e-10])
        assert inside and zeta.shape == (0,)
        inside, wit = contains_point(Z, [[1000.005], [1000.0], [999.995]])
        assert inside.tolist() == [False, True, False] and wit.shape == (3, 0)


def _contained_inner(rng, cols, scales):
    """A zonotope inside Z(0, cols Diag(scales)), with its witness [Lam lam]."""
    s = cols.shape[1]
    L = rng.uniform(-1.0, 1.0, (s, int(rng.integers(0, 4)) + 1))
    L *= (scales / np.maximum(np.abs(L).sum(axis=1), 1e-12))[:, None]
    return Zonotope(-cols @ L[:, -1], cols @ L[:, :-1]), L


class TestHausdorffBound:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bounds_the_lp_from_above_for_any_candidate(self, data):
        n = data.draw(st.integers(1, 3), label="n")
        s = data.draw(st.integers(1, 3), label="s")
        r = data.draw(st.integers(0, 3), label="r")
        cols = data.draw(arrays(np.float64, (n, s), elements=finite))
        scales = data.draw(arrays(np.float64, (s,), elements=st.floats(0.0, 2.0)))
        inner = Zonotope(data.draw(vec(n)),
                         data.draw(arrays(np.float64, (n, r), elements=finite)))
        center = data.draw(vec(n))
        L = data.draw(arrays(np.float64, (s, r + 1), elements=finite))
        bound = hausdorff_bound(inner, center, cols, scales, L)
        assert bound >= directed_hausdorff(Zonotope(center, cols * scales), inner) - 1e-9

    def test_bounds_the_lp_on_a_nearly_flat_segment(self):
        # a falsifying example of the property above: the exact distance is
        # 2 - 1.678e-9, which the LP at HiGHS's default 1e-7 feasibility
        # tolerances rounded to 2.0
        cols = np.array([[1.0], [-1.678e-9]])
        inner = Zonotope(np.array([0.0, -2.0]), np.zeros((2, 0)))
        bound = hausdorff_bound(inner, np.zeros(2), cols, np.ones(1), np.array([[-1.0]]))
        assert bound == pytest.approx(2.0 - 1.678e-9, rel=0, abs=1e-15)
        assert bound >= directed_hausdorff(Zonotope(np.zeros(2), cols), inner) - 1e-9

    def test_containment_lp_witness_certifies(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, s = rng.integers(1, 4, size=2)
            cols = rng.uniform(-1.5, 1.5, (n, s))
            scales = rng.uniform(0.2, 1.5, s)
            inner, _ = _contained_inner(rng, cols, scales)
            lp = LinearProgram(name="ct")
            body = numbers(np.column_stack([inner.generators, inner.center]))
            handles = add_scaled_containment(lp, body, cols, numbers(scales), np.zeros(n))
            sol = lp.solve()
            assert oracles.is_optimal(sol)
            L = witness_values(sol, {"ct": handles})["ct"]
            bound = hausdorff_bound(inner, np.zeros(n), cols, scales, L)
            assert bound <= 1e-7
            assert bound >= directed_hausdorff(Zonotope(np.zeros(n), cols * scales),
                                               inner) - 1e-9

    def test_hausdorff_lp_witness_is_tight(self):
        # the Hausdorff LP's own witness, cut to the outer columns, charges
        # exactly the box part to the residual: the bound is the LP optimum
        rng = np.random.default_rng(9)
        for _ in range(20):
            n, s, r = rng.integers(1, 4, size=3)
            cols = rng.uniform(-1.5, 1.5, (n, s))
            scales = rng.uniform(0.0, 1.5, s)
            center = rng.uniform(-1, 1, n)
            inner = Zonotope(rng.uniform(-1, 1, n), rng.uniform(-1.5, 1.5, (n, r)))
            lp = LinearProgram(name="dh")
            d = lp.var_block((), lb=0.0)
            handles = add_scaled_containment(
                lp, numbers(np.column_stack([inner.generators, inner.center])),
                np.hstack([cols * scales, np.eye(n)]),
                affine(np.r_[np.full(s, -1), np.full(n, d)], 1.0, np.r_[np.ones(s), np.zeros(n)]),
                center)
            lp.set_costs([d], 1.0)
            sol = lp.solve()
            L = witness_values(sol, {"dh": handles})["dh"][:s] * scales[:, None]
            bound = hausdorff_bound(inner, center, cols, scales, L)
            assert bound == pytest.approx(sol.objective, abs=1e-7)
            assert bound >= directed_hausdorff(Zonotope(center, cols * scales),
                                               inner) - 1e-9

    def test_exact_on_intervals_with_the_unique_witness(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            scale = rng.uniform(0.0, 1.5)
            oc, ic = rng.uniform(-1, 1, (2, 1))
            ig = rng.uniform(-1.5, 1.5, (1, int(rng.integers(0, 4))))
            L = np.hstack([ig, (oc - ic)[:, None]]) / g
            bound = hausdorff_bound(Zonotope(ic, ig), oc, [[g]], [scale], L)
            want = oracles.directed_hausdorff_oracle_1d(oc, [[g * scale]], ic, ig)
            assert bound == pytest.approx(want, abs=1e-12)

    def test_exact_on_boxes_with_the_unique_witness(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            g = rng.choice([-1.0, 1.0], 2) * rng.uniform(0.2, 2.0, 2)
            cols = np.diag(g)[:, rng.permutation(2)]
            scales = rng.uniform(0.0, 1.5, 2)
            oc, ic = rng.uniform(-1, 1, (2, 2))
            ig = rng.uniform(-1.5, 1.5, (2, int(rng.integers(1, 4))))
            L = np.linalg.solve(cols, np.hstack([ig, (oc - ic)[:, None]]))
            bound = hausdorff_bound(Zonotope(ic, ig), oc, cols, scales, L)
            want = oracles.directed_hausdorff_oracle_2d(oc, cols * scales, ic, ig)
            assert bound == pytest.approx(want, abs=1e-9)

    def test_strict_on_a_sheared_parallelotope(self):
        # the witness is unique, yet its row excesses are charged to every
        # row of |C| at once: 2 here, against a true distance of 1
        cols = np.array([[1.0, 0.0], [1.0, 1.0]])
        inner = Zonotope([1.0, 2.0], [[1.0], [0.0]])  # from C(2, 0) to C(0, 2)
        L = np.linalg.solve(cols, np.hstack([inner.generators,
                                             -inner.center[:, None]]))
        bound = hausdorff_bound(inner, np.zeros(2), cols, np.ones(2), L)
        assert bound == pytest.approx(2.0)
        assert directed_hausdorff(Zonotope(np.zeros(2), cols), inner) == pytest.approx(1.0)
        assert oracles.directed_hausdorff_oracle_2d(
            np.zeros(2), cols, inner.center, inner.generators) == pytest.approx(1.0)

    @pytest.mark.parametrize("n, s, r", [(1, 1, 0), (1, 3, 2), (2, 1, 1), (2, 2, 3), (3, 4, 6)])
    def test_a_stack_bounds_each_containment_bit_for_bit(self, n, s, r):
        # the bound on (g, ...) stacks is the 2-D formula's, containment by
        # containment, whatever the shape's matrix-product path
        rng = np.random.default_rng(n * 100 + s * 10 + r)
        g = 7
        G, c, center = rng.normal(size=(g, n, r)), rng.normal(size=(g, n)), rng.normal(size=(g, n))
        cols, scales = rng.normal(size=(g, n, s)), rng.uniform(0.1, 2.0, size=(g, s))
        L = rng.normal(size=(g, s, r + 1))
        got = hausdorff_bound((G, c), center, cols, scales, L)
        assert got.shape == (g,)
        for e in range(g):
            want = oracles.hausdorff_bound_one(Zonotope(c[e], G[e]), center[e], cols[e],
                                               scales[e], L[e])
            assert got[e].hex() == want.hex()
            assert hausdorff_bound(Zonotope(c[e], G[e]), center[e], cols[e], scales[e],
                                   L[e]).hex() == want.hex()

    def test_missing_or_misshapen_candidate_is_infinite(self):
        inner = Zonotope([0.0, 0.0], np.eye(2))
        assert hausdorff_bound(inner, np.zeros(2), np.eye(2), np.ones(2), None) == np.inf
        assert hausdorff_bound(inner, np.zeros(2), np.eye(2), np.ones(2),
                               np.zeros((2, 2))) == np.inf
        assert hausdorff_bound(inner, np.zeros(3), np.eye(3), np.ones(3),
                               np.zeros((3, 3))) == np.inf
        exact = np.hstack([np.eye(2), np.zeros((2, 1))])
        assert hausdorff_bound(inner, np.zeros(2), np.eye(2), np.ones(2), exact) == 0.0
