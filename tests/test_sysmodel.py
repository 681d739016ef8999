"""Network model tests: JSON round trips, validation, generators, aggregation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zonosynth.geom import Zonotope
from zonosynth.sysmodel import (
    ConfigError,
    aggregate,
    load_network,
    network_from_points,
    network_to_dict,
    random_network,
    save_network,
    stacked_slices,
)

import oracles


def tiny_config(mode="infinite", horizon=None):
    cfg = {
        "mode": mode,
        "subsystems": [
            {"id": 0,
             "A": [[1.0, 0.1], [0.0, 1.0]],
             "B": [[0.0], [1.0]],
             "X": {"center": [0, 0], "generators": [[2, 0], [0, 2]]},
             "U": {"center": [0], "generators": [[1]]},
             "D": {"center": [0, 0], "generators": [[0.1, 0], [0, 0.1]]},
             "couplings": [{"to": 1, "A": [[0.01, 0], [0, 0.01]]}]},
            {"id": 1,
             "A": [[1.0, 0.0], [0.0, 0.9]],
             "B": [[1.0], [0.0]],
             "X": {"center": [0, 0], "generators": [[3, 0], [0, 3]]},
             "U": {"center": [0], "generators": [[2]]},
             "D": {"center": [0, 0], "generators": [[0.2, 0], [0, 0.2]]}},
        ],
    }
    if horizon is not None:
        cfg["horizon"] = horizon
    return cfg


class TestLoading:
    def test_basic_load(self):
        net = load_network(tiny_config())
        assert net.mode == "infinite"
        assert net.sorted_ids() == [0, 1]
        s0 = net.subsystem(0)
        assert s0.n == 2 and s0.m == 1
        assert list(s0.couplings) == [1]
        assert np.allclose(s0.couplings[1].A_at(0), 0.01 * np.eye(2))

    def test_finite_mode_expands_constant_blocks(self):
        net = load_network(tiny_config(mode="finite", horizon=5))
        s0 = net.subsystem(0)
        assert len(s0.A) == 5 and len(s0.X) == 6 and len(s0.U) == 5
        assert s0.A_at(3) is s0.A_at(0)  # expansion shares the same array

    def test_per_step_sequences(self):
        cfg = tiny_config(mode="finite", horizon=2)
        sub = cfg["subsystems"][0]
        sub["A"] = [[[1.0, 0.1], [0.0, 1.0]], [[1.0, 0.2], [0.0, 1.0]]]
        sub["X"] = [{"center": [0, 0], "generators": [[k, 0], [0, k]]}
                    for k in (3, 2, 1)]
        net = load_network(cfg)
        s0 = net.subsystem(0)
        assert s0.A_at(1)[0, 1] == pytest.approx(0.2)
        assert s0.X_at(2).generators[0, 0] == pytest.approx(1.0)

    def test_round_trip_is_structurally_identical(self, tmp_path):
        net = load_network(tiny_config(mode="finite", horizon=3))
        path = tmp_path / "net.json"
        save_network(net, path)
        net2 = load_network(path)
        assert network_to_dict(net) == network_to_dict(net2)

    def test_load_from_json_string(self):
        net = load_network(json.dumps(tiny_config()))
        assert len(net.subsystems) == 2


class TestValidation:
    def test_missing_field(self):
        cfg = tiny_config()
        del cfg["subsystems"][0]["U"]
        with pytest.raises(ConfigError, match="missing field 'U'"):
            load_network(cfg)

    def test_bad_coupling_shape(self):
        cfg = tiny_config()
        cfg["subsystems"][0]["couplings"][0]["A"] = [[1.0]]
        with pytest.raises(ConfigError, match="coupling A"):
            load_network(cfg)

    def test_unknown_coupling_target(self):
        cfg = tiny_config()
        cfg["subsystems"][0]["couplings"][0]["to"] = 99
        with pytest.raises(ConfigError, match="unknown subsystem id"):
            load_network(cfg)

    def test_duplicate_ids(self):
        cfg = tiny_config()
        cfg["subsystems"][1]["id"] = 0
        with pytest.raises(ConfigError, match="duplicate"):
            load_network(cfg)

    def test_finite_requires_horizon(self):
        cfg = tiny_config(mode="finite")
        with pytest.raises(ConfigError, match="horizon"):
            load_network(cfg)

    def test_wrong_sequence_length(self):
        cfg = tiny_config(mode="finite", horizon=4)
        cfg["subsystems"][0]["A"] = [[[1.0, 0.0], [0.0, 1.0]]] * 3  # 3 != 4
        with pytest.raises(ConfigError, match="expected 1 or 4"):
            load_network(cfg)

    def test_set_dimension_mismatch(self):
        cfg = tiny_config()
        cfg["subsystems"][0]["D"] = {"center": [0], "generators": [[1]]}
        with pytest.raises(ConfigError, match=r"D\[0\] dim"):
            load_network(cfg)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_network("/nonexistent/net.json")

    def test_entries_that_are_not_objects(self):
        with pytest.raises(ConfigError, match="subsystem entries must be objects"):
            load_network({"subsystems": [1]})
        cfg = tiny_config()
        cfg["subsystems"][0]["couplings"] = [3]
        with pytest.raises(ConfigError, match="coupling entries must be objects"):
            load_network(cfg)
        cfg["subsystems"][0]["couplings"] = {"to": 1}
        with pytest.raises(ConfigError, match="couplings must be a list"):
            load_network(cfg)

    @pytest.mark.parametrize("horizon", ["3", 2.5, 0])
    def test_finite_horizon_must_be_a_positive_integer(self, horizon):
        with pytest.raises(ConfigError, match="integer horizon"):
            load_network(tiny_config(mode="finite", horizon=horizon))


class TestInputCouplingDetection:
    def test_state_only_couplings(self):
        net = load_network(tiny_config())
        assert not net.has_outgoing_input_coupling(1)

    def test_input_coupling_seen_from_source(self):
        cfg = tiny_config()
        cfg["subsystems"][0]["couplings"][0]["B"] = [[0.5], [0.0]]
        net = load_network(cfg)
        assert net.has_outgoing_input_coupling(1)  # sub 0 reads u_1
        assert not net.has_outgoing_input_coupling(0)

    def test_zero_input_coupling_ignored(self):
        cfg = tiny_config()
        cfg["subsystems"][0]["couplings"][0]["B"] = [[0.0], [0.0]]
        net = load_network(cfg)
        assert not net.has_outgoing_input_coupling(1)


class TestGeometricFamily:
    def test_neighbor_rule_is_strict(self):
        # 0-1 are 5 apart (< 10, neighbors), 1-2 exactly 10 apart (not)
        points = [(0.0, 0.0), (5.0, 0.0), (15.0, 0.0)]
        net = network_from_points(points, lam=1.0)
        assert set(net.subsystem(0).couplings) == {1}
        assert set(net.subsystem(1).couplings) == {0}  # 1-2 are exactly 10 apart
        assert set(net.subsystem(2).couplings) == set()
        net2 = network_from_points([(0, 0), (10.0, 0.0)], lam=1.0)
        assert not net2.subsystem(0).couplings

    def test_coupling_strength_decays_with_distance(self):
        points = [(0.0, 0.0), (4.0, 0.0)]
        net = network_from_points(points, lam=0.5)
        A01 = net.subsystem(0).couplings[1].A_at(0)
        assert np.allclose(A01, 0.5 / 5.0 * np.ones((2, 2)))

    def test_default_family_shapes(self):
        net = random_network(4, lam=0.1, seed=7)
        s = net.subsystems[0]
        assert s.n == 2 and s.m == 1
        assert s.X[0].num_generators == 3
        assert np.allclose(s.A_at(0), [[1.0, 1.2], [0.0, 1.0]])

    def test_random_network_is_deterministic(self):
        a = network_to_dict(random_network(6, lam=0.1, seed=3))
        b = network_to_dict(random_network(6, lam=0.1, seed=3))
        assert a == b
        c = network_to_dict(random_network(6, lam=0.1, seed=4))
        assert c != a


def assert_same_network(got, want):
    """Bitwise equal: neighbour ids in the same order, the same coupling
    bytes, the same serialized network."""
    assert len(got.subsystems) == len(want.subsystems)
    for a, b in zip(got.subsystems, want.subsystems):
        assert list(a.couplings) == list(b.couplings)
        for j in a.couplings:
            assert a.couplings[j].A[0].tobytes() == b.couplings[j].A[0].tobytes()
    assert json.dumps(network_to_dict(got)) == json.dumps(network_to_dict(want))


coordinates = st.one_of(
    st.floats(-40.0, 40.0, allow_nan=False),  # generic distances
    st.integers(-12, 12).map(float),  # ties: exact distances such as 5 and 10
    st.sampled_from([0.0, 1e-170, -1e-170, 1e-300]),  # coincident and underflowing
)
radii = st.one_of(st.floats(0.0, 60.0), st.sampled_from([0.0, 5.0, 10.0, 13.0, 1e-160]))


class TestNeighbourPrefilter:
    @settings(max_examples=150, deadline=None)
    @given(points=st.integers(1, 14).flatmap(
               lambda n: arrays(np.float64, (n, 2), elements=coordinates)),
           radius=radii, lam=st.floats(0.01, 2.0))
    def test_matches_pairwise_reference(self, points, radius, lam):
        assert_same_network(network_from_points(points, lam, radius=radius),
                            oracles.network_from_points_pairwise(points, lam, radius=radius))

    @pytest.mark.parametrize("radius", [10.0, 0.1, 3.7, 1e-150, 1e150])
    def test_pair_at_radius_is_out_and_just_inside_is_in(self, radius):
        inside = np.nextafter(radius, 0.0)
        points = [(0.0, 0.0), (radius, 0.0), (0.0, inside)]
        net = network_from_points(points, lam=1.0, radius=radius)
        assert list(net.subsystem(0).couplings) == [2]
        assert_same_network(net, oracles.network_from_points_pairwise(points, 1.0, radius=radius))

    def test_one_point_radius_zero_and_custom_template(self):
        template = {"A_ii": [[0.5, 0.0], [0.1, 0.5]], "B_ii": [[1.0], [0.0]]}
        for points in ([(1.0, 2.0)], [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]):
            for radius in (0.0, 10.0):
                got = network_from_points(points, 0.3, radius=radius, template=template)
                assert_same_network(got, oracles.network_from_points_pairwise(
                    points, 0.3, radius=radius, template=template))
                assert np.array_equal(got.subsystems[0].A_at(0), template["A_ii"])
                if radius == 0.0:
                    assert all(not s.couplings for s in got.subsystems)


def test_empty_network_is_rejected():
    with pytest.raises(ConfigError, match="non-empty subsystems"):
        random_network(0, 0.1)
    with pytest.raises(ConfigError, match="non-empty subsystems"):
        network_from_points([], 0.1)


class TestAggregate:
    def test_case1_config_reassembles_printed_matrix(self):
        net = load_network("configs/case1.json")
        agg = aggregate(net)
        want = np.array([
            [1, 1.1, 0.1, 0.01, 0.8, 0.1],
            [0, 1, 0.1, 0.01, 0.8, 0.1],
            [0.1, 0.01, 1, 1.1, 0.4, 0.01],
            [0.1, 0.01, 0, 1, 0.4, 0.01],
            [0.02, 0.0001, 0.01, 0.0001, 1, 1.1],
            [0.02, 0.0001, 0.01, 0.0001, 1, 1],
        ])
        assert np.allclose(agg.A[0], want)
        assert agg.B[0].shape == (6, 3)
        assert np.allclose(agg.B[0][:2, 0], [0.0, 0.1])
        assert agg.X[0].dim == 6 and agg.X[0].num_generators == 6
        assert agg.sid == "aggregate" and agg.n == 6 and agg.m == 3
        assert stacked_slices(net)[0][2] == slice(2, 4)

    def test_aggregate_finite_sequences(self):
        net = load_network("configs/case2.json")
        agg = aggregate(net)
        assert len(agg.A) == 15 and len(agg.X) == 16
        # off-diagonal coupling blocks present
        assert np.allclose(agg.A[0][0, 2:4], [0.002, 0.002])
        # X_3 radius shrinks linearly: 5 - t/5
        assert agg.X[10].generators[4, 4] == pytest.approx(3.0)

    def test_input_coupling_lands_in_B(self):
        cfg = tiny_config()
        cfg["subsystems"][0]["couplings"][0]["B"] = [[0.5], [0.0]]
        agg = aggregate(load_network(cfg))
        assert agg.B[0][0, 1] == pytest.approx(0.5)
