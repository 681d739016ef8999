"""End-to-end checks of the command-line frontend."""

import csv
import json

import numpy as np
import pytest

from zonosynth import cli, lpcore
from zonosynth.cli import lambda_for, main
from zonosynth.sysmodel import load_network


@pytest.fixture(scope="module")
def case1_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "case1"
    code = main(["synth", "--config", "configs/case1.json",
                 "--mode", "infinite", "--method", "compositional",
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def case2_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "case2"
    code = main(["synth", "--config", "configs/case2.json",
                 "--mode", "finite", "--method", "centralized",
                 "--out", str(out)])
    assert code == 0
    return out


def unsatisfiable_config(path):
    """1-D system with no usable input: no bounded invariant tube exists."""
    path.write_text(json.dumps({
        "mode": "infinite",
        "subsystems": [{
            "id": 0,
            "A": [[2.0]],
            "B": [[0.0]],
            "X": {"center": [0.0], "generators": [[1.0]]},
            "U": {"center": [0.0], "generators": [[1.0]]},
            "D": {"center": [0.0], "generators": [[0.1]]},
            "couplings": [],
        }],
    }))
    return path


# ---------------------------------------------------------------------------
# synth exit codes


def test_synth_writes_report_and_exits_zero(case1_dir, capsys):
    with open(case1_dir / "report.json") as fh:
        report = json.load(fh)
    assert report["status"] == "correct"
    assert report["V"] <= 1e-6


def test_synth_failed_prints_hint(tmp_path, capsys):
    cfg = unsatisfiable_config(tmp_path / "bad.json")
    code = main(["synth", "--config", str(cfg), "--method", "compositional"])
    out = capsys.readouterr().out
    assert code == 1
    assert "increase k" in out
    assert "status: failed" in out


def test_synth_centralized_failure_also_exits_one(tmp_path, capsys):
    cfg = unsatisfiable_config(tmp_path / "bad.json")
    code = main(["synth", "--config", str(cfg), "--method", "centralized"])
    assert code == 1
    assert "increase k" in capsys.readouterr().out


def test_synth_solver_error_exits_one_with_reason(monkeypatch, capsys):
    # e.g. the centralized driver's non-optimal, non-infeasible LP status
    def broken(network, **kwargs):
        raise lpcore.LpSolverError("centralized LP ended with time_limit")

    monkeypatch.setattr(cli, "centralized_synthesize", broken)
    code = main(["synth", "--config", "configs/case2.json",
                 "--mode", "finite", "--method", "centralized"])
    captured = capsys.readouterr()
    assert code == 1
    assert "solver error: centralized LP ended with time_limit" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_synth_missing_config_exits_two(capsys):
    code = main(["synth", "--config", "/no/such/file.json"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_synth_unparseable_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["synth", "--config", str(cfg)]) == 2


def test_synth_mode_mismatch_exits_two(capsys):
    code = main(["synth", "--config", "configs/case1.json",
                 "--mode", "finite"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_synth_beta_needs_dense_method(capsys):
    code = main(["synth", "--config", "configs/case1.json", "--beta", "0.2"])
    assert code == 2


@pytest.mark.parametrize("method,flag,order", [
    ("compositional", [], 1), ("compositional", ["--reduce-order", "0"], None),
    ("compositional", ["--reduce-order", "2"], 2), ("centralized", [], None),
    ("centralized", ["--reduce-order", "0"], None), ("centralized", ["--reduce-order", "1"], 1),
])
def test_synth_reduce_order_zero_means_exact_columns(monkeypatch, method, flag, order):
    seen = []

    def spy(network, mode=None, config=None, reduction_order="unset", **kwargs):
        seen.append(config.reduction_order if config else reduction_order)
        raise lpcore.LpSolverError("stop")

    monkeypatch.setattr(cli, f"{method}_synthesize", spy)
    assert main(["synth", "--config", "configs/case1.json", "--method", method, *flag]) == 1
    assert seen == [order]


@pytest.mark.parametrize("flags, rule, line_search, delta", [
    ([], "level", True, 1.0),
    (["--rule", "level"], "level", True, 1.0),
    (["--rule", "polyak"], "subgradient", True, 1.0),
    (["--rule", "fixed"], "subgradient", False, 1.0),
    (["--rule", "fixed", "--step", "0.25"], "subgradient", False, 0.25),
])
def test_synth_rule_maps_onto_the_descent_config(monkeypatch, flags, rule,
                                                  line_search, delta):
    seen = []

    def spy(network, mode=None, config=None):
        seen.append((config.rule, config.line_search, config.delta))
        raise lpcore.LpSolverError("stop")

    monkeypatch.setattr(cli, "compositional_synthesize", spy)
    assert main(["synth", "--config", "configs/case1.json", *flags]) == 1
    assert seen == [(rule, line_search, delta)]


@pytest.mark.parametrize("flags", [[], ["--rule", "level"], ["--rule", "polyak"],
                                   ["--method", "centralized"]])
def test_synth_step_without_fixed_rule_exits_two(flags, capsys):
    code = main(["synth", "--config", "configs/case1.json", "--step", "0.5", *flags])
    assert code == 2
    assert "--step is the step size of --rule fixed" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["compositional", "centralized"])
def test_synth_negative_reduce_order_exits_two(method, capsys):
    code = main(["synth", "--config", "configs/case1.json", "--method", method,
                 "--reduce-order", "-1"])
    assert code == 2
    assert "--reduce-order must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["compositional", "centralized"])
def test_synth_reduce_order_zero_runs_with_exact_columns(monkeypatch, method, capsys):
    # the real drivers take --reduce-order 0 as exact columns, not as an
    # order below 1
    from zonosynth import synthesis

    seen = []
    emit = synthesis.emit_subsystem
    build = synthesis.build_programs

    def emit_spy(*args, reduction_order, **kwargs):
        seen.append(reduction_order)
        return emit(*args, reduction_order=reduction_order, **kwargs)

    def build_spy(*args, reduction_order, **kwargs):
        seen.append(reduction_order)
        return build(*args, reduction_order=reduction_order, **kwargs)

    monkeypatch.setattr(synthesis, "emit_subsystem", emit_spy)
    monkeypatch.setattr(synthesis, "build_programs", build_spy)
    code = main(["synth", "--config", "configs/case1.json", "--method", method,
                 "--reduce-order", "0"])
    assert code in (0, 1)
    assert "config error" not in capsys.readouterr().err
    assert seen and set(seen) == {None}


@pytest.mark.parametrize("method", ["compositional", "centralized", "dense"])
def test_synth_zero_k_fails_with_a_hint(method, capsys):
    code = main(["synth", "--config", "configs/case1.json", "--method", method, "--k", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status: failed" in out and "hint: " in out


@pytest.mark.parametrize("method", ["compositional", "centralized", "dense"])
def test_synth_negative_k_exits_two(method, capsys):
    code = main(["synth", "--config", "configs/case1.json", "--method", method, "--k", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: k must be >= 0, got -1" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_synth_dense_method(tmp_path):
    out = tmp_path / "dense"
    code = main(["synth", "--config", "configs/case1.json",
                 "--method", "dense", "--out", str(out)])
    assert code == 0
    with open(out / "report.json") as fh:
        assert json.load(fh)["method"] == "centralized-dense"


# ---------------------------------------------------------------------------
# gen-random


def test_gen_random_is_deterministic_and_loadable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen-random", "--n", "4", "--lambda", "0.1",
                 "--seed", "7", "--out", str(a)]) == 0
    assert main(["gen-random", "--n", "4", "--lambda", "0.1",
                 "--seed", "7", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    net = load_network(str(a))
    assert len(net.sorted_ids()) == 4


def test_gen_random_rejects_bad_counts(capsys):
    assert main(["gen-random", "--n", "0", "--lambda", "1",
                 "--out", "/tmp/x.json"]) == 2


# ---------------------------------------------------------------------------
# bench


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_bench_appends_and_reruns_identically(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    args = ["bench", "--sizes", "10", "--methods", "compositional",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 0
    rows = read_csv(out)
    assert rows[0] == ["dimension", "lambda", "method", "solver_seconds",
                       "wall_seconds", "status"]
    assert len(rows) == 3  # header written once, one row per run
    assert rows[1][0] == rows[2][0] == "10"
    assert rows[1][2] == "compositional"
    assert rows[1][5] == rows[2][5]  # same seed, same verdict


def test_bench_records_timeout(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "20", "--methods", "centralized-dense",
                 "--timeout", "0.01", "--seed", "0", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[1][5] == "time out"
    assert rows[1][3] == ""  # no solver time for a preempted run


def test_bench_uses_published_lambda_schedule(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "10", "--methods", "compositional",
                 "--timeout", "60", "--out", str(out)]) == 0
    assert read_csv(out)[1][1] == "1.0"


def test_bench_rejects_odd_dimension():
    assert main(["bench", "--sizes", "7"]) == 2


def test_bench_rejects_unknown_method():
    assert main(["bench", "--sizes", "10", "--methods", "simplex"]) == 2


def test_bench_lambda_schedule_must_pair():
    assert main(["bench", "--sizes", "10,20",
                 "--lambda-schedule", "1.0"]) == 2


def test_lambda_for_interpolates_downward():
    assert lambda_for(10) == 1.0
    assert lambda_for(100) == 0.1
    assert lambda_for(50) == 0.1        # largest tabulated size below
    assert lambda_for(2) == 1.0         # below the table: smallest size
    assert lambda_for(50000) == 1e-5    # beyond the table: largest size


# ---------------------------------------------------------------------------
# plotdata


def test_plotdata_viable_sets_inside_bounds(case2_dir):
    code = main(["plotdata", "--result", str(case2_dir),
                 "--what", "viable-sets"])
    assert code == 0
    net = load_network("configs/case2.json")
    files = sorted(case2_dir.glob("viable_*_t*.csv"))
    assert len(files) == 3 * 16
    for path in files:
        sid_token, t_token = path.stem.split("_")[1:]
        sid = next(s for s in net.sorted_ids() if str(s) == sid_token)
        X = net.subsystem(sid).X_at(int(t_token[1:]))
        half = np.abs(X.generators).sum(axis=1)
        rows = read_csv(path)
        for row in rows[1:]:
            point = np.array([float(v) for v in row])
            assert np.all(np.abs(point - X.center) <= half + 1e-7)


def test_plotdata_slice_grid_one_matches_report(case1_dir):
    code = main(["plotdata", "--result", str(case1_dir),
                 "--what", "potential-slice", "--dims", "1:0,2:0",
                 "--grid", "1"])
    assert code == 0
    rows = read_csv(case1_dir / "potential_slice.csv")
    assert rows[0] == ["a1", "a2", "V"]
    assert len(rows) == 2
    with open(case1_dir / "report.json") as fh:
        report = json.load(fh)
    assert float(rows[1][2]) == pytest.approx(report["V"], abs=1e-9)


def test_plotdata_slice_grid_shape(case1_dir, tmp_path):
    out = tmp_path / "slice"
    code = main(["plotdata", "--result", str(case1_dir),
                 "--what", "potential-slice", "--dims", "1:0,2:1",
                 "--grid", "4", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "potential_slice.csv")
    assert len(rows) == 1 + 16
    values = [float(r[2]) for r in rows[1:]]
    assert min(values) >= 0.0


def test_plotdata_slice_requires_dims(case1_dir, capsys):
    assert main(["plotdata", "--result", str(case1_dir),
                 "--what", "potential-slice"]) == 2


def test_plotdata_rejects_unknown_subsystem(case1_dir):
    assert main(["plotdata", "--result", str(case1_dir),
                 "--what", "potential-slice", "--dims", "9:0,1:0"]) == 2


def test_synth_ignores_the_old_thread_variable(monkeypatch):
    # the worker pool is gone; CONTRACT_SYNTH_THREADS is no longer read
    monkeypatch.setenv("CONTRACT_SYNTH_THREADS", "abc")
    assert main(["synth", "--config", "configs/case1.json"]) == 0


@pytest.mark.parametrize("what,dims", [("viable-sets", "a,b"), ("viable-sets", "0,7"),
                                       ("viable-sets", "-1,0"),
                                       ("potential-slice", "1:x,2:0")])
def test_plotdata_bad_dims_exit_two(case1_dir, tmp_path, capsys, what, dims):
    # case1's subsystems have 2-D states
    assert main(["plotdata", "--result", str(case1_dir), "--what", what,
                 f"--dims={dims}", "--out", str(tmp_path)]) == 2
    assert "--dims" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"subsystems": [1]},
    {"subsystems": [{"id": 1, "A": [[1.0]], "B": [[1.0]],
                     "X": {"center": [0.0], "generators": [[1.0]]},
                     "U": {"center": [0.0], "generators": [[1.0]]},
                     "D": {"center": [0.0], "generators": [[0.1]]},
                     "couplings": [3]}]},
    {"mode": "finite", "horizon": "3", "subsystems": [
        {"id": 1, "A": [[1.0]], "B": [[1.0]],
         "X": {"center": [0.0], "generators": [[1.0]]},
         "U": {"center": [0.0], "generators": [[1.0]]},
         "D": {"center": [0.0], "generators": [[0.1]]}}]},
], ids=["subsystem-not-object", "coupling-not-object", "string-horizon"])
def test_synth_malformed_config_exits_two(tmp_path, capsys, config):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["synth", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_plotdata_missing_result_exits_two(capsys):
    assert main(["plotdata", "--result", "/no/such/dir",
                 "--what", "viable-sets"]) == 2
