"""Tests of the benchmark itself: failure accounting, tracing, hygiene.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from zonosynth import contracts, geom, synthesis, sysmodel  # noqa: E402


def _tree_digest(folder):
    digest = hashlib.sha256()
    for path, _, files in sorted(os.walk(os.path.join(ROOT, folder))):
        for name in sorted(files):
            full = os.path.join(path, name)
            digest.update(full.encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


# case1 with max_iters=1: the descent stops early and returns "failed".
FORCED_FAILURE = """
import dataclasses, sys
sys.path[:0] = [{src!r}, {here!r}]
import run, workloads
work = workloads.WORKLOADS["case1-comp"]
workloads.WORKLOADS["case1-comp"] = dataclasses.replace(
    work, knobs=dict(work.knobs, max_iters=1))
sys.exit(run.main(["--workload", "case1-comp", "--seed", "0",
                   "--seconds", "1", "--trace", "0"]))
"""


@pytest.fixture(scope="module")
def forced_failure():
    """The whole command, in its own process, on a workload that fails."""
    before = {d: _tree_digest(d) for d in ("configs", "results")}
    child = FORCED_FAILURE.format(src=os.path.join(ROOT, "src"), here=HERE)
    proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    after = {d: _tree_digest(d) for d in ("configs", "results")}
    with open(os.path.join(run.OUT, "case1-comp-seed0-trace0.json")) as fh:
        record = json.load(fh)["record"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, line, record, before, after


def test_forced_failure_raises_failed_frac_and_exit_code(forced_failure):
    code, line, record, _, _ = forced_failure
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] >= 1 and line["attempted"] >= line["failed"]
    assert any("status failed" in f for f in record["failures"])
    assert record["knobs"]["max_iters"] == 1


def test_untraced_run_never_loads_the_tracer(forced_failure):
    _, line, record, _, _ = forced_failure
    assert record["trace_module_loaded"] is False
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_run_leaves_configs_and_results_untouched(forced_failure):
    _, _, _, before, after = forced_failure
    assert before == after


def test_benchmark_json_matches_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_source_tree_exits_nonzero_without_result(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "case1-comp", "--seed", "0"]) == 2
    assert capsys.readouterr().out == ""


def _small_network():
    return sysmodel.random_network(4, 0.1, seed=3)


def test_tracer_rebinds_by_name_imports_and_restores():
    original = contracts.potential
    tracer = layertrace.LayerTrace()
    tracer.install()
    try:
        assert synthesis.potential is contracts.potential is not original
        assert synthesis.check_correctness is contracts.check_correctness
        assert contracts.directed_hausdorff is geom.directed_hausdorff
    finally:
        tracer.uninstall()
    assert synthesis.potential is contracts.potential is original
    assert not tracer.missing


def test_traced_counts_repeat_exactly():
    net = _small_network()
    tracer = layertrace.LayerTrace()
    tracer.install()
    try:
        per_call = []
        for _ in range(2):
            tracer.reset()
            result = synthesis.compositional_synthesize(
                net, config=synthesis.DescentConfig())
            per_call.append(layertrace.synthesis_metrics(
                tracer, tracer.snapshot(), 0.0, result.iterations))
    finally:
        tracer.uninstall()
    assert result.ok
    counts = [name for name, unit in run.PER_LAYER.items()
              if unit == "count" and name in per_call[0]]
    assert counts
    assert {n: per_call[0][n] for n in counts} == \
        {n: per_call[1][n] for n in counts}
    assert per_call[0]["contracts.sweeps"] == result.iterations + 1 + \
        per_call[0]["contracts.infeasible_sweeps"]
    assert per_call[0]["contracts.extract_calls"] >= 1


def test_missing_function_reads_none_not_zero(monkeypatch):
    monkeypatch.delattr(geom, "directed_hausdorff")
    tracer = layertrace.LayerTrace()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"geom.directed_hausdorff"}
    metrics = layertrace.synthesis_metrics(tracer, ({}, {}, 0), 0.0, 0)
    assert metrics["geom.hausdorff_calls"] is None
    assert metrics["geom.hausdorff_ms.p50"] is None
    assert metrics["lpcore.solves"] == 0


def test_yardstick_rescales_by_the_samples_taken_during_a_call():
    stick = yardstick.Yardstick()
    # the reference task takes twice its nominal CPU time from 1 s to 2 s
    stick.samples = [(k / 100 - 0.004, k / 100,
                      yardstick.NOMINAL_S * (2 if 100 < k <= 200 else 1))
                     for k in range(1, 400)]
    during = yardstick.Span(stick, 1.0, 2.0)
    assert during.wall == 1.0
    assert during.seconds == pytest.approx(0.5)
    # a call too short for samples of its own borrows the nearest ones
    short = yardstick.Span(stick, 1.5, 1.501)
    assert short.seconds == pytest.approx(0.0005)
    assert yardstick.Span(stick, 3.0, 3.001).seconds == pytest.approx(0.001)
    # a child process's span is rescaled by the samples just outside it
    child = yardstick.Span(stick, 1.0, 2.0, child=True)
    assert child.seconds == pytest.approx(1.0)
