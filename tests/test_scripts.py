"""Every file under ``scripts/`` imports as a module, and the finite case
study runs end to end.

This is where a name one of the scripts reads from ``zonosynth`` fails
when it is renamed or deleted.  Each script guards its ``main()``, so
importing one runs nothing.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_scripts_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports_as_a_module(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may put src/ first
    assert callable(load(path).main)


def test_run_case2_rechecks_every_viable_set(tmp_path, monkeypatch, capsys):
    # centralized case2, each of its 48 viable sets re-checked inside its
    # bound by the Hausdorff LP, and the tube CSVs written
    monkeypatch.setattr(sys, "path", list(sys.path))
    (path,) = [p for p in SCRIPTS if p.stem == "run_case2"]
    try:
        load(path).main(["--out", str(tmp_path)])
    except SystemExit as exc:
        assert exc.code in (None, 0), capsys.readouterr().out
    out = capsys.readouterr().out
    assert out.startswith("status correct")
    worst = re.search(r"worst distance to a bound (\S+)", out)
    assert worst and float(worst.group(1)) <= 1e-9
    assert out.count("viable sets inside their bounds") == 3
    csvs = sorted(p.name for p in tmp_path.glob("viable_*.csv"))
    assert len(csvs) == 48 and "viable_1_t0.csv" in csvs
