"""Every file under ``scripts/`` imports as a module.

No other test runs the scripts, so this is where a name one of them reads
from ``zonosynth`` fails when it is renamed or deleted.  Each script guards
its ``main()``, so importing one runs nothing.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert len(SCRIPTS) >= 5


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_script_imports_as_a_module(path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may put src/ first
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
