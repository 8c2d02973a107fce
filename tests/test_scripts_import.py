"""Every example script and figure bench imports cleanly.

Neither directory runs in the tier-1 suite, so a name they import that
the package no longer has would otherwise go unnoticed.  Importing runs
nothing: the examples guard ``__main__`` and the benches only define
pytest functions.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(ROOT.glob("examples/*.py")) + sorted(
    ROOT.glob("benchmarks/bench_*.py")
)


def test_scripts_are_found():
    assert len(SCRIPTS) > 20


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports(path, monkeypatch):
    # The benches import their shared helpers as ``_common``.
    monkeypatch.syspath_prepend(str(path.parent))
    spec = importlib.util.spec_from_file_location(
        f"_imported_{path.parent.name}_{path.stem}", path
    )
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
