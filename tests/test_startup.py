"""Start-up: each entry point loads only the modules it runs.

Every CLI call, test subprocess and pool worker starts a fresh
interpreter, and most of a warm answer is imports.  These tests pin,
each in a fresh interpreter, which modules an import loads: the package
roots resolve their names on first use, the CLI imports a command's
dependencies in its handler, and the Chapter 4 path loads no Chapter 5
runner, process pool, MEMSpot oracle or cycle-level DRAM model.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The imports a Chapter 4 cell needs up front (the benchmark's set-up).
CH4_IMPORTS = "import repro.analysis.specs, repro.campaign.engine"


def _fresh(code: str, **env: str):
    """Run ``code`` in a fresh interpreter (``json`` and ``sys``
    imported); returns the JSON its last output line holds."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}"],
        env={**os.environ, **env, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(imports: str) -> list[str]:
    """Every module loaded in a fresh interpreter after ``imports``."""
    return _fresh(f"{imports}\nprint(json.dumps(sorted(sys.modules)))")


def _loaded_packages(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    return [
        name for name in modules
        if any(name == p or name.startswith(p + ".") for p in packages)
    ]


def test_importing_errors_loads_no_other_repro_module():
    modules = _loaded_after("import repro.errors")
    assert _loaded_packages(modules, ("repro",)) == ["repro", "repro.errors"]


def test_the_cli_loads_no_service_jobs_dram_or_testbed_runner():
    modules = _loaded_after("import repro.cli")
    assert _loaded_packages(modules, (
        "repro.jobs", "repro.api.service", "repro.dram",
        "repro.testbed.runner", "http.server", "ssl",
    )) == []


def test_the_jobs_client_loads_no_simulator_or_scheduler():
    """``repro jobs`` talks to a service over HTTP: its client loads the
    HTTP helper, not the Chapter 4 simulator or the job scheduler."""
    modules = _loaded_after("import repro.jobs.client")
    assert _loaded_packages(modules, (
        "repro.core", "repro.campaign", "repro.jobs.scheduler",
        "repro.jobs.queue", "repro.jobs.store",
    )) == []
    assert "repro.api.http" in modules


def test_the_service_loads_the_testbed_runner_before_it_serves():
    """/v1/server and Chapter 5 jobs run the testbed simulator; the
    service pays for importing it at start-up, not in a request."""
    modules = _loaded_after("import repro.api.service")
    assert _loaded_packages(modules, (
        "repro.testbed.runner", "repro.testbed.performance",
    )) == ["repro.testbed.performance", "repro.testbed.runner"]


def test_the_chapter4_path_loads_no_chapter5_pool_or_oracle_module():
    # repro.cluster too: a serial run never starts the process pool.
    modules = _loaded_after(f"{CH4_IMPORTS}, repro.cluster")
    assert _loaded_packages(modules, (
        "repro.dram", "repro.testbed.runner", "repro.core.memspot",
        "concurrent.futures.process",
    )) == []


@pytest.mark.parametrize("store", ["null", "default"])
def test_a_chapter4_cell_loads_nothing_its_imports_did_not(store, tmp_path):
    """The set-up imports carry everything a cell runs, so no import
    lands inside a cell's timed region."""
    store_arg = "NullStore()" if store == "null" else "None"
    new_modules = _fresh(f"""
{CH4_IMPORTS}
before = set(sys.modules)
from repro.analysis.specs import Chapter4Spec
from repro.campaign.engine import run_cell
from repro.campaign.stores.base import NullStore
outcome = run_cell(Chapter4Spec(mix="W1", policy="ts", copies=1), {store_arg})
assert outcome.payload["runtime_s"] > 0
print(json.dumps(sorted(set(sys.modules) - before)))
""", REPRO_CACHE_DIR=str(tmp_path / "cache"))
    assert new_modules == []
