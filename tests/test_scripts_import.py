"""Every example script and figure bench imports cleanly.

Neither directory runs in the tier-1 suite, so a name they import that
the package no longer has would otherwise go unnoticed.  Importing runs
nothing: the examples guard ``__main__`` and the benches only define
pytest functions.

The other way round, every ``src/repro`` module must be reachable by
imports from a run path (the CLI, the HTTP service, ``python -m
repro``, or a bench, example, tool or perfbench file): a module only
tests import is a second copy of something no run uses.  One level
down, every top-level function and class and every method of one must
be named somewhere in those files besides its own definition.
"""

import ast
import importlib.util
import re
from collections import Counter
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


# ---------------------------------------------------------------------------
# Orphan modules: every src/repro module is reachable from a run path
# ---------------------------------------------------------------------------

SRC = ROOT / "src"
#: The modules a run starts from: the CLI, the HTTP service and
#: ``python -m repro``, plus every bench, example, tool and perfbench file.
ROOT_MODULES = ("repro.cli", "repro.api.service", "repro.__main__")
ROOT_DIRS = ("benchmarks", "examples", "tools", "perfbench")


def _module_files() -> dict[str, Path]:
    """Dotted name -> file of every module and package under src/repro."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imports(path: Path, package: str) -> list[tuple[str, str | None, str]]:
    """``(module, name, bound)`` of every import in ``path`` at any
    depth: ``name`` is None for a plain ``import module``, and ``bound``
    is the name the import binds."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend(
                (alias.name, None, alias.asname or alias.name) for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.extend(
                (base, alias.name, alias.asname or alias.name) for alias in node.names
            )
    return found


def _lazy_exports(path: Path) -> dict[str, str]:
    """A lazy package's ``_EXPORTS`` table (public name -> defining
    module, relative to the package), or ``{}`` for any other file."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if (
            isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
        ):
            return ast.literal_eval(node.value)
    return {}


def _reachable() -> set[str]:
    """Every module the run-path roots import, transitively."""
    modules = _module_files()
    packages = {
        name for name, path in modules.items() if path.name == "__init__.py"
    }

    def resolve(module: str, name: str | None) -> list[str]:
        """The modules one import names.  A name a package re-exports,
        eagerly or through its lazy ``_EXPORTS`` table, leads to the
        module that defines it; the package's other imports are not
        followed."""
        if module not in modules:
            return []  # the standard library or a third-party package
        if name is None:
            return [module]
        if f"{module}.{name}" in modules:
            return [f"{module}.{name}"]
        if module in packages:
            source = _lazy_exports(modules[module]).get(name)
            if source is not None:
                return [module, *resolve(f"{module}.{source}", name)]
            for source, imported, bound in _imports(modules[module], module):
                if bound == name:
                    return [module, *resolve(source, imported)]
        return [module]

    def targets(path: Path, package: str) -> list[str]:
        return [
            target
            for module, name, _ in _imports(path, package)
            for target in resolve(module, name)
        ]

    frontier = list(ROOT_MODULES) + [
        target
        for directory in ROOT_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        for target in targets(path, "")
    ]
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        if module not in packages:  # never follow an __init__'s own imports
            frontier.extend(targets(modules[module], module.rsplit(".", 1)[0]))
    return reached


def test_every_module_is_reachable_from_a_run_path():
    """A module that no CLI command, service route, bench, example,
    tool or perfbench file imports is a second copy nothing runs."""
    modules = _module_files()
    leaves = {
        name for name, path in modules.items() if path.name != "__init__.py"
    }
    orphans = sorted(leaves - _reachable())
    assert orphans == []


# ---------------------------------------------------------------------------
# Orphan symbols: every function, class and method is named past its def
# ---------------------------------------------------------------------------

_DRAM_PROBE = (
    "an observation point of the cycle-level DRAM model, which "
    "calibrate_envelope runs; its own tests read it"
)
_ORACLE_HOOK = (
    "a state hook of the scalar MemSpot oracle, which the batched-kernel "
    "equivalence tests load and read"
)
_LIBRARY_HELPER = (
    "a public helper of repro.analysis for scripts that post-process "
    "results; its own tests pin it"
)
#: Symbols that only tests name, each with the reason it stays.
TEST_ONLY_SYMBOLS = {
    "repro.analysis.normalize.normalize_map": _LIBRARY_HELPER,
    "repro.analysis.series.downsample": _LIBRARY_HELPER,
    "repro.errors.ProtocolError": (
        "part of the public exception hierarchy callers catch; the "
        "hierarchy test pins it"
    ),
    "repro.core.memspot.MemSpot.ambient_model": _ORACLE_HOOK,
    "repro.thermal.integrated.AmbientModel.node_temperature_c": _ORACLE_HOOK,
    "repro.thermal.integrated.AmbientModel.restore_node": _ORACLE_HOOK,
    "repro.dram.amb.AMBTraffic.bypass_bytes": _DRAM_PROBE,
    "repro.dram.amb.AMBTraffic.local_bytes": _DRAM_PROBE,
    "repro.dram.channel.FrameLink.frames_sent": _DRAM_PROBE,
    "repro.dram.channel.FrameLink.next_free_s": _DRAM_PROBE,
    "repro.dram.controller.ChannelController.ambs": _DRAM_PROBE,
    "repro.dram.stats.ChannelStats.total_requests": _DRAM_PROBE,
    "repro.dram.trafficgen.random_trace": (
        "an input stream of the cycle-level DRAM model beside the stream "
        "and Poisson traces calibration runs; its own tests drive the "
        "model's bank spread with it"
    ),
    "repro.thermal.rc.exponential_step": (
        "the closed form of the Eq. 3.5 update that RCNode's cached-gain "
        "step implements; the RC and property tests check it"
    ),
}


def _symbols() -> list[tuple[str, str]]:
    """``(qualified name, name)`` of every top-level function and class
    under src/repro and every method of such a class (dunders aside)."""
    found = []
    for module, path in _module_files().items():
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                )
    return [(q, name) for q, name in found if not name.startswith("__")]


def _orphan_symbols() -> set[str]:
    """Symbols whose name appears once (their definition) across src/
    and the run-path directories; tests do not count."""
    words = Counter(
        word
        for directory in ("src", *ROOT_DIRS)
        for path in (ROOT / directory).rglob("*.py")
        for word in re.findall(r"[A-Za-z_]\w*", path.read_text())
    )
    return {qualified for qualified, name in _symbols() if words[name] <= 1}


def test_every_symbol_is_named_outside_its_definition():
    """A function, class or method that nothing but its own tests names
    is code no run needs."""
    orphans = _orphan_symbols()
    assert sorted(orphans - set(TEST_ONLY_SYMBOLS)) == []
    # An entry whose symbol went, or gained a caller, leaves the list.
    assert sorted(set(TEST_ONLY_SYMBOLS) - orphans) == []
