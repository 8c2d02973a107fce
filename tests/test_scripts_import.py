"""Every example script and figure bench imports cleanly.

Neither directory runs in the tier-1 suite, so a name they import that
the package no longer has would otherwise go unnoticed.  Importing runs
nothing: the examples guard ``__main__`` and the benches only define
pytest functions.

The other way round, every ``src/repro`` module must be reachable by
imports from a run path (the CLI, the HTTP service, ``python -m
repro``, or a bench, example, tool or perfbench file): a module only
tests import is a second copy of something no run uses.  One level
down, code in those files must refer to every top-level function and
class (by its name) and every method of one (as an attribute), and a
production call must set every defaulted parameter.  Both scans read
the AST, not the words of a file: a docstring or a comment names
nothing.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import textwrap
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


def _module_files(src: Path) -> dict[str, Path]:
    """Dotted name -> file of every module and package under
    ``src/repro``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
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
    modules = _module_files(SRC)
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
    modules = _module_files(SRC)
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
    "repro.dram.bank.Bank.accesses": _DRAM_PROBE,
    "repro.dram.channel.FrameLink.frames_sent": _DRAM_PROBE,
    "repro.dram.channel.FrameLink.next_free_s": _DRAM_PROBE,
    "repro.dram.controller.ChannelController.ambs": _DRAM_PROBE,
    "repro.dram.system.MemorySystem.controllers": _DRAM_PROBE,
    "repro.dram.stats.ChannelStats.total_requests": _DRAM_PROBE,
    "repro.dram.trafficgen.random_trace": (
        "an input stream of the cycle-level DRAM model beside the stream "
        "and Poisson traces calibration runs; its own tests drive the "
        "model's bank spread with it"
    ),
}


def _symbols(src: Path) -> list[tuple[str, str, bool]]:
    """``(qualified name, name, is_method)`` of every top-level function
    and class under ``src/repro`` and every method of such a class
    (dunders aside, and methods a ``Name`` in their own class body
    binds again, as ``do_GET = _dispatch`` does)."""
    found = []
    for module, path in _module_files(src).items():
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((f"{module}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                rebound = {
                    name.id
                    for item in node.body
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for name in ast.walk(item)
                    if isinstance(name, ast.Name)
                }
                found.extend(
                    (f"{module}.{node.name}.{item.name}", item.name, True)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name not in rebound
                )
    return [entry for entry in found if not entry[1].startswith("__")]


_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _referenced_names(roots: list[Path]) -> tuple[set[str], set[str]]:
    """What code under ``roots`` refers to, as two sets.  Members: every
    ``Attribute`` and every part of an identifier-shaped string (an
    ``_EXPORTS`` entry, a ``getattr`` name, a dotted patch target).
    Globals: every ``Name``, every name a ``from ... import`` imports
    and every ``Attribute`` (a read through a module, as
    ``gang_module.plan_gangs``), but no segment of a dotted module path
    and no string.  Definitions, docstrings and comments name
    nothing."""
    members: set[str] = set()
    globals_: set[str] = set()
    for root in roots:
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(
                    node,
                    (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                )
                and ast.get_docstring(node, clean=False) is not None
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    globals_.add(node.id)
                elif isinstance(node, ast.Attribute):
                    members.add(node.attr)
                    globals_.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    globals_.update(alias.name for alias in node.names)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and _DOTTED.fullmatch(node.value)
                ):
                    members.update(node.value.split("."))
    return members, globals_


def _orphan_symbols(src: Path, roots: list[Path]) -> set[str]:
    """Symbols under ``src/repro`` that no code under ``roots`` refers
    to: a method or property through an ``Attribute`` or an
    identifier-shaped string, a top-level function or class through a
    ``Name``, an import of that name or a read through its module.  A
    method name two classes share counts as used for both once anything
    names it."""
    members, globals_ = _referenced_names(roots)
    return {
        qualified
        for qualified, name, is_method in _symbols(src)
        if name not in (members if is_method else globals_)
    }


def test_every_symbol_is_named_outside_its_definition():
    """A function, class or method that no code but its own tests
    refers to is code no run needs."""
    orphans = _orphan_symbols(SRC, [ROOT / d for d in ("src", *ROOT_DIRS)])
    assert sorted(orphans - set(TEST_ONLY_SYMBOLS)) == []
    # An entry whose symbol went, or gained a caller, leaves the list.
    assert sorted(set(TEST_ONLY_SYMBOLS) - orphans) == []


# ---------------------------------------------------------------------------
# Settable values: every defaulted parameter has a production caller
# ---------------------------------------------------------------------------

#: The directories whose calls count as production callers; tests and
#: examples do not.
PRODUCTION_DIRS = ("src/repro", "tools", "perfbench", "benchmarks")

_DRAM_SURFACE = (
    "a knob of the cycle-level DRAM model, which calibrate_envelope runs "
    "at its defaults; its own tests drive the model with it"
)
#: Defaulted parameters that no production call passes, each with the
#: reason it stays settable.
UNSET_PARAMETERS = {
    "repro.core.windowmodel.WindowModel.__init__(l2_capacity_bytes=)": (
        "the bit-exact oracle test of the level-1 model draws arbitrary "
        "L2 capacities through it"
    ),
    "repro.dram.address.AddressMapper.__init__(rows=)": _DRAM_SURFACE,
    "repro.dram.address.AddressMapper.__init__(columns=)": _DRAM_SURFACE,
    "repro.dram.controller.ChannelController.__init__"
    "(activation_cap_per_window=)": _DRAM_SURFACE,
    "repro.dram.controller.ChannelController.__init__(throttle_window_s=)": (
        _DRAM_SURFACE
    ),
    "repro.dram.trafficgen.random_trace(seed=)": _DRAM_SURFACE,
    "repro.jobs.tenancy.QuotaManager.__init__(clock=)": (
        "the fake clock the token-bucket tests step by hand"
    ),
}


def _init_owners(src: Path) -> dict[str, str]:
    """Class name -> the name of the class whose ``__init__`` a call
    to it runs: its own, or the nearest base's it inherits; classes
    with no ``__init__`` under ``src/repro`` (dataclasses, subclasses
    of library classes) are left out."""
    classes = {
        node.name: node
        for path in _module_files(src).values()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
    }

    def owner(name: str) -> str | None:
        node = classes.get(name)
        if node is None:
            return None
        if any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for item in node.body
        ):
            return name
        for base in node.bases:
            found = owner(getattr(base, "id", getattr(base, "attr", "")))
            if found is not None:
                return found
        return None

    return {name: found for name in classes if (found := owner(name))}


def _production_calls(
    src: Path, callers: list[Path]
) -> tuple[dict[str, set[str]], dict[str, float]]:
    """Per callee, every keyword a call under ``callers`` passes it and
    the most positional arguments one passes it (unbounded with a
    ``*args``).  A callee is a function or method by its name, or
    ``Class.__init__`` for the class whose ``__init__`` a construction
    or a ``super().__init__`` runs.  A ``**mapping`` call, or passing
    the callee itself as an argument, sets every parameter (``"**"``)."""
    owners = _init_owners(src)
    keywords: dict[str, set[str]] = {}
    positional: dict[str, float] = {}

    def callee(name: str | None) -> str | None:
        if name in owners:
            return f"{owners[name]}.__init__"
        return name

    def constructed(func: ast.expr, cls: ast.ClassDef | None) -> str | None:
        """The callee a call of ``func`` runs, inside class ``cls``."""
        if isinstance(func, ast.Name):
            return callee(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "__init__" and cls is not None:
            for base in cls.bases:
                found = callee(getattr(base, "id", getattr(base, "attr", None)))
                if found is not None and found.endswith(".__init__"):
                    return found
            return None
        return callee(func.attr)

    def record(node: ast.Call, cls: ast.ClassDef | None, bound: set[str]) -> None:
        for value in [*node.args, *(k.value for k in node.keywords)]:
            if isinstance(value, ast.Starred):
                value = value.value
            if isinstance(value, ast.Attribute):
                passed = value.attr
            elif isinstance(value, ast.Name) and value.id in bound:
                passed = value.id
            else:
                continue
            keywords.setdefault(callee(passed), set()).add("**")
        name = constructed(node.func, cls)
        if name is None:
            return
        names = keywords.setdefault(name, set())
        names.update(k.arg or "**" for k in node.keywords)
        count = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            count = float("inf")
        positional[name] = max(positional.get(name, 0), count)

    def visit(node: ast.AST, cls: ast.ClassDef | None, bound: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                record(child, cls, bound)
            visit(child, child if isinstance(child, ast.ClassDef) else cls, bound)

    for directory in callers:
        for path in directory.rglob("*.py"):
            tree = ast.parse(path.read_text(), str(path))
            # The names a ``def``, a ``class`` or an import binds: a value
            # passed by one of those can be the callee itself, a value
            # passed by any other name (a local, a builtin) cannot.
            bound = {
                node.name
                for node in ast.walk(tree)
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
            } | {
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names
            }
            visit(tree, None, bound)
    return keywords, positional


def _unset_parameters(src: Path, callers: list[Path]) -> set[str]:
    """``module.Qualified.name(parameter=)`` of every defaulted
    parameter under ``src/repro`` that no call under ``callers`` passes
    to its callee: by keyword, by position, through a ``**mapping``, or
    by passing the callee itself on as a value.  A method is matched by
    its name, whichever class defines it; a constructor by the class
    whose ``__init__`` it runs."""
    keywords, positional = _production_calls(src, callers)
    found = set()

    def visit(node, prefix: str, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                ordered = args.posonlyargs + args.args
                skip = 1 if ordered and ordered[0].arg in ("self", "cls") else 0
                name = (
                    f"{cls}.__init__" if child.name == "__init__" and cls
                    else child.name
                )
                passed = keywords.get(name, set())
                reach = positional.get(name, 0) + skip
                first = len(ordered) - len(args.defaults)
                defaulted = [
                    (index, arg) for index, arg in enumerate(ordered)
                    if index >= first
                ] + [
                    (float("inf"), arg)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                if "**" not in passed:
                    found.update(
                        f"{prefix}{child.name}({arg.arg}=)"
                        for index, arg in defaulted
                        if arg.arg not in passed and index >= reach
                    )
                visit(child, f"{prefix}{child.name}.", None)
            else:
                visit(child, prefix, cls)

    for module, path in _module_files(src).items():
        visit(ast.parse(path.read_text(), str(path)), f"{module}.", None)
    return found


def test_every_settable_value_has_a_production_caller():
    """A defaulted parameter that no run sets is a constant in practice,
    and each one doubles the configurations tests must cover: make it
    one, or give the reason it stays.

    The scan covers the parameters of functions, methods and explicit
    ``__init__`` methods.  A method is still matched by its name, so a
    call to one class's method also counts for every other class's
    method of that name.  Dataclass fields stay outside it: nearly all
    the fields no named construction sets are records decoded from disk
    or from requests (``JobRecord``, ``EngineState``,
    ``CampaignRequest``), which ``cls(**fields)`` builds, or the paper's
    parameter and platform tables (``DDR2Timing``, ``AMBPowerParams``,
    ``ServerPlatform``), whose defaults are the published values.
    Counting them would add allow-list entries, not remove options."""
    unset = _unset_parameters(SRC, [ROOT / d for d in PRODUCTION_DIRS])
    assert sorted(unset - set(UNSET_PARAMETERS)) == []
    # An entry whose parameter went, or gained a caller, leaves the list.
    assert sorted(set(UNSET_PARAMETERS) - unset) == []


# ---------------------------------------------------------------------------
# The scans themselves: one small tree per resolution rule
# ---------------------------------------------------------------------------

#: Per rule: a module under ``src/repro``, a production caller under
#: ``tools``, the scan, and what it must report.  A scan that matched
#: names instead of callees and references gets each one wrong.
SCAN_CASES = {
    "a keyword counts only for its own callee": (
        "def wanted(limit=1): ...\n"
        "def other(limit=1): ...\n",
        "from repro.cases import other, wanted\n"
        "wanted()\n"
        "other(limit=2)\n",
        _unset_parameters,
        {"repro.cases.wanted(limit=)"},
    ),
    "a subclass runs the __init__ it inherits": (
        "class Base:\n"
        "    def __init__(self, size=1): ...\n"
        "class Child(Base): ...\n",
        "from repro.cases import Child\n"
        "Child(2)\n",
        _unset_parameters,
        set(),
    ),
    "super().__init__ runs the base's __init__": (
        "class Base:\n"
        "    def __init__(self, size=1): ...\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(2)\n",
        "from repro.cases import Child\n"
        "Child()\n",
        _unset_parameters,
        set(),
    ),
    "a **mapping sets every parameter": (
        "def build(size=1): ...\n",
        "from repro.cases import build\n"
        "options = {'size': 2}\n"
        "build(**options)\n",
        _unset_parameters,
        set(),
    ),
    "a function passed as a value has every parameter set": (
        "def work(spec, size=1): ...\n",
        "from repro.cases import work\n"
        "pool.submit(work, 'spec', 2)\n",
        _unset_parameters,
        set(),
    ),
    "a docstring names nothing": (
        '"""The cases; helper is one of them."""\n'
        "def helper(): ...\n",
        "import repro.cases\n",
        _orphan_symbols,
        {"repro.cases.helper"},
    ),
    "a definition names nothing": (
        "class First:\n"
        "    def total(self): ...\n"
        "class Second:\n"
        "    def total(self): ...\n",
        "from repro.cases import First, Second\n"
        "First(), Second()\n",
        _orphan_symbols,
        {"repro.cases.First.total", "repro.cases.Second.total"},
    ),
    "a local name uses no method": (
        "class Simulator:\n"
        "    @property\n"
        "    def window_model(self): ...\n",
        "from repro.cases import Simulator\n"
        "window_model = Simulator()\n",
        _orphan_symbols,
        {"repro.cases.Simulator.window_model"},
    ),
    "a package path segment uses no symbol": (
        "def params(): ...\n"
        "class Channel:\n"
        "    @property\n"
        "    def params(self): ...\n",
        "import repro.params.thermal\n"
        "from repro.cases import Channel\n",
        _orphan_symbols,
        {"repro.cases.params", "repro.cases.Channel.params"},
    ),
    "a re-export alone uses no function": (
        "def helper(): ...\n",
        "_EXPORTS = {'helper': 'cases'}\n",
        _orphan_symbols,
        {"repro.cases.helper"},
    ),
}


#: The same shape, for what each scan must still count as a use: a
#: scan that reported code its callers reach gets each one wrong.
SCAN_USES = {
    "a positional count counts only for its own callee": (
        "def wanted(first, limit=1): ...\n"
        "def other(first, limit=1): ...\n",
        "from repro.cases import other, wanted\n"
        "wanted(1, 2)\n"
        "other(1)\n",
        _unset_parameters,
        {"repro.cases.other(limit=)"},
    ),
    "a keyword to a class sets its __init__": (
        "class Box:\n"
        "    def __init__(self, size=1): ...\n",
        "from repro.cases import Box\n"
        "Box(size=2)\n",
        _unset_parameters,
        set(),
    ),
    "a subclass with its own __init__ does not run the base's": (
        "class Base:\n"
        "    def __init__(self, size=1): ...\n"
        "class Child(Base):\n"
        "    def __init__(self, size=1): ...\n",
        "from repro.cases import Child\n"
        "Child(size=2)\n",
        _unset_parameters,
        {"repro.cases.Base.__init__(size=)"},
    ),
    "a grandchild runs the __init__ two bases up": (
        "class Base:\n"
        "    def __init__(self, size=1): ...\n"
        "class Middle(Base): ...\n"
        "class Leaf(Middle): ...\n",
        "from repro.cases import Leaf\n"
        "Leaf(size=2)\n",
        _unset_parameters,
        set(),
    ),
    "a base named through its module runs its __init__": (
        "class Base:\n"
        "    def __init__(self, size=1): ...\n",
        "import repro.cases\n"
        "class Child(repro.cases.Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(size=2)\n"
        "Child()\n",
        _unset_parameters,
        set(),
    ),
    "a keyword-only parameter is not set by position": (
        "def build(first=0, *, size=1): ...\n",
        "from repro.cases import build\n"
        "build(1)\n",
        _unset_parameters,
        {"repro.cases.build(size=)"},
    ),
    "a *args call sets every positional parameter": (
        "def build(first=0, size=1): ...\n",
        "from repro.cases import build\n"
        "values = (1, 2)\n"
        "build(*values)\n",
        _unset_parameters,
        set(),
    ),
    "a method call counts for every method of that name": (
        "class First:\n"
        "    def step(self, n=1): ...\n"
        "class Second:\n"
        "    def step(self, n=1): ...\n",
        "from repro.cases import First\n"
        "First().step(n=2)\n",
        _unset_parameters,
        set(),
    ),
    "an import names a symbol": (
        "def helper(): ...\n",
        "from repro.cases import helper\n",
        _orphan_symbols,
        set(),
    ),
    "an attribute names a symbol": (
        "def helper(): ...\n",
        "import repro.cases\n"
        "repro.cases.helper\n",
        _orphan_symbols,
        set(),
    ),
    "an identifier-shaped string names a method": (
        "class Box:\n"
        "    def helper(self): ...\n"
        "    def patched(self): ...\n",
        "from repro.cases import Box\n"
        "getattr(Box(), 'helper')\n"
        "monkeypatch.setattr('repro.cases.Box.patched', None)\n",
        _orphan_symbols,
        set(),
    ),
    "a name in its own class body uses a method": (
        "class Handler:\n"
        "    def _dispatch(self): ...\n"
        "    do_GET = do_POST = _dispatch\n",
        "from repro.cases import Handler\n",
        _orphan_symbols,
        set(),
    ),
    "a sentence in a string names nothing": (
        "def helper(): ...\n",
        "import repro.cases\n"
        "print('call helper first')\n",
        _orphan_symbols,
        {"repro.cases.helper"},
    ),
    "a method name shared by two classes is used once one is named": (
        "class First:\n"
        "    def total(self): ...\n"
        "class Second:\n"
        "    def total(self): ...\n",
        "from repro.cases import First, Second\n"
        "First().total(), Second()\n",
        _orphan_symbols,
        set(),
    ),
}


def _scan_tree(tmp_path: Path, case: tuple) -> None:
    source, caller, scan, expected = case
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "cases.py").write_text(source)
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "run.py").write_text(caller)
    roots = [tmp_path / "src", tmp_path / "tools"]
    assert scan(tmp_path / "src", roots) == expected


@pytest.mark.parametrize("case", SCAN_CASES)
def test_the_scans_resolve_callees_and_references(case, tmp_path):
    _scan_tree(tmp_path, SCAN_CASES[case])


@pytest.mark.parametrize("case", SCAN_USES)
def test_the_scans_count_every_use(case, tmp_path):
    _scan_tree(tmp_path, SCAN_USES[case])


# ---------------------------------------------------------------------------
# README's fast-path table names code that exists
# ---------------------------------------------------------------------------


def _fast_path_rows() -> list[str]:
    """The dotted symbol that opens each row of the table under
    README's "Fast paths and their margins" heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Fast paths and their margins\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [
        line for line in section.splitlines()
        if line.startswith("| ") and not line.startswith(("| Fast path", "| ---"))
    ]
    return [re.match(r"\| `([\w.]+)`", line).group(1) for line in rows]


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module attribute, a class attribute,
    or an instance attribute its class's own code assigns."""
    parts = dotted.split(".")
    cut = len(parts)
    while cut:
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            cut -= 1
    else:
        return False
    for name in parts[cut:-1]:
        owner = getattr(owner, name, None)
    if cut == len(parts) or hasattr(owner, parts[-1]):
        return True
    return isinstance(owner, type) and any(
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and node.attr == parts[-1]
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(owner))))
    )


def test_the_fast_path_table_matches_the_code():
    """Every row of the README fast-path table names a symbol that
    still resolves: a deleted fast path leaves the table with it."""
    rows = _fast_path_rows()
    assert len(rows) >= 8
    assert len(rows) == len(set(rows)), "a fast path has two rows"
    assert [row for row in rows if not _resolves(row)] == []
