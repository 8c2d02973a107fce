"""repro — Thermal Modeling and Management of DRAM Memory Systems.

A from-scratch Python reproduction of Lin et al.'s ISCA 2007 paper (and
its dissertation/SIGMETRICS 2008 extensions): FBDIMM power and thermal
models, the two-level thermal simulator, the DTM schemes (TS, BW, ACG,
CDVFS, COMB, with and without PID control), and the real-system testbed
emulation.

Quickstart::

    from repro import SimulationConfig, TwoLevelSimulator
    from repro.dtm import DTMACG

    config = SimulationConfig(mix_name="W1", copies=1)
    result = TwoLevelSimulator(config, DTMACG()).run()
    print(result.runtime_s, result.peak_amb_c)

See README.md for the full tour: the architecture, the CLI, the API
and the measured numbers.

Package roots load nothing up front.  A root that re-exports names
lists them in an ``_EXPORTS`` table, and :func:`lazy_exports` imports
the defining module the first time one is asked for, so ``import
repro.errors`` (or one CLI command) pays only for the modules it uses.
"""

from __future__ import annotations

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, str]) -> tuple:
    """The module ``__getattr__`` and ``__all__`` of a lazy package root.

    ``exports`` maps each public name to the module, relative to
    ``package``, that defines it.  The first lookup of a name imports
    that module and binds the name on the package, so later lookups are
    plain attribute reads.  Use it as::

        _EXPORTS = {"SteppingEngine": "stepping", ...}
        __getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
    """

    def __getattr__(name: str):
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{source}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, sorted(exports)


_EXPORTS = {
    "SimulationConfig": "core.simulator",
    "TwoLevelSimulator": "core.simulator",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__.append("__version__")
