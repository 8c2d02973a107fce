"""Campaign execution backends: where a campaign's cells run.

The campaign engine (:mod:`repro.campaign`) decides *what* to run; this
package decides *where*.  A backend's one method, ``run_cells(specs,
store)``, runs a campaign's deduplicated cells and yields their
outcomes in the order given:

- :class:`SerialBackend` — the calling process, one cell at a time.
- :class:`LocalProcessBackend` — a reusable local process pool whose
  workers share this host's disk cache.

A campaign picks one from its ``jobs`` (serial for 1, a pool
otherwise), or borrows the one it is given.
"""

from repro import lazy_exports

_EXPORTS = {
    "LocalProcessBackend": "backends",
    "SerialBackend": "backends",
    "VectorBackend": "backends",
}

__getattr__, __all__ = lazy_exports(__name__, _EXPORTS)
