"""Campaign execution backends: where a campaign's cells run.

The campaign engine (:mod:`repro.campaign`) decides *what* to run; this
package decides *where*.  An :class:`ExecutionBackend` receives a
campaign's deduplicated cells and streams back encoded payloads:

- :class:`SerialBackend` — the calling process, one cell at a time.
- :class:`LocalProcessBackend` — a reusable local process pool whose
  workers share this host's disk cache.
"""

from repro.cluster.backends import (
    ExecutionBackend,
    LocalProcessBackend,
    SerialBackend,
    VectorBackend,
)
from repro.errors import ConfigurationError

#: The CLI's ``--backend`` vocabulary.
BACKEND_CHOICES = ("local", "serial")


def backend_for(name: str, *, jobs: int = 1) -> ExecutionBackend:
    """Build an execution backend from CLI-shaped arguments.

    ``jobs`` sizes the ``local`` pool; asking a serial backend for more
    than one job fails loudly rather than being silently ignored.
    """
    if name == "serial":
        if jobs != 1:
            raise ConfigurationError("--jobs does not apply to --backend serial")
        return SerialBackend()
    if name == "local":
        return LocalProcessBackend(jobs=jobs)
    raise ConfigurationError(
        f"unknown backend {name!r} (choices: {list(BACKEND_CHOICES)})"
    )


__all__ = [
    "BACKEND_CHOICES",
    "ExecutionBackend",
    "LocalProcessBackend",
    "SerialBackend",
    "VectorBackend",
    "backend_for",
]
