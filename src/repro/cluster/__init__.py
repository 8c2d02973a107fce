"""Distributed campaign execution: pluggable backends and worker fleets.

The campaign engine (:mod:`repro.campaign`) decides *what* to run; this
package decides *where*.  An :class:`ExecutionBackend` receives a
campaign's deduplicated cells and streams back encoded payloads:

- :class:`SerialBackend` — the calling process, one cell at a time.
- :class:`VectorBackend` — the calling process, with compatible cells
  lock-stepped in gangs through one grid kernel
  (:mod:`repro.engine.gang`); bit-identical to serial, much faster on
  homogeneous grids.
- :class:`LocalProcessBackend` — a reusable local process pool.
- :class:`HttpWorkerBackend` — a coordinator sharding cells across
  ``python -m repro worker`` processes over the ``/v1`` JSON protocol,
  with bounded in-flight dispatch, per-cell retry + worker
  blacklisting, and heartbeat-based dead-worker requeue.

:class:`LocalFleet` boots N real worker subprocesses on ephemeral
ports for tests, CI smoke jobs, and single-machine scale-out.  The
wire format (:mod:`repro.cluster.wire`) is how frozen spec dataclasses
cross process and HTTP boundaries without losing their cache keys.
"""

from repro.cluster.backends import (
    ExecutionBackend,
    LocalProcessBackend,
    SerialBackend,
    VectorBackend,
)
from repro.cluster.fleet import LocalFleet
from repro.cluster.http import HttpWorkerBackend
from repro.cluster.wire import WIRE_VERSION, cell_from_wire, cell_to_wire
from repro.errors import ClusterError, ConfigurationError

#: The CLI's ``--backend`` vocabulary.
BACKEND_CHOICES = ("local", "serial", "vector", "http")

#: Sentinel for "the backend's own default" gang width.
_DEFAULT_BATCH_CELLS = 16


def backend_for(
    name: str,
    *,
    jobs: int = 1,
    workers: tuple[str, ...] | list[str] = (),
    batch_cells: int | None = None,
) -> ExecutionBackend:
    """Build an execution backend from CLI-shaped arguments.

    ``jobs`` sizes the ``local`` pool; ``workers`` are the ``http``
    fleet's base URLs; ``batch_cells`` caps the ``vector`` backend's
    gang width.  Mismatched arguments fail loudly — a worker list
    without ``--backend http`` is almost certainly a mistake.
    """
    if batch_cells is not None and name != "vector":
        raise ConfigurationError(
            "--batch-cells only applies to --backend vector"
        )
    if name == "serial":
        if workers:
            raise ConfigurationError("--workers only applies to --backend http")
        if jobs != 1:
            raise ConfigurationError("--jobs does not apply to --backend serial")
        return SerialBackend()
    if name == "vector":
        if workers:
            raise ConfigurationError("--workers only applies to --backend http")
        if jobs != 1:
            raise ConfigurationError(
                "--jobs does not apply to --backend vector: cells run "
                "in this process, batched through one grid kernel"
            )
        return VectorBackend(
            batch_cells=(
                _DEFAULT_BATCH_CELLS if batch_cells is None else batch_cells
            )
        )
    if name == "local":
        if workers:
            raise ConfigurationError("--workers only applies to --backend http")
        return LocalProcessBackend(jobs=jobs)
    if name == "http":
        if not workers:
            raise ConfigurationError(
                "--backend http needs --workers URL[,URL...] "
                "(start them with 'python -m repro worker')"
            )
        if jobs != 1:
            raise ConfigurationError(
                "--jobs does not apply to --backend http: parallelism "
                "comes from the number of workers (add more --workers)"
            )
        return HttpWorkerBackend(list(workers))
    raise ConfigurationError(
        f"unknown backend {name!r} (choices: {list(BACKEND_CHOICES)})"
    )


__all__ = [
    "BACKEND_CHOICES",
    "ClusterError",
    "ExecutionBackend",
    "HttpWorkerBackend",
    "LocalFleet",
    "LocalProcessBackend",
    "SerialBackend",
    "VectorBackend",
    "WIRE_VERSION",
    "backend_for",
    "cell_from_wire",
    "cell_to_wire",
]
