""":class:`LocalFleet` — spawn N ``repro worker`` subprocesses locally.

The test/dev on-ramp for :class:`~repro.cluster.http.HttpWorkerBackend`:
it boots real worker processes (the same ``python -m repro worker``
entry production fleets run) on ephemeral ports, waits for their
port files, and exposes their base URLs::

    with LocalFleet(2) as fleet:
        backend = HttpWorkerBackend(fleet.urls)
        with backend:
            table = Campaign(specs, backend=backend).run()

Workers inherit this process's environment plus any ``env`` overrides —
point ``REPRO_CACHE_DIR`` somewhere private to model remote machines
that share nothing with the coordinator.  ``kill()`` SIGKILLs one
worker, which is how the dead-worker-requeue tests take a machine away
mid-grid.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.errors import ClusterError, ConfigurationError


def _repro_src_dir() -> str:
    """The directory that makes ``import repro`` work in a subprocess."""
    import repro

    return str(Path(repro.__file__).resolve().parent.parent)


def await_port_file(
    path: str | Path, process: subprocess.Popen, *, timeout_s: float
) -> int:
    """Wait for a ``--port-file`` written by ``process``; return the port.

    Raises :class:`~repro.errors.ClusterError` when the process exits
    first or nothing appears within ``timeout_s``.
    """
    path = Path(path)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise ClusterError(
                f"process {process.pid} exited with code "
                f"{process.returncode} before writing {path}"
            )
        text = path.read_text() if path.exists() else ""
        if text.strip():
            return int(text)
        time.sleep(0.05)
    raise ClusterError(f"no port appeared in {path} within {timeout_s}s")


class LocalFleet:
    """A context manager owning N local worker subprocesses."""

    def __init__(
        self,
        count: int = 2,
        *,
        host: str = "127.0.0.1",
        env: dict[str, str] | None = None,
        startup_timeout_s: float = 30.0,
    ) -> None:
        if count < 1:
            raise ConfigurationError("fleet needs at least one worker")
        self.count = count
        self.host = host
        self.extra_env = dict(env or {})
        self.startup_timeout_s = startup_timeout_s
        self._procs: list[subprocess.Popen] = []
        self._urls: list[str] = []
        self._workdir: tempfile.TemporaryDirectory | None = None

    @property
    def urls(self) -> list[str]:
        """Base URLs of the running workers (start() must have run)."""
        if not self._urls:
            raise ClusterError("fleet is not running (use 'with LocalFleet(...)')")
        return list(self._urls)

    def start(self) -> "LocalFleet":
        """Spawn the workers and wait until every one is listening."""
        if self._procs:
            raise ClusterError("fleet already started")
        self._workdir = tempfile.TemporaryDirectory(prefix="repro-fleet-")
        root = Path(self._workdir.name)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_repro_src_dir()]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        env.update(self.extra_env)
        try:
            for index in range(self.count):
                port_file = root / f"worker-{index}.port"
                log = (root / f"worker-{index}.log").open("w")
                proc = subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--host", self.host,
                        "--port", "0",
                        "--port-file", str(port_file),
                    ],
                    env=env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                )
                log.close()
                self._procs.append(proc)
            ports = [
                await_port_file(
                    root / f"worker-{index}.port", proc,
                    timeout_s=self.startup_timeout_s,
                )
                for index, proc in enumerate(self._procs)
            ]
            self._urls = [f"http://{self.host}:{port}" for port in ports]
        except BaseException:
            self.stop()
            raise
        return self

    def kill(self, index: int) -> None:
        """SIGKILL one worker (simulates a machine dying mid-grid)."""
        self._procs[index].kill()

    def stop(self) -> None:
        """Terminate every worker and clean up (idempotent)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._procs = []
        self._urls = []
        if self._workdir is not None:
            self._workdir.cleanup()
            self._workdir = None

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
