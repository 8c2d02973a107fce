"""``service_mix``: one closed-loop client against ``repro serve --jobs``.

The server runs in its own process with a temporary cache directory,
the default ``--max-concurrent-runs`` and tenancy quotas raised so every
job is admitted.  The client sends a seeded sequence, one request at a
time, each after the previous reply:

- ~94% warm ``GET /v1/simulate`` over a small prefilled set of ch4 cells;
- ~3% cold ``GET /v1/server`` over distinct ch5 cells;
- ~3% ``POST /v1/jobs`` of a warm cell, polled until complete.

Each request opens its own connection with ``Connection: close`` and
reads until the server closes it, so an exchange ends only when the
server's handler has returned.  Every non-2xx reply is counted as a
failed operation with its status and reason; nothing is retried.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from urllib.parse import urlencode

from repro.analysis.specs import CHAPTER5_POLICIES
from repro.api.client import ReproClient
from repro.api.requests import ServerRequest, SimulateRequest
from repro.campaign import NullStore
from repro.testbed.platforms import PLATFORMS
from repro.workloads.mixes import SIMULATION_MIXES

import layers
from checks import check_goldens, digest
from timing import median, quantile
from tracing import wrapper_cost_ns

HERE = os.path.dirname(os.path.abspath(__file__))
#: Requests per second of ``--seconds`` (sets the sequence length).
REQUESTS_PER_SECOND = 350
COLD_SHARE = 0.03
JOB_SHARE = 0.03
#: (mix, policy) of the prefilled warm cells; mixes are drawn by seed.
WARM_POLICIES = ("no-limit", "ts", "no-limit", "ts")
COLD_COPIES = (1, 2, 3)
#: Cold cells recomputed in-process after the timed section.
COLD_RECHECKS = 5
JOB_POLL_S = 0.002
JOB_TERMINAL = ("completed", "failed", "cancelled")
SETUP_SAMPLES = 3
QUOTA_FLAGS = (
    "--quota-max-active", "100000",
    "--quota-rate", "100000",
    "--quota-burst", "100000",
)
START_TIMEOUT_S = 60.0


# -- the request sequence ---------------------------------------------------------


class Sequence:
    """The seeded request sequence; ``ops`` are (kind, cell) pairs."""

    def __init__(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        total = max(60, round(seconds * REQUESTS_PER_SECOND))
        mixes = rng.sample(list(SIMULATION_MIXES), len(WARM_POLICIES))
        self.warm = [
            {"mix": mix, "policy": policy, "copies": 1}
            for mix, policy in zip(mixes, WARM_POLICIES)
        ]
        groups = [
            [
                {"platform": platform, "mix": mix, "policy": policy, "copies": copies}
                for platform in sorted(PLATFORMS)
                for mix in SIMULATION_MIXES
            ]
            for policy in CHAPTER5_POLICIES
            for copies in COLD_COPIES
        ]
        pool_size = sum(len(group) for group in groups)
        n_cold = min(pool_size, max(1, round(total * COLD_SHARE)))
        n_job = max(1, round(total * JOB_SHARE))
        # Deal the cold cells evenly over the (policy, copies) groups so
        # every seed draws the same cost mix.
        for group in groups:
            rng.shuffle(group)
        self.cold = [groups[i % len(groups)][i // len(groups)] for i in range(n_cold)]
        rng.shuffle(self.cold)
        kinds = (
            ["warm"] * (total - n_cold - n_job) + ["cold"] * n_cold + ["job"] * n_job
        )
        rng.shuffle(kinds)
        cold = iter(self.cold)
        self.ops = []
        for kind in kinds:
            if kind == "cold":
                self.ops.append((kind, next(cold)))
            else:
                self.ops.append((kind, rng.randrange(len(self.warm))))


def simulate_path(cell: dict) -> str:
    return "/v1/simulate?" + urlencode(cell)


def server_path(cell: dict) -> str:
    return "/v1/server?" + urlencode(cell)


def cell_label(cell: dict) -> str:
    return ",".join(f"{k}={cell[k]}" for k in sorted(cell))


def parse_reply(raw: bytes) -> tuple[int, bytes]:
    """Status and body of a whole HTTP/1.1 reply read to end of file."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    if not sep or not lines[0].startswith("HTTP/1."):
        raise RuntimeError(f"malformed reply: {raw[:80]!r}")
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length" and int(value) != len(body):
            raise RuntimeError(f"reply body is {len(body)} bytes, Content-Length {value}")
    return int(lines[0].split()[1]), body


# -- the server process -------------------------------------------------------------


class Server:
    """One ``repro serve --jobs`` process with private cache and jobs dirs."""

    def __init__(self, root: str, name: str, traced: bool = False) -> None:
        self.dir = os.path.join(root, name)
        os.makedirs(self.dir)
        self.traced = traced
        self.port_file = os.path.join(self.dir, "port")
        self.summary_file = os.path.join(self.dir, "summary.json")
        self.chrome_file = os.path.join(self.dir, "trace.json")
        self.reset_file = os.path.join(self.dir, "reset")
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: Client-side HTTP accounting: calls and raw seconds.
        self.http_calls = 0
        self.http_raw_s = 0.0

    def command(self) -> list[str]:
        serve = [
            "--port", "0", "--port-file", self.port_file, "--jobs",
            "--jobs-dir", os.path.join(self.dir, "jobs"), *QUOTA_FLAGS,
        ]
        if not self.traced:
            return [sys.executable, "-m", "repro", "serve", *serve]
        return [
            sys.executable, os.path.join(HERE, "serve_traced.py"),
            "--summary", self.summary_file, "--chrome", self.chrome_file,
            "--reset-file", self.reset_file, "--", *serve,
        ]

    def start(self, clock) -> None:
        """Launch and wait for ``/v1/healthz`` (call with the timer paused)."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.abspath("src")
        env["REPRO_CACHE_DIR"] = os.path.join(self.dir, "cache")
        with open(os.path.join(self.dir, "server.log"), "w") as log:
            self.proc = subprocess.Popen(
                self.command(), env=env, stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited at start-up:\n{self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server did not start:\n{self.log_tail()}")
            try:
                with open(self.port_file) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    break
            except FileNotFoundError:
                pass
            clock.probe_if_due()
            time.sleep(0.002)
        status, _ = self.request("GET", "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"healthz answered {status}")

    def log_tail(self) -> str:
        with open(os.path.join(self.dir, "server.log")) as handle:
            return handle.read()[-2000:]

    def request(self, method: str, path: str, body: dict | None = None):
        """``(status, body bytes)`` of one exchange.

        The request asks the server to close the connection and the
        reply is read to end of file: the server closes only after its
        handler has returned, compute-slot release included, so a
        sequential client never overlaps its own previous request.
        """
        started = time.perf_counter()
        data = b"" if body is None else json.dumps(body).encode()
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        chunks = []
        with socket.create_connection(("127.0.0.1", self.port), timeout=120) as sock:
            sock.sendall(head.encode() + b"\r\n" + data)
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        status, payload = parse_reply(b"".join(chunks))
        self.http_calls += 1
        self.http_raw_s += time.perf_counter() - started
        return status, payload

    def reset_accounting(self) -> None:
        self.http_calls = 0
        self.http_raw_s = 0.0

    def store_counts(self) -> dict[str, int]:
        status, body = self.request("GET", "/metrics?format=json")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        counts = {"store.hits": 0, "store.misses": 0}
        for metric in json.loads(body)["metrics"]:
            if metric["name"] == "repro_store_requests_total":
                for series in metric["series"]:
                    outcome = series["labels"].get("cache")
                    name = "store.hits" if outcome == "hit" else "store.misses"
                    counts[name] += int(series["value"])
        return counts

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def reset_trace(self) -> None:
        """Zero the traced server's spans (after prefill) and wait for it."""
        time.sleep(0.05)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not os.path.exists(self.reset_file):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not acknowledge the reset")
            time.sleep(0.001)

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


# -- driving -------------------------------------------------------------------------


def prefill(server: Server, seq: Sequence, report, clock) -> list[bytes]:
    """Compute the warm cells (cold), then read each warm once: the
    reference bodies every later warm reply must equal byte for byte.
    A refused set-up request is a failed operation and ends the run.
    """
    def get(cell: dict) -> bytes:
        clock.probe_if_due()
        report.attempted += 1
        status, body = server.request("GET", simulate_path(cell))
        if status != 200:
            _refusal(report, status, body)
            raise RuntimeError(f"set-up request for {cell} answered {status}")
        return body

    for cell in seq.warm:
        get(cell)
    return [get(cell) for cell in seq.warm]


def _refusal(report, status: int, body: bytes) -> None:
    try:
        document = json.loads(body)
        reason = document.get("reason") or document.get("error", "")
    except ValueError:
        reason = body[:80].decode(errors="replace")
    key = (status, str(reason)[:80])
    report.refusals[key] = report.refusals.get(key, 0) + 1
    report.failed += 1


def drive(clock, server: Server, seq: Sequence, references, report) -> dict:
    """Send the sequence; returns latencies (Timed) and served outputs.

    Probes run between requests, never inside one, so no reply waits
    behind a probe; each request is normalized by the latest probes.
    """
    with clock.paused():
        return _drive(clock, server, seq, references, report)


def _drive(clock, server: Server, seq: Sequence, references, report) -> dict:
    times = {"warm": [], "cold": [], "job": []}
    cold_windows = []
    served: dict[str, dict] = {}
    jobs = []
    refused_429 = 0
    for kind, cell in seq.ops:
        clock.probe_if_due()
        report.attempted += 1
        mark = clock.mark()
        if kind == "warm":
            status, body = server.request("GET", simulate_path(seq.warm[cell]))
            timed = clock.since(mark)
            if status != 200:
                refused_429 += status == 429
                _refusal(report, status, body)
            elif body != references[cell]:
                report.mismatch(f"warm reply for {seq.warm[cell]} differs from the reference")
            else:
                times["warm"].append(timed)
        elif kind == "cold":
            status, body = server.request("GET", server_path(cell))
            timed = clock.since(mark)
            if status != 200:
                refused_429 += status == 429
                _refusal(report, status, body)
                continue
            envelope = json.loads(body)
            served[cell_label(cell)] = envelope["metrics"]
            interval = PLATFORMS[cell["platform"]].dtm_interval_s
            cold_windows.append(round(envelope["metrics"]["runtime_s"] / interval))
            times["cold"].append(timed)
        else:
            warm = seq.warm[cell]
            status, body = server.request(
                "POST", "/v1/jobs",
                {"request": {"type": "simulate", **warm}, "tenant": "bench"},
            )
            if status != 202:
                refused_429 += status == 429
                _refusal(report, status, body)
                continue
            job_id = json.loads(body)["job"]["id"]
            while True:
                status, body = server.request("GET", f"/v1/jobs/{job_id}")
                if status != 200:
                    break
                job = json.loads(body)["job"]
                if job["status"] in JOB_TERMINAL:
                    break
                time.sleep(JOB_POLL_S)
            timed = clock.since(mark)
            if status != 200:
                refused_429 += status == 429
                _refusal(report, status, body)
                continue
            if job["status"] != "completed":
                report.mismatch(f"job {job_id} ended {job['status']}: {job.get('error')}")
                continue
            times["job"].append(timed)
            jobs.append(job)
            status, body = server.request("GET", f"/v1/jobs/{job_id}/result")
            if status != 200 or body != references[cell]:
                report.mismatch(f"job {job_id} result differs from the warm reply")
    for cell, body in zip(seq.warm, references):
        served[cell_label(cell)] = json.loads(body)["metrics"]
    return {
        "times": times,
        "cold_windows": cold_windows,
        "served": served,
        "jobs": jobs,
        "refused_429": refused_429,
    }


def summarize(result: dict, report) -> None:
    times = result["times"]
    every = [t.norm_s for kind in ("warm", "cold", "job") for t in times[kind]]
    warm = [t.norm_s for t in times["warm"]]
    cold = [t.norm_s for t in times["cold"]]
    job = [t.norm_s for t in times["job"]]
    per_window = [
        t / windows * 1e6 for t, windows in zip(cold, result["cold_windows"])
    ]
    report.metric("us_per_window", median(per_window), "us", len(per_window))
    report.metric("result_ms_p50", median(every) * 1e3, "ms", len(every))
    # Printed, not gated: on a shared host the tail moves with the load
    # of other processes while the median holds.
    report.note("result_ms_p90", quantile(every, 0.9) * 1e3, "ms", len(every))
    # Each class's count times its median: the sequence's time without
    # the rare stall of tens of milliseconds that a plain sum carries.
    sequence_s = sum(len(v) * median(v) for v in (warm, cold, job) if v)
    report.metric("sweep_s", sequence_s, "s", len(every))
    report.note("warm_ms_p50", median(warm) * 1e3, "ms", len(warm))
    report.note("warm_ms_p90", quantile(warm, 0.9) * 1e3, "ms", len(warm))
    report.note("warm_ms_p99", quantile(warm, 0.99) * 1e3, "ms", len(warm))
    report.note("cold_ms_p50", median(cold) * 1e3, "ms", len(cold))
    report.note("job_ms_p50", median(job) * 1e3, "ms", len(job))
    report.note("error_rate", report.failed / report.attempted, "failed/attempted", report.attempted)
    report.note("raw.warm_ms_p50", median([t.raw_s for t in times["warm"]]) * 1e3, "ms", len(warm))
    report.note("raw.cold_ms_p50", median([t.raw_s for t in times["cold"]]) * 1e3, "ms", len(cold))
    report.note(
        "ref.probe_ms_mean",
        sum(t.ref_s for t in times["warm"]) / len(warm) * 1e3, "ms", len(warm),
    )
    report.digest = digest(sorted(result["served"].items()))
    report.counts["requests.warm"] = len(warm)
    report.counts["requests.cold"] = len(cold)
    report.counts["requests.job"] = len(job)
    report.counts["testbed.windows"] = sum(result["cold_windows"])
    report.counts["http.refused_429"] = result["refused_429"]


def job_phase_ms(jobs: list[dict]) -> tuple[float, float]:
    """Median queue wait and run time (ms) from the job records."""
    if not jobs:
        return 0.0, 0.0
    wait = [(job["started_s"] - job["created_s"]) * 1e3 for job in jobs]
    run = [(job["finished_s"] - job["started_s"]) * 1e3 for job in jobs]
    return median(wait), median(run)


def check_outputs(seq: Sequence, result: dict, seed: int, report) -> None:
    """In-process recomputation of the warm cells and a cold sample."""
    client = ReproClient(store=NullStore())
    for cell in seq.warm:
        report.attempted += 1
        metrics = client.simulate(SimulateRequest(**cell)).to_dict()["metrics"]
        if metrics != result["served"][cell_label(cell)]:
            report.mismatch(f"warm envelope metrics for {cell} differ from in-process")
    served_cold = [cell for cell in seq.cold if cell_label(cell) in result["served"]]
    rng = random.Random(seed + 1)
    for cell in rng.sample(served_cold, min(COLD_RECHECKS, len(served_cold))):
        report.attempted += 1
        metrics = client.server(ServerRequest(**cell)).to_dict()["metrics"]
        if metrics != result["served"][cell_label(cell)]:
            report.mismatch(f"cold envelope metrics for {cell} differ from in-process")
    check_goldens(report)


# -- entry points -------------------------------------------------------------------


def run(clock, start_mark, args, report, out_dir: str) -> None:
    root = os.path.join(out_dir, f"service-{os.getpid()}")
    servers: list[Server] = []
    try:
        if args.trace:
            trace_run(clock, args, report, root, servers, out_dir)
        else:
            measured_run(clock, start_mark, args, report, root, servers)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(root, ignore_errors=True)


def boot(clock, root, name, seq: Sequence, servers: list, report, traced=False):
    """Start a server and prefill it, probing only between requests."""
    server = Server(root, name, traced=traced)
    servers.append(server)
    with clock.paused():
        server.start(clock)
        references = prefill(server, seq, report, clock)
    return server, references


def measured_run(clock, start_mark, args, report, root, servers) -> None:
    seq = Sequence(args.seed, args.seconds)
    client_setup = clock.since(start_mark)
    samples = []
    for index in range(SETUP_SAMPLES):
        mark = clock.mark()
        server, references = boot(clock, root, f"setup-{index}", seq, servers, report)
        samples.append(client_setup.norm_s + clock.since(mark).norm_s)
        if index < SETUP_SAMPLES - 1:
            server.stop()
    before = server.store_counts()
    result = drive(clock, server, seq, references, report)
    report.metric("peak_rss_mb", server.peak_rss_mb(), "MB", 1)
    after = server.store_counts()
    server.stop()
    report.metric("setup_s", median(samples), "s", len(samples))
    summarize(result, report)
    for name in after:
        report.counts[name] = after[name] - before[name]
    wait_ms, run_ms = job_phase_ms(result["jobs"])
    report.note("jobs.queue_wait_ms", wait_ms, "ms", len(result["jobs"]))
    report.note("jobs.run_ms", run_ms, "ms", len(result["jobs"]))
    check_outputs(seq, result, args.seed, report)


def trace_run(clock, args, report, root, servers, out_dir: str) -> None:
    """The sequence (half length) against a plain server, then against
    the traced launcher; digests must agree and the ratio of their
    normalized totals is the tracing overhead."""
    seq = Sequence(args.seed, args.seconds / 2)
    plain_server, references = boot(clock, root, "plain", seq, servers, report)
    plain = drive(clock, plain_server, seq, references, report)
    plain_server.stop()
    server, references = boot(clock, root, "traced", seq, servers, report, traced=True)
    server.reset_trace()
    server.reset_accounting()
    result = drive(clock, server, seq, references, report)
    http_calls, http_raw_s = server.http_calls, server.http_raw_s
    server.stop()
    with open(server.summary_file) as handle:
        summary = json.load(handle)
    plain_digest = digest(sorted(plain["served"].items()))
    both = sorted(set(plain["served"]) & set(result["served"]))
    if any(plain["served"][k] != result["served"][k] for k in both):
        report.mismatch("traced server outputs differ from the untraced pass")
    report.digest = digest(sorted(result["served"].items()))
    report.note("trace.untraced_digest", plain_digest, "")

    def total(run: dict) -> float:
        return sum(t.norm_s for kind in run["times"].values() for t in kind)

    times = [t for kind in result["times"].values() for t in kind]
    raw = sum(t.raw_s for t in times)
    scale = sum(t.norm_s for t in times) / raw if raw else 1.0
    totals = summary["totals"]
    values = layers.layer_metrics(totals, summary["extra"], http_calls, scale)
    request_ns = totals.get("api.request", (0, 0, 0))[2]
    values["http.wire_us"] = (http_raw_s * 1e9 - request_ns) / 1000.0 / http_calls * scale
    values["http.refused_429"] = result["refused_429"]
    values["engine.windows"] = (
        totals.get("testbed.window", (0,))[0]
        + totals.get("simulator.body", (0,))[0]
        + totals.get("simulator.fast", (0,))[0]
    )
    values.update(summary["store"])
    values["jobs.queue_wait_ms"], values["jobs.run_ms"] = job_phase_ms(result["jobs"])
    values["trace.overhead"] = total(result) / total(plain)
    values["trace.wrapper_ns"] = wrapper_cost_ns()
    report.layers = layers.complete(values)
    report.note("trace.untraced_s", total(plain), "s", len(seq.ops))
    report.note("trace.traced_s", total(result), "s", len(seq.ops))
    report.note("trace.http_calls", http_calls, "count")
    if summary["missing"]:
        report.note("trace.unwrapped", ",".join(summary["missing"]), "")
    table = layers.self_time_table(totals, scale)
    layers.print_table(table, "service_mix server")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"service_mix-{args.seed}")
    shutil.copyfile(server.chrome_file, f"{stem}.trace.json")
    layers.write_table(table, f"{stem}.layers.txt")
    report.note("trace.file", f"{stem}.trace.json", "")
    check_goldens(report)
