"""Command-line interface: ``python -m repro <command>``.

The CLI is a thin shell over the stable client API (:mod:`repro.api`):
every subcommand lowers its flags to a typed request object, executes
it through one :class:`~repro.api.ReproClient`, and renders either the
human table (default) or the versioned JSON envelope (``--json``).
Because the HTTP service (``serve``) drives the same request objects
through the same client, a warm CLI ``--json`` call and a ``curl`` of
the matching ``/v1/...`` route return byte-identical documents.

Commands:

- ``simulate`` — run one (mix, policy, cooling) pair through the
  two-level simulator and print the result summary.
- ``server`` — run one (platform, mix, policy) measurement on a
  Chapter 5 server model.
- ``compare`` — run every Chapter 4 scheme on one mix and print the
  normalized table (the Fig. 4.3 view).
- ``homogeneous`` — the §5.4.1 warm-up experiment for one program.
- ``campaign`` — expand a named (mix x policy x cooling/platform) grid
  through the parallel campaign engine and print or export the table.
- ``scenarios`` — list the registered scenario library, or run named
  scenarios through the campaign engine.
- ``cache`` — inspect or maintain the on-disk result cache:
  ``stats`` (census with per-version counts) and ``prune`` (evict
  oldest entries, sweep stale tmp files).
- ``serve`` — expose the API over HTTP (``/v1/simulate``,
  ``/v1/scenarios``, ``/v1/campaign``, ...).

``campaign`` and ``scenarios run`` run serially, or with ``--jobs N``
(N > 1) on a pool of N local worker processes that share this host's
disk cache, so a later run of the same cells is all cache hits.

``simulate`` and ``server`` accept ``--checkpoint-dir DIR`` and
``--resume``: the cell runs in slices of ``--checkpoint-every N``
windows, and at each slice boundary its engine state is written
atomically, in the format a job keeps in its record (removed on
completion); an interrupted long run finishes from its last
checkpoint with bit-identical results.

Every run — ad-hoc or named — is a typed request's cells
(:mod:`repro.api.requests`) executed through the campaign engine, so
results are cached, deduplicated, and identical across entry points.

Each call is a fresh process whose warm answer is mostly imports, so
the module imports only what the parser and the run commands share;
``serve``, ``jobs`` and ``homogeneous`` import their own dependencies
in their handlers, and ``simulate`` never loads the HTTP service, the
job layer or the testbed runner.

Examples::

    python -m repro simulate --mix W1 --policy acg
    python -m repro simulate --mix W1 --policy acg --json
    python -m repro compare --mix W3 --copies 1
    python -m repro server --platform SR1500AL --mix W1 --policy comb
    python -m repro homogeneous --platform SR1500AL --app swim
    python -m repro campaign --mixes W1,W2 --policies ts,acg --jobs 4
    python -m repro campaign --grid ch5 --mixes W1 --policies bw,comb \\
        --platforms PE1950,SR1500AL --export results/campaign.csv
    python -m repro scenarios list --kind ch4
    python -m repro scenarios run hot-ambient throttle-storm --copies 1
    python -m repro cache stats --json
    python -m repro cache prune --max-entries 500
    python -m repro serve --port 8765
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable

from repro.analysis.campaigns import CAMPAIGN_GRIDS
from repro.analysis.tables import format_csv, format_series, format_table
from repro.api.client import ReproClient
from repro.api.envelope import (
    SCHEMA_VERSION,
    dumps_canonical,
    results_document,
    scenarios_document,
)
from repro.api.requests import (
    REQUEST_SCHEMA,
    REQUEST_TYPES,
    CampaignRequest,
    CompareRequest,
    ScenarioRequest,
    ServerRequest,
    SimulateRequest,
    request_from_text,
    request_to_dict,
)
from repro.campaign.spec import CACHE_VERSION
from repro.campaign.stores import default_disk_store, disk_cache_enabled
from repro.errors import ConfigurationError, ReproError
from repro.testbed.platforms import PLATFORMS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermal modeling and management of DRAM memory systems "
        "(ISCA 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--json", action="store_true",
            help="emit the versioned result envelope(s) as JSON",
        )

    def add_checkpoint_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--checkpoint-dir", default=None, metavar="DIR",
            help="write an atomic engine checkpoint to DIR every "
            "--checkpoint-every windows (removed when the run "
            "completes), enabling --resume after an interruption",
        )
        command.add_argument(
            "--checkpoint-every", type=int, default=2000, metavar="N",
            help="DTM windows between checkpoints (default 2000)",
        )
        command.add_argument(
            "--resume", action="store_true",
            help="resume from the checkpoint in --checkpoint-dir if one "
            "exists; the result is bit-identical to an uninterrupted run",
        )

    simulate = sub.add_parser("simulate", help="one Chapter 4 simulation run")
    _add_request_flags(simulate, SimulateRequest)
    add_checkpoint_flags(simulate)
    add_json_flag(simulate)

    compare = sub.add_parser("compare", help="all Chapter 4 schemes on one mix")
    _add_request_flags(compare, CompareRequest)
    add_json_flag(compare)

    server = sub.add_parser("server", help="one Chapter 5 server measurement")
    _add_request_flags(server, ServerRequest)
    add_checkpoint_flags(server)
    add_json_flag(server)

    homogeneous = sub.add_parser("homogeneous", help="§5.4.1 warm-up experiment")
    homogeneous.add_argument("--platform", default="SR1500AL", choices=sorted(PLATFORMS))
    homogeneous.add_argument("--app", default="swim")
    homogeneous.add_argument("--duration", type=float, default=500.0)
    add_json_flag(homogeneous)

    campaign = sub.add_parser(
        "campaign", help="run a named experiment grid through the campaign engine"
    )
    # Each grid spells the variants axis its own way (--coolings, ...).
    _add_request_flags(campaign, CampaignRequest, skip=("variants",))
    for grid in CAMPAIGN_GRIDS.values():
        campaign.add_argument(
            grid.variant_flag, default=None,
            help=f"comma-separated {grid.variant_flag[2:]} ({grid.name} "
            f"grid only; default {grid.variant_default})",
        )
    campaign.add_argument(
        "--export", default=None, metavar="PATH",
        help="also write the table as CSV to PATH",
    )
    add_json_flag(campaign)

    scenarios = sub.add_parser(
        "scenarios", help="list or run the registered scenario library"
    )
    action = scenarios.add_subparsers(dest="action", required=True)
    s_list = action.add_parser("list", help="show every registered scenario")
    s_list.add_argument("--kind", default=None, choices=("ch4", "ch5"))
    s_list.add_argument("--tag", default=None, help="filter by scenario tag")
    add_json_flag(s_list)
    s_run = action.add_parser("run", help="run one or more scenarios by name")
    s_run.add_argument("names", nargs="+", metavar="NAME")
    _add_request_flags(s_run, ScenarioRequest, skip=("names",))
    s_run.add_argument(
        "--export", default=None, metavar="PATH",
        help="also write the table as CSV to PATH",
    )
    add_json_flag(s_run)

    cache = sub.add_parser(
        "cache",
        help="inspect or maintain the on-disk result cache "
        "(REPRO_CACHE_DIR selects it)",
    )
    cache_action = cache.add_subparsers(dest="action", required=True)
    c_stats = cache_action.add_parser(
        "stats",
        help="cache census: entries, bytes, per-version counts, "
        "leftover tmp files",
    )
    add_json_flag(c_stats)
    c_prune = cache_action.add_parser(
        "prune", help="evict oldest entries and sweep stale tmp files"
    )
    c_prune.add_argument(
        "--max-entries", type=int, default=None, metavar="N",
        help="evict oldest entries (by mtime) down to N (>= 0); "
        "without it only stale tmp files are swept",
    )
    c_prune.add_argument(
        "--tmp-grace-s", type=float, default=None, metavar="SECONDS",
        help="sweep tmp files older than this (>= 0, default 3600); "
        "younger ones may belong to an in-flight writer",
    )
    add_json_flag(c_prune)

    serve_cmd = sub.add_parser(
        "serve", help="serve the API over HTTP (see repro.api.service)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 binds an ephemeral port; see --port-file)",
    )
    serve_cmd.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port to PATH once listening",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    serve_cmd.add_argument(
        "--jobs", action="store_true",
        help="mount the multi-tenant job service (/v1/jobs): persistent "
        "priority queue, per-tenant quotas, preemptive scheduling",
    )
    serve_cmd.add_argument(
        "--jobs-dir", default=".repro_jobs", metavar="DIR",
        help="directory for persistent job records (default .repro_jobs); "
        "queued and running jobs found here are resumed on start",
    )
    serve_cmd.add_argument(
        "--window-slice", type=int, default=500, metavar="N",
        help="DTM windows per scheduling slice (default 500): the "
        "preemption/cancel/checkpoint granularity of running jobs",
    )
    serve_cmd.add_argument(
        "--quota-max-active", type=int, default=8, metavar="N",
        help="default per-tenant cap on queued+running jobs (default 8)",
    )
    serve_cmd.add_argument(
        "--quota-rate", type=float, default=5.0, metavar="R",
        help="default per-tenant sustained submits/second (default 5)",
    )
    serve_cmd.add_argument(
        "--quota-burst", type=int, default=10, metavar="N",
        help="default per-tenant submit burst headroom (default 10)",
    )
    serve_cmd.add_argument(
        "--tenant-quota", action="append", default=[],
        metavar="NAME=MAX_ACTIVE,RATE,BURST",
        help="override the quota for one tenant (repeatable), e.g. "
        "--tenant-quota batch=2,1,2",
    )
    serve_cmd.add_argument(
        "--max-concurrent-runs", type=int, default=None, metavar="N",
        help="bound on simultaneously executing compute requests "
        "(default: CPU count); excess requests get a structured 429",
    )

    jobs_cmd = sub.add_parser(
        "jobs",
        help="submit and manage jobs on a 'repro serve --jobs' instance",
    )
    jobs_action = jobs_cmd.add_subparsers(dest="action", required=True)

    def add_url_flag(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--url", required=True, metavar="URL",
            help="base URL of a jobs-enabled service "
            "(e.g. http://127.0.0.1:8765)",
        )

    j_submit = jobs_action.add_parser(
        "submit", help="submit one typed request as a job"
    )
    add_url_flag(j_submit)
    j_submit.add_argument(
        "--type", default="simulate", choices=sorted(REQUEST_TYPES),
        dest="request_type", help="request type (default simulate)",
    )
    j_submit.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        dest="fields",
        help="request field (repeatable), parsed like the matching flag "
        "and checked before submit, e.g. --set mixes=W1,W2 --set copies=1",
    )
    j_submit.add_argument("--tenant", default="default")
    j_submit.add_argument(
        "--priority", type=int, default=0,
        help="higher preempts lower at window-slice boundaries",
    )
    j_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and print its result "
        "document (byte-identical to the equivalent warm --json run)",
    )
    j_submit.add_argument("--timeout", type=float, default=600.0, metavar="S")
    add_json_flag(j_submit)
    for action_name, action_help in (
        ("status", "job status with live per-cell progress"),
        ("result", "the completed job's result document"),
        ("cancel", "cancel a queued or running job"),
    ):
        action_cmd = jobs_action.add_parser(action_name, help=action_help)
        action_cmd.add_argument("job_id", metavar="JOB_ID")
        add_url_flag(action_cmd)
        add_json_flag(action_cmd)
    j_list = jobs_action.add_parser("list", help="list known jobs")
    add_url_flag(j_list)
    j_list.add_argument("--tenant", default=None, help="filter by tenant")
    add_json_flag(j_list)
    return parser


def _add_request_flags(command: argparse.ArgumentParser, cls: type, skip=()) -> None:
    """One ``--<field>`` flag per field of request class ``cls``.

    A flag left out stays ``None`` (the field's default applies); a
    given one is text, parsed like an HTTP query parameter.
    """
    for spec in REQUEST_SCHEMA[cls].values():
        if spec.name not in skip:
            default = "" if spec.default is None else f" (default {spec.default})"
            choices = getattr(spec.kind, "choices", None)
            command.add_argument(
                f"--{spec.name}",
                metavar=choices and "{" + ",".join(choices) + "}",
                help=spec.help + default,
            )


def _request_from_args(args: argparse.Namespace):
    """The typed request of a run command (named after its ``type`` tag).

    ``scenarios run`` names come as a positional list, and ``campaign``
    variants from the selected grid's own flag.
    """
    cls = REQUEST_TYPES[args.command]
    values = {
        name: getattr(args, name)
        for name in REQUEST_SCHEMA[cls]
        if getattr(args, name, None) is not None
    }
    if cls is CampaignRequest:
        grid_name = values.get("grid", REQUEST_SCHEMA[cls]["grid"].default)
        for grid in CAMPAIGN_GRIDS.values():
            raw = getattr(args, grid.variant_flag[2:])
            if raw is not None and grid.name != grid_name:
                raise ConfigurationError(
                    f"{grid.variant_flag} does not apply to the {grid_name} grid"
                )
            if raw is not None:
                values["variants"] = raw
    return request_from_text(cls.TYPE, values)


def _print_json(document) -> None:
    print(dumps_canonical(document))


def _export_csv(
    path_arg: str | None,
    headers: list[str],
    rows: list[list],
    quiet: bool = False,
) -> None:
    if not path_arg:
        return
    path = Path(path_arg)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_csv(headers, rows) + "\n")
    if quiet:
        # Under --json stdout must stay one parseable document, so the
        # note goes to stderr instead.
        print(f"exported {path}", file=sys.stderr)
    else:
        print(f"\nexported {path}")


def _checkpoint_kwargs(args: argparse.Namespace) -> dict | None:
    """The resumable-run kwargs, or None for a plain run."""
    if args.checkpoint_dir is None:
        if args.resume:
            raise ConfigurationError("--resume requires --checkpoint-dir")
        return None
    return {
        "checkpoint_dir": args.checkpoint_dir,
        "checkpoint_every": args.checkpoint_every,
        "resume": args.resume,
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    client = ReproClient()
    checkpointing = _checkpoint_kwargs(args)
    if checkpointing is None:
        envelope = client.simulate(request)
    else:
        envelope = client.run_resumable(request, **checkpointing)
    if args.json:
        print(envelope.to_json())
        return 0
    metrics = envelope.metrics
    rows = [
        ["runtime (s)", metrics["runtime_s"]],
        ["traffic (TB)", metrics["traffic_bytes"] / 1e12],
        ["L2 misses (G)", metrics["l2_misses"] / 1e9],
        ["CPU energy (kJ)", metrics["cpu_energy_j"] / 1e3],
        ["memory energy (kJ)", metrics["memory_energy_j"] / 1e3],
        ["peak AMB (degC)", metrics["peak_amb_c"]],
        ["peak DRAM (degC)", metrics["peak_dram_c"]],
        ["shutdown fraction", metrics["shutdown_fraction"]],
    ]
    print(f"{metrics['policy']} on {request.mix} @ {request.cooling} ({request.ambient} model):\n")
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    envelopes = ReproClient().compare(request)
    if args.json:
        _print_json(results_document(envelopes))
        return 0
    baseline = envelopes[0].metrics
    rows = [
        [metrics["policy"],
         metrics["runtime_s"] / baseline["runtime_s"],
         metrics["traffic_bytes"] / baseline["traffic_bytes"],
         metrics["cpu_energy_j"] / baseline["cpu_energy_j"],
         metrics["peak_amb_c"]]
        for metrics in (envelope.metrics for envelope in envelopes)
    ]
    print(f"{request.mix} @ {request.cooling}, normalized to No-limit:\n")
    print(format_table(["scheme", "runtime", "traffic", "cpu E", "peak AMB"], rows))
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    request = _request_from_args(args)
    client = ReproClient()
    checkpointing = _checkpoint_kwargs(args)
    if checkpointing is None:
        envelope = client.server(request)
    else:
        envelope = client.run_resumable(request, **checkpointing)
    if args.json:
        print(envelope.to_json())
        return 0
    metrics = envelope.metrics
    rows = [
        ["runtime (s)", metrics["runtime_s"]],
        ["L2 misses (G)", metrics["l2_misses"] / 1e9],
        ["avg CPU power (W)", metrics["average_cpu_power_w"]],
        ["mean inlet (degC)", metrics["mean_inlet_c"]],
        ["peak AMB (degC)", metrics["peak_amb_c"]],
    ]
    print(f"{metrics['policy']} on {request.mix} @ {request.platform}:\n")
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_homogeneous(args: argparse.Namespace) -> int:
    from repro.testbed.runner import run_homogeneous

    platform = PLATFORMS[args.platform]
    trace, _ = run_homogeneous(platform, args.app, duration_s=args.duration)
    crossed = next(
        (t for t, a in zip(trace.times_s, trace.amb_c) if a >= 100.0), None
    )
    if args.json:
        _print_json({
            "schema_version": SCHEMA_VERSION,
            "kind": "homogeneous",
            "request": {
                "type": "homogeneous",
                "platform": args.platform,
                "app": args.app,
                "duration_s": args.duration,
            },
            "metrics": {
                "samples": len(trace),
                "start_amb_c": trace.amb_c[0],
                "max_amb_c": max(trace.amb_c),
                "crossed_100c_s": crossed,
            },
        })
        return 0
    print(f"4x {args.app} on {platform.name}, {args.duration:.0f} s from idle:\n")
    print(format_series("AMB", trace.amb_c))
    print(f"\nstart {trace.amb_c[0]:.1f} degC, max {max(trace.amb_c):.1f} degC, "
          f"100 degC reached: {'never' if crossed is None else f'{crossed:.0f} s'}")
    return 0


def _run_grid_command(args: argparse.Namespace) -> int:
    """``campaign`` and ``scenarios run``: JSON or table."""
    request = _request_from_args(args)
    label = (
        "scenarios" if isinstance(request, ScenarioRequest)
        else f"campaign {request.grid}"
    )
    client = ReproClient()
    if args.json:
        _print_json(results_document(list(client.run_campaign(request))))
        if args.export:
            # The cells are warm now, so the table pass is all hits
            # served from the local store (no re-dispatch).
            headers, rows = client.campaign_table(request)
            _export_csv(args.export, headers, rows, quiet=True)
        return 0
    headers, rows = client.campaign_table(request)
    print(f"{label}: {len(rows)} runs\n")
    print(format_table(headers, rows))
    _export_csv(args.export, headers, rows)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    client = ReproClient()
    if args.action == "list":
        descriptors = client.list_scenarios(kind=args.kind, tag=args.tag)
        if args.json:
            _print_json(scenarios_document(descriptors))
            return 0
        rows = [
            [d["name"], d["kind"], d["mix"], d["policy"],
             ",".join(d["tags"]), d["description"]]
            for d in descriptors
        ]
        if not rows:
            print("no scenarios match the filter", file=sys.stderr)
            return 1
        print(format_table(
            ["name", "kind", "mix", "policy", "tags", "description"], rows
        ))
        return 0
    # action == "run" — same columns as `campaign --grid scenarios`.
    return _run_grid_command(args)


def _disk_store_or_fail():
    if not disk_cache_enabled():
        raise ConfigurationError(
            "the disk cache is disabled (REPRO_CACHE=0); nothing to manage"
        )
    return default_disk_store()


def _cmd_cache(args: argparse.Namespace) -> int:
    store = _disk_store_or_fail()
    if args.action == "stats":
        stats = store.stats()
        if args.json:
            _print_json(stats)
            return 0
        print(f"cache root: {stats['root']}")
        print(f"entries:    {stats['entries']} ({stats['bytes']} bytes)")
        print(f"shards:     {stats['shards']}")
        versions = stats["versions"] or {}
        rendered = ", ".join(
            f"{label}={count}" for label, count in sorted(versions.items())
        )
        print(f"versions:   {rendered or 'none'} (current: {CACHE_VERSION})")
        print(f"tmp files:  {stats['tmp_files']}")
        return 0
    # action == "prune"
    kwargs = {}
    if args.tmp_grace_s is not None:
        kwargs["tmp_grace_s"] = args.tmp_grace_s
    removed = store.prune(args.max_entries, **kwargs)
    if args.json:
        _print_json({"removed": removed, "root": store.stats()["root"]})
    else:
        print(f"removed {removed} file(s)")
    return 0


def _named_values(
    flag: str, items: list[str], form: str, parse: Callable[[str], Any]
) -> dict[str, Any]:
    """The ``NAME=VALUE`` items of a repeatable flag, by name, each
    VALUE through ``parse``.  A missing ``=``, an empty or repeated
    NAME, or a VALUE that ``parse`` refuses (``ValueError`` or
    :class:`~repro.errors.ConfigurationError`) is one
    :class:`~repro.errors.ConfigurationError` naming the flag."""
    values: dict[str, Any] = {}
    for item in items:
        name, eq, text = item.partition("=")
        if not eq or not name:
            raise ConfigurationError(f"{flag} expects {form}, got {item!r}")
        if name in values:
            raise ConfigurationError(f"{flag} names {name!r} twice")
        try:
            values[name] = parse(text)
        except (ValueError, ConfigurationError) as error:
            raise ConfigurationError(f"bad {flag} {item!r}: {error}") from None
    return values


def _job_request_from_flags(args: argparse.Namespace) -> dict:
    """The ``--set KEY=VALUE`` request, parsed and checked before submit."""
    values = _named_values("--set", args.fields, "KEY=VALUE", str)
    return request_to_dict(request_from_text(args.request_type, values))


def _print_job_line(job: dict) -> None:
    print(
        f"{job['id']}  {job['status']:<9}  tenant={job['tenant']}  "
        f"priority={job['priority']}  "
        f"cells={job['cells_done']}/{job['cells_total']}"
    )


def _cmd_jobs(args: argparse.Namespace) -> int:
    from repro.jobs.client import JobsClient

    client = JobsClient(args.url)
    if args.action == "submit":
        document = client.submit(
            _job_request_from_flags(args),
            tenant=args.tenant,
            priority=args.priority,
        )
        job = document["job"]
        if args.wait:
            result = client.wait(job["id"], timeout_s=args.timeout)
            if args.json:
                _print_json(result)
            else:
                _print_job_line(client.status(job["id"])["job"])
            return 0
        if args.json:
            _print_json(document)
        else:
            _print_job_line(job)
        return 0
    if args.action == "list":
        document = client.list(args.tenant)
        if args.json:
            _print_json(document)
        else:
            for job in document["jobs"]:
                _print_job_line(job)
            if not document["jobs"]:
                print("no jobs")
        return 0
    # status / result / cancel take one job_id
    call = {
        "status": client.status,
        "result": client.result,
        "cancel": client.cancel,
    }[args.action]
    document = call(args.job_id)
    if args.json:
        _print_json(document)
        return 0
    if args.action == "result":
        # The result document has no single job line; print it as JSON
        # (it is the same canonical text --json would emit).
        _print_json(document)
        return 0
    _print_job_line(document["job"])
    if args.action == "status":
        progress = document["job"].get("progress", {})
        for key, snapshot in sorted(progress.items()):
            print(f"  {key}: {snapshot}")
    return 0


def _tenant_policy(text: str) -> TenantPolicy:
    """A ``MAX_ACTIVE,RATE,BURST`` quota."""
    from repro.jobs.tenancy import TenantPolicy

    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected MAX_ACTIVE,RATE,BURST")
    return TenantPolicy(int(parts[0]), float(parts[1]), int(parts[2]))


def _jobs_manager_from_flags(args: argparse.Namespace) -> JobsManager:
    from repro.jobs import JobsManager, QuotaManager, TenantPolicy

    quotas = QuotaManager(
        default=TenantPolicy(
            max_active=args.quota_max_active,
            rate_per_s=args.quota_rate,
            burst=args.quota_burst,
        ),
        overrides=_named_values(
            "--tenant-quota", args.tenant_quota, "NAME=MAX_ACTIVE,RATE,BURST",
            _tenant_policy,
        ),
    )
    return JobsManager(
        args.jobs_dir,
        window_slice=args.window_slice,
        quotas=quotas,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.api.service import serve

    jobs = _jobs_manager_from_flags(args) if args.jobs else None
    if not args.jobs and args.tenant_quota:
        raise ConfigurationError("--tenant-quota needs --jobs")
    return serve(
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        verbose=args.verbose,
        jobs=jobs,
        max_concurrent_runs=args.max_concurrent_runs,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "compare": _cmd_compare,
        "server": _cmd_server,
        "homogeneous": _cmd_homogeneous,
        "campaign": _run_grid_command,
        "scenarios": _cmd_scenarios,
        "cache": _cmd_cache,
        "jobs": _cmd_jobs,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, TimeoutError) as error:
        # Every library failure (and a ``--wait`` that ran out of time)
        # surfaces as one clean line, never a traceback: unknown
        # scenarios, bad grid axes, unknown mixes, unreachable services.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
