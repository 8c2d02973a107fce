"""Command-line interface."""

import json
import socket
import threading

import pytest

from repro.api import ReproService
from repro.campaign import MemoryStore
from repro.cli import main
from repro.jobs import JobsManager


def test_simulate_command(capsys):
    code = main(["simulate", "--mix", "W1", "--policy", "ts", "--copies", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "DTM-TS" in out
    assert "peak AMB" in out


def test_compare_command(capsys):
    code = main(["compare", "--mix", "W1", "--copies", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "No-limit" in out
    assert "DTM-ACG" in out


def test_server_command(capsys):
    code = main(["server", "--platform", "PE1950", "--mix", "W1",
                 "--policy", "bw", "--copies", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PE1950" in out
    assert "inlet" in out


def test_homogeneous_command(capsys):
    code = main(["homogeneous", "--platform", "SR1500AL", "--app", "swim",
                 "--duration", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "swim" in out
    assert "AMB" in out


def test_simulate_comb_policy(capsys):
    code = main(["simulate", "--mix", "W1", "--policy", "comb", "--copies", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "DTM-COMB" in out


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--policy", "warp"])


@pytest.mark.parametrize("argv, message", [
    (["campaign", "--backend", "vector"], "invalid choice: 'vector'"),
    (["serve", "--jobs", "--jobs-backend", "http"], "unrecognized arguments"),
    (["serve", "--jobs", "--jobs-workers", "x:1"], "unrecognized arguments"),
])
def test_removed_backend_options_are_unknown(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_campaign_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    export = tmp_path / "out" / "campaign.csv"
    code = main([
        "campaign", "--mixes", "W1", "--policies", "ts,acg",
        "--copies", "1", "--jobs", "1", "--export", str(export),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign ch4: 2 runs" in out
    assert "runtime(s)" in out
    csv = export.read_text()
    assert csv.startswith("cooling,mix,policy,")
    assert len(csv.strip().splitlines()) == 3  # header + 2 runs


def test_campaign_parallel_output_is_deterministic(capsys, tmp_path, monkeypatch):
    from repro.campaign import GLOBAL_MEMORY

    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c1"))
    args = ["campaign", "--grid", "ch5", "--mixes", "W1",
            "--policies", "bw,comb", "--copies", "1"]
    assert main(args + ["--jobs", "2"]) == 0
    parallel_out = capsys.readouterr().out
    # Fresh caches so the serial run really recomputes.
    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c2"))
    assert main(args + ["--jobs", "1"]) == 0
    serial_out = capsys.readouterr().out
    assert parallel_out == serial_out


def _one_clean_error_line(err: str) -> bool:
    """A single-line diagnostic, not a traceback."""
    return (
        "Traceback" not in err
        and err.startswith("error: ")
        and err.strip().count("\n") == 0
    )


def test_campaign_bad_inputs_fail_cleanly(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["campaign", "--mixes", "W1", "--policies", "warp"]) == 2
    assert "unknown ch4 policies" in capsys.readouterr().err
    assert main(["campaign", "--mixes", "", "--policies", "ts"]) == 2
    assert "zero runs" in capsys.readouterr().err
    assert main(["campaign", "--mixes", "W1", "--jobs", "0"]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert main(["campaign", "--grid", "ch5", "--coolings", "FDHS_1.0"]) == 2
    assert "does not apply" in capsys.readouterr().err
    assert main(["campaign", "--grid", "ch4", "--platforms", "PE1950"]) == 2
    assert "does not apply" in capsys.readouterr().err


def test_campaign_unknown_mix_fails_cleanly(capsys, tmp_path, monkeypatch):
    """A bad grid key deep in the workload layer still prints one line."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["campaign", "--mixes", "W99", "--policies", "ts",
                 "--copies", "1"]) == 2
    err = capsys.readouterr().err
    assert "unknown workload mix 'W99'" in err
    assert _one_clean_error_line(err)


def test_campaign_scenarios_flag_conflicts(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["campaign", "--grid", "ch4", "--scenarios", "idle-burst"]) == 2
    err = capsys.readouterr().err
    assert "--scenarios does not apply to the ch4 grid" in err
    assert _one_clean_error_line(err)
    assert main(["campaign", "--grid", "scenarios",
                 "--coolings", "FDHS_1.0"]) == 2
    err = capsys.readouterr().err
    assert "--coolings does not apply to the scenarios grid" in err
    assert _one_clean_error_line(err)


def test_campaign_unknown_scenario_fails_cleanly(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["campaign", "--grid", "scenarios", "--scenarios", "warp"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'warp'" in err
    assert _one_clean_error_line(err)


def test_scenarios_list_command(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    assert "hot-ambient" in out
    assert "server-low-tdp" in out
    assert main(["scenarios", "list", "--kind", "ch5"]) == 0
    out = capsys.readouterr().out
    assert "server-hot-inlet" in out
    assert "hot-ambient" not in out
    assert main(["scenarios", "list", "--tag", "nosuchtag"]) == 1
    assert "no scenarios match" in capsys.readouterr().err


def test_scenarios_run_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    export = tmp_path / "scenarios.csv"
    assert main(["scenarios", "run", "cold-aisle", "--copies", "1",
                 "--export", str(export)]) == 0
    out = capsys.readouterr().out
    assert "scenarios: 1 runs" in out
    assert "cold-aisle" in out
    assert export.read_text().startswith("scenario,kind,mix,policy,")


def test_scenarios_run_unknown_fails_cleanly(capsys):
    assert main(["scenarios", "run", "warp"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'warp'" in err
    assert _one_clean_error_line(err)


def test_scenarios_action_required():
    with pytest.raises(SystemExit):
        main(["scenarios"])


def _json_out(capsys) -> dict:
    import json

    return json.loads(capsys.readouterr().out)


def test_simulate_json_envelope(capsys):
    from repro.api import ResultEnvelope

    assert main(["simulate", "--mix", "W1", "--policy", "ts",
                 "--copies", "1", "--json"]) == 0
    envelope = ResultEnvelope.from_dict(_json_out(capsys))
    assert envelope.kind == "ch4"
    assert envelope.metrics["policy"] == "DTM-TS"
    assert envelope.request["type"] == "simulate"
    assert envelope.provenance.cache in ("hit", "miss")


def test_server_json_envelope(capsys):
    assert main(["server", "--platform", "PE1950", "--mix", "W1",
                 "--policy", "bw", "--copies", "1", "--json"]) == 0
    document = _json_out(capsys)
    assert document["kind"] == "ch5"
    assert document["metrics"]["platform"] == "PE1950"


def test_compare_json_document(capsys):
    assert main(["compare", "--mix", "W1", "--copies", "1", "--json"]) == 0
    document = _json_out(capsys)
    assert document["schema_version"]
    assert document["results"][0]["metrics"]["policy"] == "No-limit"
    assert len(document["results"]) == 8


def test_homogeneous_json(capsys):
    assert main(["homogeneous", "--platform", "SR1500AL", "--app", "swim",
                 "--duration", "60", "--json"]) == 0
    document = _json_out(capsys)
    assert document["kind"] == "homogeneous"
    assert document["metrics"]["samples"] > 0
    assert document["metrics"]["max_amb_c"] > document["metrics"]["start_amb_c"]


def test_campaign_json_document(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["campaign", "--mixes", "W1", "--policies", "ts,acg",
                 "--copies", "1", "--json"]) == 0
    document = _json_out(capsys)
    assert len(document["results"]) == 2
    assert [r["metrics"]["policy"] for r in document["results"]] == [
        "DTM-TS", "DTM-ACG",
    ]
    assert all(r["request"]["type"] == "cell" for r in document["results"])


def test_scenarios_list_json(capsys):
    assert main(["scenarios", "list", "--json"]) == 0
    document = _json_out(capsys)
    assert {"name", "kind", "tags"} <= set(document["scenarios"][0])
    assert main(["scenarios", "list", "--kind", "ch5", "--json"]) == 0
    document = _json_out(capsys)
    assert all(d["kind"] == "ch5" for d in document["scenarios"])


def test_scenarios_run_json(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["scenarios", "run", "cold-aisle", "--copies", "1",
                 "--json"]) == 0
    document = _json_out(capsys)
    assert document["results"][0]["scenario"] == "cold-aisle"


def test_campaign_json_with_export_writes_csv(capsys, tmp_path, monkeypatch):
    """--export still works under --json; stdout stays pure JSON."""
    import json

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    export = tmp_path / "campaign.csv"
    assert main(["campaign", "--mixes", "W1", "--policies", "ts",
                 "--copies", "1", "--json", "--export", str(export)]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)  # no trailing export note
    assert len(document["results"]) == 1
    assert "exported" in captured.err
    assert export.read_text().startswith("cooling,mix,policy,")


def test_simulate_with_checkpoint_dir_matches_plain_run(capsys, tmp_path, monkeypatch):
    """--checkpoint-dir produces the same envelope a plain run does and
    leaves no checkpoint files once the run completes."""
    import json

    from repro.campaign import GLOBAL_MEMORY

    GLOBAL_MEMORY.clear()  # the suite-shared memo would turn the cold run into a hit
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    ckpt_dir = tmp_path / "ckpt"
    assert main(["simulate", "--mix", "W1", "--policy", "ts", "--copies", "1",
                 "--checkpoint-dir", str(ckpt_dir),
                 "--checkpoint-every", "500", "--json"]) == 0
    checkpointed = json.loads(capsys.readouterr().out)
    assert checkpointed["provenance"]["cache"] == "miss"
    assert not list(ckpt_dir.glob("*.checkpoint.json*"))

    # A plain warm run over the same store returns identical metrics.
    assert main(["simulate", "--mix", "W1", "--policy", "ts", "--copies", "1",
                 "--json"]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert plain["provenance"]["cache"] == "hit"
    assert plain["metrics"] == checkpointed["metrics"]


def test_simulate_resume_finishes_from_checkpoint(capsys, tmp_path, monkeypatch):
    """--resume picks up a half-done run's checkpoint and the finished
    metrics are bit-identical to an uninterrupted run."""
    import json

    from repro.api import SimulateRequest
    from repro.campaign import NullStore, engine_for_spec, run
    from repro.engine import CheckpointFile, CheckpointObserver

    from repro.campaign import GLOBAL_MEMORY

    GLOBAL_MEMORY.clear()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    request = SimulateRequest(mix="W1", policy="ts", copies=1)
    spec = request.spec()
    uninterrupted = run(spec, store=NullStore())

    # Fake the interrupted first half exactly as the CLI would have
    # left it: same observer line-up (the CheckpointObserver included),
    # same file name, abandoned mid-run.
    ckpt_dir = tmp_path / "ckpt"
    checkpoint = CheckpointFile(ckpt_dir / f"{spec.key()}.checkpoint.json")
    engine = engine_for_spec(
        spec,
        extra_observers=(CheckpointObserver(checkpoint, every_windows=200),),
    )
    engine.step_windows(400)

    assert main(["simulate", "--mix", "W1", "--policy", "ts", "--copies", "1",
                 "--checkpoint-dir", str(ckpt_dir), "--resume",
                 "--json"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    assert resumed["metrics"]["runtime_s"] == uninterrupted.runtime_s
    assert resumed["metrics"]["peak_amb_c"] == uninterrupted.peak_amb_c
    assert resumed["metrics"]["cpu_energy_j"] == uninterrupted.cpu_energy_j
    assert not list(ckpt_dir.glob("*.checkpoint.json*"))


def test_resume_without_checkpoint_dir_is_an_error(capsys):
    assert main(["server", "--platform", "PE1950", "--mix", "W1",
                 "--policy", "bw", "--copies", "1", "--resume"]) == 2
    assert "--checkpoint-dir" in capsys.readouterr().err


def _seeded_cache(root) -> list:
    """A cache holding one entry and one stale and one young tmp file."""
    import os
    import time

    from repro.campaign import JsonDirStore

    store = JsonDirStore(root)
    store.put("test-cube-00c1", {"cube": 1})
    shard_dir = store._path("test-cube-00c1").parent
    stale = shard_dir / "a.json.tmp.1.2.3"
    young = shard_dir / "b.json.tmp.4.5.6"
    stale.write_text("{")
    young.write_text("{")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    return sorted(root.rglob("*"))


@pytest.mark.parametrize("flag, value, field", [
    ("--max-entries", "-1", "max_entries"),
    # A negative grace would put the cutoff in the future and sweep the
    # young tmp file of an in-flight writer.
    ("--tmp-grace-s", "-5", "tmp_grace_s"),
])
def test_cache_prune_rejects_negative_arguments(
    capsys, tmp_path, monkeypatch, flag, value, field
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    before = _seeded_cache(tmp_path)
    assert main(["cache", "prune", flag, value]) == 2
    err = capsys.readouterr().err
    assert _one_clean_error_line(err) and field in err
    assert sorted(tmp_path.rglob("*")) == before  # nothing removed


def test_cache_migrate_wraps_bare_files(capsys, tmp_path, monkeypatch):
    import json

    from repro.campaign import JsonDirStore

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = JsonDirStore(tmp_path)
    store.write_document("test-cube-00c2", {"cube": 8})  # bare
    assert store.get("test-cube-00c2") is None
    assert main(["cache", "migrate", "--dry-run"]) == 0
    assert "would wrap 1 of 1 entries" in capsys.readouterr().out
    assert main(["cache", "migrate", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["wrapped"] == 1
    assert store.get("test-cube-00c2") == {"cube": 8}
    assert main(["cache", "stats"]) == 0
    assert "unrecorded=1" in capsys.readouterr().out


# -- HTTP client commands ----------------------------------------------------


@pytest.fixture()
def queued_jobs_service(tmp_path):
    """A jobs-enabled service whose scheduler never starts, so every
    submitted job stays queued."""
    jobs = JobsManager(str(tmp_path / "jobs"), store=MemoryStore())
    service = ReproService(port=0, jobs=jobs)
    thread = threading.Thread(target=service.serve_forever, daemon=True)
    thread.start()
    yield service
    service.shutdown()
    service.server_close()
    thread.join(timeout=5)


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def test_client_failures_are_one_error_line(capsys):
    """Every command that calls a service fails with one ``error:`` line
    and exit 2 when nothing listens, never a traceback."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    url = f"http://127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    for argv in (
        ["jobs", "status", "--url", url, "job-x"],
        ["jobs", "list", "--url", url],
        ["jobs", "submit", "--url", url, "--type", "simulate",
         "--set", "mix=W1"],
        ["trace", "export", "--url", url, "--trace-id", "abc"],
        ["slo", "check", "--url", url],
    ):
        assert main(argv) == 2, argv
        assert url in _one_error_line(capsys), argv


def test_jobs_list_url_encodes_the_tenant(queued_jobs_service, capsys):
    url = queued_jobs_service.url
    for tenant in ("a b", "a&b"):
        assert main([
            "jobs", "submit", "--url", url, "--type", "simulate",
            "--set", "mix=W1", "--set", "copies=1", "--tenant", tenant,
            "--json",
        ]) == 0
        job_id = json.loads(capsys.readouterr().out)["job"]["id"]
        assert main([
            "jobs", "list", "--url", url, "--tenant", tenant, "--json",
        ]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [job["id"] for job in listing["jobs"]] == [job_id], tenant


def test_http_error_line_carries_the_service_error(
    queued_jobs_service, capsys
):
    url = queued_jobs_service.url
    assert main(["trace", "export", "--url", url, "--trace-id", "nope"]) == 2
    line = _one_error_line(capsys)
    assert "404" in line and "no spans retained for trace 'nope'" in line
    assert main(["jobs", "status", "--url", url, "job-missing"]) == 2
    line = _one_error_line(capsys)
    assert "404" in line and "unknown job 'job-missing'" in line
