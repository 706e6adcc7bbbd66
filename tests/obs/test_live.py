"""Live campaign telemetry: journal records, heartbeats, monitor fold.

Three contracts from the live-telemetry design are pinned here:

* **Schema + durability** — every run journal starts with a versioned
  ``header`` line, results and the run's end are fsynced at once, the
  reader tolerates a torn tail (SIGKILL), and the one-shot monitor
  report is a *pure function of the file bytes* (committed goldens,
  byte for byte).
* **Stall/straggler detection** — the parent-side monitor folds worker
  heartbeats with an injectable clock, flags stragglers once against the
  median chunk latency, and reports stalled chunks for resubmission.
* **Determinism** — enabling telemetry must not perturb the simulation:
  the campaign aggregate (plan digest, obs counters, every replica
  value) is bit-identical with telemetry on vs off, at workers=1 and
  workers=4.
"""

from __future__ import annotations

import json
import os
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.obs.live import (
    JOURNAL_KINDS,
    JOURNAL_VERSION,
    STALL_TIMEOUT_S,
    STRAGGLER_FACTOR,
    LiveRunMonitor,
    monitor_once,
    read_heartbeat,
    read_journal,
    render_monitor_report,
    serve_metrics_once,
    stamp_heartbeat,
    summarize_live,
)
from repro.obs.openmetrics import render_openmetrics
from repro.runtime import checkpoint
from repro.runtime.checkpoint import RunJournal
from repro.runtime.runner import ParallelCampaignRunner, ReplicaResult, ReplicaTask

DATA = Path(__file__).parent.parent / "data"
GOLDEN_LOG = DATA / "golden_live_log.jsonl"
GOLDEN_REPORT = DATA / "golden_monitor_report.txt"


class FakeClock:
    """Manually advanced clock for byte-stable journal/monitor tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def double_task(replica: ReplicaTask) -> int:
    """Trivial module-level task (spawn-picklable)."""
    return replica.index * 2


# -- journal records ----------------------------------------------------------


def _open_journal(path, replicas=3):
    journal, preloaded = RunJournal.open(
        path,
        root_seed=0,
        specs=[None] * replicas,
        chunk_size=1,
        workers=1,
        resume=False,
    )
    assert preloaded == {}
    return journal


def test_jsonl_sink_header_first_and_parseable(tmp_path):
    path = tmp_path / "live.jsonl"
    clock = FakeClock(5.0)
    journal = _open_journal(path)
    journal.clock = clock
    journal.emit("run_started", replicas=3)
    clock.now = 6.5
    journal.emit("chunk_done", chunk=0, replicas=3)
    journal.close()
    records, skipped = read_journal(path)
    assert skipped == 0
    assert [r["kind"] for r in records] == [
        "header",
        "run_started",
        "chunk_done",
    ]
    assert records[0]["version"] == JOURNAL_VERSION == 2
    assert records[1]["replicas"] == 3
    assert [r["t_wall"] for r in records[1:]] == [5.0, 6.5]


def test_journal_fsyncs_results_and_the_run_end_at_once(tmp_path, monkeypatch):
    """Telemetry is flushed at once but fsynced on the amortized
    schedule; a payload-carrying ``chunk_done`` and ``run_finished`` are
    fsynced before the write returns."""
    fsyncs: list[int] = []
    real_fsync = checkpoint.os.fsync
    monkeypatch.setattr(checkpoint, "_FSYNC_INTERVAL_S", 1e9)
    monkeypatch.setattr(
        checkpoint.os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
    )
    path = tmp_path / "run.jsonl"
    journal = _open_journal(path)
    for i in range(5):
        journal.emit("progress", replicas_done=i)
    assert fsyncs == []
    # Flushed before close: a reader sees every record already.
    records, skipped = read_journal(path)
    assert len(records) == 6  # header + 5
    assert skipped == 0
    result = ReplicaResult(index=0, value=0, events=0, elapsed_s=0.0, worker="w")
    journal.emit("chunk_done", chunk=0, **journal.chunk_fields([result]))
    assert len(fsyncs) == 1
    journal.emit("chunk_done", chunk=1, replicas=0)  # no results: amortized
    assert len(fsyncs) == 1
    journal.emit("run_finished", completed=1)
    assert len(fsyncs) == 2
    journal.close()


# -- worker heartbeats --------------------------------------------------------


def test_heartbeat_stamp_and_read_roundtrip(tmp_path):
    path = str(tmp_path / "hb-0.json")
    stamp_heartbeat(path, worker="pid-1", chunk=0, replicas_done=2, events=99)
    record = read_heartbeat(path)
    assert record is not None
    assert record["worker"] == "pid-1"
    assert record["chunk"] == 0
    assert record["replicas_done"] == 2
    assert record["events"] == 99
    assert record["pid"] > 0
    assert record["rss_kb"] >= 0
    # No torn tmp file left behind.
    assert list(tmp_path.iterdir()) == [tmp_path / "hb-0.json"]


def test_read_heartbeat_tolerates_missing_and_garbage(tmp_path):
    assert read_heartbeat(tmp_path / "nope.json") is None
    bad = tmp_path / "bad.json"
    bad.write_text("{torn")
    assert read_heartbeat(bad) is None
    nondict = tmp_path / "list.json"
    nondict.write_text("[1, 2]")
    assert read_heartbeat(nondict) is None


# -- reader tolerance ---------------------------------------------------------


def test_read_live_log_skips_torn_tail(tmp_path):
    """A live log from before the run journal still parses."""
    path = tmp_path / "live.jsonl"
    path.write_text(
        json.dumps({"kind": "live_header", "schema": 1, "t_wall": 1.0})
        + "\n"
        + json.dumps({"kind": "run_started", "t_wall": 1.0, "replicas": 2})
        + "\n"
        + "[]\n"  # valid JSON, not a dict
        + '{"kind": "chunk_done", "t_wa'  # torn mid-record by SIGKILL
    )
    records, skipped = read_journal(path)
    assert [r["kind"] for r in records] == ["live_header", "run_started"]
    assert skipped == 2


def test_read_live_log_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_journal(tmp_path / "nope.jsonl")


# -- monitor fold: heartbeats, stragglers, stalls ----------------------------


def _monitor(tmp_path, clock, *, heartbeats=True, **kwargs):
    """A monitor writing to a journal in ``tmp_path`` and watching
    heartbeats there (a pooled run) unless ``heartbeats`` is false.
    Returns the monitor and a reader of its records so far."""
    path = tmp_path / "run.jsonl"
    journal = _open_journal(path)
    journal.clock = clock
    monitor = LiveRunMonitor(
        journal,
        str(tmp_path) if heartbeats else None,
        clock=clock,
        **kwargs,
    )
    return monitor, lambda: read_journal(path)[0][1:]


def _kinds(records):
    return [r["kind"] for r in records()]


def test_monitor_emits_heartbeat_only_on_progress(tmp_path):
    clock = FakeClock()
    monitor, records = _monitor(tmp_path, clock, replicas_total=4)
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    stamp_heartbeat(
        monitor.heartbeat_path(0),
        worker="pid-9",
        chunk=0,
        replicas_done=1,
        events=10,
    )
    clock.now += 1.0
    monitor.poll()
    monitor.poll()  # same stamp again: no duplicate heartbeat record
    beats = [r for r in records() if r["kind"] == "worker_heartbeat"]
    assert len(beats) == 1
    assert beats[0]["replicas_done"] == 1
    assert beats[0]["events"] == 10
    # Every poll emits a progress record regardless.
    assert _kinds(records).count("progress") == 2


def test_monitor_flags_straggler_once_against_median(tmp_path):
    clock = FakeClock()
    monitor, records = _monitor(tmp_path, clock, replicas_total=8)
    # Three completed chunks at 1 s each establish the median.
    for cid in (0, 1, 2):
        monitor.chunk_submitted(cid, [cid], attempt=1)
        clock.now += 1.0
        monitor.chunk_done(cid, worker="pid-1", replicas=1, events=5)
    monitor.chunk_submitted(3, [3], attempt=1)
    clock.now += STRAGGLER_FACTOR - 0.5  # under the factor
    assert monitor.poll() == []
    assert "straggler_suspected" not in _kinds(records)
    clock.now += 1.0  # now past it
    monitor.poll()
    monitor.poll()  # flagged once, not per tick
    stragglers = [
        r for r in records() if r["kind"] == "straggler_suspected"
    ]
    assert len(stragglers) == 1
    assert stragglers[0]["chunk"] == 3
    assert stragglers[0]["ratio"] > STRAGGLER_FACTOR


def test_monitor_detects_stall_after_heartbeat_silence(tmp_path):
    clock = FakeClock()
    monitor, records = _monitor(tmp_path, clock, replicas_total=4)
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    clock.now += STALL_TIMEOUT_S - 1.0
    assert monitor.poll() == []  # within deadline
    clock.now += 1.5  # past the deadline
    assert monitor.poll() == [0]
    assert monitor.poll() == []  # suspected once, not per tick
    assert monitor.stall_count == 1
    stalls = [r for r in records() if r["kind"] == "stall_suspected"]
    assert len(stalls) == 1
    assert stalls[0]["chunk"] == 0
    assert stalls[0]["action"] == "resubmitted"
    assert stalls[0]["timeout_s"] == STALL_TIMEOUT_S


def test_monitor_heartbeat_resets_stall_deadline(tmp_path):
    clock = FakeClock()
    monitor, _records = _monitor(tmp_path, clock, replicas_total=4)
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    clock.now += STALL_TIMEOUT_S - 0.5
    stamp_heartbeat(
        monitor.heartbeat_path(0),
        worker="pid-9",
        chunk=0,
        replicas_done=1,
        events=1,
    )
    assert monitor.poll() == []  # heartbeat refreshed the deadline
    clock.now += STALL_TIMEOUT_S - 0.5
    assert monitor.poll() == []  # still within it since last activity
    clock.now += 1.0
    assert monitor.poll() == [0]  # past it now


def test_monitor_stall_detection_disabled_with_none(tmp_path):
    clock = FakeClock()
    monitor, records = _monitor(
        tmp_path, clock, replicas_total=2, heartbeats=False
    )
    monitor.chunk_submitted(0, [0], attempt=1)
    clock.now += 1e6
    assert monitor.poll() == []
    assert "stall_suspected" not in _kinds(records)


def test_monitor_progress_throughput_and_eta(tmp_path):
    clock = FakeClock()
    monitor, records = _monitor(tmp_path, clock, replicas_total=4)
    monitor.chunk_submitted(0, [0, 1], attempt=1)
    clock.now += 2.0
    monitor.chunk_done(0, worker="pid-1", replicas=2, events=10)
    monitor.poll()
    progress = [r for r in records() if r["kind"] == "progress"][-1]
    assert progress["replicas_done"] == 2
    assert progress["replicas_total"] == 4
    assert progress["throughput_rps"] == pytest.approx(1.0)
    assert progress["eta_s"] == pytest.approx(2.0)


# -- summarize + golden report ------------------------------------------------


def test_summarize_live_golden_fixture():
    records, skipped = read_journal(GOLDEN_LOG)
    summary = summarize_live(records, skipped_lines=skipped)
    assert summary["schema"] == 1
    assert summary["command"] == "mc"
    assert "backend" not in summary
    assert summary["workers_requested"] == 2
    assert summary["replicas_total"] == 8
    assert summary["replicas_resumed"] == 2
    assert summary["replicas_done"] == 6
    assert summary["progress"] == 1.0
    assert summary["chunks_done"] == 3
    assert summary["chunks_in_flight"] == []
    assert summary["events_simulated"] == 1490
    assert summary["elapsed_s"] == 4.5
    assert summary["retries"] == 1
    assert summary["stalls"] == 1
    assert summary["stragglers"] == 1
    assert summary["checkpoint_flushes"] == 2
    assert summary["finished"] is True
    assert summary["failures"] == [
        {"index": 6, "error_type": "ValueError", "attempts": 1}
    ]
    assert summary["skipped_lines"] == 1
    assert summary["run_metrics"]["schema"] == 1
    assert set(summary["workers"]) == {"pid-101", "pid-102"}
    assert summary["workers"]["pid-101"]["rss_kb"] == 51200


def test_monitor_report_matches_committed_golden_bytes():
    """The one-shot report is a pure function of the log bytes."""
    _summary, report = monitor_once(GOLDEN_LOG)
    assert report == GOLDEN_REPORT.read_text(encoding="utf-8")


def test_render_report_without_header_says_total_unknown():
    report = render_monitor_report(
        summarize_live([{"kind": "chunk_done", "replicas": 2, "t_wall": 1.0}]),
        "x.jsonl",
    )
    assert "total unknown" in report


# -- runner integration -------------------------------------------------------


def test_runner_serial_live_log_end_to_end(tmp_path):
    path = tmp_path / "live.jsonl"
    outcome = ParallelCampaignRunner(double_task, chunk_size=2).run(
        [None] * 5, root_seed=3, live_log=path
    )
    assert outcome.value == (0, 2, 4, 6, 8)
    records, skipped = read_journal(path)
    assert skipped == 0
    kinds = {r["kind"] for r in records}
    assert kinds <= set(JOURNAL_KINDS)
    assert {"header", "run_started", "chunk_submitted", "chunk_done",
            "progress", "run_finished"} <= kinds
    summary = summarize_live(records)
    assert summary["finished"] is True
    assert summary["replicas_done"] == 5
    assert summary["workers"] == {
        "serial": {"replicas": 5, "events": 0, "chunks": 3}
    }
    assert summary["run_metrics"]["replicas"] == 5
    # One file per run: no OpenMetrics sidecar next to the journal.
    assert [p.name for p in tmp_path.iterdir()] == ["live.jsonl"]


def test_runner_pool_live_log_reports_pool_workers(tmp_path):
    path = tmp_path / "live.jsonl"
    outcome = ParallelCampaignRunner(
        double_task, workers=2, chunk_size=1
    ).run([None] * 4, root_seed=3, live_log=path)
    assert outcome.value == (0, 2, 4, 6)
    summary, report = monitor_once(path)
    assert summary["finished"] is True
    assert summary["replicas_done"] == 4
    assert summary["chunks_done"] == 4
    assert all(w.startswith("pid-") for w in summary["workers"])
    assert "Per-worker throughput" in report
    # No heartbeat temp directories leaked.
    import glob
    import tempfile

    leftovers = glob.glob(
        str(Path(tempfile.gettempdir()) / "repro-live-hb-*" / "hb-*.json")
    )
    assert not leftovers


def test_runner_checkpoint_flushes_reach_the_live_log(tmp_path):
    """The live log is a second name of the checkpoint journal, so the
    flushed results are in it."""
    path = tmp_path / "live.jsonl"
    ledger = tmp_path / "ledger.jsonl"
    ParallelCampaignRunner(double_task, chunk_size=2).run(
        [None] * 4, root_seed=1, checkpoint=ledger, live_log=path
    )
    assert os.path.samefile(ledger, path)
    records, _ = read_journal(path)
    flushes = [r for r in records if "payload" in r]
    assert len(flushes) == 2
    assert all(f["replicas"] == 2 for f in flushes)
    assert summarize_live(records)["checkpoint_flushes"] == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_runner_writes_one_journal_record_per_chunk(tmp_path, workers):
    """Every worker count records a chunk the same way: one
    ``chunk_done`` that carries the chunk's results."""
    path = tmp_path / "live.jsonl"
    ParallelCampaignRunner(double_task, workers=workers, chunk_size=2).run(
        [None] * 4,
        root_seed=1,
        checkpoint=tmp_path / "ledger.jsonl",
        live_log=path,
    )
    records, _ = read_journal(path)
    done = [r for r in records if r["kind"] == "chunk_done"]
    assert [sorted(r["indices"]) for r in sorted(done, key=lambda r: r["chunk"])] == [
        [0, 1],
        [2, 3],
    ]
    assert all("payload" in r and "sha256" in r for r in done)
    assert "checkpoint_flushed" not in {r["kind"] for r in records}


# -- determinism: telemetry on == telemetry off ------------------------------


@pytest.mark.parametrize("workers", [1, 4])
def test_live_bus_does_not_perturb_campaign_digests(tmp_path, workers):
    """Goldens-subset replay: obs counters and the plan digest are
    bit-identical with live telemetry on vs off."""
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.runtime.workloads import run_random_campaigns
    from repro.units import ms

    spec = CampaignReplicaSpec(
        expected_faults=3.0,
        horizon_us=ms(400),
        obs_enabled=True,
        obs_trace=True,
    )
    off = run_random_campaigns(6, root_seed=11, spec=spec, workers=workers)
    on = run_random_campaigns(
        6,
        root_seed=11,
        spec=spec,
        workers=workers,
        live_log=str(tmp_path / f"live-{workers}.jsonl"),
    )
    assert on.value == off.value  # plan digest, counters, every replica
    assert on.value.obs_counters == off.value.obs_counters
    assert on.value.plan_digest == off.value.plan_digest
    # And the live log itself is a valid telemetry stream.
    summary = summarize_live(
        read_journal(tmp_path / f"live-{workers}.jsonl")[0]
    )
    assert summary["finished"] is True
    assert summary["replicas_done"] == 6
    assert summary["events_simulated"] == off.value.events_simulated


# -- one-shot exposition server ----------------------------------------------


def _scrape(port: int) -> tuple[str, str]:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/metrics", timeout=10
    ) as resp:
        return resp.read().decode("utf-8"), resp.headers["Content-Type"]


def test_serve_metrics_once_matches_the_former_prom_snapshot(tmp_path):
    """The scrape of a finished run is rendered from its journal, byte
    for byte the text the ``<live-log>.prom`` snapshot used to hold:
    the workload's counters plus the run-metrics gauges."""
    from repro.faults.campaign import CampaignReplicaSpec
    from repro.runtime.workloads import run_random_campaigns
    from repro.units import ms

    live = tmp_path / "live.jsonl"
    spec = CampaignReplicaSpec(
        expected_faults=3.0, horizon_us=ms(300), obs_enabled=True
    )
    outcome = run_random_campaigns(
        2, root_seed=5, spec=spec, workers=1, live_log=str(live)
    )
    assert outcome.value.obs_counters["counters"]
    expected = render_openmetrics(
        outcome.value.obs_counters, outcome.metrics.to_dict()
    )
    started = threading.Event()
    ports: list[int] = []
    started.port = 0  # serve_metrics_once stashes the bound port here

    def _serve():
        ports.append(serve_metrics_once(live, port=0, started=started))

    thread = threading.Thread(target=_serve, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    body, content_type = _scrape(started.port)
    thread.join(timeout=10)
    assert body == expected
    assert "openmetrics-text" in content_type
    assert ports == [started.port]
    assert not (tmp_path / "live.jsonl.prom").exists()


def test_serve_metrics_once_renders_degraded_from_live_log(tmp_path):
    """A run killed mid-flight has no ``run_finished``: the server
    derives progress gauges from the journal so far."""
    live = tmp_path / "live.jsonl"
    journal = _open_journal(live, replicas=9)
    journal.clock = FakeClock()
    journal.emit("run_started", replicas=9, replicas_resumed=0)
    journal.emit("chunk_done", chunk=0, worker="pid-1", replicas=3, events=30)
    journal.close()
    started = threading.Event()
    started.port = 0
    thread = threading.Thread(
        target=serve_metrics_once,
        args=(live,),
        kwargs={"port": 0, "started": started},
        daemon=True,
    )
    thread.start()
    assert started.wait(timeout=10)
    body, _ = _scrape(started.port)
    thread.join(timeout=10)
    assert "repro_run_replicas 9" in body
    assert "repro_run_replicas_done 3" in body
    assert body.endswith("# EOF\n")
