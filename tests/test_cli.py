"""Tests for the ``python -m repro`` command-line front door."""

from __future__ import annotations

import pytest

from repro.__main__ import main


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "demo" in capsys.readouterr().out


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Scenario catalogue" in out
    assert "wearout" in out


def test_scenario_command_runs(capsys):
    assert main(["--seed", "7", "scenario", "seu"]) == 0
    out = capsys.readouterr().out
    assert "component-external" in out
    assert "correct" in out


def test_unknown_scenario_rejected(capsys):
    assert main(["scenario", "warp-core-breach"]) == 2


def test_bathtub_command(capsys):
    assert main(["bathtub"]) == 0
    assert "Bathtub" in capsys.readouterr().out


def test_demo_command(capsys):
    assert main(["--seed", "3", "demo"]) == 0
    out = capsys.readouterr().out
    assert "component:comp2" in out
    assert "replace component" in out


def test_mc_command_writes_metrics(capsys, tmp_path):
    metrics_path = tmp_path / "out" / "mc.json"
    assert (
        main(
            [
                "--seed",
                "11",
                "--metrics-json",
                str(metrics_path),
                "mc",
                "--replicas",
                "3",
                "--horizon-ms",
                "400",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Monte-Carlo campaign" in out
    assert "attribution accuracy" in out
    assert "events/s" in out
    import json

    record = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert record["replicas"] == 3
    assert record["workers"] == 1


def test_mc_zero_replicas_is_a_friendly_noop(capsys):
    """``mc --replicas 0`` reports the empty campaign instead of dying
    in the reducer's empty-campaign check."""
    assert main(["mc", "--replicas", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 replicas" in out
    assert "nothing to run" in out


def _plan_digest_line(out: str) -> str:
    lines = [line for line in out.splitlines() if "plan digest" in line]
    assert lines, f"no plan digest in output:\n{out}"
    return lines[-1]


def test_mc_checkpoint_resume_roundtrip(capsys, tmp_path):
    """Kill-and-resume at the CLI level: a resume from a truncated
    ledger reproduces the uninterrupted run's aggregate line."""
    ledger = tmp_path / "mc.jsonl"
    args = [
        "--seed",
        "11",
        "--checkpoint",
        str(ledger),
        "mc",
        "--replicas",
        "4",
        "--horizon-ms",
        "300",
    ]
    assert main(args) == 0
    reference = _plan_digest_line(capsys.readouterr().out)

    import json

    lines = ledger.read_text(encoding="utf-8").splitlines()
    kept = []
    for line in lines:
        record = json.loads(line)
        kept.append(line)
        if "payload" in record:
            break  # up to the first chunk that carries results
    assert kept[-1] != lines[-1], "expected a chunk line to truncate after"
    ledger.write_text("\n".join(kept) + "\n", encoding="utf-8")

    assert main(["resume", str(ledger)]) == 0
    out = capsys.readouterr().out
    assert "resuming mc campaign" in out
    assert "resumed:" in out
    assert _plan_digest_line(out) == reference


def test_resume_rejects_missing_ledger(capsys, tmp_path):
    assert main(["resume", str(tmp_path / "nope.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "nope.jsonl" in err


def test_fleet_command(capsys):
    assert (
        main(
            [
                "--seed",
                "21",
                "fleet",
                "--vehicles",
                "3",
                "--drive-ms",
                "300",
                "--fault-prob",
                "0.7",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Fleet of 3" in out
    assert "replicas, workers=1" in out


def test_fleet_trace_refused_on_a_pool(capsys, tmp_path):
    """Spawned workers cannot see the parent's obs context, so a pooled
    fleet/campaign run refuses to trace instead of writing an empty
    trace — directly and through ``repro resume``."""
    trace = tmp_path / "t.jsonl"
    fleet = ["fleet", "--vehicles", "2", "--drive-ms", "200"]
    assert main(["--workers", "2", "--trace", str(trace), *fleet]) == 2
    err = capsys.readouterr().err
    assert "--workers 1" in err
    assert not trace.exists()

    ledger = tmp_path / "fleet.jsonl"
    assert main(["--checkpoint", str(ledger), *fleet]) == 0
    capsys.readouterr()
    args = ["resume", str(ledger), "--workers", "2", "--profile"]
    assert main(args) == 2
    assert "--workers 1" in capsys.readouterr().err


def test_resume_ledger_mismatch_exits_cleanly(capsys, tmp_path):
    """``--trace`` changes an mc campaign's spec digest; resuming with it
    reports the mismatch on one stderr line and leaves the ledger
    byte-unchanged."""
    ledger = tmp_path / "mc.jsonl"
    mc = ["mc", "--replicas", "2", "--horizon-ms", "200"]
    assert main(["--seed", "5", "--checkpoint", str(ledger), *mc]) == 0
    capsys.readouterr()
    before = ledger.read_bytes()
    trace = tmp_path / "t.jsonl"
    assert main(["resume", str(ledger), "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "does not match" in err and "spec_digest" in err
    assert ledger.read_bytes() == before


# -- one run journal ----------------------------------------------------------

_MC = ["mc", "--replicas", "4", "--horizon-ms", "300"]


def _cut_after_first_result(path) -> None:
    """Simulate a SIGKILL right after the first durable chunk."""
    import json

    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for n, line in enumerate(lines, start=1):
        if "payload" in json.loads(line):
            break
    assert n < len(lines), "expected a chunk line to cut after"
    path.write_text("".join(lines[:n]), encoding="utf-8")


def test_checkpoint_and_live_log_name_one_journal(capsys, tmp_path):
    """The benchmark's ``offline`` command line: both flags, different
    paths, one file that whatif and monitor both read."""
    import os

    ledger = tmp_path / "ledger.jsonl"
    live = tmp_path / "live.jsonl"
    args = [
        "--seed", "1", "--workers", "2",
        "--checkpoint", str(ledger), "--live-log", str(live),
        "--store", str(tmp_path / "store"), "--store-format", "json",
    ]
    assert main([*args, *_MC]) == 0
    capsys.readouterr()
    assert os.path.samefile(ledger, live)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ledger.jsonl", "live.jsonl", "store",
    ]
    assert main(["whatif", str(ledger), "--without-ona", "wearout"]) == 0
    capsys.readouterr()
    assert main(["monitor", str(live)]) == 0
    out = capsys.readouterr().out
    assert "(schema v2)" in out
    assert "progress: 4/4 replicas (100%), finished" in out


def test_live_log_only_run_resumes_and_replays(capsys, tmp_path):
    live = tmp_path / "live.jsonl"
    assert main(["--seed", "3", *_MC]) == 0
    reference = _plan_digest_line(capsys.readouterr().out)
    assert main(["--seed", "3", "--live-log", str(live), *_MC]) == 0
    capsys.readouterr()
    _cut_after_first_result(live)
    assert main(["resume", str(live)]) == 0
    out = capsys.readouterr().out
    assert "resumed: 1 replica(s) loaded" in out
    assert _plan_digest_line(out) == reference
    assert main(["whatif", str(live), "--without-ona", "wearout"]) == 0


def test_killed_journal_monitors_in_flight_then_finished(capsys, tmp_path):
    """A journal cut after its first ``chunk_done`` is IN FLIGHT; the
    resume appends a session and the monitor never counts past N."""
    journal = tmp_path / "run.jsonl"
    assert main(["--seed", "4", "--checkpoint", str(journal), *_MC]) == 0
    _cut_after_first_result(journal)
    capsys.readouterr()
    assert main(["monitor", str(journal)]) == 0
    assert "progress: 1/4 replicas (25%), IN FLIGHT" in capsys.readouterr().out
    assert main(["resume", str(journal)]) == 0
    capsys.readouterr()
    assert main(["monitor", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "progress: 4/4 replicas (100%), finished" in out
    assert "resumed from checkpoint: 1 replica(s)" in out


def test_unlinkable_live_log_exits_2_before_simulating(capsys, tmp_path):
    """The second name of the journal must be a hard link; when it
    cannot be made the run stops before any replica runs."""
    taken = tmp_path / "taken"
    taken.mkdir()
    ledger = tmp_path / "ledger.jsonl"
    args = ["--checkpoint", str(ledger), "--live-log", str(taken), *_MC]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "second name of the run journal" in captured.err
    assert "plan digest" not in captured.out
    assert taken.is_dir()
