"""Stall detection and resubmission in the live-telemetry pool path.

The acceptance case: a worker that stops heartbeating is flagged
``stall_suspected`` and its chunk resubmitted to a free worker *without
waiting for pool teardown*; the run completes with the same aggregate an
uninterrupted run produces (duplicate execution is safe because results
dedupe by replica index and replica values are pure functions of
``(root_seed, index)``).

The hanging task coordinates through marker files under the spec
directory, like ``test_crash_recovery``:

* ``hung-once``  — created (O_EXCL) by the first execution of replica 0,
  which then blocks; any later execution of replica 0 sees the marker
  and returns immediately — whichever execution loses the race, the
  outcome converges;
* ``release``    — written by the test at teardown so the hung worker
  exits promptly instead of sleeping out its bounded deadline.
"""

from __future__ import annotations

import os
import signal
import time

import repro.obs.live as live_module
import repro.runtime.runner as runner_module
from repro.obs.live import read_journal
from repro.runtime.runner import ParallelCampaignRunner, ReplicaTask

#: Upper bound on how long the hung replica sleeps if never released.
_HANG_DEADLINE_S = 30.0


def hang_once_task(replica: ReplicaTask) -> int:
    base = str(replica.spec)
    if replica.index == 0:
        marker = os.path.join(base, "hung-once")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return replica.index * 10  # the resubmitted duplicate
        os.close(fd)
        release = os.path.join(base, "release")
        deadline = time.monotonic() + _HANG_DEADLINE_S
        while time.monotonic() < deadline and not os.path.exists(release):
            time.sleep(0.05)
    return replica.index * 10


def test_stalled_chunk_is_resubmitted_without_pool_teardown(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(live_module, "STALL_TIMEOUT_S", 2.0)
    monkeypatch.setattr(runner_module, "STALL_POLL_S", 0.1)
    monkeypatch.setattr(runner_module, "SHUTDOWN_TIMEOUT_S", 0.5)
    monkeypatch.setattr(runner_module, "RETRY_BACKOFF_S", 0.0)
    journal = tmp_path / "live.jsonl"
    runner = ParallelCampaignRunner(hang_once_task, workers=2, chunk_size=1)
    t0 = time.monotonic()
    try:
        outcome = runner.run(
            [str(tmp_path)] * 3, root_seed=0, live_log=journal
        )
    finally:
        # Release the hung worker (and reap any leaked pid) promptly.
        with open(
            os.path.join(tmp_path, "release"), "w", encoding="utf-8"
        ) as fh:
            fh.write("x")
    wall = time.monotonic() - t0
    records, _skipped = read_journal(journal)

    # Bit-identical to an uninterrupted run of the same campaign.
    assert outcome.value == (0, 10, 20)
    assert [r.index for r in outcome.results] == [0, 1, 2]
    assert outcome.complete

    # The stall was flagged and structurally resubmitted: the chunk id
    # of the stall_suspected record was chunk_submitted at least twice.
    kinds = [r["kind"] for r in records]
    assert "stall_suspected" in kinds
    stalls = [r for r in records if r["kind"] == "stall_suspected"]
    assert all(s["action"] == "resubmitted" for s in stalls)
    stalled_cid = stalls[0]["chunk"]
    submissions = [
        r
        for r in records
        if r["kind"] == "chunk_submitted" and r["chunk"] == stalled_cid
    ]
    assert len(submissions) >= 2
    assert outcome.metrics.retries >= 1

    # The run_finished record carries the stall count.
    finished = [r for r in records if r["kind"] == "run_finished"]
    assert len(finished) == 1
    assert finished[0]["stalls"] >= 1

    # "Without waiting for pool teardown": the run completed long before
    # the hung replica's own deadline — the duplicate won while the
    # original was still blocked.
    assert wall < _HANG_DEADLINE_S / 2

    # The abandoned original is either reaped by the bounded shutdown or
    # reported as a leaked pid — never silently lost.  Reap stragglers
    # so the test leaves nothing behind.
    for pid in outcome.metrics.leaked_worker_pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
