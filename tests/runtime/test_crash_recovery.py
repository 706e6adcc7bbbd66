"""Crash recovery of the parallel runner: duplicate-resubmission fix,
structured replica failures, retry exhaustion policies and teardown.

The historical bug under regression here: when a worker died while
sibling chunks completed in the same wait batch, the runner resubmitted
chunks whose results it had already recorded, duplicating replicas and
tripping the "runner lost replicas" guard.  The fix pops a chunk from
``pending`` *before* recording its results and dedupes by replica index.

All task callables are module-level so ``spawn`` workers can import
them.  Tasks coordinate through marker files under the spec directory:

* ``exec-<index>-*``  — one per *execution* of a replica (counts runs);
* ``done-<index>-*``  — the replica completed;
* ``crashed``         — the crasher already died once (retry succeeds).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runtime.runner as runner_module
from repro.runtime.metrics import RunMetrics
from repro.runtime.runner import (
    FALLBACK_WORKER,
    SERIAL_WORKER,
    ParallelCampaignRunner,
    ReplicaFailure,
    ReplicaTask,
)

_POLL_S = 0.01
_POLL_DEADLINE_S = 30.0
#: Grace after the last sibling completes, so its future resolves in the
#: parent (and is drained) before the crasher kills the pool.
_GRACE_S = 0.5


@pytest.fixture
def fast_retries(monkeypatch):
    """No backoff sleep between attempts; returns a setter of the
    runner's retry budget (``MAX_RETRIES``, 2 unless set)."""
    monkeypatch.setattr(runner_module, "RETRY_BACKOFF_S", 0.0)
    return lambda n: monkeypatch.setattr(runner_module, "MAX_RETRIES", n)


def _mark(base: str, prefix: str, index: int) -> None:
    name = f"{prefix}-{index}-{os.getpid()}-{time.time_ns()}"
    with open(os.path.join(base, name), "w", encoding="utf-8") as fh:
        fh.write("x")


def _count(base: str, prefix: str, index: int) -> int:
    return sum(
        1
        for name in os.listdir(base)
        if name.startswith(f"{prefix}-{index}-")
    )


def _wait_for_done(base: str, indices: tuple[int, ...]) -> None:
    deadline = time.monotonic() + _POLL_DEADLINE_S
    while time.monotonic() < deadline:
        if all(_count(base, "done", i) > 0 for i in indices):
            time.sleep(_GRACE_S)
            return
        time.sleep(_POLL_S)


def batch_crash_task(replica: ReplicaTask) -> int:
    """Index 0 kills its worker only after every sibling completed.

    This reproduces the duplicate-resubmission interleaving: by the time
    the pool breaks, the sibling chunks' results are already delivered,
    so a runner that resubmits anything beyond the crashed chunk
    re-executes completed replicas.
    """
    base = str(replica.spec)
    _mark(base, "exec", replica.index)
    if replica.index == 0:
        crashed = os.path.join(base, "crashed")
        if not os.path.exists(crashed):
            _wait_for_done(base, (1, 2, 3))
            with open(crashed, "w", encoding="utf-8") as fh:
                fh.write("x")
            os._exit(23)
    _mark(base, "done", replica.index)
    return replica.index


def always_crash_task(replica: ReplicaTask) -> int:
    """Index 1 kills its worker on every attempt (after siblings finish)."""
    base = str(replica.spec)
    _mark(base, "exec", replica.index)
    if replica.index == 1:
        _wait_for_done(base, (0, 2, 3))
        os._exit(23)
    _mark(base, "done", replica.index)
    return replica.index


def cursed_task(replica: ReplicaTask) -> int:
    """Index 1 raises deterministically on every attempt."""
    if replica.index == 1:
        raise ValueError(f"replica {replica.index} is cursed")
    return replica.index * 10


def flaky_task(replica: ReplicaTask) -> int:
    """Index 2 raises exactly once, then succeeds on retry."""
    if replica.index == 2:
        sentinel = os.path.join(str(replica.spec), "raised-once")
        if not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as fh:
                fh.write("x")
            raise RuntimeError("transient replica failure")
    return replica.index * 10


def parent_only_task(replica: ReplicaTask) -> int:
    """Crashes any process except the parent named in the spec."""
    base, parent_pid = replica.spec
    if os.getpid() != int(parent_pid):
        os._exit(11)
    return replica.index


def high_index_crash_task(replica: ReplicaTask) -> int:
    """Indices >= 2 crash pool workers; the parent runs them fine."""
    base, parent_pid = replica.spec
    if os.getpid() == int(parent_pid):
        return replica.index
    _mark(base, "exec", replica.index)
    if replica.index >= 2:
        _wait_for_done(base, (0, 1))
        os._exit(11)
    _mark(base, "done", replica.index)
    return replica.index


def square_task(replica: ReplicaTask) -> int:
    """A healthy task: returns promptly, never crashes."""
    return replica.index * replica.index


def sleepy_task(base: str) -> int:
    """Plain executor task: announce start, then outlive any timeout."""
    with open(
        os.path.join(base, f"started-{os.getpid()}"), "w", encoding="utf-8"
    ) as fh:
        fh.write("x")
    time.sleep(10.0)
    return os.getpid()


# -- the duplicate-resubmission regression ---------------------------------


def test_crash_amid_completed_siblings_never_duplicates(
    tmp_path, fast_retries
):
    """A worker crash interleaved with completed sibling chunks must
    re-run only the crashed chunk: one result per index, and ``retries``
    counts only the chunk that genuinely re-ran."""
    runner = ParallelCampaignRunner(
        batch_crash_task,
        workers=2,
        chunk_size=1,
    )
    outcome = runner.run([str(tmp_path)] * 4, root_seed=0)
    assert outcome.value == (0, 1, 2, 3)
    assert [r.index for r in outcome.results] == [0, 1, 2, 3]
    assert outcome.complete
    # Only the crashed chunk was resubmitted...
    assert outcome.metrics.retries == 1
    # ...and only its replica executed twice; the drained siblings never
    # re-ran (the historical bug re-executed them and tripped the guard).
    base = str(tmp_path)
    assert _count(base, "exec", 0) == 2
    for sibling in (1, 2, 3):
        assert _count(base, "exec", sibling) == 1


def test_replica_exception_is_retried_to_success(tmp_path, fast_retries):
    """A raising task becomes a ReplicaFailure and is resubmitted; a
    transient failure therefore costs one retry, not the campaign."""
    runner = ParallelCampaignRunner(
        flaky_task,
        workers=2,
        chunk_size=2,
    )
    outcome = runner.run([str(tmp_path)] * 4, root_seed=0)
    assert outcome.value == (0, 10, 20, 30)
    assert outcome.complete
    assert outcome.failures == ()
    assert outcome.metrics.retries == 1
    assert outcome.metrics.replicas_failed == 0


# -- retry exhaustion: serial policy ---------------------------------------


def test_serial_policy_reraises_deterministic_exception(
    tmp_path, fast_retries
):
    """Under the default policy a permanently-raising replica surfaces
    its real exception (from the parent fallback), not a crash wrapper."""
    fast_retries(0)
    runner = ParallelCampaignRunner(
        cursed_task,
        workers=2,
        chunk_size=2,
    )
    with pytest.raises(ValueError, match="cursed"):
        runner.run([None] * 4, root_seed=0)


def test_serial_policy_workers1_reraises_after_retries():
    with pytest.raises(ValueError, match="cursed"):
        ParallelCampaignRunner(cursed_task).run([None] * 4, root_seed=0)


def test_fallback_completes_run_with_distinct_worker_label(
    tmp_path, fast_retries
):
    """When every pool attempt crashes, the parent fallback finishes the
    campaign under its own label — never merged with ``pid-*`` workers
    (a recycled pid could otherwise pollute busy-time accounting)."""
    fast_retries(0)
    spec = (str(tmp_path), os.getpid())
    runner = ParallelCampaignRunner(
        parent_only_task,
        workers=2,
        chunk_size=2,
    )
    outcome = runner.run([spec] * 3, root_seed=0)
    assert outcome.value == (0, 1, 2)
    assert outcome.complete
    assert {r.worker for r in outcome.results} == {FALLBACK_WORKER}
    assert set(outcome.metrics.worker_busy_s) == {FALLBACK_WORKER}
    assert FALLBACK_WORKER != SERIAL_WORKER


def test_fallback_label_never_merges_with_pool_workers(
    tmp_path, fast_retries
):
    """Mixed run: one chunk completes in a pool worker, the rest crash
    into the fallback — the metrics keep the two labels separate and the
    busy-time sum still accounts for every executed replica."""
    fast_retries(0)
    spec = (str(tmp_path), os.getpid())
    runner = ParallelCampaignRunner(
        high_index_crash_task,
        workers=2,
        chunk_size=2,
    )
    outcome = runner.run([spec] * 4, root_seed=0)
    assert outcome.value == (0, 1, 2, 3)
    labels = {r.worker for r in outcome.results}
    assert FALLBACK_WORKER in labels
    pool_labels = {lab for lab in labels if lab.startswith("pid-")}
    assert pool_labels, "expected at least one chunk to finish in the pool"
    busy = outcome.metrics.worker_busy_s
    assert FALLBACK_WORKER in busy
    assert set(busy) == labels
    assert pytest.approx(sum(busy.values()), rel=1e-6) == sum(
        r.elapsed_s for r in outcome.results
    )


def test_serial_path_uses_serial_label():
    outcome = ParallelCampaignRunner(cursed_task, on_exhausted="salvage").run(
        [None] * 3, root_seed=0
    )
    assert {r.worker for r in outcome.results} == {SERIAL_WORKER}
    assert set(outcome.metrics.worker_busy_s) == {SERIAL_WORKER}


# -- one attempt loop: workers=1 behaves like the pool ---------------------


def _failure_records(outcome) -> list[tuple[int, str, int]]:
    return [(f.index, f.error_type, f.attempts) for f in outcome.failures]


@pytest.mark.parametrize("policy", ["serial", "salvage"])
def test_transient_failure_retried_alike_at_every_worker_count(
    tmp_path, policy, fast_retries
):
    """A replica that raises once is retried at ``workers=1`` exactly as
    on the pool: same aggregate, completeness and retry count."""
    outcomes = {}
    for workers in (1, 2):
        base = tmp_path / f"w{workers}"
        base.mkdir()
        outcomes[workers] = ParallelCampaignRunner(
            flaky_task,
            workers=workers,
            chunk_size=1,
            on_exhausted=policy,
        ).run([str(base)] * 4, root_seed=0)
    for outcome in outcomes.values():
        assert outcome.value == (0, 10, 20, 30)
        assert outcome.complete
        assert outcome.metrics.retries == 1


def test_deterministic_failure_salvaged_alike_at_every_worker_count(
    fast_retries,
):
    """Salvage gives identical failure records and retries for a
    permanently raising replica at ``workers`` 1 and 2."""
    fast_retries(1)
    outcomes = [
        ParallelCampaignRunner(
            cursed_task,
            workers=workers,
            chunk_size=1,
            on_exhausted="salvage",
        ).run([None] * 4, root_seed=0)
        for workers in (1, 2)
    ]
    serial, pooled = outcomes
    assert serial.value == pooled.value == (0, 20, 30)
    assert _failure_records(serial) == _failure_records(pooled)
    assert _failure_records(serial) == [(1, "ValueError", 2)]
    assert serial.metrics.retries == pooled.metrics.retries == 1


def test_fallback_chunks_reach_the_live_log(tmp_path, fast_retries):
    """Chunks finished by the parent fallback are recorded like any
    other chunk, so the monitor sees the run complete."""
    from repro.obs.live import monitor_once

    fast_retries(0)
    path = tmp_path / "live.jsonl"
    spec = (str(tmp_path), os.getpid())
    outcome = ParallelCampaignRunner(
        parent_only_task,
        workers=2,
        chunk_size=1,
    ).run([spec] * 4, root_seed=0, live_log=path)
    assert {r.worker for r in outcome.results} == {FALLBACK_WORKER}
    summary, _report = monitor_once(path)
    assert summary["finished"] is True
    assert summary["replicas_done"] == summary["replicas_total"] == 4
    assert summary["workers"][FALLBACK_WORKER]["replicas"] == 4


# -- retry exhaustion: salvage policy --------------------------------------


def test_salvage_partial_outcome_for_deterministic_exception(fast_retries):
    fast_retries(1)
    runner = ParallelCampaignRunner(
        cursed_task,
        workers=2,
        chunk_size=2,
        on_exhausted="salvage",
    )
    outcome = runner.run([None] * 4, root_seed=0)
    assert not outcome.complete
    assert outcome.value == (0, 20, 30)  # survivors only, index order
    assert [r.index for r in outcome.results] == [0, 2, 3]
    assert [f.index for f in outcome.failures] == [1]
    failure = outcome.failures[0]
    assert failure.error_type == "ValueError"
    assert "cursed" in failure.message
    assert failure.attempts == 2  # first try + one retry
    assert "cursed" in failure.traceback
    report = outcome.completeness()
    assert report["complete"] is False
    assert report["replicas_expected"] == 4
    assert report["replicas_completed"] == 3
    assert report["replicas_failed"] == 1
    assert report["failed_indices"] == [1]
    assert "cursed" in report["failures"][0]
    assert outcome.metrics.replicas_failed == 1
    assert outcome.metrics.retries == 1


def test_salvage_records_worker_crash_as_structured_failure(
    tmp_path, fast_retries
):
    fast_retries(1)
    runner = ParallelCampaignRunner(
        always_crash_task,
        workers=2,
        chunk_size=1,
        on_exhausted="salvage",
    )
    outcome = runner.run([str(tmp_path)] * 4, root_seed=0)
    assert not outcome.complete
    assert [r.index for r in outcome.results] == [0, 2, 3]
    assert [f.index for f in outcome.failures] == [1]
    failure = outcome.failures[0]
    assert failure.error_type == "WorkerCrash"
    assert "died" in failure.message
    assert outcome.metrics.replicas_failed == 1


def test_salvage_workers1_captures_exceptions():
    outcome = ParallelCampaignRunner(
        cursed_task, on_exhausted="salvage"
    ).run([None] * 4, root_seed=0)
    assert not outcome.complete
    assert outcome.value == (0, 20, 30)
    assert [f.index for f in outcome.failures] == [1]
    assert outcome.failures[0].worker == SERIAL_WORKER


def test_replica_failure_describe():
    failure = ReplicaFailure(
        index=7,
        error_type="ValueError",
        message="boom",
        traceback="",
        attempts=3,
        worker="pid-42",
    )
    text = failure.describe()
    assert "replica 7" in text
    assert "ValueError" in text
    assert "3 attempt(s)" in text


def test_on_exhausted_validated():
    with pytest.raises(ValueError, match="on_exhausted"):
        ParallelCampaignRunner(cursed_task, on_exhausted="explode")


# -- worker teardown -------------------------------------------------------


def test_shutdown_reports_leaked_workers(tmp_path, monkeypatch):
    """A worker stuck in a long task past the shutdown deadline is
    surfaced as a leaked pid instead of being silently left behind."""
    monkeypatch.setattr(runner_module, "SHUTDOWN_TIMEOUT_S", 0.1)
    runner = ParallelCampaignRunner(cursed_task)
    ctx = multiprocessing.get_context("spawn")
    executor = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
    try:
        executor.submit(sleepy_task, str(tmp_path))
        deadline = time.monotonic() + _POLL_DEADLINE_S
        while time.monotonic() < deadline:
            if any(
                name.startswith("started-") for name in os.listdir(tmp_path)
            ):
                break
            time.sleep(_POLL_S)
        else:
            pytest.fail("worker never started the task")
        leaked = runner._shutdown_executor(executor)
    finally:
        for name in os.listdir(tmp_path):
            if name.startswith("started-"):
                pid = int(name.split("-", 1)[1])
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
    assert len(leaked) == 1
    assert leaked[0] > 0


def test_healthy_pooled_run_reports_no_leaked_workers():
    """Workers that exit on shutdown are never reported as leaked.

    The executor's manager thread reaps its workers concurrently with the
    runner's bounded shutdown wait.  A wait that lost that ``waitpid`` race
    used to report a worker that had already exited; repeated runs make
    the race likely to show.
    """
    for _ in range(5):
        outcome = ParallelCampaignRunner(
            square_task, workers=2, chunk_size=2
        ).run([None] * 6)
        assert outcome.values() == [i * i for i in range(6)]
        assert outcome.metrics.leaked_worker_pids == ()


def test_metrics_carry_failure_and_leak_fields(tmp_path):
    metrics = RunMetrics.from_results(
        replicas=4,
        workers=2,
        chunk_size=1,
        wall_time_s=1.0,
        retries=0,
        events=[1, 2],
        busy_by_worker={FALLBACK_WORKER: 0.5},
        leaked_worker_pids=(123, 456),
        replicas_failed=1,
        replicas_resumed=2,
    )
    payload = metrics.to_dict()
    assert payload["leaked_worker_pids"] == [123, 456]
    assert payload["replicas_failed"] == 1
    assert payload["replicas_resumed"] == 2
