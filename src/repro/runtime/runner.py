"""Spawn-safe parallel replica runner with deterministic reduce.

:class:`ParallelCampaignRunner` fans N independent replicas of a
simulation task out over a ``multiprocessing`` worker pool (``spawn``
start method, so it behaves identically on Linux/macOS/Windows and never
inherits a half-initialised interpreter via ``fork``) and merges the
results into one aggregate.

Determinism contract
--------------------
The aggregate is a pure function of ``(root_seed, specs)``:

* each replica's randomness derives from
  :func:`repro.runtime.seeds.replica_sequence` keyed by the replica
  index — never by worker id, chunk id or completion order;
* results are collected keyed by index and handed to the reduce
  callable sorted by index.

Hence ``workers=1`` and ``workers=64`` produce bit-identical aggregates,
which the test suite asserts (``tests/runtime/``).  The same contract
extends to interruption: a run that is killed and resumed from its
run journal reduces to the identical aggregate (see
:mod:`repro.runtime.checkpoint`).

Execution
---------
Every worker count runs the same attempt loop.  An attempt executes the
pending chunks either in the parent, one chunk at a time
(``workers=1``, or a single replica), or on a spawn pool; the exhaustion
fallback is one more in-parent pass.  Every completed chunk, wherever it
ran, goes through one record step: pop the chunk from ``pending``,
dedupe results by replica index, record failures, write one
``chunk_done`` record carrying the fresh results to the run journal.

Fault tolerance
---------------
Three failure modes are handled, identically for every worker count:

* **Worker crash** (OOM-kill, segfault in a native extension, hard
  ``os._exit``): the pool breaks.  The runner drains every future that
  did complete — a chunk is popped from ``pending`` *before* its results
  are recorded and results are deduplicated by replica index, so a crash
  interleaved with successful siblings in the same wait batch can never
  duplicate or lose a replica — then rebuilds the pool and resubmits
  only the chunks that never reported, with exponential backoff between
  attempts (:data:`RETRY_BACKOFF_S`).
* **Replica exception**: a task that raises is captured as a structured
  :class:`ReplicaFailure` and the replica is retried (same bounded
  backoff schedule), so one transient error never aborts the campaign.
* **Retry exhaustion**: after ``1 + MAX_RETRIES`` attempts, governed by
  ``on_exhausted`` — ``"serial"``
  (default) runs the survivors once more in the parent without
  capturing exceptions, so a run either completes or surfaces the real
  error; ``"salvage"`` gives up on the failed replicas and returns a
  partial outcome with an explicit completeness report instead of
  stalling, which is what long unattended campaigns want.

The task callable must be defined at module top level (spawn pickles it
by reference) and must accept one :class:`ReplicaTask` argument.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import traceback as _traceback
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as wait_sentinels
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.runtime.metrics import RunMetrics
from repro.runtime.seeds import replica_rng, replica_sequence, replica_state_seed

#: Hard ceiling on worker processes (guards against misconfiguration).
MAX_WORKERS = 64

#: Worker label of in-process attempts (``workers=1``).
SERIAL_WORKER = "serial"

#: Worker label of the post-retry fallback executing in the parent.  It
#: is deliberately distinct from both :data:`SERIAL_WORKER` and the
#: ``pid-*`` labels of pool workers so busy-time accounting can never
#: merge parent compute with a (possibly pid-reused) pre-crash worker.
FALLBACK_WORKER = "serial-fallback"

#: Retry-exhaustion policies (see class docstring).
EXHAUSTION_POLICIES = ("serial", "salvage")

# Runner tuning, read only in the parent process.
#: Attempts allowed after the first one (pool rebuilds after crashes,
#: re-runs of raising replicas) before the ``on_exhausted`` policy applies.
MAX_RETRIES = 2
#: Base of the exponential backoff slept before resubmission attempt
#: ``k`` (``RETRY_BACKOFF_S * 2**(k-1)``).
RETRY_BACKOFF_S = 0.05
#: Bounded wait for pool workers to exit when a pool is torn down;
#: workers still alive afterwards are reported as ``leaked_worker_pids``
#: in :class:`RunMetrics` instead of being silently left behind.
SHUTDOWN_TIMEOUT_S = 5.0
#: How often a live-telemetry pool wait wakes to fold heartbeats, emit
#: progress and check stall/straggler deadlines.  Without telemetry the
#: wait has no timeout at all.
STALL_POLL_S = 1.0


@dataclass(frozen=True, slots=True)
class ReplicaTask:
    """One unit of work: replica index, root seed and the task spec."""

    index: int
    root_seed: int
    spec: Any = None

    def sequence(self) -> np.random.SeedSequence:
        """This replica's independent seed sequence."""
        return replica_sequence(self.root_seed, self.index)

    def rng(self) -> np.random.Generator:
        """A fresh generator on this replica's stream."""
        return replica_rng(self.root_seed, self.index)

    def state_seed(self) -> int:
        """Scalar seed for ``seed: int`` APIs (cluster presets)."""
        return replica_state_seed(self.root_seed, self.index)


@dataclass(frozen=True, slots=True)
class ReplicaResult:
    """Outcome of one replica plus execution accounting."""

    index: int
    value: Any
    events: int
    elapsed_s: float
    worker: str


@dataclass(frozen=True, slots=True)
class ReplicaFailure:
    """Structured record of a replica that produced no value.

    Either the task raised (``error_type``/``message``/``traceback``
    carry the exception) or the worker executing it died
    (``error_type == "WorkerCrash"``).  ``attempts`` counts how many
    times the replica was tried before the runner gave up on it.
    """

    index: int
    error_type: str
    message: str
    traceback: str
    attempts: int
    worker: str

    def describe(self) -> str:
        return (
            f"replica {self.index}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt(s) on {self.worker})"
        )


@dataclass(frozen=True, slots=True)
class RunOutcome:
    """Reduced aggregate plus per-replica results and run metrics.

    ``failures`` is non-empty only under the ``"salvage"`` exhaustion
    policy: the aggregate then covers the completed replicas only and
    :meth:`completeness` states exactly what is missing.
    """

    value: Any
    results: tuple[ReplicaResult, ...]
    metrics: RunMetrics
    failures: tuple[ReplicaFailure, ...] = ()

    @property
    def complete(self) -> bool:
        """True when every requested replica produced a result."""
        return not self.failures

    def values(self) -> list[Any]:
        """Replica values in index order."""
        return [r.value for r in self.results]

    def completeness(self) -> dict[str, Any]:
        """Explicit salvage report: what completed, what was lost."""
        expected = self.metrics.replicas
        return {
            "complete": self.complete,
            "replicas_expected": expected,
            "replicas_completed": len(self.results),
            "replicas_failed": len(self.failures),
            "failed_indices": [f.index for f in self.failures],
            "failures": [f.describe() for f in self.failures],
        }


def _execute_chunk(
    task: Callable[[ReplicaTask], Any],
    tasks: list[ReplicaTask],
    worker_label: str | None = None,
    capture_errors: bool = False,
    heartbeat: str | None = None,
    chunk_id: int = 0,
) -> list[ReplicaResult | ReplicaFailure]:
    """Run one chunk of replicas; top-level so spawn can pickle it.

    With ``capture_errors`` a raising task yields a
    :class:`ReplicaFailure` instead of aborting the chunk, so one bad
    replica cannot take down the results of its chunk siblings.

    With ``heartbeat`` (a file path, live-telemetry runs only) the
    worker stamps progress — pid, replicas done, events simulated, rss —
    at chunk start and after every replica, feeding the parent's stall
    detector.  The disabled path pays one ``is not None`` check per
    replica and nothing else.
    """
    worker = worker_label if worker_label is not None else f"pid-{os.getpid()}"
    stamp = None
    if heartbeat is not None:
        from repro.obs.live import stamp_heartbeat as stamp

        stamp(
            heartbeat, worker=worker, chunk=chunk_id, replicas_done=0, events=0
        )
    events_total = 0
    out: list[ReplicaResult | ReplicaFailure] = []
    for replica in tasks:
        t0 = time.perf_counter()
        try:
            value = task(replica)
        except Exception as exc:  # noqa: BLE001 - converted to data
            if not capture_errors:
                raise
            out.append(
                ReplicaFailure(
                    index=replica.index,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=_traceback.format_exc(),
                    attempts=1,
                    worker=worker,
                )
            )
        else:
            elapsed = time.perf_counter() - t0
            events = int(getattr(value, "events_simulated", 0) or 0)
            events_total += events
            out.append(
                ReplicaResult(
                    index=replica.index,
                    value=value,
                    events=events,
                    elapsed_s=elapsed,
                    worker=worker,
                )
            )
        if stamp is not None:
            stamp(
                heartbeat,
                worker=worker,
                chunk=chunk_id,
                replicas_done=len(out),
                events=events_total,
            )
    return out


@dataclass(slots=True)
class _Attempts:
    """Bookkeeping of one run, shared by every attempt and placement.

    ``pending`` maps chunk id to the replicas of that chunk not yet
    recorded; ``failed`` holds the replicas that raised in the attempt
    in progress (``attempt``, 1-based); ``leaked`` collects the pids of
    pool workers that outlived their pool's bounded shutdown.
    ``journal`` is the run journal, if any; ``monitor`` is set when live
    telemetry is on.
    """

    journal: Any
    monitor: Any
    results: dict[int, ReplicaResult]
    failures: dict[int, ReplicaFailure] = field(default_factory=dict)
    pending: dict[int, list[ReplicaTask]] = field(default_factory=dict)
    failed: set[int] = field(default_factory=set)
    attempt: int = 0
    retries: int = 0
    leaked: list[int] = field(default_factory=list)

    def record(
        self, cid: int, out: list[ReplicaResult | ReplicaFailure]
    ) -> None:
        """The record step every completed chunk goes through.

        The chunk is popped from ``pending`` *before* its results are
        recorded and results dedupe by replica index, so no interleaving
        of crash, completion and stall duplicate can double-count a
        replica; a duplicate that finishes second records nothing.  The
        chunk's one ``chunk_done`` record carries its fresh results, and
        the journal fsyncs it before the write returns.
        """
        if self.pending.pop(cid, None) is None:
            return
        fresh: list[ReplicaResult] = []
        for r in out:
            if isinstance(r, ReplicaFailure):
                self.failures[r.index] = replace(r, attempts=self.attempt)
                self.failed.add(r.index)
                if self.monitor is not None:
                    self.monitor.replica_failed(
                        r.index, r.error_type, self.attempt
                    )
            elif r.index not in self.results:
                self.results[r.index] = r
                self.failures.pop(r.index, None)
                fresh.append(r)
        if self.journal is None:
            return
        fields = {
            "worker": out[0].worker,
            "replicas": len(fresh),
            "events": sum(r.events for r in fresh),
        }
        if fresh:
            fields.update(self.journal.chunk_fields(fresh))
        if self.monitor is not None:
            self.monitor.chunk_done(cid, **fields)
        else:
            self.journal.emit("chunk_done", chunk=cid, **fields)


class ParallelCampaignRunner:
    """Deterministic map/reduce over independent simulation replicas.

    Parameters
    ----------
    task:
        Module-level callable ``task(replica: ReplicaTask) -> value``.
        If the returned value exposes an ``events_simulated`` attribute
        it feeds the throughput metrics.
    reduce:
        Optional ``reduce(values_in_index_order) -> aggregate``.  Must be
        order-deterministic; it always receives values sorted by replica
        index.  Defaults to returning the tuple of values.  Never called
        for an empty campaign — ``run([])`` short-circuits to an empty
        outcome instead of handing ``[]`` to fold reducers that reject it.
    workers:
        Worker processes.  ``1`` (default) runs every attempt in-process
        — no pool, no pickling — through the same attempt loop, retry
        schedule and exhaustion policy as a pooled run.
    chunk_size:
        Replicas per submitted chunk.  Defaults to a size that yields
        roughly four chunks per worker (amortises submission overhead
        while keeping crash blast radius and tail latency small).
    on_exhausted:
        ``"serial"`` (default) runs unrecovered chunks once more in the
        parent process, letting a task exception propagate; ``"salvage"``
        returns a partial :class:`RunOutcome`
        carrying :class:`ReplicaFailure` records and a completeness
        report.

    The retry, backoff, shutdown and poll timings are the module
    constants above; stall and straggler thresholds live next to the
    monitor that applies them (:mod:`repro.obs.live`).
    """

    def __init__(
        self,
        task: Callable[[ReplicaTask], Any],
        reduce: Callable[[list[Any]], Any] | None = None,
        *,
        workers: int = 1,
        chunk_size: int | None = None,
        on_exhausted: str = "serial",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if on_exhausted not in EXHAUSTION_POLICIES:
            raise ValueError(
                f"on_exhausted must be one of {EXHAUSTION_POLICIES}, "
                f"got {on_exhausted!r}"
            )
        self.task = task
        self.reduce = reduce
        self.workers = workers
        self.chunk_size = chunk_size
        self.on_exhausted = on_exhausted

    # -- public API -------------------------------------------------------

    def run(
        self,
        specs: Sequence[Any],
        root_seed: int = 0,
        *,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        checkpoint_meta: dict[str, Any] | None = None,
        store: str | Path | None = None,
        store_meta: dict[str, Any] | None = None,
        preloaded: dict[int, ReplicaResult] | None = None,
        live_log: str | Path | None = None,
    ) -> RunOutcome:
        """Execute one replica per spec; reduce deterministically.

        ``specs[i]`` becomes replica ``i`` with seed stream
        ``SeedSequence(root_seed, spawn_key=(i,))``.  Pass ``range(n)``
        (or ``[spec] * n``) for homogeneous campaigns.

        With ``checkpoint`` or ``live_log`` the run writes its JSONL
        journal at that path (:mod:`repro.runtime.checkpoint`): every
        completed chunk is durably appended, and ``resume=True``
        additionally loads any matching journal first, appends to it and
        re-executes only the replicas it does not cover.  The reduced
        aggregate of an interrupted-then-resumed run is bit-identical to
        an uninterrupted one (the journal stores the full per-replica
        values, and the reduce always sees all of them in index order).
        Given both paths, different, ``live_log`` becomes a hard link to
        the journal at ``checkpoint``
        (:class:`~repro.errors.JournalAliasError` before any replica
        runs if it cannot).

        With ``store`` the reduced outcome is additionally flattened
        into the columnar campaign store rooted at that directory
        (:mod:`repro.storage`) — one part per ``(campaign id, plan
        digest, spec digest)``, written after the reduce so a
        resumed-then-stored run produces the identical part an
        uninterrupted run would.  ``store_meta`` may carry
        ``campaign_id`` and ``command``/``params`` labels for the part
        manifest.

        ``preloaded`` splices externally supplied per-replica results
        (index → :class:`ReplicaResult`) into the outcome without
        executing them — the counterfactual replay engine passes the
        unaffected baseline replicas here.  Spliced replicas behave
        exactly like ledger-resumed ones: they enter the index-ordered
        reduce unchanged, but contribute nothing to the fresh-work
        metrics (``events_simulated``, busy time) and are counted in
        ``replicas_resumed`` — which is precisely how the
        replay-equivalence battery proves only affected replicas re-ran.

        With ``live_log`` the run additionally writes lifecycle
        telemetry — chunk submissions, worker heartbeats, retries, stall
        and straggler flags — to the journal.  Live records carry
        wall-clock fields and are excluded from every canonical digest;
        the simulation itself is untouched (the telemetry-on aggregate
        is bit-identical to telemetry-off, which
        ``tests/obs/test_live.py`` asserts).  Without ``live_log`` the
        runner takes the exact pre-telemetry code path: no heartbeats,
        no stall detection.
        """
        tasks = [
            ReplicaTask(index=i, root_seed=int(root_seed), spec=spec)
            for i, spec in enumerate(specs)
        ]
        chunk_size = self._effective_chunk_size(len(tasks))
        if not tasks:
            # Short-circuit: never hand [] to fold reducers (several
            # reject empty campaigns); an explicitly empty outcome is
            # the well-defined answer.
            return RunOutcome(
                value=(),
                results=(),
                metrics=RunMetrics.from_results(
                    replicas=0,
                    workers=self.workers,
                    chunk_size=chunk_size,
                    wall_time_s=0.0,
                    retries=0,
                    events=[],
                    busy_by_worker={},
                ),
            )

        spliced: dict[int, ReplicaResult] = dict(preloaded or {})
        for index, result in spliced.items():
            if not isinstance(result, ReplicaResult):
                raise SimulationError(
                    f"preloaded[{index!r}] must be a ReplicaResult, "
                    f"got {type(result).__name__}"
                )
            if (
                not isinstance(index, int)
                or not 0 <= index < len(tasks)
                or result.index != index
            ):
                raise SimulationError(
                    f"preloaded index {index!r} is out of range "
                    f"[0, {len(tasks)}) or mismatches "
                    f"result.index={result.index!r}"
                )

        journal = None
        preloaded = spliced
        journal_path = checkpoint if checkpoint is not None else live_log
        if journal_path is not None:
            from repro.runtime.checkpoint import RunJournal

            meta = checkpoint_meta or {}
            journal, resumed = RunJournal.open(
                journal_path,
                root_seed=int(root_seed),
                specs=specs,
                chunk_size=chunk_size,
                workers=self.workers,
                resume=resume,
                command=meta.get("command"),
                params=meta.get("params"),
                alias=live_log if checkpoint is not None else None,
            )
            # Journal-resumed results fill the gaps; explicit splices win.
            preloaded = {**resumed, **preloaded}
            meta = {**(store_meta or {}), **meta}
            journal.emit(
                "run_started",
                replicas=len(tasks),
                replicas_resumed=len(preloaded),
                workers=self.workers,
                chunk_size=chunk_size,
                command=meta.get("command"),
                root_seed=int(root_seed),
                **journal.session,
            )

        monitor = None
        heartbeat_dir = None
        pooled = not (self.workers == 1 or len(tasks) <= 1)
        if live_log is not None:
            # Lazy import: runs without telemetry never pay for it.
            from repro.obs.live import LiveRunMonitor

            if pooled:
                heartbeat_dir = tempfile.mkdtemp(prefix="repro-live-hb-")
            monitor = LiveRunMonitor(
                journal, heartbeat_dir, replicas_total=len(tasks)
            )

        t0 = time.perf_counter()
        state = _Attempts(journal, monitor, results=dict(preloaded))
        try:
            results = self._run_attempts(state, tasks, chunk_size, pooled)
            wall = time.perf_counter() - t0
        except BaseException:
            if journal is not None:
                journal.close()
            raise
        finally:
            if heartbeat_dir is not None:
                shutil.rmtree(heartbeat_dir, ignore_errors=True)
        results.sort(key=lambda r: r.index)
        failures = state.failures

        expected = set(range(len(tasks)))
        have = {r.index for r in results}
        duplicates = len(results) - len(have)
        missing = sorted(expected - have - set(failures))
        if duplicates or missing or (failures and self.on_exhausted != "salvage"):
            # Structurally impossible after the dedup fix unless a
            # subclass or reducer misbehaves — keep the guard.
            raise SimulationError(
                "runner lost replicas: expected "
                f"{len(tasks)}, got indices {sorted(have)!r} "
                f"(missing {missing!r}, failed "
                f"{sorted(failures)!r}, duplicates {duplicates})"
            )

        busy: dict[str, float] = {}
        fresh = [r for r in results if r.index not in preloaded]
        for r in fresh:
            busy[r.worker] = busy.get(r.worker, 0.0) + r.elapsed_s
        metrics = RunMetrics.from_results(
            replicas=len(tasks),
            workers=self.workers,
            chunk_size=chunk_size,
            wall_time_s=wall,
            retries=state.retries,
            events=[r.events for r in fresh],
            busy_by_worker=busy,
            leaked_worker_pids=tuple(sorted(state.leaked)),
            replicas_failed=len(failures),
            replicas_resumed=len(preloaded),
        )
        values = [r.value for r in results]
        if not values:
            value = ()  # fully-salvaged run: nothing for fold reducers
        elif self.reduce is not None:
            value = self.reduce(values)
        else:
            value = tuple(values)
        outcome = RunOutcome(
            value=value,
            results=tuple(results),
            metrics=metrics,
            failures=tuple(failures[i] for i in sorted(failures)),
        )
        if journal is not None:
            counters = getattr(value, "obs_counters", None)
            journal.emit(
                "run_finished",
                metrics=metrics.to_dict(),
                failures=len(outcome.failures),
                stalls=monitor.stall_count if monitor is not None else 0,
                completed=len(results),
                failed=len(failures),
                complete=len(results) >= len(tasks),
                counters=counters if isinstance(counters, dict) else None,
            )
            journal.close()
        if store is not None:
            # Deferred import: the storage package is sim-free and the
            # runner must stay importable without it paying for (or the
            # query path depending on) this write path.
            from repro.runtime.checkpoint import spec_digest
            from repro.storage.writer import write_run

            write_run(
                store,
                outcome,
                root_seed=int(root_seed),
                spec_digest=spec_digest(int(root_seed), specs),
                meta=store_meta,
            )
        return outcome

    # -- internals --------------------------------------------------------

    def _effective_chunk_size(self, n: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if n == 0:
            return 1
        target_chunks = 4 * self.workers
        return max(1, -(-n // target_chunks))

    def _chunked(
        self, tasks: list[ReplicaTask], chunk_size: int
    ) -> list[list[ReplicaTask]]:
        return [
            tasks[lo : lo + chunk_size]
            for lo in range(0, len(tasks), chunk_size)
        ]

    def _backoff(self, attempt: int) -> None:
        """Exponential backoff before resubmission attempt ``attempt``."""
        if RETRY_BACKOFF_S > 0 and attempt > 0:
            time.sleep(RETRY_BACKOFF_S * (2 ** (attempt - 1)))

    def _run_attempts(
        self,
        state: _Attempts,
        tasks: list[ReplicaTask],
        chunk_size: int,
        pooled: bool,
    ) -> list[ReplicaResult]:
        """The one attempt loop, for every worker count.

        Each attempt runs every pending chunk, in the parent or on a
        fresh pool; replicas that raised are queued again as new chunks.
        After ``1 + MAX_RETRIES`` attempts the ``on_exhausted`` policy
        takes whatever is still pending.  Returns the recorded results.
        """
        # Chunk ids are positions in the whole campaign, so a resumed run
        # keeps the ids of an uninterrupted one.
        chunks = self._chunked(tasks, chunk_size)
        for cid, chunk in enumerate(chunks):
            todo = [t for t in chunk if t.index not in state.results]
            if todo:
                state.pending[cid] = todo
        next_cid = len(chunks)
        monitor = state.monitor
        while state.pending and state.attempt <= MAX_RETRIES:
            if state.attempt > 0:
                state.retries += len(state.pending)
                if monitor is not None:
                    monitor.retry(
                        chunks=len(state.pending), attempt=state.attempt
                    )
                self._backoff(state.attempt)
            state.attempt += 1
            if pooled:
                self._run_pool(state)
            else:
                self._run_in_parent(state, SERIAL_WORKER, capture_errors=True)
            # Failure records stay until a retry succeeds.
            retry_tasks = [tasks[i] for i in sorted(state.failed)]
            state.failed.clear()
            for chunk in self._chunked(retry_tasks, chunk_size):
                state.pending[next_cid] = chunk
                next_cid += 1
        if state.pending and self.on_exhausted == "serial":
            # Last resort: one more pass in the parent so the run
            # completes.  Exceptions propagate here — after MAX_RETRIES
            # identical failures there is no point converting them again.
            state.attempt += 1
            self._run_in_parent(state, FALLBACK_WORKER, capture_errors=False)
        # Salvage: replicas lost to worker crashes get a structured
        # failure record too (task exceptions already have one).
        for chunk in state.pending.values():
            for t in chunk:
                state.failures.setdefault(
                    t.index,
                    ReplicaFailure(
                        index=t.index,
                        error_type="WorkerCrash",
                        message=(
                            "worker process died before the replica "
                            f"reported (after {state.attempt} attempt(s))"
                        ),
                        traceback="",
                        attempts=state.attempt,
                        worker="pool",
                    ),
                )
        return list(state.results.values())

    def _run_in_parent(
        self, state: _Attempts, worker: str, capture_errors: bool
    ) -> None:
        """One attempt in this process, one chunk at a time, so each
        chunk is recorded before the next one runs."""
        monitor = state.monitor
        for cid, chunk in list(state.pending.items()):
            if monitor is not None:
                monitor.chunk_submitted(
                    cid, [t.index for t in chunk], state.attempt
                )
            state.record(
                cid, _execute_chunk(self.task, chunk, worker, capture_errors)
            )
            if monitor is not None:
                monitor.poll()

    def _run_pool(self, state: _Attempts) -> None:
        """One attempt on a fresh spawn pool."""
        monitor = state.monitor
        ctx = multiprocessing.get_context("spawn")
        executor = ProcessPoolExecutor(
            max_workers=min(self.workers, len(state.pending)), mp_context=ctx
        )
        try:
            futures = {}

            def _submit(cid: int, chunk: list[ReplicaTask]):
                hb = None
                if monitor is not None:
                    hb = monitor.heartbeat_path(cid)
                    monitor.chunk_submitted(
                        cid, [t.index for t in chunk], state.attempt
                    )
                future = executor.submit(
                    _execute_chunk, self.task, chunk, None, True, hb, cid
                )
                futures[future] = cid
                return future

            for cid, chunk in state.pending.items():
                _submit(cid, chunk)
            not_done = set(futures)
            # With a live monitor the pool wait wakes on a poll timeout to
            # fold heartbeats and run stall detection; without one it
            # blocks indefinitely.
            poll = STALL_POLL_S if monitor is not None else None
            resubmitted: set[int] = set()
            while not_done:
                done, not_done = wait(
                    not_done, timeout=poll, return_when=FIRST_COMPLETED
                )
                for future in done:
                    try:
                        out = future.result()
                    except (BrokenProcessPool, OSError):
                        # This chunk's worker died.  Leave the chunk
                        # pending for the next attempt but KEEP DRAINING
                        # the batch: sibling futures that completed before
                        # the break still hold real results, and skipping
                        # them would re-execute their chunks (historically
                        # the duplicate-resubmission bug that tripped the
                        # lost-replicas guard).
                        continue
                    state.record(futures[future], out)
                if monitor is None:
                    continue
                for cid in monitor.poll():
                    # Duplicate the stalled chunk onto a free worker
                    # instead of waiting for pool teardown; at most one
                    # duplicate per chunk per attempt.  The record step
                    # makes the race between original and duplicate safe
                    # whichever finishes first.
                    if cid in state.pending and cid not in resubmitted:
                        resubmitted.add(cid)
                        state.retries += 1
                        not_done.add(_submit(cid, state.pending[cid]))
                if not state.pending and not_done:
                    # Every replica is accounted for; whatever is still
                    # "running" is a hung original whose duplicate
                    # already won.  Abandon it — the bounded executor
                    # shutdown reaps (or reports) its worker.
                    break
        except (BrokenProcessPool, OSError):
            # Raised by submit()/wait() themselves when the pool is
            # already broken; everything still pending is resubmitted on
            # a fresh pool next attempt.
            pass
        finally:
            state.leaked.extend(self._shutdown_executor(executor))

    def _shutdown_executor(self, executor: ProcessPoolExecutor) -> list[int]:
        """Tear a pool down with a bounded wait; report leaked workers.

        ``shutdown(wait=False, cancel_futures=True)`` alone can leave
        spawn workers alive while the next pool starts (they only exit
        once they notice the closed call queue).  Wait for each worker's
        exit with a shared deadline and surface whoever is still running
        so :class:`RunMetrics` can report the leak instead of hiding it.

        The wait is on the process sentinels, never ``join()`` or
        ``is_alive()``: the executor's manager thread reaps the same
        workers concurrently, and whichever ``waitpid`` loses that race
        sees ``ECHILD``, after which ``is_alive()`` wrongly reports an
        exited worker as running.  A sentinel becomes ready when the
        worker exits, whoever reaps it.
        """
        procs = list((executor._processes or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        running = {proc.sentinel: proc for proc in procs}
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        while running:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for sentinel in wait_sentinels(list(running), timeout=remaining):
                del running[sentinel]
        return sorted(
            proc.pid for proc in running.values() if proc.pid is not None
        )
