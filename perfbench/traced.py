"""The traced run: per-layer numbers from in-process calls.

Each workload's work is done twice in this process with one worker.
The spanned pass records a span around every call into a layer's public
functions and keeps the spans in memory; a span costs two clock reads,
so its times are the program's.  The profiled pass counts work through
the public ``repro.obs`` counter registry and runs under ``cProfile``,
so that self time can be charged to the ``repro`` package whose code
ran, with C builtins charged to the package that called them.
``trace.overhead_ratio`` is the profiled pass over the spanned one.
Both passes run the library's own replica task; nothing under ``src/``
is changed.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import REPLAY_ONA, ArtefactPaths, Workload

#: The layers self time is reported for, named after ``src/repro``
#: packages.  Code in other packages, or in modules at the package root
#: such as ``presets.py``, is left out of every layer.
LAYERS = (
    "sim", "tta", "components", "diagnosis", "core", "faults",
    "analysis", "runtime", "obs", "storage", "replay",
)


class Spans:
    """In-memory spans: name, start, end, parent and run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        record = {"id": index, "name": name, "parent": parent, "run": self.run_id}
        self.records.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (r["end"] - r["start"]) * 1e3 for r in self.records if r["name"] == name
        ]

    def per_parent_ms(self, name: str) -> list[float]:
        """Durations of the ``name`` spans summed under each parent."""
        totals: dict[int | None, float] = {}
        for r in self.records:
            if r["name"] == name:
                totals[r["parent"]] = (
                    totals.get(r["parent"], 0.0) + (r["end"] - r["start"]) * 1e3
                )
        return list(totals.values())


def layer_self_ms(profile: cProfile.Profile, src: Path) -> dict[str, float]:
    """Self time per ``repro`` package; builtins go to their caller."""
    prefix = str(src / "repro") + "/"

    def layer(filename: str) -> str | None:
        if not filename.startswith(prefix):
            return None
        head = filename[len(prefix):].split("/", 1)
        return head[0] if len(head) == 2 else None

    totals = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in (
        pstats.Stats(profile).stats.items()
    ):
        if filename == "~":
            charges = [(caller[0], timing[2]) for caller, timing in callers.items()]
        else:
            charges = [(filename, tt)]
        for owner, seconds in charges:
            name = layer(owner)
            if name in totals:
                totals[name] += seconds * 1e3
    return totals


def _profiled_pass(work) -> tuple[object, float, cProfile.Profile, dict]:
    """``work()`` under the profiler with ``repro.obs`` counters on.

    Returns its result, wall seconds, the profile and the counters.
    """
    from repro import obs as obs_api

    observability = obs_api.Observability()
    previous = obs_api.set_obs(observability)
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    try:
        result = work()
    finally:
        profile.disable()
        obs_api.set_obs(previous)
    seconds = time.perf_counter() - t0
    return result, seconds, profile, observability.snapshot()["counters"]


def _campaign_meta(workload: Workload, seed: int) -> tuple[dict, dict]:
    c = workload.campaign
    params = {
        "seed": seed,
        "replicas": c.replicas,
        "expected_faults": c.expected_faults,
        "horizon_ms": c.horizon_ms,
    }
    checkpoint_meta = {"command": "mc", "params": {**params, "workers": 1}}
    store_meta = {
        "campaign_id": "default", "format": "json", "command": "mc", "params": params,
    }
    return checkpoint_meta, store_meta


@contextmanager
def replica_spans(spans: Spans, tally: dict):
    """Spans around the calls ``run_campaign_replica`` makes into each
    layer, for the duration of the block.

    The names the library's replica task calls are swapped for wrappers
    that open a span and call the original; they are restored on exit.
    ``tally`` gains the slots and events simulated and the verdicts
    emitted.
    """
    from repro.components.cluster import Cluster
    from repro.diagnosis.diag_das import DiagnosticService
    from repro.faults.campaign import RandomCampaign
    from repro.runtime import workloads as task_module

    def timed(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with spans.span(name):
                return fn(*args, **kwargs)

        return wrapper

    cluster_run = Cluster.run
    verdicts = DiagnosticService.verdicts

    def counted_run(self, duration_us):
        before = self.sim.events_processed
        timed("Cluster.run", cluster_run)(self, duration_us)
        tally["slots"] += duration_us // self.schedule.slot_length_us
        tally["events"] += self.sim.events_processed - before

    def counted_verdicts(self, *args, **kwargs):
        emitted = timed("service.verdicts", verdicts)(self, *args, **kwargs)
        tally["verdicts"] += len(emitted)
        return emitted

    patches = [
        (task_module, "figure10_cluster",
         timed("figure10_cluster", task_module.figure10_cluster)),
        (task_module, "DiagnosticService",
         timed("DiagnosticService", task_module.DiagnosticService)),
        (task_module, "predicted_class_for",
         timed("predicted_class_for", task_module.predicted_class_for)),
        (RandomCampaign, "run", timed("RandomCampaign.run", RandomCampaign.run)),
        (Cluster, "run", counted_run),
        (DiagnosticService, "verdicts", counted_verdicts),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def campaign_passes(
    workload: Workload, seeds: list[int], files: ArtefactPaths, spans: Spans,
    src: Path,
) -> dict:
    """Spanned then profiled in-process ``mc`` with the CLI's artefacts on,
    each pass running one campaign per seed in ``seeds``.

    Both passes run the library's own replica task.
    """
    from repro.faults.campaign import CampaignReplicaSpec, summarize_campaign
    from repro.runtime import ParallelCampaignRunner
    from repro.runtime.workloads import run_campaign_replica
    from repro.units import ms

    c = workload.campaign
    spec = CampaignReplicaSpec(
        expected_faults=c.expected_faults, horizon_us=ms(c.horizon_ms)
    )

    def run(task, reduce):
        summaries = []
        for seed in seeds:
            checkpoint_meta, store_meta = _campaign_meta(workload, seed)
            files.clear()
            summaries.append(ParallelCampaignRunner(task, reduce, workers=1).run(
                [spec] * c.replicas,
                root_seed=seed,
                checkpoint=files.ledger,
                checkpoint_meta=checkpoint_meta,
                store=files.store,
                store_meta=store_meta,
                live_log=files.live_log if c.live_log else None,
            ).value)
        return summaries

    def spanned_reduce(values):
        with spans.span("summarize_campaign"):
            return summarize_campaign(values)

    def spanned_task(replica):
        with spans.span("replica"):
            return run_campaign_replica(replica)

    tally = {"slots": 0, "events": 0, "verdicts": 0}
    t0 = time.perf_counter()
    with replica_spans(spans, tally), spans.span("ParallelCampaignRunner.run"):
        spanned = run(spanned_task, spanned_reduce)
    spanned_s = time.perf_counter() - t0

    profiled, profiled_s, profile, counters = _profiled_pass(
        lambda: run(run_campaign_replica, summarize_campaign)
    )
    return {
        "spanned_summaries": spanned,
        "profiled_summaries": profiled,
        "spanned_s": spanned_s,
        "profiled_s": profiled_s,
        "self_ms": layer_self_ms(profile, src),
        "counters": counters,
        "tally": tally,
    }


#: Rounds of the three queries in each ``offline`` pass: enough
#: samples that at least ten lie beyond the 90th percentile.
QUERY_ROUNDS = 34


def offline_passes(
    files: ArtefactPaths, selectors: list[str], spans: Spans, src: Path
) -> dict:
    """Spanned then profiled in-process queries and replays of the
    baseline."""
    from repro.replay import load_baseline, whatif
    from repro.storage import CampaignStore
    from repro.storage import query as store_query

    queries = {
        "report": lambda s: store_query.render_query_report(s, None),
        "nff": lambda s: store_query.nff_ratio(s, None),
        "confusion": lambda s: store_query.confusion(s, None),
    }

    def work(trace: Spans | None) -> dict:
        span = trace.span if trace is not None else _no_span
        for _round in range(QUERY_ROUNDS):
            for name, query in queries.items():
                with span("query"):
                    with span("CampaignStore"):
                        store = CampaignStore(files.store)
                    with span(f"repro.storage.query.{name}"):
                        query(store)
        answers = []
        for rewrite in ({"suppress_faults": tuple(selectors)},
                        {"disable_onas": (REPLAY_ONA,)}):
            with span("load_baseline"):
                baseline = load_baseline(str(files.ledger))
            with span("whatif"):
                answers.append(whatif(baseline, workers=1, **rewrite))
        return {
            "affected": sum(len(a.affected) for a in answers),
            "baseline_replicas": sum(a.baseline.replicas for a in answers),
            "replayed_events": sum(a.replayed_events for a in answers),
            "plan_digest": answers[0].baseline_summary.plan_digest,
        }

    t0 = time.perf_counter()
    spanned = work(spans)
    spanned_s = time.perf_counter() - t0
    profiled, profiled_s, profile, counters = _profiled_pass(lambda: work(None))
    return {
        "counters": counters,
        "spanned": spanned,
        "profiled": profiled,
        "spanned_s": spanned_s,
        "profiled_s": profiled_s,
        "self_ms": layer_self_ms(profile, src),
    }


@contextmanager
def _no_span(_name: str):
    yield
