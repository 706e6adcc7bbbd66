"""The repository benchmark: campaign time-to-result and throughput.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 50 --trace 0

``--trace 0`` drives the CLI (``python -m repro``) as child processes,
one command at a time, and reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from one untraced CLI pass plus spanned
and profiled in-process passes (``traced.py``), and writes the spans to
``.perfbench-out/``.  Metric names and units come from
``BENCHMARK.json``.  Every
command's output is checked; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` stores what a correct run observed as the reference for
its workload, size and seed in ``perfbench/references.json``; later runs
with that seed must reproduce it.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from harness import Completed, become_subreaper, median, percentile, run_command
from workloads import (
    QUERIES,
    REPLAY_ONA,
    SIZES,
    ArtefactPaths,
    CampaignResult,
    CheckFailed,
    Workload,
    check_query_report,
    check_whatif,
    digest_text,
    fault_selectors,
    mc_argv,
    parse_campaign,
    replica_failures,
    repro,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCES = BENCH / "references.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: A command slower than this is killed and counted as failed, so one
#: run stays well inside its time limit.
COMMAND_TIMEOUT_S = 150.0
#: How often a query runs back to back each time its turn comes: a query
#: takes a tenth of a second, so a single run is one glimpse of a host
#: whose speed varies from second to second.
QUERY_REPEAT = 4


class Session:
    """Runs commands, counts operations and the ones that failed."""

    def __init__(self, cwd: Path, tmp: Path) -> None:
        self.cwd = cwd
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(tmp)}
        self.attempted = 0
        self.failed = 0
        #: Pids of processes a command left behind.
        self.leaked: set[int] = set()

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", flush=True)

    def run(self, argv: list[str], check=None) -> tuple[Completed, object] | None:
        """Run one command; return ``(completed, check(completed))``, or
        None when the command or its check failed."""
        self.attempted += 1
        done = run_command(
            argv, cwd=self.cwd, env=self.env, timeout_s=COMMAND_TIMEOUT_S
        )
        self.leaked.update(done.leaked)
        label = " ".join(argv[2:])[:160]
        if done.rc != 0:
            self.fail(f"exit {done.rc}: {label}: {done.stderr.strip()[-300:]}")
            return None
        try:
            return done, (check(done) if check is not None else None)
        except (CheckFailed, KeyError, ValueError, OSError) as exc:
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def in_process(self, what: str, ok: bool) -> None:
        """Count one in-process pass as an operation."""
        self.attempted += 1
        if not ok:
            self.fail(what)


class Consistent:
    """Outputs of repeated identical commands must stay identical, and
    equal the recorded reference where one exists."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference or {}
        self.seen: dict[str, object] = {}

    def check(self, key: str, value) -> None:
        first = self.seen.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{key} changed between identical commands")
        if key in self.reference and self.reference[key] != value:
            raise CheckFailed(f"{key} differs from the reference for this seed")


def host_facts(workers: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pyarrow": importlib.util.find_spec("pyarrow") is not None,
        "workers": workers,
    }


# -- end-to-end runs ---------------------------------------------------------


def campaign_command(
    session: Session,
    consistent: Consistent | None,
    workload: Workload,
    seed: int,
    files: ArtefactPaths,
    **shrink,
) -> tuple[Completed, CampaignResult] | None:
    """One ``mc`` command with fresh artefacts, parsed and checked."""
    files.clear()
    argv = mc_argv(workload.campaign, seed, files, python=sys.executable, **shrink)
    replicas = shrink.get("replicas", workload.campaign.replicas)

    def check(done: Completed) -> CampaignResult:
        result = parse_campaign(done.stdout, files, replicas)
        if replica_failures(result):
            raise CheckFailed("replicas failed or were retried")
        if consistent is not None:
            for key, value in result.identity().items():
                consistent.check(f"seed {seed} {key}", value)
        return result

    return session.run(argv, check)


@dataclass
class Step:
    """One distinct command of a workload's timed loop and its runs.

    ``run`` runs and checks the command once and returns what it cost,
    or None when it failed; each turn runs it ``repeat`` times.
    """

    role: str  # "campaign", "query" or "whatif"
    replicas: int  # replicas the command runs or re-simulates
    run: Callable[[], Completed | None]
    repeat: int = 1
    samples: list[Completed] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return median([d.wall_s for d in self.samples])

    @property
    def cpu_s(self) -> float:
        return median([d.cpu_s for d in self.samples])

    @property
    def peak_rss_mb(self) -> float:
        return median([d.peak_rss_mb for d in self.samples])


def round_robin(steps: list[Step], seconds: float) -> bool:
    """Run ``steps`` in order, over and over, while the next one should
    still end within ``seconds``; every step at least once.

    Returns False as soon as a step fails.
    """
    start = time.perf_counter()
    for cycle in itertools.count():
        for step in steps:
            turn_s = step.samples[-1].wall_s * step.repeat if cycle else 0.0
            if cycle and time.perf_counter() - start + turn_s > seconds:
                return True
            for _ in range(step.repeat):
                done = step.run()
                if done is None:
                    return False
                step.samples.append(done)


def campaign_steps(session, workload, seed, work: Path, consistent) -> tuple[list, list]:
    """Set-up samples and the loop's steps for ``mc-dense``.

    Each campaign is an ``mc`` command, then ``query report`` on the store
    it wrote and a ``whatif`` whose selector matches no fault: the fixed
    cost of one replay (imports, ledger load, spec check, report).
    """
    seeds = workload.seeds(seed)
    replicas = workload.campaign.replicas
    setup = []
    probe = ArtefactPaths(work / "setup")
    for _ in range(workload.setup_runs):
        # The same command, one minimal replica per worker.
        ran = campaign_command(
            session, None, workload, seeds[0], probe,
            replicas=workload.campaign.workers, horizon_ms=1,
        )
        if ran is None:
            return setup, []
        setup.append(ran[0].wall_s)
    steps = []
    for s in seeds:
        files = ArtefactPaths(work / f"campaign-seed{s}")
        latest: dict[str, CampaignResult] = {}

        def run_mc(s=s, files=files, latest=latest):
            ran = campaign_command(session, consistent, workload, s, files)
            if ran is None:
                return None
            latest["result"] = ran[1]
            return ran[0]

        def run_query(files=files, latest=latest):
            ran = session.run(
                repro("query", "report", "--store", str(files.store),
                      python=sys.executable),
                lambda c: check_query_report(c.stdout, latest["result"]),
            )
            return ran and ran[0]

        def run_whatif(files=files, latest=latest):
            ran = session.run(
                repro("whatif", str(files.ledger),
                      "--without-fault", f"r{replicas}:seu", "--json",
                      python=sys.executable),
                lambda c: check_whatif(c.stdout, latest["result"], 0),
            )
            return ran and ran[0]

        steps += [
            Step("campaign", replicas, run_mc),
            Step("query", 0, run_query, QUERY_REPEAT),
            Step("whatif", 0, run_whatif),
        ]
    return setup, steps


def offline_steps(session, workload, seed, work: Path, consistent) -> tuple[list, list]:
    """Set-up samples (writing the baseline) and the loop's steps for
    ``offline``: three queries on the store, two replays of the ledger."""
    files = ArtefactPaths(work / "campaign")
    setup, baseline = [], None
    for _ in range(workload.setup_runs):
        ran = campaign_command(session, consistent, workload, seed, files)
        if ran is None:
            return setup, []
        setup.append(ran[0].wall_s)
        baseline = ran[1]
    try:
        selectors = fault_selectors(files.store, workload.replay_replicas)
    except CheckFailed as exc:
        session.fail(str(exc))
        return setup, []
    steps = []
    for what in QUERIES:
        def check(c, what=what):
            if what == "report":
                check_query_report(c.stdout, baseline)
            else:
                json.loads(c.stdout)
            consistent.check(f"query {what}", digest_text(c.stdout))

        def run_query(what=what, check=check):
            ran = session.run(
                repro("query", what, "--store", str(files.store), python=sys.executable),
                check,
            )
            return ran and ran[0]

        steps.append(Step("query", 0, run_query, QUERY_REPEAT))
    replays = {
        "whatif fault": (
            [arg for sel in selectors for arg in ("--without-fault", sel)],
            len(selectors),
        ),
        "whatif ona": (["--without-ona", REPLAY_ONA], baseline.replicas),
    }
    for name, (args, affected) in replays.items():
        def check(c, name=name, affected=affected):
            check_whatif(c.stdout, baseline, affected)
            consistent.check(name, digest_text(c.stdout))

        def run_whatif(args=args, check=check):
            ran = session.run(
                repro("whatif", str(files.ledger), *args, "--json",
                      python=sys.executable),
                check,
            )
            return ran and ran[0]

        steps.append(Step("whatif", affected, run_whatif))
    return setup, steps


def end_to_end(session, workload, seed, seconds, reference, work: Path):
    """Set-up, then the workload's distinct commands round-robin for
    ``seconds``.

    Each command's time, CPU and peak memory are the medians of its
    runs, and ``setup_s`` is the median set-up.
    """
    consistent = Consistent(reference)
    offline = workload.name == "offline"
    make_steps = offline_steps if offline else campaign_steps
    setup, steps = make_steps(session, workload, seed, work, consistent)
    if not steps or not round_robin(steps, seconds):
        return {}, consistent
    # offline: the five read commands; mc-dense: the mc commands.
    timed = steps if offline else [s for s in steps if s.role == "campaign"]
    throughput = [s for s in steps if s.role == ("whatif" if offline else "campaign")]
    by_role = {
        role: [s.wall_s for s in steps if s.role == role] for role in ("query", "whatif")
    }
    values = {
        "wall_s": sum(s.wall_s for s in timed),
        "setup_s": median(setup),
        "replicas_per_s": (
            sum(s.replicas for s in throughput) / sum(s.wall_s for s in throughput)
        ),
        "cpu_s": sum(s.cpu_s for s in timed),
        "peak_rss_mb": max(s.peak_rss_mb for s in steps),
        "query_s": statistics.fmean(by_role["query"]),
        "whatif_s": statistics.fmean(by_role["whatif"]),
    }
    print(
        f"{len(setup)} set-up run(s); {len(steps)} distinct commands run "
        f"{min(len(s.samples) for s in steps)}-{max(len(s.samples) for s in steps)} "
        "times each",
        flush=True,
    )
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}, consistent


# -- the traced run ------------------------------------------------------------


def artefact_bytes(files: ArtefactPaths) -> dict:
    return {
        "runtime.ledger_bytes": files.bytes_of(files.ledger),
        "obs.live_log_bytes": files.bytes_of(files.live_log),
        "storage.write_bytes": files.bytes_of(files.store),
    }


def runtime_numbers(session, commands: list[tuple[CampaignResult, dict]],
                    module: str) -> dict:
    """Runner accounting summed over the untraced ``mc`` commands (their
    metrics JSON and artefact sizes), plus the import cost of ``module``."""
    imports = []
    for _ in range(3):
        ran = session.run([sys.executable, "-c", f"import {module}"])
        if ran is not None:
            imports.append(ran[0].wall_s)
    numbers = {"runtime.overhead_s": 0.0, "runtime.retries": 0}
    utilization: list[float] = []
    # A worker the runner gave up on may also be reaped by the benchmark
    # afterwards: count each pid once.
    leaked = set(session.leaked)
    for result, sizes in commands:
        m = result.metrics
        busy = m.get("worker_busy_s") or {"none": 0.0}
        utilization += (m.get("worker_utilization") or {"none": 0.0}).values()
        numbers["runtime.overhead_s"] += m["wall_time_s"] - max(busy.values())
        numbers["runtime.retries"] += m.get("retries", 0)
        leaked |= set(m.get("leaked_worker_pids", []))
        for name, size in sizes.items():
            numbers[name] = numbers.get(name, 0) + size
    numbers.update({
        "runtime.import_s": _p50(imports),
        "runtime.utilization_min": min(utilization),
        "runtime.leaked_workers": len(leaked),
    })
    return numbers


def _p50(values: list[float]) -> float:
    return median(values) if values else 0.0


def _counter(counters: dict, name: str) -> float:
    return float(counters.get(name, 0))


def traced_run(session, workload, seed, reference, files, run_id):
    import traced as tr

    spans = tr.Spans(run_id)
    consistent = Consistent(reference)
    offline = workload.name == "offline"
    seeds = workload.seeds(seed)
    commands = []
    for s in seeds:
        ran = campaign_command(session, consistent, workload, s, files)
        if ran is None:
            return {}, spans, {}, consistent
        commands.append((ran[1], artefact_bytes(files)))
    metrics = runtime_numbers(
        session, commands,
        "repro.storage.query" if offline else "repro.runtime.workloads",
    )
    counts: dict = {}
    p90s: dict = {"sim.run_ms_p90": None, "storage.query_ms_p90": None}
    if offline:
        # One campaign: its artefacts are still in ``files``.
        (cli, _sizes), = commands
        selectors = fault_selectors(files.store, workload.replay_replicas)
        passes = tr.offline_passes(files, selectors, spans, SRC)
        t = passes["spanned"]
        expected = len(selectors) + cli.replicas
        for label in ("spanned", "profiled"):
            observed = passes[label]
            session.in_process(
                f"in-process {label} offline pass disagrees with the CLI baseline",
                observed["plan_digest"] == cli.plan_digest
                and observed["affected"] == expected,
            )
        counters = passes["counters"]
        sim_events = t["replayed_events"]
        metrics.update({
            "replay.affected_ratio": t["affected"] / t["baseline_replicas"],
            "replay.events_replayed": t["replayed_events"],
        })
    else:
        inproc = ArtefactPaths(files.root.with_name("inproc"))
        passes = tr.campaign_passes(workload, seeds, inproc, spans, SRC)
        expected = [(cli.plan_digest, cli.sim_events) for cli, _sizes in commands]
        for label in ("spanned", "profiled"):
            observed = [
                (summary.plan_digest, summary.events_simulated)
                for summary in passes[f"{label}_summaries"]
            ]
            session.in_process(
                f"in-process {label} campaigns disagree with the CLI "
                "(plan digest or event count)",
                observed == expected,
            )
        counters = passes["counters"]
        tally = passes["tally"]
        sim_events = tally["events"]
        run_ms = spans.durations_ms("Cluster.run")
        p90s["sim.run_ms_p90"] = percentile(run_ms, 0.9)
        metrics.update({
            "core.verdicts": tally["verdicts"],
            "sim.us_per_slot": sum(run_ms) * 1e3 / max(tally["slots"], 1),
            "sim.run_ms_p50": _p50(run_ms),
            "sim.events_per_s": tally["events"] / (sum(run_ms) / 1e3) if run_ms else 0.0,
            "analysis.reduce_ms": sum(spans.durations_ms("summarize_campaign")),
        })
    submitted = _counter(counters, "assessment.symptoms_submitted")
    query_ms = spans.durations_ms("query")
    p90s["storage.query_ms_p90"] = percentile(query_ms, 0.9)
    self_ms = passes["self_ms"]
    metrics.update({
        "core.verdicts_ms_p50": _p50(spans.durations_ms("service.verdicts")),
        "core.symptoms_submitted": submitted,
        "core.dedup_ratio": (
            _counter(counters, "assessment.symptoms_deduplicated") / submitted
            if submitted else 0.0
        ),
        "diagnosis.symptoms": _counter(counters, "detector.symptoms"),
        "diagnosis.disseminated": _counter(counters, "dissemination.delivered"),
        "components.build_ms_p50": _p50(spans.durations_ms("figure10_cluster")),
        "diagnosis.attach_ms_p50": _p50(spans.durations_ms("DiagnosticService")),
        "faults.sample_ms_p50": _p50(spans.durations_ms("RandomCampaign.run")),
        "analysis.score_ms_p50": _p50(spans.per_parent_ms("predicted_class_for")),
        "storage.open_ms": _p50(spans.durations_ms("CampaignStore")),
        "storage.query_ms_p50": _p50(query_ms),
        "replay.load_ms": _p50(spans.durations_ms("load_baseline")),
        "sim.events": sim_events,
        "trace.overhead_ratio": passes["profiled_s"] / passes["spanned_s"],
    })
    for layer, value in self_ms.items():
        metrics[f"{layer}.self_ms"] = value
    # A p90 with fewer than ten samples beyond it is not reported: 0.
    metrics.update({name: value or 0.0 for name, value in p90s.items()})
    counts.update({
        name: len(spans.durations_ms(span))
        for name, span in (
            ("core.verdicts_ms_p50", "service.verdicts"),
            ("components.build_ms_p50", "figure10_cluster"),
            ("sim.run_ms_p50", "Cluster.run"),
            ("sim.run_ms_p90", "Cluster.run"),
            ("storage.query_ms_p50", "query"),
            ("storage.query_ms_p90", "query"),
        )
    })
    out = {
        name: (float(metrics.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()
    }
    extra = {
        "self_ms": self_ms, "counters": counters, "samples": counts,
        "unreported": sorted(name for name, value in p90s.items() if value is None),
    }
    return out, spans, extra, consistent


# -- entry point -------------------------------------------------------------


def load_references(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = SIZES[args.size][args.workload]
    host = host_facts(workload.campaign.workers)
    print(json.dumps({"host": host}), flush=True)
    if workload.campaign.workers > host["nproc"]:
        print(
            f"refusing {workload.name}: {workload.campaign.workers} workers "
            f"exceed nproc={host['nproc']}",
            file=sys.stderr,
        )
        return 2
    become_subreaper()
    references = load_references(REFERENCES)
    key = (workload.name, args.size, str(args.seed))
    reference = references.get(key[0], {}).get(key[1], {}).get(key[2])
    run_id = f"{workload.name}-{args.size}-s{args.seed}-p{os.getpid()}"
    work = OUT / run_id
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # Temporary files (the runner's heartbeat directories) stay in the
    # checkout too, for the commands and for the in-process passes.
    tmp = work / "tmp"
    tmp.mkdir()
    tempfile.tempdir = str(tmp)
    session = Session(work, tmp)
    extra: dict = {}
    metrics: dict = {}
    consistent = Consistent(reference)
    try:
        if args.trace:
            metrics, spans, extra, consistent = traced_run(
                session, workload, args.seed, reference,
                ArtefactPaths(work / "campaign"), run_id,
            )
            trace_path = OUT / f"trace-{workload.name}-{args.size}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({
                "run": run_id, "host": host, "spans": spans.records, **extra,
            }))
            print(f"[{len(spans.records)} spans written to {trace_path}]")
            if "failed_ratio" in metrics:
                ratio = session.failed / max(session.attempted, 1)
                metrics["failed_ratio"] = (ratio, "ratio")
        else:
            metrics, consistent = end_to_end(
                session, workload, args.seed, args.seconds, reference, work
            )
    except Exception:  # noqa: BLE001 - report any crash as a failed run
        session.fail(traceback.format_exc())
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples = extra.get("samples", {})
    for name, (value, unit) in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        if name in extra.get("unreported", ()):
            note += ", not reported: fewer than 10 samples beyond p90"
        print(f"{name:28s} {value:14.6g} {unit}{note}")
    correct = session.failed == 0 and bool(metrics)
    if args.record and correct and not args.trace:
        references.setdefault(key[0], {}).setdefault(key[1], {})[key[2]] = dict(
            sorted(consistent.seen.items())
        )
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"[reference recorded for {key}]")
    if not metrics:
        session.attempted = max(session.attempted, 1)
        session.failed = max(session.failed, 1)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
