"""Workload definitions, the CLI command lines they generate, and the
checks applied to what those commands print and write.

Two closed-loop workloads, one command at a time:

* ``mc-dense`` — one worker, a 1 s horizon and many faults per
  replica, as four ``mc`` commands with seeds of their own.  The ONA
  battery in ``core`` has the largest self time (its all-pairs lattice
  scan grows with the symptoms in the window); there is no spawn.
* ``offline`` — set-up writes a baseline with two workers over many
  short replicas and the checkpoint ledger, live log, metrics JSON and a
  JSON store all on (spawn, per-chunk journal records, the store write;
  ``components`` outweighs ``core``).  The timed loop reads it back:
  ``repro query`` on the store and two ``repro whatif`` replays on the
  ledger.  It covers ``storage`` and ``replay``, the simulator-free
  import path, and the simulation layers on a subset of replicas.

Sizes were chosen so that the work in a run hardly depends on the seed.
Replica cost is heavy-tailed in the fault draw (coefficient of
variation ≈0.28 at the ``mc-dense`` mix), so ``mc-dense`` runs 48
replicas, over four commands with seeds of their own, and the
``offline`` fault replay suppresses ``seu`` in a fixed number of
replicas instead of in however many the seed happened to give one.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Campaign:
    """Parameters of one ``mc`` invocation."""

    workers: int
    replicas: int
    horizon_ms: int
    expected_faults: float
    live_log: bool


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: Campaign
    #: Distinct ``mc`` commands of ``campaign``'s size, each with its own
    #: seed; ``offline`` has the one baseline.
    campaigns: int = 1
    #: How often set-up runs before the timed loop; ``setup_s`` is the
    #: median.
    setup_runs: int = 3
    #: ``offline`` only: replicas whose ``seu`` faults the fault replay
    #: suppresses, so it re-simulates exactly this many.
    replay_replicas: int = 0

    def seeds(self, seed: int) -> list[int]:
        """The ``--seed`` of each campaign: the run's seed itself for one
        campaign, else ``seed * n + k``, so that two run seeds never share
        a campaign."""
        if self.campaigns == 1:
            return [seed]
        return [seed * self.campaigns + k for k in range(self.campaigns)]


SIZES: dict[str, dict[str, Workload]] = {
    "full": {
        "mc-dense": Workload(
            "mc-dense", Campaign(1, 12, 1000, 64.0, False), campaigns=4
        ),
        "offline": Workload(
            "offline", Campaign(2, 48, 300, 3.0, True), replay_replicas=24
        ),
    },
    # For the benchmark's own tests: every code path, a few seconds.
    "tiny": {
        "mc-dense": Workload(
            "mc-dense", Campaign(1, 2, 200, 8.0, False), campaigns=2, setup_runs=1
        ),
        "offline": Workload(
            "offline", Campaign(2, 4, 100, 3.0, True),
            setup_runs=1, replay_replicas=1,
        ),
    },
}

#: The ONA class the ``offline`` ONA replay disables.  Without
#: observability in the baseline every replica is re-run.
REPLAY_ONA = "massive-transient"
REPLAY_FAULT = "seu"

QUERIES = ("report", "nff", "confusion")


class CheckFailed(Exception):
    """An output disagrees with what the command must produce."""


def repro(*args: str, python: str) -> list[str]:
    return [python, "-m", "repro", *args]


def mc_argv(
    campaign: Campaign,
    seed: int,
    files: "ArtefactPaths",
    *,
    python: str,
    replicas: int | None = None,
    horizon_ms: int | None = None,
) -> list[str]:
    """The ``mc`` command line; ``replicas``/``horizon_ms`` shrink it."""
    argv = [
        "--seed", str(seed),
        "--workers", str(campaign.workers),
        "--metrics-json", str(files.metrics),
        "--checkpoint", str(files.ledger),
        "--store", str(files.store),
        "--store-format", "json",
    ]
    if campaign.live_log:
        argv += ["--live-log", str(files.live_log)]
    argv += [
        "mc",
        "--replicas", str(campaign.replicas if replicas is None else replicas),
        "--horizon-ms",
        str(campaign.horizon_ms if horizon_ms is None else horizon_ms),
        "--expected-faults", str(campaign.expected_faults),
    ]
    return repro(*argv, python=python)


@dataclass(frozen=True)
class ArtefactPaths:
    """Where one campaign command writes its artefacts."""

    root: Path

    @property
    def metrics(self) -> Path:
        return self.root / "metrics.json"

    @property
    def ledger(self) -> Path:
        return self.root / "ledger.jsonl"

    @property
    def live_log(self) -> Path:
        return self.root / "live.jsonl"

    @property
    def store(self) -> Path:
        return self.root / "store"

    def clear(self) -> None:
        """Remove artefacts of a previous command so each does full work."""
        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)

    def bytes_of(self, path: Path) -> int:
        if path.is_dir():
            return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
        return path.stat().st_size if path.exists() else 0


@dataclass(frozen=True)
class CampaignResult:
    """What one ``mc`` command reported, parsed from its outputs."""

    plan_digest: str
    sim_events: int
    replicas: int
    faults: int
    mechanisms: tuple[tuple[str, int, int], ...]
    metrics: dict

    def identity(self) -> dict:
        """The fields a reference pins."""
        return {
            "plan_digest": self.plan_digest,
            "sim_events": self.sim_events,
            "mechanisms": [list(row) for row in self.mechanisms],
        }


_TITLE = re.compile(r"Monte-Carlo campaign: (\d+) faults over (\d+) replicas")
_ROW = re.compile(r"^\| (\S+)\s*\| (\d+)\s*\| (\d+)\s*\| \d+%\s*\|$", re.M)
_DIGEST = re.compile(r"plan digest ([0-9a-f]{16})\.\.\.")
_EVENTS = re.compile(r"\[(\d+) replicas, workers=\d+: [\d.]+ s wall, ([\d,]+) events")


def _one(pattern: re.Pattern, text: str, what: str) -> re.Match:
    match = pattern.search(text)
    if match is None:
        raise CheckFailed(f"mc output has no {what}")
    return match


def parse_campaign(stdout: str, files: ArtefactPaths, replicas: int) -> CampaignResult:
    """Parse and cross-check one ``mc`` command's table and artefacts."""
    title = _one(_TITLE, stdout, "campaign title")
    prefix = _one(_DIGEST, stdout, "plan digest").group(1)
    events_line = _one(_EVENTS, stdout, "runner summary line")
    rows = tuple(
        (m.group(1), int(m.group(2)), int(m.group(3)))
        for m in _ROW.finditer(stdout)
    )
    faults, reported = int(title.group(1)), int(title.group(2))
    sim_events = int(events_line.group(2).replace(",", ""))
    if reported != replicas or int(events_line.group(1)) != replicas:
        raise CheckFailed(f"mc ran {reported} replicas, asked for {replicas}")
    if sum(row[1] for row in rows) != faults:
        raise CheckFailed("per-mechanism injected counts do not sum to the total")
    if any(attributed > injected for _m, injected, attributed in rows):
        raise CheckFailed("a mechanism has more attributed than injected faults")
    metrics = json.loads(files.metrics.read_text())
    if metrics["replicas"] != replicas or metrics["events_simulated"] != sim_events:
        raise CheckFailed("metrics JSON disagrees with the printed run summary")
    manifests = list(files.store.glob("*/*/part-*/manifest.json"))
    if len(manifests) != 1:
        raise CheckFailed(f"expected one store part, found {len(manifests)}")
    digest = json.loads(manifests[0].read_text())["plan_digest"]
    if not digest.startswith(prefix):
        raise CheckFailed("store plan digest differs from the printed one")
    return CampaignResult(digest, sim_events, replicas, faults, rows, metrics)


def replica_failures(result: CampaignResult) -> int:
    """Replicas that failed plus chunks that were retried."""
    m = result.metrics
    return int(m.get("replicas_failed", 0)) + int(m.get("retries", 0))


_QUERY_CAMPAIGN = re.compile(
    r"^\| \S+\s*\| ([0-9a-f]{12})\s*\| \d+\s*\| (\d+)\s*\| (\d+)\s*\| (\d+)\s*\|", re.M
)
_QUERY_ROW = re.compile(r"^\| (\S+)\s*\| (\d+)\s*\| (\d+)\s*\| [\d.]+\s*\|$", re.M)


def check_query_report(stdout: str, campaign: CampaignResult) -> None:
    """``query report`` must restate the campaign the store holds."""
    head = _QUERY_CAMPAIGN.search(stdout)
    if head is None:
        raise CheckFailed("query report has no campaign row")
    if head.group(1) != campaign.plan_digest[:12]:
        raise CheckFailed("query report names another plan digest")
    if (int(head.group(2)), int(head.group(3))) != (campaign.replicas, campaign.faults):
        raise CheckFailed("query report disagrees on replicas or injected faults")
    rows = tuple(
        (m.group(1), int(m.group(2)), int(m.group(3)))
        for m in _QUERY_ROW.finditer(stdout)
    )
    if rows != campaign.mechanisms:
        raise CheckFailed("query report per-mechanism counts differ from mc")


def check_whatif(
    stdout: str, campaign: CampaignResult, affected: int
) -> dict:
    """A ``whatif --json`` answer: right baseline, right affected set."""
    try:
        answer = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"whatif did not print JSON: {exc}") from None
    base = answer["baseline_summary"]
    if base["plan_digest"] != campaign.plan_digest:
        raise CheckFailed("whatif loaded another baseline than the one written")
    if base["events_simulated"] != campaign.sim_events:
        raise CheckFailed("whatif baseline event count differs from mc")
    if len(answer["affected"]) != affected:
        raise CheckFailed(
            f"whatif re-ran {len(answer['affected'])} replicas, expected {affected}"
        )
    if answer["events"]["replayed"] <= 0 and affected:
        raise CheckFailed("whatif re-ran replicas but simulated no events")
    return answer


def fault_selectors(store: Path, count: int) -> list[str]:
    """``rN:seu`` for the first ``count`` replicas with an ``seu`` fault,
    topped up with the first fault of further replicas if too few have
    one, so the replay re-simulates exactly ``count`` replicas."""
    from repro.storage import CampaignStore

    (part,) = CampaignStore(store).parts()
    table = part.table("plan_events")
    seu: list[int] = []
    first: dict[int, str] = {}
    for replica, mechanism in zip(table["replica"], table["mechanism"]):
        first.setdefault(replica, mechanism)
        if mechanism == REPLAY_FAULT and replica not in seu:
            seu.append(replica)
    chosen = [f"r{r}:{REPLAY_FAULT}" for r in seu[:count]]
    for replica in sorted(set(first) - set(seu)):
        if len(chosen) >= count:
            break
        chosen.append(f"r{replica}:{first[replica]}")
    if len(chosen) < count:
        raise CheckFailed(f"baseline has only {len(chosen)} replicas with faults")
    return chosen


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
