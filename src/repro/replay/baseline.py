"""Baseline loading for the counterfactual replay engine.

A *baseline* is one completed ``mc`` campaign with full per-replica
results, recoverable from either durable artefact the runtime writes:

* a **run journal** (``--checkpoint PATH`` or ``--live-log PATH``): the
  journal stores the pickled :class:`~repro.runtime.runner.ReplicaResult`
  values verbatim — including per-replica obs counters and trace
  records — so any campaign, observability on or off, can be replayed
  from it;
* a **columnar store part** (``--store DIR``): the CSR tables hold the
  plan events, per-mechanism counts and final alpha/trust state of each
  replica, from which the exact
  :class:`~repro.faults.campaign.CampaignReplicaOutcome` of an
  obs-disabled run is rebuilt column by column.  Runs recorded with
  observability enabled cannot be reconstructed from the store (the
  per-replica counter snapshots are merged away at write time); they are
  rejected with a pointer at the journal.

Both loaders end in the same validation: the campaign spec is rebuilt
from the recorded CLI parameters and its
:func:`~repro.runtime.checkpoint.spec_digest` must equal the digest the
artefact was bound to — a reconstruction that cannot prove it matches
the original campaign must not silently replay something else.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignReplicaOutcome, CampaignReplicaSpec
from repro.runtime.checkpoint import load_ledger, spec_digest
from repro.runtime.runner import ReplicaResult
from repro.units import ms


@dataclass(frozen=True, slots=True)
class CampaignBaseline:
    """One fully-covered ``mc`` campaign, ready to replay against."""

    source: str  # "checkpoint" | "store"
    path: str
    root_seed: int
    replicas: int
    spec: CampaignReplicaSpec
    params: dict[str, Any]
    #: Complete per-replica results, one entry per index in
    #: ``range(replicas)``.
    results: dict[int, ReplicaResult]

    def outcome(self, index: int) -> CampaignReplicaOutcome:
        """The campaign outcome of replica ``index``."""
        return self.results[index].value

    def outcomes(self) -> list[CampaignReplicaOutcome]:
        """All outcomes in index order."""
        return [self.results[i].value for i in range(self.replicas)]

    def events_simulated(self) -> int:
        """Total simulated events of the full baseline run."""
        return sum(o.events_simulated for o in self.outcomes())


def _spec_from_params(
    params: dict[str, Any], *, allow_obs: bool
) -> CampaignReplicaSpec:
    """Rebuild the ``mc`` spec exactly as ``cmd_mc`` constructed it."""
    try:
        expected_faults = float(params["expected_faults"])
        horizon_ms = int(params["horizon_ms"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"baseline params do not describe an mc campaign: {exc!r}"
        ) from None
    want_trace = bool(params.get("trace")) or bool(params.get("profile"))
    provenance = bool(params.get("provenance"))
    if not allow_obs and (want_trace or provenance):
        raise ConfigurationError(
            "baseline params record an observability-enabled run, which "
            "this artefact cannot reconstruct"
        )
    return CampaignReplicaSpec(
        expected_faults=expected_faults,
        horizon_us=ms(horizon_ms),
        obs_enabled=want_trace,
        obs_trace=want_trace,
        obs_provenance=provenance,
    )


def _verify_digest(
    where: str,
    recorded: Any,
    root_seed: int,
    replicas: int,
    spec: CampaignReplicaSpec,
) -> None:
    rebuilt = spec_digest(root_seed, [spec] * replicas)
    if recorded != rebuilt:
        raise ConfigurationError(
            f"{where} was written by a campaign whose spec cannot be "
            f"reconstructed from its recorded parameters (recorded "
            f"digest {str(recorded)[:16]}…, rebuilt {rebuilt[:16]}…) — "
            "replay needs a plain `repro mc` baseline; obs-enabled "
            "store parts must be replayed from their checkpoint ledger"
        )


def load_checkpoint_baseline(path: str | Path) -> CampaignBaseline:
    """Load a baseline from a run journal written by ``mc``."""
    path = Path(path)
    state = load_ledger(path)
    meta = state.meta
    command = meta.get("command")
    if command != "mc":
        raise ConfigurationError(
            f"ledger {path} records command {command!r}; counterfactual "
            "replay supports mc campaigns (write one with "
            "`python -m repro mc --checkpoint PATH`)"
        )
    root_seed = int(meta.get("root_seed", 0))
    replicas = int(meta.get("replicas", 0))
    params = dict(meta.get("params") or {})
    spec = _spec_from_params(params, allow_obs=True)
    _verify_digest(
        f"ledger {path}", meta.get("spec_digest"), root_seed, replicas, spec
    )
    missing = sorted(set(range(replicas)) - set(state.results_by_index))
    if missing:
        raise ConfigurationError(
            f"ledger {path} covers {len(state.results_by_index)}/"
            f"{replicas} replicas (missing {missing[:8]!r}"
            f"{'…' if len(missing) > 8 else ''}); finish the campaign "
            f"with `python -m repro resume {path}` before replaying it"
        )
    return CampaignBaseline(
        source="checkpoint",
        path=str(path),
        root_seed=root_seed,
        replicas=replicas,
        spec=spec,
        params=params,
        results=dict(state.results_by_index),
    )


def _column(table: dict[str, list], name: str) -> list:
    return table[name]


def load_store_baseline(
    path: str | Path, *, campaign: str | None = None
) -> CampaignBaseline:
    """Load a baseline from a columnar store part written by ``mc``."""
    from repro.storage.store import CampaignStore

    store = CampaignStore(path)
    parts = [
        p
        for p in store.parts(campaign=campaign, kind="campaign")
        if p.manifest.get("command") == "mc"
    ]
    if not parts:
        raise ConfigurationError(
            f"store {path} holds no mc campaign part"
            + (f" for campaign {campaign!r}" if campaign else "")
        )
    if len(parts) > 1:
        ids = sorted({p.campaign_id for p in parts})
        raise ConfigurationError(
            f"store {path} holds {len(parts)} mc parts (campaigns "
            f"{ids!r}); name one with --campaign"
        )
    part = parts[0]
    manifest = part.manifest
    if not manifest.get("complete", False):
        raise ConfigurationError(
            f"store part {part.path} is a salvaged partial campaign "
            f"({manifest.get('failed')} failed replicas) — replay needs "
            "full baseline coverage"
        )
    root_seed = int(manifest.get("root_seed", 0))
    replicas = int(manifest.get("replicas", 0))
    params = dict(manifest.get("params") or {})
    spec = _spec_from_params(params, allow_obs=False)
    _verify_digest(
        f"store part {part.path}",
        manifest.get("spec_digest"),
        root_seed,
        replicas,
        spec,
    )

    plan_by_replica: dict[int, list[tuple[int, str, str, int]]] = {}
    plan = part.table("plan_events")
    for replica, ordinal, mechanism, target, at_us in zip(
        plan["replica"],
        plan["ordinal"],
        plan["mechanism"],
        plan["target"],
        plan["at_us"],
    ):
        plan_by_replica.setdefault(int(replica), []).append(
            (int(ordinal), str(mechanism), str(target), int(at_us))
        )
    mech_by_replica: dict[int, list[tuple[str, int, int]]] = {}
    mech = part.table("mechanisms")
    for replica, mechanism, injected, attributed in zip(
        mech["replica"], mech["mechanism"], mech["injected"], mech["attributed"]
    ):
        mech_by_replica.setdefault(int(replica), []).append(
            (str(mechanism), int(injected), int(attributed))
        )
    state_by_replica: dict[str, dict[int, list[tuple[str, float]]]] = {
        "alpha_state": {},
        "trust_state": {},
    }
    for table_name, per_replica in state_by_replica.items():
        table = part.table(table_name)
        for replica, fru, value in zip(
            table["replica"], table["fru"], table["value"]
        ):
            per_replica.setdefault(int(replica), []).append(
                (str(fru), float(value))
            )

    results: dict[int, ReplicaResult] = {}
    rep = part.table("replicas")
    for (
        replica,
        faults_injected,
        faults_attributed,
        verdicts_emitted,
        events_simulated,
        elapsed_s,
        worker,
    ) in zip(
        rep["replica"],
        rep["faults_injected"],
        rep["faults_attributed"],
        rep["verdicts_emitted"],
        rep["events_simulated"],
        rep["elapsed_s"],
        rep["worker"],
    ):
        index = int(replica)
        events = tuple(
            (mechanism, target, at_us)
            for _ordinal, mechanism, target, at_us in sorted(
                plan_by_replica.get(index, ())
            )
        )
        outcome = CampaignReplicaOutcome(
            index=index,
            plan_events=events,
            injected_by_mechanism=tuple(
                sorted((m, inj) for m, inj, _att in mech_by_replica.get(index, ()))
            ),
            attributed_by_mechanism=tuple(
                sorted(
                    (m, att)
                    for m, _inj, att in mech_by_replica.get(index, ())
                    if att
                )
            ),
            faults_injected=int(faults_injected),
            faults_attributed=int(faults_attributed),
            verdicts_emitted=int(verdicts_emitted),
            events_simulated=int(events_simulated),
            obs_counters=None,
            obs_trace=(),
            alpha_state=tuple(
                sorted(state_by_replica["alpha_state"].get(index, ()))
            ),
            trust_state=tuple(
                sorted(state_by_replica["trust_state"].get(index, ()))
            ),
        )
        results[index] = ReplicaResult(
            index=index,
            value=outcome,
            events=int(events_simulated),
            elapsed_s=float(elapsed_s),
            worker=str(worker),
        )

    missing = sorted(set(range(replicas)) - set(results))
    if missing:
        raise ConfigurationError(
            f"store part {part.path} covers {len(results)}/{replicas} "
            f"replicas (missing {missing[:8]!r}"
            f"{'…' if len(missing) > 8 else ''})"
        )
    return CampaignBaseline(
        source="store",
        path=str(path),
        root_seed=root_seed,
        replicas=replicas,
        spec=spec,
        params=params,
        results=results,
    )


def load_baseline(
    path: str | Path, *, campaign: str | None = None
) -> CampaignBaseline:
    """Auto-detecting loader: a directory is a store, a file a ledger."""
    p = Path(path)
    if p.is_dir():
        return load_store_baseline(p, campaign=campaign)
    if p.is_file():
        return load_checkpoint_baseline(p)
    raise ConfigurationError(
        f"baseline {p} does not exist (expected a checkpoint ledger "
        "file or a columnar store directory)"
    )
