"""Write path of the columnar campaign store.

:func:`write_run` flattens a reduced :class:`~repro.runtime.runner
.RunOutcome` into one store *part* — a directory of columnar table
files plus a manifest — partitioned by campaign id and plan digest::

    <root>/<campaign_id>/<digest[:16]>/part-<spec_digest[:16]>/

The partition digest is the campaign's ``plan_digest`` (a pure function
of the injected fault plan) when the reduced value carries one, else
the run's ``spec_digest``; the part name is keyed by ``spec_digest``
alone.  Both are pure functions of ``(root_seed, specs)``, so storing a
resumed run overwrites *the same* part an uninterrupted run would have
written — store writes are idempotent per run identity.

The writer is deliberately duck-typed (``getattr`` over the outcome
values) and imports nothing from the simulator: it runs in the parent
process after the index-ordered reduce, and the whole storage package
must stay importable — and usable — without the simulation stack.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.storage.backend import file_sha256, get_backend, resolve_format
from repro.storage.schema import (
    MANIFEST_NAME,
    STORE_SCHEMA_VERSION,
    TABLES,
    tables_for_kind,
)

#: Characters allowed in a campaign id (it becomes a directory name).
_ID_ALLOWED = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)

#: Digest prefix length used for partition/part directory names.
DIGEST_PREFIX = 16


def validate_campaign_id(campaign_id: str) -> str:
    """Reject ids that cannot be a safe single directory name."""
    if (
        not campaign_id
        or campaign_id.startswith(".")
        or not set(campaign_id) <= _ID_ALLOWED
    ):
        raise ConfigurationError(
            f"invalid campaign id {campaign_id!r}: use letters, digits, "
            "'-', '_' and '.' (not leading)"
        )
    return campaign_id


def _empty_columns(table: str) -> dict[str, list]:
    return {column: [] for column in TABLES[table]}


def _is_campaign_value(value: Any) -> bool:
    return hasattr(value, "plan_events") and hasattr(
        value, "injected_by_mechanism"
    )


def _build_tables(
    outcome: Any, root_seed: int, kind: str
) -> dict[str, dict[str, list]]:
    """Flatten the per-replica results into the declared columns."""
    from repro.runtime.seeds import stream_fingerprint

    tables = {name: _empty_columns(name) for name in tables_for_kind(kind)}

    replicas = tables["replicas"]
    for r in outcome.results:
        v = r.value
        replicas["replica"].append(int(r.index))
        replicas["seed_fingerprint"].append(
            stream_fingerprint(root_seed, r.index)
        )
        replicas["faults_injected"].append(
            int(getattr(v, "faults_injected", 0) or 0)
        )
        replicas["faults_attributed"].append(
            int(getattr(v, "faults_attributed", 0) or 0)
        )
        replicas["verdicts_emitted"].append(
            int(getattr(v, "verdicts_emitted", 0) or 0)
        )
        replicas["events_simulated"].append(
            int(getattr(v, "events_simulated", r.events) or 0)
        )
        replicas["elapsed_s"].append(float(r.elapsed_s))
        replicas["worker"].append(str(r.worker))

    if kind == "campaign":
        plan = tables["plan_events"]
        mech = tables["mechanisms"]
        alpha = tables["alpha_state"]
        trust = tables["trust_state"]
        for r in outcome.results:
            v = r.value
            for ordinal, (mechanism, target, at_us) in enumerate(
                v.plan_events
            ):
                plan["replica"].append(int(r.index))
                plan["ordinal"].append(ordinal)
                plan["mechanism"].append(mechanism)
                plan["target"].append(target)
                plan["at_us"].append(int(at_us))
            attributed = dict(v.attributed_by_mechanism)
            for mechanism, injected in v.injected_by_mechanism:
                mech["replica"].append(int(r.index))
                mech["mechanism"].append(mechanism)
                mech["injected"].append(int(injected))
                mech["attributed"].append(int(attributed.get(mechanism, 0)))
            for fru, value in getattr(v, "alpha_state", ()) or ():
                alpha["replica"].append(int(r.index))
                alpha["fru"].append(fru)
                alpha["value"].append(float(value))
            for fru, value in getattr(v, "trust_state", ()) or ():
                trust["replica"].append(int(r.index))
                trust["fru"].append(fru)
                trust["value"].append(float(value))

    snapshot = getattr(outcome.value, "obs_counters", None)
    if snapshot:
        counters = tables["counters"]
        for key in sorted(snapshot.get("counters", {})):
            counters["key"].append(key)
            counters["value"].append(float(snapshot["counters"][key]))
        hists = tables["histograms"]
        for key in sorted(snapshot.get("histograms", {})):
            data = snapshot["histograms"][key]
            hists["key"].append(key)
            hists["count"].append(int(data["count"]))
            hists["sum"].append(float(data["sum"]))
            hists["min"].append(
                None if data["min"] is None else float(data["min"])
            )
            hists["max"].append(
                None if data["max"] is None else float(data["max"])
            )
            # Canonical bucket encoding: sorted keys, compact separators —
            # identical state always serializes to identical bytes.
            hists["buckets"].append(
                json.dumps(
                    {
                        str(b): int(n)
                        for b, n in sorted(
                            (int(b), int(n))
                            for b, n in data["buckets"].items()
                        )
                    },
                    separators=(",", ":"),
                )
            )

    failures = tables["failures"]
    for f in outcome.failures:
        failures["replica"].append(int(f.index))
        failures["error_type"].append(f.error_type)
        failures["message"].append(f.message)
        failures["traceback"].append(f.traceback)
        failures["attempts"].append(int(f.attempts))
        failures["worker"].append(f.worker)

    return tables


def write_run(
    root: str | Path,
    outcome: Any,
    *,
    root_seed: int,
    spec_digest: str,
    meta: dict[str, Any] | None = None,
) -> Path:
    """Persist one reduced run as a store part; returns the part path.

    ``meta`` may carry ``campaign_id`` (partition label, default
    ``"default"``), ``format`` (store format, default ``"auto"``), and
    ``command`` / ``params`` labels copied into the manifest for
    provenance.  The part is written into a temporary sibling directory
    and swapped in with a directory rename, so readers never observe a
    half-written part and rewriting an existing part is atomic.
    """
    meta = dict(meta or {})
    campaign_id = validate_campaign_id(
        str(meta.get("campaign_id") or "default")
    )
    resolved = resolve_format(str(meta.get("format") or "auto"))
    backend = get_backend(resolved)

    value = outcome.value
    kind = (
        "campaign"
        if all(_is_campaign_value(r.value) for r in outcome.results)
        and outcome.results
        else "generic"
    )
    plan_digest = getattr(value, "plan_digest", None)
    partition = (plan_digest or spec_digest)[:DIGEST_PREFIX]
    part_name = f"part-{spec_digest[:DIGEST_PREFIX]}"
    part_dir = Path(root) / campaign_id / partition / part_name
    tmp_dir = part_dir.parent / f".tmp-{part_name}-{os.getpid()}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    tmp_dir.mkdir(parents=True)

    try:
        tables = _build_tables(outcome, root_seed, kind)
        files: dict[str, dict[str, Any]] = {}
        for table, columns in tables.items():
            path = tmp_dir / f"{table}{backend.suffix}"
            backend.write_table(path, table, TABLES[table], columns)
            files[table] = {
                "path": path.name,
                "sha256": file_sha256(path),
                "rows": len(next(iter(columns.values()))),
            }
        manifest = {
            "schema_version": STORE_SCHEMA_VERSION,
            "format": backend.name,
            "kind": kind,
            "campaign_id": campaign_id,
            "root_seed": int(root_seed),
            "spec_digest": spec_digest,
            "plan_digest": plan_digest,
            "replicas": len(outcome.results),
            "failed": len(outcome.failures),
            "complete": not outcome.failures,
            "command": meta.get("command"),
            "params": meta.get("params"),
            "files": files,
        }
        (tmp_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        if part_dir.exists():
            shutil.rmtree(part_dir)
        os.replace(tmp_dir, part_dir)
    except Exception:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    return part_dir
