"""The run journal: one durable JSONL record of a campaign run.

Long Monte-Carlo campaigns (the regime where the paper's §III-E rates
and Fig. 11 accuracies stabilise) must survive faults in their own
runner: a killed process should cost at most the chunks in flight, not
hours of completed replicas.  Every run given a ``--checkpoint`` or a
``--live-log`` path writes one append-only JSONL journal there, read by
``repro resume``, ``repro monitor`` and the ``repro whatif`` baseline
loader alike (record table: ``docs/observability.md``).  A **header**
line binds it to one campaign — root seed, a SHA-256 digest of
``(root_seed, specs)``, replica count, chunk size, workers, plus the CLI
provenance (``command``/``params``) ``python -m repro resume PATH``
rebuilds the invocation from.  Every **chunk_done** with fresh results
carries the replica indices, their seed-stream fingerprints
(:func:`repro.runtime.seeds.stream_fingerprint`) and the pickled
:class:`~repro.runtime.runner.ReplicaResult` list (base64) guarded by a
SHA-256 checksum.  Those records and ``run_finished`` are fsynced before
the write returns, so a SIGKILL can lose at most the line being written;
every other record is flushed at once and fsynced on an amortized
schedule.

Determinism contract
--------------------
The journal stores *full per-replica values*, so a resumed run hands the
reduce exactly the same index-ordered value list an uninterrupted run
would: interrupted-then-resumed ≡ uninterrupted ≡ ``workers=1``, bit
for bit, including canonical obs digests (replica trace records travel
inside the pickled values).

Robustness
----------
Loading tolerates a truncated or corrupted tail — any line that fails
JSON parsing, checksum verification, stream-fingerprint verification or
unpickling is skipped (and counted), and the replicas it covered are
simply re-executed.  A header that does not match the campaign being
resumed raises :class:`~repro.errors.ConfigurationError` instead of
silently mixing two experiments.  Version-1 checkpoint ledgers (``chunk``
/ ``resume`` / ``close`` lines) still load and resume.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, JournalAliasError
from repro.obs import state as _obs_state
from repro.obs.live import JOURNAL_VERSION, read_journal
from repro.runtime.runner import ReplicaResult
from repro.runtime.seeds import stream_fingerprint

#: Amortized fsync schedule of records that carry no result: at most
#: one fsync per interval or per this many records, whichever is first.
_FSYNC_INTERVAL_S = 1.0
_FSYNC_EVERY = 64

#: Pickle protocol pinned so spec digests are stable across sessions.
_PICKLE_PROTOCOL = 4


def spec_digest(root_seed: int, specs: Sequence[Any]) -> str:
    """SHA-256 fingerprint of the campaign identity.

    Pickle is deterministic for the plain-data specs the runner accepts
    (dataclasses of scalars/tuples), and the protocol is pinned, so the
    digest is stable across interpreter sessions of the same code.
    """
    payload = pickle.dumps(
        (int(root_seed), list(specs)), protocol=_PICKLE_PROTOCOL
    )
    return hashlib.sha256(payload).hexdigest()


def _obs_event(name: str, **attrs: Any) -> None:
    """Emit a checkpoint span event when an obs context is active."""
    obs = _obs_state.ACTIVE
    if obs is not None and obs.enabled:
        obs.tracer.event(name, **attrs)


def _encode_results(results: Sequence[ReplicaResult]) -> tuple[str, str]:
    raw = pickle.dumps(list(results), protocol=_PICKLE_PROTOCOL)
    return (
        base64.b64encode(raw).decode("ascii"),
        hashlib.sha256(raw).hexdigest(),
    )


def _decode_results(payload: str, checksum: str) -> list[ReplicaResult]:
    raw = base64.b64decode(payload.encode("ascii"))
    if hashlib.sha256(raw).hexdigest() != checksum:
        raise ValueError("chunk payload checksum mismatch")
    results = pickle.loads(raw)
    if not isinstance(results, list) or not all(
        isinstance(r, ReplicaResult) for r in results
    ):
        raise ValueError("chunk payload is not a ReplicaResult list")
    return results


@dataclass(frozen=True, slots=True)
class LedgerState:
    """Everything a resume needs from an existing ledger file."""

    meta: dict[str, Any]
    results_by_index: dict[int, ReplicaResult]
    sessions: int
    skipped_lines: int = 0


def read_header(path: str | Path) -> dict[str, Any]:
    """The validated header alone, from the first line (``repro resume``
    dispatch): no result payload is decoded."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            line = fh.readline()
    except OSError as exc:
        raise ConfigurationError(f"cannot read ledger {path}: {exc}") from exc
    if not line.strip():
        raise ConfigurationError(f"ledger {path} is empty")
    try:
        meta = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"ledger {path} has no parseable header line: {exc}"
        ) from exc
    if not isinstance(meta, dict) or meta.get("kind") != "header":
        raise ConfigurationError(
            f"ledger {path} does not start with a header line"
        )
    version = meta.get("version")
    if version not in (1, JOURNAL_VERSION):
        raise ConfigurationError(
            f"ledger {path} has unsupported version {version!r} "
            f"(supported: 1, {JOURNAL_VERSION})"
        )
    return meta


def load_ledger(path: str | Path) -> LedgerState:
    """Parse a journal (or a version-1 ledger), tolerating a truncated
    or corrupted tail.

    The header must parse (a campaign cannot be identified without it);
    every later line is best-effort — bad lines are skipped and counted,
    duplicate replica indices keep the first occurrence.
    """
    path = Path(path)
    meta = read_header(path)
    try:
        records, skipped = read_journal(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read ledger {path}: {exc}") from exc
    root_seed = int(meta.get("root_seed", 0))
    replicas = int(meta.get("replicas", 0))
    results_by_index: dict[int, ReplicaResult] = {}
    # A version-1 ledger marks resumed sessions only; the journal marks
    # every session with ``run_started``.
    sessions = 1 if meta.get("version") == 1 else 0
    for record in records[1:]:
        kind = record.get("kind")
        if kind in ("run_started", "resume"):
            sessions += 1
            continue
        if kind != "chunk" and not (kind == "chunk_done" and "payload" in record):
            continue
        try:
            results = _decode_results(
                record["payload"], record["sha256"]
            )
        except (KeyError, ValueError, TypeError, pickle.UnpicklingError):
            skipped += 1
            continue
        streams = record.get("streams", {})
        for result in results:
            index = result.index
            if not 0 <= index < replicas or index in results_by_index:
                continue
            expected = stream_fingerprint(root_seed, index)
            if streams.get(str(index)) != expected:
                skipped += 1  # wrong stream assignment — re-execute
                continue
            results_by_index[index] = result
    return LedgerState(
        meta=meta,
        results_by_index=results_by_index,
        sessions=max(sessions, 1),
        skipped_lines=skipped,
    )


class RunJournal:
    """Writer half of the journal; one instance per runner session.

    :meth:`write` is the one append path; :meth:`emit` stamps a
    telemetry record with ``clock`` (wall time, replaceable by tests)
    and writes it.
    """

    def __init__(
        self, path: Path, root_seed: int, fh, session: dict[str, int]
    ) -> None:
        self.path = path
        self.root_seed = root_seed
        #: Extra ``run_started`` fields of a resumed session.
        self.session = session
        self._fh = fh
        self._since_fsync = 0
        self._last_fsync = time.monotonic()
        self.clock = time.time

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        root_seed: int,
        specs: Sequence[Any],
        chunk_size: int,
        workers: int,
        resume: bool,
        command: str | None = None,
        params: dict[str, Any] | None = None,
        alias: str | Path | None = None,
    ) -> tuple["RunJournal", dict[int, ReplicaResult]]:
        """Open the journal for one runner session.

        Fresh runs (or ``resume`` against a missing file) truncate and
        write a new header; resumes validate the existing header against
        the campaign, append to the journal and return the replica
        results already covered.  ``alias`` becomes a hard link to the
        journal (:class:`~repro.errors.JournalAliasError` if it cannot).
        """
        path = Path(path)
        digest = spec_digest(root_seed, specs)
        preloaded: dict[int, ReplicaResult] = {}
        session: dict[str, int] = {}
        header = None
        if resume and path.exists():
            state = load_ledger(path)
            meta = state.meta
            mismatches = [
                f"{key}: ledger has {meta.get(key)!r}, run has {value!r}"
                for key, value in (
                    ("root_seed", int(root_seed)),
                    ("replicas", len(specs)),
                    ("spec_digest", digest),
                )
                if meta.get(key) != value
            ]
            if mismatches:
                raise ConfigurationError(
                    f"checkpoint ledger {path} does not match this "
                    "campaign — " + "; ".join(mismatches)
                )
            preloaded = state.results_by_index
            session = {
                "session": state.sessions + 1,
                "loaded": len(preloaded),
                "skipped_lines": state.skipped_lines,
            }
            _obs_event(
                "checkpoint.resume",
                path=str(path),
                loaded=len(preloaded),
                skipped_lines=state.skipped_lines,
            )
        else:
            header = {
                "kind": "header",
                "version": JOURNAL_VERSION,
                "root_seed": int(root_seed),
                "replicas": len(specs),
                "chunk_size": int(chunk_size),
                "workers": int(workers),
                "spec_digest": digest,
                "wall": time.time(),
            }
            if command is not None:
                header["command"] = command
            if params is not None:
                header["params"] = params
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = path.open("w" if header else "a", encoding="utf-8")
        journal = cls(path, int(root_seed), fh, session)
        if alias is not None:
            journal._alias(Path(alias))
        if header:
            journal.write(header)
            _obs_event(
                "checkpoint.open", path=str(path), replicas=len(specs)
            )
        return journal, preloaded

    def _alias(self, alias: Path) -> None:
        try:
            if alias.exists() and os.path.samefile(alias, self.path):
                return
            alias.parent.mkdir(parents=True, exist_ok=True)
            alias.unlink(missing_ok=True)
            os.link(self.path, alias)
        except OSError as exc:
            self.close()
            raise JournalAliasError(
                f"cannot make {alias} a second name of the run journal "
                f"{self.path}: {exc}"
            ) from exc

    def chunk_fields(self, results: Sequence[ReplicaResult]) -> dict[str, Any]:
        """The result payload one ``chunk_done`` record carries."""
        payload, checksum = _encode_results(results)
        return {
            "indices": [r.index for r in results],
            "streams": {
                str(r.index): stream_fingerprint(self.root_seed, r.index)
                for r in results
            },
            "payload": payload,
            "sha256": checksum,
        }

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one record of ``kind`` stamped with ``t_wall``."""
        self.write({"kind": kind, "t_wall": round(self.clock(), 6), **fields})

    def write(self, record: dict[str, Any]) -> None:
        """Append one record; results and the run's end are durable
        before this returns."""
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        self._since_fsync += 1
        now = time.monotonic()
        durable = "payload" in record or record.get("kind") == "run_finished"
        if (
            durable
            or self._since_fsync >= _FSYNC_EVERY
            or now - self._last_fsync >= _FSYNC_INTERVAL_S
        ):
            os.fsync(self._fh.fileno())
            self._since_fsync = 0
            self._last_fsync = now
        if "payload" in record:
            _obs_event(
                "checkpoint.chunk",
                path=str(self.path),
                indices=record["indices"],
            )

    def close(self) -> None:
        """Make everything written durable and close the file
        (idempotent)."""
        if self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        _obs_event("checkpoint.close", path=str(self.path))
