"""Durable chunk-granular checkpoint ledger for campaign runs.

Long Monte-Carlo campaigns (the regime where the paper's §III-E rates
and Fig. 11 accuracies stabilise) must survive faults in their own
runner: a killed process should cost at most the chunks in flight, not
hours of completed replicas.  The ledger is an append-only JSONL file
written next to the campaign:

* a **header** line binds the ledger to one campaign — root seed, a
  SHA-256 digest of ``(root_seed, specs)``, replica count, chunk size,
  worker count, plus optional CLI provenance (``command``/``params``)
  that lets ``python -m repro resume PATH`` rebuild the exact
  invocation;
* one **chunk** line per completed chunk — the replica indices, each
  replica's seed-stream fingerprint
  (:func:`repro.runtime.seeds.stream_fingerprint`), and the pickled
  :class:`~repro.runtime.runner.ReplicaResult` list (base64) guarded by
  a SHA-256 checksum.  Lines are flushed and fsynced as they are
  appended, so a SIGKILL can lose at most the line being written;
* **resume** / **close** marker lines recording how each session of the
  campaign started and ended (ledger provenance).

Determinism contract
--------------------
The ledger stores *full per-replica values*, so a resumed run hands the
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
silently mixing two experiments.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs import state as _obs_state
from repro.runtime.runner import ReplicaResult
from repro.runtime.seeds import stream_fingerprint

#: Ledger schema version (bump on incompatible layout changes).
LEDGER_VERSION = 1

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


def load_ledger(path: str | Path) -> LedgerState:
    """Parse a ledger, tolerating a truncated or corrupted tail.

    The header must parse (a campaign cannot be identified without it);
    every later line is best-effort — bad lines are skipped and counted,
    duplicate replica indices keep the first occurrence.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read ledger {path}: {exc}") from exc
    if not lines:
        raise ConfigurationError(f"ledger {path} is empty")
    try:
        meta = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"ledger {path} has no parseable header line: {exc}"
        ) from exc
    if meta.get("kind") != "header":
        raise ConfigurationError(
            f"ledger {path} does not start with a header line"
        )
    version = meta.get("version")
    if version != LEDGER_VERSION:
        raise ConfigurationError(
            f"ledger {path} has unsupported version {version!r} "
            f"(supported: {LEDGER_VERSION})"
        )
    root_seed = int(meta.get("root_seed", 0))
    replicas = int(meta.get("replicas", 0))
    results_by_index: dict[int, ReplicaResult] = {}
    sessions = 1
    skipped = 0
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1  # truncated tail or torn write
            continue
        kind = record.get("kind")
        if kind == "resume":
            sessions += 1
            continue
        if kind != "chunk":
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
        sessions=sessions,
        skipped_lines=skipped,
    )


def read_header(path: str | Path) -> dict[str, Any]:
    """The header line alone (``repro resume`` dispatch)."""
    return load_ledger(path).meta


@dataclass(slots=True)
class CheckpointLedger:
    """Appender half of the ledger; one instance per runner session."""

    path: Path
    root_seed: int
    replicas: int
    chunks_written: int = 0
    _closed: bool = field(default=False, repr=False)

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
    ) -> tuple["CheckpointLedger", dict[int, ReplicaResult]]:
        """Open the ledger for one runner session.

        Fresh runs (or ``resume`` against a missing file) truncate and
        write a new header; resumes validate the existing header against
        the campaign and return the replica results already covered.
        """
        path = Path(path)
        digest = spec_digest(root_seed, specs)
        preloaded: dict[int, ReplicaResult] = {}
        ledger = cls(path=path, root_seed=int(root_seed), replicas=len(specs))
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
            ledger._append(
                {
                    "kind": "resume",
                    "session": state.sessions + 1,
                    "loaded": len(preloaded),
                    "skipped_lines": state.skipped_lines,
                    "wall": time.time(),
                }
            )
            _obs_event(
                "checkpoint.resume",
                path=str(path),
                loaded=len(preloaded),
                skipped_lines=state.skipped_lines,
            )
        else:
            header = {
                "kind": "header",
                "version": LEDGER_VERSION,
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
            path.write_text("", encoding="utf-8")  # truncate stale ledger
            ledger._append(header)
            _obs_event(
                "checkpoint.open", path=str(path), replicas=len(specs)
            )
        return ledger, preloaded

    def append_chunk(self, results: Sequence[ReplicaResult]) -> None:
        """Durably record one completed chunk of replica results."""
        payload, checksum = _encode_results(results)
        indices = [r.index for r in results]
        self._append(
            {
                "kind": "chunk",
                "chunk": self.chunks_written,
                "indices": indices,
                "streams": {
                    str(r.index): stream_fingerprint(
                        self.root_seed, r.index
                    )
                    for r in results
                },
                "payload": payload,
                "sha256": checksum,
                "wall": time.time(),
            }
        )
        self.chunks_written += 1
        _obs_event(
            "checkpoint.chunk", path=str(self.path), indices=indices
        )

    def close(self, *, completed: int, failed: int) -> None:
        """Record how this session ended (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._append(
            {
                "kind": "close",
                "completed": int(completed),
                "failed": int(failed),
                "complete": completed >= self.replicas,
                "wall": time.time(),
            }
        )
        _obs_event(
            "checkpoint.close",
            path=str(self.path),
            completed=completed,
            failed=failed,
        )

    # -- internals --------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
