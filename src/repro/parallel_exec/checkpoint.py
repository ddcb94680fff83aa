"""Checkpoint/resume for batch runs (JSON manifest on disk).

A killed batch run (OOM, preemption, ^C) should not redo finished work.
The scheduler records each unit in a manifest as it completes; a rerun
over the *same* batch loads the manifest, pre-fills the finished units
and only dispatches the rest — producing byte-identical,
order-preserving results.  Chunk runs write chunk-keyed manifests
(:class:`BatchCheckpoint`, version 1), span runs span-keyed ones
(:class:`SpanCheckpoint`, version 2).

Safety properties:

* **Atomic writes** — the manifest is rewritten to a temp file and
  ``os.replace``-d into place, so a kill mid-write leaves the previous
  consistent manifest, never a torn one.
* **Fingerprinted inputs** — a resume whose kind, unit count or input
  fingerprints differ starts fresh instead of silently splicing stale
  results into a different batch.
* **Typed values** — results are ``bytes`` (digests) or JSON-native
  values; each is tagged on disk (``{"b": hex}`` vs ``{"j": value}``)
  so round-trips are exact.

The manifest is written by the parent process only — workers never see
it — so there is no write concurrency to manage.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Sequence

#: Bumped on any incompatible manifest change.
MANIFEST_VERSION = 1

#: Span-keyed manifests (work-stealing runs) live in their own version
#: space: a chunk-keyed manifest can never be mistaken for a span one.
SPAN_MANIFEST_VERSION = 2


class ManifestVersionError(ValueError):
    """The on-disk manifest has an incompatible format version.

    Distinct from a fingerprint mismatch (different *inputs*, safely
    restarted from scratch): a version mismatch means the manifest was
    written by an incompatible build — or a chunk-keyed manifest was
    handed to a span run or vice versa — and silently discarding it
    would throw away real completed work.  Surfaces to the CLI as a
    one-line exit-2 diagnostic.
    """


def chunk_fingerprint(payload: Any) -> str:
    """Stable content hash of one chunk payload.

    ``repr`` is stable for the payload shapes the pool carries (tuples,
    lists, str/bytes/int) and keeps the fingerprint independent of any
    pickle protocol details.
    """
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _encode_values(values: List[Any]) -> List[Dict[str, Any]]:
    encoded = []
    for value in values:
        if isinstance(value, bytes):
            encoded.append({"b": value.hex()})
        else:
            encoded.append({"j": value})
    return encoded


def _decode_values(entries: List[Dict[str, Any]]) -> List[Any]:
    values: List[Any] = []
    for entry in entries:
        if "b" in entry:
            values.append(bytes.fromhex(entry["b"]))
        else:
            values.append(entry["j"])
    return values


class BatchCheckpoint:
    """One run's resumable manifest at ``path``."""

    #: The manifest format this checkpoint class reads and writes.
    expected_version = MANIFEST_VERSION

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._manifest: Optional[Dict[str, Any]] = None

    def _check_version(self, existing: Optional[Dict[str, Any]]) -> None:
        if existing is None:
            return
        version = existing.get("version")
        if isinstance(version, int) and version != self.expected_version:
            kinds = {MANIFEST_VERSION: "chunk-keyed",
                     SPAN_MANIFEST_VERSION: "span-keyed"}
            found = kinds.get(version, f"unknown (version {version})")
            raise ManifestVersionError(
                f"checkpoint manifest {self.path} is "
                f"{found} format version {version}, but this run needs "
                f"version {self.expected_version} — finish it with the "
                f"run parameters that created it, or remove the file to "
                f"start over")

    def begin(self, kind: str,
              chunks: Sequence[Any]) -> Dict[int, List[Any]]:
        """Open (or create) the manifest for this chunk list.

        Returns the already-completed chunks as ``{index: values}`` when
        the on-disk manifest matches ``kind`` and every chunk
        fingerprint; otherwise the manifest is reset and the returned
        dict is empty.  A manifest from an *incompatible format version*
        (a different build, or a span manifest handed to a chunk run)
        raises :class:`ManifestVersionError` instead of silently
        discarding completed work.
        """
        completed = self._open({
            "version": MANIFEST_VERSION,
            "kind": kind,
            "num_chunks": len(chunks),
            "fingerprints": [chunk_fingerprint(chunk) for chunk in chunks],
        })
        return {int(key): values for key, values in completed.items()
                if 0 <= int(key) < len(chunks)}

    def record(self, chunk_index: int, values: List[Any]) -> None:
        """Persist one finished chunk (atomic rewrite)."""
        self._record(str(chunk_index), values)

    def _open(self, header: Dict[str, Any]) -> Dict[str, List[Any]]:
        """Resume the on-disk manifest if it matches ``header`` exactly
        (returning its completed entries), else start a fresh one."""
        existing = self._read()
        self._check_version(existing)
        if existing is not None and all(
                existing.get(name) == value
                for name, value in header.items()):
            self._manifest = existing
            return {key: _decode_values(values) for key, values
                    in existing.get("completed", {}).items()}
        self._manifest = dict(header, completed={})
        self._write()
        return {}

    def _record(self, key: str, values: List[Any]) -> None:
        if self._manifest is None:
            raise RuntimeError("record() before begin()")
        self._manifest["completed"][key] = _encode_values(values)
        self._write()

    def _read(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _write(self) -> None:
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(self._manifest, handle, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


class SpanCheckpoint(BatchCheckpoint):
    """A resumable manifest keyed by item *ranges* instead of chunks.

    Work-stealing runs cannot fingerprint per-chunk payloads — the work
    units are decided while the run executes.  Instead the caller
    fingerprints the whole batch once (algorithm, geometry and message
    bytes) and completed spans are recorded as ``"start:stop"`` keys.  A
    resume whose kind, fingerprint or item count differs starts fresh;
    a matching one returns every recorded span, and the scheduler plans
    new spans over whatever ranges remain.
    """

    expected_version = SPAN_MANIFEST_VERSION

    def begin(self, kind: str, fingerprint: str,  # type: ignore[override]
              total: int) -> List[tuple]:
        completed = self._open({
            "version": SPAN_MANIFEST_VERSION,
            "kind": kind,
            "fingerprint": fingerprint,
            "total": total,
        })
        spans = []
        for key, values in completed.items():
            start, stop = (int(part) for part in key.split(":"))
            if 0 <= start <= stop <= total:
                spans.append((start, stop, values))
        return spans

    def record(self, start: int, stop: int,  # type: ignore[override]
               values: List[Any]) -> None:
        """Persist one finished span (atomic rewrite)."""
        self._record(f"{start}:{stop}", values)
