"""Checkpoint/resume for batch runs (JSON manifest on disk).

A killed batch run (OOM, preemption, ^C) should not redo finished work.
The scheduler records each span in a manifest as it completes; a rerun
over the *same* batch loads the manifest, pre-fills the finished item
ranges and only dispatches the rest — producing byte-identical,
order-preserving results.  Spans are cut while the run executes (work
stealing splits them), so completed spans are keyed ``"start:stop"``
and the whole batch is guarded by one caller-supplied fingerprint.

Safety properties:

* **Atomic writes** — the manifest is rewritten to a temp file and
  ``os.replace``-d into place, so a kill mid-write leaves the previous
  consistent manifest, never a torn one.
* **Fingerprinted inputs** — a resume whose kind, item count or batch
  fingerprint differs starts fresh instead of silently splicing stale
  results into a different batch.
* **Versioned format** — a manifest of another format version (the
  chunk-keyed version 1 of older builds) raises
  :class:`ManifestVersionError` instead of being discarded.
* **Typed values** — results are ``bytes`` (digests) or JSON-native
  values; each is tagged on disk (``{"b": hex}`` vs ``{"j": value}``)
  so round-trips are exact.

The manifest is written by the parent process only — workers never see
it — so there is no write concurrency to manage.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

#: Bumped on any incompatible manifest change.
MANIFEST_VERSION = 2


class ManifestVersionError(ValueError):
    """The on-disk manifest has an incompatible format version.

    Distinct from a fingerprint mismatch (different *inputs*, safely
    restarted from scratch): a version mismatch means the manifest was
    written by an incompatible build, and silently discarding it would
    throw away real completed work.  Surfaces to the CLI as a one-line
    exit-2 diagnostic.
    """


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
    """One run's resumable span-keyed manifest at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._manifest: Optional[Dict[str, Any]] = None

    def begin(self, kind: str, fingerprint: str,
              total: int) -> List[Tuple[int, int, List[Any]]]:
        """Open (or create) the manifest for a batch of ``total`` items.

        Returns every recorded span as ``(start, stop, values)`` when
        the on-disk manifest matches ``kind``, ``fingerprint`` and
        ``total``; otherwise the manifest is reset and the list is
        empty.  A manifest of another format version raises
        :class:`ManifestVersionError` and is left untouched.
        """
        header = {"version": MANIFEST_VERSION, "kind": kind,
                  "fingerprint": fingerprint, "total": total}
        existing = self._read()
        if existing is not None:
            version = existing.get("version")
            if isinstance(version, int) and version != MANIFEST_VERSION:
                raise ManifestVersionError(
                    f"checkpoint manifest {self.path} has format version "
                    f"{version}, but this build reads only version "
                    f"{MANIFEST_VERSION} — finish it with the build that "
                    f"wrote it, or remove the file to start over")
        if existing is None or any(existing.get(name) != value
                                   for name, value in header.items()):
            self._manifest = dict(header, completed={})
            self._write()
            return []
        self._manifest = existing
        spans = []
        for key, values in existing.get("completed", {}).items():
            start, stop = (int(part) for part in key.split(":"))
            if 0 <= start <= stop <= total:
                spans.append((start, stop, _decode_values(values)))
        return spans

    def record(self, start: int, stop: int, values: List[Any]) -> None:
        """Persist one finished span (atomic rewrite)."""
        if self._manifest is None:
            raise RuntimeError("record() before begin()")
        self._manifest["completed"][f"{start}:{stop}"] = \
            _encode_values(values)
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
