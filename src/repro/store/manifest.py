"""The store manifest: which segments exist, in what logical order.

One JSON file (``manifest.json``) is the store's single source of truth.
Every mutation builds the next manifest in memory and commits it with
write-temp + ``os.replace`` — readers observe either the old state or
the new one, never a torn file.  Two bookkeeping lists make every
multi-file operation crash-safe:

* a segment file is written under a ``*.tmp`` name and renamed to its
  final ``*.seg`` name *before* the manifest that references it is
  committed — a crash in between leaves a complete orphan segment that
  recovery adopts (rename is atomic, so a ``.seg`` name implies a
  complete file), while a crash mid-write leaves only a ``.tmp`` that
  recovery deletes;
* compaction commits the merged segment and a ``garbage`` list naming
  the replaced files in one manifest write, deletes them, then clears
  the list — a crash in between leaves files that recovery knows to
  delete rather than re-adopt.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.store.segment import SCHEMA_VERSION, SegmentInfo, StoreSchemaError

MANIFEST_NAME = "manifest.json"


@dataclass
class StoreManifest:
    """In-memory image of ``manifest.json``."""

    schema: str = SCHEMA_VERSION
    next_seq: int = 1
    meta: Dict[str, object] = field(default_factory=dict)
    segments: List[SegmentInfo] = field(default_factory=list)
    garbage: List[str] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return sum(s.n_records for s in self.segments)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "next_seq": self.next_seq,
            "meta": dict(self.meta),
            "segments": [s.to_dict() for s in self.segments],
            "garbage": list(self.garbage),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StoreManifest":
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise StoreSchemaError(
                f"unsupported manifest schema {schema!r} (this build reads "
                f"{SCHEMA_VERSION!r})"
            )
        return cls(
            schema=str(schema),
            next_seq=int(data.get("next_seq", 1)),
            meta=dict(data.get("meta") or {}),
            segments=[SegmentInfo.from_dict(s) for s in data.get("segments", [])],
            garbage=[str(name) for name in data.get("garbage", [])],
        )

    # ------------------------------------------------------------------

    @classmethod
    def load(cls, directory: str | Path) -> "StoreManifest":
        path = Path(directory) / MANIFEST_NAME
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def commit(self, directory: str | Path) -> None:
        """Atomically and durably replace ``manifest.json`` with this state.

        The directory is fsynced after the rename, so the new manifest
        entry (and any segment renamed into place before this commit)
        survives a crash, not only the manifest's bytes.
        """
        directory = Path(directory)
        final = directory / MANIFEST_NAME
        temporary = directory / (MANIFEST_NAME + ".tmp")
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, final)
        descriptor = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
