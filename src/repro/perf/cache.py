"""Content-addressed compiled-trace cache.

Synthetic trace generation builds the records and their packed columns
in one pass, but still costs a Python loop over every instruction. It
is a pure function of ``(profile, length, seed)``, so the lab's
content-addressing applies:
this module stores the *packed* form of a generated trace under a
SHA-256 digest of the canonical profile plus the generation parameters,
the pack schema version, and the lab code salt
(:data:`repro.lab.store.CODE_SALT`). A warm
:func:`packed_trace_for` call is one ``np.load`` instead of a
per-instruction generation loop.

Layout mirrors the result store, under the same root
(``REPRO_CACHE_DIR``, default ``.repro-cache``)::

    .repro-cache/
      packed/<digest[:2]>/<digest>.npz

Writes are atomic (:func:`repro.resilience.atomic.atomic_write_bytes`)
and carry an embedded content checksum (a ``__sha256__`` array over
every other array's name, dtype, shape, and bytes — the zip container
itself is not byte-stable, so the checksum covers the *contents*).
Reads verify the checksum; a corrupt object is quarantined under
``<root>/quarantine/`` and counts as a miss, so the next build simply
re-stores it. ``repro lab fsck`` scans the same checksum via
:func:`verify_npz_bytes`. The ``cache.npz`` fault site
(:mod:`repro.resilience.faults`) passes both the serialized bytes on
write and the raw bytes on read, so corruption handling is testable
end to end. ``REPRO_NO_CACHE`` bypasses the disk entirely, same as the
result store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.lab.store import (
    CODE_SALT,
    caching_disabled,
    default_store_root,
    payload_digest,
    quarantine_file,
)
from repro.obs import runtime as _obs
from repro.perf.packed import PACK_SCHEMA_VERSION, PackedTrace
from repro.resilience import faults
from repro.resilience.atomic import atomic_write_bytes
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace

#: Name of the embedded checksum entry inside each npz object.
CHECKSUM_KEY = "__sha256__"


def canonical_profile(profile: WorkloadProfile) -> Dict[str, Any]:
    """Order-independent, JSON-ready form of a workload profile.

    Mirrors :func:`repro.lab.store.canonical_config`: fields in sorted
    name order, with the ``mix`` dict flattened to
    ``{op-class value: fraction}`` in sorted op-class order so dict
    insertion order never leaks into the digest.
    """
    out: Dict[str, Any] = {}
    for f in sorted(dataclasses.fields(profile), key=lambda f: f.name):
        value = getattr(profile, f.name)
        if f.name == "mix":
            value = {
                op.value: fraction
                for op, fraction in sorted(
                    value.items(), key=lambda kv: kv[0].value
                )
            }
        out[f.name] = value
    return out


def trace_key(profile: WorkloadProfile, length: int, seed: int) -> str:
    """Content address of one generated-and-packed trace."""
    return payload_digest(
        {
            "kind": "packed-trace",
            "profile": canonical_profile(profile),
            "length": length,
            "seed": seed,
            "pack_schema": PACK_SCHEMA_VERSION,
            "salt": CODE_SALT,
        }
    )


def _arrays_digest(arrays: Dict[str, np.ndarray]) -> str:
    """Container-independent SHA-256 over the arrays' contents."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if name == CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


def serialize_npz(packed: PackedTrace) -> bytes:
    """``packed`` as checksummed npz bytes (what :meth:`put` writes)."""
    arrays = packed.to_arrays()
    arrays[CHECKSUM_KEY] = np.asarray(_arrays_digest(arrays))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _load_verified(raw: bytes) -> Tuple[str, Optional[Dict[str, np.ndarray]]]:
    """Parse and verify npz bytes: (status, arrays-or-None).

    Status is one of ``ok`` / ``stale-schema`` / ``checksum-mismatch``
    / ``unreadable``, checked in that order of detectability.
    """
    try:
        with np.load(io.BytesIO(raw), allow_pickle=False) as handle:
            arrays = {name: handle[name] for name in handle.files}
    except Exception:
        return "unreadable", None
    if "schema" not in arrays:
        return "unreadable", None
    try:
        schema = int(arrays["schema"])
    except (TypeError, ValueError):
        return "unreadable", None
    if schema != PACK_SCHEMA_VERSION:
        return "stale-schema", None
    recorded = arrays.get(CHECKSUM_KEY)
    if recorded is None or str(recorded) != _arrays_digest(arrays):
        return "checksum-mismatch", None
    return "ok", arrays


def verify_npz_bytes(raw: bytes) -> str:
    """Integrity status of one packed-trace object (used by fsck)."""
    status, _ = _load_verified(raw)
    return status


class PackedTraceCache:
    """npz object store for packed traces under ``root``/packed."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else default_store_root()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0

    @property
    def packed_dir(self) -> Path:
        return self.root / "packed"

    def _object_path(self, key: str) -> Path:
        return self.packed_dir / key[:2] / f"{key}.npz"

    def contains(self, key: str) -> bool:
        return self._object_path(key).is_file()

    def get(self, key: str) -> Optional[PackedTrace]:
        """The packed trace stored under ``key``, or None on a miss.

        Schema-stale objects count as misses and are left for a later
        :meth:`put` to overwrite; unreadable or checksum-failing
        objects are quarantined so the evidence survives while the key
        becomes rebuildable.
        """
        path = self._object_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.misses += 1
            self._count("perf.pack_cache_misses_total")
            return None
        try:
            raw = faults.fault_point("cache.npz", raw)
        except faults.InjectedFault:
            self.misses += 1
            self._count("perf.pack_cache_misses_total")
            return None
        status, arrays = _load_verified(raw)
        if status == "ok":
            self.hits += 1
            self._count("perf.pack_cache_hits_total")
            return PackedTrace.from_arrays(arrays)
        if status != "stale-schema":
            self.corrupt += 1
            self._count("resilience.store_corruptions_total")
            quarantine_file(self.root, path, reason=f"packed get: {status}")
        self.misses += 1
        self._count("perf.pack_cache_misses_total")
        return None

    def put(self, key: str, packed: PackedTrace) -> Path:
        """Atomically store ``packed`` under ``key`` (checksummed)."""
        path = self._object_path(key)
        blob = serialize_npz(packed)
        blob = faults.fault_point("cache.npz", blob)
        atomic_write_bytes(path, blob)
        self.puts += 1
        self._count("perf.pack_cache_puts_total")
        return path

    def get_or_build(
        self, profile: WorkloadProfile, length: int, seed: int
    ) -> PackedTrace:
        """The packed trace for ``(profile, length, seed)``.

        Generated, packed, and stored on first request; loaded from the
        npz object on every later one. With ``REPRO_NO_CACHE`` set the
        disk is never touched and the trace is always rebuilt.
        """
        if caching_disabled():
            return self._build(profile, length, seed)
        key = trace_key(profile, length, seed)
        packed = self.get(key)
        if packed is None:
            packed = self._build(profile, length, seed)
            self.put(key, packed)
        return packed

    def _build(
        self, profile: WorkloadProfile, length: int, seed: int
    ) -> PackedTrace:
        self._count("perf.pack_cache_builds_total")
        return generate_trace(profile, length, seed).pack()

    @staticmethod
    def _count(name: str) -> None:
        metrics = _obs.current_metrics()
        if metrics is not None:
            metrics.counter(name).inc()

    def describe(self) -> Dict[str, Any]:
        """Status summary (mirrors ``ResultStore.describe``)."""
        objects = (
            sorted(self.packed_dir.glob("*/*.npz"))
            if self.packed_dir.is_dir()
            else []
        )
        return {
            "root": str(self.root),
            "objects": len(objects),
            "size_bytes": sum(p.stat().st_size for p in objects),
            "salt": CODE_SALT,
            "stats": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
            },
        }


def packed_trace_for(
    profile: WorkloadProfile,
    length: int,
    seed: int,
    root: Optional[Path] = None,
) -> PackedTrace:
    """Module-level convenience wrapper over :class:`PackedTraceCache`."""
    return PackedTraceCache(root).get_or_build(profile, length, seed)
