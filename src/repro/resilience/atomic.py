"""Crash-safe file primitives for run-state files.

Every file whose loss or truncation can corrupt a run — store objects,
run manifests, journals, heartbeats — goes through this module. Two
shapes cover all of them:

- **whole-file replace** (:func:`atomic_write_bytes` and friends):
  serialize into a temp file in the *same directory*, flush, ``fsync``,
  then ``os.replace`` over the target. A crash at any instant leaves
  either the old complete file or the new complete file (plus at worst
  a stray ``.tmp-*`` that ``repro lab fsck`` sweeps up), never a torn
  one.
- **append-only log** (:class:`AppendOnlyWriter`): one JSON record per
  line, flushed and ``fsync``ed per append, so the write-ahead run
  journal survives a SIGKILL with at most the final line torn — and a
  torn final line is detectable (it fails to parse) and safely
  droppable (its job is simply re-run on resume).

Lint rule RES001 enforces that ``repro.lab`` and ``repro.resilience``
never bypass these helpers with a bare ``open(..., "w")``; this module
is the rule's one exempt file.

The module sits at the very bottom of the dependency stack (stdlib
only) so the store, telemetry, and journal can all import it without
cycles.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterator, List, Optional, Union

PathLike = Union[str, os.PathLike]


def fsync_dir(directory: PathLike) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: PathLike, data: bytes, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp + fsync + replace)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=".tmp-", suffix=target.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(target.parent)
    return target


def atomic_write_text(
    path: PathLike, text: str, fsync: bool = True
) -> Path:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_json(
    path: PathLike,
    obj: Any,
    indent: Optional[int] = None,
    sort_keys: bool = False,
    fsync: bool = True,
) -> Path:
    """Atomically replace ``path`` with ``obj`` serialized as JSON.

    With ``sort_keys=True`` and no indent the encoding is canonical:
    byte-identical for equal values, which is what the merged-manifest
    resume guarantee is built on.
    """
    if indent is None:
        text = json.dumps(obj, sort_keys=sort_keys, separators=(",", ":"))
    else:
        text = json.dumps(obj, sort_keys=sort_keys, indent=indent)
    return atomic_write_text(path, text + "\n", fsync=fsync)


def canonical_json_bytes(obj: Any) -> bytes:
    """The exact bytes :func:`atomic_write_json` writes canonically."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


class AppendOnlyWriter:
    """fsync-per-record JSONL appender (the write-ahead journal's pen).

    Opens lazily on first append and keeps the handle for the writer's
    lifetime; every :meth:`append` flushes and fsyncs before returning,
    so a record the caller has seen acknowledged is on disk.
    """

    def __init__(self, path: PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle = None

    def _ensure_open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # The append-only escape hatch RES001 exists to police:
            # this class *is* the blessed helper.
            self._handle = open(  # repro: noqa[RES001]
                self.path, "a", encoding="utf-8"
            )
        return self._handle

    def append(self, record: Any) -> None:
        """Append one JSON record as a line; durable on return."""
        handle = self._ensure_open()
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "AppendOnlyWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(path: PathLike) -> List[Any]:
    """Parse a JSONL file, dropping a torn (unparseable) final line.

    A torn *non*-final line means real corruption and raises; a torn
    final line is the expected signature of a crash mid-append and is
    silently discarded.
    """
    records: List[Any] = []
    try:
        with open(Path(path), "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return records
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if lineno == len(lines) - 1:
                break  # torn tail from a crash mid-append
            raise
    return records


def stray_tmp_files(directory: PathLike) -> Iterator[Path]:
    """Leftover ``.tmp-*`` files from interrupted atomic writes."""
    base = Path(directory)
    if not base.is_dir():
        return
    for path in sorted(base.rglob(".tmp-*")):
        if path.is_file():
            yield path


__all__ = [
    "AppendOnlyWriter",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_json_bytes",
    "fsync_dir",
    "read_jsonl",
    "stray_tmp_files",
]
