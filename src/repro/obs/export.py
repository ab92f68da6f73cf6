"""Trace export: Chrome trace-event JSON (Perfetto) and compact JSONL.

The Chrome trace-event format is the ``{"traceEvents": [...]}`` JSON
documented by the Trace Event Format spec and loadable in Perfetto or
``chrome://tracing``. Simulated cycles map 1:1 onto the format's
microsecond timestamps, so one trace "µs" is one core cycle.

Layout (one process, one thread per event family):

* tid 1 ``branch mispredicts`` — one complete (``"X"``) span per
  mispredict whose duration is the full penalty, with nested
  ``resolve`` and ``refill`` child slices.
* tid 2 ``icache misses`` — complete spans, duration = miss latency.
* tid 3 ``long dcache misses`` — async ``"b"``/``"e"`` pairs keyed by
  instruction seq, since long misses overlap under the ROB.
* tid 4 ``intervals`` — instant (``"i"``) markers at interval
  boundaries.

The JSONL export is one JSON object per line (miss-event spans then
instants, in emission order) for programmatic analysis without a trace
viewer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple, Union

from repro.obs.tracer import RecordingTracer
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    MissEvent,
)
from repro.resilience.atomic import atomic_write_text

PID = 0
TID_BPRED = 1
TID_ICACHE = 2
TID_LONG_DMISS = 3
TID_INTERVALS = 4

_THREAD_NAMES = {
    TID_BPRED: "branch mispredicts",
    TID_ICACHE: "icache misses",
    TID_LONG_DMISS: "long dcache misses",
    TID_INTERVALS: "intervals",
}


def _metadata_events(label: str) -> List[dict]:
    events = [
        {
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": label},
        }
    ]
    for tid, name in sorted(_THREAD_NAMES.items()):
        events.append(
            {
                "ph": "M",
                "pid": PID,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    return events


def _span_end(event: MissEvent) -> Tuple[int, int]:
    """``(resolve cycle, refill cycles)`` of a miss event's span.

    A mispredict's span runs dispatch → resolve → end of the frontend
    refill, so its duration is the penalty; I-cache and long D-cache
    misses span their latency with no refill.
    """
    if isinstance(event, BranchMispredictEvent):
        return event.resolve_cycle, event.refill_cycles
    if isinstance(event, ICacheMissEvent):
        return event.cycle + event.latency, 0
    return event.complete_cycle, 0


def chrome_trace_events(tracer: RecordingTracer, label: str = "repro-sim") -> List[dict]:
    """Flatten a recording into trace-event dicts (metadata first)."""
    events = _metadata_events(label)
    for event in tracer.events:
        if isinstance(event, BranchMispredictEvent):
            args = {
                "seq": event.seq,
                "resolution_cycles": event.resolution,
                "refill_cycles": event.refill_cycles,
                "penalty_cycles": event.penalty,
                "wrong_path_instructions": event.wrong_path_instructions,
                "window_occupancy": event.window_occupancy,
            }
            events.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": TID_BPRED,
                    "name": "mispredict",
                    "cat": "bpred",
                    "ts": event.cycle,
                    "dur": event.penalty,
                    "args": args,
                }
            )
            events.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": TID_BPRED,
                    "name": "resolve",
                    "cat": "bpred",
                    "ts": event.cycle,
                    "dur": event.resolution,
                    "args": {"seq": event.seq},
                }
            )
            if event.refill_cycles > 0:
                events.append(
                    {
                        "ph": "X",
                        "pid": PID,
                        "tid": TID_BPRED,
                        "name": "refill",
                        "cat": "bpred",
                        "ts": event.resolve_cycle,
                        "dur": event.refill_cycles,
                        "args": {"seq": event.seq},
                    }
                )
        elif isinstance(event, ICacheMissEvent):
            events.append(
                {
                    "ph": "X",
                    "pid": PID,
                    "tid": TID_ICACHE,
                    "name": "icache_miss",
                    "cat": "icache",
                    "ts": event.cycle,
                    "dur": event.latency,
                    "args": {"seq": event.seq},
                }
            )
        else:
            common = {
                "pid": PID,
                "tid": TID_LONG_DMISS,
                "name": "long_dmiss",
                "cat": "dmiss",
                "id": event.seq,
            }
            events.append(
                {
                    "ph": "b",
                    "ts": event.cycle,
                    "args": {"seq": event.seq, "latency": event.latency},
                    **common,
                }
            )
            events.append(
                {"ph": "e", "ts": event.complete_cycle, "args": {}, **common}
            )
    for instant in tracer.instants:
        events.append(
            {
                "ph": "i",
                "pid": PID,
                "tid": TID_INTERVALS,
                "name": instant.name,
                "cat": "interval",
                "ts": instant.cycle,
                "s": "t",
                "args": dict(instant.args),
            }
        )
    return events


def chrome_trace(tracer: RecordingTracer, label: str = "repro-sim") -> dict:
    return {
        "traceEvents": chrome_trace_events(tracer, label=label),
        "displayTimeUnit": "ns",
        "otherData": {"time_unit": "simulated core cycles (1 cycle = 1 us)"},
    }


def write_chrome_trace(
    tracer: RecordingTracer,
    path: Union[str, Path],
    label: str = "repro-sim",
) -> int:
    """Write the Chrome trace JSON; returns the number of trace events.

    Lab jobs write traces next to run manifests, so the export must be
    crash-safe like every other run-state file: serialize in memory,
    then atomic-replace — a crash never leaves a torn trace.
    """
    document = chrome_trace(tracer, label=label)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    atomic_write_text(Path(path), text + "\n")
    return len(document["traceEvents"])


def chrome_trace_events_from_spans(
    spans: Sequence[dict], label: str = "repro-serve"
) -> List[dict]:
    """Trace events for request-scoped spans (:mod:`repro.obs.spans`).

    Unlike the single-process miss-event layout above, request spans are
    *cross-process*: the event loop, its worker threads, and the shard
    pool workers each record under their own ``(process, pid)``. Each
    distinct pair becomes one Perfetto process row (metadata first, in
    sorted order so exports are deterministic); span timestamps are
    integer nanoseconds rendered as fractional microseconds.
    """
    rows = sorted(
        {(int(record.get("pid", 0)), str(record.get("process", "main")))
         for record in spans}
    )
    events: List[dict] = []
    for pid, process in rows:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": f"{label}:{process}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "name": "thread_name",
                "args": {"name": "request spans"},
            }
        )
    ordered = sorted(
        spans,
        key=lambda r: (
            str(r.get("trace_id", "")),
            int(r.get("start_ns", 0)),
            str(r.get("span_id", "")),
        ),
    )
    for record in ordered:
        if record.get("end_ns") is None:
            continue
        start_ns = int(record["start_ns"])
        args = {
            "trace_id": record.get("trace_id"),
            "span_id": record.get("span_id"),
            "parent_id": record.get("parent_id"),
            "status": record.get("status", "ok"),
        }
        args.update(record.get("args") or {})
        events.append(
            {
                "ph": "X",
                "pid": int(record.get("pid", 0)),
                "tid": 1,
                "name": str(record.get("name", "span")),
                "cat": "request",
                "ts": start_ns / 1000.0,
                "dur": (int(record["end_ns"]) - start_ns) / 1000.0,
                "args": args,
            }
        )
    return events


def chrome_trace_from_spans(spans: Sequence[dict], label: str = "repro-serve") -> dict:
    return {
        "traceEvents": chrome_trace_events_from_spans(spans, label=label),
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "wall nanoseconds rendered as us"},
    }


def write_chrome_trace_spans(
    spans: Sequence[dict],
    path: Union[str, Path],
    label: str = "repro-serve",
) -> int:
    """Atomic-replace Chrome trace export for request spans."""
    document = chrome_trace_from_spans(spans, label=label)
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    atomic_write_text(Path(path), text + "\n")
    return len(document["traceEvents"])


def jsonl_records(tracer: RecordingTracer) -> Iterator[dict]:
    """One flat JSON-safe dict per miss event/instant, in emission order."""
    for event in tracer.events:
        resolve_cycle, refill_cycles = _span_end(event)
        bpred = isinstance(event, BranchMispredictEvent)
        yield {
            "type": "span",
            "kind": event.tag,
            "seq": event.seq,
            "dispatch_cycle": event.cycle,
            "resolve_cycle": resolve_cycle,
            "refill_cycles": refill_cycles,
            "duration_cycles": resolve_cycle + refill_cycles - event.cycle,
            "wrong_path_instructions": (
                event.wrong_path_instructions if bpred else 0
            ),
            "window_occupancy": event.window_occupancy if bpred else 0,
        }
    for instant in tracer.instants:
        record = {"type": "instant", "name": instant.name, "cycle": instant.cycle}
        record.update(instant.args)
        yield record


def write_jsonl(tracer: RecordingTracer, path: Union[str, Path]) -> int:
    """Write the JSONL export; returns the number of lines written.

    Atomic-replace for the same reason as :func:`write_chrome_trace`:
    the lab's trace sidecars must never be torn by a mid-write crash.
    """
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in jsonl_records(tracer)
    ]
    text = "\n".join(lines) + "\n" if lines else ""
    atomic_write_text(Path(path), text)
    return len(lines)
