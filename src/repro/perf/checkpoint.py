"""Interval-boundary checkpointing and bit-identical shard stitching.

The paper's interval model segments execution at miss events because
the machine *drains* there: a mispredicted branch stops dispatch at the
branch, the window empties while it resolves, and the frontend refills
before the next instruction enters. Those drain points are exactly
where a long simulation can be cut: when every pre-boundary
instruction has committed and every functional unit is free by the
cycle the post-boundary instruction would dispatch, the machine state
at the boundary is a *fresh* pipeline shifted in time. A shard can
then be simulated from a fresh kernel on its sub-trace — with no state
carried in at all — and its cycles, events, and timelines shifted by a
constant offset during stitching.

Cleanliness is a runtime property (a long D-cache miss issued just
before the branch can straddle the boundary), so every shard *proves*
it: the kernel reports its end state
(:class:`~repro.perf.batchcore.KernelEndState`) and the stitcher
verifies ``last commit < resume cycle`` and ``FU reservations <=
resume cycle`` before accepting the cut. A dirty boundary is healed by
merging the shard with its successor and re-simulating the union —
correctness never depends on the boundary choice.

Because clean shards need no incoming state, they are *independent*
units of work: :class:`~repro.lab.jobs.ShardSimJob` runs one shard in
a lab pool worker and the per-shard results are stitched here,
bit-identically to the unsharded run (the equivalence suite asserts
field-exact equality at every boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.obs import runtime as _obs
from repro.perf.batchcore import (
    TraceColumns,
    _CacheColumns,
    _FUTables,
    _assemble_result,
    _simulate_columns,
    batch_supported,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SuperscalarCore
from repro.pipeline.events import (
    BranchMispredictEvent,
    ICacheMissEvent,
    LongDMissEvent,
    MissEvent,
)
from repro.pipeline.result import SimulationResult
from repro.trace.stream import Trace

#: Bumped when the checkpoint payload layout changes.
CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class PipelineCheckpoint:
    """Serialized pipeline state at one clean interval boundary.

    A clean boundary's state is canonical — empty window, free
    functional units, refilling frontend — so the checkpoint is the
    *proof* plus the time base: the boundary sequence number, the
    absolute cycle the next instruction dispatches, and the residual
    activity bounds that establish cleanliness. ``from_payload`` /
    ``to_payload`` round-trip through JSON so checkpoints can ride the
    lab store between pool workers.
    """

    boundary: int
    resume_cycle: int
    last_commit_cycle: int
    max_fu_free: int
    clean: bool

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "boundary": self.boundary,
            "resume_cycle": self.resume_cycle,
            "last_commit_cycle": self.last_commit_cycle,
            "max_fu_free": self.max_fu_free,
            "clean": self.clean,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PipelineCheckpoint":
        schema = payload.get("schema")
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema {schema!r} != {CHECKPOINT_SCHEMA_VERSION}"
            )
        return cls(
            boundary=payload["boundary"],
            resume_cycle=payload["resume_cycle"],
            last_commit_cycle=payload["last_commit_cycle"],
            max_fu_free=payload["max_fu_free"],
            clean=payload["clean"],
        )


@dataclass(frozen=True)
class ShardResult:
    """One simulated shard in its own (relative) time base.

    ``result`` is the shard's :class:`SimulationResult` as if its
    sub-trace were a whole program; ``resume_cycle`` is the relative
    cycle the next shard's first instruction would dispatch, and
    ``clean`` whether the end state proved drained (always True for the
    final shard, whose resume cycle is unused).
    """

    start: int
    stop: int
    result: SimulationResult
    resume_cycle: int
    clean: bool


@dataclass
class ShardReport:
    """How a sharded run went: spans, checkpoints, healed boundaries."""

    spans: List[Tuple[int, int]]
    checkpoints: List[PipelineCheckpoint]
    merged_boundaries: int = 0
    fallback: bool = False


def interval_boundaries(
    source, min_gap: int = 1, limit: Optional[int] = None
) -> List[int]:
    """Candidate shard cuts: positions right after mispredicted controls.

    ``source`` is a :class:`~repro.trace.stream.Trace` or prebuilt
    :class:`TraceColumns`. Boundaries are strictly inside the trace and
    at least ``min_gap`` records apart; ``limit`` keeps only the first
    N. The list is a *candidate* set — stitching verifies each cut at
    runtime and heals dirty ones.
    """
    cols = source if isinstance(source, TraceColumns) else TraceColumns.build(source)
    candidates = (np.flatnonzero(np.asarray(cols.misp, dtype=bool)) + 1).tolist()
    boundaries: List[int] = []
    previous = 0
    for position in candidates:
        if position >= cols.n:
            break
        if position - previous < min_gap:
            continue
        boundaries.append(position)
        previous = position
        if limit is not None and len(boundaries) >= limit:
            break
    return boundaries


def plan_shards(source, shards: int) -> List[int]:
    """Pick ~evenly spaced boundaries yielding about ``shards`` shards."""
    cols = source if isinstance(source, TraceColumns) else TraceColumns.build(source)
    if shards <= 1 or cols.n == 0:
        return []
    candidates = interval_boundaries(cols)
    if not candidates:
        return []
    picks: List[int] = []
    array = np.asarray(candidates)
    for k in range(1, shards):
        target = cols.n * k // shards
        nearest = int(array[np.argmin(np.abs(array - target))])
        if not picks or nearest > picks[-1]:
            picks.append(nearest)
    return picks


def simulate_shard(
    trace: Trace, config: CoreConfig, start: int, stop: int
) -> ShardResult:
    """Simulate records ``[start, stop)`` from a fresh pipeline.

    The shard's own time base starts at cycle 0 (first dispatch at
    ``frontend_depth``, like any whole-program run); dependences
    reaching before ``start`` are dropped, which is exactly what a
    clean boundary guarantees the full run would observe.
    """
    cols = TraceColumns.build(trace).slice(start, stop)
    return _simulate_shard_columns(cols, config, start, stop)


def _simulate_shard_columns(
    cols: TraceColumns, config: CoreConfig, start: int, stop: int
) -> ShardResult:
    output = _simulate_columns(
        cols, _CacheColumns(cols, config), _FUTables(config), config
    )
    end = output.end_state
    return ShardResult(
        start=start,
        stop=stop,
        result=_assemble_result(output, config, cols.n),
        resume_cycle=end.resume_cycle,
        clean=end.clean,
    )


def _shift_event(event: MissEvent, seq_off: int, cyc_off: int) -> MissEvent:
    if isinstance(event, BranchMispredictEvent):
        return replace(
            event,
            seq=event.seq + seq_off,
            cycle=event.cycle + cyc_off,
            resolve_cycle=event.resolve_cycle + cyc_off,
        )
    if isinstance(event, LongDMissEvent):
        return replace(
            event,
            seq=event.seq + seq_off,
            cycle=event.cycle + cyc_off,
            complete_cycle=event.complete_cycle + cyc_off,
        )
    if isinstance(event, ICacheMissEvent):
        return replace(
            event, seq=event.seq + seq_off, cycle=event.cycle + cyc_off
        )
    raise TypeError(f"unknown event type {type(event).__name__}")


def stitch(pieces: Sequence[ShardResult], config: CoreConfig) -> SimulationResult:
    """Merge contiguous clean shards into one absolute-time result.

    Every non-final piece must be ``clean`` (heal dirty cuts by merging
    before calling); pieces must tile ``[0, n)`` in order. The output
    is field-for-field what the unsharded simulation produces: shard
    k's time base shifts by the accumulated resume offsets, events
    concatenate in dispatch order (a clean boundary orders all of shard
    k-1's events before shard k's), counters sum, peaks take the max.
    """
    if not pieces:
        return SimulationResult(instructions=0, cycles=0)
    record_timeline = config.record_timeline
    events: List[MissEvent] = []
    dispatch_cycle: Optional[List[int]] = [] if record_timeline else None
    issue_cycle: Optional[List[int]] = [] if record_timeline else None
    complete_cycle: Optional[List[int]] = [] if record_timeline else None
    commit_cycle: Optional[List[int]] = [] if record_timeline else None
    fu_counts: Dict[str, int] = {}
    rob_peak = 0
    offset = 0
    expected_start = 0
    total_cycles = 0
    for index, piece in enumerate(pieces):
        if piece.start != expected_start:
            raise ValueError(
                f"shard {index} starts at {piece.start}, expected "
                f"{expected_start}"
            )
        final = index == len(pieces) - 1
        if not final and not piece.clean:
            raise ValueError(
                f"shard {index} ([{piece.start}, {piece.stop})) ended dirty; "
                "merge it with its successor before stitching"
            )
        result = piece.result
        events.extend(_shift_event(e, piece.start, offset) for e in result.events)
        if record_timeline:
            dispatch_cycle.extend(v + offset for v in result.dispatch_cycle)
            issue_cycle.extend(v + offset for v in result.issue_cycle)
            complete_cycle.extend(v + offset for v in result.complete_cycle)
            commit_cycle.extend(v + offset for v in result.commit_cycle)
        for name, count in result.fu_issue_counts.items():
            fu_counts[name] = fu_counts.get(name, 0) + count
        if result.rob_peak_occupancy > rob_peak:
            rob_peak = result.rob_peak_occupancy
        if final:
            total_cycles = offset + result.cycles
        else:
            offset += piece.resume_cycle - config.frontend_depth
        expected_start = piece.stop
    return SimulationResult(
        instructions=expected_start,
        cycles=total_cycles,
        events=events,
        dispatch_cycle=dispatch_cycle,
        issue_cycle=issue_cycle,
        complete_cycle=complete_cycle,
        commit_cycle=commit_cycle,
        fu_issue_counts=fu_counts,
        rob_peak_occupancy=rob_peak,
        squashed_ghosts=0,
    )


def checkpoints_of(pieces: Sequence[ShardResult], config: CoreConfig) -> List[PipelineCheckpoint]:
    """Absolute-time checkpoints at each accepted boundary."""
    checkpoints: List[PipelineCheckpoint] = []
    offset = 0
    for piece in pieces[:-1]:
        resume_abs = offset + piece.resume_cycle
        checkpoints.append(
            PipelineCheckpoint(
                boundary=piece.stop,
                resume_cycle=resume_abs,
                last_commit_cycle=offset + (piece.result.cycles - 1),
                max_fu_free=resume_abs,  # clean: reservations are bounded by it
                clean=piece.clean,
            )
        )
        offset += piece.resume_cycle - config.frontend_depth
    return checkpoints


def simulate_sharded_detailed(
    trace: Trace,
    config: Optional[CoreConfig] = None,
    boundaries: Optional[Sequence[int]] = None,
    shards: int = 4,
) -> Tuple[SimulationResult, ShardReport]:
    """Sharded simulation plus the report of how it was cut.

    Configurations the SoA kernel does not model (wrong path, random
    issue) and sanitized runs use the scalar core unsharded — sharding
    is a performance feature, never a semantic one. The stitched result
    is observed once, like any other finished run. Dirty boundaries are healed by merging shards; the merged
    count lands in the report.
    """
    if config is None:
        config = CoreConfig()
    n = len(trace)
    if (
        n == 0
        or not batch_supported(config)
        or _sanitizer.current() is not None
    ):
        return (
            SuperscalarCore(config).run(trace),
            ShardReport(spans=[(0, n)], checkpoints=[], fallback=True),
        )
    cols = TraceColumns.build(trace)
    if boundaries is None:
        bounds = plan_shards(cols, shards)
    else:
        bounds = sorted({b for b in boundaries if 0 < b < n})
    pieces: List[ShardResult] = []
    merged = 0
    start = 0
    cursor = 0
    while start < n:
        stop = bounds[cursor] if cursor < len(bounds) else n
        cursor += 1
        while True:
            piece = _simulate_shard_columns(
                cols.slice(start, stop), config, start, stop
            )
            if stop >= n or piece.clean:
                break
            merged += 1
            stop = bounds[cursor] if cursor < len(bounds) else n
            cursor += 1
        pieces.append(piece)
        start = stop
    result = stitch(pieces, config)
    _obs.observe(result)
    return (
        result,
        ShardReport(
            spans=[(p.start, p.stop) for p in pieces],
            checkpoints=checkpoints_of(pieces, config),
            merged_boundaries=merged,
        ),
    )


def simulate_sharded(
    trace: Trace,
    config: Optional[CoreConfig] = None,
    boundaries: Optional[Sequence[int]] = None,
    shards: int = 4,
) -> SimulationResult:
    """Sharded simulation, bit-identical to the unsharded run."""
    result, _ = simulate_sharded_detailed(
        trace, config, boundaries=boundaries, shards=shards
    )
    return result


__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "PipelineCheckpoint",
    "ShardReport",
    "ShardResult",
    "checkpoints_of",
    "interval_boundaries",
    "plan_shards",
    "simulate_shard",
    "simulate_sharded",
    "simulate_sharded_detailed",
    "stitch",
]
