"""Ambient activation for the observability pillars.

Mirrors the sanitizer's ambient-state pattern
(:mod:`repro.analysis.sanitizer`): tracing and metrics each have a
forced flag (set by CLI switches / tests) that wins over an environment
variable (``REPRO_TRACE`` / ``REPRO_METRICS``, inherited by lab worker
processes).

The detailed cores carry no hooks in their cycle loops. Every finished
:class:`~repro.pipeline.result.SimulationResult` is handed to
:func:`observe` once, which derives the miss-event trace and the
``core.*`` metrics from ``result.events`` and the result's counters —
so what an observed run executes is exactly what an unobserved one
does, on every backend. Other layers call ``current_tracer()`` /
``current_metrics()`` once per call and branch on ``None``.

``drain_*`` returns the collected data and opens a fresh window; the
lab's ``execute_job`` drains per job so worker snapshots stay separate
until :func:`repro.obs.metrics.merge_snapshots` folds them together.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, Optional

from repro.obs import context as obs_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import RecordingTracer

if TYPE_CHECKING:
    from repro.pipeline.result import SimulationResult

ENV_TRACE = "REPRO_TRACE"
ENV_METRICS = "REPRO_METRICS"
#: Optional directory where lab workers write per-job JSONL traces.
ENV_TRACE_DIR = "REPRO_TRACE_DIR"

_TRACE = "trace"
_METRICS = "metrics"

_ENV_BY_PILLAR = {_TRACE: ENV_TRACE, _METRICS: ENV_METRICS}

_forced: Dict[str, Optional[bool]] = {_TRACE: None, _METRICS: None}

_ambient_tracer: Optional[RecordingTracer] = None
_ambient_metrics: Optional[MetricsRegistry] = None


def _enabled(pillar: str) -> bool:
    forced = _forced[pillar]
    if forced is not None:
        return forced
    raw = os.environ.get(_ENV_BY_PILLAR[pillar], "").strip()
    return raw not in ("", "0", "false", "no")


def _enable(pillar: str) -> None:
    _forced[pillar] = True
    os.environ[_ENV_BY_PILLAR[pillar]] = "1"


def _disable(pillar: str) -> None:
    _forced[pillar] = False
    os.environ.pop(_ENV_BY_PILLAR[pillar], None)


def tracing_enabled() -> bool:
    return _enabled(_TRACE)


def metrics_enabled() -> bool:
    return _enabled(_METRICS)


def enable_tracing() -> None:
    """Force-enable tracing and export it to child worker processes."""
    _enable(_TRACE)


def enable_metrics() -> None:
    _enable(_METRICS)


def disable_tracing() -> None:
    _disable(_TRACE)


def disable_metrics() -> None:
    _disable(_METRICS)


def reset() -> None:
    """Drop forced flags, ambient collectors, and the env switches.

    Tests call this (directly or via the autouse fixture) so one test's
    tracing session cannot leak into the next.
    """
    global _ambient_tracer, _ambient_metrics
    for pillar in _forced:
        _forced[pillar] = None
        os.environ.pop(_ENV_BY_PILLAR[pillar], None)
    os.environ.pop(ENV_TRACE_DIR, None)
    obs_context.clear_env()
    _ambient_tracer = None
    _ambient_metrics = None


def current_tracer() -> Optional[RecordingTracer]:
    """The ambient tracer, or None when tracing is inactive."""
    global _ambient_tracer
    if not _enabled(_TRACE):
        return None
    if _ambient_tracer is None:
        _ambient_tracer = RecordingTracer()
    return _ambient_tracer


def current_metrics() -> Optional[MetricsRegistry]:
    """The ambient metrics registry, or None when metrics are inactive."""
    global _ambient_metrics
    if not _enabled(_METRICS):
        return None
    if _ambient_metrics is None:
        _ambient_metrics = MetricsRegistry()
    return _ambient_metrics


def observe(result: "SimulationResult", *, out_of_order: bool = True) -> None:
    """Publish one finished simulation to the ambient tracer and metrics.

    Tracing appends ``result.events`` in order. Metrics count the miss
    events, histogram each mispredict's resolution and penalty, and add
    the instruction and cycle totals; ``out_of_order`` results also
    report wrong-path squashes and the ROB occupancy peak, which an
    in-order core does not have.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.record(result.events)
    metrics = current_metrics()
    if metrics is None:
        return
    # repro.pipeline imports this module, so its event classes are
    # looked up at call time (once per simulation) to keep imports acyclic.
    from repro.pipeline.events import BranchMispredictEvent, ICacheMissEvent

    mispredicts = metrics.counter("core.mispredicts_total")
    resolution = metrics.histogram("core.resolution_cycles")
    penalty = metrics.histogram("core.penalty_cycles")
    icache = metrics.counter("core.icache_misses_total")
    long_dmiss = metrics.counter("core.long_dmisses_total")
    for event in result.events:
        if isinstance(event, BranchMispredictEvent):
            mispredicts.inc()
            resolution.add(event.resolution)
            penalty.add(event.penalty)
        elif isinstance(event, ICacheMissEvent):
            icache.inc()
        else:
            long_dmiss.inc()
    metrics.counter("core.instructions_total").inc(result.instructions)
    metrics.counter("core.cycles_total").inc(result.cycles)
    if out_of_order:
        metrics.counter("core.wrongpath_squashed_total").inc(
            result.squashed_ghosts
        )
        metrics.gauge("core.rob_occupancy_peak").set_max(
            result.rob_peak_occupancy
        )


def drain_trace() -> Optional[RecordingTracer]:
    """Return the ambient tracer (with its buffers) and start fresh."""
    global _ambient_tracer
    tracer = _ambient_tracer
    _ambient_tracer = None
    if tracer is None or len(tracer) == 0:
        return None
    return tracer


def drain_metrics() -> Optional[dict]:
    """Return a snapshot of the ambient registry and start fresh."""
    global _ambient_metrics
    registry = _ambient_metrics
    _ambient_metrics = None
    if registry is None:
        return None
    snapshot = registry.snapshot()
    if not any(snapshot.values()):
        return None
    return snapshot


def trace_dir() -> Optional[str]:
    """Directory for per-job JSONL traces (lab workers), if configured."""
    raw = os.environ.get(ENV_TRACE_DIR, "").strip()
    return raw or None
