"""The traced timeline must agree, event for event, with the simulator.

A seeded run traces exactly one event per miss event of its result,
and every mispredict's exported span lasts its resolution time plus
the frontend refill — i.e. the recorded penalty.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import runtime
from repro.obs.export import chrome_trace, write_chrome_trace, write_jsonl
from repro.obs.metrics import render_snapshot
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.events import KIND_BPRED, KIND_ICACHE, KIND_LONG_DMISS
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES

LENGTH = 6_000
SEED = 2006


def _traced_run(workload="gzip", inorder=False):
    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES[workload], LENGTH, seed=SEED)
    runtime.enable_tracing()
    runtime.enable_metrics()
    try:
        if inorder:
            from repro.pipeline.inorder import simulate_inorder

            result = simulate_inorder(trace, config)
        else:
            result = simulate(trace, config)
        tracer = runtime.drain_trace()
        snapshot = runtime.drain_metrics()
    finally:
        runtime.reset()
    return config, result, tracer, snapshot


@pytest.mark.parametrize("inorder", [False, True], ids=["ooo", "inorder"])
def test_one_span_per_miss_event(inorder):
    _, result, tracer, _ = _traced_run(inorder=inorder)
    counts = tracer.counts()
    assert counts.get(KIND_BPRED, 0) == len(result.mispredict_events)
    assert counts.get(KIND_ICACHE, 0) == len(result.icache_events)
    assert counts.get(KIND_LONG_DMISS, 0) == len(result.long_dmiss_events)
    assert len(result.mispredict_events) > 0


@pytest.mark.parametrize("inorder", [False, True], ids=["ooo", "inorder"])
def test_span_duration_is_resolution_plus_refill(inorder):
    config, result, tracer, _ = _traced_run(inorder=inorder)
    traced = tracer.events_of_kind(KIND_BPRED)
    events = sorted(result.mispredict_events, key=lambda e: e.seq)
    by_seq = {event.seq: event for event in traced}
    assert len(by_seq) == len(events)
    for event in events:
        span = by_seq[event.seq]
        assert span.refill_cycles == config.frontend_depth
        assert span.penalty == span.resolution + span.refill_cycles
        assert span.penalty == event.penalty
        assert span.resolution == event.resolution


def test_chrome_export_carries_the_identity_per_event():
    _, result, tracer, _ = _traced_run()
    document = chrome_trace(tracer)
    parents = [
        e for e in document["traceEvents"] if e.get("name") == "mispredict"
    ]
    assert len(parents) == len(result.mispredict_events)
    for parent in parents:
        args = parent["args"]
        assert parent["dur"] == args["penalty_cycles"]
        assert (
            args["penalty_cycles"]
            == args["resolution_cycles"] + args["refill_cycles"]
        )


def test_interval_boundaries_traced_after_segmentation():
    from repro.interval.penalty import measure_penalties

    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES["gzip"], LENGTH, seed=SEED)
    runtime.enable_tracing()
    try:
        result = simulate(trace, config)
        measure_penalties(result)
        measure_penalties(result)  # re-segmentation must not double-count
        tracer = runtime.drain_trace()
    finally:
        runtime.reset()
    boundaries = [i for i in tracer.instants if i.name == "interval_boundary"]
    total_events = (
        len(result.mispredict_events)
        + len(result.icache_events)
        + len(result.long_dmiss_events)
    )
    assert len(boundaries) == total_events


def test_same_seed_runs_export_byte_identical_artifacts(tmp_path):
    _, _, tracer_a, snap_a = _traced_run()
    _, _, tracer_b, snap_b = _traced_run()
    a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
    a_lines, b_lines = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_chrome_trace(tracer_a, a_json)
    write_chrome_trace(tracer_b, b_json)
    write_jsonl(tracer_a, a_lines)
    write_jsonl(tracer_b, b_lines)
    assert a_json.read_bytes() == b_json.read_bytes()
    assert a_lines.read_bytes() == b_lines.read_bytes()
    assert render_snapshot(snap_a) == render_snapshot(snap_b)


def test_metrics_agree_with_the_simulation():
    _, result, _, snapshot = _traced_run()
    counters = snapshot["counters"]
    assert counters["core.instructions_total"] == result.instructions
    assert counters["core.cycles_total"] == result.cycles
    assert counters["core.mispredicts_total"] == len(result.mispredict_events)
    hist = snapshot["histograms"]["core.penalty_cycles"]
    assert hist["count"] == len(result.mispredict_events)
    assert hist["sum"] == sum(e.penalty for e in result.mispredict_events)


def test_tracing_never_changes_simulated_time():
    config = CoreConfig()
    trace = generate_trace(SPEC_PROFILES["gzip"], LENGTH, seed=SEED)
    plain = simulate(trace, config)
    _, traced, _, _ = _traced_run()
    assert traced.cycles == plain.cycles
    assert traced.instructions == plain.instructions


def test_jsonl_lines_are_valid_json(tmp_path):
    _, _, tracer, _ = _traced_run()
    path = tmp_path / "events.jsonl"
    count = write_jsonl(tracer, path)
    lines = path.read_text().splitlines()
    assert len(lines) == count
    for line in lines:
        record = json.loads(line)
        assert record["type"] in ("span", "instant")
