"""Traces and metrics are a pure function of finished results.

``repro.obs.runtime.observe`` derives the miss-event trace and the
``core.*`` metrics from a result, so observing a run never changes
which backend executes it: an observed batch runs the SoA kernel and
exports the same bytes as the scalar core. The cores keep no
observability hooks in their loops; a source check holds that line.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.obs import runtime
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.perf.batchcore import run_batch
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import SuperscalarCore, simulate
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CONFIGS = [CoreConfig(rob_size=size) for size in (64, 128, 192)]


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SPEC_PROFILES["mcf"], 4_000, seed=2006)


def _observed(run):
    runtime.enable_tracing()
    runtime.enable_metrics()
    try:
        run()
        return runtime.drain_trace(), runtime.drain_metrics()
    finally:
        runtime.reset()


def _export_bytes(tracer, tmp_path, stem):
    chrome, jsonl = tmp_path / f"{stem}.json", tmp_path / f"{stem}.jsonl"
    write_chrome_trace(tracer, chrome)
    write_jsonl(tracer, jsonl)
    return chrome.read_bytes(), jsonl.read_bytes()


def test_observed_batch_runs_the_kernel_and_matches_scalar(
    trace, tmp_path, monkeypatch
):
    scalar_tracer, scalar_metrics = _observed(
        lambda: [simulate(trace, config) for config in CONFIGS]
    )

    def oracle_forbidden(self, *args, **kwargs):
        raise AssertionError("observed batch fell back to the scalar core")

    monkeypatch.setattr(SuperscalarCore, "run", oracle_forbidden)
    batch_tracer, batch_metrics = _observed(lambda: run_batch(trace, CONFIGS))

    assert len(batch_tracer.events) > 0
    assert _export_bytes(batch_tracer, tmp_path, "batch") == _export_bytes(
        scalar_tracer, tmp_path, "scalar"
    )
    assert batch_metrics == scalar_metrics
    assert batch_metrics["counters"]["core.instructions_total"] == 3 * len(trace)


def test_observe_records_nothing_when_disabled(trace):
    runtime.observe(simulate(trace, CoreConfig()))
    assert runtime.drain_trace() is None
    assert runtime.drain_metrics() is None


def _in_simulation_loop(tree, target) -> bool:
    """Whether *target* sits in a cycle loop: any ``while`` loop, or a
    ``for`` loop that constructs miss events."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        inside = list(ast.walk(node))
        if not any(child is target for child in inside):
            continue
        if isinstance(node, ast.While) or any(
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id.endswith("Event")
            for child in inside
        ):
            return True
    return False


@pytest.mark.parametrize(
    "relpath", ["pipeline/core.py", "pipeline/inorder.py", "perf/batchcore.py"]
)
def test_cores_use_obs_only_through_post_run_observe(relpath):
    tree = ast.parse((SRC / relpath).read_text())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro.obs"
        ):
            assert node.module == "repro.obs", ast.dump(node)
            assert [alias.name for alias in node.names] == ["runtime"]
            aliases.add(node.names[0].asname or "runtime")
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro.obs") for a in node.names)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        assert name not in ("current_tracer", "current_metrics"), relpath
    uses = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    calls = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert uses, f"{relpath} never calls observe()"
    for use in uses:
        assert use.attr == "observe" and id(use) in calls, relpath
        assert not _in_simulation_loop(tree, use), relpath
