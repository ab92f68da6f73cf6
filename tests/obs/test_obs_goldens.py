"""Byte goldens for the miss-event trace exports and the core metrics.

One traced, metered run per (setup, workload): gzip and mcf at 6000
instructions, seed 2006, on the out-of-order core, the in-order core,
and the out-of-order core with wrong-path ghost dispatch (the only
setup where ``wrong_path_instructions`` is nonzero). Each run's Chrome
trace JSON, JSONL export and rendered metrics snapshot are committed
under ``tests/obs/golden/``; the test regenerates them and compares
bytes, so any change to what an observed run exports is deliberate.

Regenerate after an intended change with::

    PYTHONPATH=src python tests/obs/test_obs_goldens.py
"""

from __future__ import annotations

import json
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict

import pytest

from repro.obs import runtime
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.metrics import render_snapshot
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES

GOLDEN_DIR = Path(__file__).parent / "golden"
LENGTH = 6_000
SEED = 2006
WORKLOADS = ("gzip", "mcf")
SETUPS = {
    "ooo": lambda trace: simulate(trace, CoreConfig()),
    "inorder": lambda trace: simulate_inorder(trace, CoreConfig()),
    "wrongpath": lambda trace: simulate(
        trace, CoreConfig(dispatch_wrong_path=True)
    ),
}


@lru_cache(maxsize=None)
def _trace(workload: str):
    return generate_trace(SPEC_PROFILES[workload], LENGTH, seed=SEED)


def render_goldens(setup: str, workload: str) -> Dict[str, bytes]:
    """The three export artifacts of one observed run, by file name."""
    runtime.reset()
    runtime.enable_tracing()
    runtime.enable_metrics()
    try:
        SETUPS[setup](_trace(workload))
        tracer = runtime.drain_trace()
        snapshot = runtime.drain_metrics()
    finally:
        runtime.reset()
    stem = f"{setup}-{workload}"
    with tempfile.TemporaryDirectory() as tmp:
        chrome = Path(tmp) / "trace.json"
        jsonl = Path(tmp) / "trace.jsonl"
        write_chrome_trace(tracer, chrome, label=f"repro-sim:{workload}")
        write_jsonl(tracer, jsonl)
        return {
            f"{stem}.trace.json": chrome.read_bytes(),
            f"{stem}.jsonl": jsonl.read_bytes(),
            f"{stem}.metrics.txt": render_snapshot(snapshot).encode(),
        }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_exports_match_goldens(setup, workload):
    for name, data in render_goldens(setup, workload).items():
        assert data == (GOLDEN_DIR / name).read_bytes(), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_only_the_wrong_path_goldens_count_ghosts(workload):
    def ghosts(setup):
        lines = (GOLDEN_DIR / f"{setup}-{workload}.jsonl").read_text()
        return sum(
            json.loads(line).get("wrong_path_instructions", 0)
            for line in lines.splitlines()
        )

    assert ghosts("wrongpath") > 0
    assert ghosts("ooo") == ghosts("inorder") == 0


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for setup_name in sorted(SETUPS):
        for workload_name in WORKLOADS:
            for file_name, payload in render_goldens(
                setup_name, workload_name
            ).items():
                (GOLDEN_DIR / file_name).write_bytes(payload)
                print(f"wrote {GOLDEN_DIR / file_name}")
