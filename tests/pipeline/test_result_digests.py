"""Pinned digests of the stored result bytes of every detailed core.

``lab.codec.result_to_payload`` is what the store keeps, so its bytes
cover every field a refactor of the simulators could move: events,
per-instruction timelines, FU counts, ROB peak and ghost squashes. For
gzip and mcf at 6000 instructions, seed 2006, each core's payload
digest is pinned here; the batched core must reproduce the scalar
out-of-order digest exactly.

Print the current digests after an intended change with::

    PYTHONPATH=src python tests/pipeline/test_result_digests.py
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache

import pytest

from repro.lab.codec import result_to_payload
from repro.perf.batchcore import run_batch
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.pipeline.inorder import simulate_inorder
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES

LENGTH = 6_000
SEED = 2006

CORES = {
    "ooo": lambda trace: simulate(trace, CoreConfig()),
    "inorder": lambda trace: simulate_inorder(trace, CoreConfig()),
    "wrongpath": lambda trace: simulate(
        trace, CoreConfig(dispatch_wrong_path=True)
    ),
    "random": lambda trace: simulate(trace, CoreConfig(issue_policy="random")),
    "batched": lambda trace: run_batch(trace, [CoreConfig()])[0],
}

#: The batched core is pinned to the scalar out-of-order digest.
SAME_AS = {"batched": "ooo"}

DIGESTS = {
    ("inorder", "gzip"): "4476fc9809bc7856bca8497070cd72b3256ea403ad85e03b9ee18f8c6ef5c8d7",
    ("inorder", "mcf"): "f2e0ebe2fb85c966c6974e225199da50b706cbd800a959ab726768b46984d267",
    ("ooo", "gzip"): "1d0fa9479473ff9b57f874b0bb7b0eaa0b84318a40e28bd3ec35fcb5c10f2840",
    ("ooo", "mcf"): "7aa3c43bfeec03f274a1f1ed2b20fbef3d45daab0207061938f33f71a54686eb",
    ("random", "gzip"): "63fee427d8bccdc1dea1e0625b23954f821ccfcd8338ecece92a7a72c320e686",
    ("random", "mcf"): "c3b9494db7e54ff43346d4ade8ab2cf5c8250bc96f249c677ebed6ed9ff8f62a",
    ("wrongpath", "gzip"): "745bcafff3e72a6423afb68ea6e52de87b220a72e01d779c39c8580db7c02e92",
    ("wrongpath", "mcf"): "ca9d69405371a055422216ff7b2aa31859435912a5eeec9ca021cd266d462fec",
}

#: Wrong-path digests from before mispredict events carried their ghost
#: counts (``wrong_path_instructions``, stored only when nonzero).
#: Dropping that one key must reproduce them byte for byte.
WRONGPATH_DIGESTS_WITHOUT_GHOST_COUNTS = {
    "gzip": "0d9bef8a3a7bb453734c57461619f310eac208157934b4c7048e4bdd6f33a43c",
    "mcf": "356105f78f3432148fda17f366316b2f26b97d42ca44b622e197df6fa8bf5f1f",
}


@lru_cache(maxsize=None)
def _trace(workload: str):
    return generate_trace(SPEC_PROFILES[workload], LENGTH, seed=SEED)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(core: str, workload: str) -> str:
    return _digest(result_to_payload(CORES[core](_trace(workload))))


@pytest.mark.parametrize("workload", ["gzip", "mcf"])
@pytest.mark.parametrize("core", sorted(CORES))
def test_result_payload_digest_is_pinned(core, workload):
    pinned = DIGESTS[(SAME_AS.get(core, core), workload)]
    assert payload_digest(core, workload) == pinned


@pytest.mark.parametrize("workload", ["gzip", "mcf"])
def test_ghost_counts_are_the_only_wrong_path_payload_change(workload):
    payload = result_to_payload(CORES["wrongpath"](_trace(workload)))
    ghost_counts = [
        event.pop("wrong_path_instructions", 0) for event in payload["events"]
    ]
    assert sum(ghost_counts) > 0
    assert _digest(payload) == WRONGPATH_DIGESTS_WITHOUT_GHOST_COUNTS[workload]


if __name__ == "__main__":
    for workload_name in ("gzip", "mcf"):
        for core_name in sorted(CORES):
            if core_name not in SAME_AS:
                digest = payload_digest(core_name, workload_name)
                print(f'    ("{core_name}", "{workload_name}"): "{digest}",')
