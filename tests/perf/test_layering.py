"""The perf layer sits below the lab and the serve plane.

``repro.perf`` and trace generation must load and run without pulling
in ``repro.lab`` or ``repro.serve``: a fresh interpreter imports them,
generates one trace, and reports what landed in ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys
import repro.perf
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace

generate_trace(WorkloadProfile(name="layering"), 200, seed=1).pack()
upper = sorted(
    name for name in sys.modules
    if name.split(".")[:2] in (["repro", "lab"], ["repro", "serve"])
)
print(",".join(upper))
"""


def test_perf_and_tracegen_do_not_load_lab_or_serve():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == ""
