"""Shared fixtures: small deterministic traces, configs, simulations."""

from __future__ import annotations

import os

import pytest

from repro.analysis import sanitizer
from repro.obs import runtime as obs_runtime
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.resilience import faults
from repro.trace.profiles import WorkloadProfile
from repro.trace.synthetic import generate_trace


@pytest.fixture(autouse=True)
def _obs_isolated():
    """No test inherits (or leaks) ambient observability state."""
    obs_runtime.reset()
    yield
    obs_runtime.reset()


@pytest.fixture(autouse=True)
def _sanitizer_isolated(monkeypatch):
    """No test inherits (or leaks) an ambient sanitizer: ``enable()``
    exports ``REPRO_SANITIZE``, which ``reset()`` leaves in place."""
    monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
    sanitizer.reset()
    yield
    sanitizer.reset()
    os.environ.pop(sanitizer.ENV_VAR, None)


@pytest.fixture(autouse=True)
def _faults_isolated():
    """No test inherits (or leaks) an ambient fault-injection plan."""
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="session")
def base_profile() -> WorkloadProfile:
    return WorkloadProfile(name="fixture")


@pytest.fixture(scope="session")
def small_trace(base_profile):
    """10k-instruction deterministic trace shared across tests."""
    return generate_trace(base_profile, 10_000, seed=1234)


@pytest.fixture(scope="session")
def base_config() -> CoreConfig:
    return CoreConfig()


@pytest.fixture(scope="session")
def small_result(small_trace, base_config):
    """Baseline simulation of the shared trace."""
    return simulate(small_trace, base_config)
