"""Round-trip tests for the store's JSON codecs."""

import pytest

from repro.harness.experiment import ExperimentResult
from repro.lab.codec import (
    experiment_from_payload,
    experiment_to_payload,
    payload_from_value,
    result_from_payload,
    result_to_payload,
    value_from_payload,
)
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import simulate
from repro.trace.synthetic import generate_trace
from repro.workloads.spec_profiles import SPEC_PROFILES


@pytest.fixture(scope="module")
def sim_result():
    trace = generate_trace(SPEC_PROFILES["gzip"], 2_000, seed=9)
    return simulate(trace, CoreConfig())


class TestSimulationResultCodec:
    def test_roundtrip_is_faithful(self, sim_result):
        decoded = result_from_payload(result_to_payload(sim_result))
        assert decoded.instructions == sim_result.instructions
        assert decoded.cycles == sim_result.cycles
        assert decoded.events == sim_result.events
        assert decoded.dispatch_cycle == sim_result.dispatch_cycle
        assert decoded.issue_cycle == sim_result.issue_cycle
        assert decoded.complete_cycle == sim_result.complete_cycle
        assert decoded.commit_cycle == sim_result.commit_cycle
        assert decoded.fu_issue_counts == sim_result.fu_issue_counts
        assert decoded.rob_peak_occupancy == sim_result.rob_peak_occupancy
        assert decoded.squashed_ghosts == sim_result.squashed_ghosts

    def test_ghost_counts_stored_only_when_nonzero(self):
        trace = generate_trace(SPEC_PROFILES["gzip"], 2_000, seed=9)
        plain = result_to_payload(simulate(trace, CoreConfig()))
        assert not any("wrong_path_instructions" in e for e in plain["events"])
        ghosted = simulate(trace, CoreConfig(dispatch_wrong_path=True))
        payload = result_to_payload(ghosted)
        assert any("wrong_path_instructions" in e for e in payload["events"])
        assert result_from_payload(payload).events == ghosted.events

    def test_roundtrip_survives_json(self, sim_result):
        import json

        blob = json.dumps(result_to_payload(sim_result))
        decoded = result_from_payload(json.loads(blob))
        assert decoded.events == sim_result.events
        assert decoded.ipc == sim_result.ipc

    def test_interval_analysis_agrees_on_decoded_result(self, sim_result):
        from repro.interval.penalty import measure_penalties

        decoded = result_from_payload(result_to_payload(sim_result))
        a = measure_penalties(sim_result)
        b = measure_penalties(decoded)
        assert a.count == b.count
        assert a.mean_penalty == b.mean_penalty
        assert a.mean_resolution == b.mean_resolution

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            result_from_payload({"type": "experiment_result"})


class TestExperimentResultCodec:
    def test_roundtrip(self):
        result = ExperimentResult(
            experiment_id="f2",
            title="demo",
            headers=["a", "b"],
            rows=[["x", 1.5], ["y", 2.5]],
            series={"b": [1.5, 2.5]},
            notes="note",
        )
        decoded = experiment_from_payload(experiment_to_payload(result))
        assert decoded.experiment_id == result.experiment_id
        assert decoded.headers == list(result.headers)
        assert decoded.rows == [list(r) for r in result.rows]
        assert decoded.series == result.series
        assert decoded.notes == result.notes
        assert decoded.render() == result.render()

    def test_rejects_wrong_type(self):
        with pytest.raises(ValueError):
            experiment_from_payload({"type": "simulation_result"})


class TestGenericCodec:
    def test_dispatches_by_value_type(self, sim_result):
        payload = payload_from_value(sim_result)
        assert payload["type"] == "simulation_result"
        assert value_from_payload(payload).cycles == sim_result.cycles

    def test_unknown_value_raises(self):
        with pytest.raises(TypeError):
            payload_from_value(object())

    def test_unknown_payload_raises(self):
        with pytest.raises(ValueError):
            value_from_payload({"type": "mystery"})
