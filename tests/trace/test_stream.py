"""Unit tests for the Trace container and its statistics."""

import pytest

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace


def _ialu(deps=()):
    return TraceRecord(OpClass.IALU, deps=deps)


def _branch(mispredict=None, taken=False):
    return TraceRecord(OpClass.BRANCH, taken=taken, mispredict=mispredict)


class TestContainer:
    def test_append_and_len(self):
        trace = Trace()
        trace.append(_ialu())
        trace.extend([_ialu(), _ialu()])
        assert len(trace) == 3

    def test_indexing_and_iter(self):
        records = [_ialu(), _branch()]
        trace = Trace(records)
        assert trace[1].is_branch
        assert list(trace) == records

    def test_slice(self):
        trace = Trace([_ialu() for _ in range(10)])
        sub = trace.slice(2, 5)
        assert len(sub) == 3

    def test_validate_passes(self):
        Trace([_ialu(deps=(1,)), _ialu()]).validate()


class TestAnnotationDetection:
    def test_annotated_when_branches_flagged(self):
        trace = Trace([_ialu(), _branch(mispredict=False)])
        assert trace.is_annotated

    def test_unannotated_when_flags_missing(self):
        trace = Trace([_branch(mispredict=None)])
        assert not trace.is_annotated

    def test_trace_without_branches_is_annotated(self):
        assert Trace([_ialu()]).is_annotated


class TestStatistics:
    def test_counts(self):
        trace = Trace(
            [
                _ialu(deps=(1,)),
                _branch(mispredict=True, taken=True),
                _branch(mispredict=False, taken=False),
                TraceRecord(OpClass.LOAD, mem_addr=8, dl1_miss=True),
            ]
        )
        stats = trace.statistics()
        assert stats.instruction_count == 4
        assert stats.branch_count == 2
        assert stats.mispredict_count == 1
        assert stats.mispredict_rate == pytest.approx(0.5)
        assert stats.taken_fraction == pytest.approx(0.5)
        assert stats.dl1_miss_rate == pytest.approx(1.0)

    def test_mix_sums_to_one(self):
        trace = Trace([_ialu(), _branch(), TraceRecord(OpClass.LOAD, mem_addr=0)])
        assert sum(trace.statistics().mix.values()) == pytest.approx(1.0)

    def test_empty_trace_statistics(self):
        stats = Trace().statistics()
        assert stats.instruction_count == 0
        assert stats.mispredict_rate == 0.0

    def test_dependence_histogram(self):
        trace = Trace([_ialu(), _ialu(deps=(1,)), _ialu(deps=(2, 1))])
        stats = trace.statistics()
        assert stats.dependence_histogram.count(1) == 2
        assert stats.dependence_histogram.count(2) == 1

    def test_indices_helpers(self):
        trace = Trace([_ialu(), _branch(mispredict=True), _branch(mispredict=False)])
        assert trace.branch_indices() == [1, 2]
        assert trace.mispredicted_indices() == [1]


class TestCriticalPath:
    def test_serial_chain(self):
        records = [_ialu(deps=(1,) if i else ()) for i in range(50)]
        assert Trace(records).critical_path_length() == 50

    def test_independent_instructions(self):
        records = [_ialu() for _ in range(50)]
        assert Trace(records).critical_path_length() == 1

    def test_distance_two_halves_path(self):
        records = [_ialu(deps=(2,) if i >= 2 else ()) for i in range(100)]
        assert Trace(records).critical_path_length() == 50

    def test_latency_function(self):
        records = [_ialu(deps=(1,) if i else ()) for i in range(10)]
        cp = Trace(records).critical_path_length(lambda op: 3)
        assert cp == 30

    def test_dataflow_ipc(self):
        records = [_ialu(deps=(2,) if i >= 2 else ()) for i in range(100)]
        assert Trace(records).dataflow_ipc() == pytest.approx(2.0)

    def test_dataflow_ipc_empty(self):
        assert Trace().dataflow_ipc() == 0.0


class TestStatisticsMemoization:
    def test_statistics_cached_until_mutation(self):
        trace = Trace([_ialu(), _branch(taken=True)])
        first = trace.statistics()
        assert trace.statistics() is first  # memoized object

        trace.append(_ialu())
        second = trace.statistics()
        assert second is not first
        assert second.instruction_count == 3

    def test_extend_invalidates(self):
        trace = Trace([_ialu()])
        first = trace.statistics()
        trace.extend([_branch(taken=True)])
        assert trace.statistics() is not first
        assert trace.statistics().branch_count == 1

    def test_version_counts_mutations(self):
        trace = Trace()
        start = trace.version
        trace.append(_ialu())
        trace.extend([_ialu(), _ialu()])
        assert trace.version == start + 2

    def test_pack_cached_until_mutation(self):
        trace = Trace([_ialu(), _branch(taken=True)])
        packed = trace.pack()
        assert trace.pack() is packed
        trace.append(_ialu())
        repacked = trace.pack()
        assert repacked is not packed
        assert len(repacked) == 3

    def test_memoized_statistics_match_fresh_computation(self):
        trace = Trace([_ialu(deps=(1,) if i else ()) for i in range(20)])
        assert trace.statistics() == trace._compute_statistics()


class TestBornPacked:
    def _packed(self, records, name):
        from repro.perf.packed import PackedTrace

        return PackedTrace.pack(Trace(records, name=name))

    def test_packed_form_is_served_without_repacking(self, monkeypatch):
        from repro.perf.packed import PackedTrace

        records = [_ialu(), _branch(taken=True)]
        packed = self._packed(records, "t")
        trace = Trace(records, name="t", packed=packed)

        def no_pack(cls, trace):
            raise AssertionError("born-packed trace was repacked")

        monkeypatch.setattr(PackedTrace, "pack", classmethod(no_pack))
        assert trace.pack() is packed

    def test_mutation_drops_the_packed_form(self):
        records = [_ialu(), _branch(taken=True)]
        packed = self._packed(records, "t")
        trace = Trace(records, name="t", packed=packed)
        trace.append(_ialu())
        repacked = trace.pack()
        assert repacked is not packed
        assert len(repacked) == 3

    def test_length_mismatch_rejected(self):
        packed = self._packed([_ialu()], "t")
        with pytest.raises(ValueError, match="does not match"):
            Trace([_ialu(), _ialu()], name="t", packed=packed)

    def test_name_mismatch_rejected(self):
        packed = self._packed([_ialu()], "t")
        with pytest.raises(ValueError, match="does not match"):
            Trace([_ialu()], name="other", packed=packed)
