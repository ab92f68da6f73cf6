"""The columnar generator against the scalar oracle, bit for bit.

``generate_trace`` draws every SplitMix child stream in NumPy blocks
and builds the records and the packed columns in one chunked pass;
``SyntheticTraceGenerator`` draws one value at a time and stays as the
oracle. Each case requires equal record lists and equal packed columns.
"""

import tracemalloc

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from repro.isa.opcodes import OpClass
from repro.perf.packed import PackedTrace
from repro.trace import columnar
from repro.trace.profiles import WorkloadProfile
from repro.trace.stream import Trace
from repro.trace.synthetic import SyntheticTraceGenerator, generate_trace
from repro.util.rng import (
    _GOLDEN,
    GEOMETRIC_CAP,
    SplitMix,
    splitmix_block,
    unit_floats,
)
from repro.workloads.spec_profiles import SPEC_PROFILES

CHUNK = columnar.CHUNK
ILP_DISTANCES = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0)


def assert_matches_oracle(profile, count, seed=0):
    trace = generate_trace(profile, count, seed=seed)
    oracle = SyntheticTraceGenerator(profile, seed=seed).generate(count)
    assert trace.name == oracle.name
    assert trace.records == oracle.records
    assert trace.pack().equals(PackedTrace.pack(oracle))


def draws_taken(rng, start):
    """How many outputs a SplitMix moved from state ``start`` took."""
    return (rng.state - start) * pow(_GOLDEN, -1, 1 << 64) % (1 << 64)


def assert_streams_in_step(profile, count, seed=0):
    """As :func:`assert_matches_oracle`, and each child stream's cursor
    ends where the oracle's generator state does."""
    generator = columnar.ColumnarGenerator(profile, seed)
    trace = generator.generate(count)
    oracle = SyntheticTraceGenerator(profile, seed=seed)
    assert trace.records == [oracle.generate_record() for _ in range(count)]
    assert trace.pack().equals(PackedTrace.pack(Trace(trace.records, profile.name)))
    root = SplitMix(seed)
    deps = generator._deps
    for label, rng, position in (
        ("ops", oracle._op_rng, generator._ops.offset),
        ("deps", oracle._dep_rng, deps._stream.offset + deps._cursor),
        ("branches", oracle._branch_rng, generator._branches.offset),
        ("memory", oracle._mem_rng, generator._memory.offset),
        ("icache", oracle._icache_rng, generator._icache.offset),
    ):
        assert position == draws_taken(rng, root.split(label).state), label


def ilp_profile(distance):
    return SPEC_PROFILES["parser"].with_overrides(
        name=f"ilp-{distance}", mean_dependence_distance=distance
    )


@pytest.mark.parametrize("name", sorted(SPEC_PROFILES))
def test_spec_profiles(name):
    assert_matches_oracle(SPEC_PROFILES[name], 5000, seed=2006)


@pytest.mark.parametrize("distance", ILP_DISTANCES)
def test_f6_ilp_points(distance):
    assert_matches_oracle(ilp_profile(distance), 5000, seed=17)


@pytest.mark.parametrize("count", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1])
def test_lengths_around_the_chunk(count):
    assert_matches_oracle(WorkloadProfile(name="len"), count, seed=5)


def test_born_packed_without_a_pack_call(monkeypatch):
    def no_pack(cls, trace):
        raise AssertionError("generated trace was repacked")

    monkeypatch.setattr(PackedTrace, "pack", classmethod(no_pack))
    trace = generate_trace(WorkloadProfile(name="p"), 500, seed=1)
    assert len(trace.pack()) == 500
    assert trace.pack().name == "p"


# Every parameter value at which a SplitMix.bernoulli or geometric call
# returns without drawing, so the stream cursors must not move.
NO_DRAW_EDGES = {
    "burst_off": dict(burst_fraction=0.0),
    "burst_always": dict(burst_fraction=1.0),
    "burst_sticky": dict(burst_persistence=1.0),
    "burst_enter_certain": dict(burst_fraction=0.7, burst_persistence=0.0),
    "burst_rate_clamped": dict(mispredict_rate=0.5, burst_factor=8.0),
    "mispredict_never": dict(mispredict_rate=0.0),
    "il1_never": dict(il1_mpki=0.0),
    "il1_always": dict(il1_mpki=1000.0),
    "stride_never": dict(stride_fraction=0.0),
    "stride_always": dict(stride_fraction=1.0),
    "second_never": dict(second_dep_fraction=0.0),
    "second_always": dict(second_dep_fraction=1.0),
    "chain_never": dict(chain_dep_fraction=0.0),
    "chain_always": dict(chain_dep_fraction=1.0),
    "taken_never": dict(branch_taken_fraction=0.0),
    "taken_always": dict(branch_taken_fraction=1.0),
    "local_distance_one": dict(mean_dependence_distance=1.0),
    "dcache_all_long": dict(dl1_miss_rate=0.0, dl2_miss_rate=1.0),
    "tiny_footprints": dict(code_footprint_bytes=3, data_footprint_bytes=9),
}


@pytest.mark.parametrize("edge", sorted(NO_DRAW_EDGES))
def test_no_draw_edges(edge):
    profile = WorkloadProfile(name=edge, **NO_DRAW_EDGES[edge])
    assert_streams_in_step(profile, 1500, seed=11)


def test_burst_rate_clamp_is_exercised():
    profile = WorkloadProfile(**NO_DRAW_EDGES["burst_rate_clamped"])
    assert profile.scaled_mispredict_rate(True) == 1.0
    assert profile.scaled_mispredict_rate(False) < 1.0


def test_geometric_cap():
    # With p = 2.5e-7, record 1's only dependence runs into
    # SplitMix.geometric's 2**20 cap: no success among the draws after
    # its extra-source roll, and that roll says one source.
    profile = WorkloadProfile(
        name="cap",
        mix={OpClass.IALU: 1.0},
        mean_dependence_distance=4e6,
        chain_dep_fraction=0.0,
        second_dep_fraction=0.5,
    )
    floats = unit_floats(
        splitmix_block(SplitMix(5).split("deps").state, 0, 1 + GEOMETRIC_CAP)
    )
    assert floats[0] >= profile.second_dep_fraction
    assert not (floats[1:] < profile.dependence_p).any()
    assert_streams_in_step(profile, 2, seed=5)


def _transient_bytes(fn):
    """Peak minus retained traced allocation of ``fn()``."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_transient_memory_within_the_oracle():
    # Whole-trace draw blocks once pushed the cold suite's peak RSS up
    # by a fifth; the chunked pass must stay under the scalar path. The
    # oracle is charged for its pack alone, the larger of its two peaks.
    profile = ilp_profile(12.0)
    columnar = _transient_bytes(lambda: generate_trace(profile, 40_000, seed=4))
    oracle = SyntheticTraceGenerator(profile, seed=4).generate(40_000)
    assert columnar <= _transient_bytes(lambda: PackedTrace.pack(oracle))


MIX_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
    min_size=len(OpClass) - 1,
    max_size=len(OpClass) - 1,
).filter(lambda ws: sum(ws) > 0)
UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def profiles(draw):
    weights = draw(MIX_WEIGHTS)
    total = sum(weights)
    classes = [c for c in OpClass if c is not OpClass.NOP]
    mix = {c: w / total for c, w in zip(classes, weights)}
    dl2 = draw(UNIT)
    dl1 = draw(st.floats(min_value=0.0, max_value=1.0 - dl2))
    assume(dl1 + dl2 <= 1.0)
    return WorkloadProfile(
        name="fuzz",
        mix=mix,
        mean_dependence_distance=draw(
            st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=24.0))
        ),
        chain_dep_fraction=draw(UNIT),
        second_dep_fraction=draw(UNIT),
        branch_taken_fraction=draw(UNIT),
        mispredict_rate=draw(UNIT),
        burst_factor=draw(st.floats(min_value=0.1, max_value=10.0)),
        burst_fraction=draw(UNIT),
        burst_persistence=draw(UNIT),
        il1_mpki=draw(st.one_of(st.sampled_from([0.0, 1000.0]),
                                st.floats(min_value=0.0, max_value=1000.0))),
        dl2_miss_rate=dl2,
        dl1_miss_rate=dl1,
        code_footprint_bytes=draw(st.integers(min_value=1, max_value=1 << 16)),
        data_footprint_bytes=draw(st.integers(min_value=1, max_value=1 << 22)),
        stride_fraction=draw(UNIT),
        stride_bytes=draw(st.integers(min_value=1, max_value=256)),
    )


@seed(2006)
@settings(max_examples=60, deadline=None)
@given(
    profile=profiles(),
    trace_seed=st.integers(min_value=0, max_value=2**64 - 1),
    count=st.integers(min_value=0, max_value=700),
)
def test_random_profiles_match_oracle(profile, trace_seed, count):
    assert_matches_oracle(profile, count, seed=trace_seed)
