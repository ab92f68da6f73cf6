"""Tests of the benchmark's own code (schedule, digests, span arithmetic).

Run from the repository root: ``python -m pytest e2ebench/tests``.
"""

import math
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads as wl  # noqa: E402
from spans import (  # noqa: E402
    Patcher,
    Span,
    SpanRecorder,
    covered_ns,
    self_times_s,
    unattributed_share,
)


# -- schedule ---------------------------------------------------------

def _count(schedule, cls):
    return sum(1 for steps in schedule for step in steps if step.cls == cls)


def test_schedule_is_deterministic_per_seed():
    assert wl.build_schedule(7, 10) == wl.build_schedule(7, 10)
    assert wl.build_schedule(7, 10) != wl.build_schedule(8, 10)


@pytest.mark.parametrize("seconds", [1, 5, 10, 30])
def test_class_sizes_leave_ten_samples_beyond_each_tail(seconds):
    schedule = wl.build_schedule(3, seconds)
    for cls, q in wl.TAIL_Q.items():
        n = _count(schedule, cls)
        beyond = math.floor(round(n * (1.0 - q), 9))
        assert beyond >= wl.TAIL_SAMPLES, (cls, n)


def test_longer_runs_extend_the_key_lists():
    short, long = wl._client_keys(4, 10), wl._client_keys(4, 20)
    for short_lists, long_lists in zip(short[:2], long[:2]):
        for a, b in zip(short_lists, long_lists):
            assert b[: len(a)] == a
    assert long[2][: len(short[2])] == short[2]


def test_schedule_keeps_pairs_in_step_and_warm_keys_answered():
    schedule = wl.build_schedule(11, 10)
    pair_orders = [[s.key for s in steps if s.pair] for steps in schedule]
    assert pair_orders[0] and all(order == pair_orders[0] for order in pair_orders)
    for steps in schedule:
        answered = set()
        for step in steps:
            if step.cls == "warm":
                assert step.key in answered
            answered.add(step.key)
    firsts = [s.key for steps in schedule for s in steps if s.cls != "warm" and not s.pair]
    assert len(firsts) == len(set(firsts))


# -- digests ----------------------------------------------------------

def test_digest_rounds_to_six_significant_digits():
    assert wl.digest([1.0000001, 2.5e-9]) == wl.digest([1.0, 2.50000004e-9])
    assert wl.digest([1.00001]) != wl.digest([1.0])
    assert wl.canonical(-0.0) == 0.0 and wl.digest(-1e-300 * 1e-300) == wl.digest(0.0)


def test_digest_is_stable_across_types_and_key_order():
    np = pytest.importorskip("numpy")
    assert wl.digest({"a": np.float64(0.1) * 3, "b": (1, 2)}) == wl.digest(
        {"b": [1, 2], "a": 0.30000000000000004}
    )
    assert wl.digest({"x": 1}) == wl.digest({"x": 1})


def test_percentile_interpolates():
    assert wl.percentile([], 0.5) == 0.0
    assert wl.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert wl.percentile(list(range(101)), 0.99) == pytest.approx(99.0)


# -- spans ------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    root = Span("a", 0, 100)
    child = Span("b", 10, 40, parent=root)
    grandchild = Span("c", 15, 25, parent=child)
    sibling = Span("b", 50, 70, parent=root)
    own = self_times_s([root, child, grandchild, sibling])
    assert own == {"a": 50e-9, "b": 40e-9, "c": 10e-9}
    assert sum(own.values()) == pytest.approx(100e-9)


def test_recorder_nests_spans_per_thread():
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent is by_name["outer"]
    assert self_times_s(rec.spans) == {"outer": 20e-9, "inner": 10e-9}

    def worker():
        inner()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    assert rec.spans[-1].parent is None
    rec.stop()
    inner()
    assert len(rec.spans) == 3


def test_unattributed_share_unions_overlapping_roots():
    spans = [Span("x", 0, 40), Span("y", 20, 60), Span("z", 30, 35, parent=Span("x", 0, 40))]
    assert covered_ns([(0, 40), (20, 60)], 0, 100) == 60
    assert unattributed_share(spans, 0, 100) == pytest.approx(0.4)
    assert unattributed_share(spans, 10, 50) == 0.0


def test_patcher_rebinds_every_by_name_import():
    def original():
        return 1

    pkg = types.ModuleType("e2efake")
    user = types.ModuleType("e2efake.user")
    pkg.original = original
    user.fn = original
    sys.modules.update({"e2efake": pkg, "e2efake.user": user})
    try:
        patcher = Patcher("e2efake")
        sites = patcher.replace_everywhere(original, lambda: 2)
        assert sites == ["e2efake.original", "e2efake.user.fn"]
        assert user.fn() == 2 and pkg.original() == 2
        patcher.restore()
        assert user.fn is original and pkg.original is original
    finally:
        del sys.modules["e2efake"], sys.modules["e2efake.user"]


def test_stale_read_guard_flags_reads_of_keys_this_run_never_wrote(tmp_path):
    from repro.lab.store import ResultStore

    ResultStore(root=tmp_path).put("a" * 64, {"v": 1})
    guard, patcher = wl.StaleReadGuard(), Patcher()
    guard.install(patcher)
    try:
        store = ResultStore(root=tmp_path)
        assert store.get("a" * 64) == {"v": 1}
        store.put("b" * 64, {"v": 2})
        assert store.get("b" * 64) == {"v": 2}
        assert store.get("c" * 64) is None
    finally:
        patcher.restore()
    assert guard.stale == ["a" * 64]


# -- reference loop ---------------------------------------------------

def test_reference_loop_does_fixed_work():
    assert reference.reference_loop(1000) == reference.reference_loop(1000)
    assert reference.reference_loop(2000) > reference.reference_loop(1000)


def test_scale_is_the_square_root_of_the_reference_over_the_median():
    ref = reference.REFERENCE_S
    assert reference.scale([ref, ref * 4, ref * 4]) == pytest.approx(0.5)
    assert reference.scale([ref / 4]) == pytest.approx(2.0)


def test_interleaved_slices_run_inside_the_block_only():
    speed = reference.HostSpeed()
    with speed.interleaved(period_s=0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(speed.samples)
    time.sleep(0.05)
    assert taken >= 2 and len(speed.samples) == taken
    assert speed.spent_s == pytest.approx(sum(speed.samples))
