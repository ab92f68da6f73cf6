"""Column-oriented interval simulation.

:class:`VectorizedIntervalSimulator` is the packed-trace rewrite of
:class:`~repro.interval.fast_sim.FastIntervalSimulator`. Event
extraction (which records are miss events, their kinds, the
inter-event gaps, and each mispredict's window start) happens as whole-
column NumPy expressions, and every mispredicted branch's resolution
DP runs in lockstep across all windows at once
(:func:`_batch_resolutions`). The only remaining Python loop walks the
rare long D-cache misses for overlap merging.

The output is the very same :class:`~repro.interval.fast_sim.
FastEstimate` — equal in every field, including the float cycle
components, because every accumulation here is a sum of the same
integers the scalar path adds one at a time (exactly representable, so
the order of summation cannot change the value). The equivalence suite
asserts ``==`` on the full estimate, not approximate closeness.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.interval.fast_sim import FastEstimate
from repro.obs import runtime as _obs
from repro.perf.kernels import steady_latency_column
from repro.perf.packed import BRANCH_CODE, LOAD_CODE, PackedTrace
from repro.pipeline.config import CoreConfig
from repro.util.timing import Stopwatch

_BPRED, _ICACHE, _LONG = 0, 1, 2


class VectorizedIntervalSimulator:
    """One-pass interval simulation over a :class:`PackedTrace`."""

    def __init__(self, config: CoreConfig = CoreConfig()):
        self.config = config

    def estimate(self, packed: PackedTrace) -> FastEstimate:
        """Interval-simulate the packed trace; equals the scalar estimate."""
        watch = Stopwatch()
        config = self.config
        n = len(packed)

        # Event extraction: per-record kind with the same shadowing
        # priority as the scalar stream (bpred > icache > long).
        bpred = (packed.op == BRANCH_CODE) & (packed.mispredict == 1)
        icache = (packed.il1_miss == 1) & ~bpred
        long_miss = (
            (packed.op == LOAD_CODE)
            & (packed.dl2_miss == 1)
            & ~bpred
            & ~icache
        )
        event_seqs = np.flatnonzero(bpred | icache | long_miss)
        kinds = np.where(
            bpred[event_seqs], _BPRED, np.where(icache[event_seqs], _ICACHE, _LONG)
        )

        # Inter-event gaps -> each mispredict's window start, as columns.
        previous = np.empty(len(event_seqs), dtype=np.int64)
        previous[0:1] = -1
        previous[1:] = event_seqs[:-1]
        occupancy = np.minimum(event_seqs - previous - 1, config.rob_size)
        window_starts = np.maximum(0, event_seqs - occupancy)

        lat = steady_latency_column(packed, config)
        is_bpred_event = kinds == _BPRED
        resolutions = _batch_resolutions(
            window_starts[is_bpred_event],
            event_seqs[is_bpred_event],
            lat,
            packed.dep_indptr,
            packed.dep_data,
        )
        long_independent = self._walk_longs(
            kinds, event_seqs, packed.dep_indptr, packed.dep_data
        )

        mispredict_count = len(resolutions)
        icache_count = int(icache.sum())
        long_count = int(long_miss.sum())

        estimate = FastEstimate(
            instructions=n,
            base_cycles=n / config.dispatch_width,
            mispredict_cycles=float(
                sum(resolutions) + mispredict_count * config.frontend_depth
            ),
            icache_cycles=float(icache_count * config.l2_latency),
            long_dmiss_cycles=float(long_independent * config.memory_latency),
            mispredict_count=mispredict_count,
            icache_count=icache_count,
            long_dmiss_count=long_count,
            resolutions=resolutions,
            wall_seconds=watch.elapsed,
        )
        metrics = _obs.current_metrics()
        if metrics is not None:
            metrics.counter("fast_sim.estimates_total").inc()
            metrics.counter("fast_sim.mispredicts_total").inc(mispredict_count)
            metrics.counter("fast_sim.instructions_total").inc(n)
            metrics.counter("perf.vectorized_estimates_total").inc()
        san = _sanitizer.current()
        if san is not None:
            san.check_fast_estimate(estimate, config.frontend_depth)
        return estimate

    def _walk_longs(self, kinds, event_seqs, indptr_arr, dep_arr) -> int:
        """Scalar overlap-merging pass over the long-miss events only.

        Long misses are rare (tenths of a percent of records) and the
        dependence probe walks a short slice, so this stays a Python
        loop; everything per-record is already columnar by the time we
        get here.
        """
        rob_size = self.config.rob_size
        long_independent = 0
        previous_long = None
        for seq in event_seqs[kinds == _LONG].tolist():
            if (
                previous_long is None
                or seq - previous_long > rob_size
                or _reaches(indptr_arr, dep_arr, seq, previous_long)
            ):
                long_independent += 1
            previous_long = seq
        return long_independent


def _batch_resolutions(
    window_starts: np.ndarray,
    branch_seqs: np.ndarray,
    lat: np.ndarray,
    indptr: np.ndarray,
    dep: np.ndarray,
) -> List[int]:
    """Resolution latencies of every mispredicted branch, in lockstep.

    Each branch's resolution is the finish-time DP over its window
    ``[window_start, branch_seq]`` (equal to
    :func:`~repro.interval.ilp.backward_slice_latency`, since the
    branch's finish time depends only on its backward slice). Windows
    are independent of each other, so instead of running one Python DP
    per branch, all windows advance together: step ``t`` computes
    ``finish[t] = lat[t] + max(finish[t - d])`` for offset ``t`` of
    *every* window in a handful of whole-array operations.

    The dependence lists are re-laid into per-slot matrices (slot ``j``
    holds each record's ``j``-th dependence; real traces have at most
    two or three), producer offsets that fall before a window or do not
    exist point at a sentinel row that stays zero, and offsets past a
    window's branch compute garbage that nothing valid ever reads —
    valid cells only look strictly upstream within their own column.
    All arithmetic is int64, so results match the scalar DP exactly.
    """
    count = len(branch_seqs)
    if not count:
        return []
    sizes = (branch_seqs - window_starts + 1).astype(np.int64)
    steps = int(sizes.max())
    n = len(lat)

    # Global record index for (offset t, window w), clipped past the end.
    offsets = np.arange(steps, dtype=np.int64)[:, None]
    seq_at = np.minimum(window_starts[None, :] + offsets, n - 1)

    # Per-slot dependence distances for every record (0 = no dependence).
    counts = np.diff(indptr)
    max_slots = int(counts.max()) if len(counts) else 0
    producers = []
    for slot in range(max_slots):
        has = counts > slot
        dist = np.zeros(n, dtype=np.int64)
        dist[has] = dep[indptr[:-1][has] + slot]
        dist_at = dist[seq_at]
        prod = offsets - dist_at
        # Sentinel row `steps` (always zero) for absent slots and
        # producers upstream of the window.
        producers.append(np.where((dist_at <= 0) | (prod < 0), steps, prod))

    lat_at = lat[seq_at]
    cols = np.arange(count)
    finish = np.zeros((steps + 1, count), dtype=np.int64)
    for t in range(steps):
        begin = np.zeros(count, dtype=np.int64)
        for prod in producers:
            np.maximum(begin, finish[prod[t], cols], out=begin)
        finish[t] = begin + lat_at[t]
    return finish[sizes - 1, cols].tolist()


def _reaches(indptr_arr, dep_arr, consumer: int, producer: int) -> bool:
    """CSR transcription of ``FastIntervalSimulator._depends_on``.

    Offsets are relative to ``producer``: an upstream offset of 0 is a
    hit, negative offsets fall outside the explored range (the scalar
    BFS prunes there too).
    """
    indptr = indptr_arr[producer:consumer + 2].tolist()
    base = indptr[0]
    dep = dep_arr[base:indptr[-1]].tolist()
    frontier = [consumer - producer]
    seen = set()
    while frontier:
        offset = frontier.pop()
        for k in range(indptr[offset] - base, indptr[offset + 1] - base):
            upstream = offset - dep[k]
            if upstream == 0:
                return True
            if upstream > 0 and upstream not in seen:
                seen.add(upstream)
                frontier.append(upstream)
    return False
