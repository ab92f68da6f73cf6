"""Trace container and descriptive statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.isa.opcodes import OpClass
from repro.trace.record import TraceRecord
from repro.util.stats import Histogram

if TYPE_CHECKING:
    from repro.perf.packed import PackedTrace


@dataclass
class TraceStatistics:
    """Descriptive statistics of a dynamic trace.

    These are exactly the quantities the synthetic generator is
    parameterized on, which lets tests close the loop: generate a trace
    from a profile, measure it, and check the statistics match.
    """

    instruction_count: int
    mix: Dict[str, float]
    branch_count: int
    taken_fraction: float
    mispredict_count: int
    mispredictions_per_ki: float
    il1_misses_per_ki: float
    dl1_miss_rate: float
    dl2_miss_rate: float
    mean_dependence_distance: float
    dependence_histogram: Histogram = field(repr=False)

    @property
    def mispredict_rate(self) -> float:
        """Mispredictions per conditional branch."""
        if not self.branch_count:
            return 0.0
        return self.mispredict_count / self.branch_count


class Trace:
    """An ordered sequence of :class:`TraceRecord` with metadata.

    ``packed`` hands over the trace's columnar form when the producer
    built it alongside the records (the synthetic generator does), so
    :meth:`pack` need not walk them; it must match the records.
    """

    def __init__(
        self,
        records: Optional[Sequence[TraceRecord]] = None,
        name: str = "trace",
        packed: Optional["PackedTrace"] = None,
    ):
        self.records: List[TraceRecord] = list(records) if records else []
        self.name = name
        self._version = 0
        self._stats_cache: Optional[TraceStatistics] = None
        if packed is not None and (
            len(packed) != len(self.records) or packed.name != name
        ):
            raise ValueError(
                f"packed form {packed!r} does not match trace {name!r} "
                f"of {len(self.records)} records"
            )
        self._packed_cache = packed

    @property
    def version(self) -> int:
        """Mutation counter; bumped by :meth:`append` / :meth:`extend`.

        Derived-value caches (statistics, packed form, reachability
        sets) key on this to notice when the record list has grown.
        """
        return self._version

    def _invalidate(self) -> None:
        self._version += 1
        self._stats_cache = None
        self._packed_cache = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    def append(self, record: TraceRecord) -> None:
        self.records.append(record)
        self._invalidate()

    def extend(self, records: Sequence[TraceRecord]) -> None:
        self.records.extend(records)
        self._invalidate()

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a sub-trace. Dependences reaching before ``start`` are
        clipped to distance ``start`` offsets (treated as already
        complete by the simulator), so slicing is always safe."""
        return Trace(self.records[start:stop], name=f"{self.name}[{start}:{stop}]")

    @property
    def is_annotated(self) -> bool:
        """True when branch records carry oracle mispredict flags."""
        return all(
            record.mispredict is not None
            for record in self.records
            if record.is_branch
        )

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for i, record in enumerate(self.records):
            if any(d < 1 for d in record.deps):
                raise ValueError(f"record {i}: non-positive dependence distance")
            if record.is_memory and record.mem_addr is None:
                raise ValueError(f"record {i}: memory op without address")

    def statistics(self) -> TraceStatistics:
        """Descriptive statistics over the whole trace.

        Memoized: the lab bills this per job, so repeated calls on an
        unchanged trace return the same object. :meth:`append` /
        :meth:`extend` invalidate the cache. Treat the result as
        read-only — it is shared between callers.
        """
        if self._stats_cache is None:
            self._stats_cache = self._compute_statistics()
        return self._stats_cache

    def pack(self):
        """This trace in columnar form (:class:`repro.perf.packed.
        PackedTrace`), memoized with the same invalidation as
        :meth:`statistics`."""
        if self._packed_cache is None:
            from repro.perf.packed import PackedTrace

            self._packed_cache = PackedTrace.pack(self)
        return self._packed_cache

    def _compute_statistics(self) -> TraceStatistics:
        mix_counts: Dict[str, int] = {}
        branch_count = 0
        taken_count = 0
        mispredict_count = 0
        il1_count = 0
        load_count = 0
        dl1_count = 0
        dl2_count = 0
        dep_hist = Histogram()
        for record in self.records:
            key = record.op_class.value
            mix_counts[key] = mix_counts.get(key, 0) + 1
            for dist in record.deps:
                dep_hist.add(dist)
            if record.is_branch:
                branch_count += 1
                taken_count += int(record.taken)
                mispredict_count += int(bool(record.mispredict))
            if record.il1_miss:
                il1_count += 1
            if record.is_load:
                load_count += 1
                dl1_count += int(bool(record.dl1_miss))
                dl2_count += int(bool(record.dl2_miss))
        n = len(self.records)
        per_ki = 1000.0 / n if n else 0.0
        return TraceStatistics(
            instruction_count=n,
            mix={k: v / n for k, v in mix_counts.items()} if n else {},
            branch_count=branch_count,
            taken_fraction=taken_count / branch_count if branch_count else 0.0,
            mispredict_count=mispredict_count,
            mispredictions_per_ki=mispredict_count * per_ki,
            il1_misses_per_ki=il1_count * per_ki,
            dl1_miss_rate=dl1_count / load_count if load_count else 0.0,
            dl2_miss_rate=dl2_count / load_count if load_count else 0.0,
            mean_dependence_distance=dep_hist.mean,
            dependence_histogram=dep_hist,
        )

    def branch_indices(self) -> List[int]:
        """Indices of conditional branches."""
        return [i for i, r in enumerate(self.records) if r.is_branch]

    def mispredicted_indices(self) -> List[int]:
        """Indices of annotated mispredicted branches."""
        return [
            i for i, r in enumerate(self.records) if r.is_branch and r.mispredict
        ]

    def critical_path_length(self, latency_of=None) -> int:
        """Dataflow critical path length of the whole trace, in cycles.

        ``latency_of`` maps an :class:`OpClass` to an execution latency;
        the default charges one cycle per instruction, which yields the
        classic dataflow-limit measure of inherent ILP.
        """
        if latency_of is None:
            latency_of = lambda op_class: 1  # noqa: E731 - tiny default
        finish: List[int] = []
        longest = 0
        for i, record in enumerate(self.records):
            start = 0
            for dist in record.deps:
                producer = i - dist
                if producer >= 0:
                    start = max(start, finish[producer])
            done = start + latency_of(record.op_class)
            finish.append(done)
            longest = max(longest, done)
        return longest

    def dataflow_ipc(self, latency_of=None) -> float:
        """Instructions per cycle at the dataflow limit (infinite window)."""
        if not self.records:
            return 0.0
        length = self.critical_path_length(latency_of)
        return len(self.records) / length if length else float(len(self.records))
