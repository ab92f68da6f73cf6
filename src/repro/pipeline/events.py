"""Miss-event records emitted by the timing simulator.

These are the raw material of interval analysis: each event carries the
dynamic instruction index (``seq``) and the cycles needed to segment
execution into inter-miss intervals and to decompose penalties.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, Type

#: Short tags naming the three event classes in stored payloads and
#: trace exports.
KIND_BPRED = "bpred"
KIND_ICACHE = "icache"
KIND_LONG_DMISS = "long_dmiss"


class MissEventKind(enum.Enum):
    """The paper's three miss-event types."""

    BRANCH_MISPREDICT = "branch_mispredict"
    ICACHE_MISS = "icache_miss"
    LONG_DCACHE_MISS = "long_dcache_miss"


@dataclass(frozen=True)
class MissEvent:
    """Base fields shared by all miss events."""

    seq: int
    cycle: int  # cycle the event's instruction entered the window

    tag: ClassVar[str]

    @property
    def kind(self) -> MissEventKind:
        raise NotImplementedError


@dataclass(frozen=True)
class BranchMispredictEvent(MissEvent):
    """A mispredicted conditional branch (or jump target miss).

    ``resolve_cycle`` is when the branch executed; the resolution time
    (``resolve_cycle - cycle``) plus the frontend refill is the paper's
    misprediction penalty. ``window_occupancy`` is the number of
    instructions in the ROB when the branch dispatched — the quantity
    contributor C2 (instructions since last miss event) controls.
    ``wrong_path_instructions`` counts the ghost instructions dispatched
    behind the branch before it resolved; it is nonzero only in
    wrong-path dispatch mode.
    """

    resolve_cycle: int = 0
    refill_cycles: int = 0
    window_occupancy: int = 0
    wrong_path_instructions: int = 0

    tag: ClassVar[str] = KIND_BPRED

    @property
    def kind(self) -> MissEventKind:
        return MissEventKind.BRANCH_MISPREDICT

    @property
    def resolution(self) -> int:
        """Branch resolution time in cycles (dispatch -> execute)."""
        return self.resolve_cycle - self.cycle

    @property
    def penalty(self) -> int:
        """Total misprediction penalty: resolution + frontend refill."""
        return self.resolution + self.refill_cycles


@dataclass(frozen=True)
class ICacheMissEvent(MissEvent):
    """An instruction-cache miss stalling the frontend."""

    latency: int = 0
    long_miss: bool = False  # True when the line came from memory

    tag: ClassVar[str] = KIND_ICACHE

    @property
    def kind(self) -> MissEventKind:
        return MissEventKind.ICACHE_MISS


@dataclass(frozen=True)
class LongDMissEvent(MissEvent):
    """A load that missed in L2 (served by main memory)."""

    complete_cycle: int = 0

    tag: ClassVar[str] = KIND_LONG_DMISS

    @property
    def kind(self) -> MissEventKind:
        return MissEventKind.LONG_DCACHE_MISS

    @property
    def latency(self) -> int:
        return self.complete_cycle - self.cycle


#: Event class by tag, for decoding stored payloads.
EVENT_CLASSES: Dict[str, Type[MissEvent]] = {
    cls.tag: cls for cls in (BranchMispredictEvent, ICacheMissEvent, LongDMissEvent)
}
