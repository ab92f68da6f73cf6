"""Structured event tracing for the simulators.

The first pillar of ``repro.obs``. A trace is the miss events of the
observed simulations — the same :class:`~repro.pipeline.events.MissEvent`
records a :class:`~repro.pipeline.result.SimulationResult` carries,
appended once per finished run by :func:`repro.obs.runtime.observe` —
plus :class:`InstantEvent` markers at interval boundaries. The exports
(:mod:`repro.obs.export`) draw each event as a timeline span: a branch
mispredict runs from dispatch through resolution to the end of the
frontend refill, so its duration *is* the penalty the paper decomposes.

``Tracer`` is the no-op default. ``RecordingTracer`` buffers everything
in memory for export or direct inspection in tests.

All timestamps are simulated cycles, never wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Union

if TYPE_CHECKING:
    from repro.pipeline.events import MissEvent

ArgValue = Union[int, float, str]


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (e.g. an interval boundary)."""

    name: str
    cycle: int
    args: Dict[str, ArgValue] = field(default_factory=dict)


class Tracer:
    """No-op tracer; the default when tracing is disabled."""

    enabled = False

    def record(self, events: Iterable["MissEvent"]) -> None:
        pass

    def instant(self, name: str, cycle: int, **args: ArgValue) -> None:
        pass


class RecordingTracer(Tracer):
    """Buffers miss events and instants in memory, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.events: List["MissEvent"] = []
        self.instants: List[InstantEvent] = []

    def record(self, events: Iterable["MissEvent"]) -> None:
        self.events.extend(events)

    def instant(self, name: str, cycle: int, **args: ArgValue) -> None:
        self.instants.append(InstantEvent(name=name, cycle=cycle, args=args))

    def events_of_kind(self, kind: str) -> List["MissEvent"]:
        return [event for event in self.events if event.tag == kind]

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for event in self.events:
            tally[event.tag] = tally.get(event.tag, 0) + 1
        return tally

    def __len__(self) -> int:
        return len(self.events) + len(self.instants)
