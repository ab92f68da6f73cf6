"""A fixed reference loop that measures how fast the host runs right now.

The host this benchmark runs on is shared. Its speed wobbles by 25%
from one tenth of a second to the next and drifts by up to 1.8x over
minutes: one ``paper_cold`` pass took 37 s, then 21 s ten minutes
later. Medians over a run cannot remove a drift longer than the run.

So an untraced ``paper_cold`` pass also runs one short slice of this
loop every ``PERIOD_S``, from a timer signal in its main thread, and
the pass's times are reported scaled by :func:`scale` of the slices'
median. The slices' own time is taken out of the pass's times. The loop
is the benchmark's own code and never changes with the program, so a
change to the program moves a scaled time by the same factor as the raw
one; a change in host speed moves the slices too and mostly cancels.

Mostly, because the loop reacts more strongly to the host's phases than
the simulator does: where a pass got 1.36x faster the slices got 1.77x
faster, and over four minutes in which a sweep point slowed 1.56x the
loop slowed 1.69x. Scaling by the full ratio would turn such a phase
change round rather than cancel it; its square root takes out most of
it without overshooting (see README.md).

The loop does the kind of work the simulator does in pure Python:
small slotted objects, a sliding window in a list, dict lookups keyed by
sequence number, attribute reads and calls.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from typing import Any, Iterator, List, Sequence

#: Items one slice of the reference loop retires.
SLICE_ITEMS = 30_000
#: Slice seconds at which the scale is 1 (between a slice's median in
#: the baseline host's fast and slow phases, 0.022 and 0.040 s).
REFERENCE_S = 0.03
#: Seconds from the end of one interleaved slice to the next (a slice
#: takes 0.02-0.04 s, so slices take 4-7% of a pass).
PERIOD_S = 0.5
#: Window of in-flight items.
WINDOW = 64


class _Item:
    __slots__ = ("seq", "src", "ready")

    def __init__(self, seq: int, src: int, ready: int) -> None:
        self.seq = seq
        self.src = src
        self.ready = ready


def _latency(item: _Item) -> int:
    return 1 + (item.seq * 7 + item.src) % 5


def reference_loop(items: int = SLICE_ITEMS) -> int:
    """Run the toy pipeline; returns its final cycle (a fixed number)."""
    done = {}
    window: List[_Item] = []
    cycle = 0
    for seq in range(items):
        src = seq - 1 - seq % 13
        item = _Item(seq, src, done.get(src, 0))
        window.append(item)
        if len(window) > WINDOW:
            old = window.pop(0)
            cycle = max(cycle + 1, old.ready + _latency(old))
            done[old.seq] = cycle
    for old in window:
        cycle = max(cycle + 1, old.ready + _latency(old))
    return cycle


class HostSpeed:
    """Slice times, and the wall and CPU time the slices took."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def sample(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt
        self.spent_cpu_s += time.process_time() - c0

    @contextlib.contextmanager
    def interleaved(self, period_s: float = PERIOD_S) -> Iterator["HostSpeed"]:
        """A slice ``period_s`` after the last one ended, inside the block
        (main thread only). The timer is one-shot and re-armed after
        each slice, so a slice is never interrupted by the next one."""

        active = True

        def tick(signum: int, frame: Any) -> None:
            # A tick that lands after the block ended must not re-arm
            # the timer: the restored default action would kill us.
            if active:
                self.sample()
                signal.setitimer(signal.ITIMER_REAL, period_s)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, period_s)
        try:
            yield self
        finally:
            active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scale(samples: Sequence[float]) -> float:
    """Factor for measured seconds: ``sqrt(REFERENCE_S / median)``."""
    return math.sqrt(REFERENCE_S / statistics.median(samples))
