"""Deterministic random number generation for reproducible experiments.

Every stochastic component in the library (synthetic trace generation,
random replacement, workload profiles) draws from an explicitly seeded
generator so that two runs with the same configuration produce identical
traces, identical miss events, and therefore identical measurements.

``SplitMix`` is a small, fast 64-bit generator (SplitMix64) with a
convenient ``split`` operation for deriving independent child streams.
We use it rather than ``random.Random`` where we want a stable algorithm
that cannot change across Python versions.

SplitMix64 is counter-based: output ``k`` of a generator seeded with
``state`` is ``mix(state + (k + 1) * golden)``. :func:`splitmix_block`
draws any run of outputs at once in NumPy, bit-identical to calling
:meth:`SplitMix.next_u64` that many times, and :func:`unit_floats` is
the vector form of :meth:`SplitMix.random`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Default cap of :meth:`SplitMix.geometric`.
GEOMETRIC_CAP = 1 << 20


def _mix(z: int) -> int:
    """The SplitMix64 finalizer: avalanche a 64-bit state into an output."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def splitmix_block(state: int, start: int, n: int) -> np.ndarray:
    """Outputs ``start .. start + n - 1`` of ``SplitMix(state)`` as ``uint64``.

    Wrapping ``uint64`` arithmetic stands in for the scalar ``& _MASK64``.
    """
    import numpy as np  # not at module level: importing repro stays NumPy-free

    with np.errstate(over="ignore"):
        counter = np.arange(start + 1, start + 1 + n, dtype=np.uint64)
        z = counter * np.uint64(_GOLDEN) + np.uint64(state & _MASK64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def unit_floats(block: np.ndarray) -> np.ndarray:
    """:meth:`SplitMix.random` of each raw output: ``(u >> 11) * 2**-53``."""
    import numpy as np

    return (block >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def derive_seed(base: int, *labels: object) -> int:
    """Derive a child seed from ``base`` and a sequence of labels.

    Labels may be strings or integers; the derivation is stable across
    runs and platforms, so a component can carve out an independent
    stream with e.g. ``derive_seed(seed, "dcache", workload_name)``.
    """
    state = _mix(base & _MASK64)
    for label in labels:
        if isinstance(label, int):
            chunk = label & _MASK64
        else:
            chunk = 0
            for byte in str(label).encode("utf-8"):
                chunk = (chunk * 131 + byte) & _MASK64
        state = _mix((state + chunk + _GOLDEN) & _MASK64)
    return state


def jittered_backoff_s(base_s: float, attempt: int, *labels: object) -> float:
    """Seeded exponential backoff with jitter: no wall clock, no lockstep.

    Returns ``base_s * 2**attempt`` scaled by a uniform factor in
    [0.5, 1.5) drawn from a SplitMix stream derived from ``labels``
    (typically a job key) and the attempt number. Two workers retrying
    different jobs therefore sleep different durations — no thundering
    herd — while the same (job, attempt) pair always sleeps the same
    duration, keeping runs reproducible.
    """
    if base_s <= 0.0:
        return 0.0
    rng = SplitMix(derive_seed(0xB0FF, attempt, *labels))
    return base_s * (2 ** max(0, attempt)) * (0.5 + rng.random())


class SplitMix:
    """SplitMix64 pseudo-random generator.

    Provides the handful of draw shapes the library needs: 64-bit words,
    bounded integers, unit-interval floats, geometric and Bernoulli
    variates, and weighted choice.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @property
    def state(self) -> int:
        """The current state: ``splitmix_block(state, 0, n)`` yields the
        next ``n`` outputs of :meth:`next_u64`."""
        return self._state

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def split(self, *labels: object) -> "SplitMix":
        """Return an independent child generator derived from labels."""
        return SplitMix(derive_seed(self._state, "split", *labels))

    def random(self) -> float:
        """Return a float uniformly distributed in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, low: int, high: int) -> int:
        """Return an integer uniformly distributed in [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.random() < p

    def geometric(self, p: float, cap: int = GEOMETRIC_CAP) -> int:
        """Number of failures before the first success, capped.

        ``p`` is the per-trial success probability. The cap keeps a
        pathological probability from generating unbounded values.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric probability must be in (0, 1], got {p}")
        count = 0
        while count < cap and not self.bernoulli(p):
            count += 1
        return count

    def choice(self, items: list) -> object:
        """Return a uniformly chosen element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty list")
        return items[self.randint(0, len(items) - 1)]

    def weighted_choice(self, items: list, weights: list) -> object:
        """Return an element of ``items`` chosen with the given weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        target = self.random() * total
        acc = 0.0
        for item, weight in zip(items, weights):
            acc += weight
            if target < acc:
                return item
        return items[-1]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place (Fisher-Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
