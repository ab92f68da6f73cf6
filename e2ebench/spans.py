"""Spans recorded around calls into the program's layers, from outside.

The traced run replaces each layer's public function with a wrapper
that records one span (name, start, end, parent) per call. A function
imported by name (``from repro.pipeline.core import simulate``) has a
binding in every importing module, so :meth:`Patcher.replace_everywhere`
rebinds it in each ``repro`` module that holds it; lazy imports made
later read the patched attribute of the defining module. Nothing inside
the program is changed.

A span's *self time* is its duration minus the time its direct
children cover. Spans nest only within one thread (each thread keeps
its own stack), so a span's children never overlap and their durations
add up to the covered time. ``pack`` inside ``simulate`` is therefore
charged to ``perf.pack`` once and not again to ``pipeline.simulate``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional["Span"] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: Observer called after a wrapped call returns: (recorder, args, kwargs, result).
Observer = Callable[["SpanRecorder", tuple, dict, Any], None]


class SpanRecorder:
    """In-memory span buffer plus the counters the observers update.

    Appends rely on ``list.append`` being atomic under the interpreter
    lock, so the recorder holds no lock a forked worker could inherit
    locked; a forked child stops recording altogether.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.keys: Dict[str, set] = {}
        self.enabled = True
        self._local = threading.local()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self.stop)

    def stop(self) -> None:
        """Record nothing more (wrapped calls still run)."""
        self.enabled = False

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span = Span(name, recorder.clock(), parent=stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end_ns = recorder.clock()
                recorder.spans.append(span)
            if observe is not None:
                observe(recorder, args, kwargs, result)
            return result

        return wrapper

    def add_key(self, family: str, key: Any) -> None:
        self.keys.setdefault(family, set()).add(key)


def self_times_s(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds of self time per span name."""
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            pid = id(span.parent)
            child_ns[pid] = child_ns.get(pid, 0) + span.duration_ns
    totals: Dict[str, int] = {}
    for span in spans:
        own = span.duration_ns - child_ns.get(id(span), 0)
        totals[span.name] = totals.get(span.name, 0) + own
    return {name: ns / 1e9 for name, ns in totals.items()}


def call_counts(spans: Iterable[Span]) -> Dict[str, int]:
    return dict(Counter(span.name for span in spans))


def covered_ns(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def unattributed_share(spans: Iterable[Span], lo: int, hi: int) -> float:
    """Share of the window ``[lo, hi]`` that no top-level span covers."""
    if hi <= lo:
        return 0.0
    roots = [(s.start_ns, s.end_ns) for s in spans if s.parent is None]
    return 1.0 - covered_ns(roots, lo, hi) / (hi - lo)


class Patcher:
    """Rebinds functions and methods, remembering how to undo it."""

    def __init__(self, package: str = "repro"):
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, original: Callable, replacement: Callable) -> List[str]:
        """Rebind ``original`` in every loaded module of the package.

        Returns the ``module.attr`` binding sites it patched.
        """
        sites = []
        prefix = self.package + "."
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (
                modname == self.package or modname.startswith(prefix)
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                    sites.append(f"{modname}.{attr}")
        return sites

    def replace_method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a plain method or classmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
