"""The columnar synthetic trace generator behind ``generate_trace``.

:class:`~repro.trace.synthetic.SyntheticTraceGenerator` draws one
SplitMix value at a time. SplitMix is counter-based, so the same values
can be drawn in NumPy blocks (:func:`repro.util.rng.splitmix_block`);
:class:`ColumnarGenerator` does that for each of the five child streams
and reproduces the scalar generator bit for bit:

* the ``ops`` and ``icache`` streams take one draw per record, so the op
  class and the i-cache miss are decided for a whole chunk at once;
* the dependence, branch, memory and pc logic carries state from record
  to record (chain tails, the burst Markov state, the stride address),
  so it stays a loop, over precomputed floats, ``u % span`` values and
  a next-success table for the geometric distance, consumed by cursor;
* one pass per :data:`CHUNK` records builds the
  :class:`~repro.trace.record.TraceRecord` objects and fills the
  :class:`~repro.perf.packed.PackedTrace` columns, so the trace is born
  packed and transient memory scales with the chunk, not the trace.

Every ``SplitMix.bernoulli`` with p <= 0 or p >= 1 takes no draw; the
cursors must not move there either (``tests/trace/test_columnar.py``).
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.isa.opcodes import OpClass
from repro.perf.packed import OP_CODE, RECORD_DTYPE, PackedTrace
from repro.trace.profiles import WorkloadProfile
from repro.trace.record import TraceRecord
from repro.trace.stream import Trace
from repro.trace.synthetic import _DEP_SHAPE, _INSTRUCTION_BYTES, _VALUE_PRODUCERS
from repro.util.rng import GEOMETRIC_CAP, SplitMix, splitmix_block, unit_floats

#: Records generated per pass. The draw blocks and per-pass lists held
#: at once scale with this, not with the trace.
CHUNK = 4096

#: Dependence-stream draws per refill. A record's dependence draws are
#: unbounded (geometric distances), so that stream is refilled in
#: fixed-size blocks rather than sized per pass.
_DEP_BLOCK = 4096

#: Most dependence-stream draws a record takes outside geometric runs:
#: the extra-source roll, then a chain roll and a chain pick per source.
_DEP_SLACK = 5

_OTHER, _BRANCH, _JUMP, _LOAD, _STORE = range(5)


def _bernoulli(p: float) -> Tuple[bool, float, bool]:
    """``SplitMix.bernoulli(p)`` as (draws, p, outcome without a draw)."""
    return 0.0 < p < 1.0, p, p >= 1.0


class _Stream:
    """A SplitMix child stream read forward in NumPy blocks."""

    def __init__(self, rng: SplitMix):
        self.state = rng.state
        self.offset = 0

    def peek(self, n: int) -> np.ndarray:
        return splitmix_block(self.state, self.offset, n)

    def take(self, n: int) -> np.ndarray:
        block = self.peek(n)
        self.offset += n
        return block


class _DependenceDraws:
    """The ``deps`` stream and chain state of the generator.

    Holds one block of draws precomputed as unit floats, chain picks
    and, for the geometric distance, the block position of the next
    success at or after each position. :meth:`draw` replays
    ``SyntheticTraceGenerator._draw_deps`` over them by cursor.
    """

    def __init__(self, rng: SplitMix, profile: WorkloadProfile):
        self._stream = _Stream(rng)
        self._chains: List[Optional[int]] = [None] * profile.chain_count
        self._picks_mod = np.uint64(profile.chain_count)
        self._second = _bernoulli(profile.second_dep_fraction)
        self._chain = _bernoulli(profile.chain_dep_fraction)
        self._p_local = profile.dependence_p
        self._local_draws = self._p_local < 1.0
        self._cursor = self._refill_at(0)

    def _refill_at(self, offset: int) -> int:
        """Load the block starting at stream ``offset``; returns cursor 0."""
        self._stream.offset = offset
        block = self._stream.peek(_DEP_BLOCK + _DEP_SLACK)
        floats = unit_floats(block)
        self._floats = floats.tolist()
        self._picks = (block % self._picks_mod).tolist()
        # Only successes inside the first _DEP_BLOCK positions count, so
        # a geometric run that ends in time leaves _DEP_SLACK draws.
        hits = np.flatnonzero(floats[:_DEP_BLOCK] < self._p_local)
        after = np.searchsorted(hits, np.arange(_DEP_BLOCK + _DEP_SLACK))
        self._next_hit = np.append(hits, _DEP_BLOCK)[after].tolist()
        return 0

    def _local_run(self, cursor: int) -> Tuple[int, int]:
        """``SplitMix.geometric`` from ``cursor`` when its first success is
        not in this block: (failures, cursor), refilling as it goes."""
        start = self._stream.offset + cursor
        offset = start
        while offset - start < GEOMETRIC_CAP:
            self._refill_at(offset)
            hit = self._next_hit[0]
            if hit < _DEP_BLOCK:
                if offset + hit - start < GEOMETRIC_CAP:
                    return offset + hit - start, hit + 1
                break
            offset += _DEP_BLOCK
        return GEOMETRIC_CAP, self._refill_at(start + GEOMETRIC_CAP)

    def draw(self, minimum: int, may_extend: bool, produces: bool, index: int):
        """Dependence distances of the record at ``index``."""
        chains = self._chains
        if index == 0:
            if produces:
                # Seed a chain with this producer even without sources.
                chains[0] = 0
            return ()
        cursor = self._cursor
        if cursor >= _DEP_BLOCK:
            cursor = self._refill_at(self._stream.offset + cursor)
        floats = self._floats
        count = minimum
        if may_extend:
            draws, p, extra = self._second
            if draws:
                extra = floats[cursor] < p
                cursor += 1
            count += extra
        deps = []
        for position in range(count):
            draws, p, chained = self._chain
            if draws:
                chained = floats[cursor] < p
                cursor += 1
            if chained:
                picked = self._picks[cursor]
                cursor += 1
                tail = chains[picked]
                if produces and position == 0:
                    chains[picked] = index
                if tail is not None and tail != index:
                    deps.append(index - tail)
                    continue
            failures = 0
            if self._local_draws:
                hit = self._next_hit[cursor]
                if hit < _DEP_BLOCK:
                    failures = hit - cursor
                    cursor = hit + 1
                else:
                    failures, cursor = self._local_run(cursor)
                    floats = self._floats
            deps.append(min(1 + failures, index))
        self._cursor = cursor
        return tuple(deps)


class ColumnarGenerator:
    """One run of ``generate_trace``: streams, constants, walk state."""

    def __init__(self, profile: WorkloadProfile, seed: int):
        rng = SplitMix(seed)
        self.profile = profile
        self._ops = _Stream(rng.split("ops"))
        self._deps = _DependenceDraws(rng.split("deps"), profile)
        self._branches = _Stream(rng.split("branches"))
        self._memory = _Stream(rng.split("memory"))
        self._icache = _Stream(rng.split("icache"))

        # weighted_choice's left-to-right float accumulation, searched once.
        classes = list(profile.mix.keys())
        self._total = float(sum(profile.mix[c] for c in classes))
        if self._total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        bounds = []
        acc = 0.0
        for op_class in classes:
            acc += profile.mix[op_class]
            bounds.append(acc)
        self._bounds = np.asarray(bounds)
        kinds = {
            OpClass.BRANCH: _BRANCH,
            OpClass.JUMP: _JUMP,
            OpClass.LOAD: _LOAD,
            OpClass.STORE: _STORE,
        }
        self._shapes = [
            (c, kinds.get(c, _OTHER), *_DEP_SHAPE[c], c in _VALUE_PRODUCERS)
            for c in classes
        ]
        self._kind_of = np.asarray([shape[1] for shape in self._shapes])
        self._code_of = np.asarray([OP_CODE[c] for c in classes], dtype=np.uint8)
        self._il1 = _bernoulli(profile.il1_mpki / 1000.0)

        # The burst Markov chain as, per state: (draws, p, state after a
        # success, state without a draw); a failed draw keeps the state.
        f = profile.burst_fraction
        leave = 1.0 - profile.burst_persistence
        if f <= 0.0 or f >= 1.0:
            burst = {s: (False, 0.0, s, f >= 1.0) for s in (False, True)}
        else:
            enter = leave * f / (1.0 - f)
            burst = {
                True: (*_bernoulli(leave)[:2], False, leave < 1.0),
                False: (*_bernoulli(enter)[:2], True, enter >= 1.0),
            }
        self._in_burst = f >= 1.0
        self._pc = 0x1000
        self._stream_addr = 0x10000
        self._walk_constants = (
            burst,
            {s: _bernoulli(profile.scaled_mispredict_rate(s)) for s in (False, True)},
            _bernoulli(profile.branch_taken_fraction),
            _bernoulli(profile.stride_fraction),
            profile.dl2_miss_rate,
            profile.dl2_miss_rate + profile.dl1_miss_rate,
            0x1000 + profile.code_footprint_bytes,
            0x10000 + profile.data_footprint_bytes,
            profile.stride_bytes,
        )

    def generate(self, count: int) -> Trace:
        columns = np.zeros(count, dtype=RECORD_DTYPE)
        indptr = np.zeros(count + 1, dtype=np.int64)
        dep_blocks = []
        records: List[TraceRecord] = []
        for lo in range(0, count, CHUNK):
            n = min(CHUNK, count - lo)
            rolls = unit_floats(self._ops.take(n)) * self._total
            picks = np.searchsorted(self._bounds, rolls, side="right")
            np.minimum(picks, len(self._bounds) - 1, out=picks)
            draws, p, fixed = self._il1
            if draws:
                il1 = unit_floats(self._icache.take(n)) < p
            else:
                il1 = np.full(n, fixed)
            kind = self._kind_of[picks]
            deps, *walked = self._walk(
                lo, picks.tolist(), il1.tolist(), kind, records
            )
            cols = columns[lo:lo + n]
            cols["op"] = self._code_of[picks]
            cols["il1_miss"] = il1
            self._fill(cols, kind, *walked)
            ends = indptr[lo + 1:lo + n + 1]
            np.cumsum([len(d) for d in deps], out=ends)
            ends += indptr[lo]
            dep_blocks.append(
                np.fromiter(chain.from_iterable(deps), dtype=np.int32,
                            count=int(ends[-1] - indptr[lo]))
            )
        dep_data = (
            np.concatenate(dep_blocks) if dep_blocks else np.zeros(0, np.int32)
        )
        packed = PackedTrace(columns, indptr, dep_data, name=self.profile.name)
        return Trace(records, name=self.profile.name, packed=packed)

    def _walk(self, lo, picks, il1, kind, records):
        """The sequential part of one chunk: dependences, branch outcomes,
        addresses and pcs, over the chunk's precomputed draws."""
        (burst, rates, taken_mode, stride_mode, dl2_rate, miss_rate,
         code_end, data_end, stride_bytes) = self._walk_constants
        b_floats, b_targets, m_floats, m_words = self._blocks(kind)
        b = m = 0
        in_burst, pc_next, stream_addr = self._in_burst, self._pc, self._stream_addr
        draw_deps = self._deps.draw
        shapes = self._shapes
        deps, pcs, targets, addrs = [], [], [], []
        # Flags go to flat lists of bools (no per-record tuples), so the
        # walk leaves no garbage between the records it allocates.
        takens, mispredicts, dl1s, dl2s = [], [], [], []
        for index, pick, il1_miss in zip(range(lo, lo + len(picks)), picks, il1):
            op_class, kind_j, minimum, may_extend, produces = shapes[pick]
            dep = draw_deps(minimum, may_extend, produces, index)
            deps.append(dep)
            pc = pc_next
            pcs.append(pc)
            if kind_j == _BRANCH:
                draws, p, flipped, fixed = burst[in_burst]
                if draws:
                    if b_floats[b] < p:
                        in_burst = flipped
                    b += 1
                else:
                    in_burst = fixed
                draws, p, taken = taken_mode
                if draws:
                    taken = b_floats[b] < p
                    b += 1
                draws, p, mispredict = rates[in_burst]
                if draws:
                    mispredict = b_floats[b] < p
                    b += 1
                target = b_targets[b]
                b += 1
                targets.append(target)
                takens.append(taken)
                mispredicts.append(mispredict)
                if taken:
                    pc_next = target
                else:
                    pc_next += _INSTRUCTION_BYTES
                    if pc_next >= code_end:
                        pc_next = 0x1000
                record = TraceRecord(
                    op_class, pc, dep, taken=taken, target=target,
                    mispredict=mispredict, il1_miss=il1_miss,
                )
            elif kind_j == _JUMP:
                target = b_targets[b]
                b += 1
                targets.append(target)
                pc_next = target
                record = TraceRecord(
                    op_class, pc, dep, taken=True, target=target,
                    mispredict=False, il1_miss=il1_miss,
                )
            else:
                pc_next += _INSTRUCTION_BYTES
                if pc_next >= code_end:
                    pc_next = 0x1000
                if kind_j == _OTHER:
                    record = TraceRecord(op_class, pc, dep, il1_miss=il1_miss)
                else:
                    draws, p, strided = stride_mode
                    if draws:
                        strided = m_floats[m] < p
                        m += 1
                    if strided:
                        stream_addr += stride_bytes
                        if stream_addr >= data_end:
                            stream_addr = 0x10000
                        addr = stream_addr
                    else:
                        addr = m_words[m]
                        m += 1
                    dl1 = dl2 = False
                    if kind_j == _LOAD:
                        roll = m_floats[m]
                        m += 1
                        dl2 = roll < dl2_rate
                        dl1 = not dl2 and roll < miss_rate
                    addrs.append(addr)
                    dl1s.append(dl1)
                    dl2s.append(dl2)
                    record = TraceRecord(
                        op_class, pc, dep, mem_addr=addr, dl1_miss=dl1,
                        dl2_miss=dl2, il1_miss=il1_miss,
                    )
            records.append(record)
        self._branches.offset += b
        self._memory.offset += m
        self._in_burst, self._pc, self._stream_addr = in_burst, pc_next, stream_addr
        return deps, pcs, targets, takens, mispredicts, addrs, dl1s, dl2s

    def _blocks(self, kind: np.ndarray):
        """The chunk's branch and memory draws: as floats, and as the
        ``randint`` targets and word addresses they would yield.

        Their draws per record are bounded (a branch takes at most four,
        a load three), so each chunk reads the most it can use; the walk
        then skips each stream by what it used.
        """
        n_branch, n_jump, n_load, n_store = (
            int(np.count_nonzero(kind == k)) for k in (_BRANCH, _JUMP, _LOAD, _STORE)
        )
        profile = self.profile
        code_span = max(profile.code_footprint_bytes // _INSTRUCTION_BYTES, 1)
        word_span = max(profile.data_footprint_bytes // 8 - 1, 0) + 1
        block = self._branches.peek(4 * n_branch + n_jump)
        targets = (block % np.uint64(code_span)).astype(np.int64)
        targets = targets * _INSTRUCTION_BYTES + 0x1000
        b_floats, b_targets = unit_floats(block).tolist(), targets.tolist()
        block = self._memory.peek(3 * n_load + 2 * n_store)
        words = (block % np.uint64(word_span)).astype(np.int64) * 8 + 0x10000
        return b_floats, b_targets, unit_floats(block).tolist(), words.tolist()

    @staticmethod
    def _fill(cols, kind, pcs, targets, takens, mispredicts, addrs, dl1s, dl2s):
        """Write one chunk's walk into its packed columns."""
        is_branch = kind == _BRANCH
        is_jump = kind == _JUMP
        is_control = is_branch | is_jump
        is_mem = (kind == _LOAD) | (kind == _STORE)
        cols["pc"] = pcs
        cols["has_target"] = is_control
        cols["target"][is_control] = targets
        cols["taken"][is_jump] = True
        cols["taken"][is_branch] = takens
        cols["has_mem_addr"] = is_mem
        cols["mem_addr"][is_mem] = addrs
        # Tri-state: -1 where the record carries no such annotation;
        # jumps keep the 0 (never mispredicted) the columns start with.
        mispredict = cols["mispredict"]
        mispredict[~is_control] = -1
        mispredict[is_branch] = mispredicts
        for column, values in (("dl1_miss", dl1s), ("dl2_miss", dl2s)):
            tri = cols[column]
            tri[~is_mem] = -1
            tri[is_mem] = values
