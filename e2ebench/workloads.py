"""The benchmark's workloads, their seeded inputs and their output checks.

Each ``run_*`` function executes one workload inside the calling
process and returns a :class:`Outcome`. The program receives only the
inputs generated here; every output is checked, and each failed job,
failed request or mismatched output counts as one failure.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from reference import HostSpeed

DEFAULT_SEED = 2006
DEFAULT_SECONDS = 10

#: paper_cold: the subset of the paper suite a reproducer runs first.
#: The experiments fix their own seeds; the workload seed does not apply.
PAPER_EXPERIMENTS = ("t2", "f3", "f6", "t3")
#: Distinct traces generated: 12 suite workloads (t2) + 6 ILP points (f6).
PAPER_TRACES = 18

#: serve_mix: short requests, so serve overhead is a visible share.
SERVE_LENGTH = 4_000
SERVE_WORKLOADS = (
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser",
    "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf",
)
SERVE_ROB_SIZES = (64, 96, 128, 192)
SERVE_CLIENTS = 2
SERVE_SHARDS = 2
#: Every PAIR_EVERY-th cold key is sent by both clients at once.
PAIR_EVERY = 10
#: Tail percentile reported per class. A class needs at least
#: TAIL_SAMPLES samples beyond its tail, which sets the floors below.
TAIL_Q = {"warm": 0.99, "stored": 0.90, "cold": 0.90}
TAIL_SAMPLES = 10
#: Requests per second of ``--seconds`` and the floor of each class.
CLASS_RATE = {"warm": 120, "stored": 10, "cold": 10}
CLASS_MIN = {
    cls: math.ceil(TAIL_SAMPLES / (1.0 - q)) for cls, q in TAIL_Q.items()
}
#: Warm requests repeat one of the client's last WARM_WINDOW keys, so
#: all clients' windows together stay well inside the service's tier-0
#: capacity (512 items) and a warm key is never evicted.
WARM_WINDOW = 128
#: Answer source each class must come from (the serve cache tier).
CLASS_SOURCE = {"warm": "tier0", "stored": "store", "cold": "pool"}


# -- digests ----------------------------------------------------------

def canonical(value: Any) -> Any:
    """JSON-ready copy with floats rounded to 6 significant digits.

    Rounding keeps a change in NumPy summation order from looking like
    a change in results; any real change in a figure still shows.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        value = value.item()
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        rounded = float(f"{value:.6g}")
        return 0.0 if rounded == 0.0 else rounded
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(value: Any) -> str:
    blob = json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def experiment_digest(result: Any) -> str:
    return digest(
        {
            "id": result.experiment_id,
            "headers": list(result.headers),
            "rows": result.rows,
            "series": result.series,
        }
    )


# -- outcome and checks -----------------------------------------------

@dataclass
class Outcome:
    """What one workload run did, measured and checked."""

    wall_s: float = 0.0
    #: Host CPU seconds the workload's processes used in the timed region.
    cpu_s: float = 0.0
    attempted: int = 0
    #: Operation ids (or run-level check names) that failed.
    failures: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Window of the timed region, for the unattributed share.
    window_ns: Tuple[int, int] = (0, 0)
    #: serve_mix: client-side figures, and every reply.
    client_metrics: Dict[str, float] = field(default_factory=dict)
    replies: List["Reply"] = field(default_factory=list)
    #: paper_cold: reference-slice seconds taken during the pass.
    ref_samples: List[float] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(set(self.failures))

    def check_digests(self, expected: Optional[Dict[str, str]]) -> None:
        """Compare against committed digests (keys absent there are skipped)."""
        if expected is None:
            return
        for name, value in self.digests.items():
            if name in expected and expected[name] != value:
                self.fail(f"digest mismatch: {name}")


class StaleReadGuard:
    """Fails a cold run that reads a store object it did not write.

    A fresh store root makes this impossible unless isolation broke,
    so any such hit means a stale cache made a "cold" run warm.
    """

    def __init__(self) -> None:
        self.written: set = set()
        self.stale: List[str] = []

    def install(self, patcher: Any) -> None:
        from repro.lab.store import ResultStore

        guard = self

        def guard_get(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def get(store, key, *args, **kwargs):
                payload = fn(store, key, *args, **kwargs)
                if payload is not None and key not in guard.written:
                    guard.stale.append(key)
                return payload
            return get

        def guard_put(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def put(store, key, *args, **kwargs):
                path = fn(store, key, *args, **kwargs)
                guard.written.add(key)
                return path
            return put

        patcher.replace_method(ResultStore, "get", guard_get)
        patcher.replace_method(ResultStore, "put", guard_put)


def _lab_job_metrics(telemetry: Any) -> Dict[str, float]:
    return {
        "lab.jobs_failed": telemetry.failed,
        "lab.jobs_retried": sum(1 for r in telemetry.records if r.attempts > 1),
    }


# -- paper_cold -------------------------------------------------------

def run_paper_cold(
    store_root: str, expected: Optional[Dict[str, str]], speed: Optional[HostSpeed] = None
) -> Outcome:
    """One cold pass; ``speed`` samples the host in the middle of it."""
    from repro.lab import run_experiments

    out = Outcome(attempted=len(PAPER_EXPERIMENTS))
    sampling = speed.interleaved() if speed else contextlib.nullcontext()
    c0, t0 = time.process_time(), time.perf_counter_ns()
    with sampling:
        results, telemetry = run_experiments(
            list(PAPER_EXPERIMENTS), workers=1, store_root=store_root
        )
    c1, t1 = time.process_time(), time.perf_counter_ns()
    out.wall_s, out.cpu_s = (t1 - t0) / 1e9, c1 - c0
    if speed:
        out.wall_s -= speed.spent_s
        out.cpu_s -= speed.spent_cpu_s
        out.ref_samples = speed.samples
    out.window_ns = (t0, t1)
    for exp_id, result in zip(PAPER_EXPERIMENTS, results):
        if result is None:
            out.fail(f"experiment {exp_id} failed")
        else:
            out.digests[exp_id] = experiment_digest(result)
    out.check_digests(expected)
    if expected is not None and set(out.digests) != set(expected):
        out.fail("paper_cold digest set differs from the committed one")
    out.metrics.update(_lab_job_metrics(telemetry))
    return out


# -- serve_mix: seeded schedule ---------------------------------------

@dataclass(frozen=True)
class ServeKey:
    workload: str
    seed: int
    rob_size: int

    @property
    def name(self) -> str:
        return f"{self.workload}/{self.seed}/rob{self.rob_size}"

    def request(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "length": SERVE_LENGTH,
            "seed": self.seed,
            "config": {"rob_size": self.rob_size},
        }

    def job(self) -> Any:
        from repro.lab import SimJob
        from repro.pipeline.config import CoreConfig

        return SimJob(
            workload=self.workload,
            length=SERVE_LENGTH,
            seed=self.seed,
            config=CoreConfig().with_overrides(rob_size=self.rob_size),
        )


@dataclass(frozen=True)
class Step:
    cls: str  # "warm" | "stored" | "cold"
    key: ServeKey
    #: Sent by both clients together (behind a barrier): coalescing.
    pair: bool = False


def class_sizes(seconds: int) -> Dict[str, int]:
    """Distinct stored keys, distinct cold keys and warm requests."""
    return {
        cls: max(CLASS_MIN[cls], CLASS_RATE[cls] * seconds) for cls in CLASS_RATE
    }


def _keys(seed: int, family: str, count: int, exclude: Sequence[ServeKey] = ()) -> List[ServeKey]:
    """``count`` distinct keys; a longer run extends a shorter run's list.

    Workloads come in seeded permutations of all twelve, so every list
    carries the same mix of cheap and costly workloads whatever the
    seed; the seed varies which trace each key simulates.
    """
    rng = random.Random(f"{family}:{seed}")
    seen = set(exclude)
    keys: List[ServeKey] = []
    block: List[str] = []
    while len(keys) < count:
        if not block:
            block = rng.sample(SERVE_WORKLOADS, len(SERVE_WORKLOADS))
        key = ServeKey(
            block.pop(),
            rng.getrandbits(31),
            SERVE_ROB_SIZES[len(keys) % len(SERVE_ROB_SIZES)],
        )
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def _client_keys(seed: int, seconds: int) -> Tuple[List[List[ServeKey]], List[List[ServeKey]], List[ServeKey]]:
    """(stored keys per client, cold keys per client, paired cold keys)."""
    sizes = class_sizes(seconds)
    stored: List[List[ServeKey]] = []
    cold: List[List[ServeKey]] = []
    taken: List[ServeKey] = []
    for client in range(SERVE_CLIENTS):
        stored.append(_keys(seed, f"stored{client}", math.ceil(sizes["stored"] / SERVE_CLIENTS), taken))
        taken += stored[-1]
    n_pairs = sizes["cold"] // PAIR_EVERY
    for client in range(SERVE_CLIENTS):
        cold.append(_keys(seed, f"cold{client}", math.ceil((sizes["cold"] - n_pairs) / SERVE_CLIENTS), taken))
        taken += cold[-1]
    pairs = _keys(seed, "pair", n_pairs, taken)
    return stored, cold, pairs


def stored_keys(seed: int, seconds: int) -> List[ServeKey]:
    return [key for keys in _client_keys(seed, seconds)[0] for key in keys]


def build_schedule(seed: int, seconds: int) -> List[List[Step]]:
    """One closed-loop request list per client.

    Each client has its own stored and cold keys, with the same
    workload mix; every PAIR_EVERY-th cold key is instead sent by both
    clients together, and pairs keep the same order on both lists.
    Warm requests are spread evenly between first touches and repeat a
    key that client already had answered.
    """
    sizes = class_sizes(seconds)
    stored, cold, pair_keys = _client_keys(seed, seconds)
    rng = random.Random(f"schedule:{seed}")
    singles = [
        [Step("stored", k) for k in stored[c]] + [Step("cold", k) for k in cold[c]]
        for c in range(SERVE_CLIENTS)
    ]
    pairs = [Step("cold", key, pair=True) for key in pair_keys]
    warm_per_client = sizes["warm"] // SERVE_CLIENTS
    schedule = []
    for client in range(SERVE_CLIENTS):
        firsts = singles[client]
        rng.shuffle(firsts)
        # Pairs at evenly spaced positions, in the same order on every list.
        base = len(firsts)
        for k, step in enumerate(pairs):
            firsts.insert(k * base // len(pairs) + k, step)
        steps: List[Step] = []
        answered: List[ServeKey] = []
        n = len(firsts)
        for j, step in enumerate(firsts):
            steps.append(step)
            answered.append(step.key)
            repeats = (j + 1) * warm_per_client // n - j * warm_per_client // n
            for _ in range(repeats):
                steps.append(Step("warm", rng.choice(answered[-WARM_WINDOW:])))
        schedule.append(steps)
    return schedule


# -- serve_mix: run ----------------------------------------------------

@dataclass
class Reply:
    step: Step
    #: Client send and response parsed, on the system-wide monotonic clock.
    start_ns: int
    end_ns: int
    response: Optional[Dict[str, Any]]
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _client(index: int, steps: List[Step], host: str, port: int,
            barrier: Any, go: Any, out: Any) -> None:
    """One closed-loop client, in its own process.

    Clients run outside the service's process, as real ones do, so
    their work never contends with the service for the interpreter
    lock. The import and connection happen before ``go``.
    """
    from repro.serve.client import ServeClient

    replies: List[Reply] = []
    try:
        with ServeClient(host, port, timeout_s=120.0, retries=0) as client:
            client.ping()
            out.put(("ready", index, None))
            go.wait()
            for step in steps:
                if step.pair:
                    try:
                        barrier.wait(timeout=120.0)
                    except threading.BrokenBarrierError:
                        now = time.perf_counter_ns()
                        replies.append(Reply(step, now, now, None, "pair barrier broken"))
                        continue
                t0 = time.perf_counter_ns()
                try:
                    response = client.simulate(**step.key.request())
                    error = None
                except Exception as exc:  # counted as a failed request
                    response, error = None, f"{type(exc).__name__}: {exc}"
                replies.append(Reply(step, t0, time.perf_counter_ns(), response, error))
    finally:
        # A client that stopped early must not strand the other at a pair.
        barrier.abort()
        out.put(("done", index, replies))


class ServeBench:
    """One service over a fresh store, driven by closed-loop clients."""

    def __init__(self, store_root: str, traced: bool):
        self.store_root = store_root
        self.traced = traced
        self.server = None

    def prefill(self, keys: Sequence[ServeKey]) -> Dict[ServeKey, Dict[str, Any]]:
        """Write the stored class through the lab (not timed as set-up)."""
        from repro.lab import run_jobs

        results, _ = run_jobs([k.job() for k in keys], workers=2,
                              store_root=self.store_root)
        return {k: r.payload for k, r in zip(keys, results) if r.ok}

    def start(self) -> None:
        """Service start and first ping: the set-up a user waits for."""
        from repro.serve.client import ServeClient
        from repro.serve.service import BackgroundServer, ExperimentService

        service = ExperimentService(
            store_root=self.store_root,
            n_shards=SERVE_SHARDS,
            trace_requests=self.traced,
        )
        self.server = BackgroundServer(service).start()
        with ServeClient(self.server.host, self.server.port, retries=0) as client:
            if not client.ping():
                raise RuntimeError("serve ping failed")

    def stats(self) -> Dict[str, Any]:
        from repro.serve.client import ServeClient

        with ServeClient(self.server.host, self.server.port, retries=0) as client:
            return client.stats()["result"]

    def stop(self) -> None:
        """Stop the service and wait until every shard worker has exited."""
        import multiprocessing

        if self.server is not None:
            self.server.stop()
            self.server = None
        deadline = time.monotonic() + 30.0
        for child in multiprocessing.active_children():
            child.join(max(0.1, deadline - time.monotonic()))
            if child.is_alive():
                child.kill()
                child.join(5.0)
        # The semaphore tracker the spawn context started is no Process
        # object: stop it and wait for it here, or it outlives this one.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    def replay(self, schedule: List[List[Step]]) -> Tuple[List[Reply], int, int]:
        """Replay one request list per client process; returns the
        replies and the timed window (first send to last reply)."""
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        barrier, go, out = ctx.Barrier(len(schedule)), ctx.Event(), ctx.Queue()
        procs = [
            ctx.Process(
                target=_client,
                args=(i, steps, self.server.host, self.server.port, barrier, go, out),
                name=f"bench-client-{i}",
            )
            for i, steps in enumerate(schedule)
        ]
        for proc in procs:
            proc.start()
        replies: List[Reply] = []
        starting, done = set(range(len(procs))), 0
        try:
            # The queue is drained before any join (a full pipe would
            # block the writer's exit).
            while starting or (go.is_set() and done < len(procs)):
                kind, index, payload = out.get(timeout=600.0)
                starting.discard(index)
                if kind == "done":
                    done += 1
                    replies.extend(payload)
                if not starting and not go.is_set():
                    t0 = time.perf_counter_ns()
                    go.set()
        finally:
            go.set()
            for proc in procs:
                proc.join(30.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(5.0)
        t1 = max((r.end_ns for r in replies), default=t0)
        return replies, t0, t1


def _children_cpu_s() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_serve_mix(
    bench: ServeBench,
    seed: int,
    seconds: int,
    stored: Dict[ServeKey, Dict[str, Any]],
    expected: Optional[Dict[str, str]],
) -> Outcome:
    """Replay the seeded schedule against a started ``bench``, check
    every reply, then stop the service."""
    schedule = build_schedule(seed, seconds)
    c0, children0 = time.process_time(), _children_cpu_s()
    replies, t0, t1 = bench.replay(schedule)
    c1 = time.process_time()
    out = Outcome(attempted=len(replies), wall_s=(t1 - t0) / 1e9,
                  window_ns=(t0, t1), replies=replies)
    if len(stored) != len(stored_keys(seed, seconds)):
        out.fail("store pre-fill failed")
    check_replies(replies, stored, expected, out)
    out.client_metrics = client_metrics(replies, out.wall_s)
    stats = bench.stats()
    bench.stop()
    # Shard workers and clients are reaped now; their whole lifetime
    # falls inside the timed region, bar the clients' start-up.
    out.cpu_s = c1 - c0 + _children_cpu_s() - children0
    service = service_metrics(stats, len(replies))
    out.metrics.update(service)
    out.metrics["lab.jobs_failed"] = sum(
        1 for r in replies if r.response and not r.response.get("ok")
    )
    # A shard restart is the serve path's only job resubmission.
    out.metrics["lab.jobs_retried"] = stats["counters"].get("serve.shard_restarts_total", 0)
    cold_keys = {r.step.key for r in replies if r.step.cls == "cold"}
    if service["serve.pool_executions"] != len(cold_keys):
        out.fail(
            f"serve.pool_executions {service['serve.pool_executions']} "
            f"!= {len(cold_keys)} distinct cold keys"
        )
    return out


def check_replies(
    replies: Sequence[Reply],
    stored_payloads: Dict[ServeKey, Dict[str, Any]],
    expected: Optional[Dict[str, str]],
    out: Outcome,
) -> None:
    """Every reply must be ok, come from its class's tier and agree
    with the first reply for its key (and with the lab's stored
    payload, and with the committed digest when there is one)."""
    from repro.serve.protocol import summarize_payload

    first: Dict[ServeKey, Any] = {}
    for index, reply in enumerate(replies):
        step = reply.step
        what = f"request {index} ({step.cls} {step.key.name})"
        response = reply.response
        if reply.error is not None or not response or not response.get("ok"):
            out.fail(f"{what}: {reply.error or (response or {}).get('error')}")
            continue
        result = response["result"]
        source = response["meta"].get("source")
        wanted = CLASS_SOURCE[step.cls]
        if source != wanted and not (step.pair and source == "tier0"):
            out.fail(f"{what}: answered from {source}, expected {wanted}")
        reference = first.setdefault(step.key, result)
        if result != reference:
            out.fail(f"{what}: differs from the first answer for its key")
        if step.cls == "stored" and (
            step.key not in stored_payloads
            or result != summarize_payload(stored_payloads[step.key])
        ):
            out.fail(f"{what}: differs from the lab's stored payload")
    for key, result in first.items():
        out.digests[key.name] = digest(result)
    out.check_digests(expected)


def client_metrics(replies: Sequence[Reply], wall_s: float) -> Dict[str, float]:
    """Requests per second, and the median and tail latency (client
    send to response parsed) of each class."""
    ok = sum(1 for r in replies if r.response and r.response.get("ok"))
    metrics = {"serve.req_per_s": ok / wall_s}
    for cls, q in TAIL_Q.items():
        values = [
            r.latency_ms for r in replies
            if r.step.cls == cls and r.response and r.response.get("ok")
        ]
        metrics[f"serve.{cls}.p50_ms"] = percentile(values, 0.5)
        metrics[f"serve.{cls}.p{round(q * 100)}_ms"] = percentile(values, q)
    return metrics


#: Latency-stack components reported per class (traced run).
STACK_METRICS = {
    "warm": ("cache_tier0", "serialize"),
    "stored": ("cache_backend", "queue_wait"),
    "cold": ("pool_execute", "store_put", "coalesce_wait", "queue_wait"),
}


def stack_metrics(replies: Sequence[Reply]) -> Dict[str, float]:
    """Median of each latency-stack component over the class requests
    that have it, from the service's ``latency_stack_ns`` meta."""
    metrics = {}
    for cls, components in STACK_METRICS.items():
        stacks = [
            (r, r.response["meta"].get("latency_stack_ns") or {})
            for r in replies
            if r.step.cls == cls and r.response and r.response.get("ok")
        ]
        for component in components:
            values = [s[component] / 1e6 for _, s in stacks if component in s]
            metrics[f"serve.{cls}.{component}_ms"] = percentile(values, 0.5)
        if cls == "warm":
            overhead = [
                r.latency_ms - r.response["meta"]["wall_ns"] / 1e6
                for r, _ in stacks
                if "wall_ns" in r.response["meta"]
            ]
            metrics["serve.warm.client_overhead_ms"] = percentile(overhead, 0.5)
    return metrics


def service_metrics(stats: Dict[str, Any], requests: int) -> Dict[str, float]:
    counters = stats.get("counters", {})
    gauges = stats.get("gauges", {})
    return {
        "serve.tier0_hit_share": counters.get("serve.cache_hits_tier0_total", 0) / max(1, requests),
        "serve.pool_executions": counters.get("serve.pool_executions_total", 0),
        "serve.coalesced_total": counters.get("serve.coalesced_total", 0),
        "serve.overload_sheds": counters.get("serve.overload_sheds_total", 0),
        "serve.queue_depth_max": gauges.get("serve.queue_depth", 0),
    }
