"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapped function is public and called from outside the layer:
``repro.trace``, ``repro.perf``, ``repro.pipeline``, ``repro.interval``,
``repro.harness`` and ``repro.lab``. ``repro.serve`` is measured from
its responses instead: the serve clients run in their own processes,
and the service returns each traced request's ``latency_stack_ns``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from spans import Patcher, SpanRecorder, call_counts, self_times_s

#: Binding sites the wrappers must reach. ``repro.harness.runner`` and
#: ``repro.harness.experiments`` import these functions by name at
#: import time; ``SimJob.execute`` imports them lazily from the
#: defining module, which the first entry of each set covers.
REQUIRED_SITES = {
    "trace.generate": {
        "repro.trace.synthetic.generate_trace",
        "repro.harness.runner.generate_trace",
        "repro.harness.experiments.generate_trace",
    },
    "pipeline.simulate": {
        "repro.pipeline.core.simulate",
        "repro.harness.runner.simulate",
        "repro.harness.experiments.simulate",
    },
}


def import_program() -> None:
    """Import every module a workload or a wrapper touches."""
    import repro.harness.experiments  # noqa: F401
    import repro.harness.runner  # noqa: F401
    import repro.interval.model  # noqa: F401
    import repro.lab  # noqa: F401
    import repro.perf.batchcore  # noqa: F401
    import repro.perf.packed  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.service  # noqa: F401


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_generate(rec: SpanRecorder, args, kwargs, trace) -> None:
    profile = _arg(args, kwargs, 0, "profile")
    count = _arg(args, kwargs, 1, "count")
    seed = _arg(args, kwargs, 2, "seed", 0)
    rec.counters["trace.generated_insns"] += len(trace)
    rec.add_key("trace", (repr(profile), count, seed))


def _observe_simulate(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.counters["pipeline.sim_insns"] += result.instructions


def _observe_batch(rec: SpanRecorder, args, kwargs, results) -> None:
    rec.counters["perf.batch_points"] += len(args[0].configs)


def _observe_store_get(rec: SpanRecorder, args, kwargs, payload) -> None:
    if payload is not None:
        rec.counters["lab.store_hits"] += 1


def install(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every layer function at every binding site.

    Raises ``RuntimeError`` if a required binding site was missed, so
    a traced run can never silently under-count a layer.
    """
    import repro.harness.experiments as experiments
    import repro.interval.model as model
    import repro.interval.penalty as penalty
    import repro.interval.segmentation as segmentation
    import repro.lab.codec as codec
    import repro.lab.jobs as jobs
    import repro.lab.store as store
    import repro.perf.batchcore as batchcore
    import repro.perf.packed as packed
    import repro.pipeline.core as core
    import repro.trace.synthetic as synthetic

    sites: Dict[str, List[str]] = {}

    def everywhere(name: str, fn, observe=None) -> None:
        wrapper = recorder.wrap(name, fn, observe)
        sites.setdefault(name, []).extend(patcher.replace_everywhere(fn, wrapper))

    def method(name: str, cls: type, attr: str, observe=None) -> None:
        patcher.replace_method(cls, attr, lambda fn: recorder.wrap(name, fn, observe))
        sites.setdefault(name, []).append(f"{cls.__module__}.{cls.__name__}.{attr}")

    everywhere("trace.generate", synthetic.generate_trace, _observe_generate)
    method("perf.pack", packed.PackedTrace, "pack")
    method("perf.batch_run", batchcore.BatchedSuperscalarCore, "run", _observe_batch)
    everywhere("pipeline.simulate", core.simulate, _observe_simulate)
    method("interval.model_predict", model.IntervalModel, "predict")
    everywhere("interval.penalties", penalty.measure_penalties)
    everywhere("interval.segment", segmentation.segment_intervals)
    everywhere("harness.experiment", experiments.run_experiment)
    method("lab.store_get", store.ResultStore, "get", _observe_store_get)
    method("lab.store_put", store.ResultStore, "put")
    for fn in (codec.payload_from_value, codec.result_to_payload,
               codec.experiment_to_payload, codec.batch_to_payload):
        everywhere("lab.codec_encode", fn)
    for fn in (codec.value_from_payload, codec.result_from_payload,
               codec.experiment_from_payload, codec.batch_from_payload):
        everywhere("lab.codec_decode", fn)
    everywhere("lab.job", jobs.execute_job)

    for name, required in REQUIRED_SITES.items():
        missing = required - set(sites.get(name, ()))
        if missing:
            raise RuntimeError(f"{name}: binding sites not patched: {sorted(missing)}")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Per-layer figures of the spans and counters recorded so far."""
    own = self_times_s(recorder.spans)
    calls = call_counts(recorder.spans)
    counters = recorder.counters
    generate_calls = calls.get("trace.generate", 0)
    simulate_s = own.get("pipeline.simulate", 0.0)
    gets = calls.get("lab.store_get", 0)
    return {
        "trace.generate_s": own.get("trace.generate", 0.0),
        "trace.generate_calls": generate_calls,
        "trace.generated_insns": counters["trace.generated_insns"],
        "trace.unique_share": _share(len(recorder.keys.get("trace", ())), generate_calls),
        "perf.pack_s": own.get("perf.pack", 0.0),
        "perf.pack_calls": calls.get("perf.pack", 0),
        "perf.batch_run_s": own.get("perf.batch_run", 0.0),
        "perf.batch_points": counters["perf.batch_points"],
        "pipeline.simulate_s": simulate_s,
        "pipeline.simulate_calls": calls.get("pipeline.simulate", 0),
        "pipeline.sim_insn_per_s": _share(counters["pipeline.sim_insns"], simulate_s),
        "interval.model_predict_s": own.get("interval.model_predict", 0.0),
        "interval.penalties_s": own.get("interval.penalties", 0.0),
        "interval.segment_s": own.get("interval.segment", 0.0),
        "harness.experiment_self_s": own.get("harness.experiment", 0.0),
        "lab.store_get_s": own.get("lab.store_get", 0.0),
        "lab.store_get_calls": gets,
        "lab.store_hit_share": _share(counters["lab.store_hits"], gets),
        "lab.store_put_s": own.get("lab.store_put", 0.0),
        "lab.store_put_calls": calls.get("lab.store_put", 0),
        "lab.codec_encode_s": own.get("lab.codec_encode", 0.0),
        "lab.codec_decode_s": own.get("lab.codec_decode", 0.0),
        "lab.job_self_s": own.get("lab.job", 0.0),
    }


def harness_cache_metrics() -> Dict[str, float]:
    """Hit shares of the harness's in-process trace and simulation caches."""
    from repro.harness.runner import cache_stats

    stats = cache_stats()
    out = {}
    for cache in ("trace", "sim"):
        hits, misses = stats[cache]["hits"], stats[cache]["misses"]
        out[f"harness.{cache}_cache_hit_share"] = _share(hits, hits + misses)
    return out
