"""End-to-end benchmark: ``paper_cold`` and ``serve_mix``.

Run from the repository root::

    python3 e2ebench/run.py --workload serve_mix --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace
1`` reports its per-layer metrics. Each workload runs in a fresh child
process over a fresh store (see README.md in this directory); an
untraced ``paper_cold`` run repeats such cold passes until ``--seconds``
have passed, at least ``PAPER_PASSES`` times, and reports their medians.
``paper_cold``'s pass times are scaled to the host's speed, measured
with a fixed reference loop in the middle of each pass (see
reference.py).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import DEFAULT_SECONDS, DEFAULT_SEED  # noqa: E402

WORKLOADS = ("paper_cold", "serve_mix")
#: Set-up samples per untraced run: this many probe processes that only
#: set up, plus the measured run itself.
SETUP_PROBES = 5
#: Fewest cold passes in an untraced paper_cold run. One pass is a
#: single sample of 25-45 s; the median of two (their mean) damps a
#: slow phase of the host that covers only one of them.
PAPER_PASSES = 2
#: Every run must end within this many seconds.
RUN_BUDGET_S = 170.0


# -- child process: one workload, one mode ----------------------------

def _ready(prefill_s: float) -> None:
    print(f"READY {prefill_s!r}", flush=True)


def _load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if not EXPECTED.is_file():
        return None
    with open(EXPECTED, encoding="utf-8") as handle:
        committed = json.load(handle)
    # paper_cold's experiments fix their own seeds: always checked.
    if workload != "paper_cold" and seed != committed.get("seed"):
        return None
    return committed.get(workload)


def _peak_rss_mb(include_children: bool) -> float:
    import resource

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import layers
    import workloads as wl
    from spans import Patcher, Span, SpanRecorder, unattributed_share

    layers.import_program()
    store_root = os.environ["REPRO_CACHE_DIR"]
    expected = _load_expected(args.workload, args.seed)
    probe = args.child == "probe"
    patcher = Patcher()
    recorder = SpanRecorder()

    def start_tracing() -> None:
        if args.traced:
            layers.install(recorder, patcher)

    if args.workload == "serve_mix":
        bench = wl.ServeBench(store_root, traced=args.traced)
        try:
            prefill_s, stored = 0.0, {}
            if not probe:
                t0 = time.perf_counter()
                stored = bench.prefill(wl.stored_keys(args.seed, args.seconds))
                prefill_s = time.perf_counter() - t0
            bench.start()
            _ready(prefill_s)
            if probe:
                return 0
            start_tracing()
            out = wl.run_serve_mix(bench, args.seed, args.seconds, stored, expected)
            recorder.stop()
            if args.traced:
                out.metrics.update(wl.stack_metrics(out.replies))
                # Client requests are the top-level serve spans; the
                # clients' clock is the same system-wide monotonic one.
                recorder.spans.extend(
                    Span("serve.client_request", r.start_ns, r.end_ns) for r in out.replies
                )
        finally:
            bench.stop()
        rss = _peak_rss_mb(include_children=True)
    else:
        _ready(0.0)
        if probe:
            return 0
        guard = wl.StaleReadGuard()
        guard.install(patcher)
        # An untraced pass samples the host's speed (see reference.py);
        # in a traced one the slices would land in the layers' self times.
        speed = None if args.traced else reference.HostSpeed()
        start_tracing()
        out = wl.run_paper_cold(store_root, expected, speed)
        recorder.stop()
        if guard.stale:
            out.fail(f"{len(guard.stale)} store read(s) hit a key this run never wrote")
        rss = _peak_rss_mb(include_children=False)

    if args.traced:
        out.metrics.update(layers.harness_cache_metrics())
        layer = layers.layer_metrics(recorder)
        out.metrics.update(layer)
        out.metrics["bench.unattributed_share"] = unattributed_share(
            recorder.spans, *out.window_ns
        )
        if args.workload == "paper_cold":
            if layer["trace.generate_calls"] != wl.PAPER_TRACES:
                out.fail(f"trace.generate_calls {layer['trace.generate_calls']} != {wl.PAPER_TRACES}")
            if layer["trace.unique_share"] != 1.0:
                out.fail(f"trace.unique_share {layer['trace.unique_share']} != 1.0")
    patcher.restore()
    result = {
        "client_metrics": out.client_metrics,
        "wall_s": out.wall_s,
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": sorted(set(out.failures))[:20],
        "digests": out.digests,
        "metrics": out.metrics,
        "peak_rss_mb": rss,
        "cpu_s": out.cpu_s,
        "ref_samples": out.ref_samples,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# -- parent process: orchestration and the result line ----------------

class ChildFailed(RuntimeError):
    pass


def _child_env(store_root: Path) -> Dict[str, str]:
    # Program switches (REPRO_NO_CACHE, REPRO_TRACE, REPRO_FAULTS, ...)
    # must not leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(store_root)
    return env


def run_child(
    args: argparse.Namespace, mode: str, traced: bool, work: Path, deadline: float
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """(set-up seconds, result dict or None for a probe) of one child."""
    store_root = Path(tempfile.mkdtemp(prefix="store-", dir=work))
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--child", mode,
    ] + (["--traced"] if traced else [])
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(store_root), stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and setup_s is None:
                setup_s = time.perf_counter() - t_spawn - float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(store_root, ignore_errors=True)
    if code != 0 or setup_s is None or (mode == "run" and result is None):
        raise ChildFailed(f"{args.workload} {mode} child exited with code {code}")
    return setup_s, result


def _metric_specs() -> Dict[str, List[Dict[str, Any]]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _report(specs: List[Dict[str, Any]], values: Dict[str, float], workload: str) -> Dict[str, Any]:
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.startswith("serve.") and workload != "serve_mix":
            value = 0.0  # no serve layer runs in paper_cold
        else:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": float(value), "unit": spec["unit"]}
    return metrics


def _diagnose(result: Dict[str, Any]) -> None:
    for failure in result.get("failures", ()):
        print(f"check failed: {failure}", file=sys.stderr)


@contextlib.contextmanager
def _work_dir() -> Iterator[Path]:
    """A fresh directory under WORK, removed (with WORK, if empty) after."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def parent_main(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    specs = _metric_specs()
    try:
        with _work_dir() as work:
            if args.trace == 0:
                samples = [
                    run_child(args, "probe", False, work, deadline)[0]
                    for _ in range(SETUP_PROBES)
                ]
                # One run for serve_mix, whose schedule is sized by
                # --seconds; paper_cold repeats cold passes until
                # --seconds have passed, at least PAPER_PASSES times.
                runs: List[Dict[str, Any]] = []
                start = time.monotonic()
                while not runs or (
                    args.workload == "paper_cold"
                    and (len(runs) < PAPER_PASSES or time.monotonic() - start < args.seconds)
                ):
                    setup_s, run = run_child(args, "run", False, work, deadline)
                    samples.append(setup_s)
                    runs.append(run)
                for run in runs:
                    _diagnose(run)
                attempted = sum(run["attempted"] for run in runs)
                failed = sum(run["failed"] for run in runs)
                done = max(0, attempted - failed)
                # paper_cold's pass times are scaled to the host's speed
                # during the passes; serve_mix's are not (see README.md).
                refs = [dt for run in runs for dt in run["ref_samples"]]
                factor = reference.scale(refs) if refs else 1.0
                if refs:
                    print(f"reference slice median {statistics.median(refs):.5f} s over "
                          f"{len(refs)} slices; pass times scaled by {factor:.4f}",
                          file=sys.stderr)
                values = {
                    "setup_s": statistics.median(samples),
                    "wall_s": statistics.median(run["wall_s"] for run in runs) * factor,
                    "cpu_s": statistics.median(run["cpu_s"] for run in runs) * factor,
                    "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
                    "success_rate": done / attempted,
                }
                metrics = _report(specs["end_to_end"], values, args.workload)
            else:
                _, base = run_child(args, "run", False, work, deadline)
                _, traced = run_child(args, "run", True, work, deadline)
                _diagnose(base)
                _diagnose(traced)
                attempted = base["attempted"] + traced["attempted"]
                failed = base["failed"] + traced["failed"]
                values = dict(traced["metrics"])
                # Client-side serve figures are taken with tracing off.
                values.update(base["client_metrics"])
                values["bench.tracing_overhead_share"] = traced["wall_s"] / base["wall_s"] - 1.0
                values["bench.raw_wall_s"] = base["wall_s"]
                values["bench.reference_slice_s"] = (
                    statistics.median(base["ref_samples"]) if base["ref_samples"] else 0.0
                )
                metrics = _report(specs["per_layer"], values, args.workload)
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def write_expected() -> int:
    """Record the default-seed digests of every workload."""
    deadline = time.monotonic() + len(WORKLOADS) * RUN_BUDGET_S
    committed: Dict[str, Any] = {"seed": DEFAULT_SEED, "seconds": DEFAULT_SECONDS}
    with _work_dir() as work:
        for workload in WORKLOADS:
            child_args = argparse.Namespace(
                workload=workload, seed=DEFAULT_SEED, seconds=DEFAULT_SECONDS
            )
            _, result = run_child(child_args, "run", False, work, deadline)
            committed[workload] = dict(sorted(result["digests"].items()))
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(committed, handle, indent=1)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="record the default-seed digests in expected.json")
    parser.add_argument("--child", choices=("run", "probe"), help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        parser.error("--workload is required")
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
