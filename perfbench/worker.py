"""One workload process: set up, measure (or trace), check, report.

``run.py`` starts this file in a fresh interpreter per measurement::

    python3 perfbench/worker.py --workload zipf_stream --seed 3 --seconds 15
    python3 perfbench/worker.py --workload zipf_stream --seed 3 --setup-only
    python3 perfbench/worker.py --workload zipf_stream --seed 3 --trace

and reads the JSON object this process prints as its last line.  The
object carries ``ready``, the ``time.monotonic()`` reading at which
set-up ended, so the parent can time set-up from the moment it started
the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer, installed, wrapper_cost_ns  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: units of the per-layer metrics
S, N, R = "s", "count", "ratio"


def layer_metrics(
    tracer: Tracer, counters: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced operation, with its unit.

    A layer the workload never enters reports 0.
    """
    busy, calls, self_time = tracer.busy, tracer.calls, tracer.self_time
    entries = tracer.entries.get
    get = counters.get
    feeds = calls("traffic.stream")
    bound_calls = calls("analysis.bounds")
    novel = get("traffic.stream.novel_passes", 0)
    wall = tracer.wall
    return {
        "harness.configs.build_s": (busy("harness.configs.build"), S),
        "harness.configs.build_calls": (calls("harness.configs.build"), N),
        "harness.experiment.capture_s": (busy("harness.experiment.capture"), S),
        "harness.experiment.capture_calls": (calls("harness.experiment.capture"), N),
        "core.fastwalk.walk_s": (busy("core.fastwalk.walk"), S),
        "core.fastwalk.walk_calls": (calls("core.fastwalk.walk"), N),
        "core.fastwalk.walk_entries": (entries("core.fastwalk.walk", 0), N),
        "arch.simcache.simulate_s": (busy("arch.simcache.simulate"), S),
        "arch.simcache.simulate_calls": (calls("arch.simcache.simulate"), N),
        "arch.simcache.hit_ratio": (get("arch.simcache.hit_ratio", 0.0), R),
        "harness.parallel.saving_s": (get("harness.parallel.saving_s", 0.0), S),
        "harness.parallel.retries": (get("harness.parallel.retries", 0), N),
        "harness.parallel.incidents": (get("harness.parallel.incidents", 0), N),
        "traffic.arrivals.busy_s": (busy("traffic.arrivals"), S),
        "traffic.arrivals.calls": (calls("traffic.arrivals"), N),
        "traffic.flowtable.busy_s": (busy("traffic.flowtable"), S),
        "traffic.flowtable.calls": (calls("traffic.flowtable"), N),
        "xkernel.map.hit_ratio": (get("xkernel.map.hit_ratio", 0.0), R),
        "xkernel.map.chain_probes": (get("xkernel.map.chain_probes", 0), N),
        "xkernel.map.probe_compares": (get("xkernel.map.probe_compares", 0), N),
        "traffic.study.self_s": (self_time("traffic.study"), S),
        "traffic.stream.busy_s": (busy("traffic.stream"), S),
        "traffic.stream.calls": (feeds, N),
        "traffic.stream.memo_hit_ratio": (1.0 - novel / feeds if feeds else 0.0, R),
        "traffic.stream.states": (get("traffic.stream.states", 0), N),
        "traffic.stream.memo_evictions": (get("traffic.stream.memo_evictions", 0), N),
        "traffic.stream.degraded": (get("traffic.stream.degraded", 0), N),
        "arch.fastsim.busy_s": (busy("arch.fastsim"), S),
        "arch.fastsim.calls": (calls("arch.fastsim"), N),
        "arch.fastsim.entries": (entries("arch.fastsim", 0), N),
        "traffic.segments.busy_s": (busy("traffic.segments"), S),
        "traffic.segments.calls": (calls("traffic.segments"), N),
        "resilience.queueing.busy_s": (busy("resilience.queueing"), S),
        "resilience.faults.injected": (get("resilience.faults.injected", 0), N),
        "search.generators.busy_s": (busy("search.generators"), S),
        "search.generators.calls": (calls("search.generators"), N),
        "search.evaluate.prefilter_s": (busy("search.evaluate.prefilter"), S),
        "search.evaluate.prefiltered_out": (
            get("search.evaluate.prefiltered_out", 0),
            N,
        ),
        "search.evaluate.score_s": (busy("search.evaluate.score"), S),
        "search.evaluate.score_calls": (calls("search.evaluate.score"), N),
        "analysis.bounds.busy_s": (busy("analysis.bounds"), S),
        "analysis.bounds.calls": (bound_calls, N),
        "analysis.bounds.prune_ratio": (
            get("search.bounds_pruned", 0) / bound_calls if bound_calls else 0.0,
            R,
        ),
        "search.driver.self_s": (self_time("search.driver"), S),
        "python.gc_s": (tracer.gc_s, S),
        "python.gc_collections": (tracer.gc_collections, N),
        "trace.overhead_pct": (counters["trace.overhead_pct"], "%"),
        "trace.wrapper_ns": (counters["trace.wrapper_ns"], "ns"),
        "trace.unattributed_frac": (tracer.unattributed() / wall if wall else 0.0, R),
    }


def simcache_counts() -> Tuple[int, int, int]:
    """The simulation-result cache's (hits, misses, corruptions) so far."""
    from repro.arch import simcache

    return simcache.hits, simcache.misses, simcache.corruptions


class Run:
    """Timed operations of one workload plus what their checks found."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.flags: List[str] = []
        self.times: List[float] = []
        #: simulation-cache (hits, misses) of the latest operation, counted
        #: in this process (a pool's workers keep their own)
        self.cache = (0, 0)

    def once(
        self, serial: bool = False, tracer: Optional[Tracer] = None
    ) -> Tuple[object, float]:
        """One prepared, timed, checked operation, traced if ``tracer``."""
        self.workload.prepare()
        before = simcache_counts()
        start = time.perf_counter()
        if tracer is None:
            out = self.workload.run(serial=serial)
        else:
            with installed(tracer), tracer.root():
                out = self.workload.run(serial=serial)
        elapsed = time.perf_counter() - start
        hits, misses, corruptions = (
            after - prior for after, prior in zip(simcache_counts(), before)
        )
        self.cache = (hits, misses)
        self.record(out, elapsed, corruptions)
        return out, elapsed

    def record(self, out: object, elapsed: float, corruptions: int = 0) -> None:
        """Check one operation's outputs and note its degraded paths."""
        self.attempted += 1
        problems = self.workload.check(out)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
        flags = self.workload.flags(out)
        if corruptions:
            flags.append(f"simcache: {corruptions} corrupt entries recomputed")
        for flag in flags:
            print(f"perfbench: degraded path: {flag}", file=sys.stderr)
            self.flags.append(flag)
        self.times.append(elapsed)


def measure(run: Run, seconds: float) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """Repeat the operation for ``seconds``; report medians."""
    wl = run.workload
    start = time.monotonic()
    out = None
    packets = []
    while True:
        out = None  # the previous outputs must not inflate peak memory
        out, _ = run.once()
        packets.append(wl.packets(out))
        if time.monotonic() - start >= seconds:
            break
    wall = statistics.median(run.times)
    metrics = {
        "wall_s": (wall, "s"),
        "pkts_per_s": (statistics.median(packets) / wall, "1/s"),
        "rtt_err_pct": (wl.rtt_err_pct(out), "%"),
    }
    return metrics, wl.provenance(out)


def trace(run: Run) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """One untraced and one traced operation; the per-layer split."""
    wl = run.workload
    default_out, reference = run.once()
    # the executor counters describe the default (pool) path
    executor = {
        k: v for k, v in wl.counters(default_out).items() if k.startswith("harness.")
    }
    if isinstance(wl, WORKLOADS["table4_sweep"]):
        # the traced sweep runs serially so every span lands in this
        # process; the untraced serial run is its reference
        default_wall = reference
        _, reference = run.once(serial=True)
        executor["harness.parallel.saving_s"] = reference - default_wall
    provenance = wl.provenance(default_out)
    del default_out
    wrapper_ns = wrapper_cost_ns()

    tracer = Tracer()
    out, _ = run.once(serial=True, tracer=tracer)
    hits, misses = run.cache
    counters = {
        **wl.counters(out),
        **executor,
        "arch.simcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.wrapper_ns": wrapper_ns,
        "trace.overhead_pct": 100.0 * (tracer.wall - reference) / reference,
    }
    provenance["layers"] = tracer.to_json()
    provenance["traced_wall_s"] = tracer.wall
    provenance["untraced_wall_s"] = reference
    return layer_metrics(tracer, counters), provenance


def environment() -> dict:
    """Where and how this process ran."""
    from repro.api.settings import Settings

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "engine": Settings.from_env().engine,
        "repro_env": {
            k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(
            f"perfbench: repro imported from {repro.__file__}, not this checkout",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        run = Run(workload)
        metrics, provenance = trace(run) if args.trace else measure(run, args.seconds)
        if not args.trace:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["peak_rss_mb"] = (peak, "MB")
        provenance.update(environment())
        result.update(
            attempted=run.attempted,
            failed=run.failed,
            flags=run.flags,
            times_s=run.times,
            metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            provenance=provenance,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
