"""Outside-in layer tracing: wrap the program's public functions.

The program under test carries no tracing of its own.  A traced run
replaces each layer's public functions (module functions and class
methods, see :data:`LAYERS`) with a timing wrapper for the duration of
one operation and restores them afterwards.

Spans are not kept one per call: a million-packet stream makes
millions of calls into its per-packet layers.  Instead every call is
folded into an aggregate keyed by ``(layer, parent layer)`` holding the
call count, the busy (inclusive) time and the self time (busy minus the
time spent in wrapped callees).  The root span opened by
:meth:`Tracer.root` has no parent; its self time is the part of the
traced wall clock that no layer covers.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT = "benchmark"


def _packed_len(args: tuple, result: object) -> int:
    """Trace entries handed to a simulator pass (``self`` comes first on
    a method, the trace first on a module function)."""
    return len(args[0]) if hasattr(args[0], "pcs") else len(args[1])


def _walk_len(args: tuple, result: object) -> int:
    return len(result.packed)


#: layer name -> (module, qualified attribute names, entry counter or None).
#: A class method is named ``Class.method``; every module that imported a
#: module-level function by name is patched as well.
LAYERS: Dict[str, Tuple[str, Tuple[str, ...], Optional[Callable]]] = {
    "harness.configs.build": (
        "repro.harness.configs",
        ("build_configured_program",),
        None,
    ),
    "harness.experiment.capture": (
        "repro.harness.experiment",
        ("Experiment.capture_roundtrip",),
        None,
    ),
    "core.fastwalk.walk": ("repro.core.fastwalk", ("FastWalker.walk",), _walk_len),
    "arch.simcache.simulate": (
        "repro.arch.simcache",
        ("simulate_cold_and_steady_cached", "gensim_cold_and_steady_cached"),
        None,
    ),
    "arch.fastsim": (
        "repro.arch.fastsim",
        ("cold_and_steady_memory", "cpu_pass", "FastMachine.mem_delta"),
        _packed_len,
    ),
    "traffic.study": ("repro.traffic.study", ("run_traffic_point",), None),
    "traffic.arrivals": ("repro.traffic.arrivals", ("ArrivalSampler.next",), None),
    "traffic.flowtable": (
        "repro.traffic.flowtable",
        (
            "FlowTables.probe_packet",
            "FlowTables.probe_pre_l4",
            "FlowTables.open_flow",
            "FlowTables.close_flow",
        ),
        None,
    ),
    "traffic.stream": ("repro.traffic.stream", ("TransitionStream.feed",), None),
    "traffic.segments": (
        "repro.traffic.segments",
        ("SegmentLibrary.segment",),
        None,
    ),
    "resilience.queueing": (
        "repro.resilience.queueing",
        ("simulate_queue",),
        None,
    ),
    "search.driver": ("repro.search.driver", ("search_cell",), None),
    "search.generators": (
        "repro.search.generators",
        (
            "call_sequence",
            "incumbent_genome",
            "affinity_genome",
            "conflict_genome",
            "mutate",
        ),
        None,
    ),
    "search.evaluate.prefilter": (
        "repro.search.evaluate",
        ("CellEvaluator.prefilter",),
        None,
    ),
    "search.evaluate.score": (
        "repro.search.evaluate",
        ("CellEvaluator.score",),
        None,
    ),
    # the per-candidate bound; the one digest per cell stays with its caller
    "analysis.bounds": ("repro.analysis.bounds", ("bounds_from_digest",), None),
}


class Tracer:
    """Aggregated (layer, parent) spans plus per-layer counters."""

    def __init__(self) -> None:
        #: open frames, innermost last: [layer, time spent in children]
        self._stack: List[list] = []
        #: (layer, parent layer or None) -> [calls, busy_s, self_s]
        self.table: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: layer -> trace entries handed to it
        self.entries: Dict[str, int] = {}
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def wrap(
        self, layer: str, fn: Callable, entries: Optional[Callable] = None
    ) -> Callable:
        """``fn`` timed as one call of ``layer``; ``entries(args, result)``
        counts the trace entries the call handled."""
        stack = self._stack
        table = self.table
        counts = self.entries
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                key = (layer, parent[0] if parent is not None else None)
                record = table.get(key)
                if record is None:
                    record = table[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += busy
                record[2] += busy - frame[1]
                if parent is not None:
                    parent[1] += busy
            if entries is not None:
                counts[layer] = counts.get(layer, 0) + entries(args, result)
            return result

        return wrapper

    @contextmanager
    def root(self) -> Iterator[None]:
        """Open the root span; everything traced inside nests under it."""
        if self._stack:
            raise RuntimeError("the root span must be outermost")
        frame = [ROOT, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            busy = time.perf_counter() - start
            self._stack.pop()
            record = self.table.setdefault((ROOT, None), [0, 0.0, 0.0])
            record[0] += 1
            record[1] += busy
            record[2] += busy - frame[1]

    # ---- summaries ------------------------------------------------------ #

    def busy(self, layer: str) -> float:
        """Inclusive time of ``layer``, not double-counting self-recursion."""
        return sum(
            rec[1]
            for (name, parent), rec in self.table.items()
            if name == layer and parent != layer
        )

    def self_time(self, layer: str) -> float:
        return sum(rec[2] for (name, _), rec in self.table.items() if name == layer)

    def calls(self, layer: str) -> int:
        return int(
            sum(rec[0] for (name, _), rec in self.table.items() if name == layer)
        )

    @property
    def wall(self) -> float:
        return self.table.get((ROOT, None), [0, 0.0, 0.0])[1]

    def unattributed(self) -> float:
        return self.self_time(ROOT)

    def to_json(self) -> List[dict]:
        return [
            {
                "layer": layer,
                "parent": parent,
                "calls": int(rec[0]),
                "busy_s": rec[1],
                "self_s": rec[2],
            }
            for (layer, parent), rec in sorted(
                self.table.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]

    # ---- garbage collector ---------------------------------------------- #

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def _resolve(module: str, qualname: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer function for the duration of the block."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for layer, (module, qualnames, entries) in LAYERS.items():
            for qualname in qualnames:
                owner, attr = _resolve(module, qualname)
                original = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                wrapped = tracer.wrap(layer, original, entries)
                targets = [owner]
                if not isinstance(owner, type):
                    # modules that did ``from module import fn`` hold their
                    # own reference to the original function
                    targets += [
                        mod
                        for name, mod in list(sys.modules.items())
                        if name.startswith("repro") and mod is not owner
                        and getattr(mod, attr, None) is original
                    ]
                for target in targets:
                    undo.append((target, attr, original))
                    setattr(target, attr, wrapped)
        gc.callbacks.append(tracer._on_gc)
        yield tracer
    finally:
        if tracer._on_gc in gc.callbacks:
            gc.callbacks.remove(tracer._on_gc)
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Per-call cost of the tracing wrapper around a no-op, in ns."""

    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    clock = time.perf_counter

    def timed(fn: Callable) -> float:
        best = float("inf")
        for _ in range(3):
            start = clock()
            for _ in range(calls):
                fn()
            best = min(best, clock() - start)
        return best

    with tracer.root():
        cost = timed(wrapped) - timed(noop)
    return max(cost, 0.0) / calls * 1e9
