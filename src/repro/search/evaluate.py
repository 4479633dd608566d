"""Candidate-layout scoring: static prefilter plus full engine evaluation.

One :class:`CellEvaluator` owns a *private* build of its (stack, config)
cell — candidate layouts are applied in place, so the shared build memo
must never see this program — plus one captured roundtrip, walked once on
the default layout.  The walk is layout-invariant (only its pcs move), so
its trace digest (:func:`repro.analysis.bounds.digest_trace`) and its CPU
issue stats serve every candidate.

On the ``fast`` and ``guarded`` engines, scoring a candidate replays the
digest under its placements through the fast engine's kernel
(:func:`repro.analysis.bounds.replay_digest`): the same columns the
walked trace would produce, the same cold and warm passes, the same
:class:`~repro.arch.simulator.SimResult` arithmetic — bit-identical to
walking and simulating, at a fraction of the cost.  The same replay
certifies the candidate's steady lower bound, so a candidate is replayed
once whether it is pruned or scored.  The ``reference`` engine re-lays
the program out, walks a fresh clone of the captured events and runs
:class:`~repro.arch.simulator.MachineSimulator`: it stays the oracle.

The static prefilter ranks candidates before any replay: it combines
the shared placement-cost model
(:func:`repro.core.placement.replacement_misses` over the cell's block
trace — the same cost micro-positioning minimizes) with the likely pairs
of the static eviction graph (:func:`repro.analysis.conflicts.
likely_pairs`, the mainline half of ``predict_conflicts``), weighting
each pair by how often the trace actually touches both functions.

Scores order lexicographically — steady mCPI, then cold i-cache misses,
then end-to-end RTT — matching the paper's priorities (steady-state
memory CPI is the headline number; cold misses and latency break ties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.bounds import (
    DigestReplay,
    bounds_from_digest,
    digest_trace,
    replay_digest,
)
from repro.analysis.conflicts import likely_pairs, live_functions
from repro.api.settings import Settings
from repro.arch.fastsim import cpu_pass
from repro.arch.memory import MemoryConfig
from repro.arch.simulator import MachineSimulator, SimResult
from repro.core.fastwalk import FastWalker
from repro.core.layout import BLOCK
from repro.core.metrics import trace_block_touches
from repro.core.placement import steady_replacement_misses
from repro.core.program import Program
from repro.core.walker import Walker
from repro.search.artifact import NSETS

Placements = Dict[str, int]

#: b-cache sets at block granularity (2 MB direct-mapped, 32 B blocks)
NBSETS = MemoryConfig.bcache_size // MemoryConfig.block_size
#: static-cost weights, from the modeled stall latencies: a replaced
#: i-block that hits the b-cache stalls ~10 cycles; one evicted from the
#: b-cache as well pays the main-memory penalty on top
ICACHE_MISS_CYCLES = MemoryConfig.bcache_hit_cycles
BCACHE_MISS_CYCLES = (
    MemoryConfig.main_memory_cycles - MemoryConfig.bcache_hit_cycles
)


@dataclass(frozen=True, order=True)
class Score:
    """Lexicographic candidate score (field order IS the comparison)."""

    steady_mcpi: float
    cold_icache_misses: int
    rtt_us: float

    def key(self) -> Tuple[float, int, float]:
        return (self.steady_mcpi, self.cold_icache_misses, self.rtt_us)

    def to_json(self) -> Dict[str, float]:
        return {
            "steady_mcpi": self.steady_mcpi,
            "cold_icache_misses": self.cold_icache_misses,
            "rtt_us": self.rtt_us,
        }


def fingerprint(placements: Placements) -> Tuple:
    """Hashable identity of one candidate layout."""
    return tuple(sorted(placements.items()))


def _clear_walk_templates(program: Program) -> None:
    # compiled walk templates embed absolute pcs; stale templates after a
    # re-layout would silently walk the OLD image
    program.__dict__.pop("_walk_templates", None)


class CellEvaluator:
    """Scores candidate placements for one (stack, config, opts) cell."""

    def __init__(
        self,
        stack: str,
        config: str,
        opts=None,
        *,
        settings: Optional[Settings] = None,
        base_seed: int = 42,
    ) -> None:
        from repro.harness.configs import build_configured_program
        from repro.harness.experiment import Experiment, _clone_events

        self.stack = stack
        self.config = config
        self.settings = settings if settings is not None else Settings.from_env()
        # search scores single samples; the guarded engine's per-sample
        # cross-check is the experiment layer's job, so it maps to fast
        # (scores are bit-identical across all engines anyway)
        self.engine = "reference" if self.settings.engine == "reference" else "fast"
        self.base_seed = base_seed
        self._clone_events = _clone_events
        self._exp = Experiment(
            stack, config, opts, settings=self.settings, base_seed=base_seed
        )
        # private, uncached build: candidates re-lay this program out
        self.build = build_configured_program(stack, config, opts)
        self.program = self.build.program
        self.default_placements: Placements = {
            name: self.program.address_of(name)
            for name in self.program.names()
        }
        self._events, self._data_env = self._exp.capture_roundtrip(base_seed)
        # the block trace (function, block-offset) is layout-independent:
        # compute it once on the default layout and reuse for every
        # candidate's static cost
        walk = FastWalker(self.program, dict(self._data_env)).walk(
            self._clone_events(self._events)
        )
        self.block_trace = trace_block_touches(walk.trace, self.program)
        self.touch_freq: Dict[str, int] = {}
        for name, _ in self.block_trace:
            self.touch_freq[name] = self.touch_freq.get(name, 0) + 1
        # the trace digest is likewise layout-independent (the walk never
        # changes, only its pcs): one digest re-binds to every candidate
        # layout, for its score and for its certified lower bound
        self.digest = digest_trace(walk.trace, self.program)
        self._cpu = cpu_pass(walk.packed)
        # replays made for a lower bound, kept for the candidate's score
        self._replays: Dict[Tuple, DigestReplay] = {}
        # the live set depends on names and call edges, not addresses
        self._live = live_functions(self.program)
        self.evaluated = 0

    # ---- static prefilter ------------------------------------------- #

    def static_cost(self, placements: Placements) -> Tuple[int, int]:
        """(stall estimate, weighted likely-conflicts) — cheap, no walk.

        The first component replays the block trace through the shared
        steady-state placement-cost model twice — once at i-cache
        geometry, once at b-cache geometry, the latter scaled by its far
        costlier miss penalty (a replaced i-block usually hits the
        10-cycle b-cache, but a block evicted from the b-cache too pays
        main memory) — so pessimally spread layouts (BAD) rank as badly
        as they simulate.  The second lays the candidate out and asks
        the static conflict predictor for likely (mainline-vs-mainline)
        pairs, each weighted by the rarer partner's touch count.
        """
        assignment = {
            name: addr // BLOCK for name, addr in placements.items()
        }
        repl_i = steady_replacement_misses(
            self.block_trace, assignment, icache_blocks=NSETS
        )
        repl_b = steady_replacement_misses(
            self.block_trace, assignment, icache_blocks=NBSETS
        )
        repl = repl_i * ICACHE_MISS_CYCLES + repl_b * BCACHE_MISS_CYCLES
        self.program.layout(lambda p: dict(placements))
        weighted = 0
        for a, b in sorted(likely_pairs(self.program, live=self._live)):
            fa = self.touch_freq.get(a, 0)
            fb = self.touch_freq.get(b, 0)
            if fa and fb:
                weighted += min(fa, fb)
        return (repl, weighted)

    def prefilter(
        self, candidates: Sequence[Placements], keep: int
    ) -> List[int]:
        """Indices of the ``keep`` statically-cheapest candidates.

        Stable: ties keep the earlier candidate, so generation order
        (incumbent first) survives into the scored set.
        """
        costs = [self.static_cost(p) for p in candidates]
        ranked = sorted(range(len(candidates)), key=lambda i: (costs[i], i))
        return sorted(ranked[: max(0, keep)])

    def steady_lower_bound(self, placements: Placements) -> float:
        """Sound lower bound on this candidate's steady mCPI — no walk.

        The bound is *certified*: ``steady_lower_bound(p) <=
        score(p).steady_mcpi`` for every candidate, which is what lets
        the search driver drop provably-worse candidates.  It is the
        value :func:`~repro.analysis.bounds.bounds_from_digest` returns:
        where the candidate's replay closes (see
        :class:`~repro.analysis.bounds.DigestReplay`) the abstract
        interpreter would stop with ``lower == upper ==`` the replayed
        steady stalls, so the replay's steady mCPI *is* the bound, and
        the replay is kept for :meth:`score`.  Elsewhere, and on the
        reference engine, the abstract interpreter runs.
        """
        if self.engine != "reference":
            replay = replay_digest(self.digest, placements)
            self._replays[fingerprint(placements)] = replay
            if replay.closed:
                return replay.steady.mcpi
        return bounds_from_digest(self.digest, placements).steady.lower

    # ---- full evaluation -------------------------------------------- #

    def score(self, placements: Placements) -> Score:
        """Score one candidate; bit-identical across engines."""
        if self.engine == "reference":
            self.program.layout(lambda p: dict(placements))
            _clear_walk_templates(self.program)
            walk = Walker(self.program, dict(self._data_env)).walk(
                list(self._clone_events(self._events))
            )
            cold = MachineSimulator().run(walk.trace)
            steady = MachineSimulator().run_steady_state(walk.trace)
            cold_misses = cold.memory.icache.misses
        else:
            replay = self._replays.pop(fingerprint(placements), None)
            if replay is None:
                replay = replay_digest(self.digest, placements)
            steady = SimResult(cpu=self._cpu, memory=replay.steady)
            cold_misses = replay.cold.icache.misses
        rtt = self._exp.latency.roundtrip_us(
            steady.time_us(), self._exp.server_processing_us
        )
        self.evaluated += 1
        return Score(steady.mcpi, cold_misses, rtt)

    def score_placements(
        self,
        batch: Sequence[Placements],
        *,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        report=None,
    ) -> List[Score]:
        """Score a batch, optionally on the self-healing process pool."""
        if not parallel or len(batch) < 2:
            return [self.score(p) for p in batch]
        from repro.harness.parallel import run_parallel_cells

        payloads = [
            (self.stack, self.config, self.build.opts, self.base_seed,
             self.engine, placements)
            for placements in batch
        ]
        labels = [(f"cand{i}", self.base_seed) for i in range(len(batch))]
        scores = run_parallel_cells(
            _score_candidate_worker, payloads, labels,
            max_workers=max_workers, report=report,
        )
        self.evaluated += len(batch)
        return scores

    def restore_default(self) -> None:
        """Put the private program back on its default layout."""
        self.program.layout(lambda p: dict(self.default_placements))
        _clear_walk_templates(self.program)


#: per-worker-process evaluator cache: pool workers score many candidates
#: of the same cell, so the build/capture cost is paid once per process
_worker_evaluators: Dict[Tuple, CellEvaluator] = {}


def _score_candidate_worker(
    stack: str,
    config: str,
    opts,
    base_seed: int,
    engine: str,
    placements: Placements,
    attempt: int = 0,
) -> Score:
    """Pool worker for :meth:`CellEvaluator.score_placements`."""
    key = (stack, config, opts, base_seed, engine)
    evaluator = _worker_evaluators.get(key)
    if evaluator is None:
        evaluator = CellEvaluator(
            stack, config, opts,
            settings=Settings(engine=engine), base_seed=base_seed,
        )
        _worker_evaluators[key] = evaluator
    return evaluator.score(placements)
